#include "io/text_reader.hpp"

#include <istream>
#include <optional>
#include <sstream>
#include <string>

#include "runtime/trace_io.hpp"

namespace race2d {

namespace {

[[noreturn]] void fail_at(std::size_t line_no, const std::string& why) {
  throw TraceParseError(line_no, why);
}

}  // namespace

bool TextTraceReader::next(TraceEvent& out) {
  std::string line;
  while (std::getline(*is_, line)) {
    ++line_no_;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string op;
    if (!(fields >> op)) continue;  // blank / comment-only line

    const auto read_task = [&]() -> TaskId {
      std::uint64_t v;
      if (!(fields >> v)) fail_at(line_no_, "missing or malformed task id");
      // TaskId is narrower than the parsed integer; a silent cast here once
      // turned a corrupt 2^32-scale id into a plausible small one.
      if (v >= kInvalidTask) {
        std::ostringstream os;
        os << "task id " << v << " out of range (max " << (kInvalidTask - 1)
           << ')';
        fail_at(line_no_, os.str());
      }
      return static_cast<TaskId>(v);
    };
    const auto read_loc = [&]() -> Loc {
      Loc v;
      if (!(fields >> std::hex >> v)) fail_at(line_no_, "missing or malformed location");
      return v;
    };

    const std::optional<TraceOp> parsed = op_from_name(op);
    if (!parsed) fail_at(line_no_, "unknown event '" + op + "'");
    TraceEvent e{*parsed, read_task()};
    switch (op_operand(e.op)) {
      case OpOperand::kTask:
        e.other = read_task();
        break;
      case OpOperand::kLoc:
        e.loc = read_loc();
        break;
      case OpOperand::kNone:
        break;
    }
    std::string excess;
    if (fields >> excess) fail_at(line_no_, "trailing tokens");
    out = e;
    return true;
  }
  if (is_->bad())
    throw TraceParseError(line_no_ + 1, "I/O error while reading trace");
  return false;
}

}  // namespace race2d
