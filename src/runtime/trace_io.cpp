#include "runtime/trace_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "io/text_reader.hpp"
#include "verify/trace_lint.hpp"

namespace race2d {

TraceParseError::TraceParseError(std::size_t line_number,
                                 const std::string& what)
    : ContractViolation([&] {
        std::ostringstream os;
        os << "trace parse error at line " << line_number << ": " << what;
        return os.str();
      }()),
      line_number_(line_number) {}

void write_trace_text(std::ostream& os, const Trace& trace) {
  for (const TraceEvent& e : trace) {
    os << op_name(e.op) << ' ' << e.actor;
    switch (op_operand(e.op)) {
      case OpOperand::kTask:
        os << ' ' << e.other;
        break;
      case OpOperand::kLoc:
        os << ' ' << std::hex << e.loc << std::dec;
        break;
      case OpOperand::kNone:
        break;
    }
    os << '\n';
  }
}

std::string trace_to_text(const Trace& trace) {
  std::ostringstream os;
  write_trace_text(os, trace);
  return os.str();
}

Trace parse_trace_text(std::istream& is) {
  // The line-level grammar lives in io/text_reader.cpp now, shared with the
  // streaming ingest fronts; this batch driver just drains the source.
  TextTraceReader reader(is);
  return reader.drain();
}

Trace parse_trace_text(const std::string& text) {
  std::istringstream is(text);
  return parse_trace_text(is);
}

Trace load_trace_text(std::istream& is) {
  Trace trace = parse_trace_text(is);
  require_lint_clean(trace);
  return trace;
}

Trace load_trace_text(const std::string& text) {
  std::istringstream is(text);
  return load_trace_text(is);
}

}  // namespace race2d
