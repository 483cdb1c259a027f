// Text serialization of execution traces.
//
// One event per line: the op's name, its actor, then its operand as
// kOpTable (runtime/trace.hpp) gives it — a task, a hex location or sync
// id, or none:
//   fork <parent> <child>          join <joiner> <joined>
//   halt <task>                    sync <task>
//   read <task> <loc-hex>          write <task> <loc-hex>
//   retire <task> <loc-hex>
//   finish_begin <task>            finish_end <task>
//   acquire <task> <sync-hex>      release <task> <sync-hex>
// '#' starts a comment; blank lines are skipped. This is the interchange
// format of the trace-analyzer tool: record once (any instrumentation
// front-end), analyze offline with any of the detectors.
//
// Two load tiers. parse_trace_text is purely syntactic: it rejects
// malformed lines (unknown events, missing or out-of-range fields, trailing
// tokens) with a TraceParseError carrying the line number, but accepts any
// sequence of well-formed events. load_trace_text additionally runs the
// TraceLinter (src/verify/) so truncated or semantically corrupt inputs are
// rejected with typed diagnostics BEFORE any detector replays them.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "runtime/trace.hpp"
#include "support/assert.hpp"

namespace race2d {

/// Syntactic rejection of a trace file, with the 1-based offending line.
class TraceParseError : public ContractViolation {
 public:
  TraceParseError(std::size_t line_number, const std::string& what);
  std::size_t line_number() const { return line_number_; }

 private:
  std::size_t line_number_;
};

/// Writes `trace` in the text format.
void write_trace_text(std::ostream& os, const Trace& trace);
std::string trace_to_text(const Trace& trace);

/// Parses the text format. Throws TraceParseError (a ContractViolation)
/// with a line number on malformed input. Task ids must fit the dense
/// TaskId range; locations are 64-bit hex.
Trace parse_trace_text(std::istream& is);
Trace parse_trace_text(const std::string& text);

/// Parses AND lints: a trace that parses but violates the structured
/// fork-join contract (truncated file, line-discipline corruption, ...)
/// throws TraceLintError with stable diagnostic codes. This is the loading
/// path the analyzer tools use; every gated detector would reject the same
/// inputs at replay time.
Trace load_trace_text(std::istream& is);
Trace load_trace_text(const std::string& text);

}  // namespace race2d
