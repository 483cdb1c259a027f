#include "verify/diagnostics.hpp"

#include <iterator>
#include <sstream>

namespace race2d {

namespace {

struct LintCodeInfo {
  const char* id;
  const char* slug;
  LintSeverity severity;
};

using enum LintSeverity;

/// One row per LintCode, in enumerator order.
constexpr LintCodeInfo kLintCodeTable[] = {
    {"L001", "unknown-actor", kError},
    {"L002", "actor-halted", kError},
    {"L003", "double-halt", kError},
    {"L004", "fork-child-collision", kError},
    {"L005", "fork-child-not-dense", kError},
    {"L006", "out-of-serial-order", kError},
    {"L007", "join-target-unknown", kError},
    {"L008", "join-target-not-halted", kError},
    {"L009", "join-not-left-neighbor", kError},
    {"L010", "join-target-already-joined", kError},
    {"L011", "event-after-root-halt", kError},
    {"L012", "truncated-trace", kError},
    {"L013", "unjoined-task", kError},
    {"L014", "finish-end-unbalanced", kError},
    {"L015", "finish-unclosed", kError},
    {"L016", "invalid-task-id", kError},
    {"L017", "release-without-acquire", kError},
    {"L018", "cross-task-mutex-release", kError},
    {"L019", "mutex-unreleased-at-halt", kError},
    {"L020", "double-acquire", kError},
    {"W101", "access-after-retire", kWarning},
    {"W102", "dead-retire", kWarning},
    {"D001", "empty-diagram", kError},
    {"D002", "not-single-source", kError},
    {"D003", "unreachable-or-cyclic", kError},
    {"D004", "self-arc", kError},
    {"D005", "duplicate-arc", kError},
    {"D006", "ops-shape-mismatch", kError},
    {"T001", "vertex-out-of-range", kError},
    {"T002", "missing-loop", kError},
    {"T003", "duplicate-loop", kError},
    {"T004", "unknown-arc", kError},
    {"T005", "arc-out-of-order", kError},
    {"T006", "fan-order-violation", kError},
    {"T007", "last-arc-mismatch", kError},
    {"T008", "stop-arc-violation", kError},
    {"T009", "missing-arc", kError},
    {"S001", "skel-join-underflow", kError},
    {"S002", "skel-unjoined-at-halt", kError},
    {"S003", "skel-loop-bounds", kError},
    {"S004", "skel-branch-empty", kError},
    {"S005", "skel-interval-invalid", kError},
    {"S006", "skel-async-outside-finish", kError},
    {"S007", "skel-pipeline-shape", kError},
    {"S008", "skel-node-shape", kError},
    {"S009", "skel-config-space-truncated", kWarning},
    {"S010", "skel-budget-exceeded", kError},
    {"S011", "skel-possible-violation", kWarning},
    {"S012", "skel-get-before-future", kError},
    {"S013", "skel-future-never-got", kError},
    {"S014", "skel-future-get-cycle", kError},
    {"S015", "skel-get-aliases-cells", kWarning},
    {"S016", "skel-handoff-cell-escapes", kWarning},
    {"S017", "skel-future-budget-exceeded", kError},
    {"S018", "skel-futures-need-relaxed-mode", kError},
    {"S019", "skel-release-unheld-mutex", kError},
    {"S020", "skel-double-acquire", kError},
    {"S021", "skel-mutex-unreleased-at-halt", kError},
    {"S022", "skel-lock-order-cycle", kWarning},
    {"S023", "skel-acquire-across-sync", kWarning},
    {"S024", "skel-possible-lock-violation", kWarning},
};
static_assert(std::size(kLintCodeTable) ==
                  static_cast<std::size_t>(LintCode::kSkelLockPossible) + 1,
              "one kLintCodeTable row per LintCode");

const LintCodeInfo* lint_code_info(LintCode code) {
  const auto i = static_cast<std::size_t>(code);
  return i < std::size(kLintCodeTable) ? &kLintCodeTable[i] : nullptr;
}

}  // namespace

const char* lint_code_id(LintCode code) {
  const LintCodeInfo* info = lint_code_info(code);
  return info != nullptr ? info->id : "????";
}

const char* lint_code_slug(LintCode code) {
  const LintCodeInfo* info = lint_code_info(code);
  return info != nullptr ? info->slug : "unknown";
}

LintSeverity lint_code_severity(LintCode code) {
  const LintCodeInfo* info = lint_code_info(code);
  return info != nullptr ? info->severity : kError;
}

std::string to_string(const LintDiagnostic& d) {
  std::ostringstream os;
  const char* id = lint_code_id(d.code);
  os << id << ' ' << lint_code_slug(d.code)
     << (id[0] == 'S' ? " at node " : " at event ") << d.index << ": "
     << d.message;
  if (!d.hint.empty()) os << " (hint: " << d.hint << ')';
  return os.str();
}

std::size_t LintResult::error_count() const {
  std::size_t n = 0;
  for (const LintDiagnostic& d : diagnostics)
    if (d.severity == LintSeverity::kError) ++n;
  return n;
}

std::size_t LintResult::warning_count() const {
  std::size_t n = 0;
  for (const LintDiagnostic& d : diagnostics)
    if (d.severity == LintSeverity::kWarning) ++n;
  return n;
}

const LintDiagnostic& LintResult::first_error() const {
  for (const LintDiagnostic& d : diagnostics)
    if (d.severity == LintSeverity::kError) return d;
  R2D_ASSERT(false && "first_error() on a clean LintResult");
  return diagnostics.front();
}

std::string to_string(const LintResult& r) {
  std::ostringstream os;
  for (const LintDiagnostic& d : r.diagnostics) os << to_string(d) << '\n';
  if (r.truncated) os << "... (diagnostic list truncated)\n";
  return os.str();
}

namespace {

std::string headline(const char* what, const LintResult& r) {
  std::ostringstream os;
  os << what << ": " << r.error_count() << " error(s), " << r.warning_count()
     << " warning(s)";
  if (!r.ok()) os << "; first: " << to_string(r.first_error());
  return os.str();
}

}  // namespace

TraceLintError::TraceLintError(LintResult result)
    : ContractViolation(headline("trace lint failed", result)),
      result_(std::move(result)) {}

DiagramLintError::DiagramLintError(LintResult result)
    : ContractViolation(headline("diagram lint failed", result)),
      result_(std::move(result)) {}

}  // namespace race2d
