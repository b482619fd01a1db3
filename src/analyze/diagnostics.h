//===- analyze/diagnostics.h - Structured analysis diagnostics -*- C++ -*-===//
///
/// \file
/// Diagnostics emitted by the static analysis subsystem (IR verifier,
/// buffer-effect analysis, race detector). A Diagnostic carries a stable
/// dotted code ("ir.var-use", "race.write-write", ...) that tests and the
/// latte-lint CLI key on, plus enough context to localize the problem: the
/// task label the compiler attached to the offending unit, the buffer
/// involved, and a printed IR snippet (the printer's output is
/// deterministic, so snippets are stable across runs).
///
//===----------------------------------------------------------------------===//

#ifndef LATTE_ANALYZE_DIAGNOSTICS_H
#define LATTE_ANALYZE_DIAGNOSTICS_H

#include <string>
#include <vector>

namespace latte {
namespace analyze {

/// Notes record declared-but-noteworthy facts (e.g. the §6 lossy gradient
/// accumulation races); Warnings are possible problems the analysis could
/// not prove either way (conservative footprints); Errors are invariant
/// violations that would miscompute or crash.
enum class Severity { Note, Warning, Error };

const char *severityName(Severity S);

struct Diagnostic {
  Severity Sev = Severity::Error;
  std::string Code;    ///< stable dotted identifier, e.g. "ir.index-rank"
  std::string Message; ///< human-readable explanation
  std::string Task;    ///< task label of the unit, when known
  std::string Buffer;  ///< buffer involved, when relevant
  std::string Snippet; ///< printed IR of the offending statement/expression

  /// "error [ir.index-rank] task 'batch[conv1]' buffer 'conv1_vals': ..."
  std::string render() const;
};

/// Accumulates diagnostics in emission order (which is deterministic: the
/// verifier walks buffers and units in program order).
class DiagnosticReport {
public:
  Diagnostic &add(Severity Sev, std::string Code, std::string Message);
  Diagnostic &error(std::string Code, std::string Message) {
    return add(Severity::Error, std::move(Code), std::move(Message));
  }
  Diagnostic &warning(std::string Code, std::string Message) {
    return add(Severity::Warning, std::move(Code), std::move(Message));
  }
  Diagnostic &note(std::string Code, std::string Message) {
    return add(Severity::Note, std::move(Code), std::move(Message));
  }

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  int count(Severity S) const;
  int errors() const { return count(Severity::Error); }
  int warnings() const { return count(Severity::Warning); }
  int notes() const { return count(Severity::Note); }
  bool hasErrors() const { return errors() > 0; }
  bool empty() const { return Diags.empty(); }

  /// True when any diagnostic (of any severity) carries \p Code.
  bool hasCode(const std::string &Code) const;

  /// One rendered line per diagnostic plus a summary tail line.
  std::string render() const;

private:
  std::vector<Diagnostic> Diags;
};

} // namespace analyze
} // namespace latte

#endif // LATTE_ANALYZE_DIAGNOSTICS_H
