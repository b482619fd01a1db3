//===- analyze/diagnostics.cpp --------------------------------*- C++ -*-===//

#include "analyze/diagnostics.h"

#include "support/error.h"

#include <sstream>

using namespace latte;
using namespace latte::analyze;

const char *analyze::severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  latteUnreachable("unknown severity");
}

std::string Diagnostic::render() const {
  std::ostringstream OS;
  OS << severityName(Sev) << " [" << Code << "]";
  if (!Task.empty())
    OS << " task '" << Task << "'";
  if (!Buffer.empty())
    OS << " buffer '" << Buffer << "'";
  OS << ": " << Message;
  if (!Snippet.empty()) {
    // Indent the snippet under the diagnostic; snippets may span lines.
    OS << "\n    | ";
    for (char C : Snippet) {
      if (C == '\n')
        OS << "\n    | ";
      else
        OS << C;
    }
  }
  return OS.str();
}

Diagnostic &DiagnosticReport::add(Severity Sev, std::string Code,
                                  std::string Message) {
  Diagnostic D;
  D.Sev = Sev;
  D.Code = std::move(Code);
  D.Message = std::move(Message);
  Diags.push_back(std::move(D));
  return Diags.back();
}

int DiagnosticReport::count(Severity S) const {
  int N = 0;
  for (const Diagnostic &D : Diags)
    N += D.Sev == S ? 1 : 0;
  return N;
}

bool DiagnosticReport::hasCode(const std::string &Code) const {
  for (const Diagnostic &D : Diags)
    if (D.Code == Code)
      return true;
  return false;
}

std::string DiagnosticReport::render() const {
  std::ostringstream OS;
  for (const Diagnostic &D : Diags)
    OS << D.render() << "\n";
  OS << errors() << " error(s), " << warnings() << " warning(s), " << notes()
     << " note(s)";
  return OS.str();
}
