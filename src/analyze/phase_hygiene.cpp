// Pass 4: phase-tag and region-label hygiene.
//
// Flamegraphs, telemetry streams and memory-profiler reports are only
// comparable across runs and branches when every PhaseScope tag and
// every AddressMap region label comes from the canonical registries
// (registry.cpp). A typo'd tag silently forks a new flame bucket and
// breaks `cosparse-prof diff` baselines, so unregistered literals are
// errors, not warnings. Tags built at run time (the interned
// "graph.<algo>" tags) are skipped — the prefix registry covers those.
#include <string>

#include "analyze/pass_util.h"
#include "analyze/passes.h"
#include "analyze/registry.h"

namespace cosparse::analyze {

namespace {

constexpr const char* kPass = "phase_hygiene";

using verify::Severity;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool is_punct(const std::vector<Token>& t, std::size_t i, const char* p) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == p;
}

std::size_t match_paren(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    if (t[k].kind != TokKind::kPunct) continue;
    if (t[k].text == "(") ++depth;
    if (t[k].text == ")" && --depth == 0) return k;
  }
  return kNpos;
}

std::string registry_hint(const std::vector<std::string_view>& entries) {
  std::string hint;
  for (std::string_view e : entries) {
    if (!hint.empty()) hint += ", ";
    hint += e;
  }
  return hint;
}

}  // namespace

std::vector<verify::Finding> check_phase_hygiene(
    const std::vector<const SourceFile*>& files) {
  std::vector<verify::Finding> out;
  for (const SourceFile* file : files) {
    const std::vector<Token>& t = file->tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      const std::string& s = t[i].text;

      if (s == "PhaseScope" || s == "intern_phase_tag") {
        // Covers both the declaration form `PhaseScope phase("tag")`
        // and the call form `intern_phase_tag("tag")` — one optional
        // identifier (the variable name) before the paren. Every literal
        // at the argument list's top level is a tag, so both arms of
        // `native ? "a" : "b"` are checked; literals nested in calls
        // (interned graph.<algo> tags) are covered by the prefix registry.
        std::size_t j = i + 1;
        if (j < t.size() && t[j].kind == TokKind::kIdent) ++j;
        if (!is_punct(t, j, "(")) continue;
        const std::size_t close = match_paren(t, j);
        if (close == kNpos) continue;
        int depth = 0;
        for (std::size_t k = j + 1; k < close; ++k) {
          if (is_punct(t, k, "(")) ++depth;
          if (is_punct(t, k, ")")) --depth;
          if (depth == 0 && t[k].kind == TokKind::kString &&
              !is_canonical_phase_tag(t[k].text)) {
            detail::emit(out, *file, t[k].line, kPass,
                         "phase.unregistered-tag", Severity::kError,
                         "phase tag \"" + t[k].text +
                             "\" is not in the canonical registry "
                             "(src/analyze/registry.cpp); known tags: " +
                             registry_hint(canonical_phase_tags()));
          }
        }
      } else if ((s == "of" || s == "alloc") && is_punct(t, i + 1, "(") &&
                 i >= 1 &&
                 (is_punct(t, i - 1, ".") || is_punct(t, i - 1, "->"))) {
        // AddressMap::of(base, size, "label") / Machine::alloc(size,
        // "label"): the label is the last top-level string literal in
        // the argument list.
        const std::size_t close = match_paren(t, i + 1);
        if (close == kNpos) continue;
        std::size_t label = kNpos;
        int depth = 0;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (t[k].kind == TokKind::kPunct) {
            if (t[k].text == "(") ++depth;
            if (t[k].text == ")") --depth;
          } else if (t[k].kind == TokKind::kString && depth == 0) {
            label = k;
          }
        }
        if (label != kNpos && !is_canonical_region_label(t[label].text)) {
          detail::emit(out, *file, t[label].line, kPass,
                       "phase.unregistered-label", Severity::kError,
                       "region label \"" + t[label].text +
                           "\" is not in the canonical registry "
                           "(src/analyze/registry.cpp); known labels: " +
                           registry_hint(canonical_region_labels()));
        }
      }
    }
  }
  return out;
}

}  // namespace cosparse::analyze
