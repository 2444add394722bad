// Folded-stack profiles: parsing, phase aggregation, flamegraph rendering
// and the differential flame gate.
//
// The interchange format is Brendan Gregg's folded-stack text — one line
// per distinct stack, frames joined by ';' outermost-first, then a space
// and the sample count:
//
//   engine.spmv;kernel.ip;cosparse::kernels::run_inner_product 42
//
// obs::SampleProfiler emits it (phase-tag frames first, then symbol
// frames, plus one "(dropped) N" line when it lost samples); this header
// consumes it with no simulator dependency, so profiles from different
// builds/runs stay comparable — the same split
// cosparse-prof keeps for run reports. Rendering produces a single
// self-contained HTML file (inline SVG icicle, hover tooltips via <title>,
// zero external dependencies) so a CI artifact can be opened anywhere.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"

namespace cosparse::obs {

/// The one-frame stack that counts samples the profiler took but could not
/// keep. It is a phase frame, so shares cover every sample taken.
inline constexpr std::string_view kDroppedFrame = "(dropped)";

struct FoldedStack {
  std::vector<std::string> frames;  ///< outermost first
  std::uint64_t count = 0;
};

struct FoldedProfile {
  std::vector<FoldedStack> stacks;
  std::uint64_t total_samples = 0;

  /// Parses folded-stack text (blank lines skipped). Throws
  /// cosparse::Error on lines without a trailing integer count.
  [[nodiscard]] static FoldedProfile parse(const std::string& text);
};

/// Whether a frame string is a phase tag rather than a symbol: a dotted
/// lowercase identifier like "engine.spmv" (or the "(untagged)" and
/// "(dropped)" markers). Symbols never qualify — they carry "::",
/// parentheses, spaces or hex.
[[nodiscard]] bool is_phase_frame(const std::string& frame);

/// Sample count per *leaf* phase: the deepest frame of each stack's
/// leading phase-frame run; stacks with none count as "(untagged)".
/// Sorted by descending count, then name (deterministic).
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> phase_totals(
    const FoldedProfile& profile);

/// Per-phase share table (phase, samples, share%) for terminal output,
/// followed by a warning when more than 5 % of the samples were dropped.
void print_phase_table(std::ostream& os, const FoldedProfile& profile);

/// The `cpu_profile` phases object: {"<phase>": {"samples": n, "share": s}}
/// in descending-share order.
[[nodiscard]] Json phases_json(const FoldedProfile& profile);

/// A complete standalone flamegraph HTML document (inline SVG icicle).
[[nodiscard]] std::string render_flamegraph_html(const FoldedProfile& profile,
                                                 const std::string& title);

// ---- differential flame gate (cosparse-prof flamediff) ----

struct FlameDiffRow {
  std::string phase;
  double share_a = 0.0;  ///< fraction of baseline samples
  double share_b = 0.0;  ///< fraction of candidate samples
  double delta = 0.0;    ///< share_b - share_a (percentage points / 100)
  bool regressed = false;
};

struct FlameDiffResult {
  std::vector<FlameDiffRow> rows;  ///< descending |delta|
  bool regressed = false;
};

/// Compares per-phase shares of two folded profiles. A phase regresses
/// when its share of total samples *grew* by more than `max_regress`
/// (a fraction: 0.05 = five percentage points — shares are already
/// relative, so the gate is on absolute share growth). Phases absent
/// from one profile count as share 0 there.
[[nodiscard]] FlameDiffResult diff_folded(const FoldedProfile& baseline,
                                          const FoldedProfile& candidate,
                                          double max_regress);

void print_flame_diff(std::ostream& os, const FlameDiffResult& result,
                      double max_regress);

}  // namespace cosparse::obs
