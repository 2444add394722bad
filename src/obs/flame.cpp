#include "obs/flame.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/table.h"

namespace cosparse::obs {

namespace {

std::vector<std::string> split_frames(const std::string& stack) {
  std::vector<std::string> frames;
  std::size_t begin = 0;
  while (begin <= stack.size()) {
    std::size_t end = stack.find(';', begin);
    if (end == std::string::npos) end = stack.size();
    if (end > begin) frames.push_back(stack.substr(begin, end - begin));
    begin = end + 1;
  }
  return frames;
}

}  // namespace

FoldedProfile FoldedProfile::parse(const std::string& text) {
  FoldedProfile profile;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.pop_back();
    const std::size_t space = line.find_last_of(' ');
    if (space == std::string::npos || space + 1 >= line.size())
      throw Error("folded line " + std::to_string(lineno) +
                  ": expected '<stack> <count>': " + line);
    const std::string count_str = line.substr(space + 1);
    std::uint64_t count = 0;
    for (char c : count_str) {
      if (c < '0' || c > '9')
        throw Error("folded line " + std::to_string(lineno) +
                    ": bad sample count '" + count_str + "'");
      count = count * 10 + static_cast<std::uint64_t>(c - '0');
    }
    FoldedStack stack;
    stack.frames = split_frames(line.substr(0, space));
    stack.count = count;
    if (stack.frames.empty())
      throw Error("folded line " + std::to_string(lineno) + ": empty stack");
    profile.total_samples += count;
    profile.stacks.push_back(std::move(stack));
  }
  return profile;
}

bool is_phase_frame(const std::string& frame) {
  if (frame == "(untagged)" || frame == kDroppedFrame) return true;
  bool has_dot = false;
  for (char c : frame) {
    if (c == '.') {
      has_dot = true;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return has_dot;
}

std::vector<std::pair<std::string, std::uint64_t>> phase_totals(
    const FoldedProfile& profile) {
  std::map<std::string, std::uint64_t> totals;
  for (const FoldedStack& stack : profile.stacks) {
    const std::string* leaf = nullptr;
    for (const std::string& frame : stack.frames) {
      if (!is_phase_frame(frame)) break;
      leaf = &frame;
    }
    totals[leaf != nullptr ? *leaf : std::string("(untagged)")] += stack.count;
  }
  std::vector<std::pair<std::string, std::uint64_t>> out(totals.begin(),
                                                         totals.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

void print_phase_table(std::ostream& os, const FoldedProfile& profile) {
  Table table({"phase", "samples", "share"});
  const double total =
      profile.total_samples > 0 ? static_cast<double>(profile.total_samples)
                                : 1.0;
  double dropped = 0.0;
  for (const auto& [phase, count] : phase_totals(profile)) {
    table.add_row({phase, std::to_string(count),
                   Table::fmt_pct(static_cast<double>(count) / total)});
    if (phase == kDroppedFrame) dropped = static_cast<double>(count);
  }
  table.print(os);
  if (20.0 * dropped > total) {
    os << "warning: " << Table::fmt_pct(dropped / total)
       << " of CPU-profile samples were dropped (> 5%)\n";
  }
}

Json phases_json(const FoldedProfile& profile) {
  Json phases = Json::object();
  const double total =
      profile.total_samples > 0 ? static_cast<double>(profile.total_samples)
                                : 1.0;
  for (const auto& [phase, count] : phase_totals(profile)) {
    Json entry = Json::object();
    entry["samples"] = count;
    entry["share"] = static_cast<double>(count) / total;
    phases[phase] = std::move(entry);
  }
  return phases;
}

namespace {

// ---- flamegraph rendering ----
//
// The folded stacks are merged into a frame trie; each node becomes one
// <rect> of an icicle layout (root on top). Geometry is computed in
// sample units and scaled into a fixed-width viewBox so the SVG needs no
// script to lay itself out — hover detail rides on native <title> tips.

struct FrameNode {
  std::string name;
  std::uint64_t total = 0;  ///< samples in this node and below
  std::map<std::string, std::size_t> children;  ///< name -> node index
};

struct FrameTrie {
  std::vector<FrameNode> nodes;  ///< nodes[0] is the synthetic root
  int depth = 0;

  explicit FrameTrie(const FoldedProfile& profile) {
    nodes.push_back(FrameNode{"all", 0, {}});
    for (const FoldedStack& stack : profile.stacks) {
      std::size_t cur = 0;
      nodes[0].total += stack.count;
      int d = 0;
      for (const std::string& frame : stack.frames) {
        auto [it, inserted] =
            nodes[cur].children.emplace(frame, nodes.size());
        if (inserted) nodes.push_back(FrameNode{frame, 0, {}});
        cur = it->second;
        nodes[cur].total += stack.count;
        depth = std::max(depth, ++d);
      }
    }
  }
};

std::string escape_xml(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Deterministic warm color per frame name; phase frames get a distinct
/// blue-green palette so logical phases pop against symbol frames.
std::string frame_color(const std::string& name) {
  std::uint32_t h = 2166136261u;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
  char buf[16];
  if (is_phase_frame(name)) {
    const unsigned r = 40 + (h % 60);
    const unsigned g = 140 + ((h >> 8) % 80);
    const unsigned b = 160 + ((h >> 16) % 80);
    std::snprintf(buf, sizeof buf, "#%02x%02x%02x", r, g, b);
  } else {
    const unsigned r = 200 + (h % 55);
    const unsigned g = 70 + ((h >> 8) % 110);
    const unsigned b = 20 + ((h >> 16) % 40);
    std::snprintf(buf, sizeof buf, "#%02x%02x%02x", r, g, b);
  }
  return buf;
}

constexpr double kSvgWidth = 1200.0;
constexpr double kRowHeight = 17.0;

void render_node(std::ostream& os, const FrameTrie& trie, std::size_t index,
                 double x, double width_per_sample, int depth,
                 std::uint64_t total_samples) {
  const FrameNode& node = trie.nodes[index];
  const double w = static_cast<double>(node.total) * width_per_sample;
  if (w < 0.1) return;  // invisible at this resolution, and so are children
  const double y = static_cast<double>(depth) * kRowHeight;
  const double share =
      static_cast<double>(node.total) /
      static_cast<double>(total_samples > 0 ? total_samples : 1);
  os << "<g><rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << w
     << "\" height=\"" << (kRowHeight - 1.0) << "\" fill=\""
     << frame_color(node.name) << "\" rx=\"2\"/>";
  os << "<title>" << escape_xml(node.name) << " — " << node.total
     << " samples (" << Table::fmt_pct(share) << ")</title>";
  if (w > 30.0) {
    // ~7 px per character at 12 px font; clip rather than overflow.
    const auto max_chars = static_cast<std::size_t>(w / 7.0);
    std::string label = node.name;
    if (label.size() > max_chars)
      label = label.substr(0, max_chars > 2 ? max_chars - 2 : 0) + "..";
    os << "<text x=\"" << (x + 3.0) << "\" y=\"" << (y + 12.0) << "\">"
       << escape_xml(label) << "</text>";
  }
  os << "</g>\n";
  double child_x = x;
  for (const auto& [name, child] : node.children) {
    render_node(os, trie, child, child_x, width_per_sample, depth + 1,
                total_samples);
    child_x += static_cast<double>(trie.nodes[child].total) * width_per_sample;
  }
}

}  // namespace

std::string render_flamegraph_html(const FoldedProfile& profile,
                                   const std::string& title) {
  const FrameTrie trie(profile);
  const double height = static_cast<double>(trie.depth + 1) * kRowHeight;
  const double per_sample =
      profile.total_samples > 0
          ? kSvgWidth / static_cast<double>(profile.total_samples)
          : 0.0;

  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
     << escape_xml(title) << "</title>\n<style>\n"
     << "body{font-family:monospace;background:#fdfdfd;margin:16px;}\n"
     << "svg{width:100%;}\n"
     << "svg text{font-size:12px;fill:#1a1a1a;pointer-events:none;}\n"
     << "table{border-collapse:collapse;margin-top:12px;}\n"
     << "td,th{border:1px solid #bbb;padding:2px 10px;text-align:left;}\n"
     << "</style></head>\n<body>\n<h2>" << escape_xml(title) << "</h2>\n"
     << "<p>" << profile.total_samples
     << " samples; hover a frame for counts. Blue-green frames are logical "
        "phases, warm frames are symbols.</p>\n";
  os << "<svg viewBox=\"0 0 " << kSvgWidth << " " << height
     << "\" xmlns=\"http://www.w3.org/2000/svg\">\n";
  if (profile.total_samples > 0) {
    render_node(os, trie, 0, 0.0, per_sample, 0, profile.total_samples);
  } else {
    os << "<text x=\"4\" y=\"14\">(no samples)</text>\n";
  }
  os << "</svg>\n<h3>Per-phase share</h3>\n<table><tr><th>phase</th>"
     << "<th>samples</th><th>share</th></tr>\n";
  const double total =
      profile.total_samples > 0 ? static_cast<double>(profile.total_samples)
                                : 1.0;
  for (const auto& [phase, count] : phase_totals(profile)) {
    os << "<tr><td>" << escape_xml(phase) << "</td><td>" << count
       << "</td><td>" << Table::fmt_pct(static_cast<double>(count) / total)
       << "</td></tr>\n";
  }
  os << "</table>\n</body></html>\n";
  return os.str();
}

FlameDiffResult diff_folded(const FoldedProfile& baseline,
                            const FoldedProfile& candidate,
                            double max_regress) {
  std::map<std::string, std::pair<double, double>> shares;
  const double total_a =
      baseline.total_samples > 0 ? static_cast<double>(baseline.total_samples)
                                 : 1.0;
  const double total_b =
      candidate.total_samples > 0
          ? static_cast<double>(candidate.total_samples)
          : 1.0;
  for (const auto& [phase, count] : phase_totals(baseline))
    shares[phase].first = static_cast<double>(count) / total_a;
  for (const auto& [phase, count] : phase_totals(candidate))
    shares[phase].second = static_cast<double>(count) / total_b;

  FlameDiffResult result;
  for (const auto& [phase, pair] : shares) {
    FlameDiffRow row;
    row.phase = phase;
    row.share_a = pair.first;
    row.share_b = pair.second;
    row.delta = row.share_b - row.share_a;
    row.regressed = row.delta > max_regress;
    result.regressed = result.regressed || row.regressed;
    result.rows.push_back(std::move(row));
  }
  std::sort(result.rows.begin(), result.rows.end(),
            [](const FlameDiffRow& a, const FlameDiffRow& b) {
              const double da = std::abs(a.delta);
              const double db = std::abs(b.delta);
              if (da != db) return da > db;
              return a.phase < b.phase;
            });
  return result;
}

void print_flame_diff(std::ostream& os, const FlameDiffResult& result,
                      double max_regress) {
  Table table({"phase", "baseline", "candidate", "delta", "verdict"});
  for (const FlameDiffRow& row : result.rows) {
    std::string delta = row.delta < 0 ? "-" : "+";
    delta += Table::fmt_pct(std::abs(row.delta));
    table.add_row({row.phase, Table::fmt_pct(row.share_a),
                   Table::fmt_pct(row.share_b), delta,
                   row.regressed ? "REGRESSED" : "ok"});
  }
  table.print(os);
  if (result.regressed) {
    os << "FAIL: phase share regression beyond "
       << Table::fmt_pct(max_regress) << "\n";
  } else {
    os << "OK: no phase share regression beyond "
       << Table::fmt_pct(max_regress) << "\n";
  }
}

}  // namespace cosparse::obs
