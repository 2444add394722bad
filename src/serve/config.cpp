#include "serve/config.h"

#include <charconv>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/error.h"
#include "serve/json_read.h"
#include "serve/request.h"
#include "sparse/datasets.h"

namespace cosparse::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Why a string (or list entry) is not allowed; empty when it is.
using Allowed = std::string (*)(const std::string&);

constexpr std::string_view kSchedulers[] = {"fcfs", "same-dataset-batch"};
constexpr std::string_view kExecModes[] = {"sim", "native"};
constexpr std::string_view kArrivals[] = {"poisson", "bursty"};

template <const auto& Choices>
std::string one_of(const std::string& s) {
  std::string why;
  for (const std::string_view choice : Choices) {
    if (s == choice) return {};
    why += (why.empty() ? "must be \"" : " or \"") + std::string(choice) + "\"";
  }
  return why;
}

/// Allowed when Parse, which throws cosparse::Error on bad input, takes s.
template <auto Parse>
std::string parses(const std::string& s) {
  try {
    (void)Parse(s);
    return {};
  } catch (const Error& e) {
    return std::string("is invalid: ") + e.what();
  }
}

/// A field's constraint; only the part for the field's kind applies.
struct Rule {
  std::uint64_t min = 0;  ///< integers: smallest legal value
  double lo = -kInf;      ///< reals: v >= lo, or lo < v < hi when open
  double hi = kInf;
  bool open = false;
  /// Strings, and every entry of a list (which must also be non-empty).
  Allowed allowed = nullptr;
  const char* disallowed_id = "serve.bad-value";
};

/// One row of a block's field table. The type of the member it fills is
/// the field's JSON kind: u32 / u64 / real / string / string list.
template <class Block>
struct Field {
  std::string_view name;
  std::variant<std::uint32_t Block::*, std::uint64_t Block::*,
               double Block::*, std::string Block::*,
               std::vector<std::string> Block::*>
      member;
  Rule rule;
};

constexpr Field<ServeConfig> kTopFields[] = {
    {"scheduler_type", &ServeConfig::scheduler_type,
     {.allowed = one_of<kSchedulers>}},
    {"max_active_reqs", &ServeConfig::max_active_reqs, {.min = 1}},
    {"max_batch_size", &ServeConfig::max_batch_size, {.min = 1}},
    {"virtual_workers", &ServeConfig::virtual_workers, {.min = 1}},
    {"cache_budget_bytes", &ServeConfig::cache_budget_bytes, {}},
    {"exec_mode", &ServeConfig::exec_mode, {.allowed = one_of<kExecModes>}},
    {"system", &ServeConfig::system, {.allowed = parses<parse_system>}},
    {"scale", &ServeConfig::scale, {.min = 1}},
    {"dataset_seed", &ServeConfig::dataset_seed, {}},
};

constexpr Field<TrafficConfig> kTrafficFields[] = {
    {"arrival", &TrafficConfig::arrival, {.allowed = one_of<kArrivals>}},
    {"request_interval_us", &TrafficConfig::request_interval_us, {.min = 1}},
    {"request_total_cnt", &TrafficConfig::request_total_cnt, {.min = 1}},
    {"burst_factor", &TrafficConfig::burst_factor, {.lo = 1}},
    {"burst_fraction", &TrafficConfig::burst_fraction,
     {.lo = 0, .hi = 1, .open = true}},
    {"burst_period_us", &TrafficConfig::burst_period_us, {.min = 1}},
    {"seed", &TrafficConfig::seed, {}},
    {"datasets", &TrafficConfig::datasets,
     {.allowed = parses<sparse::DatasetRegistry::spec>,
      .disallowed_id = "serve.unknown-dataset"}},
    {"algos", &TrafficConfig::algos, {.allowed = parses<algo_from_string>}},
    {"tenants", &TrafficConfig::tenants, {.min = 1}},
};

void report(std::vector<ConfigProblem>& out, const std::string& path,
            const char* id, std::string_view why) {
  out.push_back({path, id, "field '" + path + "' " + std::string(why)});
}

/// {finding id, why} when a well-typed value breaks the rule; an empty
/// why when it holds.
template <class T>
std::pair<const char*, std::string> violation(const Rule& r, const T& v) {
  constexpr const char* kBadValue = "serve.bad-value";
  if constexpr (std::is_integral_v<T>) {
    if (v < r.min) return {kBadValue, "must be >= " + std::to_string(r.min)};
  } else if constexpr (std::is_floating_point_v<T>) {
    // Bounds print as the document would write them: 1, not 1.000000.
    const std::string lo = Json(r.lo).dump();
    if (r.open && !(v > r.lo && v < r.hi))
      return {kBadValue, "must be in (" + lo + ", " + Json(r.hi).dump() + ")"};
    if (!r.open && !(v >= r.lo)) return {kBadValue, "must be >= " + lo};
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (r.allowed != nullptr) return {r.disallowed_id, r.allowed(v)};
  } else {
    if (v.empty()) return {kBadValue, "must not be empty"};
    for (const std::string& item : v) {
      if (std::string why = r.allowed(item); !why.empty())
        return {r.disallowed_id, std::move(why)};
    }
  }
  return {};
}

/// Fills the member `key` names from `value`, or records why it cannot;
/// the member keeps its default on any problem.
template <class Block, std::size_t N>
void read_member(const Field<Block> (&table)[N], const std::string& key,
                 const Json& value, const std::string& path, Block& block,
                 std::vector<ConfigProblem>& out) {
  for (const Field<Block>& f : table) {
    if (f.name != key) continue;
    return std::visit(
        [&](auto member) {
          auto slot = block.*member;
          if (const std::string_view why = read_json(value, slot);
              !why.empty())
            return report(out, path, "serve.bad-type", why);
          if (auto [id, why] = violation(f.rule, slot); !why.empty())
            return report(out, path, id, why);
          block.*member = std::move(slot);
        },
        f.member);
  }
  report(out, path, "serve.unknown-field", "is not a known serve_config field");
}

template <class T>
Json json_of(const T& value) {
  if constexpr (std::is_same_v<T, std::vector<std::string>>) {
    Json items = Json::array();
    for (const std::string& item : value) items.push_back(item);
    return items;
  } else {
    return Json(value);
  }
}

/// Writes every member of `table` into `out`, in table order.
template <class Block, std::size_t N>
void write_members(const Field<Block> (&table)[N], const Block& block,
                   Json& out) {
  for (const Field<Block>& f : table)
    std::visit([&](auto member) { out[f.name] = json_of(block.*member); },
               f.member);
}

}  // namespace

ParsedServeConfig parse_serve_config(const Json& doc) {
  ParsedServeConfig parsed;
  std::vector<ConfigProblem>& out = parsed.problems;
  if (!doc.is_object()) {
    out.push_back(
        {"(root)", "serve.bad-document", "document is not an object"});
    return parsed;
  }
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    report(out, "schema", "serve.missing-schema",
           "is missing (expected \"" + std::string(kServeConfigSchema) +
               "\")");
  } else if (schema->as_string() != kServeConfigSchema) {
    // Another document type: its fields would only add noise.
    report(out, "schema", "serve.wrong-schema",
           "has unexpected value '" + schema->as_string() + "'");
    return parsed;
  }
  for (const auto& [key, value] : doc.members()) {
    if (key == "schema") continue;
    if (key != "traffic") {
      read_member(kTopFields, key, value, key, parsed.config, out);
    } else if (!value.is_object()) {
      report(out, key, "serve.bad-type", "must be an object");
    } else {
      for (const auto& [tkey, tvalue] : value.members())
        read_member(kTrafficFields, tkey, tvalue, "traffic." + tkey,
                    parsed.config.traffic, out);
    }
  }
  return parsed;
}

ServeConfig ServeConfig::from_json(const Json& doc) {
  ParsedServeConfig parsed = parse_serve_config(doc);
  if (!parsed.problems.empty())
    throw Error("serve_config: " + parsed.problems.front().message);
  return std::move(parsed.config);
}

Json ServeConfig::to_json() const {
  Json j = Json::object();
  j["schema"] = std::string(kServeConfigSchema);
  write_members(kTopFields, *this, j);
  write_members(kTrafficFields, traffic, j["traffic"]);
  return j;
}

sim::SystemConfig parse_system(const std::string& spec) {
  const auto malformed = [&] {
    return Error("system spec '" + spec +
                 "' must be <tiles>x<PEs per tile>, like 8x8, with at least "
                 "one tile and an even PE count >= 2");
  };
  // Plain decimal on both sides: no sign, no spaces, no u32 overflow.
  const char* end = spec.data() + spec.size();
  std::uint32_t tiles = 0;
  std::uint32_t pes = 0;
  const auto t = std::from_chars(spec.data(), end, tiles);
  if (t.ec != std::errc{} || t.ptr == end || *t.ptr != 'x') throw malformed();
  const auto p = std::from_chars(t.ptr + 1, end, pes);
  if (p.ec != std::errc{} || p.ptr != end) throw malformed();
  try {
    return sim::SystemConfig::transmuter(tiles, pes);
  } catch (const Error&) {
    // transmuter() owns the tile/PE rules, but its CHECK text names a
    // source line rather than the spec.
    throw malformed();
  }
}

}  // namespace cosparse::serve
