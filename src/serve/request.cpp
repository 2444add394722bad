#include "serve/request.h"

#include "common/error.h"
#include "serve/json_read.h"

namespace cosparse::serve {

const char* to_string(Algo a) {
  switch (a) {
    case Algo::kBfs: return "bfs";
    case Algo::kSssp: return "sssp";
    case Algo::kPagerank: return "pagerank";
    case Algo::kCf: return "cf";
  }
  return "bfs";
}

Algo algo_from_string(std::string_view s) {
  if (s == "bfs") return Algo::kBfs;
  if (s == "sssp") return Algo::kSssp;
  if (s == "pagerank") return Algo::kPagerank;
  if (s == "cf") return Algo::kCf;
  throw Error("unknown algo: '" + std::string(s) +
              "' (expected bfs/sssp/pagerank/cf)");
}

Json to_json(const QueryRequest& r) {
  Json j = Json::object();
  j["id"] = r.id;
  j["arrival_us"] = r.arrival_us;
  j["tenant"] = r.tenant;
  j["dataset"] = r.dataset;
  j["algo"] = to_string(r.algo);
  j["source"] = r.source;
  j["iterations"] = r.iterations;
  j["seed"] = r.seed;
  return j;
}

ParsedRequest parse_request(const Json& doc) {
  ParsedRequest out;
  if (!doc.is_object()) {
    out.error = "request must be a JSON object";
    return out;
  }
  QueryRequest req;
  bool saw_algo = false;
  for (const auto& [key, value] : doc.members()) {
    std::string_view why;
    if (key == "id") {
      why = read_json(value, req.id);
    } else if (key == "arrival_us") {
      why = read_json(value, req.arrival_us);
    } else if (key == "tenant") {
      why = read_json(value, req.tenant);
    } else if (key == "dataset") {
      why = read_json(value, req.dataset);
    } else if (key == "algo") {
      std::string name;
      why = read_json(value, name);
      if (why.empty()) {
        try {
          req.algo = algo_from_string(name);
        } catch (const Error& e) {
          out.error = e.what();
          out.error_field = "algo";
          return out;
        }
      }
      saw_algo = true;
    } else if (key == "source") {
      why = read_json(value, req.source);
    } else if (key == "iterations") {
      why = read_json(value, req.iterations);
    } else if (key == "seed") {
      why = read_json(value, req.seed);
    } else {
      // Unknown fields are hard errors: silently dropping them would turn
      // a client schema drift into silently-wrong answers.
      out.error = "unknown field '" + key + "'";
      out.error_field = key;
      return out;
    }
    if (!why.empty()) {
      out.error = "field '" + key + "' " + std::string(why);
      out.error_field = key;
      return out;
    }
  }
  if (req.dataset.empty()) {
    out.error = "missing mandatory field 'dataset'";
    out.error_field = "dataset";
    return out;
  }
  if (!saw_algo) {
    out.error = "missing mandatory field 'algo'";
    out.error_field = "algo";
    return out;
  }
  out.request = std::move(req);
  return out;
}

ParsedRequest parse_request_line(std::string_view line) {
  Json doc;
  try {
    doc = Json::parse(line);
  } catch (const Error& e) {
    ParsedRequest out;
    out.error = std::string("bad request JSON: ") + e.what();
    return out;
  }
  return parse_request(doc);
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kRejected: return "rejected";
    case Status::kError: return "error";
  }
  return "error";
}

Json results_json(const QueryResponse& r) {
  Json j = Json::object();
  j["id"] = r.id;
  j["status"] = to_string(r.status);
  if (!r.error.empty()) j["error"] = r.error;
  if (!r.error_field.empty()) j["error_field"] = r.error_field;
  j["tenant"] = r.tenant;
  j["dataset"] = r.dataset;
  j["algo"] = r.algo;
  if (r.status == Status::kOk) {
    j["digest"] = r.digest;
    j["result_elems"] = r.result_elems;
    j["algo_iterations"] = r.algo_iterations;
  }
  j["arrival_us"] = r.arrival_us;
  j["dispatch_us"] = r.dispatch_us;
  j["finish_us"] = r.finish_us;
  j["latency_us"] = r.latency_us();
  j["batch"] = r.batch;
  return j;
}

Json wire_json(const QueryResponse& r) {
  Json j = results_json(r);
  j["wall_service_ms"] = r.wall_service_ms;
  return j;
}

}  // namespace cosparse::serve
