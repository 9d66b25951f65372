// Fuzz target: REST request-line + query-string parsing, plus the built-in
// /metrics and /traces endpoints behind them (the surface every untrusted
// experimenter request crosses first).
//
// Invariants checked on accepted input:
//   - endpoint names respect the documented charset and length limits;
//   - parse_query never yields empty keys, never exceeds kMaxQueryParams,
//     and is idempotent on already-decoded text without '%', '+', '&', '=';
//   - a full backend dispatch returns a Result, never throws or crashes.
//
// Writer mode, on every input: the raw bytes become a span attribute and a
// metric label value, and the rendered bodies must stay well-formed — no
// JSON body carries a byte below 0x20, and the Prometheus body holds exactly
// one line per sample.
#include <algorithm>
#include <string>

#include "controller/rest_backend.hpp"
#include "fuzz_input.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"

namespace {

using blab::controller::RestBackend;

blab::util::Result<std::string> dispatch(const std::string& name,
                                         const std::string& query) {
  // One long-lived backend across all iterations, like a real deployment.
  static blab::sim::Simulator sim;
  static blab::net::Network net{sim, 0x5EED};
  static RestBackend backend{net, "fuzz-ctrl"};
  static bool init = [] {
    backend.register_endpoint("echo", [](const std::string& q) {
      return blab::util::Result<std::string>{"echo:" + q};
    });
    return true;
  }();
  (void)init;
  return backend.call(name, query);
}

bool has_control_byte(const std::string& body) {
  return std::any_of(body.begin(), body.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  });
}

void check_writer(const std::string& payload) {
  // A fresh deployment per input keeps label cardinality bounded.
  blab::sim::Simulator sim;
  blab::net::Network net{sim, 0x5EED};
  RestBackend backend{net, "fuzz-writer"};
  blab::obs::Tracer& tracer = sim.tracer();
  const std::uint64_t root = tracer.begin_detached("fuzz", "job");
  tracer.set_attr(root, "job", payload);
  const std::uint64_t trace = tracer.context_of(root).trace;
  tracer.end(root);
  sim.metrics().counter("blab_fuzz_total", {{"value", payload}}).inc();

  for (const std::string& query :
       {std::string{}, "trace_id=" + std::to_string(trace)}) {
    const auto traces = backend.call("traces", query);
    FUZZ_ASSERT(traces.ok());
    FUZZ_ASSERT(!has_control_byte(traces.value()));
  }
  const auto json = backend.call("metrics", "format=json");
  FUZZ_ASSERT(json.ok());
  FUZZ_ASSERT(!has_control_byte(json.value()));

  const auto text = backend.call("metrics", "");
  FUZZ_ASSERT(text.ok());
  // One `# TYPE` line per metric name, one line per counter or gauge, and
  // bounds + 1 buckets plus _sum and _count per histogram.
  std::size_t lines = 0;
  std::string last_name;
  for (const auto& s : sim.metrics().snapshot().series) {
    if (s.name != last_name) ++lines;
    last_name = s.name;
    lines += s.kind == blab::obs::MetricKind::kHistogram ? s.bounds.size() + 3
                                                         : 1;
  }
  FUZZ_ASSERT(static_cast<std::size_t>(std::count(
                  text.value().begin(), text.value().end(), '\n')) == lines);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string payload{reinterpret_cast<const char*>(data), size};

  auto request = blab::controller::parse_request_line(payload);
  if (request.ok()) {
    const auto& name = request.value().name;
    FUZZ_ASSERT(!name.empty());
    FUZZ_ASSERT(name.size() <= blab::controller::kMaxEndpointBytes);
    FUZZ_ASSERT(payload.size() <= blab::controller::kMaxRequestBytes);
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                      c == '.';
      FUZZ_ASSERT(ok);
    }
    (void)dispatch(request.value().name, request.value().query);
  }

  // Query parsing must be total on arbitrary bytes, with the documented
  // shape guarantees.
  const auto params = blab::controller::parse_query(payload);
  FUZZ_ASSERT(params.size() <= blab::controller::kMaxQueryParams);
  for (const auto& [key, value] : params) {
    FUZZ_ASSERT(!key.empty());
    // Decoding is a single pass: text with no metacharacters re-parses to
    // itself ("a%2520b" decodes to "a%20b", never to "a b").
    if (key.find_first_of("%+&=") == std::string::npos) {
      const auto again = blab::controller::parse_query(key);
      FUZZ_ASSERT(again.size() == 1 && again.begin()->first == key);
    }
    (void)value;
  }

  check_writer(payload);
  return 0;
}
