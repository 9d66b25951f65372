// BatteryLab benchmark: one workload per process, on one thread, as
// a closed loop with a single client.
//
//   labbench --workload <campaign|fleet_dst|operator_reads>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>] [--spans-out <file>]
//                   [--digests <file>] [--tiny] [--plant-failure]
//
// Set-up runs several times (a fresh instance each time) and reports the
// median; the last instance is measured. Every run completes at least one
// period of the workload's input cycle, then stops at --seconds; the
// end-to-end metrics cover the complete periods, so every run measures the
// same mix of inputs. With --trace 0 no layer call is timed and the
// end-to-end metrics are printed. With --trace 1 half of the
// ops record benchmark-side spans around each layer call; the
// per-layer metrics come from those spans and from the platform's own
// counters, and the traced/untraced rate ratio is the tracing overhead.
// Correctness checks and the simulated-output digest run in both modes.
// The last stdout line is one JSON object; the exit code is non-zero when
// any op or check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/logging.hpp"
#include "util/stats.hpp"

#include "bench.hpp"

using namespace blab;
using namespace blab::labbench;

namespace {

/// Set-up repeats until it has run kMinSetups times and for kSetupBudgetS
/// seconds, at most kMaxSetups times; the median is reported.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Span names the ledger attributes op wall time to, one per layer call.
const char* const kLayerSpans[] = {
    "sim.run_for",        "monsoon.stop_monitor", "store.append",
    "store.retention",    "store.range",          "store.summary",
    "store.percentiles",  "store.aggregate",      "persist.checkpoint",
    "server.dispatch",    "read.rollup",          "read.health",
    "read.metrics",       "read.traces",          "read.flame",
    "testing.generate",   "testing.run_scenario",
};
const char* const kReadEndpoints[] = {"rollup", "health", "metrics", "traces",
                                      "flame"};

/// Every per-layer metric, in BENCHMARK.json order; each workload emits all
/// of them (0 where the workload does not exercise the layer).
const MetricDef kPerLayer[] = {
    {"sim.events", "count/op"},
    {"sim.heap_high_water", "count"},
    {"sim.run_for_s", "s/op"},
    {"monsoon.stop_monitor_s", "s/op"},
    {"monsoon.samples", "count/op"},
    {"monsoon.samples_per_busy_s", "1/s"},
    {"store.append_s", "s/op"},
    {"store.bytes_raw", "B/op"},
    {"store.bytes_encoded", "B/op"},
    {"store.encoded_per_raw", "ratio"},
    {"store.retention_s", "s/op"},
    {"store.range_s", "s/op"},
    {"store.summary_s", "s/op"},
    {"store.percentiles_s", "s/op"},
    {"store.aggregate_s", "s/op"},
    {"store.chunk_decodes", "count/op"},
    {"store.cache_hits", "count/op"},
    {"store.cache_hit_ratio", "ratio"},
    {"persist.wal_appends", "count/op"},
    {"persist.wal_bytes", "B/op"},
    {"persist.checkpoints", "count/op"},
    {"persist.checkpoint_s", "s/op"},
    {"persist.open_s", "s"},
    {"persist.recovered_records", "count"},
    {"persist.disk_loads", "count/op"},
    {"persist.disk_bytes_per_sample", "B"},
    {"server.dispatch_s", "s/op"},
    {"server.jobs_dispatched", "count/op"},
    {"server.jobs_failed", "count/op"},
    {"obs.spans_finished", "count/op"},
    {"obs.spans_sampled_out", "count/op"},
    {"obs.metric_series", "count"},
    {"obs.render_prometheus_s", "s/op"},
    {"obs.render_trace_json_s", "s/op"},
    {"read.rollup_s", "s/op"},
    {"read.rollup_p99_ms", "ms"},
    {"read.health_s", "s/op"},
    {"read.health_p99_ms", "ms"},
    {"read.metrics_s", "s/op"},
    {"read.metrics_p99_ms", "ms"},
    {"read.traces_s", "s/op"},
    {"read.traces_p99_ms", "ms"},
    {"read.flame_s", "s/op"},
    {"read.flame_p99_ms", "ms"},
    {"rollup.captures_scanned", "count"},
    {"flame.spans", "count"},
    {"testing.generate_s", "s/op"},
    {"testing.run_scenario_s", "s/op"},
    {"testing.oracle_violations", "count"},
    {"testing.render_share", "ratio"},
    {"bench.unattributed_s", "s/op"},
    {"bench.attributed_share", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.ops_traced", "count"},
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},
    {"op_p99_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Quantile with linear interpolation between order statistics; 0 when
/// there are no values.
double quantile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : util::Cdf{v}.quantile(q);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Recorded digest for (workload, seed, size) from the digests file, where
/// each line reads "<workload> <seed> <full|tiny> <16 hex digits>".
std::string recorded_digest(const std::string& path, const Options& o) {
  std::ifstream in{path};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields{line};
    std::string workload, size, digest;
    std::uint64_t seed = 0;
    if (fields >> workload >> seed >> size >> digest && workload == o.workload &&
        seed == o.seed && size == (o.tiny ? "tiny" : "full")) {
      return digest;
    }
  }
  return {};
}

/// VmHWM of this process image. Unlike getrusage's ru_maxrss it restarts at
/// exec, so a parent's footprint (the Python launcher) is not counted.
double peak_rss_kb() {
  std::ifstream in{"/proc/self/status"};
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  return 0.0;
}

int usage(const char* why) {
  std::cerr << "labbench: " << why << "\n"
            << "usage: labbench --workload <campaign|fleet_dst|"
               "operator_reads> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--spans-out <file>] [--digests <file>] "
               "[--tiny] [--plant-failure]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string spans_out;
  std::string digests_path;
  opts.work_dir = "labbench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string{};
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = value();
    } else if (arg == "--spans-out") {
      spans_out = value();
    } else if (arg == "--digests") {
      digests_path = value();
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--plant-failure") {
      opts.plant = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  using Factory = std::unique_ptr<Workload> (*)(const Options&, int);
  Factory factory = nullptr;
  if (opts.workload == "campaign") factory = make_campaign;
  if (opts.workload == "fleet_dst") factory = make_fleet_dst;
  if (opts.workload == "operator_reads") factory = make_operator_reads;
  if (factory == nullptr) return usage("unknown --workload");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
  util::Logger::global().set_level(util::LogLevel::kOff);

  // ---- set-up, several times; the last instance is measured -------------
  Ledger ledger;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int r = 0; r < kMaxSetups &&
                  (r < kMinSetups || sum(setup_s) < kSetupBudgetS);
       ++r) {
    workload.reset();
    auto candidate = factory(opts, r);
    const std::int64_t t0 = now_ns();
    candidate->setup(ledger);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    workload = std::move(candidate);
  }

  // ---- the closed loop ----------------------------------------------------
  const int op_span = ledger.intern("op");
  const std::size_t period = workload->period();
  std::vector<double> op_ms;
  std::vector<bool> op_traced;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double peak_rss_mb = 0.0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(opts.seconds * 1e9);
  std::size_t i = 0;
  for (; i < period || now_ns() < deadline; ++i) {
    if (i > 0 && i % period == 0) workload->begin_period(i / period);
    // Alternate ops, flipping parity every period: each input and each
    // maintenance slot is traced in one of every two periods.
    const bool traced = opts.trace && ((i / period + i) & 1) != 0;
    ledger.set_recording(traced);
    ledger.set_op(static_cast<std::uint32_t>(i));
    const std::int64_t t0 = now_ns();
    const int root = traced ? ledger.open(op_span) : -1;
    const bool ok = workload->run_op(i, ledger);
    if (root >= 0) ledger.close(root);
    op_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    op_traced.push_back(traced);
    if (traced) workload->after_traced_op(i, ledger);
    ledger.set_recording(false);
    ++attempted;
    if (!ok) ++failed;
    // Peak memory at a fixed op count, so a faster build that gets further
    // in the same seconds does not read as a bigger one.
    if (i + 1 == period) peak_rss_mb = peak_rss_kb() / 1024.0;
  }
  const double loop_s = static_cast<double>(now_ns() - start) / 1e9;

  // The end-to-end metrics cover complete periods, so every run measures
  // the same mix of inputs. The per-layer metrics cover complete pairs of
  // periods, in which every input is traced exactly once (all complete
  // periods when there is only one).
  const std::size_t complete = i / period * period;
  const std::size_t layer_ops =
      i >= 2 * period ? i / (2 * period) * 2 * period : complete;
  ledger.summarize(static_cast<std::uint32_t>(layer_ops));
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::map<std::string, std::vector<double>> kind_ms;  ///< untraced, by kind
  for (std::size_t k = 0; k < layer_ops; ++k) {
    (op_traced[k] ? traced_ms : untraced_ms).push_back(op_ms[k]);
  }
  std::vector<double> e2e_ms;  ///< untraced ops of complete periods
  for (std::size_t k = 0; k < complete; ++k) {
    if (op_traced[k]) continue;
    e2e_ms.push_back(op_ms[k]);
    if (const char* kind = workload->op_kind(k)) kind_ms[kind].push_back(op_ms[k]);
  }

  Report report;
  workload->finish(report);
  const std::string recorded =
      digests_path.empty() ? std::string{} : recorded_digest(digests_path, opts);
  if (!recorded.empty()) {
    report.check(recorded == hex(report.digest),
                 "digest " + hex(report.digest) + " differs from recorded " +
                     recorded);
  }
  workload.reset();

  attempted += report.checks();
  failed += report.check_failures();
  const bool correct = failed == 0;

  // ---- metrics --------------------------------------------------------------
  std::vector<std::pair<MetricDef, double>> out;
  std::cout << "workload " << opts.workload << " seed " << opts.seed
            << (opts.tiny ? " (tiny)" : "") << ": " << i << " ops in "
            << json_number(loop_s) << " s (" << i / period
            << " complete periods of " << period << "), " << report.checks()
            << " checks, digest " << hex(report.digest)
            << (recorded.empty() ? " (no recorded value)"
                                 : recorded == hex(report.digest)
                                       ? " (matches recorded)"
                                       : " (MISMATCH)")
            << "\n";
  std::cout << "error_rate " << json_number(static_cast<double>(failed) /
                                            static_cast<double>(attempted))
            << " ratio (" << failed << " failed of " << attempted
            << " attempted ops and checks)\n";
  if (!opts.trace) {
    // Per-kind figures: what each kind of op costs, so the effect of the
    // mix on the end-to-end metrics is visible.
    const double total_ms = sum(e2e_ms);
    if (!kind_ms.empty()) {
      std::cout << "kind          share_of_ops   mean_ms     p99_ms  "
                   "share_of_time   rate_1/s\n";
    }
    for (const auto& [kind, v] : kind_ms) {
      if (v.empty()) continue;
      const double mean = sum(v) / static_cast<double>(v.size());
      char line[160];
      std::snprintf(line, sizeof line, "%-12s %13.4f %9.5f %10.5f %14.4f %10.1f\n",
                    kind.c_str(),
                    static_cast<double>(v.size()) /
                        static_cast<double>(e2e_ms.size()),
                    mean, quantile(v, 0.99), sum(v) / total_ms, 1e3 / mean);
      std::cout << line;
    }
    const std::vector<double> values = {
        quantile(setup_s, 0.5),
        static_cast<double>(e2e_ms.size()) / (total_ms / 1e3),
        quantile(e2e_ms, 0.50),
        quantile(e2e_ms, 0.99),
        peak_rss_mb,
    };
    for (std::size_t k = 0; k < values.size(); ++k) {
      out.emplace_back(kEndToEnd[k], values[k]);
    }
  } else {
    const double n = static_cast<double>(traced_ms.empty() ? 1 : traced_ms.size());
    const auto self_per_op = [&](const std::string& span) {
      return static_cast<double>(ledger.totals(ledger.intern(span)).self_ns) /
             1e9 / n;
    };
    double attributed = 0.0;
    for (const char* span : kLayerSpans) {
      report.set(std::string{span} + "_s", self_per_op(span));
      attributed += self_per_op(span);
    }
    for (const char* ep : kReadEndpoints) {
      const std::string span = std::string{"read."} + ep;
      report.set(span + "_p99_ms",
                 quantile(ledger.totals(ledger.intern(span)).call_ms, 0.99));
    }
    report.set("obs.render_prometheus_s", self_per_op("obs.render_prometheus"));
    report.set("obs.render_trace_json_s", self_per_op("obs.render_trace_json"));
    const double run_s = report.get("testing.run_scenario_s");
    report.set("testing.render_share",
               run_s > 0 ? (report.get("obs.render_prometheus_s") +
                            report.get("obs.render_trace_json_s")) /
                               run_s
                         : 0.0);
    const double stop_s = report.get("monsoon.stop_monitor_s");
    report.set("monsoon.samples_per_busy_s",
               stop_s > 0 ? report.get("monsoon.samples") / stop_s : 0.0);
    const double op_s = sum(traced_ms) / 1e3 / n;
    report.set("bench.unattributed_s", op_s - attributed);
    report.set("bench.attributed_share", op_s > 0 ? attributed / op_s : 0.0);
    const double traced_rate = n / (sum(traced_ms) / 1e3);
    const double untraced_rate =
        static_cast<double>(untraced_ms.size()) / (sum(untraced_ms) / 1e3);
    report.set("bench.trace_overhead",
               untraced_ms.empty() ? 0.0 : traced_rate / untraced_rate);
    report.set("bench.ops_traced", static_cast<double>(traced_ms.size()));
    for (const MetricDef& def : kPerLayer) {
      out.emplace_back(def, report.get(def.name));
    }
    // Busy and self time per span name, for the layer-share table.
    std::cout << "span                      calls      busy_s/op      self_s/op  "
                 "share_of_op\n";
    for (std::size_t id = 0; id < ledger.name_count(); ++id) {
      const Ledger::Totals& t = ledger.totals(static_cast<int>(id));
      if (t.calls == 0) continue;
      char line[160];
      std::snprintf(line, sizeof line, "%-24s %7llu %14.9f %14.9f %12.4f\n",
                    ledger.name(static_cast<int>(id)).c_str(),
                    static_cast<unsigned long long>(t.calls),
                    static_cast<double>(t.busy_ns) / 1e9 / n,
                    static_cast<double>(t.self_ns) / 1e9 / n,
                    op_s > 0 ? static_cast<double>(t.self_ns) / 1e9 / n / op_s
                             : 0.0);
      std::cout << line;
    }
    if (!spans_out.empty() && !ledger.write(spans_out)) {
      std::cerr << "cannot write spans to " << spans_out << "\n";
    }
  }
  for (const auto& [def, value] : out) {
    std::cout << "metric " << def.name << " = " << json_number(value) << " "
              << def.unit;
    if (std::string{def.name} == "op_p50_ms" ||
        std::string{def.name} == "op_p99_ms") {
      std::cout << " (n=" << e2e_ms.size() << ")";
    }
    if (std::string{def.name} == "setup_s") {
      std::cout << " (median of " << setup_s.size() << " set-ups)";
    }
    std::cout << "\n";
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t k = 0; k < out.size(); ++k) {
    json << (k == 0 ? "" : ", ") << "\"" << out[k].first.name
         << "\": {\"value\": " << json_number(out[k].second) << ", \"unit\": \""
         << out[k].first.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
