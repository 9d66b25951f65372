// Shared pieces of the BatteryLab benchmark: the benchmark-side span
// ledger, the metric/check report, the workload interface and the measured
// deployment that `campaign` and `operator_reads` both drive.
//
// Every timing here is taken from outside the platform: spans wrap calls
// into each layer's public functions, nothing under src/ is instrumented
// for the benchmark. It runs one workload per process, on one thread, as
// a closed loop with a single client (see main.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/vantage_point.hpp"
#include "hw/power_monitor.hpp"
#include "net/network.hpp"
#include "server/access_server.hpp"
#include "sim/simulator.hpp"

namespace blab::labbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-dependent 64-bit fold (SplitMix64 finalizer over h ^ v).
std::uint64_t mix(std::uint64_t h, std::uint64_t v);
std::uint64_t mix_double(std::uint64_t h, double v);
std::uint64_t mix_bytes(std::uint64_t h, std::string_view bytes);

/// In-memory span recorder. Spans carry a name, start, end, parent span and
/// the op id they belong to; they are kept in memory and written out once
/// the run ends. When recording is off (untraced ops, and the whole
/// end-to-end run) opening a span reads no clock and stores nothing.
class Ledger {
 public:
  /// Span names are interned once; spans refer to them by index.
  int intern(std::string_view name);  ///< idempotent
  const std::string& name(int id) const { return names_[id]; }
  std::size_t name_count() const { return names_.size(); }

  void set_recording(bool on) { on_ = on; }
  bool recording() const { return on_; }
  void set_op(std::uint32_t op) { op_ = op; }

  /// Open a child of the innermost open span; -1 when not recording.
  int open(int name);
  void close(int span);

  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t busy_ns = 0;  ///< sum of span durations
    std::int64_t self_ns = 0;  ///< durations minus child-span coverage
    std::vector<double> call_ms;
  };
  /// Fold the spans of ops below `op_limit` into per-name totals.
  void summarize(std::uint32_t op_limit);
  /// Totals as of the last summarize().
  const Totals& totals(int name) const { return totals_[name]; }

  /// Tab-separated: op, span, parent, name, start_ns, end_ns.
  bool write(const std::string& path) const;

 private:
  struct Span {
    int name = 0;
    std::uint32_t op = 0;
    std::int32_t parent = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t child_ns = 0;
  };
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::int32_t current_ = -1;
  std::uint32_t op_ = 0;
  bool on_ = false;
};

/// RAII span around one layer call.
class Scope {
 public:
  Scope(Ledger& ledger, int name)
      : ledger_{ledger}, span_{ledger.recording() ? ledger.open(name) : -1} {}
  ~Scope() {
    if (span_ >= 0) ledger_.close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger& ledger_;
  int span_;
};

/// Per-layer counts and correctness checks a workload hands back.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  /// 0 for a metric nobody set.
  double get(const std::string& name) const;
  /// Record one correctness check; a failure is printed to stderr.
  void check(bool ok, const std::string& what);

  std::size_t checks() const { return checks_; }
  std::size_t check_failures() const { return failures_; }

  /// Simulated-output digest of the run (compared against digests.txt).
  std::uint64_t digest = 0;

 private:
  std::map<std::string, double> values_;
  std::size_t checks_ = 0;
  std::size_t failures_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test: small catalogs, short captures.
  bool tiny = false;
  /// Plant one failure (dropped capture, REST error, corrupted digest) so
  /// the self-test can prove the run then fails.
  bool plant = false;
  std::string work_dir;  ///< scratch space for persisted catalogs
};

/// One workload: set up, then ops in a closed loop, then checks.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Ledger& ledger) = 0;
  /// Ops i and i + period() take the same input (job shape, scenario or
  /// query). Every run completes at least one period, whatever --seconds
  /// says, so the digest covers the whole first period; the end-to-end
  /// metrics cover complete periods only.
  virtual std::size_t period() const = 0;
  /// Called before op p * period() for p >= 1, outside any op's time.
  virtual void begin_period(std::size_t /*p*/) {}
  /// One op; false when it failed (job failed, oracle tripped, REST error).
  virtual bool run_op(std::size_t i, Ledger& ledger) = 0;
  /// Kind of op i, for the per-kind table; nullptr when ops are all alike.
  virtual const char* op_kind(std::size_t /*i*/) const { return nullptr; }
  /// Extra benchmark-side timing after a traced op, outside the op's time.
  virtual void after_traced_op(std::size_t /*i*/, Ledger& /*ledger*/) {}
  /// Correctness checks, digest and per-layer counts.
  virtual void finish(Report& report) = 0;
};

std::unique_ptr<Workload> make_campaign(const Options& options, int instance);
std::unique_ptr<Workload> make_fleet_dst(const Options& options, int instance);
std::unique_ptr<Workload> make_operator_reads(const Options& options,
                                              int instance);

/// A measured BatteryLab deployment: access server, `nodes` vantage points
/// with two devices each, one experimenter and one admin. Construction
/// onboards every node; persistence (rooted at `persist_dir` when not empty)
/// and the health engine are then switched on.
struct Deployment {
  Deployment(std::uint64_t seed, std::size_t nodes,
             const std::string& persist_dir);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Submit one job pinned to (node, device) with the given script and
  /// approve it; an invalid id on failure. run_queue() then dispatches it.
  server::JobId submit(std::size_t node, std::size_t device,
                       server::JobScript script);
  bool run_queue();
  std::string serial(std::size_t node, std::size_t device) const;

  sim::Simulator sim;
  net::Network net;
  server::AccessServer server;
  std::vector<std::unique_ptr<api::VantagePoint>> nodes;
  std::string admin_token;
  std::string user_token;
  util::Status status = util::Status::ok_status();
};

/// The measurement a campaign job script takes: program the Monsoon for the
/// device, start, let `length` of simulated time pass, stop. The API's store
/// hook is detached first, so stop_monitor is synthesis only and the caller
/// archives the capture itself.
struct MeasureSpans {
  int start = -1;  ///< power, voltage and start_monitor
  int run_for = -1;
  int stop = -1;
};
util::Result<hw::Capture> measure(server::JobContext& ctx, sim::Simulator& sim,
                                  util::Duration length, Ledger& ledger,
                                  const MeasureSpans& spans);

/// Remove a directory tree (ignores a missing path).
void remove_tree(const std::string& path);

}  // namespace blab::labbench
