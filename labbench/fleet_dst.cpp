// `fleet_dst`: testing::generate_scenario and testing::run_scenario over a
// fixed block of the DST corpus, cycled until time is up. Every scenario
// builds a whole deployment with faults, mirroring, ADB and VPN churn, runs
// the invariant oracles after every step and renders its trace and metrics;
// captures are 1-3 s, so the kernel, device models and harness dominate.
// Each op is one scenario. Later passes over the block must reproduce the
// first pass's per-seed digests exactly.
#include "obs/export.hpp"
#include "testing/harness.hpp"
#include "testing/scenario.hpp"

#include "bench.hpp"

namespace blab::labbench {
namespace {

/// Scenario whose result gets a planted oracle finding.
constexpr std::size_t kPlantedOp = 2;

class FleetDst final : public Workload {
 public:
  FleetDst(const Options& options, int /*instance*/) : options_{options} {}

  void setup(Ledger& ledger) override {
    generate_ = ledger.intern("testing.generate");
    run_ = ledger.intern("testing.run_scenario");
    render_prom_ = ledger.intern("obs.render_prometheus");
    render_trace_ = ledger.intern("obs.render_trace_json");
    // Seed s selects corpus block (s - 1) mod 100, so seed 1 is the head of
    // the CI corpus (ctest -L dst fuzzes its first 40 seeds). Scenario cost
    // varies several-fold from seed to seed; a 1024-seed block keeps the
    // block's mean cost within a few percent of any other block's.
    const std::size_t block_size = options_.tiny ? 6 : 1024;
    const std::size_t block = (options_.seed + 99) % 100;
    const auto corpus = testing::default_corpus((block + 1) * block_size);
    seeds_.assign(corpus.end() - static_cast<std::ptrdiff_t>(block_size),
                  corpus.end());
    digests_.assign(seeds_.size(), 0);
    // Warm-up: eight scenarios from outside the block.
    for (std::uint64_t w = 0; w < 8; ++w) {
      (void)testing::run_scenario(corpus.front() ^ (0x5EEDULL + w));
    }
  }

  std::size_t period() const override { return seeds_.size(); }

  bool run_op(std::size_t i, Ledger& ledger) override {
    const std::size_t k = i % seeds_.size();
    testing::ScenarioSpec spec;
    {
      Scope scope{ledger, generate_};
      spec = testing::generate_scenario(seeds_[k]);
    }
    {
      Scope scope{ledger, run_};
      last_ = testing::run_scenario(spec);
    }
    if (options_.plant && i == kPlantedOp) {
      last_.violations.push_back({"planted", "injected oracle finding"});
    }
    bool ok = last_.ok();
    if (i < seeds_.size()) {
      digests_[k] = last_.digest;
    } else if (digests_[k] != last_.digest) {
      ++replay_mismatches_;
      ok = false;
    }
    ++ops_;
    violations_ += last_.violations.size();
    events_ += last_.events_executed;
    jobs_dispatched_ += last_.jobs_dispatched;
    spans_ += last_.spans.size();
    series_ += last_.metrics.series.size();
    jobs_failed_ += last_.metrics.value_or("blab_scheduler_jobs_finished_total",
                                           {{"result", "failed"}});
    sampled_out_ += last_.metrics.value_or("blab_trace_spans_sampled_out_total");
    monsoon_samples_ +=
        last_.metrics.value_or("blab_monsoon_samples_synthesized_total");
    heap_high_water_ = std::max(
        heap_high_water_, last_.metrics.value_or("blab_sim_heap_high_water"));
    return ok;
  }

  /// Re-time the end-of-run rendering run_scenario already did, so its share
  /// of the unsplit run_scenario time is measured; the bytes must match.
  void after_traced_op(std::size_t /*i*/, Ledger& ledger) override {
    std::string prom;
    std::string trace;
    {
      Scope scope{ledger, render_prom_};
      prom = obs::encode_prometheus(last_.metrics);
    }
    {
      Scope scope{ledger, render_trace_};
      trace = obs::encode_trace_json(last_.spans);
    }
    if (prom != last_.metrics_text || trace != last_.trace_json) {
      ++render_mismatches_;
    }
  }

  void finish(Report& report) override {
    for (const std::uint64_t d : digests_) report.digest = mix(report.digest, d);
    const double ops = static_cast<double>(ops_ == 0 ? 1 : ops_);
    report.check(violations_ == 0, "fleet_dst: " + std::to_string(violations_) +
                                       " oracle violation(s)");
    report.check(replay_mismatches_ == 0,
                 "fleet_dst: " + std::to_string(replay_mismatches_) +
                     " scenario(s) diverged from their first-pass digest");
    report.check(render_mismatches_ == 0,
                 "fleet_dst: " + std::to_string(render_mismatches_) +
                     " re-rendered trace/metrics bodies differ");
    report.set("testing.oracle_violations", static_cast<double>(violations_));
    report.set("sim.events", static_cast<double>(events_) / ops);
    report.set("sim.heap_high_water", heap_high_water_);
    report.set("monsoon.samples", monsoon_samples_ / ops);
    report.set("server.jobs_dispatched",
               static_cast<double>(jobs_dispatched_) / ops);
    report.set("server.jobs_failed", jobs_failed_ / ops);
    report.set("obs.spans_finished", static_cast<double>(spans_) / ops);
    report.set("obs.spans_sampled_out", sampled_out_ / ops);
    report.set("obs.metric_series", static_cast<double>(series_) / ops);
  }

 private:
  Options options_;
  int generate_ = -1;
  int run_ = -1;
  int render_prom_ = -1;
  int render_trace_ = -1;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint64_t> digests_;
  testing::ScenarioResult last_;
  std::size_t ops_ = 0;
  std::size_t violations_ = 0;
  std::size_t replay_mismatches_ = 0;
  std::size_t render_mismatches_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t jobs_dispatched_ = 0;
  std::uint64_t spans_ = 0;
  std::uint64_t series_ = 0;
  double jobs_failed_ = 0.0;
  double sampled_out_ = 0.0;
  double monsoon_samples_ = 0.0;
  double heap_high_water_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_dst(const Options& options, int instance) {
  return std::make_unique<FleetDst>(options, instance);
}

}  // namespace blab::labbench
