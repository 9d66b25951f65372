// `campaign`: experimenters submit measurement jobs through the access
// server on four vantage points with two devices each; persistence and the
// health engine are on. Each op is one job: submit, approve, run_queue, and
// inside the job script start_monitor, Simulator::run_for over a 10-50 s
// capture, stop_monitor (synthesis only, the API's store hook is detached)
// and CaptureStore::append through the persist WAL; then the deployment
// idles for 30-90 s of simulated time until the next job arrives. Every 20
// jobs the benchmark runs the platform's capture-retention step
// (CaptureStore::run_retention, then Scheduler::purge_workspaces) and every
// 10 a scheduled checkpoint, as a long-lived deployment does.
//
// One period is 240 jobs, about six simulated hours: captures pass the
// store's 30-minute raw TTL after ~20 jobs and its 4-hour summary TTL after
// ~160, so retention demotes raw chunks, erases whole records and compacts
// segments within every period. Each period runs on a fresh deployment, so
// every period is the same work: a store that runs for good does not level
// off within a run (summary segments keep merging into larger ones, and so
// dearer retention sweeps, for ~1.4k jobs, and each device timeline keeps
// every breakpoint it was given). Later periods must reproduce the first
// period's captures exactly.
#include <algorithm>
#include <array>
#include <iostream>

#include "store/persist/engine.hpp"
#include "util/rng.hpp"

#include "bench.hpp"

namespace blab::labbench {
namespace {

constexpr std::size_t kNodes = 4;
/// Op whose capture the planted failure drops after acknowledging it.
constexpr std::size_t kPlantedOp = 3;
/// Jobs between retention sweeps and between scheduled checkpoints; both
/// divide period() so each job shape meets the same maintenance.
constexpr std::size_t kRetentionEvery = 20;
constexpr std::size_t kCheckpointEvery = 10;

/// Platform counters the per-layer metrics report per op, summed over the
/// deployments of a run.
enum Counter : std::size_t {
  kBytesRaw,
  kBytesEncoded,
  kChunkDecodes,
  kCacheHits,
  kWalAppends,
  kWalBytes,
  kCheckpoints,
  kDiskLoads,
  kEvents,
  kDispatched,
  kFailed,
  kSpansFinished,
  kSpansSampledOut,
  kCounterCount,
};
using Counters = std::array<double, kCounterCount>;

Counters read_counters(Deployment& d) {
  const store::StoreStats& s = d.server.capture_store().stats();
  const store::persist::PersistStats& p = d.server.persist_engine()->stats();
  const auto snap = d.sim.metrics().snapshot();
  Counters c{};
  c[kBytesRaw] = static_cast<double>(s.bytes_raw);
  c[kBytesEncoded] = static_cast<double>(s.bytes_encoded);
  c[kChunkDecodes] = static_cast<double>(s.raw_chunk_decodes);
  c[kCacheHits] = static_cast<double>(s.cache_hits);
  c[kWalAppends] = static_cast<double>(p.wal_appends);
  c[kWalBytes] = static_cast<double>(p.wal_bytes);
  c[kCheckpoints] = static_cast<double>(p.checkpoints);
  c[kDiskLoads] = static_cast<double>(p.disk_loads);
  c[kEvents] = static_cast<double>(d.sim.executed_events());
  c[kDispatched] = snap.value_or("blab_scheduler_jobs_dispatched_total");
  c[kFailed] =
      snap.value_or("blab_scheduler_jobs_finished_total", {{"result", "failed"}});
  c[kSpansFinished] = snap.value_or("blab_trace_spans_finished_total");
  c[kSpansSampledOut] = snap.value_or("blab_trace_spans_sampled_out_total");
  return c;
}

struct Acked {
  store::CaptureId id;
  std::size_t samples = 0;
  util::TimePoint stored_at;
};

class Campaign final : public Workload {
 public:
  Campaign(const Options& options, int instance)
      : options_{options},
        dir_{options.work_dir + "/campaign-" + std::to_string(instance)} {}
  ~Campaign() override {
    deployment_.reset();
    remove_tree(dir_);
  }

  void setup(Ledger& ledger) override {
    spans_.start = ledger.intern("api.start_monitor");
    spans_.run_for = ledger.intern("sim.run_for");
    spans_.stop = ledger.intern("monsoon.stop_monitor");
    dispatch_ = ledger.intern("server.dispatch");
    script_ = ledger.intern("job.script");
    append_ = ledger.intern("store.append");
    retention_ = ledger.intern("store.retention");
    checkpoint_ = ledger.intern("persist.checkpoint");
    first_.assign(period(), 0);
    build();
  }

  std::size_t period() const override { return options_.tiny ? 40 : 240; }

  void begin_period(std::size_t /*p*/) override {
    retire();
    build();
  }

  bool run_op(std::size_t i, Ledger& ledger) override {
    if (!deployment_->status.ok()) return false;
    Deployment& d = *deployment_;
    const std::size_t shape = i % period();
    util::Rng rng{mix(options_.seed, shape)};
    const std::size_t node = shape % kNodes;
    const std::size_t device = (shape / kNodes) % 2;
    Pending p;
    p.length = options_.tiny
                   ? util::Duration::seconds(rng.uniform(1.0, 3.0))
                   : util::Duration::seconds(rng.uniform(10.0, 50.0));
    const util::Duration idle = util::Duration::seconds(
        options_.tiny ? rng.uniform(3.0, 9.0) : rng.uniform(30.0, 90.0));
    p.drop = options_.plant && i == kPlantedOp;
    server::JobId id;
    bool ok = false;
    {
      Scope scope{ledger, dispatch_};
      id = d.submit(node, device, [this, &p, &ledger](server::JobContext& ctx) {
        return script(ctx, p, ledger);
      });
      p.workspace = id.str();
      ok = id.valid() && d.run_queue();
    }
    const server::Job* job = d.server.scheduler().find(id);
    ok = ok && job != nullptr && job->state == server::JobState::kSucceeded &&
         p.archived;
    if (!ok && job != nullptr) {
      std::cerr << "campaign op " << i << ": job " << id.str() << " "
                << server::job_state_name(job->state) << " "
                << job->failure_reason << "\n";
    }
    if (ok) {
      acked_.push_back({p.id, p.samples, p.stored_at});
      samples_ += p.samples;
      // Simulated result of this job shape; every period must repeat it.
      const std::uint64_t result = mix_double(mix(shape, p.samples), p.mean_ma);
      if (i < period()) {
        first_[shape] = result;
      } else if (first_[shape] != result) {
        ++replay_mismatches_;
        ok = false;
      }
    }
    {
      Scope scope{ledger, spans_.run_for};
      d.sim.run_for(idle);
    }
    if (shape % kRetentionEvery == kRetentionEvery - 1) {
      // What the platform's maintenance/capture-retention job runs.
      Scope scope{ledger, retention_};
      store::CaptureStore& store = d.server.capture_store();
      (void)store.run_retention(d.sim.now());
      (void)d.server.scheduler().purge_workspaces(store.policy().summary_ttl);
    }
    if (shape % kCheckpointEvery == kCheckpointEvery / 2) {
      Scope scope{ledger, checkpoint_};
      ok = d.server.persist_engine()
               ->checkpoint(store::persist::CheckpointCause::kScheduled)
               .ok() &&
           ok;
    }
    ++ops_;
    return ok;
  }

  void finish(Report& report) override {
    if (!deployment_->status.ok()) {
      report.check(false, "deployment: " + deployment_->status.str());
      return;
    }
    retire();
    report.check(unreadable_ == 0,
                 "campaign: " + std::to_string(unreadable_) + " of " +
                     std::to_string(acked_total_) +
                     " acknowledged captures unreadable, with a wrong sample "
                     "count, or kept past the summary TTL");
    report.check(unrecovered_ == 0,
                 "campaign: " + std::to_string(unrecovered_) + " of " +
                     std::to_string(retired_) +
                     " deployments did not recover exactly their live "
                     "captures after a kill");
    report.check(replay_mismatches_ == 0,
                 "campaign: " + std::to_string(replay_mismatches_) +
                     " job(s) diverged from the first period's capture");
    for (const std::uint64_t r : first_) report.digest = mix(report.digest, r);

    const double ops = static_cast<double>(ops_ == 0 ? 1 : ops_);
    const auto per_op = [&](Counter c) { return totals_[c] / ops; };
    const double raw = totals_[kBytesRaw];
    const double enc = totals_[kBytesEncoded];
    const double decodes = totals_[kChunkDecodes];
    const double hits = totals_[kCacheHits];
    report.set("monsoon.samples", static_cast<double>(samples_) / ops);
    report.set("store.bytes_raw", per_op(kBytesRaw));
    report.set("store.bytes_encoded", per_op(kBytesEncoded));
    report.set("store.encoded_per_raw", raw > 0 ? enc / raw : 0.0);
    report.set("store.chunk_decodes", per_op(kChunkDecodes));
    report.set("store.cache_hits", per_op(kCacheHits));
    report.set("store.cache_hit_ratio",
               hits + decodes > 0 ? hits / (hits + decodes) : 0.0);
    report.set("persist.wal_appends", per_op(kWalAppends));
    report.set("persist.wal_bytes", per_op(kWalBytes));
    report.set("persist.checkpoints", per_op(kCheckpoints));
    report.set("persist.disk_loads", per_op(kDiskLoads));
    report.set("sim.events", per_op(kEvents));
    report.set("server.jobs_dispatched", per_op(kDispatched));
    report.set("server.jobs_failed", per_op(kFailed));
    report.set("obs.spans_finished", per_op(kSpansFinished));
    report.set("obs.spans_sampled_out", per_op(kSpansSampledOut));
    report.set("sim.heap_high_water", heap_high_water_);
    // Figures of one whole period: the first deployment's, at retirement.
    report.set("obs.metric_series", first_retired_.metric_series);
    report.set("persist.disk_bytes_per_sample",
               first_retired_.disk_bytes_per_sample);
    report.set("persist.open_s", first_retired_.open_s);
    report.set("persist.recovered_records", first_retired_.recovered_records);
  }

 private:
  struct Pending {
    util::Duration length;
    std::string workspace;
    store::CaptureId id;
    std::size_t samples = 0;
    double mean_ma = 0.0;
    util::TimePoint stored_at;
    bool archived = false;
    bool drop = false;
  };

  /// A fresh deployment, warmed by one unarchived 10 s capture per device.
  void build() {
    deployment_.reset();
    remove_tree(dir_);
    deployment_ = std::make_unique<Deployment>(options_.seed, kNodes, dir_);
    acked_.clear();
    if (!deployment_->status.ok()) return;
    for (std::size_t n = 0; n < kNodes; ++n) {
      for (std::size_t dev = 0; dev < 2; ++dev) {
        (void)deployment_->submit(n, dev, [this](server::JobContext& ctx) {
          Ledger off;
          auto cap = measure(ctx, deployment_->sim, util::Duration::seconds(10),
                             off, MeasureSpans{});
          return cap.ok() ? util::Status::ok_status() : util::Status{cap.error()};
        });
      }
    }
    (void)deployment_->run_queue();
    base_ = read_counters(*deployment_);
  }

  /// Retire the deployment: fold its counters into the run's totals, run a
  /// final retention sweep and check its acknowledged captures (each one
  /// younger than the summary TTL answers with its sample count, each older
  /// one is gone), then tear it down without a checkpoint (a process kill)
  /// and recover the catalog from disk: exactly the live captures must
  /// come back.
  void retire() {
    if (!deployment_->status.ok()) return;
    Deployment& d = *deployment_;
    const Counters end = read_counters(d);
    for (std::size_t c = 0; c < kCounterCount; ++c) totals_[c] += end[c] - base_[c];
    heap_high_water_ = std::max(
        heap_high_water_,
        d.sim.metrics().snapshot().value_or("blab_sim_heap_high_water"));
    store::CaptureStore& store = d.server.capture_store();
    const util::TimePoint now = d.sim.now();
    (void)store.run_retention(now);
    std::vector<store::CaptureId> live;
    std::uint64_t live_samples = 0;
    for (const Acked& a : acked_) {
      ++acked_total_;
      if (now - a.stored_at >= store.policy().summary_ttl) {
        if (store.contains(a.id)) ++unreadable_;
        continue;
      }
      live.push_back(a.id);
      live_samples += a.samples;
      auto summary = store.summary(a.id);
      if (!summary.ok() || summary.value().samples != a.samples) ++unreadable_;
    }
    Retired r;
    r.metric_series = static_cast<double>(d.sim.metrics().series_count());
    r.disk_bytes_per_sample =
        static_cast<double>(d.server.persist_engine()->disk_usage_bytes()) /
        static_cast<double>(live_samples == 0 ? 1 : live_samples);

    deployment_.reset();
    store::persist::PersistEngine reopened{dir_};
    const std::int64_t t0 = now_ns();
    const util::Status opened = reopened.open();
    r.open_s = static_cast<double>(now_ns() - t0) / 1e9;
    r.recovered_records = static_cast<double>(reopened.stats().recovered_records);
    std::size_t missing = 0;
    for (const store::CaptureId& id : live) {
      if (!reopened.contains(id)) ++missing;
    }
    if (!opened.ok() || reopened.stats().recovered_records != live.size() ||
        missing != 0) {
      std::cerr << "campaign: reopened catalog recovered "
                << reopened.stats().recovered_records << " records, expected "
                << live.size() << " (" << missing << " acknowledged missing)\n";
      ++unrecovered_;
    }
    if (retired_++ == 0) first_retired_ = r;
  }

  util::Status script(server::JobContext& ctx, Pending& p, Ledger& ledger) {
    Scope scope{ledger, script_};
    auto cap = measure(ctx, deployment_->sim, p.length, ledger, spans_);
    if (!cap.ok()) return cap.error();
    p.samples = cap.value().sample_count();
    p.mean_ma = cap.value().stats().mean_ma;
    p.stored_at = deployment_->sim.now();
    p.archived = true;
    if (p.drop) {
      // Planted failure: acknowledge the capture without archiving it.
      p.id = store::CaptureId{p.workspace, 0};
      return util::Status::ok_status();
    }
    Scope append{ledger, append_};
    p.id = deployment_->server.capture_store().append(p.workspace, "campaign",
                                                       cap.value(), p.stored_at);
    return util::Status::ok_status();
  }

  Options options_;
  std::string dir_;
  std::unique_ptr<Deployment> deployment_;
  MeasureSpans spans_;
  int dispatch_ = -1;
  int script_ = -1;
  int append_ = -1;
  int retention_ = -1;
  int checkpoint_ = -1;
  /// Figures taken when a deployment retires.
  struct Retired {
    double metric_series = 0.0;
    double disk_bytes_per_sample = 0.0;
    double open_s = 0.0;
    double recovered_records = 0.0;
  };

  Counters base_{};
  Counters totals_{};
  Retired first_retired_;
  std::size_t retired_ = 0;
  std::size_t unrecovered_ = 0;
  double heap_high_water_ = 0.0;
  std::vector<Acked> acked_;  ///< captures of the current deployment
  std::vector<std::uint64_t> first_;  ///< first period's result per job shape
  std::size_t acked_total_ = 0;
  std::size_t unreadable_ = 0;
  std::size_t replay_mismatches_ = 0;
  std::uint64_t samples_ = 0;
  std::size_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_campaign(const Options& options, int instance) {
  return std::make_unique<Campaign>(options, instance);
}

}  // namespace blab::labbench
