// `operator_reads`: what operators query once the fleet has recorded.
// Set-up runs a 96-job campaign into a persisted catalog (~1.2k chunks, far
// beyond the store's 64-chunk decode cache), checkpoints, tears the server
// down and restarts it: the catalog reopens cold, and 16 short jobs give
// the new process live traces. Each op is then one query from a fixed mix:
// CaptureStore summary / percentiles / aggregate / range over a skewed key
// choice (80% of reads hit a hot set of captures whose 48 chunks fit the
// cache, 20% the cold tail), and RestBackend::call for /rollup (three scopes),
// /health, /metrics, /traces?job= and /flame.
#include <algorithm>
#include <memory>
#include <sstream>

#include "obs/health/rollup.hpp"
#include "store/chunked_capture.hpp"
#include "store/persist/engine.hpp"
#include "util/rng.hpp"

#include "bench.hpp"

namespace blab::labbench {
namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kPlantedOp = 5;
/// Chunk budget of the hot set: fits the 64-chunk decode cache with room,
/// so hot reads can hit the cache and tail reads cannot.
constexpr std::size_t kHotChunks = 48;
/// Share of store reads that go to the hot set: an assumed 80/20 skew, like
/// the query mix below.
constexpr double kHotShare = 0.8;

enum class Query {
  kSummary,
  kPercentiles,
  kAggregate,
  kRange,
  kRollup,
  kHealth,
  kMetrics,
  kTraces,
  kFlame,
};
constexpr std::size_t kQueryKinds = 9;
const char* const kQueryNames[kQueryKinds] = {
    "summary", "percentiles", "aggregate", "range", "rollup",
    "health",  "metrics",     "traces",    "flame"};
/// Queries of each kind per 128, in enum order; period() is a multiple of
/// 128, so every period holds exactly this mix (shuffled by the seed). The
/// mix is an assumption, not a measured operator trace: no source gives
/// BatteryLab's read traffic. Range reads dominate the count; /rollup, the
/// fleet-wide energy fold, dominates the time. The per-kind table of a
/// --trace 0 run gives each kind's cost, so any other mix can be priced.
constexpr std::size_t kMix[kQueryKinds] = {26, 13, 13, 52, 5, 5, 5, 5, 4};

struct Stored {
  store::CaptureId id;
  std::size_t samples = 0;
  util::TimePoint start;  ///< capture start, the origin of range queries
  double length_s = 0.0;
};

/// Queue a job that measures `length` on (node, device) and archives the
/// capture under the job's own workspace, noting it in `stored` if given.
server::JobId queue_archiving_job(Deployment& d, std::size_t node,
                                  std::size_t device, util::Duration length,
                                  std::vector<Stored>* stored) {
  auto workspace = std::make_shared<std::string>();
  const server::JobId id = d.submit(
      node, device, [&d, length, workspace, stored](server::JobContext& ctx) {
        Ledger off;
        auto cap = measure(ctx, d.sim, length, off, MeasureSpans{});
        if (!cap.ok()) return util::Status{cap.error()};
        const auto cid = d.server.capture_store().append(
            *workspace, "capture", cap.value(), d.sim.now());
        if (stored != nullptr) {
          stored->push_back({cid, cap.value().sample_count(),
                             cap.value().start(),
                             cap.value().duration().to_seconds()});
        }
        return util::Status::ok_status();
      });
  *workspace = id.str();
  return id;
}

class OperatorReads final : public Workload {
 public:
  OperatorReads(const Options& options, int instance)
      : options_{options},
        dir_{options.work_dir + "/operator_reads-" + std::to_string(instance)} {}
  ~OperatorReads() override {
    deployment_.reset();
    remove_tree(dir_);
  }

  void setup(Ledger& ledger) override {
    const char* names[kQueryKinds] = {
        "store.summary", "store.percentiles", "store.aggregate",
        "store.range",   "read.rollup",       "read.health",
        "read.metrics",  "read.traces",       "read.flame"};
    for (std::size_t k = 0; k < kQueryKinds; ++k) {
      span_[k] = ledger.intern(names[k]);
    }

    remove_tree(dir_);
    const std::size_t fill_jobs = options_.tiny ? 12 : 96;
    {
      Deployment fill{options_.seed, kNodes, dir_};
      if (!fill.status.ok()) {
        status_ = fill.status;
        return;
      }
      util::Rng rng{mix(options_.seed, 0x66696c6cULL)};
      for (std::size_t j = 0; j < fill_jobs; ++j) {
        const auto length = util::Duration::seconds(
            options_.tiny ? rng.uniform(1.0, 2.0) : rng.uniform(6.0, 14.0));
        (void)queue_archiving_job(fill, j % kNodes, (j / kNodes) % 2, length,
                                  &stored_);
      }
      if (!fill.run_queue() || stored_.size() != fill_jobs ||
          !fill.server.persist_engine()->checkpoint().ok()) {
        status_ = util::make_error(util::ErrorCode::kUnknown,
                                   "catalog fill failed");
        return;
      }
    }
    // Restart: a fresh process recovers the catalog; every record is cold.
    deployment_ = std::make_unique<Deployment>(options_.seed, kNodes, dir_);
    Deployment& d = *deployment_;
    if (!d.status.ok()) {
      status_ = d.status;
      return;
    }
    recovery_s_ = d.server.persist_engine()->stats().recovery_ms / 1e3;
    recovered_ = d.server.persist_engine()->stats().recovered_records;
    // Jobs run since the restart; their traces are what /traces and /flame
    // serve, and their captures join the catalog warm.
    for (std::size_t j = 0; j < 16; ++j) {
      jobs_.push_back(queue_archiving_job(d, j % kNodes, (j / kNodes) % 2,
                                          util::Duration::seconds(2), nullptr));
    }
    if (!d.run_queue()) status_ = util::make_error(util::ErrorCode::kUnknown,
                                                   "post-restart jobs failed");
    // Hot set: the first seed-shuffled fill captures whose chunks fit
    // kHotChunks; the rest of the catalog is the cold tail.
    util::Rng rng{mix(options_.seed, 0x686f74ULL)};
    order_ = stored_;
    shuffle(order_, rng);
    schedule_.clear();
    for (std::size_t k = 0; k < kQueryKinds; ++k) {
      schedule_.insert(schedule_.end(), kMix[k] * (period() / 128),
                       static_cast<Query>(k));
    }
    shuffle(schedule_, rng);
    std::size_t chunks = 0;
    hot_ = 0;
    while (hot_ + 1 < order_.size()) {
      const std::size_t c = (order_[hot_].samples +
                             store::ChunkedCapture::kDefaultChunkSamples - 1) /
                            store::ChunkedCapture::kDefaultChunkSamples;
      if (hot_ > 0 && chunks + c > kHotChunks) break;
      chunks += c;
      ++hot_;
    }
    base_store_ = d.server.capture_store().stats();
    base_disk_loads_ = d.server.persist_engine()->stats().disk_loads;
    base_scanned_ = d.sim.metrics().snapshot().value_or(
        "blab_rollup_captures_scanned_total");
  }

  std::size_t period() const override { return options_.tiny ? 256 : 2048; }

  const char* op_kind(std::size_t i) const override {
    return schedule_.empty()
               ? nullptr
               : kQueryNames[static_cast<std::size_t>(schedule_[i % period()])];
  }

  bool run_op(std::size_t i, Ledger& ledger) override {
    if (!status_.ok()) return false;
    Deployment& d = *deployment_;
    store::CaptureStore& store = d.server.capture_store();
    controller::RestBackend& rest = *d.server.health_rest();
    util::Rng rng{mix(options_.seed, i % period())};
    const Query kind = schedule_[i % period()];
    const int span = span_[static_cast<std::size_t>(kind)];
    const Stored& key = pick(rng);
    std::uint64_t h = static_cast<std::uint64_t>(kind);
    bool ok = true;
    const auto call = [&](const char* endpoint, const std::string& query) {
      util::Result<std::string> body = util::make_error(
          util::ErrorCode::kUnknown, "not called");
      {
        Scope scope{ledger, span};
        body = rest.call(endpoint, query);
      }
      ok = body.ok();
      if (ok) h = mix_bytes(h, stable_body(body.value()));
    };
    switch (kind) {
      case Query::kSummary: {
        Scope scope{ledger, span};
        auto s = store.summary(key.id);
        ok = s.ok() && s.value().samples == key.samples;
        if (ok) h = mix_double(mix(h, s.value().samples), s.value().energy_mwh);
        break;
      }
      case Query::kPercentiles: {
        Scope scope{ledger, span};
        auto cdf = store.percentiles(key.id);
        ok = cdf.ok();
        if (ok) h = mix_double(mix_double(h, cdf.value().median()),
                               cdf.value().quantile(0.99));
        break;
      }
      case Query::kAggregate: {
        Scope scope{ledger, span};
        auto buckets = store.aggregate(key.id, util::Duration::seconds(1));
        ok = buckets.ok() && !buckets.value().empty();
        if (ok) {
          for (const auto& b : buckets.value()) h = mix_double(h, b.mean_ma);
        }
        break;
      }
      case Query::kRange: {
        const double width = rng.uniform(0.5, 2.0);
        const double from =
            rng.uniform(0.0, std::max(0.0, key.length_s - width));
        const util::TimePoint t0 = key.start;
        util::Result<hw::Capture> part = util::make_error(
            util::ErrorCode::kUnknown, "not called");
        {
          Scope scope{ledger, span};
          part = store.range(key.id, t0 + util::Duration::seconds(from),
                             t0 + util::Duration::seconds(from + width));
        }
        ok = part.ok() && part.value().sample_count() > 0;
        if (ok) {
          h = mix(h, part.value().sample_count());
          h = mix_double(h, part.value().samples_ma().front());
          h = mix_double(h, part.value().samples_ma().back());
        }
        break;
      }
      case Query::kRollup: {
        static const char* scopes[] = {"scope=fleet", "scope=job",
                                       "scope=vantage"};
        call("rollup", scopes[rng.uniform_int(0, 2)]);
        ++rollups_;
        break;
      }
      case Query::kHealth: call("health", ""); break;
      case Query::kMetrics: call("metrics", ""); break;
      case Query::kTraces: {
        const server::JobId job = jobs_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(jobs_.size()) - 1))];
        call("traces", "job=" + job.str());
        break;
      }
      case Query::kFlame: call("flame", ""); break;
    }
    if (options_.plant && i == kPlantedOp) {
      // Planted failure: a REST request for an endpoint that does not exist.
      ok = rest.call("no_such_endpoint", "").ok() && ok;
    }
    if (i < period()) digest_ = mix(digest_, ok ? h : 0);
    ++ops_;
    return ok;
  }

  void finish(Report& report) override {
    if (!status_.ok()) {
      report.check(false, "operator_reads set-up: " + status_.str());
      return;
    }
    Deployment& d = *deployment_;
    store::CaptureStore& store = d.server.capture_store();
    report.digest = digest_;

    // The fleet rollup must equal an independent ascending-id fold over the
    // same footers, bit for bit (the rollup engine's determinism contract).
    const auto ids = store.catalog(util::TimePoint::epoch(),
                                   util::TimePoint::max());
    double expect = 0.0;
    std::uint64_t samples = 0;
    for (const auto& id : ids) {
      if (auto e = store.energy_mwh(id); e.ok()) expect += e.value();
      if (auto s = store.summary(id); s.ok()) samples += s.value().samples;
    }
    const health::Rollup fleet =
        d.server.rollup_engine()->compute(health::RollupScope::kFleet);
    report.check(fleet.captures_scanned == ids.size() &&
                     fleet.groups.size() == 1 &&
                     fleet.groups.front().energy_mwh == expect,
                 "operator_reads: fleet /rollup energy disagrees with the "
                 "independent footer fold");
    report.check(recovered_ == stored_.size(),
                 "operator_reads: reopened catalog recovered " +
                     std::to_string(recovered_) + " of " +
                     std::to_string(stored_.size()) + " records");

    const double ops = static_cast<double>(ops_ == 0 ? 1 : ops_);
    const store::StoreStats& s = store.stats();
    const double decodes =
        static_cast<double>(s.raw_chunk_decodes - base_store_.raw_chunk_decodes);
    const double hits = static_cast<double>(s.cache_hits - base_store_.cache_hits);
    report.set("store.chunk_decodes", decodes / ops);
    report.set("store.cache_hits", hits / ops);
    report.set("store.cache_hit_ratio",
               hits + decodes > 0 ? hits / (hits + decodes) : 0.0);
    report.set("persist.open_s", recovery_s_);
    report.set("persist.recovered_records", static_cast<double>(recovered_));
    report.set("persist.disk_loads",
               static_cast<double>(d.server.persist_engine()->stats().disk_loads -
                                   base_disk_loads_) /
                   ops);
    report.set("persist.disk_bytes_per_sample",
               static_cast<double>(d.server.persist_engine()->disk_usage_bytes()) /
                   static_cast<double>(samples == 0 ? 1 : samples));
    const auto snap = d.sim.metrics().snapshot();
    report.set("rollup.captures_scanned",
               rollups_ == 0
                   ? 0.0
                   : (snap.value_or("blab_rollup_captures_scanned_total") -
                      base_scanned_) /
                         static_cast<double>(rollups_));
    report.set("flame.spans", static_cast<double>(d.sim.tracer().spans().size()));
    report.set("obs.metric_series",
               static_cast<double>(d.sim.metrics().series_count()));
    report.set("sim.heap_high_water", snap.value_or("blab_sim_heap_high_water"));
  }

 private:
  template <typename T>
  static void shuffle(std::vector<T>& v, util::Rng& rng) {
    for (std::size_t k = v.size(); k > 1; --k) {
      std::swap(v[k - 1], v[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(k) - 1))]);
    }
  }

  const Stored& pick(util::Rng& rng) const {
    const std::size_t hot = hot_;
    if (rng.uniform() < kHotShare) {
      return order_[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hot) - 1))];
    }
    return order_[static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(hot),
        static_cast<std::int64_t>(order_.size()) - 1))];
  }

  /// Response body without the one series that carries wall-clock time
  /// (the persist engine's recovery duration gauge).
  static std::string stable_body(const std::string& body) {
    if (body.find("blab_persist_recovery_ms") == std::string::npos) return body;
    std::istringstream in{body};
    std::string out;
    for (std::string line; std::getline(in, line);) {
      if (line.find("blab_persist_recovery_ms") != std::string::npos) continue;
      out += line;
      out += '\n';
    }
    return out;
  }

  Options options_;
  std::string dir_;
  util::Status status_ = util::Status::ok_status();
  std::unique_ptr<Deployment> deployment_;
  int span_[kQueryKinds] = {};
  std::vector<Stored> stored_;
  std::vector<Stored> order_;  ///< hot set first, then the cold tail
  std::size_t hot_ = 0;
  std::vector<Query> schedule_;  ///< one period of query kinds
  std::vector<server::JobId> jobs_;
  double recovery_s_ = 0.0;
  std::uint64_t recovered_ = 0;
  store::StoreStats base_store_;
  std::uint64_t base_disk_loads_ = 0;
  double base_scanned_ = 0.0;
  std::size_t rollups_ = 0;
  std::size_t ops_ = 0;
  std::uint64_t digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_operator_reads(const Options& options,
                                              int instance) {
  return std::make_unique<OperatorReads>(options, instance);
}

}  // namespace blab::labbench
