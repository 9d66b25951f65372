#include "testing/persist_check.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <thread>

#include "net/network.hpp"
#include "server/access_server.hpp"
#include "sim/simulator.hpp"
#include "store/capture_store.hpp"
#include "store/persist/engine.hpp"
#include "testing/harness.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace blab::testing {

namespace {

namespace fs = std::filesystem;
using util::Duration;
using util::TimePoint;

/// Every answer the store's query API gives for every record it knows,
/// rendered to one deterministic string. Compared byte-for-byte across the
/// kill. Deliberately excludes source_of(): "memory" before the crash versus
/// "disk" after is the one difference recovery is *allowed* to make.
std::string snapshot_store(store::CaptureStore& store) {
  std::ostringstream os;
  for (const std::string& ws : store.workspaces()) {
    for (const store::CaptureId& id : store.list(ws)) {
      os << id.str();
      if (const auto name = store.name_of(id); name.has_value()) {
        os << " name=" << *name;
      }
      auto raw = store.range(id, TimePoint::epoch(), TimePoint::max());
      if (raw.ok()) {
        const auto& samples = raw.value().samples_ma();
        std::string bits(reinterpret_cast<const char*>(samples.data()),
                         samples.size() * sizeof(float));
        os << " raw n=" << samples.size() << " h=" << util::fnv1a(bits);
      } else {
        os << " raw err=" << util::error_code_name(raw.error().code);
      }
      if (const auto e = store.energy_mwh(id); e.ok()) {
        os << " mwh=" << util::format_double(e.value(), 9);
      }
      if (const auto m = store.mean_ma(id); m.ok()) {
        os << " ma=" << util::format_double(m.value(), 9);
      }
      if (auto agg = store.aggregate(id, Duration::seconds(1)); agg.ok()) {
        os << " agg";
        for (const auto& b : agg.value()) {
          os << " [" << b.t_begin.us() << "," << b.t_end.us() << ")"
             << b.samples << ":" << util::format_double(b.mean_ma, 6) << "/"
             << util::format_double(b.min_ma, 6) << "/"
             << util::format_double(b.max_ma, 6);
        }
      }
      if (auto cdf = store.percentiles(id); cdf.ok()) {
        os << " cdf n=" << cdf.value().count()
           << " p50=" << util::format_double(cdf.value().quantile(0.5), 6)
           << " p90=" << util::format_double(cdf.value().quantile(0.9), 6)
           << " p99=" << util::format_double(cdf.value().quantile(0.99), 6);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::size_t count_lines(const std::string& s) {
  std::size_t n = 0;
  for (const char c : s) n += c == '\n' ? 1 : 0;
  return n;
}

std::string first_diff(const std::string& before, const std::string& after) {
  const auto pre = util::split(before, '\n');
  const auto post = util::split(after, '\n');
  for (std::size_t i = 0; i < std::max(pre.size(), post.size()); ++i) {
    const std::string_view a = i < pre.size() ? pre[i] : "<missing>";
    const std::string_view b = i < post.size() ? post[i] : "<missing>";
    if (a != b) {
      return "line " + std::to_string(i) + ": pre-crash \"" + std::string{a} +
             "\" vs recovered \"" + std::string{b} + "\"";
    }
  }
  return "snapshots differ";
}

/// Smear `garbage` bytes over the end of one shard's WAL — a torn write that
/// landed past the committed prefix. Recovery must drop it and nothing else.
void append_wal_garbage(const std::string& dir, std::size_t shard,
                        util::Rng& rng) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%03zu", shard);
  const fs::path wal = fs::path{dir} / name / "wal.log";
  std::FILE* f = std::fopen(wal.string().c_str(), "ab");
  if (f == nullptr) return;
  const std::size_t garbage =
      static_cast<std::size_t>(rng.uniform_int(1, 24));
  for (std::size_t i = 0; i < garbage; ++i) {
    const char byte = static_cast<char>(rng.uniform_int(0, 255));
    std::fwrite(&byte, 1, 1, f);
  }
  std::fclose(f);
}

}  // namespace

CrashRecoveryReport check_crash_recovery(std::uint64_t seed,
                                         const std::string& dir) {
  CrashRecoveryReport report;
  report.seed = seed;

  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  const ScenarioSpec spec = generate_scenario(seed);
  util::Rng rng{seed ^ 0x6B1115EEDULL};

  RunOptions options;
  options.persist_dir = dir;
  options.kill_after_steps =
      static_cast<int>(rng.uniform_int(0, std::max(0, spec.steps - 1)));
  options.kill_extra = spec.step_length * rng.uniform(0.05, 0.95);
  report.kill_step = options.kill_after_steps;

  std::string before;
  options.before_teardown = [&before](server::AccessServer& server) {
    before = snapshot_store(server.capture_store());
  };
  const ScenarioResult crashed = run_scenario(spec, options);
  for (const auto& v : crashed.violations) {
    if (v.oracle == "persistence") {
      report.detail = v.detail;
      return report;
    }
  }
  report.captures = count_lines(before);

  // Most seeds also tear the tail of one WAL before the "restart".
  if (rng.chance(0.7)) {
    report.torn_tail = true;
    const std::size_t shard = static_cast<std::size_t>(
        rng.uniform_int(0, 3));  // a new store has 4 shards
    append_wal_garbage(dir, shard, rng);
  }

  // The restart: a fresh deployment recovering the same directory. Only the
  // store matters — no vantage points are onboarded.
  std::string after;
  {
    sim::Simulator sim;
    net::Network net{sim, seed};
    server::AccessServer server{sim, net};
    if (auto st = server.enable_persistence(dir); !st.ok()) {
      report.detail = "recovery open failed: " + st.str();
      return report;
    }
    report.recovered = server.persist_engine()->stats().recovered_records;
    after = snapshot_store(server.capture_store());
  }

  if (before != after) {
    report.detail = first_diff(before, after);
    return report;
  }
  report.ok = true;
  fs::remove_all(dir, ec);
  return report;
}

std::vector<CrashRecoveryReport> run_crash_recovery_corpus(
    const std::vector<std::uint64_t>& seeds, unsigned jobs,
    const std::string& base_dir) {
  // Same worker-pool shape as run_corpus: atomic claim index, results land
  // at their seed's slot, per-seed directories keep the runs independent.
  std::vector<CrashRecoveryReport> results(seeds.size());
  auto one = [&base_dir](std::uint64_t seed) {
    return check_crash_recovery(seed,
                                base_dir + "/seed-" + std::to_string(seed));
  };
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = static_cast<unsigned>(std::min<std::size_t>(jobs, seeds.size()));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < seeds.size(); ++i) results[i] = one(seeds[i]);
    return results;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= seeds.size()) return;
      results[i] = one(seeds[i]);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

std::string CrashRecoveryReport::describe() const {
  std::ostringstream os;
  os << "seed " << seed << ": kill after step " << kill_step
     << (torn_tail ? " +torn-tail" : "") << ", " << captures
     << " record(s), " << recovered << " recovered -> "
     << (ok ? "match" : detail);
  return os.str();
}

}  // namespace blab::testing
