// RollupEngine: whole-fleet / whole-job aggregates over the persisted
// capture catalog (DESIGN.md §15).
//
// A rollup is a single deterministic scan of CaptureStore::catalog() — the
// merged warm + cold id set, filtered by stored_at — reduced group-by-group
// from chunk-footer summaries. Nothing here decodes raw samples: energy,
// charge and mean come from CaptureStore::summary() (footer sums), and the
// tail quantiles pool each capture's surviving-tier bucket means through
// CaptureStore::percentiles(). Cold records are warmed transparently by the
// store's existing cold path, so a rollup right after recovery sees exactly
// what a rollup before the crash saw.
//
// Determinism contract (the DST rollup oracle leans on this): captures are
// folded in ascending CaptureId order with plain double accumulation, so a
// rollup of the same catalog is bit-identical across runs — and equals the
// oracle's own sum over per-capture energies computed the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/capture_store.hpp"
#include "util/time.hpp"

namespace blab::obs {
class Counter;
class MetricsRegistry;
}  // namespace blab::obs

namespace blab::health {

/// Deployment context for one capture's workspace, resolved by the owner of
/// the job table (AccessServer maps workspace -> job -> assignment). Empty
/// fields group under "unassigned" / "unknown".
struct CaptureContext {
  std::string vantage;       ///< node label the job ran on
  std::string device_class;  ///< e.g. "android-phone", "ios-phone"
  std::string owner;         ///< submitting experimenter
};
using ContextResolver =
    std::function<CaptureContext(const std::string& workspace)>;

enum class RollupScope : std::uint8_t { kFleet = 0, kJob = 1, kVantage = 2 };
const char* rollup_scope_name(RollupScope scope);
std::optional<RollupScope> parse_rollup_scope(std::string_view text);

/// Per-device-class slice of a group.
struct ClassBreakdown {
  std::size_t captures = 0;
  std::uint64_t samples = 0;
  double energy_mwh = 0.0;
};

/// One group of the rollup: the whole fleet, one job workspace, or one
/// vantage point, depending on scope.
struct RollupGroup {
  std::string key;
  std::size_t captures = 0;
  std::uint64_t samples = 0;
  double duration_s = 0.0;
  double charge_mah = 0.0;
  double energy_mwh = 0.0;
  double mean_ma = 0.0;  ///< sample-weighted mean of per-capture means
  double min_ma = 0.0;
  double max_ma = 0.0;
  double p95_ma = 0.0;  ///< pooled tier-bucket means across the group
  double p99_ma = 0.0;
  std::map<std::string, ClassBreakdown> by_class;
};

struct Rollup {
  RollupScope scope = RollupScope::kFleet;
  util::TimePoint t0;
  util::TimePoint t1 = util::TimePoint::max();
  std::size_t captures_scanned = 0;
  /// Catalog entries whose summary failed (purged between catalog and read).
  std::size_t captures_skipped = 0;
  std::vector<RollupGroup> groups;  ///< ascending by key
};

class RollupEngine {
 public:
  /// `metrics` mirrors scan counters into a registry (blab_rollup_*); null
  /// leaves the engine detached.
  explicit RollupEngine(store::CaptureStore& store,
                        obs::MetricsRegistry* metrics = nullptr);

  /// Workspace -> context mapping for vantage grouping and the device-class
  /// breakdown. Without one, every capture lands in "unassigned"/"unknown".
  void set_context_resolver(ContextResolver resolver) {
    resolver_ = std::move(resolver);
  }

  /// One catalog scan over stored_at in [t0, t1), grouped per `scope`.
  Rollup compute(RollupScope scope,
                 util::TimePoint t0 = util::TimePoint::epoch(),
                 util::TimePoint t1 = util::TimePoint::max());

 private:
  store::CaptureStore& store_;
  ContextResolver resolver_;
  obs::Counter* scans_ = nullptr;
  obs::Counter* captures_scanned_ = nullptr;
};

/// Deterministic JSON document for GET /rollup: sorted groups, fixed number
/// formatting (util::append_json_number), byte-identical for equal rollups.
std::string encode_rollup_json(const Rollup& rollup);

}  // namespace blab::health
