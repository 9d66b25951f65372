// Snapshot encoders: Prometheus text exposition and a JSON document.
//
// Both encoders are deterministic given a snapshot: series arrive sorted
// from MetricsRegistry::snapshot() and numbers are formatted with a fixed
// rule (integral values print as integers, everything else with six decimal
// places), so byte-identical snapshots encode to byte-identical text — the
// property the DST determinism check asserts on.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace blab::obs {

/// Prometheus text exposition format v0.0.4: `# TYPE` lines, cumulative
/// `le`-bucketed histograms with `_bucket`/`_sum`/`_count`. Buckets that
/// hold an exemplar render an OpenMetrics-style ` # {trace_id=..,ts_us=..}
/// value` suffix linking the outlier to its trace.
std::string encode_prometheus(const MetricsSnapshot& snap);

/// One JSON object: {"series":[{"name":..,"labels":{..},"kind":..,..}]}.
std::string encode_json(const MetricsSnapshot& snap);

/// Sum counters and histogram buckets across snapshots; gauges keep the
/// last non-default value seen. Used to fold a corpus of per-seed snapshots
/// into one bench artifact.
MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& snaps);

/// Chrome trace-event JSON (Perfetto-loadable): one complete ("ph":"X")
/// event per finished span, ts/dur in microseconds, tid = trace id so each
/// job's causal tree renders as its own track. Deterministic: events are
/// emitted in the order given (a tracer's finish order).
std::string encode_trace_json(const std::vector<SpanRecord>& spans);
std::string encode_trace_json(const std::vector<const SpanRecord*>& spans);

/// Summary of every indexed trace in a tracer: {"traces":[{"trace_id":..,
/// "root":..,"component":..,"job":..,"spans":..,"start_us":..,"end_us":..}]}.
/// `job` is the root span's "job" attribute ("" for non-job traces).
std::string encode_trace_list_json(const Tracer& tracer);

/// Fold per-seed span sets into one Perfetto document: each seed becomes a
/// process (pid = position + 1, named "seed <seed>" via metadata events), so
/// a corpus run loads as one inspectable timeline.
std::string encode_trace_json_corpus(
    const std::vector<std::pair<std::uint64_t, const std::vector<SpanRecord>*>>&
        per_seed);

}  // namespace blab::obs
