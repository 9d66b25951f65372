#include "obs/span.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace blab::obs {

std::string_view SpanRecord::attr_str(std::string_view key) const {
  for (const SpanAttr& a : attrs) {
    if (a.key == key && a.kind == SpanAttr::Kind::kString) return a.s;
  }
  return {};
}

Tracer::Tracer(std::function<std::int64_t()> clock, std::size_t max_spans)
    : clock_{std::move(clock)}, max_spans_{max_spans} {}

std::size_t Tracer::policy_index(std::string_view component,
                                 std::string_view name) const {
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    if (policies_[i].component == component && policies_[i].name == name) {
      return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

void Tracer::set_tail_sampling(std::string_view component,
                               std::string_view name,
                               std::uint64_t keep_one_in,
                               std::int64_t tail_threshold_us) {
  // Updating in place keeps the policy's index, which keys its pending
  // buffers and head counters, so nothing needs flushing: every pending span
  // still carries its own unit of weight until its root decides it.
  SamplingPolicy policy{std::string{component}, std::string{name},
                        std::max<std::uint64_t>(keep_one_in, 1),
                        tail_threshold_us};
  const std::size_t idx = policy_index(component, name);
  if (idx == static_cast<std::size_t>(-1)) {
    policies_.push_back(std::move(policy));
  } else {
    policies_[idx] = std::move(policy);
  }
}

SpanRecord Tracer::make_record(std::string_view component,
                               std::string_view name, TraceContext ctx,
                               bool inherit_stack) {
  SpanRecord rec;
  rec.id = next_id_++;
  if (ctx.valid()) {
    rec.trace = ctx.trace;
    rec.parent = ctx.span;
  } else if (inherit_stack && !open_.empty()) {
    rec.trace = open_.back().record.trace;
    rec.parent = open_.back().record.id;
  } else {
    rec.trace = next_trace_++;
    rec.parent = 0;
  }
  rec.component = std::string{component};
  rec.name = std::string{name};
  rec.start_us = clock_();
  return rec;
}

std::uint64_t Tracer::begin(std::string_view component, std::string_view name,
                            TraceContext ctx) {
  Open o;
  o.record = make_record(component, name, ctx, /*inherit_stack=*/true);
  o.record.depth = static_cast<std::uint32_t>(open_.size());
  open_.push_back(std::move(o));
  return open_.back().record.id;
}

std::uint64_t Tracer::begin_detached(std::string_view component,
                                     std::string_view name, TraceContext ctx) {
  SpanRecord rec = make_record(component, name, ctx, /*inherit_stack=*/false);
  const std::uint64_t id = rec.id;
  detached_.emplace(id, std::move(rec));
  return id;
}

void Tracer::finish_record(SpanRecord&& record, std::int64_t now) {
  record.end_us = now;
  // A trace root ending is the tail-sampling decision point: resolve the
  // trace's pending buffers BEFORE committing the root, so kept children
  // precede their root in finish order.
  if (record.parent == 0) {
    resolve_tail(record.trace, record.end_us - record.start_us);
  }
  const std::size_t fam = policy_index(record.component, record.name);
  if (fam != static_cast<std::size_t>(-1)) {
    const auto dec = tail_decisions_.find(record.trace);
    if (dec == tail_decisions_.end()) {
      // Root still open: buffer, undecided. A runaway trace flushes its
      // prefix through head sampling rather than growing without bound.
      const std::pair<std::size_t, std::uint64_t> key{fam, record.trace};
      const auto pending = tail_pending_.find(key);
      if (pending != tail_pending_.end() &&
          pending->second.size() >= kMaxTailPendingPerTrace) {
        ++tail_overflows_;
        flush_tail_pending(fam, record.trace, /*keep_all=*/false);
      }
      tail_pending_[key].push_back(std::move(record));
      ++tail_pending_total_;
      return;
    }
    // Straggler: finished after the root's decision — apply it directly.
    if (dec->second.root_duration_us >= policies_[fam].tail_threshold_us) {
      commit_record(std::move(record), fam);
    } else {
      head_decide(std::move(record), fam);
    }
    return;
  }
  commit_record(std::move(record), fam);
}

void Tracer::commit_record(SpanRecord&& record, std::size_t fam) {
  if (finished_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  auto it = trace_index_.find(record.trace);
  if (it == trace_index_.end() && trace_index_.size() < kMaxIndexedTraces) {
    it = trace_index_.emplace(record.trace, std::vector<std::uint32_t>{}).first;
  }
  if (it != trace_index_.end() &&
      it->second.size() < kMaxIndexedSpansPerTrace) {
    it->second.push_back(static_cast<std::uint32_t>(finished_.size()));
  } else {
    ++index_dropped_;
  }
  if (fam != static_cast<std::size_t>(-1)) {
    FamilyState& st = family_state_[{fam, record.trace}];
    st.last_kept = static_cast<std::uint32_t>(finished_.size());
    st.has_kept = true;
  }
  finished_.push_back(std::move(record));
}

void Tracer::head_decide(SpanRecord&& record, std::size_t fam) {
  // The first span of each (family, trace) is kept, then 1 in keep_one_in.
  FamilyState& st = family_state_[{fam, record.trace}];
  const bool keep = st.count % policies_[fam].keep_one_in == 0;
  ++st.count;
  if (keep) {
    commit_record(std::move(record), fam);
    return;
  }
  // A dropped span's weight moves to the last kept span of its family and
  // trace, keeping sum-of-weights exactly equal to the true span count.
  ++sampled_out_;
  if (st.has_kept) {
    finished_[st.last_kept].weight += record.weight;
  } else {
    weight_uncredited_ += record.weight;
  }
}

void Tracer::resolve_tail(std::uint64_t trace, std::int64_t root_duration_us) {
  if (policies_.empty()) return;
  tail_decisions_[trace] = TailDecision{root_duration_us};
  bool slow = false;
  for (std::size_t fam = 0; fam < policies_.size(); ++fam) {
    const auto it = tail_pending_.find({fam, trace});
    if (it == tail_pending_.end() || it->second.empty()) continue;
    const bool keep_all =
        root_duration_us >= policies_[fam].tail_threshold_us;
    slow = slow || keep_all;
    flush_tail_pending(fam, trace, keep_all);
  }
  if (slow) ++tail_slow_traces_;
}

void Tracer::flush_tail_pending(std::size_t fam, std::uint64_t trace,
                                bool keep_all) {
  const auto it = tail_pending_.find({fam, trace});
  if (it == tail_pending_.end()) return;
  std::vector<SpanRecord> pending = std::move(it->second);
  tail_pending_.erase(it);
  tail_pending_total_ -= pending.size();
  for (SpanRecord& rec : pending) {
    if (keep_all) {
      commit_record(std::move(rec), fam);
    } else {
      head_decide(std::move(rec), fam);
    }
  }
}

std::uint64_t Tracer::tail_pending(std::string_view component,
                                   std::string_view name) const {
  const std::size_t fam = policy_index(component, name);
  if (fam == static_cast<std::size_t>(-1)) return 0;
  std::uint64_t n = 0;
  for (const auto& [key, pending] : tail_pending_) {
    if (key.first == fam) n += pending.size();
  }
  return n;
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;  // null handle (e.g. ScopedSpan over a null tracer)
  const std::int64_t now = clock_();
  auto det = detached_.find(id);
  if (det != detached_.end()) {
    SpanRecord rec = std::move(det->second);
    detached_.erase(det);
    finish_record(std::move(rec), now);
    return;
  }
  std::size_t pos = open_.size();
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].record.id == id) {
      pos = i;
      break;
    }
  }
  if (pos == open_.size()) {
    ++end_mismatches_;
    if (misuse_once_.first("unmatched-end")) {
      BLAB_WARN_KV("obs", "span end without a matching open span; ignored",
                   {{"span_id", std::to_string(id)}});
    }
    return;
  }
  if (pos + 1 != open_.size()) {
    ++end_mismatches_;
    if (misuse_once_.first("out-of-order-end")) {
      BLAB_WARN_KV("obs",
                   "span ended out of order; closing spans left open above it",
                   {{"span_id", std::to_string(id)},
                    {"leaked", std::to_string(open_.size() - pos - 1)}});
    }
  }
  while (open_.size() > pos) {
    Open o = std::move(open_.back());
    open_.pop_back();
    finish_record(std::move(o.record), now);
  }
}

TraceContext Tracer::current() const {
  if (open_.empty()) return {};
  return TraceContext{open_.back().record.trace, open_.back().record.id};
}

TraceContext Tracer::context_of(std::uint64_t id) const {
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].record.id == id) {
      return TraceContext{open_[i].record.trace, id};
    }
  }
  auto det = detached_.find(id);
  if (det != detached_.end()) return TraceContext{det->second.trace, id};
  return {};
}

SpanRecord* Tracer::find_open(std::uint64_t id) {
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].record.id == id) return &open_[i].record;
  }
  auto det = detached_.find(id);
  if (det != detached_.end()) return &det->second;
  return nullptr;
}

void Tracer::set_attr(std::uint64_t id, std::string_view key,
                      std::int64_t value) {
  SpanRecord* rec = find_open(id);
  if (rec == nullptr || rec->attrs.size() >= kMaxAttrsPerSpan) return;
  SpanAttr a;
  a.key = std::string{key};
  a.kind = SpanAttr::Kind::kInt;
  a.i = value;
  rec->attrs.push_back(std::move(a));
}

void Tracer::set_attr(std::uint64_t id, std::string_view key, double value) {
  SpanRecord* rec = find_open(id);
  if (rec == nullptr || rec->attrs.size() >= kMaxAttrsPerSpan) return;
  SpanAttr a;
  a.key = std::string{key};
  a.kind = SpanAttr::Kind::kDouble;
  a.d = value;
  rec->attrs.push_back(std::move(a));
}

void Tracer::set_attr(std::uint64_t id, std::string_view key,
                      std::string_view value) {
  SpanRecord* rec = find_open(id);
  if (rec == nullptr || rec->attrs.size() >= kMaxAttrsPerSpan) return;
  SpanAttr a;
  a.key = std::string{key};
  a.kind = SpanAttr::Kind::kString;
  a.s = std::string{value};
  rec->attrs.push_back(std::move(a));
}

void Tracer::add_link(std::uint64_t id, SpanLink link) {
  SpanRecord* rec = find_open(id);
  if (rec == nullptr || rec->links.size() >= kMaxLinksPerSpan) return;
  rec->links.push_back(std::move(link));
  ++links_added_;
}

std::vector<std::uint64_t> Tracer::trace_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(trace_index_.size());
  for (const auto& [trace, indices] : trace_index_) {
    if (!indices.empty()) ids.push_back(trace);
  }
  return ids;
}

std::vector<const SpanRecord*> Tracer::spans_in(std::uint64_t trace) const {
  std::vector<const SpanRecord*> out;
  auto it = trace_index_.find(trace);
  if (it == trace_index_.end()) return out;
  out.reserve(it->second.size());
  for (std::uint32_t idx : it->second) out.push_back(&finished_[idx]);
  return out;
}

std::size_t Tracer::open_in_trace(std::uint64_t trace) const {
  std::size_t n = 0;
  for (const Open& o : open_) {
    if (o.record.trace == trace) ++n;
  }
  for (const auto& [id, rec] : detached_) {
    if (rec.trace == trace) ++n;
  }
  return n;
}

std::uint64_t Tracer::find_trace_by_root_attr(std::string_view key,
                                              std::string_view value) const {
  for (const auto& [trace, indices] : trace_index_) {
    for (std::uint32_t idx : indices) {
      const SpanRecord& rec = finished_[idx];
      if (rec.parent == 0 && rec.attr_str(key) == value) return trace;
    }
  }
  return 0;
}

void Tracer::clear() {
  open_.clear();
  detached_.clear();
  finished_.clear();
  trace_index_.clear();
  family_state_.clear();  // policies survive: they are configuration
  tail_pending_.clear();
  tail_decisions_.clear();
  tail_pending_total_ = 0;
  tail_slow_traces_ = 0;
  tail_overflows_ = 0;
  dropped_ = 0;
  end_mismatches_ = 0;
  index_dropped_ = 0;
  sampled_out_ = 0;
  weight_uncredited_ = 0;
  links_added_ = 0;
  next_id_ = 1;
  next_trace_ = 1;
  misuse_once_.reset();
}

}  // namespace blab::obs
