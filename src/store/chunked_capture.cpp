#include "store/chunked_capture.hpp"

#include <algorithm>
#include <cmath>

#include "store/codec.hpp"

namespace blab::store {
namespace {

constexpr char kMagic[4] = {'B', 'L', 'C', '1'};

util::Error malformed(std::string what) {
  return util::make_error(util::ErrorCode::kInvalidArgument,
                          "chunked capture: " + std::move(what));
}

/// Running (min, max, sum) of one tier's current window. Each window sums
/// its samples sequentially in double from 0.0, so one pass that feeds
/// every tier yields the same floats as reducing each window on its own.
struct TierBuilder {
  Tier tier;
  std::size_t filled = 0;
  float lo = 0.0f;
  float hi = 0.0f;
  double sum = 0.0;

  void add(float v) {
    if (filled == 0) lo = hi = v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    sum += static_cast<double>(v);
    if (++filled == tier.factor) flush();
  }

  void flush() {
    tier.mean_ma.push_back(
        static_cast<float>(sum / static_cast<double>(filled)));
    tier.min_ma.push_back(lo);
    tier.max_ma.push_back(hi);
    filled = 0;
    sum = 0.0;
  }
};

void put_tier(std::string& out, const Tier& tier) {
  put_u64(out, tier.factor);
  put_f64(out, tier.rate_hz);
  put_u64(out, tier.buckets());
  for (float v : tier.mean_ma) put_f32(out, v);
  for (float v : tier.min_ma) put_f32(out, v);
  for (float v : tier.max_ma) put_f32(out, v);
}

const char* get_tier(const char* p, const char* end, Tier& tier) {
  std::uint64_t factor = 0;
  std::uint64_t buckets = 0;
  p = get_u64(p, end, factor);
  if (p == nullptr) return nullptr;
  p = get_f64(p, end, tier.rate_hz);
  if (p == nullptr) return nullptr;
  p = get_u64(p, end, buckets);
  if (p == nullptr || factor == 0) return nullptr;
  if (!std::isfinite(tier.rate_hz) || tier.rate_hz <= 0.0) return nullptr;
  // 12 bytes per bucket; reject counts the payload cannot hold.
  if (buckets > static_cast<std::uint64_t>(end - p) / 12) return nullptr;
  tier.factor = static_cast<std::size_t>(factor);
  auto read_column = [&](std::vector<float>& column) {
    column.resize(static_cast<std::size_t>(buckets));
    for (auto& v : column) {
      p = get_f32(p, end, v);
      if (p == nullptr) return false;
    }
    return true;
  };
  if (!read_column(tier.mean_ma) || !read_column(tier.min_ma) ||
      !read_column(tier.max_ma)) {
    return nullptr;
  }
  return p;
}

}  // namespace

ChunkedCapture ChunkedCapture::encode(const hw::Capture& capture,
                                      std::size_t chunk_samples) {
  ChunkedCapture cc;
  cc.t0_ = capture.start();
  cc.sample_hz_ = capture.sample_hz();
  cc.voltage_ = capture.voltage();
  cc.chunk_samples_ = std::max<std::size_t>(chunk_samples, 1);
  const auto& samples = capture.samples_ma();
  cc.sample_count_ = samples.size();
  if (samples.empty()) return cc;

  std::vector<TierBuilder> builders;
  for (double rate : kTierRatesHz) {
    if (rate >= cc.sample_hz_) continue;
    const auto factor =
        static_cast<std::size_t>(std::llround(cc.sample_hz_ / rate));
    if (factor < 2) continue;
    if (!builders.empty() && builders.back().tier.factor == factor) continue;
    TierBuilder& b = builders.emplace_back();
    b.tier.factor = factor;
    b.tier.rate_hz = cc.sample_hz_ / static_cast<double>(factor);
    const std::size_t buckets = (samples.size() + factor - 1) / factor;
    b.tier.mean_ma.reserve(buckets);
    b.tier.min_ma.reserve(buckets);
    b.tier.max_ma.reserve(buckets);
  }

  // One pass: each sample is varint-encoded into a shared scratch buffer,
  // folded into its chunk footer and into every tier's window. The chunk
  // keeps only its exact encoded bytes.
  std::string scratch(
      encoded_samples_bound(std::min(cc.chunk_samples_, samples.size())),
      '\0');
  cc.chunks_.reserve((samples.size() + cc.chunk_samples_ - 1) /
                     cc.chunk_samples_);
  for (std::size_t begin = 0; begin < samples.size();
       begin += cc.chunk_samples_) {
    const std::size_t end =
        std::min(begin + cc.chunk_samples_, samples.size());
    SampleEncoder encoder{scratch.data(), samples[begin]};
    float lo = samples[begin];
    float hi = samples[begin];
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const float v = samples[i];
      if (i > begin) encoder.add(v);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      sum += static_cast<double>(v);
      for (TierBuilder& b : builders) b.add(v);
    }
    EncodedChunk& chunk = cc.chunks_.emplace_back();
    chunk.footer.count = static_cast<std::uint32_t>(end - begin);
    chunk.footer.min_ma = lo;
    chunk.footer.max_ma = hi;
    chunk.footer.sum_ma = sum;
    chunk.bytes.assign(scratch.data(), encoder.size());
  }

  for (TierBuilder& b : builders) {
    if (b.filled > 0) b.flush();
    cc.tiers_.push_back(std::move(b.tier));
  }
  return cc;
}

util::Result<std::vector<float>> ChunkedCapture::decode_chunk(
    std::size_t chunk) const {
  if (chunk >= chunks_.size()) {
    return malformed("chunk index out of range");
  }
  if (!raw_available_) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "raw chunks purged by retention");
  }
  const EncodedChunk& encoded = chunks_[chunk];
  std::vector<float> samples;
  if (!decode_samples(encoded.bytes, encoded.footer.count, samples)) {
    return malformed("corrupt chunk payload");
  }
  return samples;
}

void ChunkedCapture::drop_raw() {
  for (auto& chunk : chunks_) {
    chunk.bytes.clear();
    chunk.bytes.shrink_to_fit();
  }
  raw_available_ = false;
}

double ChunkedCapture::sum_ma() const {
  double sum = 0.0;
  for (const auto& chunk : chunks_) sum += chunk.footer.sum_ma;
  return sum;
}

double ChunkedCapture::mean_ma() const {
  if (sample_count_ == 0) return 0.0;
  return sum_ma() / static_cast<double>(sample_count_);
}

double ChunkedCapture::min_ma() const {
  if (chunks_.empty()) return 0.0;
  float lo = chunks_.front().footer.min_ma;
  for (const auto& chunk : chunks_) lo = std::min(lo, chunk.footer.min_ma);
  return lo;
}

double ChunkedCapture::max_ma() const {
  if (chunks_.empty()) return 0.0;
  float hi = chunks_.front().footer.max_ma;
  for (const auto& chunk : chunks_) hi = std::max(hi, chunk.footer.max_ma);
  return hi;
}

double ChunkedCapture::charge_mah() const {
  return mean_ma() * duration().to_seconds() / 3600.0;
}

const Tier* ChunkedCapture::coarsest_tier_with(std::size_t min_buckets) const {
  const Tier* best = nullptr;
  for (const auto& tier : tiers_) {
    if (tier.buckets() >= min_buckets) best = &tier;
  }
  return best;
}

util::Result<hw::Capture> ChunkedCapture::decode() const {
  if (!raw_available_) {
    return util::make_error(util::ErrorCode::kFailedPrecondition,
                            "raw chunks purged by retention");
  }
  std::vector<float> samples;
  samples.reserve(sample_count_);
  for (const auto& chunk : chunks_) {
    if (!decode_samples(chunk.bytes, chunk.footer.count, samples)) {
      return malformed("corrupt chunk payload");
    }
  }
  if (samples.size() != sample_count_) {
    return malformed("chunk counts disagree with header");
  }
  return hw::Capture{t0_, sample_hz_, voltage_, std::move(samples)};
}

std::size_t ChunkedCapture::byte_size() const {
  // Header + per-chunk footer (count, min, max, sum) + payload + tiers.
  std::size_t size = 4 + 8 + 8 + 8 + 8 + 8 + 1 + 8;
  for (const auto& chunk : chunks_) {
    size += 4 + 4 + 4 + 8 + 8 + chunk.bytes.size();
  }
  size += 8;
  for (const auto& tier : tiers_) {
    size += 8 + 8 + 8 + tier.buckets() * 12;
  }
  return size;
}

std::string ChunkedCapture::serialize() const {
  std::string out;
  out.reserve(byte_size());
  out.append(kMagic, sizeof(kMagic));
  put_u64(out, static_cast<std::uint64_t>(t0_.us()));
  put_f64(out, sample_hz_);
  put_f64(out, voltage_);
  put_u64(out, sample_count_);
  put_u64(out, chunk_samples_);
  out.push_back(raw_available_ ? 1 : 0);
  put_u64(out, chunks_.size());
  for (const auto& chunk : chunks_) {
    put_u32(out, chunk.footer.count);
    put_f32(out, chunk.footer.min_ma);
    put_f32(out, chunk.footer.max_ma);
    put_f64(out, chunk.footer.sum_ma);
    put_u64(out, chunk.bytes.size());
    out.append(chunk.bytes);
  }
  put_u64(out, tiers_.size());
  for (const auto& tier : tiers_) put_tier(out, tier);
  return out;
}

util::Result<ChunkedCapture> ChunkedCapture::deserialize(
    std::string_view bytes) {
  const char* p = bytes.data();
  const char* end = bytes.data() + bytes.size();
  if (bytes.size() < sizeof(kMagic) ||
      std::string_view{p, sizeof(kMagic)} !=
          std::string_view{kMagic, sizeof(kMagic)}) {
    return malformed("bad magic");
  }
  p += sizeof(kMagic);

  ChunkedCapture cc;
  std::uint64_t t0_us = 0;
  std::uint64_t sample_count = 0;
  std::uint64_t chunk_samples = 0;
  p = get_u64(p, end, t0_us);
  if (p != nullptr) p = get_f64(p, end, cc.sample_hz_);
  if (p != nullptr) p = get_f64(p, end, cc.voltage_);
  if (p != nullptr) p = get_u64(p, end, sample_count);
  if (p != nullptr) p = get_u64(p, end, chunk_samples);
  if (p == nullptr || p == end) return malformed("truncated header");
  cc.t0_ = util::TimePoint::from_micros(static_cast<std::int64_t>(t0_us));
  cc.sample_count_ = static_cast<std::size_t>(sample_count);
  cc.chunk_samples_ = static_cast<std::size_t>(chunk_samples);
  if (cc.chunk_samples_ == 0 || !(cc.sample_hz_ > 0.0) ||
      !std::isfinite(cc.sample_hz_) || !std::isfinite(cc.voltage_)) {
    return malformed("bad header fields");
  }
  const std::uint8_t raw_flag = static_cast<std::uint8_t>(*p++);
  if (raw_flag > 1) return malformed("bad raw-tier flag");
  cc.raw_available_ = raw_flag == 1;
  // While the raw tier is present the delta codec spends at least one byte
  // per sample, so a sample count the input cannot possibly back must die
  // here — before decode() sizes a vector from it. Purged captures carry
  // footers only; their counts are bounded by the per-chunk checks below.
  if (cc.raw_available_ && sample_count > bytes.size()) {
    return malformed("bad header fields");
  }

  std::uint64_t chunk_count = 0;
  p = get_u64(p, end, chunk_count);
  if (p == nullptr) return malformed("truncated chunk table");
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    EncodedChunk chunk;
    std::uint64_t payload = 0;
    p = get_u32(p, end, chunk.footer.count);
    if (p != nullptr) p = get_f32(p, end, chunk.footer.min_ma);
    if (p != nullptr) p = get_f32(p, end, chunk.footer.max_ma);
    if (p != nullptr) p = get_f64(p, end, chunk.footer.sum_ma);
    if (p != nullptr) p = get_u64(p, end, payload);
    if (p == nullptr || payload > static_cast<std::uint64_t>(end - p)) {
      return malformed("truncated chunk");
    }
    // With the raw tier present every sample costs at least one payload
    // byte and empty chunks carry none; purged chunks carry footers only.
    // Either way a chunk never holds more than chunk_samples_ samples.
    const bool payload_consistent =
        cc.raw_available_
            ? chunk.footer.count <= payload &&
                  (chunk.footer.count > 0 || payload == 0)
            : payload == 0;
    if (!payload_consistent || chunk.footer.count > cc.chunk_samples_) {
      return malformed("chunk count disagrees with payload");
    }
    if (!std::isfinite(chunk.footer.sum_ma)) {
      return malformed("bad chunk footer");
    }
    chunk.bytes.assign(p, static_cast<std::size_t>(payload));
    p += payload;
    total += chunk.footer.count;
    cc.chunks_.push_back(std::move(chunk));
  }
  if (total != cc.sample_count_) {
    return malformed("chunk counts disagree with header");
  }

  std::uint64_t tier_count = 0;
  p = get_u64(p, end, tier_count);
  if (p == nullptr) return malformed("truncated tier table");
  for (std::uint64_t i = 0; i < tier_count; ++i) {
    Tier tier;
    p = get_tier(p, end, tier);
    if (p == nullptr) return malformed("truncated tier");
    cc.tiers_.push_back(std::move(tier));
  }
  if (p != end) return malformed("trailing bytes");
  return cc;
}

}  // namespace blab::store
