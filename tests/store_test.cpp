// Chunked capture store: codec losslessness, tier ladder edges, retention
// TTLs, LRU cache behavior, and the query API's footer/tier fast paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_io.hpp"
#include "hw/power_monitor.hpp"
#include "store/capture_store.hpp"
#include "store/chunked_capture.hpp"
#include "store/codec.hpp"
#include "util/rng.hpp"

namespace {

using blab::hw::Capture;
using blab::store::CaptureId;
using blab::store::CaptureStore;
using blab::store::ChunkedCapture;
using blab::store::RetentionPolicy;
using blab::util::Duration;
using blab::util::ErrorCode;
using blab::util::TimePoint;

/// A bounded random walk around `base` mA — realistic capture content where
/// consecutive samples are close, like a real Monsoon trace.
std::vector<float> walk_samples(std::uint64_t seed, std::size_t n,
                                double base = 300.0) {
  blab::util::Rng rng{seed};
  std::vector<float> samples;
  samples.reserve(n);
  double v = base;
  for (std::size_t i = 0; i < n; ++i) {
    v = std::clamp(v + rng.uniform(-8.0, 8.0), 5.0, 4500.0);
    samples.push_back(static_cast<float>(v));
  }
  return samples;
}

Capture make_capture(std::uint64_t seed, std::size_t n, double hz = 5000.0,
                     double voltage = 3.85) {
  return Capture{TimePoint::epoch(), hz, voltage, walk_samples(seed, n)};
}

// ------------------------------------------------------------------------
// Chunk codec and footers.
// ------------------------------------------------------------------------

TEST(ChunkedCapture, RoundTripIsLossless) {
  for (std::size_t n : {1u, 2u, 4095u, 4096u, 4097u, 10000u}) {
    const Capture original = make_capture(n, n);
    const ChunkedCapture cc = ChunkedCapture::encode(original);
    auto decoded = cc.decode();
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    ASSERT_EQ(decoded.value().sample_count(), n);
    EXPECT_EQ(decoded.value().samples_ma(), original.samples_ma())
        << "n=" << n << " did not round-trip bit-exactly";
    EXPECT_EQ(decoded.value().start(), original.start());
    EXPECT_DOUBLE_EQ(decoded.value().sample_hz(), original.sample_hz());
    EXPECT_DOUBLE_EQ(decoded.value().voltage(), original.voltage());
  }
}

TEST(ChunkedCapture, EmptyCaptureIsRepresentable) {
  const Capture empty{TimePoint::epoch(), 5000.0, 3.85, {}};
  const ChunkedCapture cc = ChunkedCapture::encode(empty);
  EXPECT_EQ(cc.sample_count(), 0u);
  EXPECT_EQ(cc.chunk_count(), 0u);
  EXPECT_TRUE(cc.tiers().empty());
  EXPECT_DOUBLE_EQ(cc.mean_ma(), 0.0);
  EXPECT_DOUBLE_EQ(cc.energy_mwh(), 0.0);
  auto decoded = cc.decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().sample_count(), 0u);
  auto reloaded = ChunkedCapture::deserialize(cc.serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  EXPECT_EQ(reloaded.value().sample_count(), 0u);
}

TEST(ChunkedCapture, SingleSampleTailChunk) {
  const Capture original = make_capture(9, 9);
  const ChunkedCapture cc = ChunkedCapture::encode(original, 4);
  ASSERT_EQ(cc.chunk_count(), 3u);
  EXPECT_EQ(cc.footer(0).count, 4u);
  EXPECT_EQ(cc.footer(1).count, 4u);
  EXPECT_EQ(cc.footer(2).count, 1u);
  auto tail = cc.decode_chunk(2);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.value().size(), 1u);
  EXPECT_EQ(tail.value()[0], original.samples_ma()[8]);
  EXPECT_EQ(cc.footer(2).min_ma, original.samples_ma()[8]);
  EXPECT_EQ(cc.footer(2).max_ma, original.samples_ma()[8]);
}

TEST(ChunkedCapture, FooterSummariesMatchSequentialScan) {
  const Capture original = make_capture(77, 10000);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  double sum = 0.0;
  float lo = original.samples_ma()[0];
  float hi = lo;
  for (float v : original.samples_ma()) {
    sum += static_cast<double>(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double mean = sum / 10000.0;
  // Chunk partial sums re-associate the addition; last-ulp drift only.
  EXPECT_NEAR(cc.mean_ma(), mean, 1e-6 * std::abs(mean));
  EXPECT_EQ(cc.min_ma(), static_cast<double>(lo));
  EXPECT_EQ(cc.max_ma(), static_cast<double>(hi));
  EXPECT_NEAR(cc.energy_mwh(), original.energy_mwh(),
              1e-6 * std::abs(original.energy_mwh()));
}

/// The per-window reduction the one-pass encoder replaced: each bucket
/// scanned on its own, summing in double from 0.0.
blab::store::Tier reference_tier(const std::vector<float>& samples,
                                 std::size_t factor, double raw_hz) {
  blab::store::Tier tier;
  tier.factor = factor;
  tier.rate_hz = raw_hz / static_cast<double>(factor);
  for (std::size_t begin = 0; begin < samples.size(); begin += factor) {
    const std::size_t end = std::min(begin + factor, samples.size());
    float lo = samples[begin];
    float hi = samples[begin];
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      lo = std::min(lo, samples[i]);
      hi = std::max(hi, samples[i]);
      sum += static_cast<double>(samples[i]);
    }
    tier.mean_ma.push_back(
        static_cast<float>(sum / static_cast<double>(end - begin)));
    tier.min_ma.push_back(lo);
    tier.max_ma.push_back(hi);
  }
  return tier;
}

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(ChunkedCapture, OnePassFootersAndTiersMatchPerWindowReference) {
  // 5 kHz builds two tiers (factors 100 and 5000), 50 Hz one (factor 50),
  // 1 Hz none. Counts straddle tier and 4096-sample chunk boundaries.
  for (const double hz : {5000.0, 50.0, 1.0}) {
    for (const std::size_t n :
         {1u, 99u, 100u, 101u, 4097u, 5001u, 156'000u}) {
      std::vector<float> samples = walk_samples(n, n);
      // Values whose min/max/sum handling is easy to get subtly wrong.
      if (n > 50) {
        samples[3] = -0.0f;
        samples[n / 2] = std::nextafter(0.0f, 1.0f);
      }
      const Capture capture{TimePoint::epoch(), hz, 3.85, samples};
      const ChunkedCapture cc = ChunkedCapture::encode(capture);
      SCOPED_TRACE(std::to_string(hz) + " Hz, n=" + std::to_string(n));

      const std::size_t chunk = ChunkedCapture::kDefaultChunkSamples;
      ASSERT_EQ(cc.chunk_count(), (n + chunk - 1) / chunk);
      for (std::size_t c = 0; c < cc.chunk_count(); ++c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(begin + chunk, n);
        float lo = samples[begin];
        float hi = samples[begin];
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          lo = std::min(lo, samples[i]);
          hi = std::max(hi, samples[i]);
          sum += static_cast<double>(samples[i]);
        }
        const auto& footer = cc.footer(c);
        EXPECT_EQ(footer.count, end - begin);
        EXPECT_TRUE(same_bits(footer.min_ma, lo)) << "chunk " << c;
        EXPECT_TRUE(same_bits(footer.max_ma, hi)) << "chunk " << c;
        EXPECT_TRUE(same_bits(footer.sum_ma, sum)) << "chunk " << c;
      }

      std::vector<std::size_t> factors;
      if (hz == 5000.0) factors = {100, 5000};
      if (hz == 50.0) factors = {50};
      ASSERT_EQ(cc.tiers().size(), factors.size());
      for (std::size_t t = 0; t < factors.size(); ++t) {
        const blab::store::Tier want = reference_tier(samples, factors[t], hz);
        const blab::store::Tier& got = cc.tiers()[t];
        EXPECT_EQ(got.factor, want.factor);
        EXPECT_TRUE(same_bits(got.rate_hz, want.rate_hz));
        ASSERT_EQ(got.buckets(), want.buckets());
        for (std::size_t b = 0; b < want.buckets(); ++b) {
          ASSERT_TRUE(same_bits(got.mean_ma[b], want.mean_ma[b]))
              << "tier " << t << " bucket " << b;
          ASSERT_TRUE(same_bits(got.min_ma[b], want.min_ma[b]))
              << "tier " << t << " bucket " << b;
          ASSERT_TRUE(same_bits(got.max_ma[b], want.max_ma[b]))
              << "tier " << t << " bucket " << b;
        }
      }
    }
  }
}

// ------------------------------------------------------------------------
// Tier ladder.
// ------------------------------------------------------------------------

TEST(ChunkedCapture, TierLadderAtExactBoundaries) {
  // 10000 samples at 5 kHz: 50 Hz tier = factor 100 -> 100 buckets,
  // 1 Hz tier = factor 5000 -> 2 buckets, no partial tail anywhere.
  const ChunkedCapture cc = ChunkedCapture::encode(make_capture(1, 10000));
  ASSERT_EQ(cc.tiers().size(), 2u);
  EXPECT_EQ(cc.tiers()[0].factor, 100u);
  EXPECT_DOUBLE_EQ(cc.tiers()[0].rate_hz, 50.0);
  EXPECT_EQ(cc.tiers()[0].buckets(), 100u);
  EXPECT_EQ(cc.tiers()[1].factor, 5000u);
  EXPECT_DOUBLE_EQ(cc.tiers()[1].rate_hz, 1.0);
  EXPECT_EQ(cc.tiers()[1].buckets(), 2u);
}

TEST(ChunkedCapture, TierPartialTailBucket) {
  // One sample past the boundary adds a one-sample bucket to every tier.
  const Capture original = make_capture(2, 10001);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  ASSERT_EQ(cc.tiers().size(), 2u);
  EXPECT_EQ(cc.tiers()[0].buckets(), 101u);
  EXPECT_EQ(cc.tiers()[1].buckets(), 3u);
  const float last = original.samples_ma()[10000];
  EXPECT_EQ(cc.tiers()[0].mean_ma.back(), last);
  EXPECT_EQ(cc.tiers()[0].min_ma.back(), last);
  EXPECT_EQ(cc.tiers()[0].max_ma.back(), last);
}

TEST(ChunkedCapture, TiersAtOrAboveRawRateAreSkipped) {
  // At 50 Hz raw, the 50 Hz target is redundant; only 1 Hz survives.
  const ChunkedCapture at50 =
      ChunkedCapture::encode(make_capture(3, 500, /*hz=*/50.0));
  ASSERT_EQ(at50.tiers().size(), 1u);
  EXPECT_EQ(at50.tiers()[0].factor, 50u);
  EXPECT_DOUBLE_EQ(at50.tiers()[0].rate_hz, 1.0);
  // At 1 Hz raw there is nothing left to downsample.
  const ChunkedCapture at1 =
      ChunkedCapture::encode(make_capture(4, 10, /*hz=*/1.0));
  EXPECT_TRUE(at1.tiers().empty());
  EXPECT_EQ(at1.finest_tier(), nullptr);
}

TEST(ChunkedCapture, TierMeansAgreeWithRawWindows) {
  const Capture original = make_capture(5, 10000);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  const auto& tier = cc.tiers()[0];  // 50 Hz, factor 100
  for (std::size_t b : {0u, 37u, 99u}) {
    double sum = 0.0;
    for (std::size_t i = b * 100; i < (b + 1) * 100; ++i) {
      sum += static_cast<double>(original.samples_ma()[i]);
    }
    EXPECT_NEAR(tier.mean_ma[b], sum / 100.0, 1e-3) << "bucket " << b;
  }
}

// ------------------------------------------------------------------------
// Serialization.
// ------------------------------------------------------------------------

TEST(ChunkedCapture, ReencodeIsByteIdentical) {
  const Capture original = make_capture(6, 9001);
  const std::string first = ChunkedCapture::encode(original).serialize();
  const std::string second = ChunkedCapture::encode(original).serialize();
  EXPECT_EQ(first, second);
}

TEST(ChunkedCapture, SerializeDeserializeRoundTrip) {
  const Capture original = make_capture(7, 8193);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  auto reloaded = ChunkedCapture::deserialize(cc.serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  const ChunkedCapture& rc = reloaded.value();
  EXPECT_EQ(rc.sample_count(), cc.sample_count());
  EXPECT_EQ(rc.chunk_count(), cc.chunk_count());
  EXPECT_EQ(rc.tiers().size(), cc.tiers().size());
  EXPECT_EQ(rc.serialize(), cc.serialize());
  auto decoded = rc.decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().samples_ma(), original.samples_ma());
}

TEST(ChunkedCapture, PurgedRawSurvivesSerialization) {
  ChunkedCapture cc = ChunkedCapture::encode(make_capture(8, 9000));
  const double mean = cc.mean_ma();
  cc.drop_raw();
  auto reloaded = ChunkedCapture::deserialize(cc.serialize());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(reloaded.value().raw_available());
  EXPECT_DOUBLE_EQ(reloaded.value().mean_ma(), mean);
  EXPECT_EQ(reloaded.value().decode().error().code,
            ErrorCode::kFailedPrecondition);
}

TEST(ChunkedCapture, DeserializeRejectsMalformedBytes) {
  const std::string good = ChunkedCapture::encode(make_capture(9, 5000))
                               .serialize();
  EXPECT_FALSE(ChunkedCapture::deserialize("").ok());
  EXPECT_FALSE(ChunkedCapture::deserialize("XXXX" + good.substr(4)).ok());
  EXPECT_FALSE(
      ChunkedCapture::deserialize(std::string_view{good}.substr(
          0, good.size() / 2)).ok());
  EXPECT_FALSE(ChunkedCapture::deserialize(good + std::string(1, '\0')).ok());
}

// ----------------------------------------------- adversarial codec input ----

TEST(Codec, VarintRejectsTruncatedOverlongAndOverflowing) {
  using blab::store::get_varint;
  using blab::store::put_varint;
  std::uint64_t v = 0;

  // Truncated: continuation bit set on the last available byte.
  const std::string truncated{"\x80", 1};
  EXPECT_EQ(get_varint(truncated.data(),
                       truncated.data() + truncated.size(), v),
            nullptr);

  // Overlong: a non-canonical trailing zero byte ("\x80\x00" also encodes 0).
  const std::string overlong{"\x80\x00", 2};
  EXPECT_EQ(get_varint(overlong.data(), overlong.data() + overlong.size(), v),
            nullptr);

  // Overflowing: 10th byte carries bits above bit 63.
  std::string overflow(9, '\xFF');
  overflow.push_back('\x02');
  EXPECT_EQ(get_varint(overflow.data(), overflow.data() + overflow.size(), v),
            nullptr);

  // The canonical max encoding (2^64-1) still decodes.
  std::string max_enc;
  put_varint(max_enc, ~0ULL);
  EXPECT_NE(get_varint(max_enc.data(), max_enc.data() + max_enc.size(), v),
            nullptr);
  EXPECT_EQ(v, ~0ULL);

  // Every canonical encoding round-trips to the exact same bytes.
  for (const std::uint64_t val :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, 1ULL << 32,
        ~0ULL >> 1, ~0ULL}) {
    std::string enc;
    put_varint(enc, val);
    std::uint64_t back = 0;
    const char* p = get_varint(enc.data(), enc.data() + enc.size(), back);
    ASSERT_EQ(p, enc.data() + enc.size());
    EXPECT_EQ(back, val);
  }
}

TEST(Codec, DecodeSamplesRejectsHostileCounts) {
  using blab::store::decode_samples;
  using blab::store::encode_samples;
  const std::vector<float> samples{1.0f, 1.5f, 2.0f, -3.25f};
  const std::string bytes = encode_samples(samples.data(), samples.size());

  std::vector<float> out;
  // A count larger than the payload could possibly hold is rejected before
  // any allocation (each sample is at least one varint byte).
  EXPECT_FALSE(decode_samples(bytes, 1u << 31, out));
  EXPECT_TRUE(out.empty());

  // Off-by-one counts fail: trailing bytes and truncation are both errors.
  EXPECT_FALSE(decode_samples(bytes, samples.size() - 1, out));
  EXPECT_FALSE(decode_samples(bytes, samples.size() + 1, out));

  // Non-canonical payload bytes fail even when the count fits.
  EXPECT_FALSE(decode_samples(std::string{"\x80\x00", 2}, 1, out));

  // And the honest decode still works and re-encodes byte-identically.
  out.clear();
  ASSERT_TRUE(decode_samples(bytes, samples.size(), out));
  EXPECT_EQ(out, samples);
  EXPECT_EQ(encode_samples(out.data(), out.size()), bytes);
}

TEST(Codec, BranchFreeEncoderMatchesPutVarintAtEveryLength) {
  // Alternating extreme bit patterns and small deltas: every varint length
  // from 1 to 5 bytes occurs, and the encoder must emit put_varint's bytes.
  std::vector<std::uint32_t> patterns;
  for (const std::uint32_t step : {1u, 100u, 20'000u, 2'000'000u,
                                   200'000'000u}) {
    for (const std::uint32_t base : {0x00000000u, 0xFFFFFFFFu, 0x7FC00001u}) {
      patterns.push_back(base);
      patterns.push_back(base + step);
      patterns.push_back(base - step);
    }
  }
  std::vector<float> samples;
  for (const std::uint32_t bits : patterns) {
    samples.push_back(std::bit_cast<float>(bits));
  }
  std::string want;
  std::vector<std::size_t> ends{0};  // reference size after each sample
  std::vector<bool> seen(6, false);
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const std::int64_t bits = patterns[i];
    blab::store::put_varint(
        want, i == 0 ? static_cast<std::uint64_t>(bits)
                     : blab::store::zigzag_encode(bits - prev));
    seen[want.size() - ends.back()] = true;
    ends.push_back(want.size());
    prev = bits;
  }
  for (std::size_t len = 1; len <= 5; ++len) EXPECT_TRUE(seen[len]) << len;
  // Every prefix, so the stream ends on each length in turn.
  for (std::size_t n = 0; n <= samples.size(); ++n) {
    EXPECT_EQ(blab::store::encode_samples(samples.data(), n),
              want.substr(0, ends[n]))
        << n;
  }
}

TEST(ChunkedCapture, DeserializeRejectsNonCanonicalHeaderFields) {
  const auto cc = ChunkedCapture::encode(make_capture(11, 300));
  const std::string good = cc.serialize();

  // Accepted bytes must re-serialize identically (the fuzz invariant).
  const auto back = ChunkedCapture::deserialize(good);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().serialize(), good);

  // Single-byte corruption anywhere must never crash; it either fails with
  // a typed error or yields a capture that still re-serializes losslessly.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x10);
    const auto r = ChunkedCapture::deserialize(bad);
    if (r.ok()) {
      EXPECT_EQ(r.value().serialize(), bad) << "byte " << i;
    }
  }
}

TEST(ChunkedCapture, CompressionBeatsCsvByFourX) {
  const Capture original = make_capture(10, 25000);
  const ChunkedCapture cc = ChunkedCapture::encode(original);
  std::ostringstream csv;
  blab::analysis::write_capture_csv(original, csv);
  EXPECT_LE(cc.byte_size() * 4, csv.str().size())
      << "chunked " << cc.byte_size() << " B vs CSV " << csv.str().size()
      << " B";
}

TEST(TraceIo, ChunkedAdaptersRoundTrip) {
  const Capture original = make_capture(11, 6000);
  std::ostringstream os;
  blab::analysis::write_capture_chunked(original, os);
  std::istringstream is{os.str()};
  auto reloaded = blab::analysis::read_capture_chunked_stream(is);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  EXPECT_EQ(reloaded.value().samples_ma(), original.samples_ma());
  EXPECT_DOUBLE_EQ(reloaded.value().sample_hz(), original.sample_hz());
  EXPECT_DOUBLE_EQ(reloaded.value().voltage(), original.voltage());
  EXPECT_EQ(reloaded.value().start(), original.start());
}

// ------------------------------------------------------------------------
// CaptureStore: lookup and queries.
// ------------------------------------------------------------------------

TEST(CaptureStore, WorkspacesAndListingsAreSorted) {
  CaptureStore store;
  const auto b1 = store.append("job-b", "m0", make_capture(20, 100),
                               TimePoint::epoch());
  const auto a1 = store.append("job-a", "m1", make_capture(21, 100),
                               TimePoint::epoch());
  const auto a2 = store.append("job-a", "m2", make_capture(22, 100),
                               TimePoint::epoch());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.workspaces(),
            (std::vector<std::string>{"job-a", "job-b"}));
  EXPECT_EQ(store.list("job-a"), (std::vector<CaptureId>{a1, a2}));
  EXPECT_EQ(store.list("job-b"), (std::vector<CaptureId>{b1}));
  EXPECT_LT(a1.seq, a2.seq);
  EXPECT_EQ(store.name_of(a2), "m2");
  EXPECT_FALSE(store.contains(CaptureId{"job-c", 99}));
  EXPECT_EQ(store.mean_ma(CaptureId{"job-c", 99}).error().code,
            ErrorCode::kNotFound);
}

TEST(CaptureStore, RangeReturnsExactSubrange) {
  CaptureStore store;
  const Capture original = make_capture(23, 10000);  // 2 s at 5 kHz
  const auto id =
      store.append("job", "m", original, TimePoint::epoch());
  auto slice = store.range(id, TimePoint::epoch() + Duration::seconds(0.25),
                           TimePoint::epoch() + Duration::seconds(0.5));
  ASSERT_TRUE(slice.ok()) << slice.error().message;
  ASSERT_EQ(slice.value().sample_count(), 1250u);
  for (std::size_t i = 0; i < 1250; ++i) {
    ASSERT_EQ(slice.value().samples_ma()[i], original.samples_ma()[1250 + i])
        << "sample " << i;
  }
  EXPECT_EQ(slice.value().start(),
            TimePoint::epoch() + Duration::seconds(0.25));
  // Out-of-bounds clamps; inverted range is an error.
  auto whole = store.range(id, TimePoint::epoch() - Duration::seconds(5),
                           TimePoint::epoch() + Duration::seconds(99));
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole.value().samples_ma(), original.samples_ma());
  EXPECT_EQ(store.range(id, TimePoint::epoch() + Duration::seconds(1),
                        TimePoint::epoch()).error().code,
            ErrorCode::kInvalidArgument);
}

TEST(CaptureStore, SummaryQueriesNeverDecodeRawChunks) {
  CaptureStore store;
  const Capture original = make_capture(24, 10000);
  const auto id = store.append("job", "m", original, TimePoint::epoch());

  auto whole = store.aggregate(id, Duration::seconds(60));
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole.value().size(), 1u);
  EXPECT_NEAR(whole.value()[0].mean_ma, original.mean_current_ma(),
              1e-6 * original.mean_current_ma());
  EXPECT_EQ(whole.value()[0].samples, 10000u);

  auto cdf = store.percentiles(id);
  ASSERT_TRUE(cdf.ok());
  EXPECT_EQ(cdf.value().count(), 100u);  // 50 Hz tier bucket means

  auto energy = store.energy_mwh(id);
  ASSERT_TRUE(energy.ok());
  EXPECT_NEAR(energy.value(), original.energy_mwh(),
              1e-6 * original.energy_mwh());

  // The acceptance bar: summaries come from footers/tiers alone.
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
  EXPECT_EQ(store.stats().tier_queries, 3u);  // aggregate + cdf + energy
  EXPECT_TRUE(store.mean_ma(id).ok());
  EXPECT_EQ(store.stats().tier_queries, 4u);
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
}

TEST(CaptureStore, CatalogFiltersByStoredAtAndSortsById) {
  CaptureStore store;
  const auto b = store.append("job-b", "m0", make_capture(40, 100),
                              TimePoint::epoch() + Duration::minutes(1));
  const auto a = store.append("job-a", "m1", make_capture(41, 100),
                              TimePoint::epoch() + Duration::minutes(5));
  const auto c = store.append("job-c", "m2", make_capture(42, 100),
                              TimePoint::epoch() + Duration::minutes(9));
  // Ascending CaptureId order regardless of insertion order — the rollup
  // engine's determinism contract leans on this.
  EXPECT_EQ(store.catalog(TimePoint::epoch(), TimePoint::max()),
            (std::vector<CaptureId>{a, b, c}));
  // [t0, t1) filters on stored_at.
  EXPECT_EQ(store.catalog(TimePoint::epoch(),
                          TimePoint::epoch() + Duration::minutes(5)),
            (std::vector<CaptureId>{b}));
  EXPECT_EQ(store.catalog(TimePoint::epoch() + Duration::minutes(5),
                          TimePoint::max()),
            (std::vector<CaptureId>{a, c}));
  EXPECT_TRUE(store.catalog(TimePoint::epoch() + Duration::minutes(30),
                            TimePoint::max())
                  .empty());
}

TEST(CaptureStore, SummaryServesFooterAggregatesWithoutRawDecodes) {
  CaptureStore store;
  const Capture original = make_capture(43, 10000);  // 2 s at 5 kHz
  const auto stored_at = TimePoint::epoch() + Duration::seconds(7);
  const auto id = store.append("job", "m", original, stored_at);
  const auto summary = store.summary(id);
  ASSERT_TRUE(summary.ok()) << summary.error().message;
  const auto& s = summary.value();
  EXPECT_EQ(s.id, id);
  EXPECT_EQ(s.name, "m");
  EXPECT_EQ(s.stored_at, stored_at);
  EXPECT_EQ(s.start, original.start());
  EXPECT_EQ(s.samples, 10000u);
  EXPECT_DOUBLE_EQ(s.sample_hz, original.sample_hz());
  EXPECT_DOUBLE_EQ(s.voltage, original.voltage());
  EXPECT_NEAR(s.mean_ma, original.mean_current_ma(),
              1e-6 * original.mean_current_ma());
  EXPECT_NEAR(s.energy_mwh, original.energy_mwh(),
              1e-6 * original.energy_mwh());
  EXPECT_GT(s.charge_mah, 0.0);
  EXPECT_LE(s.min_ma, s.max_ma);
  // The summary must agree exactly with the individual footer queries the
  // rollup-accuracy oracle chains to.
  EXPECT_EQ(s.energy_mwh, store.energy_mwh(id).value());
  EXPECT_EQ(s.mean_ma, store.mean_ma(id).value());
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
  EXPECT_EQ(store.summary(CaptureId{"ghost", 1}).error().code,
            ErrorCode::kNotFound);
}

TEST(CaptureStore, WindowedAggregateMatchesRawMeans) {
  CaptureStore store;
  const Capture original = make_capture(25, 10000);  // 2 s at 5 kHz
  const auto id = store.append("job", "m", original, TimePoint::epoch());
  auto buckets = store.aggregate(id, Duration::seconds(0.1));
  ASSERT_TRUE(buckets.ok()) << buckets.error().message;
  ASSERT_EQ(buckets.value().size(), 20u);  // 2 s / 100 ms
  for (std::size_t b : {0u, 7u, 19u}) {
    double sum = 0.0;
    for (std::size_t i = b * 500; i < (b + 1) * 500; ++i) {
      sum += static_cast<double>(original.samples_ma()[i]);
    }
    EXPECT_NEAR(buckets.value()[b].mean_ma, sum / 500.0, 1e-2)
        << "bucket " << b;
    EXPECT_EQ(buckets.value()[b].samples, 500u);
  }
  EXPECT_EQ(store.stats().raw_chunk_decodes, 0u);
}

TEST(CaptureStore, WindowFinerThanFinestTierIsUnsupported) {
  CaptureStore store;
  const auto id =
      store.append("job", "m", make_capture(26, 10000), TimePoint::epoch());
  // 1 ms windows need the raw 5 kHz stream, not the 50 Hz tier.
  auto result = store.aggregate(id, Duration::millis(1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnsupported);
  EXPECT_EQ(store.aggregate(id, Duration::zero()).error().code,
            ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------------------------
// Retention.
// ------------------------------------------------------------------------

TEST(CaptureStore, TtlPurgesRawFirstThenSummaries) {
  RetentionPolicy policy;
  policy.raw_ttl = Duration::minutes(30);
  policy.summary_ttl = Duration::minutes(240);
  CaptureStore store{policy};
  const Capture original = make_capture(27, 10000);
  const auto id = store.append("job", "m", original, TimePoint::epoch());

  // Mid-life: a raw query works, then retention crosses the raw TTL and the
  // same query degrades to an explicit precondition failure while every
  // summary keeps answering.
  ASSERT_TRUE(store.range(id, TimePoint::epoch(),
                          TimePoint::epoch() + Duration::seconds(1)).ok());
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(29)),
            0u);
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(31)),
            1u);
  EXPECT_EQ(store.stats().raw_purges, 1u);
  auto range = store.range(id, TimePoint::epoch(),
                           TimePoint::epoch() + Duration::seconds(1));
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.error().code, ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(store.contains(id));
  EXPECT_TRUE(store.percentiles(id).ok());
  EXPECT_NEAR(store.mean_ma(id).value(), original.mean_current_ma(),
              1e-6 * original.mean_current_ma());
  ASSERT_TRUE(store.aggregate(id, Duration::seconds(0.1)).ok());

  // A second raw purge pass is a no-op; the summary TTL erases the record.
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(60)),
            0u);
  EXPECT_EQ(store.run_retention(TimePoint::epoch() + Duration::minutes(241)),
            1u);
  EXPECT_EQ(store.stats().record_purges, 1u);
  EXPECT_FALSE(store.contains(id));
  EXPECT_EQ(store.percentiles(id).error().code, ErrorCode::kNotFound);
}

TEST(CaptureStore, WorkspacePurgeLeavesOtherJobsRaw) {
  CaptureStore store;
  const auto a =
      store.append("job-a", "m", make_capture(28, 9000), TimePoint::epoch());
  const auto b =
      store.append("job-b", "m", make_capture(29, 9000), TimePoint::epoch());
  EXPECT_EQ(store.drop_workspace_raw("job-a"), 1u);
  EXPECT_EQ(store.range(a, TimePoint::epoch(),
                        TimePoint::epoch() + Duration::seconds(1))
                .error()
                .code,
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(store.range(b, TimePoint::epoch(),
                          TimePoint::epoch() + Duration::seconds(1)).ok());
  // Repeat purge finds nothing left to drop.
  EXPECT_EQ(store.drop_workspace_raw("job-a"), 0u);
}

// ------------------------------------------------------------------------
// LRU cache.
// ------------------------------------------------------------------------

TEST(CaptureStore, LruEvictsUnderInterleavedReaders) {
  // Two 3-chunk captures sharing a 2-chunk cache: interleaved readers force
  // evictions but never wrong data.
  CaptureStore store{RetentionPolicy{}, /*cache_chunks=*/2};
  const Capture ca = make_capture(30, 10000);
  const Capture cb = make_capture(31, 10000);
  const auto a = store.append("job-a", "m", ca, TimePoint::epoch());
  const auto b = store.append("job-b", "m", cb, TimePoint::epoch());
  for (int round = 0; round < 3; ++round) {
    for (double t0 : {0.0, 0.9, 1.8}) {
      auto sa = store.range(a, TimePoint::epoch() + Duration::seconds(t0),
                            TimePoint::epoch() + Duration::seconds(t0 + 0.1));
      auto sb = store.range(b, TimePoint::epoch() + Duration::seconds(t0),
                            TimePoint::epoch() + Duration::seconds(t0 + 0.1));
      ASSERT_TRUE(sa.ok());
      ASSERT_TRUE(sb.ok());
      const auto first = static_cast<std::size_t>(std::ceil(t0 * 5000.0));
      ASSERT_FALSE(sa.value().samples_ma().empty());
      EXPECT_EQ(sa.value().samples_ma()[0], ca.samples_ma()[first]);
      EXPECT_EQ(sb.value().samples_ma()[0], cb.samples_ma()[first]);
    }
  }
  EXPECT_GT(store.stats().cache_evictions, 0u);
  EXPECT_GT(store.stats().raw_chunk_decodes, store.stats().cache_evictions);
}

TEST(CaptureStore, RepeatedReadsHitTheCache) {
  CaptureStore store;
  const auto id =
      store.append("job", "m", make_capture(32, 5000), TimePoint::epoch());
  const auto t1 = TimePoint::epoch() + Duration::seconds(1);
  ASSERT_TRUE(store.range(id, TimePoint::epoch(), t1).ok());
  const auto decodes = store.stats().raw_chunk_decodes;
  EXPECT_GT(decodes, 0u);
  ASSERT_TRUE(store.range(id, TimePoint::epoch(), t1).ok());
  EXPECT_EQ(store.stats().raw_chunk_decodes, decodes);
  EXPECT_GT(store.stats().cache_hits, 0u);
}

TEST(CaptureStore, ReencodeInStoreIsDeterministic) {
  // Appending the same capture into two stores yields byte-identical
  // archives — the property DST leans on for digest stability.
  const Capture original = make_capture(33, 9001);
  CaptureStore s1;
  CaptureStore s2;
  const auto id1 = s1.append("job", "m", original, TimePoint::epoch());
  const auto id2 = s2.append("job", "m", original, TimePoint::epoch());
  ASSERT_NE(s1.find(id1), nullptr);
  ASSERT_NE(s2.find(id2), nullptr);
  EXPECT_EQ(s1.find(id1)->serialize(), s2.find(id2)->serialize());
}

}  // namespace
