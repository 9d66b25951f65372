// Fuzz target: the store codec — LEB128 varint/zigzag/delta sample coding
// and the chunked-capture container with its footer parsing.
//
// Modes (first input byte):
//   0: arbitrary bytes through decode_samples; accepted payloads must
//      re-encode byte-identically (canonical varints make this total);
//   1: structured sample round-trip — arbitrary bit patterns encode to
//      the put_varint reference stream, decode bit-exactly, and decoding
//      with the wrong count must fail;
//   2: arbitrary bytes through ChunkedCapture::deserialize; accepted
//      captures must re-serialize byte-identically and answer every footer
//      query without crashing;
//   3: encode a valid capture, corrupt one byte, deserialize — must either
//      reject or stay internally consistent, never crash.
#include <cmath>
#include <cstring>
#include <vector>

#include "fuzz_input.hpp"
#include "store/chunked_capture.hpp"
#include "store/codec.hpp"
#include "util/time.hpp"

namespace {

void exercise_queries(const blab::store::ChunkedCapture& cc) {
  (void)cc.sum_ma();
  (void)cc.mean_ma();
  (void)cc.min_ma();
  (void)cc.max_ma();
  (void)cc.charge_mah();
  (void)cc.energy_mwh();
  (void)cc.byte_size();
  (void)cc.duration();
  (void)cc.coarsest_tier_with(1);
  for (std::size_t i = 0; i < cc.chunk_count(); ++i) {
    const auto& footer = cc.footer(i);
    FUZZ_ASSERT(std::isfinite(footer.sum_ma));
    (void)cc.decode_chunk(i);  // ok or typed error, never UB
  }
  (void)cc.decode();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  blab::fuzz::FuzzInput in{data, size};
  switch (in.u8() % 4) {
    case 0: {
      const std::size_t n = in.u16();
      const std::string bytes{in.rest()};
      std::vector<float> out;
      if (blab::store::decode_samples(bytes, n, out)) {
        FUZZ_ASSERT(out.size() == n);
        // Canonical varints: decode-ok implies re-encode is byte-identical.
        FUZZ_ASSERT(blab::store::encode_samples(out.data(), out.size()) ==
                    bytes);
      }
      break;
    }
    case 1: {
      const std::size_t n = in.u16() % 256;
      std::vector<float> samples;
      samples.reserve(n);
      for (std::size_t i = 0; i < n; ++i) samples.push_back(in.f32_bits());
      const std::string bytes =
          blab::store::encode_samples(samples.data(), samples.size());
      // The branch-free encoder must emit exactly the put_varint stream.
      std::string reference;
      std::int64_t prev = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &samples[i], sizeof bits);
        const std::int64_t cur = bits;
        blab::store::put_varint(
            reference, i == 0 ? static_cast<std::uint64_t>(cur)
                              : blab::store::zigzag_encode(cur - prev));
        prev = cur;
      }
      FUZZ_ASSERT(bytes == reference);
      std::vector<float> decoded;
      FUZZ_ASSERT(blab::store::decode_samples(bytes, n, decoded));
      FUZZ_ASSERT(decoded.size() == n);
      // Bit-exact, including NaN payloads and negative zero. (Empty vectors
      // have no storage to compare — memcmp's pointers must be non-null.)
      FUZZ_ASSERT(n == 0 || std::memcmp(decoded.data(), samples.data(),
                                        n * sizeof(float)) == 0);
      // The count is part of the contract: any other count must fail.
      std::vector<float> wrong;
      FUZZ_ASSERT(!blab::store::decode_samples(bytes, n + 1, wrong));
      if (n > 0) {
        wrong.clear();
        FUZZ_ASSERT(!blab::store::decode_samples(bytes, n - 1, wrong));
      }
      break;
    }
    case 2: {
      const std::string bytes{in.rest()};
      const auto result = blab::store::ChunkedCapture::deserialize(bytes);
      if (result.ok()) {
        FUZZ_ASSERT(result.value().serialize() == bytes);
        exercise_queries(result.value());
      }
      break;
    }
    case 3: {
      const std::size_t flip_pos = in.u16();
      const std::uint8_t flip_mask = in.u8() | 1;  // always change something
      const bool purge = in.u8() & 1;
      const std::size_t chunk_samples = 1 + in.u8() % 64;
      const std::size_t n = in.u16() % 512;
      std::vector<float> samples;
      samples.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        samples.push_back(static_cast<float>(in.u16()) / 7.0f);
      }
      const blab::hw::Capture capture{blab::util::TimePoint::epoch(), 5000.0,
                                      3.7, std::move(samples)};
      auto cc = blab::store::ChunkedCapture::encode(capture, chunk_samples);
      if (purge) cc.drop_raw();
      std::string bytes = cc.serialize();
      {
        // Sanity: the untampered image must round-trip.
        const auto clean = blab::store::ChunkedCapture::deserialize(bytes);
        FUZZ_ASSERT(clean.ok());
        FUZZ_ASSERT(clean.value().serialize() == bytes);
      }
      if (!bytes.empty()) {
        bytes[flip_pos % bytes.size()] ^= static_cast<char>(flip_mask);
        const auto tampered = blab::store::ChunkedCapture::deserialize(bytes);
        if (tampered.ok()) {
          // Corruption that still parses must stay internally consistent.
          FUZZ_ASSERT(tampered.value().serialize() == bytes);
          exercise_queries(tampered.value());
        }
      }
      break;
    }
  }
  return 0;
}
