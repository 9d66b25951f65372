// Byte-level primitives for the chunked capture format.
//
// Current samples are IEEE-754 floats; consecutive samples differ mostly in
// low mantissa bits (signal plus calibration noise), so the 32-bit patterns
// of neighbours are numerically close. Encoding the delta of the bit
// patterns with zigzag + LEB128 varints is lossless and shrinks a typical
// 5 kHz browser capture to 2-3 bytes per sample.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace blab::store {

/// LEB128 varint append / bounded read. `get_varint` returns the position
/// after the value, or nullptr on truncated, overlong (non-canonical
/// trailing zero byte, >10 bytes) or overflowing (bits above 63) input.
/// Accepting exactly the encodings put_varint emits makes decode followed
/// by re-encode byte-identical — the codec fuzz harness relies on that.
void put_varint(std::string& out, std::uint64_t v);
const char* get_varint(const char* p, const char* end, std::uint64_t& v);

constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Fixed-width little-endian scalar append / bounded read (nullptr on short
/// input), used for header fields where varints buy nothing.
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f32(std::string& out, float v);
void put_f64(std::string& out, double v);
const char* get_u32(const char* p, const char* end, std::uint32_t& v);
const char* get_u64(const char* p, const char* end, std::uint64_t& v);
const char* get_f32(const char* p, const char* end, float& v);
const char* get_f64(const char* p, const char* end, double& v);

/// Encode `n` float samples: first bit pattern as a varint, then
/// delta(bit pattern) + zigzag + varint for the rest. Deterministic: the
/// same samples always produce the same bytes.
std::string encode_samples(const float* samples, std::size_t n);

/// Bytes a SampleEncoder may touch for `n` samples: at most 5 per sample,
/// plus 3 bytes of slack for the last varint's 8-byte store.
constexpr std::size_t encoded_samples_bound(std::size_t n) {
  return 5 * n + 3;
}

/// The encode_samples stream, written sample by sample into a caller
/// buffer of at least encoded_samples_bound(n) bytes. A 32-bit pattern and
/// the zigzagged delta of two of them are both below 2^35, so every varint
/// takes 1-5 bytes: its length comes from std::bit_width, its 7-bit groups
/// are spread with shifts and masks, and one 8-byte store writes it. The
/// bytes equal put_varint's; only the writing is branch-free.
class SampleEncoder {
 public:
  SampleEncoder(char* out, float first)
      : begin_{out}, p_{out}, prev_{std::bit_cast<std::uint32_t>(first)} {
    put(static_cast<std::uint64_t>(prev_));
  }

  void add(float sample) {
    const std::int64_t bits = std::bit_cast<std::uint32_t>(sample);
    put(zigzag_encode(bits - prev_));
    prev_ = bits;
  }

  std::size_t size() const { return static_cast<std::size_t>(p_ - begin_); }

 private:
  void put(std::uint64_t v) {
    const auto len = static_cast<std::size_t>(std::bit_width(v | 1) + 6) / 7;
    std::uint64_t word = (v & 0x7Fu) | ((v << 1) & 0x7F00u) |
                         ((v << 2) & 0x7F0000u) | ((v << 3) & 0x7F000000u) |
                         ((v << 4) & 0x7F00000000u);
    // Continuation bit on every byte but the last.
    word |= 0x80808080u & ((std::uint64_t{1} << (8 * (len - 1))) - 1);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p_, &word, 8);
    } else {
      for (int i = 0; i < 8; ++i) p_[i] = static_cast<char>(word >> (8 * i));
    }
    p_ += len;
  }

  char* begin_;
  char* p_;
  std::int64_t prev_;
};

/// Decode exactly `n` samples appended to `out`; false on malformed input
/// (truncated or trailing bytes, overlong varints, deltas leaving the
/// 32-bit range, or a count larger than the payload could possibly hold —
/// rejected before any allocation).
bool decode_samples(std::string_view bytes, std::size_t n,
                    std::vector<float>& out);

}  // namespace blab::store
