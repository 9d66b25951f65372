#include "store/persist/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace blab::store::persist {
namespace {

// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
constexpr std::uint32_t kPoly = 0x82F63B78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: kTables[0] is the classic byte table; kTables[k][i]
/// is the crc of byte i followed by k zero bytes, so one 8-byte word folds
/// in with eight independent lookups.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian 8-byte load, whatever the host byte order.
std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::string_view data, std::uint32_t crc) {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) {
    c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*p));
  }
  return ~c32;
}
#endif

using Crc32cFn = std::uint32_t (*)(std::string_view, std::uint32_t);

Crc32cFn pick_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return detail::crc32c_slice8;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_slice8(std::string_view data, std::uint32_t crc) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t v = load_le64(p) ^ crc;
    crc = kTables[7][v & 0xFFu] ^ kTables[6][(v >> 8) & 0xFFu] ^
          kTables[5][(v >> 16) & 0xFFu] ^ kTables[4][(v >> 24) & 0xFFu] ^
          kTables[3][(v >> 32) & 0xFFu] ^ kTables[2][(v >> 40) & 0xFFu] ^
          kTables[1][(v >> 48) & 0xFFu] ^ kTables[0][v >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

}  // namespace detail

std::uint32_t crc32c(std::string_view data, std::uint32_t crc) {
  static const Crc32cFn impl = pick_crc32c();
  return impl(data, crc);
}

}  // namespace blab::store::persist
