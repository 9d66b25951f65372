// CRC32C (Castagnoli) over byte buffers.
//
// Every persisted frame — WAL records, segment indexes, manifests — carries a
// CRC32C so recovery can tell a torn or bit-flipped tail from committed data.
// Castagnoli rather than the zlib polynomial because its error-detection
// properties for short records are better studied (it is what LevelDB/RocksDB
// and iSCSI use), and because x86-64 computes it in hardware: on CPUs with
// SSE4.2 the `crc32` instruction folds 8 bytes per step, chosen once at first
// use from the CPU's feature bits. Every other CPU runs a slice-by-8 table
// loop. Both give the same value for every input.
#pragma once

#include <cstdint>
#include <string_view>

namespace blab::store::persist {

/// CRC32C of `data`, optionally chaining from a previous crc (pass the prior
/// return value to extend a running checksum). Deterministic, byte-order
/// independent of the host.
std::uint32_t crc32c(std::string_view data, std::uint32_t crc = 0);

namespace detail {
/// The portable slice-by-8 path `crc32c` falls back to, callable directly
/// so tests cover it on CPUs where the hardware path is chosen.
std::uint32_t crc32c_slice8(std::string_view data, std::uint32_t crc = 0);
}  // namespace detail

}  // namespace blab::store::persist
