// Hash functions mirroring what the generated P4 programs use in hardware:
// CRC32 for flowlet IDs and the loop-detection packet signature (§5.3/§5.5).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace contra::util {

/// CRC-32 (IEEE 802.3 polynomial, reflected), the hash exposed by switch
/// ASIC hash engines. Deterministic across runs.
uint32_t crc32(std::span<const uint8_t> data, uint32_t seed = 0);
uint32_t crc32(std::string_view data, uint32_t seed = 0);

/// Five-tuple used for flowlet identification.
struct FiveTuple {
  uint32_t src_ip = 0;
  uint32_t dst_ip = 0;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint8_t protocol = 0;

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;
};

/// Hash of the five tuple — the flowlet ID key (fid) in the paper's tables.
uint32_t hash_five_tuple(const FiveTuple& t, uint32_t seed = 0);

/// 64-bit mix (splitmix64) for hash-map keys built from small integers.
inline uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine two hashes (boost-style).
inline uint64_t hash_combine(uint64_t a, uint64_t b) {
  return a ^ (mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace contra::util
