#include "util/hash.h"

#include <array>

namespace contra::util {

namespace {
std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}
const std::array<uint32_t, 256>& crc_table() {
  static const auto table = make_crc_table();
  return table;
}
}  // namespace

uint32_t crc32(std::span<const uint8_t> data, uint32_t seed) {
  const std::array<uint32_t, 256>& table = crc_table();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (uint8_t byte : data) c = table[(c ^ byte) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint32_t crc32(std::string_view data, uint32_t seed) {
  return crc32(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(data.data()), data.size()),
               seed);
}

uint32_t hash_five_tuple(const FiveTuple& t, uint32_t seed) {
  std::array<uint8_t, 13> bytes{};
  auto put32 = [&](size_t at, uint32_t v) {
    bytes[at] = static_cast<uint8_t>(v >> 24);
    bytes[at + 1] = static_cast<uint8_t>(v >> 16);
    bytes[at + 2] = static_cast<uint8_t>(v >> 8);
    bytes[at + 3] = static_cast<uint8_t>(v);
  };
  put32(0, t.src_ip);
  put32(4, t.dst_ip);
  bytes[8] = static_cast<uint8_t>(t.src_port >> 8);
  bytes[9] = static_cast<uint8_t>(t.src_port);
  bytes[10] = static_cast<uint8_t>(t.dst_port >> 8);
  bytes[11] = static_cast<uint8_t>(t.dst_port);
  bytes[12] = t.protocol;
  return crc32(std::span<const uint8_t>(bytes), seed);
}

}  // namespace contra::util
