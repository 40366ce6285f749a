// Unit tests for the util module: fixed point, hashing, rng, strings, and
// the flat open-addressing table.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "util/alloc_probe.h"
#include "util/fixed_point.h"
#include "util/flat_map.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/strings.h"

namespace contra::util {
namespace {

TEST(FixedPoint, RoundTripsIntegers) {
  for (int64_t v : {-100, -1, 0, 1, 7, 65535, 1 << 20}) {
    EXPECT_EQ(Fixed::from_int(v).to_int(), v) << v;
  }
}

TEST(FixedPoint, RoundTripsFractions) {
  EXPECT_NEAR(Fixed::from_double(0.5).to_double(), 0.5, 1e-4);
  EXPECT_NEAR(Fixed::from_double(0.8).to_double(), 0.8, 1e-4);
  EXPECT_NEAR(Fixed::from_double(-3.25).to_double(), -3.25, 1e-4);
  EXPECT_NEAR(Fixed::from_double(123.456).to_double(), 123.456, 1e-4);
}

TEST(FixedPoint, ComparesTotally) {
  EXPECT_LT(Fixed::from_double(0.1), Fixed::from_double(0.2));
  EXPECT_GT(Fixed::from_double(1.0), Fixed::from_double(0.999));
  EXPECT_EQ(Fixed::from_double(0.5), Fixed::from_double(0.5));
  EXPECT_LT(Fixed::from_int(-1), Fixed::from_int(0));
}

TEST(FixedPoint, SaturatingAddClampsAtMax) {
  const Fixed big = Fixed::max();
  EXPECT_EQ(big.saturating_add(big), Fixed::max());
  EXPECT_EQ(big.saturating_add(Fixed::from_int(1)), Fixed::max());
}

TEST(FixedPoint, SaturatingSubClampsAtMin) {
  const Fixed lo = Fixed::from_raw(-Fixed::max().raw());
  EXPECT_EQ(lo.saturating_sub(Fixed::max()), lo);
}

TEST(FixedPoint, AdditionIsExactForRepresentable) {
  const Fixed a = Fixed::from_double(0.25);
  const Fixed b = Fixed::from_double(0.125);
  EXPECT_DOUBLE_EQ(a.saturating_add(b).to_double(), 0.375);
}

TEST(FixedPoint, MulMatchesDoubleWithinTolerance) {
  const Fixed a = Fixed::from_double(1.5);
  const Fixed b = Fixed::from_double(0.4);
  EXPECT_NEAR(a.mul(b).to_double(), 0.6, 1e-3);
}

TEST(FixedPoint, NanBecomesZero) {
  EXPECT_EQ(Fixed::from_double(std::nan("")).raw(), 0);
}

TEST(Crc32, MatchesKnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3).
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(std::string_view("")), 0u); }

TEST(Crc32, SeedChangesResult) {
  EXPECT_NE(crc32(std::string_view("abc"), 0), crc32(std::string_view("abc"), 1));
}

TEST(FiveTupleHash, Deterministic) {
  const FiveTuple t{0x0a000001, 0x0a000002, 1234, 80, 6};
  EXPECT_EQ(hash_five_tuple(t), hash_five_tuple(t));
}

TEST(FiveTupleHash, SensitiveToEveryField) {
  const FiveTuple base{0x0a000001, 0x0a000002, 1234, 80, 6};
  FiveTuple t = base;
  t.src_ip ^= 1;
  EXPECT_NE(hash_five_tuple(base), hash_five_tuple(t));
  t = base;
  t.dst_ip ^= 1;
  EXPECT_NE(hash_five_tuple(base), hash_five_tuple(t));
  t = base;
  t.src_port ^= 1;
  EXPECT_NE(hash_five_tuple(base), hash_five_tuple(t));
  t = base;
  t.dst_port ^= 1;
  EXPECT_NE(hash_five_tuple(base), hash_five_tuple(t));
  t = base;
  t.protocol ^= 1;
  EXPECT_NE(hash_five_tuple(base), hash_five_tuple(t));
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(2);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 0.01, 0.001);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  const auto parts = split_whitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

// ----- FlatMap / FlatSet ------------------------------------------------

// Every key of a 64-key space lands on one of four homes next to the end of
// the slot array, so probe runs are long, overlap, and wrap past the last
// slot back to slot 0.
struct CollidingHash {
  size_t operator()(uint64_t k) const { return ~size_t{0} - (k % 4); }
};

// Replays one random operation sequence on a FlatMap and a std::unordered_map
// and requires the same answer to every call. Keys come from a space small
// enough that inserts hit present keys and erases hit live ones often.
template <typename Hash>
void run_differential(uint64_t seed, uint64_t key_space, int ops) {
  Rng rng(seed);
  FlatMap<uint64_t, uint32_t, Hash> flat(/*min_slots=*/4);
  FlatSet<uint64_t, Hash> set(/*min_slots=*/4);
  std::unordered_map<uint64_t, uint32_t> ref;
  size_t grown = 0;
  for (int op = 0; op < ops; ++op) {
    const uint64_t key = static_cast<uint64_t>(rng.uniform_int(0, int64_t(key_space) - 1));
    const int64_t kind = rng.uniform_int(0, 99);
    const size_t capacity = flat.capacity();
    if (kind < 45) {  // insert if absent
      const uint32_t value = static_cast<uint32_t>(op);
      const auto [stored, inserted] = flat.try_emplace(key, value);
      const auto [it, ref_inserted] = ref.try_emplace(key, value);
      ASSERT_EQ(inserted, ref_inserted) << "op " << op;
      ASSERT_EQ(*stored, it->second) << "op " << op;
      ASSERT_EQ(set.insert(key), ref_inserted) << "op " << op;
    } else if (kind < 55) {  // insert or overwrite
      flat[key] = static_cast<uint32_t>(op);
      ref[key] = static_cast<uint32_t>(op);
      set.insert(key);
    } else if (kind < 90) {  // erase
      const bool erased = ref.erase(key) == 1;
      ASSERT_EQ(flat.erase(key), erased) << "op " << op;
      ASSERT_EQ(set.erase(key), erased) << "op " << op;
    } else if (kind < 99) {  // lookup
      const uint32_t* found = flat.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "op " << op;
      }
    } else {  // window reset
      flat.clear();
      set.clear();
      ref.clear();
      ASSERT_EQ(flat.capacity(), capacity) << "clear must keep storage";
    }
    if (flat.capacity() > capacity) ++grown;
    ASSERT_EQ(flat.size(), ref.size()) << "op " << op;
    ASSERT_EQ(set.size(), ref.size()) << "op " << op;
    ASSERT_LE(flat.size() * 4, flat.capacity() * 3) << "load above 3/4";
    // Periodically sweep the whole key space: every live key is found with
    // its value, every other key is absent.
    if (op % 97 == 0) {
      for (uint64_t k = 0; k < key_space; ++k) {
        const uint32_t* found = flat.find(k);
        const auto it = ref.find(k);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op << " key " << k;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "op " << op << " key " << k;
        }
        ASSERT_EQ(set.contains(k), it != ref.end()) << "op " << op << " key " << k;
      }
    }
  }
  EXPECT_GE(grown, 3u) << "the run must cross the load-factor boundary repeatedly";
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    run_differential<MixHash>(seed, /*key_space=*/512, /*ops=*/20000);
  }
}

TEST(FlatMap, MatchesUnorderedMapWithForcedCollisions) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    run_differential<CollidingHash>(seed, /*key_space=*/64, /*ops=*/20000);
  }
}

TEST(FlatMap, EraseFromTheMiddleOfAWrappingProbeRun) {
  // Sixteen keys on four neighbouring homes at the end of 32 slots form one
  // run that wraps to slot 0. Erasing from its middle must keep every other
  // key reachable with its value.
  FlatMap<uint64_t, uint64_t, CollidingHash> map(/*min_slots=*/32);
  std::vector<uint64_t> live;
  for (uint64_t k = 0; k < 16; ++k) {
    map.try_emplace(k, k * 10);
    live.push_back(k);
  }
  ASSERT_EQ(map.capacity(), 32u);
  for (uint64_t gone : {5u, 0u, 12u, 3u, 9u}) {
    ASSERT_TRUE(map.erase(gone));
    ASSERT_FALSE(map.erase(gone));
    live.erase(std::find(live.begin(), live.end(), gone));
    for (uint64_t k = 0; k < 16; ++k) {
      const bool alive = std::find(live.begin(), live.end(), k) != live.end();
      const uint64_t* v = map.find(k);
      ASSERT_EQ(v != nullptr, alive) << "key " << k << " after erasing " << gone;
      if (alive) {
        EXPECT_EQ(*v, k * 10);
      }
    }
  }
  EXPECT_EQ(map.size(), live.size());
}

TEST(FlatMap, ClearIsAnO1WindowResetThatNeverResurrects) {
  FlatMap<uint64_t, uint8_t> map(/*min_slots=*/16);
  for (uint64_t k = 0; k < 100; ++k) map.try_emplace(k, 1);
  const size_t capacity = map.capacity();
  // A warm table refills to the same size after a reset without allocating.
  const uint64_t allocs_before = alloc_count();
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_EQ(map.find(k), nullptr);
  for (uint64_t k = 1000; k < 1100; ++k) EXPECT_TRUE(map.try_emplace(k, 2).second);
  EXPECT_EQ(alloc_count(), allocs_before);
  EXPECT_EQ(map.capacity(), capacity);
  // Through the 16-bit epoch's wraps: when the epoch comes round to the
  // stamp a key was written with, the key must still read as absent.
  for (int round = 0; round < 3; ++round) {
    map.clear();
    for (uint64_t k = 0; k < 100; ++k) map.try_emplace(k, 1);
    for (uint32_t i = 0; i < 65536; ++i) {
      map.clear();
      map.try_emplace(500, 0);  // a non-empty table, so find() probes
      ASSERT_EQ(map.find(i % 100), nullptr) << "round " << round << ", clear " << i;
    }
  }
  EXPECT_EQ(map.capacity(), capacity);
}

TEST(FlatMap, ReleaseAndMoveLeaveAnEmptyUsableTable) {
  FlatSet<uint64_t> set;
  EXPECT_EQ(set.capacity(), 0u);  // nothing allocated before the first insert
  for (uint64_t k = 0; k < 40; ++k) set.insert(k);
  EXPECT_GE(set.capacity(), 64u);
  set.release();
  EXPECT_EQ(set.capacity(), 0u);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(3));
  EXPECT_TRUE(set.insert(3));
  EXPECT_TRUE(set.contains(3));
  EXPECT_EQ(set.capacity(), 16u);
  // A moved-from table is empty, holds no storage, and takes new keys.
  FlatSet<uint64_t> moved = std::move(set);
  EXPECT_TRUE(moved.contains(3));
  EXPECT_EQ(set.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(set.capacity(), 0u);
  EXPECT_FALSE(set.contains(3));
  EXPECT_TRUE(set.insert(4));
  EXPECT_TRUE(set.contains(4));
}

}  // namespace
}  // namespace contra::util
