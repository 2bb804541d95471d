// Unit tests for src/common: types, RNG, ring buffers, the inline
// callable, the open-addressing address map, stats, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/addr_map.hpp"
#include "common/inline_function.hpp"
#include "common/prestage_assert.hpp"
#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace prestage {
namespace {

TEST(Types, LineAlign) {
  EXPECT_EQ(line_align(0x1000, 64), 0x1000u);
  EXPECT_EQ(line_align(0x103F, 64), 0x1000u);
  EXPECT_EQ(line_align(0x1040, 64), 0x1040u);
  EXPECT_EQ(line_align(127, 128), 0u);
}

TEST(Types, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(4097));
}

TEST(Types, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(2), 1u);
  EXPECT_EQ(log2_exact(1024), 10u);
}

TEST(Types, ControlClassification) {
  EXPECT_TRUE(is_control(OpClass::Branch));
  EXPECT_TRUE(is_control(OpClass::Jump));
  EXPECT_TRUE(is_control(OpClass::Call));
  EXPECT_TRUE(is_control(OpClass::Return));
  EXPECT_FALSE(is_control(OpClass::IntAlu));
  EXPECT_FALSE(is_control(OpClass::Load));
  EXPECT_FALSE(is_control(OpClass::Store));
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusive) {
  Rng r(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.between(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(17);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, HashMixIsStable) {
  EXPECT_EQ(hash_mix(0x1234), hash_mix(0x1234));
  EXPECT_NE(hash_mix(1), hash_mix(2));
}

TEST(RingBuffer, PushPopFifo) {
  RingBuffer<int> q(4);
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  q.push(4);
  q.push(5);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.pop(), 5);
  EXPECT_TRUE(q.empty());
}

TEST(RingBuffer, CapacityEnforced) {
  RingBuffer<int> q(2);
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.full());
  EXPECT_THROW(q.push(3), SimError);
  EXPECT_THROW(RingBuffer<int>(0), SimError);
}

TEST(RingBuffer, PopEmptyThrows) {
  RingBuffer<int> q(2);
  EXPECT_THROW(q.pop(), SimError);
  EXPECT_THROW((void)q.front(), SimError);
}

TEST(RingBuffer, IndexingWrapsCorrectly) {
  RingBuffer<int> q(3);
  q.push(10);
  q.push(20);
  q.pop();
  q.push(30);
  q.push(40);  // wraps internally
  EXPECT_EQ(q.at(0), 20);
  EXPECT_EQ(q.at(1), 30);
  EXPECT_EQ(q.at(2), 40);
  EXPECT_EQ(q.back(), 40);
  EXPECT_THROW((void)q.at(3), SimError);
}

TEST(RingBuffer, ClearAndPopBackN) {
  RingBuffer<int> q(4);
  for (int i = 0; i < 4; ++i) q.push(i);
  q.pop_back_n(2);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.back(), 1);
  q.clear();
  EXPECT_TRUE(q.empty());
}

// Capacity is rounded up to a power of two internally (mask wraps), but
// capacity()/full() must still enforce the requested hardware bound.
TEST(RingBuffer, NonPow2CapacityStillBounds) {
  RingBuffer<int> q(5);
  EXPECT_EQ(q.capacity(), 5u);
  for (int i = 0; i < 5; ++i) q.push(i);
  EXPECT_TRUE(q.full());
  EXPECT_THROW(q.push(99), SimError);
  // FIFO order survives many wraps of the (8-slot) backing store.
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(q.pop(), i);
    q.push(i + 5);
  }
  EXPECT_EQ(q.front(), 40);
  EXPECT_EQ(q.back(), 44);
}

TEST(GrowableRingBuffer, GrowsAcrossWrapPreservingFifo) {
  GrowableRingBuffer<int> q(2);
  std::deque<int> ref;
  Rng rng(9);
  for (int step = 0; step < 2000; ++step) {
    if (!ref.empty() && rng.chance(0.4)) {
      EXPECT_EQ(q[0], ref.front());
      q.pop_front();
      ref.pop_front();
    } else {
      q.push_back(step);
      ref.push_back(step);
    }
    ASSERT_EQ(q.size(), ref.size());
    if (!ref.empty()) {
      EXPECT_EQ(q[ref.size() - 1], ref.back());
    }
  }
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(q[i], ref[i]);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop_front(), SimError);
}

TEST(RingBuffer, EmplaceBuildsInPlaceAndPopBackNDropsTheNewest) {
  struct Rec {
    int a = 0;
    int b = 7;
  };
  RingBuffer<Rec> q(3);
  Rec& first = q.emplace(1, 10);
  EXPECT_EQ(&first, &q.front());
  Rec& second = q.emplace(2, 20);
  EXPECT_EQ(&second, &q.back());
  q.pop_back_n(1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.back().a, 1);
  // The slot pop_back_n freed comes back from the next emplace, rebuilt:
  // members not passed take their defaults, not the old occupant's.
  Rec& again = q.emplace(3);
  EXPECT_EQ(&again, &second);
  EXPECT_EQ(again.a, 3);
  EXPECT_EQ(again.b, 7);
  EXPECT_EQ(q.emplace().a, 0);
  EXPECT_TRUE(q.full());
  EXPECT_THROW((void)q.emplace(), SimError);
  EXPECT_EQ(q.pop().a, 1);
  EXPECT_EQ(q.pop().a, 3);
  q.pop_back_n(1);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop_back_n(1), SimError);
  // In-place appends wrap the (4-slot) backing store like push().
  for (int i = 0; i < 10; ++i) {
    q.emplace(i);
    EXPECT_EQ(q.pop().a, i);
  }
}

TEST(GrowableRingBuffer, AppendNMatchesOneByOnePushBack) {
  // Two rings take the same random traffic, one through push_back and
  // one through append_n batches; the batches cross the wrap seam and
  // trigger growth, and both rings must hold the same contents.
  GrowableRingBuffer<int> batched(4);
  GrowableRingBuffer<int> single(4);
  Rng rng(21);
  int next = 0;
  std::size_t split_batches = 0;
  std::size_t high_water = 0;
  for (int step = 0; step < 3000; ++step) {
    if (batched.size() > 0 && rng.chance(0.5)) {
      const auto k = 1 + rng.below(batched.size());
      for (std::uint64_t i = 0; i < k; ++i) {
        batched.pop_front();
        single.pop_front();
      }
    } else {
      const auto n = static_cast<std::size_t>(1 + rng.below(24));
      std::size_t calls = 0;
      std::size_t written = 0;
      const int start = next;
      batched.append_n(n, [&](int* out, std::size_t count) {
        ++calls;
        for (std::size_t i = 0; i < count; ++i) {
          out[i] = start + static_cast<int>(written + i);
        }
        written += count;
      });
      EXPECT_EQ(written, n);
      if (calls == 2) ++split_batches;
      for (std::size_t i = 0; i < n; ++i) single.push_back(next++);
      high_water = std::max(high_water, batched.size());
    }
    ASSERT_EQ(batched.size(), single.size());
    for (std::size_t i = 0; i < single.size(); ++i) {
      ASSERT_EQ(batched[i], single[i]) << "step " << step << " index " << i;
    }
  }
  EXPECT_GT(split_batches, 0u) << "no batch crossed the wrap seam";
  EXPECT_GT(high_water, 16u) << "the ring never had to grow";
}

TEST(InlineFunction, InvokesAndMoves) {
  int calls = 0;
  InlineFunction<int(int), 48> add = [&calls](int x) {
    ++calls;
    return x + 1;
  };
  EXPECT_TRUE(static_cast<bool>(add));
  EXPECT_EQ(add(41), 42);

  InlineFunction<int(int), 48> moved = std::move(add);
  EXPECT_FALSE(static_cast<bool>(add));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved(1), 2);
  EXPECT_EQ(calls, 2);

  moved.reset();
  EXPECT_FALSE(static_cast<bool>(moved));
  EXPECT_THROW(moved(0), SimError);
}

TEST(InlineFunction, MoveOnlyCapturesAreDestroyed) {
  auto counter = std::make_shared<int>(7);
  std::weak_ptr<int> watch = counter;
  {
    InlineFunction<int(), 48> fn = [held = std::move(counter)]() {
      return *held;
    };
    EXPECT_EQ(fn(), 7);
    InlineFunction<int(), 48> other = std::move(fn);
    EXPECT_EQ(other(), 7);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());  // destructor ran through the vtable
}

TEST(AddrMap, InsertFindErase) {
  AddrMap map;
  EXPECT_TRUE(map.empty());
  map.insert(0x1000, 1);
  map.insert(0x2000, 2);
  ASSERT_NE(map.find(0x1000), nullptr);
  EXPECT_EQ(*map.find(0x1000), 1u);
  EXPECT_EQ(map.find(0x3000), nullptr);
  map.erase(0x1000);
  EXPECT_EQ(map.find(0x1000), nullptr);
  EXPECT_EQ(*map.find(0x2000), 2u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_THROW(map.erase(0x9000), SimError);  // absent key: loud, no hang
}

// Randomized equivalence against std::unordered_map, heavy on erases so
// the backward-shift deletion path is exercised across growth.
TEST(AddrMap, MatchesUnorderedMapUnderChurn) {
  AddrMap map(4);
  std::unordered_map<Addr, std::uint32_t> ref;
  Rng rng(17);
  for (int step = 0; step < 20000; ++step) {
    const Addr key = (rng.below(512) + 1) * 64;  // clustered: collisions
    if (ref.count(key) == 0 && rng.chance(0.6)) {
      const auto value = static_cast<std::uint32_t>(rng.below(1 << 20U));
      map.insert(key, value);
      ref.emplace(key, value);
    } else if (ref.count(key) > 0) {
      if (rng.chance(0.5)) {
        map.erase(key);
        ref.erase(key);
      } else {
        ASSERT_NE(map.find(key), nullptr);
        EXPECT_EQ(*map.find(key), ref.at(key));
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  for (const auto& [key, value] : ref) {
    ASSERT_NE(map.find(key), nullptr) << std::hex << key;
    EXPECT_EQ(*map.find(key), value);
  }
}

TEST(Stats, CounterAccumulates) {
  Counter c;
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, RatioHandlesZeroDenominator) {
  EXPECT_DOUBLE_EQ(ratio(3, 0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
}

TEST(Stats, DistributionTracksMoments) {
  Distribution d;
  d.sample(2.0);
  d.sample(4.0);
  d.sample(6.0);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_DOUBLE_EQ(d.min(), 2.0);
  EXPECT_DOUBLE_EQ(d.max(), 6.0);
}

TEST(Stats, SourceBreakdownFractionsSumToOne) {
  SourceBreakdown sb;
  sb.add(FetchSource::PreBuffer, 80);
  sb.add(FetchSource::L1, 15);
  sb.add(FetchSource::L2, 5);
  double total = 0;
  for (int s = 0; s < kNumFetchSources; ++s) {
    total += sb.fraction(static_cast<FetchSource>(s));
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(sb.fraction(FetchSource::PreBuffer), 0.8);
}

TEST(Stats, HarmonicMean) {
  EXPECT_NEAR(harmonic_mean({1.0, 1.0}), 1.0, 1e-12);
  EXPECT_NEAR(harmonic_mean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  // HMEAN is dominated by the smallest sample.
  EXPECT_NEAR(harmonic_mean({1.0, 100.0}), 2.0 / (1.0 + 0.01), 1e-9);
  EXPECT_DOUBLE_EQ(harmonic_mean({}), 0.0);
}

TEST(Stats, HarmonicMeanSkipsNonPositiveSamples) {
  // Regression: a single zero-IPC run (wedged benchmark) used to abort
  // the whole suite aggregate. Non-positive samples are now skipped and
  // the mean is over the remaining positive ones.
  EXPECT_NEAR(harmonic_mean({1.0, 0.0}), 1.0, 1e-12);
  EXPECT_NEAR(harmonic_mean({2.0, -3.0, 2.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(harmonic_mean({0.0}), 0.0);
  EXPECT_DOUBLE_EQ(harmonic_mean({-1.0, 0.0}), 0.0);
}

TEST(Table, RendersAlignedText) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), SimError);
}

TEST(Table, Formatting) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.1234, 1), "12.3%");
  EXPECT_EQ(fmt_bytes(256), "256B");
  EXPECT_EQ(fmt_bytes(4096), "4KB");
  EXPECT_EQ(fmt_bytes(1ULL << 20U), "1MB");
}

TEST(Assert, ThrowsWithMessage) {
  try {
    PRESTAGE_ASSERT(false, "context message");
    FAIL() << "should have thrown";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("context message"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace prestage
