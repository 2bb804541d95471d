// Unit tests for the baseline prefetchers: the staging buffer they share,
// FDP (paper §3.1), next-N-line (§2.1), the stream/discontinuity scheme,
// MANA (arXiv 2102.01764) and the program-map traversal scheme
// (arXiv 2406.06738), plus the NonePrefetcher contract and the
// prefetcher registry.
#include <gtest/gtest.h>

#include "frontend/fetch_queue.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "prefetch/fdp.hpp"
#include "prefetch/mana.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/prefetcher.hpp"
#include "prefetch/program_map.hpp"
#include "prefetch/registry.hpp"
#include "prefetch/staging_buffer.hpp"
#include "prefetch/stream.hpp"

namespace prestage::prefetch {
namespace {

struct FdpRig {
  frontend::FetchTargetQueue ftq{8, 64};
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  FdpPrefetcher fdp;

  explicit FdpRig(const FdpConfig& cfg = {}, bool with_l0 = false,
                  const StagingBufferConfig& buffer = {})
      : caches(make_caches(with_l0)),
        mem(make_mem()),
        fdp(cfg, ftq, caches, mem, buffer) {}

  static mem::IFetchCaches make_caches(bool l0) {
    mem::IFetchCachesConfig c;
    c.l1_size_bytes = 4096;
    c.l1_latency = 4;
    c.has_l0 = l0;
    return mem::IFetchCaches(c);
  }
  static mem::MemSystem make_mem() {
    mem::MemSystemConfig c;
    c.l2_latency = 10;
    c.mem_latency = 50;
    return mem::MemSystem(c);
  }

  void push_block(Addr start, std::uint32_t len = 8) {
    frontend::FetchBlock b;
    b.start = start;
    b.length = len;
    b.oracle_base_seq = 0;
    b.wrong_from = len;
    ftq.push_block(b);
  }

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      fdp.tick(t);
    }
  }
};

TEST(Fdp, PrefetchesFtqLinesIntoBuffer) {
  FdpRig rig;
  rig.mem.l2().insert(0x1000);  // L2-resident: fill at L2 latency
  rig.push_block(0x1000);
  rig.run_cycles(0, 20);
  EXPECT_TRUE(rig.fdp.probe(0x1000).present);
  EXPECT_EQ(rig.fdp.prefetches_issued.value(), 1u);
  EXPECT_EQ(rig.fdp.prefetch_sources().count(FetchSource::L2), 1u);
}

TEST(Fdp, EnqueueCacheProbeFilteringSkipsResidentLines) {
  // Paper §3.1: the configuration compared in the results uses Enqueue
  // Cache Probe Filtering against the I-cache tags.
  FdpRig rig;
  rig.caches.fill_demand(0x1000);
  rig.push_block(0x1000);
  rig.run_cycles(0, 20);
  EXPECT_FALSE(rig.fdp.probe(0x1000).present);
  EXPECT_EQ(rig.fdp.prefetches_issued.value(), 0u);
  EXPECT_EQ(rig.fdp.requests_filtered.value(), 1u);
}

TEST(Fdp, WithL0FiltersOnlyAgainstL0AndPrefetchesFromL1) {
  // Paper §3.1.1: with an L0, prefetches are served by the L1 so its
  // multi-cycle hit latency stops hurting the fetch stage.
  FdpConfig cfg;
  FdpRig rig(cfg, /*with_l0=*/true);
  rig.caches.l1().insert(0x1000);  // in L1 but not L0
  rig.push_block(0x1000);
  rig.run_cycles(0, 20);
  EXPECT_TRUE(rig.fdp.probe(0x1000).present);
  EXPECT_EQ(rig.fdp.prefetch_sources().count(FetchSource::L1), 1u);
}

TEST(Fdp, ConsumedLinePromotesAndFrees) {
  // Paper §3.1: "when a line from the prefetch buffer is used... it is
  // transferred to the I-cache and the entry is marked as available".
  FdpRig rig;
  rig.mem.l2().insert(0x1000);
  rig.push_block(0x1000);
  rig.run_cycles(0, 30);
  ASSERT_TRUE(rig.fdp.probe(0x1000).present);
  rig.fdp.on_fetch_from_pb(0x1000, 31);
  EXPECT_FALSE(rig.fdp.probe(0x1000).present);  // entry freed
  EXPECT_TRUE(rig.caches.probe_l1(0x1000));     // moved into L1
}

TEST(Fdp, PromotionTargetsL0WhenPresent) {
  FdpRig rig({}, /*with_l0=*/true);
  rig.mem.l2().insert(0x1000);
  rig.push_block(0x1000);
  rig.run_cycles(0, 30);
  rig.fdp.on_fetch_from_pb(0x1000, 31);
  EXPECT_TRUE(rig.caches.probe_l0(0x1000));
  EXPECT_FALSE(rig.caches.probe_l1(0x1000));  // not replicated into L1
}

TEST(Fdp, ConsumeWhileInFlightPromotesOnFill) {
  FdpRig rig;
  rig.mem.l2().insert(0x1000);
  rig.push_block(0x1000);
  rig.mem.tick(0);
  rig.fdp.tick(0);  // request in flight
  ASSERT_TRUE(rig.fdp.probe(0x1000).present);
  rig.fdp.on_fetch_from_pb(0x1000, 1);  // fetch wants it already
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.caches.probe_l1(0x1000));
  EXPECT_FALSE(rig.fdp.probe(0x1000).present);
}

TEST(Fdp, BufferFullStallsScan) {
  StagingBufferConfig buffer;
  buffer.entries = 2;
  FdpRig rig({}, /*with_l0=*/false, buffer);
  rig.push_block(0x1000);
  rig.push_block(0x2000);
  rig.push_block(0x3000);
  rig.run_cycles(0, 5);  // fills in flight: entries not reclaimable
  EXPECT_FALSE(rig.fdp.probe(0x3000).present);
  EXPECT_GT(rig.fdp.pb_occupancy_stalls.value(), 0u);
}

TEST(Fdp, LruFallbackReclaimsArrivedUnusedEntries) {
  // Wrong-path leftovers must not wedge the buffer (the deviation in the
  // staging_buffer.hpp header comment).
  StagingBufferConfig buffer;
  buffer.entries = 2;
  FdpRig rig({}, /*with_l0=*/false, buffer);
  rig.mem.l2().insert(0x1000);
  rig.mem.l2().insert(0x2000);
  rig.push_block(0x1000);
  rig.push_block(0x2000);
  rig.run_cycles(0, 30);  // both arrived, neither consumed
  rig.push_block(0x3000);
  rig.run_cycles(31, 99);
  EXPECT_TRUE(rig.fdp.probe(0x3000).present);  // reclaimed an LRU entry
}

TEST(Fdp, ScanCoversMultipleBlocksInOrder) {
  FdpRig rig;
  rig.push_block(0x1000, 32);  // 2 lines
  rig.push_block(0x4000, 8);   // 1 line
  rig.run_cycles(0, 40);
  EXPECT_TRUE(rig.fdp.probe(0x1000).present);
  EXPECT_TRUE(rig.fdp.probe(0x1040).present);
  EXPECT_TRUE(rig.fdp.probe(0x4000).present);
}

TEST(NonePrefetcher, NeverPresent) {
  NonePrefetcher none;
  EXPECT_FALSE(none.probe(0x1000).present);
  EXPECT_EQ(none.pb_port(), nullptr);
  EXPECT_EQ(none.prefetches(), 0u);
}

// --- staging buffer ---------------------------------------------------------

/// The smallest conventional-buffer scheme: it only names lines.
class LineStager final : public StagingBuffer {
 public:
  LineStager(const StagingBufferConfig& buffer, mem::IFetchCaches& caches,
             mem::MemSystem& mem)
      : StagingBuffer(buffer, caches, mem) {}

  using StagingBuffer::stage;
  void tick(Cycle) override {}
  void on_recovery(Cycle) override {}

  /// Hands @p line's entry to @p other with a fresh fill from below, as
  /// a reclaim-and-reallocate would.
  void reallocate(Addr line, Addr other, Cycle now) {
    fill_from_below(*find(line), other, now);
  }
};

struct StagerRig {
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  LineStager stager;

  explicit StagerRig(std::uint32_t entries)
      : caches(FdpRig::make_caches(false)),
        mem(FdpRig::make_mem()),
        stager({.entries = entries}, caches, mem) {}

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) mem.tick(t);
  }
};

TEST(StagingBuffer, StaleFillForAReallocatedEntryIsDropped) {
  StagerRig rig(1);
  rig.mem.l2().insert(0x1000);  // fast fill; 0x2000 comes from memory
  rig.mem.tick(0);
  rig.stager.stage(0x1000, 0);
  rig.mem.tick(1);
  rig.stager.reallocate(0x1000, 0x2000, 1);
  rig.run_cycles(2, 30);  // the stale 0x1000 fill has landed by now
  EXPECT_FALSE(rig.stager.probe(0x1000).present);
  ASSERT_TRUE(rig.stager.probe(0x2000).present);
  EXPECT_EQ(rig.stager.probe(0x2000).data_ready, kNoCycle)
      << "the stale fill must not mark the new line arrived";
  EXPECT_EQ(rig.stager.prefetch_sources().count(FetchSource::L2), 0u);

  rig.run_cycles(31, 200);
  EXPECT_NE(rig.stager.probe(0x2000).data_ready, kNoCycle);
  EXPECT_EQ(rig.stager.prefetch_sources().count(FetchSource::Memory), 1u);
}

TEST(StagingBuffer, InFlightEntriesAreNeverLruVictims) {
  StagerRig rig(2);
  rig.mem.tick(0);
  rig.stager.stage(0x1000, 0);
  rig.stager.stage(0x2000, 0);
  rig.mem.tick(1);
  rig.stager.stage(0x3000, 1);  // both entries in flight: dropped
  EXPECT_FALSE(rig.stager.probe(0x3000).present);
  EXPECT_TRUE(rig.stager.probe(0x1000).present);
  EXPECT_TRUE(rig.stager.probe(0x2000).present);
  EXPECT_EQ(rig.stager.prefetches(), 2u);

  rig.run_cycles(2, 200);  // both arrive, neither consumed
  rig.stager.stage(0x3000, 200);
  EXPECT_TRUE(rig.stager.probe(0x3000).present);
  EXPECT_FALSE(rig.stager.probe(0x1000).present) << "the LRU arrival goes";
  EXPECT_TRUE(rig.stager.probe(0x2000).present);
}

TEST(StagingBuffer, LineConsumedInFlightIsPromotedOnArrival) {
  StagerRig rig(2);
  rig.mem.l2().insert(0x1000);
  rig.mem.tick(0);
  rig.stager.stage(0x1000, 0);
  rig.stager.on_fetch_from_pb(0x1000, 1);
  EXPECT_TRUE(rig.stager.probe(0x1000).present) << "held until the fill";
  EXPECT_FALSE(rig.caches.probe_l1(0x1000));
  rig.run_cycles(1, 30);
  EXPECT_FALSE(rig.stager.probe(0x1000).present);
  EXPECT_TRUE(rig.caches.probe_l1(0x1000));
}

struct NlRig {
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  NextLinePrefetcher nl;

  explicit NlRig(const NextLineConfig& cfg = {})
      : caches(FdpRig::make_caches(false)),
        mem(FdpRig::make_mem()),
        nl(cfg, caches, mem) {}

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      nl.tick(t);
    }
  }
};

TEST(NextLine, PrefetchesSequentialSuccessors) {
  NextLineConfig cfg;
  cfg.degree = 2;
  NlRig rig(cfg);
  rig.mem.l2().insert(0x1040);
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.nl.on_line_request(0x1000, 0);
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.nl.probe(0x1040).present);
  EXPECT_TRUE(rig.nl.probe(0x1080).present);
  EXPECT_FALSE(rig.nl.probe(0x10C0).present);  // degree 2 only
}

TEST(NextLine, SkipsResidentLines) {
  NlRig rig;
  rig.caches.fill_demand(0x1040);
  rig.mem.tick(0);
  rig.nl.on_line_request(0x1000, 0);
  rig.run_cycles(1, 30);
  EXPECT_FALSE(rig.nl.probe(0x1040).present);  // already in L1
  EXPECT_TRUE(rig.nl.probe(0x1080).present);
}

TEST(NextLine, ConsumePromotesAndFrees) {
  NlRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.nl.on_line_request(0x1000, 0);
  rig.run_cycles(1, 30);
  rig.nl.on_fetch_from_pb(0x1040, 31);
  EXPECT_FALSE(rig.nl.probe(0x1040).present);
  EXPECT_TRUE(rig.caches.probe_l1(0x1040));
}

// --- stream/discontinuity prefetcher ---------------------------------------

struct StreamRig {
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  StreamPrefetcher stream;

  explicit StreamRig(const StreamConfig& cfg = {})
      : caches(FdpRig::make_caches(false)),
        mem(FdpRig::make_mem()),
        stream(cfg, caches, mem) {}

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      stream.tick(t);
    }
  }

  /// Feeds a consecutive run of @p lines starting at @p start.
  void request_run(Addr start, int lines, Cycle now) {
    for (int i = 0; i < lines; ++i) {
      stream.on_line_request(start + static_cast<Addr>(i) * 64, now);
    }
  }
};

TEST(Stream, RecordsARegionOnDiscontinuity) {
  StreamRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);        // 0x1000..0x1080 sequential
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 0u)
      << "region still open";
  rig.stream.on_line_request(0x8000, 0);  // discontinuity finalizes it
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 3u);
  EXPECT_EQ(rig.stream.regions_recorded.value(), 1u);
}

TEST(Stream, SingleLineRegionsAreNotRecorded) {
  StreamRig rig;
  rig.mem.tick(0);
  rig.stream.on_line_request(0x1000, 0);
  rig.stream.on_line_request(0x8000, 0);  // 1-line region: nothing to replay
  rig.stream.on_line_request(0x9000, 0);
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 0u);
  EXPECT_EQ(rig.stream.recorded_region_lines(0x8000), 0u);
}

TEST(Stream, ReplaysTheRegionOnTriggerReencounter) {
  StreamRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.stream.on_line_request(0x8000, 0);  // record {0x1000, 3 lines}
  EXPECT_EQ(rig.stream.prefetches_issued.value(), 0u)
      << "recording alone must not prefetch";

  rig.stream.on_line_request(0x1000, 1);  // trigger re-encountered
  EXPECT_EQ(rig.stream.region_replays.value(), 1u);
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.stream.probe(0x1040).present);
  EXPECT_TRUE(rig.stream.probe(0x1080).present);
  EXPECT_FALSE(rig.stream.probe(0x10C0).present) << "region is 3 lines";
  EXPECT_EQ(rig.stream.prefetches_issued.value(), 2u);
}

TEST(Stream, ReplayStagesL1ResidentLinesFromTheL1) {
  // Unlike next-line's cache-probe filter, a replayed line that sits in
  // the multi-cycle L1 is transferred into the one-cycle buffer (paper
  // §3.1.1/§3.2.3) rather than skipped.
  StreamRig rig;
  rig.caches.fill_demand(0x1040);  // L1-resident region line
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.stream.on_line_request(0x8000, 0);
  rig.stream.on_line_request(0x1000, 1);
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.stream.probe(0x1040).present);
  EXPECT_TRUE(rig.stream.probe(0x1080).present);
  EXPECT_EQ(rig.stream.prefetches_issued.value(), 2u);
  EXPECT_EQ(rig.stream.prefetch_sources().count(FetchSource::L1), 1u);
  EXPECT_EQ(rig.stream.prefetch_sources().count(FetchSource::L2), 1u);
}

TEST(Stream, ReplaySkipsOneCycleReachableLines) {
  // Lines already one cycle away (the L0 here, or the buffer itself)
  // are not re-staged.
  StreamConfig cfg;
  mem::IFetchCaches caches{FdpRig::make_caches(/*l0=*/true)};
  mem::MemSystem mem{FdpRig::make_mem()};
  StreamPrefetcher stream{cfg, caches, mem};
  caches.fill_promoted(0x1040);  // into the L0
  mem.tick(0);
  for (int i = 0; i < 3; ++i) stream.on_line_request(0x1000 + i * 64, 0);
  stream.on_line_request(0x8000, 0);
  stream.on_line_request(0x1000, 1);
  for (Cycle t = 1; t <= 30; ++t) {
    mem.tick(t);
    stream.tick(t);
  }
  EXPECT_FALSE(stream.probe(0x1040).present) << "L0-resident: skipped";
  EXPECT_TRUE(stream.probe(0x1080).present);
  EXPECT_EQ(stream.prefetch_sources().count(FetchSource::L0), 1u);
}

TEST(Stream, ConsumePromotesAndFrees) {
  StreamRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.tick(0);
  rig.request_run(0x1000, 2, 0);
  rig.stream.on_line_request(0x8000, 0);
  rig.stream.on_line_request(0x1000, 1);
  rig.run_cycles(1, 30);
  ASSERT_TRUE(rig.stream.probe(0x1040).present);
  rig.stream.on_fetch_from_pb(0x1040, 31);
  EXPECT_FALSE(rig.stream.probe(0x1040).present);
  EXPECT_TRUE(rig.caches.probe_l1(0x1040));
}

TEST(Stream, RecoveryAbandonsTheOpenRegionButKeepsTheTable) {
  StreamRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.stream.on_line_request(0x8000, 0);  // {0x1000, 3} recorded
  rig.request_run(0x2000, 3, 1);          // open wrong-path region
  rig.stream.on_recovery(2);
  rig.stream.on_line_request(0x9000, 3);  // would have finalized 0x2000
  EXPECT_EQ(rig.stream.recorded_region_lines(0x2000), 0u)
      << "recovery must drop the in-flight region";
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 3u)
      << "recorded regions survive recovery";
}

TEST(Stream, LongRunsChainAtTheRegionCap) {
  StreamConfig cfg;
  cfg.max_region_lines = 4;
  StreamRig rig(cfg);
  rig.mem.tick(0);
  rig.request_run(0x1000, 9, 0);  // 9 consecutive lines, cap 4
  // Cap chaining stores {0x1000,4} and {0x10C0,4}; the tail stays open.
  EXPECT_EQ(rig.stream.recorded_region_lines(0x1000), 4u);
  EXPECT_EQ(rig.stream.recorded_region_lines(0x10C0), 4u);
  EXPECT_EQ(rig.stream.regions_recorded.value(), 2u);
}

// --- MANA -------------------------------------------------------------------

struct ManaRig {
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  ManaPrefetcher mana;

  explicit ManaRig(const ManaConfig& cfg = {})
      : caches(FdpRig::make_caches(false)),
        mem(FdpRig::make_mem()),
        mana(cfg, caches, mem) {}

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      mana.tick(t);
    }
  }

  /// Feeds a consecutive run of @p lines starting at @p start.
  void request_run(Addr start, int lines, Cycle now) {
    for (int i = 0; i < lines; ++i) {
      mana.on_line_request(start + static_cast<Addr>(i) * 64, now);
    }
  }
};

TEST(Mana, RecordsARegionWithItsFootprintOnDiscontinuity) {
  ManaRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);  // trigger 0x1000, footprint +1,+2
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0u)
      << "region still open";
  rig.mana.on_line_request(0x8000, 0);  // discontinuity finalizes it
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0b11u);
  EXPECT_EQ(rig.mana.records_created.value(), 1u);
  EXPECT_EQ(rig.mana.prefetches_issued.value(), 0u)
      << "recording alone must not prefetch";
}

TEST(Mana, FootprintIsABitmapNotARunLength) {
  ManaRig rig;
  rig.mem.tick(0);
  rig.mana.on_line_request(0x1000, 0);
  rig.mana.on_line_request(0x1080, 0);  // +2 lines -> bit 1
  rig.mana.on_line_request(0x1100, 0);  // +4 lines -> bit 3
  rig.mana.on_line_request(0x8000, 0);  // finalize
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0b1010u)
      << "only the touched lines are in the footprint";
}

TEST(Mana, ReplaysTheFootprintOnTriggerReencounter) {
  ManaRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.l2().insert(0x1080);
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.mana.on_line_request(0x8000, 0);  // record {0x1000, footprint 0b11}

  rig.mana.on_line_request(0x1000, 1);  // trigger re-encountered
  EXPECT_EQ(rig.mana.record_replays.value(), 1u);
  rig.run_cycles(1, 30);
  EXPECT_TRUE(rig.mana.probe(0x1040).present);
  EXPECT_TRUE(rig.mana.probe(0x1080).present);
  EXPECT_FALSE(rig.mana.probe(0x10C0).present) << "footprint is 2 lines";
  EXPECT_EQ(rig.mana.prefetches_issued.value(), 2u);
}

TEST(Mana, ChainReplayRunsAheadAcrossDiscontinuities) {
  ManaRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);   // region A
  rig.request_run(0x8000, 2, 0);   // finalizes A, opens region B
  rig.mana.on_line_request(0x20000, 0);  // finalizes B, chains A -> B
  EXPECT_EQ(rig.mana.records_created.value(), 2u);

  rig.mana.on_line_request(0x1000, 1);
  EXPECT_EQ(rig.mana.record_replays.value(), 1u);
  EXPECT_EQ(rig.mana.chain_replays.value(), 1u)
      << "the successor record replays ahead of fetch";
  rig.run_cycles(1, 60);
  EXPECT_TRUE(rig.mana.probe(0x1040).present);
  EXPECT_TRUE(rig.mana.probe(0x1080).present);
  EXPECT_TRUE(rig.mana.probe(0x8000).present)
      << "the chained trigger itself is prestaged";
  EXPECT_TRUE(rig.mana.probe(0x8040).present);
  EXPECT_EQ(rig.mana.prefetches_issued.value(), 4u);
}

TEST(Mana, HobpEvictionInvalidatesDependentRecords) {
  ManaConfig cfg;
  cfg.hobpt_entries = 1;  // every new pattern evicts the previous one
  ManaRig rig(cfg);
  rig.mem.tick(0);
  rig.request_run(0x1000, 2, 0);
  rig.mana.on_line_request(0x100000, 0);  // record A (pattern of 0x1000)
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0b1u);
  rig.mana.on_line_request(0x100040, 0);
  rig.mana.on_line_request(0x200000, 0);  // record B evicts A's pattern
  EXPECT_EQ(rig.mana.hobp_invalidations.value(), 1u);
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0u)
      << "records lose their trigger with the evicted pattern";
  EXPECT_EQ(rig.mana.recorded_footprint(0x100000), 0b1u);
}

TEST(Mana, RecoveryAbandonsTheOpenRegionAndBreaksTheChain) {
  ManaRig rig;
  rig.mem.tick(0);
  rig.request_run(0x1000, 3, 0);
  rig.mana.on_line_request(0x8000, 0);  // {0x1000, 0b11} recorded
  rig.request_run(0x2000, 2, 1);        // open wrong-path region
  rig.mana.on_recovery(2);
  rig.request_run(0xA000, 2, 3);        // post-recovery region B
  rig.mana.on_line_request(0x20000, 4); // finalizes B, NOT chained to A
  EXPECT_EQ(rig.mana.recorded_footprint(0x2000), 0u)
      << "recovery must drop the in-flight region";
  EXPECT_EQ(rig.mana.recorded_footprint(0x1000), 0b11u)
      << "recorded regions survive recovery";
  EXPECT_EQ(rig.mana.recorded_footprint(0xA000), 0b1u);

  rig.mana.on_line_request(0x1000, 10);  // replay A: no successor
  EXPECT_EQ(rig.mana.record_replays.value(), 1u);
  EXPECT_EQ(rig.mana.chain_replays.value(), 0u)
      << "recovery breaks the successor chain at the squash point";
}

TEST(Mana, ConsumePromotesAndFrees) {
  ManaRig rig;
  rig.mem.l2().insert(0x1040);
  rig.mem.tick(0);
  rig.request_run(0x1000, 2, 0);
  rig.mana.on_line_request(0x8000, 0);
  rig.mana.on_line_request(0x1000, 1);
  rig.run_cycles(1, 30);
  ASSERT_TRUE(rig.mana.probe(0x1040).present);
  rig.mana.on_fetch_from_pb(0x1040, 31);
  EXPECT_FALSE(rig.mana.probe(0x1040).present);
  EXPECT_TRUE(rig.caches.probe_l1(0x1040));
}

// --- program-map traversal --------------------------------------------------

struct ProgramMapRig {
  frontend::FetchTargetQueue ftq{8, 64};
  mem::IFetchCaches caches;
  mem::MemSystem mem;
  ProgramMapPrefetcher pm;

  explicit ProgramMapRig(const ProgramMapConfig& cfg = {})
      : caches(FdpRig::make_caches(false)),
        mem(FdpRig::make_mem()),
        pm(cfg, ftq, caches, mem) {}

  /// An oracle-verified block, as a retired control-flow edge source.
  void push_block(Addr start, std::uint32_t len = 8) {
    frontend::FetchBlock b;
    b.start = start;
    b.length = len;
    b.oracle_base_seq = 0;
    b.wrong_from = len;
    ftq.push_block(b);
  }

  /// A block whose tail ran down the wrong path.
  void push_partial(Addr start, std::uint32_t len, std::uint32_t wrong_from) {
    frontend::FetchBlock b;
    b.start = start;
    b.length = len;
    b.oracle_base_seq = 0;
    b.wrong_from = wrong_from;
    ftq.push_block(b);
  }

  /// A block fetched entirely down the wrong path.
  void push_wrong(Addr start, std::uint32_t len = 8) {
    frontend::FetchBlock b;
    b.start = start;
    b.length = len;
    b.wrong_from = 0;  // oracle_base_seq stays kNoSeq: fully wrong
    ftq.push_block(b);
  }

  void run_cycles(Cycle from, Cycle to) {
    for (Cycle t = from; t <= to; ++t) {
      mem.tick(t);
      pm.tick(t);
    }
  }
};

TEST(ProgramMap, RecordsConsecutiveRetiredBlocksAsEdges) {
  ProgramMapRig rig;
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(0);
  rig.pm.tick(0);
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 1u);
  EXPECT_EQ(rig.pm.nodes_recorded.value(), 1u);
  EXPECT_EQ(rig.pm.prefetches_issued.value(), 0u)
      << "the frontier block is not mapped yet: nothing to traverse";
}

TEST(ProgramMap, WrongPathBlocksNeverEnterTheMap) {
  ProgramMapRig rig;
  rig.push_partial(0x1000, 8, 4);  // wrong-path suffix: not retired
  rig.push_block(0x8000);
  rig.push_wrong(0xF000);          // fully wrong successor
  rig.mem.tick(0);
  rig.pm.tick(0);
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 0u)
      << "a block with a wrong-path suffix must not be recorded";
  EXPECT_EQ(rig.pm.recorded_edges(0x8000), 0u)
      << "an edge into a fully wrong block must not be recorded";
  EXPECT_EQ(rig.pm.nodes_recorded.value(), 0u);
}

TEST(ProgramMap, TraversalPrestagesTheSuccessorChain) {
  ProgramMapRig rig;
  rig.push_block(0x1000, 8);
  rig.push_block(0x8000, 32);  // 128 bytes: spans 2 lines
  rig.push_block(0xA000, 8);
  rig.mem.tick(0);
  rig.pm.tick(0);  // records 0x1000 -> 0x8000 and 0x8000 -> 0xA000

  rig.push_block(0x1000, 8);  // frontier returns to the mapped node
  rig.run_cycles(1, 60);
  EXPECT_GE(rig.pm.traversals.value(), 1u);
  EXPECT_TRUE(rig.pm.probe(0x8000).present);
  EXPECT_TRUE(rig.pm.probe(0x8040).present)
      << "the successor block's whole span is prestaged";
  EXPECT_TRUE(rig.pm.probe(0xA000).present)
      << "the walk continues to the successor's successor";
}

TEST(ProgramMap, RepeatedEdgesStrengthenInsteadOfDuplicating) {
  ProgramMapRig rig;
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(0);
  rig.pm.tick(0);
  rig.ftq.flush();
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(1);
  rig.pm.tick(1);
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 1u) << "same edge, one slot";
  EXPECT_EQ(rig.pm.edges_strengthened.value(), 1u);
}

TEST(ProgramMap, TraversalFollowsTheHighestConfidenceEdge) {
  ProgramMapRig rig;
  const auto observe = [&rig](Addr from, Addr to, Cycle now) {
    rig.ftq.flush();
    rig.push_block(from);
    rig.push_block(to);
    rig.mem.tick(now);
    rig.pm.tick(now);
  };
  observe(0x1000, 0x8000, 0);  // A -> B, confidence 1
  observe(0x1000, 0x9000, 1);  // A -> C, confidence 1
  observe(0x1000, 0x8000, 2);  // A -> B, confidence 2
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 2u);

  rig.ftq.flush();
  rig.push_block(0x1000);  // frontier at the mapped node
  rig.run_cycles(3, 60);
  EXPECT_TRUE(rig.pm.probe(0x8000).present)
      << "the stronger successor is the one walked";
  EXPECT_FALSE(rig.pm.probe(0x9000).present);
  EXPECT_EQ(rig.pm.prefetches_issued.value(), 1u);
}

TEST(ProgramMap, BackwardEdgesAreClassified) {
  ProgramMapRig rig;
  rig.push_block(0x8000);
  rig.push_block(0x1000);  // return/loop: target below the source
  rig.mem.tick(0);
  rig.pm.tick(0);
  EXPECT_EQ(rig.pm.recorded_edges(0x8000), 1u);
  EXPECT_EQ(rig.pm.backward_edges.value(), 1u);
}

TEST(ProgramMap, RecoveryResetsTheFrontierButKeepsTheMap) {
  ProgramMapRig rig;
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(0);
  rig.pm.tick(0);
  rig.ftq.flush();  // the CPU flushes the FTQ on recovery
  rig.pm.on_recovery(1);
  EXPECT_EQ(rig.pm.recorded_edges(0x1000), 1u)
      << "the map records retired control flow and survives recovery";

  rig.push_block(0x1000);
  rig.run_cycles(1, 60);
  EXPECT_EQ(rig.pm.traversals.value(), 1u);
  EXPECT_TRUE(rig.pm.probe(0x8000).present);
}

TEST(ProgramMap, ConsumePromotesAndFrees) {
  ProgramMapRig rig;
  rig.mem.l2().insert(0x8000);  // the fill lands before fetch consumes it
  rig.push_block(0x1000);
  rig.push_block(0x8000);
  rig.mem.tick(0);
  rig.pm.tick(0);
  rig.push_block(0x1000);
  rig.run_cycles(1, 60);
  ASSERT_TRUE(rig.pm.probe(0x8000).present);
  rig.pm.on_fetch_from_pb(0x8000, 61);
  EXPECT_FALSE(rig.pm.probe(0x8000).present);
  EXPECT_TRUE(rig.caches.probe_l1(0x8000));
}

// --- registry ---------------------------------------------------------------

TEST(Registry, EveryBuiltinSchemeIsRegistered) {
  auto& registry = PrefetcherRegistry::instance();
  for (const char* name : {"base", "fdp", "clgp", "next-line", "stream",
                           "mana", "program-map"}) {
    const PrefetcherInfo* info = registry.find(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->label.empty());
    EXPECT_TRUE(static_cast<bool>(info->build));
  }
  EXPECT_EQ(registry.find("frobnicate"), nullptr);
}

TEST(Registry, BuildsEveryRegisteredSchemeFromAMachineConfig) {
  auto caches = FdpRig::make_caches(false);
  auto mem = FdpRig::make_mem();
  for (const std::string& name : PrefetcherRegistry::instance().names()) {
    cpu::MachineConfig cfg;
    cfg.prefetcher = name;
    const cpu::DerivedTimings timings = cpu::DerivedTimings::from(cfg);
    PrefetcherBuild b = build_prefetcher(
        {.config = cfg, .timings = timings, .caches = caches, .mem = mem});
    ASSERT_NE(b.queue, nullptr) << name;
    ASSERT_NE(b.prefetcher, nullptr) << name;
    // Contract smoke: a fresh prefetcher stages nothing and survives its
    // whole interface.
    EXPECT_FALSE(b.prefetcher->probe(0x1000).present) << name;
    b.prefetcher->tick(0);
    b.prefetcher->on_recovery(1);
    EXPECT_EQ(b.prefetcher->prefetches(), 0u) << name;
  }
}

TEST(Registry, UnknownNameThrowsNamingTheRegisteredSchemes) {
  auto caches = FdpRig::make_caches(false);
  auto mem = FdpRig::make_mem();
  cpu::MachineConfig cfg;
  cfg.prefetcher = "no-such-scheme";
  const cpu::DerivedTimings timings = cpu::DerivedTimings::from(cfg);
  try {
    (void)build_prefetcher(
        {.config = cfg, .timings = timings, .caches = caches, .mem = mem});
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scheme"), std::string::npos) << what;
    for (const char* name : {"base", "fdp", "clgp", "next-line", "stream",
                             "mana", "program-map"}) {
      EXPECT_NE(what.find(name), std::string::npos) << name;
    }
  }
}

TEST(Registry, OutOfTreeRegistrationIsOpen) {
  // The whole point of the registry: a scheme can be added without
  // touching the cpu/sim/cli layers. Register one and build it.
  auto& registry = PrefetcherRegistry::instance();
  if (registry.find("test-null") == nullptr) {
    registry.add({.name = "test-null",
                  .label = "TestNull",
                  .description = "test-only scheme",
                  .build = [](const BuildInputs& in) {
                    PrefetcherBuild b;
                    b.queue = std::make_unique<frontend::FetchTargetQueue>(
                        in.config.queue_blocks, in.config.line_bytes);
                    b.prefetcher = std::make_unique<NonePrefetcher>();
                    return b;
                  }});
  }
  auto caches = FdpRig::make_caches(false);
  auto mem = FdpRig::make_mem();
  cpu::MachineConfig cfg;
  cfg.prefetcher = "test-null";
  const cpu::DerivedTimings timings = cpu::DerivedTimings::from(cfg);
  PrefetcherBuild b = build_prefetcher(
      {.config = cfg, .timings = timings, .caches = caches, .mem = mem});
  EXPECT_NE(b.prefetcher, nullptr);
}

TEST(Registry, DuplicateRegistrationIsAHardError) {
  // Last-wins would let a typo'd registration silently shadow a real
  // scheme; a colliding name must fail loudly, naming the collision.
  auto& registry = PrefetcherRegistry::instance();
  const auto info = [] {
    PrefetcherInfo i;
    i.name = "dup-probe";
    i.label = "DupProbe";
    i.description = "duplicate-registration regression probe";
    i.build = [](const BuildInputs& in) {
      PrefetcherBuild b;
      b.queue = std::make_unique<frontend::FetchTargetQueue>(
          in.config.queue_blocks, in.config.line_bytes);
      b.prefetcher = std::make_unique<NonePrefetcher>();
      return b;
    };
    return i;
  }();
  if (registry.find("dup-probe") == nullptr) registry.add(info);
  try {
    registry.add(info);
    FAIL() << "expected SimError on duplicate registration";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("dup-probe"), std::string::npos)
        << e.what();
  }
  EXPECT_NE(registry.find("dup-probe"), nullptr)
      << "the original registration survives the rejected duplicate";
}

TEST(Registry, StorageBudgetsAreAccountedPerScheme) {
  // Every real prefetcher carries CACTI-backed storage accounting; the
  // no-prefetcher baseline is storage-free by definition.
  for (const char* name : {"fdp", "clgp", "next-line", "stream", "mana",
                           "program-map"}) {
    cpu::MachineConfig cfg;
    cfg.prefetcher = name;
    EXPECT_GT(probe_storage_bits(cfg), 0u) << name;
  }
  cpu::MachineConfig base;
  base.prefetcher = "base";
  EXPECT_EQ(probe_storage_bits(base), 0u);
}

}  // namespace
}  // namespace prestage::prefetch
