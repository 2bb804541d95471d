// Integration tests: the whole machine, end to end.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/backend.hpp"
#include "cpu/cpu.hpp"
#include "cpu/oracle.hpp"
#include "mem/memsys.hpp"
#include "sim/presets.hpp"
#include "workload/program.hpp"
#include "workload/synthetic_spec.hpp"
#include "workload/trace.hpp"

namespace prestage::cpu {
namespace {

MachineConfig tiny(const std::string& bench, const std::string& kind,
                   std::uint64_t instrs = 15000) {
  MachineConfig cfg;
  cfg.benchmark = bench;
  cfg.prefetcher = kind;
  cfg.max_instructions = instrs;
  cfg.l1i_size = 4096;
  return cfg;
}

class EveryBenchmark : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryBenchmark, RunsToCompletionWithSaneIpc) {
  Cpu cpu(tiny(GetParam(), "clgp"));
  const RunResult r = cpu.run();
  // The run stops at the first commit group crossing the target, so it
  // may overshoot by at most commit width - 1.
  EXPECT_GE(r.instructions, 15000u);
  EXPECT_LT(r.instructions, 15004u);
  EXPECT_GT(r.ipc, 0.05);
  EXPECT_LE(r.ipc, 4.0);  // machine width bound
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EveryBenchmark,
                         ::testing::Values("gzip", "vpr", "gcc", "mcf",
                                           "crafty", "parser", "eon",
                                           "perlbmk", "gap", "vortex",
                                           "bzip2", "twolf"));

TEST(Machine, BorrowsTheProgramOfAGivenSpec) {
  MachineConfig cfg = tiny("gcc", "clgp", 3000);
  const auto spec =
      std::make_shared<const workload::SyntheticWorkloadSpec>("gcc", 1);
  cfg.workload = spec;
  Cpu machine(cfg);
  EXPECT_EQ(&machine.program(), &spec->program());
  // Borrowing changes nothing simulated: a Cpu that builds its own
  // program for the same (benchmark, seed) runs identically.
  const RunResult borrowed = machine.run();
  const RunResult own = Cpu(tiny("gcc", "clgp", 3000)).run();
  EXPECT_EQ(borrowed.cycles, own.cycles);
  EXPECT_EQ(borrowed.instructions, own.instructions);
  EXPECT_EQ(borrowed.recoveries, own.recoveries);
  EXPECT_EQ(borrowed.lines_fetched, own.lines_fetched);
}

TEST(Machine, DeterministicAcrossRuns) {
  const RunResult a = Cpu(tiny("gcc", "clgp")).run();
  const RunResult b = Cpu(tiny("gcc", "clgp")).run();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.fetch_sources.count(FetchSource::PreBuffer),
            b.fetch_sources.count(FetchSource::PreBuffer));
}

TEST(Machine, FetchSourceFractionsSumToOne) {
  for (const char* k : {"base", "fdp", "clgp"}) {
    const RunResult r = Cpu(tiny("twolf", k)).run();
    double total = 0;
    for (int i = 0; i < kNumFetchSources; ++i) {
      total += r.fetch_sources.fraction(static_cast<FetchSource>(i));
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(Machine, IdealCacheIsAnUpperBoundForBase) {
  MachineConfig base = tiny("gcc", "base");
  MachineConfig ideal = base;
  ideal.ideal_l1 = true;
  EXPECT_GE(Cpu(ideal).run().ipc, Cpu(base).run().ipc);
}

TEST(Machine, PipeliningHelpsTheMultiCycleBase) {
  MachineConfig base = tiny("eon", "base");
  MachineConfig pipe = base;
  pipe.l1i_pipelined = true;
  EXPECT_GT(Cpu(pipe).run().ipc, Cpu(base).run().ipc);
}

TEST(Machine, L0HelpsTheBase) {
  MachineConfig base = tiny("eon", "base");
  MachineConfig l0 = base;
  l0.has_l0 = true;
  EXPECT_GT(Cpu(l0).run().ipc, Cpu(base).run().ipc);
}

TEST(Machine, ClgpFetchesMostlyFromPrestageBuffer) {
  // Paper §5.2: CLGP serves >86% of fetches from the pre-buffer (with a
  // 4-entry buffer); allow slack for the reduced trace length.
  const RunResult r = Cpu(tiny("eon", "clgp")).run();
  EXPECT_GT(r.fetch_sources.fraction(FetchSource::PreBuffer), 0.70);
}

TEST(Machine, FdpPbShareShrinksWithCacheSizeClgpDoesNot) {
  // Paper Figure 7(a): FDP's pre-buffer share collapses as the L1 grows
  // (filtering suppresses prefetches); CLGP's stays high.
  auto pb_share = [](const char* k, std::uint64_t l1) {
    MachineConfig cfg = tiny("eon", k);
    cfg.l1i_size = l1;
    return Cpu(cfg).run().fetch_sources.fraction(FetchSource::PreBuffer);
  };
  EXPECT_LT(pb_share("fdp", 65536), 0.35);
  EXPECT_GT(pb_share("clgp", 65536), 0.70);
}

TEST(Machine, ClgpBeatsNoPrefetchOnFetchBoundWorkload) {
  // eon: large instruction footprint, predictable branches — the
  // fetch-bound case the paper's mechanisms target (4KB blocking L1).
  const double base = Cpu(tiny("eon", "base")).run().ipc;
  const double clgp = Cpu(tiny("eon", "clgp")).run().ipc;
  EXPECT_GT(clgp, base * 1.05);
}

TEST(Machine, WarmupExcludesColdStart) {
  MachineConfig cold = tiny("gcc", "base", 12000);
  MachineConfig warm = cold;
  warm.warmup_instructions = 6000;
  warm.max_instructions = 6000;
  const RunResult rc = Cpu(cold).run();
  const RunResult rw = Cpu(warm).run();
  EXPECT_GE(rw.instructions, 6000u);
  EXPECT_LT(rw.instructions, 6008u);
  // Post-warmup IPC should not be lower than the cold-start-included run.
  EXPECT_GE(rw.ipc, rc.ipc * 0.95);
}

TEST(Machine, RecoveriesMatchDriverMispredictions) {
  Cpu cpu(tiny("twolf", "clgp"));
  const RunResult r = cpu.run();
  EXPECT_GT(r.recoveries, 0u);
  // Every recovery stems from a verified divergence; some divergences may
  // still be in flight at the end of the run.
  EXPECT_LE(r.recoveries, cpu.driver().stream_mispredictions.value());
  EXPECT_GE(cpu.driver().stream_mispredictions.value(), r.recoveries);
}

TEST(Machine, DerivedTimingsFollowTable3) {
  MachineConfig cfg = tiny("gzip", "base");
  cfg.node = cacti::TechNode::um045;
  cfg.l1i_size = 4096;
  const DerivedTimings t = DerivedTimings::from(cfg);
  EXPECT_EQ(t.l1i_latency, 4);
  EXPECT_EQ(t.l2_latency, 24);
  EXPECT_EQ(t.l0_size, 256u);
  cfg.node = cacti::TechNode::um090;
  const DerivedTimings t90 = DerivedTimings::from(cfg);
  EXPECT_EQ(t90.l1i_latency, 3);
  EXPECT_EQ(t90.l2_latency, 17);
  EXPECT_EQ(t90.l0_size, 512u);
}

TEST(Machine, SixteenEntryPreBufferIsMultiCycle) {
  MachineConfig cfg = tiny("gzip", "clgp");
  cfg.prebuffer_entries = 16;
  cfg.node = cacti::TechNode::um045;
  EXPECT_EQ(DerivedTimings::from(cfg).prebuffer_latency, 3);
  cfg.node = cacti::TechNode::um090;
  EXPECT_EQ(DerivedTimings::from(cfg).prebuffer_latency, 2);
}

TEST(Machine, NextLinePrefetcherRuns) {
  const RunResult r = Cpu(tiny("eon", "next-line")).run();
  EXPECT_GT(r.prefetches_issued, 0u);
  EXPECT_GT(r.ipc, 0.05);
}

TEST(Machine, TickAdvancesCycleByCycle) {
  Cpu cpu(tiny("gzip", "base", 100));
  EXPECT_EQ(cpu.cycle(), 0u);
  cpu.tick();
  cpu.tick();
  EXPECT_EQ(cpu.cycle(), 2u);
}

// --- back-end in isolation ----------------------------------------------

/// One 8-instruction loop: X (ALU, r1), L (load r2, site 0), M (load r3,
/// site 1), D (ALU r4 <- r3), three ALU ops and the back jump. The two
/// load sites stride 64 B and 4 KB through the heap, so L and M miss a
/// cold D-cache on different lines.
workload::Program loop_program() {
  using workload::StaticInst;
  workload::Program p;
  p.name = "loop";
  p.insts = {
      StaticInst{OpClass::IntAlu, 1, kNoReg, kNoReg, workload::kNoSite},
      StaticInst{OpClass::Load, 2, kNoReg, kNoReg, 0},
      StaticInst{OpClass::Load, 3, kNoReg, kNoReg, 1},
      StaticInst{OpClass::IntAlu, 4, 3, kNoReg, workload::kNoSite},
      StaticInst{OpClass::IntAlu, 5, kNoReg, kNoReg, workload::kNoSite},
      StaticInst{OpClass::IntAlu, 6, kNoReg, kNoReg, workload::kNoSite},
      StaticInst{OpClass::IntAlu, 7, kNoReg, kNoReg, workload::kNoSite},
      StaticInst{OpClass::Jump, kNoReg, kNoReg, kNoReg, workload::kNoSite},
  };
  workload::BasicBlock b;
  b.start = p.base;
  b.first = 0;
  b.count = static_cast<std::uint32_t>(p.insts.size());
  b.term = workload::TermKind::Jump;
  b.taken_target = 0;
  p.blocks = {b};
  p.data_sites = {
      workload::DataSite{workload::DataSiteClass::Stream, 64, 0},
      workload::DataSite{workload::DataSiteClass::Stream, 4096, 1}};
  p.stream_sites = 2;
  p.region_roots = {0};
  p.validate();
  return p;
}

/// A Backend with its oracle and memory system, ticked in Cpu::tick's
/// order; the test plays the fetch stage.
struct BackendRig {
  workload::Program prog = loop_program();
  Oracle oracle{prog, 1};
  mem::MemSystem mem{mem::MemSystemConfig{}};
  Backend be{MachineConfig{}, oracle, prog, mem};
  Cycle now = 0;

  void fetch(std::uint64_t seq, bool culprit = false) {
    frontend::FetchedInst f;
    f.pc = oracle.get(seq).pc;
    f.oracle_seq = seq;
    f.culprit = culprit;
    be.accept(f);
  }
  void cycle() {
    be.begin_cycle(now);
    mem.tick(now);
    if (be.recovery_due(now)) be.squash_younger_than_culprit();
    be.tick_commit(now);
    be.tick_issue(now);
    be.tick_dispatch(now);
    ++now;
  }
  /// Ticks until @p addr's fill has fired; returns the fill cycle.
  Cycle run_to_fill(Addr addr) {
    while (mem.in_flight(addr)) {
      EXPECT_LT(now, 5000u) << "fill never arrived";
      if (now >= 5000) return kNoCycle;
      cycle();
    }
    return now - 1;
  }
  /// Ticks until @p n instructions have committed; returns that cycle.
  Cycle run_to_commits(std::uint64_t n) {
    while (be.committed() < n) {
      EXPECT_LT(now, 5000u) << "commit never happened";
      if (now >= 5000) return kNoCycle;
      cycle();
    }
    return now - 1;
  }
};

TEST(Backend, LiveMissingLoadWakesAtFillPlusOne) {
  BackendRig rig;
  rig.fetch(0);
  rig.fetch(1);  // L: load r2
  const Addr l_addr = rig.oracle.get(1).data_addr;
  ASSERT_EQ(rig.oracle.get(1).op, OpClass::Load);
  while (!rig.mem.in_flight(l_addr)) rig.cycle();
  const Cycle fill = rig.run_to_fill(l_addr);
  EXPECT_EQ(rig.be.reg_ready_at(2), fill + 1);
  EXPECT_EQ(rig.run_to_commits(2), fill + 1);
}

TEST(Backend, SquashedLoadsFillLeavesTheSlotsNextOccupantAlone) {
  BackendRig rig;
  rig.fetch(0, /*culprit=*/true);  // X resolves a misprediction
  rig.fetch(1);                    // L: squashed while its miss is out
  const Addr l_addr = rig.oracle.get(1).data_addr;
  const Addr m_addr = rig.oracle.get(2).data_addr;
  // X completes one cycle after it issues; its recovery squashes L,
  // whose miss is already in flight.
  EXPECT_EQ(rig.run_to_commits(1), 10u);
  ASSERT_TRUE(rig.be.drained());
  ASSERT_TRUE(rig.mem.in_flight(l_addr));

  // M dispatches into the RUU slot L left (the ring's next tail), and
  // misses too; D depends on it.
  rig.fetch(2);  // M: load r3
  rig.fetch(3);  // D: r4 <- r3
  while (!rig.mem.in_flight(m_addr)) rig.cycle();
  const Cycle r3_before = rig.be.reg_ready_at(3);
  const Cycle r2_before = rig.be.reg_ready_at(2);
  const Cycle l_fill = rig.run_to_fill(l_addr);
  ASSERT_TRUE(rig.mem.in_flight(m_addr));
  rig.cycle();  // a wrongly woken M would commit at l_fill + 1
  EXPECT_EQ(rig.be.committed(), 1u);
  EXPECT_EQ(rig.be.reg_ready_at(3), r3_before);
  EXPECT_EQ(rig.be.reg_ready_at(2), r2_before);

  // M's own fill still wakes it and the scoreboard at fill + 1.
  const Cycle m_fill = rig.run_to_fill(m_addr);
  EXPECT_GT(m_fill, l_fill);
  EXPECT_EQ(rig.be.reg_ready_at(3), m_fill + 1);
  EXPECT_EQ(rig.run_to_commits(2), m_fill + 1);
  rig.run_to_commits(3);
}

TEST(Backend, SquashedLoadsFillLeavesItsEmptySlotAlone) {
  // Nothing reuses L's slot before its fill: the popped slot still holds
  // L, and the fill must not wake it or its register.
  BackendRig rig;
  rig.fetch(0, /*culprit=*/true);
  rig.fetch(1);
  const Addr l_addr = rig.oracle.get(1).data_addr;
  rig.run_to_commits(1);
  ASSERT_TRUE(rig.mem.in_flight(l_addr));
  const Cycle r2_before = rig.be.reg_ready_at(2);
  rig.run_to_fill(l_addr);
  rig.cycle();
  EXPECT_EQ(rig.be.reg_ready_at(2), r2_before);
  EXPECT_TRUE(rig.be.drained());
  EXPECT_EQ(rig.be.committed(), 1u);
  // The next instruction into that slot runs normally.
  rig.fetch(2);
  rig.run_to_commits(2);
}

// --- oracle window --------------------------------------------------------

/// Forwards to a TraceGenerator and counts the fill() calls that were
/// handed less than a whole batch: the Oracle's window wrapped.
class SplitCountingSource final : public workload::TraceSource {
 public:
  SplitCountingSource(const workload::Program& prog, std::uint64_t seed,
                      std::size_t* splits)
      : inner_(prog, seed), splits_(splits) {}
  workload::StreamChunk next_stream() override { return inner_.next_stream(); }
  std::size_t fill(workload::DynInst* out, std::size_t n) override {
    if (n < 256) ++*splits_;
    return inner_.fill(out, n);
  }
  std::uint64_t instructions() const override { return inner_.instructions(); }
  std::vector<Addr> call_stack_pcs(std::size_t max_depth) const override {
    return inner_.call_stack_pcs(max_depth);
  }

 private:
  workload::TraceGenerator inner_;
  std::size_t* splits_;
};

TEST(OracleWindow, WrappedRefillsHandOutTheGeneratorsRecords) {
  const auto spec =
      std::make_shared<const workload::SyntheticWorkloadSpec>("gcc", 3);
  const workload::Program& prog = spec->program();
  constexpr std::size_t kInstrs = 60000;
  std::vector<workload::DynInst> ref(kInstrs + 4096);
  workload::TraceGenerator gen(prog, 11);
  (void)gen.fill(ref.data(), ref.size());

  std::size_t splits = 0;
  Oracle oracle(std::make_unique<SplitCountingSource>(prog, 11, &splits));
  std::uint64_t lag = 0;
  while (oracle.seq_at_cursor() < kInstrs) {
    const std::uint64_t first = oracle.seq_at_cursor();
    const bpred::Stream rem = oracle.remainder();
    for (std::uint64_t s = first; s < first + rem.length; ++s) {
      const workload::DynInst& got = oracle.get(s);
      const workload::DynInst& want = ref[s];
      ASSERT_EQ(got.pc, want.pc) << "seq " << s;
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.next_pc, want.next_pc) << "seq " << s;
      ASSERT_EQ(got.data_addr, want.data_addr) << "seq " << s;
      ASSERT_EQ(got.ends_stream, want.ends_stream) << "seq " << s;
    }
    oracle.consume(rem.length);
    // Release a varying distance behind the cursor, so refills land at
    // every offset of the ring.
    lag = (lag + 37) % 300;
    const std::uint64_t cursor = oracle.seq_at_cursor();
    oracle.release_below(cursor > lag ? cursor - lag : 0);
  }
  EXPECT_GT(splits, 0u) << "the window never wrapped mid-batch";
}

}  // namespace
}  // namespace prestage::cpu
