// Sampled-simulation subsystem coverage: parameter resolution and
// descriptor suffixes, plan determinism (including across worker
// counts), PSCK checkpoint round-trips and corruption rejection,
// prefetcher save/restore semantics, reconstruction fidelity against
// the full run, error-bar-aware compare gating, the golden-pinned
// full-run store line proving the sampling block is strictly additive,
// and the slice cursors: every slice's trace, cut from one forward walk,
// equals a fresh source walked from instruction 0, a pinned sampled
// store line, and typed errors for sources and plans that cannot slice.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/compare.hpp"
#include "campaign/engine.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "common/prestage_assert.hpp"
#include "cpu/cpu.hpp"
#include "sample/checkpoint.hpp"
#include "sample/plan.hpp"
#include "sample/runner.hpp"
#include "sample/sliced_source.hpp"
#include "sim/presets.hpp"
#include "workload/champsim.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace prestage;
using campaign::CampaignSpec;
using campaign::PointResult;
using campaign::ResultStore;
using campaign::RunPoint;

std::string test_file(const std::string& name) {
  const auto* info = testing::UnitTest::GetInstance()->current_test_info();
  return testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + name;
}

std::string fresh_file(const std::string& name) {
  const std::string path = test_file(name);
  std::filesystem::remove(path);
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The CI smoke-sampled knobs (bench/figures.cpp "smoke-sampled"):
/// 5000-instruction intervals, k <= 4, three-interval detailed warm-up.
sample::ResolvedSamplingParams smoke_params(std::uint64_t budget) {
  sample::SamplingParams p;
  p.enabled = true;
  p.interval_instructions = 5000;
  p.max_clusters = 4;
  p.warmup_intervals = 3;
  return p.resolve(budget);
}

/// One full-run point of the smoke grid.
RunPoint full_point(std::uint64_t instrs = 120000) {
  return RunPoint{.preset = "clgp-l0",
                  .config = "clgp-l0",
                  .node = cacti::TechNode::um045,
                  .l1i_size = 4096,
                  .benchmark = "eon",
                  .instructions = instrs,
                  .seed = 1,
                  .sampling = {}};
}

sample::SamplePlan eon_plan(std::uint64_t budget = 120000) {
  const auto cfg = full_point(budget).machine_config();
  const auto base = sample::base_workload(cfg);
  return sample::build_plan(*base, cfg.seed, budget, smoke_params(budget));
}

TEST(SampleParams, ResolveFillsDefaultsAndZerosOnlyPinKnobs) {
  sample::SamplingParams p;
  p.enabled = true;
  const auto r = p.resolve(400000);
  EXPECT_EQ(r.interval_instructions, 10000u) << "budget/40";
  EXPECT_EQ(r.dim, 16u);
  EXPECT_EQ(r.max_clusters, 6u);
  EXPECT_EQ(r.warm_lines, 256u);
  EXPECT_EQ(r.warmup_intervals, 1u);
  // Tiny budgets clamp to the interval floor.
  EXPECT_EQ(p.resolve(4000).interval_instructions, 1000u);

  p.warmup_intervals = 3;
  EXPECT_EQ(p.resolve(400000).warmup_intervals, 3u);
}

TEST(SampleParams, DescriptorSuffixEmbedsEveryKnobOnlyWhenEnabled) {
  sample::SamplingParams p;
  EXPECT_EQ(p.resolve(400000).descriptor_suffix(), "")
      << "full-run descriptors (and keys) must be unchanged";
  p.enabled = true;
  p.interval_instructions = 5000;
  p.max_clusters = 4;
  p.warmup_intervals = 2;
  EXPECT_EQ(p.resolve(400000).descriptor_suffix(),
            "|sample=iv5000,dim16,k4,warm256,wu2");
}

TEST(SamplePlan, IsDeterministicAndCachedAcrossCalls) {
  const sample::SamplePlan a = eon_plan();
  const sample::SamplePlan b = eon_plan();
  ASSERT_EQ(a.slices.size(), b.slices.size());
  EXPECT_GT(a.clusters, 0u);
  EXPECT_EQ(a.intervals, 24u);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < a.slices.size(); ++i) {
    EXPECT_EQ(a.slices[i].start, b.slices[i].start);
    EXPECT_EQ(a.slices[i].instructions, b.slices[i].instructions);
    EXPECT_EQ(a.slices[i].interval_index, b.slices[i].interval_index);
    EXPECT_EQ(a.slices[i].cluster, b.slices[i].cluster);
    EXPECT_EQ(a.slices[i].weight, b.slices[i].weight);
    EXPECT_EQ(a.slices[i].warm_start, b.slices[i].warm_start);
    EXPECT_EQ(a.slices[i].warm_lines, b.slices[i].warm_lines);
    EXPECT_LE(a.slices[i].warm_start, a.slices[i].start)
        << "detailed warm-up must start at or before the measured region";
    if (i > 0) {
      EXPECT_GT(a.slices[i].start, a.slices[i - 1].start);
    }
    // Fixed slice order: deterministic sum.
    weight_sum += a.slices[i].weight;
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);

  // The process-wide cache returns one shared plan per key.
  const auto cfg = full_point().machine_config();
  const auto base = sample::base_workload(cfg);
  const auto p1 = sample::get_or_build_plan(*base, cfg.seed, 120000,
                                            smoke_params(120000));
  const auto p2 = sample::get_or_build_plan(*base, cfg.seed, 120000,
                                            smoke_params(120000));
  EXPECT_EQ(p1.get(), p2.get());
  auto deeper = smoke_params(120000);
  deeper.warmup_intervals = 1;
  const auto p3 =
      sample::get_or_build_plan(*base, cfg.seed, 120000, deeper);
  EXPECT_NE(p1.get(), p3.get()) << "warm-up depth is part of the plan key";
}

TEST(SampleCheckpoint, RoundTripsEveryFieldAndFileBytes) {
  sample::Checkpoint cp;
  cp.plan = eon_plan();
  cp.states.push_back({"stream", {0x01, 0x02, 0xff, 0x00, 0x7f}});
  cp.states.push_back({"none", {}});

  const std::vector<std::uint8_t> bytes = sample::serialize_checkpoint(cp);
  const sample::Checkpoint back =
      sample::deserialize_checkpoint(bytes.data(), bytes.size());

  EXPECT_TRUE(back.plan.params.enabled);
  EXPECT_EQ(back.plan.params.interval_instructions,
            cp.plan.params.interval_instructions);
  EXPECT_EQ(back.plan.params.dim, cp.plan.params.dim);
  EXPECT_EQ(back.plan.params.max_clusters, cp.plan.params.max_clusters);
  EXPECT_EQ(back.plan.params.warm_lines, cp.plan.params.warm_lines);
  EXPECT_EQ(back.plan.params.warmup_intervals,
            cp.plan.params.warmup_intervals);
  EXPECT_EQ(back.plan.workload, cp.plan.workload);
  EXPECT_EQ(back.plan.seed, cp.plan.seed);
  EXPECT_EQ(back.plan.total_instructions, cp.plan.total_instructions);
  EXPECT_EQ(back.plan.intervals, cp.plan.intervals);
  EXPECT_EQ(back.plan.unique_blocks, cp.plan.unique_blocks);
  EXPECT_EQ(back.plan.clusters, cp.plan.clusters);
  ASSERT_EQ(back.plan.slices.size(), cp.plan.slices.size());
  for (std::size_t i = 0; i < cp.plan.slices.size(); ++i) {
    EXPECT_EQ(back.plan.slices[i].start, cp.plan.slices[i].start);
    EXPECT_EQ(back.plan.slices[i].instructions,
              cp.plan.slices[i].instructions);
    EXPECT_EQ(back.plan.slices[i].interval_index,
              cp.plan.slices[i].interval_index);
    EXPECT_EQ(back.plan.slices[i].cluster, cp.plan.slices[i].cluster);
    EXPECT_EQ(back.plan.slices[i].weight, cp.plan.slices[i].weight);
    EXPECT_EQ(back.plan.slices[i].warm_start, cp.plan.slices[i].warm_start);
    EXPECT_EQ(back.plan.slices[i].warm_lines, cp.plan.slices[i].warm_lines);
  }
  ASSERT_EQ(back.states.size(), 2u);
  EXPECT_EQ(back.states[0].scheme, "stream");
  EXPECT_EQ(back.states[0].bytes, cp.states[0].bytes);
  EXPECT_EQ(back.states[1].scheme, "none");
  EXPECT_TRUE(back.states[1].bytes.empty());

  // File round-trip: write, read, re-serialize to identical bytes.
  const std::string path = fresh_file("plan.psck");
  sample::write_checkpoint_file(path, cp);
  const sample::Checkpoint from_file = sample::read_checkpoint_file(path);
  EXPECT_EQ(sample::serialize_checkpoint(from_file), bytes);
}

TEST(SampleCheckpoint, RejectsCorruptBytes) {
  sample::Checkpoint cp;
  cp.plan = eon_plan();
  std::vector<std::uint8_t> bytes = sample::serialize_checkpoint(cp);

  // Bad magic.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(sample::deserialize_checkpoint(bad.data(), bad.size()),
                 SimError);
  }
  // Unsupported version.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = 99;
    EXPECT_THROW(sample::deserialize_checkpoint(bad.data(), bad.size()),
                 SimError);
  }
  // Truncation anywhere in the tail.
  EXPECT_THROW(sample::deserialize_checkpoint(bytes.data(), bytes.size() - 1),
               SimError);
  EXPECT_THROW(sample::deserialize_checkpoint(bytes.data(), 10), SimError);
  // Trailing garbage.
  {
    std::vector<std::uint8_t> bad = bytes;
    bad.push_back(0);
    EXPECT_THROW(sample::deserialize_checkpoint(bad.data(), bad.size()),
                 SimError);
  }
  // A missing file is a SimError, not a crash.
  EXPECT_THROW(sample::read_checkpoint_file(fresh_file("absent.psck")),
               SimError);
}

TEST(SamplePrefetcherState, SaveRestoreSymmetryPerScheme) {
  // Warmed machines for a state-carrying scheme and the empty baseline:
  // whenever save_state says yes, a same-shape restore must accept the
  // bytes; the paired schemes decline both ways (conservative cold
  // restart, counted by the runner).
  const struct {
    const char* preset;
    bool checkpoints;
  } cases[] = {{"stream", true}, {"base", true}, {"clgp-l0", false}};
  for (const auto& c : cases) {
    cpu::MachineConfig cfg =
        sim::make_config(c.preset, cacti::TechNode::um045, 4096);
    cfg.benchmark = "eon";
    cfg.max_instructions = 20000;
    cpu::Cpu machine(cfg);
    (void)machine.run();
    std::vector<std::uint8_t> state;
    const bool saved = machine.prefetcher().save_state(state);
    EXPECT_EQ(saved, c.checkpoints) << c.preset;
    cpu::Cpu fresh(cfg);
    const bool restored =
        fresh.prefetcher_mut().restore_state(state.data(), state.size());
    EXPECT_EQ(restored, c.checkpoints) << c.preset;
  }
}

TEST(SampledRun, ReconstructsFullRunIpcWithinItsErrorBar) {
  for (const char* bench : {"eon", "gzip"}) {
    RunPoint full = full_point(400000);
    full.benchmark = bench;
    const PointResult fr = campaign::simulate(full);
    ASSERT_FALSE(fr.result.sampled);

    RunPoint sampled = full;
    sampled.sampling = smoke_params(400000);
    const PointResult sr = campaign::simulate(sampled);
    ASSERT_TRUE(sr.result.sampled);
    EXPECT_NE(sampled.key(), full.key())
        << "sampled estimates must never alias full-run results";
    EXPECT_GT(sr.result.ipc_error, 0.0);
    EXPECT_GE(sr.result.ipc_error,
              sr.result.ipc * sample::kMinRelativeIpcErrorPct / 100.0);
    EXPECT_NEAR(sr.result.ipc, fr.result.ipc, sr.result.ipc_error)
        << bench << ": reconstruction outside its own error bar";
    EXPECT_LT(sr.result.sample_simulated_instructions,
              full.instructions / 3)
        << bench << ": sampling must simulate a small fraction";
    EXPECT_GT(sr.result.sample_slices, 0u);
    EXPECT_LE(sr.result.sample_cold_starts, sr.result.sample_slices);
  }
}

TEST(SampledCampaign, StoreBytesIdenticalForAnyWorkerCount) {
  CampaignSpec spec;
  spec.name = "sampled-tiny";
  spec.title = "sampled test grid";
  spec.presets = {"base", "clgp-l0"};
  spec.nodes = {cacti::TechNode::um045};
  spec.l1_sizes = {1024, 4096};
  spec.benchmarks = {"eon", "gzip"};
  spec.instructions = 60000;
  spec.sampling.enabled = true;
  spec.sampling.interval_instructions = 5000;
  spec.sampling.max_clusters = 4;
  spec.sampling.warmup_intervals = 3;

  std::string reference;
  for (const unsigned jobs : {1u, 4u}) {
    std::string store_name = "w";  // (two steps: GCC 12 -Wrestrict FP)
    store_name += std::to_string(jobs);
    store_name += ".jsonl";
    const std::string path = fresh_file(store_name);
    const auto outcome = campaign::run_campaign(spec, path, jobs);
    EXPECT_EQ(outcome.executed, 8u);
    const std::string bytes = read_file(path);
    EXPECT_NE(bytes.find("\"sampling\":{"), std::string::npos);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << jobs << " workers diverged";
    }
  }
}

TEST(SampledCompare, ErrorBandWidensTheGate) {
  const auto make_point = [](double ipc, double ipc_error) {
    PointResult r;
    r.key = "00000000deadbeef";
    r.preset = "clgp-l0";
    r.config = "clgp-l0";
    r.node = "0.045um";
    r.benchmark = "eon";
    r.l1i_size = 4096;
    r.instructions = 100000;
    r.result.instructions = 100000;
    r.result.cycles = static_cast<Cycle>(100000.0 / ipc);
    r.result.ipc = ipc;
    if (ipc_error > 0.0) {
      r.result.sampled = true;
      r.result.ipc_error = ipc_error;
    }
    return r;
  };
  const auto diff = [&](double base_ipc, double base_err, double cand_ipc,
                        double cand_err) {
    ResultStore baseline;
    ResultStore candidate;
    baseline.insert(make_point(base_ipc, base_err));
    candidate.insert(make_point(cand_ipc, cand_err));
    return campaign::compare_stores(baseline, candidate, 2.0);
  };

  // Full runs: a 4% drop beats the 2% threshold and classifies.
  const auto full = diff(1.0, 0.0, 0.96, 0.0);
  EXPECT_EQ(full.regressions.size(), 1u);
  EXPECT_EQ(full.regressions[0].error_band_pct, 0.0);

  // The same drop between sampled estimates with +/-0.05 bars sits
  // inside the pair's 10% combined band: noise, not a regression.
  const auto sampled = diff(1.0, 0.05, 0.96, 0.05);
  EXPECT_EQ(sampled.common, 1u);
  EXPECT_TRUE(sampled.regressions.empty());
  EXPECT_TRUE(sampled.improvements.empty());

  // A drop beyond the combined band still classifies.
  const auto big = diff(1.0, 0.02, 0.9, 0.02);
  ASSERT_EQ(big.regressions.size(), 1u);
  EXPECT_NEAR(big.regressions[0].error_band_pct, 4.0, 1e-9);
}

TEST(SampledStore, FullRunLineMatchesGoldenPin) {
  // Byte-level pin of one full-run store line: the sampling feature must
  // be strictly additive, so this exact line (no "sampling" block) is
  // what any pre-sampling version of the store would also produce. If a
  // simulator change moves the numbers, re-pin from the failure output.
  const PointResult r = campaign::simulate(full_point(800));
  const std::string line = campaign::encode_line(r);
  EXPECT_EQ(line.find("\"sampling\""), std::string::npos);
  const std::string pinned =
      "{\"key\":\"57b5d309ab0ae267\",\"preset\":\"clgp-l0\","
      "\"config\":\"clgp-l0\",\"node\":\"0.045um\",\"l1i_size\":4096,"
      "\"benchmark\":\"eon\",\"instructions\":800,\"seed\":1,"
      "\"result\":{\"instructions\":800,\"cycles\":3315,"
      "\"ipc\":0.2413273002,\"mispredicts_per_kilo_instr\":11.25,"
      "\"recoveries\":9,\"blocks_predicted\":130,\"lines_fetched\":114,"
      "\"prefetches_issued\":68,\"l2_hits\":70,\"l2_misses\":96,"
      "\"dcache_misses\":112,"
      "\"fetch_sources\":{\"PB\":105,\"il0\":4,\"il1\":0,\"ul2\":4,"
      "\"Mem\":1},"
      "\"prefetch_sources\":{\"PB\":188,\"il0\":0,\"il1\":9,\"ul2\":31,"
      "\"Mem\":7}}}";
  EXPECT_EQ(line, pinned);
}

// --- slice cursors -----------------------------------------------------------

/// The Cpu's oracle trace seed for MachineConfig::seed 1 (cpu.cpp).
constexpr std::uint64_t kTraceSeed = 1 + 17;

std::string fixture_path() {
  // Built piecewise: GCC 12's LTO raises a false -Wstringop-overread on
  // `std::string(dir) + "/..."` once this is inlined at enough sites.
  std::string path = PRESTAGE_TEST_DATA_DIR;
  path += "/fixture.champsim.trace";
  return path;
}

/// Reads whole streams through fill() in odd-sized batches until at
/// least @p min_records records have arrived, ending on a stream boundary.
std::vector<workload::DynInst> fill_streams(workload::TraceSource& src,
                                            std::size_t min_records) {
  std::vector<workload::DynInst> out;
  workload::DynInst buf[97];
  while (out.size() < min_records) {
    (void)src.fill(buf, 97);
    out.insert(out.end(), buf, buf + 97);
  }
  while (!out.back().ends_stream) {
    (void)src.fill(buf, 1);
    out.push_back(buf[0]);
  }
  return out;
}

/// The reference slice: a fresh source walked stream by stream from
/// instruction 0 to @p start, then @p n records renumbered from seq 0 —
/// what a sliced run replayed before slices were cut from one cursor.
std::vector<workload::DynInst> from_zero(workload::TraceSource& src,
                                         std::uint64_t start, std::size_t n) {
  while (src.instructions() < start) (void)src.next_stream();
  EXPECT_EQ(src.instructions(), start) << "slice start not stream-aligned";
  std::vector<workload::DynInst> out;
  while (out.size() < n) {
    for (workload::DynInst d : src.next_stream().insts) {
      d.seq = out.size();
      out.push_back(d);
    }
  }
  return out;
}

/// Every slice of @p plan, cut from one walk of @p base, must hand its Cpu
/// exactly the records and call stacks of a fresh source walked from 0.
void expect_slices_match_from_zero(
    const std::shared_ptr<const workload::WorkloadSpec>& base,
    const sample::SamplePlan& plan) {
  ASSERT_FALSE(plan.slices.empty());
  const sample::SliceCuts cuts = sample::cut_slices(base, kTraceSeed, plan);
  ASSERT_EQ(cuts.size(), plan.slices.size());
  std::shared_ptr<const workload::WorkloadSpec> spec;
  for (std::size_t i = 0; i < plan.slices.size(); ++i) {
    spec = cuts[i];
    const std::uint64_t start = plan.slices[i].warm_start;
    const std::string what =
        base->name() + " slice " + std::to_string(i) + " @" +
        std::to_string(start);
    const auto sliced = spec->make_source(kTraceSeed);
    const auto fresh = base->make_source(kTraceSeed);
    const std::vector<workload::DynInst> got = fill_streams(*sliced, 3000);
    const std::vector<workload::DynInst> want =
        from_zero(*fresh, start, got.size());
    ASSERT_EQ(fresh->instructions(), start + got.size()) << what;
    for (std::size_t r = 0; r < got.size(); ++r) {
      const std::string at = what + " record " + std::to_string(r);
      ASSERT_EQ(got[r].pc, want[r].pc) << at;
      ASSERT_EQ(got[r].seq, want[r].seq) << at;
      ASSERT_EQ(got[r].next_pc, want[r].next_pc) << at;
      ASSERT_EQ(got[r].data_addr, want[r].data_addr) << at;
      ASSERT_EQ(got[r].ends_stream, want[r].ends_stream) << at;
    }
    EXPECT_EQ(sliced->call_stack_pcs(64), fresh->call_stack_pcs(64)) << what;
  }
  // The cursor is copied per Cpu: a second source replays the same trace.
  const auto again = spec->make_source(kTraceSeed);
  const auto first = spec->make_source(kTraceSeed);
  EXPECT_EQ(fill_streams(*again, 500).back().pc,
            fill_streams(*first, 500).back().pc);
}

TEST(SliceCursor, SyntheticSlicesMatchAWalkFromZero) {
  for (const char* bench : {"gcc", "eon"}) {
    RunPoint point = full_point(400000);
    point.benchmark = bench;
    const auto cfg = point.machine_config();
    const auto base = sample::base_workload(cfg);
    sample::SamplePlan plan =
        sample::build_plan(*base, cfg.seed, 400000, smoke_params(400000));
    SCOPED_TRACE(bench);
    expect_slices_match_from_zero(base, plan);
    // A checkpointed plan need not be in trace order; the cut still
    // visits its starts in ascending order.
    std::reverse(plan.slices.begin(), plan.slices.end());
    expect_slices_match_from_zero(base, plan);
  }
}

TEST(SliceCursor, ChampSimSlicesMatchAWalkFromZeroAcrossTheWrapSeam) {
  // 182 records per lap: every slice starts laps deep and its 3000
  // compared records cross the wrap seam many times.
  const std::shared_ptr<const workload::WorkloadSpec> base =
      workload::import_champsim_trace(fixture_path());
  const sample::SamplePlan plan =
      sample::build_plan(*base, 1, 60000, smoke_params(60000));
  ASSERT_GT(plan.slices.back().warm_start, 182u * 10);
  expect_slices_match_from_zero(base, plan);
}

TEST(SliceCursor, SourceThatCannotCloneRaisesSimErrorNamingTheWorkload) {
  const auto base =
      std::make_shared<const workload::RecordingWorkloadSpec>("eon", 1);
  const sample::SamplePlan plan =
      sample::build_plan(*base, 1, 20000, smoke_params(20000));
  const cpu::MachineConfig cfg = full_point(20000).machine_config();
  try {
    (void)sample::run_sampled_point_with_plan(cfg, base, plan);
    FAIL() << "a recording source was sampled";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("'eon'"), std::string::npos)
        << e.what();
  }
}

TEST(SliceCursor, SkipToAMidStreamTargetRaisesSimError) {
  const auto cfg = full_point().machine_config();
  const auto base = sample::base_workload(cfg);
  // Positions just past the first stream end and inside a stream.
  std::uint64_t aligned = 0;
  std::uint64_t mid = 0;
  {
    const auto probe = base->make_source(kTraceSeed);
    workload::DynInst d;
    for (std::uint64_t n = 1; aligned == 0 || mid == 0; ++n) {
      (void)probe->fill(&d, 1);
      if (d.ends_stream) {
        if (aligned == 0) aligned = n;
      } else if (mid == 0) {
        mid = n;
      }
    }
  }
  const auto source = base->make_source(kTraceSeed);
  EXPECT_THROW(workload::skip_to(*source, mid), SimError);
  const auto behind = base->make_source(kTraceSeed);
  workload::skip_to(*behind, aligned);
  EXPECT_THROW(workload::skip_to(*behind, 0), SimError)
      << "a cursor only walks forward";

  // The same misalignment in a plan (a checkpoint cut from another
  // trace) fails the sampled run with the workload's name.
  sample::SamplePlan plan = eon_plan();
  plan.slices.back().warm_start = mid;
  try {
    (void)sample::run_sampled_point_with_plan(cfg, base, plan);
    FAIL() << "a mid-stream slice start was simulated";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("'eon'"), std::string::npos)
        << e.what();
  }
}

TEST(SliceCursor, SlicedSpecRejectsAnotherTraceSeed) {
  const auto cfg = full_point().machine_config();
  const auto base = sample::base_workload(cfg);
  const sample::SamplePlan plan = eon_plan();
  const auto spec = sample::cut_slices(base, kTraceSeed, plan).front();
  EXPECT_NE(spec->make_source(kTraceSeed), nullptr);
  try {
    (void)spec->make_source(kTraceSeed + 1);
    FAIL() << "a slice cursor was handed out for another trace seed";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("'eon'"), std::string::npos)
        << e.what();
  }
}

TEST(SampledRun, CyclesSkippedIsScaledLikeTheCycles) {
  // The skip's share of the reconstructed run: post-warmup per slice,
  // so it reads against the reconstructed cycles.
  RunPoint point = full_point(120000);
  point.benchmark = "mcf";
  point.sampling = smoke_params(120000);
  const cpu::RunResult r = campaign::simulate(point).result;
  ASSERT_TRUE(r.sampled);
  EXPECT_GT(r.cycles_skipped, 0u);
  EXPECT_LE(r.cycles_skipped, r.cycles);
}

TEST(SampledStore, SmokeSampledLineMatchesPin) {
  // Byte-level pin of one sampled store line at the smoke-sampled knobs
  // and budget: slice positioning is a host-speed matter, so this line
  // must not move when the way slices reach their start changes.
  RunPoint point = full_point(400000);
  point.preset = "clgp-l0-pb16";
  point.config = "clgp-l0-pb16";
  point.benchmark = "gcc";
  point.sampling = smoke_params(400000);
  const std::string line = campaign::encode_line(campaign::simulate(point));
  const std::string pinned =
      "{\"key\":\"a0debc80ea5ae770\",\"preset\":\"clgp-l0-pb16\","
      "\"config\":\"clgp-l0-pb16\",\"node\":\"0.045um\","
      "\"l1i_size\":4096,\"benchmark\":\"gcc\",\"instructions\":400000,"
      "\"seed\":1,\"result\":{\"instructions\":400000,\"cycles\":758210,"
      "\"ipc\":0.5275584433,\"mispredicts_per_kilo_instr\":19.02,"
      "\"recoveries\":7608,\"blocks_predicted\":133926,"
      "\"lines_fetched\":83666,\"prefetches_issued\":61257,"
      "\"l2_hits\":53473,\"l2_misses\":8170,\"dcache_misses\":16144,"
      "\"fetch_sources\":{\"PB\":80036,\"il0\":1969,\"il1\":324,"
      "\"ul2\":1317,\"Mem\":20},"
      "\"prefetch_sources\":{\"PB\":173692,\"il0\":0,\"il1\":14204,"
      "\"ul2\":34267,\"Mem\":1235},"
      "\"sampling\":{\"ipc_error\":0.02933962828,\"intervals\":80,"
      "\"clusters\":4,\"slices\":4,\"cold_starts\":4,"
      "\"simulated_instructions\":65152}}}";
  EXPECT_EQ(line, pinned);
}

}  // namespace
