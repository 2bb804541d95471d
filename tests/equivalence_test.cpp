// Host-optimization equivalence tests: the event-horizon cycle skip and
// the batched trace decode are pure host-speed changes, so this file
// pins their *identity* properties rather than any simulated numbers.
//
//  - Cycle skip: every preset the golden pins cover must produce a
//    byte-identical RunResult with skipping force-enabled and
//    force-disabled (same suite shape the pins use), and the enabled run
//    must actually skip cycles — otherwise the fast path is dead code
//    and the A/B proves nothing.
//  - Batched decode: TraceSource::fill() must hand out the exact record
//    stream next_stream() produces, for every source family (the
//    generator's native walk, the replay source's native copy incl.
//    wrap-around, and the sliced source's renumbering pass-through),
//    across adversarial batch sizes that straddle stream boundaries.
//  - Cursor clones: a TraceSource::clone() taken mid-stream continues
//    exactly as an independently advanced source does, under fill() and
//    under next_stream(), for the generator and the replay source
//    (across its wrap seam); a recording tee refuses to clone.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "sample/sliced_source.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace prestage::sim {
namespace {

// Same shape as the golden pins (tests/golden_test.cpp): three
// benchmarks at a small fixed budget, L1 = 4 KiB, 45 nm.
constexpr std::uint64_t kInstrs = 6000;
const std::vector<std::string> kBenchmarks = {"eon", "gzip", "mcf"};

/// Asserts every simulated statistic of two runs is identical. Doubles
/// are compared exactly: the skip folds the same arithmetic over the
/// same state, so even the last bit may not move. Host telemetry
/// (host_seconds, minstr_per_sec, cycles_skipped) is exempt by design.
void expect_identical(const cpu::RunResult& a, const cpu::RunResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.ipc, b.ipc) << what;
  for (int i = 0; i < kNumFetchSources; ++i) {
    const auto s = static_cast<FetchSource>(i);
    EXPECT_EQ(a.fetch_sources.count(s), b.fetch_sources.count(s))
        << what << " fetch source " << i;
    EXPECT_EQ(a.prefetch_sources.count(s), b.prefetch_sources.count(s))
        << what << " prefetch source " << i;
  }
  EXPECT_EQ(a.lines_fetched, b.lines_fetched) << what;
  EXPECT_EQ(a.recoveries, b.recoveries) << what;
  EXPECT_EQ(a.blocks_predicted, b.blocks_predicted) << what;
  EXPECT_EQ(a.mispredicts_per_kilo_instr, b.mispredicts_per_kilo_instr)
      << what;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << what;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << what;
  EXPECT_EQ(a.dcache_misses, b.dcache_misses) << what;
  EXPECT_EQ(a.prefetches_issued, b.prefetches_issued) << what;
}

TEST(CycleSkipEquivalence, EveryPresetIsTimingIdenticalWithSkipOff) {
  for (const std::string& preset : all_presets()) {
    cpu::MachineConfig on =
        make_config(preset, cacti::TechNode::um045, 4096);
    cpu::MachineConfig off = on;
    on.enable_cycle_skip = true;
    off.enable_cycle_skip = false;

    const SuiteResult skip = run_suite(on, kBenchmarks, kInstrs, 1);
    const SuiteResult scalar = run_suite(off, kBenchmarks, kInstrs, 1);

    ASSERT_EQ(skip.per_benchmark.size(), scalar.per_benchmark.size());
    EXPECT_EQ(skip.hmean_ipc, scalar.hmean_ipc) << preset;
    Cycle skipped = 0;
    for (std::size_t i = 0; i < skip.per_benchmark.size(); ++i) {
      expect_identical(skip.per_benchmark[i], scalar.per_benchmark[i],
                       preset + "/" + kBenchmarks[i]);
      EXPECT_EQ(scalar.per_benchmark[i].cycles_skipped, 0u)
          << preset << ": skip-disabled run reported skipped cycles";
      skipped += skip.per_benchmark[i].cycles_skipped;
    }
    // The enabled run must exercise the fast path, or the A/B is vacuous.
    EXPECT_GT(skipped, 0u) << preset;
  }
}

// --- batched decode identity ------------------------------------------------

using workload::DynInst;
using workload::StreamChunk;
using workload::TraceSource;

/// Flattens @p n records out of the scalar next_stream() interface.
std::vector<DynInst> scalar_records(TraceSource& src, std::size_t n) {
  std::vector<DynInst> out;
  while (out.size() < n) {
    const StreamChunk chunk = src.next_stream();
    out.insert(out.end(), chunk.insts.begin(), chunk.insts.end());
  }
  out.resize(n);
  return out;
}

/// Pulls @p n records through fill() in growing odd-sized batches
/// (1, 3, 7, 15, ...) so batch edges land inside, at, and across stream
/// boundaries rather than conveniently aligning with them.
std::vector<DynInst> batched_records(TraceSource& src, std::size_t n) {
  std::vector<DynInst> out(n);
  std::size_t pos = 0;
  std::size_t batch = 1;
  while (pos < n) {
    const std::size_t want = std::min(batch, n - pos);
    const std::size_t got = src.fill(out.data() + pos, want);
    EXPECT_EQ(got, want) << "fill() short-changed an infinite source";
    pos += got;
    batch = batch * 2 + 1;
  }
  return out;
}

void expect_same_records(const std::vector<DynInst>& a,
                         const std::vector<DynInst>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const DynInst& x = a[i];
    const DynInst& y = b[i];
    const std::string at = what + " record " + std::to_string(i);
    ASSERT_EQ(x.pc, y.pc) << at;
    ASSERT_EQ(x.op, y.op) << at;
    ASSERT_EQ(x.dst, y.dst) << at;
    ASSERT_EQ(x.src1, y.src1) << at;
    ASSERT_EQ(x.src2, y.src2) << at;
    ASSERT_EQ(x.data_addr, y.data_addr) << at;
    ASSERT_EQ(x.next_pc, y.next_pc) << at;
    ASSERT_EQ(x.taken, y.taken) << at;
    ASSERT_EQ(x.ends_stream, y.ends_stream) << at;
    ASSERT_EQ(x.seq, y.seq) << at;
  }
}

TEST(BatchedDecode, GeneratorFillMatchesNextStream) {
  for (const char* bench : {"eon", "gzip", "mcf"}) {
    const workload::Program prog =
        workload::generate_program(workload::profile_for(bench), 7);
    workload::TraceGenerator scalar(prog, 42);
    workload::TraceGenerator batched(prog, 42);
    constexpr std::size_t kRecords = 20000;  // spans many region switches
    expect_same_records(scalar_records(scalar, kRecords),
                        batched_records(batched, kRecords), bench);
    // The flat view stops exactly at kRecords; the scalar one ran to
    // the end of its last chunk, so only >= holds there (and the live
    // call stacks may differ by that overshoot).
    EXPECT_GE(scalar.instructions(), kRecords) << bench;
    EXPECT_EQ(batched.instructions(), kRecords) << bench;
  }
}

TEST(BatchedDecode, ReplayFillMatchesNextStreamAcrossWrap) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("gcc"), 11);
  std::vector<DynInst> recorded;
  {
    workload::RecordingTraceSource recorder(prog, 42, &recorded);
    for (int i = 0; i < 60; ++i) (void)recorder.next_stream();
  }
  const auto image =
      std::make_shared<const std::vector<DynInst>>(recorded);
  workload::ReplayTraceSource scalar(image);
  workload::ReplayTraceSource batched(image);
  // Three laps: the identity must hold across the wrap seam, where the
  // replay source renumbers seq and re-anchors the stream walk.
  const std::size_t n = recorded.size() * 3 + recorded.size() / 2;
  expect_same_records(scalar_records(scalar, n),
                      batched_records(batched, n), "replay");
  EXPECT_EQ(batched.wraps(), 3u);
}

TEST(BatchedDecode, SlicedSourceDefaultFillMatchesNextStream) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("eon"), 5);
  // A slice start must be stream-aligned; derive one from the walk.
  std::uint64_t start = 0;
  {
    workload::TraceGenerator probe(prog, 42);
    for (int i = 0; i < 25; ++i) start += probe.next_stream().insts.size();
  }
  sample::SlicedTraceSource scalar(
      std::make_unique<workload::TraceGenerator>(prog, 42), start);
  sample::SlicedTraceSource batched(
      std::make_unique<workload::TraceGenerator>(prog, 42), start);
  EXPECT_EQ(scalar.skipped(), start);
  expect_same_records(scalar_records(scalar, 5000),
                      batched_records(batched, 5000), "sliced");
}

/// Advances @p src by @p k records through fill(), returning the last.
DynInst advance(TraceSource& src, std::size_t k) {
  std::vector<DynInst> buf(k);
  EXPECT_EQ(src.fill(buf.data(), k), k);
  return buf.back();
}

/// Three sources built by @p make, each advanced @p k records: a clone of
/// the third must match the first under fill() and the second under
/// next_stream(), and the third itself must go on undisturbed.
template <typename Make>
void expect_clone_continues(Make make, std::size_t k, const std::string& what) {
  const auto ref_fill = make();
  const auto ref_scalar = make();
  const auto src = make();
  (void)advance(*ref_fill, k);
  (void)advance(*ref_scalar, k);
  const DynInst last = advance(*src, k);
  ASSERT_FALSE(last.ends_stream) << what << ": clone point is not mid-stream";
  const std::unique_ptr<TraceSource> a = src->clone();
  const std::unique_ptr<TraceSource> b = src->clone();
  ASSERT_NE(a, nullptr) << what;
  ASSERT_NE(b, nullptr) << what;
  EXPECT_EQ(a->instructions(), k) << what;
  EXPECT_EQ(a->call_stack_pcs(64), ref_fill->call_stack_pcs(64)) << what;
  constexpr std::size_t kRecords = 4000;
  expect_same_records(batched_records(*ref_fill, kRecords),
                      batched_records(*a, kRecords), what + " fill");
  expect_same_records(scalar_records(*ref_scalar, kRecords),
                      scalar_records(*b, kRecords), what + " next_stream");
  const auto ref_src = make();
  (void)advance(*ref_src, k);
  expect_same_records(batched_records(*ref_src, kRecords),
                      batched_records(*src, kRecords), what + " original");
}

/// First k >= @p from whose k-th record does not end its stream.
template <typename Make>
std::size_t mid_stream_count(Make make, std::size_t from) {
  const auto probe = make();
  (void)advance(*probe, from - 1);
  for (std::size_t k = from;; ++k) {
    if (!advance(*probe, 1).ends_stream) return k;
  }
}

TEST(CursorClone, GeneratorCloneMidStreamContinuesIdentically) {
  for (const char* bench : {"eon", "gcc"}) {
    const workload::Program prog =
        workload::generate_program(workload::profile_for(bench), 3);
    const auto make = [&] {
      return std::make_unique<workload::TraceGenerator>(prog, 42);
    };
    expect_clone_continues(make, mid_stream_count(make, 12345), bench);
  }
}

TEST(CursorClone, ReplayCloneMidStreamContinuesAcrossWrap) {
  const workload::Program prog =
      workload::generate_program(workload::profile_for("gcc"), 11);
  std::vector<DynInst> recorded;
  {
    workload::RecordingTraceSource recorder(prog, 42, &recorded);
    for (int i = 0; i < 60; ++i) (void)recorder.next_stream();
    EXPECT_EQ(recorder.clone(), nullptr)
        << "a recording tee must not clone: the copy would record twice";
  }
  const auto image = std::make_shared<const std::vector<DynInst>>(recorded);
  const auto make = [&] {
    return std::make_unique<workload::ReplayTraceSource>(image);
  };
  // Clone a few records before the end of the lap: the continuation
  // crosses the wrap seam.
  expect_clone_continues(make, mid_stream_count(make, recorded.size() - 20),
                         "replay");
}

}  // namespace
}  // namespace prestage::sim
