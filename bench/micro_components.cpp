// Google-benchmark microbenchmarks of the simulator's core data
// structures: these bound the simulator's own throughput (the "substrate
// performance" of the reproduction, not the paper's results). Cache
// kernels live in bench/micro/micro_cache.cpp.
#include <benchmark/benchmark.h>

#include <memory>

#include "bpred/stream_predictor.hpp"
#include "core/prestage_buffer.hpp"
#include "cpu/cpu.hpp"
#include "workload/generator.hpp"
#include "workload/synthetic_spec.hpp"
#include "workload/trace.hpp"

namespace {

using namespace prestage;

void BM_StreamPredictorLookup(benchmark::State& state) {
  bpred::StreamPredictor sp({1024, 6144, 4});
  for (Addr s = 0; s < 512; ++s) {
    sp.train({0x10000 + s * 0x40, 12, 0x10000 + s * 0x40 + 0x30});
  }
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sp.predict(0x10000 + rng.below(512) * 0x40));
  }
}
BENCHMARK(BM_StreamPredictorLookup);

void BM_StreamPredictorTrain(benchmark::State& state) {
  bpred::StreamPredictor sp({1024, 6144, 4});
  Rng rng(3);
  for (auto _ : state) {
    const Addr s = 0x10000 + rng.below(2048) * 0x40;
    sp.train({s, 10, s + 0x28});
  }
}
BENCHMARK(BM_StreamPredictorTrain);

void BM_PrestageBufferScanOps(benchmark::State& state) {
  core::PrestageBuffer pb(static_cast<std::uint32_t>(state.range(0)));
  Rng rng(4);
  for (auto _ : state) {
    const Addr line = rng.below(64) * 64;
    if (auto* e = pb.find(line)) {
      benchmark::DoNotOptimize(e);
      pb.on_fetch(line);
    } else if (auto* slot = pb.allocate(line)) {
      slot->valid = true;
      slot->consumers = 0;
    }
  }
}
BENCHMARK(BM_PrestageBufferScanOps)->Arg(4)->Arg(16);

void BM_TraceGeneration(benchmark::State& state) {
  const auto prog = workload::generate_program(
      workload::profile_for("gcc"));
  workload::TraceGenerator walker(prog, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.next_stream());
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_ProgramGeneration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::generate_program(
        workload::profile_for("twolf"), ++seed));
  }
}
BENCHMARK(BM_ProgramGeneration);

// What a batch point still pays to build its machine once the program
// comes from a shared ProgramCache spec: the Cpu borrows the image, so
// this is the construction cost left beside BM_ProgramGeneration.
void BM_CpuConstructShared(benchmark::State& state) {
  cpu::MachineConfig cfg;
  cfg.benchmark = "gcc";
  cfg.prefetcher = "clgp";
  cfg.workload =
      std::make_shared<const workload::SyntheticWorkloadSpec>("gcc", 1);
  for (auto _ : state) {
    cpu::Cpu machine(cfg);
    benchmark::DoNotOptimize(&machine);
  }
}
BENCHMARK(BM_CpuConstructShared);

}  // namespace

BENCHMARK_MAIN();
