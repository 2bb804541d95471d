// Experiment runner: executes machine configurations over the benchmark
// suite, in parallel across worker threads (each simulation is an
// independent Cpu instance), and aggregates per-benchmark results the way
// the paper reports them (harmonic mean for IPC bars).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/config.hpp"
#include "cpu/cpu.hpp"
#include "sim/report.hpp"

namespace prestage::workload {
class ProgramCache;
}  // namespace prestage::workload

namespace prestage::sim {

/// One simulation across the whole suite (or a subset).
struct SuiteResult {
  std::vector<cpu::RunResult> per_benchmark;
  double hmean_ipc = 0.0;
  /// Aggregated host telemetry over the suite (worker-seconds summed).
  HostPerf host;

  /// Aggregated fetch-source distribution over the suite.
  [[nodiscard]] SourceBreakdown fetch_sources() const;
  /// Aggregated prefetch-source distribution over the suite.
  [[nodiscard]] SourceBreakdown prefetch_sources() const;
};

/// Default instruction budget per benchmark run. Override with the
/// PRESTAGE_INSTRS environment variable (bench harnesses honour it).
[[nodiscard]] std::uint64_t default_instructions();

/// Runs @p cfg (benchmark/name fields overridden per benchmark) over the
/// named benchmarks. @p instructions of 0 selects default_instructions();
/// @p workers of 0 selects the hardware concurrency. @p programs is passed
/// on to run_parallel.
[[nodiscard]] SuiteResult run_suite(const cpu::MachineConfig& cfg,
                                    const std::vector<std::string>& benchmarks,
                                    std::uint64_t instructions = 0,
                                    unsigned workers = 0,
                                    workload::ProgramCache* programs = nullptr);

/// All 12 SPECint2000-like benchmark names.
[[nodiscard]] std::vector<std::string> full_suite();

/// Runs a list of independent configurations in parallel (work-stealing
/// over common/parallel.hpp); results are returned in input order and
/// are identical for any worker count (each simulation is a fully
/// independent Cpu instance). @p workers of 0 selects the hardware
/// concurrency. A config without a workload takes its program from
/// @p programs when given; a caller that runs the same (benchmark, seed)
/// over several calls (sweep's sizes, an ablation's variants) passes one
/// cache to all of them. Null lets each Cpu build its own, which is no
/// more work when every config of the call has a distinct key.
[[nodiscard]] std::vector<cpu::RunResult> run_parallel(
    const std::vector<cpu::MachineConfig>& configs, unsigned workers = 0,
    workload::ProgramCache* programs = nullptr);

}  // namespace prestage::sim
