#include "sim/experiment.hpp"

#include <cstdlib>

#include "common/parallel.hpp"
#include "common/prestage_assert.hpp"
#include "workload/profiles.hpp"
#include "workload/synthetic_spec.hpp"

namespace prestage::sim {

SourceBreakdown SuiteResult::fetch_sources() const {
  SourceBreakdown total;
  for (const auto& r : per_benchmark) {
    for (int i = 0; i < kNumFetchSources; ++i) {
      const auto s = static_cast<FetchSource>(i);
      total.add(s, r.fetch_sources.count(s));
    }
  }
  return total;
}

SourceBreakdown SuiteResult::prefetch_sources() const {
  SourceBreakdown total;
  for (const auto& r : per_benchmark) {
    for (int i = 0; i < kNumFetchSources; ++i) {
      const auto s = static_cast<FetchSource>(i);
      total.add(s, r.prefetch_sources.count(s));
    }
  }
  return total;
}

std::uint64_t default_instructions() {
  if (const char* env = std::getenv("PRESTAGE_INSTRS")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 120000;
}

std::vector<std::string> full_suite() {
  std::vector<std::string> names;
  names.reserve(workload::kNumBenchmarks);
  for (const auto n : workload::benchmark_names()) names.emplace_back(n);
  return names;
}

std::vector<cpu::RunResult> run_parallel(
    const std::vector<cpu::MachineConfig>& configs, unsigned workers,
    workload::ProgramCache* programs) {
  std::vector<cpu::RunResult> results(configs.size());
  parallel_for_indexed(configs.size(), workers, [&](std::size_t i) {
    cpu::MachineConfig cfg = configs[i];
    if (programs != nullptr && !cfg.workload) {
      cfg.workload = programs->get(cfg.benchmark, cfg.seed);
    }
    cpu::Cpu machine(cfg);
    results[i] = machine.run();
  });
  return results;
}

SuiteResult run_suite(const cpu::MachineConfig& cfg,
                      const std::vector<std::string>& benchmarks,
                      std::uint64_t instructions, unsigned workers,
                      workload::ProgramCache* programs) {
  const std::uint64_t instrs =
      instructions > 0 ? instructions : default_instructions();
  std::vector<cpu::MachineConfig> configs;
  configs.reserve(benchmarks.size());
  for (const auto& bench : benchmarks) {
    cpu::MachineConfig c = cfg;
    c.benchmark = bench;
    c.max_instructions = instrs;
    configs.push_back(c);
  }
  SuiteResult suite;
  suite.per_benchmark = run_parallel(configs, workers, programs);
  suite.host = aggregate_host_perf(suite.per_benchmark);
  std::vector<double> ipcs;
  ipcs.reserve(suite.per_benchmark.size());
  for (const auto& r : suite.per_benchmark) ipcs.push_back(r.ipc);
  suite.hmean_ipc = harmonic_mean(ipcs);
  return suite;
}

}  // namespace prestage::sim
