// WorkloadSpec adapter for the synthetic benchmark generator, and the
// cache that lets a batch run build each synthetic program once.
//
// A synthetic workload is a pure function of (benchmark, seed):
// SyntheticWorkloadSpec builds that program and hands out TraceGenerators
// over it. The Cpu builds one itself when MachineConfig carries no
// workload; the sampling profiler streams the same spec before any
// timing simulation runs, so a profile taken here aligns instruction-for-
// instruction with the trace a Cpu replays for the same config.
//
// ProgramCache lifetime rule. A batch run (campaign::run_campaign,
// run_points, and the sweep and ablation loops over sim::run_suite) owns
// one cache on its stack and fills MachineConfig::workload from it, so
// every point of a (benchmark, seed) borrows one immutable program image.
// The cache is
//  - scoped to that one batch: there is no process-wide program map, and
//    a program lives only while the cache or a Cpu still holds it;
//  - released before the campaign store is compacted, which holds two
//    copies of the store plus the parsed store at its peak;
//  - never prewarmed: a program is built on the first request for its
//    key, so set-up before the first point builds nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "workload/program.hpp"
#include "workload/spec.hpp"

namespace prestage::workload {

class SyntheticWorkloadSpec final : public WorkloadSpec {
 public:
  /// Builds the program the Cpu would build for (@p benchmark, @p seed).
  SyntheticWorkloadSpec(std::string benchmark, std::uint64_t seed);

  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] std::string name() const override { return benchmark_; }
  [[nodiscard]] std::unique_ptr<TraceSource> make_source(
      std::uint64_t seed) const override;

 private:
  std::string benchmark_;
  Program program_;
};

/// Thread-safe (benchmark, seed) -> SyntheticWorkloadSpec cache with one
/// build per key: concurrent callers of a key not yet built wait for the
/// one builder rather than building copies. See the lifetime rule above.
class ProgramCache {
 public:
  [[nodiscard]] std::shared_ptr<const SyntheticWorkloadSpec> get(
      const std::string& benchmark, std::uint64_t seed);

  /// Programs built so far (tests).
  [[nodiscard]] std::size_t builds() const;

 private:
  struct Entry {
    std::mutex build;  ///< held while this key's program is built
    std::shared_ptr<const SyntheticWorkloadSpec> spec;
  };

  std::mutex mutex_;  ///< guards the map, not the entries
  std::map<std::pair<std::string, std::uint64_t>, Entry> entries_;
  std::atomic<std::size_t> builds_{0};
};

}  // namespace prestage::workload
