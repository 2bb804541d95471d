// A complete workload: the static program image plus a factory for the
// dynamic instruction source that executes over it.
//
// MachineConfig carries an optional WorkloadSpec; when present, the CPU
// borrows the spec's basic-block dictionary and draws its oracle trace
// from it instead of synthesizing a benchmark from (benchmark name,
// seed). This is how recorded trace files and imported external traces
// (ChampSim) drive the full simulation pipeline, including run_suite
// sweeps, and how batch runs share one synthetic program per
// (benchmark, seed) through a ProgramCache (synthetic_spec.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "workload/program.hpp"
#include "workload/trace.hpp"

namespace prestage::workload {

class WorkloadSpec {
 public:
  virtual ~WorkloadSpec() = default;

  /// The static program image (basic-block dictionary) the trace runs
  /// over. Must stay valid and unchanged for the lifetime of the spec:
  /// every Cpu built from the spec reads it in place.
  [[nodiscard]] virtual const Program& program() const = 0;

  /// Label used where a benchmark name would appear in reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Creates the dynamic instruction source for one simulation. Called
  /// once per Cpu; implementations shared across run_parallel workers
  /// must be safe to call concurrently (recording specs are the
  /// documented single-run exception).
  [[nodiscard]] virtual std::unique_ptr<TraceSource> make_source(
      std::uint64_t seed) const = 0;
};

}  // namespace prestage::workload
