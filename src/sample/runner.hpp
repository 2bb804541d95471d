// Sampled execution of one machine configuration.
//
// run_sampled_point() replaces Cpu::run() for a run point with sampling
// enabled: it fetches (or builds) the workload's SamplePlan, simulates
// each representative slice on the requested machine shape — functional
// i-cache warm-up from the slice checkpoint, learned prefetcher state
// carried forward through IPrefetcher::save/restore with a conservative
// cold restart when a scheme declines — and reconstructs whole-run
// statistics as the weighted combination of per-slice rates, with a
// confidence half-width on IPC.
//
// Error model: the half-width is the larger of (a) a relative floor
// (kMinRelativeIpcErrorPct — sampling bias the spread cannot see) and
// (b) 1.96 x the standard error of the weighted cluster-CPI mean,
// treating the profiled intervals as draws from the cluster mixture.
#pragma once

#include <cstdint>
#include <memory>

#include "cpu/config.hpp"
#include "cpu/cpu.hpp"
#include "sample/params.hpp"
#include "sample/plan.hpp"

namespace prestage::sample {

/// Relative IPC-error floor (percent) applied to every sampled estimate.
inline constexpr double kMinRelativeIpcErrorPct = 5.0;

class SliceCutCache;

/// Runs @p cfg sampled under @p params. cfg.max_instructions is the
/// full-run budget being estimated. Uses the process-wide plan cache, so
/// grid neighbors (other presets/L1 sizes/nodes of the same workload)
/// profile only once. With @p slice_cuts (a batch's cache, see
/// sliced_source.hpp) they also walk the trace to the slices only once;
/// without it the point cuts its own slices.
[[nodiscard]] cpu::RunResult run_sampled_point(
    const cpu::MachineConfig& cfg, const ResolvedSamplingParams& params,
    SliceCutCache* slice_cuts = nullptr);

/// Same, but against an explicit plan (CLI `sample run --plan`,
/// checkpoint round-trip tests). @p base must be the workload the plan
/// was built from. Cuts the plan's slices itself, every call.
[[nodiscard]] cpu::RunResult run_sampled_point_with_plan(
    const cpu::MachineConfig& cfg,
    const std::shared_ptr<const workload::WorkloadSpec>& base,
    const SamplePlan& plan);

/// The workload a config samples over: cfg.workload when set (campaigns
/// fill it from their batch ProgramCache, which is what lets the batch's
/// SliceCutCache hit), else a freshly built synthetic spec for
/// (benchmark, seed) — the one the Cpu would build.
[[nodiscard]] std::shared_ptr<const workload::WorkloadSpec> base_workload(
    const cpu::MachineConfig& cfg);

}  // namespace prestage::sample
