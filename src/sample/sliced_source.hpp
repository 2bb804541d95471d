// Slice replay: hand a Cpu the trace from a plan slice's start onwards.
//
// Cost model. A sampled point simulates a handful of slices, each
// starting deep inside the trace. SliceWalk generates the trace once per
// point: one scout source walks forward through the slices' ascending
// warm-up starts (workload::skip_to, the batched fill() path) and leaves
// a clone() of itself at each. A point's trace work is therefore its
// largest slice start, not the sum of all of them, and a slice's own
// cost is the detailed simulation it asks for.
//
// SlicedWorkloadSpec holds one such positioned cursor and gives every
// Cpu built from it a fresh copy. SlicedTraceSource wraps that copy and
// renumbers sequence numbers from 0: the Oracle's commit window requires
// the first delivered seq to be 0. Profile intervals are stream-aligned
// by construction, so every slice start is a stream boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sample/plan.hpp"
#include "workload/spec.hpp"
#include "workload/trace.hpp"

namespace prestage::sample {

class SlicedTraceSource final : public workload::TraceSource {
 public:
  /// Positions @p inner at @p start with workload::skip_to (nothing to
  /// do for a cursor already there) and renumbers from there on.
  SlicedTraceSource(std::unique_ptr<workload::TraceSource> inner,
                    std::uint64_t start);

  [[nodiscard]] workload::StreamChunk next_stream() override;
  /// The inner batch path, renumbered.
  [[nodiscard]] std::size_t fill(workload::DynInst* out,
                                 std::size_t n) override;
  [[nodiscard]] std::uint64_t instructions() const override {
    return emitted_;
  }
  [[nodiscard]] std::vector<Addr> call_stack_pcs(
      std::size_t max_depth) const override {
    return inner_->call_stack_pcs(max_depth);
  }

  /// Instructions before the slice (== the slice start).
  [[nodiscard]] std::uint64_t skipped() const { return skipped_; }

 private:
  std::unique_ptr<workload::TraceSource> inner_;
  std::uint64_t skipped_ = 0;
  std::uint64_t emitted_ = 0;
};

/// WorkloadSpec wrapper handing a Cpu the sliced view of a base
/// workload: same program image, trace from a cursor cut at the slice
/// start.
class SlicedWorkloadSpec final : public workload::WorkloadSpec {
 public:
  /// @p cursor is a source of @p base made with @p trace_seed and
  /// advanced to the slice start.
  SlicedWorkloadSpec(std::shared_ptr<const workload::WorkloadSpec> base,
                     std::uint64_t trace_seed,
                     std::unique_ptr<const workload::TraceSource> cursor);

  [[nodiscard]] const workload::Program& program() const override {
    return base_->program();
  }
  [[nodiscard]] std::string name() const override { return base_->name(); }
  /// A copy of the cursor. Throws SimError when @p seed is not the trace
  /// seed the cursor was cut from: that trace is not the one asked for.
  [[nodiscard]] std::unique_ptr<workload::TraceSource> make_source(
      std::uint64_t seed) const override;

 private:
  std::shared_ptr<const workload::WorkloadSpec> base_;
  std::uint64_t trace_seed_;
  std::uint64_t start_;
  std::unique_ptr<const workload::TraceSource> cursor_;
};

/// Cuts the workloads of a plan's slices from one forward walk: a scout
/// source of the base workload visits the slices' warm-up starts in
/// ascending order and leaves a clone at each. Slices are cut on demand,
/// so a plan in ascending order (every built plan) holds one cursor at a
/// time; a checkpointed plan in another order still runs, holding the
/// slices the walk passed until they are taken.
class SliceWalk {
 public:
  /// @p plan must outlive the walk.
  SliceWalk(std::shared_ptr<const workload::WorkloadSpec> base,
            std::uint64_t trace_seed, const SamplePlan& plan);

  /// The workload slice @p i runs on; each slice is taken once. Throws
  /// SimError, naming the workload, when its source cannot clone or a
  /// warm-up start is not a stream boundary of its trace.
  [[nodiscard]] std::shared_ptr<const workload::WorkloadSpec> take(
      std::size_t i);

 private:
  std::shared_ptr<const workload::WorkloadSpec> base_;
  std::uint64_t trace_seed_;
  const std::vector<Slice>& slices_;
  std::vector<std::size_t> order_;  ///< slice indices by warm_start
  std::size_t next_ = 0;            ///< next position in order_ to cut
  std::unique_ptr<workload::TraceSource> scout_;
  std::vector<std::shared_ptr<const workload::WorkloadSpec>> cut_;
};

}  // namespace prestage::sample
