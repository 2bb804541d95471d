// Slice replay: hand a Cpu the trace from a plan slice's start onwards.
//
// Cost model. A sampled point simulates a handful of slices, each
// starting deep inside the trace. cut_slices() generates the trace once
// per plan: one scout source walks forward through the slices' ascending
// warm-up starts (workload::skip_to, the batched fill() path) and leaves
// a clone() of itself at each. Reaching the slices therefore costs the
// largest slice start, not the sum of all of them. A batch run (campaign
// run_campaign and run_points) keeps the cuts in a SliceCutCache, so the
// schemes of a grid that share a plan share its cuts too: the walk is
// paid once per plan per batch, by the point that cuts first, and a
// slice's own cost is the detailed simulation it asks for.
//
// SlicedWorkloadSpec holds one such positioned cursor and gives every
// Cpu built from it a fresh copy. SlicedTraceSource wraps that copy and
// renumbers sequence numbers from 0: the Oracle's commit window requires
// the first delivered seq to be 0. Profile intervals are stream-aligned
// by construction, so every slice start is a stream boundary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
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

/// The workloads a plan's slices run on, in slice-index order.
using SliceCuts = std::vector<std::shared_ptr<const workload::WorkloadSpec>>;

/// Cuts every slice of @p plan from one forward walk: a scout source of
/// @p base (made with @p trace_seed) visits the slices' warm-up starts in
/// ascending order and leaves a clone at each, so a checkpointed plan in
/// any slice order cuts with one walk too. Throws SimError, naming the
/// workload, when the source cannot clone or a warm-up start is not a
/// stream boundary of its trace.
[[nodiscard]] SliceCuts cut_slices(
    const std::shared_ptr<const workload::WorkloadSpec>& base,
    std::uint64_t trace_seed, const SamplePlan& plan);

/// Thread-safe (plan, base workload, trace seed) -> SliceCuts cache with
/// one cut per key: concurrent callers of a key not yet cut wait for the
/// one cutter rather than walking the trace again. Keys are object
/// identities, so the schemes of a grid hit only when they share the
/// plan (the process-wide plan cache) and the base workload (a
/// workload::ProgramCache). It follows ProgramCache's lifetime rule
/// (synthetic_spec.hpp): scoped to one batch, never prewarmed, released
/// before the campaign store is compacted.
class SliceCutCache {
 public:
  [[nodiscard]] std::shared_ptr<const SliceCuts> get(
      const std::shared_ptr<const SamplePlan>& plan,
      const std::shared_ptr<const workload::WorkloadSpec>& base,
      std::uint64_t trace_seed);

  /// Plans cut so far (tests).
  [[nodiscard]] std::size_t cuts() const;

 private:
  struct Entry {
    std::mutex cut;  ///< held while this key's slices are cut
    // The key's objects stay alive with the entry, so their addresses
    // are never reused for another key while the cache lives.
    std::shared_ptr<const SamplePlan> plan;
    std::shared_ptr<const workload::WorkloadSpec> base;
    std::shared_ptr<const SliceCuts> slices;
  };
  // Object identities: the map is only looked up, never iterated, so no
  // address ever orders anything a run reports.
  using Key = std::tuple<const SamplePlan*, const workload::WorkloadSpec*,
                         std::uint64_t>;

  std::mutex mutex_;  ///< guards the map, not the entries
  std::map<Key, Entry> entries_;
  std::atomic<std::size_t> cuts_{0};
};

}  // namespace prestage::sample
