#include "sample/sliced_source.hpp"

#include <algorithm>
#include <numeric>

#include "common/prestage_assert.hpp"

namespace prestage::sample {

SlicedTraceSource::SlicedTraceSource(
    std::unique_ptr<workload::TraceSource> inner, std::uint64_t start)
    : inner_(std::move(inner)), skipped_(start) {
  PRESTAGE_ASSERT(inner_ != nullptr, "sliced trace without a source");
  workload::skip_to(*inner_, start);
}

workload::StreamChunk SlicedTraceSource::next_stream() {
  workload::StreamChunk chunk = inner_->next_stream();
  for (workload::DynInst& inst : chunk.insts) {
    inst.seq = emitted_++;  // the Oracle's window starts at seq 0
  }
  return chunk;
}

std::size_t SlicedTraceSource::fill(workload::DynInst* out, std::size_t n) {
  const std::size_t got = inner_->fill(out, n);
  for (std::size_t i = 0; i < got; ++i) out[i].seq = emitted_++;
  return got;
}

SlicedWorkloadSpec::SlicedWorkloadSpec(
    std::shared_ptr<const workload::WorkloadSpec> base,
    std::uint64_t trace_seed,
    std::unique_ptr<const workload::TraceSource> cursor)
    : base_(std::move(base)),
      trace_seed_(trace_seed),
      start_(cursor ? cursor->instructions() : 0),
      cursor_(std::move(cursor)) {
  PRESTAGE_ASSERT(cursor_ != nullptr, "sliced workload without a cursor");
}

std::unique_ptr<workload::TraceSource> SlicedWorkloadSpec::make_source(
    std::uint64_t seed) const {
  if (seed != trace_seed_) {
    throw SimError("sliced workload '" + base_->name() +
                   "': its cursor was cut from trace seed " +
                   std::to_string(trace_seed_) + ", not " +
                   std::to_string(seed));
  }
  return std::make_unique<SlicedTraceSource>(cursor_->clone(), start_);
}

SliceCuts cut_slices(const std::shared_ptr<const workload::WorkloadSpec>& base,
                     std::uint64_t trace_seed, const SamplePlan& plan) {
  const std::vector<Slice>& slices = plan.slices;
  std::vector<std::size_t> order(slices.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slices[a].warm_start < slices[b].warm_start;
                   });
  const std::unique_ptr<workload::TraceSource> scout =
      base->make_source(trace_seed);
  SliceCuts cuts(slices.size());
  for (const std::size_t i : order) {
    try {
      workload::skip_to(*scout, slices[i].warm_start);
    } catch (const SimError& e) {
      throw SimError("cannot sample workload '" + base->name() +
                     "': " + e.what());
    }
    std::unique_ptr<workload::TraceSource> cursor = scout->clone();
    if (!cursor) {
      throw SimError("cannot sample workload '" + base->name() +
                     "': its trace source cannot clone");
    }
    cuts[i] = std::make_shared<const SlicedWorkloadSpec>(base, trace_seed,
                                                         std::move(cursor));
  }
  return cuts;
}

std::shared_ptr<const SliceCuts> SliceCutCache::get(
    const std::shared_ptr<const SamplePlan>& plan,
    const std::shared_ptr<const workload::WorkloadSpec>& base,
    std::uint64_t trace_seed) {
  Entry* entry = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Map nodes never move, so the entry outlives the lock.
    entry = &entries_[{plan.get(), base.get(), trace_seed}];
  }
  // Cut under the entry's own lock: other plans proceed meanwhile, and
  // callers of this one wait for the one walk. A cut that throws leaves
  // the entry empty, so the next caller retries and sees the same error.
  const std::lock_guard<std::mutex> lock(entry->cut);
  if (!entry->slices) {
    entry->slices = std::make_shared<const SliceCuts>(
        cut_slices(base, trace_seed, *plan));
    entry->plan = plan;
    entry->base = base;
    ++cuts_;
  }
  return entry->slices;
}

std::size_t SliceCutCache::cuts() const { return cuts_.load(); }

}  // namespace prestage::sample
