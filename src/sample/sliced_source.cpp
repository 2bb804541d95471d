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

SliceWalk::SliceWalk(std::shared_ptr<const workload::WorkloadSpec> base,
                     std::uint64_t trace_seed, const SamplePlan& plan)
    : base_(std::move(base)),
      trace_seed_(trace_seed),
      slices_(plan.slices),
      order_(plan.slices.size()),
      scout_(base_->make_source(trace_seed)),
      cut_(plan.slices.size()) {
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return slices_[a].warm_start < slices_[b].warm_start;
                   });
}

std::shared_ptr<const workload::WorkloadSpec> SliceWalk::take(std::size_t i) {
  PRESTAGE_ASSERT(i < cut_.size(), "slice index out of range");
  while (!cut_[i]) {
    PRESTAGE_ASSERT(next_ < order_.size(), "slice taken twice");
    const std::size_t j = order_[next_++];
    try {
      workload::skip_to(*scout_, slices_[j].warm_start);
    } catch (const SimError& e) {
      throw SimError("cannot sample workload '" + base_->name() +
                     "': " + e.what());
    }
    std::unique_ptr<workload::TraceSource> cursor = scout_->clone();
    if (!cursor) {
      throw SimError("cannot sample workload '" + base_->name() +
                     "': its trace source cannot clone");
    }
    cut_[j] = std::make_shared<const SlicedWorkloadSpec>(base_, trace_seed_,
                                                         std::move(cursor));
  }
  return std::move(cut_[i]);
}

}  // namespace prestage::sample
