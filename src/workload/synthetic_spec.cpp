#include "workload/synthetic_spec.hpp"

#include "workload/generator.hpp"
#include "workload/profiles.hpp"
#include "workload/trace.hpp"

namespace prestage::workload {

SyntheticWorkloadSpec::SyntheticWorkloadSpec(std::string benchmark,
                                             std::uint64_t seed)
    : benchmark_(std::move(benchmark)),
      program_(generate_program(profile_for(benchmark_), seed)) {}

std::unique_ptr<TraceSource> SyntheticWorkloadSpec::make_source(
    std::uint64_t seed) const {
  return std::make_unique<TraceGenerator>(program_, seed);
}

std::shared_ptr<const SyntheticWorkloadSpec> ProgramCache::get(
    const std::string& benchmark, std::uint64_t seed) {
  Entry* entry = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Map nodes never move, so the entry outlives the lock.
    entry = &entries_[{benchmark, seed}];
  }
  // Build under the entry's own lock: other keys proceed meanwhile, and
  // callers of this key wait for the one build. A build that throws
  // (unknown benchmark) leaves the entry empty, so the next caller
  // retries and sees the same error.
  const std::lock_guard<std::mutex> lock(entry->build);
  if (!entry->spec) {
    entry->spec =
        std::make_shared<const SyntheticWorkloadSpec>(benchmark, seed);
    ++builds_;
  }
  return entry->spec;
}

std::size_t ProgramCache::builds() const { return builds_.load(); }

}  // namespace prestage::workload
