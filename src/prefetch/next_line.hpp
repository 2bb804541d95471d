// Next-N-line prefetching (Smith, 1982; paper §2.1): the classic
// sequential scheme included as a related-work baseline for ablations.
//
// Every demand line request triggers prefetches of the next N sequential
// lines into a StagingBuffer, filtered against the L1, the L0 and the
// buffer itself.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "prefetch/staging_buffer.hpp"

namespace prestage::prefetch {

struct NextLineConfig {
  std::uint32_t degree = 2;  ///< lines prefetched ahead
};

class NextLinePrefetcher final : public StagingBuffer {
 public:
  NextLinePrefetcher(const NextLineConfig& config, mem::IFetchCaches& caches,
                     mem::MemSystem& mem,
                     const StagingBufferConfig& buffer = {});

  void on_line_request(Addr line, Cycle now) override;
  void tick(Cycle /*now*/) override {}
  [[nodiscard]] IdlePlan idle_plan(Cycle) override {
    // All work happens in on_line_request (fetch is busy then); entry
    // arrivals come through MemSystem callbacks or fetch-side probes.
    return {kNoCycle, nullptr};
  }
  void on_recovery(Cycle now) override { (void)now; }

 private:
  NextLineConfig config_;
};

}  // namespace prestage::prefetch
