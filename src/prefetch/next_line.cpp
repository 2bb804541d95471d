#include "prefetch/next_line.hpp"

#include "common/prestage_assert.hpp"
#include "prefetch/registry.hpp"

namespace prestage::prefetch {

NextLinePrefetcher::NextLinePrefetcher(const NextLineConfig& config,
                                       mem::IFetchCaches& caches,
                                       mem::MemSystem& mem,
                                       const StagingBufferConfig& buffer)
    : StagingBuffer(buffer, caches, mem), config_(config) {
  PRESTAGE_ASSERT(config.degree >= 1);
}

void NextLinePrefetcher::on_line_request(Addr line, Cycle now) {
  for (std::uint32_t d = 1; d <= config_.degree; ++d) {
    const Addr target = line + static_cast<Addr>(d) * line_bytes();
    if (find(target) != nullptr) {
      sources_.add(FetchSource::PreBuffer);
      continue;
    }
    if (caches_.probe_l1(target) || caches_.probe_l0(target)) {
      sources_.add(FetchSource::L1);  // resident lines count as L1
      continue;
    }
    Entry* e = allocate();
    if (e == nullptr) return;
    fill_from_below(*e, target, now);
  }
}

void register_next_line_prefetcher(PrefetcherRegistry& r) {
  r.add({.name = "next-line",
         .label = "NL",
         .description = "next-N-line sequential prefetching (related-work "
                        "baseline, §2.1)",
         .build = [](const BuildInputs& in) {
           PrefetcherBuild b;
           b.queue = std::make_unique<frontend::FetchTargetQueue>(
               in.config.queue_blocks, in.config.line_bytes);
           b.prefetcher = std::make_unique<NextLinePrefetcher>(
               NextLineConfig{.degree = in.config.next_line_degree},
               in.caches, in.mem, buffer_config(in));
           return b;
         }});
}

}  // namespace prestage::prefetch
