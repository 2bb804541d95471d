#include "prefetch/staging_buffer.hpp"

#include "cacti/storage.hpp"
#include "common/prestage_assert.hpp"

namespace prestage::prefetch {

StagingBuffer::StagingBuffer(const StagingBufferConfig& config,
                             mem::IFetchCaches& caches, mem::MemSystem& mem)
    : caches_(caches),
      config_(config),
      mem_(mem),
      port_(config.latency, config.pipelined),
      entries_(config.entries) {
  PRESTAGE_ASSERT(config.entries >= 1);
}

StagingBuffer::Entry* StagingBuffer::allocate() {
  Entry* victim = nullptr;
  for (Entry& e : entries_) {
    if (!e.allocated) return &e;
  }
  // LRU fallback over arrived-but-unused entries (see header).
  for (Entry& e : entries_) {
    if (!e.valid) continue;  // in-flight entries cannot be reclaimed
    if (victim == nullptr || e.lru < victim->lru) victim = &e;
  }
  return victim;
}

bool StagingBuffer::can_allocate() const {
  for (const Entry& e : entries_) {
    if (!e.allocated || e.valid) return true;
  }
  return false;
}

void StagingBuffer::claim(Entry& e, Addr line, Cycle ready) {
  e = Entry{line, ready, ++lru_clock_, e.gen + 1, true, false, false};
}

void StagingBuffer::fill_from_below(Entry& e, Addr line, Cycle now) {
  claim(e, line, kNoCycle);
  Entry* slot = &e;
  const std::uint64_t gen = e.gen;
  mem_.submit(mem::ReqType::IPrefetch, line, now,
              [this, slot, gen](FetchSource src, Cycle ready) {
                if (!slot->allocated || slot->gen != gen) {
                  return;  // entry was reclaimed meanwhile
                }
                slot->ready = ready;
                sources_.add(src);
                arrive(*slot);
              });
  prefetches_issued.add();
}

void StagingBuffer::arrive(Entry& e) {
  e.valid = true;
  if (e.promote_on_fill) promote_and_free(e);
}

void StagingBuffer::promote_and_free(Entry& e) {
  // Paper §3.1/§3.1.1: a used line moves to the I-cache (L0 if present),
  // and the entry becomes available for new prefetches.
  caches_.fill_promoted(e.line);
  e.allocated = false;
  e.valid = false;
  e.promote_on_fill = false;
}

PreBufferProbe StagingBuffer::probe(Addr line) const {
  const Entry* e = find(line);
  if (e == nullptr) return {};
  return PreBufferProbe{true, e->ready};
}

void StagingBuffer::on_fetch_from_pb(Addr line, Cycle now) {
  (void)now;
  Entry* e = find(line);
  PRESTAGE_ASSERT(e != nullptr, "PB consume of absent line");
  if (e->valid) {
    promote_and_free(*e);
  } else {
    e->promote_on_fill = true;
  }
}

void StagingBuffer::stage(Addr line, Cycle now) {
  if (find(line) != nullptr) {
    sources_.add(FetchSource::PreBuffer);
    return;
  }
  if (caches_.probe_l0(line)) {
    sources_.add(FetchSource::L0);
    return;
  }
  Entry* e = allocate();
  if (e == nullptr) return;  // all entries in flight: drop the request
  if (!caches_.probe_l1(line)) {
    fill_from_below(*e, line, now);
    return;
  }
  if (!caches_.prefetch_port().can_accept(now)) return;
  claim(*e, line, caches_.prefetch_port().issue(now));
  e->valid = true;  // usable at once: probe reports the arrival cycle
  sources_.add(FetchSource::L1);
  prefetches_issued.add();
}

std::uint64_t StagingBuffer::storage_bits() const {
  return cacti::line_buffer_bits(config_.entries, config_.line_bytes, 2);
}

}  // namespace prestage::prefetch
