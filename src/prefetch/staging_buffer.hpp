// The conventional prefetch buffer (paper §3.1), shared by every scheme
// except CLGP: FDP, next-N-line, stream, MANA and program-map all derive
// from StagingBuffer and keep only their line generator, their learned
// tables and their own counters. CLGP's prestage buffer (§3.2.2,
// core::PrestageBuffer) is the mechanism the paper sets against this one.
//
//  * Entries: a small fully-associative pool of lines, probed by the
//    fetch stage in parallel with L0/L1 through the buffer's read port.
//  * Consume-and-promote: a fetch hit promotes the line out of the buffer
//    (to the L0 when present, else the L1) and frees the entry; a line
//    consumed while its fill is still in flight is promoted on arrival.
//  * Fills: a transfer from the L1's prefetch port has a known finish
//    cycle; an L2/memory fill completes through a MemSystem callback
//    guarded by the entry's generation, so a fill for an entry that was
//    reclaimed and reallocated meanwhile is dropped.
//  * stage(line, now) is the one-line issue path of the replay schemes:
//    it filters only against one-cycle structures (the buffer itself and
//    the L0), stages L1-resident lines *from* the L1 into one-cycle reach
//    (paper §3.1.1/§3.2.3), and fills everything else from below.
//
// Deviation from the paper's freed-only-on-use rule: entries whose lines
// arrived but were never consumed (wrong-path prefetches surviving a
// flush) are reclaimable in LRU order when no free entry exists; the
// strict rule would wedge the buffer after mispredictions. Entries still
// in flight are never reclaimed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/ifetch_caches.hpp"
#include "mem/memsys.hpp"
#include "prefetch/prefetcher.hpp"

namespace prestage::prefetch {

struct StagingBufferConfig {
  std::uint32_t entries = 8;      ///< buffer entries (lines)
  int latency = 1;                ///< buffer access latency
  bool pipelined = false;         ///< 16-entry buffers are pipelined (§5)
  std::uint32_t line_bytes = 64;  ///< line size (also storage accounting)
};

class StagingBuffer : public IPrefetcher {
 public:
  // Pending fill callbacks hold `this` and entry pointers.
  StagingBuffer(const StagingBuffer&) = delete;
  StagingBuffer& operator=(const StagingBuffer&) = delete;

  [[nodiscard]] PreBufferProbe probe(Addr line) const final;
  [[nodiscard]] int pb_latency() const final { return config_.latency; }
  [[nodiscard]] mem::LatencyPort* pb_port() final { return &port_; }
  void on_fetch_from_pb(Addr line, Cycle now) final;
  [[nodiscard]] const SourceBreakdown& prefetch_sources() const final {
    return sources_;
  }
  [[nodiscard]] std::uint64_t prefetches() const final {
    return prefetches_issued.value();
  }
  /// The buffer's data + tag + valid/in-flight bits; schemes with record
  /// tables add theirs on top.
  [[nodiscard]] std::uint64_t storage_bits() const override;

  Counter prefetches_issued;  ///< transfers started (L1/L2/mem)

 protected:
  struct Entry {
    Addr line = kNoAddr;
    Cycle ready = kNoCycle;  ///< arrival cycle; kNoCycle while unknown
    std::uint64_t lru = 0;
    std::uint64_t gen = 0;  ///< reallocation guard for fill callbacks
    bool allocated = false;
    bool valid = false;            ///< data arrived
    bool promote_on_fill = false;  ///< consumed while in flight
  };

  StagingBuffer(const StagingBufferConfig& config, mem::IFetchCaches& caches,
                mem::MemSystem& mem);

  /// Stages @p line unless it is one cycle away (see header). Dropped when
  /// every entry is in flight or the L1 prefetch port is busy.
  void stage(Addr line, Cycle now);

  [[nodiscard]] Entry* find(Addr line) {
    for (Entry& e : entries_) {
      if (e.allocated && e.line == line) return &e;
    }
    return nullptr;
  }
  [[nodiscard]] const Entry* find(Addr line) const {
    return const_cast<StagingBuffer*>(this)->find(line);
  }
  /// A free entry, else the LRU arrived entry; nullptr when every entry
  /// is in flight.
  [[nodiscard]] Entry* allocate();
  /// Would allocate() succeed right now?
  [[nodiscard]] bool can_allocate() const;
  /// Takes @p e for @p line, not yet valid, with data due at @p ready.
  void claim(Entry& e, Addr line, Cycle ready);
  /// Claims @p e for @p line and submits its fill to L2/memory.
  void fill_from_below(Entry& e, Addr line, Cycle now);
  /// @p e's data arrived: it becomes valid, or is promoted and freed when
  /// fetch consumed it in flight.
  void arrive(Entry& e);

  [[nodiscard]] std::vector<Entry>& entries() { return entries_; }
  [[nodiscard]] std::uint32_t line_bytes() const {
    return config_.line_bytes;
  }

  mem::IFetchCaches& caches_;
  SourceBreakdown sources_;

 private:
  void promote_and_free(Entry& e);

  StagingBufferConfig config_;
  mem::MemSystem& mem_;
  mem::LatencyPort port_;
  std::vector<Entry> entries_;
  std::uint64_t lru_clock_ = 0;
};

}  // namespace prestage::prefetch
