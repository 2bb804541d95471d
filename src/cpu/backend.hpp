// The execution back-end: decode pipe, RUU (register update unit),
// scoreboard, data cache and in-order commit.
//
// Trace-driven timing model of the paper's Table 2 core: 4-wide
// fetch/issue/commit, 64-entry RUU, 15-stage pipeline (fetch +
// decode_stages to dispatch + execute/commit), 2-ported 1-cycle 32 KB
// D-cache with L2 behind the arbitrated bus (highest priority class).
// Wrong-path instructions occupy pipe and RUU slots and pollute D-cache
// LRU but never touch the scoreboard or commit counts; the culprit
// instruction's completion raises the recovery event.
#pragma once

#include <cstdint>
#include <vector>

#include "common/prestage_assert.hpp"
#include "common/ring_buffer.hpp"
#include "common/stats.hpp"
#include "cpu/config.hpp"
#include "cpu/oracle.hpp"
#include "frontend/fetch_engine.hpp"
#include "mem/cache.hpp"
#include "mem/memsys.hpp"
#include "workload/program.hpp"
#include "workload/trace.hpp"

namespace prestage::cpu {

class Backend final : public frontend::IFetchSink {
 public:
  Backend(const MachineConfig& cfg, Oracle& oracle,
          const workload::Program& program, mem::MemSystem& mem);

  // --- IFetchSink (fetch delivers into the decode pipe) -----------------
  [[nodiscard]] bool can_accept() const override { return !decode_.full(); }
  void accept(const frontend::FetchedInst& inst) override;

  // --- per-cycle stages (called by the CPU in order) --------------------
  void begin_cycle(Cycle now) { now_ = now; }

  /// True when a culprit instruction has completed execution and its
  /// misprediction must be recovered this cycle.
  [[nodiscard]] bool recovery_due(Cycle now) const;

  /// Squashes everything younger than the resolved culprit: the whole
  /// decode pipe and all younger RUU entries.
  void squash_younger_than_culprit();

  void tick_commit(Cycle now);
  void tick_issue(Cycle now);
  void tick_dispatch(Cycle now);

  // --- event-horizon planning (cpu/cpu.cpp fast-forward) ----------------

  /// Earliest cycle >= @p now at which any back-end stage would change
  /// state: a commit/recovery completion maturing, an unissued slot's
  /// sources becoming ready, or the decode front reaching dispatch age.
  /// Excludes outstanding-load wakeups (those ride the MemSystem
  /// horizon). <= @p now means the back-end has work this cycle;
  /// kNoCycle means only an external event can wake it.
  [[nodiscard]] Cycle next_event_cycle(Cycle now) const;

  /// Applies the per-cycle bookkeeping of @p n skipped idle cycles:
  /// the RUU occupancy sample every tick_dispatch takes, and the
  /// RUU-full stall count when the decode pipe is blocked on a full
  /// RUU. Must mirror tick_dispatch's frozen-state behavior exactly —
  /// golden pins byte-compare these counters.
  void fold_idle(std::uint64_t n);

  [[nodiscard]] std::uint64_t committed() const noexcept {
    return committed_;
  }
  [[nodiscard]] bool drained() const {
    return decode_.empty() && ruu_.empty();
  }

  /// Scoreboard: the cycle register @p r's newest value is ready.
  [[nodiscard]] Cycle reg_ready_at(RegId r) const {
    PRESTAGE_ASSERT(r < kNumRegs, "scoreboard read of a non-register");
    return reg_ready_[r];
  }

  // --- statistics -------------------------------------------------------
  Counter wrong_path_dispatched;
  Counter dcache_hits;
  Counter dcache_misses;
  Counter store_commits;
  Counter ruu_full_stalls;
  Distribution ruu_occupancy;

 private:
  struct Staged {
    frontend::FetchedInst f;
    std::uint64_t order = 0;
    Cycle ready_at = 0;  ///< cycle it may dispatch (decode latency)
  };

  struct Slot {
    frontend::FetchedInst f;
    std::uint64_t order = 0;  ///< 0 once popped by a squash
    OpClass op = OpClass::IntAlu;
    RegId dst = kNoReg;
    RegId src1 = kNoReg;
    RegId src2 = kNoReg;
    Addr data_addr = kNoAddr;
    Cycle done = kNoCycle;  ///< completion cycle; kNoCycle = outstanding
    bool issued = false;
  };

  [[nodiscard]] bool reg_ready(RegId r, Cycle now) const {
    return r == kNoReg || reg_ready_[r] <= now;
  }
  [[nodiscard]] static int exec_latency(OpClass op);
  void issue_one(Slot& s, Cycle now, std::uint32_t& loads_this_cycle);

  MachineConfig cfg_;
  Oracle& oracle_;
  const workload::Program& prog_;
  mem::MemSystem& mem_;
  mem::SetAssocCache l1d_;

  RingBuffer<Staged> decode_;
  RingBuffer<Slot> ruu_;  ///< ruu_size slots, oldest first
  // Hot-path indices over ruu_, in program order. A slot's storage never
  // moves (the ring is allocated once), so a Slot* stays valid for as
  // long as that occupant lives; once popped, the same address may hold
  // a younger instruction. Both lists drop a slot before it is popped:
  // commit pops only issued slots (never in unissued_, and an unhandled
  // culprit cannot reach commit because recovery fires first), and squash
  // prunes both lists alongside the slots it pops. A D-cache fill holds a
  // handle instead, the Slot* plus the order it was issued under:
  // squash zeroes the order of every slot it pops and orders are never
  // reused, so a fill whose load was squashed finds a different order
  // and leaves the slot, and its new occupant, alone. A live missing
  // load cannot commit before its fill (its done is unset until then).
  std::vector<Slot*> unissued_;  ///< dispatch order; tick_issue's scan set
  RingBuffer<Slot*> culprits_;   ///< unhandled culprits, oldest first
  Cycle reg_ready_[kNumRegs] = {};
  std::uint64_t next_order_ = 1;
  std::uint64_t committed_ = 0;
  Cycle now_ = 0;
};

}  // namespace prestage::cpu
