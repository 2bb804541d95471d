#include "cpu/backend.hpp"

#include <algorithm>

#include "common/prestage_assert.hpp"
#include "frontend/fetch_types.hpp"

namespace prestage::cpu {

Backend::Backend(const MachineConfig& cfg, Oracle& oracle,
                 const workload::Program& program, mem::MemSystem& mem)
    : cfg_(cfg),
      oracle_(oracle),
      prog_(program),
      mem_(mem),
      l1d_(cfg.l1d_size, cfg.line_bytes, cfg.l1d_assoc),
      decode_(static_cast<std::size_t>(cfg.decode_stages) * cfg.width),
      ruu_(cfg.ruu_size),
      culprits_(cfg.ruu_size) {
  unissued_.reserve(cfg.ruu_size);
}

void Backend::accept(const frontend::FetchedInst& inst) {
  PRESTAGE_ASSERT(!decode_.full(), "accept into full decode pipe");
  decode_.emplace(inst, next_order_++,
                  now_ + static_cast<Cycle>(cfg_.decode_stages));
}

bool Backend::recovery_due(Cycle now) const {
  if (culprits_.empty()) return false;
  const Slot& s = *culprits_.front();
  return s.done != kNoCycle && s.done <= now;
}

void Backend::squash_younger_than_culprit() {
  PRESTAGE_ASSERT(!culprits_.empty(), "squash without a resolved culprit");
  const std::uint64_t culprit_order = culprits_.front()->order;
  (void)culprits_.pop();
  while (!culprits_.empty() && culprits_.back()->order > culprit_order) {
    culprits_.pop_back_n(1);
  }
  while (!unissued_.empty() && unissued_.back()->order > culprit_order) {
    unissued_.pop_back();
  }
  while (!ruu_.empty() && ruu_.back().order > culprit_order) {
    ruu_.back().order = 0;  // voids any fill still in flight for it
    ruu_.pop_back_n(1);
  }
  decode_.clear();
}

int Backend::exec_latency(OpClass op) {
  switch (op) {
    case OpClass::IntMult: return 3;
    case OpClass::FpAlu: return 2;
    default: return 1;
  }
}

void Backend::issue_one(Slot& s, Cycle now, std::uint32_t& loads_this_cycle) {
  s.issued = true;
  if (s.op == OpClass::Load) {
    ++loads_this_cycle;
    const Addr line = line_align(s.data_addr, cfg_.line_bytes);
    if (s.f.wrong_path) {
      // Wrong-path loads disturb D-cache LRU but are modelled with a
      // fixed completion and no bus traffic (squashed before retirement).
      (void)l1d_.access(line);
      s.done = now + 3;
      return;
    }
    if (l1d_.access(line)) {
      dcache_hits.add();
      s.done = now + 1;
      return;
    }
    dcache_misses.add();
    mem_.submit(mem::ReqType::Data, line, now,
                [this, slot = &s, order = s.order, line](FetchSource,
                                                         Cycle ready) {
                  const auto ev = l1d_.insert(line);
                  if (ev.has_value() && ev->dirty) {
                    mem_.submit_writeback(ev->line, ready);
                  }
                  if (slot->order != order) return;  // squashed meanwhile
                  slot->done = ready + 1;
                  // Wake dependents through the scoreboard now, not at
                  // commit.
                  if (slot->dst != kNoReg && !slot->f.wrong_path &&
                      reg_ready_[slot->dst] < slot->done) {
                    reg_ready_[slot->dst] = slot->done;
                  }
                });
    s.done = kNoCycle;  // completed by the fill callback
    return;
  }
  s.done = now + static_cast<Cycle>(exec_latency(s.op));
}

void Backend::tick_issue(Cycle now) {
  // Walks only the unissued slots (program order), compacting issued
  // ones out of the index in the same pass — same selection the full
  // RUU scan made, without re-visiting issued slots every cycle.
  std::uint32_t issued = 0;
  std::uint32_t loads = 0;
  std::size_t keep = 0;
  std::size_t i = 0;
  for (; i < unissued_.size() && issued < cfg_.width; ++i) {
    Slot& s = *unissued_[i];
    if (!reg_ready(s.src1, now) || !reg_ready(s.src2, now) ||
        (s.op == OpClass::Load && loads >= cfg_.l1d_ports)) {
      unissued_[keep++] = unissued_[i];
      continue;
    }
    issue_one(s, now, loads);
    ++issued;
    if (s.done != kNoCycle && s.dst != kNoReg && !s.f.wrong_path) {
      reg_ready_[s.dst] = s.done;
    }
  }
  if (keep != i) {
    for (; i < unissued_.size(); ++i) unissued_[keep++] = unissued_[i];
    unissued_.resize(keep);
  }
}

void Backend::tick_commit(Cycle now) {
  std::uint32_t retired = 0;
  while (!ruu_.empty() && retired < cfg_.width) {
    Slot& head = ruu_.front();
    if (!head.issued || head.done == kNoCycle || head.done > now) break;
    PRESTAGE_ASSERT(!head.f.wrong_path,
                    "wrong-path instruction reached commit");
    if (head.op == OpClass::Store) {
      const Addr line = line_align(head.data_addr, cfg_.line_bytes);
      const auto ev = l1d_.insert(line, /*dirty=*/true);
      if (ev.has_value() && ev->dirty) {
        mem_.submit_writeback(ev->line, now);
      }
      store_commits.add();
    }
    ++committed_;
    oracle_.release_below(head.f.oracle_seq);
    (void)ruu_.pop();
    ++retired;
  }
}

Cycle Backend::next_event_cycle(Cycle now) const {
  // `now` is the floor every candidate clamps to, so the first candidate
  // that lands on it ends the search — on the busy path (the cycle
  // skip's most common probe outcome) this returns after one or two
  // comparisons instead of scanning the RUU.
  Cycle next = kNoCycle;
  const auto consider = [&next, now](Cycle at) {
    const Cycle c = std::max(now, at);
    if (c < next) next = c;
  };
  // Commit: the head retires when its completion time arrives. An
  // outstanding load head (done == kNoCycle) is woken by a MemSystem
  // completion, which that unit's horizon covers.
  if (!ruu_.empty()) {
    const Slot& head = ruu_.front();
    if (head.issued && head.done != kNoCycle) {
      if (head.done <= now) return now;
      consider(head.done);
    }
  }
  // Recovery: the first unhandled culprit triggers it when it completes
  // (recovery_due looks only at that slot).
  if (!culprits_.empty()) {
    const Slot& s = *culprits_.front();
    if (s.done != kNoCycle) {
      if (s.done <= now) return now;
      consider(s.done);
    }
  }
  // Issue: the first cycle any unissued slot has both sources ready
  // (same scoreboard read tick_issue performs).
  for (const Slot* sp : unissued_) {
    const Slot& s = *sp;
    Cycle ready = 0;
    if (s.src1 != kNoReg && reg_ready_[s.src1] > ready) {
      ready = reg_ready_[s.src1];
    }
    if (s.src2 != kNoReg && reg_ready_[s.src2] > ready) {
      ready = reg_ready_[s.src2];
    }
    if (ready <= now) return now;
    consider(ready);
  }
  // Dispatch: the decode front matures at its decode-latency age. With
  // a full RUU dispatch is frozen until commit retires (covered above).
  if (!decode_.empty() && ruu_.size() < cfg_.ruu_size) {
    if (decode_.front().ready_at <= now) return now;
    consider(decode_.front().ready_at);
  }
  return next;
}

void Backend::fold_idle(std::uint64_t n) {
  ruu_occupancy.sample_n(static_cast<double>(ruu_.size()), n);
  if (!decode_.empty() && ruu_.size() >= cfg_.ruu_size) {
    ruu_full_stalls.add(n);
  }
}

void Backend::tick_dispatch(Cycle now) {
  ruu_occupancy.sample(static_cast<double>(ruu_.size()));
  std::uint32_t dispatched = 0;
  while (!decode_.empty() && dispatched < cfg_.width) {
    if (ruu_.size() >= cfg_.ruu_size) {
      ruu_full_stalls.add();
      return;
    }
    const Staged& st = decode_.front();
    if (st.ready_at > now) return;

    Slot& s = ruu_.emplace(st.f, st.order);
    if (st.f.wrong_path) {
      wrong_path_dispatched.add();
      if (prog_.contains_pc(st.f.pc)) {
        const workload::StaticInst& si = prog_.static_inst_at(st.f.pc);
        s.op = si.op;
        s.dst = si.dst;
        s.src1 = si.src1;
        s.src2 = si.src2;
        if (si.op == OpClass::Load || si.op == OpClass::Store) {
          s.data_addr =
              workload::wrong_path_data_addr(prog_, st.f.pc, st.order);
        }
      }
    } else {
      const workload::DynInst& d = oracle_.get(st.f.oracle_seq);
      PRESTAGE_ASSERT(d.pc == st.f.pc, "oracle/fetch PC mismatch");
      s.op = d.op;
      s.dst = d.dst;
      s.src1 = d.src1;
      s.src2 = d.src2;
      s.data_addr = d.data_addr;
    }
    unissued_.push_back(&s);
    if (s.f.culprit) culprits_.push(&s);
    (void)decode_.pop();
    ++dispatched;
  }
}

}  // namespace prestage::cpu
