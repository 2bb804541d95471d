#include "workload/program.hpp"

namespace prestage::workload {

void Program::validate() const {
  PRESTAGE_ASSERT(!blocks.empty(), "program has no blocks");
  PRESTAGE_ASSERT(dispatcher_head < blocks.size());
  PRESTAGE_ASSERT(num_regions >= 1);
  PRESTAGE_ASSERT(region_roots.size() == num_regions);

  Addr pc = base;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BasicBlock& b = blocks[i];
    PRESTAGE_ASSERT(b.count > 0, "empty basic block");
    PRESTAGE_ASSERT(b.start == pc, "blocks must be laid out contiguously");
    PRESTAGE_ASSERT(
        static_cast<Addr>(b.first) * kInstrBytes == b.start - base,
        "block's first instruction disagrees with its address");
    PRESTAGE_ASSERT(static_cast<std::uint64_t>(b.first) + b.count <=
                        insts.size(),
                    "block runs past the instruction table");
    pc = b.end();

    const bool needs_target = b.term == TermKind::CondBranch ||
                              b.term == TermKind::Jump ||
                              b.term == TermKind::Call;
    if (needs_target) {
      PRESTAGE_ASSERT(b.taken_target != kNoBlock &&
                          b.taken_target < blocks.size(),
                      "dangling taken_target");
    }
    // Fall-through/continuation flows into block i+1.
    const bool falls = b.term == TermKind::FallThrough ||
                       b.term == TermKind::CondBranch ||
                       b.term == TermKind::Call;
    if (falls) {
      PRESTAGE_ASSERT(i + 1 < blocks.size(),
                      "fall-through off the end of the program");
    }
    if (b.term == TermKind::CondBranch) {
      switch (b.behavior) {
        case BranchBehavior::Biased:
          PRESTAGE_ASSERT(b.bias > 0.0 && b.bias < 1.0);
          break;
        case BranchBehavior::Periodic:
          PRESTAGE_ASSERT(b.period >= 2, "degenerate loop period");
          break;
        case BranchBehavior::Router:
          PRESTAGE_ASSERT(b.router_mid >= 1 && b.router_mid < num_regions);
          break;
      }
    }
    const OpClass last = inst(b, b.count - 1).op;
    switch (b.term) {
      case TermKind::FallThrough:
        PRESTAGE_ASSERT(!is_control(last));
        break;
      case TermKind::CondBranch:
        PRESTAGE_ASSERT(last == OpClass::Branch);
        break;
      case TermKind::Jump:
        PRESTAGE_ASSERT(last == OpClass::Jump);
        break;
      case TermKind::Call:
        PRESTAGE_ASSERT(last == OpClass::Call);
        break;
      case TermKind::Return:
        PRESTAGE_ASSERT(last == OpClass::Return);
        break;
    }
  }
  PRESTAGE_ASSERT(pc == code_end(), "instruction outside every block");
  for (const StaticInst& si : insts) {
    if (si.op == OpClass::Load || si.op == OpClass::Store) {
      PRESTAGE_ASSERT(si.site != kNoSite && si.site < data_sites.size(),
                      "memory instruction without a data site");
    }
  }
  for (BlockId root : region_roots) {
    PRESTAGE_ASSERT(root < blocks.size());
  }
}

}  // namespace prestage::workload
