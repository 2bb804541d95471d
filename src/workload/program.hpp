// Static program representation: the "basic block dictionary".
//
// The paper's simulator executes along wrong paths by consulting "a
// separate basic block dictionary in which we have the information of all
// static instructions (type, source/target registers)" (§4). Program is
// exactly that dictionary: the full static CFG of a synthesized workload,
// addressable by PC, used both by the oracle trace walker (correct path)
// and by the front-end when it runs down mispredicted paths.
//
// Layout: one flat instruction table, `Program::insts`, in address order
// (insts[i] sits at base + i * kInstrBytes). A block is a run
// [first, first + count) of that table, so the PC lookup on the back-end
// and driver hot paths is a single index, and a program is three
// vectors rather than one small allocation per block.
//
// A Program is immutable once built. Batch runs share one image per
// (benchmark, seed) through workload::ProgramCache (synthetic_spec.hpp);
// every Cpu borrows it through its WorkloadSpec instead of copying it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/prestage_assert.hpp"
#include "common/types.hpp"

namespace prestage::workload {

using BlockId = std::uint32_t;
inline constexpr BlockId kNoBlock = static_cast<BlockId>(-1);

/// How a basic block transfers control when its last instruction retires.
enum class TermKind : std::uint8_t {
  FallThrough,  ///< no control instruction; execution continues next block
  CondBranch,   ///< conditional: taken_target or the next block
  Jump,         ///< unconditional direct jump to taken_target
  Call,         ///< call taken_target; continuation is the next block
  Return,       ///< return to the caller's continuation block
};

/// How a conditional branch behaves dynamically.
enum class BranchBehavior : std::uint8_t {
  Biased,    ///< taken with fixed probability `bias`
  Periodic,  ///< loop latch: taken (period-1) times, then not-taken once
  Router,    ///< dispatcher tree branch steered by the region selector
};

/// Address-generation behaviour of a static load/store site.
enum class DataSiteClass : std::uint8_t {
  StackLocal,  ///< small frame region; effectively always cache-resident
  Stream,      ///< sequential walk with a fixed stride over the working set
  PointerChase,  ///< uniform-random access over the working set
};

struct DataSite {
  DataSiteClass cls = DataSiteClass::StackLocal;
  std::uint32_t stride = 8;  ///< bytes, for Stream sites
};

inline constexpr std::uint32_t kNoSite = static_cast<std::uint32_t>(-1);

struct StaticInst {
  OpClass op = OpClass::IntAlu;
  RegId dst = kNoReg;
  RegId src1 = kNoReg;
  RegId src2 = kNoReg;
  std::uint32_t site = kNoSite;  ///< data-site id for loads/stores
};

// Fields ordered widest first: 40 bytes, not 48 with padding.
struct BasicBlock {
  Addr start = 0;
  double bias = 0.5;           ///< P(taken) for Biased conditionals
  BlockId taken_target = kNoBlock;  ///< branch/jump/call destination
  std::uint32_t period = 0;    ///< trip count for Periodic latches
  std::uint32_t router_mid = 0;  ///< Router: taken iff region >= router_mid
  std::uint32_t first = 0;  ///< index of the first instruction in insts
  std::uint32_t count = 0;  ///< instructions in the block
  TermKind term = TermKind::FallThrough;
  BranchBehavior behavior = BranchBehavior::Biased;

  [[nodiscard]] std::uint32_t num_instrs() const noexcept { return count; }
  [[nodiscard]] Addr end() const noexcept {
    return start + static_cast<Addr>(count) * kInstrBytes;
  }
  [[nodiscard]] Addr last_pc() const noexcept { return end() - kInstrBytes; }
};

class Program {
 public:
  std::string name;
  std::vector<BasicBlock> blocks;   ///< laid out contiguously by address
  std::vector<StaticInst> insts;    ///< every instruction, in address order
  std::vector<DataSite> data_sites;
  std::vector<BlockId> region_roots;  ///< entry function of each region
  BlockId dispatcher_head = 0;        ///< loop head of the dispatcher
  Addr base = 0x10000;
  std::uint64_t data_ws_bytes = 1 << 20U;
  std::uint32_t num_regions = 1;
  std::uint64_t phase_instrs = 100000;  ///< mean instructions per phase
  double chase_hot_frac = 0.92;         ///< see WorkloadProfile
  std::uint64_t chase_hot_bytes = 24ULL << 10U;

  /// Total static code size in bytes.
  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return static_cast<std::uint64_t>(insts.size()) * kInstrBytes;
  }

  [[nodiscard]] Addr code_begin() const { return base; }
  [[nodiscard]] Addr code_end() const {
    return base + static_cast<Addr>(insts.size()) * kInstrBytes;
  }
  [[nodiscard]] bool contains_pc(Addr pc) const {
    return pc >= code_begin() && pc < code_end();
  }

  /// Block holding @p pc (binary search). Precondition: contains_pc(pc).
  [[nodiscard]] BlockId block_at(Addr pc) const {
    PRESTAGE_ASSERT(contains_pc(pc), "PC outside program image");
    std::size_t lo = 0;
    std::size_t hi = blocks.size();
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (blocks[mid].start <= pc) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return static_cast<BlockId>(lo);
  }

  /// Static metadata of the instruction at @p pc (one index into the
  /// flat table). Precondition: contains_pc(pc).
  [[nodiscard]] const StaticInst& static_inst_at(Addr pc) const {
    PRESTAGE_ASSERT(contains_pc(pc), "PC outside program image");
    return insts[static_cast<std::size_t>((pc - base) / kInstrBytes)];
  }

  /// The @p i-th instruction of block @p b.
  [[nodiscard]] const StaticInst& inst(const BasicBlock& b,
                                       std::uint32_t i) const {
    return insts[b.first + i];
  }

  /// Validates structural invariants; throws SimError on violation.
  void validate() const;
};

}  // namespace prestage::workload
