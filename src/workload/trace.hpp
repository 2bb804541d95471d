// Dynamic execution: the oracle trace walker.
//
// TraceGenerator interprets a synthesized Program, producing the actual
// (committed-path) instruction sequence one stream at a time. The CPU
// model verifies the stream predictor's output against these actual
// streams (prediction check), feeds correct-path instructions to the
// back-end from them, and uses the walker's live call stack to repair the
// RAS on misprediction recovery — mirroring how the paper's trace-driven
// simulator combines a trace with a basic-block dictionary (§4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bpred/stream.hpp"
#include "common/addr_map.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "workload/program.hpp"

namespace prestage::workload {

/// One dynamic instruction with everything the timing model needs.
struct DynInst {
  Addr pc = kNoAddr;
  OpClass op = OpClass::IntAlu;
  RegId dst = kNoReg;
  RegId src1 = kNoReg;
  RegId src2 = kNoReg;
  Addr data_addr = kNoAddr;  ///< loads/stores only
  Addr next_pc = kNoAddr;    ///< actual successor PC
  bool taken = false;        ///< actual direction (control only)
  bool ends_stream = false;  ///< last instruction of an actual stream
  std::uint64_t seq = 0;     ///< program order, from 0
};

/// An actual stream plus its dynamic instructions.
struct StreamChunk {
  bpred::Stream stream;
  std::vector<DynInst> insts;
};

/// Where dynamic (committed-path) instructions come from.
///
/// The CPU model is agnostic to the trace's origin: the synthetic walker
/// (TraceGenerator), a recorded trace file replayed from disk, or an
/// imported external trace (e.g. ChampSim) all present the same stream of
/// StreamChunks. A source is conceptually infinite — next_stream() must
/// always return a non-empty stream (file-backed sources wrap around).
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Produces the next actual stream (1..kMaxStreamInstrs instructions).
  [[nodiscard]] virtual StreamChunk next_stream() = 0;

  /// Batched decode: fills out[0..n) with the next n dynamic
  /// instructions of the flat record stream (stream boundaries are
  /// carried by DynInst::ends_stream / next_pc, so callers re-segment
  /// at will). Always returns n — sources are conceptually infinite.
  /// The default loops next_stream() through a carry buffer and is
  /// record-for-record identical to calling next_stream() directly;
  /// sources with a cheaper batch path override it. Mixing fill() and
  /// next_stream() calls on one source is undefined (the carry buffer
  /// would be bypassed).
  [[nodiscard]] virtual std::size_t fill(DynInst* out, std::size_t n);

  /// Total instructions emitted so far.
  [[nodiscard]] virtual std::uint64_t instructions() const = 0;

  /// An independent copy at the current position: the copy and the
  /// original go on to produce the same records. Sampled runs position
  /// every slice by cloning one forward-walking cursor. nullptr when the
  /// source cannot be copied (a recording tee would record twice).
  [[nodiscard]] virtual std::unique_ptr<TraceSource> clone() const {
    return nullptr;
  }

  /// Live call stack as return-continuation PCs, innermost first. Used to
  /// repair the speculative RAS at misprediction recovery.
  [[nodiscard]] virtual std::vector<Addr> call_stack_pcs(
      std::size_t max_depth) const = 0;

 private:
  // Default-fill carry: the tail of the last next_stream() chunk not yet
  // handed out.
  std::vector<DynInst> fill_carry_;
  std::size_t fill_carry_pos_ = 0;
};

class TraceGenerator final : public TraceSource {
 public:
  /// Compatibility alias: StreamChunk predates the TraceSource interface.
  using StreamChunk = workload::StreamChunk;

  TraceGenerator(const Program& program, std::uint64_t seed);

  /// Produces the next actual stream (1..kMaxStreamInstrs instructions).
  [[nodiscard]] StreamChunk next_stream() override;

  /// Native batch path: the next_stream() walk flattened to one record
  /// per iteration — no chunk vector, no carry copy.
  [[nodiscard]] std::size_t fill(DynInst* out, std::size_t n) override;

  /// Total instructions emitted so far.
  [[nodiscard]] std::uint64_t instructions() const noexcept override {
    return seq_;
  }

  /// The walker's whole state (RNG, cursor, call stack, latch table,
  /// data-site cursors) is plain data, so a copy continues identically.
  [[nodiscard]] std::unique_ptr<TraceSource> clone() const override {
    return std::make_unique<TraceGenerator>(*this);
  }

  /// Live call stack as return-continuation PCs, innermost first. Used to
  /// repair the speculative RAS at misprediction recovery.
  [[nodiscard]] std::vector<Addr> call_stack_pcs(
      std::size_t max_depth) const override;

  /// Region currently being executed (diagnostics / calibration tests).
  [[nodiscard]] std::uint32_t current_region() const noexcept {
    return region_;
  }
  /// Number of region switches so far (calibration tests).
  [[nodiscard]] std::uint64_t region_switches() const noexcept {
    return region_switches_;
  }

 private:
  /// Writes the next instruction into @p d, every field but ends_stream
  /// (the caller's stream split decides it).
  void step(DynInst& d);
  [[nodiscard]] bool eval_branch(BlockId id, const BasicBlock& b);
  [[nodiscard]] Addr data_address(std::uint32_t site_id);
  void enter_block(BlockId id);
  void maybe_switch_region();
  [[nodiscard]] std::uint64_t draw_phase_budget();

  const Program& prog_;
  Rng rng_;
  BlockId cur_block_;
  std::uint32_t cur_idx_ = 0;
  std::uint64_t seq_ = 0;
  std::uint32_t stream_len_ = 0;  ///< instructions in the current stream
  std::uint32_t region_ = 0;
  std::uint64_t region_switches_ = 0;
  std::uint64_t phase_start_seq_ = 0;
  std::uint64_t phase_budget_ = 0;
  std::vector<BlockId> call_stack_;  ///< continuation blocks
  /// Periodic-branch iteration counts, keyed by block id. Open-addressed
  /// flat table: the lookup sits on the per-branch path of trace
  /// generation, where unordered_map's node hops dominated the profile.
  AddrMap latch_counts_;
  /// Stream-site walk offsets, indexed by DataSite::stream_slot: only
  /// Stream sites advance a cursor, and every clone copies this table.
  /// 32 bits each: an offset stays below data_ws_bytes, which
  /// Program::validate bounds by 4 GiB for programs with Stream sites.
  std::vector<std::uint32_t> site_cursors_;
};

/// Advances @p source through the batched fill() until it has emitted
/// @p target instructions. The only trace fast-forward in the tree: the
/// sampled runner walks one cursor forward with it. @p source must sit
/// on a stream boundary, and @p target must be a stream boundary at or
/// past its position; otherwise throws SimError.
void skip_to(TraceSource& source, std::uint64_t target);

/// Deterministic pseudo-random data address for a wrong-path memory
/// instruction: wrong-path pollution must be repeatable run to run.
[[nodiscard]] Addr wrong_path_data_addr(const Program& prog, Addr pc,
                                        std::uint64_t salt);

/// Simulated address-space anchors.
inline constexpr Addr kStackBase = 0x7ff00000;
inline constexpr Addr kStackBytes = 4096;
inline constexpr Addr kHeapBase = 0x20000000;

}  // namespace prestage::workload
