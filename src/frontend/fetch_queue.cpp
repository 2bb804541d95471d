#include "frontend/fetch_queue.hpp"

#include <bit>

#include "common/prestage_assert.hpp"

namespace prestage::frontend {

std::uint32_t lines_in_block(const FetchBlock& block,
                             std::uint32_t line_bytes) {
  PRESTAGE_ASSERT(block.length >= 1);
  const Addr first = line_align(block.start, line_bytes);
  const Addr last = line_align(
      block.start + (static_cast<Addr>(block.length) - 1) * kInstrBytes,
      line_bytes);
  // Line sizes are powers of two (cache geometry precondition), so the
  // span divides by shift — this runs on every FTQ peek/consume.
  return static_cast<std::uint32_t>((last - first) >>
                                    std::countr_zero(line_bytes)) +
         1;
}

std::optional<LineView> line_of_block(const FetchBlock& block,
                                      std::uint32_t line_bytes,
                                      std::uint32_t index) {
  if (index >= lines_in_block(block, line_bytes)) return std::nullopt;
  const Addr line =
      line_align(block.start, line_bytes) + static_cast<Addr>(index) * line_bytes;
  const Addr first_pc = index == 0 ? block.start : line;
  const Addr block_end =
      block.start + static_cast<Addr>(block.length) * kInstrBytes;
  const Addr line_end = line + line_bytes;
  const Addr end_pc = block_end < line_end ? block_end : line_end;
  PRESTAGE_ASSERT(end_pc > first_pc);

  LineView v;
  v.line = line;
  v.first_pc = first_pc;
  v.count = static_cast<std::uint32_t>((end_pc - first_pc) / kInstrBytes);
  // Index of first_pc within the block.
  const auto base =
      static_cast<std::uint32_t>((first_pc - block.start) / kInstrBytes);
  if (!block.fully_wrong() && base < block.wrong_from) {
    v.oracle_seq = block.oracle_base_seq + base;
  } else {
    v.oracle_seq = kNoSeq;
  }
  // Clamp the block-relative wrong-path boundary into this line.
  if (block.wrong_from <= base) {
    v.wrong_from = 0;
  } else if (block.wrong_from >= base + v.count) {
    v.wrong_from = v.count;
  } else {
    v.wrong_from = block.wrong_from - base;
  }
  if (block.culprit_index >= 0) {
    const auto ci = static_cast<std::uint32_t>(block.culprit_index);
    if (ci >= base && ci < base + v.count) {
      v.culprit_index = static_cast<std::int32_t>(ci - base);
    }
  }
  return v;
}

void FetchTargetQueue::consume_line() {
  PRESTAGE_ASSERT(!entries_.empty(), "consume on empty FTQ");
  Entry& e = entries_.at(0);
  ++e.fetch_line;
  if (e.prefetch_line < e.fetch_line) e.prefetch_line = e.fetch_line;
  if (e.fetch_line >= lines_in_block(e.block, line_bytes_)) {
    (void)entries_.pop();
  }
  head_view_valid_ = false;
}

CacheLineTargetQueue::CacheLineTargetQueue(std::uint32_t max_blocks,
                                           std::uint32_t line_bytes)
    : lines_(static_cast<std::size_t>(max_blocks) * kMaxLinesPerBlock),
      max_blocks_(max_blocks),
      line_bytes_(line_bytes) {
  PRESTAGE_ASSERT(max_blocks >= 1);
}

void CacheLineTargetQueue::push_block(const FetchBlock& block) {
  PRESTAGE_ASSERT(can_accept_block(), "push_block on full CLTQ");
  const std::uint32_t n = lines_in_block(block, line_bytes_);
  PRESTAGE_ASSERT(n <= kMaxLinesPerBlock, "block spans too many lines");
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto view = line_of_block(block, line_bytes_, i);
    PRESTAGE_ASSERT(view.has_value());
    lines_.emplace(*view, i + 1 == n);
  }
  ++blocks_held_;
}

void CacheLineTargetQueue::consume_line() {
  PRESTAGE_ASSERT(!lines_.empty(), "consume on empty CLTQ");
  const LineEntry e = lines_.pop();
  if (e.last_of_block) {
    PRESTAGE_ASSERT(blocks_held_ > 0);
    --blocks_held_;
  }
  if (scan_start_ > 0) --scan_start_;
}

void CacheLineTargetQueue::flush() {
  lines_.clear();
  blocks_held_ = 0;
  scan_start_ = 0;
}

}  // namespace prestage::frontend
