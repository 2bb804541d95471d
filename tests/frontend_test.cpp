// Unit tests for the decoupled front-end queues and line splitting.
#include <gtest/gtest.h>

#include "frontend/fetch_queue.hpp"
#include "frontend/fetch_types.hpp"

namespace prestage::frontend {
namespace {

FetchBlock block(Addr start, std::uint32_t len,
                 std::uint64_t base_seq = 100) {
  FetchBlock b;
  b.start = start;
  b.length = len;
  b.oracle_base_seq = base_seq;
  b.wrong_from = len;
  b.culprit_index = -1;
  return b;
}

TEST(LineSplit, SingleLineBlock) {
  const FetchBlock b = block(0x1000, 4);
  EXPECT_EQ(lines_in_block(b, 64), 1u);
  const auto v = line_of_block(b, 64, 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->line, 0x1000u);
  EXPECT_EQ(v->first_pc, 0x1000u);
  EXPECT_EQ(v->count, 4u);
  EXPECT_EQ(v->oracle_seq, 100u);
  EXPECT_FALSE(line_of_block(b, 64, 1).has_value());
}

TEST(LineSplit, UnalignedBlockSpansLines) {
  // Starts 8 instructions into a line, runs 20: 8 in line0, 12 in line1.
  const FetchBlock b = block(0x1020, 20);
  EXPECT_EQ(lines_in_block(b, 64), 2u);
  const auto v0 = line_of_block(b, 64, 0);
  const auto v1 = line_of_block(b, 64, 1);
  ASSERT_TRUE(v0 && v1);
  EXPECT_EQ(v0->line, 0x1000u);
  EXPECT_EQ(v0->first_pc, 0x1020u);
  EXPECT_EQ(v0->count, 8u);
  EXPECT_EQ(v1->line, 0x1040u);
  EXPECT_EQ(v1->first_pc, 0x1040u);
  EXPECT_EQ(v1->count, 12u);
  EXPECT_EQ(v1->oracle_seq, 108u);  // base + 8 already covered
}

TEST(LineSplit, ExactlyLineSized) {
  const FetchBlock b = block(0x1000, 16);  // 64 bytes exactly
  EXPECT_EQ(lines_in_block(b, 64), 1u);
  EXPECT_EQ(line_of_block(b, 64, 0)->count, 16u);
}

TEST(LineSplit, CulpritIndexMapsIntoRightLine) {
  FetchBlock b = block(0x1000, 32);
  b.culprit_index = 20;  // in the second line
  const auto v0 = line_of_block(b, 64, 0);
  const auto v1 = line_of_block(b, 64, 1);
  EXPECT_EQ(v0->culprit_index, -1);
  EXPECT_EQ(v1->culprit_index, 4);  // 20 - 16
}

TEST(LineSplit, WrongFromClampsPerLine) {
  FetchBlock b = block(0x1000, 32);
  b.wrong_from = 20;  // instructions 20.. are wrong-path
  const auto v0 = line_of_block(b, 64, 0);
  const auto v1 = line_of_block(b, 64, 1);
  EXPECT_EQ(v0->wrong_from, 16u);  // whole first line correct
  EXPECT_EQ(v1->wrong_from, 4u);
  // A line that starts past wrong_from carries no oracle seq.
  FetchBlock w = block(0x1000, 32);
  w.wrong_from = 8;
  const auto w1 = line_of_block(w, 64, 1);
  EXPECT_EQ(w1->oracle_seq, kNoSeq);
  EXPECT_EQ(w1->wrong_from, 0u);
}

TEST(LineSplit, FullyWrongBlockHasNoSeq) {
  FetchBlock b = block(0x1000, 10);
  b.oracle_base_seq = kNoSeq;
  b.wrong_from = 0;
  const auto v = line_of_block(b, 64, 0);
  EXPECT_EQ(v->oracle_seq, kNoSeq);
  EXPECT_EQ(v->wrong_from, 0u);
}

TEST(Ftq, HoldsBlocksAndIteratesLines) {
  FetchTargetQueue ftq(8, 64);
  EXPECT_TRUE(ftq.can_accept_block());
  ftq.push_block(block(0x1020, 20));  // 2 lines
  EXPECT_EQ(ftq.blocks_held(), 1u);
  const LineView* v = ftq.peek_line();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->first_pc, 0x1020u);
  ftq.consume_line();
  v = ftq.peek_line();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->first_pc, 0x1040u);
  ftq.consume_line();
  EXPECT_TRUE(ftq.empty());
  EXPECT_EQ(ftq.blocks_held(), 0u);
}

TEST(Ftq, CapacityIsInBlocks) {
  FetchTargetQueue ftq(2, 64);
  ftq.push_block(block(0x1000, 4));
  ftq.push_block(block(0x2000, 4));
  EXPECT_FALSE(ftq.can_accept_block());
  ftq.consume_line();  // frees the single-line block
  EXPECT_TRUE(ftq.can_accept_block());
}

TEST(Ftq, PrefetchCursorNeverLagsBehindFetch) {
  FetchTargetQueue ftq(4, 64);
  ftq.push_block(block(0x1000, 32));  // 2 lines
  EXPECT_EQ(ftq.entry(0).prefetch_line, 0u);
  ftq.consume_line();
  EXPECT_GE(ftq.entry(0).prefetch_line, ftq.entry(0).fetch_line);
}

TEST(Ftq, FlushEmptiesEverything) {
  FetchTargetQueue ftq(4, 64);
  ftq.push_block(block(0x1000, 8));
  ftq.flush();
  EXPECT_TRUE(ftq.empty());
  EXPECT_EQ(ftq.peek_line(), nullptr);
}

TEST(Cltq, SplitsBlocksIntoLineEntries) {
  CacheLineTargetQueue cltq(8, 64);
  cltq.push_block(block(0x1020, 20));  // 2 lines
  EXPECT_EQ(cltq.blocks_held(), 1u);
  EXPECT_EQ(cltq.lines_held(), 2u);
  EXPECT_FALSE(cltq.is_prefetched(0));
  cltq.mark_prefetched(0);
  EXPECT_TRUE(cltq.is_prefetched(0));
  EXPECT_FALSE(cltq.is_prefetched(1));
}

TEST(Cltq, ConsumeTracksBlockBoundaries) {
  CacheLineTargetQueue cltq(8, 64);
  cltq.push_block(block(0x1000, 32));  // 2 lines
  cltq.push_block(block(0x2000, 8));   // 1 line
  EXPECT_EQ(cltq.blocks_held(), 2u);
  cltq.consume_line();
  EXPECT_EQ(cltq.blocks_held(), 2u);  // first block not yet finished
  cltq.consume_line();
  EXPECT_EQ(cltq.blocks_held(), 1u);
  cltq.consume_line();
  EXPECT_EQ(cltq.blocks_held(), 0u);
  EXPECT_TRUE(cltq.empty());
}

TEST(Cltq, BlockCapacityMatchesFtqLookahead) {
  // Both queues hold the same number of *blocks* (paper §4).
  CacheLineTargetQueue cltq(2, 64);
  cltq.push_block(block(0x1000, 4));
  cltq.push_block(block(0x2000, 4));
  EXPECT_FALSE(cltq.can_accept_block());
  cltq.consume_line();
  EXPECT_TRUE(cltq.can_accept_block());
}

TEST(Cltq, FlushClearsLinesAndBlocks) {
  CacheLineTargetQueue cltq(8, 64);
  cltq.push_block(block(0x1000, 32));
  cltq.flush();
  EXPECT_TRUE(cltq.empty());
  EXPECT_EQ(cltq.blocks_held(), 0u);
  EXPECT_EQ(cltq.lines_held(), 0u);
}

TEST(Cltq, SameRequestsAsFtqFinerGranularity) {
  // Property from paper §4: FTQ and CLTQ hold the same fetch requests;
  // only the granularity differs.
  FetchTargetQueue ftq(8, 64);
  CacheLineTargetQueue cltq(8, 64);
  const FetchBlock b = block(0x10e0, 40);  // spans 3 lines
  ftq.push_block(b);
  cltq.push_block(b);
  std::vector<LineView> from_ftq;
  while (auto v = ftq.peek_line()) {
    from_ftq.push_back(*v);
    ftq.consume_line();
  }
  std::vector<LineView> from_cltq;
  while (auto v = cltq.peek_line()) {
    from_cltq.push_back(*v);
    cltq.consume_line();
  }
  ASSERT_EQ(from_ftq.size(), from_cltq.size());
  for (std::size_t i = 0; i < from_ftq.size(); ++i) {
    EXPECT_EQ(from_ftq[i].line, from_cltq[i].line);
    EXPECT_EQ(from_ftq[i].first_pc, from_cltq[i].first_pc);
    EXPECT_EQ(from_ftq[i].count, from_cltq[i].count);
    EXPECT_EQ(from_ftq[i].oracle_seq, from_cltq[i].oracle_seq);
  }
}

}  // namespace
}  // namespace prestage::frontend
