#include "sample/bbv.hpp"

#include <algorithm>
#include <cmath>

#include "common/addr_map.hpp"
#include "common/prestage_assert.hpp"
#include "common/rng.hpp"

namespace prestage::sample {

namespace {

/// Warm-up streams record instruction lines at the hierarchy's universal
/// line size (every preset uses 64B lines, mem/ifetch_caches.hpp), so
/// one checkpoint replays into any L0/L1/L2 geometry.
constexpr Addr kWarmLineBytes = 64;

/// ±1 projection sign for dimension @p d of block @p block_pc, derived
/// from a stateless hash — no RNG state, bit-identical everywhere.
[[nodiscard]] double projection_sign(Addr block_pc, std::uint32_t d) {
  const std::uint64_t word =
      hash_mix(block_pc ^ (0x9e3779b97f4a7c15ULL * ((d / 64U) + 1U)));
  return ((word >> (d % 64U)) & 1U) != 0 ? 1.0 : -1.0;
}

}  // namespace

void SignatureAccumulator::add(Addr block_pc, std::uint64_t weight) {
  const auto w = static_cast<double>(weight);
  for (std::uint32_t d = 0; d < acc_.size(); ++d) {
    // Accumulation order is block-arrival order, identical for identical
    // traces, so the sums are bit-reproducible.
    acc_[d] += projection_sign(block_pc, d) * w;
  }
}

std::vector<double> SignatureAccumulator::finish() {
  double sq = 0.0;
  for (const double v : acc_) {
    // Fixed dimension order: deterministic sum.
    sq += v * v;
  }
  const double norm = std::sqrt(sq);
  std::vector<double> out(acc_.size(), 0.0);
  if (norm > 0.0) {
    for (std::size_t d = 0; d < acc_.size(); ++d) out[d] = acc_[d] / norm;
  }
  std::fill(acc_.begin(), acc_.end(), 0.0);
  return out;
}

double cosine_similarity(const std::vector<double>& a,
                         const std::vector<double>& b) {
  PRESTAGE_ASSERT(a.size() == b.size());
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    // Fixed dimension order: deterministic sums.
    dot += a[d] * b[d];
    na += a[d] * a[d];
    nb += b[d] * b[d];  // same fixed dimension order
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

TraceProfile profile_source(workload::TraceSource& source,
                            std::uint64_t total_instructions,
                            std::uint64_t interval_instructions,
                            std::uint32_t dim, std::uint32_t warm_lines) {
  PRESTAGE_ASSERT(total_instructions > 0 && interval_instructions > 0 &&
                  dim > 0 && warm_lines > 0);
  TraceProfile profile;
  profile.interval_instructions = interval_instructions;
  profile.dim = dim;

  SignatureAccumulator acc(dim);
  AddrMap seen_blocks;  // membership + count only, never iterated

  // Ring of the most recent instruction lines (consecutive duplicates
  // collapsed) — snapshot at each interval open becomes that interval's
  // functional warm-up stream.
  std::vector<Addr> ring(warm_lines, kNoAddr);
  std::size_t head = 0;
  std::size_t filled = 0;
  Addr last_line = kNoAddr;
  const auto snapshot_ring = [&] {
    std::vector<Addr> out;
    out.reserve(filled);
    for (std::size_t i = 0; i < filled; ++i) {
      out.push_back(ring[(head + warm_lines - filled + i) % warm_lines]);
    }
    return out;
  };

  std::uint64_t consumed = 0;  // instructions in closed streams
  std::uint64_t read = 0;      // records pulled from the source
  std::uint64_t interval_start = 0;
  std::vector<Addr> pending_warm;  // ring state at the open interval's start
  Addr stream_pc = kNoAddr;        // first pc of the open stream
  std::uint64_t stream_len = 0;
  constexpr std::size_t kBatch = 256;
  workload::DynInst buf[kBatch];
  while (consumed < total_instructions) {
    // Whole batches up to the budget, then single records to the end of
    // the stream it falls in: the source stops exactly where a stream-
    // by-stream walk would, and no batch straddles the last boundary.
    const auto n = static_cast<std::size_t>(
        read < total_instructions
            ? std::min<std::uint64_t>(kBatch, total_instructions - read)
            : 1);
    (void)source.fill(buf, n);
    read += n;
    for (std::size_t i = 0; i < n; ++i) {
      const workload::DynInst& inst = buf[i];
      if (stream_len++ == 0) stream_pc = inst.pc;
      const Addr line = line_align(inst.pc, kWarmLineBytes);
      if (line != last_line) {
        ring[head] = line;
        head = (head + 1) % warm_lines;
        filled = std::min<std::size_t>(filled + 1, warm_lines);
        last_line = line;
      }
      if (!inst.ends_stream) continue;
      acc.add(stream_pc, stream_len);
      if (!seen_blocks.contains(stream_pc)) seen_blocks.insert(stream_pc, 0);
      consumed += stream_len;
      stream_len = 0;
      // Intervals close at the first stream boundary at or past the
      // nominal length, so every interval start is stream-aligned.
      if (consumed - interval_start >= interval_instructions) {
        IntervalProfile iv;
        iv.start = interval_start;
        iv.instructions = consumed - interval_start;
        iv.signature = acc.finish();
        iv.warm_lines = std::move(pending_warm);
        profile.intervals.push_back(std::move(iv));
        interval_start = consumed;
        pending_warm = snapshot_ring();
      }
    }
  }
  if (consumed > interval_start) {
    IntervalProfile iv;
    iv.start = interval_start;
    iv.instructions = consumed - interval_start;
    iv.signature = acc.finish();
    iv.warm_lines = std::move(pending_warm);
    profile.intervals.push_back(std::move(iv));
  }
  profile.total_instructions = consumed;
  profile.unique_blocks = seen_blocks.size();
  return profile;
}

}  // namespace prestage::sample
