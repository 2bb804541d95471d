#include "workload/champsim.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <vector>

#include "common/prestage_assert.hpp"
#include "common/rng.hpp"

namespace prestage::workload {
namespace {

// ChampSim register conventions (x86 via Pin).
constexpr std::uint8_t kRegStackPointer = 6;
constexpr std::uint8_t kRegFlags = 25;
constexpr std::uint8_t kRegInstructionPointer = 26;

constexpr int kNumDst = 2;
constexpr int kNumSrc = 4;

constexpr Addr kImageBase = 0x10000;

struct RawRecord {
  std::uint64_t ip = 0;
  bool is_branch = false;
  bool branch_taken = false;
  std::uint8_t dst[kNumDst] = {};
  std::uint8_t src[kNumSrc] = {};
  std::uint64_t dmem[kNumDst] = {};
  std::uint64_t smem[kNumSrc] = {};
};

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

RawRecord decode_record(const unsigned char* p) {
  RawRecord r;
  r.ip = get_u64(p);
  r.is_branch = p[8] != 0;
  r.branch_taken = p[9] != 0;
  for (int i = 0; i < kNumDst; ++i) r.dst[i] = p[10 + i];
  for (int i = 0; i < kNumSrc; ++i) r.src[i] = p[12 + i];
  for (int i = 0; i < kNumDst; ++i) r.dmem[i] = get_u64(p + 16 + 8 * i);
  for (int i = 0; i < kNumSrc; ++i) r.smem[i] = get_u64(p + 32 + 8 * i);
  return r;
}

std::vector<RawRecord> read_records(const std::string& path,
                                    std::uint64_t max_records) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw SimError("champsim trace '" + path + "': cannot open");
  const auto size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  if (size == 0) throw SimError("champsim trace '" + path + "': empty");
  if (size % kChampSimRecordBytes != 0) {
    throw SimError("champsim trace '" + path +
                   "': size is not a whole number of 64-byte records "
                   "(compressed traces must be decompressed first)");
  }
  std::uint64_t count = size / kChampSimRecordBytes;
  if (max_records > 0) count = std::min(count, max_records);
  // Read only what the cap admits: a capped import of a huge server
  // trace must not buffer the whole file.
  std::string bytes(count * kChampSimRecordBytes, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (in.gcount() != static_cast<std::streamsize>(bytes.size())) {
    throw SimError("champsim trace '" + path + "': read failed");
  }
  std::vector<RawRecord> records;
  records.reserve(count);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  for (std::uint64_t i = 0; i < count; ++i) {
    records.push_back(decode_record(p + i * kChampSimRecordBytes));
  }
  return records;
}

bool has_reg(const std::uint8_t* regs, int n, std::uint8_t r) {
  for (int i = 0; i < n; ++i) {
    if (regs[i] == r) return true;
  }
  return false;
}

/// Branch kind from ChampSim's register conventions (the inverse of how
/// its tracer encodes BRANCH_* types into register reads/writes). Both
/// calls and returns touch the stack pointer on x86; they are told apart
/// by whether IP is *read* — a call reads IP to push the return address,
/// a `ret` only pops it.
OpClass classify_branch(const RawRecord& r) {
  const bool reads_sp = has_reg(r.src, kNumSrc, kRegStackPointer);
  const bool reads_ip = has_reg(r.src, kNumSrc, kRegInstructionPointer);
  const bool reads_flags = has_reg(r.src, kNumSrc, kRegFlags);
  const bool writes_ip = has_reg(r.dst, kNumDst, kRegInstructionPointer);
  if (reads_sp && writes_ip) {
    return reads_ip ? OpClass::Call : OpClass::Return;
  }
  if (reads_flags && writes_ip) return OpClass::Branch;
  if (writes_ip) return OpClass::Jump;  // direct or indirect
  return OpClass::Branch;  // malformed record: conditional catch-all
}

RegId map_reg(std::uint8_t r) {
  return r == 0 ? kNoReg : static_cast<RegId>(r % kNumRegs);
}

/// Deterministic stand-in address for a memory instruction whose record
/// carries no operand (e.g. a predicated access): spread over the working
/// set so such instructions do not all alias one line.
Addr fallback_data_addr(Addr pc, std::uint64_t ws_bytes) {
  return kHeapBase + ((hash_mix(pc) % ws_bytes) & ~7ULL);
}

struct StaticEntry {
  StaticInst inst;
  Addr taken_target = kNoAddr;  ///< first observed taken target
  bool adjacent_seen = false;   ///< a fall-through successor was adjacent
  bool gap_seen = false;        ///< a fall-through successor was not
};

}  // namespace

std::shared_ptr<const ReplayWorkloadSpec> import_champsim_trace(
    const std::string& path, std::uint64_t max_records,
    ChampSimImportStats* stats) {
  const std::vector<RawRecord> raw = read_records(path, max_records);

  // Pass 1: dense remapping of the sparse x86 PCs. Sorting unique PCs
  // preserves address order, so sequential code remains sequential in the
  // remapped image.
  std::vector<std::uint64_t> ips;
  ips.reserve(raw.size());
  for (const RawRecord& r : raw) ips.push_back(r.ip);
  std::sort(ips.begin(), ips.end());
  ips.erase(std::unique(ips.begin(), ips.end()), ips.end());
  std::unordered_map<std::uint64_t, std::uint32_t> index_of;
  index_of.reserve(ips.size());
  for (std::uint32_t i = 0; i < ips.size(); ++i) index_of[ips[i]] = i;
  const auto remap = [&](std::uint64_t ip) {
    return kImageBase + static_cast<Addr>(index_of.at(ip)) * kInstrBytes;
  };

  const std::uint64_t ws_bytes = 1ULL << 20U;

  // Pass 2: static classification. The first record of a PC fixes its
  // registers and branch kind; fall-through adjacency is accumulated over
  // every dynamic transition (the wrap pair is excluded: it is a replay
  // artifact, not program structure).
  std::vector<StaticEntry> statics(ips.size());
  std::vector<bool> seen(ips.size(), false);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const RawRecord& r = raw[i];
    const std::uint32_t idx = index_of.at(r.ip);
    if (!seen[idx]) {
      seen[idx] = true;
      StaticInst& si = statics[idx].inst;
      if (r.is_branch) {
        si.op = classify_branch(r);
      } else if (std::any_of(std::begin(r.smem), std::end(r.smem),
                             [](std::uint64_t a) { return a != 0; })) {
        si.op = OpClass::Load;
      } else if (std::any_of(std::begin(r.dmem), std::end(r.dmem),
                             [](std::uint64_t a) { return a != 0; })) {
        si.op = OpClass::Store;
      }
      si.dst = map_reg(r.dst[0]);
      si.src1 = map_reg(r.src[0]);
      si.src2 = map_reg(r.src[1]);
      if (si.op == OpClass::Load || si.op == OpClass::Store) si.site = 0;
    }
    if (i + 1 < raw.size()) {
      const Addr succ = remap(raw[i + 1].ip);
      const bool adjacent = succ == remap(r.ip) + kInstrBytes;
      if (r.is_branch && r.branch_taken) {
        if (statics[idx].taken_target == kNoAddr && !adjacent) {
          statics[idx].taken_target = succ;
        }
      } else if (adjacent) {
        statics[idx].adjacent_seen = true;
      } else {
        statics[idx].gap_seen = true;
        if (statics[idx].taken_target == kNoAddr) {
          statics[idx].taken_target = succ;
        }
      }
    }
  }

  // A non-branch whose fall-through is never adjacent after remapping is
  // a synthetic unconditional jump (consistently: adjacency is a static
  // property of the remap). Mixed adjacency (trace discontinuities such
  // as context switches) stays non-control; those instances end their
  // stream dynamically and resolve as ordinary mispredictions.
  std::uint64_t synthetic_jumps = 0;
  for (StaticEntry& e : statics) {
    if (!is_control(e.inst.op) && e.gap_seen && !e.adjacent_seen) {
      e.inst.op = OpClass::Jump;
      e.inst.site = kNoSite;
      ++synthetic_jumps;
    }
  }

  // Pass 3: the dynamic DynInst sequence, chunked into fetch streams.
  std::vector<DynInst> dyn;
  dyn.reserve(raw.size());
  std::uint32_t stream_len = 0;
  std::uint64_t streams = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const RawRecord& r = raw[i];
    const std::uint32_t idx = index_of.at(r.ip);
    const StaticInst& si = statics[idx].inst;
    DynInst d;
    d.pc = remap(r.ip);
    d.op = si.op;
    d.dst = si.dst;
    d.src1 = si.src1;
    d.src2 = si.src2;
    d.seq = i;
    if (si.op == OpClass::Load) {
      const auto* it = std::find_if(
          std::begin(r.smem), std::end(r.smem),
          [](std::uint64_t a) { return a != 0; });
      d.data_addr = it != std::end(r.smem)
                        ? *it
                        : fallback_data_addr(d.pc, ws_bytes);
    } else if (si.op == OpClass::Store) {
      const auto* it = std::find_if(
          std::begin(r.dmem), std::end(r.dmem),
          [](std::uint64_t a) { return a != 0; });
      d.data_addr = it != std::end(r.dmem)
                        ? *it
                        : fallback_data_addr(d.pc, ws_bytes);
    }
    const Addr succ =
        i + 1 < raw.size() ? remap(raw[i + 1].ip) : remap(raw[0].ip);
    d.taken = succ != d.pc + kInstrBytes;
    d.next_pc = d.taken ? succ : d.pc + kInstrBytes;
    if (i + 1 == raw.size()) {
      // Close the lap explicitly: replay wraps to the first record.
      d.taken = true;
      d.next_pc = remap(raw[0].ip);
    }
    ++stream_len;
    d.ends_stream = d.taken || stream_len >= bpred::kMaxStreamInstrs;
    if (d.ends_stream) {
      stream_len = 0;
      ++streams;
    }
    dyn.push_back(d);
  }

  // Pass 4: contiguous basic blocks via the leader algorithm. Control
  // instructions end blocks; taken targets start them.
  std::vector<bool> leader(ips.size(), false);
  leader[0] = true;
  for (std::uint32_t i = 0; i < statics.size(); ++i) {
    if (is_control(statics[i].inst.op) && i + 1 < statics.size()) {
      leader[i + 1] = true;
    }
    if (statics[i].taken_target != kNoAddr) {
      leader[static_cast<std::uint32_t>(
          (statics[i].taken_target - kImageBase) / kInstrBytes)] = true;
    }
  }
  for (const DynInst& d : dyn) {
    if (d.taken) {
      leader[static_cast<std::uint32_t>((d.next_pc - kImageBase) /
                                        kInstrBytes)] = true;
    }
  }

  Program prog;
  prog.name = path;
  prog.base = kImageBase;
  prog.data_sites = {DataSite{DataSiteClass::StackLocal, 8}};
  prog.num_regions = 1;
  prog.dispatcher_head = 0;
  prog.data_ws_bytes = ws_bytes;
  prog.insts.reserve(statics.size() + 1);  // + the closing pad
  std::uint32_t block_start = 0;
  std::uint64_t static_branches = 0;
  std::uint64_t static_loads = 0;
  std::uint64_t static_stores = 0;
  const auto block_id_of = [&](Addr target) {
    // Targets are always leaders, so the containing block starts there.
    std::uint32_t lo = 0;
    std::uint32_t hi = static_cast<std::uint32_t>(prog.blocks.size());
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (prog.blocks[mid].start <= target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  std::vector<std::pair<BlockId, Addr>> pending_targets;
  for (std::uint32_t i = 0; i < statics.size(); ++i) {
    const bool last = i + 1 == statics.size();
    const StaticInst& si = statics[i].inst;
    if (is_control(si.op)) ++static_branches;
    if (si.op == OpClass::Load) ++static_loads;
    if (si.op == OpClass::Store) ++static_stores;
    prog.insts.push_back(si);
    if (!last && !leader[i + 1] && !is_control(si.op)) continue;
    BasicBlock b;
    b.start = kImageBase + static_cast<Addr>(block_start) * kInstrBytes;
    b.first = block_start;
    b.count = i + 1 - block_start;
    switch (si.op) {
      case OpClass::Branch: b.term = TermKind::CondBranch; break;
      case OpClass::Jump: b.term = TermKind::Jump; break;
      case OpClass::Call: b.term = TermKind::Call; break;
      case OpClass::Return: b.term = TermKind::Return; break;
      default: b.term = TermKind::FallThrough; break;
    }
    const BlockId id = static_cast<BlockId>(prog.blocks.size());
    if (b.term == TermKind::CondBranch || b.term == TermKind::Jump ||
        b.term == TermKind::Call) {
      // Resolved after all blocks exist; never-taken branches point at
      // their fall-through as a harmless placeholder.
      pending_targets.emplace_back(id, statics[i].taken_target);
    }
    prog.blocks.push_back(std::move(b));
    block_start = i + 1;
  }
  // Terminate the image: replay never falls off the end (the walker is
  // unused), but the dictionary must be structurally closed.
  const TermKind last_term = prog.blocks.back().term;
  if (last_term == TermKind::FallThrough ||
      last_term == TermKind::CondBranch || last_term == TermKind::Call) {
    BasicBlock pad;
    pad.start = prog.code_end();
    pad.term = TermKind::Jump;
    pad.taken_target = 0;
    pad.first = static_cast<std::uint32_t>(prog.insts.size());
    pad.count = 1;
    StaticInst jump;
    jump.op = OpClass::Jump;
    prog.insts.push_back(jump);
    prog.blocks.push_back(std::move(pad));
  }
  for (const auto& [id, target] : pending_targets) {
    prog.blocks[id].taken_target =
        target == kNoAddr
            ? std::min<BlockId>(id + 1,
                                static_cast<BlockId>(prog.blocks.size() - 1))
            : block_id_of(target);
  }
  prog.region_roots = {0};
  prog.validate();

  if (stats != nullptr) {
    stats->records = raw.size();
    stats->unique_pcs = ips.size();
    stats->branches = static_branches;
    stats->loads = static_loads;
    stats->stores = static_stores;
    stats->synthetic_jumps = synthetic_jumps;
    stats->streams = streams;
  }

  TraceHeader header;
  header.benchmark = path;
  header.record_count = dyn.size();
  std::string name = path;
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return std::make_shared<const ReplayWorkloadSpec>(
      std::move(header), std::move(dyn), std::move(prog), name);
}

}  // namespace prestage::workload
