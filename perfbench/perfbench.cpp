// One pass of one benchmark workload, run in this process and reported
// as a single JSON line of raw measurements on stdout. perfbench/run.py
// starts a fresh process for every pass — the sampling-plan and
// base-workload caches are process-wide, so a second pass in the same
// process would time warm caches — and turns these bases into metrics.
//
//   perfbench --workload NAME --seed N --mode MODE --dir DIR
//             [--block B] [--blocks N] [--jobs N] [--spawn-ns NS]
//
// The long workloads give every pass of a run its own programs: pass
// --block B simulates program seeds no other pass of the run uses (see
// add_long_block). grid-short runs the same grid in every pass.
//
// Modes:
//   plain      what a user runs: campaign::run_campaign into a fresh
//              store per campaign, for block --block. Timed.
//   traced     the public calls campaign::run_campaign and
//              campaign::simulate make, issued one by one from here with
//              a span around each layer's call. Timed; the store it
//              writes must match the plain one byte for byte.
//   setup      a plain pass in which the fault layer fails every point
//              at its first probe, so the pass ends just after set-up:
//              more samples of set-up time, measured as in a plain pass.
//   reference  the untimed correctness reference: blocks 0 to --blocks
//              − 1 in one plain pass on --jobs workers (the engine
//              promises the same store bytes at any worker count).
//   full       the untimed accuracy reference of sampled-long: the
//              points of block 0 simulated in full, on --jobs workers.
//   probe      no simulation: times a fixed piece of work that calls no
//              simulator code, to tell how fast the host runs right now.
//
// --spawn-ns is the CLOCK_MONOTONIC time at which the caller started
// this process. Set-up time runs from there to the start of the first
// point.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <time.h>

#include "campaign/engine.hpp"
#include "campaign/perf.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"
#include "common/faultpoint.hpp"
#include "common/json_writer.hpp"
#include "common/parallel.hpp"
#include "cpu/cpu.hpp"
#include "sample/plan.hpp"
#include "sample/runner.hpp"
#include "workload/synthetic_spec.hpp"

namespace {

using namespace prestage;
// Host time is what this program measures; no simulated result reads it.
using Clock = std::chrono::steady_clock;  // NOLINT(prestage-wallclock)

// ---------------------------------------------------------------------------
// Workloads

/// Per-point budget of grid-short: set-up (program synthesis and Cpu
/// construction) is about half of a point's host cost here.
constexpr std::uint64_t kShortInstructions = 3000;
/// Per-point budgets of the long workloads: the cycle kernel dominates,
/// and sampling still forms its default 40 intervals of budget/40.
constexpr std::uint64_t kDetailedInstructions = 250000;
constexpr std::uint64_t kSampledInstructions = 1000000;

/// A workload is one or more campaigns run back to back in one pass.
struct Workload {
  std::vector<campaign::CampaignSpec> campaigns;
  unsigned jobs = 1;
};

/// The `family` campaign grid: every registered scheme, both nodes, three
/// L1 sizes, the full 12-benchmark suite (720 points).
campaign::CampaignSpec grid_short(std::uint64_t seed) {
  campaign::CampaignSpec s;
  s.name = "grid-short";
  s.presets = {"next-line", "next-line-l0", "stream",         "stream-l0",
               "mana",      "mana-l0",      "program-map",    "program-map-l0",
               "fdp-l0",    "clgp-l0"};
  s.nodes = {cacti::TechNode::um090, cacti::TechNode::um045};
  s.l1_sizes = {1024, 4096, 16384};
  s.instructions = kShortInstructions;
  s.seed = seed;
  return s;
}

/// Every registered scheme once on gcc (largest code footprint) and mcf
/// (memory-bound, long skip spans) at 0.045um with a 4 KB L1.
campaign::CampaignSpec long_points(std::uint64_t seed, bool sampled) {
  campaign::CampaignSpec s;
  s.name = sampled ? "sampled-long" : "detailed-long";
  s.presets = {"base-pipelined", "next-line-l0",   "stream-l0",
               "mana-l0",        "program-map-l0", "fdp-l0-pb16",
               "clgp-l0-pb16"};
  s.nodes = {cacti::TechNode::um045};
  s.l1_sizes = {4096};
  s.benchmarks = {"gcc", "mcf"};
  s.instructions = sampled ? kSampledInstructions : kDetailedInstructions;
  s.seed = seed;
  s.sampling.enabled = sampled;  // default SamplingParams otherwise
  return s;
}

/// Program seeds per pass of the long workloads. A seed's programs move
/// the cost of its 14 points: by 9% (standard deviation over seeds) in
/// full simulation, and by 13–20% when sampled, where the 7 schemes of
/// a benchmark share one plan and the number of phases it picks sets how
/// many slices run. So every pass of a run takes the next seeds, and the
/// median over a run's passes averages over all of them.
constexpr std::uint64_t kDetailedSeeds = 4;
constexpr std::uint64_t kSampledSeeds = 2;
/// Blocks a run may use; the seeds of two runs never overlap.
constexpr std::uint64_t kMaxBlocks = 100000;

/// Block @p block of a long workload: one campaign per program seed,
/// seeds (@p seed·kMaxBlocks + @p block)·@p seeds onwards.
void add_long_block(Workload& w, std::uint64_t seed, std::uint64_t block,
                    std::uint64_t seeds, bool sampled) {
  const std::uint64_t first = (seed * kMaxBlocks + block) * seeds;
  for (std::uint64_t j = 0; j < seeds; ++j) {
    w.campaigns.push_back(long_points(first + j, sampled));
  }
}

/// Blocks @p first to @p last − 1 of workload @p name; grid-short has one.
std::optional<Workload> find_workload(const std::string& name,
                                      std::uint64_t seed, std::uint64_t first,
                                      std::uint64_t last) {
  // One worker: the wall time of two measured how many vCPUs a shared
  // host granted at that moment as much as the program's speed.
  if (name == "grid-short") return Workload{{grid_short(seed)}, 1};
  const bool sampled = name == "sampled-long";
  if (!sampled && name != "detailed-long") return std::nullopt;
  Workload w{{}, 1};
  for (std::uint64_t b = first; b < last; ++b) {
    add_long_block(w, seed, b, sampled ? kSampledSeeds : kDetailedSeeds,
                   sampled);
  }
  return w;
}

/// @p w on @p jobs workers, simulated in full when @p full is set.
Workload reference_of(Workload w, unsigned jobs, bool full) {
  if (full) {
    for (campaign::CampaignSpec& c : w.campaigns) c.sampling.enabled = false;
  }
  w.jobs = jobs;
  return w;
}

// ---------------------------------------------------------------------------
// Spans

struct SpanTotal {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// Adds the lifetime of this object to @p total.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanTotal& total) : total_(total) {}
  ~ScopedSpan() {
    const std::chrono::duration<double> d = Clock::now() - start_;
    total_.seconds += d.count();
    ++total_.calls;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTotal& total_;
  Clock::time_point start_ = Clock::now();
};

/// The spans of one run point. `point` is the parent; the others are its
/// children, one per layer call. Each point's slot is written by the one
/// worker simulating it.
struct PointSpans {
  SpanTotal point;
  SpanTotal program;       // workload::SyntheticWorkloadSpec construction
  SpanTotal construct;     // cpu::Cpu constructor
  SpanTotal run;           // cpu::Cpu::run
  SpanTotal plan;          // sample::build_plan
  SpanTotal sample_point;  // sample::run_sampled_point_with_plan
};

/// What sample::run_sampled_point fetches from its process-wide caches,
/// built here under spans instead: one synthetic workload and one plan
/// per (benchmark, seed), shared by the schemes of that benchmark.
class SampledInputs {
 public:
  struct Entry {
    std::shared_ptr<const workload::WorkloadSpec> base;
    std::shared_ptr<const sample::SamplePlan> plan;
  };

  const Entry& get(const cpu::MachineConfig& cfg,
                   const sample::ResolvedSamplingParams& params,
                   PointSpans& spans) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find({cfg.benchmark, cfg.seed});
    if (it != entries_.end()) return it->second;
    Entry e;
    {
      const ScopedSpan s(spans.program);
      e.base = std::make_shared<const workload::SyntheticWorkloadSpec>(
          cfg.benchmark, cfg.seed);
    }
    {
      const ScopedSpan s(spans.plan);
      e.plan = std::make_shared<const sample::SamplePlan>(sample::build_plan(
          *e.base, cfg.seed, cfg.max_instructions, params));
    }
    return entries_.emplace(std::pair{cfg.benchmark, cfg.seed}, std::move(e))
        .first->second;
  }

 private:
  std::mutex mutex_;
  std::map<std::pair<std::string, std::uint64_t>, Entry> entries_;
};

/// campaign::simulate, call by call, with a span around each layer.
campaign::PointResult simulate_traced(const campaign::RunPoint& p,
                                      PointSpans& spans,
                                      SampledInputs& sampled) {
  campaign::PointResult r;
  r.key = p.key();
  faults::check(faults::Site::PointExecute, r.key);
  r.preset = p.preset;
  r.config = p.config;
  r.node = cacti::to_string(p.node);
  r.benchmark = p.benchmark;
  r.l1i_size = p.l1i_size;
  r.instructions = p.instructions;
  r.seed = p.seed;
  cpu::MachineConfig cfg = p.machine_config();
  if (p.sampling.enabled) {
    const SampledInputs::Entry& in = sampled.get(cfg, p.sampling, spans);
    const ScopedSpan s(spans.sample_point);
    r.result = sample::run_sampled_point_with_plan(cfg, in.base, *in.plan);
    return r;
  }
  {
    const ScopedSpan s(spans.program);
    cfg.workload = std::make_shared<const workload::SyntheticWorkloadSpec>(
        cfg.benchmark, cfg.seed);
  }
  std::unique_ptr<cpu::Cpu> machine;
  {
    const ScopedSpan s(spans.construct);
    machine = std::make_unique<cpu::Cpu>(cfg);
  }
  const ScopedSpan s(spans.run);
  r.result = machine->run();
  return r;
}

/// The engine's default retry policy: a point that throws on every
/// attempt is abandoned (run_campaign quarantines it).
std::optional<campaign::PointResult> execute_traced(
    const campaign::RunPoint& p, PointSpans& spans, SampledInputs& sampled) {
  const ScopedSpan whole(spans.point);
  const unsigned attempts = campaign::FaultPolicy{}.max_attempts;
  for (unsigned attempt = 1;; ++attempt) {
    try {
      return simulate_traced(p, spans, sampled);
    } catch (const std::exception&) {
      if (attempt >= attempts) return std::nullopt;
    }
  }
}

// ---------------------------------------------------------------------------
// Passes

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Peak resident set at the end of the timed phase.
  long peak_rss_kb = 0;
  std::size_t quarantined = 0;
  std::vector<campaign::RunPoint> points;
  /// Aligned with points; empty optional for a point that failed.
  std::vector<std::optional<campaign::PointResult>> results;

  // traced only
  bool traced = false;
  std::optional<Clock::time_point> first_point;
  SpanTotal expand, append, compact;
  std::vector<PointSpans> spans;
};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Host-speed probe

/// Fills @p n table entries from a fixed generator.
std::vector<std::uint32_t> probe_table(std::size_t n) {
  std::vector<std::uint32_t> t(n);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t& v : t) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    v = static_cast<std::uint32_t>(x >> 32);
  }
  return t;
}

/// Walks @p steps dependent loads through @p table, branching on every
/// loaded value and, when @p store is set, writing each entry back.
/// Returns the seconds the walk took; folds its result into @p check.
double probe_walk(std::vector<std::uint32_t>& table, std::uint64_t steps,
                  bool store, std::uint64_t& check) {
  const std::uint32_t mask = static_cast<std::uint32_t>(table.size() - 1);
  const Clock::time_point t0 = Clock::now();
  std::uint32_t i = 0;
  std::uint64_t acc = check;
  for (std::uint64_t n = 0; n < steps; ++n) {
    const std::uint32_t v = table[i];
    if ((v & 1U) != 0) {
      acc += v >> 3U;
    } else {
      acc ^= std::uint64_t{v} * 31U;
    }
    if (store) table[i] = v + static_cast<std::uint32_t>(n);
    i = (v ^ static_cast<std::uint32_t>(store ? acc : n)) & mask;
  }
  check = acc;
  const std::chrono::duration<double> d = Clock::now() - t0;
  return d.count();
}

/// Seconds a fixed piece of work takes on this host now: one chain of
/// dependent loads, with branches on the loaded data, over a 16 KB table
/// updated in place (the core's own speed), and one over a 32 MB table
/// (the shared caches and memory). It calls no simulator code, so only
/// the host's speed moves it. Of the table sizes tried, from 16 KB to
/// 32 MB, these two tracked the speed of grid-short passes run between
/// them best; a 4 MB table tracked it worst.
double probe_seconds(std::uint64_t& check) {
  std::vector<std::uint32_t> core = probe_table(std::size_t{1} << 12);
  std::vector<std::uint32_t> memory = probe_table(std::size_t{1} << 23);
  return probe_walk(core, 6000000, true, check) +
         probe_walk(memory, 600000, false, check);
}

/// CPU time the calling thread has used since it started.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// This process's peak resident set (VmHWM). Not getrusage: its
/// ru_maxrss keeps the high-water mark of the image this process replaced
/// at exec, the parent's address space copied at fork.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

std::string store_path(const std::filesystem::path& dir, std::size_t j) {
  return (dir / ("store-" + std::to_string(j) + ".jsonl")).string();
}

/// Loads a finished store and appends its records, aligned with the grid.
void collect_store(const campaign::CampaignSpec& spec,
                   const std::string& path, PassResult& out) {
  const campaign::ResultStore store = campaign::ResultStore::load(path);
  for (campaign::RunPoint& p : campaign::expand(spec)) {
    const campaign::PointResult* r = store.find(p.key());
    out.results.push_back(r != nullptr ? std::optional(*r) : std::nullopt);
    out.points.push_back(std::move(p));
  }
}

PassResult run_plain(const Workload& w, const std::filesystem::path& dir,
                     Clock::time_point spawn) {
  PassResult out;
  // Set-up ends where the first point starts, inside run_campaign. The
  // engine runs the points on pool threads it starts for the campaign,
  // and a worker reports progress right after each of its points. At a
  // worker's first report, the CPU time it has used is all it has done
  // since it started, so subtracting that time from the report's time
  // gives the worker's start, and the earliest start over the workers is
  // the first point's start. Time the worker spent descheduled during its
  // first point counts as set-up; in a set-up-only pass that point is a
  // single fault probe, so there the figure is exact.
  std::mutex mutex;
  double first_point_s = std::numeric_limits<double>::infinity();
  const campaign::Progress on_progress = [&](std::size_t, std::size_t) {
    thread_local bool reported = false;
    if (reported) return;
    reported = true;
    const double start = seconds_since(spawn) - thread_cpu_seconds();
    const std::lock_guard<std::mutex> lock(mutex);
    first_point_s = std::min(first_point_s, start);
  };
  const Clock::time_point t0 = Clock::now();
  for (std::size_t j = 0; j < w.campaigns.size(); ++j) {
    // Pool threads are new for every campaign; only the first one's
    // starts are the pass's set-up.
    out.quarantined +=
        campaign::run_campaign(w.campaigns[j], store_path(dir, j), w.jobs,
                               j == 0 ? on_progress : campaign::Progress{})
            .quarantined;
  }
  out.wall_s = seconds_since(t0);
  out.peak_rss_kb = peak_rss_kb();
  out.setup_s = first_point_s;
  for (std::size_t j = 0; j < w.campaigns.size(); ++j) {
    collect_store(w.campaigns[j], store_path(dir, j), out);
  }
  return out;
}

/// One campaign of a traced pass, appended to @p out.
void trace_campaign(const campaign::CampaignSpec& spec, unsigned jobs,
                    const std::string& path, SampledInputs& sampled,
                    PassResult& out) {
  std::vector<campaign::RunPoint> points;
  {
    const ScopedSpan s(out.expand);
    points = campaign::expand(spec);
  }
  const std::size_t n = points.size();
  std::vector<PointSpans> spans(n);
  std::vector<std::optional<campaign::PointResult>> results(n);
  {
    // Results are appended in grid order, each as soon as every earlier
    // point has finished — the engine's ordered-flush discipline.
    campaign::StoreAppender store(path);
    campaign::LineAppender perf(campaign::perf_log_path(path),
                                faults::Site::PerfAppend);
    std::vector<char> done(n, 0);
    std::mutex mutex;
    std::size_t next = 0;
    parallel_for_indexed(n, jobs, [&](std::size_t i) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!out.first_point) out.first_point = Clock::now();
      }
      std::optional<campaign::PointResult> r =
          execute_traced(points[i], spans[i], sampled);
      const std::lock_guard<std::mutex> lock(mutex);
      results[i] = std::move(r);
      done[i] = 1;
      for (; next < n && done[next] != 0; ++next) {
        if (!results[next]) {
          ++out.quarantined;
          continue;
        }
        const ScopedSpan s(out.append);
        store.append(*results[next]);
        perf.append_line(campaign::encode_perf_line(
            campaign::perf_record_of(*results[next])));
      }
    });
  }
  {
    const ScopedSpan s(out.compact);
    (void)campaign::compact_store(path, points);
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.points.push_back(std::move(points[i]));
    out.results.push_back(std::move(results[i]));
    out.spans.push_back(spans[i]);
  }
}

PassResult run_traced(const Workload& w, const std::filesystem::path& dir,
                      Clock::time_point spawn) {
  PassResult out;
  out.traced = true;
  const Clock::time_point t0 = Clock::now();
  SampledInputs sampled;
  for (std::size_t j = 0; j < w.campaigns.size(); ++j) {
    trace_campaign(w.campaigns[j], w.jobs, store_path(dir, j), sampled, out);
  }
  out.wall_s = seconds_since(t0);
  out.peak_rss_kb = peak_rss_kb();
  if (out.first_point) {
    out.setup_s =
        std::chrono::duration<double>(*out.first_point - spawn).count();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_span(JsonWriter& j, const char* name, const SpanTotal& t) {
  j.key(name);
  j.begin_array();
  j.value(t.seconds);
  j.value(t.calls);
  j.end_array();
}

/// Simulated work counts summed over the pass's results.
void write_counts(JsonWriter& j, const PassResult& p) {
  std::uint64_t cycles = 0, skipped = 0, committed = 0, recoveries = 0,
                lines = 0, fetches = 0, pb_fetches = 0, l2_misses = 0,
                dcache_misses = 0, prefetches = 0, budget = 0, simulated = 0,
                slices = 0, cold_starts = 0;
  for (const auto& r : p.results) {
    if (!r) continue;
    const cpu::RunResult& x = r->result;
    cycles += x.cycles;
    skipped += x.cycles_skipped;
    committed += x.instructions;
    recoveries += x.recoveries;
    lines += x.lines_fetched;
    fetches += x.fetch_sources.total();
    pb_fetches += x.fetch_sources.count(FetchSource::PreBuffer);
    l2_misses += x.l2_misses;
    dcache_misses += x.dcache_misses;
    prefetches += x.prefetches_issued;
    budget += r->instructions;
    simulated += x.sampled ? x.sample_simulated_instructions : x.instructions;
    slices += x.sample_slices;
    cold_starts += x.sample_cold_starts;
  }
  j.key("counts");
  j.begin_object();
  j.field("cycles", cycles);
  j.field("cycles_skipped", skipped);
  j.field("committed", committed);
  j.field("recoveries", recoveries);
  j.field("lines_fetched", lines);
  j.field("fetches", fetches);
  j.field("pb_fetches", pb_fetches);
  j.field("l2_misses", l2_misses);
  j.field("dcache_misses", dcache_misses);
  j.field("prefetches", prefetches);
  j.field("budget", budget);
  j.field("simulated", simulated);
  j.field("slices", slices);
  j.field("cold_starts", cold_starts);
  j.end_object();
}

void write_pass(std::ostream& os, const std::string& workload,
                const std::string& mode, std::uint64_t seed,
                std::uint64_t block, unsigned jobs, const PassResult& p,
                const std::vector<std::string>& store_digests) {
  JsonWriter j(os, JsonWriter::Style::Compact);
  j.begin_object();
  j.field("workload", workload);
  j.field("mode", mode);
  j.field("seed", seed);
  j.field("block", block);
  j.field("jobs", jobs);
  j.field("setup_s", p.setup_s);
  j.field("wall_s", p.wall_s);
  j.field("quarantined", static_cast<std::uint64_t>(p.quarantined));
  j.field("peak_rss_kb", static_cast<std::int64_t>(p.peak_rss_kb));
  // One digest of the store file per campaign, in campaign order.
  j.key("stores");
  j.begin_array();
  for (const std::string& d : store_digests) j.value(d);
  j.end_array();
  // [label, key, line digest or null, ipc, ipc_error, budget instructions]
  j.key("points");
  j.begin_array();
  for (std::size_t i = 0; i < p.points.size(); ++i) {
    const campaign::RunPoint& pt = p.points[i];
    j.begin_array();
    j.value(pt.preset + "/" + std::string(cacti::to_string(pt.node)) + "/" +
            std::to_string(pt.l1i_size) + "/" + pt.benchmark);
    j.value(pt.key());
    const auto& r = p.results[i];
    if (r) {
      j.value(hex64(campaign::fnv1a64(campaign::encode_line(*r))));
      j.value(r->result.ipc);
      j.value(r->result.ipc_error);
      j.value(r->instructions);
    } else {
      j.null_value();
      j.null_value();
      j.null_value();
      j.null_value();
    }
    j.end_array();
  }
  j.end_array();
  if (p.traced) {
    PointSpans sum;
    const auto add = [](SpanTotal& to, const SpanTotal& from) {
      to.seconds += from.seconds;
      to.calls += from.calls;
    };
    for (const PointSpans& s : p.spans) {
      add(sum.point, s.point);
      add(sum.program, s.program);
      add(sum.construct, s.construct);
      add(sum.run, s.run);
      add(sum.plan, s.plan);
      add(sum.sample_point, s.sample_point);
    }
    j.key("spans");
    j.begin_object();
    write_span(j, "campaign.expand", p.expand);
    write_span(j, "campaign.append", p.append);
    write_span(j, "campaign.compact", p.compact);
    write_span(j, "campaign.point", sum.point);
    write_span(j, "workload.program", sum.program);
    write_span(j, "cpu.construct", sum.construct);
    write_span(j, "cpu.run", sum.run);
    write_span(j, "sample.plan", sum.plan);
    write_span(j, "sample.point", sum.sample_point);
    j.end_object();
    write_counts(j, p);
  }
  j.end_object();
  os << '\n';
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload grid-short|detailed-long|"
               "sampled-long --seed N --mode "
               "plain|traced|setup|reference|full|probe "
               "--dir DIR [--block B] [--blocks N] [--jobs N] "
               "[--spawn-ns NS]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point entered = Clock::now();
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    static const std::set<std::string> known = {
        "--workload", "--seed", "--mode",   "--dir",
        "--block",    "--blocks", "--jobs", "--spawn-ns"};
    if (known.count(flag) == 0 || i + 1 >= argc) {
      return usage(("bad argument '" + flag + "'").c_str());
    }
    args[flag.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "mode", "dir"}) {
    if (args.count(required) == 0) {
      return usage((std::string("missing --") + required).c_str());
    }
  }
  try {
    const std::uint64_t seed = std::stoull(args["seed"]);
    const std::string& mode = args["mode"];
    const std::uint64_t block =
        args.count("block") != 0 ? std::stoull(args["block"]) : 0;
    const std::uint64_t blocks =
        args.count("blocks") != 0 ? std::stoull(args["blocks"]) : 1;
    if (block >= kMaxBlocks || blocks == 0 || blocks > kMaxBlocks) {
      return usage("block out of range");
    }
    // The reference covers blocks 0 to blocks − 1; every other mode one.
    const bool all_blocks = mode == "reference";
    const std::optional<Workload> w =
        find_workload(args["workload"], seed, all_blocks ? 0 : block,
                      all_blocks ? blocks : block + 1);
    if (!w) return usage("unknown workload");
    if (mode == "probe") {
      std::uint64_t check = seed;
      const double probe_s = probe_seconds(check);
      JsonWriter j(std::cout, JsonWriter::Style::Compact);
      j.begin_object();
      j.field("mode", mode);
      j.field("probe_s", probe_s);
      j.field("check", check);
      j.end_object();
      std::cout << '\n';
      return std::cout.good() ? 0 : 1;
    }
    Clock::time_point spawn = entered;
    if (args.count("spawn-ns") != 0) {
      spawn = Clock::time_point(
          std::chrono::nanoseconds(std::stoll(args["spawn-ns"])));
    }
    if (const char* faults_spec = std::getenv("PRESTAGE_FAULTS")) {
      const std::string error = faults::arm(faults_spec);
      if (!error.empty()) return usage(("PRESTAGE_FAULTS: " + error).c_str());
    }

    // A fresh store every pass: nothing may be reused from an earlier one.
    const std::filesystem::path dir = args["dir"];
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    PassResult pass;
    unsigned jobs = w->jobs;
    if (mode == "plain") {
      pass = run_plain(*w, dir, spawn);
    } else if (mode == "setup") {
      const std::string error = faults::arm("point.execute:throw@every=1");
      if (!error.empty()) return usage(error.c_str());
      pass = run_plain(*w, dir, spawn);
    } else if (mode == "traced") {
      pass = run_traced(*w, dir, spawn);
    } else if (mode == "reference" || mode == "full") {
      jobs = args.count("jobs") != 0
                 ? static_cast<unsigned>(std::stoul(args["jobs"]))
                 : 1;
      pass = run_plain(reference_of(*w, jobs, mode == "full"), dir, spawn);
    } else {
      return usage("unknown mode");
    }
    std::vector<std::string> stores;
    for (std::size_t j = 0; j < w->campaigns.size(); ++j) {
      stores.push_back(
          hex64(campaign::fnv1a64(file_bytes(store_path(dir, j)))));
    }
    write_pass(std::cout, args["workload"], mode, seed,
               args["workload"] == "grid-short" ? 0 : block, jobs, pass,
               stores);
    std::filesystem::remove_all(dir);
    return std::cout.good() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
