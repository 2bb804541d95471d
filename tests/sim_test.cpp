// Tests for the experiment harness and figure-shape properties — cheap
// versions of the qualitative claims each paper figure makes.
#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "workload/synthetic_spec.hpp"

namespace prestage::sim {
namespace {

TEST(Presets, NamesAndShapes) {
  EXPECT_EQ(preset_label("clgp-l0-pb16"), "CLGP+L0+PB:16");
  const auto cfg =
      make_config("clgp-l0-pb16", cacti::TechNode::um045, 8192);
  EXPECT_EQ(cfg.prefetcher, "clgp");
  EXPECT_TRUE(cfg.has_l0);
  EXPECT_EQ(cfg.prebuffer_entries, 16u);
  EXPECT_TRUE(cfg.prebuffer_pipelined);
  EXPECT_EQ(cfg.l1i_size, 8192u);
}

TEST(Presets, EveryNamedPresetRoundTripsCanonically) {
  for (const std::string& name : all_presets()) {
    const auto c = parse_spec(name);
    ASSERT_TRUE(c.has_value()) << name;
    EXPECT_EQ(canonical_name(*c), name) << "named presets are canonical";
    EXPECT_EQ(parse_spec(canonical_name(*c)), c) << name;
  }
}

TEST(Presets, CompositionsCanonicalizeAndRoundTrip) {
  const struct {
    const char* spec;
    const char* canonical;
  } kCases[] = {
      {"fdp+l0+pb16", "fdp-l0-pb16"},
      {"fdp-l0-pb16", "fdp-l0-pb16"},
      {"clgp+l0@090", "clgp-l0@090"},
      {"clgp+pb16+l0", "clgp-l0-pb16"},  // canonical order is fixed
      {"next-line+l0", "next-line-l0"},
      {"stream+l0+pb16", "stream-l0-pb16"},
      {"base+pipelined", "base-pipelined"},
      {"base+ideal", "base-ideal"},
      {"clgp-l0-pb8@0.09um", "clgp-l0-pb8@090"},
  };
  for (const auto& kase : kCases) {
    const auto c = parse_spec(kase.spec);
    ASSERT_TRUE(c.has_value()) << kase.spec;
    EXPECT_EQ(canonical_name(*c), kase.canonical) << kase.spec;
    // Round trip: the canonical form parses back to the same value.
    EXPECT_EQ(parse_spec(canonical_name(*c)), c) << kase.spec;
  }
}

TEST(Presets, CompositionsBuildTheRightMachine) {
  const auto c = parse_spec("stream+l0@090");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->prefetcher, "stream");
  EXPECT_TRUE(c->has_l0);
  ASSERT_TRUE(c->node.has_value());
  EXPECT_EQ(*c->node, cacti::TechNode::um090);
  // The composition's node override wins over the build-time node.
  const auto cfg = make_config(*c, cacti::TechNode::um045, 4096);
  EXPECT_EQ(cfg.node, cacti::TechNode::um090);
  EXPECT_EQ(cfg.prefetcher, "stream");
  EXPECT_TRUE(cfg.has_l0);
  EXPECT_EQ(cfg.prebuffer_entries,
            one_cycle_prebuffer_entries(cacti::TechNode::um090));
  EXPECT_FALSE(cfg.prebuffer_pipelined);

  // pb4 fits the 0.045um one-cycle reach; pb16 does not and pipelines.
  EXPECT_FALSE(make_config("clgp-pb4", cacti::TechNode::um045, 4096)
                   .prebuffer_pipelined);
  EXPECT_TRUE(make_config("clgp-pb16", cacti::TechNode::um045, 4096)
                  .prebuffer_pipelined);
}

TEST(Presets, MalformedSpecsAreRejected) {
  for (const char* bad :
       {"", "frobnicate", "fdp+", "+fdp", "fdp+xyz", "l0", "pb16",
        "fdp+pb0", "fdp+pbx", "fdp@", "fdp@bogus", "fdp-l0@", "-fdp",
        "next-line-"}) {
    EXPECT_FALSE(parse_spec(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Presets, DisplayLabelsMatchTheHistoricalFigureLabels) {
  const struct {
    const char* spec;
    const char* label;
  } kCases[] = {
      {"base", "base"},
      {"base-ideal", "ideal"},
      {"base-l0", "base+L0"},
      {"base-pipelined", "base pipelined"},
      {"fdp", "FDP"},
      {"fdp-l0", "FDP+L0"},
      {"fdp-l0-pb16", "FDP+L0+PB:16"},
      {"clgp", "CLGP"},
      {"clgp-l0", "CLGP+L0"},
      {"clgp-l0-pb16", "CLGP+L0+PB:16"},
      {"next-line", "NL"},
      {"next-line-l0", "NL+L0"},
      {"stream", "Stream"},
      {"stream-l0", "Stream+L0"},
  };
  for (const auto& kase : kCases) {
    EXPECT_EQ(preset_label(kase.spec), kase.label) << kase.spec;
  }
}

TEST(Presets, OneCyclePreBufferEntriesMatchPaperSection5) {
  EXPECT_EQ(one_cycle_prebuffer_entries(cacti::TechNode::um090), 8u);
  EXPECT_EQ(one_cycle_prebuffer_entries(cacti::TechNode::um045), 4u);
}

TEST(Presets, PaperSizesAxis) {
  const auto& sizes = paper_l1_sizes();
  ASSERT_EQ(sizes.size(), 9u);
  EXPECT_EQ(sizes.front(), 256u);
  EXPECT_EQ(sizes.back(), 65536u);
}

TEST(Experiment, SuiteAggregatesAndHmean) {
  auto cfg = make_config("base-ideal", cacti::TechNode::um045, 4096);
  const SuiteResult r = run_suite(cfg, {"gzip", "twolf"}, 8000);
  ASSERT_EQ(r.per_benchmark.size(), 2u);
  EXPECT_GT(r.hmean_ipc, 0.0);
  EXPECT_LE(r.hmean_ipc,
            std::max(r.per_benchmark[0].ipc, r.per_benchmark[1].ipc));
  const auto sources = r.fetch_sources();
  EXPECT_GT(sources.total(), 0u);
}

TEST(Experiment, RunParallelPreservesOrderAndDeterminism) {
  std::vector<cpu::MachineConfig> configs;
  for (const char* b : {"gzip", "mcf", "gzip"}) {
    auto cfg = make_config("base", cacti::TechNode::um045, 2048);
    cfg.benchmark = b;
    cfg.max_instructions = 6000;
    configs.push_back(cfg);
  }
  const auto results = run_parallel(configs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].benchmark, "gzip");
  EXPECT_EQ(results[1].benchmark, "mcf");
  // Same config => identical cycle counts even across thread schedules.
  EXPECT_EQ(results[0].cycles, results[2].cycles);
}

TEST(Experiment, SharedProgramCacheBuildsOncePerKeyAcrossSuites) {
  // sweep passes one cache to the run_suite call of every size: each
  // (benchmark, seed) is built once, and results match unshared runs.
  workload::ProgramCache programs;
  for (const std::uint64_t size : {1024u, 4096u}) {
    const auto cfg = make_config("fdp-l0", cacti::TechNode::um045, size);
    const SuiteResult shared =
        run_suite(cfg, {"gzip", "mcf"}, 4000, 2, &programs);
    const SuiteResult own = run_suite(cfg, {"gzip", "mcf"}, 4000, 2);
    ASSERT_EQ(shared.per_benchmark.size(), own.per_benchmark.size());
    for (std::size_t i = 0; i < own.per_benchmark.size(); ++i) {
      EXPECT_EQ(shared.per_benchmark[i].cycles, own.per_benchmark[i].cycles);
      EXPECT_EQ(shared.per_benchmark[i].instructions,
                own.per_benchmark[i].instructions);
    }
    EXPECT_EQ(programs.builds(), 2u);
  }
}

TEST(Report, SizeChartRendersAllSeries) {
  const std::vector<std::uint64_t> sizes = {256, 512};
  const std::vector<Series> series = {{"a", {1.0, 2.0}}, {"b", {3.0, 4.0}}};
  const std::string text = render_size_chart("t", sizes, series);
  EXPECT_NE(text.find("256B"), std::string::npos);
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("4.000"), std::string::npos);
  EXPECT_NE(text.find("csv:"), std::string::npos);
}

TEST(Report, SourceChartIncludesL0WhenAsked) {
  SourceBreakdown sb;
  sb.add(FetchSource::PreBuffer, 90);
  sb.add(FetchSource::L0, 10);
  const std::string with_l0 =
      render_source_chart("t", {4096}, {sb}, true);
  EXPECT_NE(with_l0.find("il0"), std::string::npos);
  const std::string without =
      render_source_chart("t", {4096}, {sb}, false);
  EXPECT_EQ(without.find("il0"), std::string::npos);
}

TEST(Report, SpeedupPct) {
  EXPECT_NEAR(speedup_pct(1.2, 1.0), 20.0, 1e-9);
  EXPECT_NEAR(speedup_pct(0.9, 1.0), -10.0, 1e-9);
  EXPECT_THROW((void)speedup_pct(1.0, 0.0), SimError);
}

// --- figure-shape properties (cheap versions of the paper's claims) -----

TEST(FigureShape, Fig1IdealDominatesAndBaseSuffersLatency) {
  // Figure 1: ideal >= pipelined >= base at a multi-cycle size.
  const auto node = cacti::TechNode::um045;
  const std::vector<std::string> suite = {"eon", "gcc", "gzip"};
  const double ideal =
      run_suite(make_config("base-ideal", node, 8192), suite, 10000)
          .hmean_ipc;
  const double pipelined =
      run_suite(make_config("base-pipelined", node, 8192), suite, 10000)
          .hmean_ipc;
  const double base =
      run_suite(make_config("base", node, 8192), suite, 10000)
          .hmean_ipc;
  EXPECT_GE(ideal, pipelined * 0.999);
  EXPECT_GT(pipelined, base);
}

TEST(FigureShape, Fig5ClgpBeatsFdpBeatsBaseAt4KB) {
  const auto node = cacti::TechNode::um045;
  const std::vector<std::string> suite = {"eon", "vortex", "crafty"};
  const double clgp =
      run_suite(make_config("clgp-l0-pb16", node, 4096), suite, 10000)
          .hmean_ipc;
  const double fdp =
      run_suite(make_config("fdp-l0-pb16", node, 4096), suite, 10000)
          .hmean_ipc;
  const double base =
      run_suite(make_config("base-pipelined", node, 4096), suite, 10000)
          .hmean_ipc;
  EXPECT_GT(clgp, fdp * 0.995);  // CLGP at least matches FDP
  EXPECT_GT(clgp, base);         // and clearly beats no-prefetch
}

TEST(FigureShape, ClgpInsensitiveToL1Size) {
  // Paper §5.1: "CLGP almost saturates its performance at very small L1
  // cache sizes".
  const auto node = cacti::TechNode::um045;
  const std::vector<std::string> suite = {"eon", "crafty"};
  const double small =
      run_suite(make_config("clgp-l0", node, 1024), suite, 10000)
          .hmean_ipc;
  const double large =
      run_suite(make_config("clgp-l0", node, 32768), suite, 10000)
          .hmean_ipc;
  EXPECT_GT(small, large * 0.85);  // within 15% across a 32x size range
}

}  // namespace
}  // namespace prestage::sim
