// Ablation study of CLGP's design decisions (our extension; the clgp_*
// knobs of MachineConfig feed the ablation fields of core::ClgpConfig,
// documented in src/core/clgp.hpp):
// starting from the paper's CLGP+L0 at a 4 KB L1 / 0.045um, each row turns
// one mechanism off (or swaps in a related-work alternative) to measure
// what it contributes:
//   * consumers counter  -> free-on-first-use replacement (prefetch-buffer
//     style), isolating the lifetime-management contribution;
//   * no-filtering       -> FDP-style cache-probe filtering added;
//   * no-replication     -> used lines promoted to L0/L1 (classic buffer);
//   * CLTQ granularity   -> FDP (FTQ blocks) as the whole-design swap;
//   * next-2-line        -> sequential prefetching baseline (§2.1).
#include <cstdio>

#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"

int main() {
  using namespace prestage;
  using namespace prestage::sim;
  using cpu::MachineConfig;
  const auto suite = full_suite();
  constexpr std::uint64_t kL1 = 4096;
  const auto node = cacti::TechNode::um045;

  struct Variant {
    const char* name;
    MachineConfig cfg;
  };
  std::vector<Variant> variants;

  variants.push_back({"CLGP+L0 (paper)", make_config("clgp-l0", node, kL1)});

  MachineConfig no_counter = make_config("clgp-l0", node, kL1);
  no_counter.clgp_disable_consumers = true;
  variants.push_back({"  - consumers counter", no_counter});

  MachineConfig filtered = make_config("clgp-l0", node, kL1);
  filtered.clgp_filter_resident = true;
  variants.push_back({"  + cache-probe filtering", filtered});

  MachineConfig replicate = make_config("clgp-l0", node, kL1);
  replicate.clgp_transfer_on_use = true;
  variants.push_back({"  + transfer-on-use", replicate});

  MachineConfig all_off = make_config("clgp-l0", node, kL1);
  all_off.clgp_disable_consumers = true;
  all_off.clgp_filter_resident = true;
  all_off.clgp_transfer_on_use = true;
  variants.push_back({"  all three reversed", all_off});

  variants.push_back({"FDP+L0 (FTQ granularity)",
                      make_config("fdp-l0", node, kL1)});

  MachineConfig nl = make_config("next-line-l0", node, kL1);
  nl.next_line_degree = 2;
  variants.push_back({"next-2-line + L0", nl});

  variants.push_back({"base+L0 (no prefetch)",
                      make_config("base-l0", node, kL1)});

  Table t({"variant", "HMEAN IPC", "vs CLGP+L0", "PB fetch share"});
  double clgp_ipc = 0.0;
  for (const Variant& v : variants) {
    const SuiteResult r = run_suite(v.cfg, suite);
    if (clgp_ipc == 0.0) clgp_ipc = r.hmean_ipc;
    t.add_row({v.name, fmt(r.hmean_ipc, 3),
               fmt(speedup_pct(r.hmean_ipc, clgp_ipc), 1) + "%",
               fmt_pct(r.fetch_sources().fraction(FetchSource::PreBuffer))});
    std::fprintf(stderr, "ablation: %s done\n", v.name);
  }
  std::printf("== CLGP ablations (4KB L1, 0.045um) ==\n%s\n",
              t.to_text().c_str());
  return 0;
}
