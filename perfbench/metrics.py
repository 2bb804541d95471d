"""Metric math of the perfbench benchmark.

Every function here is pure: it takes the JSON records the perfbench
pass runner prints for each pass (see perfbench.cpp) and returns numbers. Each
ratio is returned as a Ratio that keeps its numerator and denominator,
so the report can print the base beside the value.
"""

import statistics
from typing import NamedTuple

WORKLOADS = ("grid-short", "detailed-long", "sampled-long")

# Points and campaigns (stores) of one pass; a pass of another size is a
# correctness failure.
POINT_COUNTS = {"grid-short": 720, "detailed-long": 56, "sampled-long": 28}
CAMPAIGNS = {"grid-short": 1, "detailed-long": 4, "sampled-long": 2}

END_TO_END = {
    # name: (unit, better)
    "minstr_per_s": ("Minstr/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics of the traced run: name -> (unit, better, what it
# should move). A layer that a workload never calls reads 0 there.
PER_LAYER = {
    "workload.program_ms": ("ms", "lower",
                            "minstr_per_s on grid-short; not on detailed-long"),
    "workload.program_calls": ("count", "lower",
                               "minstr_per_s on grid-short; not on detailed-long"),
    "cpu.construct_ms": ("ms", "lower", "minstr_per_s on grid-short"),
    "cpu.run_s": ("s", "lower",
                  "minstr_per_s on detailed-long; about half of it on "
                  "grid-short; the slice cost on sampled-long"),
    "cpu.kernel_minstr_per_s": ("Minstr/s", "higher",
                                "minstr_per_s on detailed-long and sampled-long"),
    "cpu.skip_frac": ("ratio", "higher", "minstr_per_s on detailed-long"),
    "cpu.cycles": ("count", "lower", "explains minstr_per_s on detailed-long"),
    "cpu.recoveries": ("count", "lower", "explains minstr_per_s on detailed-long"),
    "bpred.mpki": ("1/kinstr", "lower", "explains minstr_per_s on detailed-long"),
    "frontend.lines_fetched": ("count", "lower",
                               "explains minstr_per_s on detailed-long"),
    "frontend.pb_fetch_frac": ("ratio", "higher",
                               "explains minstr_per_s on detailed-long"),
    "mem.l2_misses": ("count", "lower", "explains minstr_per_s on detailed-long"),
    "mem.dcache_misses": ("count", "lower",
                          "explains minstr_per_s on detailed-long"),
    "prefetch.issued": ("count", "lower", "explains minstr_per_s on detailed-long"),
    "prefetch.useful_frac": ("ratio", "higher",
                             "explains minstr_per_s on detailed-long"),
    "campaign.expand_ms": ("ms", "lower", "minstr_per_s on grid-short"),
    "campaign.append_ms": ("ms", "lower", "minstr_per_s on grid-short"),
    "campaign.compact_ms": ("ms", "lower", "minstr_per_s on grid-short"),
    "campaign.busy_frac": ("ratio", "higher", "minstr_per_s on grid-short"),
    "sample.plan_ms": ("ms", "lower", "minstr_per_s on sampled-long"),
    "sample.plan_builds": ("count", "lower", "minstr_per_s on sampled-long"),
    "sample.point_ms": ("ms", "lower", "minstr_per_s on sampled-long"),
    "sample.detailed_frac": ("ratio", "lower",
                             "trades minstr_per_s against sample_ipc_err_pct "
                             "on sampled-long"),
    "sample.cold_start_frac": ("ratio", "lower",
                               "sample_ipc_err_pct on sampled-long"),
    "sample.in_bar_frac": ("ratio", "higher", "sample_ipc_err_pct on sampled-long"),
    "sample_ipc_err_pct": ("%", "lower", "accuracy on sampled-long"),
    "trace.coverage": ("ratio", "higher", "share of busy time inside layer spans"),
    "trace.overhead": ("ratio", "lower", "traced wall time / untraced wall time"),
}


# The host-speed probe's time (perfbench --mode probe), in seconds, on
# the reference host: a fixed constant near its time on the 4-vCPU VM the
# baseline was measured on. It only sets the scale of the scaled metrics.
REFERENCE_PROBE_S = 0.125


class Ratio(NamedTuple):
    """A ratio with its base. Reads 0 when the base is 0."""

    num: float
    den: float

    @property
    def value(self) -> float:
        return self.num / self.den if self.den else 0.0


def completed(points):
    """The points of a pass that produced a result."""
    return [p for p in points if p[2] is not None]


def throughput(pass_record) -> Ratio:
    """Simulated Minstr represented by the results per timed wall second.

    A sampled point counts its full budget.
    """
    minstr = sum(p[5] for p in completed(pass_record["points"])) / 1e6
    return Ratio(minstr, pass_record["wall_s"])


def digest(pass_record) -> str:
    """One FNV-1a digest over the store digests of a pass."""
    h = 0xcbf29ce484222325
    for byte in "".join(pass_record["stores"]).encode():
        h = ((h ^ byte) * 0x100000001b3) % (1 << 64)
    return f"{h:016x}"


def hmean_ipc(pass_record) -> float:
    ipcs = [p[3] for p in completed(pass_record["points"]) if p[3] > 0]
    return statistics.harmonic_mean(ipcs) if ipcs else 0.0


def host_factor(probes) -> Ratio:
    """How many times slower than the reference the host ran during a
    run: the median probe time over REFERENCE_PROBE_S."""
    return Ratio(statistics.median(p["probe_s"] for p in probes),
                 REFERENCE_PROBE_S)


def measured(plain_passes, setup_passes):
    """Medians over the timed passes of one run, in host time as measured;
    set-up time over the set-up-only passes."""
    return {
        "minstr_per_s": statistics.median(
            throughput(p).value for p in plain_passes),
        "setup_s": statistics.median(p["setup_s"] for p in setup_passes),
        "peak_rss_mb": statistics.median(
            p["peak_rss_kb"] / 1024 for p in plain_passes),
    }


def end_to_end(plain_passes, setup_passes, probes):
    """The measured medians, with host time at the reference host speed.

    A shared host runs everything slower while other tenants load it, for
    minutes at a time, so each time is divided by the host factor of the
    run (and each rate multiplied by it). Memory is left as measured.
    """
    m = measured(plain_passes, setup_passes)
    slow = host_factor(probes).value
    m["minstr_per_s"] *= slow
    m["setup_s"] /= slow
    return m


class Check(NamedTuple):
    attempted: int
    failed: int
    mismatched: int  # points whose output differs from the expected one
    notes: list


def check(workload, passes, reference):
    """Compares every pass with the reference run, the same blocks on
    another worker count, point by point and byte for byte in the stores.

    Pass block b must equal the reference's b-th slice of points and
    stores. A point fails when it produced no result or a different one;
    a store that differs with every point equal fails the whole pass.
    """
    n, c = POINT_COUNTS[workload], CAMPAIGNS[workload]
    notes = []
    attempted = failed = mismatched = 0
    for i, rec in enumerate(passes):
        b = rec["block"]
        want = [p[2] for p in reference["points"][b * n:(b + 1) * n]]
        got = [p[2] for p in rec["points"]]
        attempted += len(got)
        if len(got) != n or len(want) != n:
            notes.append(f"pass {i} ({rec['mode']}): {len(got)} points, "
                         f"expected {n}")
            failed += len(got)
            mismatched += len(got)
            continue
        bad = [j for j, (g, w) in enumerate(zip(got, want)) if g != w]
        for j in bad:
            notes.append(f"pass {i} ({rec['mode']}): point "
                         f"{rec['points'][j][0]} differs from the expected result")
        if not bad and rec["stores"] != reference["stores"][b * c:(b + 1) * c]:
            notes.append(f"pass {i} ({rec['mode']}): store bytes differ")
            bad = list(range(len(got)))
        mismatched += len(bad)
        bad_set = set(bad)
        failed += len(bad_set | {j for j, g in enumerate(got) if g is None})
    return Check(attempted, failed, mismatched, notes)


class Accuracy(NamedTuple):
    err_pct: float  # largest |sampled - full| / full over the points, in %
    worst: str  # label of that point
    in_bar: Ratio  # points whose full-run IPC lies inside the sampled bar


def accuracy(sampled_pass, full):
    """Sampled IPC against full detailed runs of the same points."""
    worst_err, worst = 0.0, ""
    inside = total = 0
    for s, f in zip(sampled_pass["points"], full["points"]):
        if s[2] is None or f[2] is None or f[3] <= 0:
            continue
        total += 1
        diff = abs(s[3] - f[3])
        inside += diff <= s[4]
        if diff / f[3] > worst_err:
            worst_err, worst = diff / f[3], f"{s[0]} {s[3]:.3f} vs {f[3]:.3f}"
    return Accuracy(100 * worst_err, worst, Ratio(inside, total))


def layer_ratios(traced, sampled):
    """Per-layer values of one traced pass, each ratio with its base.

    Slices of a sampled point are built and run inside the sample layer,
    so on sampled-long cpu.run_s is the sample.point span and the kernel
    rate counts timing-simulated instructions over it.
    """
    spans = traced["spans"]
    c = traced["counts"]

    def secs(name):
        return spans[name][0]

    run_s = secs("sample.point") if sampled else secs("cpu.run")
    run_instr = c["simulated"] if sampled else c["committed"]
    covered = sum(secs(n) for n in ("workload.program", "cpu.construct",
                                    "cpu.run", "sample.plan", "sample.point"))
    return {
        "workload.program_ms": Ratio(1e3 * secs("workload.program"), 1),
        "workload.program_calls": Ratio(spans["workload.program"][1], 1),
        "cpu.construct_ms": Ratio(1e3 * secs("cpu.construct"), 1),
        "cpu.run_s": Ratio(run_s, 1),
        "cpu.kernel_minstr_per_s": Ratio(run_instr / 1e6, run_s),
        "cpu.skip_frac": Ratio(c["cycles_skipped"], c["cycles"]),
        "cpu.cycles": Ratio(c["cycles"], 1),
        "cpu.recoveries": Ratio(c["recoveries"], 1),
        "bpred.mpki": Ratio(1e3 * c["recoveries"], c["committed"]),
        "frontend.lines_fetched": Ratio(c["lines_fetched"], 1),
        "frontend.pb_fetch_frac": Ratio(c["pb_fetches"], c["fetches"]),
        "mem.l2_misses": Ratio(c["l2_misses"], 1),
        "mem.dcache_misses": Ratio(c["dcache_misses"], 1),
        "prefetch.issued": Ratio(c["prefetches"], 1),
        "prefetch.useful_frac": Ratio(c["pb_fetches"], c["prefetches"]),
        "campaign.expand_ms": Ratio(1e3 * secs("campaign.expand"), 1),
        "campaign.append_ms": Ratio(1e3 * secs("campaign.append"), 1),
        "campaign.compact_ms": Ratio(1e3 * secs("campaign.compact"), 1),
        "campaign.busy_frac": Ratio(secs("campaign.point"),
                                    traced["jobs"] * traced["wall_s"]),
        "sample.plan_ms": Ratio(1e3 * secs("sample.plan"), 1),
        "sample.plan_builds": Ratio(spans["sample.plan"][1], 1),
        "sample.point_ms": Ratio(1e3 * secs("sample.point"), 1),
        "sample.detailed_frac": Ratio(c["simulated"] if sampled else 0,
                                      c["budget"]),
        "sample.cold_start_frac": Ratio(c["cold_starts"], c["slices"]),
        "trace.coverage": Ratio(covered, secs("campaign.point")),
    }


def per_layer(traced_passes, plain_passes, sampled, acc):
    """Medians of the per-layer values over the traced passes of one run.

    Returns {name: (median value, Ratio of the first traced pass)}.
    """
    rows = [layer_ratios(t, sampled) for t in traced_passes]
    out = {name: (statistics.median(r[name].value for r in rows), rows[0][name])
           for name in rows[0]}
    in_bar = acc.in_bar if acc else Ratio(0, 0)
    out["sample.in_bar_frac"] = (in_bar.value, in_bar)
    err = acc.err_pct if acc else 0.0
    out["sample_ipc_err_pct"] = (err, Ratio(err, 1))
    overhead = Ratio(statistics.median(t["wall_s"] for t in traced_passes),
                     statistics.median(p["wall_s"] for p in plain_passes))
    out["trace.overhead"] = (overhead.value, overhead)
    return out
