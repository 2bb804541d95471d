#!/usr/bin/env python3
"""End-to-end benchmark of the prestage simulator.

    python3 perfbench/run.py --workload grid-short|detailed-long|sampled-long
                             --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the simulator
sources it compiles) into $CARGO_TARGET_DIR, default .bench_build, then
runs a warm-up pass and then fresh-process passes of the workload for
about S seconds, checks every pass against an untimed reference run, and
prints the metrics:
a readable report first, and as the last line of stdout one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of untraced passes, with host time scaled to a
reference host speed by probes run between the passes; --trace 1
alternates untraced and traced passes and reports the per-layer metrics. Exits 1 when the
correctness check fails, 2 when the benchmark cannot run at all.
See perfbench/README.md.
"""

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave the source tree as checked out
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

BUILD_TIMEOUT_S = 850
PASS_TIMEOUT_S = 170
# Set-up-only passes per run; setup_s is their median.
SETUP_PASSES = 40


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def run_child(cmd, timeout, stdout=subprocess.PIPE):
    """Runs cmd in its own process group; kills the group on any exit path."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=stdout,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} exited {proc.returncode}")
    return out


def build_dir(root):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else root / target


def build(root):
    """Configures once, then builds incrementally; returns the pass runner."""
    bdir = build_dir(root) / "perfbench"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not any((bdir / f).exists() for f in ("Makefile", "build.ninja")):
        run_child(["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                  stdout=sys.stderr)
    run_child(["cmake", "--build", bdir, "-j", nproc(), "--target",
               "perfbench"], max(1, deadline - time.monotonic()),
              stdout=sys.stderr)
    return bdir / "perfbench"


def run_pass(binary, workload, seed, mode, work_dir, block=0, blocks=1,
             jobs=None):
    """One pass of seed block `block` (the reference: blocks 0 to
    `blocks` - 1) in a fresh process; returns its JSON record."""
    cmd = [binary, "--workload", workload, "--seed", seed, "--mode", mode,
           "--dir", work_dir / mode, "--block", block, "--blocks", blocks]
    if jobs is not None:
        cmd += ["--jobs", jobs]
    cmd += ["--spawn-ns", time.monotonic_ns()]
    out = run_child(cmd, PASS_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


def timed_passes(binary, workload, seed, seconds, traced, work_dir):
    """An untimed warm-up pass of block 0, then passes for about
    `seconds`: at least one, and another (pair) only when the last one
    says it fits. Pass (pair) i simulates block i, right after a probe of
    the host's speed.

    Returns (warm-up pass, timed passes, probes)."""
    modes = ("plain", "traced") if traced else ("plain",)
    warm = run_pass(binary, workload, seed, "plain", work_dir)
    passes, probes = [], []
    start = time.monotonic()
    for block in itertools.count(1):
        group_start = time.monotonic()
        probes.append(run_pass(binary, workload, seed, "probe", work_dir))
        for mode in modes:
            passes.append(run_pass(binary, workload, seed, mode, work_dir,
                                   block=block))
        now = time.monotonic()
        if now - start + (now - group_start) > seconds:
            return warm, passes, probes


def report(workload, seed, plain, traced, reference, chk, e2e, raw, slow,
           probes, layers, acc):
    """The readable report; stdout lines before the final JSON."""
    lines = [f"perfbench {workload} seed={seed}: warm-up + {len(plain)} "
             f"untraced + {len(traced)} traced passes, reference "
             f"{reference['jobs']} worker(s)"]
    if e2e is not None:
        timed_setup = statistics.median(p["setup_s"] for p in plain)
        rate = metrics.throughput(plain[0])
        rates = sorted(metrics.throughput(p).value for p in plain)
        lines += [
            f"  host factor         {slow.value:.4f}  (median probe "
            f"{slow.num:.4f} s / reference {slow.den} s; host time below "
            f"is at reference speed, as measured in brackets)",
            f"  minstr_per_s        {e2e['minstr_per_s']:.4f} Minstr/s  "
            f"(measured {raw['minstr_per_s']:.4f}: median of {len(rates)} "
            f"passes, range {rates[0]:.4f}..{rates[-1]:.4f}; first pass "
            f"{rate.num:.3f} Minstr / {rate.den:.4f} s)",
            f"  setup_s             {e2e['setup_s']:.6f} s  (measured "
            f"{raw['setup_s']:.6f}: median of {SETUP_PASSES} set-up-only "
            f"passes, spawn to first point; timed passes' median "
            f"{timed_setup:.6f} s)",
            f"  peak_rss_mb         {e2e['peak_rss_mb']:.2f} MB  (median)",
            "  passes              " + " ".join(
                f"{metrics.throughput(p).value:.4f}" for p in plain)
            + "  (measured Minstr/s, in order)",
            "  probes              " + " ".join(
                f"{p['probe_s']:.4f}" for p in probes) + "  (s, in order)",
        ]
    lines += [
        f"  failed_frac         {metrics.Ratio(chk.failed, chk.attempted).value:.6f}"
        f"  ({chk.failed} failed / {chk.attempted} attempted points)",
        f"  digest              {metrics.digest(reference)}  (stores, "
        f"reference)",
        f"  hmean_ipc           {metrics.hmean_ipc(reference):.6f}  "
        f"(simulated, reference)",
    ]
    if acc is not None:
        lines.append(f"  sample_ipc_err_pct  {acc.err_pct:.4f} %  (worst: "
                     f"{acc.worst}; {acc.in_bar.num}/{acc.in_bar.den} "
                     f"full-run IPCs inside the sampled bar)")
    for name, (value, base) in (layers or {}).items():
        unit, _, moves = metrics.PER_LAYER[name]
        of = f" (first pass {base.num:.6g} / {base.den:.6g})" \
            if base.den != 1 else ""
        lines.append(f"  {name:<24}{value:.6g} {unit}{of} -> {moves}")
    lines += [f"  CHECK FAILED: {n}" for n in chk.notes[:20]]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    # Turn a termination request into an exception, so that run_child
    # kills and reaps the pass it is waiting for before this exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    sampled = args.workload == "sampled-long"
    work_dir = build_dir(root) / "runs" / args.workload
    try:
        binary = build(root)
        warm, plain_and_traced, probes = timed_passes(
            binary, args.workload, args.seed, args.seconds, args.trace == 1,
            work_dir)
        setups = [run_pass(binary, args.workload, args.seed, "setup",
                           work_dir)
                  for _ in range(0 if args.trace else SETUP_PASSES)]
        blocks = 1 + max(p["block"] for p in plain_and_traced)
        reference = run_pass(binary, args.workload, args.seed, "reference",
                             work_dir, blocks=blocks, jobs=nproc())
        # The accuracy reference: block 0's points simulated in full.
        full = run_pass(binary, args.workload, args.seed, "full", work_dir,
                        jobs=nproc()) if sampled else None
    except (BenchError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    plain = [p for p in plain_and_traced if p["mode"] == "plain"]
    traced = [p for p in plain_and_traced if p["mode"] == "traced"]
    chk = metrics.check(args.workload, [warm] + plain_and_traced, reference)
    acc = metrics.accuracy(warm, full) if sampled else None
    e2e = raw = slow = layers = None
    if args.trace:
        layers = metrics.per_layer(traced, plain, sampled, acc)
        result = {name: layers[name][0] for name in metrics.PER_LAYER}
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
    else:
        e2e = metrics.end_to_end(plain, setups, probes)
        raw = metrics.measured(plain, setups)
        slow = metrics.host_factor(probes)
        result = e2e
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}

    for line in report(args.workload, args.seed, plain, traced, reference,
                       chk, e2e, raw, slow, probes, layers, acc):
        print(line)
    correct = chk.mismatched == 0
    print(json.dumps({
        "correct": correct,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
