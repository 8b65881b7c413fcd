#!/usr/bin/env python3
"""Benchmark of the mlmcsr estimator: time and work to reach an estimate.

Run from the repository root.  One workload:

    python3 perfbench/run.py --workload synth-fine --seed 0 --seconds 20 --trace 0

measures for about ``--seconds`` seconds and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones (see ``tracing.py``).  A readable table, the run
fingerprint and the accuracy check go to standard error, and a full
report to ``perfbench/out/``.

    python3 perfbench/run.py --workload all [--trace 1]   # all three, one table
    python3 perfbench/run.py --selftest                   # smoke-size self-test

``--seed`` picks the workload's run seeds (see ``workloads.run_seeds``):
seeds 0-9 are the tuning seeds and 1000-1009 the held-out ones.  The
exit code is 0 only when every run converged within the accuracy bound,
the mean error of each (method, epsilon) group of runs stayed within
its own bound, and every pass reproduced the first one's fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib only; the package is imported in prepare)
from tracing import PER_LAYER, ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

OUT = HERE / "out"
DEFAULT_SECONDS = 20
SETUP_PROBES = 9
SMOKE_SETUP_PROBES = 1

# name -> unit; every workload reports all of them with tracing off
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "run_s_p50": "s",
    "samples_per_s": "1/s",
    "samples_per_run": "count",
    "work_units_per_run": "units",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float     # process CPU time; wall minus this is time the box ran others
    spans: list
    records: list


def fingerprint_rows(records) -> list[str]:
    """Per-run rows in (method, epsilon, seed) order; equal rows mean equal behaviour."""
    ordered = sorted(records, key=lambda r: (r.method, r.config.epsilon, r.seed))
    return [f"{r.method} {r.config.epsilon!r} {r.seed} {r.estimate_raw!r} "
            f"{r.total_cost!r} {r.final_L} {r.n_drawn}" for r in ordered]


def fingerprint(records) -> str:
    return hashlib.sha256("\n".join(fingerprint_rows(records)).encode()).hexdigest()


def report_path(name: str, seed: int, trace: int, smoke: bool) -> Path:
    return OUT / f"{name}{'-smoke' if smoke else ''}-seed{seed}-trace{trace}.json"


class SetupProbes:
    """Set-up times of fresh interpreters, spread over the measured phase.

    ``catch_up(share)`` runs probes until ``share`` of them are done, so
    a slow spell of the machine falls on a few probes, not on all.
    """

    def __init__(self, name: str, seed: int, smoke: bool, count: int) -> None:
        self.cmd = [sys.executable, str(HERE / "probe_setup.py"), name, str(seed),
                    "1" if smoke else "0", str(OUT)]
        self.count = count
        self.times: list[float] = []

    def catch_up(self, share: float) -> None:
        while len(self.times) < min(self.count, math.ceil(share * self.count)):
            done = subprocess.run(self.cmd, capture_output=True, text=True,
                                  timeout=120, check=True)
            self.times.append(float(done.stdout.strip().splitlines()[-1]))


def measure(prepared, tracer, seconds: float, trace: bool,
            probes: SetupProbes) -> list[Pass]:
    """Repeat the workload's pass while the next one fits in ``seconds``.

    There is always one pass, and with ``trace`` at least one untraced
    and one traced pass: they alternate, so both see the same machine
    state and the traced fingerprint can be compared with the untraced.
    Set-up probes run before the first pass and between passes; their
    time does not count against ``seconds``.
    """
    passes: list[Pass] = []
    elapsed = 0.0
    probes.catch_up(1 / max(probes.count, 1))
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        tracer.install(full=traced)
        c0 = time.process_time()
        try:
            with tracer.span(ROOT_SPAN):
                prepared.run_pass()
        finally:
            tracer.uninstall()
        cpu = time.process_time() - c0
        spans, records = tracer.collect()
        root = spans[-1]  # the pass span closes last
        passes.append(Pass(traced, root[4] - root[3], cpu, spans, records))
        elapsed += passes[-1].wall
        probes.catch_up(elapsed / seconds)
        if len(passes) >= (2 if trace else 1) and elapsed + passes[-1].wall > seconds:
            probes.catch_up(1.0)
            return passes


def run_workload(args) -> int:
    name, seed, smoke = args.workload, args.seed, args.smoke
    OUT.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    prepared = workloads.prepare(name, seed, smoke, OUT)
    in_process_setup = time.perf_counter() - t0

    import numpy
    import scipy

    tracer = Tracer()
    init_spans = []
    probes = SetupProbes(name, seed, smoke, 0 if args.trace else
                         SMOKE_SETUP_PROBES if smoke else SETUP_PROBES)
    if args.trace:
        # a second, traced set-up yields the model-construction spans
        tracer.install(full=True)
        try:
            workloads.prepare(name, seed, smoke, OUT)
        finally:
            tracer.uninstall()
        init_spans = tracer.collect()[0]

    passes = measure(prepared, tracer, args.seconds, bool(args.trace), probes)
    setup_times = probes.times

    attempted = failed = 0
    prints = set()
    for p in passes:
        attempted += prepared.planned_runs
        failed += prepared.planned_runs - sum(map(prepared.within_bound, p.records))
        prints.add((p.traced, fingerprint(p.records)))
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    first = untraced[0].records
    fp = fingerprint(first)
    repeatable = {f for _, f in prints} == {fp}

    # Every pass repeats the first bit for bit, so its errors stand for all.
    errors = defaultdict(list)   # (method, epsilon) -> estimate - p_ref
    for r in first:
        if r.converged:
            errors[r.method, r.config.epsilon].append(r.estimate_raw - prepared.reference)
    group_means = {f"{m} {eps!r}": (statistics.fmean(e), prepared.mean_error_bound(eps, len(e)))
                   for (m, eps), e in errors.items()}
    biased = {g: mb for g, mb in group_means.items() if abs(mb[0]) > mb[1]}
    correct = failed == 0 and repeatable and not biased
    scaled = [x / eps for (_, eps), e in errors.items() for x in e]
    rmse_over_eps = (statistics.fmean(x * x for x in scaled) ** 0.5) if scaled else float("nan")

    def run_walls(span_name):
        return [s[4] - s[3] for p in untraced for s in p.spans if s[2] == span_name]

    # run_s_p50 times mlmc-sr runs only: synth-grid's mc runs share a
    # two-thread pool, so their walls include waiting for the GIL
    run_times = run_walls("driver.run_mlmc_sr")
    mc_times = run_walls("driver.run_mc_baseline")
    wall = statistics.median(p.wall for p in untraced)
    n_runs = max(len(first), 1)
    samples = sum(sum(r.n_drawn) for r in first)

    if args.trace:
        overhead = statistics.median(p.wall for p in traced) / wall - 1.0
        values = layer_metrics([p.spans for p in traced], [r for p in traced for r in p.records],
                               init_spans, overhead)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "run_s_p50": statistics.median(run_times),
            "samples_per_s": samples / wall,
            "samples_per_run": samples / n_runs,
            "work_units_per_run": sum(r.total_cost for r in first) / n_runs,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    report = {
        "workload": name, "smoke": smoke, "seed": seed, "run_seeds": prepared.seeds,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "rmse_over_epsilon": rmse_over_eps,
        "mean_error_over_bound": {g: mean / bound for g, (mean, bound) in group_means.items()},
        "biased": sorted(biased),
        "fingerprint": fp,
        "traced_fingerprint": fingerprint(traced[0].records) if traced else None,
        "fingerprints_repeat": repeatable,
        "rows": fingerprint_rows(first),
        "passes": [{"traced": p.traced, "wall_s": p.wall, "cpu_s": p.cpu,
                    "runs": len(p.records)} for p in passes],
        "run_s_samples": len(run_times),
        "mc_run_s_p50": statistics.median(mc_times) if mc_times else None,
        "mc_run_s_samples": len(mc_times),
        "in_process_setup_s": in_process_setup,
        "setup_s_samples": setup_times,
        "metrics": metrics,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
    }
    path = report_path(name, seed, args.trace, smoke)
    path.write_text(json.dumps(report, indent=1))
    if traced:
        write_spans(path.with_name(path.stem + "-spans.csv"), traced[-1].spans)

    err = sys.stderr
    print(f"# {name} seed {seed}: {len(passes)} passes "
          f"({len(traced)} traced), {len(run_times)} timed runs", file=err)
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}", file=err)
    print(f"  failed_frac {failed}/{attempted}  rmse/epsilon {rmse_over_eps:.3f}  "
          f"fingerprint {fp[:16]} {'repeats' if repeatable else 'DIFFERS'}", file=err)
    for group, (mean, bound) in biased.items():
        print(f"  BIASED {group}: mean error {mean:.6g} exceeds {bound:.6g}", file=err)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_spans(path: Path, spans) -> None:
    t0 = min(s[3] for s in spans)
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_s,end_s,run,count\n")
        for sid, parent, name, a, b, run, n in spans:
            fh.write(f"{sid},{parent},{name},{a - t0:.9f},{b - t0:.9f},{run},{n}\n")


# ---------------------------------------------------------------------------
# all workloads at once, and the self-test
# ---------------------------------------------------------------------------

def child(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
          quiet: bool = False):
    """Run one workload in its own process; (exit code, result, report)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900,
                          stderr=subprocess.DEVNULL if quiet else None)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    path = report_path(workload, seed, trace, smoke)
    report = json.loads(path.read_text()) if done.returncode in (0, 1) and path.exists() else None
    return done.returncode, result, report


def run_all(args) -> int:
    units = PER_LAYER if args.trace else dict(END_TO_END, failed_frac="ratio")
    results, ok = {}, True
    for w in workloads.WORKLOADS:
        code, result, report = child(w, args.seed, args.seconds, args.trace, args.smoke)
        ok &= code == 0
        if result is not None and report is not None:
            values = {k: m["value"] for k, m in result["metrics"].items()}
            values["failed_frac"] = report["failed_frac"]
            results[w] = (values, report)
    print(f"{'metric':40s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in results))
    for k, u in units.items():
        print(f"{k:40s} {u:6s} " + " ".join(f"{results[w][0][k]:>14.6g}" for w in results))
    for w, (_, report) in results.items():
        print(f"# {w}: fingerprint {report['fingerprint']} "
              f"({'repeats' if report['fingerprints_repeat'] else 'DIFFERS'}), "
              f"rmse/epsilon {report['rmse_over_epsilon']:.3f}, env {report['env']}")
    return 0 if ok and len(results) == len(workloads.WORKLOADS) else 1


def selftest() -> int:
    """Smoke sizes of every workload: names, units, repeatable fingerprints."""
    problems = []
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != expected:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py prints")
    for w in workloads.WORKLOADS:
        before = len(problems)
        runs = [child(w, 0, 1, trace, True, quiet=True) for trace in (0, 0, 1)]
        prints = set()
        for (code, result, report), expected in zip(runs, (END_TO_END, END_TO_END, PER_LAYER)):
            if code != 0 or result is None or report is None or not result["correct"]:
                problems.append(f"{w}: exit {code}, result {result}")
                continue
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{w}: metrics {sorted(got)} differ from {sorted(expected)}")
            problems += [f"{w}: {k} = {m['value']!r}" for k, m in result["metrics"].items()
                         if not math.isfinite(m["value"])]
            prints.add(report["fingerprint"])
            if report["traced_fingerprint"] is not None:
                prints.add(report["traced_fingerprint"])
        if len(prints) != 1:
            problems.append(f"{w}: fingerprints differ across invocations or tracing: {prints}")
        print(f"selftest {w}: {'ok' if len(problems) == before else 'FAIL'}", file=sys.stderr)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help=f"workload seed (default {workloads.DEFAULT_SEED}; "
                         f"held-out seeds start at {workloads.HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="how long to keep repeating the workload's pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
