#!/usr/bin/env python3
"""Run the permzk benchmark.

    python3 bench/run.py --workload group-conj-m16 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

A workload runs in one process as a single-threaded closed loop with one
client: the next operation starts when the previous one has returned.  The
run sets the workload up SETUPS times (the median is `setup_s`), runs the loop
for --seconds, checks every output, and compares a digest of the first
operations' outputs for the default seed with the one in reference.json.
Every time is scaled to nominal machine speed (see calibration.py).

With --trace 1 the run sets up once with the tracer installed, runs half of
--seconds untraced and half traced, prints the per-layer metrics and writes
the spans to .bench_trace/<workload>.spans and .json.  End-to-end metrics always come
from untraced runs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs every workload in its
own process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
TRACE_DIR = ROOT / ".bench_trace"

DEFAULT_SEED = 0
SETUPS = 5

if not (SRC / "permzk" / "__init__.py").is_file():
    sys.exit(f"bench: no permzk source under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import permzk  # noqa: E402

if Path(permzk.__file__).resolve().parent != SRC / "permzk":
    sys.exit(f"bench: imported permzk from {permzk.__file__}, not from {SRC}")

from calibration import Calibration  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("perm.mul_calls", "count"),
    ("perm.conjugated_by_calls", "count"),
    ("perm.inverse_calls", "count"),
    ("engine.build_chain_calls", "count"),
    ("engine.build_chain_ms", "ms"),
    ("engine.build_chain_ms.sampling", "ms"),
    ("engine.build_chain_ms.verify", "ms"),
    ("engine.setup_build_chain_s", "s"),
    ("engine.tuple_attempts", "count"),
    ("engine.tuple_yield", "ratio"),
    ("engine.contains_calls", "count"),
    ("engine.contains_ms", "ms"),
    ("engine.random_element_calls", "count"),
    ("engine.random_element_ms", "ms"),
    ("engine.enumerate_elements_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("framework.self_ms", "ms"),
    ("conjugacy.commit_ms", "ms"),
    ("conjugacy.respond_ms", "ms"),
    ("conjugacy.verify_ms", "ms"),
    ("conjugacy.self_ms", "ms"),
    ("nonconjugacy.draw_challenge_ms", "ms"),
    ("nonconjugacy.matched_sides_ms", "ms"),
    ("nonconjugacy.u_scan_contains", "count"),
    ("nonconjugacy.self_ms", "ms"),
    ("element.commit_ms", "ms"),
    ("element.verify_ms", "ms"),
    ("element.zk_check_ms", "ms"),
    ("element.self_ms", "ms"),
    ("simulator.simulate_ms", "ms"),
    ("simulator.restarts_per_view", "count"),
    ("simulator.attempts_per_restart", "count"),
    ("simulator.exact_laws_ms", "ms"),
    ("simulator.consistent_views_ms", "ms"),
    ("simulator.bijection_ms", "ms"),
    ("simulator.chi2_ms", "ms"),
    ("simulator.self_ms", "ms"),
    ("instances.parse_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

# Layers whose self times, framework's included, add up to the operation time.
LAYERS = ("engine", "framework", "conjugacy", "nonconjugacy", "element", "simulator")


class Loop:
    """Closed-loop driver for one workload object.  Operation indices run on
    across calls to run(), so a second loop continues the first's stream."""

    def __init__(self, wl):
        self.wl = wl
        self.next = 0
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.raw_ns = 0
        self.cal = Calibration()

    def run(self, seconds: float, call=None) -> list:
        """Run until `seconds` have passed, the digest prefix is complete and
        the operation count is a whole number of the workload's blocks;
        return the latencies in ns at nominal machine speed."""
        wl = self.wl
        call = call or wl.op
        raw = []
        speeds = [self.cal.speed()]
        clock = time.perf_counter_ns
        deadline = time.perf_counter() + seconds
        i = self.next
        while True:
            t0 = clock()
            try:
                out = call(i)
            except Exception as exc:  # a raising operation is a failed one
                t1 = clock()
                problem = f"raised {type(exc).__name__}: {exc}"
            else:
                t1 = clock()
                problem = wl.failure(i, out)
            raw.append(t1 - t0)
            speeds.append(self.cal.speed())
            if problem is not None:
                self.failed += 1
                self.failures.append(f"operation {i}: {problem}")
            if i < wl.digest_ops:
                self.digest.update(f"#{i}\n".encode())
                self.digest.update((wl.record(i, out) if problem is None else problem).encode())
            i += 1
            if i >= wl.digest_ops and i % wl.block == 0 and time.perf_counter() >= deadline:
                break
        self.next = i
        self.raw_ns += sum(raw)
        # Each operation is scaled by the mean of the calibrations on either side.
        return [d * (a + b) / 2 for d, a, b in zip(raw, speeds, speeds[1:])]


def timed_s(cal: Calibration, fn):
    """fn()'s value and the seconds it took at nominal machine speed,
    calibrated before and after."""
    before = cal.speed()
    t0 = time.perf_counter_ns()
    value = fn()
    d = time.perf_counter_ns() - t0
    return value, d * (before + cal.speed()) / 2 / 1e9


def reference_digest(cls) -> str:
    """Digest of the first operations of the default seed."""
    loop = Loop(cls(DEFAULT_SEED))
    loop.run(0)
    return loop.digest.hexdigest()


def _problems(cls, seed: int, loop: Loop) -> list:
    """Failed operations, failed run-level checks and a reference digest
    mismatch."""
    problems = loop.failures + loop.wl.run_failures()
    want = json.loads(REFERENCE.read_text()).get(cls.name)
    got = loop.digest.hexdigest() if seed == DEFAULT_SEED else reference_digest(cls)
    if got != want:
        problems.append(f"digest {got} of the default seed {DEFAULT_SEED} differs from reference {want}")
    return problems


def _p90(lat: list) -> float:
    return statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]


def measure(cls, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics and the correctness verdict."""
    cal = Calibration()
    _, import_s = timed_s(cal, lambda: [importlib.import_module(module) for module in cls.imports])
    setups = []
    for _ in range(SETUPS):
        wl = None
        gc.collect()
        wl, took = timed_s(cal, lambda: cls(seed))
        setups.append(took)
    gc.collect()
    loop = Loop(wl)
    lat = loop.run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = _problems(cls, seed, loop)
    n = len(lat)
    p90 = _p90(lat)
    metrics = {
        "ops_per_s": n / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_p90_ms": p90 / 1e6,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "ops_per_s": f"n={n} operations; unscaled {n / (loop.raw_ns / 1e9):.6g} op/s",
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {sum(x > p90 for x in lat)} beyond it",
        "setup_s": f"median of n={SETUPS} set-ups plus {import_s:.3f} s of one-time imports",
        "peak_rss_mb": "whole process",
    }
    return {
        "name": cls.name,
        "seed": seed,
        "attempted": n,
        "failed": loop.failed,
        "problems": problems,
        "digest": loop.digest.hexdigest(),
        "digest_ops": cls.digest_ops,
        "metrics": metrics,
        "notes": notes,
        "error_rate": loop.failed / n,
    }


def measure_traced(cls, seed: int, seconds: float) -> dict:
    """Traced run: one traced set-up, half the time untraced, half traced."""
    for module in cls.imports:
        importlib.import_module(module)
    setup_tracer = Tracer()
    with setup_tracer.installed():
        wl = cls(seed)
    gc.collect()
    loop = Loop(wl)
    plain = loop.run(seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced = loop.run(seconds / 2, tracer.wrap(ROOT_SPAN, wl.op))
    problems = _problems(cls, seed, loop)
    metrics = layer_metrics(tracer, setup_tracer, len(traced))
    metrics["trace.overhead_ratio"] = (len(plain) / sum(plain)) / (len(traced) / sum(traced))
    tracer.write(TRACE_DIR / cls.name, {"workload": cls.name, "seed": seed, "ops": len(traced)})
    return {
        "name": cls.name,
        "seed": seed,
        "attempted": len(plain) + len(traced),
        "failed": loop.failed,
        "problems": problems,
        "digest": loop.digest.hexdigest(),
        "digest_ops": cls.digest_ops,
        "metrics": metrics,
        "notes": {"trace.op_ms": f"n={len(traced)} traced operations"},
        "shares": {layer: metrics[f"{layer}.self_ms"] / metrics["trace.op_ms"] for layer in LAYERS},
    }


def layer_metrics(tracer: Tracer, setup_tracer: Tracer, n: int) -> dict:
    """Per-operation values unless the name says set-up."""
    t = tracer.totals()
    incl, calls, own, slices = t["incl"], t["calls"], t["self"], t["slices"]
    setup = setup_tracer.totals()["incl"]
    counts, samples = tracer.counts, tracer.samples
    attempts = samples.get("tuple_attempts", [])
    sims = samples.get("simulate", [])
    restarts = sum(r for r, _ in sims)

    def ms(*names):
        return sum(incl[name] for name in names) / 1e6 / n

    return {
        "perm.mul_calls": counts["perm.mul_calls"] / n,
        "perm.conjugated_by_calls": counts["perm.conjugated_by_calls"] / n,
        "perm.inverse_calls": counts["perm.inverse_calls"] / n,
        "engine.build_chain_calls": calls["engine.build_chain"] / n,
        "engine.build_chain_ms": ms("engine.build_chain"),
        "engine.build_chain_ms.sampling": slices.get("build_chain.sampling", 0) / 1e6 / n,
        "engine.build_chain_ms.verify": slices.get("build_chain.verify", 0) / 1e6 / n,
        "engine.setup_build_chain_s": setup["engine.build_chain"] / 1e9,
        "engine.tuple_attempts": statistics.mean(attempts) if attempts else 0,
        "engine.tuple_yield": len(attempts) / sum(attempts) if attempts else 0,
        "engine.contains_calls": calls["engine.contains"] / n,
        "engine.contains_ms": ms("engine.contains"),
        "engine.random_element_calls": calls["engine.random_element"] / n,
        "engine.random_element_ms": ms("engine.random_element"),
        "engine.enumerate_elements_ms": slices.get("enumerate_elements", 0) / 1e6 / n,
        "conjugacy.commit_ms": ms("conjugacy.commit"),
        "conjugacy.respond_ms": ms("conjugacy.respond"),
        "conjugacy.verify_ms": ms("conjugacy.verify"),
        "nonconjugacy.draw_challenge_ms": ms("nonconjugacy.draw_challenge"),
        "nonconjugacy.matched_sides_ms": ms("nonconjugacy.matched_sides"),
        "nonconjugacy.u_scan_contains": slices.get("u_scan_contains", 0) / n,
        "element.commit_ms": ms("element.commit"),
        "element.verify_ms": ms("element.verify"),
        "element.zk_check_ms": ms("element.zk_bijection", "element.zk_compare"),
        "simulator.simulate_ms": ms("simulator.simulate"),
        "simulator.restarts_per_view": restarts / len(sims) if sims else 0,
        "simulator.attempts_per_restart": sum(a for _, a in sims) / restarts if restarts else 0,
        "simulator.exact_laws_ms": ms("simulator.exact_real_law", "simulator.exact_sim_law"),
        "simulator.consistent_views_ms": ms("simulator.consistent_views"),
        "simulator.bijection_ms": ms("simulator.bijection"),
        "simulator.chi2_ms": ms("simulator.chi2"),
        "instances.parse_ms": setup["instances.parse"] / 1e6,
        "trace.op_ms": ms(ROOT_SPAN),
        **{f"{layer}.self_ms": own.get(layer, 0) / 1e6 / n for layer in LAYERS},
    }


def report(res: dict, trace: bool) -> dict:
    """Print one workload's result for people; return the JSON summary."""
    table = PER_LAYER if trace else END_TO_END
    print(f"workload {res['name']} seed {res['seed']}: closed loop, 1 client, {res['attempted']} operations")
    for name, unit in table:
        note = res["notes"].get(name)
        print(f"  {name} = {res['metrics'][name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    if not trace:
        print(f"  error_rate = {res['error_rate']:.6g} fraction  ({res['failed']} of {res['attempted']} failed)")
    else:
        shares = ", ".join(f"{layer} {share:.1%}" for layer, share in res["shares"].items())
        print(f"  self-time shares of traced operation time: {shares}")
    print(f"  digest of the first {res['digest_ops']} operations: {res['digest']}")
    for problem in res["problems"][:20]:
        print(f"  FAILED: {problem}")
    return {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": res["metrics"][name], "unit": unit} for name, unit in table},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        summary["correct"] &= one["correct"]
        summary["attempted"] += one["attempted"]
        summary["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        summary = run_all(args)
    else:
        cls = WORKLOADS[args.workload]
        res = measure_traced(cls, args.seed, args.seconds) if args.trace else measure(cls, args.seed, args.seconds)
        summary = report(res, bool(args.trace))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
