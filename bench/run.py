"""isofilt benchmark: certificate round trips and slope splitting.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from any directory of a checkout that holds ``src/``, ``fixtures/`` and
``tests/oracles.py``.  Each run is a fresh single-threaded process that
drives isofilt as a closed loop with one caller: the next operation starts
when the previous one has returned and its output has been checked.  The
loop runs the operations of the workload's cycles (see ``workloads.py``),
one cycle after another, until ``--seconds`` have passed.

Every timing is scaled to a reference machine speed, measured between the
phases of the operations by a fixed kernel (see ``speed.py``), because the
shared host's speed drifts by more than the benchmark's bounds.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
three cold set-ups -- import, input generation and warm-up -- two of them in
child processes started one after the other.  ``--trace 1`` reports the
per-layer metrics instead: it runs the fixed-input timings of ``fixed.py``,
then half of ``--seconds`` untraced and half traced, and writes the traced
aggregates and span records to ``bench/out/``.  ``--workload all`` runs every
workload both ways, each in its own process, and prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

import speed
import workloads as wl
from tracer import Tracer

OUT = wl.ROOT / "bench" / "out"
SETUP_RUNS = 3
PROBE_TIMEOUT_S = 170
# The highest percentile that leaves ten operations above it.  Every workload
# completes 5-20 operations in a --seconds 30 run at the parent commit, so it
# is the median; it is fixed, not chosen per run, so runs stay comparable.
TAIL_PERCENTILE = 50


def percentile(values, q):
    """Linearly interpolated q-th percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- running a workload ----------------------------------------------------------


def set_up(name, seed, tmpdir):
    """Import isofilt, build the first cycle of inputs and run the warm-up.

    Returns the workload, its random stream, the first cycle and the scaled
    set-up time in seconds.
    """
    watch = speed.Stopwatch()
    watch.start()
    with watch("import"):
        work, rng = wl.make(name, seed)
        work.setup(tmpdir)
    for inp in work.warmup_cycle(rng):
        res = work.run(inp, watch)
        if not res.ok:
            raise wl.SetupError(f"warm-up operation failed: {res.detail}")
    with watch("inputs"):
        first = work.next_cycle(rng)
    return work, rng, first, sum(watch.stop().values())


def probe_setups(name, seed, count):
    """Set-up times of ``count`` fresh processes, run one after the other."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=wl.ROOT)
        if proc.returncode != 0:
            raise wl.SetupError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Op:
    """Scaled phase timings and verdict of one operation."""

    __slots__ = ("construct_s", "verify_s", "raw_s", "ok", "fallback", "detail")

    def __init__(self, scaled, raw_s, result):
        self.construct_s = scaled.get("construct", 0.0)
        self.verify_s = scaled.get("verify", 0.0)
        self.raw_s = raw_s
        self.ok = result.ok
        self.fallback = result.fallback
        self.detail = result.detail

    @property
    def op_s(self):
        return self.construct_s + self.verify_s


def _run_one(work, inp, watch):
    watch.start()
    try:
        result = work.run(inp, watch)
    except Exception:
        result = wl.Result(False, detail=traceback.format_exc())
    return Op(watch.stop(), sum(watch.raw.values()), result)


def measure(work, rng, first, seconds, tracer=None):
    """Operations, cycle after cycle, until ``seconds`` have passed.

    Returns the operations and the stopwatch that timed them.
    """
    watch = speed.Stopwatch(tracer.span if tracer else None)
    results = []
    cycle = first
    start = time.perf_counter()
    while True:
        for inp in cycle:
            with tracer.op(len(results)) if tracer else contextlib.nullcontext():
                results.append(_run_one(work, inp, watch))
            if time.perf_counter() - start >= seconds:
                return results, watch
        cycle = work.next_cycle(rng)


def ops_per_s(results):
    ok = [r.op_s for r in results if r.ok]
    return len(ok) / sum(ok) if ok else 0.0


def report_failures(results):
    failed = [r for r in results if not r.ok]
    for r in failed[:5]:
        print(f"operation failed: {r.detail}", file=sys.stderr)
    return len(failed)


# -- metrics ------------------------------------------------------------------------


def end_to_end(results, watch, setups):
    ok = [r for r in results if r.ok]

    def pct(values, q):
        return percentile(values, q) if values else 0.0

    op = [r.op_s for r in ok]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(results), "1/s"),
        "op_s.p50": (pct(op, 50), "s"),
        "op_s.tail": (pct(op, TAIL_PERCENTILE), "s"),
        "construct_s.p50": (pct([r.construct_s for r in ok], 50), "s"),
        "verify_s.p50": (pct([r.verify_s for r in ok], 50), "s"),
        "ok_ratio": (len(ok) / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    beyond = len(op) * (100 - TAIL_PERCENTILE) / 100
    notes = [f"op_s.tail is p{TAIL_PERCENTILE} of n={len(op)} operations "
             f"({beyond:.1f} beyond it)",
             f"setup_s runs: {', '.join(f'{s:.4f}' for s in setups)}",
             f"unscaled op_s.p50: {pct([r.raw_s for r in ok], 50):.4f} s; "
             f"median probe: {statistics.median(watch.probes) * 1e3:.3f} ms "
             f"of {len(watch.probes)}",
             "multiplicity fallback share: "
             f"{sum(r.fallback for r in ok) / max(len(ok), 1):.3f}"]
    return metrics, notes


def _observers(counts):
    def admissible(args, kwargs, _result):
        mode = args[3] if len(args) > 3 else kwargs.get("mode", "exact")
        counts[f"mode_{mode}"] += 1

    def sampled(args, kwargs, result):
        if result is not None:
            counts["tries"] += args[2] if len(args) > 2 else kwargs["budget"]
            counts["distinct"] += (len(result.subspaces)
                                   - 2 ** len(result.components))

    return {("admissible", "is_admissible"): admissible,
            ("submodules", "sampled_submodules"): sampled}


def per_layer(work, rng, first, seconds, trace_path):
    """Fixed-input timings, then an untraced and a traced half-run."""
    from fixed import fixed_timings

    metrics = fixed_timings()
    plain, watch = measure(work, rng, first, seconds / 2)
    counts = Counter()
    tracer = Tracer(_observers(counts))
    tracer.calibrate()
    tracer.install()
    try:
        traced, _ = measure(work, rng, work.next_cycle(rng), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    n = len(traced)
    metrics.update(tracer.layer_metrics(n))
    fallbacks = tracer.raised.get(("admissible", "is_admissible"), {})
    metrics.update({
        "admissible.mode_exact.calls": (counts["mode_exact"] / n, "calls/op"),
        "admissible.mode_sampled.calls": (counts["mode_sampled"] / n, "calls/op"),
        "admissible.fallback.calls": (
            fallbacks.get("MultiplicityError", 0) / n, "calls/op"),
        "admissible.fallback.op_share": (
            sum(r.fallback for r in traced) / n, "ratio"),
        "submodules.sampled.distinct_per_try": (
            counts["distinct"] / counts["tries"] if counts["tries"] else 0.0,
            "ratio"),
        "speed.probe_ms": (statistics.median(watch.probes) * 1e3, "ms"),
        "trace.wrapper_us": (tracer.wrapper_s * 1e6, "us"),
        "trace.overhead_ratio": (
            ops_per_s(plain) / ops_per_s(traced) if ops_per_s(traced) else 0.0,
            "ratio"),
    })
    dump = tracer.dump()
    dump.update(ops=n, untraced_ops=len(plain))
    trace_path.write_text(json.dumps(dump) + "\n")
    return plain + traced, metrics


def run_workload(args):
    OUT.mkdir(parents=True, exist_ok=True)
    setups = []
    if not args.trace:
        setups = probe_setups(args.workload, args.seed, SETUP_RUNS - 1)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmpdir:
        work, rng, first, setup_s = set_up(args.workload, args.seed, tmpdir)
        setups.append(setup_s)
        if args.trace:
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            results, metrics = per_layer(work, rng, first, args.seconds, path)
            notes = [f"trace written to {path.relative_to(wl.ROOT)}"]
        else:
            results, watch = measure(work, rng, first, args.seconds)
            metrics, notes = end_to_end(results, watch, setups)
    failed = report_failures(results)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18} {name:52} {value:14.6g} {unit}")
    for note in notes:
        print(f"{args.workload:18} # {note}")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=wl.ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise wl.SetupError(f"{name} --trace {trace} exited "
                                    f"{proc.returncode}")
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for key, value in res["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = value
    path = OUT / f"all-seed{args.seed}.json"
    path.write_text(json.dumps(merged, indent=1) + "\n")
    print(f"# all metrics written to {path}")
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up seconds")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            OUT.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmpdir:
                print(set_up(args.workload, args.seed, tmpdir)[3])
            return 0
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args)
    except wl.SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
