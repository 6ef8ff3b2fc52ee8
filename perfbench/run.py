"""Layered benchmark for wittmat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; wittmat is imported from ./src.  One client
drives the library in a closed loop: each operation starts when the previous
one has returned.  The benchmark and every interpreter it starts run on one
CPU.  A run

  1. times SETUP_IMPORTS fresh interpreters importing wittmat (wittmat.cli
     for cold-cli): setup_s is the median time;
  2. builds the seeded operands and runs one cold pass over them in this
     fresh process (warmup_s), which fills wittmat's caches; on cold-cli,
     see CLI_MIN_PASSES;
  3. repeats whole warm passes for at least S seconds and MIN_TIMED_OPS
     operations (ops_per_s, latency percentiles, peak_rss_mb);
  4. checks every output exactly, untimed (error_rate).

Every time is taken at reference speed: see REF_NOMINAL_S.  The wall-clock
figures are printed beside them.

With --trace 1 step 3 is split: untraced passes for S/2 seconds, then
TRACED_PASSES passes with spans around every call into wittmat.  Per-layer
metrics come from the traced passes only, so their counts repeat exactly
for a given seed.  --smoke shrinks every workload to rank <= 2 and a single
pass with no time floor.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full result, with
its stamp and (traced) spans, is also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("algebra-stream", "bridge", "elimination", "cold-cli")
SETUP_IMPORTS = 9
# >= 10 samples beyond p90; cold-cli is exempt, as its calls take 0.15-2 s
# each and 100 of them would take minutes
MIN_TIMED_OPS = 100
# every cold-cli call is a fresh interpreter, so every pass is cold: a run
# makes at least CLI_MIN_PASSES passes, warmup_s is the median pass, and
# ops_per_s and the latencies cover the same passes
CLI_MIN_PASSES = 2
TRACED_PASSES = {"cold-cli": 1}
DEFAULT_TRACED_PASSES = 2

# Host speed.  A shared host can change speed by 2x over stretches of 5-20 s,
# which no estimator inside one run averages away.  So every timed call sits
# between two runs of a fixed loop of Fraction arithmetic, the work wittmat
# itself does, and its wall time is scaled to the speed at which that loop
# takes REF_NOMINAL_S (about its median on a 2-vCPU Xeon):
#     t = t_wall * REF_NOMINAL_S / mean(loop before, loop after).
# A change to wittmat moves t as it moves t_wall; a change of host speed
# moves the loop as well, and so cancels.
REF_NOMINAL_S = 0.002


def reference_s():
    """Wall time of the reference loop."""
    t = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i % 97 - 40, i % 89 + 1)
    return time.perf_counter() - t


def at_reference_speed(wall, ref_before, ref_after):
    return wall * 2 * REF_NOMINAL_S / (ref_before + ref_after)


END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("warmup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "ratio"),
)
# error_rate is printed but not in the JSON metrics, which each carry a
# bound: it is 0 on correct code, and a metric that can read 0 has no
# relative bound; attempted/failed carry it instead.
JSON_END_TO_END = tuple(name for name, _ in END_TO_END if name != "error_rate")

CLI_SUBCOMMANDS = ("verify-paper", "surgery", "perm", "casimir", "embed", "regrep", "commutant",
                   "spectral-table", "minpoly", "mul", "to-matrix", "from-matrix")
SPANS = (  # span name, whether its call count is a metric
    ("witt.mul", True), ("witt.involution", True), ("witt.block", False),
    ("spectral.to_matrix", True), ("spectral.from_matrix", True), ("spectral.mv_inverse", False),
    ("spectral.detour", True),
    ("exact.matmul", True), ("exact.inverse", True), ("exact.rref", True), ("exact.min_poly", True),
    ("symgroup.geom_perm", False), ("symgroup.standard_irrep", False), ("symgroup.surgery_gc", False),
    ("repdecomp.commutant", False), ("repdecomp.regrep_decompose", False),
    ("goldens.run_all", False),
) + tuple((f"cli.{sub}", False) for sub in CLI_SUBCOMMANDS)
COUNTERS = (
    ("witt.mul.pairs", "count"), ("witt.mul.terms_out", "count"), ("witt.mul.coeff_bits", "bits"),
    ("spectral.from_matrix.nonzeros_in", "count"),
    ("exact.min_poly.degree", "count"), ("exact.coeff_bits_out", "bits"),
)


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, with_calls in SPANS:
        if with_calls:
            out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.busy_s", "s", "lower"))
    out += [(name, unit, "lower") for name, unit in COUNTERS]
    out += [("witt.mul.yield", "ratio", "higher"), ("cli.import_s", "s", "lower")]
    return out


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="rank <= 2, one pass, no time floor")
    return p.parse_args()


class _Raised:
    def __init__(self, exc):
        self.exc = exc

    def __eq__(self, other):
        return False


class Runner:
    """Runs passes over one op list and tallies failures against the first pass."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None
        self.matched = [0] * len(ops)  # later executions equal to the first result
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_pass(self, sp, latencies=None) -> tuple[float, float]:
        """One pass; returns its time at reference speed and its wall time.

        Appends each op's (time at reference speed, wall time) to `latencies`.
        """
        results = []
        total = wall = 0.0
        ref = reference_s()
        for i, op in enumerate(self.ops):
            sp.op_id = i
            t0 = time.perf_counter()
            try:
                with sp(f"op.{op.kind}"):
                    r = op.run(sp)
            except Exception as exc:  # a raising op is a failed op; the run goes on
                r = _Raised(exc)
            dt = time.perf_counter() - t0
            ref_after = reference_s()
            scaled = at_reference_speed(dt, ref, ref_after)
            ref = ref_after
            total += scaled
            wall += dt
            if latencies is not None:
                latencies.append((scaled, dt))
            results.append(r)
        self.attempted += len(results)
        if self.first is None:
            self.first = results
        else:
            for i, (r, f) in enumerate(zip(results, self.first)):
                if r == f:
                    self.matched[i] += 1
                else:
                    self.failed += 1
                    self._note(i, r if isinstance(r, _Raised) else "differs from the first pass")
        return total, wall

    def _note(self, i, what):
        if len(self.errors) < 10:
            detail = f"{type(what.exc).__name__}: {what.exc}" if isinstance(what, _Raised) else what
            self.errors.append(f"op {i} ({self.ops[i].kind}): {detail}")

    def check(self):
        """Check each first result; a wrong first result fails every run that repeated it."""
        for i, (op, r) in enumerate(zip(self.ops, self.first)):
            if isinstance(r, _Raised):
                ok = False
                self._note(i, r)
            elif op.check is None:
                ok = True
            else:
                try:
                    ok = bool(op.check(r))
                except Exception as exc:  # a check that cannot run is a failed check
                    ok = False
                    self._note(i, _Raised(exc))
                else:
                    if not ok:
                        self._note(i, "failed its output check")
            if not ok:
                self.failed += 1 + self.matched[i]


def measure_setup(env, module, count):
    """Times of `count` fresh interpreters importing `module`.

    Returns (time at reference speed, wall time) of each, and the import
    time each child measured itself.
    """
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times, imports = [], []
    ref = reference_s()
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        ref_after = reference_s()
        times.append((at_reference_speed(wall, ref, ref_after), wall))
        ref = ref_after
        if proc.returncode != 0:
            fail(f"fresh interpreter could not import {module}: {proc.stderr.strip()[-300:]}")
        imports.append(float(proc.stdout))
    return times, imports


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def percentile(values, q):
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def timed_passes(runner, sp, seconds, min_ops):
    """Whole passes until `seconds` have passed and `min_ops` ops have run.

    Returns every op's and each pass's (time at reference speed, wall time).
    """
    latencies, walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds or len(latencies) < min_ops:
        walls.append(runner.run_pass(sp, latencies))
    return latencies, walls


def layer_metrics(tracer, import_times):
    busy = tracer.self_times()
    counts = tracer.counts
    values = {}
    for span, with_calls in SPANS:
        calls, seconds = busy.get(span, (0, 0.0))
        if with_calls:
            values[f"{span}.calls"] = calls
        values[f"{span}.busy_s"] = seconds
    for name, _ in COUNTERS:
        values[name] = counts.get(name, 0)
    pairs = counts.get("witt.mul.pairs", 0)
    values["witt.mul.yield"] = counts.get("witt.mul.terms_out", 0) / pairs if pairs else 0.0
    values["cli.import_s"] = statistics.median(import_times)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_names()}


def main():
    args = parse_args()
    if not os.path.isdir(os.path.join(SRC, "wittmat")):
        fail(f"no wittmat package under {SRC}; run from a wittmat checkout")
    sys.path.insert(0, SRC)
    try:
        import workloads as W
        from tracing import NoTrace, Tracer
    except ImportError as exc:
        fail(f"cannot import wittmat: {exc}")

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    cold_cli = args.workload == "cold-cli"
    nproc = len(os.sched_getaffinity(0))
    # one CPU for this process and the children it starts, so that the
    # reference loop runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for _ in range(5):  # the first runs of the loop are slower: the interpreter specialises it
        reference_s()
    setup_times, import_times = measure_setup(W.cli_env(), "wittmat.cli" if cold_cli else "wittmat",
                                              3 if args.smoke else SETUP_IMPORTS)

    gen = W.Gen(random.Random(f"{args.workload}:{args.seed}"))
    if cold_cli:
        ops = W.cold_cli(gen, args.smoke, out_dir)
    else:
        builders = {"algebra-stream": W.algebra_stream, "bridge": W.bridge, "elimination": W.elimination}
        ops = builders[args.workload](gen, args.smoke)
    runner = Runner(ops)
    untraced = NoTrace()

    min_ops = 0 if args.smoke else CLI_MIN_PASSES * len(ops) if cold_cli else MIN_TIMED_OPS
    seconds = 0 if args.smoke else args.seconds
    if args.trace:
        seconds /= 2
        min_ops //= 2
    if not cold_cli:
        cold_passes = [runner.run_pass(untraced)]
    latencies, passes = timed_passes(runner, untraced, seconds, min_ops)
    if cold_cli:
        cold_passes = passes
    who = resource.RUSAGE_CHILDREN if cold_cli else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    tracer = None
    if args.trace:
        tracer = Tracer()
        traced_passes = 1 if args.smoke else TRACED_PASSES.get(args.workload, DEFAULT_TRACED_PASSES)
        _, traced = timed_passes(runner, tracer, 0, traced_passes * len(ops))
    runner.check()

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": nproc,
        "smoke": args.smoke,
        "reference_nominal_s": REF_NOMINAL_S,
        "ops_per_pass": len(ops),
        "timed_passes": len(passes),
        "pass_times_s": [t for t, _ in passes],
        "pass_walls_s": [w for _, w in passes],
        "timed_ops": len(latencies),
        "attempted": runner.attempted,
        "failed": runner.failed,
    }

    def timings(k):
        """The timed end-to-end metrics from column k: 0 at reference speed, 1 wall clock."""
        lat = [x[k] for x in latencies]
        return {
            "setup_s": statistics.median(t[k] for t in setup_times),
            "warmup_s": statistics.median(p[k] for p in cold_passes),
            "ops_per_s": len(lat) / sum(p[k] for p in passes),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p90_ms": 1000 * percentile(lat, 90),
        }

    e2e, wall = timings(0), timings(1)
    e2e.update(peak_rss_mb=peak_rss_mb, error_rate=runner.failed / runner.attempted)
    p90 = e2e["latency_p90_ms"] / 1000
    samples = {
        "setup_s": f"median of {len(setup_times)} fresh imports",
        "warmup_s": f"median of {len(cold_passes)} cold passes of {len(ops)} ops",
        "ops_per_s": f"{len(latencies)} ops in {len(passes)} {'' if cold_cli else 'warm '}passes",
        "latency_p50_ms": f"{len(latencies)} samples",
        "latency_p90_ms": f"{len(latencies)} samples, {sum(1 for x, _ in latencies if x > p90)} beyond",
        "peak_rss_mb": "ru_maxrss of the " + ("CLI children" if cold_cli else "benchmark process"),
        "error_rate": f"{runner.failed} of {runner.attempted} ops failed",
    }
    print(f"wittmat benchmark  workload={args.workload}  seed={args.seed}  closed loop, 1 client")
    print(f"times at reference speed (reference loop = {1000 * REF_NOMINAL_S:g} ms); wall clock beside them")
    print(f"{'metric':<16}{'value':>14}{'wall clock':>14}  {'unit':<6} samples")
    for name, unit in END_TO_END:
        w = f"{wall[name]:>14.6g}" if name in wall else " " * 14
        print(f"{name:<16}{e2e[name]:>14.6g}{w}  {unit:<6} {samples[name]}")

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END
                   if name in JSON_END_TO_END}
    else:
        metrics = layer_metrics(tracer, import_times)
        traced_ops_per_s = len(ops) * len(traced) / sum(t for t, _ in traced)
        stamp.update(traced_passes=len(traced), traced_pass_times_s=[t for t, _ in traced])
        print(f"tracing overhead: traced {traced_ops_per_s:.6g} ops/s ({len(traced)} passes of {len(ops)} ops) "
              f"vs untraced {e2e['ops_per_s']:.6g} ops/s ({len(passes)} passes of {len(ops)} ops): "
              f"{100 * (e2e['ops_per_s'] / traced_ops_per_s - 1):+.2f}% time per op")
        print(f"{'per-layer metric':<36}{'value':>16}  unit")
        for name, m in metrics.items():
            print(f"{name:<36}{m['value']:>16.6g}  {m['unit']}")
    for line in runner.errors:
        print(f"failure: {line}", file=sys.stderr)
    print("stamp: " + json.dumps(stamp))

    record = {"stamp": stamp, "end_to_end": e2e, "end_to_end_wall": wall, "metrics": metrics}
    if tracer is not None:
        record["spans"] = tracer.dump()
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
