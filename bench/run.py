"""Benchmark of conewalks: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --workload all --trace 1  # per-layer metrics of each
    python3 bench/run.py --pin                     # rewrite bench/reference.json
    python3 bench/run.py --self-check              # perturbed outputs must fail

Run it from anywhere; it works in the checkout that holds it and imports
conewalks from that checkout's ``src/``. The last line of its standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
The lines before it are a readable report and the environment. See
bench/README.md for the workloads and what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP run single-threaded in every benchmark process; set before
# numpy loads, inherited by the set-up child processes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("certify", "enumerate", "simulate", "verify")

# Seconds per pass of each workload, about its length at nominal host speed
# on the reference machine (2-CPU Xeon, Python 3.11, numpy 2.4). A run makes
# round(seconds / this) passes, so the number of operations, and with it the
# tail percentile, is the same on every run and every commit. A 20 s run
# makes 4, 4, 7 and 12 passes; with 4 and 12 copies of each op, the
# 11th-slowest op of enumerate and verify falls among the copies of one kind
# of op, not on the slowest copy of the next.
PASS_SECONDS = {"certify": 5.5, "enumerate": 5.0, "simulate": 2.8, "verify": 1.65}
SETUP_REPEATS = 3
TAIL_BEYOND = 10
FALLBACK_L2 = 2 * 1024 * 1024


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import conewalks
    except ImportError as exc:
        fail(f"cannot import conewalks from {SRC}: {exc}")
    if not Path(conewalks.__file__).resolve().is_relative_to(SRC):
        fail(f"conewalks was imported from {conewalks.__file__}, not from {SRC}")


# --------------------------------------------------------------------------
# environment


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "conewalks").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": src_lines,
    }


# --------------------------------------------------------------------------
# running operations


def load_refs(workload):
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())["workloads"].get(workload, {})


class Batch:
    """Latencies and check outcomes of the operations of one or more passes.

    ``latencies`` are wall times; ``scaled()`` gives them at the nominal host
    speed of speed.py, from the calibration jobs run between the operations.
    """

    def __init__(self):
        import speed

        self.latencies = []
        self.pass_starts = []  # index of the first op of each pass
        self.failures = []  # (op, messages, known defect or None)
        self.clock = speed.Clock()

    @property
    def attempted(self):
        return len(self.latencies)

    def scaled(self):
        return [t * self.clock.scale(i) for i, t in enumerate(self.latencies)]

    def passes(self, latencies):
        ends = self.pass_starts[1:] + [len(latencies)]
        return [latencies[a:b] for a, b in zip(self.pass_starts, ends)]


def only_known(failures):
    """True when every failure is a known defect."""
    return all(known for _, _, known in failures)


def run_passes(pass_ops, refs, batch, tracer=None):
    from workloads import evaluate

    for ops in pass_ops:
        batch.pass_starts.append(batch.attempted)
        for op in ops:
            batch.clock.before_op()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    raw = op.run()
                else:
                    raw = tracer.run_op(batch.attempted, op.kind, op.run)
                error = None
            except Exception as exc:  # a raising operation is a failed operation
                error = f"raised {type(exc).__name__}: {exc}"
            batch.latencies.append(time.perf_counter() - t0)
            batch.clock.after_op(batch.latencies[-1])
            problems, known = ([error], None) if error else evaluate(op, raw, refs)
            if problems:
                batch.failures.append((op, problems, known))
    batch.clock.finish()
    return batch


def report_failures(failures):
    counts = {}
    for op, _, _ in failures:
        counts[op.key] = counts.get(op.key, 0) + 1
    seen = set()
    for op, problems, known in failures:
        if op.key in seen:
            continue
        seen.add(op.key)
        print(f"{'known defect' if known else 'FAILED'} ({counts[op.key]}x) {op.kind} {op.key}")
        for message in problems[:5]:
            print(f"    {message}")
        if known:
            print(f"    ({known})")


def time_setup(workload, seed, passes):
    """(wall time, wall time at nominal host speed) of a fresh process that
    imports the library, builds the workload's inputs and runs one warm-up
    operation; the calibration jobs run just before and after it."""
    import speed

    jobs = [speed.time_job() for _ in range(speed.WINDOW)]
    # no timeout: with one, subprocess polls the child and rounds the wait
    # up to its 50 ms poll interval
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", workload, "--seed", str(seed), "--passes", str(passes)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    jobs += [speed.time_job() for _ in range(speed.WINDOW)]
    return wall, wall * speed.factor(jobs)


def setup(workload, seed, passes):
    import workloads

    pass_ops = workloads.build(workload, seed, passes)
    pass_ops[0][0].run()
    return pass_ops


def passes_for(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def timings(passes):
    """(ops_per_s, op_p50_ms, op_tail_ms, tail percentile, ops beyond it) of
    the op latencies of each pass.

    The median is taken in each pass and then over the passes: a pass holds
    each op once, so the median of all ops falls between two kinds of op and
    would rest on the extremes of both."""
    lat = sorted(t for p in passes for t in p)
    n = len(lat)
    tail_index = max(0, n - 1 - TAIL_BEYOND)
    tail_pct = 100.0 * tail_index / (n - 1) if n > 1 else 100.0
    p50 = statistics.median(statistics.median(p) for p in passes)
    return n / sum(lat), 1e3 * p50, 1e3 * lat[tail_index], tail_pct, n - 1 - tail_index


def end_to_end(workload, seed, seconds):
    passes = passes_for(workload, seconds)
    setups = [time_setup(workload, seed, passes) for _ in range(SETUP_REPEATS)]
    pass_ops = setup(workload, seed, passes)
    batch = run_passes(pass_ops, load_refs(workload), Batch())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = batch.attempted
    rate, p50, tail, tail_pct, beyond = timings(batch.passes(batch.scaled()))
    wall_rate, wall_p50, wall_tail, _, _ = timings(batch.passes(batch.latencies))
    factors = [batch.clock.scale(i) for i in range(n)]
    failed = len(batch.failures)
    metrics = {
        "ops_per_s": _metric(rate, "1/s"),
        "op_p50_ms": _metric(p50, "ms"),
        "op_tail_ms": _metric(tail, "ms"),
        "ok_frac": _metric(1.0 - failed / n, "frac"),
        "setup_s": _metric(statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    print(f"workload {workload}  seed {seed}  passes {passes}  ops {n}  failed {failed}")
    report_failures(batch.failures)
    print(f"  times at nominal host speed; wall-clock figures in brackets; host speed "
          f"scale per op: median {statistics.median(factors):.3f}, "
          f"{min(factors):.3f}-{max(factors):.3f}, from {len(batch.clock.jobs)} calibration jobs")
    print(f"  {'ops_per_s':<12} {rate:12.4f} 1/s  [{wall_rate:.4f}] ({n} ops in {passes} passes)")
    print(f"  {'op_p50_ms':<12} {p50:12.4f} ms   [{wall_p50:.4f}] (median over {passes} passes "
          f"of the median op)")
    print(f"  {'op_tail_ms':<12} {tail:12.4f} ms   [{wall_tail:.4f}] "
          f"(p{tail_pct:.1f}: {beyond} of {n} ops beyond it)")
    print(f"  {'failed_frac':<12} {failed / n:12.4f}      ({failed} of {n} ops)")
    print(f"  {'ok_frac':<12} {metrics['ok_frac']['value']:12.4f}")
    print(f"  {'setup_s':<12} {metrics['setup_s']['value']:12.4f} s    "
          f"[{statistics.median(w for w, _ in setups):.4f}] (median of {SETUP_REPEATS}: "
          f"{', '.join(f'{s:.3f}' for _, s in setups)})")
    print(f"  {'peak_rss_mb':<12} {peak_rss_mb:12.1f} MB")
    return {"correct": only_known(batch.failures), "attempted": n, "failed": failed,
            "metrics": metrics}


def traced(workload, seed, seconds, l2_bytes, own_only=False):
    """Half the time untraced, the same passes traced, then the probe.

    The probe runs ops of the other workloads so that every per-layer metric
    has samples; `own_only` skips it and reports only the metrics of layers
    the workload's own ops reach."""
    import workloads
    from layers import Analysis
    from tracing import Tracer

    passes = passes_for(workload, seconds / 2.0)
    pass_ops = setup(workload, seed, passes)
    refs = load_refs(workload)
    plain, batch, tracer = Batch(), Batch(), Tracer(l2_bytes)
    # each pass runs untraced, then traced, so drift in machine speed
    # reaches both halves of the overhead ratio alike
    for ops in pass_ops:
        run_passes([ops], refs, plain)
        tracer.install()
        try:
            run_passes([ops], refs, batch, tracer)
        finally:
            tracer.uninstall()
    n = batch.attempted
    probe = [] if own_only else workloads.probe_ops(workload)
    tracer.install()
    try:
        probe_errors = []
        for j, op in enumerate(probe):
            try:
                tracer.run_op(n + j, op.kind, op.run)
            except Exception as exc:  # reported; the run is then not correct
                probe_errors.append(f"probe {op.kind} {op.key} raised {type(exc).__name__}: {exc}")
    finally:
        tracer.uninstall()
    rows = Analysis(tracer, range(n), range(n, n + len(probe))).compute(
        sum(batch.latencies), sum(batch.scaled()) / sum(plain.scaled()) - 1.0)
    if own_only:
        rows = [row for row in rows if row[4] == "workload"]
    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    spans_path = os.path.join(workloads.WORK_DIR, f"spans-{workload}-{seed}.csv.gz")
    tracer.write(spans_path)

    failures = plain.failures + batch.failures
    print(f"workload {workload}  seed {seed}  traced: {passes} passes, {n} ops, "
          f"probe {len(probe)} ops, {len(tracer.spans)} spans -> {spans_path}")
    report_failures(failures)
    for message in probe_errors:
        print(message)
    print(f"  {'metric':<40} {'value':>14} {'unit':<6} {'source':<9} samples")
    for name, value, unit, samples, source in rows:
        print(f"  {name:<40} {value:14.6g} {unit:<6} {source:<9} {samples}")
    return {"correct": only_known(failures) and not probe_errors,
            "attempted": plain.attempted + batch.attempted, "failed": len(failures),
            "metrics": {name: _metric(value, unit) for name, value, unit, _, _ in rows}}


# --------------------------------------------------------------------------
# reference outputs and the checker's self-check


def pin(seconds):
    """Run every operation of a `seconds` run at the pinned seed once and
    store the digests of those that pass their invariants."""
    import workloads

    out = {"seed": workloads.PINNED_SEED, "workloads": {}}
    for workload in WORKLOADS:
        refs, seen = {}, set()
        pass_ops = workloads.build(workload, workloads.PINNED_SEED, passes_for(workload, seconds))
        for op in [op for ops in pass_ops for op in ops]:
            if op.key in seen:
                continue
            seen.add(op.key)
            try:
                digest = workloads.normalize(op.record(op.run()))
            except Exception as exc:  # reported, never pinned
                print(f"not pinned, raised {type(exc).__name__}: {exc}: {op.key}")
                continue
            if op.known_defect:
                print(f"not pinned (has a known defect): {op.key}")
                continue
            problems = op.check(digest)
            if problems:
                fail(f"{workload} op {op.key} fails its invariants: {problems}")
            refs[op.key] = workloads.pinned_part(digest)
        out["workloads"][workload] = refs
        print(f"{workload}: pinned {len(refs)} ops")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def self_check():
    """For one pinned op of each kind, the checker must pass its output and
    flag every perturbed copy."""
    import workloads

    ok = True
    for workload in WORKLOADS:
        refs = load_refs(workload)
        kinds = set()
        for op in workloads.build(workload, workloads.PINNED_SEED, 1)[0]:
            ref = refs.get(op.key)
            if ref is None or op.kind in kinds:
                continue
            digest = workloads.pinned_part(workloads.normalize(op.record(op.run())))
            cases = workloads.perturbations(workload, digest)
            if not cases:
                continue
            clean = workloads.compare(ref, digest, op.rtol)
            print(f"{workload} {op.kind}: unperturbed output {'passes' if not clean else 'FAILS'}")
            ok &= not clean
            for label, bad in cases:
                flagged = bool(workloads.compare(ref, bad, op.rtol))
                print(f"{workload} {op.kind}: {label}: {'flagged' if flagged else 'NOT FLAGGED'}")
                ok &= flagged
            kinds.add(op.kind)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


# --------------------------------------------------------------------------


def run_all(args):
    """Every workload in its own process; a traced run reports each workload's
    per-layer metrics only for the layers its own ops reach."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd.append("--own-layers")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    units = {}
    for r in results.values():
        units.update((name, m["unit"]) for name, m in r["metrics"].items())
    cell = lambda m: f"{m['value']:14.6g}" if m else f"{'-':>14}"
    print(f"\n{'metric':<40}" + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    for name, unit in units.items():
        print(f"{name:<40}" + "".join(cell(results[w]["metrics"].get(name)) for w in WORKLOADS)
              + f"  {unit}")
    print(f"{'failed_frac':<40}" + "".join(f"{results[w]['failed'] / results[w]['attempted']:14.6g}"
                                           for w in WORKLOADS) + "  frac")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--own-layers", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true", help="rewrite bench/reference.json")
    parser.add_argument("--self-check", action="store_true",
                        help="check that perturbed outputs are flagged")
    args = parser.parse_args()

    os.chdir(ROOT)
    import_library()
    if args.setup_only:
        setup(args.workload, args.seed, args.passes)
        return 0
    if args.pin:
        pin(args.seconds)
        return 0
    if args.self_check:
        return self_check()

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = traced(args.workload, args.seed, args.seconds, env["l2_bytes"] or FALLBACK_L2,
                        args.own_layers)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
