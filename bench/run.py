"""linkperiod benchmark: times `linkperiod` CLI ops on a seeded op stream.

Usage, from the repository root:

    python3 bench/run.py --workload knots --seed 1 --seconds 36 --trace 0

Each op is one in-process ``linkperiod.cli.main([...])`` call with
``--format json --out <file>``, the way a CLI user runs the tool, after
``skein.clear_cache()`` so every op starts cold.  One client runs ops
back to back (a closed loop) in whole cycles (see corpus.py) for about
``--seconds``.  The report of every op is read back and verified after
its timer stops.

End-to-end times are reference seconds: each op's wall time divided by
the machine's slowness around it, measured by a fixed kernel of the
benchmark's own (see speed.py).  The wall-clock figures are in the run
context under ``wall``.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  The line before it is the run context.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every op runs twice, untraced then traced, and the metrics are per-layer
self times and counts per op (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import speed
import tracing
import verify

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
#: speed.kernel() calls timed in each set-up probe process.
SETUP_KERNELS = 5
#: The ladder stops at p90: p95 needs 200 ops, which some runs of a
#: workload reach and others not, and every run must report the same
#: percentile to be compared.
TAIL_LADDER = (50, 75, 90)
MIN_BEYOND_TAIL = 10
#: Every run makes at least this many cycles (105 ops), so that p90 has
#: ten ops beyond it even when the machine is slow.
MIN_CYCLES = 3
#: Self-time groups compared for the "largest share" check of a traced run.
LAYER_GROUPS = {"diagram": ("diagram.",), "skein": ("skein.",),
                "statemodel": ("statemodel.",),
                "criteria+laurent": ("criteria.", "laurent."),
                "classical": ("classical.",), "cli": ("cli.",)}


def import_program():
    """Import linkperiod from this checkout's src/, or exit nonzero."""
    src = ROOT / "src"
    if not (src / "linkperiod" / "cli.py").is_file():
        sys.exit(f"bench: no linkperiod sources under {src}")
    sys.path.insert(0, str(src))
    from linkperiod import cli, skein
    return cli, skein


def run_op(cli, skein, argv, out_path, tracer=None):
    """Run one CLI op cold; returns (exit code or error text, (start, end)
    of the cli.main call on the perf_counter clock, report or None).
    Only the cli.main call is timed."""
    clear = getattr(skein, "clear_cache", None)
    if clear is not None:
        clear()
    gc.collect()    # start from a collected heap, as a fresh CLI process does
    if out_path.exists():
        out_path.unlink()
    full = argv + ["--format", "json", "--out", str(out_path)]
    t0 = time.perf_counter()
    try:
        rc = tracer.span(tracing.ROOT, cli.main, full) if tracer else cli.main(full)
    except Exception as exc:     # a raising op is a failed op, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    report = None
    if rc == 0:
        try:
            with open(out_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            rc = "report missing or not JSON"
    return rc, (t0, t1), report


def check(base, p, rc, report) -> list[str]:
    if rc != 0:
        return [f"exit {rc}"]
    try:
        return verify.violations(base, p, report)
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of
    the order statistics.  One order statistic alone jumps between the
    times of neighbouring bases, which differ by up to half here; this
    moves smoothly with all of them."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail(latencies):
    """(percentile, value, ops beyond it) for the highest ladder percentile
    with at least MIN_BEYOND_TAIL ops above its nearest rank; the value is
    the Harrell-Davis estimate."""
    n = len(latencies)
    q = TAIL_LADDER[0]
    for cand in TAIL_LADDER:
        if n - math.ceil(cand / 100 * n) >= MIN_BEYOND_TAIL:
            q = cand
    return q, harrell_davis(latencies, q / 100), n - math.ceil(q / 100 * n)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction."""
    if x <= 0 or x >= 1:
        return float(x >= 1)
    if x > (a + 1) / (a + b + 2):
        return 1 - _betainc(b, a, 1 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1 + num * d
            d = 1 / (d if abs(d) > tiny else tiny)
            c = 1 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1) < 1e-14:
            break
    return front * h


def setup_probe(workload: str, seed: int) -> str:
    """Fresh-process set-up: import the CLI, load the corpus, make the
    first cycle of inputs; then time speed.kernel() a few times.  Runs in
    the child started by measure_setup and returns both times."""
    t0 = time.perf_counter()
    import_program()
    spec = corpus.load_corpus()[workload]
    next(corpus.cycles(workload, spec, seed))
    setup = time.perf_counter() - t0
    ref = []
    for _ in range(SETUP_KERNELS):
        k0 = time.perf_counter()
        speed.kernel()
        ref.append(time.perf_counter() - k0)
    return f"{setup} {statistics.median(ref)}"


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """(reference, wall) set-up seconds: medians over SETUP_PROBES fresh
    processes, the first rescaled by the kernel times of its process."""
    wall, ref = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--probe-setup", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        setup, kernel_s = map(float, proc.stdout.split()[-2:])
        wall.append(setup)
        ref.append(setup * speed.REF_S / kernel_s)
    return statistics.median(ref), statistics.median(wall)


def run_context(args, ops: int, cycles: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():     # else git would read the directories above
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "ops": ops, "cycles": cycles}


def run(args) -> tuple[dict, dict, list]:
    """Run whole cycles, at least MIN_CYCLES, until the next one would
    end past --seconds; returns (result, context, per-op records)."""
    cli, skein = import_program()
    spec = corpus.load_corpus()[args.workload]
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"report-{args.workload}-{args.seed}-{os.getpid()}.json"
    tracer = tracing.Tracer() if args.trace else None
    meter = speed.Speedometer()
    spans, names, overheads, errors = [], [], [], []
    attempted = failed = n_cycles = 0
    with contextlib.ExitStack() as stack:
        if not tracer:      # kernel samples would land in the traced spans
            stack.enter_context(meter)
        start = time.perf_counter()
        for ops in corpus.cycles(args.workload, spec, args.seed):
            cycle_start = time.perf_counter()
            for base, p, argv in ops:
                rc, span, report = run_op(cli, skein, argv, out_path)
                bad = check(base, p, rc, report)
                if tracer:
                    tracer.install()
                    try:
                        rc, (t0, t1), report = run_op(cli, skein, argv, out_path, tracer)
                    finally:
                        tracer.uninstall()
                    bad += check(base, p, rc, report)
                    overheads.append((t1 - t0) - (span[1] - span[0]))
                attempted += 1
                spans.append(span)
                names.append(f"{base['id']} p={p}" if p else base["id"])
                if bad:
                    failed += 1
                    errors.append({"op": argv, "why": bad})
            n_cycles += 1
            now = time.perf_counter()
            if (n_cycles >= MIN_CYCLES
                    and now - start + (now - cycle_start) > args.seconds):
                break
        meter.sample()      # so the last op has a sample after it
    out_path.unlink(missing_ok=True)

    context = run_context(args, attempted, n_cycles)
    context["error_rate"] = failed / attempted
    context["errors"] = errors[:20]
    per_op = []
    if tracer:
        metrics = layer_metrics(tracer, attempted, overheads)
        context["layer_share"] = layer_share(tracer)
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(path)
        context["spans"] = str(path.relative_to(ROOT))
    else:
        wall = [meter.op_seconds(t0, t1) for t0, t1 in spans]
        slow = [meter.slowness(t0, t1) for t0, t1 in spans]
        ref = [w / s for w, s in zip(wall, slow)]
        per_op = [list(r) for r in zip(names, wall, slow)]
        q, tail_s, beyond = tail(ref)
        context.update(tail_percentile=q, tail_ops_beyond=beyond,
                       kernel_samples=len(meter.seconds),
                       slowness_median=statistics.median(slow),
                       wall={"setup_s": setup[1],
                             "latency_s.p50": harrell_davis(wall, 0.5),
                             "latency_s.tail": tail(wall)[1],
                             "throughput_ops_per_s": attempted / sum(wall)})
        metrics = {
            "setup_s": (setup[0], "s"),
            "latency_s.p50": (harrell_davis(ref, 0.5), "s"),
            "latency_s.tail": (tail_s, "s"),
            "throughput_ops_per_s": (attempted / sum(ref), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, context, per_op


def layer_metrics(tracer, ops: int, overheads) -> dict:
    """Per-op means of every layer's self time and count."""
    out = {k: (v / ops, "s/op") for k, v in tracer.self_s.items()}
    out.update({k: (v / ops, "count/op") for k, v in tracer.counts.items()})
    tuples = tracer.counts["criteria.link_tuples"]
    out["criteria.link_hit_ratio"] = (tracer.link_hits / tuples if tuples else 0.0, "ratio")
    out["trace.overhead_s"] = (statistics.fmean(overheads), "s/op")
    return out


def layer_share(tracer) -> dict:
    total = sum(tracer.self_s.values())
    return {group: sum(v for k, v in tracer.self_s.items() if k.startswith(prefixes)) / total
            for group, prefixes in LAYER_GROUPS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        print(setup_probe(args.workload, args.seed))
        return 0
    result, context, per_op = run(args)
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json", "w") as fh:
        json.dump({"context": context, **result,
                   "ops": {"columns": ["op", "wall_s", "slowness"], "rows": per_op}}, fh)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
