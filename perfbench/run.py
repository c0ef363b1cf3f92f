"""Run one rayclass benchmark workload and print its metrics.

    python3 perfbench/run.py --workload engine|orbits|classpoly \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  One client runs the workload's seeded ops in a closed loop until
they have taken S seconds at reference speed (see REF_NOMINAL_S; an op that
has started runs to its end), and every op's output is checked.  Earlier
stdout lines carry the environment, the workload's property shares and run
details; the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice,
untraced and traced in alternating order, reports the per-layer metrics from
the traced runs plus the tracing overhead, and writes the spans to
``.perfbench/trace-<workload>-<seed>.jsonl`` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15
SETUP_TIMEOUT_S = 60
TAIL_OPS = 10  # the tail percentile keeps this many ops beyond it

# On a shared 2-core Xeon, machine speed swings by 25-50 % within seconds,
# alike for wall and CPU time.  Op times are therefore rescaled by a
# reference kernel timed right before and right after each op: a reported
# second is a second at the speed where the kernel takes REF_NOMINAL_S, and a
# run lasts --seconds of such op time (at most WALL_CAP times that in wall
# time), so that it holds the same number of ops however fast the machine is
# at the moment.
REF_NOMINAL_S = 0.0025
WALL_CAP = 1.4


def environment() -> dict:
    import mpmath

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # never let git search above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    backend = mpmath.libmp.BACKEND
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": backend,
        "backend_flag": "ok" if backend == "python" else
        f"WARNING: backend {backend!r} is not the pure-Python baseline",
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported
    rayclass.cli and built the workload, as the probe reports on the shared
    monotonic clock: (samples at reference speed, raw samples).  The
    reference kernel is timed right before and right after each start, as
    for ops; the first start (which may compile bytecode) is discarded."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    ref = [reference_kernel()]
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        raw.append(float(done.stdout.split()[-1]) - t0)
        ref.append(reference_kernel())
        scaled.append(raw[-1] * 2 * REF_NOMINAL_S / (ref[-2] + ref[-1]))
    return scaled[1:], raw[1:]


E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "values_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "numerics.terms_mean": "terms",
    "numerics.terms_max": "terms",
    "qseries.self_s": "s/op",
    "qseries.share": "share",
    "qseries.siegel.calls": "calls/op",
    "qseries.siegel.self_s": "s/op",
    "qseries.siegel.distinct_share": "share",
    "qseries.wp.calls": "calls/op",
    "qseries.wp.self_s": "s/op",
    "qseries.eisenstein.calls": "calls/op",
    "qseries.eisenstein.self_s": "s/op",
    "qseries.eta_delta.calls": "calls/op",
    "qseries.eta_delta.self_s": "s/op",
    "qseries.calls_per_point": "calls/point",
    "classfield.self_s": "s/op",
    "reciprocity.self_s": "s/op",
    "reciprocity.labels": "labels/op",
    "verify.self_s": "s/op",
    "verify.pairs_compared": "pairs/op",
    "verify.minpoly.self_s": "s/op",
    "verify.recognized_share": "share",
    "cli.self_s": "s/op",
    "cli.stdout_bytes": "bytes/op",
    "trace.overhead_share": "share",
}


def run_op(wl, op):
    """(seconds, outcome, raw result) of one op; an exception is a failure."""
    t0 = time.perf_counter()
    try:
        result = workloads.execute(wl, op)
    except Exception as exc:  # the gate counts every error as a failed op
        seconds = time.perf_counter() - t0
        return seconds, workloads.fail(f"{type(exc).__name__}: {exc}"), None
    seconds = time.perf_counter() - t0
    return seconds, workloads.check(wl, op, result), result


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_OPS ops beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_OPS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_OPS - 1], 100.0 * (n - TAIL_OPS) / n


def reference_kernel() -> float:
    """Seconds taken by a fixed 256-bit mpmath q-product loop; it uses no
    rayclass code, so a change to the program leaves it unchanged."""
    import mpmath as mp

    t0 = time.perf_counter()
    with mp.workprec(256):
        q, acc, qn = mp.mpc("0.3", "0.4"), mp.mpc(1), mp.mpc(1)
        for _ in range(150):
            qn *= q
            acc *= 1 - qn
    return time.perf_counter() - t0


def plain_run(wl, seconds: float):
    """Closed loop until the ops have taken `seconds` at reference speed:
    (op times at reference speed, raw op times, outcomes, ops run)."""
    ref = [reference_kernel()]  # ref[i], ref[i + 1] bracket op i
    raw, scaled, outcomes, done = [], [], [], []
    start = time.perf_counter()
    for op in wl.ops:
        if sum(scaled) >= seconds or time.perf_counter() - start >= WALL_CAP * seconds:
            break
        dt, outcome, _ = run_op(wl, op)
        ref.append(reference_kernel())
        raw.append(dt)
        scaled.append(dt * 2 * REF_NOMINAL_S / (ref[-2] + ref[-1]))
        outcomes.append(outcome)
        done.append(op)
    return scaled, raw, outcomes, done


def traced_run(wl, seconds: float):
    """Closed loop running every op untraced and traced, in alternating order
    so that warm-up effects fall on both sides alike."""
    tracer = Tracer()
    plain, traced, outcomes, done, out_bytes = [], [], [], [], 0
    start = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if time.perf_counter() - start >= seconds:
            break
        verdicts = []
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.begin_op(i)
                with tracer:
                    dt, outcome, result = run_op(wl, op)
                traced.append(dt)
                if op.kind != "surface" and result is not None:
                    out_bytes += len(result[1].encode())
            else:
                dt, outcome, _ = run_op(wl, op)
                plain.append(dt)
            verdicts.append(outcome)
        outcomes.append(min(verdicts, key=lambda o: (o.ok, not o.wrong)))
        done.append(op)
    metrics = tracer.per_layer(sum(traced), len(traced))
    metrics["cli.stdout_bytes"] = out_bytes / max(len(traced), 1)
    metrics["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1 if traced else 0.0)
    return tracer, metrics, outcomes, done


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "rayclass" / "__init__.py").is_file():
        sys.stderr.write(f"no rayclass sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    setup, raw_setup = measure_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)

    if args.trace:
        tracer, values, outcomes, done = traced_run(wl, args.seconds)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        units = LAYER_UNITS
        detail = {"ops": len(done), "spans": len(tracer.spans)}
    else:
        times, raw, outcomes, done = plain_run(wl, args.seconds)
        tail_s, tail_pct = tail(times)
        ok = sum(o.ok for o in outcomes)
        values = {
            "setup_s": statistics.median(setup),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "values_per_s": sum(o.values for o in outcomes) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
        detail = {"ops": len(done), "op_tail_percentile": tail_pct,
                  "ops_beyond_tail": min(TAIL_OPS, len(done) - 1),
                  "fail_share": 1 - ok / len(outcomes),
                  "raw_op_p50_s": statistics.median(raw), "raw_op_tail_s": tail(raw)[0],
                  "raw_values_per_s": sum(o.values for o in outcomes) / sum(raw),
                  "raw_setup_s": statistics.median(raw_setup),
                  "setup_samples_s": setup}
    failures = [f"{op.argv() if op.kind != 'surface' else op.tau}: {o.reason}"
                for op, o in zip(done, outcomes) if not o.ok]
    detail["failures"] = failures[:20]
    env["loadavg_after"] = os.getloadavg()
    print(json.dumps({"env": env}))
    print(json.dumps({"properties": workloads.properties(wl, done)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
