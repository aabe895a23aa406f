"""Run one workload of the twrelay benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 20 --trace 0

The amount of work is fixed by ``--seconds``: a run attempts
``round(seconds * rounds_per_second)`` whole rounds of the workload's ops,
a budget calibrated to take about that long on a 2-core Xeon VM, so the
attempted and failed counts repeat exactly from run to run.  Every output
is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine.

``--trace 0`` reports the end-to-end metrics, measured without tracing.
``--trace 1`` runs a smaller fixed set of ops twice, untraced and then
traced, plus a census of every CLI subcommand run in-process, and reports
the per-layer metrics and the tracing overhead.  The metric names printed
on the last line are those listed in BENCHMARK.json; every figure,
including any not listed there, goes to ``perfbench/out/runs.jsonl``.
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

try:
    import workloads
except (ImportError, RuntimeError) as exc:  # no twrelay sources in this checkout
    sys.exit(f"cannot load twrelay: {exc}")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
IMPORT_PROBES = 5
CENSUS_ROUNDS = 3  # in-process CLI census rounds in a traced run

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
    "channel.calls": "count", "channel.self_ms": "ms",
    "schemes.closed_form_calls": "count", "schemes.closed_form_us": "us",
    "schemes.rate_fn_calls": "count", "schemes.self_ms": "ms",
    "oracle.calls": "count", "oracle.objective_evals": "count", "oracle.grid_df_ms": "ms",
    "oracle.grid_jdf_ms": "ms", "oracle.self_ms": "ms",
    "sweep.points": "count", "sweep.run_self_ms": "ms", "sweep.emit_csv_ms": "ms",
    "sweep.csv_bytes": "bytes",
    "protocol.exchanges": "count", "protocol.bits": "bits", "protocol.ms_per_mbit": "ms/Mbit",
    "protocol.peak_alloc_bytes_per_bit": "B/bit",
    "cli.import_ms": "ms", "cli.numpy_import_ms": "ms", "cli.main_ms": "ms",
    "cli.main_rate_ms": "ms", "cli.main_sweep_ms": "ms", "cli.main_simulate_ms": "ms",
    "cli.main_verify_ms": "ms",
    "trace.overhead_pct": "%", "trace.spans": "count",
}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _child_seconds(argv: list[str]) -> float:
    """Wall time of one fresh interpreter, start to exit."""
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=workloads.CHILD_ENV, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - t0


def _import_ms(module: str) -> float:
    """Median time to import ``module`` inside fresh interpreters."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.CHILD_ENV,
                             check=True, capture_output=True, text=True).stdout
        times.append(float(out) * 1e3)
    return statistics.median(times)


class Tally:
    """Attempted and failed ops, op latencies and output problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.elapsed = 0.0
        self.problems: list[str] = []

    def attempt(self, wl, op, run):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            out = None
            self.failed += 1
            if not (op.known_fault and isinstance(exc, ZeroDivisionError)):
                self.problems.append(f"{wl.name} {op.kind}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        self.elapsed += dt
        if out is not None:
            self.latencies.append(dt)
            try:
                self.problems += wl.check(op, out)
            except Exception as exc:  # a check that cannot judge an output rejects it
                self.problems.append(f"{wl.name} {op.kind}: check raised {type(exc).__name__}: {exc}")
        return out


def _summary(latencies: list[float], elapsed: float, setup: list[float], rss_kb: int) -> dict:
    lat = sorted(latencies)
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / elapsed,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def run_untraced(wl, seed: int, seconds: float):
    rounds = max(1, round(seconds * wl.rounds_per_second))
    ops = wl.build(seed, rounds)
    setup_probe = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed), str(rounds)]
    warm = Tally()  # caches and .pyc files filled before timing
    warm.attempt(wl, ops[0], wl.run)
    _child_seconds(setup_probe)

    tally = Tally()
    setup = []
    setup_before = [i * rounds // SETUP_PROBES for i in range(SETUP_PROBES)]
    child_rss_kb = 0
    for r in range(rounds):
        for _ in range(setup_before.count(r)):
            setup.append(_child_seconds(setup_probe))
        for op in ops[r * wl.round_size:(r + 1) * wl.round_size]:
            out = tally.attempt(wl, op, wl.run)
            child_rss_kb = max(child_rss_kb, getattr(out, "maxrss_kb", 0))
    rss_kb = child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = _summary(tally.latencies, tally.elapsed, setup, rss_kb)
    extra = {
        "rounds": rounds,
        "ops_above_p90": sum(x * 1e3 > metrics["op_p90_ms"] for x in tally.latencies),
        "setup_samples_s": setup,
    }
    return tally, warm.problems, metrics, extra


def run_traced(wl, seed: int):
    import tracing

    ops = wl.build(seed, wl.trace_rounds)
    census_wl = workloads.WORKLOADS["cli-cold"]
    census = census_wl.build(seed, CENSUS_ROUNDS)
    warm = Tally()
    warm.attempt(wl, ops[0], wl.run_traced)

    plain = Tally()
    for op in ops:
        plain.attempt(wl, op, wl.run_traced)

    tracer = tracing.Tracer()
    tally, census_tally = Tally(), Tally()
    replay = []  # ops that simulated an exchange, for the allocation pass
    with tracer.installed():
        for w, batch, counted in ((wl, ops, tally), (census_wl, census, census_tally)):
            for op in batch:
                bits = tracer.bits
                counted.attempt(w, op, lambda o, w=w: tracer.op(o.kind, w.run_traced, o))
                if tracer.bits != bits:
                    replay.append((w, op))

    metrics = tracer.layer_metrics()
    metrics["protocol.peak_alloc_bytes_per_bit"] = tracing.peak_alloc_per_bit(
        lambda: [w.run_traced(op) for w, op in replay])
    metrics["cli.import_ms"] = _import_ms("twrelay.cli")
    metrics["cli.numpy_import_ms"] = _import_ms("numpy")
    metrics["trace.overhead_pct"] = (tally.elapsed / plain.elapsed - 1.0) * 100.0
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace-{wl.name}.npz")
    extra = {"untraced_s": plain.elapsed, "traced_s": tally.elapsed}
    return tally, warm.problems + plain.problems + census_tally.problems, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]

    if args.trace:
        tally, other_problems, metrics, extra = run_traced(wl, args.seed)
        names = [m["name"] for m in bench["per_layer"]]
    else:
        tally, other_problems, metrics, extra = run_untraced(wl, args.seed, args.seconds)
        names = [m["name"] for m in bench["end_to_end"]]
    problems = other_problems + tally.problems
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    info = machine()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": info, "attempted": tally.attempted, "failed": tally.failed,
              "correct": not problems, "metrics": metrics, **extra}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print("# machine " + json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
