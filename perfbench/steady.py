"""Steadiness check: two sets of runs of the same code, side by side.

    python3 perfbench/steady.py --runs 10 --sets 2

Runs ``run.py`` ``--runs`` times per workload in each set, each run with its
own seed, cycling through the workloads so that slow phases of the machine
fall on all of them alike.  For every workload and end-to-end metric it
prints each set's median and interquartile spread (the distance between the
quartiles of ``statistics.quantiles(values, n=4)`` as a share of the
median), the change of the last set's median against the first in the
worse direction, and the metric's bound from BENCHMARK.json.  A spread is
marked ``!`` above its bound and ``~`` above a third of it.  The attempted and failed counts
must repeat exactly.  Raw results go to ``perfbench/out/steady-*.json``.
Exits 1 when a bound is broken.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, wall_s=wall)
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least 2 runs per set")
    names = args.workloads.split(",")

    results: list[list[dict]] = []
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            for w in names:
                r = one_run(w, args.first_seed + s * args.runs + i, args.seconds)
                print(f"set {s + 1} run {i + 1} {w}: wall {r['wall_s']:.1f} s, correct {r['correct']}, "
                      f"{r['attempted']} attempted, {r['failed']} failed", file=sys.stderr, flush=True)
                runs.append(r)
        results.append(runs)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "sets": results}, fh, indent=1)

    broken = []
    header = f"{'workload':14} {'metric':12} " + " ".join(
        f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}" for s in range(args.sets))
    print(header + f" {'drift':>7} {'bound':>6}")
    for w in names:
        per_set = [[r for r in runs if r["workload"] == w] for runs in results]
        counts = {(r["attempted"], r["failed"]) for runs in per_set for r in runs}
        if len(counts) != 1 or not all(r["correct"] for runs in per_set for r in runs):
            broken.append(f"{w}: attempted/failed {sorted(counts)}, all correct: "
                          f"{all(r['correct'] for runs in per_set for r in runs)}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells = []
            meds = []
            for runs in per_set:
                values = [r["metrics"][name]["value"] for r in runs]
                med, spr = statistics.median(values), spread(values)
                meds.append(med)
                mark = " " if spr <= bound / 3 else ("~" if spr <= bound else "!")
                if mark == "!":
                    broken.append(f"{w} {name}: spread {spr:.3f} above bound {bound}")
                cells.append(f"{med:11.4g} {spr:7.3f}{mark}")
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (meds[-1] - meds[0]) / meds[0]
            if drift > bound:
                broken.append(f"{w} {name}: last median worse by {drift:.3f}, bound {bound}")
            print(f"{w:14} {name:12} " + " ".join(cells) + f" {drift:+7.3f} {bound:6.2f}")
        print(f"{w:14} attempted/failed per run: {sorted(counts)}")
    for b in broken:
        print("BROKEN:", b)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
