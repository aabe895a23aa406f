"""Print the benchmark trajectory recorded in the repo's BENCH_*.json files.

    python3 scripts/bench_trajectory.py [BENCH_*.json ...]

Each ``BENCH_<sha>.json`` records one change measured against its parent
commit ``<sha>`` in a single session: alternating parent/change runs of
``perfbench/run.py`` on one machine, their medians and quartiles per
workload and end-to-end metric, and how many pairs the change won.  With
no arguments every ``BENCH_*.json`` at the repo root is read.

Records are printed in date order, one line per workload and metric, and
each is marked by the machine it ran on (M1, M2, ... with a legend).
Records of one date follow their parent commits' depth (``git rev-list
--count <sha>`` in the repository the record sits in), then their file
names, which also order them where git or the commit is missing.
Absolute figures drift between sessions and machines, so only the
parent/change ratio within one record is a measured change; a jump from
one record's change to the next record's parent is not.

Standard library only.  Exits 1 if a record lacks a field this needs;
stops quietly, with status 0, when its reader closes the pipe (as
``| head`` does).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
STATS = ("q1", "median", "q3")


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    for key in ("date", "parent", "machine", "pairs", "workloads"):
        if key not in record:
            raise ValueError(f"{path.name}: no {key!r}")
    for workload, metrics in record["workloads"].items():
        for metric, row in metrics.items():
            missing = [f"{side}.{stat}" for side in SIDES for stat in STATS
                       if stat not in row.get(side, {})]
            missing += [key for key in ("better", "change_wins") if key not in row]
            if missing:
                raise ValueError(f"{path.name}: {workload} {metric} has no {', '.join(missing)}")
    return record


def commit_depth(sha: str, where: Path) -> Optional[int]:
    """How many commits lead to ``sha`` in the git repository at ``where``;
    None where git, the repository or the commit is missing."""
    if not re.fullmatch(r"[0-9a-f]{4,40}", sha):
        return None
    try:
        proc = subprocess.run(["git", "rev-list", "--count", sha], cwd=where,
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return int(proc.stdout) if proc.returncode == 0 else None


def trajectory(records: list[tuple[str, dict, Optional[int]]]) -> list[str]:
    """The lines to print for ``(file name, record, parent's depth)`` triples."""
    machines: list[dict] = []
    lines = []
    for name, record, _ in sorted(records, key=lambda item: (
            item[1]["date"], item[2] is None, item[2] or 0, item[0])):
        if record["machine"] not in machines:
            machines.append(record["machine"])
        mark = f"M{machines.index(record['machine']) + 1}"
        claim = record.get("claim", {})
        lines.append(f"{name}  {record['date']}  parent {record['parent']}  {mark}  "
                     f"{record['pairs']} pairs")
        for workload, metrics in record["workloads"].items():
            for metric, row in metrics.items():
                parent, change = row["parent"]["median"], row["change"]["median"]
                claimed = "*" if claim == {"workload": workload, "metric": metric} else " "
                lines.append(
                    f" {claimed} {workload:14} {metric:12} {parent:11.4g} -> {change:11.4g} "
                    f"{change / parent:7.3f}x  "
                    f"IQR {row['parent']['q1']:.4g}-{row['parent']['q3']:.4g} -> "
                    f"{row['change']['q1']:.4g}-{row['change']['q3']:.4g}  "
                    f"change won {row['change_wins']}/{record['pairs']} "
                    f"({row['better']} is better)")
    lines.append("machines:")
    lines += [f"  M{i + 1} {json.dumps(m, sort_keys=True)}" for i, m in enumerate(machines)]
    lines.append("* the metric the change claimed; compare medians only within a record")
    return lines


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(ROOT.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json records", file=sys.stderr)
        return 1
    try:
        loaded = [(p, load(p)) for p in paths]
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = [(p.name, record, commit_depth(record["parent"], p.resolve().parent))
               for p, record in loaded]
    try:
        print("\n".join(trajectory(records)), flush=True)
    except BrokenPipeError:
        # the reader has what it wanted; point stdout at devnull so that the
        # flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
