"""Time two twrelay source trees against each other in one interpreter.

    python3 scripts/ab.py PARENT CHANGE [--rounds N]

Each argument is a directory holding the ``twrelay`` package (a ``src``
directory) or a checkout whose ``src`` holds it.  The two trees are loaded
side by side under the aliases ``tw_a`` (parent) and ``tw_b`` (change);
every import inside the package is relative, so each alias keeps its own
modules.  Timing both in one process removes what separate processes add
between trees: start-up, paths, page cache, where the interpreter lands.

The ops are the benchmark's own: this checkout's ``perfbench/workloads.py``
is loaded once per tree with its program modules rebound to that tree's
(loading it also imports this checkout's ``twrelay``, which no op runs),
and each op runs one round of a workload's ops, built by its
``make_round`` from a fixed seed, through its ``run``:

* ``oracle-verify``: 48 random configs and the two weak equal-link ones;
* ``exact``: the same configs through ``exact_max_df`` and ``exact_max_jdf``;
* ``sweep-dense``: four 3001-point sweeps, one per gamma2 rule;
* ``sim-large``: the eight exchange kinds of 4 million bits.

``cli-cold`` starts a process per op and stays with ``perfbench/run.py``.
Each round times an op in the order A, B, B, A, with the garbage collector
run before each call, after one untimed warm-up call per tree.  A round's
ratio is B's time over A's, each summed over its two calls, so a ratio
below 1 means the change is faster.  One JSON line is printed: per op, the
median ratio, its interquartile range, the rounds the change won and the
two-sided sign-test p-value.  Only work is timed; cold start and memory
stay with ``perfbench/run.py``.  Needs numpy, as the trees and perfbench do.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import statistics
import sys
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
ALIASES = ("tw_a", "tw_b")
BOUND = ("channel", "cli", "oracle", "protocol", "schemes", "sweep")  # workloads.py's
MODULES = BOUND + ("exact",)
OPS = ("oracle-verify", "exact", "sweep-dense", "sim-large")
SEED = 0


def src_dir(path: str) -> Path:
    p = Path(path)
    for src in (p, p / "src"):
        if (src / "twrelay" / "__init__.py").is_file():
            return src
    raise SystemExit(f"error: no twrelay package in {path} or {path}/src")


def _load(name: str, path: Path, **spec_args):
    spec = importlib.util.spec_from_file_location(name, path, **spec_args)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(src: Path, alias: str) -> SimpleNamespace:
    """The tree's package under ``alias``, with the submodules the ops use."""
    package = src / "twrelay"
    module = _load(alias, package / "__init__.py", submodule_search_locations=[str(package)])
    return SimpleNamespace(package=module, **{
        name: importlib.import_module(f"{alias}.{name}") for name in MODULES})


def _run_round(workload, ops) -> None:
    for op in ops:
        workload.run(op)


def build_ops(tw: SimpleNamespace, alias: str) -> dict[str, Callable[[], object]]:
    """Each of ``OPS`` as a call of no arguments on ``tw``'s modules."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))  # workloads.py imports its reference module
    bench = _load(f"{alias}_workloads", BENCH / "workloads.py")
    for name in BOUND:
        setattr(bench, name, getattr(tw, name))
    rounds = {name: (bench.WORKLOADS[name], bench.WORKLOADS[name].build(SEED, 1))
              for name in OPS if name != "exact"}
    configs = [op.args for op in rounds["oracle-verify"][1]]
    ops = {name: partial(_run_round, *rounds[name]) for name in rounds}
    ops["exact"] = lambda: [(tw.exact.exact_max_df(c), tw.exact.exact_max_jdf(c))
                            for c in configs]
    return {name: ops[name] for name in OPS}


def _timed(op: Callable[[], object]) -> float:
    gc.collect()
    start = time.perf_counter()
    op()
    return time.perf_counter() - start


def sign_test_p(wins: int, rounds: int) -> float:
    """Two-sided exact binomial p of ``wins`` out of ``rounds`` at 1/2."""
    if rounds == 0:
        return 1.0
    tail = sum(math.comb(rounds, k) for k in range(min(wins, rounds - wins) + 1))
    return min(1.0, 2.0 * tail / 2.0 ** rounds)


def compare(a: Callable[[], object], b: Callable[[], object], rounds: int) -> dict:
    """ABBA rounds of one op: its ratios' median, quartiles, wins and sign test."""
    a(), b()  # warm caches and lazy imports
    ratios = []
    for _ in range(rounds):
        t_a, t_b1, t_b2, t_a2 = _timed(a), _timed(b), _timed(b), _timed(a)
        ratios.append((t_b1 + t_b2) / (t_a + t_a2))
    wins = sum(r < 1.0 for r in ratios)
    decided = sum(r != 1.0 for r in ratios)
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    return {"median_ratio": round(median, 4), "iqr": [round(q1, 4), round(q3, 4)],
            "wins": wins, "rounds": rounds, "sign_p": float(f"{sign_test_p(wins, decided):.3g}")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    srcs = [src_dir(path) for path in (args.parent, args.change)]
    ops = [build_ops(load_tree(src, alias), alias) for src, alias in zip(srcs, ALIASES)]
    result = {"parent": str(srcs[0]), "change": str(srcs[1]), "rounds": args.rounds,
              "ops": {name: compare(ops[0][name], ops[1][name], args.rounds) for name in OPS}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
