"""Spans around the calls into twrelay's layers, recorded from outside it.

:class:`Tracer` rebinds every public module-level function of the six layer
modules (``channel``, ``schemes``, ``oracle``, ``protocol``, ``sweep``,
``cli``) to a wrapper that records one span per call: name, parent span,
start and end.  The wrapper replaces the function under every name that
any twrelay module binds it to, so the program's own cross-module calls
are traced too, while its source stays untouched.  Spans live in flat
arrays in memory and are written out once, at the end of the run.

A span's self time is its duration minus the time its child spans cover.
Private helpers are not wrapped: their time counts toward the public
function that called them.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("channel", "schemes", "oracle", "protocol", "sweep", "cli")
CLOSED_FORMS = {
    "schemes.df_max_rate", "schemes.df_max_rate_no_direct", "schemes.af_rate",
    "schemes.jdf_max_rate", "schemes.dnf_upper_bound",
}
RATE_FNS = {"schemes.df_rate", "schemes.jdf_rate"}
EXCHANGES = {"protocol.run_df", "protocol.run_jdf"}
CLI_SUBCOMMANDS = ("rate", "sweep", "simulate", "verify")


def _program_modules():
    return [m for n, m in list(sys.modules.items()) if n == "twrelay" or n.startswith("twrelay.")]


def _public_functions(layer: str):
    mod = sys.modules[f"twrelay.{layer}"]
    return [
        (name, fn) for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    ]


@contextmanager
def _rebound(replacements: dict):
    """Rebind each original function (keyed by id) wherever twrelay binds it."""
    undo = []
    try:
        for mod in _program_modules():
            for attr, value in list(vars(mod).items()):
                new = replacements.get(id(value))
                if new is not None:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


class Tracer:
    """In-memory span recorder.  Spans opened by the benchmark itself
    (one per op) are the roots; a span's ``op`` is its root."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.points = 0  # rows returned by run_sweep
        self.csv_bytes = 0  # characters returned by emit_csv
        self.bits = 0  # bits delivered by simulated exchanges

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, on_return=None):
        nid = self._nid(name)
        name_append, parent_append = self.name_id.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_append(nid)
            parent_append(stack[-1])
            start_append(0.0)
            end_append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, field: str, size):
        def add(result):
            setattr(self, field, getattr(self, field) + size(result))
        return add

    @contextmanager
    def installed(self):
        """Trace every public layer function while the block runs."""
        hooks = {
            "sweep.run_sweep": self._count("points", len),
            "sweep.emit_csv": self._count("csv_bytes", len),
            "protocol.run_df": self._count("bits", lambda t: t.delivered_ac + t.delivered_ca),
            "protocol.run_jdf": self._count("bits", lambda t: t.delivered_ac + t.delivered_ca),
        }
        wrappers = {}
        for layer in LAYERS:
            for name, fn in _public_functions(layer):
                full = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(fn, full, hooks.get(full))
        with _rebound(wrappers):
            yield self

    def op(self, kind: str, run, *args):
        """Run one benchmark op as a root span named ``op:<kind>``."""
        return self._wrap(run, f"op:{kind}")(*args)

    # --- analysis ------------------------------------------------------------

    def arrays(self):
        return (
            np.asarray(self.name_id, dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.start),
            np.asarray(self.end),
        )

    def save(self, path) -> None:
        nid, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=parent, start=start, end=end)

    def layer_metrics(self) -> dict[str, float]:
        nid, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        layer_of = [n.partition(".")[0] for n in self.names]
        layer_id = np.array([LAYERS.index(x) if x in LAYERS else -1 for x in layer_of] or [-1])[nid]

        def in_layer(name):
            return layer_id == LAYERS.index(name)

        def is_name(*wanted):
            return np.isin(nid, [self._ids[w] for w in wanted if w in self._ids])

        # spans with an oracle call among their ancestors
        is_oracle = in_layer("oracle")
        inside_oracle = np.zeros(len(dur), dtype=bool)
        anc = parent.copy()
        while (live := anc >= 0).any():
            inside_oracle[live] |= is_oracle[anc[live]]
            anc[live] = parent[anc[live]]

        def total_ms(mask):
            return float(self_time[mask].sum() * 1e3)

        def median(values, scale):
            return float(np.median(values) * scale) if len(values) else 0.0

        m = {}
        m["channel.calls"] = int(in_layer("channel").sum())
        m["channel.self_ms"] = total_ms(in_layer("channel"))
        closed = is_name(*CLOSED_FORMS)
        m["schemes.closed_form_calls"] = int(closed.sum())
        m["schemes.closed_form_us"] = median(dur[closed], 1e6)
        m["schemes.rate_fn_calls"] = int(is_name(*RATE_FNS).sum())
        m["schemes.self_ms"] = total_ms(in_layer("schemes"))
        m["oracle.calls"] = int((is_oracle & ~inside_oracle).sum())
        m["oracle.objective_evals"] = int((is_name(*RATE_FNS) & inside_oracle).sum())
        m["oracle.grid_df_ms"] = median(dur[is_name("oracle.grid_max_df_theta")], 1e3)
        m["oracle.grid_jdf_ms"] = median(dur[is_name("oracle.grid_max_jdf_lambda")], 1e3)
        m["oracle.self_ms"] = total_ms(is_oracle)
        m["sweep.points"] = self.points
        m["sweep.run_self_ms"] = total_ms(is_name("sweep.run_sweep"))
        m["sweep.emit_csv_ms"] = float(dur[is_name("sweep.emit_csv")].sum() * 1e3)
        m["sweep.csv_bytes"] = self.csv_bytes
        exchanges = is_name(*EXCHANGES)
        m["protocol.exchanges"] = int(exchanges.sum())
        m["protocol.bits"] = self.bits
        m["protocol.ms_per_mbit"] = float(dur[exchanges].sum() * 1e3 / (self.bits / 1e6)) if self.bits else 0.0
        # cli.main per subcommand: its parent is the op span named after it
        mains = is_name("cli.main")
        per_sub = {}
        for sub in CLI_SUBCOMMANDS:
            under = mains & np.isin(parent, np.flatnonzero(is_name(f"op:{sub}")))
            per_sub[sub] = median(dur[under], 1e3)
            m[f"cli.main_{sub}_ms"] = per_sub[sub]
        m["cli.main_ms"] = sum(per_sub.values())
        m["trace.spans"] = int(len(dur))
        return m


def peak_alloc_per_bit(run_ops) -> float:
    """Median over simulated exchanges of tracemalloc's peak allocation
    during the exchange, per delivered bit.  ``run_ops`` replays ops."""
    ratios = []

    def measured(fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            t = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
            ratios.append(peak / (t.delivered_ac + t.delivered_ca))
            return t
        return wrapper

    fns = dict(_public_functions("protocol"))
    replacements = {id(fns[n.split(".")[1]]): measured(fns[n.split(".")[1]]) for n in EXCHANGES}
    tracemalloc.start()
    try:
        with _rebound(replacements):
            run_ops()
    finally:
        tracemalloc.stop()
    return statistics.median(ratios) if ratios else 0.0
