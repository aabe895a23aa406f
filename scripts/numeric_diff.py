"""Compare the numbers two twrelay source trees compute, bit for bit.

    python3 scripts/numeric_diff.py PARENT_SRC CHANGE_SRC [--count N] [--seed S]

Each argument is a directory holding the ``twrelay`` package (a ``src``
directory) or a checkout whose ``src`` holds it.  Each tree is imported in
its own child process, and both evaluate one fixed seeded set of link
configs, ``--count`` of them (default 10^5), drawn by this script alone so
that the set does not depend on either tree.  The set spans the whole float
range of SNRs and leans on the places where the numeric rules switch
branch:

* gamma1 over the whole range (about -3230 to 3082 dB), at -10..30 dB,
  in the subnormal band, near the normal and overflow limits of the
  products (about -1540 and +1540 dB) and near the float maximum;
* gamma2 equal to gamma1, a ratio above it, far above it, on JDF's regime
  boundary gamma1 + gamma1**2 and one float either side of it;
* gamma0 zero, a fraction of gamma1, gamma1 * (1 - 2**-k), or tiny;
* a quarter of the configs given with the terminals swapped.

For each config it evaluates every public closed form (``df_max_rate``,
``df_max_rate_no_direct``, ``af_rate``, ``jdf_max_rate``,
``dnf_upper_bound``) with its parameter and every breakdown field,
``df_rate`` and ``jdf_rate`` at shares 0, 1 and a drawn one, and the
``GridResult`` of both 1-D grid oracles and, in a tree that has them, of
both exact oracles (``exact_max_df``, ``exact_max_jdf``; against a tree
without them their rows exist in one tree only); every 200th config also
runs ``grid_max_ma_region``.

Then both trees simulate as many seeded exchanges as there are configs, at
most ``EXCHANGES`` (600), each through ``run_df`` and ``run_jdf``: SNRs of
-10..30 dB, equal links or a ratio above, gamma0 zero or a fraction of
gamma1, a quarter swapped, shares of 0, 1 or between, and Python-int blocks
of 1 to 10^5 symbols or, for a quarter of them, sized so that A's DF packet
lies within a few bits of a 128 KiB relay chunk's edge (1 to 3 chunks in).  Every ``Transcript`` field
is recorded, with a SHA-256 of the bytes each terminal recovers from the
relay, read by wrapping ``protocol._relay_broadcast``.  A call that raises
is recorded as its exception.

It prints one line per value: how many were compared, how many raised in
either tree, how many differ in their bits, and the largest difference in units in the last place (``inf``
where a differing value is not a float on both sides, or a value exists in
one tree only).  Exits 0 when nothing differs, 1 when something does, 2
when a tree cannot be run.  Standard library only; the children need numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import math
import pickle
import random
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Iterator

BLOCK = 500  # records (configs, then exchanges) per message from a child
REGION_EVERY = 200  # every so many configs also scan the multiple-access region
EXCHANGES = 600  # simulated exchanges at most, each by both schemes
CHUNK_BITS = 8 * 131072  # the relay's chunk, protocol._RELAY_CHUNK bytes
_FLOAT_MAX = sys.float_info.max


def _db(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def _gamma1(rng: random.Random) -> float:
    u = rng.random()
    if u < 0.4:
        lo, hi = -3230.0, 3082.0  # the whole range
    elif u < 0.6:
        lo, hi = -10.0, 30.0  # verify's default range
    elif u < 0.7:
        lo, hi = -3230.0, -3080.0  # subnormal SNRs
    elif u < 0.8:
        lo, hi = -1560.0, -1520.0  # products of two SNRs leave the normal range
    elif u < 0.9:
        lo, hi = 1520.0, 1560.0  # products of two SNRs overflow
    else:
        lo, hi = 3070.0, 3082.0  # the SNRs themselves near the float maximum
    return _db(rng.uniform(lo, hi))


def _gamma2(rng: random.Random, g1: float) -> float:
    u = rng.random()
    if u < 0.35:
        g2 = g1 * _db(rng.uniform(0.0, 10.0))
    elif u < 0.5:
        g2 = g1
    elif u < 0.7:
        # JDF's regime boundary g1 + g1**2, on it or one float either side
        g2 = min(g1 + g1 * g1, _FLOAT_MAX)
        g2 = rng.choice((g2, math.nextafter(g2, math.inf), math.nextafter(g2, 0.0)))
    elif u < 0.85:
        g2 = _db(rng.uniform(10.0 * math.log10(g1), 3082.0))
    else:
        g2 = math.nextafter(g1, math.inf)
    return min(max(g2, g1), _FLOAT_MAX)


def _gamma0(rng: random.Random, g1: float) -> float:
    u = rng.random()
    if u < 0.35:
        return 0.0
    if u < 0.6:
        g0 = rng.uniform(0.0, 0.5) * g1
    elif u < 0.85:
        g0 = (1.0 - 2.0 ** -rng.randint(1, 52)) * g1  # C(g0) close to C(g1)
    elif u < 0.95:
        g0 = _db(rng.uniform(-3230.0, 10.0 * math.log10(g1)))
    else:
        g0 = rng.uniform(0.5, 1.0) * g1
    # gamma0 must stay below gamma1 where the product rounds up to it
    return g0 if g0 < g1 else math.nextafter(g1, 0.0)


def draw(count: int, seed: int) -> Iterator[tuple[float, float, float, float]]:
    """``(gamma0, gamma_a, gamma_c, share)`` per config, as given to
    ``make_config``, and a share in [0, 1] for the per-share rates."""
    rng = random.Random(seed)
    for _ in range(count):
        g1 = _gamma1(rng)
        g2 = _gamma2(rng, g1)
        g0 = _gamma0(rng, g1)
        ga, gc = (g2, g1) if rng.random() < 0.25 else (g1, g2)
        yield g0, ga, gc, rng.random()


def draw_exchanges(count: int, seed: int) -> Iterator[tuple[float, float, float, int, float]]:
    """``(gamma0, gamma_a, gamma_c, n_symbols, share)`` per exchange, each
    run through both simulated schemes."""
    rng = random.Random(f"exchanges {seed}")
    for _ in range(count):
        g1 = _db(rng.uniform(-10.0, 30.0))
        g2 = g1 if rng.random() < 0.2 else g1 * _db(rng.uniform(0.0, 10.0))
        g0 = 0.0 if rng.random() < 0.4 else rng.uniform(0.0, 0.9) * g1
        ga, gc = (g2, g1) if rng.random() < 0.25 else (g1, g2)
        u = rng.random()
        share = 0.0 if u < 0.1 else 1.0 if u < 0.2 else rng.random()
        if rng.random() < 0.25 and share < 1.0:
            # A's DF packet, (1 - share) * N * C(gamma_a) bits, near a chunk edge
            bits_per_symbol = (1.0 - share) * math.log2(1.0 + ga)
            n_symbols = round(rng.randint(1, 3) * CHUNK_BITS / bits_per_symbol)
            n_symbols = min(max(n_symbols + rng.randint(-2, 2), 1), 10**7)
        else:
            n_symbols = int(10.0 ** rng.uniform(0.0, 5.0))
        yield g0, ga, gc, n_symbols, share


# ------------------------------------------------------------------ child


def _flatten(value, key: str, out: dict) -> None:
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _flatten(getattr(value, f.name), f"{key}.{f.name}", out)
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            _flatten(item, f"{key}[{i}]", out)
    else:
        out[key] = value


def _record(key: str, call, out: dict, read=None) -> None:
    """``call()``'s values under ``key``, through ``read`` (which flattens
    into ``out``) or as one dataclass; an exception is the value instead."""
    try:
        result = call()
        if read is None:
            _flatten(result, key, out)
        else:
            read(result, key, out)
    except Exception as exc:  # noqa: BLE001 - any exception is a value to compare
        out[key] = f"!{type(exc).__name__}: {exc}"


def _read_scheme_rate(best, key: str, out: dict) -> None:
    out[f"{key}.rate"] = best.rate
    out[f"{key}.parameter"] = best.parameter
    _record(f"{key}.breakdown", lambda: best.breakdown, out)


def _evaluate(index: int, g0: float, ga: float, gc: float, share: float) -> dict:
    from twrelay import channel, oracle, schemes

    try:
        from twrelay import exact
    except ImportError:  # a tree from before the exact oracles
        exact = None

    out: dict = {}
    try:
        cfg = channel.make_config(g0, ga, gc)
    except Exception as exc:  # noqa: BLE001
        return {"make_config": f"!{type(exc).__name__}: {exc}"}
    for name in ("df_max_rate", "df_max_rate_no_direct", "af_rate", "jdf_max_rate",
                 "dnf_upper_bound"):
        _record(name, lambda: getattr(schemes, name)(cfg), out, _read_scheme_rate)
    for name in ("df_rate", "jdf_rate"):
        for label, x in (("0", 0.0), ("1", 1.0), ("u", share)):
            _record(f"{name}@{label}", lambda: getattr(schemes, name)(cfg, x), out)
    _record("grid_max_df_theta", lambda: oracle.grid_max_df_theta(cfg), out)
    _record("grid_max_jdf_lambda", lambda: oracle.grid_max_jdf_lambda(cfg), out)
    if exact is not None:
        for name in ("exact_max_df", "exact_max_jdf"):
            _record(name, lambda: getattr(exact, name)(cfg), out)
    if index % REGION_EVERY == 0:
        _record("grid_max_ma_region", lambda: oracle.grid_max_ma_region(cfg), out)
    return out


def _simulate(recovered: list, g0: float, ga: float, gc: float, n_symbols: int,
              share: float) -> dict:
    from twrelay import channel, protocol

    out: dict = {}
    cfg = channel.make_config(g0, ga, gc)
    for name in ("run_df", "run_jdf"):
        recovered[:] = hashlib.sha256(), hashlib.sha256()
        _record(name, lambda: getattr(protocol, name)(cfg, n_symbols, share, seed=1), out)
        if not _raised(out.get(name)):
            out[f"{name}.recovered_at_a"], out[f"{name}.recovered_at_c"] = (
                digest.hexdigest() for digest in recovered)
    return out


def _digest_relay(protocol, recovered: list) -> None:
    """Wrap ``protocol._relay_broadcast`` so that the bytes A and C recover,
    chunk by chunk, feed the two digests in ``recovered``."""
    relay = protocol._relay_broadcast

    def digesting(*args):
        at_a, at_c = relay(*args)
        recovered[0].update(at_a)
        recovered[1].update(at_c)
        return at_a, at_c

    protocol._relay_broadcast = digesting


def child(src: str, count: int, seed: int) -> int:
    sys.path.insert(0, src)
    import twrelay

    if Path(twrelay.__file__).resolve().parent != (Path(src) / "twrelay").resolve():
        print(f"imported twrelay from {twrelay.__file__}, not {src}", file=sys.stderr)
        return 2
    from twrelay import protocol

    warnings.simplefilter("ignore")  # numpy's overflow warnings are not values
    recovered: list = []
    _digest_relay(protocol, recovered)
    stream = sys.stdout.buffer
    block = []
    exchanges = draw_exchanges(min(count, EXCHANGES), seed)
    for record in itertools.chain(
            (_evaluate(index, *args) for index, args in enumerate(draw(count, seed))),
            (_simulate(recovered, *args) for args in exchanges)):
        block.append(record)
        if len(block) == BLOCK:
            pickle.dump(block, stream)
            block = []
    pickle.dump(block, stream)
    stream.flush()
    return 0


# ----------------------------------------------------------------- parent


def _ordered(x: float) -> int:
    """The float's bits as an integer that counts ulps across zero."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _ulps(a, b) -> float:
    """0 for the same bits, else the distance in ulps between two floats,
    inf where either is not a float."""
    if type(a) is float and type(b) is float:
        if struct.pack("<d", a) == struct.pack("<d", b):
            return 0
        return abs(_ordered(a) - _ordered(b)) or 1  # 0.0 against -0.0 differs
    if type(a) is type(b) and a == b:
        return 0
    return math.inf


def _raised(value) -> bool:
    return isinstance(value, str) and value.startswith("!")


def _row(key: str, row: list) -> str:
    compared, raised, differ, ulps = row
    return f"{key:<48} {compared:>9} {raised:>7} {differ:>7} {ulps:>9}"


def _src_dir(path: str) -> str:
    p = Path(path)
    if (p / "twrelay" / "__init__.py").is_file():
        return str(p)
    if (p / "src" / "twrelay" / "__init__.py").is_file():
        return str(p / "src")
    raise SystemExit(f"error: no twrelay package in {path} or {path}/src")


def compare(parent_src: str, change_src: str, count: int, seed: int) -> tuple[list[str], bool]:
    """The report's lines and whether anything differs."""
    procs = [
        subprocess.Popen([sys.executable, __file__, "--child", src, str(count), str(seed)],
                         stdout=subprocess.PIPE)
        for src in (parent_src, change_src)
    ]
    exchanges = min(count, EXCHANGES)
    stats: dict[str, list] = {}  # key -> [compared, raised, differ, max ulps]
    missing = object()
    try:
        for _ in range((count + exchanges) // BLOCK + 1):  # the children's messages, the last short
            blocks = [pickle.load(proc.stdout) for proc in procs]
            for old, new in zip(*blocks):
                for key in old.keys() | new.keys():
                    a, b = old.get(key, missing), new.get(key, missing)
                    d = _ulps(a, b)
                    row = stats.setdefault(key, [0, 0, 0, 0])
                    row[0] += 1
                    row[1] += _raised(a) or _raised(b)
                    if d:
                        row[2] += 1
                        row[3] = max(row[3], d)
    except (EOFError, pickle.UnpicklingError):  # a child stopped early; its error is on stderr
        for proc in procs:
            proc.kill()
    if any([proc.wait() for proc in procs]):
        raise SystemExit(2)
    lines = [f"numeric_diff: {count} configs (seed {seed}) and {exchanges} exchanges, "
             f"{parent_src} against {change_src}",
             f"{'value':<48} {'compared':>9} {'raised':>7} {'differ':>7} {'max_ulps':>9}"]
    total = [0, 0, 0, 0]
    for key in sorted(stats):
        lines.append(_row(key, stats[key]))
        total = [sum(pair) for pair in zip(total[:3], stats[key])] + [max(total[3], stats[key][3])]
    lines.append(_row("total", total))
    return lines, total[2] > 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", metavar="PARENT_SRC")
    parser.add_argument("change_src", metavar="CHANGE_SRC")
    parser.add_argument("--count", type=int, default=100_000, help="configs (default 10^5)")
    parser.add_argument("--seed", type=int, default=0, help="seed of both sets (default 0)")
    if argv[:1] == ["--child"]:  # one tree's values, as compare() spawns it
        return child(argv[1], int(argv[2]), int(argv[3]))
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be positive")
    lines, differs = compare(_src_dir(args.parent_src), _src_dir(args.change_src),
                             args.count, args.seed)
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
