"""Brute-force oracles for the closed-form results.

Everything here deliberately avoids the closed-form optima: maxima are
located by dense grid scans sharpened by golden-section refinement, the
multiple-access search walks the whole rate region, and the denoiser
search enumerates relay codebooks exhaustively.  Tests compare these
independent answers against the formulas.

The 1-D scans build the scheme's rate rule of :mod:`schemes` once per
config (``_df_two_way``, ``_jdf_two_way``: a function of the time share),
evaluate it on the whole grid in one numpy pass, then refine on the same
rule with Python floats.  They assume nothing of the rule's shape, which
the exact oracles of :mod:`exact`, the ones ``verify`` runs, rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import schemes
from .channel import MAX_GRID_POINTS, LinkConfig, capacity, ma_region
from .exact import GridResult

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2

_REFINE_TOL = 1e-10  # golden-section refinement stops below this bracket width

# the 1-D scan grids, built once and shared read-only by every scan: 1001
# interior points of [0, 1] and both ends for theta, 1001 points for lam
_THETA_GRID = np.linspace(0.0, 1.0, 1003)
_LAM_GRID = np.linspace(0.0, 1.0, 1001)
_THETA_GRID.flags.writeable = _LAM_GRID.flags.writeable = False


def _golden_max(rule: Callable, lo: float, hi: float) -> float:
    """Golden-section maximization on [lo, hi] of the rate, entry 3 of
    ``rule``'s tuple, which is unimodal in the share: the located
    maximizer."""
    a, b = lo, hi
    h = b - a
    # reductions needed to shrink the bracket below _REFINE_TOL
    steps = int(math.ceil(math.log(_REFINE_TOL / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    fc = rule(c)[3]
    fd = rule(d)[3]
    for _ in range(steps):
        h *= _INV_PHI
        if fc > fd:
            b, d, fd = d, c, fc
            c = a + _INV_PHI2 * h
            fc = rule(c)[3]
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * h
            fd = rule(d)[3]
    x = 0.5 * (a + d) if fc > fd else 0.5 * (c + b)
    return x


def _grid_refine(rule: Callable, grid: np.ndarray) -> GridResult:
    """Maximize the rate, entry 3 of ``rule``'s tuple, over ``grid``, which
    runs from 0 to 1, in one call on the whole array, then refine between
    the best point's neighbours by golden-section search with scalar calls;
    ``rule`` maps a float to floats and an array to arrays."""
    # where a duration overflows to inf the rate is 0, which is right
    with np.errstate(over="ignore"):
        values = rule(grid)[3]
    i = int(values.argmax())  # first maximum: smallest parameter wins ties
    best_x = float(grid[i])
    best_v = float(values[i])
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    x = _golden_max(rule, lo, hi)
    v = rule(x)[3]
    if v >= best_v:
        best_x, best_v = x, v
    return GridResult(best_param=best_x, best_rate=best_v)


def grid_max_df_theta(config: LinkConfig) -> GridResult:
    """Maximize the DF rate over the time split theta by brute force.

    Scans 1001 interior points of [0, 1] and both ends, then refines the
    winning grid cell by golden-section search (the rate is unimodal in
    theta).
    """
    rule = schemes._df_two_way(
        capacity(config.gamma0), capacity(config.gamma1), capacity(config.gamma2)
    )
    return _grid_refine(rule, _THETA_GRID)


def grid_max_jdf_lambda(config: LinkConfig) -> GridResult:
    """Maximize the JDF rate over the time-share weight lam by brute force,
    on 1001 points from 0 to 1 refined as for theta."""
    return _grid_refine(schemes._jdf_two_way(ma_region(config)), _LAM_GRID)


def grid_max_ma_region(config: LinkConfig, grid_points: int = 401) -> GridResult:
    """Maximize the two-way rate over the whole multiple-access region.

    Scans a ``grid_points`` x ``grid_points`` lattice over
    ``[0, C(gamma1)] x [0, C(gamma2)]``, discarding points beyond the sum
    capacity.  Confirms that restricting attention to the dominant face
    (as the closed forms do) loses nothing beyond grid resolution.  The
    lattice holds at most ``MAX_GRID_POINTS`` points.
    """
    if grid_points < 3:
        raise ValueError(f"grid_points must be at least 3 per axis, got {grid_points!r}")
    if grid_points**2 > MAX_GRID_POINTS:  # checked before any lattice is built
        raise ValueError(f"a {grid_points} x {grid_points} lattice exceeds "
                         f"{MAX_GRID_POINTS} grid points")
    region = ma_region(config)
    ras = np.linspace(0.0, region.cap_a, grid_points)
    rcs = np.linspace(0.0, region.cap_c, grid_points)
    ra = ras[:, None]
    rc = rcs[None, :]
    rate = (ra + rc) / schemes._broadcast_duration(ra, rc, region.cap_a, region.cap_c)
    rate[ra + rc > region.cap_sum + 1e-12] = -np.inf
    flat = int(rate.argmax())  # row-major: smallest (rate_a, rate_c) wins ties
    i, j = divmod(flat, grid_points)
    return GridResult(best_param=(float(ras[i]), float(rcs[j])), best_rate=float(rate[i, j]))


class AlphabetBudgetError(ValueError):
    """Alphabet sizes beyond the exhaustive-search budget."""


class DenoiserSearchExhausted(RuntimeError):
    """No valid relay codebook exists for any size within the bound."""


@dataclass(frozen=True)
class DenoiserInstance:
    """A minimal relay codebook found by exhaustive search.

    ``mapping`` sends each distinct noiseless observation to a codeword
    index in ``range(codebook_size)``.  ``matches_conjecture`` records
    whether the size equals ``max(|alphabet_a|, |alphabet_c|)``.
    """

    codebook_size: int
    mapping: dict
    matches_conjecture: bool


_MAX_ALPHABET = 6  # exhaustive search budget


def _tabulate(alphabet_a: int, alphabet_c: int, channel: Callable[[int, int], object]):
    if alphabet_a < 1 or alphabet_c < 1:
        raise ValueError("alphabet sizes must be at least 1")
    if alphabet_a > _MAX_ALPHABET or alphabet_c > _MAX_ALPHABET:
        raise AlphabetBudgetError(
            f"alphabet sizes up to {_MAX_ALPHABET} are supported, "
            f"got ({alphabet_a}, {alphabet_c})"
        )
    index: dict = {}  # observation -> vertex id, in first-appearance order
    table = [[index.setdefault(channel(a, c), len(index)) for c in range(alphabet_c)]
             for a in range(alphabet_a)]
    return index, table


def _conflicts(table: list[list[int]]) -> tuple[list[set], bool]:
    """Adjacency between observations that some terminal must tell apart.

    Two observations conflict when they share a row (same A symbol) or a
    column (same C symbol).  A repeated observation within a row or column
    is a self-conflict: no codebook of any size can resolve it.
    """
    adj: list[set] = [set() for _ in range(max(map(max, table)) + 1)]
    self_conflict = False
    for line in table + [list(col) for col in zip(*table)]:
        if len(set(line)) < len(line):
            self_conflict = True
        for i, u in enumerate(line):
            for v in line[i + 1 :]:
                if u != v:
                    adj[u].add(v)
                    adj[v].add(u)
    return adj, self_conflict


def _color(adj: list[set], k: int) -> Optional[list[int]]:
    """Proper k-coloring by backtracking, or None.

    Vertices are processed in decreasing-degree order; a vertex may only
    open one fresh color beyond those already used, which breaks color
    symmetry and keeps the result deterministic.
    """
    n = len(adj)
    order = sorted(range(n), key=lambda v: (-len(adj[v]), v))
    colors: list[Optional[int]] = [None] * n

    def assign(pos: int, used: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for color in range(min(k, used + 1)):
            if all(colors[u] != color for u in adj[v]):
                colors[v] = color
                if assign(pos + 1, max(used, color + 1)):
                    return True
                colors[v] = None
        return False

    if assign(0, 0):
        return [int(c) for c in colors]  # type: ignore[arg-type]
    return None


def separately_invertible(alphabet_a: int, alphabet_c: int, channel: Callable[[int, int], object]) -> bool:
    """Whether the noiseless channel is separately injective in each input.

    For every fixed A symbol the map over C symbols must be injective, and
    vice versa.  This is exactly the condition under which any denoiser
    codebook (of any size) can exist.
    """
    _, table = _tabulate(alphabet_a, alphabet_c, channel)
    _, self_conflict = _conflicts(table)
    return not self_conflict


def denoiser_feasible(
    alphabet_a: int,
    alphabet_c: int,
    channel: Callable[[int, int], object],
    codebook_size: int,
) -> Optional[dict]:
    """Try to build a valid relay codebook of exactly ``codebook_size``.

    Returns the observation-to-codeword mapping, or None when no codebook
    of that size lets both terminals decode unambiguously.
    """
    if codebook_size < 1:
        raise ValueError(f"codebook_size must be positive, got {codebook_size!r}")
    index, table = _tabulate(alphabet_a, alphabet_c, channel)
    adj, self_conflict = _conflicts(table)
    if self_conflict:
        return None
    coloring = _color(adj, codebook_size)
    if coloring is None:
        return None
    return {obs: coloring[vid] for obs, vid in index.items()}


def search_min_denoiser(
    alphabet_a: int,
    alphabet_c: int,
    channel: Callable[[int, int], object],
) -> DenoiserInstance:
    """Smallest relay codebook for a noiseless finite-alphabet uplink.

    The relay observes ``channel(a, c)`` and forwards one of ``k``
    codewords; terminal A must recover ``c`` from the codeword and its own
    ``a``, and symmetrically for C.  Sizes ``k = 1, 2, ...`` are tried in
    order up to ``alphabet_a * alphabet_c``, so the returned codebook is
    minimal.  Raises :class:`DenoiserSearchExhausted` when no size works,
    which happens exactly when :func:`separately_invertible` fails.
    """
    index, table = _tabulate(alphabet_a, alphabet_c, channel)
    adj, self_conflict = _conflicts(table)
    if not self_conflict:
        for k in range(1, alphabet_a * alphabet_c + 1):
            coloring = _color(adj, k)
            if coloring is not None:
                return DenoiserInstance(
                    codebook_size=k,
                    mapping={obs: coloring[vid] for obs, vid in index.items()},
                    matches_conjecture=(k == max(alphabet_a, alphabet_c)),
                )
    raise DenoiserSearchExhausted(
        f"no valid relay codebook of size up to {alphabet_a * alphabet_c} exists; "
        "the channel is not separately invertible (separately_invertible fails)"
    )
