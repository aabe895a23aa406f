"""Rate formulas and brute-force maxima computed apart from twrelay.

The benchmark checks the program's outputs against these.  Nothing here
imports twrelay: the per-parameter rate functions are written out from the
paper's model (time split ``theta`` for DF, time share ``lam`` along the
multiple-access dominant face for JDF), the optima come either from the
balance points of the two packet lengths or from a nested grid search, and
the simulator's bit counts are re-derived from the block length.
"""

from __future__ import annotations

import math

import numpy as np

# twrelay documents the same bound as sweep.VERIFY_TOLERANCE; it is kept here
# so that loosening the program's constant cannot loosen the benchmark
VERIFY_TOLERANCE = 1e-6

_LN2 = math.log(2.0)


def cap(gamma):
    """AWGN capacity log2(1 + gamma), scalar or array."""
    if isinstance(gamma, np.ndarray):
        return np.log1p(gamma) / _LN2
    return math.log1p(gamma) / _LN2


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def close(a: float, b: float, rel: float) -> bool:
    """Relative closeness that treats two infinities of one sign as equal."""
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- DF: three-step decode-and-forward -----------------------------------

def df_rate(c0, c1, c2, theta):
    """Two-way DF rate at time split ``theta`` (scalar or array).

    Packets of (1-theta)*(C1-C0) and theta*(C2-C0) bits go back through the
    relay; their common part is broadcast at C1 and the excess of the
    C-bound one at C2.
    """
    to_c = (1.0 - theta) * (c1 - c0)
    to_a = theta * (c2 - c0)
    duration = 1.0 + to_a / c1 + np.maximum(to_c - to_a, 0.0) / c2
    return ((1.0 - theta) * c1 + theta * c2) / duration


def df_theta_balance(c0: float, c1: float, c2: float) -> float:
    """Time split at which the two relayed packets are equally long."""
    return (c1 - c0) / ((c1 - c0) + (c2 - c0))


def df_max(g0: float, g1: float, g2: float) -> float:
    c0, c1, c2 = cap(g0), cap(g1), cap(g2)
    return float(df_rate(c0, c1, c2, df_theta_balance(c0, c1, c2)))


def df_no_direct(g1: float, g2: float) -> float:
    """The paper's gamma0 = 0 reduction, 2*C1*C2 / (C1 + 2*C2)."""
    c1, c2 = cap(g1), cap(g2)
    return 2.0 * c1 * c2 / (c1 + 2.0 * c2)


# --- JDF: two-step joint decode-and-forward ------------------------------

def jdf_pair(g1: float, g2: float, lam):
    """Uplink rates at time share ``lam`` between the two MA-region corners."""
    c1, c2 = cap(g1), cap(g2)
    corner_c_last = cap(g1 / (1.0 + g2))  # A's rate when C is decoded last
    corner_a_last = cap(g2 / (1.0 + g1))  # C's rate when A is decoded last
    rate_a = (1.0 - lam) * corner_c_last + lam * c1
    rate_c = (1.0 - lam) * c2 + lam * corner_a_last
    return rate_a, rate_c


def jdf_rate(g1: float, g2: float, lam):
    """Two-way JDF rate at time share ``lam`` (scalar or array)."""
    c1, c2 = cap(g1), cap(g2)
    rate_a, rate_c = jdf_pair(g1, g2, lam)
    duration = 1.0 + rate_c / c1 + np.maximum(rate_a - rate_c, 0.0) / c2
    return (rate_a + rate_c) / duration


def jdf_saturated(g1: float, g2: float) -> bool:
    """The paper's regime test: JDF reaches C(gamma1) once g2 > g1 + g1^2."""
    return g2 > g1 + g1 * g1


def jdf_lam_balance(g1: float, g2: float) -> float:
    """Time share at which both uplinks carry the same rate (clipped to [0, 1])."""
    a0, c0 = jdf_pair(g1, g2, 0.0)
    a1, c1 = jdf_pair(g1, g2, 1.0)
    slope = (a1 - a0) - (c1 - c0)  # 2(C1 + C2 - C12)
    if slope == 0.0:
        # both corners round to (C1, C2), as for equal links at -160 dB:
        # every share gives the same pair, and so the same rate
        return 0.0
    lam = (c0 - a0) / slope
    return min(1.0, max(0.0, lam))


def jdf_max(g1: float, g2: float) -> float:
    lam = 1.0 if jdf_saturated(g1, g2) else jdf_lam_balance(g1, g2)
    return float(jdf_rate(g1, g2, lam))


# --- AF and DNF ------------------------------------------------------------

def af_rate(g1: float, g2: float) -> float:
    snr_ac = g1 * g2 / (g1 + 2.0 * g2 + 1.0)
    snr_ca = g1 * g2 / (2.0 * g1 + g2 + 1.0)
    return 0.5 * (cap(snr_ac) + cap(snr_ca))


def dnf_bound(g1: float) -> float:
    return cap(g1)


# --- brute force -------------------------------------------------------------

def grid_max(f, lo: float, hi: float, points: int = 1001, levels: int = 4) -> float:
    """Maximum of ``f`` on [lo, hi] by repeatedly zooming a uniform grid.

    Each level keeps the two cells around the best point, so four levels of
    1001 points pin the maximizer to about 1e-11 of the interval.
    """
    best = -math.inf
    for _ in range(levels):
        x = np.linspace(lo, hi, points)
        v = f(x)
        i = int(np.argmax(v))
        best = max(best, float(v[i]))
        lo, hi = float(x[max(i - 1, 0)]), float(x[min(i + 1, points - 1)])
    return best


def brute_df(g0: float, g1: float, g2: float) -> float:
    c0, c1, c2 = cap(g0), cap(g1), cap(g2)
    return grid_max(lambda t: df_rate(c0, c1, c2, t), 1e-12, 1.0 - 1e-12)


def brute_jdf(g1: float, g2: float) -> float:
    return grid_max(lambda lam: jdf_rate(g1, g2, lam), 0.0, 1.0)


# --- simulator bit budgets ---------------------------------------------------

def df_bits(n: int, g1: float, g2: float, theta: float) -> tuple[float, float]:
    """Unfloored source-packet sizes (A->C, C->A) of a DF block of ``n`` symbols."""
    return n * (1.0 - theta) * cap(g1), n * theta * cap(g2)


def jdf_bits(n: int, g1: float, g2: float, lam: float) -> tuple[float, float]:
    rate_a, rate_c = jdf_pair(g1, g2, lam)
    return n * rate_a, n * rate_c


def floor_matches(actual: int, exact: float) -> bool:
    """Whether ``actual`` is floor(exact), allowing one bit where ``exact``
    sits within rounding of an integer (the program may round differently)."""
    f = math.floor(exact)
    if actual == f:
        return True
    near = abs(exact - round(exact)) <= 1e-12 * max(1.0, abs(exact))
    return near and abs(actual - f) == 1
