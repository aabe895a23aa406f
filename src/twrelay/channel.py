"""Gaussian two-way relay link model.

Two terminals A and C exchange data with the help of a relay B.  All three
links are AWGN channels described by linear (not dB) signal-to-noise ratios:

* ``gamma1``: the weaker terminal-relay link (A-B by convention),
* ``gamma2``: the stronger terminal-relay link (C-B),
* ``gamma0``: the direct A-C link, possibly absent (zero).

All rates are in bits per symbol; with bandwidth normalized to 1 Hz that is
the same number in bits per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LN2 = math.log(2.0)

MAX_GRID_POINTS = 1_000_000  # largest gamma1 grid of a sweep, or lattice of the region oracle


class AssumptionViolation(ValueError):
    """A link configuration breaks the relaying assumptions.

    The model requires the direct link to be strictly weaker than both
    terminal-relay links; otherwise relaying is pointless and several
    closed-form expressions lose their meaning.
    """


class ProtocolError(RuntimeError):
    """Internal consistency failure: a terminal decoded the wrong bits.

    Raised by the simulator in :mod:`protocol`; it lives here, free of
    numpy, so that the CLI can catch it without loading the simulator.
    """


def capacity(gamma: float) -> float:
    """AWGN capacity ``log2(1 + gamma)`` in bits per symbol.

    ``gamma`` is a linear SNR and must be finite and nonnegative.
    """
    if not 0.0 <= gamma < math.inf:  # NaN fails both comparisons
        raise ValueError(f"SNR must be finite and nonnegative, got {gamma!r}")
    # log1p keeps precision for gamma near 0
    return math.log1p(gamma) / _LN2


def _sum_capacity(g1: float, g2: float) -> float:
    """``C(g1 + g2)``, also where the sum overflows but both SNRs are finite."""
    total = g1 + g2
    if math.isinf(total) and max(g1, g2) < math.inf:
        # log2(1 + small + big) = log2(big) + C((1 + small) / big)
        small, big = sorted((g1, g2))
        return math.log2(big) + capacity((1.0 + small) / big)
    return capacity(total)


def db_to_linear(value_db: float) -> float:
    """Convert an SNR from dB to linear scale (-inf maps to 0)."""
    if math.isnan(value_db):
        raise ValueError("SNR in dB must not be NaN")
    if value_db == -math.inf:
        return 0.0
    if not math.isfinite(value_db):
        raise ValueError("SNR in dB must be finite or -inf")
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"SNR of {value_db!r} dB exceeds the float range") from None


def linear_to_db(value: float) -> float:
    """Convert a linear SNR to dB (0 maps to -inf)."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"linear SNR must be finite and nonnegative, got {value!r}")
    if value == 0.0:
        return -math.inf
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class LinkConfig:
    """SNRs of the three links, normalized so that ``gamma2 >= gamma1``.

    ``swapped`` records whether :func:`make_config` exchanged the roles of
    the two terminals to obtain that ordering; consumers that report
    per-terminal quantities (for example the protocol simulator) undo the
    swap when labelling their output.
    """

    gamma0: float
    gamma1: float
    gamma2: float
    swapped: bool = False

    def __post_init__(self):
        for name in ("gamma0", "gamma1", "gamma2"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.gamma1 <= 0.0 or self.gamma2 <= 0.0:
            raise ValueError("terminal-relay SNRs must be strictly positive")
        if self.gamma0 < 0.0:
            raise ValueError("direct-link SNR must be nonnegative")
        if self.gamma2 < self.gamma1:
            raise AssumptionViolation(
                "links must be ordered weaker-first: gamma1 <= gamma2 "
                f"(got gamma1={self.gamma1!r}, gamma2={self.gamma2!r})"
            )
        if self.gamma0 >= self.gamma1:
            raise AssumptionViolation(
                "direct-link SNR must be strictly below both terminal-relay "
                f"SNRs (got gamma0={self.gamma0!r}, gamma1={self.gamma1!r})"
            )


def make_config(gamma0: float, gamma_a: float, gamma_c: float) -> LinkConfig:
    """Build a normalized :class:`LinkConfig` from per-terminal SNRs.

    ``gamma_a`` and ``gamma_c`` are the A-relay and C-relay SNRs in linear
    scale.  If A happens to have the stronger link the two terminals are
    relabelled so that ``gamma1 <= gamma2`` always holds, and the swap is
    recorded.  Applying ``make_config`` to an already normalized config
    returns an equal config (the normalization is idempotent).
    """
    for name, v in (("gamma0", gamma0), ("gamma_a", gamma_a), ("gamma_c", gamma_c)):
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{name} must be a finite number, got {v!r}")
    swapped = gamma_a > gamma_c
    g1, g2 = (gamma_c, gamma_a) if swapped else (gamma_a, gamma_c)
    return LinkConfig(
        gamma0=float(gamma0),
        gamma1=float(g1),
        gamma2=float(g2),
        swapped=swapped,
    )


@dataclass(frozen=True)
class RatePair:
    """Simultaneous rates of the two terminals, in bits per symbol."""

    rate_a: float
    rate_c: float


@dataclass(frozen=True)
class MaRegion:
    """Two-user Gaussian multiple-access capacity region toward the relay.

    The region is the pentagon ``{rate_a <= cap_a, rate_c <= cap_c,
    rate_a + rate_c <= cap_sum}``.  ``corner_la`` is the dominant-face
    corner where A is decoded last (A at full single-user rate), and
    ``corner_lc`` the one where C is decoded last.
    """

    cap_a: float
    cap_c: float
    cap_sum: float
    corner_la: RatePair
    corner_lc: RatePair


def ma_region(config: LinkConfig) -> MaRegion:
    """Multiple-access region of the two terminal-relay links."""
    g1, g2 = config.gamma1, config.gamma2
    cap_a = capacity(g1)
    cap_c = capacity(g2)
    cap_sum = _sum_capacity(g1, g2)
    # decoding order C-then-A: A sees a clean channel, C is decoded first
    # against A's interference (and vice versa for the other corner)
    corner_la = RatePair(rate_a=cap_a, rate_c=capacity(g2 / (1.0 + g1)))
    corner_lc = RatePair(rate_a=capacity(g1 / (1.0 + g2)), rate_c=cap_c)
    return MaRegion(
        cap_a=cap_a,
        cap_c=cap_c,
        cap_sum=cap_sum,
        corner_la=corner_la,
        corner_lc=corner_lc,
    )


def _check_share(name: str, value: float) -> None:
    """Check a time share (DF's ``theta``, JDF's ``lam``): a share of one
    unit source phase, so a finite number in [0, 1]."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _check_seed(seed, name: str = "seed") -> None:
    """Check a simulator seed: an integer in [0, 2**64), SplitMix64's state."""
    if isinstance(seed, bool) or not hasattr(type(seed), "__index__"):
        raise ValueError(f"{name} must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed!r}")
    if seed >= 2**64:
        raise ValueError(f"{name} must be below 2**64, got {seed!r}")
