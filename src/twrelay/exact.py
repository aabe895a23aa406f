"""Exact maxima of the DF and JDF rate rules, in rational arithmetic.

Each 1-D rule of :mod:`schemes` (``_df_two_way``, ``_jdf_two_way``) divides
an affine function of the time share by a broadcast duration that is affine
on either side of one breakpoint: where the two binned packets are equal
for DF (``size_dbc = size_dba``), where the two uplink loads are equal for
JDF (``rate_a = rate_c``).  A ratio of affine functions with a positive
denominator is monotone on an interval, so the rule's maximum over [0, 1]
lies at 0, at the breakpoint or at 1.  The oracles here build the rule on
the float capacities, each taken exactly as a :class:`~fractions.Fraction`,
evaluate it exactly at those three shares and round the winning share and
its rate once.  They assume nothing about which candidate wins, so a closed
form's balance argument is checked, not reused.

Free of numpy: ``twrelay verify`` and ``sweep --verify`` start without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import schemes
from .channel import LinkConfig, MaRegion, RatePair, capacity, ma_region


@dataclass(frozen=True)
class GridResult:
    """Outcome of an oracle's maximization.

    ``best_param`` is the optimizing parameter: a float for the 1-D
    searches, an ``(rate_a, rate_c)`` pair for the region search.
    """

    best_param: object
    best_rate: float


def _best(rule: Callable, breakpoint: Optional[Fraction]) -> GridResult:
    """The largest rate, entry 3 of ``rule``'s tuple, at the shares 0,
    ``breakpoint`` (where it lies in [0, 1]) and 1, in that order, the
    smallest share winning ties; share and rate rounded once."""
    shares = [0, 1] if breakpoint is None or not 0 <= breakpoint <= 1 else [0, breakpoint, 1]
    rates = [rule(share)[3] for share in shares]
    best = max(rates)
    return GridResult(best_param=float(shares[rates.index(best)]), best_rate=float(best))


def exact_max_df(config: LinkConfig) -> GridResult:
    """The DF rule's maximum over the time split theta, exactly: the rule
    on the exact float capacities at theta = 0, 1 and where
    ``size_dbc = (1 - theta)*(C1 - C0)`` meets ``size_dba = theta*(C2 - C0)``.
    Where both gaps are 0 the sizes never differ: no breakpoint."""
    c0, c1, c2 = (Fraction(capacity(g)) for g in (config.gamma0, config.gamma1, config.gamma2))
    gap1, gap2 = c1 - c0, c2 - c0
    breakpoint = gap1 / (gap1 + gap2) if gap1 + gap2 else None
    return _best(schemes._df_two_way(c0, c1, c2), breakpoint)


def _exact_pair(pair: RatePair) -> RatePair:
    return RatePair(rate_a=Fraction(pair.rate_a), rate_c=Fraction(pair.rate_c))


def _exact_region(config: LinkConfig) -> MaRegion:
    """The multiple-access region of ``config``, its float capacities
    taken exactly as Fractions."""
    region = ma_region(config)
    return MaRegion(cap_a=Fraction(region.cap_a), cap_c=Fraction(region.cap_c),
                    cap_sum=Fraction(region.cap_sum), corner_la=_exact_pair(region.corner_la),
                    corner_lc=_exact_pair(region.corner_lc))


def exact_max_jdf(config: LinkConfig) -> GridResult:
    """The JDF rule's maximum over the time share lam, exactly: the rule on
    the exact multiple-access region at lam = 0, 1 and where the loads
    ``rate_a`` and ``rate_c`` meet.  Their difference is affine in lam;
    where it is the same at both corners it never changes sign: no
    breakpoint."""
    region = _exact_region(config)
    lc, la = region.corner_lc, region.corner_la
    at0, at1 = lc.rate_a - lc.rate_c, la.rate_a - la.rate_c
    breakpoint = at0 / (at0 - at1) if at0 != at1 else None
    return _best(schemes._jdf_two_way(region), breakpoint)
