"""Exact maxima of the DF and JDF rate rules, in rational arithmetic.

Each 1-D rule of :mod:`schemes` (``_df_two_way``, ``_jdf_two_way``) hands
:func:`schemes._broadcast_duration` two loads, the bits per source symbol
bound for C and for A (entries 0 and 1 of the rule's tuple), and divides an
affine function of the time share by that duration.  The duration has one
bend, where the two loads are equal, and is affine on either side of it.  A
ratio of affine functions with a positive denominator is monotone on an
interval, so the rule's maximum over [0, 1] lies at 0, at 1 or at the bend.
The loads are affine in the share, so one maximizer, :func:`_best`, finds
the bend from the rule's own loads at 0 and 1, for either rule.  The
oracles build the rule on the float capacities, each taken exactly as a
:class:`~fractions.Fraction`, evaluate it exactly at those three shares and
round the winning share and its rate once.  They assume nothing about which
candidate wins, so a closed form's balance argument is checked, not reused.

Free of numpy: ``twrelay verify`` and ``sweep --verify`` start without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import schemes
from .channel import LinkConfig, capacity, ma_region


@dataclass(frozen=True)
class GridResult:
    """Outcome of an oracle's maximization.

    ``best_param`` is the optimizing parameter: a float for the 1-D
    searches, an ``(rate_a, rate_c)`` pair for the region search.
    """

    best_param: object
    best_rate: float


def _best(rule: Callable) -> GridResult:
    """The largest rate, entry 3 of ``rule``'s tuple, at the shares 0, 1 and
    the bend gap0/(gap0 - gap1) where the loads' gap, entry 0 minus entry 1,
    is 0 (none where the gap is the same at both ends), if it lies in
    [0, 1]; the smallest share wins ties, and share and rate round once."""
    at0, at1 = rule(0), rule(1)
    gap0, gap1 = at0[0] - at0[1], at1[0] - at1[1]
    candidates = [(0, at0[3]), (1, at1[3])]
    if gap0 != gap1 and 0 <= (bend := gap0 / (gap0 - gap1)) <= 1:
        candidates.append((bend, rule(bend)[3]))
    share, rate = min(candidates, key=lambda c: (-c[1], c[0]))
    return GridResult(best_param=float(share), best_rate=float(rate))


def exact_max_df(config: LinkConfig) -> GridResult:
    """The DF rule's maximum over the time split theta, exactly, on the
    exact float capacities."""
    return _best(schemes._df_two_way(
        *(Fraction(capacity(g)) for g in (config.gamma0, config.gamma1, config.gamma2))))


def exact_max_jdf(config: LinkConfig) -> GridResult:
    """The JDF rule's maximum over the time share lam, exactly, on the
    exact multiple-access region."""
    return _best(schemes._jdf_two_way(ma_region(config), Fraction))
