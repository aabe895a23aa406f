"""Achievable two-way rates of four relaying schemes.

Each scheme moves one data packet A->C and one C->A through the relay B and
is scored by its two-way rate: total delivered bits divided by the total
number of channel symbols spent, counting simultaneous transmissions once.

* DF: three-step decode-and-forward with network coding at the relay.  The
  relay re-bins both packets against the direct-link side information, XORs
  the binned packets (splitting or padding to equalize their lengths) and
  broadcasts at the rate of the weaker downlink.
* AF: two-step amplify-and-forward.  The relay scales and re-transmits the
  sum signal; each terminal cancels its own contribution.
* JDF: two-step joint decode-and-forward.  Both terminals transmit
  simultaneously at a point of the multiple-access region; the relay decodes
  both packets and broadcasts their XOR.
* DNF: denoise-and-forward, reported as its upper bound, the capacity of
  the weaker terminal-relay link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .channel import (
    LinkConfig, MaRegion, RatePair, _check_share, _face_point, _sum_capacity, capacity, ma_region,
)

# C1 - C0 below this share of C1 has lost 10 of its 53 bits to cancellation
_DF_GAP_SHARE = 2.0 ** -10
_NORMAL_MIN = 2.0 ** -1022  # smallest normal float, sys.float_info.min


@dataclass(frozen=True)
class DfBreakdown:
    """Intermediate quantities of the three-step DF scheme.

    Packet sizes are normalized to a unit-length source phase (N = 1);
    the two-way rate does not depend on N.  The relay re-bins each decoded
    packet against what the other terminal overheard on the direct link,
    leaving the relay-to-C packet ``size_dbc = (1-theta)*(C(g1) - C(g0))``
    and the relay-to-A packet ``size_dba = theta*(C(g2) - C(g0))``, both in
    bits.  ``case`` records how the relay equalized the two packets:
    ``"split-and-xor"`` when the C-bound packet is at least as long
    (its excess is sent separately at the stronger-link rate), otherwise
    ``"pad-and-xor"``.
    """

    theta: float
    size_dbc: float
    size_dba: float
    duration: float
    rate: float
    case: str


@dataclass(frozen=True)
class AfBreakdown:
    """Effective end-to-end SNRs of the two-step AF scheme."""

    snr_a_to_c: float
    snr_c_to_a: float
    rate_pair: RatePair


@dataclass(frozen=True)
class JdfBreakdown:
    """Intermediate quantities of the two-step JDF scheme at one lambda.

    ``duration`` is inf where the XOR broadcast's ``rate_c / C(g1)``
    symbols overflow, which takes C(g1) subnormal and C(g2) far above it;
    ``rate`` is finite there.
    """

    lam: float
    rate_pair: RatePair
    duration: float
    rate: float
    regime: str  # "crossing" or "saturated"


@dataclass(frozen=True)
class SchemeRate:
    """A scheme's best two-way rate with its optimizing parameter.

    ``rate`` always comes from the scheme's closed-form maximum; the
    attached ``breakdown`` re-derives the same value through the generic
    per-parameter rate function, so the two paths can be cross-checked.
    """

    scheme: str
    rate: float
    parameter: Optional[float] = None
    breakdown: object = None


def _broadcast_duration(to_c, to_a, c1: float, c2: float):
    """Symbols spent per unit source phase when the relay must deliver
    ``to_c`` bits per source symbol to C and ``to_a`` to A: the XOR at the
    weaker-link rate ``c1``, any excess of ``to_c`` at the stronger ``c2``,

        1 + to_a/c1 + max(to_c - to_a, 0)/c2

    for Python floats or numpy arrays."""
    # max(to_c - to_a, 0) as plain float arithmetic for scalars (the oracles
    # call this per grid point) and elementwise for arrays; a negative
    # excess times False is -0.0, which leaves the sum exact
    excess = (to_c - to_a) * (to_c > to_a)
    return 1.0 + to_a / c1 + excess / c2


# The two rate rules below take per-config capacities (Python floats) and
# apply only + - * / to the parameter, so an array of parameters gives,
# elementwise, exactly the floats that one call per parameter gives.  The
# breakdown functions and the oracles' grid scans share them.


def _df_two_way(c0: float, c1: float, c2: float, theta):
    """DF at time split ``theta`` from the link capacities ``c0``, ``c1``,
    ``c2``: ``(size_dbc, size_dba, duration, rate)`` for a unit-length
    source phase, for a Python float or elementwise for a numpy array."""
    size_dbc = (1.0 - theta) * (c1 - c0)
    size_dba = theta * (c2 - c0)
    duration = _broadcast_duration(size_dbc, size_dba, c1, c2)
    delivered = (1.0 - theta) * c1 + theta * c2  # source-phase bits, N = 1
    return size_dbc, size_dba, duration, delivered / duration


def _jdf_two_way(region: MaRegion, lam):
    """JDF at time share ``lam`` on the dominant face of ``region``:
    ``(rate_a, rate_c, duration, rate)``, for a Python float or elementwise
    for a numpy array."""
    rate_a, rate_c = _face_point(region, lam)
    duration = _broadcast_duration(rate_a, rate_c, region.cap_a, region.cap_c)
    # rate_a + rate_c == cap_sum on the dominant face
    if region.cap_sum / region.cap_a < math.inf:
        # not the scaled form below: it rounds the golden *_verify.csv deviations apart
        return rate_a, rate_c, duration, region.cap_sum / duration
    # C1 subnormal and C2 not: rate_c/C1 overflows, and the duration with
    # it, so the rate runs on C1 times the duration and is scaled by C1
    c1 = region.cap_a
    excess = (rate_a - rate_c) * (rate_a > rate_c)
    scaled = c1 + rate_c + excess * (c1 / region.cap_c)
    return rate_a, rate_c, duration, c1 * (region.cap_sum / scaled)


def df_rate(config: LinkConfig, theta: float) -> DfBreakdown:
    """Two-way rate of the three-step DF scheme at a given time split.

    The source phases take one unit of time between them, C's share
    ``theta`` in [0, 1] and A's the rest.  The broadcast
    phase sends the XOR of the (length-equalized) binned packets at the
    weaker-link rate; in the split case the excess of the longer C-bound
    packet goes out separately at the stronger-link rate.
    """
    _check_share("theta", theta)
    size_dbc, size_dba, duration, rate = _df_two_way(
        capacity(config.gamma0), capacity(config.gamma1), capacity(config.gamma2), theta
    )
    return DfBreakdown(
        theta=theta,
        size_dbc=size_dbc,
        size_dba=size_dba,
        duration=duration,
        rate=rate,
        case="split-and-xor" if size_dbc >= size_dba else "pad-and-xor",
    )


def _df_max(c0: float, c1: float, c2: float) -> tuple[float, float]:
    """``(rate, theta*)`` of :func:`df_max_rate` from the link capacities
    ``c0 < c1 <= c2``."""
    theta = (c1 - c0) / (c1 + c2 - 2.0 * c0)
    denominator = c1 * (c1 + c2 - 2.0 * c0)
    if denominator < _NORMAL_MIN:
        # below about -1540 dB the product is subnormal or 0: the formula
        # on C0/C1 and C2/C1, scaled by C1.  delta*(C2 - C1) = theta*(C2/C1 - 1)
        # is formed as (1 - C0/C1)*(C2 - C1)/s, which stays below 1 where
        # C2/C1 itself overflows; likewise delta*(C2 - C0)
        share, s = (c1 - c0) / c1, c1 + c2 - 2.0 * c0
        return c1 * ((1.0 + share * ((c2 - c1) / s)) / (1.0 + share * ((c2 - c0) / s))), theta
    delta = (c1 - c0) / denominator
    return c1 * (1.0 + delta * (c2 - c1)) / (1.0 + delta * (c2 - c0)), theta


def _df_max_at(
    g0: float, g1: float, g2: float, c0: float, c1: float, c2: float
) -> tuple[float, float]:
    """:func:`_df_max` at the SNRs ``g0``, ``g1``, ``g2`` with capacities
    ``c0``, ``c1``, ``c2``.  Where C1 - C0 cancels (below ``_DF_GAP_SHARE``
    of C1), theta* is formed from C1 - C0 = C((g1 - g0)/(1 + g0)) and
    C2 - C0 = C((g2 - g0)/(1 + g0)); where C(g0) rounds to C(g1) the rate
    formula gives C1."""
    if c1 - c0 >= _DF_GAP_SHARE * c1:
        return _df_max(c0, c1, c2)
    gap1 = capacity((g1 - g0) / (1.0 + g0))
    theta = gap1 / (gap1 + capacity((g2 - g0) / (1.0 + g0)))
    return (c1 if c0 == c1 else _df_max(c0, c1, c2)[0]), theta


def df_max_rate(config: LinkConfig) -> SchemeRate:
    """Maximal two-way DF rate, in closed form.

    With delta = (C(g1) - C(g0)) / (C(g1) * (C(g1) + C(g2) - 2*C(g0))):

        rate = C(g1) * (1 + delta*(C(g2) - C(g1))) / (1 + delta*(C(g2) - C(g0)))

    which equals ``df_rate(config, theta*).rate``.  Its parameter theta*
    equalizes the two binned packet sizes; below the smallest subnormal it
    rounds to 0, an end of its domain [0, 1].
    Where the denominator of delta leaves the normal float range (below
    about -1540 dB), the formula runs on C(g0)/C(g1) and C(g2)/C(g1) and
    is scaled by C(g1).  Where C(g0) is close to C(g1), theta* is formed
    from the SNRs (see :func:`_df_max_at`).
    """
    g0, g1, g2 = config.gamma0, config.gamma1, config.gamma2
    rate, theta = _df_max_at(g0, g1, g2, capacity(g0), capacity(g1), capacity(g2))
    return SchemeRate("DF", rate=rate, parameter=theta, breakdown=df_rate(config, theta))


def df_max_rate_no_direct(config: LinkConfig) -> SchemeRate:
    """Maximal DF rate when the direct link is ignored (gamma0 = 0).

        rate = 2*C(g1)*C(g2) / (C(g1) + 2*C(g2))

    Matches :func:`df_max_rate` on configs whose ``gamma0`` is zero.  The
    rate is formed as ``2*C(g1) / (C(g1)/C(g2) + 2)``: with
    ``C(g1)/C(g2) <= 1`` it lies in [2/3, 1] times C(g1), so no step
    overflows or underflows anywhere in the float range.
    """
    c1 = capacity(config.gamma1)
    c2 = capacity(config.gamma2)
    rate = 2.0 * c1 / (c1 / c2 + 2.0)
    theta = c1 / (c1 + c2)  # theta_star at gamma0 = 0
    zeroed = replace(config, gamma0=0.0)
    return SchemeRate("DF", rate=rate, parameter=theta, breakdown=df_rate(zeroed, theta))


def _af_two_way(g1: float, g2: float) -> tuple[float, float, float, float, float]:
    """``(snr_a_to_c, snr_c_to_a, rate_a, rate_c, rate)`` of :func:`af_rate`
    from the link SNRs ``g1 <= g2``."""
    product = g1 * g2
    if math.isinf(product) or math.isinf(g1 + 2.0 * g2 + 1.0):
        # num and den divided by g2, the larger SNR: no term overflows
        snr_a_to_c = g1 / ((g1 + 1.0) / g2 + 2.0)
        # 2*g1 itself overflows above about 3079.5 dB, where the 1 is lost anyway
        scaled = (2.0 * g1 + 1.0) / g2 if 2.0 * g1 < math.inf else 2.0 * (g1 / g2)
        snr_c_to_a = g1 / (scaled + 1.0)
    else:
        snr_a_to_c = product / (g1 + 2.0 * g2 + 1.0)
        snr_c_to_a = product / (2.0 * g1 + g2 + 1.0)
    rate_a, rate_c = capacity(snr_a_to_c), capacity(snr_c_to_a)
    return snr_a_to_c, snr_c_to_a, rate_a, rate_c, 0.5 * (rate_a + rate_c)


def af_rate(config: LinkConfig) -> SchemeRate:
    """Maximal two-way AF rate: both directions complete in two steps.

    The relay scales its received sum signal to unit average power with
    ``beta = 1/sqrt(gamma1 + gamma2 + 1)`` (unit noise power).  After each
    terminal subtracts its own (known) contribution, the end-to-end SNRs in
    the :class:`AfBreakdown` collapse to

        snr_a_to_c = g1*g2 / (g1 + 2*g2 + 1)
        snr_c_to_a = g1*g2 / (2*g1 + g2 + 1)

    Each direction delivers N*C(snr) bits over the 2N symbols of the two
    steps, so the two-way rate is the plain average of the two capacities.
    """
    snr_a_to_c, snr_c_to_a, rate_a, rate_c, rate = _af_two_way(config.gamma1, config.gamma2)
    bd = AfBreakdown(
        snr_a_to_c=snr_a_to_c,
        snr_c_to_a=snr_c_to_a,
        rate_pair=RatePair(rate_a=rate_a, rate_c=rate_c),
    )
    return SchemeRate("AF", rate=rate, parameter=None, breakdown=bd)


def _jdf_has_crossing(g1: float, g2: float) -> bool:
    """Whether ``g2 <= g1 + g1*g1``, the bound in float arithmetic.

    rate_c(lam) meets C(g1) inside [0, 1] iff it holds; beyond that even
    the A-favouring corner keeps rate_c above C(g1).  A float product
    overflows to inf where ``g1 ** 2`` would raise, and the bound rounds
    the way the quadratic sweep rule builds gamma2, so those configs test
    as crossing; within that rounding of the exact bound the two regimes'
    rates agree up to rounding.
    """
    return g2 <= g1 + g1 * g1


def _jdf_balance(g1: float, g2: float) -> float:
    # (2*C2 - C12) / (2*(C1+C2-C12)) in a form whose terms do not cancel
    if math.isinf(g2 * g2):
        # num and den divided by g2, where g2**2 (and so g1*g2) overflows
        scaled_total = (1.0 + g1) / g2 + 1.0
        low, high = g1 / scaled_total, (1.0 - g1 / g2 + g2) / scaled_total
    else:
        total = 1.0 + g1 + g2
        low, high = g1 * g2 / total, (g2 - g1 + g2 * g2) / total
    if low < _NORMAL_MIN:
        # below about -1540 dB g1*g2 is subnormal or 0.  The crossing test
        # leaves g2 - g1 <= g1*g1 there, so high is as small and C(x) = x/ln2
        # for both: high/(2*low), num and den divided by g1*g2
        lam = ((g2 - g1) / g2 + g2) / (2.0 * g1)
    else:
        lam = capacity(high) / (2.0 * capacity(low))
    # lam lies in [0, 1] whenever the crossing test passes; rounding can
    # push it an ulp past an endpoint, which downstream domain checks reject
    return min(1.0, max(0.0, lam))


def _jdf_max(g1: float, g2: float, c1: float) -> tuple[float, float]:
    """``(rate, lambda*)`` of :func:`jdf_max_rate` from the link SNRs and
    ``c1 = C(g1)``."""
    c12 = _sum_capacity(g1, g2)
    if not _jdf_has_crossing(g1, g2):
        return c1, 1.0
    numerator = c1 * 2.0 * c12
    if numerator < _NORMAL_MIN:
        # below about -1545 dB the product is subnormal or 0: the formula on
        # C12/C1, scaled by C1
        share = c12 / c1
        rate = c1 * (2.0 * share / (2.0 + share))
    else:
        rate = numerator / (2.0 * c1 + c12)
    return rate, _jdf_balance(g1, g2)


def jdf_rate(config: LinkConfig, lam: float) -> JdfBreakdown:
    """Two-way rate of the two-step JDF scheme at a given time share.

    Terminals load the dominant-face point at share ``lam`` (the
    breakdown's ``rate_pair``) during a unit-length joint source phase.
    The relay XORs the two decoded packets (padding the shorter one) and
    broadcasts at the weaker-link rate; when the A-bound packet is longer
    its excess goes out separately at the stronger-link rate.
    """
    _check_share("lam", lam)
    rate_a, rate_c, duration, rate = _jdf_two_way(ma_region(config), lam)
    return JdfBreakdown(
        lam=lam,
        rate_pair=RatePair(rate_a=rate_a, rate_c=rate_c),
        duration=duration,
        rate=rate,
        regime="crossing" if _jdf_has_crossing(config.gamma1, config.gamma2) else "saturated",
    )


def jdf_max_rate(config: LinkConfig) -> SchemeRate:
    """Maximal two-way JDF rate, in closed form.

    In the crossing regime (``gamma2 <= gamma1 + gamma1**2``) the optimum
    sits at ``lambda0``, returned as ``parameter``, where the two uplink
    loads balance:

        rate = C(g1) * 2*C(g1+g2) / (2*C(g1) + C(g1+g2))

    Otherwise the rate saturates at C(gamma1), reached at ``lam = 1``.
    Where the numerator leaves the normal float range (below about
    -1545 dB), the formula runs on C(g1+g2)/C(g1) and is scaled by C(g1).
    """
    rate, lam = _jdf_max(config.gamma1, config.gamma2, capacity(config.gamma1))
    return SchemeRate("JDF", rate=rate, parameter=lam, breakdown=jdf_rate(config, lam))


def dnf_upper_bound(config: LinkConfig) -> SchemeRate:
    """Upper bound on the two-way DNF rate: the weaker-link capacity.

    Both steps take N symbols each and each direction can deliver at most
    N*C(gamma1) bits, so the two-way rate is bounded by C(gamma1).  The
    bound is tight at high SNR but not constructive.
    """
    return SchemeRate("DNF", rate=capacity(config.gamma1))
