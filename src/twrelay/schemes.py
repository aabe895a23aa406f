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
    LinkConfig, MaRegion, RatePair, _check_lam, _face_point, _sum_capacity, capacity, ma_region,
)


@dataclass(frozen=True)
class DfBreakdown:
    """Intermediate quantities of the three-step DF scheme.

    Packet sizes are normalized to a unit-length source phase (N = 1);
    the two-way rate does not depend on N.  ``size_dbc`` is the binned
    relay-to-C packet, ``size_dba`` the binned relay-to-A packet, both in
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

    amplification: float
    snr_a_to_c: float
    snr_c_to_a: float
    rate_pair: RatePair


@dataclass(frozen=True)
class JdfBreakdown:
    """Intermediate quantities of the two-step JDF scheme at one lambda."""

    lam: float
    rate_pair: RatePair
    lambda0: Optional[float]
    duration: float
    rate: float
    regime: str  # "crossing" or "saturated"


@dataclass(frozen=True)
class SchemeRate:
    """A scheme's best two-way rate with its optimizing parameter.

    ``rate`` always comes from the scheme's closed-form maximum; the
    attached ``breakdown`` re-derives the same value through the generic
    per-parameter rate function, so the two paths can be cross-checked.
    ``upper_bound`` marks rates that bound the scheme from above rather
    than being constructively achieved (only DNF).
    """

    scheme: str
    rate: float
    parameter: Optional[float] = None
    breakdown: object = None
    upper_bound: bool = False


def _check_theta(theta: float) -> None:
    if not (isinstance(theta, (int, float)) and math.isfinite(theta)):
        raise ValueError(f"theta must be a finite number, got {theta!r}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie strictly inside (0, 1), got {theta!r}")


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
    return rate_a, rate_c, duration, region.cap_sum / duration


def df_packet_sizes(config: LinkConfig, theta: float, n_symbols: float) -> tuple[float, float]:
    """Binned packet sizes (|D_BC|, |D_BA|) of the DF relay, in bits.

    During the first ``(1-theta)*N`` symbols A transmits at the A-relay
    capacity, during the next ``theta*N`` symbols C does likewise.  The
    relay re-bins each decoded packet against what the opposite terminal
    already overheard on the direct link, leaving

        |D_BC| = N*(1-theta)*(C(gamma1) - C(gamma0))
        |D_BA| = N*theta*(C(gamma2) - C(gamma0))
    """
    _check_theta(theta)
    if n_symbols <= 0:
        raise ValueError(f"n_symbols must be positive, got {n_symbols!r}")
    c0 = capacity(config.gamma0)
    size_dbc = n_symbols * (1.0 - theta) * (capacity(config.gamma1) - c0)
    size_dba = n_symbols * theta * (capacity(config.gamma2) - c0)
    return size_dbc, size_dba


def df_rate(config: LinkConfig, theta: float) -> DfBreakdown:
    """Two-way rate of the three-step DF scheme at a given time split.

    The source phases take one unit of time between them.  The broadcast
    phase sends the XOR of the (length-equalized) binned packets at the
    weaker-link rate; in the split case the excess of the longer C-bound
    packet goes out separately at the stronger-link rate.
    """
    _check_theta(theta)
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
    """``(rate, theta*)`` of :func:`df_max_rate` from the link capacities."""
    denominator = c1 * (c1 + c2 - 2.0 * c0)
    if denominator == 0.0:
        raise ValueError("DF optimum is undefined: C1*(C1+C2-2*C0) rounds to 0")
    delta = (c1 - c0) / denominator
    theta = (c1 - c0) / (c1 + c2 - 2.0 * c0)
    _check_theta(theta)
    return c1 * (1.0 + delta * (c2 - c1)) / (1.0 + delta * (c2 - c0)), theta


def _df_max_at(
    g0: float, g1: float, g2: float, c0: float, c1: float, c2: float
) -> tuple[float, float]:
    """:func:`_df_max` at the SNRs ``g0``, ``g1``, ``g2`` with capacities
    ``c0``, ``c1``, ``c2``.  Where C(g0) rounds to C(g1), theta* is formed
    from C1 - C0 = C((g1 - g0)/(1 + g0)) and C2 - C0 = C((g2 - g0)/(1 + g0)),
    and the rate formula gives C1."""
    if c0 != c1:
        return _df_max(c0, c1, c2)
    gap1 = capacity((g1 - g0) / (1.0 + g0))
    theta = gap1 / (gap1 + capacity((g2 - g0) / (1.0 + g0)))
    _check_theta(theta)
    return c1, theta


def df_theta_star(config: LinkConfig) -> float:
    """Optimal DF time split; equalizes the two binned packet sizes.  It is
    the parameter of :func:`df_max_rate`, and raises where that does."""
    return df_max_rate(config).parameter


def df_max_rate(config: LinkConfig) -> SchemeRate:
    """Maximal two-way DF rate, in closed form.

    With delta = (C(g1) - C(g0)) / (C(g1) * (C(g1) + C(g2) - 2*C(g0))):

        rate = C(g1) * (1 + delta*(C(g2) - C(g1))) / (1 + delta*(C(g2) - C(g0)))

    which equals ``df_rate(config, df_theta_star(config)).rate``.
    ValueError where the denominator of delta underflows to 0 (at
    subnormal SNRs).  Where C(g0) rounds to C(g1), theta* is formed from
    the SNRs (see :func:`_df_max_at`).
    """
    g0, g1, g2 = config.gamma0, config.gamma1, config.gamma2
    try:
        rate, theta = _df_max_at(g0, g1, g2, capacity(g0), capacity(g1), capacity(g2))
    except ValueError as exc:
        raise ValueError(
            f"{exc} at gamma0={config.gamma0!r}, gamma1={config.gamma1!r}, gamma2={config.gamma2!r}"
        ) from None
    return SchemeRate("DF", rate=rate, parameter=theta, breakdown=df_rate(config, theta))


def df_max_rate_no_direct(config: LinkConfig) -> SchemeRate:
    """Maximal DF rate when the direct link is ignored (gamma0 = 0).

        rate = 2*C(g1)*C(g2) / (C(g1) + 2*C(g2))

    Matches :func:`df_max_rate` on configs whose ``gamma0`` is zero.
    """
    c1 = capacity(config.gamma1)
    c2 = capacity(config.gamma2)
    rate = 2.0 * c1 * c2 / (c1 + 2.0 * c2)
    theta = c1 / (c1 + c2)  # theta_star at gamma0 = 0
    zeroed = replace(config, gamma0=0.0)
    return SchemeRate("DF", rate=rate, parameter=theta, breakdown=df_rate(zeroed, theta))


def _af_two_way(g1: float, g2: float) -> tuple[float, float, float, float, float]:
    """``(snr_a_to_c, snr_c_to_a, rate_a, rate_c, rate)`` of
    :func:`af_breakdown` and :func:`af_rate` from the link SNRs ``g1 <= g2``."""
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


def af_breakdown(config: LinkConfig) -> AfBreakdown:
    """Effective SNRs of amplify-and-forward relaying.

    The relay scales its received sum signal to unit average power with
    ``beta = 1/sqrt(gamma1 + gamma2 + 1)`` (unit noise power).
    After each terminal subtracts its own (known) contribution the
    end-to-end SNRs collapse to

        snr_a_to_c = g1*g2 / (g1 + 2*g2 + 1)
        snr_c_to_a = g1*g2 / (2*g1 + g2 + 1)
    """
    return af_rate(config).breakdown


def af_rate(config: LinkConfig) -> SchemeRate:
    """Maximal two-way AF rate: both directions complete in two steps.

    Each direction delivers N*C(snr) bits over the 2N symbols of the two
    steps, so the two-way rate is the plain average of the two capacities.
    """
    g1, g2 = config.gamma1, config.gamma2
    snr_a_to_c, snr_c_to_a, rate_a, rate_c, rate = _af_two_way(g1, g2)
    if math.isinf(g1 + g2 + 1.0):
        # the power sum divided by g2, where it overflows
        amplification = 1.0 / (math.sqrt(g2) * math.sqrt((g1 + 1.0) / g2 + 1.0))
    else:
        amplification = 1.0 / math.sqrt(g1 + g2 + 1.0)
    bd = AfBreakdown(
        amplification=amplification,
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
    denominator = 2.0 * capacity(low)
    if denominator == 0.0:
        raise ValueError(f"JDF balance point underflows at gamma1={g1!r}, gamma2={g2!r}")
    lam = capacity(high) / denominator
    # lam lies in [0, 1] whenever the crossing test passes; rounding can
    # push it an ulp past an endpoint, which downstream domain checks reject
    return min(1.0, max(0.0, lam))


def _jdf_max(g1: float, g2: float, c1: float) -> tuple[float, float]:
    """``(rate, lambda*)`` of :func:`jdf_max_rate` from the link SNRs and
    ``c1 = C(g1)``."""
    c12 = _sum_capacity(g1, g2)
    if _jdf_has_crossing(g1, g2):
        return c1 * 2.0 * c12 / (2.0 * c1 + c12), _jdf_balance(g1, g2)
    return c1, 1.0


def jdf_lambda0(config: LinkConfig) -> Optional[float]:
    """Time-share weight where the two uplink rates balance.

    At this point both terminals load ``C(gamma1 + gamma2) / 2``, so the
    relay's XOR packet covers the traffic in both directions with nothing
    left over.  Returns None when the balance point falls outside [0, 1],
    i.e. when ``gamma2 > gamma1 + gamma1**2`` (the A-favouring corner then
    still leaves the C-bound packet longer).

    ``(2*C2 - C12) / (2*(C1+C2-C12))`` is evaluated as
    ``C((g2-g1+g2**2)/(1+g1+g2)) / (2*C(g1*g2/(1+g1+g2)))``, whose terms do
    not cancel at low SNR; ValueError if even that denominator underflows.
    """
    if not _jdf_has_crossing(config.gamma1, config.gamma2):
        return None
    return _jdf_balance(config.gamma1, config.gamma2)


def jdf_rate(config: LinkConfig, lam: float) -> JdfBreakdown:
    """Two-way rate of the two-step JDF scheme at a given time share.

    Terminals load the multiple-access point ``ma_rate_pair(config, lam)``
    during a unit-length joint source phase.  The relay XORs the two
    decoded packets (padding the shorter one) and broadcasts at the
    weaker-link rate; when the A-bound packet is longer its excess goes
    out separately at the stronger-link rate.
    """
    _check_lam(lam)
    rate_a, rate_c, duration, rate = _jdf_two_way(ma_region(config), lam)
    return JdfBreakdown(
        lam=lam,
        rate_pair=RatePair(rate_a=rate_a, rate_c=rate_c),
        lambda0=jdf_lambda0(config),
        duration=duration,
        rate=rate,
        regime="crossing" if _jdf_has_crossing(config.gamma1, config.gamma2) else "saturated",
    )


def jdf_max_rate(config: LinkConfig) -> SchemeRate:
    """Maximal two-way JDF rate, in closed form.

    In the crossing regime (``gamma2 <= gamma1 + gamma1**2``) the optimum
    sits at ``lambda0`` where the two uplink loads balance:

        rate = C(g1) * 2*C(g1+g2) / (2*C(g1) + C(g1+g2))

    Otherwise the rate saturates at C(gamma1), reached at ``lam = 1``.
    """
    rate, lam = _jdf_max(config.gamma1, config.gamma2, capacity(config.gamma1))
    return SchemeRate("JDF", rate=rate, parameter=lam, breakdown=jdf_rate(config, lam))


def dnf_upper_bound(config: LinkConfig) -> SchemeRate:
    """Upper bound on the two-way DNF rate: the weaker-link capacity.

    Both steps take N symbols each and each direction can deliver at most
    N*C(gamma1) bits, so the two-way rate is bounded by C(gamma1).  The
    bound is tight at high SNR but not constructive, hence
    ``upper_bound=True``.
    """
    return SchemeRate(
        "DNF",
        rate=capacity(config.gamma1),
        parameter=None,
        breakdown=None,
        upper_bound=True,
    )


def dnf_rate_at(config: LinkConfig, rate_c: float) -> float:
    """Two-way DNF rate when the C-bound direction is loaded at ``rate_c``.

    For any ``rate_c`` in [C(gamma1), C(gamma2)] the A-bound direction runs
    at C(gamma1) and the two-way rate

        (C(g1) + rate_c) / (1 + rate_c / C(g1))

    collapses to C(gamma1) identically, so the whole interval attains the
    upper bound.
    """
    c1 = capacity(config.gamma1)
    c2 = capacity(config.gamma2)
    if not (c1 <= rate_c <= c2):
        raise ValueError(
            f"rate_c must lie in [C(gamma1), C(gamma2)] = [{c1!r}, {c2!r}], got {rate_c!r}"
        )
    return (c1 + rate_c) / (1.0 + rate_c / c1)


def dnf_codebook_cardinality(config: LinkConfig, n_symbols: float) -> float:
    """Conjectured relay codebook size for DNF, as a bit exponent.

    The relay is believed to need ``max(2**(N*R_A), 2**(N*R_C))`` denoised
    codewords when the directions carry R_A and R_C; this returns the
    exponent ``N * max(R_A, R_C)`` in bits to keep the number
    representable.  Both directions at their individual capacities gives
    ``N * C(gamma2)``.
    """
    if n_symbols <= 0:
        raise ValueError(f"n_symbols must be positive, got {n_symbols!r}")
    return n_symbols * max(capacity(config.gamma1), capacity(config.gamma2))
