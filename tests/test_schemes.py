"""Closed-form scheme rates.

Expected values were frozen from the brute-force oracles (grid searches
over theta / lambda / the whole multiple-access region), not from the
formulas under test.
"""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twrelay import oracle, schemes
from twrelay.channel import capacity, db_to_linear, linear_to_db, ma_region, make_config
from twrelay.sweep import VERIFY_TOLERANCE

snr = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False)
frac = st.floats(min_value=0.0, max_value=0.9)


def config_from(g1, g2, g0_frac=0.0):
    g1, g2 = sorted((g1, g2))
    return make_config(g0_frac * g1, g1, g2)


# ---------------------------------------------------------------- DF


@pytest.mark.parametrize("theta", [-0.25, -5e-324, 1.0000000000000002, 1.25, math.nan])
def test_df_theta_domain(theta):
    with pytest.raises(ValueError):
        schemes.df_rate(make_config(0.0, 1.0, 1.0), theta)


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_df_rate_at_the_ends_of_its_domain(theta):
    # one source packet is empty: one bit a symbol one way, then its broadcast
    result = schemes.df_rate(make_config(0.0, 1.0, 1.0), theta)
    assert result.rate == 0.5 and result.duration == 2.0
    assert (result.size_dbc, result.size_dba) == (1.0 - theta, theta)


def test_df_rate_worked_examples():
    cfg = make_config(0.1, 1.0, 1.0)
    low = schemes.df_rate(cfg, 0.25)
    assert low.case == "split-and-xor"
    assert math.isclose(low.rate, 0.6072116006050117, rel_tol=1e-12)
    assert low.size_dbc >= low.size_dba

    high = schemes.df_rate(cfg, 0.75)
    assert high.case == "pad-and-xor"
    assert math.isclose(high.rate, 0.6072116006050117, rel_tol=1e-12)
    assert high.size_dbc < high.size_dba

    # no direct link, symmetric links, balanced split
    mid = schemes.df_rate(make_config(0.0, 1.0, 1.0), 0.5)
    assert math.isclose(mid.rate, 2.0 / 3.0, rel_tol=1e-15)


def test_df_packet_sizes_worked_examples():
    # packet sizes per unit source phase at theta = 0.5: the direct link
    # shrinks both, a stronger C link lengthens the A-bound one
    mid = schemes.df_rate(make_config(0.0, 1.0, 1.0), 0.5)
    assert (mid.size_dbc, mid.size_dba) == (0.5, 0.5)

    direct = schemes.df_rate(make_config(0.1, 1.0, 1.0), 0.5)
    assert math.isclose(direct.size_dbc, 0.4312482381250326, rel_tol=1e-12)
    assert math.isclose(direct.size_dba, 0.4312482381250326, rel_tol=1e-12)

    strong = schemes.df_rate(make_config(0.0, 1.0, 3.0), 0.5)
    assert math.isclose(strong.size_dbc, 0.5, rel_tol=1e-12)
    assert math.isclose(strong.size_dba, 1.0, rel_tol=1e-12)


def test_df_theta_star_values():
    assert schemes.df_max_rate(make_config(0.0, 1.0, 1.0)).parameter == 0.5
    assert schemes.df_max_rate(make_config(0.1, 1.0, 1.0)).parameter == 0.5
    assert math.isclose(
        schemes.df_max_rate(make_config(0.0, 1.0, 3.0)).parameter, 1.0 / 3.0, rel_tol=1e-15
    )
    # C(gamma0) rounds to C(gamma1): theta* is df_max_rate's, inside (0, 1)
    assert schemes.df_max_rate(make_config(math.nextafter(1.0, 0.0), 1.0, 1.0)).parameter == 0.5
    cfg = make_config(0.9999999999999999 * 1000.0, 1000.0, 2000.0)
    best = schemes.df_max_rate(cfg)
    theta = best.parameter
    assert theta == best.breakdown.theta and 0.0 < theta < 1e-15
    assert schemes.df_rate(cfg, theta).rate == best.rate


def test_df_theta_star_equalizes_packets():
    for cfg in [make_config(0.1, 1.0, 3.0), make_config(0.0, 0.5, 7.0)]:
        theta = schemes.df_max_rate(cfg).parameter
        best = schemes.df_rate(cfg, theta)
        assert math.isclose(best.size_dbc, best.size_dba, rel_tol=1e-12)


def test_df_max_rate_worked_examples():
    assert math.isclose(
        schemes.df_max_rate(make_config(0.0, 1.0, 1.0)).rate, 2.0 / 3.0, rel_tol=1e-15
    )
    assert math.isclose(
        schemes.df_max_rate(make_config(0.1, 1.0, 1.0)).rate,
        0.6986908164233079,
        rel_tol=1e-12,
    )
    assert math.isclose(
        schemes.df_max_rate(make_config(0.0, 1.0, 3.0)).rate, 0.8, rel_tol=1e-15
    )
    assert math.isclose(
        schemes.df_max_rate(make_config(0.1, 1.0, 3.0)).rate,
        0.8282536921884629,
        rel_tol=1e-12,
    )


@given(snr, snr, frac)
@settings(max_examples=200)
def test_df_closed_form_matches_rate_at_theta_star(g1, g2, g0_frac):
    cfg = config_from(g1, g2, g0_frac)
    best = schemes.df_max_rate(cfg)
    assert math.isclose(best.rate, best.breakdown.rate, rel_tol=1e-12)
    assert best.breakdown.theta == best.parameter


@given(snr, snr, frac)
def test_df_stays_below_weaker_capacity(g1, g2, g0_frac):
    cfg = config_from(g1, g2, g0_frac)
    assert schemes.df_max_rate(cfg).rate < capacity(cfg.gamma1)


def test_df_rate_unimodal_with_peak_at_theta_star():
    cfg = make_config(0.1, 1.0, 3.0)
    star = schemes.df_max_rate(cfg).parameter
    thetas = np.linspace(0.0, 1.0, 1002)[1:-1]
    rates = np.array([schemes.df_rate(cfg, float(t)).rate for t in thetas])
    rising = thetas <= star
    assert np.all(np.diff(rates[rising]) >= -1e-12)
    assert np.all(np.diff(rates[~rising]) <= 1e-12)
    peak = thetas[int(np.argmax(rates))]
    assert abs(peak - star) <= thetas[1] - thetas[0]


def test_df_no_direct_worked_examples():
    assert math.isclose(
        schemes.df_max_rate_no_direct(make_config(0.0, 1.0, 1.0)).rate,
        2.0 / 3.0,
        rel_tol=1e-15,
    )
    assert math.isclose(
        schemes.df_max_rate_no_direct(make_config(0.0, 1.0, 3.0)).rate,
        0.8,
        rel_tol=1e-15,
    )


@given(snr, snr)
@settings(max_examples=200)
def test_df_no_direct_agrees_with_general_form(g1, g2):
    cfg = config_from(g1, g2)
    general = schemes.df_max_rate(cfg).rate
    reduced = schemes.df_max_rate_no_direct(cfg).rate
    assert math.isclose(general, reduced, rel_tol=1e-12)


@given(snr)
def test_df_symmetric_no_direct_is_two_thirds_capacity(g):
    cfg = make_config(0.0, g, g)
    assert math.isclose(
        schemes.df_max_rate(cfg).rate, 2.0 * capacity(g) / 3.0, rel_tol=1e-12
    )


def test_df_ignores_direct_link_for_no_direct_variant():
    # the reduction must zero out gamma0 even when the config carries one
    cfg = make_config(0.2, 1.0, 3.0)
    assert schemes.df_max_rate_no_direct(cfg).breakdown.size_dbc > 0
    assert math.isclose(
        schemes.df_max_rate_no_direct(cfg).rate,
        schemes.df_max_rate(make_config(0.0, 1.0, 3.0)).rate,
        rel_tol=1e-15,
    )


# ---------------------------------------------------------------- AF


def test_af_worked_examples():
    bd = schemes.af_rate(make_config(0.0, 1.0, 1.0)).breakdown
    assert bd.snr_a_to_c == 0.25
    assert bd.snr_c_to_a == 0.25
    assert math.isclose(
        schemes.af_rate(make_config(0.0, 1.0, 1.0)).rate,
        0.32192809488736235,
        rel_tol=1e-15,
    )

    bd = schemes.af_rate(make_config(0.0, 1.0, 3.0)).breakdown
    assert bd.snr_a_to_c == 0.375
    assert bd.snr_c_to_a == 0.5
    assert math.isclose(
        schemes.af_rate(make_config(0.0, 1.0, 3.0)).rate,
        0.5221970596792267,
        rel_tol=1e-12,
    )


@given(snr, snr)
def test_af_effective_snrs_are_degraded(g1, g2):
    cfg = config_from(g1, g2)
    bd = schemes.af_rate(cfg).breakdown
    # noise amplification: both end-to-end SNRs fall below the weaker link
    assert 0.0 < bd.snr_a_to_c < cfg.gamma1
    assert 0.0 < bd.snr_c_to_a < cfg.gamma1
    # the stronger second hop favours the C-bound direction
    assert bd.snr_a_to_c <= bd.snr_c_to_a + 1e-15


@given(snr, snr)
def test_af_snrs_keep_their_bits_where_nothing_overflows(g1, g2):
    cfg = config_from(g1, g2)
    g1, g2 = cfg.gamma1, cfg.gamma2
    bd = schemes.af_rate(cfg).breakdown
    assert bd.snr_a_to_c == g1 * g2 / (g1 + 2.0 * g2 + 1.0)
    assert bd.snr_c_to_a == g1 * g2 / (2.0 * g1 + g2 + 1.0)


@pytest.mark.parametrize("g1, g2", [
    (1e155, 1e155), (1e160, 3e160), (2.0, 1.7e308), (1e-10, 1e308),
    # 2*g1 and g1 + g2 overflow as well
    (1e308, 1e308), (1.5e308, 1.7976931348623157e308),
])
def test_af_where_gamma1_gamma2_or_its_denominator_overflows(g1, g2):
    x, y = Fraction(g1), Fraction(g2)
    exact = (x * y / (x + 2 * y + 1), x * y / (2 * x + y + 1))
    best = schemes.af_rate(make_config(0.0, g1, g2))
    bd = best.breakdown
    for got, want in zip((bd.snr_a_to_c, bd.snr_c_to_a), exact):
        assert abs(Fraction(got) - want) <= 1e-12 * want
    assert best.rate == 0.5 * (capacity(bd.snr_a_to_c) + capacity(bd.snr_c_to_a))
    if g1 == g2:
        assert bd.snr_a_to_c == bd.snr_c_to_a


@pytest.mark.parametrize("g1, g2", [
    (1e300, 1e300), (1.0, 1.7976931348623157e308),  # the sum stays finite
    (1e308, 1e308), (1e308, 1.7976931348623157e308),
])
def test_sum_capacity_near_the_float_limit(g1, g2):
    total = 1 + Fraction(g1) + Fraction(g2)
    exact = math.log2(total.numerator) - math.log2(total.denominator)
    cfg = make_config(0.0, g1, g2)
    assert math.isclose(ma_region(cfg).cap_sum, exact, rel_tol=1e-15)
    best = schemes.jdf_max_rate(cfg)
    oracle_rate = oracle.grid_max_jdf_lambda(cfg).best_rate
    assert abs(oracle_rate - best.rate) <= VERIFY_TOLERANCE * best.rate


def test_broadcast_duration_scalars_and_arrays():
    # split: the excess of the C-bound load goes out at the stronger rate
    assert schemes._broadcast_duration(3.0, 1.0, 1.0, 4.0) == 1.0 + 1.0 + 0.5
    # pad: the XOR is as long as the A-bound load
    assert schemes._broadcast_duration(1.0, 3.0, 1.0, 4.0) == 4.0
    assert type(schemes._broadcast_duration(3.0, 1.0, 1.0, 4.0)) is float
    to_c = np.linspace(0.0, 2.0, 9)[:, None]
    to_a = np.linspace(0.0, 2.0, 7)[None, :]
    grid = schemes._broadcast_duration(to_c, to_a, 1.5, 2.5)
    assert grid.shape == (9, 7)
    for i, c in enumerate(to_c[:, 0]):
        for j, a in enumerate(to_a[0]):
            assert grid[i, j] == schemes._broadcast_duration(float(c), float(a), 1.5, 2.5)


# ---------------------------------------------------------------- JDF


def test_jdf_lambda0_values():
    assert schemes.jdf_max_rate(make_config(0.0, 1.0, 1.0)).parameter == 0.5
    assert math.isclose(
        schemes.jdf_max_rate(make_config(0.0, 1.0, 1.5)).parameter,
        0.8128108030943434,
        rel_tol=1e-12,
    )
    # raw crossing ~1.2374 falls outside [0, 1]
    assert schemes.jdf_max_rate(make_config(0.0, 1.0, 3.0)).breakdown.regime == "saturated"


def test_jdf_lambda0_at_very_low_snr():
    # 2*(C1 + C2 - C12) cancels to 0.0 here when formed from capacities
    for db in (-160.0, -170.0, -300.0):
        g = 10.0 ** (db / 10.0)
        assert schemes.jdf_max_rate(make_config(0.0, g, g)).parameter == 0.5
    # gamma1 * gamma2 is subnormal or 0: the balance point is formed from
    # the ratio of the two SNRs whose capacities it divides
    for g in (1e-160, 1e-170, 1e-320, 5e-324):
        assert schemes.jdf_max_rate(make_config(0.0, g, g)).parameter == 0.5


def test_df_max_rate_where_its_denominator_rounds_to_zero():
    # c1 * (c1 + c2) underflows to 0.0 at -3200 dB; the ratio form gives
    # the no-direct-link value 2*C(g)/3 for equal links, to a subnormal ulp
    g = 1e-320
    best = schemes.df_max_rate(make_config(0.0, g, g))
    assert best.parameter == 0.5
    assert best.rate == pytest.approx(2.0 * capacity(g) / 3.0, rel=0.0, abs=5e-324)
    # C(gamma0) rounds to C(1.0) = 1, so c1 + c2 - 2*c0 cancels to 0.0;
    # theta* is then formed from the SNRs
    cfg = make_config(math.nextafter(1.0, 0.0), 1.0, 1.0)
    best = schemes.df_max_rate(cfg)
    assert best.parameter == 0.5
    oracle_rate = oracle.grid_max_df_theta(cfg).best_rate
    assert abs(best.rate - oracle_rate) <= VERIFY_TOLERANCE * oracle_rate


@pytest.mark.parametrize("gamma1_db, ratio", [(-1620.0, 2.5), (-1599.0, 2.5), (-3000.0, 1.0)])
def test_df_max_rate_where_its_denominator_is_subnormal(gamma1_db, ratio):
    # below about -1540 dB c1 * (c1 + c2 - 2*c0) is subnormal and loses
    # digits; at -1620 dB the plain formula read 4.85% below the oracle
    g1 = db_to_linear(gamma1_db)
    cfg = make_config(0.0, g1, ratio * g1)
    best = schemes.df_max_rate(cfg)
    brute = oracle.grid_max_df_theta(cfg).best_rate
    assert abs(best.rate - brute) <= VERIFY_TOLERANCE * brute


@pytest.mark.parametrize("gamma1_db", [-3100.0, -3080.0])
def test_df_max_rate_where_c2_over_c1_overflows(gamma1_db):
    # C1 is subnormal and C2 = C(1000): C2/C1 is inf while theta* is a
    # nonzero subnormal, so a formula on C2/C1 gave inf/inf = NaN
    cfg = make_config(0.0, db_to_linear(gamma1_db), db_to_linear(30.0))
    best = schemes.df_max_rate(cfg)
    assert math.isfinite(best.rate) and 0.0 < best.parameter < 1e-300
    brute = oracle.grid_max_df_theta(cfg).best_rate
    assert abs(best.rate - brute) <= VERIFY_TOLERANCE * brute


def _decimal_df_theta(g0, g1, g2):
    """DF's theta* = (C1 - C0)/(C1 + C2 - 2*C0) at 60 digits from the float
    SNRs (ln 2 cancels), for SNRs whose 1 + g is exact at that precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        c0, c1, c2 = ((1 + Decimal(g)).ln() for g in (g0, g1, g2))
        return float((c1 - c0) / (c1 + c2 - 2 * c0))


def test_df_theta_star_where_c_gamma0_nearly_cancels_c_gamma1():
    # at 250 dB C1 - C0 is a few ulps of C1; the plain difference gave 1.075e-14
    g1 = db_to_linear(250.0)
    cfg = make_config(0.9999999999999976 * g1, g1, 2.5 * g1)
    theta = schemes.df_max_rate(cfg).parameter
    want = _decimal_df_theta(cfg.gamma0, cfg.gamma1, cfg.gamma2)
    assert want == pytest.approx(2.578037658384199e-15, rel=1e-15, abs=0.0)
    assert abs(theta - want) <= 1e-12 * want


@given(st.floats(min_value=1e-3, max_value=1e300), st.integers(1, 52),
       st.floats(min_value=1.0, max_value=10.0))
@settings(max_examples=200)
def test_df_theta_star_matches_high_precision(g1, k, ratio):
    # gamma0 = (1 - 2**-k) * gamma1 runs C0 from well below C1 up to equal to it
    cfg = make_config((1.0 - 2.0**-k) * g1, g1, ratio * g1)
    want = _decimal_df_theta(cfg.gamma0, cfg.gamma1, cfg.gamma2)
    assert abs(schemes.df_max_rate(cfg).parameter - want) <= 1e-12 * want


@given(snr, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200)
def test_jdf_lambda0_balances_uplinks(g1, shrink):
    # any gamma2 in [gamma1, gamma1 + gamma1^2] keeps the balance point inside [0, 1]
    g2 = g1 + shrink * g1 * g1
    cfg = make_config(0.0, g1, g2)
    best = schemes.jdf_max_rate(cfg)
    lam0 = best.parameter
    assert best.breakdown.regime == "crossing" and 0.0 <= lam0 <= 1.0
    # at lam0 the terminals split the sum capacity evenly, so the relay's
    # XOR packet covers both directions with no leftover
    pair = schemes.jdf_rate(cfg, lam0).rate_pair
    half_sum = 0.5 * capacity(cfg.gamma1 + cfg.gamma2)
    assert math.isclose(pair.rate_a, pair.rate_c, rel_tol=1e-9)
    assert math.isclose(pair.rate_a, half_sum, rel_tol=1e-9)


def test_jdf_rate_worked_examples():
    cfg = make_config(0.0, 1.0, 1.5)
    assert math.isclose(
        schemes.jdf_rate(cfg, 0.9).rate, 0.9380617878262603, rel_tol=1e-12
    )
    cfg = make_config(0.0, 1.0, 1.0)
    assert math.isclose(
        schemes.jdf_rate(cfg, 0.5).rate, 0.8842282173954806, rel_tol=1e-12
    )
    cfg = make_config(0.0, 1.0, 3.0)
    assert math.isclose(
        schemes.jdf_rate(cfg, 0.0).rate, 0.7739760316291208, rel_tol=1e-12
    )
    assert math.isclose(schemes.jdf_rate(cfg, 1.0).rate, 1.0, rel_tol=1e-12)


def test_jdf_rate_continuous_at_lambda0():
    cfg = make_config(0.0, 1.0, 1.5)
    lam0 = schemes.jdf_max_rate(cfg).parameter
    eps = 1e-9
    below = schemes.jdf_rate(cfg, lam0 - eps).rate
    above = schemes.jdf_rate(cfg, lam0 + eps).rate
    assert math.isclose(below, above, rel_tol=1e-8)
    assert schemes.jdf_rate(cfg, lam0 - eps).rate_pair.rate_c >= schemes.jdf_rate(
        cfg, lam0 + eps
    ).rate_pair.rate_c


def test_jdf_max_rate_worked_examples():
    assert math.isclose(
        schemes.jdf_max_rate(make_config(0.0, 1.0, 1.0)).rate,
        0.8842282173954806,
        rel_tol=1e-12,
    )
    assert math.isclose(
        schemes.jdf_max_rate(make_config(0.0, 1.0, 1.5)).rate,
        0.9494018598512258,
        rel_tol=1e-12,
    )
    saturated = schemes.jdf_max_rate(make_config(0.0, 1.0, 3.0))
    assert math.isclose(saturated.rate, 1.0, rel_tol=1e-12)
    assert saturated.parameter == 1.0
    assert saturated.breakdown.regime == "saturated"


@given(snr)
@settings(max_examples=100)
def test_jdf_saturates_exactly_at_quadratic_boundary(g1):
    cfg = make_config(0.0, g1, g1 + g1 * g1)
    assert math.isclose(schemes.jdf_max_rate(cfg).rate, capacity(g1), rel_tol=1e-9)


@given(st.floats(min_value=1e-300, max_value=1e150), st.integers(-3, 3))
@settings(max_examples=300)
def test_jdf_crossing_test_at_its_boundary(g1, steps):
    # g2 on the float bound g1 + g1*g1, which the quadratic sweep rule
    # builds, and on its nextafter neighbours
    bound = g1 + g1 * g1
    g2 = bound
    for _ in range(abs(steps)):
        g2 = math.nextafter(g2, math.inf if steps > 0 else 0.0)
    crossing = schemes._jdf_has_crossing(g1, g2)
    assert crossing == (steps <= 0)
    if g2 >= g1:
        assert schemes.jdf_rate(make_config(0.0, g1, g2), 1.0).regime == (
            "crossing" if crossing else "saturated")
    # exact rational evaluation agrees except for a g2 between the float
    # bound and the exact one, which lie within one rounding of each other
    exact_bound = Fraction(g1) * (1 + Fraction(g1))
    assert abs(Fraction(bound) - exact_bound) <= exact_bound * 2.0 ** -52
    if crossing != (Fraction(g2) <= exact_bound):
        assert abs(Fraction(g2) - exact_bound) <= abs(Fraction(bound) - exact_bound)


@given(st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=1.0, max_value=1e300))
def test_jdf_crossing_test_agrees_with_exact_arithmetic(g1, ratio):
    g2 = g1 * ratio
    bound = g1 + g1 * g1
    exact_bound = Fraction(g1) * (1 + Fraction(g1))
    if math.isfinite(g2 + bound) and abs(Fraction(g2) - exact_bound) > abs(Fraction(bound) - exact_bound):
        assert schemes._jdf_has_crossing(g1, g2) == (Fraction(g2) <= exact_bound)


def test_jdf_crossing_test_cannot_overflow():
    # g1 ** 2 raised OverflowError above about 1540 dB
    for g1, g2, crossing in ((1e155, 1e155, True), (1e300, 1.7e308, True),
                             (1.7e308, 1.7e308, True), (5e-324, 5e-324, True),
                             (5e-324, 1e-323, False)):
        assert schemes._jdf_has_crossing(g1, g2) is crossing
    assert schemes.jdf_rate(make_config(0.0, 1e155, 1e155), 1.0).regime == "crossing"


@pytest.mark.parametrize("g1, g2", [(1e155, 1e155), (1e100, 1e200), (1e154, 1.5e154)])
def test_jdf_lambda0_where_gamma2_squared_overflows(g1, g2):
    x, y = Fraction(g1), Fraction(g2)
    low, high = x * y / (1 + x + y), (y - x + y * y) / (1 + x + y)
    lam = math.log1p(float(high)) / (2.0 * math.log1p(float(low)))
    assert math.isclose(schemes.jdf_max_rate(make_config(0.0, g1, g2)).parameter, lam,
                        rel_tol=1e-12)


@given(snr, snr)
def test_jdf_lambda0_keeps_its_bits_where_nothing_overflows(g1, g2):
    cfg = config_from(g1, g2)
    g1, g2 = cfg.gamma1, cfg.gamma2
    total = 1.0 + g1 + g2
    lam = capacity((g2 - g1 + g2 * g2) / total) / (2.0 * capacity(g1 * g2 / total))
    best = schemes.jdf_max_rate(cfg)
    if best.breakdown.regime == "crossing":
        assert best.parameter == min(1.0, lam)


@given(snr, snr)
@settings(max_examples=200)
def test_jdf_closed_form_matches_rate_at_optimum(g1, g2):
    cfg = config_from(g1, g2)
    best = schemes.jdf_max_rate(cfg)
    assert math.isclose(best.rate, best.breakdown.rate, rel_tol=1e-12)
    assert best.rate <= capacity(cfg.gamma1) * (1.0 + 1e-12)


# ---------------------------------------------------------------- DNF


def test_dnf_upper_bound_values():
    bound = schemes.dnf_upper_bound(make_config(0.0, 1.0, 1.0))
    assert bound.rate == 1.0
    # the bound depends only on the weaker link, never on gamma2
    assert schemes.dnf_upper_bound(make_config(0.0, 1.0, 3.0)).rate == 1.0
    assert schemes.dnf_upper_bound(make_config(0.0, 3.0, 3.0)).rate == 2.0


# ---------------------------------------------------------------- cross-scheme


@given(snr, snr, frac)
@settings(max_examples=300)
def test_dnf_bounds_every_scheme(g1, g2, g0_frac):
    cfg = config_from(g1, g2, g0_frac)
    zero = make_config(0.0, cfg.gamma1, cfg.gamma2)
    bound = schemes.dnf_upper_bound(cfg).rate
    assert schemes.df_max_rate(cfg).rate < bound
    assert schemes.af_rate(zero).rate <= bound + 1e-12
    assert schemes.jdf_max_rate(zero).rate <= bound * (1.0 + 1e-12)


def test_af_overtakes_jdf_at_high_snr_for_equal_links():
    low = make_config(0.0, 1.0, 1.0)
    assert schemes.af_rate(low).rate < schemes.jdf_max_rate(low).rate
    high = make_config(0.0, 1000.0, 1000.0)
    assert schemes.af_rate(high).rate > schemes.jdf_max_rate(high).rate
    # exactly one sign change along the dB grid
    signs = []
    for db in range(0, 31):
        g = 10.0 ** (db / 10.0)
        cfg = make_config(0.0, g, g)
        signs.append(schemes.af_rate(cfg).rate > schemes.jdf_max_rate(cfg).rate)
    flips = sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)
    assert flips == 1


def test_df_max_rate_where_c_gamma0_rounds_to_c_gamma1():
    # C(g0) == C(g1) in floats, so (C1 - C0)/(C1 + C2 - 2*C0) cancels to 0
    cfg = make_config(0.9999999999999999 * 1000.0, 1000.0, 2000.0)
    assert capacity(cfg.gamma0) == capacity(cfg.gamma1)
    best = schemes.df_max_rate(cfg)
    assert 0.0 < best.parameter < 1e-15
    assert best.rate == capacity(1000.0)
    brute = oracle.grid_max_df_theta(cfg).best_rate
    assert abs(best.rate - brute) / brute <= VERIFY_TOLERANCE
    assert best.breakdown.rate == pytest.approx(best.rate, rel=1e-15)


# Over the whole float range: gamma1 from the smallest subnormal to the top
# of the range, gamma2 on the regime boundaries or up to the top, gamma0
# zero, a fraction of gamma1, or 1 - 2^-k of it, where C1 - C0 cancels.
# The sweep's columns apply the rules these closed forms call and have no
# failure stage of their own, so none of these may raise.
_TOP_DB = linear_to_db(sys.float_info.max) - 1e-9


@given(
    st.floats(min_value=-3235.0, max_value=3082.0),
    st.one_of(st.sampled_from(["equal", "quad"]), st.floats(min_value=0.0, max_value=6400.0)),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
              st.integers(min_value=1, max_value=60).map(lambda k: 1.0 - 2.0 ** -k)),
)
@settings(max_examples=500, deadline=None)
@example(-2130.0, 56.0, 0.0)  # C1*C2 underflowed: the reduced DF rate read 0.0
@example(-1620.0, "equal", 0.0)  # C1*C2 subnormal: the reduced DF rate read 19% high
@example(-3080.0, 3110.0, 0.0)  # the JDF broadcast's length overflows
def test_closed_forms_hold_over_the_whole_float_range(g1_db, gamma2, g0_share):
    g1 = db_to_linear(g1_db)
    if gamma2 == "equal":
        g2 = g1
    elif gamma2 == "quad":
        g2 = g1 + g1 * g1
        assume(g2 < math.inf)
    else:
        g2 = db_to_linear(min(g1_db + gamma2, _TOP_DB))
    assume(g0_share * g1 < g1)
    cfg = make_config(g0_share * g1, g1, g2)
    c1 = capacity(g1)
    df, no_direct, jdf = (schemes.df_max_rate(cfg), schemes.df_max_rate_no_direct(cfg),
                          schemes.jdf_max_rate(cfg))
    af, dnf = schemes.af_rate(cfg), schemes.dnf_upper_bound(cfg)
    for best in (df, no_direct, af, jdf, dnf):
        assert 0.0 <= best.rate <= c1 + math.ulp(c1), best  # a NaN fails too
        assert best.parameter is None or 0.0 <= best.parameter <= 1.0, best
    for best in (df, no_direct, jdf):
        bd = best.breakdown
        if best.rate >= sys.float_info.min:
            assert abs(bd.rate - best.rate) <= 1e-9 * best.rate, best
        if best is jdf:
            # inf exactly where the XOR broadcast's rate_c/C1 symbols overflow
            assert math.isfinite(bd.duration) == (bd.rate_pair.rate_c / c1 < math.inf), best
        elif best.rate > 0.0:
            assert math.isfinite(bd.duration), best
    assert 0.0 <= af.breakdown.snr_a_to_c < math.inf and 0.0 <= af.breakdown.snr_c_to_a < math.inf
    # acceptance criterion 2 over the whole range
    full = schemes.df_max_rate(make_config(0.0, cfg.gamma1, cfg.gamma2)).rate
    if full >= sys.float_info.min:
        assert abs(no_direct.rate - full) <= 1e-12 * full
