"""Link-model tests: capacity, config normalization, multiple-access region."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrelay.channel import (
    AssumptionViolation,
    LinkConfig,
    RatePair,
    capacity,
    db_to_linear,
    linear_to_db,
    ma_region,
    make_config,
)
from twrelay.schemes import jdf_rate

# linear SNRs in a range where nothing overflows or degenerates
snr = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False)


def test_capacity_known_values():
    assert capacity(0.0) == 0.0
    assert math.isclose(capacity(1.0), 1.0, rel_tol=1e-15)
    assert math.isclose(capacity(3.0), 2.0, rel_tol=1e-15)
    assert math.isclose(capacity(15.0), 4.0, rel_tol=1e-15)


@pytest.mark.parametrize("bad", [-1.0, -1e-12, math.inf, -math.inf, math.nan, -5e-324])
def test_capacity_domain(bad):
    with pytest.raises(ValueError, match="SNR must be finite and nonnegative"):
        capacity(bad)


@pytest.mark.parametrize("edge, expected", [(-0.0, 0.0), (sys.float_info.max, 1024.0)])
def test_capacity_domain_keeps_its_edges(edge, expected):
    assert capacity(edge) == expected


@given(snr, snr)
def test_capacity_monotone(a, b):
    lo, hi = sorted((a, b))
    assert capacity(lo) <= capacity(hi) + 1e-15


def test_capacity_concave_on_grid():
    gammas = np.linspace(0.0, 50.0, 501)
    caps = np.array([capacity(g) for g in gammas])
    mids = np.array([capacity(0.5 * (x + y)) for x, y in zip(gammas[:-2], gammas[2:])])
    # midpoint concavity: f((x+y)/2) >= (f(x)+f(y))/2
    assert np.all(mids >= 0.5 * (caps[:-2] + caps[2:]) - 1e-12)


def test_db_to_linear_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="float range"):
        db_to_linear(4000.0)  # 10**400 overflows


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert math.isclose(db_to_linear(10.0), 10.0, rel_tol=1e-15)
    assert db_to_linear(-math.inf) == 0.0
    assert linear_to_db(0.0) == -math.inf
    for db in (-7.0, 0.0, 3.0, 30.0):
        assert math.isclose(linear_to_db(db_to_linear(db)), db, abs_tol=1e-12)
    with pytest.raises(ValueError):
        db_to_linear(math.nan)
    with pytest.raises(ValueError):
        linear_to_db(-1.0)


def test_make_config_normalizes_order():
    cfg = make_config(0.1, 3.0, 1.0)
    assert cfg.gamma1 == 1.0 and cfg.gamma2 == 3.0
    assert cfg.swapped is True

    cfg = make_config(0.1, 1.0, 3.0)
    assert cfg.gamma1 == 1.0 and cfg.gamma2 == 3.0
    assert cfg.swapped is False

    # equal links: no swap
    assert make_config(0.0, 2.0, 2.0).swapped is False


def test_make_config_rejects_strong_direct_link():
    with pytest.raises(AssumptionViolation):
        make_config(1.0, 1.0, 3.0)
    with pytest.raises(AssumptionViolation):
        make_config(1.5, 3.0, 1.0)  # gamma0 >= min even after the swap
    with pytest.raises(AssumptionViolation):
        LinkConfig(gamma0=0.0, gamma1=3.0, gamma2=1.0)  # unordered


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 0.0, 1.0),
        (0.0, -1.0, 1.0),
        (-0.1, 1.0, 1.0),
        (0.0, math.nan, 1.0),
        (0.0, 1.0, math.inf),
        (0.0, math.inf, math.inf),
    ],
)
def test_make_config_rejects_bad_numbers(args):
    with pytest.raises(ValueError):
        make_config(*args)
    with pytest.raises(ValueError):
        LinkConfig(*args)


@given(snr, snr, st.floats(min_value=0.0, max_value=0.9))
def test_make_config_idempotent(ga, gc, frac):
    gamma0 = frac * min(ga, gc)
    cfg = make_config(gamma0, ga, gc)
    again = make_config(cfg.gamma0, cfg.gamma1, cfg.gamma2)
    assert again.gamma1 == cfg.gamma1
    assert again.gamma2 == cfg.gamma2
    assert again.swapped is False  # already ordered


def test_ma_region_corners():
    region = ma_region(make_config(0.0, 1.0, 3.0))
    assert region.cap_a == 1.0
    assert math.isclose(region.cap_c, 2.0, rel_tol=1e-15)
    assert math.isclose(region.cap_sum, 2.321928094887362, rel_tol=1e-15)
    assert region.corner_la == RatePair(rate_a=1.0, rate_c=1.3219280948873624)
    assert region.corner_lc == RatePair(rate_a=0.32192809488736235, rate_c=2.0)


@given(snr, snr)
def test_ma_corner_sums_hit_sum_capacity(g1, g2):
    g1, g2 = sorted((g1, g2))
    region = ma_region(make_config(0.0, g1, g2))
    total = region.cap_sum
    assert math.isclose(region.corner_la.rate_a + region.corner_la.rate_c, total, rel_tol=1e-12)
    assert math.isclose(region.corner_lc.rate_a + region.corner_lc.rate_c, total, rel_tol=1e-12)


def test_ma_rate_pair_endpoints_and_midpoint():
    cfg = make_config(0.0, 1.0, 1.0)
    region = ma_region(cfg)
    assert jdf_rate(cfg, 0.0).rate_pair == region.corner_lc
    assert jdf_rate(cfg, 1.0).rate_pair == region.corner_la
    mid = jdf_rate(cfg, 0.5).rate_pair
    assert math.isclose(mid.rate_a, 0.792481250360578, rel_tol=1e-15)
    assert math.isclose(mid.rate_c, 0.792481250360578, rel_tol=1e-15)


def test_ma_rate_pair_face_sweep_stays_on_face():
    cfg = make_config(0.0, 1.0, 3.0)
    region = ma_region(cfg)
    for lam in np.linspace(0.0, 1.0, 1000):
        pair = jdf_rate(cfg, float(lam)).rate_pair
        assert 0.0 <= pair.rate_a <= region.cap_a + 1e-12
        assert 0.0 <= pair.rate_c <= region.cap_c + 1e-12
        assert math.isclose(pair.rate_a + pair.rate_c, region.cap_sum, rel_tol=1e-12)


@pytest.mark.parametrize("lam", [-0.1, 1.1, math.nan])
def test_ma_rate_pair_domain(lam):
    with pytest.raises(ValueError):
        jdf_rate(make_config(0.0, 1.0, 1.0), lam)


@given(snr, snr)
def test_capacity_chain_identity(g1, g2):
    # splitting the sum capacity at either corner loses nothing
    left = capacity(g1) + capacity(g2 / (1.0 + g1))
    right = capacity(g1 / (1.0 + g2)) + capacity(g2)
    total = capacity(g1 + g2)
    assert math.isclose(left, total, rel_tol=1e-12)
    assert math.isclose(right, total, rel_tol=1e-12)
