"""The exact oracles: each 1-D rule's maximum from three exact evaluations.

The closed forms are held to the exact maximum at a few ulps over the whole
float range; the oracles are held to the rule at random shares, and shown
to call none of the closed forms' helpers.
"""

import math
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twrelay import exact, schemes
from twrelay.channel import capacity, db_to_linear, linear_to_db, ma_region, make_config
from twrelay.cli import main

_TOP_DB = linear_to_db(sys.float_info.max) - 1e-9
# where a closed form switches to a rescaled branch or its terms leave the
# normal range: C1 subnormal (-3080 dB), products of two SNRs (-1545 to
# -1540 dB, +1540 dB), the SNRs near the float maximum
_EDGES_DB = (-3235.0, -3080.0, -1545.0, -1540.0, 1540.0, 3077.0)

_gamma1_db = st.one_of(
    st.floats(min_value=-3235.0, max_value=3082.0),
    st.builds(lambda edge, offset: min(max(edge + offset, -3235.0), 3082.0),
              st.sampled_from(_EDGES_DB), st.floats(min_value=-5.0, max_value=5.0)),
)
# equal links, JDF's regime boundary g1 + g1**2 and one float either side,
# or a dB offset above gamma1 (clipped at the top of the range)
_gamma2 = st.one_of(st.sampled_from(["equal", "quad", "quad+", "quad-"]),
                    st.floats(min_value=0.0, max_value=6400.0))
# no direct link, a fraction of gamma1, or 1 - 2^-k of it, where C1 - C0 cancels
_gamma0_share = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                          st.integers(min_value=1, max_value=60).map(lambda k: 1.0 - 2.0 ** -k))


def _config(g1_db, gamma2, g0_share):
    g1 = db_to_linear(g1_db)
    if gamma2 == "equal":
        g2 = g1
    elif isinstance(gamma2, str):
        g2 = g1 + g1 * g1
        assume(g2 < math.inf)
        g2 = {"quad": g2, "quad+": math.nextafter(g2, math.inf),
              "quad-": max(g1, math.nextafter(g2, 0.0))}[gamma2]
        assume(g2 < math.inf)
    else:
        g2 = db_to_linear(min(g1_db + gamma2, _TOP_DB))
    assume(g0_share * g1 < g1)
    return make_config(g0_share * g1, g1, g2)


def _ulps_apart(a: float, b: float) -> int:
    """How many floats apart two nonnegative floats are."""
    bits = [struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b)]
    return abs(bits[0] - bits[1])


_PAIRS = [(exact.exact_max_df, schemes.df_max_rate), (exact.exact_max_jdf, schemes.jdf_max_rate)]


@given(_gamma1_db, _gamma2, _gamma0_share)
@settings(max_examples=400, deadline=None)
@example(-3220.0, "equal", 0.0)  # the grid scan read JDF 1.5e-322 against 1.43e-322
@example(-3235.0, "equal", 0.0)  # the grid scan read DF 0.0 against 5e-324
@example(-3080.0, 3110.0, 0.0)  # the JDF broadcast's length overflows in floats
@example(-1620.0, 4.0, 0.0)  # C1*(C1 + C2 - 2*C0) subnormal: DF's rescaled branch
@example(250.0, 4.0, 1.0 - 2.0**-40)  # C1 - C0 cancels: theta* from the SNRs
def test_closed_forms_lie_within_4_ulps_of_the_exact_maximum(g1_db, gamma2, g0_share):
    # measured, not a slack of verify's: the closed forms were at most 3
    # ulps from the exact maximum where it is normal, and 1 subnormal ulp
    # below that, over 2x10^4 configs drawn as scripts/numeric_diff.py does
    cfg = _config(g1_db, gamma2, g0_share)
    for oracle, closed_form in _PAIRS:
        best = oracle(cfg).best_rate
        rate = closed_form(cfg).rate
        assert _ulps_apart(rate, best) <= (4 if best >= sys.float_info.min else 1), (cfg, best)
        assert 0.0 <= oracle(cfg).best_param <= 1.0


@pytest.mark.parametrize("argv, column", [
    (["--gamma1-db=-3220:-3220:1", "--gamma2", "equal", "--schemes", "JDF"], "1.43279037e-322"),
    (["--gamma1-db=-3220:-3220:1", "--gamma2", "quad", "--schemes", "JDF"], "1.43279037e-322"),
    (["--gamma1-db=-3235:-3235:1", "--gamma2", "equal", "--schemes", "DF"], "4.94065646e-324"),
])
def test_subnormal_rates_verify(capsys, argv, column):
    # the grid scans formed the rate in floats and kept a few bits of it:
    # these exited 2, 1.43e-322 against 1.5e-322 and 5e-324 against 0.0
    assert main(["sweep", *argv, "--verify"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[1].split(",")[3:] == [column, column, "0"]


def _df_rule(cfg):
    return schemes._df_two_way(*(Fraction(capacity(g)) for g in (cfg.gamma0, cfg.gamma1,
                                                                   cfg.gamma2)))


def _jdf_rule(cfg):
    return schemes._jdf_two_way(ma_region(cfg), Fraction)


@given(_gamma1_db, _gamma2, _gamma0_share, st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
@example(0.0, 4.0, 0.1, 0)
@example(10.0, "equal", 0.0, 0)
def test_the_rule_stays_below_the_exact_maximum_at_random_shares(g1_db, gamma2, g0_share, seed):
    # three candidates suffice only if the rule is linear-fractional on
    # either side of its one breakpoint; a second breakpoint shows here.
    # Rounding is monotone, so an exact rate above the maximum cannot round
    # below the maximum's float
    cfg = _config(g1_db, gamma2, g0_share)
    rng = random.Random(seed)
    for oracle, rule in ((exact.exact_max_df, _df_rule(cfg)), (exact.exact_max_jdf, _jdf_rule(cfg))):
        best = oracle(cfg).best_rate
        for _ in range(200):
            share = Fraction(rng.random())
            assert float(rule(share)[3]) <= best, (cfg, share)


@pytest.mark.parametrize("cfg", [
    make_config(0.1, 1.0, 1.5),
    make_config(0.0, 1.0, 3.0),  # JDF saturated
    make_config(0.0, db_to_linear(-3230.0), 1e3),  # DF's theta* rounds to 0
    make_config((1.0 - 2.0**-40) * 100.0, 100.0, 150.0),  # C1 - C0 cancels
])
def test_the_exact_oracles_call_none_of_the_closed_forms_helpers(monkeypatch, cfg):
    expected = [oracle(cfg) for oracle, _ in _PAIRS]

    def forbidden(*args, **kwargs):
        raise AssertionError("an exact oracle called a closed form's helper")

    for name in ("_df_max", "_df_max_at", "_jdf_max", "_jdf_balance", "_jdf_has_crossing"):
        monkeypatch.setattr(schemes, name, forbidden)
    assert [oracle(cfg) for oracle, _ in _PAIRS] == expected
    with pytest.raises(AssertionError, match="closed form's helper"):
        schemes.df_max_rate(cfg)


@pytest.mark.parametrize("cfg", [
    make_config(0.1, 1.0, 1.5),
    make_config(0.0, 1.0, 1.0),
    make_config(0.5, 10.0, 100.0),
    make_config(0.0, db_to_linear(-1620.0), db_to_linear(-1616.0)),  # the rescaled branch
])
def test_a_df_closed_form_1e_9_off_lands_beyond_4_ulps(monkeypatch, cfg):
    real = schemes._df_max

    def perturbed(c0, c1, c2):
        rate, theta = real(c0, c1, c2)
        return rate * (1.0 + 1e-9), theta

    best = exact.exact_max_df(cfg).best_rate
    assert _ulps_apart(schemes.df_max_rate(cfg).rate, best) <= 4
    monkeypatch.setattr(schemes, "_df_max", perturbed)
    assert _ulps_apart(schemes.df_max_rate(cfg).rate, best) > 4


def test_the_smallest_share_wins_a_tie():
    # C(g0) rounds to C(g1) = C(g2): both gaps are 0, so no breakpoint, and
    # every theta gives C1
    g = 1.2229185518811488e+152
    cfg = make_config(math.nextafter(g, 0.0), g, g)
    assert capacity(cfg.gamma0) == capacity(g)
    best = exact.exact_max_df(cfg)
    assert (best.best_param, best.best_rate) == (0.0, capacity(g))


def test_the_optima_are_rounded_once_from_their_exact_values():
    # equal links and no direct link: both breakpoints at exactly 1/2, and
    # the rates 2*C/3 (DF) and C*2*C(2g)/(2*C + C(2g)) (JDF) in Fractions
    cfg = make_config(0.0, 3.0, 3.0)
    c, c2 = Fraction(capacity(3.0)), Fraction(capacity(6.0))
    df, jdf = exact.exact_max_df(cfg), exact.exact_max_jdf(cfg)
    assert (df.best_param, df.best_rate) == (0.5, float(2 * c / 3))
    region = ma_region(cfg)
    at0, at1 = (Fraction(p.rate_a) - Fraction(p.rate_c)
                for p in (region.corner_lc, region.corner_la))
    assert jdf.best_param == float(at0 / (at0 - at1))
    assert jdf.best_rate == float(_jdf_rule(cfg)(at0 / (at0 - at1))[3])
    assert math.isclose(jdf.best_rate, float(c * 2 * c2 / (2 * c + c2)), rel_tol=1e-15)
