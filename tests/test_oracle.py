"""Brute-force oracle tests.

The searches must rediscover the closed-form optima without using them,
and the denoiser search must agree with the separate-injectivity check on
every small channel (full enumeration).
"""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from twrelay import oracle, protocol, schemes
from twrelay.channel import capacity, db_to_linear, ma_region, make_config
from twrelay.sweep import VERIFY_TOLERANCE

snr = st.floats(min_value=1e-2, max_value=1e3, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- 1-D searches


def test_grid_df_rediscovers_theta_star():
    cfg = make_config(0.1, 1.0, 1.0)
    result = oracle.grid_max_df_theta(cfg)
    assert abs(result.best_param - 0.5) < 1e-6
    assert math.isclose(result.best_rate, 0.6986908164233079, rel_tol=1e-9)

    cfg = make_config(0.0, 1.0, 3.0)
    result = oracle.grid_max_df_theta(cfg)
    assert abs(result.best_param - 1.0 / 3.0) < 1e-6
    assert math.isclose(result.best_rate, 0.8, rel_tol=1e-9)


def test_grid_df_reaches_theta_zero():
    # theta* = (C1 - C0)/(C1 + C2 - 2*C0) is below the smallest subnormal here
    g1 = db_to_linear(-3230.0)
    cfg = make_config(0.0, g1, 1e3)
    result = oracle.grid_max_df_theta(cfg)
    assert result.best_param == 0.0
    assert result.best_rate == schemes.df_max_rate(cfg).rate == capacity(g1)


def test_grid_jdf_rediscovers_lambda_star():
    result = oracle.grid_max_jdf_lambda(make_config(0.0, 1.0, 1.0))
    assert abs(result.best_param - 0.5) < 1e-6
    assert math.isclose(result.best_rate, 0.8842282173954806, rel_tol=1e-9)

    result = oracle.grid_max_jdf_lambda(make_config(0.0, 1.0, 1.5))
    assert abs(result.best_param - 0.8128108030943434) < 1e-6
    assert math.isclose(result.best_rate, 0.9494018598512258, rel_tol=1e-9)

    # saturated regime: the search runs into the lam = 1 endpoint
    result = oracle.grid_max_jdf_lambda(make_config(0.0, 1.0, 3.0))
    assert result.best_param == 1.0
    assert math.isclose(result.best_rate, 1.0, rel_tol=1e-9)


@given(snr, snr, st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=30, deadline=None)
def test_searches_match_closed_forms(g1, g2, g0_frac):
    g1, g2 = sorted((g1, g2))
    cfg = make_config(g0_frac * g1, g1, g2)
    df = oracle.grid_max_df_theta(cfg)
    assert math.isclose(df.best_rate, schemes.df_max_rate(cfg).rate, rel_tol=1e-6)
    jdf = oracle.grid_max_jdf_lambda(cfg)
    assert math.isclose(jdf.best_rate, schemes.jdf_max_rate(cfg).rate, rel_tol=1e-6)


def _df_grid():
    return np.linspace(0.0, 1.0, 1003)  # 1001 interior points and both ends


def _jdf_grid():
    return np.linspace(0.0, 1.0, 1001)


def test_scan_grids_are_fixed_and_read_only():
    cfg = make_config(0.1, 1.0, 1.0)
    assert oracle.grid_max_df_theta(cfg).grid_points == 1003
    assert oracle.grid_max_jdf_lambda(cfg).grid_points == 1001
    for grid, expected in ((oracle._THETA_GRID, _df_grid()), (oracle._LAM_GRID, _jdf_grid())):
        assert grid.tolist() == expected.tolist()
        with pytest.raises(ValueError, match="read-only"):
            grid[1] = 0.5


# ------------------------------------------------- one array pass per scan

db = st.floats(min_value=-10.0, max_value=30.0)
ratio_db = st.floats(min_value=0.0, max_value=10.0)
g0_frac = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5))


def _config(g1_db, r_db, frac):
    g1 = 10.0 ** (g1_db / 10.0)
    return make_config(frac * g1, g1, g1 * 10.0 ** (r_db / 10.0))


@given(db, ratio_db, g0_frac)
@settings(max_examples=25, deadline=None)
def test_array_rate_rules_equal_the_per_point_rates(g1_db, r_db, frac):
    cfg = _config(g1_db, r_db, frac)
    c0, c1, c2 = (capacity(g) for g in (cfg.gamma0, cfg.gamma1, cfg.gamma2))
    grid = _df_grid()
    df = schemes._df_two_way(c0, c1, c2, grid)[3]
    assert df.tolist() == [schemes.df_rate(cfg, t).rate for t in grid.tolist()]
    grid = _jdf_grid()
    jdf = schemes._jdf_two_way(ma_region(cfg), grid)[3]
    assert jdf.tolist() == [schemes.jdf_rate(cfg, lam).rate for lam in grid.tolist()]


def _scalar_grid_refine(f, grid):
    # the scan as one call per grid point, kept here as the reference the
    # array pass must reproduce exactly
    values = np.array([f(x) for x in grid.tolist()])
    i = int(np.argmax(values))
    best_x = float(grid[i])
    best_v = float(values[i])
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    x = oracle._golden_max(f, lo, hi)
    v = f(x)
    if v >= best_v:
        best_x, best_v = x, v
    return oracle.GridResult(best_x, best_v, len(grid))


@given(db, ratio_db, g0_frac)
@settings(max_examples=40, deadline=None)
def test_array_scans_equal_the_per_point_scans(g1_db, r_db, frac):
    cfg = _config(g1_db, r_db, frac)
    expected = _scalar_grid_refine(lambda t: schemes.df_rate(cfg, t).rate, _df_grid())
    assert oracle.grid_max_df_theta(cfg) == expected
    expected = _scalar_grid_refine(lambda lam: schemes.jdf_rate(cfg, lam).rate, _jdf_grid())
    assert oracle.grid_max_jdf_lambda(cfg) == expected


def test_scans_use_no_closed_form_optimum(monkeypatch):
    configs = [
        make_config(0.0, 1.0, 1.0),
        make_config(0.1, 1.0, 1.5),
        make_config(0.0, 1.0, 3.0),  # JDF saturated
        make_config(0.3, 40.0, 400.0),
    ]
    expected = [(oracle.grid_max_df_theta(c), oracle.grid_max_jdf_lambda(c)) for c in configs]

    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle called a closed-form optimum")

    for name in ("_df_max", "_df_max_at", "df_max_rate", "df_max_rate_no_direct",
                 "_jdf_max", "_jdf_balance", "jdf_max_rate"):
        monkeypatch.setattr(schemes, name, forbidden)
    got = [(oracle.grid_max_df_theta(c), oracle.grid_max_jdf_lambda(c)) for c in configs]
    assert got == expected


# Over the whole +-300 dB range, on the regime boundaries g2 = g1 (equal
# links) and g2 = g1 + g1^2 (JDF crossing/saturated) and off them.  The
# simulated block aims at 1 to 10^6 bits of the weaker link, within the cap.
wide_db = st.floats(min_value=-300.0, max_value=300.0)
gamma2_kind = st.sampled_from(["equal", "quad", "ratio"])
block_bits_log10 = st.floats(min_value=0.0, max_value=6.0)


@given(wide_db, gamma2_kind, ratio_db, g0_frac, block_bits_log10)
@settings(max_examples=300, deadline=None)
def test_closed_forms_match_oracles_over_wide_snr_range(g1_db, kind, r_db, frac, bits_log10):
    g1 = 10.0 ** (g1_db / 10.0)
    g2 = {"equal": g1, "quad": g1 + g1 * g1, "ratio": g1 * 10.0 ** (r_db / 10.0)}[kind]
    cfg = make_config(frac * g1, g1, g2)
    n = min(protocol.MAX_BLOCK_SIZE, max(1, round(10.0 ** bits_log10 / capacity(g1))))
    runs = []
    for closed, brute, simulate in ((schemes.df_max_rate, oracle.grid_max_df_theta, protocol.run_df),
                                    (schemes.jdf_max_rate, oracle.grid_max_jdf_lambda,
                                     protocol.run_jdf)):
        best = closed(cfg)
        rate = best.rate
        assert abs(brute(cfg).best_rate - rate) <= VERIFY_TOLERANCE * rate
        runs.append((simulate, best))
    # the simulator at each optimum, after the oracles so that they check every
    # draw: whole bits per packet keep the realized rate just below the closed form
    for simulate, best in runs:
        try:
            t = simulate(cfg, n, best.parameter, seed=0)
        except protocol.ProtocolConfigError:
            reject()  # some packet of this block would be empty
        assert t.success
        assert -1e-12 * best.rate <= best.rate - t.realized_rate <= 8.0 / n


# ---------------------------------------------------------------- region search


def test_region_search_agrees_with_face_optimum():
    cfg = make_config(0.0, 1.0, 1.0)
    result = oracle.grid_max_ma_region(cfg, grid_points=401)
    closed = schemes.jdf_max_rate(cfg).rate
    cell = (capacity(1.0) + capacity(1.0)) / 400.0
    assert result.best_rate <= closed + 1e-9  # the face is optimal
    assert closed - result.best_rate <= cell  # and the grid gets close
    ra, rc = result.best_param
    assert 0.0 <= ra <= capacity(1.0) and 0.0 <= rc <= capacity(1.0)


def test_region_search_finds_flat_segment_endpoint():
    # saturated regime: the whole segment rate_a = C(gamma1),
    # rate_c in [C(gamma1), C(gamma2/(1+gamma1))] attains C(gamma1)
    cfg = make_config(0.0, 1.0, 3.0)
    result = oracle.grid_max_ma_region(cfg, grid_points=401)
    assert math.isclose(result.best_rate, 1.0, rel_tol=1e-12)
    with pytest.raises(ValueError):
        oracle.grid_max_ma_region(cfg, grid_points=2)


def test_pair_objective_flat_on_saturated_segment():
    c1, c2 = capacity(1.0), capacity(3.0)
    top = capacity(3.0 / 2.0)  # rate_c at the A-favouring corner
    for rate_c in np.linspace(c1, top, 500):
        rate_c = float(rate_c)
        value = (c1 + rate_c) / schemes._broadcast_duration(c1, rate_c, c1, c2)
        assert math.isclose(value, c1, rel_tol=1e-9)


def test_pair_objective_interior_points_lose():
    cfg = make_config(0.0, 1.0, 1.5)
    best = schemes.jdf_max_rate(cfg).rate
    pair = schemes.jdf_rate(cfg, 0.5).rate_pair
    a, c = 0.9 * pair.rate_a, 0.9 * pair.rate_c
    shrunk = (a + c) / schemes._broadcast_duration(a, c, capacity(1.0), capacity(1.5))
    assert shrunk < best


# ---------------------------------------------------------------- denoiser search


def test_denoiser_xor_like_channel():
    inst = oracle.search_min_denoiser(2, 2, lambda a, c: a + c)
    assert inst.codebook_size == 2
    assert inst.matches_conjecture is True
    # observations 0 and 2 (a = c) must share a codeword: that is the XOR
    assert inst.mapping[0] == inst.mapping[2] != inst.mapping[1]


def test_denoiser_additive_channels_meet_max_alphabet():
    for na, nc in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        inst = oracle.search_min_denoiser(na, nc, lambda a, c: a + c)
        assert inst.codebook_size == max(na, nc)
        assert inst.matches_conjecture
        mod = max(na, nc)
        inst = oracle.search_min_denoiser(na, nc, lambda a, c: (a + c) % mod)
        assert inst.codebook_size == mod


def test_denoiser_fully_distinct_channel_still_needs_only_max():
    # all observations distinct: conflicts form a rook graph, which is
    # max(na, nc)-colorable, so nothing beyond the additive case is needed
    inst = oracle.search_min_denoiser(2, 3, lambda a, c: (a, c))
    assert inst.codebook_size == 3
    assert inst.matches_conjecture is True


def test_denoiser_conjecture_can_fail_off_the_additive_family():
    # separately injective, but the four observations conflict pairwise
    table = {(0, 0): 3, (0, 1): 0, (0, 2): 1, (1, 0): 2, (1, 1): 1, (1, 2): 0}
    assert oracle.separately_invertible(2, 3, lambda a, c: table[(a, c)])
    inst = oracle.search_min_denoiser(2, 3, lambda a, c: table[(a, c)])
    assert inst.codebook_size == 4
    assert inst.matches_conjecture is False


def test_denoiser_infeasible_channel_raises():
    with pytest.raises(oracle.DenoiserSearchExhausted):
        oracle.search_min_denoiser(2, 2, lambda a, c: a | c)
    with pytest.raises(oracle.DenoiserSearchExhausted):
        oracle.search_min_denoiser(3, 3, lambda a, c: 0)


def test_denoiser_budget():
    with pytest.raises(oracle.AlphabetBudgetError):
        oracle.search_min_denoiser(7, 2, lambda a, c: a + c)
    with pytest.raises(oracle.AlphabetBudgetError):
        oracle.search_min_denoiser(2, 7, lambda a, c: a + c)
    with pytest.raises(ValueError):
        oracle.search_min_denoiser(0, 2, lambda a, c: a + c)


def test_denoiser_feasibility_probe():
    add = lambda a, c: a + c
    assert oracle.denoiser_feasible(2, 4, add, 4) is not None
    assert oracle.denoiser_feasible(2, 4, add, 3) is None
    assert oracle.denoiser_feasible(2, 2, lambda a, c: a | c, 4) is None
    with pytest.raises(ValueError, match="codebook_size"):
        oracle.denoiser_feasible(2, 2, add, 0)


def test_denoiser_mapping_lets_both_sides_decode():
    for na, nc in [(2, 3), (3, 3), (2, 4)]:
        inst = oracle.search_min_denoiser(na, nc, lambda a, c: a + c)
        for a in range(na):
            words = [inst.mapping[a + c] for c in range(nc)]
            assert len(set(words)) == nc  # A can tell every c apart
        for c in range(nc):
            words = [inst.mapping[a + c] for a in range(na)]
            assert len(set(words)) == na


def test_separately_invertible_examples():
    assert oracle.separately_invertible(2, 2, lambda a, c: a + c) is True
    assert oracle.separately_invertible(2, 2, lambda a, c: a ^ c) is True
    assert oracle.separately_invertible(2, 2, lambda a, c: a | c) is False
    assert oracle.separately_invertible(2, 3, lambda a, c: c) is False  # ignores a


def _partitions(cells):
    """All set partitions of ``cells`` (each partition is a channel table)."""
    if not cells:
        yield []
        return
    first, rest = cells[0], cells[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1 :]
        yield part + [{first}]


@pytest.mark.parametrize("na,nc", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_separate_invertibility_governs_feasibility_exhaustively(na, nc):
    """Over every channel table of this shape, separate injectivity is
    necessary and sufficient for a codebook to exist, and any codebook
    needs at least max(na, nc) codewords.

    Equality with max(na, nc) is a property of the additive family, not
    of all channels: e.g. one 2x3 table with pairwise-conflicting
    observations needs 4 codewords.  The enumeration counts how often
    equality fails to make sure both cases occur.
    """
    cells = [(a, c) for a in range(na) for c in range(nc)]
    seen_equal = seen_larger = 0
    for part in _partitions(cells):
        table = {}
        for y, block in enumerate(part):
            for cell in block:
                table[cell] = y
        channel = lambda a, c: table[(a, c)]
        if oracle.separately_invertible(na, nc, channel):
            inst = oracle.search_min_denoiser(na, nc, channel)
            assert inst.codebook_size >= max(na, nc)
            if inst.codebook_size == max(na, nc):
                seen_equal += 1
            else:
                seen_larger += 1
        else:
            assert oracle.denoiser_feasible(na, nc, channel, na * nc) is None
            with pytest.raises(oracle.DenoiserSearchExhausted):
                oracle.search_min_denoiser(na, nc, channel)
    assert seen_equal > 0
    if (na, nc) != (2, 2):  # every valid 2x2 channel is XOR-like
        assert seen_larger > 0


def test_denoiser_search_deterministic():
    first = oracle.search_min_denoiser(3, 3, lambda a, c: a + c)
    second = oracle.search_min_denoiser(3, 3, lambda a, c: a + c)
    assert first.mapping == second.mapping
    assert first.codebook_size == second.codebook_size


def test_ma_region_lattice_is_bounded():
    # 1001**2 points: rejected before any lattice array is built
    cfg = make_config(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=f"1001 x 1001 lattice exceeds {oracle.MAX_GRID_POINTS}"):
        oracle.grid_max_ma_region(cfg, grid_points=1001)
