"""Work counters: how many times each layer calls the one below it.

Timing cannot resolve a change of a few percent on a busy machine; these
counts are exact, so a change that adds work to a layer fails here even
where no benchmark would show it.
"""

import gc
import sys
from fractions import Fraction

import numpy as np
import pytest

from twrelay import exact, oracle, protocol, schemes
from twrelay.channel import MaRegion, db_to_linear, make_config
from twrelay.sweep import SweepSpec, run_sweep

INTERIOR = make_config(0.1, 1.0, 1.5)  # both optima inside (0, 1)
DF_AT_ZERO = make_config(0.0, db_to_linear(-3230.0), 1e3)  # theta* rounds to 0
JDF_SATURATED = make_config(0.0, 1.0, 3.0)  # lam* = 1
# C(gamma0) rounds to C(gamma1) = C(gamma2): DF's packets never differ in size
DF_NO_GAPS = make_config(1.2229185518811486e+152, 1.2229185518811488e+152, 1.2229185518811488e+152)


def _counting(monkeypatch, module, name):
    """Calls of ``module.name``, counted in the returned list."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_rules(monkeypatch, name):
    """The rules that ``schemes.name`` builds, each as the list of the
    shares it was evaluated at."""
    rules = []
    build = getattr(schemes, name)

    def counted_build(*args):
        rule, shares = build(*args), []
        rules.append(shares)

        def counted_rule(share):
            shares.append(share)
            return rule(share)

        return counted_rule

    monkeypatch.setattr(schemes, name, counted_build)
    return rules


@pytest.mark.parametrize("search, rule, config, evaluations", [
    (oracle.grid_max_df_theta, "_df_two_way", INTERIOR, 39),
    (oracle.grid_max_jdf_lambda, "_jdf_two_way", INTERIOR, 39),
    # the bracket at an end of the grid is half as wide: one golden step fewer
    (oracle.grid_max_df_theta, "_df_two_way", DF_AT_ZERO, 38),
    (oracle.grid_max_jdf_lambda, "_jdf_two_way", JDF_SATURATED, 38),
])
def test_each_1d_oracle_builds_one_rule_and_evaluates_it_39_times(
        monkeypatch, search, rule, config, evaluations):
    grid = oracle._THETA_GRID if rule == "_df_two_way" else oracle._LAM_GRID
    rules = _counting_rules(monkeypatch, rule)
    search(config)
    assert len(rules) == 1
    shares = rules[0]
    # one array pass over the grid, 2 + 35 (or 34) golden steps, the located point
    assert len(shares) == evaluations
    assert isinstance(shares[0], np.ndarray) and len(shares[0]) == len(grid)
    assert all(type(x) is float for x in shares[1:])


def test_the_jdf_oracle_builds_one_region(monkeypatch):
    regions = _counting(monkeypatch, oracle, "ma_region")
    oracle.grid_max_jdf_lambda(INTERIOR)
    assert len(regions) == 1


@pytest.mark.parametrize("search, rule, config, evaluations", [
    (exact.exact_max_df, "_df_two_way", INTERIOR, 3),
    (exact.exact_max_jdf, "_jdf_two_way", INTERIOR, 3),
    (exact.exact_max_df, "_df_two_way", DF_AT_ZERO, 3),
    (exact.exact_max_jdf, "_jdf_two_way", JDF_SATURATED, 2),  # the loads never meet
    (exact.exact_max_df, "_df_two_way", DF_NO_GAPS, 2),
])
def test_each_exact_oracle_builds_one_rule_and_evaluates_it_at_most_3_times(
        monkeypatch, search, rule, config, evaluations):
    rules = _counting_rules(monkeypatch, rule)
    regions = _counting(monkeypatch, exact, "ma_region")
    search(config)
    assert len(rules) == 1 and len(regions) == (rule == "_jdf_two_way")
    shares = rules[0]
    # 0, 1, and the bend where the loads meet if it lies in [0, 1], each exact
    assert len(shares) == evaluations and shares[:2] == [0, 1]
    assert all(type(x) in (int, Fraction) for x in shares)
    assert all(0 <= x <= 1 for x in shares[2:])


def test_an_exact_jdf_call_builds_one_region_the_one_ma_region_builds(monkeypatch):
    # the rule takes ma_region's floats exactly; no copy of the region is built
    built, taken = [], []
    init, build = MaRegion.__init__, schemes._jdf_two_way

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_build(region, *args):
        taken.append(region)
        return build(region, *args)

    monkeypatch.setattr(MaRegion, "__init__", counted_init)
    monkeypatch.setattr(schemes, "_jdf_two_way", counted_build)
    exact.exact_max_jdf(INTERIOR)
    assert len(built) == 1 and taken[0] is built[0]
    assert all(type(x) is float for x in (built[0].cap_a, built[0].corner_lc.rate_c))


@pytest.mark.parametrize("config", [INTERIOR, DF_AT_ZERO, JDF_SATURATED,
                                    make_config(0.2, 10.0, 5.0)])  # swapped
def test_closed_forms_call_no_rate_function_until_a_breakdown_is_read(monkeypatch, config):
    calls = {name: _counting(monkeypatch, schemes, name)
             for name in ("df_rate", "jdf_rate", "ma_region")}
    results = [f(config) for f in (schemes.df_max_rate, schemes.df_max_rate_no_direct,
                                   schemes.af_rate, schemes.jdf_max_rate,
                                   schemes.dnf_upper_bound)]
    assert {name: len(c) for name, c in calls.items()} == {
        "df_rate": 0, "jdf_rate": 0, "ma_region": 0}
    for best in results:
        best.breakdown
        best.breakdown  # the second read builds nothing
    assert {name: len(c) for name, c in calls.items()} == {
        "df_rate": 2, "jdf_rate": 1, "ma_region": 1}  # jdf_rate's own region


def _python_calls(fn, *args):
    """``fn(*args)``'s result and the Python function calls it made, itself
    included, as ``sys.setprofile`` counts them (a resumed generator counts
    again; builtins and numpy's ufuncs do not count).  The garbage collector
    is off meanwhile, so that no finalizer of an earlier test's garbage runs
    and counts."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return result, count


@pytest.mark.parametrize("closed_form, config, calls", [
    # each count includes the closed form itself and SchemeRate's __init__
    ("df_max_rate", INTERIOR, 7),  # three capacities, _df_max_at, _df_max
    ("df_max_rate", make_config((1.0 - 2.0**-40) * 100.0, 100.0, 150.0), 9),  # the SNR gap
    ("df_max_rate_no_direct", INTERIOR, 4),
    ("af_rate", INTERIOR, 5),
    ("jdf_max_rate", INTERIOR, 11),  # crossing
    ("jdf_max_rate", JDF_SATURATED, 6),
    ("dnf_upper_bound", INTERIOR, 3),
])
def test_each_closed_form_makes_a_fixed_number_of_python_calls(closed_form, config, calls):
    assert _python_calls(getattr(schemes, closed_form), config)[1] == calls


def test_the_default_sweep_makes_17_python_calls_per_grid_point():
    def sweep_calls(points):
        spec = SweepSpec(0.0, (points - 1) * 0.01, 0.01)  # all four schemes, gamma0 = 0
        run_sweep(spec)  # imports and caches warm
        result, calls = _python_calls(run_sweep, spec)
        assert len(result) == points
        return calls

    # per point: gamma1 from dB, the gamma2 and gamma0 rules, six
    # capacities, six calls of the DF, AF and JDF rules, two values to dB.
    # The fixed part is not pinned: Python 3.12 inlines comprehensions, and
    # it reads 32 calls before that and 26 from it
    assert sweep_calls(201) - sweep_calls(101) == 17 * 100


_CHUNK_BITS = 2**20  # the relay's 128 KiB chunks


@pytest.mark.parametrize("run, n_symbols, chunks, calls_per_exchange", [
    (protocol.run_df, 10**6, 1, 23),
    (protocol.run_df, 10**7, 5, 23),
    (protocol.run_jdf, 10**6, 1, 29),
    (protocol.run_jdf, 2 * 10**6, 2, 29),
    (protocol.run_jdf, 10**7, 8, 29),
])
def test_an_exchange_makes_12_python_calls_per_relay_chunk(
        run, n_symbols, chunks, calls_per_exchange):
    config = make_config(0.0, 1.0, 1.0)  # no direct link: each packet is relayed whole
    run(config, n_symbols, 0.5, 1)  # the draw's counters warm
    transcript, calls = _python_calls(run, config, n_symbols, 0.5, 1)
    assert chunks == -(-max(step.bits for step in transcript.steps[:2]) // _CHUNK_BITS)
    # per chunk: three resumes of the part sizes' generator, two draws,
    # four pad clears, the relay step and two of numpy's max methods
    assert calls == calls_per_exchange + 12 * chunks
