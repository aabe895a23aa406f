"""Work counters: how many times each layer calls the one below it.

Timing cannot resolve a change of a few percent on a busy machine; these
counts are exact, so a change that adds work to a layer fails here even
where no benchmark would show it.
"""

import numpy as np
import pytest

from twrelay import oracle, schemes
from twrelay.channel import db_to_linear, make_config

INTERIOR = make_config(0.1, 1.0, 1.5)  # both optima inside (0, 1)
DF_AT_ZERO = make_config(0.0, db_to_linear(-3230.0), 1e3)  # theta* rounds to 0
JDF_SATURATED = make_config(0.0, 1.0, 3.0)  # lam* = 1


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
    rules = _counting_rules(monkeypatch, rule)
    result = search(config)
    assert len(rules) == 1
    shares = rules[0]
    # one array pass over the grid, 2 + 35 (or 34) golden steps, the located point
    assert len(shares) == evaluations
    assert isinstance(shares[0], np.ndarray) and len(shares[0]) == result.grid_points
    assert all(type(x) is float for x in shares[1:])


def test_the_jdf_oracle_builds_one_region(monkeypatch):
    regions = _counting(monkeypatch, oracle, "ma_region")
    oracle.grid_max_jdf_lambda(INTERIOR)
    assert len(regions) == 1


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
