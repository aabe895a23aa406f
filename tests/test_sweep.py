"""Sweep construction, CSV emission and plot-script emission."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twrelay import oracle, schemes, sweep
from twrelay.channel import capacity, db_to_linear, make_config
from twrelay.sweep import (
    Gamma0Rule,
    Gamma2Rule,
    SweepConfigError,
    SweepSpec,
    VerificationError,
    comparison_spec,
    emit_csv,
    emit_plot_script,
    run_sweep,
)


# ---------------------------------------------------------------- rules


def test_gamma2_rule_parsing():
    assert Gamma2Rule.parse("equal") == Gamma2Rule("equal")
    assert Gamma2Rule.parse("quad") == Gamma2Rule("quadratic")
    assert Gamma2Rule.parse("ratio:2.5") == Gamma2Rule("ratio", 2.5)
    fixed = Gamma2Rule.parse("db:10")
    assert fixed.kind == "fixed" and math.isclose(fixed.value, 10.0)
    for bad in ("","triangle", "ratio:x", "db:", "ratio:-1"):
        with pytest.raises(ValueError):
            Gamma2Rule.parse(bad)


def test_gamma2_rule_apply_and_label():
    assert Gamma2Rule("equal").apply(3.0) == 3.0
    assert Gamma2Rule("quadratic").apply(3.0) == 12.0
    assert Gamma2Rule("fixed", 10.0).apply(3.0) == 10.0
    assert Gamma2Rule("ratio", 4.0).apply(3.0) == 12.0
    assert Gamma2Rule("quadratic").label == "g2=g1+g1^2"


def test_gamma0_rule_parsing():
    assert Gamma0Rule.parse("zero") == Gamma0Rule("zero")
    assert Gamma0Rule.parse("frac:0.1") == Gamma0Rule("fraction", 0.1)
    fixed = Gamma0Rule.parse("db:-10")
    assert fixed.kind == "fixed" and math.isclose(fixed.value, 0.1)
    for bad in ("none", "frac:1.5", "frac:-0.1", "db:zz"):
        with pytest.raises(ValueError):
            Gamma0Rule.parse(bad)
    assert Gamma0Rule("zero").apply(7.0) == 0.0
    assert math.isclose(Gamma0Rule("fraction", 0.1).apply(7.0), 0.7, rel_tol=1e-15)
    assert Gamma0Rule("fraction", 0.25).apply(8.0) == 2.0
    assert Gamma0Rule("fraction", 0.1).label == "g0=0.1*g1"


_G2_FORMS = " (expected equal, quad, db:<v> or ratio:<k>)"
_G0_FORMS = " (expected zero, frac:<f> or db:<v>)"
_DB5 = 3.1622776601683795
_DB_MINUS3 = 0.5011872336272722


def _bad(message):
    return ValueError, message


def _outcome(make):
    """(kind, value, label, apply at 0.5, 3 and 1e200) of a rule, or the
    type and text of the error making it raised."""
    try:
        rule = make()
    except ValueError as exc:
        return type(exc), str(exc)
    return rule.kind, rule.value, rule.label, tuple(rule.apply(g) for g in (0.5, 3.0, 1e200))


@pytest.mark.parametrize("cls, text, expected", [
    (Gamma2Rule, "equal", ("equal", None, "g2=g1", (0.5, 3.0, 1e200))),
    (Gamma2Rule, " EQUAL ", ("equal", None, "g2=g1", (0.5, 3.0, 1e200))),
    (Gamma2Rule, "quad", ("quadratic", None, "g2=g1+g1^2", (0.75, 12.0, math.inf))),
    (Gamma2Rule, "quadratic", ("quadratic", None, "g2=g1+g1^2", (0.75, 12.0, math.inf))),
    (Gamma2Rule, " Quad", ("quadratic", None, "g2=g1+g1^2", (0.75, 12.0, math.inf))),
    (Gamma2Rule, "db:10", ("fixed", 10.0, "g2=10", (10.0, 10.0, 10.0))),
    (Gamma2Rule, "db:5", ("fixed", _DB5, "g2=3.16228", (_DB5, _DB5, _DB5))),
    (Gamma2Rule, "DB:-3", ("fixed", _DB_MINUS3, "g2=0.501187", (_DB_MINUS3,) * 3)),
    (Gamma2Rule, "db:-inf", _bad("rule 'fixed' needs a positive finite value")),
    (Gamma2Rule, "db:", _bad("bad numeric field in rule 'db:'")),
    (Gamma2Rule, "db:x", _bad("bad numeric field in rule 'db:x'")),
    (Gamma2Rule, "db:<v>", _bad("bad numeric field in rule 'db:<v>'")),
    (Gamma2Rule, "db:nan", _bad("SNR in dB must not be NaN")),
    (Gamma2Rule, "db:inf", _bad("SNR in dB must be finite or -inf")),
    (Gamma2Rule, "db:5000", _bad("SNR of 5000.0 dB exceeds the float range")),
    (Gamma2Rule, "ratio:2.5", ("ratio", 2.5, "g2=2.5*g1", (1.25, 7.5, 2.4999999999999998e200))),
    (Gamma2Rule, "ratio:1e-300", ("ratio", 1e-300, "g2=1e-300*g1", (5e-301, 3e-300, 1e-100))),
    (Gamma2Rule, "ratio:-1", _bad("rule 'ratio' needs a positive finite value")),
    (Gamma2Rule, "ratio:0", _bad("rule 'ratio' needs a positive finite value")),
    (Gamma2Rule, "ratio:inf", _bad("rule 'ratio' needs a positive finite value")),
    (Gamma2Rule, "ratio:nan", _bad("rule 'ratio' needs a positive finite value")),
    (Gamma2Rule, "ratio:", _bad("bad numeric field in rule 'ratio:'")),
    (Gamma2Rule, "fixed", _bad("unrecognized gamma2 rule 'fixed'" + _G2_FORMS)),
    (Gamma2Rule, "ratio", _bad("unrecognized gamma2 rule 'ratio'" + _G2_FORMS)),
    (Gamma2Rule, "triangle", _bad("unrecognized gamma2 rule 'triangle'" + _G2_FORMS)),
    (Gamma2Rule, "", _bad("unrecognized gamma2 rule ''" + _G2_FORMS)),
    (Gamma2Rule, "equal:1", _bad("unrecognized gamma2 rule 'equal:1'" + _G2_FORMS)),
    (Gamma2Rule, "frac:0.1", _bad("unrecognized gamma2 rule 'frac:0.1'" + _G2_FORMS)),
    (Gamma2Rule, "zero", _bad("unrecognized gamma2 rule 'zero'" + _G2_FORMS)),
    (Gamma2Rule, "db :3", _bad("unrecognized gamma2 rule 'db :3'" + _G2_FORMS)),
    (Gamma0Rule, "zero", ("zero", None, "g0=0", (0.0, 0.0, 0.0))),
    (Gamma0Rule, " ZERO ", ("zero", None, "g0=0", (0.0, 0.0, 0.0))),
    (Gamma0Rule, "frac:0.1", ("fraction", 0.1, "g0=0.1*g1", (0.05, 0.30000000000000004, 1e199))),
    (Gamma0Rule, "frac:0", ("fraction", 0.0, "g0=0*g1", (0.0, 0.0, 0.0))),
    (Gamma0Rule, "frac:0.9999999999999999", ("fraction", 0.9999999999999999, "g0=1*g1",
                                             (0.49999999999999994, 2.9999999999999996,
                                              9.999999999999998e199))),
    (Gamma0Rule, "frac:1", _bad("rule 'fraction' needs a value in [0, 1)")),
    (Gamma0Rule, "frac:-0.1", _bad("rule 'fraction' needs a value in [0, 1)")),
    (Gamma0Rule, "frac:nan", _bad("rule 'fraction' needs a value in [0, 1)")),
    (Gamma0Rule, "frac:x", _bad("bad numeric field in rule 'frac:x'")),
    (Gamma0Rule, "frac:", _bad("bad numeric field in rule 'frac:'")),
    (Gamma0Rule, "frac:<f>", _bad("bad numeric field in rule 'frac:<f>'")),
    (Gamma0Rule, "db:-10", ("fixed", 0.1, "g0=0.1", (0.1, 0.1, 0.1))),
    (Gamma0Rule, "db:-inf", ("fixed", 0.0, "g0=0", (0.0, 0.0, 0.0))),
    (Gamma0Rule, "db:0", ("fixed", 1.0, "g0=1", (1.0, 1.0, 1.0))),
    (Gamma0Rule, "db:5000", _bad("SNR of 5000.0 dB exceeds the float range")),
    (Gamma0Rule, "db:nan", _bad("SNR in dB must not be NaN")),
    (Gamma0Rule, "db:inf", _bad("SNR in dB must be finite or -inf")),
    (Gamma0Rule, "db:", _bad("bad numeric field in rule 'db:'")),
    (Gamma0Rule, "fraction", _bad("unrecognized gamma0 rule 'fraction'" + _G0_FORMS)),
    (Gamma0Rule, "fixed", _bad("unrecognized gamma0 rule 'fixed'" + _G0_FORMS)),
    (Gamma0Rule, "none", _bad("unrecognized gamma0 rule 'none'" + _G0_FORMS)),
    (Gamma0Rule, "equal", _bad("unrecognized gamma0 rule 'equal'" + _G0_FORMS)),
    (Gamma0Rule, "ratio:2", _bad("unrecognized gamma0 rule 'ratio:2'" + _G0_FORMS)),
    (Gamma0Rule, "", _bad("unrecognized gamma0 rule ''" + _G0_FORMS)),
])
def test_rule_parse_pinned(cls, text, expected):
    assert _outcome(lambda: cls.parse(text)) == expected


@pytest.mark.parametrize("cls, kind, value, message", [
    (Gamma2Rule, "equal", 1.0, "rule 'equal' takes no value"),
    (Gamma2Rule, "quadratic", 0.0, "rule 'quadratic' takes no value"),
    (Gamma2Rule, "fixed", None, "rule 'fixed' needs a positive finite value"),
    (Gamma2Rule, "fixed", 0.0, "rule 'fixed' needs a positive finite value"),
    (Gamma2Rule, "fixed", -1.0, "rule 'fixed' needs a positive finite value"),
    (Gamma2Rule, "fixed", math.inf, "rule 'fixed' needs a positive finite value"),
    (Gamma2Rule, "fixed", math.nan, "rule 'fixed' needs a positive finite value"),
    (Gamma2Rule, "ratio", None, "rule 'ratio' needs a positive finite value"),
    (Gamma2Rule, "ratio", -2.0, "rule 'ratio' needs a positive finite value"),
    (Gamma2Rule, "quad", None, "unknown gamma2 rule kind 'quad'"),
    (Gamma2Rule, "zero", None, "unknown gamma2 rule kind 'zero'"),
    (Gamma2Rule, "fraction", 0.1, "unknown gamma2 rule kind 'fraction'"),
    (Gamma2Rule, "", None, "unknown gamma2 rule kind ''"),
    (Gamma0Rule, "zero", 0.0, "rule 'zero' takes no value"),
    (Gamma0Rule, "fraction", None, "rule 'fraction' needs a value in [0, 1)"),
    (Gamma0Rule, "fraction", 1.0, "rule 'fraction' needs a value in [0, 1)"),
    (Gamma0Rule, "fraction", -0.1, "rule 'fraction' needs a value in [0, 1)"),
    (Gamma0Rule, "fraction", math.nan, "rule 'fraction' needs a value in [0, 1)"),
    (Gamma0Rule, "fraction", math.inf, "rule 'fraction' needs a value in [0, 1)"),
    (Gamma0Rule, "fixed", None, "rule 'fixed' needs a nonnegative finite value"),
    (Gamma0Rule, "fixed", -1.0, "rule 'fixed' needs a nonnegative finite value"),
    (Gamma0Rule, "fixed", math.inf, "rule 'fixed' needs a nonnegative finite value"),
    (Gamma0Rule, "fixed", math.nan, "rule 'fixed' needs a nonnegative finite value"),
    (Gamma0Rule, "equal", None, "unknown gamma0 rule kind 'equal'"),
    (Gamma0Rule, "ratio", 2.0, "unknown gamma0 rule kind 'ratio'"),
    (Gamma0Rule, "frac", 0.1, "unknown gamma0 rule kind 'frac'"),
])
def test_rule_constructor_errors_pinned(cls, kind, value, message):
    assert _outcome(lambda: cls(kind, value)) == _bad(message)


# ------------------------------------------------------------ SweepSpec / run


def test_spec_grid():
    spec = SweepSpec(0.0, 30.0, 1.0)
    grid = spec.grid_db()
    assert len(grid) == 31
    assert grid[0] == 0.0 and grid[-1] == 30.0
    assert SweepSpec(5.0, 5.0, 1.0).grid_db() == [5.0]
    # endpoint inclusion despite floating-point steps
    assert len(SweepSpec(0.0, 1.0, 0.1).grid_db()) == 11


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(0.0, 30.0, 0.0)
    with pytest.raises(ValueError):
        SweepSpec(10.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SweepSpec(0.0, 1.0, 1.0, schemes=())
    with pytest.raises(ValueError):
        SweepSpec(0.0, 1.0, 1.0, schemes=("DF", "XYZ"))
    with pytest.raises(ValueError):
        SweepSpec(0.0, 1.0, 1.0, schemes=("DF", "df"))
    with pytest.raises(ValueError):
        SweepSpec(0.0, 1.0, 1.0, gamma0_rules=())
    with pytest.raises(ValueError, match="duplicate gamma0 rules"):
        SweepSpec(0.0, 1.0, 1.0, gamma0_rules=tuple(
            Gamma0Rule.parse(r) for r in ("frac:0.99", "frac:0.9899999999999999")))
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("start_db", "stop_db", "step_db"):
            bounds = {"start_db": 0.0, "stop_db": 1.0, "step_db": 1.0, name: bad}
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SweepSpec(**bounds)


def test_spec_grid_sizes_are_bounded():
    # rejected from the point count alone, before any list is built
    for start, stop, step in ((0.0, 30.0, 1e-9), (-1e308, 1e308, 1.0), (0.0, 1.0, 1e-320)):
        with pytest.raises(ValueError, match="points"):
            SweepSpec(start, stop, step)
    largest = SweepSpec(0.0, oracle.MAX_GRID_POINTS - 1.0, 1.0)
    assert largest.grid_db()[-1] == oracle.MAX_GRID_POINTS - 1.0
    with pytest.raises(ValueError):
        SweepSpec(0.0, float(oracle.MAX_GRID_POINTS), 1.0)


def test_spec_cells_are_bounded(monkeypatch):
    # at the grid cap the default layout with verification fits, and 10
    # gamma0 rules (47 columns) do not
    top = oracle.MAX_GRID_POINTS - 1.0
    SweepSpec(0.0, top, 1.0, verify=True)
    rules = tuple(Gamma0Rule("fraction", k / 10) for k in range(10))
    with pytest.raises(ValueError, match="1 times 47 output columns has more than"):
        SweepSpec(0.0, top, 1.0, gamma0_rules=rules, verify=True)

    monkeypatch.setattr(sweep, "MAX_SWEEP_CELLS", 100_000, raising=False)
    # gamma1_db, gamma2_db, gamma0_db, AF, DNF: neither scheme has an oracle
    SweepSpec(0.0, 19_999.0, 1.0, schemes=("AF", "DNF"), verify=True)
    with pytest.raises(ValueError, match="0:20000:1 times 5 output columns has more than 100000"):
        SweepSpec(0.0, 20_000.0, 1.0, schemes=("AF", "DNF"), verify=True)
    # verification adds the oracle and deviation columns of DF and JDF
    SweepSpec(0.0, 9_999.0, 1.0)
    with pytest.raises(ValueError, match="times 11 output columns has more than 100000 cells"):
        SweepSpec(0.0, 9_999.0, 1.0, verify=True)
    # rejected before any list over the grid is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="times 25 output columns has more than 100000"):
            SweepSpec(0.0, 99_999.0, 1.0, gamma0_rules=rules)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # one list of 10^5 floats takes 800 kB and more


def test_run_sweep_single_point_matches_closed_forms():
    spec = SweepSpec(0.0, 0.0, 1.0, gamma0_rules=(Gamma0Rule("zero"), Gamma0Rule("fraction", 0.1)))
    (row,) = run_sweep(spec)
    assert row.gamma1_db == 0.0 and row.gamma2_db == 0.0
    assert row.gamma0_db == (-math.inf, -10.0)
    assert math.isclose(row.rate("DF[g0=0]"), 2.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(row.rate("DF[g0=0.1*g1]"), 0.6986908164233079, rel_tol=1e-12)
    assert math.isclose(row.rate("AF"), 0.32192809488736235, rel_tol=1e-12)
    assert math.isclose(row.rate("JDF"), 0.8842282173954806, rel_tol=1e-12)
    assert row.rate("DNF") == 1.0
    with pytest.raises(KeyError):
        row.rate("DF")


def test_run_sweep_respects_scheme_subset():
    spec = SweepSpec(0.0, 2.0, 1.0, schemes=("AF", "DNF"))
    rows = run_sweep(spec)
    assert [label for label, _ in rows[0].rates] == ["AF", "DNF"]


def test_run_sweep_flags_bad_rule_with_grid_point():
    # a fixed gamma2 below gamma1 breaks the ordering from 11 dB upward
    spec = SweepSpec(0.0, 20.0, 1.0, gamma2_rule=Gamma2Rule.parse("db:10"))
    with pytest.raises(SweepConfigError) as err:
        run_sweep(spec)
    assert "gamma1 = 11 dB" in str(err.value)

    # direct link catches up with gamma1 via a fixed gamma0
    spec = SweepSpec(0.0, 10.0, 1.0, gamma0_rules=(Gamma0Rule.parse("db:5"),))
    with pytest.raises(SweepConfigError) as err:
        run_sweep(spec)
    assert "g0=" in str(err.value)


def test_run_sweep_verification_deviations_are_tiny():
    spec = SweepSpec(
        0.0, 10.0, 5.0,
        gamma0_rules=(Gamma0Rule("zero"), Gamma0Rule("fraction", 0.1)),
        verify=True,
    )
    rows = run_sweep(spec)
    for row in rows:
        assert len(row.oracle_rates) == 3  # two DF columns + JDF
        for _, deviation in row.deviations:
            assert deviation <= 1e-6


def test_run_sweep_verification_catches_wrong_formula(monkeypatch):
    # the DF rule the sweep's DF column (and df_max_rate) applies
    real = schemes._df_max

    def corrupted(c0, c1, c2):
        rate, theta = real(c0, c1, c2)
        return rate * 1.001, theta

    monkeypatch.setattr(sweep.schemes, "_df_max", corrupted)
    with pytest.raises(VerificationError):
        run_sweep(SweepSpec(0.0, 0.0, 1.0, verify=True))


def test_run_sweep_verification_rejects_a_nan_rate(monkeypatch):
    # a NaN deviation is not above the tolerance, yet it must fail
    real = schemes._df_max
    monkeypatch.setattr(sweep.schemes, "_df_max",
                        lambda c0, c1, c2: (math.nan, real(c0, c1, c2)[1]))
    with pytest.raises(VerificationError, match="relative deviation nan"):
        run_sweep(SweepSpec(0.0, 0.0, 1.0, verify=True))


def _closed_form_rows(spec):
    """The sweep evaluated point by point through the public closed forms."""
    rows = []
    for db in spec.grid_db():
        g1 = db_to_linear(db)
        g2 = spec.gamma2_rule.apply(g1)
        configs = [make_config(0.0, g1, g2)] + [
            make_config(rule.apply(g1), g1, g2) for rule in spec.gamma0_rules
        ]
        rows.append(tuple(
            (label, entry.best(configs[k]).rate)
            for label, entry, k in sweep._columns(spec.schemes, spec.gamma0_rules)
        ))
    return rows


gamma2_rules = st.one_of(
    st.just("equal"), st.just("quad"),
    st.floats(1.0, 20.0).map(lambda k: f"ratio:{k!r}"),
    st.floats(45.0, 60.0).map(lambda v: f"db:{v!r}"),  # above every gamma1 drawn
)
gamma0_rules = st.lists(
    st.one_of(
        st.just("zero"),
        st.floats(0.0, 0.99).map(lambda f: f"frac:{f!r}"),
        st.floats(-60.0, -25.0).map(lambda v: f"db:{v!r}"),  # below every gamma1 drawn
    ),
    # distinct values can share a column label (0.99 and 0.9899999999999999
    # both read "g0=0.99*g1"), which SweepSpec rejects
    min_size=1, max_size=3, unique_by=lambda rule: Gamma0Rule.parse(rule).label,
)
scheme_subsets = st.lists(st.sampled_from(sweep.SCHEME_NAMES), min_size=1, max_size=4, unique=True)


@given(st.floats(-20.0, 40.0), st.floats(0.0, 5.0), st.floats(0.05, 2.0),
       gamma2_rules, gamma0_rules, scheme_subsets)
@settings(max_examples=150, deadline=None)
def test_sweep_columns_equal_the_closed_forms(start, span, step, rule2, rules0, names):
    spec = SweepSpec(
        start, start + span, step,
        gamma2_rule=Gamma2Rule.parse(rule2),
        gamma0_rules=tuple(Gamma0Rule.parse(r) for r in rules0),
        schemes=tuple(names),
    )
    result = run_sweep(spec)
    assert [row.rates for row in result] == _closed_form_rows(spec)


def test_sweep_result_is_a_sequence_of_rows():
    result = run_sweep(comparison_spec("equal", verify=True))
    rows = list(result)
    assert len(result) == len(rows) == 31
    assert result[-1] == rows[30] and result[3] == rows[3]
    assert result[2:5] == rows[2:5] and type(result[2:5]) is list
    with pytest.raises(IndexError):
        result[31]
    assert rows[3].gamma0_labels == ("g0=0", "g0=0.1*g1")
    assert [label for label, _ in rows[3].oracle_rates] == ["DF[g0=0]", "DF[g0=0.1*g1]", "JDF"]
    # a row swapped into a slice, as the benchmark's self-check builds them
    scaled = dataclasses.replace(rows[4], rates=tuple((k, 2 * v) for k, v in rows[4].rates))
    edited = result[:4] + [scaled] + result[5:]
    assert len(edited) == 31 and edited[4].rate("DNF") == 2 * result[4].rate("DNF")


def test_run_sweep_reports_the_first_failing_point(monkeypatch):
    # the stages run in turn, each raising at its first failing point:
    # gamma1 conversion, config screen, then the oracle checks.  Here the
    # fixed gamma2 falls below gamma1 from -3185 dB
    spec = SweepSpec(-3200.0, -3180.0, 5.0, gamma2_rule=Gamma2Rule.parse("db:-3190"))
    with pytest.raises(SweepConfigError, match="gamma1 = -3185 dB"):
        run_sweep(spec)
    with pytest.raises(SweepConfigError, match="gamma1 = -3185 dB"):
        run_sweep(dataclasses.replace(spec, schemes=("AF", "DNF")))
    # gamma1 overflows from 3085 dB; gamma2 = 10**300 falls below it earlier,
    # from 3005 dB, but the gamma1 conversion runs first
    spec = SweepSpec(2995.0, 3090.0, 5.0, gamma2_rule=Gamma2Rule.parse("db:3000"))
    with pytest.raises(ValueError, match="at gamma1 = 3085 dB") as err:
        run_sweep(spec)
    assert not isinstance(err.value, SweepConfigError)
    # at one point an invalid config is reported before any closed form
    spec = SweepSpec(-3220.0, -3200.0, 5.0, gamma0_rules=(Gamma0Rule.parse("db:-3205"),))
    with pytest.raises(SweepConfigError, match="g0=.* at gamma1 = -3220 dB"):
        run_sweep(spec)
    # a DF rule wrong from 1 dB on
    real = schemes._df_max
    monkeypatch.setattr(sweep.schemes, "_df_max", lambda c0, c1, c2: (
        real(c0, c1, c2)[0] * (1.001 if c1 > 1.0 else 1.0), real(c0, c1, c2)[1]))
    with pytest.raises(VerificationError, match="^DF closed form .* at gamma1 = 1 dB"):
        run_sweep(SweepSpec(0.0, 2.0, 1.0, verify=True))


# ---------------------------------------------------------------- figure sweeps


def test_equal_rule_sweep_invariants():
    rows = run_sweep(comparison_spec("equal"))
    assert len(rows) == 31
    for row in rows:
        c1 = capacity(db_to_linear(row.gamma1_db))
        assert row.rate("DNF") == c1  # bound is exact, not approximate
        for label, value in row.rates:
            if label != "DNF":
                assert value < c1
        assert row.rate("DF[g0=0.1*g1]") > row.rate("DF[g0=0]")
        assert row.rate("JDF") < row.rate("DNF")


def test_quadratic_rule_sweep_jdf_meets_bound():
    rows = run_sweep(comparison_spec("quad"))
    for row in rows:
        assert math.isclose(row.rate("JDF"), row.rate("DNF"), rel_tol=1e-9)


def test_rate_columns_monotone_in_gamma1():
    for kind in ("equal", "quad"):
        rows = run_sweep(comparison_spec(kind))
        labels = [label for label, _ in rows[0].rates]
        for label in labels:
            series = [row.rate(label) for row in rows]
            assert all(b > a for a, b in zip(series[:-1], series[1:])), (kind, label)


def test_cross_rule_comparisons():
    equal_rows = run_sweep(comparison_spec("equal"))
    quad_rows = run_sweep(comparison_spec("quad"))
    for eq, qu in zip(equal_rows, quad_rows):
        assert eq.rate("DNF") == qu.rate("DNF")  # bound ignores gamma2
        assert qu.rate("AF") > eq.rate("AF")
        assert qu.rate("DF[g0=0]") > eq.rate("DF[g0=0]")
        assert qu.rate("DF[g0=0.1*g1]") > eq.rate("DF[g0=0.1*g1]")


# ---------------------------------------------------------------- CSV / plot


def test_emit_csv_layout_and_determinism():
    spec = SweepSpec(0.0, 2.0, 1.0, gamma0_rules=(Gamma0Rule("zero"), Gamma0Rule("fraction", 0.1)))
    rows = run_sweep(spec)
    text = emit_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "gamma1_db,gamma2_db,gamma0_db[g0=0],gamma0_db[g0=0.1*g1],"
        "DF[g0=0],DF[g0=0.1*g1],AF,JDF,DNF"
    )
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "-inf" and first[3] == "-10"
    assert first[4] == "0.666666667"  # nine significant digits

    assert emit_csv(rows) == text

    with pytest.raises(ValueError):
        emit_csv([])


def test_emit_csv_single_gamma0_column():
    rows = run_sweep(SweepSpec(0.0, 1.0, 1.0))
    header = emit_csv(rows).split("\n")[0]
    assert header == "gamma1_db,gamma2_db,gamma0_db,DF,AF,JDF,DNF"


def test_emit_csv_includes_verification_columns():
    rows = run_sweep(SweepSpec(0.0, 0.0, 1.0, verify=True))
    header = emit_csv(rows).split("\n")[0].split(",")
    assert "oracle[DF]" in header and "deviation[JDF]" in header


def test_emit_plot_script():
    spec = comparison_spec("equal")
    rows = run_sweep(spec)
    text = emit_plot_script(rows, "curves.csv")
    assert text.count("with lines") == 5  # two DF curves + AF + JDF + DNF
    assert "'curves.csv'" in text
    assert "DNF (upper bound)" in text
    assert "using 1:5" in text  # first rate column right after the SNR columns
    # gnuplot reads '' as one quote inside a single-quoted string
    assert emit_plot_script(rows, "it's.csv").count("'it''s.csv'") == 5


def test_emit_plot_script_needs_rows_and_columns():
    with pytest.raises(ValueError):
        emit_plot_script([], "x.gp")
    rows = run_sweep(SweepSpec(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        emit_plot_script(dataclasses.replace(rows, rates=()), "x.gp")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("kind", ["equal", "quad"])
@pytest.mark.parametrize("verify", [False, True])
def test_comparison_csv_matches_golden(kind, verify):
    # frozen output of the comparison sweeps; any byte change is a behaviour change
    name = f"comparison_{kind}{'_verify' if verify else ''}.csv"
    text = emit_csv(run_sweep(comparison_spec(kind, verify=verify)))
    assert text.encode() == (GOLDEN / name).read_bytes()
