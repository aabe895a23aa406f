"""SNR sweeps over the scheme rates, with CSV and gnuplot output.

A sweep walks gamma1 over a dB grid; gamma2 and gamma0 follow from rules
(equal, quadratic growth, fixed value, fixed ratio).  Several gamma0 rules
may run side by side, producing one DF column each; the other schemes do
not use the direct link.

A sweep is computed column by column: each link SNR and capacity is one
list over the grid, and each scheme's column applies to them the
capacity-level rule in :mod:`schemes` that its closed form also calls.
:class:`SweepResult` keeps the lists; indexing it gives a
:class:`SweepRow`.  With ``verify=True`` every closed-form optimum is
re-checked against the brute-force oracle.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from . import schemes
from .channel import MAX_GRID_POINTS, LinkConfig, capacity, db_to_linear, linear_to_db, make_config

VERIFY_TOLERANCE = 1e-6  # relative deviation allowed between formula and oracle
MAX_SWEEP_CELLS = 16 * MAX_GRID_POINTS  # largest grid points x output columns of a sweep


@dataclass(frozen=True)
class SchemeEntry:
    """One scheme: its closed form in :mod:`schemes`, its brute-force
    oracle in :mod:`oracle` (or None), whether it takes gamma0 (one column
    per gamma0 rule), the text ``twrelay rate`` prints after its rate and
    its sweep column: the rates at every grid point, from the lists
    ``(g0, g1, g2, c0, c1, c2)`` of the link SNRs and capacities over the
    grid, ``g0`` and ``c0`` those of the column's gamma0 rule.
    Functions are held by name and looked up at each call, so a function
    rebound on its module (a test double, a profiler) is the one called.
    """

    closed_form: str
    oracle: Optional[str]
    uses_gamma0: bool
    detail: Callable[[schemes.SchemeRate, LinkConfig], str]
    column: Callable[..., list[float]]

    def best(self, config: LinkConfig) -> schemes.SchemeRate:
        return getattr(schemes, self.closed_form)(config)

    def check(self, config: LinkConfig, closed: float, column: str,
              where: str) -> tuple[float, float]:
        """The oracle's rate at ``config`` and the relative deviation of the
        closed-form rate ``closed`` from it, at most ``VERIFY_TOLERANCE`` or
        else a :class:`VerificationError` naming ``column`` and ``where``."""
        from . import oracle  # numpy, which only verification needs

        best = getattr(oracle, self.oracle)(config).best_rate
        deviation = abs(best - closed) / closed
        if not deviation <= VERIFY_TOLERANCE:  # a NaN rate fails too
            raise VerificationError(
                f"{column} closed form {closed!r} deviates from oracle {best!r} at {where} "
                f"(relative deviation {deviation:.3g}, tolerance {VERIFY_TOLERANCE:g})"
            )
        return best, deviation


def _af_detail(best: schemes.SchemeRate, config: LinkConfig) -> str:
    """AF's two directions, with the terminals as given: the breakdown uses
    the normalized labels, which a swapped config exchanged."""
    pair = best.breakdown.rate_pair
    a_to_c, c_to_a = (pair.rate_c, pair.rate_a) if config.swapped else (pair.rate_a, pair.rate_c)
    return f"(A->C {a_to_c:.9g}, C->A {c_to_a:.9g})"


def _as_given(share: float, config: LinkConfig) -> float:
    """DF's theta or JDF's lam between the normalized labels and the
    terminals as given, either way: a swapped config maps x to 1 - x."""
    return 1.0 - share if config.swapped else share


SCHEME_TABLE = {
    "DF": SchemeEntry(
        "df_max_rate", "grid_max_df_theta", True,
        lambda best, config: f"theta* = {_as_given(best.parameter, config):.9g}  "
                             f"[{best.breakdown.case}]",
        lambda g0, g1, g2, c0, c1, c2: [
            rate for rate, _ in map(schemes._df_max_at, g0, g1, g2, c0, c1, c2)],
    ),
    "AF": SchemeEntry(
        "af_rate", None, False, _af_detail,
        lambda g0, g1, g2, c0, c1, c2: [af[-1] for af in map(schemes._af_two_way, g1, g2)],
    ),
    "JDF": SchemeEntry(
        "jdf_max_rate", "grid_max_jdf_lambda", False,
        lambda best, config: f"lambda* = {_as_given(best.parameter, config):.9g}  "
                             f"[{best.breakdown.regime}]",
        lambda g0, g1, g2, c0, c1, c2: [rate for rate, _ in map(schemes._jdf_max, g1, g2, c1)],
    ),
    "DNF": SchemeEntry("dnf_upper_bound", None, False, lambda best, config: "upper bound",
                       lambda g0, g1, g2, c0, c1, c2: list(c1)),
}

SCHEME_NAMES = tuple(SCHEME_TABLE)


class SweepConfigError(ValueError):
    """A sweep rule produced an invalid link configuration somewhere."""


class VerificationError(RuntimeError):
    """A closed-form rate disagrees with the brute-force oracle."""


class _Kind(NamedTuple):
    """One rule kind: the spellings ``parse`` accepts (``prefix:<x>`` reads
    a number, in dB after ``db:``), its SNR from ``(value, gamma1)``, its
    label (formatted with the value) and, unless it takes no value, what
    the value must be and the test of it."""

    forms: tuple[str, ...]
    formula: Callable[[Optional[float], float], float]
    label: str
    needs: Optional[str] = None
    valid: Optional[Callable[[float], bool]] = None


_POSITIVE = ("a positive finite value", lambda v: math.isfinite(v) and v > 0)
_NONNEGATIVE = ("a nonnegative finite value", lambda v: math.isfinite(v) and v >= 0)
_FRACTION = ("a value in [0, 1)", lambda v: 0.0 <= v < 1.0)


@dataclass(frozen=True)
class _Rule:
    """A ``(kind, value)`` whose kinds are the rows of the subclass's
    ``_KINDS`` table; ``_SNR`` names the SNR it sets."""

    kind: str
    value: Optional[float] = None

    def __post_init__(self):
        row = self._KINDS.get(self.kind)
        if row is None:
            raise ValueError(f"unknown {self._SNR} rule kind {self.kind!r}")
        if row.needs is None and self.value is not None:
            raise ValueError(f"rule {self.kind!r} takes no value")
        if row.needs is not None and (self.value is None or not row.valid(self.value)):
            raise ValueError(f"rule {self.kind!r} needs {row.needs}")

    @classmethod
    def parse(cls, text: str):
        """Parse one of the forms in the kinds table, case-insensitively."""
        t = text.strip().lower()
        for kind, row in cls._KINDS.items():
            for form in row.forms:
                prefix, placeholder, _ = form.partition("<")
                if not placeholder and t == form:
                    return cls(kind)
                if placeholder and t.startswith(prefix):
                    try:
                        value = float(t[len(prefix):])
                    except ValueError:
                        raise ValueError(f"bad numeric field in rule {text!r}") from None
                    return cls(kind, db_to_linear(value) if prefix == "db:" else value)
        *forms, last = (row.forms[0] for row in cls._KINDS.values())
        raise ValueError(f"unrecognized {cls._SNR} rule {text!r} "
                         f"(expected {', '.join(forms)} or {last})")

    def apply(self, gamma1: float) -> float:
        return self._KINDS[self.kind].formula(self.value, gamma1)

    @property
    def label(self) -> str:
        return self._KINDS[self.kind].label.format(self.value)


class Gamma2Rule(_Rule):
    """How gamma2 follows gamma1 along the sweep.

    Kinds: ``equal`` (gamma2 = gamma1), ``quadratic``
    (gamma2 = gamma1 + gamma1^2), ``fixed`` (constant linear value),
    ``ratio`` (gamma2 = value * gamma1).
    """

    _SNR = "gamma2"
    _KINDS = {
        "equal": _Kind(("equal",), lambda v, g: g, "g2=g1"),
        "quadratic": _Kind(("quad", "quadratic"), lambda v, g: g + g * g, "g2=g1+g1^2"),
        "fixed": _Kind(("db:<v>",), lambda v, g: v, "g2={:g}", *_POSITIVE),
        "ratio": _Kind(("ratio:<k>",), lambda v, g: v * g, "g2={:g}*g1", *_POSITIVE),
    }


class Gamma0Rule(_Rule):
    """How the direct-link gamma0 follows gamma1 along the sweep.

    Kinds: ``zero`` (no direct link), ``fraction``
    (gamma0 = value * gamma1 with value in [0, 1)), ``fixed`` (constant
    linear value).
    """

    _SNR = "gamma0"
    _KINDS = {
        "zero": _Kind(("zero",), lambda v, g: 0.0, "g0=0"),
        "fraction": _Kind(("frac:<f>",), lambda v, g: v * g, "g0={:g}*g1", *_FRACTION),
        "fixed": _Kind(("db:<v>",), lambda v, g: v, "g0={:g}", *_NONNEGATIVE),
    }


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one sweep."""

    start_db: float
    stop_db: float
    step_db: float
    gamma2_rule: Gamma2Rule = Gamma2Rule("equal")
    gamma0_rules: tuple[Gamma0Rule, ...] = (Gamma0Rule("zero"),)
    schemes: tuple[str, ...] = SCHEME_NAMES
    verify: bool = False

    def __post_init__(self):
        for name in ("start_db", "stop_db", "step_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.step_db <= 0:
            raise ValueError("step_db must be positive")
        if self.stop_db < self.start_db:
            raise ValueError("stop_db must not precede start_db")
        object.__setattr__(self, "gamma0_rules", tuple(self.gamma0_rules))
        object.__setattr__(self, "schemes", _checked_schemes(self.schemes, self.gamma0_rules))
        # both checked before grid_db builds the list; _steps may be inf
        grid = f"the gamma1 grid {self.start_db:g}:{self.stop_db:g}:{self.step_db:g}"
        if self._steps() >= MAX_GRID_POINTS:
            raise ValueError(f"{grid} has more than {MAX_GRID_POINTS} points")
        # the CSV's columns: gamma1, gamma2, one gamma0 per rule, the rates
        # and, with verify, the oracle rate and deviation of each checked one
        columns = _columns(self.schemes, self.gamma0_rules)
        checked = sum(entry.oracle is not None for _, entry, _ in columns) if self.verify else 0
        width = 2 + len(self.gamma0_rules) + len(columns) + 2 * checked
        if (int(self._steps()) + 1) * width > MAX_SWEEP_CELLS:
            raise ValueError(f"{grid} times {width} output columns has more than "
                             f"{MAX_SWEEP_CELLS} cells")

    def _steps(self) -> float:
        # whole steps from start to stop, padded so that rounding just
        # below an integer still reaches the stop point
        return (self.stop_db - self.start_db) / self.step_db + 1e-9

    def grid_db(self) -> list[float]:
        """The gamma1 grid in dB, inclusive of both endpoints."""
        count = int(math.floor(self._steps())) + 1
        return [self.start_db + i * self.step_db for i in range(count)]


@dataclass(frozen=True)
class SweepRow:
    """Rates at one gamma1 grid point: one row of a :class:`SweepResult`.

    ``rates`` pairs column labels (``DF``, or ``DF[g0=...]`` with several
    gamma0 rules, plus ``AF``/``JDF``/``DNF``) with two-way rates, in
    output order.  With verification on, ``oracle_rates`` and
    ``deviations`` carry the oracle's answers and the relative gaps for
    the parameterized schemes.
    """

    gamma1_db: float
    gamma2_db: float
    gamma0_db: tuple[float, ...]
    gamma0_labels: tuple[str, ...]
    rates: tuple[tuple[str, float], ...]
    oracle_rates: tuple[tuple[str, float], ...] = ()
    deviations: tuple[tuple[str, float], ...] = ()

    def rate(self, column: str) -> float:
        for label, value in self.rates:
            if label == column:
                return value
        raise KeyError(column)


@dataclass(frozen=True)
class SweepResult(SequenceABC):
    """A sweep as one list per CSV column, over the gamma1 grid.

    ``gamma0_db`` holds one list per gamma0 rule; ``rates``,
    ``oracle_rates`` and ``deviations`` pair each column label with its
    list.  As a sequence it has one :class:`SweepRow` per grid point,
    built when indexed; a slice is a plain list of rows.
    """

    gamma1_db: list[float]
    gamma2_db: list[float]
    gamma0_db: tuple[list[float], ...]
    gamma0_labels: tuple[str, ...]
    rates: tuple[tuple[str, list[float]], ...]
    oracle_rates: tuple[tuple[str, list[float]], ...] = ()
    deviations: tuple[tuple[str, list[float]], ...] = ()

    def __len__(self) -> int:
        return len(self.gamma1_db)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]

        def at(group):
            return tuple((label, column[i]) for label, column in group)

        return SweepRow(
            self.gamma1_db[i], self.gamma2_db[i], tuple(column[i] for column in self.gamma0_db),
            self.gamma0_labels, at(self.rates), at(self.oracle_rates), at(self.deviations),
        )


def _per_rule(name: str, labels: Sequence[str]) -> list[str]:
    """Column names for a quantity taken once per gamma0 rule: ``name``
    alone for a single rule, else ``name[label]`` for each."""
    if len(labels) == 1:
        return [name]
    return [f"{name}[{label}]" for label in labels]


def _checked_schemes(names: Sequence[str], gamma0_rules: Sequence[Gamma0Rule]) -> tuple[str, ...]:
    """The scheme names upper-cased, once they and the gamma0 rules are
    checked to give one column each: both lists non-empty, every name
    known, no name and no gamma0 rule label repeated."""
    if not gamma0_rules:
        raise ValueError("at least one gamma0 rule is required")
    labels = [rule.label for rule in gamma0_rules]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate gamma0 rules (labels {', '.join(labels)})")
    normalized = tuple(s.upper() for s in names)
    if not normalized:
        raise ValueError("at least one scheme is required")
    for s in normalized:
        if s not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {s!r} (expected one of {SCHEME_NAMES})")
    if len(set(normalized)) != len(normalized):
        raise ValueError("duplicate scheme names")
    return normalized


def _columns(names: Sequence[str], gamma0_rules: Sequence[Gamma0Rule]) -> list[tuple]:
    """(label, entry, k) of each output column, in ``names`` order.

    Column k runs on config k of ``[gamma0 = 0, one config per gamma0
    rule]``: a scheme that takes gamma0 gets one column per rule.
    """
    columns = []
    for name in names:
        entry = SCHEME_TABLE[name]
        if entry.uses_gamma0:
            labels = _per_rule(name, [rule.label for rule in gamma0_rules])
            columns += [(label, entry, k) for k, label in enumerate(labels, start=1)]
        else:
            columns.append((name, entry, 0))
    return columns


def _check_point(spec: SweepSpec, db: float, gamma1: float, gamma2: float) -> None:
    """Raise :class:`SweepConfigError` if a config at grid point ``db`` is invalid."""
    if gamma2 < gamma1:
        # the columns label gamma1 as the weaker link; silently
        # swapping the roles would falsify every curve to the right
        raise SweepConfigError(
            f"gamma2 rule '{spec.gamma2_rule.label}' puts gamma2 below gamma1 "
            f"at gamma1 = {db:g} dB"
        )
    gamma0s = [(0.0, "the relay links")] + [
        (rule.apply(gamma1), f"gamma0 rule '{rule.label}'") for rule in spec.gamma0_rules
    ]
    for gamma0, what in gamma0s:
        try:
            make_config(gamma0, gamma1, gamma2)
        except ValueError as exc:
            raise SweepConfigError(
                f"invalid configuration for {what} at gamma1 = {db:g} dB: {exc}"
            ) from exc


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate all requested schemes over the gamma1 grid.

    The stages run in turn, and each raises at its first failing grid
    point: the gamma1 conversion (ValueError where it overflows), the
    config screen (:class:`SweepConfigError` where a rule gives an invalid
    configuration), then, with verification on, the oracle checks
    (:class:`VerificationError` where a closed form strays from its oracle
    by more than ``VERIFY_TOLERANCE``).
    """
    grid = spec.grid_db()
    g1 = []
    try:
        for db in grid:
            g1.append(db_to_linear(db))
    except ValueError as exc:
        raise ValueError(f"{exc} at gamma1 = {grid[len(g1)]:g} dB") from exc
    g2 = [spec.gamma2_rule.apply(g) for g in g1]
    # config k of _columns: no direct link, then one per gamma0 rule
    zeros = [0.0] * len(grid)
    g0 = [zeros] + [[rule.apply(g) for g in g1] for rule in spec.gamma0_rules]
    # the config checks run only where this screen fails
    suspect = {i for i, (a, b) in enumerate(zip(g1, g2)) if not 0.0 < a <= b < math.inf}
    for column in g0[1:]:
        suspect.update(i for i, (z, a) in enumerate(zip(column, g1)) if not 0.0 <= z < a)
    for i in sorted(suspect):
        _check_point(spec, grid[i], g1[i], g2[i])
    c1, c2 = list(map(capacity, g1)), list(map(capacity, g2))
    c0 = [zeros] + [list(map(capacity, column)) for column in g0[1:]]  # C(0) is 0.0

    columns = _columns(spec.schemes, spec.gamma0_rules)
    rates = tuple((label, entry.column(g0[k], g1, g2, c0[k], c1, c2))
                  for label, entry, k in columns)
    checked = [(label, entry, k, rate) for (label, entry, k), (_, rate) in zip(columns, rates)
               if spec.verify and entry.oracle is not None]
    oracle_rates = tuple((label, []) for label, *_ in checked)
    deviations = tuple((label, []) for label, *_ in checked)
    for i, db in enumerate(grid):
        for (label, entry, k, rate), (_, best), (_, gap) in zip(checked, oracle_rates, deviations):
            config = make_config(g0[k][i], g1[i], g2[i])
            oracle_rate, deviation = entry.check(config, rate[i], label, f"gamma1 = {db:g} dB")
            best.append(oracle_rate)
            gap.append(deviation)
    return SweepResult(
        gamma1_db=grid,
        gamma2_db=[linear_to_db(g) for g in g2],
        gamma0_db=tuple([linear_to_db(g) for g in column] for column in g0[1:]),
        gamma0_labels=tuple(rule.label for rule in spec.gamma0_rules),
        rates=rates,
        oracle_rates=oracle_rates,
        deviations=deviations,
    )


def _csv_header(result: SweepResult) -> list[str]:
    header = ["gamma1_db", "gamma2_db", *_per_rule("gamma0_db", result.gamma0_labels)]
    header.extend(label for label, _ in result.rates)
    header.extend(f"oracle[{label}]" for label, _ in result.oracle_rates)
    header.extend(f"deviation[{label}]" for label, _ in result.deviations)
    return header


def emit_csv(rows: SweepResult) -> str:
    """Render a sweep as CSV.

    Floats are printed with nine significant digits; a zero gamma0 prints
    as ``-inf`` dB.  The byte content is a pure function of the columns.
    """
    if not rows:
        raise ValueError("no rows to emit")
    columns = [rows.gamma1_db, rows.gamma2_db, *rows.gamma0_db]
    for group in (rows.rates, rows.oracle_rates, rows.deviations):
        columns.extend(column for _, column in group)
    line = ",".join(["{:.9g}"] * len(columns)).format
    return ",".join(_csv_header(rows)) + "\n" + "\n".join(map(line, *columns)) + "\n"


def emit_plot_script(rows: SweepResult, csv_path: str) -> str:
    """Render a gnuplot script plotting every scheme column of a sweep
    from the data file ``csv_path``.  The DNF curve is titled as an upper
    bound.
    """
    if not rows:
        raise ValueError("no rows to plot")
    header = _csv_header(rows)
    rate_labels = [label for label, _ in rows.rates]
    if not rate_labels:
        raise ValueError("no scheme columns to plot")
    quoted = "'" + csv_path.replace("'", "''") + "'"  # gnuplot doubles a quote in '...'
    curves = []
    for label in rate_labels:
        column = header.index(label) + 1  # gnuplot columns are 1-based
        title = f"{label} (upper bound)" if label == "DNF" else label
        curves.append(
            f"  {quoted} every ::1 using 1:{column} with lines lw 2 title '{title}'"
        )
    lines = [
        "# two-way rate versus gamma1; data columns as in the CSV header",
        "set datafile separator ','",
        "set xlabel 'gamma1 [dB]'",
        "set ylabel 'two-way rate [bit/s]'",
        "set key bottom right",
        "set grid",
        "plot \\",
        ", \\\n".join(curves),
    ]
    return "\n".join(lines) + "\n"


def comparison_spec(gamma2_kind: str = "equal", verify: bool = False) -> SweepSpec:
    """The standard comparison sweep: 0 to 30 dB, DF with and without a
    direct link at a tenth of gamma1, all four schemes."""
    return SweepSpec(
        start_db=0.0,
        stop_db=30.0,
        step_db=1.0,
        gamma2_rule=Gamma2Rule.parse(gamma2_kind),
        gamma0_rules=(Gamma0Rule("zero"), Gamma0Rule("fraction", 0.1)),
        verify=verify,
    )
