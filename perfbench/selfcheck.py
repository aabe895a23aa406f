"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size and confirms that its checks pass on
the program's real outputs, that the known-fault ops still fail the way
they are expected to (and that the checks accept what a fixed program
would return for them), and that each check rejects a deliberately corrupted
output (a DNF value nudged by one part in 10^9, a CSV with a row dropped,
one bit too few delivered, and so on).  It also confirms that every metric
named in BENCHMARK.json is one the benchmark prints, with the same unit.
Exits 1 if anything is off.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import reference as ref
import run
import workloads as wl


def _rows_with(rows, i, label, scale):
    """The sweep rows with one rate of row ``i`` multiplied by ``scale``."""
    row = rows[i]
    rates = tuple((k, v * scale if k == label else v) for k, v in row.rates)
    return rows[:i] + [replace(row, rates=rates)] + rows[i + 1:]


def _drop_line(text, i):
    lines = text.split("\n")
    return "\n".join(lines[:i] + lines[i + 1:])


def _nudge_printed(text, label, scale):
    out = []
    for line in text.split("\n"):
        m = wl._RATE_LINE.match(line)
        if m and m[1] == label:
            line = line.replace(m[2], f"{float(m[2]) * scale:.9g}", 1)
        out.append(line)
    return "\n".join(out)


def sweep_corruptions(op, out):
    rows, text = out
    a = op.args
    sat = next((i for i, r in enumerate(rows)
                if ref.jdf_saturated(ref.db_to_linear(r.gamma1_db), a.gamma2(ref.db_to_linear(r.gamma1_db)))),
               None)
    s = a.sample_rows[0]
    cases = {
        "DNF nudged by 1e-9": ((_rows_with(rows, 3, "DNF", 1 + 1e-9), text)),
        "DF[g0=0] nudged by 1e-9": ((_rows_with(rows, 5, "DF[g0=0]", 1 - 1e-9), text)),
        "AF above the DNF bound": ((_rows_with(rows, 2, "AF", 1e3), text)),
        "DF[g0=0.1*g1] 2e-6 below brute force": ((_rows_with(rows, s, "DF[g0=0.1*g1]", 1 - 2e-6), text)),
        "JDF 2e-6 below brute force": ((_rows_with(rows, s, "JDF", 1 - 2e-6), text)),
        "CSV with a row dropped": (rows, _drop_line(text, 4)),
        "CSV with one rate cell changed": (rows, text.replace(text.split("\n")[2].split(",")[-1], "0.5", 1)),
        "one row missing": (rows[:-1], text),
    }
    if sat is not None:
        cases["JDF below DNF where g2 > g1 + g1^2"] = (_rows_with(rows, sat, "JDF", 1 - 1e-9), text)
    return cases


def oracle_corruptions(op, out):
    df, odf, jdf, ojdf = out
    return {
        "DF oracle 2e-6 away from the closed form": (df, odf * (1 - 2e-6), jdf, ojdf),
        "JDF oracle 2e-6 above the closed form": (df, odf, jdf, ojdf * (1 + 2e-6)),
        "JDF closed form nudged by 1e-8": (df, odf, jdf * (1 + 1e-8), ojdf * (1 + 1e-8)),
    }


def fixed_oracle_output(op):
    """What a program without the known fault would return for an
    ``oracle-verify`` config: closed forms and oracles from the reference."""
    g0, g1, g2 = op.args.gamma0, op.args.gamma1, op.args.gamma2
    return ref.df_max(g0, g1, g2), ref.brute_df(g0, g1, g2), ref.jdf_max(g1, g2), ref.brute_jdf(g1, g2)


def sim_corruptions(op, t):
    unswapped = [replace(s, sender=s.sender.translate(str.maketrans("AC", "CA")),
                         label=s.label.translate(str.maketrans("AC", "CA"))) for s in t.steps]
    return {
        "one bit fewer delivered A->C": replace(t, delivered_ac=t.delivered_ac - 1),
        "decode failure": replace(t, success=False),
        "realized rate above analytic": replace(t, realized_rate=t.analytic_rate * (1 + 1e-9)),
        "realized rate 1e-3 below analytic": replace(t, realized_rate=t.analytic_rate * (1 - 1e-3)),
        "terminals in the wrong labels": replace(t, steps=tuple(unswapped)),
    }


def cli_corruptions(op, res):
    text = res.output
    cases = {
        "exit code 1": replace(res, code=1),
        "a traceback on stderr": replace(res, output=text + "Traceback (most recent call last):\n"),
    }
    if op.kind == "rate":
        cases["DNF printed 1e-7 high"] = replace(res, output=_nudge_printed(text, "DNF", 1 + 1e-7))
        cases["JDF line missing"] = replace(res, output=_drop_line(text, 4))
    elif op.kind == "sweep":
        cases["CSV with a row dropped"] = replace(res, output=_drop_line(text, 7))
    elif op.kind == "simulate":
        cases["decode check FAILED"] = replace(res, output=text.replace("decode check: ok", "decode check: FAILED"))
        first = text.split("delivered A->C ")[1].split(" ")[0]
        cases["one bit fewer delivered"] = replace(
            res, output=text.replace(f"delivered A->C {first} ", f"delivered A->C {int(first) - 1} "))
    else:
        cases["verify without ok"] = replace(res, output=text.replace("\nok\n", "\nFAILED\n"))
    return cases


TINY = {
    "sweep-dense": (wl.SweepDense(step_db=1.0), sweep_corruptions),
    "oracle-verify": (wl.OracleVerify(random_per_round=4), oracle_corruptions),
    "sim-large": (wl.SimLarge(bits=20_000), sim_corruptions),
    "cli-cold": (wl.CliCold(), cli_corruptions),
}


def check_benchmark_json(failures):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    for m in bench["end_to_end"] + bench["per_layer"]:
        if run.UNITS.get(m["name"]) != m["unit"]:
            failures.append(f"BENCHMARK.json: {m['name']} has unit {m['unit']}, run.py prints {run.UNITS.get(m['name'])}")
    if [w["name"] for w in bench["workloads"]] != list(wl.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main() -> int:
    failures: list[str] = []
    check_benchmark_json(failures)
    for name, (w, corruptions) in TINY.items():
        for op in w.build(seed=0, rounds=1):
            try:
                out, source = w.run(op), "real"
            except ZeroDivisionError:
                if not op.known_fault:
                    failures.append(f"{name} {op.kind}: unexpected ZeroDivisionError")
                    continue
                # the checks must still judge this op once the fault is fixed
                print(f"{name:14} {op.kind:14} fails as the known fault expects; checking a fixed output")
                out, source = fixed_oracle_output(op), "fixed-program"
            problems = w.check(op, out)
            if problems:
                failures.append(f"{name} {op.kind}: {source} output rejected: {problems[:2]}")
                continue
            if op.known_fault and source == "real":
                print(f"{name:14} {op.kind:14} known fault no longer fails; its output passes the checks")
            for what, bad in corruptions(op, out).items():
                caught = bool(w.check(op, bad))
                print(f"{name:14} {op.kind:14} {what:45} {'rejected' if caught else 'NOT REJECTED'}")
                if not caught:
                    failures.append(f"{name} {op.kind}: {what} was not rejected")
    for f in failures:
        print("SELF-CHECK FAILED:", f, file=sys.stderr)
    print("self-check ok" if not failures else f"self-check: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
