"""scripts/ab.py: two trees timed in one interpreter under their own aliases."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _script():
    spec = importlib.util.spec_from_file_location("ab_script", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _loaded(prefixes):
    return [name for name in sys.modules if name.split(".")[0].startswith(prefixes)]


def test_the_same_tree_twice_runs_as_two_packages(capsys, monkeypatch):
    for name in _loaded(("tw_a", "tw_b", "reference")):
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(sys, "path", list(sys.path))  # perfbench's directory goes on it
    ab = _script()
    # a src directory, and a checkout holding one; two rounds, no timing asserted
    assert ab.main([str(SRC), str(ROOT), "--rounds", "2"]) == 0
    result = json.loads(capsys.readouterr().out)
    trees = [sys.modules[alias] for alias in ab.ALIASES]
    try:
        assert trees[0] is not trees[1]
        for name in ab.MODULES:
            a, b = (sys.modules[f"{alias}.{name}"] for alias in ab.ALIASES)
            assert a is not b and a.__file__ == b.__file__ == str(SRC / "twrelay" / f"{name}.py")
        assert trees[0].schemes.SchemeRate is not trees[1].schemes.SchemeRate
        # the benchmark's workloads run on each alias's own modules
        benches = [sys.modules[f"{alias}_workloads"] for alias in ab.ALIASES]
        for bench, alias in zip(benches, ab.ALIASES):
            for name in ab.BOUND:
                assert getattr(bench, name) is sys.modules[f"{alias}.{name}"]
    finally:
        for name in _loaded(ab.ALIASES + ("reference",)):
            del sys.modules[name]
    assert set(result) == {"parent", "change", "rounds", "ops"}
    assert (result["parent"], result["change"]) == (str(SRC), str(SRC))
    assert result["rounds"] == 2
    assert tuple(result["ops"]) == ab.OPS == ("oracle-verify", "exact", "sweep-dense", "sim-large")
    for row in result["ops"].values():
        assert set(row) == {"median_ratio", "iqr", "wins", "rounds", "sign_p"}
        assert row["iqr"][0] <= row["median_ratio"] <= row["iqr"][1] and row["rounds"] == 2
        assert 0 <= row["wins"] <= 2 and 0.0 < row["sign_p"] <= 1.0


def test_the_sign_test_is_two_sided_and_exact():
    ab = _script()
    assert ab.sign_test_p(10, 10) == ab.sign_test_p(0, 10) == 2.0 / 1024
    assert ab.sign_test_p(9, 10) == 2.0 * 11 / 1024
    assert ab.sign_test_p(5, 10) == 1.0 and ab.sign_test_p(0, 0) == 1.0
