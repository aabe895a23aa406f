"""scripts/numeric_diff.py: two trees compared value by value, bit for bit."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "numeric_diff.py"
SRC = ROOT / "src"


def _run(parent, change, count=300):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change),
                           "--count", str(count)], capture_output=True, text=True, timeout=120)
    rows = {}
    for line in proc.stdout.splitlines()[2:]:
        key, compared, raised, differ, ulps = line.split()
        rows[key] = (int(compared), int(raised), int(differ), float(ulps))
    return proc, rows


def test_the_same_tree_on_both_sides_differs_nowhere():
    proc, rows = _run(SRC, ROOT)  # a src directory, and a checkout holding one
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("numeric_diff: 300 configs (seed 0)")
    assert rows["total"][2:] == (0, 0.0)
    for name in ("df_max_rate.rate", "jdf_max_rate.breakdown.regime",
                 "df_rate@u.size_dbc", "grid_max_df_theta.best_param",
                 "grid_max_jdf_lambda.best_rate", "grid_max_ma_region.best_rate"):
        assert rows[name][0] > 0, name


def test_a_perturbed_copy_is_reported_value_by_value(tmp_path):
    shutil.copytree(SRC / "twrelay", tmp_path / "twrelay",
                    ignore=shutil.ignore_patterns("__pycache__"))
    schemes = tmp_path / "twrelay" / "schemes.py"
    text = schemes.read_text()
    bound = 'return SchemeRate("DNF", rate=capacity(config.gamma1))'
    assert bound in text
    # the DNF bound one float up, on every config
    schemes.write_text(text.replace(
        bound, 'return SchemeRate("DNF", rate=math.nextafter(capacity(config.gamma1), math.inf))'))
    proc, rows = _run(SRC, tmp_path)
    assert proc.returncode == 1, proc.stderr
    compared, _, differ, ulps = rows["dnf_upper_bound.rate"]
    assert differ == compared == 300 and ulps == 1.0
    others = [key for key, row in rows.items()
              if row[2] and key not in ("dnf_upper_bound.rate", "total")]
    assert others == []
    assert rows["total"][2:] == (300, 1.0)


def test_a_tree_without_the_package_is_an_error(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "no twrelay package" in proc.stderr
