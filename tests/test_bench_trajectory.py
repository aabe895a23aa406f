"""The BENCH_*.json trajectory script: checked-in records and its machine marks."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_trajectory.py"


def _trajectory(*paths):
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _record(date, parent, cpu, median):
    row = {"better": "higher", "change_wins": 10,
           "parent": {"q1": 9.0, "median": 10.0, "q3": 11.0},
           "change": {"q1": median - 1.0, "median": median, "q3": median + 1.0}}
    return {"date": date, "parent": parent, "machine": {"cpu": cpu, "nproc": 2}, "pairs": 10,
            "claim": {"workload": "sim-large", "metric": "ops_per_s"},
            "workloads": {"sim-large": {"ops_per_s": row}}}


def test_checked_in_records_print():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    code, out, err = _trajectory()
    assert code == 0 and err == ""
    assert all(f"{p.name}  " in out for p in records)
    assert "* sim-large      ops_per_s" in out


def test_records_in_date_order_marked_by_machine(tmp_path):
    later, earlier = tmp_path / "BENCH_bbbbbbb.json", tmp_path / "BENCH_aaaaaaa.json"
    later.write_text(json.dumps(_record("2026-02-01", "bbbbbbb", "cpu two", 30.0)))
    earlier.write_text(json.dumps(_record("2026-01-01", "aaaaaaa", "cpu one", 20.0)))
    code, out, _ = _trajectory(later, earlier)
    assert code == 0
    heads = [line for line in out.splitlines() if line.startswith("BENCH_")]
    assert heads == ["BENCH_aaaaaaa.json  2026-01-01  parent aaaaaaa  M1  10 pairs",
                     "BENCH_bbbbbbb.json  2026-02-01  parent bbbbbbb  M2  10 pairs"]
    assert "     10 ->          20   2.000x" in out and "change won 10/10" in out
    assert '  M2 {"cpu": "cpu two", "nproc": 2}' in out


def _git(where, *args):
    proc = subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           *args], cwd=where, capture_output=True, text=True, timeout=60,
                          check=True)
    return proc.stdout.strip()


def test_records_of_one_date_follow_their_parents_commit_order(tmp_path):
    # the names sort the wrong way: the record of the later parent first
    _git(tmp_path, "init", "-q")
    for message in ("first", "second"):
        _git(tmp_path, "commit", "-q", "--allow-empty", "-m", message)
    first, second = (_git(tmp_path, "rev-parse", "--short", rev) for rev in ("HEAD~1", "HEAD"))
    for name, parent in (("BENCH_zzz.json", first), ("BENCH_aaa.json", second),
                         ("BENCH_mmm.json", "0000000")):  # no such commit: last
        (tmp_path / name).write_text(json.dumps(_record("2026-01-01", parent, "cpu", 20.0)))
    code, out, _ = _trajectory(*(tmp_path / n for n in ("BENCH_mmm.json", "BENCH_aaa.json",
                                                       "BENCH_zzz.json")))
    assert code == 0
    heads = [line.split()[0] for line in out.splitlines() if line.startswith("BENCH_")]
    assert heads == ["BENCH_zzz.json", "BENCH_aaa.json", "BENCH_mmm.json"]


def test_a_closed_pipe_ends_quietly():
    # as `| head` does: the reader is gone before the first line
    proc = subprocess.Popen([sys.executable, str(SCRIPT)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0 and err == b""


def test_a_record_without_a_field_exits_one(tmp_path):
    record = _record("2026-01-01", "aaaaaaa", "cpu", 20.0)
    del record["workloads"]["sim-large"]["ops_per_s"]["change"]["q3"]
    path = tmp_path / "BENCH_aaaaaaa.json"
    path.write_text(json.dumps(record))
    code, out, err = _trajectory(path)
    assert code == 1 and out == ""
    assert err == "error: BENCH_aaaaaaa.json: sim-large ops_per_s has no change.q3\n"
