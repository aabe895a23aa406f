"""Bit-exact protocol simulator tests."""

import math

import pytest

from twrelay import protocol, schemes
from twrelay.channel import make_config
from twrelay.cli import main


# ---------------------------------------------------------------- DF runs


def test_run_df_golden_transcript():
    cfg = make_config(0.1, 1.0, 1.0)
    t = protocol.run_df(cfg, 1000, 0.5, seed=42)
    assert t.to_lines() == [
        "A 1 500 500 D_AC",
        "C 1 500 500 D_CA",
        "B 1 432 432 D_B",
    ]
    assert t.scheme == "DF"
    assert t.delivered_ac == 500 and t.delivered_ca == 500
    assert t.total_symbols == 1432.0
    assert math.isclose(t.realized_rate, 0.6983240223463687, rel_tol=1e-12)
    assert t.success is True


def test_run_df_deterministic():
    cfg = make_config(0.1, 1.0, 1.0)
    first = protocol.run_df(cfg, 1000, 0.5, seed=42)
    second = protocol.run_df(cfg, 1000, 0.5, seed=42)
    assert str(first) == str(second)
    assert first.realized_rate == second.realized_rate


def test_run_df_split_case_emits_remainder_step():
    # theta below theta* leaves the C-bound packet longer: two relay steps
    cfg = make_config(0.0, 1.0, 3.0)
    t = protocol.run_df(cfg, 3000, 0.2, seed=0)
    senders = [line.split()[0] for line in t.to_lines()]
    labels = [line.split()[-1] for line in t.to_lines()]
    assert senders == ["A", "C", "B", "B"]
    assert labels == ["D_AC", "D_CA", "D_B", "D_BC2"]
    assert t.success


def test_run_df_pad_case_single_relay_step():
    cfg = make_config(0.0, 1.0, 3.0)
    t = protocol.run_df(cfg, 3000, 0.8, seed=0)  # theta past theta*
    senders = [line.split()[0] for line in t.to_lines()]
    assert senders == ["A", "C", "B"]
    assert t.success


def test_run_df_respects_step_capacity():
    cfg = make_config(0.2, 1.0, 3.0)
    t = protocol.run_df(cfg, 5000, 0.4, seed=3)
    for step in t.steps:
        assert step.bits <= step.symbols * step.rate + 1e-9


def test_run_df_bit_conservation():
    # relay output covers exactly the bits the receivers cannot infer
    cfg = make_config(0.2, 1.0, 3.0)
    t = protocol.run_df(cfg, 5000, 0.4, seed=3)
    relay_bits = sum(s.bits for s in t.steps if s.sender == "B")
    c0 = math.log1p(0.2) / math.log(2.0)
    side_c = math.floor(5000 * 0.6 * c0)
    side_a = math.floor(5000 * 0.4 * c0)
    unknown_bc = t.delivered_ac - side_c
    unknown_ba = t.delivered_ca - side_a
    # XOR covers min(bc, ba); the longer suffix's excess rides alongside
    assert relay_bits == max(unknown_bc, unknown_ba)


def test_run_df_swapped_config_reports_original_labels():
    # terminal A has the stronger link: normalization relabels, the
    # transcript must undo it
    cfg = make_config(0.1, 3.0, 1.0)
    assert cfg.swapped
    t = protocol.run_df(cfg, 1000, 0.5, seed=42)
    assert t.to_lines() == [
        "C 1 500 500 D_CA",
        "A 2 500 1000 D_AC",
        "B 1 932 932 D_B",
    ]
    assert t.delivered_ac == 1000 and t.delivered_ca == 500

    mirror = protocol.run_df(make_config(0.1, 1.0, 3.0), 1000, 0.5, seed=42)
    assert mirror.delivered_ac == 500 and mirror.delivered_ca == 1000
    assert mirror.realized_rate == t.realized_rate


def test_run_df_degenerate_block():
    with pytest.raises(protocol.ProtocolConfigError):
        protocol.run_df(make_config(0.0, 1.0, 1.0), 1, 0.5, seed=0)
    with pytest.raises(ValueError):
        protocol.run_df(make_config(0.0, 1.0, 1.0), 0, 0.5, seed=0)
    with pytest.raises(ValueError):
        protocol.run_df(make_config(0.0, 1.0, 1.0), 1000.5, 0.5, seed=0)


def test_run_df_converges_like_one_over_n():
    cfg = make_config(0.1, 1.0, 1.0)
    worst = 0.0
    for n in (1000, 10000, 100000, 1000000):
        t = protocol.run_df(cfg, n, 0.5, seed=1)
        err = abs(t.realized_rate - t.analytic_rate) / t.analytic_rate
        worst = max(worst, err * n)
    assert worst < 5.0  # scaled error stays bounded: O(1/N)
    assert err <= 1e-3  # and the N = 1e6 run is already tight


# ---------------------------------------------------------------- JDF runs


def test_run_jdf_golden_transcript():
    cfg = make_config(0.0, 1.0, 3.0)
    t = protocol.run_jdf(cfg, 1000, 0.25, seed=7)
    assert t.to_lines() == [
        "A 0.491446071 1000 491 D_AC",
        "C 1.83048202 1000 1830 D_CA",
        "B 1 1830 1830 D_B",
    ]
    assert t.delivered_ac == 491 and t.delivered_ca == 1830
    assert t.total_symbols == 2830.0
    assert math.isclose(t.realized_rate, 0.8201413427561838, rel_tol=1e-12)
    assert math.isclose(t.analytic_rate, 0.8203295676947019, rel_tol=1e-12)


def test_run_jdf_counts_joint_phase_once():
    cfg = make_config(0.0, 1.0, 1.0)
    t = protocol.run_jdf(cfg, 10000, 0.5, seed=0)
    relay_symbols = sum(s.symbols for s in t.steps if s.sender == "B")
    assert t.total_symbols == 10000 + relay_symbols
    assert t.steps[0].symbols == 10000 and t.steps[1].symbols == 10000


def test_run_jdf_split_case_near_lam_one():
    # past the crossing the A-bound packet is shorter: relay splits
    cfg = make_config(0.0, 1.0, 1.5)
    t = protocol.run_jdf(cfg, 5000, 0.99, seed=2)
    labels = [s.label for s in t.steps]
    assert labels == ["D_AC", "D_CA", "D_B", "D_AC2"]
    assert t.success


def test_run_jdf_saturated_hits_weaker_capacity():
    cfg = make_config(0.0, 1.0, 3.0)
    t = protocol.run_jdf(cfg, 1000000, 1.0, seed=7)
    assert math.isclose(t.realized_rate, 1.0, rel_tol=1e-9)
    assert t.success


def test_run_jdf_degenerate_block():
    with pytest.raises(protocol.ProtocolConfigError):
        protocol.run_jdf(make_config(0.0, 1.0, 1.0), 1, 0.0, seed=0)


def test_run_jdf_converges_like_one_over_n():
    cfg = make_config(0.0, 1.0, 3.0)
    worst = 0.0
    for n in (1000, 10000, 100000, 1000000):
        t = protocol.run_jdf(cfg, n, 0.3, seed=1)
        err = abs(t.realized_rate - t.analytic_rate) / t.analytic_rate
        worst = max(worst, err * n)
    assert worst < 5.0
    assert err <= 1e-3


def test_run_jdf_swapped_labels():
    cfg = make_config(0.0, 3.0, 1.0)
    assert cfg.swapped
    t = protocol.run_jdf(cfg, 1000, 0.25, seed=7)
    senders = [s.sender for s in t.steps]
    assert senders == ["C", "A", "B"]
    assert t.delivered_ac == 1830 and t.delivered_ca == 491


# ---------------------------------------------------------------- decode check


def _flip_one_recovered_bit(monkeypatch, side):
    relay = protocol._relay_broadcast

    def corrupted(*args):
        at_a, at_c = (bits.copy() for bits in relay(*args))
        (at_a if side == "a" else at_c)[-1] ^= 1
        return at_a, at_c

    monkeypatch.setattr(protocol, "_relay_broadcast", corrupted)


@pytest.mark.parametrize("side", ["a", "c"])
@pytest.mark.parametrize("run, scheme", [(protocol.run_df, "DF"), (protocol.run_jdf, "JDF")])
def test_decode_mismatch_raises(monkeypatch, side, run, scheme):
    _flip_one_recovered_bit(monkeypatch, side)
    with pytest.raises(protocol.ProtocolError, match=f"^decode mismatch in {scheme} exchange$"):
        run(make_config(0.1, 1.0, 3.0), 1000, 0.5, seed=0)


def test_simulate_decode_mismatch_exits_two(monkeypatch, capsys):
    _flip_one_recovered_bit(monkeypatch, "c")
    code = main(["simulate", "--scheme", "df", "--gamma1-db", "0", "--n-symbols", "1000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "simulation failed: decode mismatch in DF exchange\n"
