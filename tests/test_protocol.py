"""Bit-exact protocol simulator tests."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

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


def _refuses_degenerate_blocks(run):
    """``run`` refuses a 1-symbol block as too short, and a block that is
    no integer, or one outside [1, MAX_BLOCK_SIZE], by the block rule."""
    cfg = make_config(0.0, 1.0, 1.0)
    with pytest.raises(protocol.ProtocolConfigError):
        run(cfg, 1, 0.5, seed=0)
    for n_symbols in (0, 1000.5, True, "5", None, protocol.MAX_BLOCK_SIZE + 1):
        with pytest.raises(ValueError, match="^n_symbols must"):
            run(cfg, n_symbols, 0.5, seed=0)


# one test per scheme, rather than one parametrized test, so that each
# keeps its id
def test_run_df_degenerate_block():
    _refuses_degenerate_blocks(protocol.run_df)


def test_run_jdf_degenerate_block():
    _refuses_degenerate_blocks(protocol.run_jdf)


@pytest.mark.parametrize("run, param", [(protocol.run_df, 0.6), (protocol.run_jdf, 0.25)])
def test_a_numpy_integer_block_gives_the_python_int_transcript(run, param):
    # every symbol count is a Python float, whatever integer type the block is
    cfg = make_config(0.3 if run is protocol.run_df else 0.0, 3.0, 1.0)
    t = run(cfg, 3003, param, seed=5)
    t_np = run(cfg, np.int64(3003), param, seed=5)
    assert t_np == t and repr(t_np) == repr(t)


@pytest.mark.parametrize("run, cfg, delivered", [
    # packets of 1 bit, the smallest a guard lets through
    (protocol.run_df, make_config(0.0, 1.0, 1.0), (1, 1)),
    (protocol.run_jdf, make_config(0.0, 1.0, 3.0), (1, 3)),
])
def test_one_bit_packets_are_sent(run, cfg, delivered):
    t = run(cfg, 2, 0.5, seed=0)
    assert min(s.bits for s in t.steps) == 1
    assert (t.delivered_ac, t.delivered_ca) == delivered and t.success


def test_packets_of_exactly_the_block_cap_are_sent(monkeypatch):
    # C(3) == 2.0 exactly, so half of 1000 symbols carries 1000 bits a side
    monkeypatch.setattr(protocol, "MAX_BLOCK_SIZE", 1000)
    cfg = make_config(0.0, 3.0, 3.0)
    t = protocol.run_df(cfg, 1000, 0.5, seed=0)
    assert [s.bits for s in t.steps[:2]] == [1000, 1000] and t.success
    with pytest.raises(ValueError, match="^source packets of 800 and 1200 bits exceed "
                                         "the 1000-bit limit"):
        protocol.run_df(cfg, 1000, 0.6, seed=0)


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


# ---------------------------------------------------------------- rate rules


@st.composite
def _blocks(draw):
    """A config, swapped ones and gamma0 > 0 included, a share in [0, 1]
    with both ends, and a block of up to 10**5 symbols, most of 10**3 or
    more."""
    db = st.floats(-10.0, 30.0)
    gamma_a, gamma_c = 10.0 ** (draw(db) / 10.0), 10.0 ** (draw(db) / 10.0)
    frac = draw(st.just(0.0) | st.floats(0.0, 0.99))
    cfg = make_config(frac * min(gamma_a, gamma_c), gamma_a, gamma_c)
    return cfg, draw(st.floats(0.0, 1.0)), draw(st.integers(10**3, 10**5) | st.integers(1, 10**5))


@pytest.mark.parametrize("rule, run", [(schemes.df_rate, protocol.run_df),
                                       (schemes.jdf_rate, protocol.run_jdf)])
@given(_blocks())
@settings(max_examples=150, deadline=None)
def test_rate_rule_is_the_simulated_rate_up_to_four_bits_per_block(rule, run, block):
    # the simulator floors each source packet, which costs the numerator
    # under 2 bits, and moves each relayed size by under 1 bit, which moves
    # the broadcast by under 1/C1 + 1/C2 symbols: with rate <= C1 <= C2 the
    # rule lies above the realized rate by under (2 + rate * (1/C1 + 1/C2))/N
    # <= 4/N, and never below it but for rounding
    cfg, share, n_symbols = block
    try:
        realized = run(cfg, n_symbols, share, seed=1).realized_rate
    except protocol.ProtocolConfigError:
        reject()
    rate = rule(cfg, share).rate
    assert -1e-12 * rate <= rate - realized <= 4 / n_symbols


# ---------------------------------------------------------------- payload draw


_MASK = 2**64 - 1


def _splitmix64(seed, first_word, n_words):
    """Words ``first_word`` on of ``seed``'s SplitMix64 stream, one at a time
    in Python integers."""
    words = []
    for i in range(first_word, first_word + n_words):
        z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        words.append(z ^ (z >> 31))
    return words


def _reference_bits(seed, first_word, count):
    """``count`` bits from the reference words read as little-endian bytes,
    the pad bits zero."""
    size = -(-count // 8)
    words = _splitmix64(seed, first_word, -(-size // 8))
    data = bytearray(b"".join(word.to_bytes(8, "little") for word in words))
    del data[size:]
    if count % 8:
        data[-1] &= 0xFF << (8 - count % 8) & 0xFF
    return list(data)


def _draw(seed, first_word, count):
    """``_draw_bits`` into a fresh buffer of whole words, with fresh scratch."""
    n_words = -(-count // 64)
    return protocol._draw_bits(seed, first_word, count, np.empty(8 * n_words, dtype=np.uint8),
                               np.empty(8 * n_words, dtype=np.uint8))


def test_draw_bits_reads_splitmix64_words_as_little_endian_bytes():
    # the published first outputs of SplitMix64 at seed 0
    assert _splitmix64(0, 0, 2) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    # 77 bits take 10 bytes, and the last byte keeps its 5 high bits
    got = _draw(0, 0, 77)
    assert got.dtype == np.uint8
    assert got.tolist() == [0xAF, 0xCD, 0x1D, 0x7B, 0x39, 0xA8, 0x20, 0xE2, 0xF4, 0x60]
    assert got.tolist() == _reference_bits(0, 0, 77)


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("first_word", [0, 1, 7, 2**40])
def test_draw_bits_starts_mid_stream(seed, first_word):
    # word i of a stream depends only on the seed and i: a draw from word k
    # on is the tail of a draw from word 0 on
    assert _draw(seed, first_word, 333).tolist() == _reference_bits(seed, first_word, 333)
    if first_word < 8:
        head = _draw(seed, 0, 64 * first_word + 333)
        assert np.array_equal(head[8 * first_word:], _draw(seed, first_word, 333))


def test_df_with_direct_link_forwards_only_the_drawn_suffixes(monkeypatch):
    # gamma0 > 0: each terminal draws just the bits the other did not overhear
    cfg = make_config(0.3, 1.0, 3.0)
    n_symbols, theta, seed = 3003, 0.4, 11
    seen = {}
    relay = protocol._relay_broadcast

    def spy(steps, to_c, to_a, bits_c, n, *rest):
        seen.update(to_c=to_c.copy(), to_a=to_a.copy(), bits_c=bits_c, n=n)
        return relay(steps, to_c, to_a, bits_c, n, *rest)

    monkeypatch.setattr(protocol, "_relay_broadcast", spy)
    t = protocol.run_df(cfg, n_symbols, theta, seed=seed)
    c0 = math.log1p(0.3) / math.log(2.0)
    side_c = math.floor(n_symbols * (1.0 - theta) * c0)
    side_a = math.floor(n_symbols * theta * c0)
    assert side_c > 0 and side_a > 0
    assert seen["bits_c"] == t.delivered_ac - side_c and seen["n"] == t.delivered_ca - side_a
    # A's suffix takes the stream's words from 0 on, C's the words after it
    words_c = -(-seen["bits_c"] // 64)
    assert seen["to_c"].tolist() == _reference_bits(seed, 0, seen["bits_c"])
    assert seen["to_a"].tolist() == _reference_bits(seed, words_c, seen["n"])


@pytest.mark.parametrize("chunk", [protocol._RELAY_CHUNK, 24])
@pytest.mark.parametrize("words", ["0", "1", "W-1", "W"])
def test_draw_bits_at_the_step_cache_edges(monkeypatch, chunk, words):
    # no bits, an empty view of out; one word, all of a relay chunk's cached
    # golden-ratio steps but one, and all of them, the last word ending
    # inside a byte, from the middle of the stream; a 24-byte chunk caches 3
    monkeypatch.setattr(protocol, "_RELAY_CHUNK", chunk)
    n_words = {"0": 0, "1": 1, "W-1": chunk // 8 - 1, "W": chunk // 8}[words]
    count = 64 * (n_words - 1) + 13 if n_words else 0
    # set bits in the buffers, as an earlier exchange's bytes may be; the
    # scratch is as small as a draw may be given
    out = np.full(8 * max(n_words, 1), 0xFF, dtype=np.uint8)
    scratch = np.full(8 * n_words, 0xFF, dtype=np.uint8)
    got = protocol._draw_bits(99, 5, count, out, scratch)
    assert got.tolist() == _reference_bits(99, 5, count) and got.base is out


@pytest.mark.parametrize("run, param", [(protocol.run_df, 0.5), (protocol.run_jdf, 0.25)])
@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "1", None])
def test_seed_outside_the_64_bit_range_is_a_value_error(run, param, seed):
    # a seed of 2**64 or more would alias a smaller one
    with pytest.raises(ValueError, match="^seed must"):
        run(make_config(0.1, 1.0, 3.0), 1000, param, seed=seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)])
def test_seed_range_edges_run(seed):
    t = protocol.run_jdf(make_config(0.0, 1.0, 3.0), 1000, 0.25, seed=seed)
    assert t == protocol.run_jdf(make_config(0.0, 1.0, 3.0), 1000, 0.25, seed=int(seed))


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


def _flip_drawn_bit(monkeypatch, side, where):
    """Flip one payload bit, chosen by bit index, of what A or C recovers."""
    relay = protocol._relay_broadcast

    def corrupted(*args):
        bound = inspect.signature(relay).bind(*args).arguments
        at_a, at_c = (bits.copy() for bits in relay(*args))
        bits, count = (at_a, bound["n"]) if side == "a" else (at_c, bound["bits_c"])
        i = {"first": 0, "middle": count // 2, "xor end": min(count, bound["n"]) - 1,
             "last": count - 1}[where]
        bits[i // 8] ^= 0x80 >> (i % 8)
        return at_a, at_c

    monkeypatch.setattr(protocol, "_relay_broadcast", corrupted)


# block lengths where the split point and the packet ends fall inside a byte
_CORRUPTION_CASES = {
    "DF split": (protocol.run_df, make_config(0.1, 1.0, 3.0), 3003, 0.2, ["D_B", "D_BC2"]),
    "DF pad": (protocol.run_df, make_config(0.1, 1.0, 3.0), 3003, 0.8, ["D_B"]),
    "JDF split": (protocol.run_jdf, make_config(0.0, 1.0, 1.5), 5004, 0.99, ["D_B", "D_AC2"]),
    "JDF pad": (protocol.run_jdf, make_config(0.0, 1.0, 3.0), 1003, 0.25, ["D_B"]),
}


@pytest.mark.parametrize("where", ["first", "middle", "xor end", "last"])
@pytest.mark.parametrize("side", ["a", "c"])
@pytest.mark.parametrize("case", list(_CORRUPTION_CASES))
def test_one_corrupted_payload_bit_fails_the_decode_check(monkeypatch, case, side, where):
    run, cfg, n_symbols, param, relay_labels = _CORRUPTION_CASES[case]
    t = run(cfg, n_symbols, param, seed=5)
    assert [s.label for s in t.steps[2:]] == relay_labels
    assert t.steps[2].bits % 8  # the XOR part ends inside a byte
    _flip_drawn_bit(monkeypatch, side, where)
    with pytest.raises(protocol.ProtocolError, match=f"^decode mismatch in {case.split()[0]} exchange$"):
        run(cfg, n_symbols, param, seed=5)


# ---------------------------------------------------------------- packed bits


def _relay_reference(to_c, to_a, bits_c, n):
    """What A and C recover from the relay, on unpacked bits: the C-bound
    packet cut or zero-padded to ``n`` bits and XORed with the A-bound one,
    each side XORing its own bits back out, and C's split excess re-joined."""
    c, a = np.unpackbits(to_c, count=bits_c), np.unpackbits(to_a, count=n)
    own_c = np.zeros(n, dtype=np.uint8)
    own_c[: min(bits_c, n)] = c[:n]
    d_b = own_c ^ a
    at_c = np.concatenate([(d_b ^ a)[:bits_c], c[n:]])
    return np.packbits(d_b ^ own_c), np.packbits(at_c)


@st.composite
def _relay_packets(draw):
    """Packed C- and A-bound packets of ``bits_c`` and ``n`` bits (1-80),
    drawn with zero pad bits as ``_draw_bits`` gives them."""
    residue = draw(st.integers(0, 7))
    n = draw(st.sampled_from([k for k in range(1, 81) if k % 8 == residue]))
    bits_c = draw(st.one_of(st.sampled_from([b for b in (n - 1, n, n + 1) if b]),
                            st.integers(1, 80)))
    to_c, to_a = (np.packbits(np.array(draw(st.lists(st.integers(0, 1), min_size=k,
                                                     max_size=k)), dtype=np.uint8))
                  for k in (bits_c, n))
    return to_c, to_a, bits_c, n


@given(_relay_packets())
@settings(max_examples=400, deadline=None)
@example((np.full(10, 255, dtype=np.uint8), np.full(10, 255, dtype=np.uint8), 80, 80))
@example((np.full(10, 255, dtype=np.uint8), np.full(1, 0x80, dtype=np.uint8), 80, 1))
@example((np.full(1, 0x80, dtype=np.uint8), np.full(10, 255, dtype=np.uint8), 1, 80))
# a tail that starts and ends inside the byte it shares with the XOR part
@example((np.array([0b10110100], dtype=np.uint8), np.array([0b01100000], dtype=np.uint8), 6, 3))
# a byte-aligned split with a tail
@example((np.full(3, 0xA5, dtype=np.uint8), np.full(2, 0x3C, dtype=np.uint8), 24, 16))
# a split 7 bits into a byte, with a one-bit tail
@example((np.array([0x5A, 0xFF], dtype=np.uint8), np.array([0xC3, 0xFE], dtype=np.uint8), 16, 15))
# a chunk past the end of the A-bound packet: all tail
@example((np.array([0xA5, 0xA5, 0xA0], dtype=np.uint8), np.zeros(0, dtype=np.uint8), 21, 0))
# a chunk past the end of the C-bound packet: all pad
@example((np.zeros(0, dtype=np.uint8), np.array([0x3C, 0x3C, 0x38], dtype=np.uint8), 0, 21))
def test_relay_broadcast_matches_unpacked_xor_pad_and_split(case):
    to_c, to_a, bits_c, n = case
    sent_c, sent_a = to_c.copy(), to_a.copy()
    # temporaries full of set bits, as np.empty may hand back an earlier
    # exchange's bytes
    temps = np.full(len(to_a) + len(to_c), 0xFF, dtype=np.uint8)
    at_a, at_c = protocol._relay_broadcast(temps, to_c, to_a, bits_c, n)
    ref_a, ref_c = _relay_reference(sent_c, sent_a, bits_c, n)
    # equal arrays of packbits' length: the pad bits are zero
    assert np.array_equal(at_a, ref_a) and np.array_equal(at_c, ref_c)
    assert np.array_equal(at_a, sent_a) and np.array_equal(at_c, sent_c)
    # recovering in place into the drawn packets would leave the decode check
    # comparing a buffer with itself
    assert np.array_equal(to_c, sent_c) and np.array_equal(to_a, sent_a)
    assert not (np.shares_memory(at_a, to_a) or np.shares_memory(at_c, to_c))
    assert not np.shares_memory(at_a, at_c)
    assert all(np.shares_memory(at, temps) for at in (at_a, at_c) if len(at))


def _relay_spy(recovered):
    """A ``_relay_broadcast`` that also appends copies of what A and C
    recover, chunk by chunk, to ``recovered``."""
    relay = protocol._relay_broadcast

    def spy(*args):
        at_a, at_c = relay(*args)
        recovered.append((at_a.copy(), at_c.copy()))
        return at_a, at_c

    return spy


@given(st.sampled_from([8, 24]), st.integers(1, 400), st.integers(1, 400),
       st.integers(0, 2**64 - 1))
@settings(max_examples=300, deadline=None)
# 64-bit chunks: a pad from bit 70 across two chunk edges, a split at bit 70
# with the tail across two more, a split on a chunk edge, a one-bit pad in a
# chunk of its own
@example(8, 70, 200, 1)
@example(8, 200, 70, 2)
@example(8, 128, 64, 3)
@example(8, 64, 65, 4)
# 192-bit chunks: a split 2 bits before a chunk edge, its tail running on
# through two more chunks
@example(24, 400, 190, 5)
def test_exchange_relays_splits_pads_and_tails_across_chunk_edges(chunk, bits_c, n, seed):
    # what A and C recover, chunk after chunk, is the whole packets' relay
    recovered = []
    loads = ((1.0, float(bits_c)), (1.0, float(n)))  # packets of bits_c and n bits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_RELAY_CHUNK", chunk)
        patch.setattr(protocol, "_relay_broadcast", _relay_spy(recovered))
        t = protocol._exchange("DF", make_config(0.0, 1.0, 3.0), 1, loads, None, "theta=0.5", 0.0,
                               seed)
    assert len(recovered) == -(-max(bits_c, n) // (8 * chunk))
    to_c, to_a = (np.array(_reference_bits(seed, first_word, count), dtype=np.uint8)
                  for first_word, count in ((0, bits_c), (-(-bits_c // 64), n)))
    ref_a, ref_c = _relay_reference(to_c, to_a, bits_c, n)
    at_a, at_c = (np.concatenate(parts) for parts in zip(*recovered))
    assert np.array_equal(at_a, ref_a) and np.array_equal(at_c, ref_c)
    # one relay step, and one tail, for the whole exchange
    assert [(s.label, s.bits) for s in t.steps[2:]] == (
        [("D_B", n)] + ([("D_AC2", bits_c - n)] if bits_c > n else []))


_CHUNKED_CASES = {
    **{case: spec[:4] for case, spec in _CORRUPTION_CASES.items()},
    "DF swapped, direct link": (protocol.run_df, make_config(0.3, 3.0, 1.0), 3003, 0.6),
    "JDF swapped": (protocol.run_jdf, make_config(0.0, 3.0, 1.0), 2003, 0.25),
}


@pytest.mark.parametrize("chunk", [8, 24])
@pytest.mark.parametrize("case", list(_CHUNKED_CASES))
def test_exchange_in_small_chunks_gives_the_one_chunk_transcript(monkeypatch, case, chunk):
    run, cfg, n_symbols, param = _CHUNKED_CASES[case]
    whole = run(cfg, n_symbols, param, seed=5)
    recovered = []
    monkeypatch.setattr(protocol, "_relay_broadcast", _relay_spy(recovered))
    assert run(cfg, n_symbols, param, seed=5) == whole and len(recovered) == 1
    recovered.clear()
    monkeypatch.setattr(protocol, "_RELAY_CHUNK", chunk)
    assert run(cfg, n_symbols, param, seed=5) == whole and len(recovered) > 3


@pytest.mark.parametrize("side", ["a", "c"])
@pytest.mark.parametrize("case", list(_CORRUPTION_CASES))
def test_one_corrupted_bit_in_a_middle_chunk_fails_the_decode_check(monkeypatch, case, side):
    run, cfg, n_symbols, param, _ = _CORRUPTION_CASES[case]
    monkeypatch.setattr(protocol, "_RELAY_CHUNK", 8)
    recovered = []
    monkeypatch.setattr(protocol, "_relay_broadcast", _relay_spy(recovered))
    run(cfg, n_symbols, param, seed=5)
    # the middle one of the chunks that hold some of this side's packet
    held = [i for i, (at_a, at_c) in enumerate(recovered) if len(at_a if side == "a" else at_c)]
    middle = held[len(held) // 2]
    assert 0 < middle < len(recovered) - 1
    relay, calls = protocol._relay_broadcast, []

    def corrupted(*args):
        at_a, at_c = relay(*args)
        if len(calls) == middle:
            (at_a if side == "a" else at_c)[0] ^= 0x80
        calls.append(args)
        return at_a, at_c

    monkeypatch.setattr(protocol, "_relay_broadcast", corrupted)
    with pytest.raises(protocol.ProtocolError,
                       match=f"^decode mismatch in {case.split()[0]} exchange$"):
        run(cfg, n_symbols, param, seed=5)
    assert len(calls) == middle + 1


# ---------------------------------------------------------------- memory


@pytest.mark.parametrize("run, cfg, param", [
    (protocol.run_df, make_config(0.1, 1.0, 3.0), 0.2),  # split
    (protocol.run_df, make_config(0.1, 1.0, 3.0), 0.8),  # pad
    (protocol.run_jdf, make_config(0.0, 1.0, 1.5), 0.99),  # split
    (protocol.run_jdf, make_config(0.0, 1.0, 3.0), 0.25),  # pad
    (protocol.run_df, make_config(0.0, 3.0, 3.5), 0.45),  # split, short tail: the largest at the cap
])
def test_exchange_peaks_below_one_byte_per_delivered_bit(run, cfg, param):
    tracemalloc.start()
    try:
        t = run(cfg, 1_000_000, param, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * (t.delivered_ac + t.delivered_ca)


@pytest.mark.parametrize("n_symbols", [10_000_000, 90_900_000])
def test_exchange_peak_does_not_grow_with_the_block(n_symbols):
    # DF split-and-xor with a short tail, the largest exchange at the cap:
    # the relay holds one chunk of each packet and two of temporaries
    tracemalloc.start()
    try:
        t = protocol.run_df(make_config(0.0, 3.0, 3.5), n_symbols, 0.45, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.label for s in t.steps[2:]] == ["D_B", "D_BC2"]
    assert peak <= 2**20


@pytest.mark.parametrize("run, cfg, param", [
    (protocol.run_df, make_config(0.1, 1.0, 3.0), 0.2),  # split
    (protocol.run_jdf, make_config(0.0, 1.0, 3.0), 0.25),  # pad
])
def test_exchange_keeps_packets_and_temporaries_in_one_buffer(monkeypatch, run, cfg, param):
    # one allocation of four chunks per exchange: each chunk of both packets
    # is drawn into the first two, the relay works in the last two, and the
    # draws use those as scratch until the relay runs
    monkeypatch.setattr(protocol, "_RELAY_CHUNK", 1024)
    seen = {"draws": [], "scratch": [], "temps": []}
    draw, relay = protocol._draw_bits, protocol._relay_broadcast

    def draw_spy(seed, first_word, count, out, scratch):
        seen["draws"].append(out)
        seen["scratch"].append(scratch)
        return draw(seed, first_word, count, out, scratch)

    def relay_spy(temps, *rest):
        seen["temps"].append(temps)
        return relay(temps, *rest)

    monkeypatch.setattr(protocol, "_draw_bits", draw_spy)
    monkeypatch.setattr(protocol, "_relay_broadcast", relay_spy)
    t = run(cfg, 100_003, param, seed=1)
    chunks = len(seen["temps"])
    # the relay steps carry the longer of the two packets the relay forwards
    assert chunks == -(-sum(s.bits for s in t.steps[2:]) // 8192) > 3
    space = seen["draws"][0].base
    assert space.nbytes == 4 * 1024
    quarters = [space[k * 1024:(k + 1) * 1024] for k in range(4)]
    for draws in (seen["draws"][0::2], seen["draws"][1::2]):
        assert len(draws) == chunks
    assert all(out.base is space and np.shares_memory(out, quarters[0])
               for out in seen["draws"][0::2])
    assert all(out.base is space and np.shares_memory(out, quarters[1])
               for out in seen["draws"][1::2])
    for temps in seen["temps"] + seen["scratch"]:
        assert temps.base is space and np.shares_memory(temps, quarters[2])
        assert not any(np.shares_memory(temps, quarter) for quarter in quarters[:2])
