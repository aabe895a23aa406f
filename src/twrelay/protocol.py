"""Bit-exact simulation of the DF and JDF packet exchanges.

The simulator moves real bit strings through the protocol steps and checks
that both terminals reconstruct the other side's packet exactly.  Channel
coding is abstracted away: a transmission of ``b`` bits at rate ``r``
occupies ``b / r`` symbols and is assumed error free, and random binning
against direct-link side information is modelled as prefix knowledge (the
receiving terminal already holds the first bits of the incoming packet, so
the relay only forwards the unknown suffix).

Each scheme hands one exchange its loads, a ``(rate, share of the block)``
pair per terminal; the exchange checks the block and seed, scales the loads
by N, floors them and any overheard prefixes to whole bits, refuses an empty
packet, draws the packets packed 8 bits to a byte, relays them and names the
split tail.  Symbol counts stay fractional, so the realized two-way rate
approaches the analytic rate from below as the block grows, at O(1/N).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import schemes
from .channel import LinkConfig, ProtocolError, _check_seed, capacity


class ProtocolConfigError(ValueError):
    """The block is too short: some protocol packet would be empty."""


@dataclass(frozen=True)
class TranscriptStep:
    """One transmission: who sent, at what rate, how long, carrying what."""

    sender: str
    rate: float  # bits per symbol
    symbols: float  # may be fractional
    bits: int
    label: str


@dataclass(frozen=True)
class Transcript:
    """Full record of one simulated exchange.

    ``success`` is always True: a decode mismatch raises
    :class:`ProtocolError` instead.  It stays because the benchmark's
    simulator check reads it.
    """

    scheme: str
    steps: tuple[TranscriptStep, ...]
    delivered_ac: int  # bits A sent that C reconstructed
    delivered_ca: int
    total_symbols: float  # simultaneous transmissions counted once
    realized_rate: float
    analytic_rate: float
    success: bool

    def to_lines(self) -> list[str]:
        """One step per line: sender, rate, symbols, bits, label."""
        return [
            f"{s.sender} {s.rate:.9g} {s.symbols:.9g} {s.bits} {s.label}"
            for s in self.steps
        ]


_SWAP = str.maketrans("AC", "CA")


def _clear_pad(bits: np.ndarray, count: int) -> np.ndarray:
    """Zero, in place, the bits of ``bits`` past its first ``count``; returns it."""
    if count % 8:
        bits[-1] &= 0xFF << (8 - count % 8) & 0xFF
    return bits


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): word i of a seed's stream is
# the seed plus (i + 1) golden-ratio steps, modulo 2**64, through two
# xorshift-multiply rounds and a final xorshift.  A draw is one pass over at
# most one relay chunk of words
_GOLDEN = 0x9E3779B97F4A7C15


@functools.lru_cache(maxsize=1)
def _golden_steps(run: int) -> np.ndarray:
    """``i`` golden-ratio steps, modulo 2**64, for ``i`` below ``run``: one
    relay chunk's counters less their first, built in place so that the
    build makes no temporary.  Keyed on ``run``, so that a changed
    ``_RELAY_CHUNK`` rebuilds it."""
    steps = np.arange(run, dtype=np.uint64)
    steps *= np.uint64(_GOLDEN)
    return steps


def _draw_bits(seed: int, first_word: int, count: int, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """``count`` random bits, packed: words ``first_word``, ``first_word + 1``,
    ... of ``seed``'s SplitMix64 stream read as little-endian bytes; the pad
    bits are zero.

    ``count`` is at most ``8 * _RELAY_CHUNK``.  The words are written into
    ``out``, which must hold them whole: ``8 * ceil(count / 64)`` bytes.
    ``scratch`` takes their intermediate values, as many bytes; its contents
    are not read.  Returns the first ``ceil(count / 8)`` bytes of ``out``.
    """
    if not count:
        return out[:0]
    size = -(-count // 8)
    n_words = -(-size // 8)
    z = out[: 8 * n_words].view("<u8")
    t = scratch[: 8 * n_words].view(np.uint64)
    first = (int(seed) + (first_word + 1) * _GOLDEN) % 2**64  # the first word's counter
    np.add(_golden_steps(_RELAY_CHUNK // 8)[:n_words], first, out=z)
    np.bitwise_xor(z, np.right_shift(z, 30, out=t), out=z)
    np.multiply(z, 0xBF58476D1CE4E5B9, out=z)
    np.bitwise_xor(z, np.right_shift(z, 27, out=t), out=z)
    np.multiply(z, 0x94D049BB133111EB, out=z)
    np.bitwise_xor(z, np.right_shift(z, 31, out=t), out=z)
    return _clear_pad(out[:size], count)


def _relay_broadcast(temps: np.ndarray, to_c: np.ndarray, to_a: np.ndarray, bits_c: int,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
    """What A and C recover from the relay's XOR of the ``bits_c`` C-bound
    and ``n`` A-bound bits (packed, 8 per byte).

    A C-bound packet at least as long is split at bit ``n`` and its excess
    sent to C alone; a shorter one is zero-padded.  Both packets start at
    bit 0, so the XOR lines up byte for byte, and C takes the excess from
    ``to_c`` at its own byte offsets.  ``n = 0`` is a pure tail and
    ``bits_c = 0`` a pure pad.  ``to_c`` and ``to_a`` are left as they are.
    The relay works in ``temps``, ``len(to_a) + len(to_c)`` bytes or more
    whose contents are never read: its first ``len(to_a)`` bytes hold D_B,
    then what A recovers; the next ``len(to_c)`` receive what C recovers.
    """
    size = len(to_a)
    common = min(size, len(to_c))
    d_b, at_c = temps[:size], temps[size:size + len(to_c)]
    # the C-bound packet cut or zero-padded to n bits, XORed with the A-bound
    # one: a split's first tail bits, in byte size - 1, are cleared
    np.bitwise_xor(to_c[:common], to_a[:common], out=d_b[:common])
    d_b[common:] = to_a[common:]
    _clear_pad(d_b, n)
    # each terminal strips its own packet from D_B: C first, since A's
    # recovery is written over D_B
    np.bitwise_xor(d_b[:common], to_a[:common], out=at_c[:common])
    np.bitwise_xor(d_b[:common], to_c[:common], out=d_b[:common])
    at_a = _clear_pad(d_b, n)
    if bits_c > n:
        # C's recovered bits, then the tail from bit n on, which may share
        # the last recovered byte
        at_c[size:] = to_c[size:]
        if n % 8:
            at_c[size - 1] |= to_c[size - 1] & 0xFF >> n % 8
    return at_a, at_c


# the relay walks both packets in chunks of this many bytes each, a whole
# number of words: an exchange holds two chunks of packet and two of
# temporaries, 512 KiB however large its packets, and each chunk's draw is
# one pass.  A chunk costs 20-35 us of numpy calls whatever its size: a DF
# exchange of 2.45 Mbit took 12-14% longer in 128 KiB chunks than as one
# chunk, and 28-33% longer in 64 KiB ones, on a 2-core Linux VM
_RELAY_CHUNK = 131072


def _exchange(scheme: str, config: LinkConfig, n_symbols: int,
              loads: tuple[tuple[float, float], tuple[float, float]], overheard: float | None,
              share: str, analytic: float, seed: int) -> Transcript:
    """Check the block and seed, turn the loads, A's then C's ``(rate, share
    of the block)``, into whole-bit packets, relay them and check both decodes.

    The opposite terminal overhears each source step at the capacity
    ``overheard`` (None: not at all), and the relay forwards each packet less
    that whole-bit prefix, sending any excess of the C-bound one as D_BC2
    (of D_BC, what C did not overhear), or D_AC2 if none is overheard.  An
    empty packet or suffix raises :class:`ProtocolConfigError` naming the
    block at ``share`` (``"theta=0.5"``).  Terminal labels are undone in the
    transcript when ``config`` was swapped.
    """
    if not isinstance(n_symbols, (int, np.integer)) or isinstance(n_symbols, bool):
        raise ValueError(f"n_symbols must be an integer, got {n_symbols!r}")
    if not 1 <= n_symbols <= MAX_BLOCK_SIZE:
        raise ValueError(f"n_symbols must lie in [1, {MAX_BLOCK_SIZE}], got {n_symbols!r}")
    _check_seed(seed)
    block = float(n_symbols)
    (rate_ac, share_ac), (rate_ca, share_ca) = loads
    symbols_ac, symbols_ca = block * share_ac, block * share_ca
    sizes = [math.floor(symbols_ac * rate_ac), math.floor(symbols_ca * rate_ca)]
    if overheard is not None:
        sizes += [sizes[0] - math.floor(symbols_ac * overheard),
                  sizes[1] - math.floor(symbols_ca * overheard)]
    if min(sizes) < 1:
        raise ProtocolConfigError(
            f"block of {n_symbols} symbols at {share} leaves an empty packet (sizes: "
            + ", ".join(map("{}={}".format, ("D_AC", "D_CA", "D_BC", "D_BA"), sizes)) + ")"
        )
    bits_ac, bits_ca = sizes[:2]
    bits_c, n = sizes[-2:]  # the suffixes the relay forwards to C and to A
    if max(bits_ac, bits_ca) > MAX_BLOCK_SIZE:
        raise ValueError(
            f"source packets of {bits_ac} and {bits_ca} bits exceed the "
            f"{MAX_BLOCK_SIZE}-bit limit; use a shorter block"
        )
    # only the suffix the relay forwards is drawn: the overheard prefix is never
    # read.  A's suffix takes the seed's words from 0 on, C's the words after it
    words_c = -(-bits_c // 64)
    # one buffer holds a chunk of each packet as drawn, then the relay's
    # temporaries; until the relay runs, the draws use that region as
    # scratch.  Chunk k is bytes k * chunk on of both packets: the XOR, the
    # pad at bit n, the split and the tail are each relayed, and checked, in
    # the chunk that holds them
    chunk = min(_RELAY_CHUNK, 8 * -(-max(bits_c, n) // 64))
    space = np.empty(4 * chunk, dtype=np.uint8)
    out_c, out_a, temps = space[:chunk], space[chunk:2 * chunk], space[2 * chunk:]
    for start in range(0, max(bits_c, n), 8 * chunk):
        part_c, part_a = (min(max(bits - start, 0), 8 * chunk) for bits in (bits_c, n))
        to_c = _draw_bits(seed, start // 64, part_c, out_c, temps)
        to_a = _draw_bits(seed, words_c + start // 64, part_a, out_a, temps)
        at_a, at_c = _relay_broadcast(temps, to_c, to_a, part_c, part_a)
        # the relay's arrays, XORed in place with what was sent, are zero
        # where decoded (numpy takes a uint8 max in about a third of any's
        # time)
        at_c ^= to_c
        at_a ^= to_a
        if at_c.max(initial=0) or at_a.max(initial=0):
            raise ProtocolError(f"decode mismatch in {scheme} exchange")
    c1, c2 = capacity(config.gamma1), capacity(config.gamma2)
    steps = [
        TranscriptStep("A", rate_ac, symbols_ac, bits_ac, "D_AC"),
        TranscriptStep("C", rate_ca, symbols_ca, bits_ca, "D_CA"),
        TranscriptStep("B", c1, n / c1, n, "D_B"),
    ]
    if bits_c > n:
        tail = "D_AC2" if overheard is None else "D_BC2"
        steps.append(TranscriptStep("B", c2, (bits_c - n) / c2, bits_c - n, tail))

    # the source steps fill the N symbols (JDF's two overlap, counted once)
    total_symbols = block + sum(s.symbols for s in steps[2:])
    if config.swapped:
        steps = [replace(s, sender=s.sender.translate(_SWAP), label=s.label.translate(_SWAP))
                 for s in steps]
        bits_ac, bits_ca = bits_ca, bits_ac
    return Transcript(
        scheme=scheme,
        steps=tuple(steps),
        delivered_ac=bits_ac,
        delivered_ca=bits_ca,
        total_symbols=total_symbols,
        realized_rate=(bits_ac + bits_ca) / total_symbols,
        analytic_rate=analytic,
        success=True,
    )


# bounds the symbols of a block and the bits of each packet, and so an
# exchange's time; its memory is the relay's chunks whatever the size.  The
# largest exchange at the cap (DF split-and-xor, CI's 90.9*10**6-symbol case)
# peaks at 0.86 MB traced and 29.2 MB RSS as a CLI process, on a 2-core Linux VM
MAX_BLOCK_SIZE = 100_000_000


def run_df(config: LinkConfig, n_symbols: int, theta: float, seed: int = 0) -> Transcript:
    """Simulate the three-step DF exchange with network coding at the relay.

    Step 1: A transmits for ``(1-theta)*N`` symbols at the A-relay capacity;
    C overhears a prefix on the direct link.  Step 2: C transmits for
    ``theta*N`` symbols likewise.  Step 3: the relay XORs the two unknown
    suffixes, splitting the longer C-bound one (split-and-xor) or padding
    the shorter one (pad-and-xor), and broadcasts at the weaker-link rate;
    a split remainder goes out separately at the stronger-link rate.
    Each terminal already holds the prefix it overheard, so the decode
    check covers the suffix the relay delivered.

    A block too short for every packet and suffix to hold at least one bit
    is refused, as :func:`_exchange` says.
    """
    breakdown = schemes.df_rate(config, theta)  # validates theta as well
    loads = ((capacity(config.gamma1), 1.0 - theta), (capacity(config.gamma2), theta))
    return _exchange("DF", config, n_symbols, loads, capacity(config.gamma0), f"theta={theta:g}",
                     breakdown.rate, seed)


def run_jdf(config: LinkConfig, n_symbols: int, lam: float, seed: int = 0) -> Transcript:
    """Simulate the two-step JDF exchange.

    Step 1: both terminals transmit simultaneously for ``N`` symbols at the
    multiple-access rate pair selected by ``lam``; the relay decodes both
    packets.  Step 2: the relay broadcasts the XOR of the packets at the
    weaker-link rate, padding the C-bound packet or splitting off its
    excess when their lengths differ.  Each terminal strips its own packet
    from the XOR.
    """
    breakdown = schemes.jdf_rate(config, lam)  # validates lam
    pair = breakdown.rate_pair
    return _exchange("JDF", config, n_symbols, ((pair.rate_a, 1.0), (pair.rate_c, 1.0)), None,
                     f"lam={lam:g}", breakdown.rate, seed)
