"""Bit-exact simulation of the DF and JDF packet exchanges.

The simulator moves real bit strings through the protocol steps and checks
that both terminals reconstruct the other side's packet exactly.  Channel
coding is abstracted away: a transmission of ``b`` bits at rate ``r``
occupies ``b / r`` symbols and is assumed error free, and random binning
against direct-link side information is modelled as prefix knowledge (the
receiving terminal already holds the first bits of the incoming packet, so
the relay only forwards the unknown suffix).

Bit counts are floored to whole bits per packet; symbol counts stay
fractional.  The realized two-way rate therefore approaches the analytic
rate from below as the block length grows, with an O(1/N) gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import schemes
from .channel import LinkConfig, ProtocolError, capacity


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


# raw words per random_raw call: 64 KiB, below glibc's mmap threshold, so the
# allocator recycles each chunk instead of faulting in fresh pages
_DRAW_CHUNK = 8192


def _draw_bits(bitgen: np.random.SFC64, count: int, out: np.ndarray) -> np.ndarray:
    """``count`` random bits, packed, from the bit generator's next raw
    64-bit words read as little-endian bytes; the pad bits are zero.

    The words are written into ``out``, which must hold them whole:
    ``8 * ceil(count / 64)`` bytes.  Returns the first ``ceil(count / 8)``
    bytes of it.
    """
    size = -(-count // 8)
    n_words = -(-size // 8)
    words = out[: 8 * n_words].view("<u8")
    for start in range(0, n_words, _DRAW_CHUNK):
        words[start:start + _DRAW_CHUNK] = bitgen.random_raw(min(_DRAW_CHUNK, n_words - start))
    return _clear_pad(out[:size], count)


def _relay_broadcast(steps: list[TranscriptStep], to_c: np.ndarray, to_a: np.ndarray,
                     bits_c: int, n: int, c1: float, c2: float, tail_label: str,
                     own_c: np.ndarray, at_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast the XOR of the ``bits_c`` C-bound and ``n`` A-bound bits
    (packed, 8 per byte) at ``c1``.

    A C-bound packet at least as long is split at bit ``n`` and its excess
    sent to C alone at ``c2`` as ``tail_label``; a shorter one is
    zero-padded.  Both packets start at bit 0, so the XOR lines up byte for
    byte, and C takes the excess from ``to_c`` at its own byte offsets.
    Appends the relay's steps; returns the bits A and C recover from them.
    ``to_c`` and ``to_a`` are left as they are.  The relay works in two
    temporaries whose contents are never read:
    ``own_c`` (``len(to_a)`` bytes) holds the C-bound packet cut or padded
    to ``n`` bits, then D_B, then what A recovers; ``at_c`` (``len(to_c)``
    bytes) receives what C recovers.
    """
    size = len(to_a)
    common = min(size, len(to_c))
    own_c[:common] = to_c[:common]
    own_c[common:] = 0
    d_b = np.bitwise_xor(_clear_pad(own_c, n), to_a, out=own_c)
    steps.append(TranscriptStep("B", c1, n / c1, n, "D_B"))
    # each terminal strips its own packet from D_B: C first, since A's
    # recovery is written over D_B
    np.bitwise_xor(d_b[:common], to_a[:common], out=at_c[:common])
    np.bitwise_xor(d_b[:common], to_c[:common], out=d_b[:common])
    at_a = _clear_pad(d_b, n)
    if bits_c > n:
        steps.append(TranscriptStep("B", c2, (bits_c - n) / c2, bits_c - n, tail_label))
        # C's recovered bits, then the tail from bit n on, which may share
        # the last recovered byte
        at_c[size:] = to_c[size:]
        if n % 8:
            at_c[size - 1] |= to_c[size - 1] & 0xFF >> n % 8
    return at_a, at_c


def _exchange(scheme: str, config: LinkConfig, n_symbols: int, steps: list[TranscriptStep],
              side_c: int, side_a: int, analytic: float, seed: int) -> Transcript:
    """Draw the source packets of ``steps`` (A's, then C's), relay them and
    check both decodes.

    The relay forwards each packet without the prefix the opposite terminal
    overheard (``side_c`` bits of A's, ``side_a`` of C's).  Terminal labels
    are undone in the transcript when ``config`` was swapped.
    """
    bits_ac, bits_ca = steps[0].bits, steps[1].bits
    if max(bits_ac, bits_ca) > MAX_BLOCK_SIZE:
        raise ValueError(
            f"source packets of {bits_ac} and {bits_ca} bits exceed the "
            f"{MAX_BLOCK_SIZE}-bit limit; use a shorter block"
        )
    # only the suffix the relay forwards is drawn: the overheard prefix is never
    # read.  A bit generator's raw words are reproducible across platforms and
    # numpy releases; SFC64 makes them about twice as fast as Philox
    bitgen = np.random.SFC64(seed)
    bits_c, n = bits_ac - side_c, bits_ca - side_a
    # one buffer holds C's and A's packets as drawn, in whole 64-bit words,
    # then the relay's temporaries own_c and at_c, sized like A's and C's.
    # glibc keeps a freed block below 32 MiB on its heap once it has unmapped
    # one that size, so the next exchange of a size reuses this one's pages
    span_c, span_a = (8 * -(-bits // 64) for bits in (bits_c, n))
    space = np.empty(2 * (span_c + span_a), dtype=np.uint8)
    to_c = _draw_bits(bitgen, bits_c, space[:span_c])
    to_a = _draw_bits(bitgen, n, space[span_c:span_c + span_a])
    own_c = space[span_c + span_a:][: len(to_a)]
    at_c = space[span_c + 2 * span_a:][: len(to_c)]
    # DF relays D_BC, the suffix of D_AC that C did not overhear; JDF all of D_AC
    tail_label = ("D_BC" if scheme == "DF" else "D_AC") + "2"
    at_a, at_c = _relay_broadcast(steps, to_c, to_a, bits_c, n, capacity(config.gamma1),
                                  capacity(config.gamma2), tail_label, own_c, at_c)
    # the relay's arrays, XORed in place with what was sent, are zero where decoded
    at_c ^= to_c
    at_a ^= to_a
    if at_c.any() or at_a.any():
        raise ProtocolError(f"decode mismatch in {scheme} exchange")

    # the source steps fill the N symbols (JDF's two overlap, counted once)
    total_symbols = n_symbols + sum(s.symbols for s in steps[2:])
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


# bounds the symbols of a block and the bits of each packet; packed 8 bits per
# byte, an exchange whose larger packet sits at the cap peaked at 29-48 MB of
# arrays and 61-79 MB RSS (DF split-and-xor the largest), on a 2-core Linux VM
MAX_BLOCK_SIZE = 100_000_000


def _check_block(n_symbols) -> None:
    if not isinstance(n_symbols, (int, np.integer)) or isinstance(n_symbols, bool):
        raise ValueError(f"n_symbols must be an integer, got {n_symbols!r}")
    if not 1 <= n_symbols <= MAX_BLOCK_SIZE:
        raise ValueError(f"n_symbols must lie in [1, {MAX_BLOCK_SIZE}], got {n_symbols!r}")


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

    Raises :class:`ProtocolConfigError` when the block is too short for
    every packet to hold at least one bit.
    """
    _check_block(n_symbols)
    breakdown = schemes.df_rate(config, theta)  # validates theta as well
    c0 = capacity(config.gamma0)
    c1 = capacity(config.gamma1)
    c2 = capacity(config.gamma2)
    n1 = n_symbols * (1.0 - theta)
    n2 = n_symbols * theta

    bits_ac = math.floor(n1 * c1)  # source packet A -> C
    bits_ca = math.floor(n2 * c2)
    side_c = math.floor(n1 * c0)  # prefix of D_AC that C overheard
    side_a = math.floor(n2 * c0)
    bits_bc = bits_ac - side_c
    bits_ba = bits_ca - side_a
    if min(bits_ac, bits_ca, bits_bc, bits_ba) < 1:
        raise ProtocolConfigError(
            f"block of {n_symbols} symbols at theta={theta:g} leaves an empty "
            f"packet (sizes: D_AC={bits_ac}, D_CA={bits_ca}, "
            f"D_BC={bits_bc}, D_BA={bits_ba})"
        )

    steps = [
        TranscriptStep("A", c1, n1, bits_ac, "D_AC"),
        TranscriptStep("C", c2, n2, bits_ca, "D_CA"),
    ]
    return _exchange("DF", config, n_symbols, steps, side_c, side_a, breakdown.rate, seed)


def run_jdf(config: LinkConfig, n_symbols: int, lam: float, seed: int = 0) -> Transcript:
    """Simulate the two-step JDF exchange.

    Step 1: both terminals transmit simultaneously for ``N`` symbols at the
    multiple-access rate pair selected by ``lam``; the relay decodes both
    packets.  Step 2: the relay broadcasts the XOR of the packets at the
    weaker-link rate, padding the C-bound packet or splitting off its
    excess when their lengths differ.  Each terminal strips its own packet
    from the XOR.
    """
    _check_block(n_symbols)
    breakdown = schemes.jdf_rate(config, lam)  # validates lam
    pair = breakdown.rate_pair
    bits_ac = math.floor(n_symbols * pair.rate_a)
    bits_ca = math.floor(n_symbols * pair.rate_c)
    if min(bits_ac, bits_ca) < 1:
        raise ProtocolConfigError(
            f"block of {n_symbols} symbols at lam={lam:g} leaves an empty "
            f"packet (sizes: D_AC={bits_ac}, D_CA={bits_ca})"
        )

    steps = [
        TranscriptStep("A", pair.rate_a, float(n_symbols), bits_ac, "D_AC"),
        TranscriptStep("C", pair.rate_c, float(n_symbols), bits_ca, "D_CA"),
    ]
    return _exchange("JDF", config, n_symbols, steps, 0, 0, breakdown.rate, seed)
