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
from dataclasses import dataclass

import numpy as np

from . import schemes
from .channel import LinkConfig, capacity, ma_rate_pair


class ProtocolConfigError(ValueError):
    """The block is too short: some protocol packet would be empty."""


class ProtocolError(RuntimeError):
    """Internal consistency failure: a terminal decoded the wrong bits."""


@dataclass(frozen=True, eq=False)
class Packet:
    """An ordered string of bits with a bookkeeping label.

    Equality compares bit content only; labels are metadata.
    """

    bits: np.ndarray
    label: str

    def __post_init__(self):
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("packet bits must form a one-dimensional array")
        if arr.size and int(arr.max()) > 1:
            raise ValueError("packet bits must be 0 or 1")
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other):
        if not isinstance(other, Packet):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))


def xor_packets(first: Packet, second: Packet, label: str = "xor") -> Packet:
    """Bitwise XOR of two equal-length packets."""
    if len(first) != len(second):
        raise ValueError(
            f"cannot XOR packets of different lengths ({len(first)} vs {len(second)})"
        )
    return Packet(np.bitwise_xor(first.bits, second.bits), label)


def pad_to(packet: Packet, length: int) -> Packet:
    """Extend a packet with zero bits up to ``length``."""
    if length < len(packet):
        raise ValueError(f"cannot pad packet of {len(packet)} bits down to {length}")
    bits = np.zeros(length, dtype=np.uint8)
    bits[: len(packet)] = packet.bits
    return Packet(bits, packet.label)


def split_at(packet: Packet, index: int, labels: tuple[str, str] | None = None) -> tuple[Packet, Packet]:
    """Split a packet into its first ``index`` bits and the remainder."""
    if not 0 <= index <= len(packet):
        raise ValueError(f"split index {index} outside [0, {len(packet)}]")
    if labels is None:
        labels = (packet.label + "/1", packet.label + "/2")
    return Packet(packet.bits[:index], labels[0]), Packet(packet.bits[index:], labels[1])


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
    """Full record of one simulated exchange."""

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

    def __str__(self) -> str:
        return "\n".join(self.to_lines())


def _rng(seed: int) -> np.random.Generator:
    # counter-based generator: reproducible across platforms and numpy builds
    return np.random.Generator(np.random.Philox(seed))


def _random_packet(rng: np.random.Generator, n_bits: int, label: str) -> Packet:
    return Packet(rng.integers(0, 2, size=n_bits, dtype=np.uint8), label)


_SWAP = str.maketrans("AC", "CA")


def _deswap(scheme: str, steps: list[TranscriptStep], delivered_ac: int,
            delivered_ca: int, total_symbols: float, realized: float,
            analytic: float, swapped: bool) -> Transcript:
    """Assemble the transcript, undoing terminal relabelling if needed."""
    if swapped:
        steps = [
            TranscriptStep(
                sender=s.sender.translate(_SWAP),
                rate=s.rate,
                symbols=s.symbols,
                bits=s.bits,
                label=s.label.translate(_SWAP),
            )
            for s in steps
        ]
        delivered_ac, delivered_ca = delivered_ca, delivered_ac
    return Transcript(
        scheme=scheme,
        steps=tuple(steps),
        delivered_ac=delivered_ac,
        delivered_ca=delivered_ca,
        total_symbols=total_symbols,
        realized_rate=realized,
        analytic_rate=analytic,
        success=True,
    )


def _relay_broadcast(steps: list[TranscriptStep], to_c: Packet, to_a: Packet,
                     c1: float, c2: float) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast the XOR of the C-bound and A-bound packets at ``c1``.

    A C-bound packet at least as long is split and its excess sent to C
    alone at ``c2`` as ``<label>2``; a shorter one is zero-padded.  Appends
    the relay's steps; returns the bits A and C recover from them.
    """
    if len(to_c) >= len(to_a):
        own_c, tail = split_at(to_c, len(to_a), labels=(to_c.label + "1", to_c.label + "2"))
    else:
        own_c, tail = pad_to(to_c, len(to_a)), None
    d_b = xor_packets(own_c, to_a, "D_B")
    steps.append(TranscriptStep("B", c1, len(d_b) / c1, len(d_b), "D_B"))
    at_a = xor_packets(d_b, own_c).bits
    at_c = xor_packets(d_b, to_a).bits
    if tail is None:
        at_c = at_c[: len(to_c)]
    elif len(tail):
        steps.append(TranscriptStep("B", c2, len(tail) / c2, len(tail), tail.label))
        at_c = np.concatenate([at_c, tail.bits])
    return at_a, at_c


# bounds the symbols of a block and the bits of each packet, so that the
# bit arrays (one byte per bit, a few alive at once) stay within ~1 GB
MAX_BLOCK_SIZE = 100_000_000


def _check_block(n_symbols) -> None:
    if not isinstance(n_symbols, (int, np.integer)) or isinstance(n_symbols, bool):
        raise ValueError(f"n_symbols must be an integer, got {n_symbols!r}")
    if not 1 <= n_symbols <= MAX_BLOCK_SIZE:
        raise ValueError(f"n_symbols must lie in [1, {MAX_BLOCK_SIZE}], got {n_symbols!r}")


def _check_packets(bits_ac: int, bits_ca: int) -> None:
    if max(bits_ac, bits_ca) > MAX_BLOCK_SIZE:
        raise ValueError(
            f"source packets of {bits_ac} and {bits_ca} bits exceed the "
            f"{MAX_BLOCK_SIZE}-bit limit; use a shorter block"
        )


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

    _check_packets(bits_ac, bits_ca)
    rng = _rng(seed)
    d_ac = _random_packet(rng, bits_ac, "D_AC")
    d_ca = _random_packet(rng, bits_ca, "D_CA")
    steps = [
        TranscriptStep("A", c1, n1, bits_ac, "D_AC"),
        TranscriptStep("C", c2, n2, bits_ca, "D_CA"),
    ]

    # the relay forwards only what the opposite terminal has not overheard
    d_bc = Packet(d_ac.bits[side_c:], "D_BC")
    d_ba = Packet(d_ca.bits[side_a:], "D_BA")
    at_a, at_c = _relay_broadcast(steps, d_bc, d_ba, c1, c2)
    if not (np.array_equal(at_c, d_bc.bits) and np.array_equal(at_a, d_ba.bits)):
        raise ProtocolError("decode mismatch in DF exchange")

    total_symbols = n_symbols + sum(s.symbols for s in steps[2:])
    realized = (bits_ac + bits_ca) / total_symbols
    return _deswap(
        "DF", steps, bits_ac, bits_ca, total_symbols, realized,
        breakdown.rate, config.swapped,
    )


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
    c1 = capacity(config.gamma1)
    c2 = capacity(config.gamma2)

    bits_ac = math.floor(n_symbols * pair.rate_a)
    bits_ca = math.floor(n_symbols * pair.rate_c)
    if min(bits_ac, bits_ca) < 1:
        raise ProtocolConfigError(
            f"block of {n_symbols} symbols at lam={lam:g} leaves an empty "
            f"packet (sizes: D_AC={bits_ac}, D_CA={bits_ca})"
        )

    _check_packets(bits_ac, bits_ca)
    rng = _rng(seed)
    d_ac = _random_packet(rng, bits_ac, "D_AC")
    d_ca = _random_packet(rng, bits_ca, "D_CA")
    steps = [
        TranscriptStep("A", pair.rate_a, float(n_symbols), bits_ac, "D_AC"),
        TranscriptStep("C", pair.rate_c, float(n_symbols), bits_ca, "D_CA"),
    ]

    at_a, at_c = _relay_broadcast(steps, d_ac, d_ca, c1, c2)
    if not (np.array_equal(at_c, d_ac.bits) and np.array_equal(at_a, d_ca.bits)):
        raise ProtocolError("decode mismatch in JDF exchange")

    # the two source transmissions overlap: N symbols total, counted once
    total_symbols = n_symbols + sum(s.symbols for s in steps[2:])
    realized = (bits_ac + bits_ca) / total_symbols
    return _deswap(
        "JDF", steps, bits_ac, bits_ca, total_symbols, realized,
        breakdown.rate, config.swapped,
    )
