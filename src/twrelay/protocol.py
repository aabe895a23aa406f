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
from .channel import LinkConfig, capacity


class ProtocolConfigError(ValueError):
    """The block is too short: some protocol packet would be empty."""


class ProtocolError(RuntimeError):
    """Internal consistency failure: a terminal decoded the wrong bits."""


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


_SWAP = str.maketrans("AC", "CA")


def _relay_broadcast(steps: list[TranscriptStep], to_c: np.ndarray, to_a: np.ndarray,
                     c1: float, c2: float, tail_label: str) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast the XOR of the C-bound and A-bound bits at ``c1``.

    A C-bound packet at least as long is split and its excess sent to C
    alone at ``c2`` as ``tail_label``; a shorter one is zero-padded.
    Appends the relay's steps; returns the bits A and C recover from them.
    Its temporaries (the XOR, a padded copy) are freed on return, before
    the caller's decode check.
    """
    n = len(to_a)
    if len(to_c) >= n:
        own_c, tail = to_c[:n], to_c[n:]
    else:
        own_c, tail = np.zeros(n, dtype=np.uint8), None
        own_c[: len(to_c)] = to_c
    d_b = own_c ^ to_a
    steps.append(TranscriptStep("B", c1, n / c1, n, "D_B"))
    at_a = d_b ^ own_c
    at_c = d_b ^ to_a
    if tail is None:
        at_c = at_c[: len(to_c)]
    elif len(tail):
        steps.append(TranscriptStep("B", c2, len(tail) / c2, len(tail), tail_label))
        at_c = np.concatenate([at_c, tail])
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
    # counter-based generator: reproducible across platforms and numpy builds
    rng = np.random.Generator(np.random.Philox(seed))
    d_ac = rng.integers(0, 2, size=bits_ac, dtype=np.uint8)
    d_ca = rng.integers(0, 2, size=bits_ca, dtype=np.uint8)
    to_c, to_a = d_ac[side_c:], d_ca[side_a:]
    # DF relays D_BC, the suffix of D_AC that C did not overhear; JDF all of D_AC
    tail_label = ("D_BC" if scheme == "DF" else "D_AC") + "2"
    at_a, at_c = _relay_broadcast(steps, to_c, to_a, capacity(config.gamma1),
                                  capacity(config.gamma2), tail_label)
    if not (np.array_equal(at_c, to_c) and np.array_equal(at_a, to_a)):
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


# bounds the symbols of a block and the bits of each packet, so that the
# bit arrays (one byte per bit, a few alive at once) stay within ~1 GB
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
