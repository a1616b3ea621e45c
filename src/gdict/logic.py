"""Two-level Boolean minimization and compilation into controlled-NOT networks.

A database column becomes a truth table over the index bits, the table is
minimized to a set of product terms (cubes), and each cube compiles to one
multi-controlled-NOT.  Because the gates XOR onto their target, the compiled
cube set must be pairwise disjoint so that exactly one gate fires per input;
``minimize`` guarantees this with a splitting pass after cover selection.

Input ordering: cube input i corresponds to index bit i, so input m-1 is the
most significant index bit.  Debug strings list inputs MSB first, e.g. "01-"
means (negative, positive, absent) over three inputs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .sim import Gate, Register, MCX, X


@dataclass(frozen=True)
class Cube:
    """Product term: ``mask`` bit i set means input i has a literal, with
    polarity taken from the corresponding bit of ``value``."""

    num_inputs: int
    mask: int
    value: int

    def __post_init__(self):
        full = (1 << self.num_inputs) - 1
        if self.mask & ~full:
            raise ValueError("mask exceeds input width")
        if self.value & ~self.mask:
            raise ValueError("value sets bits outside the mask")

    def covers(self, i: int) -> bool:
        return (i & self.mask) == self.value

    def covers_array(self, indices: np.ndarray) -> np.ndarray:
        return (indices & self.mask) == self.value

    @property
    def literal_count(self) -> int:
        return bin(self.mask).count("1")

    def intersects(self, other: "Cube") -> bool:
        both = self.mask & other.mask
        return (self.value ^ other.value) & both == 0

    def subtract(self, other: "Cube") -> list["Cube"]:
        """Disjoint cubes covering exactly self minus other."""
        if not self.intersects(other):
            return [self]
        pieces = []
        cur_mask, cur_value = self.mask, self.value
        for i in range(self.num_inputs):
            b = 1 << i
            if other.mask & b and not self.mask & b:
                flipped = (~other.value) & b
                pieces.append(Cube(self.num_inputs, cur_mask | b, cur_value | flipped))
                cur_mask |= b
                cur_value |= other.value & b
        return pieces  # the residue (cur_mask, cur_value) lies inside other

    def to_string(self) -> str:
        chars = []
        for i in reversed(range(self.num_inputs)):
            b = 1 << i
            chars.append("-" if not self.mask & b else "1" if self.value & b else "0")
        return "".join(chars)

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        m = len(text)
        mask = value = 0
        for pos, ch in enumerate(text):
            i = m - 1 - pos
            if ch == "-":
                continue
            if ch not in "01":
                raise ValueError(f"bad cube character {ch!r}")
            mask |= 1 << i
            if ch == "1":
                value |= 1 << i
        return cls(m, mask, value)


@dataclass
class TruthTable:
    """Outputs over all 2**num_inputs assignments; care bit 0 = don't-care."""

    num_inputs: int
    outputs: np.ndarray
    care: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        size = 1 << self.num_inputs
        self.outputs = np.asarray(self.outputs, dtype=np.uint8)
        if self.care is None:
            self.care = np.ones(size, dtype=np.uint8)
        else:
            self.care = np.asarray(self.care, dtype=np.uint8)
        if len(self.outputs) != size or len(self.care) != size:
            raise ValueError(f"table arrays must have length {size}")

    @classmethod
    def from_bits(cls, bits, care=None) -> "TruthTable":
        bits = list(bits)
        m = max(1, (len(bits) - 1).bit_length())
        if len(bits) != 1 << m:
            raise ValueError("bit list length must be a power of two")
        return cls(m, np.array(bits, dtype=np.uint8), care)


@dataclass
class Cover:
    """Ordered cube set; pairwise-disjoint when produced by ``minimize``."""

    num_inputs: int
    cubes: tuple[Cube, ...] = field(default_factory=tuple)

    def evaluate_all(self) -> np.ndarray:
        indices = np.arange(1 << self.num_inputs)
        acc = np.zeros(len(indices), dtype=bool)
        for c in self.cubes:
            acc |= c.covers_array(indices)
        return acc.astype(np.uint8)

    def is_disjoint(self) -> bool:
        for i, a in enumerate(self.cubes):
            for b in self.cubes[i + 1:]:
                if a.intersects(b):
                    return False
        return True

    def to_strings(self) -> list[str]:
        return [c.to_string() for c in self.cubes]


def prime_implicants(num_inputs: int, on: set[int], dc: set[int]) -> list[Cube]:
    """Quine-McCluskey merge passes; returns primes covering >= 1 ON minterm."""
    level = {((1 << num_inputs) - 1, i) for i in on | dc}
    primes: set[tuple[int, int]] = set()
    while level:
        buckets: dict[tuple[int, int], list] = defaultdict(list)
        for mask, val in level:
            buckets[(mask, bin(val).count("1"))].append((mask, val))
        merged: set[tuple[int, int]] = set()
        nxt: set[tuple[int, int]] = set()
        for (mask, ones), items in buckets.items():
            for a in items:
                for b in buckets.get((mask, ones + 1), ()):
                    diff = a[1] ^ b[1]
                    if diff and not diff & (diff - 1):
                        merged.add(a)
                        merged.add(b)
                        nxt.add((mask & ~diff, a[1] & ~diff))
        primes |= level - merged
        level = nxt
    cubes = [Cube(num_inputs, m, v) for m, v in primes]
    return [c for c in cubes if any(c.covers(i) for i in on)]


def minimize(table: TruthTable) -> Cover:
    """Greedy prime-implicant cover, split into pairwise-disjoint cubes.

    Ties in the greedy selection go to the implicant with the most newly
    covered minterms, then fewest literals, then lexicographic cube order,
    which keeps synthesized gate lists reproducible.
    """
    m = table.num_inputs
    if m > 16:
        raise ValueError("minimization supports at most 16 inputs")
    indices = np.arange(1 << m)
    on_arr = (table.outputs != 0) & (table.care != 0)
    dc_arr = table.care == 0
    on = set(map(int, indices[on_arr]))
    dc = set(map(int, indices[dc_arr]))
    if not on:
        return Cover(m, ())

    primes = prime_implicants(m, on, dc)
    primes.sort(key=lambda c: c.to_string())
    coverage = {c: c.covers_array(indices) & on_arr for c in primes}

    remaining = on_arr.copy()
    chosen: list[Cube] = []
    while remaining.any():
        best = None
        best_rank = None
        for c in primes:
            newly = int((coverage[c] & remaining).sum())
            if newly == 0:
                continue
            rank = (-newly, c.literal_count, c.to_string())
            if best_rank is None or rank < best_rank:
                best, best_rank = c, rank
        chosen.append(best)
        remaining &= ~coverage[best]

    disjoint: list[Cube] = []
    for cube in chosen:
        pieces = [cube]
        for prev in disjoint:
            pieces = [p for piece in pieces for p in piece.subtract(prev)]
        if dc:
            pieces = [p for p in pieces if bool((p.covers_array(indices) & on_arr).any())]
        disjoint.extend(pieces)
    return Cover(m, tuple(disjoint))


def verify_cover(cover: Cover, table: TruthTable) -> bool:
    """Exhaustive check of cover evaluation against the table's care inputs."""
    got = cover.evaluate_all()
    care = table.care != 0
    return bool(np.array_equal(got[care], (table.outputs != 0).astype(np.uint8)[care]))


def cover_to_gates(cover: Cover, index_register: Register, target: int) -> list[Gate]:
    """One MCX per cube; an all-absent cube compiles to an uncontrolled X.

    Disjointness means at most one gate fires per basis input, so the XOR
    accumulation on the target equals the OR of the cubes.
    """
    if len(index_register.qubits) < cover.num_inputs:
        raise ValueError("index register narrower than the cover's input count")
    if not cover.is_disjoint():
        raise ValueError("cover cubes overlap; compile requires disjoint cubes")
    gates = []
    for cube in cover.cubes:
        if cube.mask == 0:
            gates.append(X(target))
            continue
        controls = [
            (index_register.qubits[i], bool(cube.value >> i & 1))
            for i in range(cube.num_inputs)
            if cube.mask >> i & 1
        ]
        gates.append(MCX(controls, target))
    return gates
