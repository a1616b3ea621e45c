"""Exclusive-sum-of-products synthesis and compilation into controlled-NOT networks.

A database column becomes a truth table over the index bits, the table is
synthesized as an exclusive sum of product terms (cubes, an ESOP), and each
cube compiles to one multi-controlled-NOT.  The gates XOR onto their
target, so the target ends up holding the XOR of the cubes that fire, and
any ESOP of the column is a correct circuit; cubes may overlap.
``minimize`` builds a pseudo-Kronecker expression of the table and shrinks
it with a distance-1 merge pass (Mishchenko & Perkowski, "Fast heuristic
minimization of exclusive-sums-of-products", 2001; Fazel, Thornton & Rice,
"ESOP-based Toffoli gate cascade generation", 2007).

Input ordering: cube input i corresponds to index bit i, so input m-1 is the
most significant index bit.  Debug strings list inputs MSB first, e.g. "01-"
means (negative, positive, absent) over three inputs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from .sim import Gate, Register, MCX, X

# The widest truth table ``minimize`` takes, so the widest dictionary index.
MAX_INPUTS = 16


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

    def subtract(self, other: "Cube") -> list["Cube"]:
        """Disjoint cubes covering exactly self minus other."""
        if (self.value ^ other.value) & self.mask & other.mask:  # disjoint
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
    """Outputs over all 2**num_inputs assignments."""

    num_inputs: int
    outputs: np.ndarray

    def __post_init__(self):
        size = 1 << self.num_inputs
        self.outputs = np.asarray(self.outputs, dtype=np.uint8)
        if len(self.outputs) != size:
            raise ValueError(f"table outputs must have length {size}")


@dataclass
class Cover:
    """Ordered cube set read as an exclusive sum: an input's value is the
    parity of the cubes that cover it."""

    num_inputs: int
    cubes: tuple[Cube, ...] = field(default_factory=tuple)

    def evaluate_all(self) -> np.ndarray:
        indices = np.arange(1 << self.num_inputs)
        acc = np.zeros(len(indices), dtype=bool)
        for c in self.cubes:
            acc ^= c.covers_array(indices)
        return acc.astype(np.uint8)

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


def _pkrm_cost(f: int, k: int, memo: list[dict[int, int]]) -> int:
    """Fewest cubes of a pseudo-Kronecker expression of ``f``, a bitset over
    the 2**k assignments of inputs 0..k-1 (bit i holds the output at i)."""
    if f == 0:
        return 0
    if k == 0:
        return 1
    cost = memo[k].get(f)
    if cost is None:
        cost = memo[k][f] = _cheapest_expansion(f, k, memo)[0]
    return cost


def _cheapest_expansion(f: int, k: int, memo) -> tuple[int, int, int, int]:
    """(cost, choice, f0, f1) for ``f`` expanded on input k-1, where f0 and
    f1 are its cofactors and choice 0, 1, 2 names the Shannon, positive
    Davio and negative Davio expansion; ties go to the lowest choice."""
    half = 1 << (k - 1)
    f0, f1 = f & ((1 << half) - 1), f >> half
    c0 = _pkrm_cost(f0, k - 1, memo)
    c1 = _pkrm_cost(f1, k - 1, memo)
    c2 = _pkrm_cost(f0 ^ f1, k - 1, memo)
    costs = (c0 + c1, c0 + c2, c1 + c2)
    cost = min(costs)
    return cost, costs.index(cost), f0, f1


def _pkrm_cubes(f: int, k: int, memo, mask: int, value: int, out: list) -> None:
    """Append the cubes of the cheapest expression of ``f`` to ``out``, each
    extended by the literals (mask, value) chosen above input k-1."""
    if f == 0:
        return
    if k == 0:
        out.append((mask, value))
        return
    _, choice, f0, f1 = _cheapest_expansion(f, k, memo)
    bit = 1 << (k - 1)
    if choice == 0:  # Shannon: x'f0 ^ xf1
        _pkrm_cubes(f0, k - 1, memo, mask | bit, value, out)
        _pkrm_cubes(f1, k - 1, memo, mask | bit, value | bit, out)
    elif choice == 1:  # positive Davio: f0 ^ x(f0^f1)
        _pkrm_cubes(f0, k - 1, memo, mask, value, out)
        _pkrm_cubes(f0 ^ f1, k - 1, memo, mask | bit, value | bit, out)
    else:  # negative Davio: f1 ^ x'(f0^f1)
        _pkrm_cubes(f1, k - 1, memo, mask, value, out)
        _pkrm_cubes(f0 ^ f1, k - 1, memo, mask | bit, value, out)


def _merge_distance_one(cubes: list[tuple[int, int]], num_inputs: int) -> list[tuple[int, int]]:
    """Rewrite pairs of cubes at distance one until none is left.

    Identical cubes cancel; xC ^ x'C = C; xC ^ C = x'C.  Every rewrite
    removes at least one cube, and each new cube is checked against the
    survivors, so no mergeable pair remains.  The survivors keep insertion
    order, which makes the result independent of hashing.
    """
    present: dict[tuple[int, int], None] = {}
    queue: deque[tuple[int, int]] = deque()

    def add(cube):
        if cube in present:
            del present[cube]
        else:
            present[cube] = None
            queue.append(cube)

    for cube in cubes:
        add(cube)
    bits = [1 << i for i in range(num_inputs)]
    while queue:
        cube = queue.popleft()
        if cube not in present:
            continue
        mask, value = cube
        for b in bits:
            # (partner, merged) pairs for the literal on input b
            if mask & b:  # cube is xC: with x'C it gives C, with C it gives x'C
                pairs = (((mask, value ^ b), (mask ^ b, value & ~b)),
                         ((mask ^ b, value & ~b), (mask, value ^ b)))
            else:  # cube is C: with xC it gives x'C, with x'C it gives xC
                pairs = (((mask | b, value | b), (mask | b, value)),
                         ((mask | b, value), (mask | b, value | b)))
            hit = next((pair for pair in pairs if pair[0] in present), None)
            if hit is not None:
                partner, merged = hit
                del present[cube], present[partner]
                add(merged)
                break
    return list(present)


def minimize(table: TruthTable) -> Cover:
    """Exclusive sum of products whose XOR equals the table.

    A memoised pseudo-Kronecker recursion picks, at each input from the
    most significant down, the cheapest of the Shannon, positive Davio and
    negative Davio expansions (ties in that order); a distance-1 merge pass
    then rewrites cube pairs into single cubes.  Both steps are
    deterministic, so synthesized gate lists are reproducible.
    """
    m = table.num_inputs
    if m > MAX_INPUTS:
        raise ValueError(f"minimization supports at most {MAX_INPUTS} inputs")
    f = int.from_bytes(np.packbits(table.outputs != 0, bitorder="little").tobytes(), "little")
    memo: list[dict[int, int]] = [{} for _ in range(m + 1)]
    cubes: list[tuple[int, int]] = []
    _pkrm_cubes(f, m, memo, 0, 0, cubes)
    return Cover(m, tuple(Cube(m, mask, value) for mask, value in _merge_distance_one(cubes, m)))


def verify_cover(cover: Cover, table: TruthTable) -> bool:
    """Exhaustive check that the XOR of the cover's cubes equals the table."""
    return bool(np.array_equal(cover.evaluate_all(), (table.outputs != 0).astype(np.uint8)))


def cover_to_gates(cover: Cover, index_register: Register, target: int) -> list[Gate]:
    """One MCX per cube; an all-absent cube compiles to an uncontrolled X.

    Each gate XORs its cube onto the target, so the network computes the
    cover's exclusive sum whether or not the cubes overlap.
    """
    if len(index_register.qubits) < cover.num_inputs:
        raise ValueError("index register narrower than the cover's input count")
    gates = []
    for cube in cover.cubes:
        if cube.mask == 0:
            gates.append(X(target))
            continue
        gates.append(MCX(index_register.controls(cube.value, cube.mask), target))
    return gates
