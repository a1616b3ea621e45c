import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdict.logic import (
    Cover,
    Cube,
    TruthTable,
    cover_to_gates,
    minimize,
    prime_implicants,
    verify_cover,
)
from gdict.sim import Circuit, Register, apply_circuit, new_state


def random_table(rng: np.random.Generator, m: int) -> TruthTable:
    return TruthTable(m, rng.integers(0, 2, size=1 << m, dtype=np.uint8))


def table_of(f: int, m: int) -> TruthTable:
    """Table whose output at input i is bit i of ``f``."""
    return TruthTable(m, [f >> i & 1 for i in range(1 << m)])


def xor_of_cubes(cover: Cover) -> list[int]:
    """Output per input as the parity of the cubes covering it, cube by cube."""
    return [sum(c.covers(i) for c in cover.cubes) % 2 for i in range(1 << cover.num_inputs)]


def esop_minima(m: int) -> list[int]:
    """Fewest mixed-polarity product terms whose XOR is f, for every f over
    m inputs: breadth-first search from 0 with each of the 3^m terms as a
    step, independent of ``gdict.logic``."""
    terms = {
        sum(1 << i for i in range(1 << m) if (i & mask) == value)
        for mask in range(1 << m)
        for value in range(1 << m)
        if value & ~mask == 0
    }
    assert len(terms) == 3 ** m
    dist = [-1] * (1 << (1 << m))
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for f in frontier:
            for term in terms:
                if dist[f ^ term] < 0:
                    dist[f ^ term] = dist[f] + 1
                    nxt.append(f ^ term)
        frontier = nxt
    return dist


class TestCube:
    def test_string_roundtrip(self):
        for text in ("01-", "---", "111", "0-1"):
            cube = Cube.from_string(text)
            assert cube.to_string() == text

    def test_covers(self):
        cube = Cube.from_string("1-0")  # input2=1, input0=0
        assert cube.covers(0b100)
        assert cube.covers(0b110)
        assert not cube.covers(0b101)
        assert not cube.covers(0b000)

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            Cube(2, 0b01, 0b10)

    def test_subtract_disjointness(self):
        rng = np.random.default_rng(0)
        indices = np.arange(1 << 4)
        for _ in range(200):
            a = Cube(4, int(rng.integers(0, 16)), 0)
            a = Cube(4, a.mask, int(rng.integers(0, 16)) & a.mask)
            b = Cube(4, int(rng.integers(0, 16)), 0)
            b = Cube(4, b.mask, int(rng.integers(0, 16)) & b.mask)
            pieces = a.subtract(b)
            want = a.covers_array(indices) & ~b.covers_array(indices)
            got = np.zeros(16, dtype=bool)
            for piece in pieces:
                mask = piece.covers_array(indices)
                assert not (got & mask).any()  # pieces must not overlap
                got |= mask
            assert np.array_equal(got, want)


class TestPrimeImplicants:
    def test_primes_cover_exactly_and_are_maximal(self):
        # Kept for callers outside minimize: every prime covers only ON
        # minterms, the primes cover them all, and no literal can be dropped.
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            on = {i for i in range(1 << m) if rng.integers(0, 2)}
            primes = prime_implicants(m, on, set())
            covered = set()
            for p in primes:
                cells = {i for i in range(1 << m) if p.covers(i)}
                assert cells <= on
                covered |= cells
                for b in range(m):
                    if p.mask >> b & 1:
                        wider = Cube(m, p.mask & ~(1 << b), p.value & ~(1 << b))
                        assert not {i for i in range(1 << m) if wider.covers(i)} <= on
            assert covered == on


class TestMinimize:
    def test_xor_two_disjoint_cubes(self):
        table = TruthTable(2, [0, 1, 1, 0])
        cover = minimize(table)
        assert len(cover.cubes) == 2
        assert verify_cover(cover, table)

    def test_single_variable(self):
        cover = minimize(TruthTable(2, [0, 0, 1, 1]))
        assert cover.to_strings() == ["1-"]

    def test_all_zeros(self):
        cover = minimize(TruthTable(2, [0, 0, 0, 0]))
        assert cover.cubes == ()

    def test_all_ones(self):
        cover = minimize(TruthTable(2, [1, 1, 1, 1]))
        assert cover.to_strings() == ["--"]

    def test_or_splits_into_two(self):
        cover = minimize(TruthTable(2, [0, 1, 1, 1]))
        assert len(cover.cubes) == 2
        assert xor_of_cubes(cover) == [0, 1, 1, 1]
        assert verify_cover(cover, TruthTable(2, [0, 1, 1, 1]))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        table = random_table(rng, 6)
        first = minimize(table).to_strings()
        assert minimize(table).to_strings() == first

    def test_input_cap(self):
        with pytest.raises(ValueError):
            minimize(TruthTable(17, np.zeros(1 << 17, dtype=np.uint8)))

    def test_roundtrip_random_tables(self):
        # 1000 randomized tables across widths 1..8: the XOR of the cubes
        # must equal the table and the cover never beat the minterm count.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = int(rng.integers(1, 9))
            table = random_table(rng, m)
            cover = minimize(table)
            assert verify_cover(cover, table)
            on_count = int((table.outputs != 0).sum())
            assert len(cover.cubes) <= on_count

    def test_exhaustive_parity(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            table = random_table(rng, m)
            assert xor_of_cubes(minimize(table)) == list(table.outputs)

    @pytest.mark.parametrize("m", [1, 2])
    def test_exact_on_small_functions(self, m):
        minima = esop_minima(m)
        for f in range(1 << (1 << m)):
            assert len(minimize(table_of(f, m)).cubes) == minima[f], f

    def test_three_input_total(self):
        # 603 was the total of the former disjoint-cover synthesis; 549 is
        # the sum of the exact minima.
        total = sum(len(minimize(table_of(f, 3)).cubes) for f in range(256))
        assert sum(esop_minima(3)) == 549
        assert total <= 603

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10).flatmap(
        lambda m: st.lists(st.booleans(), min_size=1 << m, max_size=1 << m)))
    def test_xor_of_cubes_equals_table(self, bits):
        table = TruthTable((len(bits) - 1).bit_length(), bits)
        assert verify_cover(minimize(table), table)


class TestVerifyCover:
    def test_examples(self):
        xor_table = TruthTable(2, [0, 1, 1, 0])
        xor_cover = Cover(2, (Cube.from_string("01"), Cube.from_string("10")))
        assert verify_cover(xor_cover, xor_table)
        assert not verify_cover(Cover(2, ()), xor_table)

    def test_minimize_output_always_verifies(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            table = random_table(rng, int(rng.integers(1, 9)))
            assert verify_cover(minimize(table), table)


class TestCoverToGates:
    def setup_method(self):
        self.register = Register("idx", (0, 1))

    def test_xor_cover(self):
        cover = Cover(2, (Cube.from_string("01"), Cube.from_string("10")))
        gates = cover_to_gates(cover, self.register, target=2)
        assert len(gates) == 2
        # cube "01": input1 negative, input0 positive
        assert gates[0].controls == ((0, True), (1, False))
        assert gates[0].targets == (2,)
        assert gates[1].controls == ((0, False), (1, True))

    def test_empty_cover(self):
        assert cover_to_gates(Cover(2, ()), self.register, 2) == []

    def test_constant_one_compiles_to_x(self):
        gates = cover_to_gates(Cover(2, (Cube.from_string("--"),)), self.register, 2)
        assert len(gates) == 1
        assert gates[0].kind == "X"

    def test_overlapping_cover_compiles(self):
        overlapping = Cover(2, (Cube.from_string("1-"), Cube.from_string("-1")))
        assert len(cover_to_gates(overlapping, self.register, 2)) == 2
        assert simulate_cover_outputs(overlapping, 2) == xor_of_cubes(overlapping) == [0, 1, 1, 0]

    def test_register_too_narrow(self):
        with pytest.raises(ValueError):
            cover_to_gates(Cover(3, (Cube.from_string("111"),)), self.register, 3)


def simulate_cover_outputs(cover: Cover, m: int) -> list[int]:
    register = Register("idx", tuple(range(m)))
    gates = cover_to_gates(cover, register, target=m)
    circuit = Circuit(m + 1, gates)
    outputs = []
    for i in range(1 << m):
        state = apply_circuit(new_state(m + 1, i), circuit)
        peak = int(np.argmax(np.abs(state.amplitudes)))
        assert abs(state.amplitudes[peak] - 1) < 1e-12
        outputs.append(peak >> m)
    return outputs


class TestGateNetworkEquivalence:
    def test_xor_network(self):
        cover = minimize(TruthTable(2, [0, 1, 1, 0]))
        assert simulate_cover_outputs(cover, 2) == [0, 1, 1, 0]

    def test_random_tables_exhaustive(self):
        rng = np.random.default_rng(46)
        for _ in range(40):
            m = int(rng.integers(1, 7))
            table = random_table(rng, m)
            cover = minimize(table)
            assert simulate_cover_outputs(cover, m) == list(table.outputs)

    def test_eight_input_table(self):
        rng = np.random.default_rng(47)
        table = random_table(rng, 8)
        cover = minimize(table)
        assert simulate_cover_outputs(cover, 8) == list(table.outputs)
