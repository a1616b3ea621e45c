import numpy as np
import pytest

from conftest import random_database
from gdict.dictionary import (
    Database,
    build_dictionary,
    column_truth_table,
    pad_database,
    parse_database,
)
from gdict.errors import ParseError
from gdict.sim import (
    H,
    apply_circuit,
    apply_gate,
    gate_count,
    inverse,
    marginal_distribution,
    new_state,
)


class TestDatabase:
    def test_widths(self, reference_db):
        assert reference_db.n == 7
        assert reference_db.m == 2
        assert reference_db.is_padded

    def test_validation(self):
        with pytest.raises(ValueError):
            Database(())
        with pytest.raises(ValueError):
            Database(("01", "1"))
        with pytest.raises(ValueError):
            Database(("0a",))

    def test_minimum_index_width(self):
        assert Database(("1",)).m == 1


class TestPadding:
    def test_power_of_two_unchanged(self, reference_db):
        padded = pad_database(reference_db)
        assert padded.records == reference_db.records
        assert padded.m == 2

    def test_three_records_duplicate_first(self):
        db = Database(("00", "01", "10"))
        padded = pad_database(db)
        assert padded.records == ("00", "01", "10", "00")

    def test_single_record(self):
        padded = pad_database(Database(("1",)))
        assert padded.records == ("1", "1")
        assert padded.m == 1


class TestColumnTruthTable:
    def test_reference_column_0(self, reference_db):
        table = column_truth_table(reference_db, 0)
        assert list(table.outputs) == [0, 1, 1, 0]

    def test_reference_column_2(self, reference_db):
        table = column_truth_table(reference_db, 2)
        assert list(table.outputs) == [0, 0, 1, 1]

    def test_padded_single_record(self):
        db = pad_database(Database(("1",)))
        assert list(column_truth_table(db, 0).outputs) == [1, 1]

    def test_unpadded_rows_follow_duplication(self):
        db = Database(("10", "01", "11"))
        assert list(column_truth_table(db, 0).outputs) == [1, 0, 1, 1]

    def test_column_range(self, reference_db):
        with pytest.raises(ValueError):
            column_truth_table(reference_db, 7)


def mapping_state(built, index: int):
    state = new_state(built.circuit.num_qubits, built.index.place_value(index))
    return apply_circuit(state, built.circuit)


class TestBuildDictionary:
    def test_reference_mappings(self, reference_db):
        built = build_dictionary(reference_db)
        for i, record in enumerate(reference_db.records):
            state = mapping_state(built, i)
            target = built.index.place_value(i) | built.data.place_value(int(record, 2))
            assert abs(state.amplitudes[target] - 1) < 1e-9

    def test_index_two_reads_86(self, reference_db):
        built = build_dictionary(reference_db)
        state = mapping_state(built, 2)
        dist = marginal_distribution(state, built.data)
        assert dist[86] == pytest.approx(1.0, abs=1e-12)

    def test_identical_records_compile_to_plain_x(self):
        built = build_dictionary(Database(("11", "11")))
        kinds = [g.kind for g in built.circuit.gates]
        assert kinds == ["X", "X"]
        assert all(not g.controls for g in built.circuit.gates)

    def test_requires_padding(self):
        with pytest.raises(ValueError):
            build_dictionary(Database(("0", "1", "1")))

    def test_gate_count_ceiling(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            db = random_database(rng, m, n)
            built = build_dictionary(db)
            counts = gate_count(built.circuit)
            total = counts.get("MCX", 0) + counts.get("X", 0)
            assert total <= n * (1 << m)


class TestInverseAndInvolution:
    def test_inverse_is_reversed_gates(self, reference_db):
        built = build_dictionary(reference_db)
        inv = inverse(built.circuit)
        assert inv.gates == list(reversed(built.circuit.gates))

    def test_apply_then_inverse_restores(self, reference_db):
        built = build_dictionary(reference_db)
        inv = inverse(built.circuit)
        for i in range(4):
            state = mapping_state(built, i)
            apply_circuit(state, inv)
            assert abs(state.amplitudes[built.index.place_value(i)] - 1) < 1e-9

    def test_self_inverse_on_random_states(self, reference_db):
        built = build_dictionary(reference_db)
        rng = np.random.default_rng(3)
        dim = 1 << built.circuit.num_qubits
        for _ in range(100):
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amps /= np.linalg.norm(amps)
            state = new_state(built.circuit.num_qubits)
            state.amplitudes[:] = amps
            apply_circuit(state, built.circuit)
            apply_circuit(state, built.circuit)
            assert np.max(np.abs(state.amplitudes - amps)) < 1e-9

    def test_unentangling_leaves_data_exactly_zero(self, reference_db):
        built = build_dictionary(reference_db)
        state = new_state(built.circuit.num_qubits)
        for q in built.index.qubits:
            apply_gate(state, H(q))
        apply_circuit(state, built.circuit)
        apply_circuit(state, inverse(built.circuit))
        data_dist = marginal_distribution(state, built.data)
        assert 1.0 - data_dist[0] < 1e-18
        index_dist = marginal_distribution(state, built.index)
        assert all(p == pytest.approx(0.25, abs=1e-12) for p in index_dist.values())


def test_random_databases_map_faithfully():
    rng = np.random.default_rng(21)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        db = random_database(rng, m, n)
        built = build_dictionary(db)
        state = new_state(built.circuit.num_qubits)
        for q in built.index.qubits:
            apply_gate(state, H(q))
        apply_circuit(state, built.circuit)
        scale = (1 << m) ** 0.5
        for i, record in enumerate(db.records):
            pos = built.index.place_value(i) | built.data.place_value(int(record, 2))
            assert abs(state.amplitudes[pos] * scale - 1) < 1e-9


class TestParseDatabase:
    def test_comments_and_blanks(self):
        db = parse_database("# demo\n\n01\n10\n")
        assert db.records == ("01", "10")

    def test_bad_characters(self):
        with pytest.raises(ParseError) as err:
            parse_database("01\n0x\n")
        assert err.value.line == 2

    def test_ragged_lengths(self):
        with pytest.raises(ParseError) as err:
            parse_database("01\n011\n")
        assert err.value.line == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_database("# nothing here\n")
