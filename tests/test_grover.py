import math

import numpy as np
import pytest

import gdict.grover as grover
from conftest import random_database
from gdict.cli import main
from gdict.dictionary import Database
from gdict.errors import NoWinnerError
from gdict.grover import (
    ANCILLA_KICKBACK,
    PHASE_FLIP,
    Clause,
    diffuser,
    optimal_rounds,
    phase_oracle,
    run_search,
    success_probability,
)
from gdict.sim import Circuit, H, MCX, Register, X, apply_circuit, apply_gate, new_state


class TestClause:
    def test_exact_pattern(self):
        clause = Clause.from_pattern("1010110")
        assert clause.target_value == 0b1010110
        assert clause.mask == 0b1111111
        assert clause.matches(0b1010110)
        assert not clause.matches(0b1010111)

    def test_masked_pattern(self):
        clause = Clause.from_pattern("xxxxxx1")
        assert clause.mask == 1
        assert clause.matches(0b0110101)
        assert not clause.matches(0b0110100)

    def test_roundtrip(self):
        for pattern in ("1010110", "xxxxxx1", "x0x1x0x"):
            assert Clause.from_pattern(pattern).to_pattern() == pattern

    def test_bad_characters(self):
        with pytest.raises(ValueError):
            Clause.from_pattern("10a")

    def test_all_wild_matches_everything(self):
        clause = Clause.from_pattern("xxx")
        assert all(clause.matches(v) for v in range(8))


class TestHadamardTransform:
    def test_uniform_over_two_qubits(self):
        reg = Register("r", (0, 1))
        state = apply_circuit(new_state(2), Circuit(2, [H(k) for k in reg.qubits]))
        assert np.allclose(state.amplitudes, [0.5] * 4)

    def test_minus_state_from_one(self):
        reg = Register("r", (0,))
        state = new_state(1, 1)
        apply_circuit(state, Circuit(1, [H(k) for k in reg.qubits]))
        assert np.allclose(state.amplitudes, [2 ** -0.5, -(2 ** -0.5)])

    def test_three_qubit_amplitudes(self):
        reg = Register("r", (0, 1, 2))
        state = apply_circuit(new_state(3), Circuit(3, [H(k) for k in reg.qubits]))
        assert np.allclose(state.amplitudes, [8 ** -0.5] * 8)


class TestPhaseOracle:
    def test_matches_diagonal(self):
        clause = Clause(3, 0b101, 0b111)
        reg = Register("data", (0, 1, 2))
        circuit = phase_oracle(clause, reg)
        diag = []
        for basis in range(8):
            s = apply_circuit(new_state(3, basis), circuit)
            diag.append(s.amplitudes[basis])
        assert np.array_equal(diag, [1, 1, 1, 1, 1, -1, 1, 1])

    def test_single_positive_control(self):
        clause = Clause(3, 0b100, 0b100)
        reg = Register("data", (0, 1, 2))
        state = new_state(3)
        for q in range(3):
            apply_gate(state, H(q))
        apply_circuit(state, phase_oracle(clause, reg))
        signs = np.sign(state.amplitudes.real)
        assert list(signs) == [1, 1, 1, 1, -1, -1, -1, -1]

    def test_modes_agree_on_random_states(self):
        rng = np.random.default_rng(8)
        clause = Clause(3, 0b011, 0b111)
        reg = Register("data", (0, 1, 2))
        flip = phase_oracle(clause, reg, PHASE_FLIP)
        kick = phase_oracle(clause, reg, ANCILLA_KICKBACK, ancilla=3)
        for _ in range(20):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)

            s_flip = new_state(3)
            s_flip.amplitudes[:] = amps
            apply_circuit(s_flip, flip)

            s_kick = new_state(4)
            s_kick.amplitudes[:8] = amps  # ancilla 0 component
            apply_gate(s_kick, X(3))
            apply_gate(s_kick, H(3))
            apply_circuit(s_kick, kick)
            apply_gate(s_kick, H(3))
            apply_gate(s_kick, X(3))
            assert np.max(np.abs(s_kick.amplitudes[:8] - s_flip.amplitudes)) < 1e-12
            assert np.max(np.abs(s_kick.amplitudes[8:])) < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            phase_oracle(Clause(3, 0, 0), Register("data", (0, 1, 2)))

    def test_kickback_needs_ancilla(self):
        with pytest.raises(ValueError):
            phase_oracle(Clause(2, 1, 1), Register("d", (0, 1)), ANCILLA_KICKBACK)


def aligned(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Remove one global phase, chosen to best match expected."""
    inner = np.vdot(expected, actual)
    phase = inner / abs(inner)
    return actual / phase


class TestDiffuser:
    def test_uniform_is_fixed_point(self):
        reg = Register("r", (0, 1, 2))
        state = apply_circuit(new_state(3), Circuit(3, [H(k) for k in reg.qubits]))
        before = state.amplitudes.copy()
        apply_circuit(state, diffuser(reg))
        assert np.max(np.abs(aligned(state.amplitudes, before) - before)) < 1e-9

    def test_basis_state_reflection(self):
        # 2<a> - a_k on [1,0,0,0] is [-0.5, 0.5, 0.5, 0.5].
        reg = Register("r", (0, 1))
        state = apply_circuit(new_state(2, 0), diffuser(reg))
        expected = np.array([-0.5, 0.5, 0.5, 0.5], dtype=complex)
        assert np.max(np.abs(aligned(state.amplitudes, expected) - expected)) < 1e-9

    def test_mean_reflection_law_random_states(self):
        rng = np.random.default_rng(9)
        reg = Register("r", (0, 1, 2))
        circuit = diffuser(reg)
        for _ in range(100):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            expected = 2 * amps.mean() - amps
            state = new_state(3)
            state.amplitudes[:] = amps
            apply_circuit(state, circuit)
            assert np.max(np.abs(aligned(state.amplitudes, expected) - expected)) < 1e-9

    def test_single_qubit_diffuser(self):
        reg = Register("r", (0,))
        state = new_state(1, 0)
        apply_circuit(state, diffuser(reg))
        expected = np.array([0.0, 1.0], dtype=complex)  # X on |0> up to phase
        assert np.max(np.abs(aligned(state.amplitudes, expected) - expected)) < 1e-9


class TestPlanning:
    def test_eight_one(self):
        plan = optimal_rounds(8, 1)
        assert plan.rounds == 2
        assert plan.predicted_success == pytest.approx(0.9453125, abs=1e-9)

    def test_four_one_exact(self):
        plan = optimal_rounds(4, 1)
        assert plan.rounds == 1
        assert plan.predicted_success == pytest.approx(1.0, abs=1e-12)

    def test_all_winners(self):
        plan = optimal_rounds(16, 16)
        assert plan.rounds == 0
        assert plan.predicted_success == 1.0

    def test_theta0(self):
        plan = optimal_rounds(4, 1)
        assert plan.theta0 == pytest.approx(math.pi / 6, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimal_rounds(4, 0)
        with pytest.raises(ValueError):
            optimal_rounds(4, 5)
        with pytest.raises(ValueError):
            success_probability(4, 1, -1)

    def test_success_probability_values(self):
        assert success_probability(4, 1, 1) == pytest.approx(1.0, abs=1e-12)
        assert success_probability(8, 1, 2) == pytest.approx(0.9453125, abs=1e-12)
        for N, M in ((4, 1), (8, 3), (16, 5)):
            assert success_probability(N, M, 0) == pytest.approx(M / N, abs=1e-12)


class TestRunSearch:
    def test_reference_exact_search(self, reference_db):
        result = run_search(reference_db, Clause.from_pattern("1010110"))
        assert result.top_index == 2
        assert result.top_record == "1010110"
        assert result.executed_rounds == 1
        assert result.distribution[2] == pytest.approx(1.0, abs=1e-9)
        assert result.circuit.num_qubits == 9
        assert result.gate_counts == {"H": 6, "MCX": 22, "MCZ": 2}
        assert result.iteration_gate_counts == {"H": 4, "MCX": 22, "MCZ": 2}

    def test_reference_masked_search(self, reference_db):
        result = run_search(reference_db, Clause.from_pattern("xxxxxx1"))
        assert result.top_index == 3
        assert result.top_record == "0110101"
        assert result.winner_probability == pytest.approx(1.0, abs=1e-9)

    def test_eight_records_single_winner(self):
        rng = np.random.default_rng(14)
        records = ["0001", "0010", "0011", "0100", "0101", "0110", "0111", "1000"]
        db = Database(tuple(records))
        result = run_search(db, Clause.from_pattern("1000"))
        assert result.executed_rounds == 2
        assert result.winner_probability == pytest.approx(0.9453125, abs=1e-6)

    def test_zero_rounds_uniform(self, reference_db):
        for mode in (PHASE_FLIP, ANCILLA_KICKBACK):
            result = run_search(reference_db, Clause.from_pattern("1010110"), rounds=0,
                                oracle_mode=mode)
            assert all(p == pytest.approx(0.25, abs=1e-12) for p in result.distribution.values())
            assert result.top_index == 0  # an exact tie reads the lowest index
            assert result.gate_counts == {"H": 2}
            assert result.iteration_gate_counts == {}

    def test_all_wild_plans_zero_rounds(self, reference_db):
        result = run_search(reference_db, Clause.from_pattern("xxxxxxx"))
        assert result.plan.winner_count == 4
        assert result.executed_rounds == 0

    @pytest.mark.parametrize("pattern, rounds", [("1010110", 0), ("xxxxxxx", None)])
    def test_unknown_mode_rejected_when_no_round_runs(self, reference_db, pattern, rounds):
        # Both calls execute 0 rounds, so no oracle is built to reject the mode.
        with pytest.raises(ValueError, match="unknown oracle mode"):
            run_search(reference_db, Clause.from_pattern(pattern), rounds=rounds,
                       oracle_mode="bogus")

    def test_no_winner(self, reference_db):
        with pytest.raises(NoWinnerError):
            run_search(reference_db, Clause.from_pattern("1111111"))

    def test_clause_width_mismatch(self, reference_db):
        with pytest.raises(ValueError):
            run_search(reference_db, Clause.from_pattern("101"))

    def test_padded_duplicate_winner_counted(self):
        # 3 records pad to 4 by duplicating record 0; a clause matching
        # record 0 then has two winners in the padded space, and the planner
        # must use M=2 (the analytic curve caps at 0.5 for M/N = 1/2).
        db = Database(("11", "00", "01"))
        result = run_search(db, Clause.from_pattern("11"))
        assert result.plan.winner_count == 2
        assert result.winner_indices == (0, 3)
        expected = success_probability(4, 2, result.executed_rounds)
        assert result.winner_probability == pytest.approx(expected, abs=1e-9)

    def test_oracle_modes_identical_distributions(self, reference_db):
        flip = run_search(reference_db, Clause.from_pattern("1010110"), oracle_mode=PHASE_FLIP)
        kick = run_search(reference_db, Clause.from_pattern("1010110"),
                          oracle_mode=ANCILLA_KICKBACK)
        for v in flip.distribution:
            assert abs(flip.distribution[v] - kick.distribution[v]) < 1e-9
        assert kick.circuit.num_qubits == 10
        assert kick.gate_counts == {"H": 8, "X": 2, "MCX": 23, "MCZ": 1}
        assert kick.iteration_gate_counts == {"H": 4, "MCX": 23, "MCZ": 1}

    def test_single_precision_run(self, reference_db):
        result = run_search(reference_db, Clause.from_pattern("1010110"), dtype=np.complex64)
        assert result.distribution[2] == pytest.approx(1.0, abs=1e-5)

    def test_broken_uncomputation_raises(self, reference_db, tmp_path, monkeypatch, capsys):
        # An unmap that leaves a data qubit flipped must fail the search, not
        # report a record.
        unmap = grover.inverse

        def leave_data_flipped(circuit):
            return unmap(circuit).extend([X(circuit.registers["data"].qubits[0])])

        monkeypatch.setattr(grover, "inverse", leave_data_flipped)
        with pytest.raises(RuntimeError, match="disentangle"):
            run_search(reference_db, Clause.from_pattern("1010110"))
        db_path = tmp_path / "db.txt"
        db_path.write_text("\n".join(reference_db.records) + "\n", encoding="utf-8")
        assert main(["grover-search", str(db_path), "1010110"]) == 2
        assert "verification failure" in capsys.readouterr().err

    def test_dirty_kickback_ancilla_raises(self, reference_db, tmp_path, monkeypatch, capsys):
        # A kickback search whose ancilla ends in |1>, as if the closing X of
        # its preparation were dropped, must fail like a dirty data register.
        amplify = grover.amplify

        def leave_ancilla_set(circuit, *args):
            iteration = amplify(circuit, *args)
            circuit.extend([X(circuit.registers["ancilla"].qubits[0])])  # undoes the closing X
            return iteration

        monkeypatch.setattr(grover, "amplify", leave_ancilla_set)
        with pytest.raises(RuntimeError, match="disentangle"):
            run_search(reference_db, Clause.from_pattern("1010110"), oracle_mode=ANCILLA_KICKBACK)
        db_path = tmp_path / "db.txt"
        db_path.write_text("\n".join(reference_db.records) + "\n", encoding="utf-8")
        assert main(["grover-search", str(db_path), "1010110", "--mode", ANCILLA_KICKBACK]) == 2
        assert "verification failure" in capsys.readouterr().err

    def test_mark_dirtying_one_loser_raises(self, reference_db, tmp_path, monkeypatch, capsys):
        # A mark that also flips a data qubit when the index holds the loser
        # 0 leaves the data register dirty on that one branch only.
        amplify = grover.amplify

        def dirty_on_index_0(circuit, index, dictionary, mark, *args):
            stray = MCX(index.controls(0), circuit.registers["data"].qubits[0])
            return amplify(circuit, index, dictionary, mark + [stray], *args)

        monkeypatch.setattr(grover, "amplify", dirty_on_index_0)
        with pytest.raises(RuntimeError, match="disentangle"):
            run_search(reference_db, Clause.from_pattern("1010110"))
        db_path = tmp_path / "db.txt"
        db_path.write_text("\n".join(reference_db.records) + "\n", encoding="utf-8")
        assert main(["grover-search", str(db_path), "1010110"]) == 2
        assert "verification failure" in capsys.readouterr().err


class TestReadIndex:
    def test_clean_run_has_no_residual(self):
        circuit = Circuit(2, registers={"index": Register("index", (0,))})
        circuit.extend([H(0), X(1), X(1)])
        distribution, top, residual = grover.read_index(circuit, 0, np.complex128, None, "dirty")
        assert distribution == pytest.approx({0: 0.5, 1: 0.5}, abs=1e-12)
        assert top == 0
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_start_pattern_is_where_every_other_qubit_must_end(self):
        circuit = Circuit(3, registers={"index": Register("index", (1,))})
        circuit.extend([H(1), X(2)])
        grover.read_index(circuit, 0b100, np.complex128, None, "dirty")
        with pytest.raises(RuntimeError, match="dirty"):
            grover.read_index(circuit, 0, np.complex128, None, "dirty")

    def test_stray_qubit_outside_every_register_raises(self):
        # Qubit 1 belongs to no register, yet it must come back to its start.
        circuit = Circuit(2, registers={"index": Register("index", (0,))})
        circuit.extend([H(0), X(1)])
        with pytest.raises(RuntimeError, match=r"stray \(residual 1\.000e\+00\)"):
            grover.read_index(circuit, 0, np.complex128, None, "stray")

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_leak_below_single_precision_rounding_raises(self, dtype):
        # Qubit 14 leaves its start on one index value of 2**14: a weight of
        # 2**-14 leaks, less than rounding costs a long single-precision run.
        circuit = Circuit(15, registers={"index": Register("index", tuple(range(14)))})
        circuit.extend([*(H(q) for q in range(14)), MCX([(q, True) for q in range(14)], 14)])
        with pytest.raises(RuntimeError, match="leak"):
            grover.read_index(circuit, 0, dtype, None, "leak")


def test_one_iteration_geometry():
    # After one oracle+diffuser pass on a fresh uniform state the winner
    # amplitude must be sin(3*theta0)/sqrt(M) and every loser
    # cos(3*theta0)/sqrt(N-M), up to one global phase.
    rng = np.random.default_rng(15)
    for m, M in ((2, 1), (3, 2), (4, 3), (5, 4)):
        N = 1 << m
        n = 6
        values = [int(v) for v in rng.permutation(1 << n)]
        clause_value = values[0]
        # M winners: the clause-matching value appears M times
        records = (format(clause_value, f"0{n}b"),) * M + tuple(
            format(v, f"0{n}b") for v in values[1 : N - M + 1]
        )
        db = Database(records)
        result = run_search(db, Clause(n, clause_value, (1 << n) - 1), rounds=1)
        theta0 = math.asin(math.sqrt(M / N))
        expect_w = math.sin(3 * theta0) ** 2 / M
        expect_l = math.cos(3 * theta0) ** 2 / (N - M)
        for i in range(N):
            want = expect_w if i < M else expect_l
            assert result.distribution[i] == pytest.approx(want, abs=1e-9)


def test_pipeline_matches_analytic_curve_small_grid():
    rng = np.random.default_rng(16)
    n = 5
    for m, M in ((2, 1), (3, 2), (4, 4)):
        N = 1 << m
        values = [int(v) for v in rng.permutation(1 << n)]
        winner_value = values[0]
        records = (format(winner_value, f"0{n}b"),) * M + tuple(
            format(v, f"0{n}b") for v in values[1 : N - M + 1]
        )
        db = Database(records)
        clause = Clause(n, winner_value, (1 << n) - 1)
        for R in range(5):
            result = run_search(db, clause, rounds=R)
            assert result.winner_probability == pytest.approx(
                success_probability(N, M, R), abs=1e-6
            )
