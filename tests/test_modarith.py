import tracemalloc

import numpy as np
import pytest

import gdict.modarith as modarith
from gdict.errors import CapacityError, UnsupportedModulusError
from gdict.modarith import (
    adder,
    carry_block,
    check_adder,
    check_modexp,
    check_modular_adder,
    check_modular_multiplier,
    controlled_modular_multiplier,
    is_supported_modulus,
    mod_inverse,
    modexp_circuit,
    modular_adder,
    sum_block,
    require_supported_modulus,
)
from gdict.sim import (
    MCZ, SWAP, Circuit, X, apply_circuit, apply_gate, evaluate_classical, H, inverse, new_state,
)


def run_classical(circuit: Circuit, basis: int) -> int:
    state = apply_circuit(new_state(circuit.num_qubits, basis), circuit)
    idx = int(np.argmax(np.abs(state.amplitudes)))
    assert abs(state.amplitudes[idx] - 1) < 1e-9
    return idx


def evaluate_classically(circuit: Circuit, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference evaluator, independent of ``Gate.plan`` and the simulator:
    runs every gate from its kind, controls and targets on an int64 array of
    basis inputs at once, and returns the outputs and the sign Z and MCZ put
    on each input."""
    out = basis.astype(np.int64)
    sign = np.ones(len(out), dtype=np.int64)
    for gate in circuit.gates:
        fire = np.ones(len(out), dtype=bool)
        for q, polarity in gate.controls:
            fire &= (out >> q & 1) == int(polarity)
        if gate.kind in ("X", "MCX"):
            out ^= fire.astype(np.int64) << gate.targets[0]
        elif gate.kind == "SWAP":
            a, b = gate.targets
            differ = (out >> a ^ out >> b) & 1
            out ^= differ << a | differ << b
        elif gate.kind in ("Z", "MCZ"):
            for q in gate.targets:
                fire &= (out >> q & 1) == 1
            sign[fire] *= -1
        else:
            raise ValueError(f"{gate.kind} gate has no classical evaluation")
    return out, sign


def register_values(register, out: np.ndarray) -> np.ndarray:
    values = np.zeros(len(out), dtype=np.int64)
    for j, q in enumerate(register.qubits):
        values |= (out >> q & 1) << j
    return values


def captured_cases(monkeypatch, check, *args) -> list:
    # The (circuit, cases) pairs a check hands to _failures, none of them run.
    runs = []

    def record(circuit, cases):
        cases = list(cases)
        runs.append((circuit, cases))
        return len(cases), []

    monkeypatch.setattr(modarith, "_failures", record)
    check(*args)
    return runs


def case_bases(circuit: Circuit, cases) -> np.ndarray:
    registers = circuit.registers
    return np.array([sum(registers[name].place_value(value) for name, value in inputs.items())
                     for _, inputs, _ in cases], dtype=np.int64)


def classical_failures(circuit: Circuit, cases) -> int:
    """Cases that break _failures' rule under the reference evaluator: an
    output register must hold the value asked for, every other register its
    input or 0, and the sign must stay +1."""
    out, sign = evaluate_classically(circuit, case_bases(circuit, cases))
    bad = sign != 1
    for name, register in circuit.registers.items():
        want = [outputs.get(name, inputs.get(name, 0)) for _, inputs, outputs in cases]
        bad |= register_values(register, out) != np.array(want, dtype=np.int64)
    return int(np.count_nonzero(bad))


class TestBlocks:
    def test_carry_block_truth_table(self):
        # Qubits: 0=c_in, 1=x, 2=y, 3=c_out.  After the block c_out must hold
        # the majority carry; y is left as x XOR y (intermediate form).
        circuit = Circuit(4, carry_block(0, 1, 2, 3))
        for bits in range(16):
            c_in, x, y, c_out = (bits >> k & 1 for k in range(4))
            out = run_classical(circuit, bits)
            want_carry = c_out ^ ((x & y) | (c_in & (x ^ y)))
            assert out >> 3 & 1 == want_carry
            assert out >> 1 & 1 == x
            assert out & 1 == c_in
            assert out >> 2 & 1 == x ^ y

    def test_sum_block_is_three_way_xor(self):
        circuit = Circuit(3, sum_block(0, 1, 2))
        for bits in range(8):
            c, x, y = bits & 1, bits >> 1 & 1, bits >> 2 & 1
            out = run_classical(circuit, bits)
            assert out >> 2 & 1 == c ^ x ^ y
            assert (out & 1, out >> 1 & 1) == (c, x)

    def test_blocks_reject_aliasing(self):
        with pytest.raises(ValueError):
            carry_block(0, 0, 1, 2)
        with pytest.raises(ValueError):
            sum_block(0, 1, 1)


class TestAdder:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive(self, n):
        report = check_adder(n)
        assert report.passed, report.failures[:5]
        assert report.cases == (1 << n) ** 2

    def test_three_plus_five(self):
        circuit = adder(3)
        x, y, c = (circuit.registers[name] for name in ("x", "y", "c"))
        out = run_classical(circuit, x.place_value(3) | y.place_value(5))
        assert y.value_of(out) == 8
        assert c.value_of(out) == 0

    def test_inverse_subtracts(self):
        report = check_adder(3, inverse_direction=True)
        assert report.passed, report.failures[:5]

    def test_inverse_composition_identity_exhaustive(self):
        circuit = adder(3)
        x, y = circuit.registers["x"], circuit.registers["y"]
        inv = inverse(circuit)
        for a in range(8):
            for b in range(8):
                basis = x.place_value(a) | y.place_value(b)
                state = new_state(circuit.num_qubits, basis)
                apply_circuit(state, circuit)
                apply_circuit(state, inv)
                assert state.amplitudes[basis] == 1


class TestModularAdder:
    def test_exhaustive_n7(self):
        report = check_modular_adder(7)
        assert report.passed, report.failures[:5]
        assert report.cases == 49

    def test_exhaustive_n3(self):
        report = check_modular_adder(3)
        assert report.passed, report.failures[:5]

    def test_modulus_31_in_bounded_memory(self):
        # 22 qubits, where one dense state takes 64 MB: each case's basis
        # state stays a support of one pair from new_state to its verdict.
        tracemalloc.start()
        try:
            report = check_modular_adder(31)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed, report.failures[:5]
        assert report.cases == 961
        assert peak < 8 << 20

    def test_additive_identity(self):
        circuit = modular_adder(3, 7)
        y, m = circuit.registers["y"], circuit.registers["m"]
        for k in range(7):
            out = run_classical(circuit, y.place_value(k) | m.place_value(7))
            assert y.value_of(out) == k

    def test_unsupported_modulus(self):
        with pytest.raises(UnsupportedModulusError):
            modular_adder(3, 6)
        with pytest.raises(UnsupportedModulusError):
            require_supported_modulus(8)

    def test_modulus_width_mismatch(self):
        with pytest.raises(ValueError):
            modular_adder(4, 7)

    def test_supported_modulus_predicate(self):
        assert [N for N in range(2, 40) if is_supported_modulus(N)] == [3, 7, 15, 31]


class TestModularMultiplier:
    def test_selected_constants(self):
        report = check_modular_multiplier(7, constants=[1, 3, 5])
        assert report.passed, report.failures[:5]
        assert report.cases == 3 * 2 * 7

    def test_identity_constant(self):
        circuit = controlled_modular_multiplier(1, 7)
        registers = circuit.registers
        for x in range(7):
            basis = registers["ctrl"].place_value(1) | registers["x"].place_value(x) | \
                registers["m"].place_value(7)
            out = run_classical(circuit, basis)
            assert registers["B"].value_of(out) == x

    def test_copy_when_control_clear(self):
        circuit = controlled_modular_multiplier(3, 7)
        registers = circuit.registers
        for x in range(7):
            basis = registers["x"].place_value(x) | registers["m"].place_value(7)
            out = run_classical(circuit, basis)
            assert registers["B"].value_of(out) == x

    def test_constant_out_of_range(self):
        with pytest.raises(ValueError):
            controlled_modular_multiplier(7, 7)

    def test_example_three_times_four(self):
        circuit = controlled_modular_multiplier(3, 7)
        registers = circuit.registers
        basis = registers["ctrl"].place_value(1) | registers["x"].place_value(4) | \
            registers["m"].place_value(7)
        out = run_classical(circuit, basis)
        assert registers["B"].value_of(out) == 5  # 12 mod 7


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(3, 7) == 5
        assert mod_inverse(2, 7) == 4
        assert mod_inverse(1, 7) == 1
        assert mod_inverse(1, 31) == 1

    def test_property(self):
        for N in (7, 31):
            for a in range(1, N):
                assert a * mod_inverse(a, N) % N == 1

    def test_not_invertible(self):
        with pytest.raises(ValueError):
            mod_inverse(3, 9)


class TestModExp:
    def test_exhaustive_g3_n7(self):
        report = check_modexp(3, 7)
        assert report.passed, report.failures[:5]
        assert report.cases == 8

    def test_powers_table(self):
        circuit = modexp_circuit(3, 7, 3)
        x_reg, a, b = (circuit.registers[name] for name in ("x", "A", "B"))
        for x, want in enumerate([1, 3, 2, 6, 4, 5, 1, 3]):
            out = run_classical(circuit, x_reg.place_value(x) | a.place_value(1))
            assert a.value_of(out) == want
            assert b.value_of(out) == 0

    def test_gcd_requirement(self):
        with pytest.raises(ValueError):
            modexp_circuit(7, 7, 3)

    def test_inverse_composition(self):
        circuit = modexp_circuit(3, 7, 3)
        x_reg, a = circuit.registers["x"], circuit.registers["A"]
        inv = inverse(circuit)
        for x in (0, 3, 5, 7):
            basis = x_reg.place_value(x) | a.place_value(1)
            state = new_state(circuit.num_qubits, basis)
            apply_circuit(state, circuit)
            apply_circuit(state, inv)
            assert state.amplitudes[basis] == 1

    def test_superposition_linearity(self):
        # Uniform superposition over exponents must produce one branch per x
        # with amplitude 2**(-3/2), exponent kept alongside the result.
        circuit = modexp_circuit(3, 7, 3)
        x_reg, a = circuit.registers["x"], circuit.registers["A"]
        state = new_state(circuit.num_qubits, a.place_value(1))
        for q in x_reg.qubits:
            apply_gate(state, H(q))
        apply_circuit(state, circuit)
        scale = 8 ** 0.5
        for x in range(8):
            pos = x_reg.place_value(x) | a.place_value(pow(3, x, 7))
            assert abs(state.amplitudes[pos] * scale - 1) < 1e-9
        assert abs(state.norm() - 1) < 1e-9


class TestRegisterPlacement:
    # Each constructor packs its registers in this order onto consecutive
    # qubits, from qubit 0 or from modexp's base; the checks, key recovery and
    # callers read them by name, so names, widths and order are pinned here.
    @pytest.mark.parametrize("build, base, registers", [
        (lambda: adder(3), 0, [("x", 3), ("y", 4), ("c", 3)]),
        (lambda: modular_adder(3, 7), 0,
         [("x", 3), ("y", 4), ("c", 3), ("m", 3), ("ctrl", 1)]),
        (lambda: controlled_modular_multiplier(3, 7), 0,
         [("ctrl", 1), ("x", 3), ("t", 3), ("B", 4), ("c", 3), ("m", 3), ("mctrl", 1)]),
        (lambda: modexp_circuit(3, 7, 3), 0,
         [("x", 3), ("A", 3), ("B", 4), ("t", 3), ("c", 3), ("m", 3), ("mctrl", 1)]),
        (lambda: modexp_circuit(3, 7, 3, base=5), 5,
         [("x", 3), ("A", 3), ("B", 4), ("t", 3), ("c", 3), ("m", 3), ("mctrl", 1)]),
    ], ids=["adder", "modadd", "modmul", "modexp", "modexp-base5"])
    def test_names_widths_order_and_qubits(self, build, base, registers):
        circuit = build()
        got = [(name, len(reg.qubits)) for name, reg in circuit.registers.items()]
        assert got == registers
        first = base
        for reg in circuit.registers.values():
            assert reg.qubits == tuple(range(first, first + len(reg.qubits)))
            first += len(reg.qubits)
        assert circuit.num_qubits == first
        used = {q for gate in circuit.gates for q in gate.qubits}
        assert min(used) >= base

    def test_registers_stop_at_the_basis_index_width(self):
        # modexp at N = 7 with one exponent bit packs 18 qubits: from base 44
        # they end on qubit 61, the last an int64 basis index addresses.
        assert modexp_circuit(3, 7, 1, base=44).num_qubits == 62
        with pytest.raises(CapacityError, match="registers need 63 qubits, past the 62"):
            modexp_circuit(3, 7, 1, base=45)
        with pytest.raises(CapacityError, match="registers need 91 qubits"):
            adder(30)


class TestChecksCatchDirtyWorkspace:
    # Flip the circuit's highest qubit after every case: the carry top for the
    # adder, the modular adder's flag for the other three families.
    @pytest.mark.parametrize("check, register", [
        (lambda: check_adder(2), "c"),
        (lambda: check_modular_adder(3), "ctrl"),
        (lambda: check_modular_multiplier(3, [1]), "mctrl"),
        (lambda: check_modexp(2, 3), "mctrl"),
    ], ids=["adder", "modadd", "modmul", "modexp"])
    def test_flipped_top_qubit_fails(self, monkeypatch, check, register):
        run_basis = modarith._run_basis

        def dirty(circuit, basis):
            return run_basis(circuit, basis) ^ (1 << (circuit.num_qubits - 1))

        monkeypatch.setattr(modarith, "_run_basis", dirty)
        report = check()
        assert not report.passed
        assert len(report.failures) == report.cases
        assert all(f": register {register} = " in f for f in report.failures)


class TestClassicalReference:
    # Every exhaustive check above simulates under the 26-qubit cap, which
    # stops at N = 7; the reference evaluator runs the same cases at N = 31
    # and 127 (modmul N = 31 needs 28 qubits, modexp N = 127 needs 44).
    N7_CHECKS = [
        (check_adder, (3,)),
        (check_adder, (3, True)),
        (check_modular_adder, (7,)),
        (check_modular_multiplier, (7,)),
        (check_modexp, (3, 7)),
    ]

    @pytest.mark.parametrize("check, args", N7_CHECKS,
                             ids=["adder", "adder^-1", "modadd", "modmul", "modexp"])
    def test_matches_the_simulator_at_n7(self, monkeypatch, check, args):
        runs = captured_cases(monkeypatch, check, *args)
        for circuit, cases in runs:
            basis = case_bases(circuit, cases)
            out, sign = evaluate_classically(circuit, basis)
            assert out.tolist() == [modarith._run_basis(circuit, int(b)) for b in basis]
            assert (sign == 1).all()

    @pytest.mark.parametrize("check, args", [
        (check_modular_adder, (7,)),
        (check_modexp, (3, 7)),
    ], ids=["modadd", "modexp"])
    def test_bit_sliced_evaluator_agrees(self, monkeypatch, check, args):
        runs = captured_cases(monkeypatch, check, *args)
        for circuit, cases in runs:
            basis = case_bases(circuit, cases)
            out, sign = evaluate_classically(circuit, basis)
            got, negative = evaluate_classical(circuit.gates, circuit.num_qubits, basis)
            assert got.tolist() == out.tolist()
            assert negative.tolist() == (sign == -1).tolist()

    @pytest.mark.parametrize("check, args, cases", [
        (check_modular_adder, (31,), 961),
        (check_modular_multiplier, (31,), 1860),
        (check_modexp, (3, 31), 32),
        (check_modexp, (3, 127), 128),
    ], ids=["modadd-31", "modmul-31", "modexp-31", "modexp-127"])
    def test_exhaustive_past_the_cap(self, monkeypatch, check, args, cases):
        runs = captured_cases(monkeypatch, check, *args)
        assert sum(len(run_cases) for _, run_cases in runs) == cases
        for circuit, run_cases in runs:
            assert classical_failures(circuit, run_cases) == 0

    def test_signs_and_superposition(self):
        circuit = Circuit(3, [X(0), SWAP(0, 2), MCZ([(1, False), (2, True)])])
        out, sign = evaluate_classically(circuit, np.arange(8))
        assert out.tolist() == [4, 0, 6, 2, 5, 1, 7, 3]
        assert sign.tolist() == [-1, 1, 1, 1, -1, 1, 1, 1]
        with pytest.raises(ValueError, match="H gate"):
            evaluate_classically(Circuit(1, [H(0)]), np.arange(2))
