import numpy as np
import pytest

import gdict.modarith as modarith
from gdict.errors import UnsupportedModulusError
from gdict.modarith import (
    AdderLayout,
    adder,
    adder_layout,
    carry_block,
    check_adder,
    check_modexp,
    check_modular_adder,
    check_modular_multiplier,
    controlled_modular_multiplier,
    is_supported_modulus,
    mod_inverse,
    modexp_circuit,
    modexp_layout,
    modular_adder,
    modular_layout,
    multiplier_layout,
    sum_block,
    require_supported_modulus,
)
from gdict.sim import Circuit, Register, apply_circuit, apply_gate, H, inverse, new_state


def run_classical(circuit: Circuit, basis: int) -> int:
    state = apply_circuit(new_state(circuit.num_qubits, basis), circuit)
    idx = int(np.argmax(np.abs(state.amplitudes)))
    assert abs(state.amplitudes[idx] - 1) < 1e-9
    return idx


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
        layout = adder_layout(3)
        circuit = adder(3, layout)
        out = run_classical(circuit, layout.x.place_value(3) | layout.y.place_value(5))
        assert layout.y.value_of(out) == 8
        assert layout.c.value_of(out) == 0

    def test_inverse_subtracts(self):
        report = check_adder(3, inverse_direction=True)
        assert report.passed, report.failures[:5]

    def test_inverse_composition_identity_exhaustive(self):
        layout = adder_layout(3)
        circuit = adder(3, layout)
        inv = inverse(circuit)
        for a in range(8):
            for b in range(8):
                basis = layout.x.place_value(a) | layout.y.place_value(b)
                state = new_state(circuit.num_qubits, basis)
                apply_circuit(state, circuit)
                apply_circuit(state, inv)
                assert state.amplitudes[basis] == 1

    def test_layout_validation(self):
        bad = AdderLayout(
            Register("x", (0, 1)), Register("y", (2, 3)), Register("c", (4, 5))
        )
        with pytest.raises(ValueError):
            bad.validate()
        with pytest.raises(ValueError):
            adder(2, adder_layout(3))


class TestModularAdder:
    def test_exhaustive_n7(self):
        report = check_modular_adder(7)
        assert report.passed, report.failures[:5]
        assert report.cases == 49

    def test_exhaustive_n3(self):
        report = check_modular_adder(3)
        assert report.passed, report.failures[:5]

    def test_additive_identity(self):
        layout = modular_layout(3)
        circuit = modular_adder(3, 7, layout)
        for k in range(7):
            basis = layout.adder.y.place_value(k) | layout.m.place_value(7)
            out = run_classical(circuit, basis)
            assert layout.adder.y.value_of(out) == k

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
        layout = multiplier_layout(3)
        circuit = controlled_modular_multiplier(1, 7, layout)
        ctrl = Register("ctrl", (layout.ctrl,))
        for x in range(7):
            basis = ctrl.place_value(1) | layout.x.place_value(x) | \
                layout.inner.m.place_value(7)
            out = run_classical(circuit, basis)
            assert layout.inner.adder.y.value_of(out) == x

    def test_copy_when_control_clear(self):
        layout = multiplier_layout(3)
        circuit = controlled_modular_multiplier(3, 7, layout)
        for x in range(7):
            basis = layout.x.place_value(x) | layout.inner.m.place_value(7)
            out = run_classical(circuit, basis)
            assert layout.inner.adder.y.value_of(out) == x

    def test_constant_out_of_range(self):
        with pytest.raises(ValueError):
            controlled_modular_multiplier(7, 7)

    def test_example_three_times_four(self):
        layout = multiplier_layout(3)
        circuit = controlled_modular_multiplier(3, 7, layout)
        ctrl = Register("ctrl", (layout.ctrl,))
        basis = ctrl.place_value(1) | layout.x.place_value(4) | layout.inner.m.place_value(7)
        out = run_classical(circuit, basis)
        assert layout.inner.adder.y.value_of(out) == 5  # 12 mod 7


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
        layout = modexp_layout(7, 3)
        circuit = modexp_circuit(3, 7, 3, layout)
        for x, want in enumerate([1, 3, 2, 6, 4, 5, 1, 3]):
            basis = layout.x.place_value(x) | layout.a.place_value(1)
            out = run_classical(circuit, basis)
            assert layout.a.value_of(out) == want
            assert layout.b.value_of(out) == 0

    def test_gcd_requirement(self):
        with pytest.raises(ValueError):
            modexp_circuit(7, 7, 3)

    def test_inverse_composition(self):
        layout = modexp_layout(7, 3)
        circuit = modexp_circuit(3, 7, 3, layout)
        inv = inverse(circuit)
        for x in (0, 3, 5, 7):
            basis = layout.x.place_value(x) | layout.a.place_value(1)
            state = new_state(circuit.num_qubits, basis)
            apply_circuit(state, circuit)
            apply_circuit(state, inv)
            assert state.amplitudes[basis] == 1

    def test_superposition_linearity(self):
        # Uniform superposition over exponents must produce one branch per x
        # with amplitude 2**(-3/2), exponent kept alongside the result.
        layout = modexp_layout(7, 3)
        circuit = modexp_circuit(3, 7, 3, layout)
        state = new_state(circuit.num_qubits, layout.a.place_value(1))
        for q in layout.x.qubits:
            apply_gate(state, H(q))
        apply_circuit(state, circuit)
        scale = 8 ** 0.5
        for x in range(8):
            pos = layout.x.place_value(x) | layout.a.place_value(pow(3, x, 7))
            assert abs(state.amplitudes[pos] * scale - 1) < 1e-9
        assert abs(state.norm() - 1) < 1e-9


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
