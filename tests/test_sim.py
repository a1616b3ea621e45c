import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdict.sim as sim
from gdict.errors import CapacityError, ParseError
from gdict.sim import (
    CCX,
    CNOT,
    Circuit,
    Gate,
    H,
    MCX,
    MCZ,
    Register,
    SWAP,
    X,
    Z,
    apply_circuit,
    apply_gate,
    circuit_from_text,
    circuit_to_text,
    gate_count,
    inverse,
    marginal_distribution,
    new_state,
    sample,
)

INV_SQRT2 = 2 ** -0.5


def random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int) -> Circuit:
    gates = []
    for _ in range(num_gates):
        kind = rng.choice(["H", "X", "Z", "SWAP", "MCX", "MCZ"])
        qs = [int(q) for q in rng.permutation(num_qubits)]
        if kind in ("H", "X", "Z"):
            gates.append(Gate(kind, (qs[0],)))
        elif kind == "SWAP":
            gates.append(SWAP(qs[0], qs[1]))
        else:
            n_ctrl = int(rng.integers(1, min(4, num_qubits)))
            controls = [(qs[i], bool(rng.integers(0, 2))) for i in range(n_ctrl)]
            if kind == "MCX":
                gates.append(MCX(controls, qs[n_ctrl]))
            else:
                gates.append(MCZ(controls))
    return Circuit(num_qubits, gates)


class TestNewState:
    def test_single_qubit_zero(self):
        s = new_state(1, 0)
        assert np.array_equal(s.amplitudes, [1, 0])

    def test_two_qubit_three(self):
        s = new_state(2, 3)
        assert np.array_equal(s.amplitudes, [0, 0, 0, 1])

    def test_three_qubit_five(self):
        s = new_state(3, 5)
        assert s.amplitudes[5] == 1
        assert np.count_nonzero(s.amplitudes) == 1

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            new_state(27)
        new_state(5, max_qubits=5)
        with pytest.raises(CapacityError):
            new_state(6, max_qubits=5)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("GDICT_MAX_QUBITS", "4")
        with pytest.raises(CapacityError):
            new_state(5)
        assert new_state(4).num_qubits == 4

    def test_basis_range(self):
        with pytest.raises(ValueError):
            new_state(2, 4)
        with pytest.raises(ValueError):
            new_state(2, -1)

    def test_single_precision(self):
        s = new_state(3, 1, dtype=np.complex64)
        assert s.amplitudes.dtype == np.complex64

    def test_memory_guard(self, monkeypatch):
        # Twice the amplitudes' bytes must be free: 2 * 16 * 2**12 for
        # twelve qubits in double precision, half that in single.
        monkeypatch.setattr(sim, "_free_memory_bytes", lambda: 1 << 17)
        monkeypatch.setattr(sim, "_available_memory_bytes", lambda: 1 << 17)
        assert new_state(12).num_qubits == 12
        assert new_state(13, dtype=np.complex64).num_qubits == 13
        with pytest.raises(CapacityError, match="13-qubit state needs 262144 bytes"):
            new_state(13)
        monkeypatch.setattr(sim, "_free_memory_bytes", lambda: None)
        assert new_state(13).num_qubits == 13  # platform without a reading

    def test_memory_guard_counts_reclaimable_memory(self, monkeypatch):
        # 13 qubits in double precision need 2**18 bytes: more than MemFree
        # here, less than MemAvailable, so the state is allocated.  Without
        # a MemAvailable reading the guard falls back to MemFree.
        monkeypatch.setattr(sim, "_free_memory_bytes", lambda: 1 << 17)
        monkeypatch.setattr(sim, "_available_memory_bytes", lambda: 1 << 19)
        assert new_state(13).num_qubits == 13
        with pytest.raises(CapacityError, match="only 524288 bytes of memory are free"):
            new_state(15)
        monkeypatch.setattr(sim, "_available_memory_bytes", lambda: None)
        with pytest.raises(CapacityError, match="only 131072 bytes of memory are free"):
            new_state(13)

    def test_available_memory_reading(self):
        available = sim._available_memory_bytes()
        if os.path.exists("/proc/meminfo"):
            assert available > 0
        else:
            assert available is None


class TestApplyGate:
    def test_hadamard_on_zero(self):
        s = apply_gate(new_state(1), H(0))
        assert np.allclose(s.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_mcz_negates_101_on_uniform(self):
        s = new_state(3)
        for q in range(3):
            apply_gate(s, H(q))
        apply_gate(s, MCZ([(0, True), (1, False), (2, True)]))
        expected = np.full(8, 8 ** -0.5)
        expected[5] *= -1
        assert np.allclose(s.amplitudes, expected, atol=1e-12)

    def test_mcx_mixed_polarity(self):
        s = new_state(3, 0b001)
        apply_gate(s, MCX([(0, True), (1, False)], 2))
        assert s.amplitudes[0b101] == 1

    def test_mcx_non_matching_pattern(self):
        s = new_state(3, 0b011)  # q1 = 1 blocks the negative control
        apply_gate(s, MCX([(0, True), (1, False)], 2))
        assert s.amplitudes[0b011] == 1

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(new_state(2), H(2))

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            Gate("SWAP", (1, 1))
        with pytest.raises(ValueError):
            MCX([(0, True)], 0)  # control equals target
        with pytest.raises(ValueError):
            MCZ([])
        with pytest.raises(ValueError):
            Gate("RY", (0,))

    def test_negative_qubit_rejected(self):
        for make in (lambda: X(-1), lambda: SWAP(0, -2), lambda: MCX([(-3, True)], 0),
                     lambda: MCX([], -1), lambda: MCZ([(1, True), (-1, False)])):
            with pytest.raises(ValueError, match="negative qubit"):
                make()

    def test_plan_lives_with_its_gate(self):
        # The plan is kept on the gate, not in a cache that outlives it.
        gate = MCX([(0, True), (1, False)], 2)
        apply_circuit(new_state(3), Circuit(3, [gate]))
        assert gate.plan == ("flip", 0b011, 0b001, 0b100)
        ref = weakref.ref(gate)
        del gate
        gc.collect()
        assert ref() is None

    def test_swap(self):
        s = new_state(2, 0b01)
        apply_gate(s, SWAP(0, 1))
        assert s.amplitudes[0b10] == 1

    def test_z_phase(self):
        s = new_state(1, 1)
        apply_gate(s, Z(0))
        assert s.amplitudes[1] == -1


class TestApplyCircuit:
    def test_empty_circuit(self):
        s = new_state(2, 1)
        before = s.amplitudes.copy()
        apply_circuit(s, Circuit(2))
        assert np.array_equal(s.amplitudes, before)

    def test_h_twice_is_identity(self):
        s = apply_circuit(new_state(1), Circuit(1, [H(0), H(0)]))
        assert abs(s.amplitudes[0] - 1) < 1e-12
        assert abs(s.amplitudes[1]) < 1e-12

    def test_kickback_flips_pattern_phase(self):
        # Uniform 3-qubit data register, ancilla prepared |->; the
        # multi-controlled NOT targeting the ancilla must negate exactly the
        # data component matching its control pattern (q0=1, q1=0, q2=1).
        s = new_state(4)
        for q in range(3):
            apply_gate(s, H(q))
        apply_gate(s, X(3))
        apply_gate(s, H(3))
        apply_gate(s, MCX([(0, True), (1, False), (2, True)], 3))
        expected = np.zeros(16, dtype=complex)
        for z in range(8):
            amp = 8 ** -0.5 * (-1 if z == 5 else 1)
            expected[z] = amp * INV_SQRT2
            expected[z | 0b1000] = -amp * INV_SQRT2
        assert np.allclose(s.amplitudes, expected, atol=1e-12)

    def test_circuit_too_wide(self):
        with pytest.raises(ValueError):
            apply_circuit(new_state(2), Circuit(3, [H(2)]))

    def test_smaller_circuit_on_bigger_state(self):
        s = apply_circuit(new_state(3), Circuit(1, [X(0)]))
        assert s.amplitudes[1] == 1

    def test_bad_gate_leaves_state_untouched(self):
        # One basis state runs on the support path, a uniform state on the
        # dense kernels; neither may apply the gates before the bad one.
        uniform = apply_circuit(new_state(6), Circuit(6, [H(k) for k in range(6)]))
        for s in (new_state(6, 0b101101), uniform):
            before = s.amplitudes.copy()
            with pytest.raises(ValueError):
                apply_circuit(s, Circuit(6, [X(1), H(2), CNOT(0, 6)]))
            assert np.array_equal(s.amplitudes, before)


class TestInverse:
    def test_reverses_gate_list(self):
        c = Circuit(2, [H(0), X(1)])
        inv = inverse(c)
        assert inv.gates == [X(1), H(0)]

    def test_empty(self):
        assert inverse(Circuit(3)).gates == []

    def test_involution(self):
        rng = np.random.default_rng(7)
        c = random_circuit(rng, 5, 40)
        assert inverse(inverse(c)).gates == c.gates

    def test_roundtrip_restores_state(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            q = int(rng.integers(2, 11))
            c = random_circuit(rng, q, int(rng.integers(1, 201)))
            s = new_state(q, int(rng.integers(0, 1 << q)))
            ref = s.amplitudes.copy()
            apply_circuit(s, c)
            assert abs(s.norm() - 1) < 1e-9
            apply_circuit(s, inverse(c))
            assert np.max(np.abs(s.amplitudes - ref)) < 1e-9


def test_mcz_equals_diagonal_matrix():
    # Column-by-column reconstruction must give diag(1,1,1,1,1,-1,1,1).
    gate = MCZ([(0, True), (1, False), (2, True)])
    diag = []
    for basis in range(8):
        s = apply_gate(new_state(3, basis), gate)
        col = s.amplitudes
        assert np.count_nonzero(col) == 1
        diag.append(col[basis])
    assert np.array_equal(diag, [1, 1, 1, 1, 1, -1, 1, 1])


def _without_h(rng: np.random.Generator, num_qubits: int, num_gates: int) -> list[Gate]:
    return [g for g in random_circuit(rng, num_qubits, num_gates).gates if g.kind != "H"]


def test_determinism_and_kernel_parity():
    rng = np.random.default_rng(11)
    c = random_circuit(rng, 8, 120)
    s1 = apply_circuit(new_state(8, 3), c)
    s2 = apply_circuit(new_state(8, 3), c)
    assert np.array_equal(s1.amplitudes, s2.amplitudes)

    # apply_circuit runs on the nonzero support until it outgrows its limit,
    # then on the dense kernels; either way it must match a per-gate
    # apply_gate loop bit for bit.  Each H at most doubles the support, so
    # with log2(limit) H gates the support path runs the whole circuit, and
    # one H more on fresh qubits of a basis state forces the switch.
    q = 10
    limit = int((1 << q) * sim.SUPPORT_MAX_SHARE)
    h_max = limit.bit_length() - 1
    assert h_max >= 2
    for dtype in (np.complex128, np.complex64):
        for trial in range(16):
            gates = _without_h(rng, q, 60)
            if trial % 2 == 0:  # support stays within the limit
                for qb in rng.integers(0, q, size=h_max):
                    gates.insert(int(rng.integers(0, len(gates) + 1)), H(int(qb)))
            else:  # support crosses the limit mid-circuit
                fresh = rng.permutation(q)[: h_max + 1]
                gates += [H(int(qb)) for qb in fresh] + random_circuit(rng, q, 60).gates
            basis = int(rng.integers(0, 1 << q))
            ref = new_state(q, basis, dtype=dtype)
            for g in gates:
                apply_gate(ref, g)
            got = apply_circuit(new_state(q, basis, dtype=dtype), Circuit(q, gates))
            assert np.array_equal(got.amplitudes, ref.amplitudes)


def reference_gate(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """The gate's effect worked out from its own controls and targets, one
    basis state at a time: a permutation for X, MCX and SWAP, a sign for Z
    and MCZ, a 2x2 mix for H."""
    out = np.zeros_like(amps)
    s = amps.dtype.type(INV_SQRT2)
    for i, a in enumerate(amps):
        fires = all((i >> c & 1) == int(pos) for c, pos in gate.controls)
        bit = [i >> t & 1 for t in gate.targets]
        if gate.kind in ("X", "MCX"):
            out[i ^ (1 << gate.targets[0]) if fires else i] = a
        elif gate.kind == "SWAP":
            ta, tb = gate.targets
            out[i ^ ((1 << ta) | (1 << tb)) if bit[0] != bit[1] else i] = a
        elif gate.kind in ("Z", "MCZ"):
            out[i] = -a if fires and all(bit) else a
        elif bit[0] == 0:  # H mixes |..0..> with its partner |..1..>
            j = i | (1 << gate.targets[0])
            out[i] = (a + amps[j]) * s
            out[j] = (a - amps[j]) * s
    return out


def assert_matches_reference(got: np.ndarray, want: np.ndarray, gates) -> None:
    if any(g.kind == "H" for g in gates):
        assert np.max(np.abs(got - want)) <= 1e-12
    else:  # permutations and signs are exact
        assert np.array_equal(got, want)


def test_kernels_match_reference_per_gate_kind():
    # Checks the gate plan both kernel sets read, which the parity test
    # above cannot: a wrong plan would make the kernels agree on a wrong result.
    rng = np.random.default_rng(17)
    for dtype in (np.complex128, np.complex64):
        for trial in range(120):
            q = int(rng.integers(2, 6))
            gates = random_circuit(rng, q, 12).gates + [MCX([], int(rng.integers(q)))]
            amps = (rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)).astype(dtype)
            state = sim.StateVector(q, amps.copy())
            for g in gates:
                want = reference_gate(state.amplitudes, g)
                apply_gate(state, g)
                assert_matches_reference(state.amplitudes, want, [g])
            # apply_circuit from a basis state starts on the support kernels.
            basis = int(rng.integers(1 << q))
            want = new_state(q, basis, dtype=dtype).amplitudes
            for g in gates:
                want = reference_gate(want, g)
            got = apply_circuit(new_state(q, basis, dtype=dtype), Circuit(q, gates))
            assert_matches_reference(got.amplitudes, want, gates)


@st.composite
def gates_on(draw, num_qubits: int) -> Gate:
    kind = draw(st.sampled_from([k for k in sim.GATE_KINDS if num_qubits > 1 or k != "SWAP"]))
    n_targets = {"SWAP": 2, "MCZ": 0}.get(kind, 1)
    n_controls = 0
    if kind in ("MCX", "MCZ"):
        n_controls = draw(st.integers(1 if kind == "MCZ" else 0, num_qubits - n_targets))
    qubits = draw(st.permutations(range(num_qubits)))[: n_controls + n_targets]
    polarities = draw(st.lists(st.booleans(), min_size=n_controls, max_size=n_controls))
    return Gate(kind, tuple(qubits[n_controls:]), tuple(zip(qubits[:n_controls], polarities)))


@st.composite
def circuits_and_states(draw):
    # A random circuit and a state whose support starts within
    # SUPPORT_MAX_SHARE (where there is room) or past it.
    q = draw(st.integers(2, 12))
    gates = draw(st.lists(gates_on(q), max_size=40))
    dtype = draw(st.sampled_from([np.complex128, np.complex64]))
    limit = int((1 << q) * sim.SUPPORT_MAX_SHARE)
    if limit and draw(st.booleans()):
        size = draw(st.integers(1, limit))
    else:
        size = draw(st.integers(limit + 1, 1 << q))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = np.zeros(1 << q, dtype=dtype)
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps[rng.choice(1 << q, size, replace=False)] = values
    return Circuit(q, gates), amps


@settings(max_examples=300, deadline=None)
@given(circuits_and_states())
def test_apply_circuit_equals_per_gate_loop(case):
    circuit, amps = case
    q = circuit.num_qubits
    ref = sim.StateVector(q, amps.copy())
    for g in circuit.gates:
        apply_gate(ref, g)
    got = apply_circuit(sim.StateVector(q, amps.copy()), circuit)
    assert np.array_equal(got.amplitudes, ref.amplitudes)


@st.composite
def circuits_from_basis_states(draw):
    # A random circuit with an H layer on k distinct qubits somewhere in it:
    # from a basis state that layer alone grows the support 2**k times,
    # past SUPPORT_MAX_SHARE partway through whenever 2**k exceeds its
    # limit, which is 0 for q <= 3.
    q = draw(st.integers(1, 12))
    gates = draw(st.lists(gates_on(q), max_size=40))
    layer = draw(st.permutations(range(q)))[: draw(st.integers(0, q))]
    at = draw(st.integers(0, len(gates)))
    gates[at:at] = [H(k) for k in layer]
    basis = draw(st.integers(0, (1 << q) - 1))
    dtype = draw(st.sampled_from([np.complex128, np.complex64]))
    return Circuit(q, gates), basis, dtype


@settings(max_examples=300, deadline=None)
@given(circuits_from_basis_states())
def test_support_state_equals_dense_run_and_per_gate_loop(case):
    circuit, basis, dtype = case
    q = circuit.num_qubits
    got = apply_circuit(new_state(q, basis, dtype=dtype), circuit)
    idx, vals = got.support()
    order = np.argsort(idx)
    dense = sim.StateVector(q, new_state(q, basis, dtype=dtype).amplitudes)
    apply_circuit(dense, circuit)
    ref = new_state(q, basis, dtype=dtype)
    for g in circuit.gates:
        apply_gate(ref, g)
    assert np.array_equal(got.amplitudes, dense.amplitudes)
    assert np.array_equal(got.amplitudes, ref.amplitudes)
    scan = np.flatnonzero(got.amplitudes != 0)
    assert np.array_equal(idx[order], scan)
    assert np.array_equal(vals[order], got.amplitudes[scan])


@st.composite
def walked_circuits(draw):
    # A basis state on 4 to 14 qubits and a circuit whose H-free prefix
    # mixes X, MCX, SWAP, Z and MCZ, then optionally an H and more gates.
    # Half the controlled gates are drawn to fire on the index the prefix
    # has reached (so negative controls fire too), and each SWAP exchanges
    # two bits that are equal or differ there; the index is followed by
    # ``evaluate_classical``, the bit-sliced path.
    q = draw(st.integers(4, 14))
    basis = index = draw(st.integers(0, (1 << q) - 1))
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["X", "MCX", "SWAP", "Z", "MCZ"]))
        qubits = draw(st.permutations(range(q)))
        if kind in ("X", "Z"):
            gate = Gate(kind, (qubits[0],))
        elif kind == "SWAP":
            equal = draw(st.booleans())
            a = qubits[0]
            b = next((k for k in qubits[1:] if (index >> k & 1 == index >> a & 1) == equal),
                     qubits[1])
            gate = SWAP(a, b)
        else:
            n = draw(st.integers(1 if kind == "MCZ" else 0, q - (kind == "MCX")))
            fire = draw(st.booleans())
            controls = [(c, bool(index >> c & 1) if fire else draw(st.booleans()))
                        for c in qubits[:n]]
            gate = MCX(controls, qubits[n]) if kind == "MCX" else MCZ(controls)
        gates.append(gate)
        index = int(sim.evaluate_classical([gate], q, np.array([index]))[0][0])
    if draw(st.booleans()):
        gates.append(H(draw(st.integers(0, q - 1))))
        gates += draw(st.lists(gates_on(q), max_size=10))
    return Circuit(q, gates), basis


@settings(max_examples=300, deadline=None)
@given(walked_circuits(), st.booleans(), st.sampled_from([np.complex128, np.complex64]))
def test_walked_basis_state_equals_per_gate_loop(case, dense_first, dtype):
    # A basis state held as its support, or made dense first as a traced
    # benchmark run makes it, walks the H-free prefix one index at a time.
    circuit, basis = case
    q = circuit.num_qubits
    state = new_state(q, basis, dtype=dtype)
    if dense_first:
        state.amplitudes
    apply_circuit(state, circuit)
    ref = new_state(q, basis, dtype=dtype)
    for g in circuit.gates:
        apply_gate(ref, g)
    assert np.array_equal(state.amplitudes, ref.amplitudes)


class TestSupportState:
    def test_written_amplitudes_are_what_apply_circuit_acts_on(self):
        v = np.arange(1, 9) / np.linalg.norm(np.arange(1, 9)) * (1 - 1j)
        s = new_state(3, 5)
        s.amplitudes[:] = v
        apply_circuit(s, Circuit(3, [X(0), CNOT(0, 2), H(1)]))
        ref = sim.StateVector(3, v.copy())
        for g in (X(0), CNOT(0, 2), H(1)):
            apply_gate(ref, g)
        assert np.array_equal(s.amplitudes, ref.amplitudes)

    def test_dense_state_is_updated_in_place(self):
        # Six qubits: the support of 2 stays within the share limit of 4,
        # so the support path runs and writes back into the same array.
        s = new_state(6, 9)
        amps = s.amplitudes
        apply_circuit(s, Circuit(6, [X(1), H(4), MCZ([(4, True)])]))
        assert s.amplitudes is amps
        assert amps[11] == amps[27] * -1 == INV_SQRT2
        assert np.count_nonzero(amps) == 2

    def test_support_filling_its_share_still_runs_every_gate(self):
        # Eight qubits share at most 16 amplitudes: four H on fresh qubits
        # fill the share exactly, and the X after them must still run
        # before the state is kept as its support.
        assert int(2**8 * sim.SUPPORT_MAX_SHARE) == 16
        circuit = Circuit(8, [H(q) for q in range(4)] + [X(6)])
        state = apply_circuit(new_state(8, 0b10100000), circuit)
        ref = new_state(8, 0b10100000)
        for g in circuit.gates:
            apply_gate(ref, g)
        assert np.array_equal(state.amplitudes, ref.amplitudes)

    def test_returned_support_never_changes(self):
        s = new_state(6, 9)
        idx, vals = s.support()
        apply_circuit(s, Circuit(6, [Z(0), X(1), H(4)]))
        assert idx.tolist() == [9] and vals.tolist() == [1.0]
        assert sorted(s.support()[0].tolist()) == [11, 27]

    def test_bad_gate_leaves_support_unchanged(self):
        s = apply_circuit(new_state(6, 0b101101), Circuit(6, [H(1)]))
        idx, vals = (a.copy() for a in s.support())
        with pytest.raises(ValueError, match="qubit 6 out of range"):
            apply_circuit(s, Circuit(6, [X(1), H(2), CNOT(0, 6)]))
        assert np.array_equal(s.support()[0], idx)
        assert np.array_equal(s.support()[1], vals)

    @pytest.mark.parametrize("gates, message", [
        # inside the walked prefix: the first bad gate is named, by its
        # highest qubit
        ([X(1), SWAP(0, 2), MCX([(7, True), (0, False)], 9), Z(3), H(2), CNOT(0, 8)],
         "qubit 9 out of range for 6-qubit state"),
        # as the first H
        ([X(1), MCZ([(0, False)]), H(6), CNOT(7, 0)], "qubit 6 out of range for 6-qubit state"),
        # after the first H
        ([X(1), Z(0), H(2), X(3), CNOT(0, 7), X(8)], "qubit 7 out of range for 6-qubit state"),
    ])
    @pytest.mark.parametrize("dense_first", [False, True])
    def test_bad_gate_leaves_basis_state_unchanged(self, gates, message, dense_first):
        s = new_state(6, 0b101101)
        if dense_first:
            s.amplitudes
        idx, vals = (a.copy() for a in s.support())
        with pytest.raises(ValueError) as err:
            apply_circuit(s, Circuit(6, gates))
        assert str(err.value) == message
        assert np.array_equal(s.support()[0], idx)
        assert np.array_equal(s.support()[1], vals)
        assert np.array_equal(s.amplitudes, new_state(6, 0b101101).amplitudes)

    def test_basis_state_past_an_int64_index_is_refused(self):
        # Only the public constructor makes such a state; ``new_state``
        # refuses it for memory first.
        s = sim.StateVector(70, support=(np.array([0]), np.ones(1, dtype=np.complex128)))
        with pytest.raises(ValueError, match="70 qubits exceed the 62"):
            apply_circuit(s, Circuit(70, [X(5)]))
        assert s.support()[0].tolist() == [0]

    def test_dense_state_past_the_share_is_counted_not_gathered(self):
        # Every amplitude is nonzero, so the gate runs dense.  Gathering the
        # support first (an index and a value per amplitude) peaked at twice
        # the state's bytes; X on the top qubit exchanges two contiguous
        # halves and copies one, so the call needs half the state's bytes.
        q = 20
        amps = np.arange(1, (1 << q) + 1, dtype=np.complex128)
        amps /= np.linalg.norm(amps)
        s = sim.StateVector(q, amps.copy())
        tracemalloc.start()
        try:
            apply_circuit(s, Circuit(q, [X(q - 1)]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= amps.nbytes
        assert s.amplitudes is not amps
        half = 1 << (q - 1)
        assert np.array_equal(s.amplitudes, np.concatenate((amps[half:], amps[:half])))


class TestEvaluateClassical:
    def test_permutes_and_signs_every_input(self):
        out, negative = sim.evaluate_classical(
            [X(0), SWAP(0, 2), MCZ([(1, False), (2, True)])], 3, np.arange(8))
        assert out.tolist() == [4, 0, 6, 2, 5, 1, 7, 3]
        assert negative.tolist() == [True, False, False, False, True, False, False, False]

    def test_refuses_h(self):
        with pytest.raises(ValueError, match="H gate"):
            sim.evaluate_classical([X(0), H(1)], 2, np.arange(4))

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="qubit 3 out of range"):
            sim.evaluate_classical([X(0), CNOT(3, 1)], 3, np.arange(8))

    def test_past_an_int64_index(self):
        with pytest.raises(ValueError, match="63 qubits exceed the 62"):
            sim.evaluate_classical([X(62)], 63, np.arange(4))

    def test_no_inputs(self):
        out, negative = sim.evaluate_classical([X(0), Z(1)], 2, np.array([], dtype=np.int64))
        assert out.size == negative.size == 0

    def test_sign_set_exactly_where_controls_match(self):
        # Every Z and every MCZ on 3 qubits, over all 8 basis inputs: the
        # input keeps its index and gets sign -1 exactly where each control
        # reads its polarity (Z's target counting as a positive control).
        inputs = np.arange(8)
        gates = [Z(t) for t in range(3)]
        for mask in range(1, 8):
            for pattern in range(8):
                gates.append(MCZ([(k, bool(pattern >> k & 1)) for k in range(3) if mask >> k & 1]))
        for gate in gates:
            controls = gate.controls or ((gate.targets[0], True),)
            want = [all((i >> c & 1) == pos for c, pos in controls) for i in range(8)]
            out, negative = sim.evaluate_classical([gate], 3, inputs)
            assert out.tolist() == inputs.tolist()
            assert negative.tolist() == want

    def test_inputs_past_a_byte_and_high_qubits(self):
        # Rows span several bytes and qubits reach bit 61, the top of an
        # int64 basis index.
        rng = np.random.default_rng(5)
        inputs = rng.integers(0, 1 << 62, size=37)
        out, negative = sim.evaluate_classical([CNOT(61, 0), SWAP(3, 60), Z(61)], 62, inputs)
        want = inputs ^ (inputs >> 61 & 1)
        differ = (want >> 3 ^ want >> 60) & 1
        want ^= differ << 3 | differ << 60
        assert out.tolist() == want.tolist()
        assert negative.tolist() == (inputs >> 61 & 1 == 1).tolist()


class TestMarginal:
    def test_uniform_full_register(self):
        s = new_state(2)
        apply_gate(s, H(0))
        apply_gate(s, H(1))
        dist = marginal_distribution(s, Register("all", (0, 1)))
        assert dist == pytest.approx({0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25})

    def test_single_qubit_of_basis_state(self):
        s = new_state(3, 0b101)
        assert marginal_distribution(s, Register("q0", (0,))) == {0: 0.0, 1: 1.0}
        assert marginal_distribution(s, Register("q1", (1,))) == {0: 1.0, 1: 0.0}

    def test_register_bit_order(self):
        # Register (q2, q0): bit 0 of the value comes from q2.
        s = new_state(3, 0b100)
        dist = marginal_distribution(s, Register("r", (2, 0)))
        assert dist[0b01] == 1.0

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        c = random_circuit(rng, 6, 60)
        s = apply_circuit(new_state(6), c)
        dist = marginal_distribution(s, Register("r", (1, 3, 4)))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_register_out_of_range(self):
        with pytest.raises(ValueError):
            marginal_distribution(new_state(2), Register("r", (5,)))


class TestSample:
    def test_deterministic_state(self):
        s = new_state(3, 5)
        counts = sample(s, Register("all", (0, 1, 2)), 100, seed=0)
        assert counts == {5: 100}

    def test_uniform_within_five_sigma(self):
        s = apply_gate(new_state(1), H(0))
        counts = sample(s, Register("q", (0,)), 10**6, seed=42)
        sigma = (10**6 * 0.25) ** 0.5
        for v in (0, 1):
            assert abs(counts[v] - 500_000) <= 5 * sigma

    def test_same_seed_same_counts(self):
        s = apply_gate(new_state(2), H(0))
        r = Register("all", (0, 1))
        assert sample(s, r, 1000, seed=9) == sample(s, r, 1000, seed=9)

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            sample(new_state(1), Register("q", (0,)), 0, seed=0)


class TestGateCount:
    def test_native_counts(self):
        c = Circuit(2, [H(0), H(1), X(0)])
        assert gate_count(c) == {"H": 2, "X": 1}

    def test_decompose_estimate(self):
        c = Circuit(5, [MCX([(0, True), (1, True), (2, True), (3, True)], 4)])
        assert gate_count(c, decompose=True) == {"MCX": 1, "toffoli_equiv": 5}

    def test_decompose_floors_at_one(self):
        c = Circuit(2, [CNOT(0, 1), MCZ([(0, True), (1, True)])])
        counts = gate_count(c, decompose=True)
        assert counts["toffoli_equiv"] == 2


class TestTextFormat:
    def full_circuit(self) -> Circuit:
        c = Circuit(6)
        c.add_register(Register("idx", (0, 1)))
        c.add_register(Register("data", (2, 3, 4)))
        c.extend([
            H(3),
            X(0),
            Z(2),
            SWAP(1, 4),
            MCX([(0, True), (1, False), (2, True)], 5),
            MCZ([(0, True), (1, True), (3, False)]),
            MCX([], 2),
        ])
        return c

    def test_roundtrip(self):
        c = self.full_circuit()
        text = circuit_to_text(c)
        parsed = circuit_from_text(text)
        assert parsed.gates == c.gates
        assert parsed.registers == c.registers
        assert parsed.num_qubits == c.num_qubits
        assert circuit_to_text(parsed) == text

    def test_expected_serialization(self):
        c = self.full_circuit()
        lines = circuit_to_text(c).splitlines()
        assert lines[0] == "REG idx q0,q1"
        assert lines[1] == "REG data q2,q3,q4"
        assert lines[2] == "H q3"
        assert lines[5] == "SWAP q1 q4"
        assert lines[6] == "MCX [+q0,-q1,+q2] q5"
        assert lines[7] == "MCZ [+q0,+q1,-q3]"

    def test_comments_and_blanks(self):
        text = "# header\n\nH q0\n  # indented comment\nX q1\n"
        c = circuit_from_text(text)
        assert c.gates == [H(0), X(1)]

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            circuit_from_text("H q0\nFOO q1\n")
        assert err.value.line == 2

    def test_bad_qubit_token(self):
        with pytest.raises(ParseError):
            circuit_from_text("H x3\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            circuit_from_text("# nothing\n")

    def test_overlapping_registers_name_second_line(self):
        with pytest.raises(ParseError, match="register 'b' overlaps 'a'") as err:
            circuit_from_text("REG a q0,q1\nH q0\nREG b q1,q2\n")
        assert err.value.line == 3


class TestRegisters:
    def test_value_helpers(self):
        r = Register("r", (2, 0, 5))
        assert r.place_value(0b101) == (1 << 2) | (1 << 5)
        assert r.value_of((1 << 2) | (1 << 5)) == 0b101

    def test_controls_follow_register_order(self):
        # Bit j of the value sits on qubits[j], so the list follows the
        # register's order, not the qubit numbers.
        r = Register("r", (5, 2, 7))
        assert r.controls(0b110) == [(5, False), (2, True), (7, True)]
        assert r.controls(0b001) == [(5, True), (2, False), (7, False)]

    def test_controls_mask_drops_bits(self):
        r = Register("r", (5, 2, 7))
        assert r.controls(0b100, mask=0b101) == [(5, False), (7, True)]
        assert r.controls(0b111, mask=0b010) == [(2, True)]
        assert r.controls(0b011, mask=0) == []

    def test_value_zero_is_all_negative_and_has_no_ones(self):
        r = Register("r", (5, 2, 7))
        assert r.controls(0) == [(5, False), (2, False), (7, False)]
        assert r.ones(0) == []

    def test_ones_follow_register_order(self):
        r = Register("r", (5, 2, 7))
        assert r.ones(0b110) == [2, 7]
        assert r.ones(0b101) == [5, 7]
        assert r.ones(0b111) == [5, 2, 7]

    def test_values_outside_the_register_rejected(self):
        r = Register("r", (5, 2, 7))
        for bad in (8, -1):
            with pytest.raises(ValueError, match="does not fit"):
                r.ones(bad)
            with pytest.raises(ValueError, match="does not fit"):
                r.controls(bad)
        with pytest.raises(ValueError, match="does not fit"):
            r.controls(0, mask=0b1000)

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValueError):
            Register("r", (1, 1))

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError, match="negative qubit -1"):
            Register("r", (-1,))

    def test_circuit_register_overlap_rejected(self):
        c = Circuit(3)
        c.add_register(Register("a", (0, 1)))
        with pytest.raises(ValueError):
            c.add_register(Register("b", (1, 2)))


def test_norm_preserved_across_long_circuit():
    rng = np.random.default_rng(2)
    c = random_circuit(rng, 7, 200)
    s = apply_circuit(new_state(7), c)
    assert abs(s.norm() - 1) < 1e-9
