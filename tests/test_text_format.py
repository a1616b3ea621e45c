"""Property tests for the circuit text format."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdict.errors import ParseError
from gdict.sim import GATE_KINDS, Circuit, Gate, Register, circuit_from_text, circuit_to_text

QUBITS = 8


@st.composite
def gates(draw):
    kind = draw(st.sampled_from(GATE_KINDS))
    n_targets = {"SWAP": 2, "MCZ": 0}.get(kind, 1)
    n_controls = draw(st.integers(1 if kind == "MCZ" else 0, 4)) if kind in ("MCX", "MCZ") else 0
    qubits = draw(st.permutations(range(QUBITS)))[: n_controls + n_targets]
    polarities = draw(st.lists(st.booleans(), min_size=n_controls, max_size=n_controls))
    return Gate(kind, tuple(qubits[n_controls:]), tuple(zip(qubits[:n_controls], polarities)))


@st.composite
def circuits(draw):
    gate_list = draw(st.lists(gates(), max_size=12))
    pool = draw(st.permutations(range(QUBITS)))
    sizes = draw(st.lists(st.integers(1, 3), min_size=0 if gate_list else 1, max_size=3))
    registers = {}
    for k, size in enumerate(sizes):
        qubits = tuple(pool[:size])
        pool = pool[size:]
        if qubits:
            registers[f"r{k}"] = Register(f"r{k}", qubits)
    used = [q for g in gate_list for q in g.qubits]
    used += [q for reg in registers.values() for q in reg.qubits]
    return Circuit(max(used) + 1, gate_list, registers)


def assert_same(parsed: Circuit, circuit: Circuit) -> None:
    assert parsed.gates == circuit.gates
    assert list(parsed.registers.items()) == list(circuit.registers.items())
    assert parsed.num_qubits == circuit.num_qubits


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_text_roundtrip(circuit):
    assert_same(circuit_from_text(circuit_to_text(circuit)), circuit)


# The format's own words, well formed or not.
TOKENS = [
    "REG", *GATE_KINDS, "FOO", "#", "q0", "q1", "q2", "q00", "q", "x1", "q-1", "r",
    "q0,q1", "q1,q1", "q0,", ",", "[]", "[+q0]", "[-q1,+q2]", "[+q0,-q0]", "[q0]",
    "[+q0,]", "[", "]", "+q1",
]
lines = st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(st.lists(lines, max_size=6).map("\n".join))
@example("REG a q0\nREG b q0")
def test_fuzzed_text_raises_only_parse_error(text):
    try:
        circuit = circuit_from_text(text)
    except ParseError:
        return
    assert_same(circuit_from_text(circuit_to_text(circuit)), circuit)
