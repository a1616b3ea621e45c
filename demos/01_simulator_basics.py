"""Tour of the state-vector simulator: states, gates, registers, sampling.

Run with:  python3 demos/01_simulator_basics.py
"""

import numpy as np

from gdict import (
    CCX,
    CNOT,
    Circuit,
    H,
    MCX,
    MCZ,
    Register,
    X,
    apply_circuit,
    apply_gate,
    circuit_to_text,
    gate_count,
    inverse,
    marginal_distribution,
    new_state,
    sample,
)

# A state vector holds 2**q amplitudes; qubit k is bit k of the basis index.
state = new_state(3, basis_value=0b101)
print("|101> amplitudes:", np.flatnonzero(state.amplitudes), "(index 5)")

# Hadamard on one qubit of a fresh register gives an equal split.
state = apply_gate(new_state(1), H(0))
print("H|0> =", state.amplitudes)

# Multi-controlled gates take polarity-tagged controls: + fires on |1>,
# - fires on |0>.  This flips qubit 2 only when q0=1 and q1=0.
state = new_state(3, 0b001)
apply_gate(state, MCX([(0, True), (1, False)], 2))
print("MCX[+q0,-q1] on |001> lands on index", int(np.flatnonzero(state.amplitudes)[0]))

# An MCZ negates the amplitudes matching its whole pattern; on a uniform
# register that is one sign flip.
state = new_state(3)
for q in range(3):
    apply_gate(state, H(q))
apply_gate(state, MCZ([(0, True), (1, False), (2, True)]))
print("signs after MCZ on pattern 101:", np.sign(state.amplitudes.real).astype(int))

# Circuits carry named registers and serialize to a plain text format.
circuit = Circuit(3)
circuit.add_register(Register("pair", (0, 1)))
circuit.extend([H(0), CCX(0, 1, 2), X(1)])
print("\ncircuit text:")
print(circuit_to_text(circuit))
print("gate counts:", gate_count(circuit))
print("with multi-control estimate:", gate_count(circuit, decompose=True))

# Every gate kind is self-inverse, so the inverse circuit is the reversed list.
state = apply_circuit(new_state(3), circuit)
apply_circuit(state, inverse(circuit))
print("round-trip back to |000>:", abs(state.amplitudes[0]) > 1 - 1e-12)

# Measurement surfaces: exact marginals, or multinomial counts from a seed.
bell = Circuit(2, [H(0), CNOT(0, 1)])
state = apply_circuit(new_state(2), bell)
reg = Register("both", (0, 1))
print("\nBell-pair marginal:", marginal_distribution(state, reg))
print("1000 shots, seed 7:", sample(state, reg, shots=1000, seed=7))
