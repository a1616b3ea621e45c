"""The reversible arithmetic stack: adder, modular adder, multiplier, modexp.

Every circuit here is exhaustively checked against plain integer arithmetic;
the last section runs modular exponentiation on a superposed exponent to
show the same gates acting in parallel across all inputs.

Run with:  python3 demos/04_modular_arithmetic.py  (takes ~1 s)
"""

from gdict import H, apply_circuit, apply_gate, gate_count, new_state
from gdict.modarith import (
    adder,
    check_adder,
    check_modexp,
    check_modular_adder,
    check_modular_multiplier,
    modexp_circuit,
)

# Ripple-carry adder: x stays, y picks up the sum, carries end clean.  Each
# constructor places its own registers and names them on the circuit.
circuit = adder(3)
x, y, c = (circuit.registers[name] for name in ("x", "y", "c"))
state = new_state(circuit.num_qubits, x.place_value(3) | y.place_value(5))
apply_circuit(state, circuit)
basis = int(state.amplitudes.argmax())
print(f"3 + 5 -> x={x.value_of(basis)} y={y.value_of(basis)} c={c.value_of(basis)}")
print("adder gates:", gate_count(circuit))

print("\nexhaustive checks against integer arithmetic:")
for report in (
    check_adder(3),
    check_adder(3, inverse_direction=True),
    check_modular_adder(7),
    check_modular_multiplier(7, constants=[1, 3, 5]),
    check_modexp(3, 7),
):
    print(" ", report.summary())

# Modular exponentiation on a superposition: H on the exponent register,
# then one circuit computes 3**x mod 7 for every x at once.
print("\nmodexp on a uniform exponent superposition (g=3, N=7):")
mx = modexp_circuit(3, 7, 3)
exponent, a = mx.registers["x"], mx.registers["A"]
state = new_state(mx.num_qubits, a.place_value(1))
for q in exponent.qubits:
    apply_gate(state, H(q))
apply_circuit(state, mx)
for e in range(8):
    pos = exponent.place_value(e) | a.place_value(pow(3, e, 7))
    amp = state.amplitudes[pos]
    print(f"  amplitude of |x={e}>|A={pow(3, e, 7)}> = {amp.real:+.6f} "
          f"(expect {8**-0.5:.6f})")
print("modexp gates:", gate_count(mx))
