"""Toy Diffie-Hellman key recovery over a candidate-exponent database.

Two parties agree on (p, g), exchange g**secret mod p, and an eavesdropper
who can invert the exponentiation recovers the shared key.  Here the
preprocessing stage hands us a short candidate list guaranteed to contain a
valid exponent, and the search stage finds it with amplitude amplification.
Circuit mode runs the whole thing, modular exponentiation included, on 22
qubits; precomputed mode marks winners classically and scales further.

Run with:  python3 demos/05_key_recovery.py  (circuit mode takes ~1 s)
"""

from gdict import (
    DHParams,
    generate_candidates,
    public_value,
    run_attack,
    shared_secret,
)
from gdict.dh import CIRCUIT_ORACLE, PRECOMPUTED_ORACLE

params = DHParams(p=7, g=3)
alice_secret, bob_secret = 4, 5
A = public_value(params, alice_secret)
B = public_value(params, bob_secret)
key = shared_secret(params, alice_secret, B)
assert key == shared_secret(params, bob_secret, A)
print(f"protocol: p={params.p} g={params.g}; Alice sends A={A}, Bob sends B={B}, "
      f"shared key = {key}\n")

# The eavesdropper targets Alice's public value.
candidates = generate_candidates(params, A, count=4, seed=1)
print(f"candidate exponents from preprocessing: {candidates}")

result = run_attack(params, A, candidates, CIRCUIT_ORACLE)
print(f"\ncircuit-oracle attack: recovered a={result.recovered_secret} "
      f"with p={result.success_probability:.9f}")
print(f"  {result.qubit_count} qubits, gates {result.gate_counts}, "
      f"rounds {result.rounds_executed}")
print(f"  workspace residual {result.workspace_residual:.2e}")

fast = run_attack(params, A, candidates, PRECOMPUTED_ORACLE)
agree = max(abs(result.distribution[i] - fast.distribution[i])
            for i in result.distribution)
print(f"\nprecomputed-oracle attack on {fast.qubit_count} qubits agrees to {agree:.2e}")

stolen = shared_secret(params, result.recovered_secret, B)
print(f"\neavesdropper derives the shared key from B: {stolen} "
      f"({'matches' if stolen == key else 'does not match'})")

# Larger candidate list on the next Mersenne prime, precomputed mode.
big = DHParams(p=31, g=3)
target = public_value(big, 11)
cands8 = generate_candidates(big, target, count=8, seed=2)
res8 = run_attack(big, target, cands8, PRECOMPUTED_ORACLE)
print(f"\np=31, 8 candidates: recovered {res8.recovered_secret} "
      f"with p={res8.success_probability:.7f} after R={res8.rounds_executed} "
      f"(analytic optimum 0.9453125)")
