"""Toy Diffie-Hellman key recovery: search a candidate-exponent database.

Preprocessing (the number-field-sieve stage of a real attack) is replaced by
a candidate generator that solves the discrete log classically
(Pohlig-Hellman, cheap here because p-1 is smooth): it returns a tuple of
exponents guaranteed to contain a discrete log of the target public value.
The quantum stage takes any sequence of exponents in [0, p), writes them as
p.bit_length()-wide records and compiles those into its index-to-record
map, so the search runs over the candidates themselves.  Two oracle
realizations exist:

* ``circuit_oracle`` runs the full construction: map index to candidate
  exponent, run modular exponentiation in-circuit, phase-flip on the public
  value, then uncompute everything before the diffuser.
* ``precomputed_oracle`` phase-flips matching exponents directly (winners
  found classically), which exercises the same dictionary + amplification
  machinery with far fewer qubits and lets larger candidate sets run.

Both must and do produce identical index distributions where both fit.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dictionary import MAX_RECORDS, Database, build_dictionary
from .errors import UnsupportedModulusError
from .grover import GroverPlan, amplify, check_block, plan_search, read_index
from .modarith import is_supported_modulus, modexp_circuit
from .sim import MAX_BASIS_QUBITS, Circuit, MCZ, Register, X, check_state, gate_count
# grover.read_index simulates; perfbench/tracing.py still patches these names here.
from .sim import apply_circuit, marginal_distribution, new_state  # noqa: F401

CIRCUIT_ORACLE = "circuit_oracle"
PRECOMPUTED_ORACLE = "precomputed_oracle"
ATTACK_MODES = (CIRCUIT_ORACLE, PRECOMPUTED_ORACLE)
_UNCOMPUTE_FAILURE = "workspaces failed to uncompute"


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def _is_mersenne_prime(p: int) -> bool:
    # Lucas-Lehmer (D. H. Lehmer, Ann. Math. 31, 1930): p = 2**k - 1 with
    # k >= 3 is prime exactly when k - 2 steps of s -> s*s - 2 mod p from
    # s = 4 end at 0, whether or not k is prime.
    s = 4
    for _ in range(p.bit_length() - 2):
        s = (s * s - 2) % p
    return p == 3 or s == 0


# An attack searches the exponent register plus at least one index qubit,
# and a basis index addresses at most MAX_BASIS_QUBITS qubits, so no wider
# modulus can ever be searched.  Refusing one early also spares the
# primitive-root check from factoring its p-1, which can take seconds or
# never finish.
MAX_MODULUS_BITS = MAX_BASIS_QUBITS - 1


@dataclass(frozen=True)
class DHParams:
    """Public modulus and base; p must be a Mersenne prime, g a primitive root.

    Checked in this order, the first failure raising: p = 2**k - 1, p within
    MAX_MODULUS_BITS bits, p prime, 1 < g < p, and g a primitive root mod p."""

    p: int
    g: int

    def __post_init__(self):
        if not is_supported_modulus(self.p):
            raise UnsupportedModulusError(
                f"modulus {self.p} is not of the form 2**k - 1"
            )
        if self.p.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(f"modulus {self.p} has {self.p.bit_length()} bits, past the "
                             f"{MAX_MODULUS_BITS}-bit limit on searchable moduli")
        if not _is_mersenne_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if not 1 < self.g < self.p:
            raise ValueError(f"base {self.g} out of range for modulus {self.p}")
        order = self.p - 1
        for q in _prime_factors(order):
            if pow(self.g, order // q, self.p) == 1:
                raise ValueError(f"base {self.g} is not a primitive root mod {self.p}")

    @property
    def exponent_bits(self) -> int:
        return self.p.bit_length()


def public_value(params: DHParams, secret: int) -> int:
    """g**secret mod p, the value a party publishes."""
    if not 0 <= secret < params.p:
        raise ValueError(f"secret {secret} out of range [0, {params.p})")
    return pow(params.g, secret, params.p)


def shared_secret(params: DHParams, own_secret: int, other_public: int) -> int:
    """other_public**own_secret mod p; symmetric between the two parties."""
    if not 0 <= own_secret < params.p:
        raise ValueError(f"secret {own_secret} out of range [0, {params.p})")
    if not 1 <= other_public < params.p:
        raise ValueError(f"public value {other_public} outside the group")
    return pow(other_public, own_secret, params.p)


def _subgroup_log(base: int, target: int, order: int, p: int) -> int:
    # Baby-step giant-step: d in [0, order) with base**d = target mod p, for
    # a base of the given order, in about 2 * sqrt(order) products.
    step = math.isqrt(order - 1) + 1
    baby = {}
    value = 1
    for j in range(step):
        baby.setdefault(value, j)
        value = value * base % p
    giant = pow(base, -step, p)
    value = target
    for i in range(step):
        if value in baby:
            return i * step + baby[value]
        value = value * giant % p
    raise ValueError(f"{target} is not a power of {base} mod {p}")


def discrete_log(params: DHParams, target_public: int) -> int:
    """x in [0, p-2] with g**x = target_public, by Pohlig-Hellman.

    For each largest prime power q**e dividing the group order p-1, raising
    g and the target to (p-1) / q**e projects them into the subgroup of
    order q**e, where baby-step giant-step finds x mod q**e; the Chinese
    remainder theorem joins the residues (Pohlig and Hellman, IEEE Trans.
    Inf. Theory 24(1), 1978).  The cost follows the square root of p-1's
    largest prime power: 331 at p = 2**31 - 1, 1321 at p = 2**61 - 1.
    """
    p, g = params.p, params.g
    if not 1 <= target_public < p:
        raise ValueError(f"{target_public} is not in the group mod {p}")
    order = p - 1
    x, modulus = 0, 1
    for q in _prime_factors(order):
        power = q
        while order % (power * q) == 0:
            power *= q
        cofactor = order // power
        residue = _subgroup_log(pow(g, cofactor, p), pow(target_public, cofactor, p), power, p)
        x += modulus * ((residue - x) * pow(modulus, -1, power) % power)
        modulus *= power
    return x


def generate_candidates(params: DHParams, target_public: int, count: int,
                        seed: int) -> tuple[int, ...]:
    """``count`` distinct candidate exponents, one of which solves
    g**x = target_public: what the preprocessing stage hands the search.

    The remainder are drawn uniformly from [0, p-2] with the given seed, and
    the tuple is shuffled so the winner's position carries no information.
    Exponents stay below p-1 so exactly one candidate can win, and there are
    at most MAX_RECORDS of them, the most one database holds.
    """
    top = min(params.p - 1, MAX_RECORDS)
    if not 1 <= count <= top:
        raise ValueError(f"count must be in [1, {top}]")
    secret = discrete_log(params, target_public)
    rng = random.Random(seed)
    # Draw positions among the p-2 other exponents and step each one past the
    # secret: the same draws as sampling the list of those exponents, which
    # would take O(p) memory (about 77 GB at p = 2**31 - 1).
    chosen = [x + (x >= secret) for x in rng.sample(range(params.p - 2), count - 1)]
    chosen.append(secret)
    rng.shuffle(chosen)
    return tuple(chosen)


def _plan_attack(params: DHParams, target_public: int, candidates: Sequence[int], mode: str,
                 rounds: int | None) -> tuple[Database, list[int], GroverPlan, int]:
    # Refuses a bad mode, target or candidate, then plans over the candidates
    # written as exponent_bits-wide records; the winners' g**x hits the target.
    if mode not in ATTACK_MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
    if not 1 <= target_public < params.p:
        raise ValueError(f"target {target_public} is not in the group")
    for c in candidates:
        if not 0 <= c < params.p:
            raise ValueError(f"candidate exponent {c} out of range [0, {params.p})")
    records = tuple(format(c, f"0{params.exponent_bits}b") for c in candidates)
    return plan_search(Database(records), lambda x: pow(params.g, x, params.p) == target_public,
                       rounds, "no candidate exponent produces the target public value")


def _attack_circuit(params: DHParams, target_public: int, mode: str, padded: Database,
                    winners: list[int], executed: int) -> Circuit:
    m, n = padded.m, padded.n
    # Built before the dictionary, so a modulus too wide fails before synthesis.
    exp = modexp_circuit(params.g, params.p, n, base=m) if mode == CIRCUIT_ORACLE else None
    dictionary = build_dictionary(padded)
    start = 0
    if mode == PRECOMPUTED_ORACLE:
        x_reg = Register("x", tuple(range(m, m + n)))
        circuit = Circuit(m + n, registers={"index": dictionary.index, "x": x_reg})
        winner_values = sorted({int(padded.records[i], 2) for i in winners})
        mark = [MCZ(x_reg.controls(v)) for v in winner_values]
    else:
        # The exponent register "x" sits on the qubits the dictionary writes.
        circuit = Circuit(exp.num_qubits, registers={"index": dictionary.index, **exp.registers})
        a_reg = exp.registers["A"]
        mark = exp.gates + [MCZ(a_reg.controls(target_public))] + exp.gates[::-1]
        circuit.extend(map(X, a_reg.ones(1)))  # workspace A enters |1>
        start = a_reg.place_value(1)
    iteration = amplify(circuit, dictionary.index, dictionary.circuit, mark, executed)
    check_block(iteration, dictionary.index, start, winners, _UNCOMPUTE_FAILURE)
    return circuit


def build_attack_circuit(
    params: DHParams,
    target_public: int,
    candidates: Sequence[int],
    mode: str = CIRCUIT_ORACLE,
    rounds: int | None = None,
) -> Circuit:
    """Assemble the full key-recovery circuit, initialization included.

    Every iteration maps indices to exponents, marks the ones whose public
    value matches, unmaps, and diffuses the index register, as
    ``grover.amplify`` does for a database search.  In circuit mode the
    marking runs modular exponentiation forward, phases on the output
    workspace, and uncomputes; in precomputed mode it phases the exponent
    register directly on the classically known winners.  ``candidates`` are
    exponents in [0, p); one outside raises ValueError.  Before it returns,
    ``grover.check_block`` proves one round on every index, so a round that
    leaves a workspace dirty or marks other indices than the winners raises
    RuntimeError.
    """
    padded, winners, _, executed = _plan_attack(params, target_public, candidates, mode, rounds)
    return _attack_circuit(params, target_public, mode, padded, winners, executed)


@dataclass
class AttackResult:
    recovered_secret: int
    success_probability: float
    distribution: dict[int, float]
    qubit_count: int
    gate_counts: dict[str, int]
    plan: GroverPlan
    mode: str
    rounds_executed: int
    candidates: tuple[int, ...]
    winner_indices: tuple[int, ...]
    target_public: int
    workspace_residual: float


def run_attack(
    params: DHParams,
    target_public: int,
    candidates: Sequence[int],
    mode: str = CIRCUIT_ORACLE,
    rounds: int | None = None,
    *,
    dtype=np.complex128,
    max_qubits: int | None = None,
) -> AttackResult:
    """Plan the attack once, then simulate its circuit and read the index.

    The recovered secret is the candidate at the most probable index.  Every
    qubit outside the index register must return to its start: workspace A
    to 1 in circuit mode, all else to 0.  One round that fails
    ``check_block``, or any nonzero amplitude left off that pattern after
    the simulation (a broken uncomputation), raises RuntimeError, as in
    ``run_search``; the result reports 1 minus the index weight as the
    residual, which decides nothing.
    """
    padded, winners, plan, executed = _plan_attack(params, target_public, candidates, mode, rounds)
    # Every attack needs at least the index and exponent registers.
    check_state(padded.m + padded.n, dtype=dtype, max_qubits=max_qubits)
    circuit = _attack_circuit(params, target_public, mode, padded, winners, executed)
    # Every qubit outside the index returns to 0, but for workspace A's 1.
    start = circuit.registers["A"].place_value(1) if mode == CIRCUIT_ORACLE else 0
    distribution, top_index, residual = read_index(
        circuit, start, dtype, max_qubits, _UNCOMPUTE_FAILURE)
    return AttackResult(
        recovered_secret=int(padded.records[top_index], 2),
        success_probability=float(sum(distribution[i] for i in winners)),
        distribution=distribution,
        qubit_count=circuit.num_qubits,
        gate_counts=gate_count(circuit),
        plan=plan,
        mode=mode,
        rounds_executed=executed,
        candidates=tuple(candidates),
        winner_indices=tuple(winners),
        target_public=target_public,
        workspace_residual=residual,
    )
