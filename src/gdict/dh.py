"""Toy Diffie-Hellman key recovery: search a candidate-exponent database.

Preprocessing (the number-field-sieve stage of a real attack) is replaced by
a candidate generator that solves the discrete log classically
(Pohlig-Hellman, cheap here because p-1 is smooth): it returns a list of
exponents guaranteed to contain a discrete log of the target public value.
The quantum stage then searches that list.  Two oracle realizations exist:

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
from dataclasses import dataclass

import numpy as np

from .dictionary import MAX_RECORDS, Database, build_dictionary
from .errors import UnsupportedModulusError
from .grover import GroverPlan, amplify, plan_search, read_index
from .modarith import is_supported_modulus, modexp_circuit
from .sim import MAX_BASIS_QUBITS, Circuit, MCZ, Register, X, check_state, gate_count
# grover.read_index simulates; perfbench/tracing.py still patches these names here.
from .sim import apply_circuit, marginal_distribution, new_state  # noqa: F401

CIRCUIT_ORACLE = "circuit_oracle"
PRECOMPUTED_ORACLE = "precomputed_oracle"
ATTACK_MODES = (CIRCUIT_ORACLE, PRECOMPUTED_ORACLE)


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


# Miller-Rabin with the first twelve primes as bases is deterministic below
# 3.18e23 (Sorenson and Webster, Math. Comp. 86, 2017), far past any modulus
# a state vector can search.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# An attack searches the exponent register plus at least one index qubit,
# and a basis index addresses at most MAX_BASIS_QUBITS qubits, so no wider
# modulus can ever be searched.  Refusing one early also spares the
# primitive-root check from factoring its p-1, which can take seconds or
# never finish.
MAX_MODULUS_BITS = MAX_BASIS_QUBITS - 1


@dataclass(frozen=True)
class DHParams:
    """Public modulus and base; p must be a Mersenne prime, g a primitive root."""

    p: int
    g: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if not is_supported_modulus(self.p):
            raise UnsupportedModulusError(
                f"modulus {self.p} is not of the form 2**k - 1"
            )
        if self.p.bit_length() > MAX_MODULUS_BITS:
            raise ValueError(f"modulus {self.p} has {self.p.bit_length()} bits, past the "
                             f"{MAX_MODULUS_BITS}-bit limit on searchable moduli")
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


@dataclass(frozen=True)
class CandidateSet:
    """Distinct candidate exponents plus their fixed-width database encoding."""

    candidates: tuple[int, ...]
    database: Database

    def __len__(self) -> int:
        return len(self.candidates)


def encode_candidates(params: DHParams, candidates) -> CandidateSet:
    width = params.exponent_bits
    records = tuple(format(c, f"0{width}b") for c in candidates)
    return CandidateSet(tuple(candidates), Database(records))


def generate_candidates(params: DHParams, target_public: int, count: int, seed: int) -> CandidateSet:
    """``count`` distinct exponents, one of which solves g**x = target_public.

    The remainder are drawn uniformly from [0, p-2] with the given seed, and
    the list is shuffled so the winner's position carries no information.
    Exponents stay below p-1 so exactly one candidate can win, and no
    database holds more than MAX_RECORDS of them.
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
    return encode_candidates(params, chosen)


def _plan_attack(params: DHParams, target_public: int, candidates: CandidateSet,
                 rounds: int | None) -> tuple[Database, list[int], GroverPlan, int]:
    # The winners are the candidate exponents whose public value hits the target.
    return plan_search(candidates.database,
                       lambda x: pow(params.g, x, params.p) == target_public,
                       rounds, "no candidate exponent produces the target public value")


def build_attack_circuit(
    params: DHParams,
    target_public: int,
    candidates: CandidateSet,
    mode: str = CIRCUIT_ORACLE,
    rounds: int | None = None,
) -> Circuit:
    """Assemble the full key-recovery circuit, initialization included.

    Every iteration maps indices to exponents, marks the ones whose public
    value matches, unmaps, and diffuses the index register, as
    ``grover.amplify`` does for a database search.  In circuit mode the
    marking runs modular exponentiation forward, phases on the output
    workspace, and uncomputes; in precomputed mode it phases the exponent
    register directly on the classically known winners.
    """
    if mode not in ATTACK_MODES:
        raise ValueError(f"unknown attack mode {mode!r}")
    if not 1 <= target_public < params.p:
        raise ValueError(f"target {target_public} is not in the group")
    padded, winners, _, executed = _plan_attack(params, target_public, candidates, rounds)
    m, n = padded.m, padded.n
    # Built before the dictionary, so a modulus too wide fails before synthesis.
    exp = modexp_circuit(params.g, params.p, n, base=m) if mode == CIRCUIT_ORACLE else None

    dictionary = build_dictionary(padded)
    index_reg = dictionary.index

    if mode == PRECOMPUTED_ORACLE:
        x_reg = Register("x", tuple(range(m, m + n)))
        circuit = Circuit(m + n, registers={"index": index_reg, "x": x_reg})
        winner_values = sorted({int(padded.records[i], 2) for i in winners})
        mark = [MCZ(x_reg.controls(v)) for v in winner_values]
        amplify(circuit, index_reg, dictionary.circuit, mark, executed)
        return circuit

    # The exponent register "x" sits on the qubits the dictionary writes.
    circuit = Circuit(exp.num_qubits, registers={"index": index_reg, **exp.registers})
    a_reg = exp.registers["A"]
    mark = exp.gates + [MCZ(a_reg.controls(target_public))] + exp.gates[::-1]
    circuit.add(*map(X, a_reg.ones(1)))  # workspace A enters |1>
    amplify(circuit, index_reg, dictionary.circuit, mark, executed)
    return circuit


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
    candidates: CandidateSet,
    mode: str = CIRCUIT_ORACLE,
    rounds: int | None = None,
    *,
    dtype=np.complex128,
    max_qubits: int | None = None,
) -> AttackResult:
    """Simulate the attack circuit and read the index-register distribution.

    The recovered secret is the candidate at the most probable index.  Every
    qubit outside the index register must return to its start: workspace A
    to 1 in circuit mode, all else to 0.  The result reports the residual
    weight outside that pattern, and a residual above ``grover.read_index``'s
    tolerance (a broken uncomputation) raises RuntimeError, as in
    ``run_search``.
    """
    padded, winners, plan, executed = _plan_attack(params, target_public, candidates, rounds)
    # Every attack needs at least the index and exponent registers.
    check_state(padded.m + padded.n, dtype=dtype, max_qubits=max_qubits)
    circuit = build_attack_circuit(params, target_public, candidates, mode, rounds)
    # Every qubit outside the index returns to 0, but for workspace A's 1.
    start = circuit.registers["A"].place_value(1) if mode == CIRCUIT_ORACLE else 0
    distribution, top_index, residual = read_index(
        circuit, start, dtype, max_qubits, "workspaces failed to uncompute")
    return AttackResult(
        recovered_secret=int(padded.records[top_index], 2),
        success_probability=float(sum(distribution[i] for i in winners)),
        distribution=distribution,
        qubit_count=circuit.num_qubits,
        gate_counts=gate_count(circuit),
        plan=plan,
        mode=mode,
        rounds_executed=executed,
        candidates=candidates.candidates,
        winner_indices=tuple(winners),
        target_public=target_public,
        workspace_residual=residual,
    )
