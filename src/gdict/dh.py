"""Toy Diffie-Hellman key recovery: search a candidate-exponent database.

Preprocessing (the number-field-sieve stage of a real attack) is replaced by
a brute-force-backed candidate generator: it returns a list of exponents
guaranteed to contain a discrete log of the target public value.  The
quantum stage then searches that list.  Two oracle realizations exist:

* ``circuit_oracle`` runs the full construction: map index to candidate
  exponent, run modular exponentiation in-circuit, phase-flip on the public
  value, then uncompute everything before the diffuser.
* ``precomputed_oracle`` phase-flips matching exponents directly (winners
  found classically), which exercises the same dictionary + amplification
  machinery with far fewer qubits and lets larger candidate sets run.

Both must and do produce identical index distributions where both fit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .dictionary import Database, build_dictionary, pad_database
from .errors import NoWinnerError, UnsupportedModulusError
from .grover import GroverPlan, amplify, plan_rounds, workspace_residual
from .modarith import is_supported_modulus, modexp_circuit, modexp_layout
from .sim import (
    Circuit,
    Gate,
    MCZ,
    Register,
    X,
    apply_circuit,
    gate_count,
    marginal_distribution,
    new_state,
)

CIRCUIT_ORACLE = "circuit_oracle"
PRECOMPUTED_ORACLE = "precomputed_oracle"
ATTACK_MODES = (CIRCUIT_ORACLE, PRECOMPUTED_ORACLE)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def discrete_log(params: DHParams, target_public: int) -> int:
    """Brute-force x in [0, p-2] with g**x = target_public (toy scale only)."""
    if not 1 <= target_public < params.p:
        raise ValueError(f"{target_public} is not in the group mod {params.p}")
    value = 1
    for x in range(params.p - 1):
        if value == target_public:
            return x
        value = (value * params.g) % params.p
    raise ValueError(f"{target_public} has no discrete log (g not a generator?)")


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
    Exponents stay below p-1 so exactly one candidate can win.
    """
    if not 1 <= count <= params.p - 1:
        raise ValueError(f"count must be in [1, {params.p - 1}]")
    secret = discrete_log(params, target_public)
    rng = random.Random(seed)
    pool = [x for x in range(params.p - 1) if x != secret]
    chosen = rng.sample(pool, count - 1) + [secret]
    rng.shuffle(chosen)
    return encode_candidates(params, chosen)


def attack_winners(params: DHParams, target_public: int, padded: Database) -> list[int]:
    """Indices of padded candidate records whose exponent hits the target."""
    return [
        i for i, r in enumerate(padded.records)
        if pow(params.g, int(r, 2), params.p) == target_public
    ]


def _exact_match_mcz(register: Register, value: int) -> Gate:
    controls = [(q, bool(value >> j & 1)) for j, q in enumerate(register.qubits)]
    return MCZ(controls)


def _plan_attack(params: DHParams, target_public: int, candidates: CandidateSet,
                 rounds: int | None) -> tuple[Database, list[int], GroverPlan, int]:
    # Padded candidates, winner indices, plan and rounds to execute.
    padded = pad_database(candidates.database)
    winners = attack_winners(params, target_public, padded)
    if not winners:
        raise NoWinnerError("no candidate exponent produces the target public value")
    plan, executed = plan_rounds(1 << padded.m, len(winners), rounds)
    return padded, winners, plan, executed


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

    dictionary = build_dictionary(padded)
    m, n = padded.m, padded.n
    index_reg = Register("index", tuple(range(m)))

    if mode == PRECOMPUTED_ORACLE:
        x_reg = Register("x", tuple(range(m, m + n)))
        circuit = Circuit(m + n, registers={"index": index_reg, "x": x_reg})
        winner_values = sorted({int(padded.records[i], 2) for i in winners})
        mark = [_exact_match_mcz(x_reg, v) for v in winner_values]
        amplify(circuit, index_reg, dictionary.circuit, mark, executed)
        return circuit

    # The exponent register "x" sits on the qubits the dictionary writes.
    exp = modexp_circuit(params.g, params.p, n, modexp_layout(params.p, n, base=m))
    circuit = Circuit(exp.num_qubits, registers={"index": index_reg, **exp.registers})
    a_reg = exp.registers["A"]
    mark = exp.gates + [_exact_match_mcz(a_reg, target_public)] + exp.gates[::-1]
    circuit.add(X(a_reg.qubits[0]))  # workspace A enters |1>
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

    The recovered secret is the candidate at the most probable index; the
    result also reports how cleanly the workspaces returned to their initial
    values, and a residual above ``grover.workspace_residual``'s tolerance
    (a broken uncomputation) raises RuntimeError, as in ``run_search``.
    """
    padded, winners, plan, executed = _plan_attack(params, target_public, candidates, rounds)

    circuit = build_attack_circuit(params, target_public, candidates, mode, rounds)
    state = new_state(circuit.num_qubits, 0, dtype=dtype, max_qubits=max_qubits)
    apply_circuit(state, circuit)

    # Every register but the index is a workspace: A returns to 1, the rest to 0.
    residual = workspace_residual(
        [(marginal_distribution(state, reg), int(name == "A"))
         for name, reg in circuit.registers.items() if name != "index"],
        state.amplitudes.dtype, "workspaces failed to uncompute")

    distribution = marginal_distribution(state, circuit.registers["index"])
    top_index = max(distribution, key=lambda v: (distribution[v], -v))
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
