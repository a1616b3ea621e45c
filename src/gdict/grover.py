"""Grover search over dictionary-encoded databases.

One search iteration applies the dictionary mapping, phases the data-register
states satisfying the clause, unmaps (disentangling the data register), and
reflects the index register about the uniform superposition.  A database
search and the key-recovery attack in ``gdict.dh`` share every step but the
marking: ``plan_search`` pads the database, finds its winners and plans the
rounds, ``amplify`` assembles the loop, ``check_block`` proves one round
exact on every index, and ``read_index`` simulates the loop, checks that
every qubit outside the index came back to its start and reads the index
register.  The winner count is known classically (synthesis reads every
record anyway), so the round count and success probability follow in
closed form (Boyer, Brassard, Høyer and Tapp, "Tight bounds on quantum
searching", 1998):

    theta0 = arcsin(sqrt(M / N))
    p(R)   = sin((2R + 1) * theta0) ** 2

All contracts here are stated on probabilities or relative phases; the
diffuser realization carries a global phase of -1, which is unobservable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Database, build_dictionary, pad_database
from .errors import NoWinnerError
from .sim import (
    Circuit,
    Gate,
    H,
    MCX,
    MCZ,
    Register,
    X,
    apply_circuit,
    check_state,
    evaluate_classical,
    gate_count,
    inverse,
    new_state,
)
# read_index reads the index from the state's support; perfbench/tracing.py still patches this name here.
from .sim import marginal_distribution  # noqa: F401

PHASE_FLIP = "phase_flip"
ANCILLA_KICKBACK = "ancilla_kickback"
ORACLE_MODES = (PHASE_FLIP, ANCILLA_KICKBACK)


@dataclass(frozen=True)
class Clause:
    """Mask-match predicate: record r satisfies it iff r & mask == target & mask."""

    num_bits: int
    target_value: int
    mask: int

    def __post_init__(self):
        full = (1 << self.num_bits) - 1
        if self.mask & ~full or self.target_value & ~full:
            raise ValueError("clause bits exceed record width")

    def matches(self, record_value: int) -> bool:
        return (record_value & self.mask) == (self.target_value & self.mask)

    @classmethod
    def from_pattern(cls, pattern: str) -> "Clause":
        """Pattern over {0,1,x}, leftmost char = most significant bit;
        'x' leaves a bit unconstrained."""
        n = len(pattern)
        if n == 0:
            raise ValueError("empty clause pattern")
        value = mask = 0
        for pos, ch in enumerate(pattern):
            bit = 1 << (n - 1 - pos)
            if ch == "x":
                continue
            if ch not in "01":
                raise ValueError(f"clause characters must be 0, 1 or x, got {ch!r}")
            mask |= bit
            if ch == "1":
                value |= bit
        return cls(n, value, mask)

    def to_pattern(self) -> str:
        chars = []
        for pos in range(self.num_bits):
            bit = 1 << (self.num_bits - 1 - pos)
            if not self.mask & bit:
                chars.append("x")
            else:
                chars.append("1" if self.target_value & bit else "0")
        return "".join(chars)


@dataclass(frozen=True)
class GroverPlan:
    search_space_size: int
    winner_count: int
    theta0: float
    rounds: int
    predicted_success: float


def success_probability(N: int, M: int, R: int) -> float:
    """Winner probability after R iterations: sin((2R+1) arcsin(sqrt(M/N)))**2."""
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    if R < 0:
        raise ValueError("round count must be >= 0")
    theta0 = math.asin(math.sqrt(M / N))
    return math.sin((2 * R + 1) * theta0) ** 2


def optimal_rounds(N: int, M: int) -> GroverPlan:
    """Nearest integer R solving (2R + 1) * theta0 = pi / 2, floored at 0."""
    if not 1 <= M <= N:
        raise ValueError(f"need 1 <= M <= N, got M={M}, N={N}")
    theta0 = math.asin(math.sqrt(M / N))
    exact = (math.pi / (2 * theta0) - 1) / 2
    rounds = max(0, math.floor(exact + 0.5))
    return GroverPlan(N, M, theta0, rounds, success_probability(N, M, rounds))


def plan_search(database: Database, is_winner, rounds: int | None,
                failure: str) -> tuple[Database, list[int], GroverPlan, int]:
    """Pad ``database``, find its winners and plan the rounds.

    The winners are the padded indices whose record value satisfies
    ``is_winner``; with none, NoWinnerError carries the ``failure`` message.
    Returns the padded database, the winner indices, the optimal plan for
    that winner count and the rounds to execute: ``rounds`` when given, else
    the plan's.
    """
    padded = pad_database(database)
    winners = [i for i, r in enumerate(padded.records) if is_winner(int(r, 2))]
    if not winners:
        raise NoWinnerError(failure)
    plan = optimal_rounds(1 << padded.m, len(winners))
    executed = plan.rounds if rounds is None else rounds
    if executed < 0:
        raise ValueError("round count must be >= 0")
    return padded, winners, plan, executed


def phase_oracle(clause: Clause, data_register: Register, mode: str = PHASE_FLIP,
                 ancilla: int | None = None) -> Circuit:
    """Multiply clause-satisfying basis states by -1.

    phase_flip emits one MCZ whose control pattern follows the clause;
    ancilla_kickback emits the same pattern as an MCX onto a qubit the
    caller has prepared in the |-> state.  Both leave non-matching
    amplitudes untouched.
    """
    if clause.mask == 0:
        raise ValueError("clause constrains no bits; oracle would phase everything")
    if len(data_register.qubits) < clause.num_bits:
        raise ValueError("data register narrower than the clause")
    if mode not in ORACLE_MODES:
        raise ValueError(f"unknown oracle mode {mode!r}")
    controls = data_register.controls(clause.target_value, clause.mask)
    if mode == PHASE_FLIP:
        gates = [MCZ(controls)]
        top = max(q for q, _ in controls)
    else:
        if ancilla is None:
            raise ValueError("ancilla_kickback mode needs an ancilla qubit")
        gates = [MCX(controls, ancilla)]
        top = max(ancilla, max(q for q, _ in controls))
    circuit = Circuit(top + 1, gates)
    return circuit


def diffuser(register: Register) -> Circuit:
    """Reflection about the uniform superposition, up to a global -1.

    Realized as H on every qubit, one MCZ firing on the all-zero pattern
    (negative controls throughout), then H again: the middle gate is
    I - 2|0..0><0..0|, so the sandwich is I - 2|S><S|.  This stays correct
    for any register width, including a single qubit.
    """
    hs = [H(q) for q in register.qubits]
    mcz = MCZ(register.controls(0))
    circuit = Circuit(max(register.qubits) + 1, hs + [mcz] + list(hs))
    return circuit


@dataclass
class SearchResult:
    distribution: dict[int, float]
    top_index: int
    top_record: str
    plan: GroverPlan
    gate_counts: dict[str, int]
    iteration_gate_counts: dict[str, int]
    winner_indices: tuple[int, ...]
    winner_probability: float
    executed_rounds: int
    circuit: Circuit


def amplify(circuit: Circuit, index: Register, dictionary: Circuit, mark: list[Gate],
            rounds: int, prepare: tuple[Gate, ...] = ()) -> Circuit:
    """Append H on ``index``, then ``rounds`` rounds of map, mark, unmap, diffuse.

    One round is the ``dictionary`` gates, the ``mark`` gates, the reversed
    dictionary and ``diffuser(index)``.  The self-inverse ``prepare`` gates
    run once before the first round and, reversed, once after the last.
    Returns one round as a circuit, empty when ``rounds`` is 0, in which
    case only the H layer is appended.
    """
    circuit.extend(H(q) for q in index.qubits)
    iteration = Circuit(circuit.num_qubits)
    if rounds > 0:
        iteration.extend(dictionary.gates)
        iteration.extend(mark)
        iteration.extend(inverse(dictionary).gates)
        iteration.extend(diffuser(index).gates)
        circuit.extend(prepare)
        for _ in range(rounds):
            circuit.extend(iteration.gates)
        circuit.extend(reversed(prepare))
    return iteration


def check_block(iteration: Circuit, index: Register, start: int, winners: list[int],
                failure: str, kickback: int = 0) -> None:
    """Prove one round's block, "map, mark, unmap", on every index at once.

    The block is the gates of ``iteration``, the round ``amplify`` returned,
    before its first H.  Before every block the state lies on the 2**m basis
    states ``index value | start``; the block runs once on all of them with
    ``evaluate_classical``.  Each must come back to itself but for the
    ``kickback`` bits (the kickback ancilla's, 0 in ``start``), and the
    indices it marks, left with sign -1 or with those bits flipped, must be
    exactly ``winners``.  Otherwise RuntimeError gives the ``failure``
    message, the first bad index and the verdict it fails.  An empty round
    (0 rounds) checks nothing.
    """
    gates = iteration.gates
    if not gates:
        return
    block = gates[:next((at for at, g in enumerate(gates) if g.kind == "H"), len(gates))]
    inputs = np.array([start], dtype=np.int64)
    for j in range(len(index)):  # inputs[i] is index.place_value(i) | start
        inputs = np.concatenate((inputs, inputs | index.place_value(1 << j)))
    outputs, negative = evaluate_classical(block, iteration.num_qubits, inputs)
    changed = outputs ^ inputs
    marked = negative ^ (changed != 0)
    wins = np.zeros(inputs.size, dtype=bool)
    wins[winners] = True
    dirty = (changed & ~kickback) != 0
    bad = np.flatnonzero(dirty | (marked != wins))
    if bad.size:
        i = int(bad[0])
        if dirty[i]:
            verdict = "does not come back to its start"
        elif wins[i]:
            verdict = "is a winner the round does not mark"
        else:
            verdict = "is marked but is not a winner"
        raise RuntimeError(f"{failure}: index {i} {verdict}")


def read_index(circuit: Circuit, start: int, dtype, max_qubits: int | None,
               failure: str) -> tuple[dict[int, float], int, float]:
    """Simulate ``circuit`` from |0> and read its "index" register.

    A correct run leaves every qubit outside the index register in the basis
    pattern ``start``, so the state's nonzero support lies on the 2**m
    indices ``index value | start``, and the squares of its amplitudes there
    are the index marginal bit for bit.  Any nonzero amplitude off that
    pattern, in either precision, raises RuntimeError with the ``failure``
    message; the residual, 1 minus the index weight floored at 0.0, decides
    nothing (rounding alone lifts it past 1e-4 in single precision).
    Returns the index distribution, its most probable value (the lowest on
    a tie) and the residual.
    """
    state = new_state(circuit.num_qubits, 0, dtype=dtype, max_qubits=max_qubits)
    apply_circuit(state, circuit)
    index = circuit.registers["index"]
    idx, vals = state.support()
    on_pattern = (idx & ~index.place_value((1 << len(index)) - 1)) == start
    probs = np.zeros(1 << len(index), dtype=vals.real.dtype)
    probs[index.value_of(idx[on_pattern])] = np.abs(vals[on_pattern]) ** 2
    residual = max(0.0, 1.0 - float(np.sum(probs)))
    if not on_pattern.all():
        raise RuntimeError(f"{failure} (residual {residual:.3e})")
    return dict(enumerate(probs.tolist())), int(np.argmax(probs)), residual


def run_search(
    database: Database,
    clause: Clause,
    rounds: int | None = None,
    oracle_mode: str = PHASE_FLIP,
    *,
    dtype=np.complex128,
    max_qubits: int | None = None,
) -> SearchResult:
    """Plan and simulate a full dictionary search.

    The winner count for planning comes from a classical scan of the padded
    records.  Before the simulation, ``check_block`` proves that one round
    marks exactly those winners and leaves the data register clean on every
    index.  The index register ends up measured as a marginal distribution;
    every other qubit (the data register and, in ancilla-kickback mode, the
    ancilla) is checked to have returned to |0> so the diffuser acted on an
    unentangled index register every round.
    """
    if oracle_mode not in ORACLE_MODES:
        raise ValueError(f"unknown oracle mode {oracle_mode!r}")
    if clause.num_bits != database.n:
        raise ValueError(
            f"clause width {clause.num_bits} != record width {database.n}"
        )
    padded, winners, plan, executed = plan_search(
        database, clause.matches, rounds, f"no record satisfies clause {clause.to_pattern()!r}")
    m, n = padded.m, padded.n
    kickback = oracle_mode == ANCILLA_KICKBACK
    num_qubits = m + n + (1 if kickback else 0)
    check_state(num_qubits, dtype=dtype, max_qubits=max_qubits)  # before synthesis

    dictionary = build_dictionary(padded)
    index_reg = dictionary.index
    data_reg = dictionary.data

    full = Circuit(num_qubits, registers={"index": index_reg, "data": data_reg})
    ancilla = None
    prepare = ()
    if kickback:
        ancilla = m + n
        full.add_register(Register("ancilla", (ancilla,)))
        prepare = (X(ancilla), H(ancilla))  # the kickback ancilla in |->

    # A clause that constrains no bits matches every record, plans 0 rounds
    # and has no oracle, so the oracle is built only for rounds that run.
    mark = phase_oracle(clause, data_reg, oracle_mode, ancilla).gates if executed else []
    iteration = amplify(full, index_reg, dictionary.circuit, mark, executed, prepare)
    failure = "data register failed to disentangle"
    check_block(iteration, index_reg, 0, winners, failure, 1 << ancilla if kickback else 0)
    distribution, top_index, _ = read_index(full, 0, dtype, max_qubits, failure)
    return SearchResult(
        distribution=distribution,
        top_index=top_index,
        top_record=padded.records[top_index],
        plan=plan,
        gate_counts=gate_count(full),
        iteration_gate_counts=gate_count(iteration),
        winner_indices=tuple(winners),
        winner_probability=float(sum(distribution[i] for i in winners)),
        executed_rounds=executed,
        circuit=full,
    )
