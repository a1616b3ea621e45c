"""Properties of the pipeline that database search and key recovery share.

Both plan from a classical scan of the padded database, so the winners must
be the padded records a brute-force scan finds, and the simulated winner
probability must follow the closed form for that winner count.  Both read
the index register from one gather after ``apply_circuit``, which must give
exactly the marginal of a per-gate ``apply_gate`` run of the same circuit,
in either precision; for the circuit-oracle attack, too large for a per-gate
run, exactly the marginal of the state ``apply_circuit`` leaves.  Both prove
one round's block before simulating it, so a round that marks other indices
than the winners, or leaves a qubit dirty, raises instead of reporting.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gdict.dh as dh
import gdict.grover as grover
from gdict.dh import (
    CIRCUIT_ORACLE,
    PRECOMPUTED_ORACLE,
    DHParams,
    build_attack_circuit,
    generate_candidates,
    public_value,
    run_attack,
)
from gdict.dictionary import Database, pad_database
from gdict.grover import ORACLE_MODES, Clause, optimal_rounds, run_search, success_probability
from gdict.sim import Circuit, Gate, apply_circuit, apply_gate, marginal_distribution, new_state

DTYPES = st.sampled_from((np.complex128, np.complex64))
# Rounding allowed, per precision, between a run and the closed form and
# between the two oracle modes; read_index itself allows no leak at all.
TOLERANCE = {np.complex128: 1e-9, np.complex64: 1e-4}


def per_gate_index_marginal(circuit, dtype) -> dict[int, float]:
    state = new_state(circuit.num_qubits, 0, dtype=dtype)
    for gate in circuit.gates:
        apply_gate(state, gate)
    return marginal_distribution(state, circuit.registers["index"])


def check_plan(padded: Database, wins, rounds, winner_indices, winner_probability, executed,
               dtype):
    want = tuple(i for i, record in enumerate(padded.records) if wins(record))
    assert winner_indices == want
    N, M = len(padded.records), len(want)
    assert executed == (optimal_rounds(N, M).rounds if rounds is None else rounds)
    assert abs(winner_probability - success_probability(N, M, executed)) <= TOLERANCE[dtype]


@st.composite
def searches(draw):
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=16))
    records = tuple(format(v, f"0{n}b") for v in values)
    source = draw(st.sampled_from(records))
    wild = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pattern = "".join("x" if w else c for c, w in zip(source, wild))
    rounds = draw(st.none() | st.integers(0, 3))
    return Database(records), pattern, rounds, draw(DTYPES)


@settings(max_examples=100, deadline=None)
@given(searches())
def test_search_pipeline(case):
    database, pattern, rounds, dtype = case
    clause = Clause.from_pattern(pattern)
    if clause.mask == 0 and rounds:
        with pytest.raises(ValueError, match="constrains no bits"):
            run_search(database, clause, rounds)
        return
    padded = pad_database(database)
    results = [run_search(database, clause, rounds, mode, dtype=dtype) for mode in ORACLE_MODES]
    for result in results:
        check_plan(padded, lambda record: all(c in ("x", r) for c, r in zip(pattern, record)),
                   rounds, result.winner_indices, result.winner_probability,
                   result.executed_rounds, dtype)
        assert per_gate_index_marginal(result.circuit, dtype) == result.distribution
    flip, kickback = (r.distribution for r in results)
    assert flip.keys() == kickback.keys()
    assert all(abs(flip[v] - kickback[v]) <= TOLERANCE[dtype] for v in flip)


@st.composite
def attacks(draw):
    p = draw(st.sampled_from((7, 31, 127)))
    secret = draw(st.integers(0, p - 2))
    count = draw(st.integers(1, min(p - 1, 16)))
    seed = draw(st.integers(0, 2**32 - 1))
    rounds = draw(st.none() | st.integers(0, 3))
    return DHParams(p, 3), secret, count, seed, rounds, draw(DTYPES)


@settings(max_examples=60, deadline=None)
@given(attacks())
def test_precomputed_attack_pipeline(case):
    params, secret, count, seed, rounds, dtype = case
    target = public_value(params, secret)
    candidates = generate_candidates(params, target, count, seed)
    result = run_attack(params, target, candidates, PRECOMPUTED_ORACLE, rounds, dtype=dtype)
    # Exponents stay below p - 1 and 3 generates the group, so the secret is
    # the only winning exponent.
    width = params.exponent_bits
    padded = pad_database(Database(tuple(format(c, f"0{width}b") for c in candidates)))
    check_plan(padded, lambda record: int(record, 2) == secret,
               rounds, result.winner_indices, result.success_probability,
               result.rounds_executed, dtype)
    circuit = build_attack_circuit(params, target, candidates, PRECOMPUTED_ORACLE, rounds)
    assert per_gate_index_marginal(circuit, dtype) == result.distribution


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 5), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.none() | st.integers(0, 2), DTYPES)
def test_circuit_attack_reads_the_full_marginal(secret, count, seed, rounds, dtype):
    # 21-23 qubits: the modexp workspaces must come back to their start on
    # every branch for one gather of the index to equal the whole marginal.
    params = DHParams(7, 3)
    target = public_value(params, secret)
    candidates = generate_candidates(params, target, count, seed)
    result = run_attack(params, target, candidates, CIRCUIT_ORACLE, rounds, dtype=dtype)
    circuit = build_attack_circuit(params, target, candidates, CIRCUIT_ORACLE, rounds)
    state = apply_circuit(new_state(circuit.num_qubits, 0, dtype=dtype), circuit)
    assert marginal_distribution(state, circuit.registers["index"]) == result.distribution


def invert_one_control(gates, data) -> list:
    # One gate with controls, drawn from ``gates``, fires with one of its
    # controls inverted; gates without controls are left as they are.
    controlled = [at for at, gate in enumerate(gates) if gate.controls]
    if not controlled:
        return list(gates)
    at = data.draw(st.sampled_from(controlled), label="gate")
    gate = gates[at]
    k = data.draw(st.integers(0, len(gate.controls) - 1), label="control")
    controls = list(gate.controls)
    controls[k] = (controls[k][0], not controls[k][1])
    return [*gates[:at], Gate(gate.kind, gate.targets, tuple(controls)), *gates[at + 1:]]


def search_run(data, mode):
    database, pattern, rounds, dtype = data.draw(searches())
    clause = Clause.from_pattern(pattern)
    if clause.mask == 0:
        rounds = 0  # a clause that constrains no bits has no oracle
    return lambda: run_search(database, clause, rounds, mode, dtype=dtype).distribution


def attack_run(data, mode):
    params, secret, count, seed, rounds, dtype = data.draw(attacks())
    if mode == CIRCUIT_ORACLE:  # 21-24 qubits
        params, secret, count = DHParams(7, 3), secret % 6, min(count, 6)
    target = public_value(params, secret)
    candidates = generate_candidates(params, target, count, seed)
    return lambda: run_attack(params, target, candidates, mode, rounds, dtype=dtype).distribution


@pytest.mark.parametrize("module, make_run, mode", [
    *[(grover, search_run, mode) for mode in ORACLE_MODES],
    *[(dh, attack_run, mode) for mode in (PRECOMPUTED_ORACLE, CIRCUIT_ORACLE)],
], ids=[*ORACLE_MODES, PRECOMPUTED_ORACLE, CIRCUIT_ORACLE])
@settings(max_examples=60, deadline=None)
@given(part=st.sampled_from(("mark", "dictionary")), data=st.data())
def test_one_inverted_control_raises_or_changes_nothing(module, make_run, mode, part, data):
    # A dictionary gate inverted in the map and the unmap alike leaves every
    # qubit clean but may mark other indices; one inverted in the mark may
    # mark others or leave a workspace dirty.  Either the run raises, or its
    # round marks exactly the winners and the distribution is unchanged.
    run = make_run(data, mode)
    want = run()
    amplify = module.amplify

    def inverted(circuit, index, dictionary, mark, *args):
        if part == "mark":
            mark = invert_one_control(mark, data)
        else:
            dictionary = Circuit(dictionary.num_qubits,
                                 invert_one_control(dictionary.gates, data),
                                 dictionary.registers)
        return amplify(circuit, index, dictionary, mark, *args)

    with mock.patch.object(module, "amplify", inverted):
        try:
            got = run()
        except RuntimeError:
            return
    assert got == want
