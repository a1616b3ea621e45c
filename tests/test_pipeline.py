"""Properties of the pipeline that database search and key recovery share.

Both plan from a classical scan of the padded database, so the winners must
be the padded records a brute-force scan finds, and the simulated winner
probability must follow the closed form for that winner count.  Both read
the index register from one gather after ``apply_circuit``, which must give
exactly the marginal of a per-gate ``apply_gate`` run of the same circuit,
in either precision; for the circuit-oracle attack, too large for a per-gate
run, exactly the marginal of the state ``apply_circuit`` leaves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from gdict.sim import apply_circuit, apply_gate, marginal_distribution, new_state

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
    check_plan(pad_database(candidates.database), lambda record: int(record, 2) == secret,
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
