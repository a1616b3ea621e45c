"""Grover search over classical databases, with the circuits to back it up.

The package splits into:

* :mod:`gdict.sim` - state-vector simulator (support-sparse while the state
  is mostly zeros, dense kernels past that) and circuit text format
* :mod:`gdict.logic` - truth-table synthesis into an exclusive sum of product terms
* :mod:`gdict.dictionary` - database-to-circuit synthesis (|i>|0> -> |i>|R_i>)
* :mod:`gdict.grover` - oracles, diffuser, round planning, integrated search
* :mod:`gdict.modarith` - reversible adder / modular adder / multiplier / modexp
* :mod:`gdict.dh` - toy Diffie-Hellman key-recovery pipeline
* :mod:`gdict.cli` - the ``gdict`` command-line tool
"""

from .errors import CapacityError, NoWinnerError, ParseError, UnsupportedModulusError
from .sim import (
    CCX,
    CNOT,
    Circuit,
    Gate,
    H,
    MCX,
    MCZ,
    Register,
    StateVector,
    SWAP,
    X,
    Z,
    apply_circuit,
    apply_gate,
    circuit_from_text,
    circuit_to_text,
    gate_count,
    inverse,
    load_circuit,
    marginal_distribution,
    new_state,
    sample,
    save_circuit,
)
from .logic import Cover, Cube, TruthTable, cover_to_gates, minimize, verify_cover
from .dictionary import (
    Database,
    DictionaryCircuit,
    build_dictionary,
    column_truth_table,
    load_database,
    pad_database,
    parse_database,
)
from .grover import (
    Clause,
    GroverPlan,
    SearchResult,
    diffuser,
    optimal_rounds,
    phase_oracle,
    run_search,
    success_probability,
)
from .modarith import (
    adder,
    carry_block,
    controlled_modular_multiplier,
    mod_inverse,
    modexp_circuit,
    modular_adder,
    sum_block,
)
from .dh import (
    AttackResult,
    CandidateSet,
    DHParams,
    build_attack_circuit,
    discrete_log,
    generate_candidates,
    public_value,
    run_attack,
    shared_secret,
)

__version__ = "0.1.0"
