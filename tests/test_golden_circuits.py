"""Golden circuits: one sha256 per constructor family over the concatenated
``circuit_to_text`` of a fixed set of its circuits.

Refactors of the constructors must keep every circuit byte-identical, and
these hashes say so at a glance.  A change that alters circuits on purpose
updates the named family's hash and says why in CHANGES.md.
"""

import hashlib
import random
from math import gcd

import pytest
from conftest import REFERENCE_RECORDS

from gdict.dh import (
    ATTACK_MODES, DHParams, build_attack_circuit, generate_candidates, public_value,
)
from gdict.dictionary import Database, build_dictionary
from gdict.grover import ORACLE_MODES, Clause, run_search
from gdict.modarith import adder, controlled_modular_multiplier, modexp_circuit, modular_adder
from gdict.sim import circuit_to_text


def _seeded_database() -> Database:
    rng = random.Random("golden:64x10")
    return Database(tuple(format(rng.getrandbits(10), "010b") for _ in range(64)))


def _attack_circuits():
    params = DHParams(7, 3)
    for secret in range(6):
        target = public_value(params, secret)
        candidates = generate_candidates(params, target, 4, seed=secret)
        for mode in ATTACK_MODES:
            for rounds in (None, 0, 1):
                yield build_attack_circuit(params, target, candidates, mode, rounds)


FAMILIES = {
    "adder": lambda: (adder(n) for n in range(1, 5)),
    "modular_adder": lambda: (modular_adder(N.bit_length(), N) for N in (3, 7, 15)),
    "controlled_modular_multiplier": lambda: (
        controlled_modular_multiplier(a, N) for N in (3, 7) for a in range(N)),
    "modexp_circuit": lambda: (
        modexp_circuit(g, 7, bits, base=base)
        for g in range(1, 7) if gcd(g, 7) == 1 for bits in (1, 2, 3) for base in (0, 5)),
    # N = 31, past the moduli the families above reach.
    "controlled_modular_multiplier_31": lambda: (controlled_modular_multiplier(3, 31),),
    "modexp_circuit_31": lambda: (modexp_circuit(3, 31, 5),),
    "build_dictionary": lambda: (
        build_dictionary(db).circuit for db in (Database(REFERENCE_RECORDS), _seeded_database())),
    "run_search": lambda: (
        run_search(Database(REFERENCE_RECORDS), Clause.from_pattern("1010110"),
                   oracle_mode=mode).circuit
        for mode in ORACLE_MODES),
    "build_attack_circuit": _attack_circuits,
}

HASHES = {
    "adder": "9673ed9d36214ecc5984e4a5954a2ddb774f46ed0fbc6dd03c1d880907ad0f6f",
    "modular_adder": "1851ccfe12a5a0ba1702c01675f2a554f76e779721b3a883aa75ee5f819c3acf",
    "controlled_modular_multiplier": "3f682d24ec418f16077a0142fb6467052d554da0458068088ca396ee9f213410",
    "modexp_circuit": "170385535f531a97ef1892d0ff27c092c9c17e656190baffe43482daca1452fa",
    "controlled_modular_multiplier_31": "3d81574274a00d9597f85fbd22a8b68fa9f3cda00435280e36bac965b4e3c1fb",
    "modexp_circuit_31": "bf5ca2c02d274779fa69c220ee433aae5986a5736d360ad0e49248866d53cd46",
    "build_dictionary": "8c8c9638620339ca37ec6ef2920077e0ac58a0cc3be935081d3eb2ee1edbb325",
    "run_search": "9933c195965c30dc51dd783678daa5d796b3b1a79902ce4418b95165718340d7",
    "build_attack_circuit": "ec6a0e76caf2ccf1d5cf92cbb1a1b055889d2e70d8b38df741b7ce52244c3ec4",
}


def family_hash(name: str) -> str:
    digest = hashlib.sha256()
    for circuit in FAMILIES[name]():
        digest.update(circuit_to_text(circuit).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_text_is_unchanged(name):
    assert family_hash(name) == HASHES[name]
