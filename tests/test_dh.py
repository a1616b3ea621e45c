import random
import time
import tracemalloc

import numpy as np
import pytest

import gdict.dh as dh
from gdict.cli import main
from gdict.dh import (
    CIRCUIT_ORACLE,
    PRECOMPUTED_ORACLE,
    CandidateSet,
    DHParams,
    build_attack_circuit,
    discrete_log,
    encode_candidates,
    generate_candidates,
    public_value,
    run_attack,
    shared_secret,
)
from gdict.errors import NoWinnerError, UnsupportedModulusError
from gdict.grover import success_probability
from gdict.sim import MCX, X


@pytest.fixture(scope="module")
def params() -> DHParams:
    return DHParams(7, 3)


class TestParams:
    def test_valid(self, params):
        assert params.exponent_bits == 3
        DHParams(31, 3)

    def test_not_prime(self):
        with pytest.raises(ValueError):
            DHParams(15, 2)
        # 2**11 - 1 = 23 * 89 passes the base-2 Miller-Rabin round.
        with pytest.raises(ValueError, match="not prime"):
            DHParams(2047, 2)

    def test_not_mersenne(self):
        with pytest.raises(UnsupportedModulusError):
            DHParams(11, 2)

    @pytest.mark.parametrize("bits", [107, 521])
    def test_oversized_modulus_fails_fast(self, bits, capsys):
        # Mersenne primes past 61 bits could never be searched; refusing
        # them must not wait for p-1 to be factored.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="61-bit limit"):
            DHParams(2**bits - 1, 3)
        assert main(["dh-attack", "--p", str(2**bits - 1), "--g", "3", "--secret", "5"]) == 1
        assert "61-bit limit" in capsys.readouterr().err
        assert time.perf_counter() - start < 0.5

    def test_not_primitive_root(self):
        with pytest.raises(ValueError):
            DHParams(7, 2)  # order of 2 mod 7 is 3
        with pytest.raises(ValueError):
            DHParams(7, 4)


class TestProtocol:
    def test_public_values(self, params):
        assert public_value(params, 4) == 4  # 81 mod 7
        assert public_value(params, 0) == 1
        assert public_value(params, 5) == 5  # 243 mod 7

    def test_secret_range(self, params):
        with pytest.raises(ValueError):
            public_value(params, 7)

    def test_shared_secret_worked_example(self, params):
        a, b = 4, 5
        A, B = public_value(params, a), public_value(params, b)
        assert (A, B) == (4, 5)
        assert shared_secret(params, a, B) == 2
        assert shared_secret(params, b, A) == 2

    def test_zero_secret(self, params):
        assert shared_secret(params, 0, 5) == 1

    def test_symmetry_exhaustive(self, params):
        for a in range(7):
            for b in range(7):
                A, B = public_value(params, a), public_value(params, b)
                assert shared_secret(params, a, B) == shared_secret(params, b, A)


class TestDiscreteLog:
    def test_inverts_public_value(self, params):
        for secret in range(6):  # exponents 0..5 are unique mod ord(g)=6
            assert discrete_log(params, public_value(params, secret)) == secret

    @pytest.mark.parametrize("p, g", [(7, 3), (31, 3), (127, 3), (8191, 17)])
    def test_every_target_matches_brute_force(self, p, g):
        params = DHParams(p, g)
        table = {pow(g, x, p): x for x in range(p - 1)}
        assert len(table) == p - 1
        assert {t: discrete_log(params, t) for t in range(1, p)} == table

    @pytest.mark.parametrize("p, g", [(2**31 - 1, 7), (2**61 - 1, 37)])
    def test_mersenne_primes_in_milliseconds(self, p, g):
        # Brute force would take minutes at 2**31 - 1; Pohlig-Hellman needs
        # about sqrt(331) and sqrt(1321) steps for the largest prime powers.
        start = time.perf_counter()
        params = DHParams(p, g)
        for secret in (0, 1, 123456789, p - 2):
            assert discrete_log(params, public_value(params, secret)) == secret
        assert time.perf_counter() - start < 1.0

    def test_rejects_non_group_element(self, params):
        with pytest.raises(ValueError):
            discrete_log(params, 0)
        with pytest.raises(ValueError):
            discrete_log(params, 7)


def list_candidates(p: int, secret: int, count: int, seed: int) -> tuple[int, ...]:
    # The draw generate_candidates made from a list of every other exponent,
    # kept as the reference for the draws it makes without that list.
    rng = random.Random(seed)
    pool = [x for x in range(p - 1) if x != secret]
    chosen = rng.sample(pool, count - 1) + [secret]
    rng.shuffle(chosen)
    return tuple(chosen)


class TestCandidates:
    def test_contains_true_dlog(self, params):
        cands = generate_candidates(params, 4, 4, seed=1)
        assert 4 in cands.candidates  # dlog of 4 is 4 (3**4 = 81 = 4 mod 7)
        assert len(set(cands.candidates)) == 4
        assert cands.database.n == 3

    def test_count_one_is_exactly_the_secret(self, params):
        cands = generate_candidates(params, 4, 1, seed=0)
        assert cands.candidates == (4,)

    def test_deterministic(self, params):
        a = generate_candidates(params, 5, 4, seed=9)
        b = generate_candidates(params, 5, 4, seed=9)
        assert a.candidates == b.candidates

    def test_count_bounds(self, params):
        with pytest.raises(ValueError):
            generate_candidates(params, 4, 0, seed=0)
        with pytest.raises(ValueError):
            generate_candidates(params, 4, 7, seed=0)  # only 6 distinct exponents
        generate_candidates(params, 4, 6, seed=0)

    def test_exponents_stay_below_group_order(self, params):
        for seed in range(5):
            cands = generate_candidates(params, 3, 6, seed=seed)
            assert all(0 <= c <= 5 for c in cands.candidates)

    def test_same_draws_as_list_reference(self):
        for p, g in ((7, 3), (31, 3), (127, 3), (8191, 17)):
            params = DHParams(p, g)
            counts = {1, 2, min(6, p - 1), min(40, p - 1)} | ({p - 1} if p < 1000 else set())
            for secret in sorted({0, 1, p // 3, p - 3, p - 2}):
                target = public_value(params, secret)
                for count in sorted(counts):
                    for seed in (0, 1, 12345):
                        got = generate_candidates(params, target, count, seed).candidates
                        assert got == list_candidates(p, secret, count, seed), (p, secret, count, seed)

    def test_memory_independent_of_modulus(self):
        params = DHParams(131071, 3)
        target = public_value(params, 5)
        tracemalloc.start()
        try:
            generate_candidates(params, target, 32, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A list of all p - 1 exponents would take about 5 MB here.
        assert peak < 100_000


class TestAttack:
    def test_circuit_mode_recovers_secret(self, params):
        target = public_value(params, 4)
        cands = generate_candidates(params, target, 4, seed=1)
        result = run_attack(params, target, cands, CIRCUIT_ORACLE)
        assert result.recovered_secret == 4
        assert result.success_probability == pytest.approx(1.0, abs=1e-9)
        assert result.qubit_count == 22
        assert result.gate_counts == {"H": 6, "X": 13, "SWAP": 18, "MCX": 4384, "MCZ": 2}
        assert 0.0 <= result.workspace_residual < 1e-9
        assert pow(params.g, result.recovered_secret, params.p) == target
        fast = run_attack(params, target, cands, PRECOMPUTED_ORACLE)
        assert fast.qubit_count == 5
        assert fast.gate_counts == {"H": 6, "MCX": 4, "MCZ": 2}

    def test_modes_agree(self, params):
        target = public_value(params, 2)
        cands = generate_candidates(params, target, 4, seed=5)
        full = run_attack(params, target, cands, CIRCUIT_ORACLE)
        fast = run_attack(params, target, cands, PRECOMPUTED_ORACLE)
        assert full.recovered_secret == fast.recovered_secret
        assert 0.0 <= full.workspace_residual < 1e-9
        assert 0.0 <= fast.workspace_residual < 1e-9
        for i in full.distribution:
            assert abs(full.distribution[i] - fast.distribution[i]) < 1e-9

    def test_eight_candidates_on_larger_modulus(self):
        big = DHParams(31, 3)
        target = public_value(big, 11)
        cands = generate_candidates(big, target, 8, seed=2)
        result = run_attack(big, target, cands, PRECOMPUTED_ORACLE)
        assert result.rounds_executed == 2
        assert result.success_probability == pytest.approx(0.9453125, abs=1e-6)
        assert result.recovered_secret == 11

    def test_no_winner_raises_before_simulation(self, params):
        cands = encode_candidates(params, [0, 1, 2, 3])  # dlog of 4 is 4: absent
        with pytest.raises(NoWinnerError):
            build_attack_circuit(params, 4, cands, PRECOMPUTED_ORACLE)
        with pytest.raises(NoWinnerError):
            run_attack(params, 4, cands, PRECOMPUTED_ORACLE)

    def test_invalid_mode(self, params):
        cands = generate_candidates(params, 4, 2, seed=0)
        with pytest.raises(ValueError):
            build_attack_circuit(params, 4, cands, "quantum_annealer")

    def test_padded_candidates(self, params):
        # 6 candidates pad to 8 by duplicating the first; padding may add a
        # second winner, and the planner must account for it.
        target = public_value(params, 1)
        cands = generate_candidates(params, target, 6, seed=3)
        result = run_attack(params, target, cands, PRECOMPUTED_ORACLE)
        M = len(result.winner_indices)
        want = success_probability(8, M, result.rounds_executed)
        assert result.success_probability == pytest.approx(want, abs=1e-9)
        assert pow(params.g, result.recovered_secret, params.p) == target

    def test_zero_rounds_uniform(self, params):
        target = public_value(params, 4)
        cands = generate_candidates(params, target, 4, seed=1)
        result = run_attack(params, target, cands, PRECOMPUTED_ORACLE, rounds=0)
        assert all(p == pytest.approx(0.25, abs=1e-12) for p in result.distribution.values())
        assert result.recovered_secret == cands.candidates[0]  # an exact tie reads index 0

    def test_broken_uncomputation_raises(self, params, monkeypatch, capsys):
        # A workspace qubit left flipped must fail the attack, not report a key.
        build = dh.build_attack_circuit

        def leave_x_flipped(*args, **kwargs):
            circuit = build(*args, **kwargs)
            return circuit.add(X(circuit.registers["x"].qubits[0]))

        monkeypatch.setattr(dh, "build_attack_circuit", leave_x_flipped)
        target = public_value(params, 4)
        cands = generate_candidates(params, target, 4, seed=1)
        with pytest.raises(RuntimeError, match="uncompute"):
            run_attack(params, target, cands, CIRCUIT_ORACLE)
        assert main(["dh-attack", "--p", "7", "--g", "3", "--secret", "4",
                     "--count", "4", "--seed", "1", "--mode", "circuit"]) == 2
        assert "failed to uncompute" in capsys.readouterr().err

    def test_mark_dirtying_one_loser_raises(self, params, monkeypatch, capsys):
        # A precomputed mark that also flips an exponent qubit when the index
        # holds one losing candidate leaves x dirty on that one branch only.
        target = public_value(params, 4)
        cands = generate_candidates(params, target, 4, seed=1)
        loser = next(i for i, c in enumerate(cands.candidates) if c != 4)
        amplify = dh.amplify

        def dirty_on_loser(circuit, index, dictionary, mark, *args):
            stray = MCX(index.controls(loser), circuit.registers["x"].qubits[0])
            return amplify(circuit, index, dictionary, mark + [stray], *args)

        monkeypatch.setattr(dh, "amplify", dirty_on_loser)
        with pytest.raises(RuntimeError, match="uncompute"):
            run_attack(params, target, cands, PRECOMPUTED_ORACLE)
        assert main(["dh-attack", "--p", "7", "--g", "3", "--secret", "4",
                     "--count", "4", "--seed", "1", "--mode", "precomputed"]) == 2
        assert "failed to uncompute" in capsys.readouterr().err

    def test_single_precision_circuit_mode(self, params):
        target = public_value(params, 5)
        cands = generate_candidates(params, target, 4, seed=4)
        result = run_attack(params, target, cands, CIRCUIT_ORACLE, dtype=np.complex64)
        assert result.recovered_secret == 5
        assert result.success_probability == pytest.approx(1.0, abs=1e-4)


def test_candidate_encoding_width():
    big = DHParams(31, 3)
    cands = encode_candidates(big, [0, 30, 17])
    assert cands.database.n == 5
    assert cands.database.records == ("00000", "11110", "10001")
