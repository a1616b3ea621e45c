"""Seeded workloads: input generators, the operation each one times, and the
output checks that run outside the timed region.

Every workload draws its inputs from ``random.Random`` seeded by the
benchmark seed and the operation index, so a seed fixes the whole input
sequence.  gdict only ever sees the generated databases, clauses, candidate
lists and secrets.  Shapes are fixed per workload and only the contents are
random, so every operation of a workload does the same amount of work and
the per-run medians stay comparable across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import numpy as np

import gdict.cli
import gdict.dh
import gdict.dictionary
import gdict.grover
import gdict.modarith
import gdict.sim


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


class Workload:
    """Interface every workload implements; ``run`` is the timed part."""

    def make(self, seed: int, i: int, tmpdir: str):
        """Input of operation ``i``, drawn from the seed alone."""
        raise NotImplementedError

    def run(self, inp):
        """One operation: calls into gdict and returns its outputs."""
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Failures found in the outputs; empty when they are correct."""
        raise NotImplementedError

    def gates(self, inp, out) -> int:
        """Gates in the circuits the operation ran or wrote."""
        raise NotImplementedError

    def applied_gates(self, inp, out) -> int:
        """Gates the operation's outputs say were simulated, counting a
        circuit once per state it ran on; the traced run compares this with
        what the simulator wrappers saw."""
        raise NotImplementedError

    def digest(self, inp, out) -> str:
        """Fingerprint of the outputs, for comparing traced and untraced runs."""
        raise NotImplementedError

    def cleanup(self, inp) -> None:
        """Remove files the input or the operation left behind."""


class Search(Workload):
    """Grover search over a random database, planned M=1 and M=3 clauses,
    each clause run in both oracle modes; the simulator does the work."""

    M_INDEX, N_BITS, WILDCARDS, MULTI = 6, 10, 4, 3

    def make(self, seed: int, i: int, tmpdir: str):
        rng = random.Random(f"search:{seed}:{i}")
        m, n = self.M_INDEX, self.N_BITS
        size = 1 << m
        mask = (1 << n) - 1
        for pos in rng.sample(range(n), self.WILDCARDS):
            mask &= ~(1 << pos)
        pattern = rng.getrandbits(n) & mask
        slots = rng.sample(range(size), self.MULTI + 1)
        single, multi = slots[0], slots[1:]
        values = [0] * size
        for k in range(size):
            if k in multi:
                values[k] = pattern | (rng.getrandbits(n) & ~mask)
                continue
            # Only the planted records may match the wildcard clause.
            values[k] = rng.getrandbits(n)
            while (values[k] & mask) == pattern:
                values[k] = rng.getrandbits(n)
        # The full-record clause's record appears exactly once.
        others = {values[k] for k in range(size) if k != single}
        while values[single] in others or (values[single] & mask) == pattern:
            values[single] = rng.getrandbits(n)
        database = gdict.dictionary.Database(tuple(_bits(v, n) for v in values))
        clauses = (
            (gdict.grover.Clause(n, values[single], (1 << n) - 1), (single,)),
            (gdict.grover.Clause(n, pattern, mask), tuple(sorted(multi))),
        )
        return database, clauses

    def run(self, inp):
        database, clauses = inp
        return [
            gdict.grover.run_search(database, clause, oracle_mode=mode)
            for clause, _ in clauses
            for mode in gdict.grover.ORACLE_MODES
        ]

    def check(self, inp, out) -> list[str]:
        database, clauses = inp
        failures = []
        N = len(database.records)
        for k, result in enumerate(out):
            clause, winners = clauses[k // 2]
            label = f"clause {clause.to_pattern()} mode {gdict.grover.ORACLE_MODES[k % 2]}"
            if result.winner_indices != winners:
                failures.append(f"{label}: winners {result.winner_indices} != {winners}")
                continue
            want = gdict.grover.success_probability(N, len(winners), result.executed_rounds)
            if abs(result.winner_probability - want) > 1e-9:
                failures.append(f"{label}: p={result.winner_probability!r}, closed form {want!r}")
            if not clause.matches(int(result.top_record, 2)):
                failures.append(f"{label}: top record {result.top_record} misses the clause")
        for k in (0, 2):
            a, b = out[k].distribution, out[k + 1].distribution
            if max(abs(a[v] - b[v]) for v in a) > 1e-9:
                failures.append(f"clause {k // 2}: oracle modes disagree beyond 1e-9")
        return failures

    def gates(self, inp, out) -> int:
        return sum(sum(r.gate_counts.values()) for r in out)

    applied_gates = gates  # each search simulates its circuit once

    def digest(self, inp, out) -> str:
        return _digest([
            (sorted(r.distribution.items()), r.top_index, r.winner_probability, r.gate_counts)
            for r in out
        ])


class Synth(Workload):
    """``gdict synth-dict`` in-process on a 2^9 x 8-bit database with four
    uniformly random columns and four structured ones; minimization does
    the work and nothing is simulated."""

    M_INDEX, N_BITS = 9, 8

    def make(self, seed: int, i: int, tmpdir: str):
        rng = random.Random(f"synth:{seed}:{i}")
        m, n = self.M_INDEX, self.N_BITS
        k = rng.randrange(1, 256, 2)
        records = []
        for idx in range(1 << m):
            uniform = rng.getrandbits(4)  # columns 0-3
            product = (idx * k) % 256 >> 6  # columns 4-5: top bits of i*k mod 2^8
            sparse = sum(1 << b for b in range(2) if rng.random() < 0.125)  # columns 6-7
            records.append(_bits(uniform << 4 | product << 2 | sparse, n))
        path = os.path.join(tmpdir, f"db-{seed}-{i}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(records) + "\n")
        return path, tuple(records)

    def run(self, inp):
        path, _ = inp
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = gdict.cli.main(["synth-dict", path, "--out", path + ".qc"])
        return code, stdout.getvalue()

    def check(self, inp, out) -> list[str]:
        path, records = inp
        code, _ = out
        if code != 0:
            return [f"synth-dict exited {code}"]
        circuit = gdict.sim.load_circuit(path + ".qc")
        with open(path + ".qc.json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        m, n = self.M_INDEX, self.N_BITS
        failures = []
        if (sidecar["m"], sidecar["n"], sidecar["records"]) != (m, n, len(records)):
            failures.append(f"sidecar {sidecar} does not describe the database")
        got = classical_outputs(circuit, m)
        if not np.array_equal(got & ((1 << m) - 1), np.arange(1 << m)):
            failures.append("circuit changed the index register")
        want = np.array([int(r, 2) for r in records])
        wrong = np.flatnonzero((got >> m) != want)
        if wrong.size:
            failures.append(f"{wrong.size} indices map to the wrong record, first {int(wrong[0])}")
        return failures

    def gates(self, inp, out) -> int:
        path, _ = inp
        with open(path + ".qc.json", encoding="utf-8") as fh:
            return json.load(fh)["mcx_count"]

    def applied_gates(self, inp, out) -> int:
        return 0  # synth-dict writes a circuit and simulates nothing

    def digest(self, inp, out) -> str:
        path, _ = inp
        blobs = [out]
        for suffix in (".qc", ".qc.json"):
            with open(path + suffix, "rb") as fh:
                blobs.append(fh.read())
        return _digest(blobs)

    def cleanup(self, inp) -> None:
        path, _ = inp
        for suffix in ("", ".qc", ".qc.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path + suffix)


def classical_outputs(circuit, m: int) -> np.ndarray:
    """Basis index each input |i> (i < 2^m, other qubits 0) ends in, for a
    circuit of X and MCX gates evaluated on integers."""
    state = np.arange(1 << m, dtype=np.int64)
    for gate in circuit.gates:
        if gate.kind == "X":
            state ^= 1 << gate.targets[0]
        elif gate.kind == "MCX":
            fire = np.ones(state.shape, dtype=bool)
            for q, positive in gate.controls:
                fire &= ((state >> q) & 1) == int(positive)
            state ^= fire.astype(np.int64) << gate.targets[0]
        else:
            raise ValueError(f"{gate.kind} is not a classical gate")
    return state


class Arith(Workload):
    """Exhaustive checks of the adder in both directions, the N=7 modular
    adder and one modexp exponent bit: hundreds of basis states, each
    simulated densely on 10 to 18 qubits."""

    N_ADDER, MODULUS, EXP_BITS = 3, 7, 1
    GENERATORS = (3, 5)  # primitive roots mod 7
    CASES = (64, 64, 49, 2)

    def make(self, seed: int, i: int, tmpdir: str):
        return random.Random(f"arith:{seed}:{i}").choice(self.GENERATORS)

    def run(self, g):
        ma = gdict.modarith
        return [
            ma.check_adder(self.N_ADDER),
            ma.check_adder(self.N_ADDER, inverse_direction=True),
            ma.check_modular_adder(self.MODULUS),
            ma.check_modexp(g, self.MODULUS, self.EXP_BITS),
        ]

    def check(self, g, out) -> list[str]:
        failures = []
        for report, cases in zip(out, self.CASES):
            if report.cases != cases:
                failures.append(f"{report.family}: {report.cases} cases, expected {cases}")
            failures += [f"{report.family}: {f}" for f in report.failures[:3]]
        return failures

    def _gate_counts(self, g) -> list[int]:
        ma = gdict.modarith
        circuits = (
            ma.adder(self.N_ADDER),
            ma.adder(self.N_ADDER),
            ma.modular_adder(self.N_ADDER, self.MODULUS),
            ma.modexp_circuit(g, self.MODULUS, self.EXP_BITS),
        )
        return [len(c.gates) for c in circuits]

    def gates(self, g, out) -> int:
        return sum(self._gate_counts(g))

    def applied_gates(self, g, out) -> int:
        # Each case simulates its family's circuit on one basis state.
        return sum(r.cases * n for r, n in zip(out, self._gate_counts(g)))

    def digest(self, inp, out) -> str:
        return _digest([(r.family, r.cases, r.failures) for r in out])


class Keyrec(Workload):
    """Toy Diffie-Hellman key recovery with the precomputed oracle: 32
    candidate exponents mod the Mersenne prime 8191, 18 qubits."""

    P, G, COUNT = 8191, 17, 32

    def make(self, seed: int, i: int, tmpdir: str):
        rng = random.Random(f"keyrec:{seed}:{i}")
        params = gdict.dh.DHParams(self.P, self.G)
        secret = rng.randrange(self.P - 1)
        target = gdict.dh.public_value(params, secret)
        candidates = gdict.dh.generate_candidates(params, target, self.COUNT, rng.getrandbits(32))
        return params, secret, target, candidates

    def run(self, inp):
        params, _, target, candidates = inp
        return gdict.dh.run_attack(params, target, candidates, gdict.dh.PRECOMPUTED_ORACLE)

    def check(self, inp, out) -> list[str]:
        params, secret, target, candidates = inp
        failures = []
        if out.recovered_secret != secret or pow(params.g, out.recovered_secret, params.p) != target:
            failures.append(f"recovered {out.recovered_secret}, secret {secret}")
        want = gdict.grover.success_probability(len(candidates), 1, out.rounds_executed)
        if abs(out.success_probability - want) > 1e-9:
            failures.append(f"p={out.success_probability!r}, closed form {want!r}")
        if out.workspace_residual >= 1e-9:
            failures.append(f"workspace residual {out.workspace_residual:.3e}")
        return failures

    def gates(self, inp, out) -> int:
        return sum(out.gate_counts.values())

    applied_gates = gates  # the attack simulates its circuit once

    def digest(self, inp, out) -> str:
        return _digest((out.recovered_secret, sorted(out.distribution.items()),
                        out.workspace_residual, out.gate_counts))


WORKLOADS = {"search": Search(), "synth": Synth(), "arith": Arith(), "keyrec": Keyrec()}
