import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gdict.modarith as modarith
from conftest import REFERENCE_RECORDS, random_database
from gdict.cli import main
from gdict.sim import MAX_QUBITS_ENV, Z


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text("\n".join(REFERENCE_RECORDS) + "\n", encoding="utf-8")
    return path


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def run_bounded(args, timeout=120):
    """Run the CLI in a subprocess with the default qubit cap and 1 GiB of
    address space; returns the finished process and its wall time."""
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != MAX_QUBITS_ENV}
    env["OPENBLAS_NUM_THREADS"] = "1"  # one BLAS thread keeps the import small
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gdict.cli", *args],
        env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=cap_address_space,
    )
    return proc, time.perf_counter() - start


class TestSynthDict:
    def test_writes_circuit_and_sidecar(self, tmp_path, db_file, capsys):
        out = tmp_path / "dict.qc"
        assert main(["synth-dict", str(db_file), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("REG index q0,q1\nREG data q2,")
        sidecar = read_json(tmp_path / "dict.qc.json")
        assert sidecar["records"] == 4
        assert sidecar["padded_records"] == 4
        assert sidecar["m"] == 2
        assert sidecar["n"] == 7
        assert sidecar["cubes_per_column"] == [2, 2, 1, 1, 2, 2, 1]
        assert sidecar["mcx_count"] == 11
        assert "11 gates" in capsys.readouterr().out

    def test_padding_reported(self, tmp_path):
        db = tmp_path / "three.txt"
        db.write_text("00\n01\n10\n", encoding="utf-8")
        out = tmp_path / "d.qc"
        assert main(["synth-dict", str(db), "--out", str(out)]) == 0
        sidecar = read_json(tmp_path / "d.qc.json")
        assert sidecar["records"] == 3
        assert sidecar["padded_records"] == 4

    def test_empty_file_is_parse_error(self, tmp_path, capsys):
        db = tmp_path / "empty.txt"
        db.write_text("", encoding="utf-8")
        assert main(["synth-dict", str(db), "--out", str(tmp_path / "x.qc")]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_ragged_file_reports_line(self, tmp_path, capsys):
        db = tmp_path / "bad.txt"
        db.write_text("01\n011\n", encoding="utf-8")
        assert main(["synth-dict", str(db), "--out", str(tmp_path / "x.qc")]) == 1
        assert "line 2" in capsys.readouterr().err


class TestGroverSearch:
    def test_reference_search(self, tmp_path, db_file):
        out = tmp_path / "result.json"
        assert main(["grover-search", str(db_file), "1010110", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["top_index"] == 2
        assert report["top_record"] == "1010110"
        assert report["rounds"] == 1
        assert report["distribution"]["2"] == pytest.approx(1.0, abs=1e-9)

    def test_wrong_clause_length(self, db_file, capsys):
        assert main(["grover-search", str(db_file), "101"]) == 1
        assert "width" in capsys.readouterr().err

    def test_all_wild_clause_runs_zero_rounds(self, tmp_path, db_file):
        out = tmp_path / "result.json"
        assert main(["grover-search", str(db_file), "xxxxxxx", "--out", str(out)]) == 0
        report = read_json(out)
        assert report["rounds"] == 0
        assert report["plan"]["winner_count"] == 4
        assert all(p == pytest.approx(0.25) for p in report["distribution"].values())

    def test_no_winner(self, db_file, capsys):
        assert main(["grover-search", str(db_file), "1111111"]) == 1

    def test_csv_format(self, tmp_path, db_file):
        out = tmp_path / "dist.csv"
        assert main([
            "grover-search", str(db_file), "1010110", "--format", "csv", "--out", str(out)
        ]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "value,probability"
        assert lines[1].startswith("2,")


class TestVerifyArith:
    def test_adder(self, capsys):
        assert main(["verify-arith", "adder", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "adder n=3: 64/64 pass" in out
        assert "adder^-1 n=3: 64/64 pass" in out

    def test_modadd(self, capsys):
        assert main(["verify-arith", "modadd", "--modulus", "7"]) == 0
        assert "49/49 pass" in capsys.readouterr().out

    def test_modadd_unsupported_modulus(self, capsys):
        assert main(["verify-arith", "modadd", "--modulus", "6"]) == 1
        assert "2**k - 1" in capsys.readouterr().err

    def test_modexp(self, capsys):
        assert main(["verify-arith", "modexp", "--g", "3", "--modulus", "7"]) == 0
        assert "8/8 pass" in capsys.readouterr().out

    def test_modmul_subset(self, capsys):
        assert main(["verify-arith", "modmul", "--modulus", "7", "--a", "3"]) == 0
        assert "14/14 pass" in capsys.readouterr().out

    @pytest.mark.parametrize("family, flag, value", [
        ("adder", "--modulus", "31"),
        ("modadd", "--n", "5"),
        ("modexp", "--a", "3"),
        ("adder", "--g", "5"),
        ("modmul", "--g", "9"),
    ])
    def test_flag_the_family_does_not_read_is_refused(self, capsys, family, flag, value):
        assert main(["verify-arith", family, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: verify-arith {family} does not take {flag}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["3,x", "3,", ""])
    def test_bad_constants_name_their_flag(self, capsys, value):
        assert main(["verify-arith", "modmul", "--a", value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: argument --a: not comma-separated integers: {value!r}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["3,3", "1,2,1"])
    def test_repeated_constant_is_refused(self, capsys, value):
        # A repeated constant would be checked twice and counted twice.
        assert main(["verify-arith", "modmul", "--a", value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: argument --a: repeats a constant: {value!r}\n"
        assert captured.out == ""

    def test_non_classical_output_is_a_verification_failure(self, monkeypatch, capsys):
        # A Z on m's low qubit, which holds N's low bit 1, gives every case a
        # sign of -1; a broken constructor must exit 2, not raise a traceback.
        build = modarith.modular_adder

        def broken(n, N):
            circuit = build(n, N)
            return circuit.extend([Z(circuit.registers["m"].qubits[0])])

        monkeypatch.setattr(modarith, "modular_adder", broken)
        assert main(["verify-arith", "modadd", "--modulus", "3"]) == 2
        assert capsys.readouterr().err.startswith("verification failure: basis input")


class TestDHAttack:
    def test_precomputed_mode(self, tmp_path):
        out = tmp_path / "attack.json"
        assert main([
            "dh-attack", "--p", "7", "--g", "3", "--secret", "4",
            "--count", "4", "--mode", "precomputed", "--out", str(out),
        ]) == 0
        report = read_json(out)
        assert report["params"] == {"p": 7, "g": 3}
        assert report["target"] == 4
        assert report["recovered"] == 4
        assert report["probability"] == pytest.approx(1.0, abs=1e-9)
        assert list(report) == [
            "params", "target", "candidates", "mode", "rounds",
            "distribution", "recovered", "probability", "qubits", "gates",
        ]

    def test_precomputed_mode_csv(self, tmp_path, capsys):
        args = ["dh-attack", "--p", "7", "--g", "3", "--secret", "4",
                "--count", "4", "--mode", "precomputed"]
        assert main(args + ["--out", str(tmp_path / "attack.json")]) == 0
        out = tmp_path / "attack.csv"
        assert main(args + ["--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "value,probability"
        rows = dict(line.split(",") for line in lines[1:])
        report = read_json(tmp_path / "attack.json")
        assert {v: float(p) for v, p in rows.items()} == report["distribution"]
        assert "recovered exponent 4" in capsys.readouterr().out

    def test_mersenne_31_stops_at_cap_in_bounded_memory(self):
        # p = 2**31 - 1 with 32 candidates needs 36 qubits.  Drawing the
        # candidates must not list all p - 1 exponents (about 77 GB) first.
        proc, _ = run_bounded(["dh-attack", "--mode", "precomputed", "--p", "2147483647",
                               "--g", "7", "--secret", "123456", "--count", "32"])
        assert proc.returncode == 1
        assert "exceeds cap" in proc.stderr

    @pytest.mark.parametrize("p, g, secret", [
        (2**31 - 1, 7, 2147483000),
        (2**61 - 1, 37, 2305843009213693000),
    ], ids=["2^31-1", "2^61-1"])
    def test_mersenne_prime_fails_fast_at_cap(self, monkeypatch, capsys, p, g, secret):
        # 32 candidates of 31 or 61 bits need 36 or 66 qubits.  Checking
        # the prime, solving the discrete log and drawing the candidates
        # must not stand between the run and the cap's refusal.
        monkeypatch.delenv(MAX_QUBITS_ENV, raising=False)
        start = time.perf_counter()
        assert main(["dh-attack", "--p", str(p), "--g", str(g), "--secret", str(secret),
                     "--count", "32", "--mode", "precomputed"]) == 1
        assert time.perf_counter() - start < 5.0
        assert "exceeds cap of 26" in capsys.readouterr().err

    def test_rejects_nonprime(self, capsys):
        assert main(["dh-attack", "--p", "15", "--g", "2", "--secret", "1"]) == 1
        assert "not prime" in capsys.readouterr().err

    def test_needs_secret_or_target(self, capsys):
        assert main(["dh-attack", "--p", "7", "--g", "3"]) == 1
        assert main(["dh-attack", "--p", "7", "--g", "3", "--secret", "1",
                     "--target", "3"]) == 1

    def test_target_form(self, tmp_path):
        out = tmp_path / "attack.json"
        assert main([
            "dh-attack", "--p", "7", "--g", "3", "--target", "5",
            "--count", "4", "--mode", "precomputed", "--out", str(out),
        ]) == 0
        report = read_json(out)
        assert pow(3, report["recovered"], 7) == 5

    def test_larger_precomputed_attack(self, tmp_path):
        out = tmp_path / "attack.json"
        assert main([
            "dh-attack", "--p", "31", "--g", "3", "--secret", "11",
            "--count", "8", "--mode", "precomputed", "--out", str(out),
        ]) == 0
        report = read_json(out)
        assert report["probability"] == pytest.approx(0.9453125, abs=1e-6)


class TestFailFast:
    # Inputs whose state could never be simulated must be refused before
    # synthesis, circuit construction or case enumeration, whose cost grows
    # with the input: each of these ran for 10-60 s or ran out of memory.
    @pytest.fixture(scope="class")
    def big_database(self, tmp_path_factory):
        # 65,536 records of 20 bits: 36 qubits, or 37 with the kickback ancilla.
        rng = np.random.default_rng(36)
        values = rng.integers(0, 1 << 20, size=1 << 16)
        path = tmp_path_factory.mktemp("big") / "db.txt"
        path.write_text("".join(f"{v:020b}\n" for v in values), encoding="utf-8")
        return path, f"{values[0]:020b}"

    @pytest.mark.parametrize("args, message", [
        (["--mode", "phase_flip"], "36 qubits exceeds cap of 26"),
        (["--mode", "ancilla_kickback"], "37 qubits exceeds cap of 26"),
    ], ids=["phase_flip", "ancilla_kickback"])
    def test_search_refused_before_synthesis(self, big_database, args, message):
        path, clause = big_database
        proc, seconds = run_bounded(["grover-search", str(path), clause, *args], timeout=60)
        assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
        assert seconds < 5.0

    @pytest.mark.parametrize("args, message", [
        (["dh-attack", "--mode", "precomputed", "--p", "2147483647", "--g", "7",
          "--secret", "5", "--count", "65536"], "47 qubits exceeds cap of 26"),
        (["dh-attack", "--mode", "precomputed", "--p", "2147483647", "--g", "7",
          "--secret", "5", "--count", "100000000"], "count must be in [1, 65536]"),
        (["dh-attack", "--mode", "circuit", "--p", "8191", "--g", "17", "--secret", "5"],
         "registers need 82 qubits, past the 62 an int64 basis index addresses"),
        (["verify-arith", "adder", "--n", "12"], "37 qubits exceeds cap of 26"),
        (["verify-arith", "modadd", "--modulus", "8191"], "54 qubits exceeds cap of 26"),
        (["verify-arith", "modadd", "--modulus", "2147483647"],
         "registers need 126 qubits, past the 62 an int64 basis index addresses"),
        (["verify-arith", "modexp", "--g", "3", "--modulus", "2147483647"],
         "registers need 188 qubits, past the 62 an int64 basis index addresses"),
    ], ids=["attack-47-qubits", "attack-count", "attack-circuit-8191", "adder-12",
            "modadd-8191", "modadd-2^31-1", "modexp-2^31-1"])
    def test_refused_before_building(self, args, message):
        proc, seconds = run_bounded(args, timeout=60)
        assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
        assert seconds < 5.0


class TestSimulate:
    def test_dictionary_circuit_maps_index_two(self, tmp_path, db_file):
        circuit = tmp_path / "dict.qc"
        main(["synth-dict", str(db_file), "--out", str(circuit)])
        out = tmp_path / "dist.json"
        assert main([
            "simulate", str(circuit), "--init", "2", "--register", "data",
            "--out", str(out),
        ]) == 0
        report = read_json(out)
        assert report["distribution"] == {"86": 1.0}

    def test_empty_circuit(self, tmp_path):
        path = tmp_path / "noop.qc"
        path.write_text("REG q q0\n", encoding="utf-8")
        out = tmp_path / "dist.json"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        assert read_json(out)["distribution"] == {"0": 1.0}

    def test_hadamard_circuit_uniform(self, tmp_path):
        path = tmp_path / "h2.qc"
        path.write_text("H q0\nH q1\n", encoding="utf-8")
        out = tmp_path / "dist.json"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        dist = read_json(out)["distribution"]
        assert all(p == pytest.approx(0.25) for p in dist.values())
        assert len(dist) == 4

    def test_unknown_register(self, tmp_path, capsys):
        path = tmp_path / "h.qc"
        path.write_text("H q0\n", encoding="utf-8")
        assert main(["simulate", str(path), "--register", "bogus"]) == 1

    def test_parse_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.qc"
        path.write_text("H q0\nWAT q1\n", encoding="utf-8")
        assert main(["simulate", str(path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_overlapping_registers_report_second_line(self, tmp_path, capsys):
        path = tmp_path / "regs.qc"
        path.write_text("REG a q0,q1\nH q0\nREG b q1,q2\n", encoding="utf-8")
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err == "parse error: line 3: register 'b' overlaps 'a'\n"

    def test_state_beyond_free_memory_exits_one(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "h.qc"
        path.write_text("H q0\nH q9\n", encoding="utf-8")
        # Ten qubits ask for twice 2**10 amplitudes: 32 KiB in double
        # precision, 16 KiB in single.
        monkeypatch.setattr("gdict.sim._free_memory_bytes", lambda: (1 << 15) - 1)
        monkeypatch.setattr("gdict.sim._available_memory_bytes", lambda: (1 << 15) - 1)
        assert main(["simulate", str(path)]) == 1
        assert "bytes of memory are free" in capsys.readouterr().err
        assert main(["simulate", str(path), "--precision", "single"]) == 0


    def test_whole_state_is_read_from_its_support(self, tmp_path, capsys):
        # Without --register the report lists the nonzero probabilities of
        # all 22 qubits.  A 2**22-entry marginal of them peaked at 509 MB
        # under tracemalloc; the support of a basis state holds one entry.
        path = tmp_path / "two.qc"
        path.write_text("X q0\nX q21\n", encoding="utf-8")
        tracemalloc.start()
        try:
            assert main(["simulate", str(path), "--format", "text"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert capsys.readouterr().out == "2097153: 1.000000000\n"
        out = tmp_path / "dist.json"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        assert read_json(out) == {"register": "all", "distribution": {"2097153": 1.0}}

    def test_bad_qubit_cap_variable_is_named(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "h.qc"
        path.write_text("H q0\n", encoding="utf-8")
        monkeypatch.setenv(MAX_QUBITS_ENV, "abc")
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err == "error: GDICT_MAX_QUBITS='abc' is not an integer\n"


class TestGatecount:
    def test_counts(self, tmp_path, db_file, capsys):
        circuit = tmp_path / "dict.qc"
        main(["synth-dict", str(db_file), "--out", str(circuit)])
        capsys.readouterr()
        assert main(["gatecount", str(circuit)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gates"] == {"MCX": 11}

    def test_decompose(self, tmp_path, capsys):
        path = tmp_path / "c.qc"
        path.write_text("MCX [+q0,+q1,+q2,+q3] q4\n", encoding="utf-8")
        assert main(["gatecount", str(path), "--decompose"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gates"]["toffoli_equiv"] == 5


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path, db_file):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            main(["synth-dict", str(db_file), "--out", str(d / "dict.qc")])
            main(["grover-search", str(db_file), "1010110",
                  "--out", str(d / "search.json")])
            main(["dh-attack", "--p", "7", "--g", "3", "--secret", "4",
                  "--count", "4", "--mode", "precomputed", "--seed", "0",
                  "--out", str(d / "attack.json")])
        for name in ("dict.qc", "dict.qc.json", "search.json", "attack.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_synth_dict_independent_of_hash_seed(self, tmp_path):
        # Synthesis keeps dicts and sets of its own; string hashing differs
        # between interpreters, so two hash seeds must give the same bytes.
        rng = np.random.default_rng(9)
        db = tmp_path / "db.txt"
        db.write_text("\n".join(random_database(rng, 8, 8).records) + "\n", encoding="utf-8")
        root = Path(__file__).resolve().parent.parent
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            proc = subprocess.run(
                [sys.executable, "-m", "gdict.cli", "synth-dict", str(db),
                 "--out", str(tmp_path / f"dict{seed}.qc")],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        for suffix in (".qc", ".qc.json"):
            a = (tmp_path / f"dict0{suffix}").read_bytes()
            b = (tmp_path / f"dict1{suffix}").read_bytes()
            assert a == b, suffix

    def test_seed_only_on_dh_attack(self, tmp_path, db_file):
        # grover-search and simulate draw no random numbers, so they take no --seed.
        circuit = tmp_path / "c.qc"
        circuit.write_text("X q0\n", encoding="utf-8")
        assert main(["grover-search", str(db_file), "1010110", "--seed", "0"]) == 1
        assert main(["simulate", str(circuit), "--seed", "0"]) == 1
        assert main(["simulate", str(circuit)]) == 0

    def test_bad_flag_returns_one(self, capsys):
        assert main(["grover-search"]) == 1
        assert main(["no-such-command"]) == 1
