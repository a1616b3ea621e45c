"""Golden CLI outputs: one sha256 per command over its exit code, stdout,
stderr and the files it writes, with the temporary directory's path
replaced by a fixed token.

Refactors must keep every output byte-identical, and these hashes say so
at a glance.  A change that alters an output on purpose updates the named
command's hash and says why in CHANGES.md.
"""

import hashlib
import random

import pytest
from conftest import REFERENCE_RECORDS

from gdict.cli import main
from gdict.dictionary import Database, build_dictionary
from gdict.sim import MAX_QUBITS_ENV, save_circuit


def _seeded_records() -> list[str]:
    rng = random.Random("golden-cli:50x10")
    return [format(rng.getrandbits(10), "010b") for _ in range(50)]


SEEDED_CLAUSE = _seeded_records()[7][:6] + "xxxx"

# Arguments per command; {ref} and {seeded} are database files, {dict} the
# reference dictionary's circuit file and {out} a path in the output folder.
COMMANDS = {
    "synth-dict": ["synth-dict", "{ref}", "--out", "{out}"],
    "search-json": ["grover-search", "{ref}", "1010110"],
    "search-csv": ["grover-search", "{ref}", "1010110", "--format", "csv"],
    "search-text": ["grover-search", "{ref}", "1010110", "--format", "text", "--out", "{out}"],
    "search-single": ["grover-search", "{ref}", "1010110", "--precision", "single"],
    "search-kickback": ["grover-search", "{ref}", "1010110", "--mode", "ancilla_kickback"],
    "search-all-wild": ["grover-search", "{ref}", "xxxxxxx", "--rounds", "0"],
    "search-seeded-rounds": ["grover-search", "{seeded}", SEEDED_CLAUSE, "--rounds", "2"],
    "search-seeded-kickback-single": [
        "grover-search", "{seeded}", SEEDED_CLAUSE, "--mode", "ancilla_kickback",
        "--precision", "single", "--out", "{out}"],
    "search-seeded-single-300-rounds": [
        "grover-search", "{seeded}", "1xxxxxxxxx", "--precision", "single", "--rounds", "300"],
    "attack-circuit-7x4": ["dh-attack", "--p", "7", "--g", "3", "--secret", "4",
                           "--count", "4", "--mode", "circuit"],
    "attack-circuit-7x6": ["dh-attack", "--p", "7", "--g", "3", "--secret", "2",
                           "--count", "6", "--mode", "circuit", "--seed", "3"],
    "attack-circuit-7x4-single": ["dh-attack", "--p", "7", "--g", "3", "--secret", "5",
                                  "--count", "4", "--mode", "circuit", "--seed", "4",
                                  "--precision", "single"],
    "attack-circuit-31": ["dh-attack", "--p", "31", "--g", "3", "--secret", "11",
                          "--count", "4", "--mode", "circuit"],
    "attack-precomputed-31x8": ["dh-attack", "--p", "31", "--g", "3", "--secret", "11",
                                "--count", "8", "--mode", "precomputed", "--seed", "2",
                                "--out", "{out}"],
    "attack-precomputed-8191x32-csv": [
        "dh-attack", "--p", "8191", "--g", "17", "--secret", "4000", "--count", "32",
        "--mode", "precomputed", "--format", "csv"],
    "attack-precomputed-127x16-zero-rounds": [
        "dh-attack", "--p", "127", "--g", "3", "--secret", "100", "--count", "16",
        "--mode", "precomputed", "--rounds", "0"],
    "attack-not-mersenne": ["dh-attack", "--p", "11", "--g", "2", "--secret", "3"],
    "simulate": ["simulate", "{dict}", "--init", "2", "--register", "data"],
    "gatecount": ["gatecount", "{dict}", "--decompose"],
    "verify-adder": ["verify-arith", "adder", "--n", "3"],
    "verify-modadd": ["verify-arith", "modadd", "--modulus", "7"],
    "verify-modmul": ["verify-arith", "modmul", "--modulus", "7"],
    "verify-modexp": ["verify-arith", "modexp", "--g", "3", "--modulus", "7"],
}

HASHES = {
    "synth-dict": "1ddba223ae6d92631fea2801d3cbba9d2cc6323491307a3ca23867067bc702c2",
    "search-json": "3130eba3d1cd0a20052fd784f84cae2806cc5b67582109c2e74762b154a4da85",
    "search-csv": "0f29d9a3081e46c24183b000760ba5360a5f345cb31113d9a10956d37270f7e1",
    "search-text": "4e711cc5a8caf6c7e9a8919e5337f6215a5da33d8bc297aa45b58308002daf4f",
    "search-single": "ea21068b10579fe117098704f27054ca6cd1941f196e3641b6aa5d0066a01297",
    "search-kickback": "ddeac416322fcd2dc92b372b017951430a809c73e277e57d012f741c9b2f695b",
    "search-all-wild": "b9721e243fc8870e1ac030938ee18ed8d0440d9ebe99a1ba997ac03a0f283cac",
    "search-seeded-rounds": "29a0bfd21e5221977ed943b476299491e6edc2975b4e0ef773b2e9238182da69",
    "search-seeded-kickback-single": "654c531df9a368eadd0f595ed9fe1dca463bb7d7541f6141080a32266f4dfb4c",
    "search-seeded-single-300-rounds": "c00b9062018b2b31403b626780c3f37d832151700b7865d5257d6ec94aa43efa",
    "attack-circuit-7x4": "21ece833fbd5bcf1076f8cc2e1971a7d4d357e15658e595e996df56d40c898c0",
    "attack-circuit-7x6": "4c92c30c11d3fd23112dab245c5b092be476af2034b79fa20384794b5b5797cf",
    "attack-circuit-7x4-single": "d6e7c40cc90e88ccfe80ee01d318526ec2da7ddb82881f6871985cd2c80f174f",
    "attack-circuit-31": "0f0ea4b268dad719385b778b02d2015f366ff1d1ff8cf966eff4a27cd7544500",
    "attack-precomputed-31x8": "5eca671fb920de932372368089c60fa9c6fcc9440c94ad4cdb0cf70b2a51a161",
    "attack-precomputed-8191x32-csv": "c0a0f66194f3ddb883f84cc74100423413e3e2a32d176bbb1be977314add2a81",
    "attack-precomputed-127x16-zero-rounds": "e45a8b0b6629d16a6642a86b420101e6357371a317bcbb3e1fe5fbd066f92d7d",
    "attack-not-mersenne": "f59560cdb4eca6b42999e48fcfa6a456b38fc19c86b49a94fb313ac5177e5047",
    "simulate": "080ccfa4cf6d2298b19eaeaceeee4272daac180e280bdcf587c8b8b5a530630d",
    "gatecount": "7b79cd1f84de35fafbdb72fb5d9dc22aa045cad91239ee90afec23fd3a63ce4f",
    "verify-adder": "19989c435338fced9891d802f8a2cf1bd44e4e341cb5e1ab6c4f0654a514a4c0",
    "verify-modadd": "1ae5c097171bdaf9dffb69417cee0c88944c9eb7071da320c1195bdde523cf55",
    "verify-modmul": "5f63e8b8e280fd4abf5fac51c91a9c574ae4f2cdc3f115e3c2fa593b4e688705",
    "verify-modexp": "035d69f9b02d15a6b7f1b8f294f1ed533bde71f8041363ad453ec80a449abb71",
}


def command_hash(name: str, tmp_path, capsys) -> str:
    inputs = tmp_path / "in"
    outputs = tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    paths = {"ref": inputs / "ref.txt", "seeded": inputs / "seeded.txt",
             "dict": inputs / "dict.qc", "out": outputs / "result"}
    paths["ref"].write_text("\n".join(REFERENCE_RECORDS) + "\n", encoding="utf-8")
    paths["seeded"].write_text("\n".join(_seeded_records()) + "\n", encoding="utf-8")
    save_circuit(build_dictionary(Database(REFERENCE_RECORDS)).circuit, paths["dict"])
    argv = [arg.format(**{k: str(v) for k, v in paths.items()}) for arg in COMMANDS[name]]
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    digest = hashlib.sha256(f"exit {code}\n".encode())
    for stream in (captured.out, captured.err):
        digest.update(stream.replace(str(tmp_path), "<tmp>").encode() + b"\0")
    for path in sorted(outputs.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_is_unchanged(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(MAX_QUBITS_ENV, raising=False)
    assert command_hash(name, tmp_path, capsys) == HASHES[name]
