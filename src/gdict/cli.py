"""Command-line surface: synthesis, search, verification, attack, reporting.

Exit codes: 0 on success, 1 for domain errors (bad input, unsupported
parameters, parse failures), 2 for verification failures.  All structured
output is deterministic for fixed inputs and seed: dictionaries are emitted
in a stable key order and distributions ascend by value with exact zeros
dropped.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import dh
from .dictionary import load_database, pad_database, build_dictionary
from .errors import ParseError
from .grover import ANCILLA_KICKBACK, PHASE_FLIP, Clause, run_search
from .modarith import (
    check_adder,
    check_modexp,
    check_modular_adder,
    check_modular_multiplier,
)
from .sim import (
    apply_circuit,
    gate_count,
    load_circuit,
    marginal_distribution,
    new_state,
    save_circuit,
)


class CLIError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); bad input is code 1
        raise CLIError(message)


def _dtype(precision: str):
    return np.complex64 if precision == "single" else np.complex128


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _distribution_json(dist: dict[int, float]) -> dict[str, float]:
    return {str(v): dist[v] for v in sorted(dist) if dist[v] != 0.0}


def _distribution_csv(dist: dict[int, float]) -> str:
    lines = ["value,probability"]
    lines += [f"{v},{dist[v]!r}" for v in sorted(dist) if dist[v] != 0.0]
    return "\n".join(lines) + "\n"


def _write(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_result(args, report: dict, dist: dict[int, float], lines: list[str],
                  summary: str | None = None) -> None:
    """Write a result in the ``--format`` asked for: the JSON report (the
    default), the distribution as ``value,probability`` CSV rows, or the text
    lines.  With ``--out``, the summary line (if any) also goes to stdout."""
    if args.format == "csv":
        text = _distribution_csv(dist)
    elif args.format == "text":
        text = "\n".join(lines) + "\n"
    else:
        text = _dump_json(report)
    _write(args.out, text)
    if args.out and summary is not None:
        print(summary)


def _cmd_synth_dict(args) -> int:
    database = load_database(args.database)
    padded = pad_database(database)
    built = build_dictionary(padded)
    save_circuit(built.circuit, args.out)
    counts = gate_count(built.circuit)
    sidecar = {
        "records": len(database.records),
        "padded_records": len(padded.records),
        "m": padded.m,
        "n": padded.n,
        "cubes_per_column": built.cubes_per_column(),
        "mcx_count": counts.get("MCX", 0) + counts.get("X", 0),
    }
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        fh.write(_dump_json(sidecar))
    print(
        f"wrote {args.out}: {sidecar['mcx_count']} gates for "
        f"{sidecar['records']} records ({sidecar['n']} bits, index width {sidecar['m']})"
    )
    return 0


def _cmd_grover_search(args) -> int:
    database = load_database(args.database)
    clause = Clause.from_pattern(args.clause)
    result = run_search(
        database,
        clause,
        rounds=args.rounds,
        oracle_mode=args.mode,
        dtype=_dtype(args.precision),
        max_qubits=args.max_qubits,
    )
    plan = result.plan
    report = {
        "database": {
            "records": len(database.records),
            "padded_records": plan.search_space_size,
            "n": database.n,
            "m": database.m,
        },
        "clause": clause.to_pattern(),
        "mode": args.mode,
        "rounds": result.executed_rounds,
        "plan": dataclasses.asdict(plan),
        "distribution": _distribution_json(result.distribution),
        "top_index": result.top_index,
        "top_record": result.top_record,
        "winner_probability": result.winner_probability,
        "qubits": result.circuit.num_qubits,
        "gates": result.gate_counts,
        "iteration_gates": result.iteration_gate_counts,
    }
    top_p = result.distribution[result.top_index]
    lines = [
        f"clause {clause.to_pattern()} over {len(database.records)} records",
        f"rounds {result.executed_rounds} (planned {plan.rounds}, "
        f"predicted success {plan.predicted_success:.6f})",
        f"top index {result.top_index} -> record {result.top_record} (p = {top_p:.6f})",
    ]
    summary = f"top index {result.top_index} -> {result.top_record} (p = {top_p:.6f})"
    _write_result(args, report, result.distribution, lines, summary)
    return 0


# The flags each verify-arith family reads, with their defaults; a family
# refuses the others rather than pass a check they never reached.
_ARITH_FLAGS = {
    "adder": {"n": 3},
    "modadd": {"modulus": 7},
    "modmul": {"modulus": 7, "a": None},
    "modexp": {"g": 3, "modulus": 7},
}


def _cmd_verify_arith(args) -> int:
    takes = _ARITH_FLAGS[args.family]
    for flag in ("n", "modulus", "g", "a"):
        if getattr(args, flag) is None:
            setattr(args, flag, takes.get(flag))
        elif flag not in takes:
            raise CLIError(f"verify-arith {args.family} does not take --{flag}")
    reports = []
    if args.family == "adder":
        reports.append(check_adder(args.n))
        reports.append(check_adder(args.n, inverse_direction=True))
    elif args.family == "modadd":
        reports.append(check_modular_adder(args.modulus))
    elif args.family == "modmul":
        reports.append(check_modular_multiplier(args.modulus, args.a))
    else:  # modexp
        reports.append(check_modexp(args.g, args.modulus))
    ok = True
    for report in reports:
        print(report.summary())
        for failure in report.failures[:20]:
            print(f"  {failure}")
        ok = ok and report.passed
    return 0 if ok else 2


def _cmd_dh_attack(args) -> int:
    params = dh.DHParams(args.p, args.g)
    if (args.secret is None) == (args.target is None):
        raise CLIError("give exactly one of --secret or --target")
    target = args.target if args.target is not None else dh.public_value(params, args.secret)
    candidates = dh.generate_candidates(params, target, args.count, args.seed)
    mode = dh.CIRCUIT_ORACLE if args.mode == "circuit" else dh.PRECOMPUTED_ORACLE
    result = dh.run_attack(
        params,
        target,
        candidates,
        mode,
        rounds=args.rounds,
        dtype=_dtype(args.precision),
        max_qubits=args.max_qubits,
    )
    report = {
        "params": {"p": params.p, "g": params.g},
        "target": target,
        "candidates": list(result.candidates),
        "mode": result.mode,
        "rounds": result.rounds_executed,
        "distribution": _distribution_json(result.distribution),
        "recovered": result.recovered_secret,
        "probability": result.success_probability,
        "qubits": result.qubit_count,
        "gates": result.gate_counts,
    }
    summary = (
        f"recovered exponent {result.recovered_secret} "
        f"(p = {result.success_probability:.6f}, {result.qubit_count} qubits)"
    )
    _write_result(args, report, result.distribution, [summary], summary)
    return 0


def _cmd_simulate(args) -> int:
    circuit = load_circuit(args.circuit)
    state = new_state(
        circuit.num_qubits,
        args.init,
        dtype=_dtype(args.precision),
        max_qubits=args.max_qubits,
    )
    apply_circuit(state, circuit)
    if args.register:
        if args.register not in circuit.registers:
            raise CLIError(
                f"register {args.register!r} not in circuit "
                f"(have {sorted(circuit.registers)})"
            )
        dist = marginal_distribution(state, circuit.registers[args.register])
    else:  # the whole state: only its nonzero support has probability
        idx, vals = state.support()
        dist = dict(zip(idx.tolist(), (np.abs(vals) ** 2).tolist()))
    report = {"register": args.register or "all", "distribution": _distribution_json(dist)}
    lines = [f"{v}: {dist[v]:.9f}" for v in sorted(dist) if dist[v] != 0.0]
    _write_result(args, report, dist, lines)
    return 0


def _cmd_gatecount(args) -> int:
    circuit = load_circuit(args.circuit)
    report = {
        "qubits": circuit.num_qubits,
        "gates": gate_count(circuit, decompose=args.decompose),
    }
    _write(args.out, _dump_json(report))
    return 0


def _constants(text: str) -> list[int]:
    # --a's comma-separated modmul constants, each at most once.
    try:
        constants = [int(a) for a in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None
    if len(set(constants)) != len(constants):
        raise argparse.ArgumentTypeError(f"repeats a constant: {text!r}")
    return constants


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", choices=("double", "single"), default="double")
    p.add_argument("--max-qubits", type=int, default=None,
                   help="state-vector cap (default 26; GDICT_MAX_QUBITS overrides)")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--out", default=None, help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gdict", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-dict", help="compile a database file into a mapping circuit")
    p.add_argument("database", help="database file, one bit-string record per line")
    p.add_argument("--out", required=True, help="circuit output path (adds .json sidecar)")
    p.set_defaults(fn=_cmd_synth_dict)

    p = sub.add_parser("grover-search", help="search a database for a clause pattern")
    p.add_argument("database")
    p.add_argument("clause", help="pattern over {0,1,x}, e.g. 1010110 or xxxxxx1")
    p.add_argument("--rounds", type=int, default=None, help="override the planned rounds")
    p.add_argument("--mode", choices=(PHASE_FLIP, ANCILLA_KICKBACK), default=PHASE_FLIP)
    _add_common(p)
    p.set_defaults(fn=_cmd_grover_search)

    p = sub.add_parser("verify-arith", help="exhaustively check an arithmetic circuit family")
    p.add_argument("family", choices=("adder", "modadd", "modmul", "modexp"))
    p.add_argument("--n", type=int, default=None, help="adder register width (default 3)")
    p.add_argument("--modulus", type=int, default=None,
                   help="modadd, modmul and modexp modulus (default 7)")
    p.add_argument("--g", type=int, default=None, help="modexp base (default 3)")
    p.add_argument("--a", type=_constants, default=None,
                   help="modmul constants, comma separated (default 1 to modulus - 1)")
    p.set_defaults(fn=_cmd_verify_arith)

    p = sub.add_parser("dh-attack", help="toy Diffie-Hellman key recovery")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--secret", type=int, default=None)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--count", type=int, default=4, help="candidate list size")
    p.add_argument("--mode", choices=("circuit", "precomputed"), default="circuit")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    _add_common(p)
    p.set_defaults(fn=_cmd_dh_attack)

    p = sub.add_parser("simulate", help="run a circuit file and print a distribution")
    p.add_argument("circuit")
    p.add_argument("--init", type=int, default=0, help="initial basis value")
    p.add_argument("--register", default=None, help="marginal register (default: all qubits)")
    _add_common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("gatecount", help="count gates in a circuit file")
    p.add_argument("circuit")
    p.add_argument("--decompose", action="store_true",
                   help="also report the two-controlled-gate estimate")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gatecount)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ParseError as exc:  # a ValueError, so it comes first
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (CLIError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
