"""Span tracing around gdict's layers, installed from the benchmark's side.

gdict's modules import each other's functions by name (``from .sim import
apply_circuit``), so a wrapper on ``gdict.sim.apply_circuit`` alone would
see nothing.  ``traced`` replaces every name where it is looked up, records
a span per call (name, start, end, parent) in memory, and puts the original
objects back on exit.  Counting done by the wrappers is itself a span,
``trace.bookkeeping``, so self times still add up to the operation's wall
time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

import gdict.cli
import gdict.dh
import gdict.dictionary
import gdict.grover
import gdict.logic
import gdict.modarith

OP_SPAN = "bench.op"
BOOKKEEPING_SPAN = "trace.bookkeeping"
LAYERS = ("sim", "logic", "dictionary", "grover", "modarith", "dh", "cli")
GATE_KINDS = ("H", "X", "SWAP", "MCX", "MCZ")


class Tracer:
    """In-memory span store; one per traced phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []  # open spans; the bottom one is an operation
        self.counts: Counter = Counter()
        self.state_bytes_peak = 0
        self.support_ratios: list[float] = []

    @property
    def in_op(self) -> bool:
        return bool(self._stack)

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def dump(self, path: str, header: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each a mean per traced operation unless it is a
        rate, a ratio or a peak."""
        incl: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            incl[name] += end - start
            self_time[name] += end - start - covered
            calls[name] += 1
        layer_self: dict[str, float] = defaultdict(float)
        for name, t in self_time.items():
            layer_self[name.split(".")[0]] += t
        ops = max(calls[OP_SPAN], 1)
        c = self.counts
        apply_s = incl["sim.apply_circuit"]

        def per_op(v):
            return v / ops

        out = {
            "sim.apply_circuit_s": (per_op(apply_s), "s"),
            "sim.gates_applied": (per_op(c["sim.gates_applied"]), "count"),
        }
        for kind in GATE_KINDS:
            out[f"sim.gates.{kind}"] = (per_op(c[f"sim.gates.{kind}"]), "count")
        out.update({
            "sim.gate_apps_per_s": (c["sim.gates_applied"] / apply_s if apply_s else 0.0, "1/s"),
            "sim.touched_amps": (per_op(c["sim.touched_amps"]), "amps_computed"),
            "sim.ns_per_amp_gate": (
                apply_s * 1e9 / c["sim.touched_amps"] if c["sim.touched_amps"] else 0.0, "ns"),
            "sim.state_bytes_peak": (float(self.state_bytes_peak), "bytes"),
            "sim.support_ratio": (
                float(np.mean(self.support_ratios)) if self.support_ratios else 0.0, "ratio"),
            "sim.new_state_s": (per_op(incl["sim.new_state"]), "s"),
            "sim.new_state_calls": (per_op(calls["sim.new_state"]), "count"),
            "sim.marginal_s": (per_op(incl["sim.marginal_distribution"]), "s"),
            "sim.marginal_calls": (per_op(calls["sim.marginal_distribution"]), "count"),
            "logic.minimize_s": (per_op(incl["logic.minimize"]), "s"),
            "logic.prime_implicants_s": (per_op(incl["logic.prime_implicants"]), "s"),
            "logic.cover_s": (per_op(incl["logic.minimize"] - incl["logic.prime_implicants"]), "s"),
            "logic.primes": (per_op(c["logic.primes"]), "count"),
            "logic.cubes": (per_op(c["logic.cubes"]), "count"),
            "logic.subtract_calls": (per_op(c["logic.subtract_calls"]), "count"),
            "dictionary.build_s": (per_op(incl["dictionary.build"]), "s"),
            "dictionary.build_self_s": (per_op(self_time["dictionary.build"]), "s"),
            "dictionary.load_s": (per_op(incl["dictionary.load"]), "s"),
            "dictionary.gates_emitted": (per_op(c["dictionary.gates_emitted"]), "count"),
            "grover.run_search_s": (per_op(incl["grover.run_search"]), "s"),
            "grover.rounds": (per_op(c["grover.rounds"]), "count"),
            "modarith.check_s": (per_op(incl["modarith.check"]), "s"),
            "modarith.build_s": (per_op(incl["modarith.build"]), "s"),
            "modarith.cases": (per_op(c["modarith.cases"]), "count"),
            "dh.run_attack_s": (per_op(incl["dh.run_attack"]), "s"),
            "dh.build_attack_s": (per_op(incl["dh.build_attack"]), "s"),
            "cli.main_s": (per_op(incl["cli.main"]), "s"),
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (per_op(layer_self[layer]), "s")
        out.update({
            "trace.op_wall_s": (per_op(incl[OP_SPAN]), "s"),
            "trace.unattributed_s": (per_op(layer_self["bench"]), "s"),
            "trace.bookkeeping_s": (per_op(layer_self["trace"]), "s"),
        })
        return out


def _after_apply(tracer: Tracer, args, result) -> None:
    state, circuit = args[0], args[1]
    kinds = Counter(g.kind for g in circuit.gates)
    tracer.counts["sim.gates_applied"] += len(circuit.gates)
    for kind, count in kinds.items():
        tracer.counts[f"sim.gates.{kind}"] += count
    size = 1 << state.num_qubits
    tracer.counts["sim.touched_amps"] += len(circuit.gates) * size
    tracer.support_ratios.append(np.count_nonzero(state.amplitudes) / size)


def _after_new_state(tracer: Tracer, args, result) -> None:
    tracer.state_bytes_peak = max(tracer.state_bytes_peak, result.amplitudes.nbytes)


def _counter(key: str, measure):
    def after(tracer: Tracer, args, result) -> None:
        tracer.counts[key] += measure(result)
    return after


# (module, attribute, span name, bookkeeping after the call)
SITES = [
    *[(mod, "apply_circuit", "sim.apply_circuit", _after_apply)
      for mod in (gdict.grover, gdict.dh, gdict.modarith, gdict.cli)],
    *[(mod, "new_state", "sim.new_state", _after_new_state)
      for mod in (gdict.grover, gdict.dh, gdict.modarith, gdict.cli)],
    *[(mod, "marginal_distribution", "sim.marginal_distribution", None)
      for mod in (gdict.grover, gdict.dh, gdict.cli)],
    (gdict.dictionary, "minimize", "logic.minimize", _counter("logic.cubes", lambda r: len(r.cubes))),
    (gdict.logic, "prime_implicants", "logic.prime_implicants", _counter("logic.primes", len)),
    *[(mod, "build_dictionary", "dictionary.build",
       _counter("dictionary.gates_emitted", lambda r: len(r.circuit.gates)))
      for mod in (gdict.grover, gdict.dh, gdict.cli)],
    (gdict.cli, "load_database", "dictionary.load", None),
    *[(mod, "run_search", "grover.run_search", _counter("grover.rounds", lambda r: r.executed_rounds))
      for mod in (gdict.grover, gdict.cli)],
    *[(mod, name, "modarith.check", _counter("modarith.cases", lambda r: r.cases))
      for mod in (gdict.modarith, gdict.cli)
      for name in ("check_adder", "check_modular_adder", "check_modular_multiplier", "check_modexp")],
    *[(gdict.modarith, name, "modarith.build", None)
      for name in ("adder", "modular_adder", "controlled_modular_multiplier", "modexp_circuit")],
    (gdict.dh, "run_attack", "dh.run_attack", None),
    (gdict.dh, "build_attack_circuit", "dh.build_attack", None),
    (gdict.cli, "main", "cli.main", None),
]


def _wrap(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.in_op:  # the benchmark's own checks, outside any operation
            return fn(*args, **kwargs)
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            with tracer.span(BOOKKEEPING_SPAN):
                after(tracer, args, result)
        return result
    return wrapper


def _count_calls(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.in_op:
            tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore
    every patched name to the object it held before."""
    patched = []
    try:
        for module, attr, name, after in SITES:
            original = getattr(module, attr)
            patched.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, after))
        # Cube.subtract runs thousands of times per column: counted, not spanned.
        cube = gdict.logic.Cube
        patched.append((cube, "subtract", cube.subtract))
        cube.subtract = _count_calls(tracer, "logic.subtract_calls", cube.subtract)
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
