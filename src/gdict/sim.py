"""State-vector simulation of reversible circuits.

A StateVector holds its 2**q amplitudes either dense or as its nonzero
support, the (basis index, amplitude) pairs; a fresh basis state from
``new_state`` is a support of one pair and allocates nothing.  Reading
``amplitudes`` makes the state dense for good, so a caller that reads or
writes the array never meets a stale support.  A gate's plan
(``Gate.plan``) is an op with the bit masks of its controls, their pattern
and its targets, computed on first use and kept on the gate, which the
dense kernels read; ``evaluate_classical`` reads the controls and targets.
``apply_circuit`` checks every gate's qubit mask against the state before
it changes the state, then runs gates on the support while it holds at
most SUPPORT_MAX_SHARE of the amplitudes: each run of gates without H is
bit-sliced over the support's indices by ``evaluate_classical``, and each H
pairs amplitudes in the support's H kernel.  Past that share the state
becomes dense and the remaining gates run on the dense kernels that
``apply_gate`` uses.  Every path is plain numpy and computes the same
amplitudes bit for bit.

Conventions used throughout the package:

* Bit order is LSB-first: bit k of a basis-state integer is the state of
  qubit k.  A register's integer value likewise has bit j on qubit
  ``register.qubits[j]``.  ``Register`` owns this rule: ``place_value``
  and ``value_of`` convert between values and basis bits, ``controls``
  gives the control pattern that fires on a value and ``ones`` the qubits
  holding a value's 1 bits, so no other module reads a value bit by bit.
* Supported gate kinds are H, X, Z, SWAP, MCX and MCZ.  Multi-controlled
  gates carry polarity-tagged controls (positive fires on |1>, negative on
  |0>) and are simulated natively as pattern-matched amplitude kernels, not
  decomposed.  All kinds are self-inverse.
* A StateVector is mutated in place by ``apply_gate``/``apply_circuit`` and
  is owned by a single simulation context at a time.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, ParseError

DEFAULT_MAX_QUBITS = 26
MAX_QUBITS_ENV = "GDICT_MAX_QUBITS"
# An int64 basis index addresses at most 62 qubits (bits 0-61), whatever
# the cap: no circuit may place a register past that.
MAX_BASIS_QUBITS = 62

GATE_KINDS = ("H", "X", "Z", "SWAP", "MCX", "MCZ")


def resolve_max_qubits(explicit: int | None = None) -> int:
    """Qubit cap: explicit argument, else GDICT_MAX_QUBITS, else 26."""
    if explicit is not None:
        return explicit
    env = os.environ.get(MAX_QUBITS_ENV)
    return int(env) if env else DEFAULT_MAX_QUBITS


@dataclass(frozen=True)
class Register:
    """Named, ordered group of qubits; qubits[0] is the LSB of its value."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"register {self.name!r} repeats a qubit")
        if self.qubits and min(self.qubits) < 0:
            raise ValueError(f"register {self.name!r} has negative qubit {min(self.qubits)}")

    def __len__(self) -> int:
        return len(self.qubits)

    def value_of(self, basis_index):
        """Extract this register's integer value from a basis-state index;
        an integer array of indices gives the array of their values."""
        v = 0
        for j, q in enumerate(self.qubits):
            v |= ((basis_index >> q) & 1) << j
        return v

    def place_value(self, value):
        """Basis-state bits holding ``value`` on this register, 0 elsewhere;
        an integer array of values gives the array of their placements."""
        top = 1 << len(self.qubits)
        if isinstance(value, np.ndarray):
            fits = 0 <= value.min() and value.max() < top
        else:
            fits = 0 <= value < top
        if not fits:
            raise ValueError(f"value {value} does not fit register {self.name!r}")
        b = 0
        for j, q in enumerate(self.qubits):
            b |= ((value >> j) & 1) << q
        return b

    def controls(self, value: int, mask: int = -1) -> list[tuple[int, bool]]:
        """(qubit, polarity) controls that fire when this register's bits
        under ``mask`` (all of them by default) equal ``value``'s, in
        ``qubits`` order."""
        width = len(self.qubits)
        if (value & mask) >> width or (mask != -1 and mask >> width):
            raise ValueError(f"pattern {value} under mask {mask} does not fit "
                             f"register {self.name!r}")
        return [(q, bool(value >> j & 1)) for j, q in enumerate(self.qubits) if mask >> j & 1]

    def ones(self, value: int) -> list[int]:
        """The qubits holding ``value``'s 1 bits, in ``qubits`` order."""
        bits = self.place_value(value)
        return [q for q in self.qubits if bits >> q & 1]


@dataclass(frozen=True)
class Gate:
    """One reversible gate.

    ``controls`` is a tuple of (qubit, polarity) pairs where polarity True
    means the control fires on |1> and False on |0>.  MCZ has no target;
    its control pattern alone selects the amplitudes to negate.
    """

    kind: str
    targets: tuple[int, ...] = ()
    controls: tuple[tuple[int, bool], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        nt, nc = len(self.targets), len(self.controls)
        if self.kind in ("H", "X", "Z") and (nt != 1 or nc != 0):
            raise ValueError(f"{self.kind} takes exactly one target and no controls")
        if self.kind == "SWAP" and (nt != 2 or nc != 0):
            raise ValueError("SWAP takes exactly two targets")
        if self.kind == "MCX" and nt != 1:
            raise ValueError("MCX takes exactly one target")
        if self.kind == "MCZ" and (nt != 0 or nc == 0):
            raise ValueError("MCZ takes control qubits only, at least one")
        ctrl_qubits = {q for q, _ in self.controls}
        targets = set(self.targets)
        if len(ctrl_qubits) != nc or len(targets) != nt:
            raise ValueError("gate repeats a qubit")
        if ctrl_qubits & targets:
            raise ValueError("control and target sets overlap")
        low = min(ctrl_qubits | targets)  # every kind has a qubit by now
        if low < 0:
            raise ValueError(f"{self.kind} gate has negative qubit {low}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.controls) + self.targets

    @cached_property
    def plan(self) -> tuple[str, int, int, int]:
        """(op, control mask, control pattern under the mask, target bits),
        which the dense kernels read: X/MCX flip the target bits where the
        controls match; Z/MCZ negate where they match, Z's target counting
        as a control.  ``mask | bits`` holds every qubit the gate touches."""
        mask = sum(1 << c for c, _ in self.controls)
        want = sum(1 << c for c, pos in self.controls if pos)
        bits = sum(1 << t for t in self.targets)
        if self.kind in ("X", "MCX"):
            return ("flip", mask, want, bits)
        if self.kind in ("Z", "MCZ"):
            return ("negate", mask | bits, want | bits, 0)
        return (self.kind, mask, want, bits)


# Short constructors mirroring circuit-diagram vocabulary.
def H(q: int) -> Gate:
    return Gate("H", (q,))


def X(q: int) -> Gate:
    return Gate("X", (q,))


def Z(q: int) -> Gate:
    return Gate("Z", (q,))


def SWAP(a: int, b: int) -> Gate:
    return Gate("SWAP", (a, b))


def MCX(controls, target: int) -> Gate:
    return Gate("MCX", (target,), tuple((q, bool(p)) for q, p in controls))


def MCZ(controls) -> Gate:
    return Gate("MCZ", (), tuple((q, bool(p)) for q, p in controls))


def CNOT(control: int, target: int) -> Gate:
    return MCX([(control, True)], target)


def CCX(c1: int, c2: int, target: int) -> Gate:
    return MCX([(c1, True), (c2, True)], target)


@dataclass
class Circuit:
    """Ordered gate list over ``num_qubits`` qubits plus a register map."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    registers: dict[str, Register] = field(default_factory=dict)

    def __post_init__(self):
        registers, self.registers = self.registers, {}
        for reg in registers.values():
            self.add_register(reg)

    def add(self, *gates: Gate) -> "Circuit":
        self.gates.extend(gates)
        return self

    def extend(self, gates) -> "Circuit":
        self.gates.extend(gates)
        return self

    def add_register(self, reg: Register) -> Register:
        if reg.name in self.registers:
            raise ValueError(f"duplicate register {reg.name!r}")
        for other in self.registers.values():
            if set(other.qubits) & set(reg.qubits):
                raise ValueError(f"register {reg.name!r} overlaps {other.name!r}")
        self.registers[reg.name] = reg
        return reg


def inverse(circuit: Circuit) -> Circuit:
    """Reverse the gate list; every supported gate is self-inverse."""
    return Circuit(circuit.num_qubits, circuit.gates[::-1], dict(circuit.registers))


class StateVector:
    """2**num_qubits complex amplitudes, unit L2 norm, held dense or as
    their nonzero support.

    ``StateVector(q, amplitudes)`` is dense; ``StateVector(q,
    support=(indices, values))`` holds the int64 basis indices of its
    nonzero amplitudes and their values, every other amplitude 0.
    """

    __slots__ = ("num_qubits", "_amplitudes", "_support")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None, *,
                 support: tuple[np.ndarray, np.ndarray] | None = None):
        self.num_qubits = num_qubits
        self._amplitudes = amplitudes
        self._support = support

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense amplitude array.  A state held as its support builds it
        on first read and is dense from then on."""
        if self._support is not None:
            idx, vals = self._support
            self._amplitudes = np.zeros(1 << self.num_qubits, dtype=vals.dtype)
            self._amplitudes[idx] = vals
            self._support = None
        return self._amplitudes

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) of the nonzero amplitudes: the support a state
        holds, in no particular order, or a scan of the dense array, in
        index order.  A state's later gates never write into arrays
        returned here."""
        if self._support is not None:
            return self._support
        amps = self._amplitudes
        idx = np.flatnonzero(amps != 0)
        return idx, amps[idx]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def new_state(
    num_qubits: int,
    basis_value: int = 0,
    *,
    dtype=np.complex128,
    max_qubits: int | None = None,
) -> StateVector:
    """Computational basis state |basis_value> on ``num_qubits`` qubits,
    held as its one-pair support: it passes ``check_state`` as a dense
    state would, but allocates its 2**q amplitudes only when they are read."""
    check_state(num_qubits, basis_value, dtype=dtype, max_qubits=max_qubits)
    return StateVector(num_qubits, support=(np.array([basis_value], dtype=np.int64),
                                            np.ones(1, dtype=dtype)))


def check_state(
    num_qubits: int,
    basis_value: int = 0,
    *,
    dtype=np.complex128,
    max_qubits: int | None = None,
) -> None:
    """Raise what ``new_state`` would raise for these arguments, without
    allocating: ValueError for no qubits or a basis value out of range, and
    CapacityError past the qubit cap or past free memory.  A search or an
    attack calls it with the qubits its state will need before it
    synthesizes anything, so an oversized input fails in moments."""
    cap = resolve_max_qubits(max_qubits)
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    if num_qubits > cap:
        raise CapacityError(f"{num_qubits} qubits exceeds cap of {cap}")
    if not 0 <= basis_value < (1 << num_qubits):
        raise ValueError(f"basis value {basis_value} out of range for {num_qubits} qubits")
    # The dense kernels and marginals make working copies up to the state's
    # own size, so ask for twice the amplitudes' bytes.
    need = 2 * np.dtype(dtype).itemsize << num_qubits
    free = _free_memory_bytes()
    if free is not None and need > free:
        # Page cache the kernel can reclaim counts too, but reading it is
        # slower, so only a state that MemFree would refuse pays for it.
        available = _available_memory_bytes()
        free = free if available is None else available
        if need > free:
            raise CapacityError(
                f"{num_qubits}-qubit state needs {need} bytes with its working copies, "
                f"but only {free} bytes of memory are free"
            )


def _free_memory_bytes() -> int | None:
    # Physical memory not in use (MemFree), about 1 us per read; None where
    # the platform does not report it.
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return None


def _available_memory_bytes() -> int | None:
    # Linux's MemAvailable: free memory plus the page cache and slabs the
    # kernel can reclaim, about 20 us per read; None where /proc/meminfo is
    # absent or has no such line.
    try:
        with open("/proc/meminfo", "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024  # reported in kB
    except OSError:
        pass
    return None


def _check_qubits(qubits, num_qubits: int) -> None:
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} out of range for {num_qubits}-qubit state")


def _check_gates(gates, num_qubits: int) -> None:
    # Qubits are never negative, so a gate fits the state exactly when its
    # plan's qubit mask has no bit at num_qubits or above.
    for gate in gates:
        _, mask, _, bits = gate.plan
        if (mask | bits) >> num_qubits:  # name the highest qubit outside
            raise ValueError(f"qubit {(mask | bits).bit_length() - 1} out of range "
                             f"for {num_qubits}-qubit state")


# Dense amplitude kernels, used by ``apply_gate`` and by ``apply_circuit``
# once the support outgrows its share: each gate is a numpy operation on
# index selectors into the (2,)*q view of the amplitude array that writes
# every touched amplitude exactly once, so results are independent of any
# internal scheduling.

# There are no compiled kernels; the benchmark's machine block reads this
# name to report its kernel path as numpy.
USE_NUMBA = False


def _selector(num_qubits: int, mask: int, value: int) -> tuple:
    # Index into the (2,)*q view: the axis of each qubit in ``mask`` fixed
    # to that qubit's bit of ``value``, every other axis whole.
    sel: list = [slice(None)] * num_qubits
    for k in range(num_qubits):
        if mask >> k & 1:
            sel[num_qubits - 1 - k] = value >> k & 1
    return tuple(sel)


def _apply_gate_dense(amps: np.ndarray, q: int, gate: Gate) -> None:
    op, mask, want, bits = gate.plan
    view = amps.reshape((2,) * q)
    if op == "negate":
        view[_selector(q, mask, want)] *= -1
        return
    # The two halves the gate mixes or exchanges under the control pattern:
    # target 0 and target 1, or for SWAP (low target 1, high 0) and the reverse.
    low = bits & -bits if op == "SWAP" else 0
    s0 = _selector(q, mask | bits, want | low)
    s1 = _selector(q, mask | bits, want | (low ^ bits))
    a0 = view[s0].copy()
    if op == "H":
        s = amps.dtype.type(2 ** -0.5)
        view[s0] = (a0 + view[s1]) * s
        view[s1] = (a0 - view[s1]) * s
    else:  # flip and SWAP exchange the halves
        view[s0] = view[s1]
        view[s1] = a0


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place and return the state."""
    _check_gates((gate,), state.num_qubits)
    _apply_gate_dense(state.amplitudes, state.num_qubits, gate)
    return state


def evaluate_classical(gates, num_qubits: int, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run H-free gates on many basis states at once.

    Returns the int64 basis index each of the int64 ``inputs`` ends in, and
    a boolean per input that is True where Z and MCZ left it with sign -1.
    The inputs are bit-sliced (Biham, FSE 1997): qubit k is one Python int
    whose bit j is bit k of input j.  X and MCX XOR the AND of their control
    rows, complemented for negative controls, into the target row; SWAP
    exchanges two rows; Z and MCZ XOR that AND, Z's target counting as a
    control, into a sign row.  Each gate is thus a few big-int operations
    on all inputs.  Raises ValueError on H, which is no permutation, on a
    qubit outside ``num_qubits``, and past MAX_BASIS_QUBITS, where int64
    indices end.
    """
    if num_qubits > MAX_BASIS_QUBITS:
        raise ValueError(f"{num_qubits} qubits exceed the {MAX_BASIS_QUBITS} of an int64 index")
    inputs = np.ascontiguousarray(inputs, dtype="<i8")
    n, width = inputs.size, (inputs.size + 7) // 8
    # Bit k of input j at [j, k]; the rows are its first num_qubits columns,
    # packed to bytes, so no temporary holds more than 64 bytes per input.
    bits = np.unpackbits(inputs.view(np.uint8).reshape(n, 8), axis=1, bitorder="little")
    packed = np.packbits(bits[:, :num_qubits].T, axis=1, bitorder="little").tobytes()
    rows = [int.from_bytes(packed[k * width:(k + 1) * width], "little")
            for k in range(num_qubits)]
    everyone = (1 << n) - 1
    sign = 0
    try:
        for gate in gates:
            kind = gate.kind
            if kind == "SWAP":
                a, b = gate.targets
                rows[a], rows[b] = rows[b], rows[a]
                continue
            if kind == "H":
                raise ValueError("H gate has no classical evaluation")
            fire = everyone
            for c, positive in gate.controls:
                fire &= rows[c] if positive else ~rows[c]
            if kind == "X" or kind == "MCX":
                rows[gate.targets[0]] ^= fire
            else:  # Z and MCZ
                for t in gate.targets:
                    fire &= rows[t]
                sign ^= fire
    except IndexError:  # a qubit past the rows: name it
        _check_gates(gates, num_qubits)
        raise
    rows.append(sign)
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    rows = np.unpackbits(packed.reshape(num_qubits + 1, width), axis=1, count=n,
                         bitorder="little")
    bits[:, :num_qubits] = rows[:num_qubits].T
    outputs = np.packbits(bits, axis=1, bitorder="little").view("<i8").reshape(n)
    return outputs, rows[num_qubits].astype(bool)


# Support kernel for H, used by ``apply_circuit``: it merges index pairs
# that differ only in its target, computing the dense kernel's sums, and
# drops exact zeros.  Its cost grows with the support, not with 2**q.
# Measured against the numpy dense kernels at q=16..22, a support of 1/16
# of 2**q costs 0.5-1.2x for H, and 1/8 costs 1.6-2.6x.  Hence the share
# below.
SUPPORT_MAX_SHARE = 1 / 16


def _apply_gate_support(idx: np.ndarray, vals: np.ndarray, gate: Gate):
    # H on the (basis index, amplitude) pairs of the nonzero amplitudes;
    # returns the new pairs, in no particular order.
    bits = gate.plan[3]
    pairs, slot = np.unique(idx & ~bits, return_inverse=True)
    one = (idx & bits) != 0
    a0 = np.zeros(pairs.size, dtype=vals.dtype)
    a1 = np.zeros(pairs.size, dtype=vals.dtype)
    a0[slot[~one]] = vals[~one]
    a1[slot[one]] = vals[one]
    s = vals.dtype.type(2 ** -0.5)
    idx = np.concatenate((pairs, pairs | bits))
    vals = np.concatenate(((a0 + a1) * s, (a0 - a1) * s))
    keep = vals != 0
    return idx[keep], vals[keep]


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply all gates in order; requires circuit fits inside the state.

    Every gate's qubits are checked before the state changes, so a bad gate
    raises ValueError with the state untouched.  While the state's nonzero
    support holds at most SUPPORT_MAX_SHARE of the 2**q amplitudes, each
    maximal run of gates without H is one ``evaluate_classical`` call on the
    support's basis indices, which then negates the amplitudes it signs,
    and each H runs on the support's (index, amplitude) pairs.  The support
    comes from ``state.support()``, so a state held as its support is never
    scanned.  Only H changes the support's size, so only after an H can it
    outgrow its share.  A state held as its support stays so unless it
    outgrows the share; a dense state is written back in place.  Past the
    share the remaining gates run on the dense kernels.  Every step makes
    new arrays, so none returned by ``support()`` changes.  Permutations
    and signs are exact and H pairs amplitudes whatever their order, so
    every path computes the same amplitudes bit for bit.
    """
    q = state.num_qubits
    if circuit.num_qubits > q:
        raise ValueError(f"circuit needs {circuit.num_qubits} qubits, state has {q}")
    gates = circuit.gates
    _check_gates(gates, q)
    limit = int((1 << q) * SUPPORT_MAX_SHARE)
    done = 0
    start, vals = state.support()
    if start.size > limit:
        amps = state.amplitudes
    else:
        idx = start
        for stop in [i for i, g in enumerate(gates) if g.kind == "H"] + [len(gates)]:
            if done < stop:
                idx, negative = evaluate_classical(gates[done:stop], q, idx)
                vals = np.where(negative, -vals, vals)
                done = stop
            if done == len(gates):
                break
            idx, vals = _apply_gate_support(idx, vals, gates[done])
            done += 1
            if idx.size > limit:
                break
        if idx.size <= limit and state._support is not None:
            state._support = (idx, vals)
            return state
        amps = state.amplitudes
        amps[start] = 0
        amps[idx] = vals
    for gate in gates[done:]:
        _apply_gate_dense(amps, q, gate)
    return state


def marginal_distribution(state: StateVector, register: Register) -> dict[int, float]:
    """Probability of each register value, summed over the other qubits."""
    q = state.num_qubits
    _check_qubits(register.qubits, q)
    probs = state.probabilities().reshape((2,) * q)
    axes_keep = [q - 1 - qb for qb in register.qubits]
    drop = tuple(a for a in range(q) if a not in set(axes_keep))
    if drop:
        probs = probs.sum(axis=drop)
    remaining = sorted(axes_keep)
    pos = {a: i for i, a in enumerate(remaining)}
    r = len(register.qubits)
    perm = [pos[axes_keep[j]] for j in reversed(range(r))]
    flat = probs.transpose(perm).reshape(-1)
    return {v: float(flat[v]) for v in range(1 << r)}


def sample(state: StateVector, register: Register, shots: int, seed: int) -> dict[int, int]:
    """Multinomial measurement counts over a register, reproducible by seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    dist = marginal_distribution(state, register)
    values = sorted(dist)
    pvals = np.array([dist[v] for v in values], dtype=np.float64)
    pvals /= pvals.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, pvals)
    return {v: int(c) for v, c in zip(values, counts) if c > 0}


def gate_count(circuit: Circuit, decompose: bool = False) -> dict[str, int]:
    """Native gate counts; with ``decompose``, adds a ``toffoli_equiv`` entry
    estimating each MCX/MCZ with c controls as max(1, 2c - 3) two-controlled
    gates (standard Toffoli-ladder figure; reported only, never simulated)."""
    counts = Counter(g.kind for g in circuit.gates)
    out = {k: counts[k] for k in GATE_KINDS if counts[k]}
    if decompose:
        equiv = 0
        for g in circuit.gates:
            if g.kind in ("MCX", "MCZ"):
                equiv += max(1, 2 * len(g.controls) - 3)
        out["toffoli_equiv"] = equiv
    return out


# Circuit text format: REG lines naming registers, '#' comment lines, and
# one gate per line as KIND [controls] q..., the control list present
# exactly for MCX and MCZ.  ``Gate`` checks how many qubits each kind takes.
#   REG data q2,q3,q4
#   H q3 | X q0 | Z q2 | SWAP q1 q4 | MCX [+q0,-q1] q5 | MCX [] q2 | MCZ [+q0,-q3]
_CONTROLLED = ("MCX", "MCZ")


def gate_to_text(gate: Gate) -> str:
    words = [gate.kind]
    if gate.kind in _CONTROLLED:
        words.append("[" + ",".join(f"{'+' if p else '-'}q{q}" for q, p in gate.controls) + "]")
    words += [f"q{t}" for t in gate.targets]
    return " ".join(words)


def circuit_to_text(circuit: Circuit) -> str:
    lines = [
        f"REG {reg.name} " + ",".join(f"q{q}" for q in reg.qubits)
        for reg in circuit.registers.values()
    ]
    lines.extend(gate_to_text(g) for g in circuit.gates)
    return "\n".join(lines) + "\n"


def _parse_qubit(token: str, line: int) -> int:
    if not token.startswith("q") or not token[1:].isdigit():
        raise ParseError(f"expected qubit like 'q3', got {token!r}", line)
    return int(token[1:])


def _parse_controls(token: str, line: int):
    if not (token.startswith("[") and token.endswith("]")):
        raise ParseError(f"expected control list like '[+q0,-q1]', got {token!r}", line)
    body = token[1:-1]
    if not body:
        return ()
    controls = []
    for part in body.split(","):
        if len(part) < 2 or part[0] not in "+-":
            raise ParseError(f"bad control {part!r}", line)
        controls.append((_parse_qubit(part[1:], line), part[0] == "+"))
    return tuple(controls)


def circuit_from_text(text: str) -> Circuit:
    """Parse the circuit text format; inverse of ``circuit_to_text``."""
    circuit = Circuit(0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split()
        if not words or words[0].startswith("#"):
            continue
        kind, args = words[0], words[1:]
        try:
            if kind == "REG":
                if len(args) != 2:
                    raise ParseError("REG takes a name and a qubit list", lineno)
                qubits = tuple(_parse_qubit(t, lineno) for t in args[1].split(","))
                circuit.add_register(Register(args[0], qubits))
            else:
                controls = ()
                if kind in _CONTROLLED:
                    controls = _parse_controls(args.pop(0) if args else "", lineno)
                circuit.add(Gate(kind, tuple(_parse_qubit(t, lineno) for t in args), controls))
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    used = [q for g in circuit.gates for q in g.qubits]
    used += [q for reg in circuit.registers.values() for q in reg.qubits]
    if not used:
        raise ParseError("circuit text contains no gates or registers")
    circuit.num_qubits = max(used) + 1
    return circuit


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(circuit_to_text(circuit))


def load_circuit(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return circuit_from_text(fh.read())
