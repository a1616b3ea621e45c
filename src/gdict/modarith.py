"""Reversible modular-arithmetic circuit constructors.

The family builds up in four stages:

* ripple-carry adder ``+``: carry blocks forward, one fix-up CNOT, then a
  descending pass of inverse-carry and sum blocks.  Maps |a>|b>|0> to
  |a>|a+b>|0> with the n+1'th sum bit kept as the top qubit of y and every
  carry qubit returned to |0>.
* modular adder: add, subtract the modulus, use the borrow flag on y's top
  qubit to conditionally re-add, then a subtract/add pair against x to reset
  the flag qubit reversibly.
* controlled modular multiplier: per input bit, Toffoli-load the precomputed
  constant (2**j * a) mod N into a temp register, modular-add it into the
  accumulator, unload.  A negatively-controlled Toffoli fan at the end copies
  the input through when the outer control is 0, so the gate multiplies by 1
  in that case.
* modular exponentiation: per exponent bit, multiply by g**(2**i), swap the
  workspaces, and un-multiply by the modular inverse of g**(2**i) to clear
  the second workspace.  The result always lands in register A.

Each constructor places its own registers on consecutive qubits from qubit 0
(``modexp_circuit`` from a ``base`` offset, which key recovery sets to the
width of its index register) and declares them on the circuit, so callers and
the exhaustive checks read them by name from ``circuit.registers``.  The
constructors' docstrings give the names in qubit order.  The multiplier and
modular exponentiation build the modular adder's gate list once and reuse
that one list, gate objects and all, for every input bit.

Supported moduli are N = 2**k - 1 (validated); a and b occupy k qubits.  The
borrow-flag logic is only claimed for this family here; exhaustive
simulation against classical integer arithmetic is the correctness arbiter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, UnsupportedModulusError
from .sim import (
    CCX,
    CNOT,
    MAX_BASIS_QUBITS,
    Circuit,
    Gate,
    MCX,
    Register,
    SWAP,
    X,
    apply_circuit,
    inverse,
    new_state,
)


def is_supported_modulus(N: int) -> bool:
    """True for N = 2**k - 1 with k >= 2."""
    return N >= 3 and (N & (N + 1)) == 0


def require_supported_modulus(N: int) -> int:
    if not is_supported_modulus(N):
        raise UnsupportedModulusError(f"modulus {N} is not of the form 2**k - 1 (k >= 2)")
    return N.bit_length()


def mod_inverse(a: int, N: int) -> int:
    """Multiplicative inverse of a modulo N (extended Euclid via pow)."""
    try:
        return pow(a, -1, N)
    except ValueError as exc:
        raise ValueError(f"{a} is not invertible modulo {N} (gcd = {math.gcd(a, N)})") from exc


def _pack(base: int, *sizes: tuple[str, int]) -> list[Register]:
    # Registers of the given names and widths on consecutive qubits from
    # base, refused before any gate is built if no basis index can hold them.
    need = base + sum(width for _, width in sizes)
    if need > MAX_BASIS_QUBITS:
        raise CapacityError(f"registers need {need} qubits, past the {MAX_BASIS_QUBITS} "
                            f"an int64 basis index addresses")
    registers = []
    for name, width in sizes:
        registers.append(Register(name, tuple(range(base, base + width))))
        base += width
    return registers


def _circuit(registers: list[Register], gates: list[Gate]) -> Circuit:
    # The circuit over ``registers``, declared in their order.
    return Circuit(max(q for reg in registers for q in reg.qubits) + 1, gates,
                   {reg.name: reg for reg in registers})


# Gate-level blocks.

def carry_block(c_i: int, x_i: int, y_i: int, c_next: int) -> list[Gate]:
    """c_next ^= carry of (c_i, x_i, y_i); leaves y_i as x_i XOR y_i."""
    if len({c_i, x_i, y_i, c_next}) != 4:
        raise ValueError("carry block qubits must be distinct")
    return [CCX(x_i, y_i, c_next), CNOT(x_i, y_i), CCX(c_i, y_i, c_next)]


def sum_block(c_i: int, x_i: int, y_i: int) -> list[Gate]:
    """y_i <- x_i XOR y_i XOR c_i."""
    if len({c_i, x_i, y_i}) != 3:
        raise ValueError("sum block qubits must be distinct")
    return [CNOT(x_i, y_i), CNOT(c_i, y_i)]


def _adder_gates(x: Register, y: Register, c: Register) -> list[Gate]:
    # x holds n qubits and stays unchanged, y (n + 1) receives the sum with
    # the carry out on top, and the n carry qubits c return to |0>.
    n = len(x.qubits)
    xq, yq, cq = x.qubits, y.qubits, c.qubits
    carry_out = lambda i: cq[i + 1] if i < n - 1 else yq[n]
    gates: list[Gate] = []
    for i in range(n):
        gates += carry_block(cq[i], xq[i], yq[i], carry_out(i))
    # One extra CNOT undoes the x XOR y left on the top position by the last
    # carry block, standing in for the inverse-carry that never runs there.
    gates.append(CNOT(xq[n - 1], yq[n - 1]))
    gates += sum_block(cq[n - 1], xq[n - 1], yq[n - 1])
    for i in range(n - 2, -1, -1):
        gates += [g for g in reversed(carry_block(cq[i], xq[i], yq[i], cq[i + 1]))]
        gates += sum_block(cq[i], xq[i], yq[i])
    return gates


def adder(n: int) -> Circuit:
    """|a>|b>|0> -> |a>|a+b>|0>; the inverse subtracts, flagging overflow on
    y's top qubit.  Registers x (n qubits), y (n + 1), c (n) from qubit 0."""
    if n < 1:
        raise ValueError("adder needs n >= 1")
    registers = _pack(0, ("x", n), ("y", n + 1), ("c", n))
    return _circuit(registers, _adder_gates(*registers))


def _modadd_gates(x: Register, y: Register, c: Register, m: Register, flag: Register,
                  N: int) -> list[Gate]:
    # y <- (x + y) mod N; m holds N and flag holds 0 on entry and on exit.
    y_top = y.qubits[-1]
    f = flag.qubits[0]
    add_x = _adder_gates(x, y, c)
    sub_x = add_x[::-1]
    add_m = _adder_gates(m, y, c)
    sub_m = add_m[::-1]
    fan = [CNOT(f, q) for q in m.ones(N)]  # flips m between |N> and |0>

    gates: list[Gate] = []
    gates += add_x                                    # y = a + b
    gates += sub_m                                    # y = a + b - N, top bit = borrow
    gates.append(MCX([(y_top, False)], f))            # flag = 1 iff no borrow
    gates += fan                                      # flag ? m <- 0 : m stays N
    gates += add_m                                    # re-add N only when borrowed
    gates += fan                                      # restore m = N
    gates += sub_x                                    # y = result - a, re-derives the flag
    gates.append(MCX([(y_top, True)], f))             # clear the flag reversibly
    gates += add_x                                    # y = result
    return gates


def modular_adder(n: int, N: int) -> Circuit:
    """|a>|b>|N>|0> -> |a>|(a+b) mod N>|N>|0> for a, b < N = 2**n - 1.

    Registers x, y (the adder's, y receiving the sum), c, m and the flag
    "ctrl", from qubit 0.  The modulus register m must be pre-loaded with N
    and comes back holding N; the flag enters and exits |0>.
    """
    k = require_supported_modulus(N)
    if k != n:
        raise ValueError(f"modulus {N} needs {k}-bit registers, not {n}")
    registers = _pack(0, ("x", n), ("y", n + 1), ("c", n), ("m", n), ("ctrl", 1))
    return _circuit(registers, _modadd_gates(*registers, N))


def _modmul_gates(ctrl: int, x: Register, t: Register, b: Register, modadd: list[Gate],
                  a: int, N: int) -> list[Gate]:
    # ``modadd`` adds t into the accumulator b modulo N; each input bit loads
    # its shifted constant into t around one run of it.
    gates: list[Gate] = []
    for j, xq in enumerate(x.qubits):
        load = [CCX(ctrl, xq, q) for q in t.ones((a << j) % N)]
        gates += load
        gates += modadd
        gates += load  # constants XOR back out; the adder left t unchanged
    for j, xq in enumerate(x.qubits):
        gates.append(MCX([(ctrl, False), (xq, True)], b.qubits[j]))
    return gates


def controlled_modular_multiplier(a: int, N: int) -> Circuit:
    """ctrl=1: |x>|0> -> |x>|a*x mod N>; ctrl=0: |x>|0> -> |x>|x>.

    Registers ctrl, x, the constant temp t, the accumulator B, c, m and the
    flag "mctrl", from qubit 0.  The modulus register m must be pre-loaded
    with N.  ``a`` must be < N; when chained inside modular exponentiation it
    must also be coprime with N so the clearing multiplier exists.
    """
    n = require_supported_modulus(N)
    if not 0 <= a < N:
        raise ValueError(f"multiplier constant {a} out of range for modulus {N}")
    registers = _pack(
        0, ("ctrl", 1), ("x", n), ("t", n), ("B", n + 1), ("c", n), ("m", n), ("mctrl", 1)
    )
    ctrl, x, t, b, c, m, flag = registers
    modadd = _modadd_gates(t, b, c, m, flag, N)
    return _circuit(registers, _modmul_gates(ctrl.qubits[0], x, t, b, modadd, a, N))


def modexp_circuit(g: int, N: int, exponent_bits: int, base: int = 0) -> Circuit:
    """|x>|A=1>|B=0> -> |x>|A = g**x mod N>|B=0>, workspaces restored.

    Registers x, A, B, the constant temp t, c, m and the flag "mctrl", on
    consecutive qubits from ``base``; the qubits below ``base`` are left
    free for the caller.  Caller sets A to |1>; the modulus register is
    loaded and cleared inside the circuit, so every other register starts
    and ends at |0>.  The result always lands in A: each exponent bit runs
    multiply, swap, un-multiply, which leaves the running product in A and a
    clean |0> in B.
    """
    n = require_supported_modulus(N)
    if math.gcd(g, N) != 1:
        raise ValueError(f"base {g} shares a factor with modulus {N}")
    if exponent_bits < 1:
        raise ValueError("need at least one exponent bit")
    registers = _pack(
        base, ("x", exponent_bits), ("A", n), ("B", n + 1), ("t", n), ("c", n), ("m", n),
        ("mctrl", 1),
    )
    x, a, b, t, c, m, flag = registers
    # Workspace B is the modular adder's sum register; its top bit is adder scratch.
    modadd = _modadd_gates(t, b, c, m, flag, N)
    load_m = [X(q) for q in m.ones(N)]
    swap = [SWAP(a_q, b_q) for a_q, b_q in zip(a.qubits, b.qubits)]
    gates: list[Gate] = list(load_m)  # m <- N
    factor = g % N
    for xq in x.qubits:
        gates += _modmul_gates(xq, a, t, b, modadd, factor, N)
        gates += swap
        gates += _modmul_gates(xq, a, t, b, modadd, mod_inverse(factor, N), N)[::-1]
        factor = (factor * factor) % N
    gates += load_m  # m -> |0>
    return _circuit(registers, gates)


# Exhaustive verification against classical integer arithmetic.

@dataclass
class CheckReport:
    family: str
    cases: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.family}: {self.cases - len(self.failures)}/{self.cases} {status}"


def _run_basis(circuit: Circuit, basis: int) -> int:
    """The basis index ``circuit`` takes |basis> to.  The state is read as
    its support, which for these X/MCX/SWAP circuits stays one pair, so past
    3 qubits (where SUPPORT_MAX_SHARE leaves room for one) no case
    allocates its 2**q amplitudes.  Anything but exactly one nonzero
    amplitude, equal to 1.0, raises RuntimeError naming the largest."""
    state = new_state(circuit.num_qubits, basis)
    apply_circuit(state, circuit)
    idx, vals = state.support()
    if idx.size != 1 or vals[0] != 1.0:
        peak = vals[np.lexsort((idx, -np.abs(vals)))[0]]  # first largest in index order
        raise RuntimeError(f"basis input {basis} produced a non-classical state (peak {peak})")
    return int(idx[0])


def _failures(circuit: Circuit, cases) -> tuple[int, list[str]]:
    # Runs each (label, inputs, outputs) case, values keyed by register name,
    # on its basis state, and returns the case count and the failures.  A
    # register named in outputs must come back holding that value; every
    # other register must come back holding its input, or 0 if it had none.
    # Cases arrive one at a time, so a state past the cap stops the first.
    registers = circuit.registers
    count = 0
    failures: list[str] = []
    for count, (label, inputs, outputs) in enumerate(cases, 1):
        basis = 0
        for name, value in inputs.items():
            basis |= registers[name].place_value(value)
        out = _run_basis(circuit, basis)
        for name, reg in registers.items():
            want = outputs.get(name, inputs.get(name, 0))
            got = reg.value_of(out)
            if got != want:
                failures.append(f"{label}: register {name} = {got}, expected {want}")
    return count, failures


def check_adder(n: int, inverse_direction: bool = False) -> CheckReport:
    """Exhaustive a + b (or subtraction via the inverse) over all n-bit pairs."""
    circuit = adder(n)
    pairs = ((a, b) for a in range(1 << n) for b in range(1 << n))
    if inverse_direction:
        circuit = inverse(circuit)
        cases = ((f"sub a={a} s={a + b}", {"x": a, "y": a + b}, {"y": b}) for a, b in pairs)
    else:
        cases = ((f"add a={a} b={b}", {"x": a, "y": b}, {"y": a + b}) for a, b in pairs)
    family = f"adder{'^-1' if inverse_direction else ''} n={n}"
    return CheckReport(family, *_failures(circuit, cases))


def check_modular_adder(N: int) -> CheckReport:
    n = require_supported_modulus(N)
    circuit = modular_adder(n, N)
    cases = (
        (f"modadd a={a} b={b}", {"x": a, "y": b, "m": N}, {"y": (a + b) % N})
        for a in range(N) for b in range(N)
    )
    return CheckReport(f"modadd N={N}", *_failures(circuit, cases))


def check_modular_multiplier(N: int, constants=None) -> CheckReport:
    require_supported_modulus(N)
    count = 0
    failures: list[str] = []
    for a in constants if constants is not None else range(1, N):
        circuit = controlled_modular_multiplier(a, N)
        cases = (
            (f"modmul a={a} x={x} ctrl={ctrl}", {"ctrl": ctrl, "x": x, "m": N},
             {"B": (a * x) % N if ctrl else x})
            for ctrl in (0, 1) for x in range(N)
        )
        cases_run, failed = _failures(circuit, cases)
        count += cases_run
        failures += failed
    return CheckReport(f"modmul N={N}", count, failures)


def check_modexp(g: int, N: int, exponent_bits: int | None = None) -> CheckReport:
    n = require_supported_modulus(N)
    bits = exponent_bits if exponent_bits is not None else n
    circuit = modexp_circuit(g, N, bits)
    cases = ((f"modexp x={x}", {"x": x, "A": 1}, {"A": pow(g, x, N)}) for x in range(1 << bits))
    return CheckReport(f"modexp g={g} N={N}", *_failures(circuit, cases))
