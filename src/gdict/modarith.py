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
constructors' docstrings give the names in qubit order.  The small layouts
(``AdderLayout``, ``ModularLayout``, ``MultiplierLayout``) only group a
stage's registers for the gate builders, which reuse them stage by stage.

Supported moduli are N = 2**k - 1 (validated); a and b occupy k qubits.  The
borrow-flag logic is only claimed for this family here; exhaustive
simulation against classical integer arithmetic is the correctness arbiter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedModulusError
from .sim import (
    CCX,
    CNOT,
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


# Layouts: a stage's registers, grouped for the gate builders.

@dataclass(frozen=True)
class AdderLayout:
    x: Register  # n qubits, left unchanged
    y: Register  # n + 1 qubits, receives the sum; top qubit is the carry out
    c: Register  # n scratch carry qubits, restored to |0>


@dataclass(frozen=True)
class ModularLayout:
    adder: AdderLayout
    m: Register     # n qubits holding the modulus throughout
    flag: Register  # one ancilla qubit, enters and exits |0>


@dataclass(frozen=True)
class MultiplierLayout:
    ctrl: int        # outer control: multiply when 1, copy input when 0
    x: Register      # input register (unchanged)
    inner: ModularLayout  # inner.adder.x holds shifted constants, inner.adder.y accumulates


def _pack(base: int, *sizes: tuple[str, int]) -> list[Register]:
    # Registers of the given names and widths on consecutive qubits from base.
    registers = []
    for name, width in sizes:
        registers.append(Register(name, tuple(range(base, base + width))))
        base += width
    return registers


def _circuit(registers: list[Register], gates: list[Gate]) -> Circuit:
    # The circuit over ``registers``, declared in their order.
    circuit = Circuit(max(q for reg in registers for q in reg.qubits) + 1, gates)
    for reg in registers:
        circuit.add_register(reg)
    return circuit


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


def _adder_gates(layout: AdderLayout) -> list[Gate]:
    n = len(layout.x.qubits)
    xq, yq, cq = layout.x.qubits, layout.y.qubits, layout.c.qubits
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
    return _circuit(registers, _adder_gates(AdderLayout(*registers)))


def _modadd_gates(layout: ModularLayout, N: int) -> list[Gate]:
    ad = layout.adder
    y_top = ad.y.qubits[-1]
    flag = layout.flag.qubits[0]
    add_x = _adder_gates(ad)
    sub_x = [g for g in reversed(add_x)]
    m_adder = AdderLayout(layout.m, ad.y, ad.c)
    add_m = _adder_gates(m_adder)
    sub_m = [g for g in reversed(add_m)]
    fan = [CNOT(flag, q) for q in layout.m.ones(N)]  # flips m between |N> and |0>

    gates: list[Gate] = []
    gates += add_x                                    # y = a + b
    gates += sub_m                                    # y = a + b - N, top bit = borrow
    gates.append(MCX([(y_top, False)], flag))         # flag = 1 iff no borrow
    gates += fan                                      # flag ? m <- 0 : m stays N
    gates += add_m                                    # re-add N only when borrowed
    gates += fan                                      # restore m = N
    gates += sub_x                                    # y = result - a, re-derives the flag
    gates.append(MCX([(y_top, True)], flag))          # clear the flag reversibly
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
    x, y, c, m, flag = registers
    return _circuit(registers, _modadd_gates(ModularLayout(AdderLayout(x, y, c), m, flag), N))


def _modmul_gates(layout: MultiplierLayout, a: int, N: int) -> list[Gate]:
    inner = layout.inner
    temp = inner.adder.x    # receives the shifted constants
    acc = inner.adder.y
    gates: list[Gate] = []
    for j, xq in enumerate(layout.x.qubits):
        const = (a << j) % N
        load = [CCX(layout.ctrl, xq, q) for q in temp.ones(const)]
        gates += load
        gates += _modadd_gates(inner, N)
        gates += load  # constants XOR back out; the adder left temp unchanged
    for j, xq in enumerate(layout.x.qubits):
        gates.append(MCX([(layout.ctrl, False), (xq, True)], acc.qubits[j]))
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
    layout = MultiplierLayout(ctrl.qubits[0], x, ModularLayout(AdderLayout(t, b, c), m, flag))
    return _circuit(registers, _modmul_gates(layout, a, N))


def _modexp_gates(x: Register, a: Register, inner: ModularLayout, g: int, N: int) -> list[Gate]:
    # Workspace B is the inner adder's sum register; its top bit is adder scratch.
    b = inner.adder.y
    gates: list[Gate] = []
    gates += [X(q) for q in inner.m.ones(N)]  # m <- N
    factor = g % N
    for xq in x.qubits:
        bit_layout = MultiplierLayout(xq, a, inner)
        gates += _modmul_gates(bit_layout, factor, N)
        gates += [SWAP(a_q, b_q) for a_q, b_q in zip(a.qubits, b.qubits)]
        clear = _modmul_gates(bit_layout, mod_inverse(factor, N), N)
        gates += [gate for gate in reversed(clear)]
        factor = (factor * factor) % N
    gates += [X(q) for q in inner.m.ones(N)]  # m -> |0>
    return gates


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
    inner = ModularLayout(AdderLayout(t, b, c), m, flag)
    return _circuit(registers, _modexp_gates(x, a, inner, g, N))


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
    state = new_state(circuit.num_qubits, basis)
    apply_circuit(state, circuit)
    amps = state.amplitudes
    idx = int(np.argmax(np.abs(amps)))
    if abs(amps[idx] - 1.0) > 1e-9:
        raise AssertionError(
            f"basis input {basis} produced a non-classical state (peak {amps[idx]})"
        )
    return idx


def _failures(circuit: Circuit, cases) -> list[str]:
    # Runs each (label, inputs, outputs) case, values keyed by register name,
    # on its basis state.  A register named in outputs must come back holding
    # that value; every other register must come back holding its input, or 0
    # if it had none.
    registers = circuit.registers
    failures: list[str] = []
    for label, inputs, outputs in cases:
        basis = 0
        for name, value in inputs.items():
            basis |= registers[name].place_value(value)
        out = _run_basis(circuit, basis)
        for name, reg in registers.items():
            want = outputs.get(name, inputs.get(name, 0))
            got = reg.value_of(out)
            if got != want:
                failures.append(f"{label}: register {name} = {got}, expected {want}")
    return failures


def check_adder(n: int, inverse_direction: bool = False) -> CheckReport:
    """Exhaustive a + b (or subtraction via the inverse) over all n-bit pairs."""
    circuit = adder(n)
    pairs = [(a, b) for a in range(1 << n) for b in range(1 << n)]
    if inverse_direction:
        circuit = inverse(circuit)
        cases = [(f"sub a={a} s={a + b}", {"x": a, "y": a + b}, {"y": b}) for a, b in pairs]
    else:
        cases = [(f"add a={a} b={b}", {"x": a, "y": b}, {"y": a + b}) for a, b in pairs]
    family = f"adder{'^-1' if inverse_direction else ''} n={n}"
    return CheckReport(family, len(cases), _failures(circuit, cases))


def check_modular_adder(N: int) -> CheckReport:
    n = require_supported_modulus(N)
    circuit = modular_adder(n, N)
    cases = [
        (f"modadd a={a} b={b}", {"x": a, "y": b, "m": N}, {"y": (a + b) % N})
        for a in range(N) for b in range(N)
    ]
    return CheckReport(f"modadd N={N}", len(cases), _failures(circuit, cases))


def check_modular_multiplier(N: int, constants=None) -> CheckReport:
    require_supported_modulus(N)
    constants = list(constants) if constants is not None else list(range(1, N))
    count = 0
    failures: list[str] = []
    for a in constants:
        circuit = controlled_modular_multiplier(a, N)
        cases = [
            (f"modmul a={a} x={x} ctrl={ctrl}", {"ctrl": ctrl, "x": x, "m": N},
             {"B": (a * x) % N if ctrl else x})
            for ctrl in (0, 1) for x in range(N)
        ]
        count += len(cases)
        failures += _failures(circuit, cases)
    return CheckReport(f"modmul N={N}", count, failures)


def check_modexp(g: int, N: int, exponent_bits: int | None = None) -> CheckReport:
    n = require_supported_modulus(N)
    bits = exponent_bits if exponent_bits is not None else n
    circuit = modexp_circuit(g, N, bits)
    cases = [(f"modexp x={x}", {"x": x, "A": 1}, {"A": pow(g, x, N)}) for x in range(1 << bits)]
    return CheckReport(f"modexp g={g} N={N}", len(cases), _failures(circuit, cases))
