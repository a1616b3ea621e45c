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


# Layouts.  Registers are plain qubit groups; the default allocators pack
# them contiguously from a base offset.

@dataclass(frozen=True)
class AdderLayout:
    x: Register  # n qubits, left unchanged
    y: Register  # n + 1 qubits, receives the sum; top qubit is the carry out
    c: Register  # n scratch carry qubits, restored to |0>

    @property
    def width(self) -> int:
        return len(self.x.qubits)

    def validate(self) -> None:
        n = self.width
        if len(self.y.qubits) != n + 1 or len(self.c.qubits) != n:
            raise ValueError("adder layout sizes must be x:n, y:n+1, c:n")
        all_q = self.x.qubits + self.y.qubits + self.c.qubits
        if len(set(all_q)) != len(all_q):
            raise ValueError("adder layout registers overlap")


@dataclass(frozen=True)
class ModularLayout:
    adder: AdderLayout
    m: Register  # n qubits holding the modulus throughout
    ctrl: int    # flag ancilla, enters and exits |0>

    def validate(self) -> None:
        self.adder.validate()
        n = self.adder.width
        if len(self.m.qubits) != n:
            raise ValueError("modulus register must match the adder width")
        all_q = (
            self.adder.x.qubits + self.adder.y.qubits + self.adder.c.qubits
            + self.m.qubits + (self.ctrl,)
        )
        if len(set(all_q)) != len(all_q):
            raise ValueError("modular layout registers overlap")


@dataclass(frozen=True)
class MultiplierLayout:
    ctrl: int        # outer control: multiply when 1, copy input when 0
    x: Register      # input register (unchanged)
    inner: ModularLayout  # inner.adder.x holds shifted constants, inner.adder.y accumulates

    def validate(self) -> None:
        self.inner.validate()
        if len(self.x.qubits) > self.inner.adder.width:
            raise ValueError("input register wider than the accumulator")


@dataclass(frozen=True)
class ModExpLayout:
    x: Register      # exponent input
    a: Register      # workspace A: enters |1>, exits holding the result
    b: Register      # workspace B: enters and exits |0> (top bit is adder scratch)
    inner: ModularLayout  # inner.adder.y is b; inner.adder.x is the constant temp

    def validate(self) -> None:
        self.inner.validate()
        if len(self.a.qubits) != self.inner.adder.width:
            raise ValueError("workspace A must match the modulus width")
        if self.inner.adder.y is not self.b and self.inner.adder.y.qubits != self.b.qubits:
            raise ValueError("workspace B must be the inner adder's sum register")


def adder_layout(n: int, base: int = 0) -> AdderLayout:
    x = Register("x", tuple(range(base, base + n)))
    y = Register("y", tuple(range(base + n, base + 2 * n + 1)))
    c = Register("c", tuple(range(base + 2 * n + 1, base + 3 * n + 1)))
    return AdderLayout(x, y, c)


def modular_layout(n: int, base: int = 0) -> ModularLayout:
    adder = adder_layout(n, base)
    m = Register("m", tuple(range(base + 3 * n + 1, base + 4 * n + 1)))
    return ModularLayout(adder, m, base + 4 * n + 1)


def multiplier_layout(n: int, input_width: int | None = None, base: int = 0) -> MultiplierLayout:
    w = n if input_width is None else input_width
    x = Register("x", tuple(range(base + 1, base + 1 + w)))
    inner = modular_layout(n, base + 1 + w)
    return MultiplierLayout(base, x, inner)


def modexp_layout(N: int, exponent_bits: int, base: int = 0) -> ModExpLayout:
    n = N.bit_length()
    x = Register("x", tuple(range(base, base + exponent_bits)))
    a = Register("A", tuple(range(base + exponent_bits, base + exponent_bits + n)))
    off = base + exponent_bits + n
    b = Register("B", tuple(range(off, off + n + 1)))
    off += n + 1
    t = Register("t", tuple(range(off, off + n)))
    off += n
    c = Register("c", tuple(range(off, off + n)))
    off += n
    m = Register("m", tuple(range(off, off + n)))
    off += n
    inner = ModularLayout(AdderLayout(t, b, c), m, off)
    return ModExpLayout(x, a, b, inner)


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
    n = layout.width
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


def adder(n: int, layout: AdderLayout | None = None) -> Circuit:
    """|a>|b>|0> -> |a>|a+b>|0>; the inverse subtracts, flagging overflow on
    y's top qubit."""
    if n < 1:
        raise ValueError("adder needs n >= 1")
    layout = layout or adder_layout(n)
    layout.validate()
    if layout.width != n:
        raise ValueError(f"layout is {layout.width} bits wide, expected {n}")
    top = max(layout.x.qubits + layout.y.qubits + layout.c.qubits)
    circuit = Circuit(top + 1, _adder_gates(layout))
    for reg in (layout.x, layout.y, layout.c):
        circuit.add_register(reg)
    return circuit


def _modulus_fan(ctrl: int, m: Register, N: int) -> list[Gate]:
    # Flips m between |N> and |0>; one CNOT per set bit of N.
    return [CNOT(ctrl, m.qubits[j]) for j in range(len(m.qubits)) if N >> j & 1]


def _modadd_gates(layout: ModularLayout, N: int) -> list[Gate]:
    ad = layout.adder
    y_top = ad.y.qubits[-1]
    add_x = _adder_gates(ad)
    sub_x = [g for g in reversed(add_x)]
    m_adder = AdderLayout(layout.m, ad.y, ad.c)
    add_m = _adder_gates(m_adder)
    sub_m = [g for g in reversed(add_m)]
    fan = _modulus_fan(layout.ctrl, layout.m, N)

    gates: list[Gate] = []
    gates += add_x                                    # y = a + b
    gates += sub_m                                    # y = a + b - N, top bit = borrow
    gates.append(MCX([(y_top, False)], layout.ctrl))  # ctrl = 1 iff no borrow
    gates += fan                                      # ctrl ? m <- 0 : m stays N
    gates += add_m                                    # re-add N only when borrowed
    gates += fan                                      # restore m = N
    gates += sub_x                                    # y = result - a, re-derives the flag
    gates.append(MCX([(y_top, True)], layout.ctrl))   # clear ctrl reversibly
    gates += add_x                                    # y = result
    return gates


def modular_adder(n: int, N: int, layout: ModularLayout | None = None) -> Circuit:
    """|a>|b>|N>|0> -> |a>|(a+b) mod N>|N>|0> for a, b < N = 2**n - 1.

    The modulus register must be pre-loaded with N and comes back holding N;
    the flag ancilla enters and exits |0>.
    """
    k = require_supported_modulus(N)
    if k != n:
        raise ValueError(f"modulus {N} needs {k}-bit registers, layout asks for {n}")
    layout = layout or modular_layout(n)
    layout.validate()
    qubits = (
        layout.adder.x.qubits + layout.adder.y.qubits + layout.adder.c.qubits
        + layout.m.qubits + (layout.ctrl,)
    )
    circuit = Circuit(max(qubits) + 1, _modadd_gates(layout, N))
    for reg in (layout.adder.x, layout.adder.y, layout.adder.c, layout.m):
        circuit.add_register(reg)
    circuit.add_register(Register("ctrl", (layout.ctrl,)))
    return circuit


def _modmul_gates(layout: MultiplierLayout, a: int, N: int) -> list[Gate]:
    inner = layout.inner
    temp = inner.adder.x    # receives the shifted constants
    acc = inner.adder.y
    gates: list[Gate] = []
    for j, xq in enumerate(layout.x.qubits):
        const = (a << j) % N
        load = [
            CCX(layout.ctrl, xq, temp.qubits[k])
            for k in range(len(temp.qubits))
            if const >> k & 1
        ]
        gates += load
        gates += _modadd_gates(inner, N)
        gates += load  # constants XOR back out; the adder left temp unchanged
    for j, xq in enumerate(layout.x.qubits):
        gates.append(MCX([(layout.ctrl, False), (xq, True)], acc.qubits[j]))
    return gates


def controlled_modular_multiplier(a: int, N: int, layout: MultiplierLayout | None = None) -> Circuit:
    """ctrl=1: |x>|0> -> |x>|a*x mod N>; ctrl=0: |x>|0> -> |x>|x>.

    The modulus register must be pre-loaded with N.  ``a`` must be < N; when
    chained inside modular exponentiation it must also be coprime with N so
    the clearing multiplier exists.
    """
    require_supported_modulus(N)
    if not 0 <= a < N:
        raise ValueError(f"multiplier constant {a} out of range for modulus {N}")
    layout = layout or multiplier_layout(N.bit_length())
    layout.validate()
    inner = layout.inner
    qubits = (
        (layout.ctrl,) + layout.x.qubits + inner.adder.x.qubits + inner.adder.y.qubits
        + inner.adder.c.qubits + inner.m.qubits + (inner.ctrl,)
    )
    circuit = Circuit(max(qubits) + 1, _modmul_gates(layout, a, N))
    circuit.add_register(Register("ctrl", (layout.ctrl,)))
    circuit.add_register(layout.x)
    circuit.add_register(Register("t", inner.adder.x.qubits))
    circuit.add_register(Register("B", inner.adder.y.qubits))
    circuit.add_register(inner.adder.c)
    circuit.add_register(inner.m)
    circuit.add_register(Register("mctrl", (inner.ctrl,)))
    return circuit


def _modexp_gates(layout: ModExpLayout, g: int, N: int) -> list[Gate]:
    inner = layout.inner
    gates: list[Gate] = []
    gates += [X(q) for j, q in enumerate(inner.m.qubits) if N >> j & 1]  # m <- N
    factor = g % N
    for xq in layout.x.qubits:
        bit_layout = MultiplierLayout(xq, layout.a, inner)
        gates += _modmul_gates(bit_layout, factor, N)
        gates += [SWAP(a_q, b_q) for a_q, b_q in zip(layout.a.qubits, layout.b.qubits)]
        clear = _modmul_gates(bit_layout, mod_inverse(factor, N), N)
        gates += [gate for gate in reversed(clear)]
        factor = (factor * factor) % N
    gates += [X(q) for j, q in enumerate(inner.m.qubits) if N >> j & 1]  # m -> |0>
    return gates


def modexp_circuit(g: int, N: int, exponent_bits: int, layout: ModExpLayout | None = None) -> Circuit:
    """|x>|A=1>|B=0> -> |x>|A = g**x mod N>|B=0>, workspaces restored.

    Caller sets A to |1>; the modulus register is loaded and cleared inside
    the circuit, so every other register starts and ends at |0>.  The result
    always lands in A: each exponent bit runs multiply, swap, un-multiply,
    which leaves the running product in A and a clean |0> in B.
    """
    require_supported_modulus(N)
    if math.gcd(g, N) != 1:
        raise ValueError(f"base {g} shares a factor with modulus {N}")
    if exponent_bits < 1:
        raise ValueError("need at least one exponent bit")
    layout = layout or modexp_layout(N, exponent_bits)
    layout.validate()
    inner = layout.inner
    qubits = (
        layout.x.qubits + layout.a.qubits + layout.b.qubits
        + inner.adder.x.qubits + inner.adder.c.qubits + inner.m.qubits + (inner.ctrl,)
    )
    circuit = Circuit(max(qubits) + 1, _modexp_gates(layout, g, N))
    circuit.add_register(layout.x)
    circuit.add_register(layout.a)
    circuit.add_register(layout.b)
    circuit.add_register(Register("t", inner.adder.x.qubits))
    circuit.add_register(inner.adder.c)
    circuit.add_register(inner.m)
    circuit.add_register(Register("mctrl", (inner.ctrl,)))
    return circuit


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


def _expect(failures: list[str], circuit: Circuit, basis: int, expected: dict[Register, int],
            label: str) -> None:
    out = _run_basis(circuit, basis)
    for reg, want in expected.items():
        got = reg.value_of(out)
        if got != want:
            failures.append(f"{label}: register {reg.name} = {got}, expected {want}")


def check_adder(n: int, inverse_direction: bool = False) -> CheckReport:
    """Exhaustive a + b (or subtraction via the inverse) over all n-bit pairs."""
    layout = adder_layout(n)
    circuit = adder(n, layout)
    if inverse_direction:
        circuit = inverse(circuit)
    failures: list[str] = []
    cases = 0
    for a in range(1 << n):
        for b in range(1 << n):
            cases += 1
            if inverse_direction:
                basis = layout.x.place_value(a) | layout.y.place_value(a + b)
                expected = {layout.x: a, layout.y: b, layout.c: 0}
                label = f"sub a={a} s={a + b}"
            else:
                basis = layout.x.place_value(a) | layout.y.place_value(b)
                expected = {layout.x: a, layout.y: a + b, layout.c: 0}
                label = f"add a={a} b={b}"
            _expect(failures, circuit, basis, expected, label)
    family = f"adder{'^-1' if inverse_direction else ''} n={n}"
    return CheckReport(family, cases, failures)


def check_modular_adder(N: int) -> CheckReport:
    n = require_supported_modulus(N)
    layout = modular_layout(n)
    circuit = modular_adder(n, N, layout)
    ctrl_reg = Register("ctrl", (layout.ctrl,))
    failures: list[str] = []
    cases = 0
    for a in range(N):
        for b in range(N):
            cases += 1
            basis = (
                layout.adder.x.place_value(a)
                | layout.adder.y.place_value(b)
                | layout.m.place_value(N)
            )
            expected = {
                layout.adder.x: a,
                layout.adder.y: (a + b) % N,
                layout.adder.c: 0,
                layout.m: N,
                ctrl_reg: 0,
            }
            _expect(failures, circuit, basis, expected, f"modadd a={a} b={b}")
    return CheckReport(f"modadd N={N}", cases, failures)


def check_modular_multiplier(N: int, constants=None) -> CheckReport:
    n = require_supported_modulus(N)
    failures: list[str] = []
    cases = 0
    constants = list(constants) if constants is not None else list(range(1, N))
    for a in constants:
        layout = multiplier_layout(n)
        circuit = controlled_modular_multiplier(a, N, layout)
        ctrl_reg = Register("ctrl", (layout.ctrl,))
        mctrl_reg = Register("mctrl", (layout.inner.ctrl,))
        acc = layout.inner.adder.y
        for ctrl in (0, 1):
            for x in range(N):
                cases += 1
                basis = ctrl_reg.place_value(ctrl) | layout.x.place_value(x) \
                    | layout.inner.m.place_value(N)
                expected = {
                    layout.x: x,
                    acc: (a * x) % N if ctrl else x,
                    layout.inner.adder.x: 0,
                    layout.inner.adder.c: 0,
                    layout.inner.m: N,
                    ctrl_reg: ctrl,
                    mctrl_reg: 0,
                }
                _expect(failures, circuit, basis, expected, f"modmul a={a} x={x} ctrl={ctrl}")
    return CheckReport(f"modmul N={N}", cases, failures)


def check_modexp(g: int, N: int, exponent_bits: int | None = None) -> CheckReport:
    n = require_supported_modulus(N)
    bits = exponent_bits if exponent_bits is not None else n
    layout = modexp_layout(N, bits)
    circuit = modexp_circuit(g, N, bits, layout)
    failures: list[str] = []
    cases = 0
    mctrl_reg = Register("mctrl", (layout.inner.ctrl,))
    for x in range(1 << bits):
        cases += 1
        basis = layout.x.place_value(x) | layout.a.place_value(1)
        expected = {
            layout.x: x,
            layout.a: pow(g, x, N),
            layout.b: 0,
            layout.inner.adder.x: 0,
            layout.inner.adder.c: 0,
            layout.inner.m: 0,
            mctrl_reg: 0,
        }
        _expect(failures, circuit, basis, expected, f"modexp x={x}")
    return CheckReport(f"modexp g={g} N={N}", cases, failures)
