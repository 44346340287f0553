"""Exact state-vector dynamics of the qubit register under Ising coupling and RWA drives.

The register is a plain complex ndarray of 2^n amplitudes, which the
kernels below update in place and return. Basis convention: basis index b
has qubit n in state |1> iff bit (n-1) of b is set, and sigma_z eigenvalues
are s_n = +1 for |1>, -1 for |0>. Labels list qubit 1 first, so
initialize(2, "10") puts qubit 1 in |1> (index 1).

The register evolves in each qubit's own carrier frame, where the
Hamiltonian between pulses is diagonal and holds only the J couplings,

    E(b)/hbar = -(1/2) sum_{n<l} J_nl s_n(b) s_l(b),

so free evolution is exact phase accumulation. diagonal_rates builds this
table from J; free_evolution and apply_pulse take it as `rates`, and
pulse.interpret builds it once per run. A single-tone drive on one
qubit, w from its carrier, splits the register into independent 2x2 blocks,
one per spectator configuration; each sees detuning delta = -w - sum_l J_jl s_l
and rotates at sqrt(Omega^2 + delta^2). This blockwise treatment is exact
under the rotating wave approximation, with no time stepping. Simultaneous
multi-tone drives are rejected, as exactness needs one tone at a time.

Flipping every spin, b -> ~b = 2^n - 1 - b, negates every s_n and keeps
every product s_n s_l, so every table is even under the flip: E(b) = E(~b)
bitwise. The energies are summed over the lower half of the basis (qubit n
in |0>) and mirrored, and free evolution exponentiates only that half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 16        # 1 MiB of complex128 amplitudes


@dataclass(frozen=True)
class SpinHamiltonian:
    """J couplings of the register, in rad/s, in each qubit's carrier frame."""

    coupling: np.ndarray   # J, rad/s, symmetric, zero diagonal

    def __post_init__(self):
        j = np.asarray(self.coupling, dtype=float)
        object.__setattr__(self, "coupling", j)
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError(f"coupling matrix shape {j.shape} is not square")
        if not np.allclose(j, j.T, rtol=1e-12, atol=0.0):
            raise ValueError("coupling matrix must be symmetric")

    @property
    def omega_eff(self) -> np.ndarray:
        """Zeros for perfbench/tracer.py's Hamiltonian key, its only reader; it goes when that key drops it."""
        return np.zeros(len(self.coupling))


def _lower_sign_table(n: int) -> np.ndarray:
    """s[b, q] = +/-1 for qubit q+1 in basis state b, over the lower half b < 2^(n-1) (qubit n in |0>)."""
    b = np.arange(1 << (n - 1), dtype=np.int64)
    bits = (b[:, None] >> np.arange(n)[None, :]) & 1
    return 2.0 * bits - 1.0


def diagonal_rates(h: SpinHamiltonian) -> np.ndarray:
    """E(b)/hbar for every basis state, rad/s: the energy table the kernels below take as `rates`."""
    lower = _lower_sign_table(len(h.coupling))  # row ~b is minus row b
    pair = 0.25 * np.einsum("bn,nl,bl->b", lower, h.coupling, lower)  # half of n<l double count
    return 0.0 - np.concatenate((pair, pair[::-1]))  # +0.0 where pair is +0.0; plain negation gives -0.0


def initialize(n: int, basis_label: str) -> np.ndarray:
    """Register of n qubits in the labeled computational basis state."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"register of {n} qubits exceeds the supported maximum of {MAX_QUBITS}")
    if len(basis_label) != n or any(c not in "01" for c in basis_label):
        raise ValueError(f"label {basis_label!r} is not a {n}-bit string of 0s and 1s")
    index = sum(1 << q for q, c in enumerate(basis_label) if c == "1")
    state = np.zeros(1 << n, dtype=complex)
    state[index] = 1.0
    return state


def _pairs(a: np.ndarray, ion: int) -> np.ndarray:
    """View of basis vector `a` as (blocks, 2, 2^(ion-1)): [:, 0] has qubit `ion` in |0>, [:, 1] in |1>."""
    n = a.size.bit_length() - 1
    if not 1 <= ion <= n:
        raise ValueError(f"ion index {ion} out of range [1, {n}]")
    return a.reshape(-1, 2, 1 << (ion - 1))


def free_evolution(state: np.ndarray, rates: np.ndarray, t: float) -> np.ndarray:
    """Diagonal evolution: amplitude b picks up exp(-i rates[b] t), one exponential per flip pair b, ~b."""
    if t < 0.0:
        raise ValueError("evolution time must be non-negative")
    phases = np.exp(-1j * rates[: rates.size // 2] * t)
    state *= np.concatenate((phases, phases[::-1]))
    return state


def _block_unitary(delta: np.ndarray, omega_r: float, phase: float, tau: float):
    """2x2 propagators of [[0, (W/2)e^{-i phi}], [(W/2)e^{i phi}, delta]] for each block."""
    effective = np.hypot(delta, omega_r)
    half_angle = 0.5 * effective * tau
    cos = np.cos(half_angle)
    # sin(x)/x stays finite for unresolved blocks (effective ~ 0)
    sinc = np.where(effective > 0.0, np.sin(half_angle) / np.where(effective > 0.0, effective, 1.0), 0.5 * tau)
    common = np.exp(-0.5j * delta * tau)
    # From 16,384 blocks (256 KiB arrays) on, numpy's temporary elision evaluates these two products as
    # (cos +/- ...) * common, and its AVX-512 complex multiply is not bitwise commutative: 15- and
    # 16-qubit amplitudes depend on that heuristic. Pinning one order changes output bytes.
    u00 = common * (cos + 1j * delta * sinc)
    u11 = common * (cos - 1j * delta * sinc)
    coupling = -1j * omega_r * sinc * common
    u01 = coupling * np.exp(-1j * phase)
    u10 = coupling * np.exp(1j * phase)
    return u00, u01, u10, u11


def apply_pulse(state: np.ndarray, rates: np.ndarray, ion: int, rabi: float, tone: float, phase: float,
                duration: float) -> np.ndarray:
    """Exact RWA evolution for one single-tone pulse on qubit `ion` (1-based).

    The drive has Rabi rate `rabi` >= 0 and tone `tone` from the qubit's
    carrier, both in rad/s, phase `phase` in rad and length `duration` >= 0 s.
    Every spectator configuration c defines an independent 2x2 block with
    detuning delta(c); spectator phases accumulate exactly alongside. The
    drive phase is taken at the pulse's local t = 0 (pulse.interpret, in the
    synthesizer frame where the tone is the detune, shifts it by -tone * t_start).
    """
    if rabi < 0.0:
        raise ValueError("Rabi frequency must be non-negative")
    if duration < 0.0:
        raise ValueError("pulse duration must be non-negative")
    if state.size != rates.size:
        raise ValueError("state size does not match the energy table")

    # contiguous 1-D copies in basis order for the arithmetic, written back through the views
    pairs = _pairs(rates, ion)
    r0, r1 = pairs[:, 0].ravel(), pairs[:, 1].ravel()
    amps = _pairs(state, ion)
    a0, a1 = amps[:, 0].ravel(), amps[:, 1].ravel()

    delta = r1 - r0 - tone
    u00, u01, u10, u11 = _block_unitary(delta, rabi, phase, duration)

    new0 = u00 * a0 + u01 * a1
    new1 = u10 * a0 + u11 * a1
    # back out of the per-block rotating frame into the carrier frame of `rates`
    lab0 = np.exp(-1j * r0 * duration)
    amps[:, 0] = (lab0 * new0).reshape(-1, amps.shape[2])
    amps[:, 1] = (lab0 * np.exp(-1j * tone * duration) * new1).reshape(-1, amps.shape[2])
    return state


_OBSERVABLES = ("sx", "sy", "sz")


def expectation(state: np.ndarray, observable: str, ion: int) -> float:
    """<sigma_alpha> of one qubit, alpha in {sx, sy, sz}."""
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}, got {observable!r}")
    amps = _pairs(state, ion)
    if observable == "sz":
        signs = np.full(state.size, -1.0)
        _pairs(signs, ion)[:, 1] = 1.0
        return float(np.sum(signs * np.abs(state) ** 2))
    cross = np.sum(np.conj(amps[:, 0].ravel()) * amps[:, 1].ravel())
    if observable == "sx":
        return float(2.0 * cross.real)
    return float(-2.0 * cross.imag)  # sy = i|0><1| - i|1><0| in this sign convention
