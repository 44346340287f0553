"""Exact state-vector dynamics of the qubit register under Ising coupling and RWA drives.

Basis convention: basis index b has qubit n in state |1> iff bit (n-1) of
b is set, and sigma_z eigenvalues are s_n = +1 for |1>, -1 for |0>. Labels
list qubit 1 first, so initialize(2, "10") puts qubit 1 in |1> (index 1).

The Hamiltonian is diagonal between pulses,

    E(b)/hbar = (1/2) sum_n w_n s_n(b) - (1/2) sum_{n<l} J_nl s_n(b) s_l(b),

so free evolution is exact phase accumulation. A single-tone drive on one
qubit splits the register into independent 2x2 blocks, one per spectator
configuration; each block sees detuning delta = w_j - w - sum_l J_jl s_l
and rotates at the generalized Rabi frequency sqrt(Omega^2 + delta^2).
This blockwise treatment is exact under the rotating wave approximation,
with no time stepping. Simultaneous multi-tone drives are rejected rather
than approximated: the exactness guarantee needs one tone at a time.

Flipping every spin, b -> ~b = 2^n - 1 - b, negates every s_n and leaves
the pair term as it is, so that term is summed over the lower half of the
basis (qubit n in |0>) and mirrored. With omega_eff = 0, as in pulse.interpret's
frame, E(b) = E(~b) bitwise, and free evolution exponentiates only that half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_QUBITS = 16        # 1 MiB of complex128 amplitudes
BASIS_CONVENTION = "qubit n is bit (n-1) of the basis index; labels list qubit 1 first; sigma_z|1> = +|1>"


class BadLabelError(ValueError):
    pass


class StateTooLargeError(ValueError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"register of {n} qubits exceeds the supported maximum of {limit}")


@dataclass
class SpinState:
    """Owned, mutable amplitude vector over the computational basis."""

    amplitudes: np.ndarray

    @property
    def n_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1

    def norm(self) -> float:
        # einsum, not np.linalg.norm or a dot: their BLAS call leaves OpenBLAS threads spinning afterwards
        parts = np.ascontiguousarray(self.amplitudes, dtype=complex).view(np.float64)
        return math.sqrt(float(np.einsum("i,i->", parts, parts)))

    def to_json_dict(self) -> dict:
        """Amplitudes as a (2^n, 2) float array of [real, imag] rows; the CLI writes it as nested lists."""
        return {
            "basis_convention": BASIS_CONVENTION,
            "amplitudes": np.column_stack((self.amplitudes.real, self.amplitudes.imag)),
        }


@dataclass(frozen=True)
class SpinHamiltonian:
    """Qubit frequencies in the evolution's frame (zero in pulse.interpret's) and J couplings."""

    omega_eff: np.ndarray  # rad/s per qubit
    coupling: np.ndarray   # J, rad/s, symmetric, zero diagonal

    def __post_init__(self):
        omega = np.asarray(self.omega_eff, dtype=float)
        j = np.asarray(self.coupling, dtype=float)
        object.__setattr__(self, "omega_eff", omega)
        object.__setattr__(self, "coupling", j)
        n = omega.size
        if j.shape != (n, n):
            raise ValueError(f"coupling matrix shape {j.shape} does not match {n} qubits")
        if not np.allclose(j, j.T, rtol=1e-12, atol=0.0):
            raise ValueError("coupling matrix must be symmetric")

    @property
    def n_qubits(self) -> int:
        return int(self.omega_eff.size)

    @cached_property
    def rates(self) -> np.ndarray:
        """Read-only diagonal_rates(self), built on first use (2^n entries) and then reused."""
        rates = diagonal_rates(self)
        rates.flags.writeable = False
        return rates

    @cached_property
    def flip_symmetric(self) -> bool:
        """rates[b] and rates[~b] have the same bytes for every b (signed zeros count)."""
        return self.rates.tobytes() == self.rates[::-1].tobytes()


@dataclass(frozen=True)
class PulseSpec:
    """One single-tone drive: target ion (1-based), Rabi rate, tone, phase, duration."""

    target_ion: int
    rabi_frequency: float   # rad/s, >= 0
    drive_frequency: float  # rad/s
    phase: float            # rad
    duration: float         # s, >= 0

    def __post_init__(self):
        if self.rabi_frequency < 0.0:
            raise ValueError("Rabi frequency must be non-negative")
        if self.duration < 0.0:
            raise ValueError("pulse duration must be non-negative")


def _sign_table(n: int) -> np.ndarray:
    """s[b, q] = +/-1 for qubit q+1 in basis state b."""
    b = np.arange(1 << n, dtype=np.int64)
    bits = (b[:, None] >> np.arange(n)[None, :]) & 1
    return 2.0 * bits - 1.0


def diagonal_rates(h: SpinHamiltonian) -> np.ndarray:
    """E(b)/hbar for every basis state, rad/s."""
    s = _sign_table(h.n_qubits)
    linear = 0.5 * s @ h.omega_eff
    lower = s[: s.shape[0] // 2]  # row ~b is minus row b
    pair = 0.25 * np.einsum("bn,nl,bl->b", lower, h.coupling, lower)  # half of n<l double count
    return linear - np.concatenate((pair, pair[::-1]))


def initialize(n: int, basis_label: str) -> SpinState:
    """Register of n qubits in the labeled computational basis state."""
    if n < 1:
        raise BadLabelError(f"need at least one qubit, got {n}")
    if n > MAX_QUBITS:
        raise StateTooLargeError(n, MAX_QUBITS)
    if len(basis_label) != n or any(c not in "01" for c in basis_label):
        raise BadLabelError(f"label {basis_label!r} is not a {n}-bit string of 0s and 1s")
    index = sum(1 << q for q, c in enumerate(basis_label) if c == "1")
    amplitudes = np.zeros(1 << n, dtype=complex)
    amplitudes[index] = 1.0
    return SpinState(amplitudes)


def outcome_labels(indices: np.ndarray, n: int) -> list[str]:
    """n-character label of each outcome index, bit k first (basis labels when n = n_qubits)."""
    bits = (np.asarray(indices, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    return (bits.astype(np.uint8) + ord("0")).view(f"S{n}").ravel().astype(str).tolist()


def outcome_indices(basis: np.ndarray, ions: tuple[int, ...] | list[int]) -> np.ndarray:
    """Marginal outcome index over `ions` of each basis index: bit k is qubit ions[k]."""
    out = np.zeros_like(basis)
    for k, ion in enumerate(ions):
        out |= ((basis >> (ion - 1)) & 1) << k
    return out


def _pairs(a: np.ndarray, ion: int) -> np.ndarray:
    """View of basis vector `a` as (blocks, 2, 2^(ion-1)): [:, 0] has qubit `ion` in |0>, [:, 1] in |1>."""
    n = a.size.bit_length() - 1
    if not 1 <= ion <= n:
        raise ValueError(f"ion index {ion} out of range [1, {n}]")
    return a.reshape(-1, 2, 1 << (ion - 1))


def free_evolution(state: SpinState, h: SpinHamiltonian, t: float) -> SpinState:
    """Diagonal evolution: amplitude b picks up exp(-i E(b) t / hbar).

    The full-table branch serves only a nonzero omega_eff; it goes when ROADMAP item 5 deletes omega_eff.
    """
    if t < 0.0:
        raise ValueError("evolution time must be non-negative")
    if h.flip_symmetric:
        phases = np.exp(-1j * h.rates[: h.rates.size // 2] * t)
        state.amplitudes *= np.concatenate((phases, phases[::-1]))
    else:
        state.amplitudes *= np.exp(-1j * h.rates * t)
    return state


def _block_unitary(delta: np.ndarray, omega_r: float, phase: float, tau: float):
    """2x2 propagators of [[0, (W/2)e^{-i phi}], [(W/2)e^{i phi}, delta]] for each block."""
    effective = np.hypot(delta, omega_r)
    half_angle = 0.5 * effective * tau
    cos = np.cos(half_angle)
    # sin(x)/x stays finite for unresolved blocks (effective ~ 0)
    sinc = np.where(effective > 0.0, np.sin(half_angle) / np.where(effective > 0.0, effective, 1.0), 0.5 * tau)
    common = np.exp(-0.5j * delta * tau)
    u00 = common * (cos + 1j * delta * sinc)
    u11 = common * (cos - 1j * delta * sinc)
    coupling = -1j * omega_r * sinc * common
    u01 = coupling * np.exp(-1j * phase)
    u10 = coupling * np.exp(1j * phase)
    return u00, u01, u10, u11


def apply_pulse(state: SpinState, h: SpinHamiltonian, pulse: PulseSpec) -> SpinState:
    """Exact RWA evolution for one single-tone pulse on one target qubit.

    Every spectator configuration c defines an independent 2x2 block with
    detuning delta(c); spectator phases accumulate exactly alongside. The
    drive phase is taken at the pulse's local t = 0 (pulse.interpret, in the
    synthesizer frame where the tone is the detune, shifts it by -tone * t_start).
    """
    if state.amplitudes.size != 1 << h.n_qubits:
        raise ValueError("state size does not match Hamiltonian")

    # contiguous 1-D copies in basis order for the arithmetic, written back through the views
    rates = _pairs(h.rates, pulse.target_ion)
    r0, r1 = rates[:, 0].ravel(), rates[:, 1].ravel()
    amps = _pairs(state.amplitudes, pulse.target_ion)
    a0, a1 = amps[:, 0].ravel(), amps[:, 1].ravel()

    delta = r1 - r0 - pulse.drive_frequency
    u00, u01, u10, u11 = _block_unitary(delta, pulse.rabi_frequency, pulse.phase, pulse.duration)

    new0 = u00 * a0 + u01 * a1
    new1 = u10 * a0 + u11 * a1
    # back out of the per-block rotating frame into the frame of h
    lab0 = np.exp(-1j * r0 * pulse.duration)
    amps[:, 0] = (lab0 * new0).reshape(-1, amps.shape[2])
    amps[:, 1] = (lab0 * np.exp(-1j * pulse.drive_frequency * pulse.duration) * new1).reshape(-1, amps.shape[2])
    return state


_OBSERVABLES = ("sx", "sy", "sz")


def expectation(state: SpinState, observable: str, ion: int) -> float:
    """<sigma_alpha> of one qubit, alpha in {sx, sy, sz}."""
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be one of {_OBSERVABLES}, got {observable!r}")
    amps = _pairs(state.amplitudes, ion)
    if observable == "sz":
        signs = np.full(state.amplitudes.size, -1.0)
        _pairs(signs, ion)[:, 1] = 1.0
        return float(np.sum(signs * np.abs(state.amplitudes) ** 2))
    cross = np.sum(np.conj(amps[:, 0].ravel()) * amps[:, 1].ravel())
    if observable == "sx":
        return float(2.0 * cross.real)
    return float(-2.0 * cross.imag)  # sy = i|0><1| - i|1><0| in this sign convention
