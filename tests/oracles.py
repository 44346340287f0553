"""Slow, independent reference computations the tests compare the package against.

The dense-matrix spin evolution builds the full RWA Hamiltonian from
explicit Pauli operators and exponentiates it; the brute-force J expands
the squared mode-displacement sum term by term. Neither shares code with
the fast paths in gradchain.spins and gradchain.coupling. The idealized
hard pulse and the exact outcome distribution are references for the
echo, frame and conditional-flip tests.
"""

from __future__ import annotations

import numpy as np

from gradchain.chain import ChainSolution
from gradchain.constants import CONSTANTS
from gradchain.spins import PulseSpec, SpinHamiltonian, SpinState, _pair_indices, outcome_indices, outcome_labels

MAX_ORACLE_QUBITS = 6


def j_matrix_bruteforce_oracle(grads: np.ndarray, chain: ChainSolution) -> np.ndarray:
    """Independent J computation by expanding the squared mode-displacement sum.

    Expands [sum_n grad_n S[j, n] sigma_z_n]^2 per mode j over sigma_z
    products with the mode prefactor hbar / (2 m nu_j^2) and collects the
    pairwise coefficients; sigma_z^2 diagonal terms are constants and are
    discarded. Exists purely as a check path for j_matrix.
    """
    grads = np.asarray(grads, dtype=float)
    n_ions = chain.ion_count
    j = np.zeros((n_ions, n_ions))
    for mode in range(n_ions):
        prefactor = CONSTANTS.hbar / (2.0 * chain.mass * chain.mode_frequencies[mode] ** 2)
        row = chain.mode_matrix[mode]
        for n in range(n_ions):
            for l in range(n_ions):
                if n == l:
                    continue  # sigma_z^2 = identity: constant energy offset
                j[n, l] += prefactor * grads[n] * grads[l] * row[n] * row[l]
    return j


# dense-matrix verification path -------------------------------------------

_SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)  # sigma_z|1> = +|1>
_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


class OracleTooLargeError(ValueError):
    def __init__(self, n: int):
        super().__init__(f"dense oracle supports at most {MAX_ORACLE_QUBITS} qubits, got {n}")


def _operator_on(matrix: np.ndarray, ion: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator on qubit `ion` (bit ion-1 of the index)."""
    op = np.kron(np.eye(1 << (n - ion), dtype=complex), matrix)
    return np.kron(op, np.eye(1 << (ion - 1), dtype=complex))


def _expm_scaled_series(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series."""
    norm = float(np.linalg.norm(a, np.inf))
    scale = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (1 << scale)
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 64):
        term = term @ b / k
        result = result + term
        if np.linalg.norm(term, np.inf) < 1e-18 * np.linalg.norm(result, np.inf):
            break
    for _ in range(scale):
        result = result @ result
    return result


def evolve_oracle(
    state: SpinState, h: SpinHamiltonian, drives: list[PulseSpec], t: float
) -> SpinState:
    """Dense-matrix evolution used only to validate the fast paths.

    Builds the full RWA Hamiltonian from explicit Pauli operators (in the
    rotating frame of the single drive, if any) and exponentiates it.
    Returns a new state; the input is untouched.
    """
    n = h.n_qubits
    if n > MAX_ORACLE_QUBITS:
        raise OracleTooLargeError(n)
    if len(drives) > 1:
        raise ValueError("simultaneous multi-tone drives are not supported")

    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    z_ops = [_operator_on(_SIGMA_Z, ion, n) for ion in range(1, n + 1)]
    for ion in range(n):
        ham += 0.5 * h.omega_eff[ion] * z_ops[ion]
    for a in range(n):
        for b in range(a + 1, n):
            ham -= 0.5 * h.coupling[a, b] * (z_ops[a] @ z_ops[b])

    rotating_ion = None
    if drives:
        pulse = drives[0]
        rotating_ion = pulse.target_ion
        sp = _operator_on(_SIGMA_PLUS, pulse.target_ion, n)
        ham -= 0.5 * pulse.drive_frequency * z_ops[pulse.target_ion - 1]
        ham += 0.5 * pulse.rabi_frequency * (
            np.exp(1j * pulse.phase) * sp + np.exp(-1j * pulse.phase) * sp.conj().T
        )

    propagator = _expm_scaled_series(-1j * ham * t)
    amplitudes = propagator @ state.amplitudes
    if rotating_ion is not None:
        # undo the rotating-frame transformation at the final time
        back = _expm_scaled_series(-1j * drives[0].drive_frequency * t * 0.5 * z_ops[rotating_ion - 1])
        amplitudes = back @ amplitudes
    return SpinState(amplitudes)


# idealized references ------------------------------------------------------

def apply_hard_pulse(state: SpinState, ion: int, area: float, phase: float) -> SpinState:
    """Idealized zero-duration rotation of one qubit by the given area (rad)."""
    b0, b1 = _pair_indices(state.n_qubits, ion)
    cos = np.cos(0.5 * area)
    sin = np.sin(0.5 * area)
    a0 = state.amplitudes[b0].copy()
    a1 = state.amplitudes[b1]
    state.amplitudes[b0] = cos * a0 - 1j * sin * np.exp(-1j * phase) * a1
    state.amplitudes[b1] = cos * a1 - 1j * sin * np.exp(1j * phase) * a0
    return state


def measurement_probabilities(state: SpinState, ions: list[int] | None = None) -> dict[str, float]:
    """Marginal z-basis outcome distribution over the listed ions (default all)."""
    if ions is None:
        ions = list(range(1, state.n_qubits + 1))
    probs = np.abs(state.amplitudes) ** 2
    totals = np.bincount(outcome_indices(np.arange(probs.size), ions), weights=probs)
    return dict(zip(outcome_labels(np.arange(totals.size), len(ions)), totals.tolist()))
