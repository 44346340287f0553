"""Slow, independent reference computations the tests compare the package against.

The dense-matrix spin evolution builds the full RWA Hamiltonian from
explicit Pauli operators and exponentiates it; the brute-force J expands
the squared mode-displacement sum term by term; the carrier shifts come
from diagonalizing the spin-phonon Hamiltonian in a truncated Fock space.
None shares code with the fast paths in gradchain.spins and
gradchain.coupling. The 50-digit lab-frame evolution keeps the GHz
carriers that the interpreter's synthesizer frame leaves out. The
idealized hard pulse and the exact outcome distribution are references
for the echo, frame and conditional-flip tests; they find a qubit's bit
in a basis index one index at a time, without gradchain.spins' bit-index
helpers.

The index-array kernels at the end build the whole energy table and one
phase per basis state, with no use of the spin-flip symmetry, and address
qubit pairs by index arrays instead of reshaped views. They are bitwise
references for gradchain.spins and share only its 2x2 block propagator.
"""

from __future__ import annotations

import mpmath
import numpy as np

from gradchain.chain import ChainSolution
from gradchain.config import TrapConfig
from gradchain.constants import CONSTANTS
from gradchain.pulse import Delay, ExpectationLog, Pulse, PulseProgram
from gradchain.spins import PulseSpec, SpinHamiltonian, SpinState, _block_unitary

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


def carrier_shift_oracle(config: TrapConfig, chain: ChainSolution, fock_levels: int = 12) -> np.ndarray:
    """Centre of each ion's conditional resonance lines, rad/s from its qubit frequency, by diagonalization.

    H/hbar = sum_j [w0_j |0><0|_j + w1_j |1><1|_j] + sum_n nu_n a_n^dagger a_n,
    where level s of ion j has the Zeeman frequency w_s = mu_s mu_B B / hbar
    at z0_j + q_j, to first order in the displacement
    q_j = sum_n S[n, j] dz_n (a_n + a_n^dagger). The level energies at rest
    give the qubit frequency and are left out. For a fixed spin
    configuration the modes decouple, and each one's ground energy is the
    lowest eigenvalue of its Hamiltonian in `fock_levels` Fock states; no
    displacement or polaron formula is used. Ion j's line for a
    configuration of the others is the energy with ion j in |1> less the
    energy with it in |0>; the midpoint of its lowest and highest line is
    returned. Visits all 2^N configurations, so keep N small.
    """
    n = chain.ion_count
    slopes = [[mu * CONSTANTS.bohr_magneton * config.field.gradient_at(z) / CONSTANTS.hbar
               for z in chain.positions_m]
              for mu in (config.species.moment_state0, config.species.moment_state1)]  # [level][ion]
    lower = np.diag(np.sqrt(np.arange(1.0, fock_levels)), 1)  # a in the Fock basis
    number = np.diag(np.arange(float(fock_levels)))
    energy = []
    for bits in range(1 << n):
        total = 0.0
        for mode in range(n):
            nu = chain.mode_frequencies[mode]
            force = chain.ground_state_extents[mode] * sum(
                slopes[(bits >> ion) & 1][ion] * chain.mode_matrix[mode, ion] for ion in range(n))
            total += nu * np.linalg.eigvalsh(number + force / nu * (lower + lower.T))[0]
        energy.append(total)
    centres = []
    for ion in range(n):
        lines = [energy[b | 1 << ion] - energy[b] for b in range(1 << n) if not (b >> ion) & 1]
        centres.append(0.5 * (min(lines) + max(lines)))
    return np.array(centres)


def equilibrium_oracle(n: int, digits: int = 50) -> list:
    """Equilibrium positions of n ions in chain units, as mpf values at `digits` digits.

    mpmath.findroot (multidimensional Newton, finite-difference Jacobian)
    on the force balance u_m = sum_{p != m} sign(u_m - u_p) / (u_m - u_p)^2,
    the gradient of the trap + Coulomb energy, started from evenly spaced
    ions with unit spacing; nothing of gradchain.chain's Newton is used.
    About 0.2 s at n = 10 and 20 s at n = 50, so the tests keep n <= 10.
    """
    with mpmath.workdps(digits):
        def force_balance(*u):
            return [u[m] - sum(mpmath.sign(u[m] - u[p]) / (u[m] - u[p]) ** 2 for p in range(n) if p != m)
                    for m in range(n)]

        start = [mpmath.mpf(2 * m - n + 1) / 2 for m in range(n)]
        root = mpmath.findroot(force_balance, start) if n > 1 else mpmath.matrix([0])
        return sorted(root[m] for m in range(n))


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


def lab_frame_sz_oracle(
    omega: np.ndarray, coupling: np.ndarray, program: PulseProgram, initial: str, dps: int = 50
) -> list[float]:
    """Every `log sz` value of a program, from a lab-frame evolution at `dps` digits.

    H0 = (1/2) sum_n w_n s_n - (1/2) sum_{n<l} J_nl s_n s_l keeps the carriers
    w_n in full. A pulse on ion j adds (W/2)(e^{i(phase - w_d T)} |1><0|_j + h.c.)
    at the tone w_d = w_j + 2 pi detune, with T the time since the sequence
    started: one phase-coherent synthesizer. Over a pulse from T0 to T0 + tau
    the state goes through R(T0 + tau)^dagger expm(-i H_R tau) R(T0), where
    R(T) = exp(i w_d T s_j / 2) and H_R = H0 - (w_d / 2) s_j + (W/2)(e^{i phase}
    |1><0|_j + h.c.) does not depend on time. Only <sz> is logged, because it is
    the same in every frame.
    """
    with mpmath.workdps(dps):
        n = program.n_ions
        dim = 1 << n
        w = [mpmath.mpf(float(x)) for x in omega]
        j = [[mpmath.mpf(float(x)) for x in row] for row in coupling]
        s = [[1 if (b >> q) & 1 else -1 for q in range(n)] for b in range(dim)]
        energy = [
            sum(w[q] * s[b][q] for q in range(n)) / 2
            - sum(j[a][c] * s[b][a] * s[b][c] for a in range(n) for c in range(a + 1, n)) / 2
            for b in range(dim)
        ]
        amp = mpmath.matrix(dim, 1)
        amp[sum(1 << q for q, c in enumerate(initial) if c == "1")] = 1
        t = mpmath.mpf(0)
        logged = []
        for ins in program.instructions:
            if isinstance(ins, Pulse):
                q = ins.ion - 1
                rabi = 2 * mpmath.pi * mpmath.mpf(ins.rabi_hz)
                tone = w[q] + 2 * mpmath.pi * mpmath.mpf(ins.detune_hz)
                tau = mpmath.mpf(ins.duration_s)
                h_r = mpmath.matrix(dim, dim)
                for b in range(dim):
                    h_r[b, b] = energy[b] - tone * s[b][q] / 2
                    if s[b][q] < 0:
                        h_r[b | 1 << q, b] = rabi / 2 * mpmath.expj(mpmath.mpf(ins.phase_rad))
                        h_r[b, b | 1 << q] = rabi / 2 * mpmath.expj(-mpmath.mpf(ins.phase_rad))
                into = mpmath.diag([mpmath.expj(tone * t * s[b][q] / 2) for b in range(dim)])
                out_of = mpmath.diag([mpmath.expj(-tone * (t + tau) * s[b][q] / 2) for b in range(dim)])
                amp = out_of * (mpmath.expm(-1j * h_r * tau) * (into * amp))
                t += tau
            elif isinstance(ins, Delay):
                tau = mpmath.mpf(ins.duration_s)
                for b in range(dim):
                    amp[b] *= mpmath.expj(-energy[b] * tau)
                t += tau
            elif isinstance(ins, ExpectationLog):
                if ins.observable != "sz":
                    raise ValueError("the lab-frame oracle logs only sz, the one frame-independent observable")
                for ion in ins.ions if ins.ions is not None else range(1, n + 1):
                    logged.append(float(sum(s[b][ion - 1] * abs(amp[b]) ** 2 for b in range(dim))))
        return logged


# idealized references ------------------------------------------------------

def apply_hard_pulse(state: SpinState, ion: int, area: float, phase: float) -> SpinState:
    """Idealized zero-duration rotation of one qubit by the given area (rad)."""
    n = state.n_qubits
    if not 1 <= ion <= n:
        raise ValueError(f"ion index {ion} out of range [1, {n}]")
    cos = np.cos(0.5 * area)
    sin = np.sin(0.5 * area)
    amps = state.amplitudes
    for b0 in range(1 << n):
        if (b0 >> (ion - 1)) & 1:
            continue  # every pair is visited from its |0> member
        b1 = b0 + (1 << (ion - 1))
        a0, a1 = amps[b0], amps[b1]
        amps[b0] = cos * a0 - 1j * sin * np.exp(-1j * phase) * a1
        amps[b1] = cos * a1 - 1j * sin * np.exp(1j * phase) * a0
    return state


def measurement_probabilities(state: SpinState, ions: list[int] | None = None) -> dict[str, float]:
    """Marginal z-basis outcome distribution over the listed ions (default all).

    Character k of an outcome label is the bit of qubit ions[k]; every label
    of len(ions) characters is present, in order of its binary value read
    from the last character to the first.
    """
    if ions is None:
        ions = list(range(1, state.n_qubits + 1))
    totals = {format(outcome, f"0{len(ions)}b")[::-1]: 0.0 for outcome in range(1 << len(ions))}
    for b in range(1 << state.n_qubits):
        totals["".join(str((b >> (ion - 1)) & 1) for ion in ions)] += abs(state.amplitudes[b]) ** 2
    return totals


# index-array kernels, bitwise references for gradchain.spins -----------------

def diagonal_rates_oracle(h: SpinHamiltonian) -> np.ndarray:
    """E(b)/hbar for every basis state from the full sign table, rad/s."""
    b = np.arange(1 << h.n_qubits, dtype=np.int64)
    s = 2.0 * ((b[:, None] >> np.arange(h.n_qubits)[None, :]) & 1) - 1.0
    linear = 0.5 * s @ h.omega_eff
    pair = 0.25 * np.einsum("bn,nl,bl->b", s, h.coupling, s)
    return linear - pair


def _pair_indices(n: int, ion: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with qubit `ion` in |0> (b0) and their partners with it in |1> (b1)."""
    if not 1 <= ion <= n:
        raise ValueError(f"ion index {ion} out of range [1, {n}]")
    mask = 1 << (ion - 1)
    b0 = np.flatnonzero((np.arange(1 << n) & mask) == 0)
    return b0, b0 | mask


def free_evolution_oracle(state: SpinState, h: SpinHamiltonian, t: float) -> SpinState:
    """Diagonal evolution with one exponential per basis state."""
    state.amplitudes *= np.exp(-1j * diagonal_rates_oracle(h) * t)
    return state


def apply_pulse_oracle(state: SpinState, h: SpinHamiltonian, pulse: PulseSpec) -> SpinState:
    """One single-tone pulse with its 2x2 blocks gathered and scattered by index arrays."""
    rates = diagonal_rates_oracle(h)
    b0, b1 = _pair_indices(h.n_qubits, pulse.target_ion)
    delta = rates[b1] - rates[b0] - pulse.drive_frequency
    u00, u01, u10, u11 = _block_unitary(delta, pulse.rabi_frequency, pulse.phase, pulse.duration)
    a0 = state.amplitudes[b0]
    a1 = state.amplitudes[b1]
    new0 = u00 * a0 + u01 * a1
    new1 = u10 * a0 + u11 * a1
    lab0 = np.exp(-1j * rates[b0] * pulse.duration)
    state.amplitudes[b0] = lab0 * new0
    state.amplitudes[b1] = lab0 * np.exp(-1j * pulse.drive_frequency * pulse.duration) * new1
    return state


def expectation_oracle(state: SpinState, observable: str, ion: int) -> float:
    """<sigma_alpha> of one qubit from index-array gathers."""
    b0, b1 = _pair_indices(state.n_qubits, ion)
    if observable == "sz":
        signs = np.full(state.amplitudes.size, -1.0)
        signs[b1] = 1.0
        return float(np.sum(signs * np.abs(state.amplitudes) ** 2))
    cross = np.sum(np.conj(state.amplitudes[b0]) * state.amplitudes[b1])
    if observable == "sx":
        return float(2.0 * cross.real)
    return float(-2.0 * cross.imag)
