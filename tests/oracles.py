"""Slow, independent reference computations the tests compare the package against.

The dense-matrix spin evolution builds the full RWA Hamiltonian from
explicit Pauli operators and exponentiates it; the brute-force J expands
the squared mode-displacement sum term by term; the carrier shifts come
from diagonalizing the spin-phonon Hamiltonian in a truncated Fock space,
and the spin populations of a program from evolving under it.
None shares code with the fast paths in gradchain.spins and
gradchain.coupling. The 50-digit lab-frame evolution keeps the GHz
carriers that the interpreter's synthesizer frame leaves out. The
idealized hard pulse and the exact outcome distribution are references
for the echo and conditional-flip tests, and the label tally is one for
the shot counts; they find a qubit's bit in a basis index one index at a
time, without gradchain.spins' bit-index helpers. States are plain complex
arrays of 2^n amplitudes, as in gradchain.spins.

The index-array kernels at the end build the whole energy table and one
phase per basis state, with no use of the spin-flip symmetry, and address
qubit pairs by index arrays instead of reshaped views. They are bitwise
references for gradchain.spins and share only its 2x2 block propagator.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath
import numpy as np
from scipy import sparse
from scipy.linalg import eigh

from gradchain.chain import ChainSolution
from gradchain.config import TrapConfig
from gradchain.constants import CONSTANTS
from gradchain.pulse import Delay, ExpectationLog, Pulse, PulseProgram
from gradchain.spins import _block_unitary

MAX_ORACLE_QUBITS = 6


class Drive(NamedTuple):
    """One single-tone drive, in the order of gradchain.spins.apply_pulse's arguments after the energy table."""

    ion: int         # 1-based target
    rabi: float      # rad/s, >= 0
    tone: float      # rad/s, from the target's carrier
    phase: float     # rad
    duration: float  # s, >= 0


def j_matrix_bruteforce_oracle(grads: np.ndarray, chain: ChainSolution, mass: float) -> np.ndarray:
    """Independent J computation by expanding the squared mode-displacement sum.

    Expands [sum_n grad_n S[j, n] sigma_z_n]^2 per mode j over sigma_z
    products with the mode prefactor hbar / (2 m nu_j^2), m = `mass` in kg,
    and collects the pairwise coefficients; sigma_z^2 diagonal terms are
    constants and are discarded. Exists purely as a check path for j_matrix.
    """
    grads = np.asarray(grads, dtype=float)
    n_ions = chain.ion_count
    j = np.zeros((n_ions, n_ions))
    for mode in range(n_ions):
        prefactor = CONSTANTS.hbar / (2.0 * mass * chain.mode_frequencies[mode] ** 2)
        row = chain.mode_matrix[mode]
        for n in range(n_ions):
            for l in range(n_ions):
                if n == l:
                    continue  # sigma_z^2 = identity: constant energy offset
                j[n, l] += prefactor * grads[n] * grads[l] * row[n] * row[l]
    return j


def carrier_shift_oracle(config: TrapConfig, chain: ChainSolution, fock_levels: int = 12,
                         curvature: bool = False, level: int = 0) -> np.ndarray:
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

    With `curvature`, w_s is exact for a field B = B0 + b z + c z^2: each
    level also takes mu_s mu_B c q_j^2 / hbar. Those terms couple the modes,
    so each configuration's energy is an eigenvalue of the whole multimode
    Hamiltonian in fock_levels^N Fock states: the lowest, or with `level`
    the one at that index from the bottom, so that the lines are those of
    an excited motional state.
    """
    n = chain.ion_count
    moments = (config.species.moment_state0, config.species.moment_state1)
    gradients = config.field.at(chain.positions_m)[1]
    slopes = [[mu * CONSTANTS.bohr_magneton * g / CONSTANTS.hbar for g in gradients] for mu in moments]  # [level][ion]
    lower = np.diag(np.sqrt(np.arange(1.0, fock_levels)), 1)  # a in the Fock basis
    number = np.diag(np.arange(float(fock_levels)))
    if curvature:
        coefficients = config.field.coefficients  # a PolynomialField, lowest order first
        assert len(coefficients) <= 3, "the q^2 term is exact only up to a quadratic field"
        c = coefficients[2] if len(coefficients) == 3 else 0.0
        bends = [mu * CONSTANTS.bohr_magneton * c / CONSTANTS.hbar for mu in moments]  # [level]

        def on_mode(op, mode):
            out = sparse.identity(1)
            for m in range(n):
                out = sparse.kron(out, op if m == mode else sparse.identity(fock_levels), format="csr")
            return out

        motion = sum(nu * on_mode(number, m) for m, nu in enumerate(chain.mode_frequencies))
        positions = [on_mode(lower + lower.T, m) for m in range(n)]
        q = [sum(chain.ground_state_extents[m] * chain.mode_matrix[m, ion] * positions[m] for m in range(n))
             for ion in range(n)]
        q_squared = [qj @ qj for qj in q]
    energy = []
    for bits in range(1 << n):
        levels = [(bits >> ion) & 1 for ion in range(n)]
        if curvature:
            ham = motion + sum(slopes[s][ion] * q[ion] + bends[s] * q_squared[ion] for ion, s in enumerate(levels))
            energy.append(eigh(ham.toarray(), eigvals_only=True, subset_by_index=(level, level))[0])
            continue
        total = 0.0
        for mode in range(n):
            nu = chain.mode_frequencies[mode]
            force = chain.ground_state_extents[mode] * sum(
                slopes[levels[ion]][ion] * chain.mode_matrix[mode, ion] for ion in range(n))
            total += nu * np.linalg.eigvalsh(number + force / nu * (lower + lower.T))[0]
        energy.append(total)
    centres = []
    for ion in range(n):
        lines = [energy[b | 1 << ion] - energy[b] for b in range(1 << n) if not (b >> ion) & 1]
        centres.append(0.5 * (min(lines) + max(lines)))
    return np.array(centres)


def spin_phonon_populations_oracle(config: TrapConfig, chain: ChainSolution, shifts: np.ndarray,
                                   program: PulseProgram, initial: str, fock_levels: int) -> np.ndarray:
    """Final spin populations of a program under the spin-phonon Hamiltonian, by basis index.

    H/hbar = sum_j sum_s w_s(z0_j + q_j) |s><s|_j + sum_n nu_n a_n^dagger a_n, with
    the Zeeman frequencies and displacements of carrier_shift_oracle and
    `fock_levels` Fock states per mode. Each qubit is counted against its
    carrier, its splitting at rest plus shifts[j], so the rest energies leave
    -(shifts[j] / 2) s_j. A pulse adds (W/2)(e^{i phi}|1><0|_j + h.c.) in the frame
    of its tone, with interpret's phi = phase - tone t_start. Each pulse and
    delay is exponentiated by eigh of the whole spin x Fock matrix. The
    register starts in the labelled spin state with the motional ground state
    of that configuration, and the motion is traced out at the end. Neither J
    nor a polaron transformation is used; the gap to gradchain.pulse.interpret
    is the error of its J-only model. Skips measure and log instructions.
    """
    n = chain.ion_count
    moments = np.array([config.species.moment_state0, config.species.moment_state1])
    grads = config.field.at(chain.positions_m)[1]
    slopes = moments[:, None] * CONSTANTS.bohr_magneton * grads[None, :] / CONSTANTS.hbar  # [level, ion]
    lower = np.diag(np.sqrt(np.arange(1.0, fock_levels)), 1)

    def on_mode(op: np.ndarray, mode: int) -> np.ndarray:
        out = np.ones((1, 1))
        for m in range(n):
            out = np.kron(out, op if m == mode else np.eye(fock_levels))
        return out

    positions = [on_mode(lower + lower.T, m) for m in range(n)]
    motion = sum(nu * on_mode(lower.T @ lower, m) for m, nu in enumerate(chain.mode_frequencies))
    dim = fock_levels**n
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1  # [basis index, ion]
    blocks = []
    for b in range(1 << n):
        forces = chain.ground_state_extents * (chain.mode_matrix @ slopes[bits[b], np.arange(n)])
        rest = -0.5 * float(np.dot(shifts, 2.0 * bits[b] - 1.0))
        blocks.append(motion + sum(f * x for f, x in zip(forces, positions)) + rest * np.eye(dim))
    static = np.zeros(((1 << n) * dim,) * 2, dtype=complex)
    for b, block in enumerate(blocks):
        static[b * dim:(b + 1) * dim, b * dim:(b + 1) * dim] = block

    start = sum(1 << q for q, c in enumerate(initial) if c == "1")
    state = np.zeros((1 << n, dim), dtype=complex)
    state[start] = np.linalg.eigh(blocks[start])[1][:, 0]
    state = state.ravel()
    t = 0.0
    for ins in program.instructions:
        if not isinstance(ins, (Pulse, Delay)):
            continue
        ham = static.copy()
        if isinstance(ins, Pulse):
            tone = 2.0 * np.pi * ins.detune_hz
            s_target = np.repeat(2.0 * bits[:, ins.ion - 1] - 1.0, dim)
            ham[np.diag_indices_from(ham)] -= 0.5 * tone * s_target
            drive = 0.5 * 2.0 * np.pi * ins.rabi_hz * np.exp(1j * (ins.phase_rad - tone * t))
            for b in np.flatnonzero(bits[:, ins.ion - 1] == 0):
                up = b | 1 << (ins.ion - 1)
                ham[up * dim:(up + 1) * dim, b * dim:(b + 1) * dim] += drive * np.eye(dim)
                ham[b * dim:(b + 1) * dim, up * dim:(up + 1) * dim] += np.conj(drive) * np.eye(dim)
        energies, vectors = np.linalg.eigh(ham)
        state = vectors @ (np.exp(-1j * energies * ins.duration_s) * (vectors.conj().T @ state))
        if isinstance(ins, Pulse):
            state *= np.exp(-0.5j * tone * ins.duration_s * s_target)  # out of the tone's frame
        t += ins.duration_s
    return np.sum(np.abs(state.reshape(1 << n, dim)) ** 2, axis=1)


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


def dynamical_matrix_oracle(u: list) -> mpmath.matrix:
    """The dynamical matrix at positions u (mpf values, chain units), at mpmath's working precision.

    A[n, l] = -2 |u_n - u_l|^-3 off the diagonal; each diagonal entry is 1
    less its row's off-diagonal sum, the trap plus the Coulomb curvature.
    """
    n = len(u)
    a = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                a[i, j] = -2 / abs(u[i] - u[j]) ** 3
        a[i, i] = 1 - sum(a[i, j] for j in range(n) if j != i)
    return a


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
    state: np.ndarray, coupling: np.ndarray, drives: list[Drive], t: float
) -> np.ndarray:
    """Dense-matrix evolution used only to validate the fast paths.

    Builds the full RWA Hamiltonian of the J matrix `coupling` (rad/s) from
    explicit Pauli operators (in the rotating frame of the single drive, if
    any) and exponentiates it.
    Returns a new state; the input is untouched.
    """
    n = len(coupling)
    if n > MAX_ORACLE_QUBITS:
        raise OracleTooLargeError(n)
    if len(drives) > 1:
        raise ValueError("simultaneous multi-tone drives are not supported")

    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    z_ops = [_operator_on(_SIGMA_Z, ion, n) for ion in range(1, n + 1)]
    for a in range(n):
        for b in range(a + 1, n):
            ham -= 0.5 * coupling[a, b] * (z_ops[a] @ z_ops[b])

    rotating_ion = None
    if drives:
        pulse = drives[0]
        rotating_ion = pulse.ion
        sp = _operator_on(_SIGMA_PLUS, pulse.ion, n)
        ham -= 0.5 * pulse.tone * z_ops[pulse.ion - 1]
        ham += 0.5 * pulse.rabi * (
            np.exp(1j * pulse.phase) * sp + np.exp(-1j * pulse.phase) * sp.conj().T
        )

    propagator = _expm_scaled_series(-1j * ham * t)
    amplitudes = propagator @ state
    if rotating_ion is not None:
        # undo the rotating-frame transformation at the final time
        back = _expm_scaled_series(-1j * drives[0].tone * t * 0.5 * z_ops[rotating_ion - 1])
        amplitudes = back @ amplitudes
    return amplitudes


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
                for ion in ins.ions:
                    logged.append(float(sum(s[b][ion - 1] * abs(amp[b]) ** 2 for b in range(dim))))
        return logged


# idealized references ------------------------------------------------------

def _qubits(state: np.ndarray) -> int:
    return state.size.bit_length() - 1


def apply_hard_pulse(state: np.ndarray, ion: int, area: float, phase: float) -> np.ndarray:
    """Idealized zero-duration rotation of one qubit by the given area (rad), in place."""
    n = _qubits(state)
    if not 1 <= ion <= n:
        raise ValueError(f"ion index {ion} out of range [1, {n}]")
    cos = np.cos(0.5 * area)
    sin = np.sin(0.5 * area)
    for b0 in range(1 << n):
        if (b0 >> (ion - 1)) & 1:
            continue  # every pair is visited from its |0> member
        b1 = b0 + (1 << (ion - 1))
        a0, a1 = state[b0], state[b1]
        state[b0] = cos * a0 - 1j * sin * np.exp(-1j * phase) * a1
        state[b1] = cos * a1 - 1j * sin * np.exp(1j * phase) * a0
    return state


def _label(b: int, ions) -> str:
    """Outcome label of basis index b: character k is the bit of qubit ions[k]."""
    return "".join(str((b >> (ion - 1)) & 1) for ion in ions)


def measurement_probabilities(state: np.ndarray, ions: list[int] | None = None) -> dict[str, float]:
    """Marginal z-basis outcome distribution over the listed ions (default all).

    Every label of len(ions) characters is present, in sorted order.
    """
    if ions is None:
        ions = list(range(1, _qubits(state) + 1))
    totals = {format(outcome, f"0{len(ions)}b"): 0.0 for outcome in range(1 << len(ions))}
    for b in range(state.size):
        totals[_label(b, ions)] += abs(state[b]) ** 2
    return totals


def label_tally(draws, ions) -> dict[str, int]:
    """Shot counts by outcome label of a sequence of drawn basis indices, keys in order of first draw."""
    counts: dict[str, int] = {}
    for b in draws:
        label = _label(int(b), ions)
        counts[label] = counts.get(label, 0) + 1
    return counts


# index-array kernels, bitwise references for gradchain.spins -----------------

def diagonal_rates_oracle(coupling: np.ndarray) -> np.ndarray:
    """E(b)/hbar in rad/s for every basis state of the J matrix `coupling` (rad/s), from the full sign table."""
    n = len(coupling)
    b = np.arange(1 << n, dtype=np.int64)
    s = 2.0 * ((b[:, None] >> np.arange(n)[None, :]) & 1) - 1.0
    return 0.0 - 0.25 * np.einsum("bn,nl,bl->b", s, coupling, s)


def _pair_indices(n: int, ion: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices with qubit `ion` in |0> (b0) and their partners with it in |1> (b1)."""
    if not 1 <= ion <= n:
        raise ValueError(f"ion index {ion} out of range [1, {n}]")
    mask = 1 << (ion - 1)
    b0 = np.flatnonzero((np.arange(1 << n) & mask) == 0)
    return b0, b0 | mask


def free_evolution_oracle(state: np.ndarray, coupling: np.ndarray, t: float) -> np.ndarray:
    """Diagonal evolution with one exponential per basis state, in place."""
    state *= np.exp(-1j * diagonal_rates_oracle(coupling) * t)
    return state


def apply_pulse_oracle(state: np.ndarray, coupling: np.ndarray, ion: int, rabi: float, tone: float, phase: float,
                       duration: float) -> np.ndarray:
    """One single-tone pulse with its 2x2 blocks gathered and scattered by index arrays, in place."""
    rates = diagonal_rates_oracle(coupling)
    b0, b1 = _pair_indices(len(coupling), ion)
    delta = rates[b1] - rates[b0] - tone
    u00, u01, u10, u11 = _block_unitary(delta, rabi, phase, duration)
    a0 = state[b0]
    a1 = state[b1]
    new0 = u00 * a0 + u01 * a1
    new1 = u10 * a0 + u11 * a1
    lab0 = np.exp(-1j * rates[b0] * duration)
    state[b0] = lab0 * new0
    state[b1] = lab0 * np.exp(-1j * tone * duration) * new1
    return state


def expectation_oracle(state: np.ndarray, observable: str, ion: int) -> float:
    """<sigma_alpha> of one qubit from index-array gathers."""
    b0, b1 = _pair_indices(_qubits(state), ion)
    if observable == "sz":
        signs = np.full(state.size, -1.0)
        signs[b1] = 1.0
        return float(np.sum(signs * np.abs(state) ** 2))
    cross = np.sum(np.conj(state[b0]) * state[b1])
    if observable == "sx":
        return float(2.0 * cross.real)
    return float(-2.0 * cross.imag)
