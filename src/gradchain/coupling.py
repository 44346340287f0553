"""Gradient-induced couplings of an ion chain in an axial magnetic-field gradient.

A position-dependent Zeeman shift tilts each ion's qubit splitting at rate
d(omega_j)/dz = (mu1 - mu0) mu_B B'(z_j) / hbar. Through the shared
vibrational modes this produces

  * the dimensionless mode-ion couplings
        eps[j, n] = S[j, n] * grad_n * dz_j / nu_j,
  * an effective qubit-qubit Ising coupling
        J[n, l] = sum_j nu_j * eps[j, n] * eps[j, l],
  * per-ion carrier shifts, from the same polaron transformation,
        Delta_n = -sum_l sum_j nu_j * eps+[j, n] * eps[j, l],
    where eps+ is eps with the moment sum mu0 + mu1 in place of mu1 - mu0,
  * and effective Lamb-Dicke parameters eta'[n, j] that let microwave
    radiation drive motional sidebands despite a negligible bare eta.

Everything here is a pure function of the trap config, the chain solution
and the field profile. All angular frequencies are rad/s internally;
serialization converts to ordinary Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSolution, SolverError
from .config import TrapConfig
from .constants import CONSTANTS

VALIDITY_THRESHOLD = 0.1


@dataclass(frozen=True)
class CouplingReport:
    """All gradient-induced quantities for one chain configuration.

    Matrix index conventions: epsilon_matrix, eta_eff and phases_exact are
    [mode, ion]; j_matrix is [ion, ion] (symmetric, zero diagonal). Of
    these only epsilon_matrix and phases_exact depend on the mode-matrix
    sign convention, ChainSolution.SIGN_CONVENTION.
    """

    omega_gradients: np.ndarray    # rad/(s m) per ion
    epsilon_matrix: np.ndarray     # [mode, ion]
    j_matrix: np.ndarray           # rad/s, [ion, ion]
    shifts: np.ndarray             # Delta_j, rad/s per ion
    eta_bare: np.ndarray           # per mode
    eta_eff: np.ndarray            # [mode, ion]
    phases_exact: np.ndarray       # rad, [mode, ion]
    validity: float                # max |grad| dz_1 / nu_1
    qubit_frequencies: np.ndarray  # omega_n(z0_n), rad/s per ion

    @property
    def ion_count(self) -> int:
        return len(self.omega_gradients)

    @property
    def harmonic_approximation_valid(self) -> bool:
        return self.validity < VALIDITY_THRESHOLD

    def to_json_dict(self) -> dict:
        two_pi = 2.0 * math.pi
        return {
            "ion_count": self.ion_count,
            "qubit_frequency_gradients_hz_per_m": (self.omega_gradients / two_pi).tolist(),
            "epsilon_matrix": self.epsilon_matrix.tolist(),
            "j_matrix_hz": (self.j_matrix / two_pi).tolist(),
            "shifts_hz": (self.shifts / two_pi).tolist(),
            "eta_bare": self.eta_bare.tolist(),
            "eta_eff": self.eta_eff.tolist(),
            "phases_exact_rad": self.phases_exact.tolist(),
            "qubit_frequencies_hz": (self.qubit_frequencies / two_pi).tolist(),
            "validity": {
                "epsilon": self.validity,
                "threshold": VALIDITY_THRESHOLD,
                "harmonic_approximation_valid": self.harmonic_approximation_valid,
            },
            "sign_convention": ChainSolution.SIGN_CONVENTION,
        }


def build_report(config: TrapConfig, chain: ChainSolution) -> CouplingReport:
    """Every gradient-induced quantity of one chain in its field, in one report.

    Each ion's field B(z0_n) and gradient B'(z0_n) are read once, at its rest
    position; an ion outside a sampled profile raises ConfigError. J drops
    its diagonal, whose sigma_z^2 terms are constants. The carrier shift
    Delta_n is the centre of ion n's conditional lines: with |s><s| =
    (1 + s sigma_z)/2 the polaron transformation that gives J also leaves a
    term in sigma_z_n, and Delta_n is twice its coefficient. Its eps+ is
    built from the gradients of the moment sum mu0 + mu1, not as eps times
    (mu0 + mu1)/(mu1 - mu0), so mu0 = mu1 gives 0, not NaN. J and Delta do
    not depend on the sign of any mode row: each of their terms carries two
    factors of one mode.

    validity, max_j |grad_j| dz_1 / nu_1, compares the gradient term over one
    ground-state extent with the mode quantum hbar nu1; the derived
    Hamiltonian holds while it is well below unity. Against the full
    spin-phonon dynamics for two ions, the J-only spin model is off in
    populations by ~eps^2: at VALIDITY_THRESHOLD = 0.1, up to 1.2e-4 for the
    shipped CNOT and Ramsey programs and 2.8e-3 for detuned, phased pulses,
    mostly the carrier Rabi rate's exp(-sum_j eps[j, n]^2 / 2) (README).

    phases_exact, phi = pi/2 - atan2(eta_n S[n, j], eps[n, j]), is the phase
    of the first-order sideband amplitude r = eps + i eta_n S = i eta' e^{-i phi}
    (gradient displacement plus photon recoil): exactly pi/2 where S = eps =
    +0.0, -pi/2 where S = +0.0, eps = -0.0, and not determined where both are
    rounding noise (|S| < 1e-13, in the highest modes from N = 35;
    eigensolvers disagree on their signs at N >= 44).

    Raises SolverError if any quantity is not finite, as for a field
    gradient too large for double precision.
    """
    species, hbar, mu_b = config.species, CONSTANTS.hbar, CONSTANTS.bohr_magneton
    nu, modes = chain.mode_frequencies, chain.mode_matrix
    with np.errstate(all="ignore"):  # the check below reports overflow and NaN, also where the field overflows
        field_gradients = np.asarray([config.field.gradient_at(z) for z in chain.positions_m])
        fields = np.asarray([config.field.field_at(z) for z in chain.positions_m])
        moment = species.differential_moment * mu_b
        grads = moment * field_gradients / hbar
        grads_sum = (species.moment_state0 + species.moment_state1) * mu_b * field_gradients / hbar
        per_mode = chain.ground_state_extents / nu
        eps = modes * grads[None, :] * per_mode[:, None]
        eps_sum = modes * grads_sum[None, :] * per_mode[:, None]
        j = np.einsum("j,jn,jl->nl", nu, eps, eps)
        np.fill_diagonal(j, 0.0)
        eta_bare = chain.ground_state_extents * config.drive_wavevector
        bare_part = eta_bare[:, None] * modes
        dz1 = math.sqrt(hbar / (2.0 * species.mass * config.nu1))
        report = CouplingReport(
            omega_gradients=grads,
            epsilon_matrix=eps,
            j_matrix=j,
            shifts=-np.einsum("j,jn,jl->n", nu, eps_sum, eps),
            eta_bare=eta_bare,
            eta_eff=np.sqrt(bare_part**2 + eps**2),
            phases_exact=0.5 * math.pi - np.arctan2(bare_part, eps),
            validity=float(np.max(np.abs(grads)) * dz1 / config.nu1),
            qubit_frequencies=species.omega0 + moment * fields / hbar,
        )
    bad = [name for name, value in vars(report).items()
           if isinstance(value, (np.ndarray, float)) and not np.isfinite(value).all()]
    if bad:
        raise SolverError(f"coupling quantities are not finite: {', '.join(bad)}")
    return report


@dataclass(frozen=True)
class SpectralLine:
    offset: float      # rad/s from the ion's qubit frequency omega_j(z0_j)
    amplitude: float   # relative to the carrier
    label: str


def sideband_spectrum(chain: ChainSolution, report: CouplingReport, ion: int) -> list[SpectralLine]:
    """First-order stick spectrum of the drive response of one ion.

    Offsets are from the ion's qubit frequency omega_j(z0_j): the carrier
    of unit amplitude sits at Delta_j, and one red and one blue sideband
    per mode at Delta_j -/+ nu_n. A sideband's amplitude is its line's
    first-order Lamb-Dicke coupling eta'[n, j], the same for red and blue
    (Wineland et al. 1998); from the motional ground state n = 0 no red
    transition exists. Sorted by offset. Ion indices are 1-based.
    """
    if not 1 <= ion <= chain.ion_count:
        raise ValueError(f"ion index {ion} out of range [1, {chain.ion_count}]")
    idx = ion - 1
    carrier = report.shifts[idx]
    lines = [SpectralLine(float(carrier), 1.0, "carrier")]
    for mode in range(chain.ion_count):
        nu = chain.mode_frequencies[mode]
        amp = float(report.eta_eff[mode, idx])
        lines.append(SpectralLine(float(carrier - nu), amp, f"red_{mode + 1}"))
        lines.append(SpectralLine(float(carrier + nu), amp, f"blue_{mode + 1}"))
    lines.sort(key=lambda line: line.offset)
    return lines
