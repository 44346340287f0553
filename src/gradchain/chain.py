"""Equilibrium geometry and axial normal modes of a harmonically trapped ion chain.

Positions are solved in the dimensionless coordinates u = z / zeta, where
zeta = (e^2 / 4 pi eps0 m nu1^2)^(1/3) is the Coulomb length scale of the
trap. In these units the stationarity condition for ion m reads

    u_m - sum_{n<m} (u_m - u_n)^-2 + sum_{n>m} (u_m - u_n)^-2 = 0

and the Hessian of the potential is the dimensionless dynamical matrix A
whose eigenvalues lambda_j^2 give the mode frequencies nu_j = nu1 * lambda_j.
The two lowest modes are universal: the center-of-mass mode at lambda^2 = 1
and the breathing mode at lambda^2 = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_IONS, OutOfRangeError, TrapConfig
from .constants import CONSTANTS

_NEWTON_TOL = 0.5e-13
_RESIDUAL_TOL = 1e-12
_MAX_NEWTON_STEPS = 200
_SIGN_TIE_TOL = 1e-9


class SolverError(RuntimeError):
    """A numerical failure: exit 3."""


class NoConvergenceError(SolverError):
    def __init__(self, steps: int, reason: str, residual: float):
        super().__init__(
            f"equilibrium solve stopped ({reason}) after {steps} Newton steps "
            f"with residual {residual:.3e} > {_RESIDUAL_TOL:.0e}"
        )
        self.steps = steps
        self.reason = reason
        self.residual = residual


@dataclass(frozen=True)
class ChainSolution:
    """Equilibrium and normal-mode data for one chain.

    mode_matrix rows are modes, columns are ions: S[j, n] is the
    participation of ion n+1 in mode j+1. Rows are sign-fixed so the
    entry of largest magnitude is positive, ties (magnitudes equal to a
    relative 1e-9) broken toward the lowest ion index. Every row is exactly
    even or odd about the centre, hence tied: the rule fixes the signs.
    Quantities that are odd under eigenvector sign flips (downstream, the
    epsilon matrix and the exact drive phases) inherit this convention.
    """

    length_scale: float                 # zeta, m
    positions: np.ndarray               # u, dimensionless, ascending, u[::-1] == -u exactly
    mode_eigenvalues: np.ndarray        # lambda^2, ascending
    mode_matrix: np.ndarray             # S, orthogonal, rows = modes
    mode_frequencies: np.ndarray        # nu_j = nu1 * lambda_j, rad/s
    ground_state_extents: np.ndarray    # dz_j = sqrt(hbar / 2 m nu_j), m

    SIGN_CONVENTION = "largest-magnitude mode entry positive, ties to lowest ion index"

    @property
    def ion_count(self) -> int:
        return len(self.positions)

    @property
    def positions_m(self) -> np.ndarray:
        return self.positions * self.length_scale

    def min_spacing_m(self) -> float:
        if self.ion_count < 2:
            return math.inf
        return float(np.min(np.diff(self.positions)) * self.length_scale)

    def to_json_dict(self, config: TrapConfig) -> dict:
        """chain.json's document; `config` is the one the chain was solved for."""
        return {
            "ion_count": self.ion_count,
            "length_scale_m": self.length_scale,
            "positions_dimensionless": self.positions.tolist(),
            "positions_m": self.positions_m.tolist(),
            "mode_eigenvalues": self.mode_eigenvalues.tolist(),
            "mode_frequencies_hz": (self.mode_frequencies / (2.0 * math.pi)).tolist(),
            "mode_matrix": self.mode_matrix.tolist(),
            "ground_state_extents_m": self.ground_state_extents.tolist(),
            "axial_frequency_hz": config.nu1 / (2.0 * math.pi),
            "mass_kg": config.species.mass,
            "sign_convention": self.SIGN_CONVENTION,
        }


def length_scale(config: TrapConfig) -> float:
    """Coulomb length scale zeta = (e^2 / 4 pi eps0 m nu1^2)^(1/3) in meters.

    Raises OutOfRangeError for an nu1 whose zeta is not a positive finite double.
    """
    c = CONSTANTS
    try:
        zeta = (
            c.elementary_charge**2
            / (4.0 * math.pi * c.vacuum_permittivity * config.species.mass * config.nu1**2)
        ) ** (1.0 / 3.0)
    except (ZeroDivisionError, OverflowError):  # the denominator under- or overflows
        zeta = math.nan
    if not 0.0 < zeta < math.inf:
        raise OutOfRangeError(
            "nu1", f"axial frequency {config.axial_frequency_hz!r} Hz has no finite nonzero Coulomb length scale"
        )
    return zeta


def stationarity_residual(u: np.ndarray) -> np.ndarray:
    """Dimensionless force balance; zero at equilibrium."""
    u = np.asarray(u, dtype=float)
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - np.sum(np.sign(d) / d**2, axis=1)


def dynamical_matrix(u: np.ndarray) -> np.ndarray:
    """Hessian of the trap + Coulomb potential at positions u.

    A[n, n] = 1 + 2 sum_{p != n} |u_n - u_p|^-3 and
    A[n, l] = -2 |u_n - u_l|^-3 off the diagonal.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    d = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(d, np.inf)
    if n > 1:
        i, j = np.unravel_index(np.argmin(d), d.shape)
        if d[i, j] < 1e-9:
            raise SolverError(f"ions {min(i, j) + 1} and {max(i, j) + 1} nearly coincide (|du| = {d[i, j]:.3e})")
    inv3 = d**-3
    a = -2.0 * inv3
    a[np.diag_indices(n)] = 1.0 + 2.0 * np.sum(inv3, axis=1)
    return a


def _initial_guess(n: int) -> np.ndarray:
    half_extent = 0.5 * (2.0 * n**-0.57) * n * 0.5
    return np.linspace(-half_extent, half_extent, n)


def solve_equilibrium(n: int) -> np.ndarray:
    """Equilibrium positions of n ions, dimensionless, ascending, antisymmetric.

    Damped Newton iteration on the stationarity system; the Jacobian is the
    dynamical matrix, which is strictly diagonally dominant and hence
    positive definite for any ordered configuration. A step is halved up
    to 40 times until the max-norm residual drops. The iteration stops at
    _NEWTON_TOL or on stagnation, when no backtracked step lowers the
    residual (its float64 floor is ~1e-13 for n >= 41); _MAX_NEWTON_STEPS
    is only a guard. The result is antisymmetrised as 0.5 (u - u[::-1]), so
    u[::-1] == -u bitwise and an odd chain's centre is +0.0. If it misses
    _RESIDUAL_TOL, NoConvergenceError names the steps and the stop reason.
    """
    if not 1 <= n <= MAX_IONS:
        raise ValueError(f"ion count must be in [1, {MAX_IONS}], got {n}")
    if n == 1:
        return np.zeros(1)

    u = _initial_guess(n)
    residual = stationarity_residual(u)
    res_norm = float(np.max(np.abs(residual)))
    steps = 0
    reason = "guard"
    while steps < _MAX_NEWTON_STEPS:
        if res_norm < _NEWTON_TOL:
            reason = "tolerance"
            break
        step = np.linalg.solve(dynamical_matrix(u), residual)
        alpha = 1.0
        for _ in range(40):
            trial = u - alpha * step
            if np.all(np.diff(trial) > 0.0):
                trial_res = stationarity_residual(trial)
                trial_norm = float(np.max(np.abs(trial_res)))
                if trial_norm < res_norm:
                    u, residual, res_norm = trial, trial_res, trial_norm
                    break
            alpha *= 0.5
        else:
            reason = "stagnation"
            break
        steps += 1

    u = 0.5 * (u - u[::-1])
    res_norm = float(np.max(np.abs(stationarity_residual(u))))
    if res_norm > _RESIDUAL_TOL:
        raise NoConvergenceError(steps, reason, res_norm)
    return u


def normal_modes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and sign-fixed, parity-exact mode matrix.

    A must be symmetric and mirror-symmetric to a relative 1e-12, as a
    chain's dynamical matrix is. Rows of S are np.linalg.eigh's eigenvectors,
    each signed so that its pivot, the lowest-index entry within a relative
    _SIGN_TIE_TOL of its largest magnitude, is positive (mirror pairs, the
    centre-of-mass row and N = 4 mode 3 are exact ties), then projected onto
    its parity p = sign(row . row[::-1]) as 0.5 (row + p row[::-1]): |S| is
    exactly mirrored and odd modes have a +0.0 centre entry.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("dynamical matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise ValueError("dynamical matrix must be symmetric")
    if not np.allclose(a, a[::-1, ::-1], atol=1e-12, rtol=1e-12):
        raise ValueError("dynamical matrix must be mirror-symmetric")
    eigenvalues, vectors = np.linalg.eigh(a)
    s = vectors.T.copy()
    magnitude = np.abs(s)
    tied = magnitude >= (1.0 - _SIGN_TIE_TOL) * magnitude.max(axis=1, keepdims=True)
    pivots = s[np.arange(len(s)), np.argmax(tied, axis=1)]
    s[pivots < 0.0] *= -1.0
    parity = np.sign(np.sum(s * s[:, ::-1], axis=1, keepdims=True))
    return eigenvalues, 0.5 * (s + parity * s[:, ::-1])


def solve_chain(config: TrapConfig) -> ChainSolution:
    """Full chain pipeline: equilibrium, dynamical matrix, normal modes."""
    u = solve_equilibrium(config.ion_count)
    eigenvalues, s = normal_modes(dynamical_matrix(u))
    zeta = length_scale(config)
    nu = config.nu1 * np.sqrt(eigenvalues)
    extents = np.sqrt(CONSTANTS.hbar / (2.0 * config.species.mass * nu))
    return ChainSolution(
        length_scale=zeta,
        positions=u,
        mode_eigenvalues=eigenvalues,
        mode_matrix=s,
        mode_frequencies=nu,
        ground_state_extents=extents,
    )
