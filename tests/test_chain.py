import mpmath
import numpy as np
import pytest
import scipy.linalg

from conftest import E_CHARGE, EPS0, HBAR, TWO_PI, YB_MASS, standard_raw
from gradchain import chain as chain_mod
from gradchain.chain import (
    NoConvergenceError,
    SolverError,
    dynamical_matrix,
    length_scale,
    normal_modes,
    solve_chain,
    solve_equilibrium,
    stationarity_residual,
)
from gradchain.config import validate_config
from oracles import equilibrium_oracle


def dimensionless_potential(u):
    """Independent oracle: trap + Coulomb energy in chain units."""
    energy = 0.5 * np.sum(np.asarray(u) ** 2)
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            energy += 1.0 / abs(u[i] - u[j])
    return energy


def chain_matrix(n):
    return dynamical_matrix(solve_equilibrium(n))


def pivot_index(row, tol=1e-9):
    """Documented sign pivot: the lowest index within tol (relative) of the largest magnitude."""
    top = max(abs(x) for x in row)
    return next(i for i, x in enumerate(row) if abs(x) >= (1.0 - tol) * top)


def sign_fixed(rows):
    return np.array([row if row[pivot_index(row)] > 0 else -row for row in rows])


def mpmath_modes(n, digits=50):
    """Modes of the 50-digit dynamical matrix at the 50-digit equilibrium."""
    with mpmath.workdps(digits):
        u = equilibrium_oracle(n, digits)
        a = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                if i != j:
                    a[i, j] = -2 / abs(u[i] - u[j]) ** 3
            a[i, i] = 1 - sum(a[i, j] for j in range(n) if j != i)
        eigenvalues, vectors = mpmath.eigsy(a)
        lam2 = np.array([float(x) for x in eigenvalues])
        rows = np.array(vectors.T.tolist(), dtype=float)
    order = np.argsort(lam2)
    return lam2[order], sign_fixed(rows[order])


def finite_difference_gradient(u, h=1e-6):
    grad = np.zeros(len(u))
    for i in range(len(u)):
        up = np.array(u, dtype=float)
        dn = np.array(u, dtype=float)
        up[i] += h
        dn[i] -= h
        grad[i] = (dimensionless_potential(up) - dimensionless_potential(dn)) / (2 * h)
    return grad


def finite_difference_hessian(u, h=1e-6):
    # differences the force-balance residual, itself checked against the
    # bare potential in test_stationarity_matches_potential_gradient
    n = len(u)
    hess = np.zeros((n, n))
    for i in range(n):
        up = np.array(u, dtype=float)
        dn = np.array(u, dtype=float)
        up[i] += h
        dn[i] -= h
        hess[:, i] = (stationarity_residual(up) - stationarity_residual(dn)) / (2 * h)
    return hess


# equilibrium ---------------------------------------------------------------

def test_single_ion_at_center():
    assert solve_equilibrium(1).tolist() == [0.0]


def test_two_ions_analytic():
    u = solve_equilibrium(2)
    expected = 0.25 ** (1.0 / 3.0)  # u = (2u)^-2  =>  u^3 = 1/4
    assert abs(u[0] + expected) < 1e-10
    assert abs(u[1] - expected) < 1e-10


def test_three_ions_analytic():
    u = solve_equilibrium(3)
    expected = 1.25 ** (1.0 / 3.0)  # outer ions at +/-(5/4)^(1/3), center at 0
    assert abs(u[0] + expected) < 1e-10
    assert abs(u[1]) < 1e-10
    assert abs(u[2] - expected) < 1e-10


@pytest.mark.parametrize("n", range(1, 51))
def test_equilibrium_residual_sorted_centered(n):
    u = solve_equilibrium(n)
    assert np.max(np.abs(stationarity_residual(u))) < 1e-12
    assert np.all(np.diff(u) > 0)
    assert np.array_equal(u[::-1], -u)
    assert np.count_nonzero(u == 0.0) == n % 2
    assert not np.any(np.signbit(u[u == 0.0]))  # an odd chain's centre is +0.0


@pytest.mark.parametrize("n", range(2, 11))
def test_equilibrium_matches_50_digit_root(n):
    # Newton stops once the residual is below 0.5e-13, which leaves N = 6
    # at 3.6e-15 (8 ulp) from the root; the other N <= 10 are within 2.3e-16
    expected = np.array([float(x) for x in equilibrium_oracle(n)])
    assert np.max(np.abs(solve_equilibrium(n) - expected)) < 5e-15


@pytest.mark.parametrize("n", [41, 43, 45, 47, 49, 50])
def test_newton_stops_on_stagnation(n, monkeypatch):
    # the residual's float64 floor (~1e-13) lies above the Newton tolerance
    # at these sizes; the solve must stop when backtracking finds no descent
    calls = []
    original = chain_mod.stationarity_residual

    def counting(u):
        calls.append(1)
        return original(u)

    monkeypatch.setattr(chain_mod, "stationarity_residual", counting)
    u = solve_equilibrium(n)
    assert len(calls) <= 100
    assert np.max(np.abs(original(u))) < 1e-12


def test_no_convergence_error_names_steps_and_reason(monkeypatch):
    monkeypatch.setattr(chain_mod, "_MAX_NEWTON_STEPS", 2)
    with pytest.raises(NoConvergenceError, match=r"\(guard\) after 2 Newton steps") as info:
        solve_equilibrium(20)
    assert (info.value.steps, info.value.reason) == (2, "guard")
    monkeypatch.undo()
    monkeypatch.setattr(chain_mod, "_RESIDUAL_TOL", 1e-30)
    with pytest.raises(NoConvergenceError, match=r"\(stagnation\)"):
        solve_equilibrium(50)
    with pytest.raises(NoConvergenceError, match=r"\(tolerance\)"):
        solve_equilibrium(5)


@pytest.mark.parametrize("n", [2, 4, 7, 12])
def test_stationarity_matches_potential_gradient(n):
    # the residual is the gradient of the dimensionless chain potential
    u = solve_equilibrium(n) + np.linspace(-0.01, 0.01, n)  # off equilibrium
    assert np.allclose(stationarity_residual(u), finite_difference_gradient(u), atol=1e-7)


def test_deterministic_bit_for_bit():
    for n in (2, 9, 17):
        cfg = validate_config(standard_raw(n=n))
        a = solve_chain(cfg)
        b = solve_chain(cfg)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.mode_eigenvalues, b.mode_eigenvalues)
        assert np.array_equal(a.mode_matrix, b.mode_matrix)


# length scale --------------------------------------------------------------

def test_length_scale_yb171_100khz():
    cfg = validate_config(standard_raw())
    nu1 = TWO_PI * 1e5
    expected = (E_CHARGE**2 / (4 * np.pi * EPS0 * YB_MASS * nu1**2)) ** (1 / 3)
    zeta = length_scale(cfg)
    assert zeta == pytest.approx(expected, rel=1e-12)
    assert zeta == pytest.approx(1.273e-5, rel=2e-3)


def test_length_scale_mass_power_law():
    # doubling the mass at fixed nu1 scales zeta by 2^(-1/3)
    light = validate_config(standard_raw())
    zeta_light = length_scale(light)
    heavy_mass = 2.0 * light.mass
    expected = zeta_light * 2.0 ** (-1.0 / 3.0)
    from dataclasses import replace

    heavy_species = replace(light.species, mass=heavy_mass)
    heavy = replace(light, species=heavy_species)
    assert length_scale(heavy) == pytest.approx(expected, rel=1e-12)


def test_min_spacing_n10_near_7um(chain10):
    assert chain10.min_spacing_m() == pytest.approx(7e-6, rel=0.05)


def test_spacing_scaling_law():
    # empirical law: min spacing ~ zeta * 2 N^-0.57. Good to 5% for
    # mid-size chains; degrades to ~6.5% at N=2 and ~6% by N=20.
    for n in range(3, 11):
        u = solve_equilibrium(n)
        ratio = np.min(np.diff(u)) / (2.0 * n**-0.57)
        assert 0.95 < ratio < 1.05, (n, ratio)
    for n in (2, *range(11, 21)):
        u = solve_equilibrium(n)
        ratio = np.min(np.diff(u)) / (2.0 * n**-0.57)
        assert 0.93 < ratio < 1.07, (n, ratio)


# dynamical matrix ----------------------------------------------------------

def test_dynamical_matrix_single_ion():
    assert dynamical_matrix(np.zeros(1)).tolist() == [[1.0]]


def test_dynamical_matrix_two_ions():
    u = solve_equilibrium(2)
    a = dynamical_matrix(u)
    # |u1 - u2|^3 = (2 (1/4)^(1/3))^3 = 2, so off-diagonal -1 and diagonal 2
    assert np.allclose(a, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
def test_dynamical_matrix_row_sums_are_one(n):
    # Coulomb terms cancel pairwise: A (1, ..., 1)^T = (1, ..., 1)^T
    a = dynamical_matrix(solve_equilibrium(n))
    assert np.allclose(a @ np.ones(n), np.ones(n), atol=1e-11)
    assert np.allclose(a, a.T, atol=0)


@pytest.mark.parametrize("n", [3, 6])
def test_dynamical_matrix_is_potential_hessian(n):
    u = solve_equilibrium(n)
    assert np.allclose(dynamical_matrix(u), finite_difference_hessian(u), atol=1e-7)


def test_degenerate_positions_rejected():
    with pytest.raises(SolverError, match=r"^ions 1 and 2 nearly coincide \(\|du\| = 1\.000e-10\)$"):
        dynamical_matrix(np.array([0.0, 1e-10]))


# normal modes --------------------------------------------------------------

def test_modes_single_ion():
    lam2, s = normal_modes(np.array([[1.0]]))
    assert lam2.tolist() == [1.0]
    assert s.tolist() == [[1.0]]


def test_modes_two_ions_analytic():
    lam2, s = normal_modes(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert np.allclose(lam2, [1.0, 3.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(s, [[r, r], [r, -r]], atol=1e-12)


def test_modes_three_ions_analytic():
    lam2, _ = normal_modes(dynamical_matrix(solve_equilibrium(3)))
    assert np.allclose(lam2, [1.0, 3.0, 29.0 / 5.0], atol=1e-9)


@pytest.mark.parametrize("n", list(range(2, 21)))
def test_universal_low_modes_and_orthogonality(n):
    sol = solve_chain(validate_config(standard_raw(n=n)))
    assert abs(sol.mode_eigenvalues[0] - 1.0) < 1e-9   # center of mass
    assert abs(sol.mode_eigenvalues[1] - 3.0) < 1e-9   # breathing
    assert np.all(sol.mode_eigenvalues > 0)            # true minimum
    gram = sol.mode_matrix @ sol.mode_matrix.T
    assert np.max(np.abs(gram - np.eye(n))) < 1e-10
    # COM row is uniform
    assert np.allclose(sol.mode_matrix[0], np.ones(n) / np.sqrt(n), atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 20, 50])
def test_modes_match_dense_diagonalization(n):
    a = chain_matrix(n)
    lam2, s = normal_modes(a)
    assert np.max(np.abs(s @ a @ s.T - np.diag(lam2))) < 1e-10
    assert np.max(np.abs(s @ s.T - np.eye(n))) < 1e-12
    if n <= 10:
        # independent oracle: 50-digit Jacobi diagonalization of the A
        # built at 50 digits from the 50-digit equilibrium
        lam2_mp, s_mp = mpmath_modes(n)
        assert np.allclose(lam2, lam2_mp, rtol=1e-13, atol=0)
        assert np.max(np.abs(s - s_mp)) < 1e-12


def test_mode_sign_convention():
    # in a harmonic trap every mode is symmetric or antisymmetric, so every
    # row has |S[j, n]| = |S[j, N+1-n]|: the tie rule decides every sign
    for n in range(2, 51):
        _, s = normal_modes(chain_matrix(n))
        assert np.array_equal(np.abs(s), np.abs(s[:, ::-1])), n
        for row in s:
            assert row[pivot_index(row)] > 0, n


@pytest.mark.parametrize("driver", ["numpy", "evr"])
def test_modes_exact_parity(driver, monkeypatch):
    # every row is exactly even or odd, and an odd row's centre entry is +0.0,
    # whichever LAPACK driver produced the eigenvectors
    if driver == "evr":
        monkeypatch.setattr(np.linalg, "eigh", lambda a: scipy.linalg.eigh(a, driver="evr"))
    for n in range(1, 51):
        _, s = normal_modes(chain_matrix(n))
        for row in s:
            odd = np.array_equal(row[::-1], -row)
            assert odd or np.array_equal(row[::-1], row), n
            if odd and n % 2:
                centre = row[n // 2]
                assert centre == 0.0 and not np.signbit(centre), n


def test_four_ion_third_mode_is_an_exact_tie():
    # S[2] = (1/2, -1/2, -1/2, 1/2) exactly (50-digit eigsy agrees): all four
    # magnitudes tie, so only _SIGN_TIE_TOL keeps rounding from picking the sign
    _, s = normal_modes(chain_matrix(4))
    assert np.max(np.abs(s[2] - [0.5, -0.5, -0.5, 0.5])) < 1e-15
    _, s_mp = mpmath_modes(4)
    assert np.max(np.abs(s_mp[2] - [0.5, -0.5, -0.5, 0.5])) < 1e-15


def test_smallest_mode_gap():
    # chain geometry depends on N alone, so this bound over N = 2..50 is why
    # no run needs a near-degeneracy check
    for n in range(2, 51):
        lam2, _ = normal_modes(chain_matrix(n))
        assert np.min(np.diff(lam2)) >= 1.99, n


def test_mode_signs_survive_symmetric_perturbation():
    rng = np.random.default_rng(0)
    for n in range(2, 51):
        a = chain_matrix(n)
        noise = rng.standard_normal((n, n))
        perturbed = a * (1.0 + 1e-15 * (noise + noise.T))
        assert not np.array_equal(perturbed, a)
        _, s = normal_modes(a)
        _, s_perturbed = normal_modes(perturbed)
        assert np.max(np.abs(s - s_perturbed)) < 1e-9, n


def test_mode_signs_match_other_lapack_driver():
    for n in range(2, 51):
        a = chain_matrix(n)
        _, s = normal_modes(a)
        _, vectors = scipy.linalg.eigh(a, driver="evr")
        assert np.max(np.abs(s - sign_fixed(vectors.T))) < 1e-9, n


def test_normal_modes_rejects_asymmetric():
    with pytest.raises(ValueError):
        normal_modes(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_normal_modes_rejects_mirror_asymmetric():
    with pytest.raises(ValueError, match="mirror-symmetric"):
        normal_modes(np.array([[1.0, 0.5], [0.5, 2.0]]))


# derived per-mode quantities ----------------------------------------------

def test_mode_frequencies_and_extents(chain2, config2):
    nu1 = TWO_PI * 1e5
    assert np.allclose(chain2.mode_frequencies, nu1 * np.sqrt([1.0, 3.0]), rtol=1e-12)
    dz1 = np.sqrt(HBAR / (2 * YB_MASS * nu1))
    assert chain2.ground_state_extents[0] == pytest.approx(dz1, rel=1e-12)
    assert chain2.ground_state_extents[1] == pytest.approx(dz1 * 3.0**-0.25, rel=1e-12)


def test_ground_state_extent_17nm(chain2):
    assert chain2.ground_state_extents[0] == pytest.approx(17.2e-9, rel=0.01)


def test_chain_json_dict(chain10):
    doc = chain10.to_json_dict()
    assert doc["ion_count"] == 10
    assert len(doc["positions_m"]) == 10
    assert doc["positions_m"][0] == pytest.approx(
        doc["positions_dimensionless"][0] * doc["length_scale_m"], rel=1e-15
    )
    # frequencies serialize as nu1 * lambda in ordinary Hz
    assert doc["mode_frequencies_hz"][0] == pytest.approx(1e5, rel=1e-12)
    assert doc["mode_frequencies_hz"][1] == pytest.approx(1e5 * np.sqrt(3), rel=1e-12)
    assert len(doc["mode_matrix"]) == 10
    assert sorted(doc) == ["axial_frequency_hz", "ground_state_extents_m", "ion_count", "length_scale_m", "mass_kg",
                           "mode_eigenvalues", "mode_frequencies_hz", "mode_matrix", "positions_dimensionless",
                           "positions_m", "sign_convention"]
