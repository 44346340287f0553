from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import C_LIGHT, HBAR, MU_B, TWO_PI, YB_MASS, mu0_quadratic_config, standard_raw
from gradchain.chain import SolverError, solve_chain
from gradchain.config import ConfigError, load_config, validate_config
from gradchain.coupling import build_report, sideband_spectrum
from oracles import carrier_shift_oracle, j_matrix_bruteforce_oracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GRAD_10TM = MU_B * 10.0 / HBAR  # d(omega)/dz for Yb171 in 10 T/m


def make(n=2, nu1="100kHz", b="10T/m", field=None):
    raw = standard_raw(n=n, nu1=nu1, b=b)
    if field is not None:
        raw["field"] = field
    cfg = validate_config(raw)
    return cfg, solve_chain(cfg)


# omega gradients and qubit frequencies --------------------------------------

def test_gradients_uniform_10tm(config2, chain2):
    grads = build_report(config2, chain2).omega_gradients
    assert np.allclose(grads, GRAD_10TM, rtol=1e-12)
    assert grads[0] == pytest.approx(8.794e11, rel=1e-3)


def test_gradients_zero_field():
    cfg, chain = make(n=3, b="0T/m")
    assert np.all(build_report(cfg, chain).omega_gradients == 0.0)


def test_gradients_quadratic_vary_monotonically():
    cfg, chain = make(n=4, field={"quadratic": {"b": "10T/m", "c": 1e5}})
    grads = build_report(cfg, chain).omega_gradients
    assert np.all(np.diff(grads) > 0)  # dB/dz = b + 2 c z rises along the chain


def test_gradients_sampled_profile_and_range():
    cfg, chain = make(n=2)
    extent = float(np.max(np.abs(chain.positions_m)))
    wide = {"sampled": {"points": [[-2 * extent, 0.0], [2 * extent, 4 * extent * 10.0]]}}
    cfg_wide, chain_wide = make(n=2, field=wide)
    assert np.allclose(build_report(cfg_wide, chain_wide).omega_gradients, GRAD_10TM, rtol=1e-12)
    narrow = {"sampled": {"points": [[-0.1 * extent, 0.0], [0.1 * extent, 1e-6]]}}
    cfg_narrow, chain_narrow = make(n=2, field=narrow)
    with pytest.raises(ConfigError, match="outside sampled profile range"):
        build_report(cfg_narrow, chain_narrow)


def test_qubit_frequencies_no_field():
    cfg, chain = make(n=3, b="0T/m")
    assert np.allclose(build_report(cfg, chain).qubit_frequencies, TWO_PI * 12.6e9, rtol=1e-15)


def test_qubit_frequencies_monotonic_and_spacing(config10, chain10):
    omegas = build_report(config10, chain10).qubit_frequencies
    splittings = np.diff(omegas)
    assert np.all(splittings > 0)
    # splitting between neighbors is gradient * local spacing
    spacing = np.diff(chain10.positions_m)
    assert np.allclose(splittings, GRAD_10TM * spacing, rtol=1e-9)
    # around a MHz for the 10 T/m, 100 kHz chain
    assert splittings.min() / TWO_PI == pytest.approx(1.0e6, rel=0.1)
    # spacing is non-uniform, so splittings are too
    assert splittings.max() > 1.2 * splittings.min()


# epsilon matrix --------------------------------------------------------------

def test_epsilon_single_ion_value():
    cfg, chain = make(n=1)
    eps = build_report(cfg, chain).epsilon_matrix
    nu1 = TWO_PI * 1e5
    dz1 = np.sqrt(HBAR / (2 * YB_MASS * nu1))
    assert eps[0, 0] == pytest.approx(GRAD_10TM * dz1 / nu1, rel=1e-12)
    assert eps[0, 0] == pytest.approx(0.0241, rel=0.01)


def test_epsilon_zero_gradient():
    cfg, chain = make(n=4, b="0T/m")
    assert np.all(build_report(cfg, chain).epsilon_matrix == 0.0)


def test_epsilon_com_symmetric(config2, chain2):
    eps = build_report(config2, chain2).epsilon_matrix
    assert abs(eps[0, 0]) == pytest.approx(abs(eps[0, 1]), rel=1e-12)


def test_epsilon_linear_in_gradient():
    cfg_a, chain_a = make(n=3, b="10T/m")
    cfg_b, chain_b = make(n=3, b="10.0001T/m")
    eps_a = build_report(cfg_a, chain_a).epsilon_matrix
    eps_b = build_report(cfg_b, chain_b).epsilon_matrix
    slope = (eps_b - eps_a) / 1e-4
    assert np.allclose(slope, eps_a / 10.0, rtol=1e-6)


# J matrix --------------------------------------------------------------------

def test_two_ion_closed_form_grid():
    # J12 = hbar (d omega/dz)^2 / (6 m nu1^2) for two ions in a uniform gradient
    for b in (2.0, 10.0, 37.5):
        for nu1_hz in (5e4, 1e5, 4e5):
            cfg, chain = make(n=2, nu1=f"{nu1_hz!r}Hz", b=f"{b!r}T/m")
            j = build_report(cfg, chain).j_matrix
            grad = MU_B * b / HBAR
            expected = HBAR * grad**2 / (6 * YB_MASS * (TWO_PI * nu1_hz) ** 2)
            assert j[0, 1] == pytest.approx(expected, rel=1e-10)
            assert j[1, 0] == j[0, 1]
            assert j[0, 0] == 0.0 and j[1, 1] == 0.0


def test_two_ion_j_is_19_3_hz(report2):
    assert report2.j_matrix[0, 1] / TWO_PI == pytest.approx(19.3, rel=1e-3)


def test_j_zero_gradient():
    cfg, chain = make(n=5, b="0T/m")
    assert np.all(build_report(cfg, chain).j_matrix == 0.0)


def test_n10_max_j_within_order_of_magnitude(report10):
    max_j_hz = np.max(report10.j_matrix) / TWO_PI
    assert 4.0 <= max_j_hz <= 400.0


def test_oracle_equivalence_three_ions_positive():
    cfg, chain = make(n=3)
    j = j_matrix_bruteforce_oracle(build_report(cfg, chain).omega_gradients, chain, YB_MASS)
    assert j[0, 1] > 0 and j[0, 2] > 0 and j[1, 2] > 0


def test_oracle_single_ion_empty():
    cfg, chain = make(n=1)
    assert np.all(j_matrix_bruteforce_oracle(build_report(cfg, chain).omega_gradients, chain, YB_MASS) == 0.0)


@pytest.mark.parametrize("n", range(2, 13))
def test_oracle_equivalence_random_profiles(n):
    # a sampled profile with one segment per ion, whose slope, up to +-11 T/m, is that ion's field gradient
    rng = np.random.default_rng(100 + n)
    chain = solve_chain(validate_config(standard_raw(n=n)))
    z = chain.positions_m
    edges = np.concatenate([[2 * z[0]], (z[:-1] + z[1:]) / 2, [2 * z[-1]]])
    for _ in range(6):
        fields = np.concatenate([[0.0], np.cumsum(rng.uniform(-11.4, 11.4, n) * np.diff(edges))])
        field = {"sampled": {"points": [[float(e), float(f)] for e, f in zip(edges, fields)]}}
        report = build_report(validate_config(standard_raw(n=n) | {"field": field}), chain)
        a = report.j_matrix
        b = j_matrix_bruteforce_oracle(report.omega_gradients, chain, YB_MASS)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale
        assert np.allclose(a, a.T, atol=0)


def test_sign_flip_invariance():
    cfg, chain = make(n=4)
    j_ref = build_report(cfg, chain).j_matrix
    for row in range(4):
        flipped_s = chain.mode_matrix.copy()
        flipped_s[row] *= -1.0
        flipped = replace(chain, mode_matrix=flipped_s)
        assert np.array_equal(build_report(cfg, flipped).j_matrix, j_ref)


def test_j_scaling_laws():
    # J ~ b^2 and ~ nu1^-2: the mode spectrum and S are invariant, so the
    # whole matrix rescales; checked over the full 3x3 (b, nu1) grid
    base_cfg, base_chain = make(n=3)
    base = build_report(base_cfg, base_chain).j_matrix
    for b_factor in (2.0, 5.0, 11.0):
        for nu_factor in (2.0, 5.0, 11.0):
            cfg, chain = make(n=3, b=f"{10.0 * b_factor!r}T/m", nu1=f"{1e5 * nu_factor!r}Hz")
            j = build_report(cfg, chain).j_matrix
            assert np.allclose(j, base * b_factor**2 / nu_factor**2, rtol=1e-10)


# validity ----------------------------------------------------------------------

def test_validity_standard_case(config2, chain2, report2):
    assert build_report(config2, chain2).validity == pytest.approx(0.0241, rel=0.01)
    assert report2.harmonic_approximation_valid


def test_validity_zero_gradient():
    cfg, chain = make(n=2, b="0T/m")
    assert build_report(cfg, chain).validity == 0.0


def test_validity_strong_gradient_flagged():
    cfg, chain = make(n=2, b="500T/m")
    report = build_report(cfg, chain)
    assert report.validity == pytest.approx(1.20, rel=0.01)
    assert not report.harmonic_approximation_valid


def test_report_with_a_non_finite_quantity_raises_solver_error():
    # J overflows at 1e300 T/m; the CLI answers the error with exit 3. At B0 = b = 1.7e308 the qubit frequencies
    # overflow too. At B0 = b = the largest double, B0 + b z itself overflows at the ions right of the centre, and
    # no warning escapes: the field is read where numpy's warnings are off.
    gradient_terms = "omega_gradients, epsilon_matrix, j_matrix, shifts, eta_eff"
    rows = [(2, "0", "1e300", f"{gradient_terms}, validity")]
    for big in ("1.7e308", "1.7976931348623157e308"):
        rows += [(2, big, big, f"{gradient_terms}, validity, qubit_frequencies"),
                 (25, big, big, f"{gradient_terms}, phases_exact, validity, qubit_frequencies")]
    for n, b0, b, names in rows:
        cfg = validate_config(standard_raw(n=n, b=f"{b}T/m", b0=f"{b0}T"))
        with pytest.raises(SolverError, match=rf"^coupling quantities are not finite: {names}$"):
            build_report(cfg, solve_chain(cfg))


# effective Lamb-Dicke -----------------------------------------------------------

def test_eta_bare_microwave_tiny(config10, chain10, report10):
    nu1 = TWO_PI * 1e5
    dz1 = np.sqrt(HBAR / (2 * YB_MASS * nu1))
    k = TWO_PI * 12.6e9 / C_LIGHT
    assert report10.eta_bare[0] == pytest.approx(dz1 * k, rel=1e-12)
    assert report10.eta_bare[0] < 1e-5


def test_zero_gradient_reductions():
    cfg, chain = make(n=3, b="0T/m")
    eta_eff = build_report(cfg, chain).eta_eff
    k = TWO_PI * 12.6e9 / C_LIGHT
    eta_bare = chain.ground_state_extents * k
    assert np.allclose(eta_eff, np.abs(eta_bare[:, None] * chain.mode_matrix), atol=0)
    assert np.all(build_report(cfg, chain).shifts == 0.0)


def test_eta_eff_modulus_identity(config10, chain10):
    report = build_report(config10, chain10)
    eps, eta_eff = report.epsilon_matrix, report.eta_eff
    k = config10.drive_wavevector
    bare = chain10.ground_state_extents[:, None] * chain10.mode_matrix
    assert np.allclose(eta_eff**2, (k * bare) ** 2 + eps**2, rtol=1e-12)


# carrier shifts -----------------------------------------------------------------


def test_two_ion_shifts():
    # both ions of configs/trap.json see 10 T/m, so both lines centre at -hbar (d omega/dz)^2 / (2 m nu1^2)
    cfg = load_config(CONFIGS / "trap.json")
    chain = solve_chain(cfg)
    shifts = build_report(cfg, chain).shifts
    assert shifts == pytest.approx(carrier_shift_oracle(cfg, chain), rel=1e-9)
    expected = -HBAR * GRAD_10TM**2 / (2 * YB_MASS * (TWO_PI * 1e5) ** 2)
    assert shifts == pytest.approx([expected, expected], rel=1e-12)
    assert shifts[0] / TWO_PI == pytest.approx(-57.8954129, rel=1e-9)


@pytest.mark.parametrize("moments", [None, (0.5, 2.0), (2.0, 0.5), (1.0, 1.0)])
def test_quadratic_profile_shifts_match_fock_oracle(moments):
    # moments (mu0, mu1) other than Yb171's (0, 1) check the (mu0 + mu1) factor; mu0 = mu1 moves no line
    cfg = load_config(CONFIGS / "trap_quadratic.json")
    if moments is not None:
        cfg = replace(cfg, species=replace(cfg.species, name="test", moment_state0=moments[0],
                                           moment_state1=moments[1]))
    chain = solve_chain(cfg)
    shifts = build_report(cfg, chain).shifts
    assert np.all(np.isfinite(shifts))
    assert shifts == pytest.approx(carrier_shift_oracle(cfg, chain), rel=1e-9, abs=0)


CURVATURE_CONFIGS = {
    "mu0_n2": lambda: mu0_quadratic_config(2),
    "yb_moments_n2": lambda: mu0_quadratic_config(2, moments=(0.0, 1.0)),
    "trap_quadratic": lambda: load_config(CONFIGS / "trap_quadratic.json"),
}
# the closed form in Hz; mu0_n2's is 0.7 of yb_moments_n2's, as its mu1 - mu0 is 0.7
CURVATURE_CLOSED_FORM_HZ = {
    "mu0_n2": [0.456729, 0.456729],
    "yb_moments_n2": [0.652470, 0.652470],
    "trap_quadratic": [0.522065, 0.437597, 0.437597, 0.522065],
}


@pytest.mark.parametrize("name", CURVATURE_CONFIGS)
def test_field_curvature_moves_line_centres_by_the_closed_form(name):
    # The c q^2 Zeeman term of B = B0 + b z + c z^2, which the report leaves out, moves ion n's line centre by
    # its mean in the motional ground state, kappa_n sum_j S_jn^2 dz_j^2 with kappa_n = (mu1 - mu0) mu_B c / hbar.
    # The exact lines differ from it at the next order in epsilon (doubling b to 20 T/m on mu0_n2 multiplies the gap
    # by 3.5-4.8): 2.9e-3 and 5.3e-3 relative on mu0_n2 (epsilon = 0.022), 2.1e-3 and 3.8e-3 on yb_moments_n2,
    # 1.6e-3 to 6.7e-3 on trap_quadratic, all above the closed form. The bound, 1e-2 relative, holds that gap.
    cfg = CURVATURE_CONFIGS[name]()
    chain = solve_chain(cfg)
    c = cfg.field.coefficients[2]
    kappa = (cfg.species.moment_state1 - cfg.species.moment_state0) * MU_B * c / HBAR
    closed = kappa * np.sum(chain.mode_matrix**2 * chain.ground_state_extents[:, None] ** 2, axis=0)
    assert closed / TWO_PI == pytest.approx(CURVATURE_CLOSED_FORM_HZ[name], rel=1e-5)
    four, five = (carrier_shift_oracle(cfg, chain, fock, curvature=True) for fock in (4, 5))
    # converged in the Fock cutoff: 2.2e-7 Hz on trap_quadratic; 5 and 7 levels agree to 3.6e-10 Hz there
    assert np.max(np.abs(five - four)) / TWO_PI <= 1e-6
    shift = five - carrier_shift_oracle(cfg, chain, 5)
    assert np.all(shift > closed)
    assert np.max(np.abs(shift / closed - 1.0)) <= 1e-2


def test_each_phonon_moves_the_line_centres_under_curvature():
    # In Fock state n_j the mean of q_n^2 is sum_j (2 n_j + 1) S_jn^2 dz_j^2, so under curvature each phonon in
    # mode j moves ion n's line centre by 2 kappa_n S_jn^2 dz_j^2. Eigenvalue 1 of each spin configuration holds
    # one centre-of-mass phonon, since the stretch mode sits at sqrt(3) nu1 < 2 nu1. Diagonalized: 0.579103 Hz
    # against the closed form's 0.579109 Hz (1.1e-5 relative), the same to eight digits at 10 and 14 Fock levels.
    cfg = mu0_quadratic_config(2)
    chain = solve_chain(cfg)
    kappa = (cfg.species.moment_state1 - cfg.species.moment_state0) * MU_B * cfg.field.coefficients[2] / HBAR
    closed = 2.0 * kappa * chain.mode_matrix[0] ** 2 * chain.ground_state_extents[0] ** 2
    ten, fourteen = (carrier_shift_oracle(cfg, chain, fock, curvature=True, level=1)
                     - carrier_shift_oracle(cfg, chain, fock, curvature=True) for fock in (10, 14))
    assert np.max(np.abs(fourteen - ten)) / TWO_PI <= 1e-7
    assert fourteen == pytest.approx(closed, rel=1e-4)


def test_phonon_number_does_not_move_the_line_centres_in_a_uniform_gradient():
    # a displaced oscillator keeps its level spacing: seen 9e-11 Hz, rounding in the eigenvalues
    cfg = validate_config(standard_raw(n=2))
    chain = solve_chain(cfg)
    shift = (carrier_shift_oracle(cfg, chain, 10, curvature=True, level=1)
             - carrier_shift_oracle(cfg, chain, 10, curvature=True))
    assert np.max(np.abs(shift)) / TWO_PI <= 1e-6


def test_uniform_gradient_shift_closed_form():
    # only the centre-of-mass mode has a nonzero ion sum, so every ion of every chain shifts alike
    expected = -HBAR * GRAD_10TM**2 / (2 * YB_MASS * (TWO_PI * 1e5) ** 2)
    for n in range(1, 51):
        cfg, chain = make(n=n)
        shifts = build_report(cfg, chain).shifts
        assert np.max(np.abs(shifts / expected - 1.0)) <= 1e-12, n


def test_exact_phases_near_pi_half(config2, chain2):
    report = build_report(config2, chain2)
    eps, phases = report.epsilon_matrix, report.phases_exact
    # microwave eta is ~1e-6 of eps, so the exact phase sits within ~1e-3 of
    # +pi/2 (eps > 0) or -pi/2 (eps < 0, where the mode row is negative)
    wrapped = np.angle(np.exp(1j * phases))
    assert np.all(np.abs(np.abs(wrapped) - 0.5 * np.pi) < 1e-3)
    assert np.all(np.sign(wrapped) == np.sign(eps))



@pytest.mark.parametrize("n", [5, 49])
@pytest.mark.parametrize("b, expected", [("20T/m", 0.5 * np.pi), ("-20T/m", -0.5 * np.pi)])
def test_exact_phases_at_centre_zeros(n, b, expected):
    # an odd mode's centre entry is +0.0, so S = eps = 0 there and the phase
    # is pi/2 - atan2(+0, +-0): exactly +pi/2 for b > 0 and -pi/2 for b < 0
    cfg, chain = make(n=n, b=b)
    report = build_report(cfg, chain)
    zeros = chain.mode_matrix == 0.0
    assert np.count_nonzero(zeros) == n // 2
    assert np.all(report.epsilon_matrix[zeros] == 0.0)
    assert np.all(report.phases_exact[zeros] == expected)

def test_exact_phases_are_the_phase_of_the_sideband_amplitude():
    # r = eps + i eta S = i eta' e^{-i phi} on every (mode, ion) of a quadratic field, to rounding
    cfg = load_config(CONFIGS / "trap_quadratic.json")
    chain = solve_chain(cfg)
    report = build_report(cfg, chain)
    amplitude = report.epsilon_matrix + 1j * report.eta_bare[:, None] * chain.mode_matrix
    assert np.all(np.abs(1j * report.eta_eff * np.exp(-1j * report.phases_exact) - amplitude)
                  <= 1e-15 * report.eta_eff)


# sideband spectrum ----------------------------------------------------------------

def test_spectrum_two_ions(config2, chain2, report2):
    lines = sideband_spectrum(chain2, report2, 1)
    assert len(lines) == 5  # carrier + 2 modes x 2 signs
    offsets = [line.offset for line in lines]
    assert offsets == sorted(offsets)
    carrier = [line for line in lines if line.label == "carrier"][0]
    assert carrier.amplitude == 1.0
    assert carrier.offset == report2.shifts[0]
    for mode in (1, 2):
        red = [line for line in lines if line.label == f"red_{mode}"][0]
        blue = [line for line in lines if line.label == f"blue_{mode}"][0]
        assert red.amplitude == blue.amplitude == report2.eta_eff[mode - 1, 0]
        # offsets are ~6e5 rad/s, so differencing two of them costs at most an ulp or so
        assert blue.offset - carrier.offset == pytest.approx(chain2.mode_frequencies[mode - 1], rel=1e-15)
        assert carrier.offset - red.offset == pytest.approx(chain2.mode_frequencies[mode - 1], rel=1e-15)


def test_spectrum_zero_gradient_carrier_only():
    cfg, chain = make(n=2, b="0T/m")
    report = build_report(cfg, chain)
    lines = sideband_spectrum(chain, report, 2)
    sidebands = [line for line in lines if line.label != "carrier"]
    assert all(line.amplitude <= report.eta_bare.max() for line in sidebands)
    assert all(line.amplitude < 1e-5 for line in sidebands)


def test_spectrum_rejects_bad_ion(config2, chain2, report2):
    for ion in (0, 3):
        with pytest.raises(ValueError, match=rf"^ion index {ion} out of range \[1, 2\]$"):
            sideband_spectrum(chain2, report2, ion)


# report ------------------------------------------------------------------------

def test_quadratic_profile_gives_unequal_pair_couplings():
    # a position-dependent gradient makes J_nl differ between equivalent pairs
    cfg, chain = make(n=3, field={"quadratic": {"b": "10T/m", "c": 3e5}})
    j = build_report(cfg, chain).j_matrix
    assert abs(j[0, 1] - j[1, 2]) > 0.05 * abs(j[0, 1])
    uniform_cfg, uniform_chain = make(n=3)
    j_u = build_report(uniform_cfg, uniform_chain).j_matrix
    assert j_u[0, 1] == pytest.approx(j_u[1, 2], rel=1e-10)  # mirror symmetry


def test_sampled_profile_full_report():
    cfg0, chain0 = make(n=3)
    extent = float(np.max(np.abs(chain0.positions_m)))
    # piecewise approximation of the uniform 10 T/m ramp reproduces it exactly
    zs = np.linspace(-3 * extent, 3 * extent, 7)
    field = {"sampled": {"points": [[float(z), float(10.0 * z)] for z in zs]}}
    cfg, chain = make(n=3, field=field)
    report = build_report(cfg, chain)
    reference = build_report(cfg0, chain0)
    assert np.allclose(report.j_matrix, reference.j_matrix, rtol=1e-9)
    assert np.allclose(report.shifts, reference.shifts, rtol=1e-9)


def test_explicit_wavevector_scales_eta():
    raw = standard_raw(n=2)
    raw["drive_wavevector"] = {"explicit": 1.0e6}
    cfg = validate_config(raw)
    chain = solve_chain(cfg)
    report = build_report(cfg, chain)
    assert np.allclose(report.eta_bare, chain.ground_state_extents * 1.0e6, rtol=1e-12)
    # optical-scale wavevector gives a usable bare Lamb-Dicke parameter
    assert report.eta_bare[0] > 1e-3


def test_full_pipeline_n50_runs():
    import time

    started = time.perf_counter()
    cfg, chain = make(n=50)
    report = build_report(cfg, chain)
    elapsed = time.perf_counter() - started
    assert chain.ion_count == 50
    assert report.j_matrix.shape == (50, 50)
    assert np.all(np.isfinite(report.j_matrix))
    assert elapsed < 30.0


def test_report_serialization(report2):
    doc = report2.to_json_dict()
    assert doc["ion_count"] == 2
    assert doc["j_matrix_hz"][0][1] == pytest.approx(19.3, rel=1e-3)
    assert doc["validity"]["harmonic_approximation_valid"] is True
    assert doc["validity"]["threshold"] == 0.1
    assert len(doc["phases_exact_rad"]) == 2
    assert doc["sign_convention"]
    assert sorted(doc) == ["epsilon_matrix", "eta_bare", "eta_eff", "ion_count", "j_matrix_hz", "phases_exact_rad",
                           "qubit_frequencies_hz", "qubit_frequency_gradients_hz_per_m", "shifts_hz",
                           "sign_convention", "validity"]
