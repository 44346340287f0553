import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gradchain import pulse
from gradchain.pulse import ProgramRuntimeError, interpret, marginal_counts, parse
from gradchain.spins import (
    SpinHamiltonian,
    apply_pulse,
    diagonal_rates,
    expectation,
    free_evolution,
    initialize,
    outcome_indices,
    outcome_labels,
)
from oracles import (
    Drive,
    OracleTooLargeError,
    apply_hard_pulse,
    apply_pulse_oracle,
    diagonal_rates_oracle,
    evolve_oracle,
    expectation_oracle,
    free_evolution_oracle,
    label_tally,
    measurement_probabilities,
)

TWO_PI = 2.0 * np.pi

# independent dense reference built from explicit Pauli matrices ------------

SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)  # sz|1> = +|1>
SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # raising |0> -> |1>


def op_on(matrix, ion, n):
    out = np.kron(np.eye(1 << (n - ion), dtype=complex), matrix)
    return np.kron(out, np.eye(1 << (ion - 1), dtype=complex))


def dense_hamiltonian(j):
    n = len(j)
    dim = 1 << n
    ham = np.zeros((dim, dim), dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            ham -= 0.5 * j[a, b] * op_on(SZ, a + 1, n) @ op_on(SZ, b + 1, n)
    return ham


def scipy_free_evolution(state_vec, j, t):
    return scipy.linalg.expm(-1j * dense_hamiltonian(j) * t) @ state_vec


def random_coupling(rng, n, j_scale=1e3):
    """A random symmetric J matrix, rad/s, with zero diagonal."""
    j = rng.uniform(-j_scale, j_scale, (n, n)) * TWO_PI
    j = 0.5 * (j + j.T)
    np.fill_diagonal(j, 0.0)
    return j


def random_rates(rng, n, j_scale=1e3):
    return diagonal_rates(SpinHamiltonian(random_coupling(rng, n, j_scale)))


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)))


# initialization --------------------------------------------------------------

def test_initialize_all_zeros():
    state = initialize(2, "00")
    assert state.tolist() == [1, 0, 0, 0]


def test_initialize_convention():
    # qubit 1 is bit 0: "10" means qubit 1 in |1>, basis index 1
    state = initialize(2, "10")
    assert state[1] == 1.0
    assert np.sum(np.abs(state)) == 1.0
    assert outcome_labels(outcome_indices(np.array([1]), (1, 2)), 2) == ["10"]


def test_initialize_large_register():
    state = initialize(12, "0" * 12)
    assert state.dtype == complex
    assert state.size == 4096
    assert np.linalg.norm(state) == 1.0


def test_norm_matches_linalg_norm(monkeypatch):
    # interpret's norm check reports the norm it computed; start it from states whose norm is not 1
    rng = np.random.default_rng(5)
    for amplitudes in (rng.normal(size=1 << 10) + 1j * rng.normal(size=1 << 10), np.arange(4.0), np.zeros(2)):
        n = amplitudes.size.bit_length() - 1
        monkeypatch.setattr(pulse, "initialize", lambda n, label: amplitudes.astype(complex))
        with pytest.raises(ProgramRuntimeError, match="^2:1: state norm ") as err:
            interpret(parse(f"ions {n}\ndelay 0s\n"), np.zeros((n, n)), "0" * n, seed=0, shots=1)
        got = float(str(err.value).split()[3])
        assert got == pytest.approx(np.linalg.norm(amplitudes), rel=1e-14, abs=0.0)


def test_initialize_bad_labels():
    with pytest.raises(ValueError, match="^label '0' is not a 2-bit string of 0s and 1s$"):
        initialize(2, "0")
    with pytest.raises(ValueError, match="^label '0x' is not a 2-bit string of 0s and 1s$"):
        initialize(2, "0x")
    with pytest.raises(ValueError, match="^register of 17 qubits exceeds the supported maximum of 16$"):
        initialize(17, "0" * 17)
    with pytest.raises(ValueError, match="^need at least one qubit, got 0$"):
        initialize(0, "")


# diagonal energies -----------------------------------------------------------

def test_hamiltonian_takes_a_square_symmetric_coupling():
    assert SpinHamiltonian([[0.0, 2.0], [2.0, 0.0]]).coupling.shape == (2, 2)
    for coupling in (np.zeros(2), np.zeros((2, 3))):
        with pytest.raises(ValueError, match=r"^coupling matrix shape \(.*\) is not square$"):
            SpinHamiltonian(coupling)
    with pytest.raises(ValueError, match="^coupling matrix must be symmetric$"):
        SpinHamiltonian([[0.0, 1.0], [2.0, 0.0]])


def test_diagonal_rates_formula():
    rng = np.random.default_rng(5)
    j = random_coupling(rng, 3)
    rates = diagonal_rates(SpinHamiltonian(j))
    for b in range(8):
        s = [1.0 if (b >> q) & 1 else -1.0 for q in range(3)]
        expected = -0.5 * sum(
            j[a, c] * s[a] * s[c] for a in range(3) for c in range(a + 1, 3)
        )
        assert rates[b] == pytest.approx(expected, rel=1e-14, abs=1e-9)
    # dense diagonal agrees
    assert np.allclose(np.diag(dense_hamiltonian(j)).real, rates, rtol=1e-12, atol=1e-8)


# bitwise against the index-array kernels of tests/oracles.py -------------------

def signed_zero_state(rng, n):
    """Unnormalized amplitudes with about a quarter of the real and imaginary parts exactly +0.0 or -0.0."""
    parts = rng.normal(size=(1 << n, 2))
    zeros = rng.random(parts.shape) < 0.25
    parts[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return parts.view(complex).ravel()


def bits(x) -> bytes:
    return np.asarray(x).tobytes()


def check_kernels_bitwise(rng, n, j_nonzero):
    j = random_coupling(rng, n) if j_nonzero else np.zeros((n, n))
    rates = diagonal_rates(SpinHamiltonian(j))
    assert bits(rates) == bits(diagonal_rates_oracle(j))

    state = signed_zero_state(rng, n)
    t = rng.uniform(0, 2e-3)
    fast = free_evolution(state.copy(), rates, t)
    assert bits(fast) == bits(free_evolution_oracle(state.copy(), j, t))
    for ion in range(1, n + 1):
        pulse = Drive(ion, rng.uniform(0, TWO_PI * 1e4), rng.uniform(-TWO_PI * 1e5, TWO_PI * 1e5),
                      rng.uniform(0, TWO_PI), rng.uniform(0, 1e-3))
        fast = apply_pulse(state.copy(), rates, *pulse)
        slow = apply_pulse_oracle(state.copy(), j, *pulse)
        assert bits(fast) == bits(slow)
        for observable in ("sx", "sy", "sz"):
            assert bits(expectation(state, observable, ion)) == bits(expectation_oracle(state, observable, ion))


@pytest.mark.parametrize("j_nonzero", [False, True])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_kernels_match_index_array_oracles_bitwise(j_nonzero, seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 11):
        check_kernels_bitwise(rng, n, j_nonzero)


@pytest.mark.parametrize("j_nonzero", [False, True])
def test_kernels_match_index_array_oracles_bitwise_16_qubits(j_nonzero):
    # from 15 qubits (16,384 blocks) numpy's temporary elision reorders _block_unitary's products
    for n in (15, 16):
        check_kernels_bitwise(np.random.default_rng(n), n, j_nonzero)


# free evolution ----------------------------------------------------------------

def test_free_evolution_time_zero_is_identity():
    rng = np.random.default_rng(0)
    rates = random_rates(rng, 2)
    state = random_state(rng, 2)
    before = state.copy()
    free_evolution(state, rates, 0.0)
    assert np.array_equal(state, before)


def test_j_modulated_ramsey_fringe():
    # (|00> + |10>)/sqrt(2) under pure J coupling: <sx,1>(t) = cos(J t)
    j12 = TWO_PI * 19.3
    j = np.array([[0.0, j12], [j12, 0.0]])
    rates = diagonal_rates(SpinHamiltonian(j))
    for t in np.linspace(0.0, 0.1, 7):
        state = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
        free_evolution(state, rates, t)
        assert expectation(state, "sx", 1) == pytest.approx(np.cos(j12 * t), abs=1e-12)
        assert expectation(state, "sy", 1) == pytest.approx(np.sin(j12 * t), abs=1e-12)
        # brute-force 4x4 matrix exponential agrees
        ref = scipy_free_evolution(np.array([1, 1, 0, 0]) / np.sqrt(2), j, t)
        assert abs(np.vdot(ref, state)) == pytest.approx(1.0, abs=1e-12)


def test_product_state_stays_product_without_coupling():
    # without J, each qubit is at rest in its own carrier frame
    rng = np.random.default_rng(1)
    rates = diagonal_rates(SpinHamiltonian(np.zeros((2, 2))))
    single_a = rng.normal(size=2) + 1j * rng.normal(size=2)
    single_b = rng.normal(size=2) + 1j * rng.normal(size=2)
    single_a /= np.linalg.norm(single_a)
    single_b /= np.linalg.norm(single_b)
    state = np.kron(single_b, single_a)  # qubit 1 = fast index
    free_evolution(state, rates, 3e-4)
    assert np.array_equal(state, np.kron(single_b, single_a))


def test_free_evolution_composes():
    rng = np.random.default_rng(2)
    rates = random_rates(rng, 3)
    state = random_state(rng, 3)
    split = state.copy()
    free_evolution(split, rates, 1.25e-4)
    free_evolution(split, rates, 0.75e-4)
    joint = state.copy()
    free_evolution(joint, rates, 2.0e-4)
    assert np.allclose(split, joint, atol=1e-12)


def test_free_evolution_rejects_negative_time():
    with pytest.raises(ValueError, match="^evolution time must be non-negative$"):
        free_evolution(initialize(1, "0"), np.zeros(2), -1.0)


# pulses -------------------------------------------------------------------------

def test_resonant_pi_pulse_flips():
    rng = np.random.default_rng(3)
    rates = random_rates(rng, 3)
    # start in a basis state; drive qubit 2 exactly on its conditional resonance
    start = 0b001  # qubits (1,2,3) = (1,0,0)
    flipped = 0b011
    omega = rates[flipped] - rates[start]
    state = np.zeros(8, dtype=complex)
    state[start] = 1.0
    rabi = TWO_PI * 500.0
    apply_pulse(state, rates, 2, rabi, omega, 0.3, np.pi / rabi)
    assert abs(state[flipped]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_far_detuned_pulse_bounded():
    # excitation never exceeds rabi^2 / (rabi^2 + detuning^2)
    rng = np.random.default_rng(4)
    rates = diagonal_rates(SpinHamiltonian(np.zeros((1, 1))))
    rabi = TWO_PI * 100.0
    for _ in range(50):
        delta = rng.uniform(-TWO_PI * 1e4, TWO_PI * 1e4)
        tau = rng.uniform(0.0, 0.1)
        state = initialize(1, "0")
        apply_pulse(state, rates, 1, rabi, -delta, 0.0, tau)
        bound = rabi**2 / (rabi**2 + delta**2)
        assert abs(state[1]) ** 2 <= bound + 1e-12


def test_cnot_conditional_flip():
    # drive at -J from qubit 2's carrier: resonant only when qubit 1 is |1>
    j12 = 121.2
    rates = diagonal_rates(SpinHamiltonian(np.array([[0, j12], [j12, 0]])))
    rabi = j12 / 10.0
    tau = np.pi / rabi
    drive = -j12

    control_one = initialize(2, "10")
    apply_pulse(control_one, rates, 2, rabi, drive, 0.0, tau)
    assert measurement_probabilities(control_one)["11"] > 0.99

    control_zero = initialize(2, "00")
    apply_pulse(control_zero, rates, 2, rabi, drive, 0.0, tau)
    flipped = measurement_probabilities(control_zero).get("01", 0.0)
    assert flipped < 0.05


def test_pulse_norm_preserved_long_sequence():
    rng = np.random.default_rng(6)
    rates = random_rates(rng, 4)
    state = random_state(rng, 4)
    for _ in range(1000):
        ion = int(rng.integers(1, 5))
        apply_pulse(
            state,
            rates,
            ion,
            rng.uniform(0, TWO_PI * 1e4),
            rng.uniform(-TWO_PI * 1e5, TWO_PI * 1e5),
            rng.uniform(0, TWO_PI),
            rng.uniform(0, 1e-4),
        )
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_hard_pulse_matches_strong_finite_pulse():
    rng = np.random.default_rng(7)
    rates = random_rates(rng, 2, j_scale=1.0)
    state_hard = random_state(rng, 2)
    state_finite = state_hard.copy()
    apply_hard_pulse(state_hard, 1, np.pi / 2, 0.4)
    # strong fast pulse approaches the hard-pulse limit
    rabi = TWO_PI * 1e9
    apply_pulse(state_finite, rates, 1, rabi, 0.0, 0.4, 0.5 * np.pi / rabi)
    assert fidelity(state_hard, state_finite) > 1 - 1e-10


@pytest.mark.parametrize("rabi, duration, message", [
    (-1.0, 1.0, "Rabi frequency must be non-negative"),
    (1.0, -1.0, "pulse duration must be non-negative"),
], ids=["rabi", "duration"])
def test_apply_pulse_rejects_negative_rabi_and_duration(rabi, duration, message):
    rates = diagonal_rates(SpinHamiltonian(np.zeros((2, 2))))
    state = initialize(2, "10")
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_pulse(state, rates, 1, rabi, 0.0, 0.0, duration)
    assert np.array_equal(state, initialize(2, "10"))


def test_apply_pulse_rejects_a_table_of_another_register():
    rates = diagonal_rates(SpinHamiltonian(np.zeros((3, 3))))  # 8 entries for a 4-amplitude state
    with pytest.raises(ValueError, match="^state size does not match the energy table$"):
        apply_pulse(initialize(2, "10"), rates, 1, 1.0, 0.0, 0.0, 1.0)


# expectation values ---------------------------------------------------------------

def test_sz_of_ground_state():
    state = initialize(3, "000")
    for ion in (1, 2, 3):
        assert expectation(state, "sz", ion) == -1.0


def test_sx_of_plus_state():
    state = np.array([1, 1], dtype=complex) / np.sqrt(2)
    assert expectation(state, "sx", 1) == pytest.approx(1.0, rel=1e-15)
    assert expectation(state, "sy", 1) == pytest.approx(0.0, abs=1e-15)
    assert expectation(state, "sz", 1) == pytest.approx(0.0, abs=1e-15)


def test_sy_traces_accumulated_phase():
    # pi/2 about (phase pi/2) puts the spin along +x; J evolution with the
    # spectator in |0> then rotates it: <sy> = sin(J t), <sx> = cos(J t)
    j12 = TWO_PI * 19.3
    rates = diagonal_rates(SpinHamiltonian(np.array([[0.0, j12], [j12, 0.0]])))
    for t in (0.0, 3.7e-3, 9.1e-3, 2.2e-2):
        state = initialize(2, "00")
        apply_hard_pulse(state, 1, np.pi / 2, np.pi / 2)
        free_evolution(state, rates, t)
        assert expectation(state, "sy", 1) == pytest.approx(np.sin(j12 * t), abs=1e-12)
        assert expectation(state, "sx", 1) == pytest.approx(np.cos(j12 * t), abs=1e-12)


def test_expectation_validates_input():
    state = initialize(2, "00")
    with pytest.raises(ValueError):
        expectation(state, "px", 1)
    with pytest.raises(ValueError):
        expectation(state, "sz", 3)


# sampling ---------------------------------------------------------------------

def test_sample_basis_state_certain():
    state = initialize(3, "101")
    rng = np.random.default_rng(0)
    assert marginal_counts(state, (1, 2, 3), rng, 20) == {"101": 20}
    assert marginal_counts(state, (3, 2), rng, 20) == {"10": 20}


def test_sample_uniform_statistics():
    state = 0.5 * np.ones(4, dtype=complex)
    rng = np.random.default_rng(123)
    shots = 100_000
    counts = marginal_counts(state, (1, 2), rng, shots)
    assert sum(counts.values()) == shots
    for outcome in ("00", "10", "01", "11"):
        assert counts[outcome] / shots == pytest.approx(0.25, abs=0.01)


def test_sample_same_seed_same_sequence():
    state = np.sqrt(np.array([0.1, 0.2, 0.3, 0.4], dtype=complex))
    gen1 = np.random.default_rng(42)
    gen2 = np.random.default_rng(42)
    seq1 = [marginal_counts(state, (1, 2), gen1, 1) for _ in range(50)]
    seq2 = [marginal_counts(state, (1, 2), gen2, 1) for _ in range(50)]
    assert seq1 == seq2
    assert len({next(iter(shot)) for shot in seq1}) > 1


def test_marginal_counts_pinned():
    # seeded counts from a per-shot string tally of the same draws; the bincount tally must match exactly
    state = np.sqrt(np.arange(1, 17) / 136.0).astype(complex)
    assert marginal_counts(state, (3, 1), np.random.default_rng(2024), 1000) == {
        "11": 355, "00": 157, "10": 286, "01": 202,
    }
    assert marginal_counts(state, (4, 2, 1), np.random.default_rng(7), 500) == {
        "100": 82, "111": 102, "110": 97, "011": 36, "000": 15, "010": 46, "001": 29, "101": 93,
    }
    assert marginal_counts(state, (1, 2), np.random.default_rng(7), 0) == {}


def test_outcome_labels_match_format():
    rng = np.random.default_rng(5)
    for n in range(1, 17):
        ks = np.concatenate(([0, 1, (1 << n) - 1], rng.integers(0, 1 << n, 20)))
        assert outcome_labels(ks, n) == [format(int(k), f"0{n}b") for k in ks]


def test_marginal_counts_come_in_label_order():
    # permuted ion subsets: sorted keys, equal to a per-shot label tally of the same seeded draws
    state = np.sqrt(np.arange(1, 17) / 136.0).astype(complex)
    probs = np.abs(state) ** 2
    for ions in ((3, 1), (4, 2, 1), (2, 4, 3, 1), (3,)):
        got = marginal_counts(state, ions, np.random.default_rng(99), 3000)
        draws = np.random.default_rng(99).choice(state.size, size=3000, p=probs / probs.sum())
        assert list(got) == sorted(got)
        assert len(got) == 1 << len(ions)
        assert got == label_tally(draws, ions)


def test_measurement_probabilities_marginal():
    state = np.sqrt(np.arange(1, 17) / 136.0).astype(complex)
    # outcome "ab": qubit 3 is a, qubit 1 is b; basis index b has weight (b + 1) / 136
    expected = {"00": 0, "01": 0, "10": 0, "11": 0}
    for b in range(16):
        expected[f"{(b >> 2) & 1}{b & 1}"] += (b + 1) / 136.0
    got = measurement_probabilities(state, [3, 1])
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == pytest.approx(expected[key], rel=1e-14)


# oracle equivalence ----------------------------------------------------------------

def test_oracle_identity_at_time_zero():
    rng = np.random.default_rng(8)
    j = random_coupling(rng, 2)
    state = random_state(rng, 2)
    evolved = evolve_oracle(state, j, [], 0.0)
    assert np.allclose(evolved, state, atol=1e-15)


def test_oracle_matches_free_evolution():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        j = random_coupling(rng, n)
        rates = diagonal_rates(SpinHamiltonian(j))
        state = random_state(rng, n)
        t = rng.uniform(0, 2e-3)
        fast = state.copy()
        free_evolution(fast, rates, t)
        dense = evolve_oracle(state, j, [], t)
        assert fidelity(fast, dense) > 1 - 1e-10


def test_oracle_matches_apply_pulse_n3():
    rng = np.random.default_rng(10)
    for _ in range(20):
        j = random_coupling(rng, 3)
        rates = diagonal_rates(SpinHamiltonian(j))
        state = random_state(rng, 3)
        pulse = Drive(
            int(rng.integers(1, 4)),
            rng.uniform(0, TWO_PI * 1e4),
            rng.uniform(-TWO_PI * 1.2e5, TWO_PI * 1.2e5),
            rng.uniform(0, TWO_PI),
            rng.uniform(0, 1e-3),
        )
        fast = state.copy()
        apply_pulse(fast, rates, *pulse)
        dense = evolve_oracle(state, j, [pulse], pulse.duration)
        assert fidelity(fast, dense) > 1 - 1e-10


def test_oracle_scipy_cross_check():
    # the dense oracle of tests/oracles.py against scipy's expm
    rng = np.random.default_rng(12)
    j = random_coupling(rng, 3)
    state = random_state(rng, 3)
    t = 1.3e-3
    mine = evolve_oracle(state, j, [], t)
    ref = scipy_free_evolution(state, j, t)
    assert np.allclose(mine, ref, atol=1e-11)


def test_oracle_size_limit():
    state = initialize(7, "0" * 7)
    with pytest.raises(OracleTooLargeError):
        evolve_oracle(state, np.zeros((7, 7)), [], 1.0)


def test_multi_tone_rejected():
    state = initialize(2, "00")
    pulses = [Drive(1, 1.0, 0.0, 0.0, 1.0), Drive(2, 1.0, 0.0, 0.0, 1.0)]
    with pytest.raises(ValueError):
        evolve_oracle(state, np.zeros((2, 2)), pulses, 1.0)


# NMR identities ---------------------------------------------------------------------

def test_spin_echo_keeps_j_phase():
    # with the spectator in |0>, the echoed coherence carries exactly 2 tau of J phase
    j12 = TWO_PI * 19.3
    rates = diagonal_rates(SpinHamiltonian(np.array([[0, j12], [j12, 0]])))
    for tau in (1e-3, 7e-3, 1.9e-2):
        state = initialize(2, "00")
        apply_hard_pulse(state, 1, np.pi / 2, np.pi / 2)  # along +x
        free_evolution(state, rates, tau)
        apply_hard_pulse(state, 1, np.pi, 0.0)
        apply_hard_pulse(state, 2, np.pi, 0.0)
        free_evolution(state, rates, tau)
        assert expectation(state, "sx", 1) == pytest.approx(np.cos(2 * j12 * tau), abs=1e-10)

