"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from conftest import HBAR, MU_B, TWO_PI, YB_MASS, standard_raw
from gradchain.chain import solve_chain, solve_equilibrium
from gradchain.cli import main
from gradchain.config import validate_config
from gradchain.coupling import epsilon_matrix, j_matrix, omega_gradients
from gradchain.pulse import interpret, parse
from gradchain.spins import SpinHamiltonian, apply_pulse, free_evolution
from oracles import Drive, evolve_oracle, j_matrix_bruteforce_oracle

GOLDEN_DIR = Path(__file__).parent / "golden"


def verdict(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS - {message}")


def test_criterion_01_geometry_anchors(config10):
    started = time.perf_counter()
    dz1 = np.sqrt(HBAR / (2 * YB_MASS * TWO_PI * 1e5))
    assert dz1 == pytest.approx(17.2e-9, rel=0.01)

    chain10 = solve_chain(config10)
    assert chain10.ground_state_extents[0] == pytest.approx(dz1, rel=1e-12)
    min_spacing = chain10.min_spacing_m()
    assert min_spacing == pytest.approx(7e-6, rel=0.05)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict(1, f"dz1 = {dz1 * 1e9:.3f} nm, N=10 min spacing = {min_spacing * 1e6:.3f} um "
               f"({elapsed * 1e3:.0f} ms)")


def test_criterion_02_analytic_equilibria():
    u2 = solve_equilibrium(2)
    r2 = 0.25 ** (1.0 / 3.0)
    assert np.max(np.abs(u2 - [-r2, r2])) < 1e-10

    u3 = solve_equilibrium(3)
    r3 = 1.25 ** (1.0 / 3.0)
    assert np.max(np.abs(u3 - [-r3, 0.0, r3])) < 1e-10
    verdict(2, "N=2 at -/+(1/4)^(1/3) and N=3 at -/+(5/4)^(1/3), 0 to 1e-10")


def test_criterion_03_mode_invariants():
    started = time.perf_counter()
    worst_com = worst_breathing = worst_gram = 0.0
    for n in range(2, 21):
        sol = solve_chain(validate_config(standard_raw(n=n)))
        worst_com = max(worst_com, abs(sol.mode_eigenvalues[0] - 1.0))
        worst_breathing = max(worst_breathing, abs(sol.mode_eigenvalues[1] - 3.0))
        gram = sol.mode_matrix @ sol.mode_matrix.T - np.eye(n)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram))))
    assert worst_com < 1e-9
    assert worst_breathing < 1e-9
    assert worst_gram < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    verdict(3, f"lambda1^2, lambda2^2 off by <= {max(worst_com, worst_breathing):.1e}, "
               f"orthogonality <= {worst_gram:.1e} for N in [2, 20] ({elapsed:.2f} s)")


def test_criterion_04_j_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(2, 13):
        chain = solve_chain(validate_config(standard_raw(n=n)))
        extent = float(np.max(np.abs(chain.positions_m)))
        for _ in range(20):
            kind = rng.integers(3)
            if kind == 0:
                field = {"uniform": {"B0": float(rng.uniform(-1, 1)),
                                     "b": float(rng.uniform(-50, 50))}}
            elif kind == 1:
                field = {"quadratic": {"B0": 0.0, "b": float(rng.uniform(-50, 50)),
                                       "c": float(rng.uniform(-1e6, 1e6))}}
            else:
                zs = np.linspace(-2 * extent, 2 * extent, 5)
                bs = rng.uniform(-1e-3, 1e-3, 5)
                field = {"sampled": {"points": [[float(z), float(b)] for z, b in zip(zs, bs)]}}
            cfg = validate_config(standard_raw(n=n) | {"field": field})
            grads = omega_gradients(cfg, chain)
            fast = j_matrix(epsilon_matrix(grads, chain), chain)
            slow = j_matrix_bruteforce_oracle(grads, chain)
            scale = float(np.max(np.abs(fast)))
            if scale > 0:
                worst = max(worst, float(np.max(np.abs(fast - slow))) / scale)
    assert worst <= 1e-12
    verdict(4, f"j_matrix vs expansion oracle: worst relative deviation {worst:.2e} "
               f"over N in [2, 12] x 20 random profiles")


def test_criterion_05_two_ion_closed_form():
    worst = 0.0
    for b in (1.0, 10.0, 80.0):
        for nu1_hz in (5e4, 1e5, 6e5):
            cfg = validate_config(standard_raw(n=2, nu1=f"{nu1_hz!r}Hz", b=f"{b!r}T/m"))
            chain = solve_chain(cfg)
            j = j_matrix(epsilon_matrix(omega_gradients(cfg, chain), chain), chain)[0, 1]
            grad = MU_B * b / HBAR
            closed_form = HBAR * grad**2 / (6 * YB_MASS * (TWO_PI * nu1_hz) ** 2)
            worst = max(worst, abs(j / closed_form - 1.0))
    assert worst <= 1e-10

    standard = validate_config(standard_raw(n=2))
    chain = solve_chain(standard)
    j_hz = j_matrix(epsilon_matrix(omega_gradients(standard, chain), chain), chain)[0, 1] / TWO_PI
    assert j_hz == pytest.approx(19.3, rel=1e-3)
    verdict(5, f"J12 = hbar grad^2 / (6 m nu1^2) to {worst:.1e} over 3x3 grid; "
               f"standard case J12/2pi = {j_hz:.4f} Hz")


def test_criterion_06_n10_headline_number(config10, chain10, report10):
    max_j_hz = float(np.max(report10.j_matrix)) / TWO_PI
    assert 4.0 <= max_j_hz <= 400.0
    golden = float((GOLDEN_DIR / "n10_max_j_hz.txt").read_text().strip())
    assert max_j_hz == pytest.approx(golden, rel=1e-10)
    verdict(6, f"N=10 max J/2pi = {max_j_hz:.6f} Hz, in [4, 400] Hz and matching "
               f"the frozen golden value to 1e-10")


def test_criterion_07_validity_and_bare_eta(config2, chain2, report2, report10):
    assert report2.validity == pytest.approx(0.0241, rel=0.01)
    eta1 = float(report10.eta_bare[0])
    assert eta1 < 1e-5
    verdict(7, f"validity epsilon = {report2.validity:.5f} (0.0241 +/- 1%), "
               f"microwave eta1 = {eta1:.2e} < 1e-5")


def test_criterion_08_dynamics_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(1, 7))
        j = rng.uniform(-1e3, 1e3, (n, n)) * TWO_PI
        j = 0.5 * (j + j.T)
        np.fill_diagonal(j, 0.0)
        h = SpinHamiltonian(j)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = amps / np.linalg.norm(amps)

        if case % 3 == 0:
            t = float(rng.uniform(0, 2e-3))
            fast = state.copy()
            free_evolution(fast, h, t)
            dense = evolve_oracle(state, h, [], t)
        else:
            pulse = Drive(
                int(rng.integers(1, n + 1)),
                float(rng.uniform(0, TWO_PI * 1e4)),
                float(rng.uniform(-TWO_PI * 1.2e5, TWO_PI * 1.2e5)),
                float(rng.uniform(0, TWO_PI)),
                float(rng.uniform(0, 1e-3)),
            )
            fast = state.copy()
            apply_pulse(fast, h, *pulse)
            dense = evolve_oracle(state, h, [pulse], pulse.duration)
        deficit = 1.0 - abs(np.vdot(fast, dense))
        worst = max(worst, deficit)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 30.0
    verdict(8, f"50 randomized cases N <= 6: worst fidelity deficit {worst:.2e} "
               f"({elapsed:.2f} s)")


def test_criterion_09_conditional_dynamics(report2):
    started = time.perf_counter()
    j_hz = float(report2.j_matrix[0, 1] / TWO_PI)

    # selective pi pulse CNOT at Omega_R = J/10
    cnot = parse(
        "ions 2\n"
        f"pulse ion=2 rabi={j_hz / 10!r}Hz detune={-j_hz!r}Hz phase=0 area=1pi\n"
        "measure z all\n"
    )
    on = interpret(cnot, report2.j_matrix, "10", seed=1, shots=1)
    flip = float(np.abs(on.final_state[3]) ** 2)
    off = interpret(cnot, report2.j_matrix, "00", seed=1, shots=1)
    leak = float(np.abs(off.final_state[2]) ** 2)
    assert flip > 0.99
    assert leak < 0.05

    # J-modulated Ramsey fringe on ion 1 with ion 2 prepared in |1>
    taus = np.linspace(0.0, 0.13, 48)
    values = []
    for tau in taus:
        src = (
            "ions 2\n"
            "pulse ion=2 rabi=5kHz detune=0 phase=0 area=1pi\n"
            "pulse ion=1 rabi=5kHz detune=0 phase=0 area=0.5pi\n"
            f"delay {float(tau)!r}s\n"
            "pulse ion=1 rabi=5kHz detune=0 phase=0 area=0.5pi\n"
            "log sz 1\n"
        )
        record = interpret(parse(src), report2.j_matrix, "00", seed=1, shots=1)
        values.append(record.expectation_log[-1]["value"])
    values = np.array(values)

    def fringe(t, amplitude, freq, phase, offset):
        return amplitude * np.cos(TWO_PI * freq * t + phase) + offset

    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    freqs = np.fft.rfftfreq(len(taus), taus[1] - taus[0])
    f0 = freqs[1 + int(np.argmax(spectrum[1:]))]
    popt, _ = scipy.optimize.curve_fit(
        fringe, taus, values, p0=[np.ptp(values) / 2, f0, 0.0, values.mean()]
    )
    fitted = abs(popt[1])
    assert fitted == pytest.approx(j_hz, rel=0.01)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    verdict(9, f"CNOT flip {flip:.4f} > 0.99, leakage {leak:.4f} < 0.05; Ramsey fringe "
               f"{fitted:.3f} Hz vs J12/2pi = {j_hz:.3f} Hz ({elapsed:.2f} s)")


def test_criterion_10_cli_determinism(tmp_path):
    config_path = tmp_path / "trap.json"
    config_path.write_text(json.dumps(standard_raw(n=2)), encoding="utf-8")
    program_path = tmp_path / "cnot.pp"
    program_path.write_text(
        "ions 2\n"
        "pulse ion=2 rabi=1.9298Hz detune=-19.2985Hz phase=0 area=1pi\n"
        "measure z all\n",
        encoding="utf-8",
    )

    def run_all(tag: str):
        base = tmp_path / tag
        base.mkdir()
        commands = [
            ["chain", "--config", str(config_path), "--out", str(base / "chain.json"),
             "--no-timestamp"],
            ["couplings", "--config", str(config_path), "--out-dir", str(base / "coup"),
             "--no-timestamp"],
            ["spectrum", "--config", str(config_path), "--ion", "1",
             "--out", str(base / "spec.csv"), "--no-timestamp"],
            ["simulate", "--config", str(config_path), "--program", str(program_path),
             "--initial", "10", "--seed", "9", "--shots", "50",
             "--out", str(base / "run.json"), "--no-timestamp"],
            ["sweep", "--config", str(config_path), "--param", "field.uniform.b",
             "--from", "1", "--to", "30", "--steps", "4", "--quantity", "max_J",
             "--out", str(base / "sweep.csv"), "--no-timestamp"],
        ]
        for cmd in commands:
            assert main(cmd) == 0
        return {
            p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()
        }

    assert run_all("one") == run_all("two")
    verdict(10, "all five CLI commands byte-identical across consecutive runs "
                "with --no-timestamp")
