import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import TWO_PI, mu0_quadratic_config
from gradchain import pulse as pulse_mod
from gradchain.chain import solve_chain
from gradchain.config import load_config, validate_config
from gradchain.coupling import build_report
from gradchain.pulse import (
    Delay,
    ExpectationLog,
    MeasureZ,
    ProgramRuntimeError,
    Pulse,
    PulseProgramError,
    interpret,
    parse,
)
from oracles import lab_frame_sz_oracle, spin_phonon_populations_oracle

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CNOT_SRC = """ions 2
pulse ion=2 rabi=4Hz detune=-19.3Hz phase=0 area=1pi
measure z all
"""


def test_parse_cnot_example():
    program = parse(CNOT_SRC)
    assert program.n_ions == 2
    assert len(program.instructions) == 2
    pulse, measure = program.instructions
    assert isinstance(pulse, Pulse)
    assert pulse.ion == 2
    assert pulse.rabi_hz == 4.0
    assert pulse.detune_hz == -19.3
    assert pulse.phase_rad == 0.0
    assert pulse.duration_s == 0.125  # a pi pulse at 4 Hz
    assert isinstance(measure, MeasureZ)
    assert measure.ions == (1, 2)  # all


def test_parse_full_grammar():
    src = """# a comment line
ions 3

pulse ion=1 rabi=1kHz detune=0Hz phase=90deg dur=2ms
delay 15us
measure z 1,3
log sy all
log sz 2
"""
    program = parse(src)
    assert program.n_ions == 3
    pulse, delay, measure, log_all, log_one = program.instructions
    assert pulse.phase_rad == pytest.approx(math.pi / 2)
    assert pulse.duration_s == pytest.approx(2e-3)
    assert isinstance(delay, Delay) and delay.duration_s == pytest.approx(1.5e-5)
    assert measure.ions == (1, 3)
    assert isinstance(log_all, ExpectationLog) and log_all.ions == (1, 2, 3)
    assert log_one.observable == "sz" and log_one.ions == (2,)


def test_conflicting_area_and_duration_column():
    src = "ions 2\npulse ion=1 rabi=1Hz detune=0 phase=0 area=1pi dur=1ms\n"
    with pytest.raises(PulseProgramError, match="pulse takes either area or dur, not both") as err:
        parse(src)
    line = src.splitlines()[1]
    assert err.value.span.line == 2
    # span points inside the second of the conflicting fields
    assert line[err.value.span.col - 1:].startswith("dur")


def test_empty_program():
    with pytest.raises(PulseProgramError, match="program is empty"):
        parse("")
    with pytest.raises(PulseProgramError, match="program is empty"):
        parse("# only a comment\n\n")


def test_duplicate_field():
    with pytest.raises(PulseProgramError, match="duplicate pulse field 'ion'"):
        parse("ions 2\npulse ion=1 ion=2 rabi=1Hz detune=0 phase=0 area=1pi\n")


def test_duplicate_header():
    with pytest.raises(PulseProgramError, match="duplicate 'ions' header"):
        parse("ions 2\nions 3\n")


def test_missing_field():
    with pytest.raises(PulseProgramError, match="pulse is missing required field 'rabi'"):
        parse("ions 2\npulse ion=1 detune=0 phase=0 area=1pi\n")


def test_missing_area_and_duration():
    with pytest.raises(PulseProgramError, match="pulse needs either area or dur"):
        parse("ions 2\npulse ion=1 rabi=1Hz detune=0 phase=0\n")


def test_unknown_keyword_with_span():
    src = "ions 2\nwiggle 5\n"
    with pytest.raises(PulseProgramError, match="unknown keyword 'wiggle'") as err:
        parse(src)
    assert err.value.span.line == 2
    assert err.value.span.col == 1
    assert "wiggle" in str(err.value)


def test_header_required_first():
    with pytest.raises(PulseProgramError, match="program must start with an 'ions <count>' header"):
        parse("delay 1ms\n")


def test_ion_out_of_header_range():
    with pytest.raises(PulseProgramError, match=re.escape("ion index 3 out of range [1, 2]")):
        parse("ions 2\npulse ion=3 rabi=1Hz detune=0 phase=0 area=1pi\n")
    with pytest.raises(PulseProgramError, match=re.escape("ion index 0 out of range [1, 2]")):
        parse("ions 2\nmeasure z 0\n")


def test_ion_set_rejects_duplicates():
    with pytest.raises(PulseProgramError, match="ion 1 listed twice"):
        parse("ions 2\nmeasure z 1,1\n")


def test_area_requires_pi_suffix():
    with pytest.raises(PulseProgramError, match="pulse areas take only the 'pi' suffix"):
        parse("ions 1\npulse ion=1 rabi=1Hz detune=0 phase=0 area=3.14rad\n")
    with pytest.raises(PulseProgramError, match="pulse areas take only the 'pi' suffix"):
        parse("ions 1\npulse ion=1 rabi=1Hz detune=0 phase=0 area=1\n")


def test_negative_area_is_a_syntax_error_at_its_value():
    src = "ions 1\npulse ion=1 rabi=1kHz detune=0 phase=0 area=-1pi\n"
    with pytest.raises(PulseProgramError, match="area must be non-negative") as err:
        parse(src)
    assert (err.value.span.line, err.value.span.col) == (2, src.splitlines()[1].index("-1pi") + 1)
    (pulse,) = parse("ions 1\npulse ion=1 rabi=1kHz detune=0 phase=0 area=-0pi\n").instructions
    assert pulse.duration_s == 0.0


def test_area_requires_positive_rabi():
    with pytest.raises(PulseProgramError, match="area-specified pulse needs rabi > 0"):
        parse("ions 1\npulse ion=1 rabi=0Hz detune=0 phase=0 area=1pi\n")


def test_bad_quantity_has_position():
    src = "ions 1\ndelay 5lightyears\n"
    with pytest.raises(PulseProgramError, match="unknown unit 'lightyears'") as err:
        parse(src)
    line = src.splitlines()[1]
    assert err.value.span.line == 2
    assert line[err.value.span.col - 1:].startswith("5lightyears")


def test_non_finite_quantity_is_syntax_error():
    src = "ions 1\ndelay 1e400s\n"
    with pytest.raises(PulseProgramError, match="quantity '1e400s' is not a finite number") as err:
        parse(src)
    assert (err.value.span.line, err.value.span.col) == (2, 7)


@pytest.mark.parametrize("line, col", [("    measure z", 14), ("   log sx", 10), ("measure z  # no ions", 10)])
def test_missing_ion_list_is_reported_past_the_last_token(line, col):
    with pytest.raises(PulseProgramError, match="expected an ion list") as err:
        parse(f"ions 2\n{line}\n")
    assert (err.value.span.line, err.value.span.col) == (2, col)


# line -> (column, message) of its error
BAD_ION_LISTS = {
    "measure z 3": (11, "ion index 3 out of range [1, 2]"),
    "measure z 1,1": (13, "ion 1 listed twice"),
    "measure z 1, 3": (14, "ion index 3 out of range [1, 2]"),
    "measure z 1 , 2,1": (17, "ion 1 listed twice"),
    "log sx 2 ,x": (11, "expected an integer ion index, got 'x'"),
    "log sy 1,": (10, "expected an integer ion index, got ''"),
    "log sz 1,,2": (10, "expected an integer ion index, got ''"),
    # two tokens with no comma between: an error at the second
    "measure z 1 2": (13, "expected ',' between ion list entries, got '2'"),
    "log sx a ll": (10, "expected ',' between ion list entries, got 'll'"),
    "measure z 1,2 3": (15, "expected ',' between ion list entries, got '3'"),
    "log sz all 1": (12, "expected ',' between ion list entries, got '1'"),
}


@pytest.mark.parametrize("line", BAD_ION_LISTS)
def test_bad_ion_list_entry_is_reported_at_the_entry(line):
    col, message = BAD_ION_LISTS[line]
    with pytest.raises(PulseProgramError, match=re.escape(message)) as err:
        parse(f"ions 2\n{line}\n")
    assert (err.value.span.line, err.value.span.col) == (2, col)


# program -> (line, column, message) of its error; float() and int() also take `_` separators and
# non-ASCII digits, the grammar's digits are only 0-9
NON_GRAMMAR_NUMBERS = {
    "ions 1_0": (1, 6, "expected an integer ion count, got '1_0'"),
    "ions \u0662": (1, 6, "expected an integer ion count, got '\u0662'"),
    "ions 2\ndelay 1_000": (2, 7, "unknown unit '_000'"),
    "ions 2\ndelay \uff15": (2, 7, "malformed number in quantity: '\uff15'"),
    "ions 2\nmeasure z \u0661": (2, 11, "expected an integer ion index, got '\u0661'"),
}


@pytest.mark.parametrize("source", NON_GRAMMAR_NUMBERS)
def test_numbers_take_only_ascii_digits(source):
    line, col, message = NON_GRAMMAR_NUMBERS[source]
    with pytest.raises(PulseProgramError, match=re.escape(message)) as err:
        parse(source + "\n")
    assert (err.value.span.line, err.value.span.col) == (line, col)


# line -> (column, message) of its error: units.read_value's wording, the same as in a config or a sweep bound
VALUE_ERRORS = {
    "delay 5kHz": (7, "expected time, got frequency ('5kHz')"),
    "delay 1e400": (7, "quantity '1e400' is not a finite number"),
    "pulse ion=1 rabi=1kHz detune=1ms phase=0 dur=1ms": (30, "expected frequency, got time ('1ms')"),
}


@pytest.mark.parametrize("line", VALUE_ERRORS)
def test_value_errors_take_the_readers_wording(line):
    col, message = VALUE_ERRORS[line]
    with pytest.raises(PulseProgramError) as err:
        parse(f"ions 2\n{line}\n")
    assert str(err.value) == f"2:{col}: {message}"


# program -> its parse error as "line:col: message", one for each branch of the grammar's checks
PARSE_ERRORS = {
    "ions 2\npulse ion=1 rabi": "2:13: expected key=value, got 'rabi'",
    "ions 2\npulse ion=1 amp=1Hz": "2:13: unknown pulse field 'amp'",
    "ions 2\npulse ion=1 rabi=-1Hz detune=0 phase=0 dur=1ms": "2:18: rabi must be non-negative",
    "ions 2\npulse ion=1 rabi=1Hz detune=0 phase=0 dur=-1ms": "2:43: dur must be non-negative",
    "ions": "1:1: usage: ions <count>",
    "ions 2 3": "1:1: usage: ions <count>",
    "ions 0": "1:6: ion count must be positive, got 0",
    "ions -1": "1:6: ion count must be positive, got -1",
    # a header after an instruction is a second header
    "ions 2\ndelay 1ms\nions 3": "3:1: duplicate 'ions' header",
    "ions 2\ndelay": "2:1: usage: delay <duration>",
    "ions 2\ndelay 1ms 2ms": "2:1: usage: delay <duration>",
    # a form feed is whitespace within a line, not a line end
    "ions 2\ndelay 1ms\x0cdelay 2ms": "2:1: usage: delay <duration>",
    "ions 2\ndelay -1ms": "2:7: delay must be non-negative",
    "ions 2\nmeasure": "2:1: only z-basis measurement is supported: measure z <ions|all>",
    "ions 2\nmeasure x 1": "2:1: only z-basis measurement is supported: measure z <ions|all>",
    "ions 2\nlog": "2:1: usage: log <sx|sy|sz> <ions|all>",
    "ions 2\nlog sq 1": "2:1: usage: log <sx|sy|sz> <ions|all>",
}


@pytest.mark.parametrize("source", PARSE_ERRORS)
def test_parse_error_message_and_position(source):
    with pytest.raises(PulseProgramError) as err:
        parse(source + "\n")
    assert str(err.value) == PARSE_ERRORS[source]


def test_simulator_error_is_a_runtime_error_at_its_instruction():
    # parse refuses a negative rabi; a hand-built one reaches apply_pulse, whose ValueError takes the pulse's span
    program = parse("ions 1\ndelay 1ms\npulse ion=1 rabi=1Hz detune=0 phase=0 dur=1ms\n")
    delay, pulse = program.instructions
    bad = replace(program, instructions=(delay, replace(pulse, rabi_hz=-1.0)))
    with pytest.raises(ProgramRuntimeError) as err:
        interpret(bad, np.zeros((1, 1)), "0", seed=0, shots=1)
    assert str(err.value) == "3:1: Rabi frequency must be non-negative"


@pytest.mark.parametrize("line, ions", [
    ("measure z 1, 3", (1, 3)),
    ("measure z 1 ,3", (1, 3)),
    ("measure z 1 , 3", (1, 3)),
    ("log sx all", (1, 2, 3)),
])
def test_ion_list_takes_whitespace_beside_a_comma(line, ions):
    (instruction,) = parse(f"ions 3\n{line}\n").instructions
    assert instruction.ions == ions


# interpreter -----------------------------------------------------------------

def test_delays_preserve_populations(report2):
    program = parse("ions 2\ndelay 1ms\ndelay 2ms\nmeasure z all\n")
    record = interpret(program, report2.j_matrix, "10", seed=5, shots=64)
    assert record.measurements[0]["counts"] == {"10": 64}
    probs = np.abs(record.final_state) ** 2
    assert probs[1] == pytest.approx(1.0, abs=1e-12)
    assert record.total_time_s == pytest.approx(3e-3)


def test_cnot_program(report2):
    j_hz = float(report2.j_matrix[0, 1] / TWO_PI)
    src = (
        "ions 2\n"
        f"pulse ion=2 rabi={j_hz / 10!r}Hz detune={-j_hz!r}Hz phase=0 area=1pi\n"
        "measure z all\n"
    )
    program = parse(src)
    record = interpret(program, report2.j_matrix, "10", seed=1, shots=400)
    counts = record.measurements[0]["counts"]
    assert counts.get("11", 0) / 400 > 0.99
    record0 = interpret(program, report2.j_matrix, "00", seed=1, shots=400)
    counts0 = record0.measurements[0]["counts"]
    assert counts0.get("01", 0) / 400 < 0.05


def test_measure_marginal_subset(report2):
    program = parse("ions 2\nmeasure z 2\n")
    record = interpret(program, report2.j_matrix, "10", seed=0, shots=16)
    assert record.measurements[0]["counts"] == {"0": 16}
    assert record.measurements[0]["ions"] == [2]


def test_log_records_time_and_value(report2):
    program = parse("ions 2\ndelay 5ms\nlog sz all\n")
    record = interpret(program, report2.j_matrix, "10", seed=0, shots=1)
    entries = record.expectation_log
    assert len(entries) == 2
    assert entries[0] == {"time_s": 5e-3, "observable": "sz", "ion": 1, "value": pytest.approx(1.0)}
    assert entries[1]["ion"] == 2
    assert entries[1]["value"] == pytest.approx(-1.0)


def test_echo_program_fringe_at_twice_j(report2):
    # hallmark of the echo: carrier offsets refocus, the coupling phase
    # doubles, so the readout fringe runs at 2J instead of J
    j_hz = float(report2.j_matrix[0, 1] / TWO_PI)
    taus = np.linspace(0.0, 0.065, 24)
    values = []
    for tau in taus:
        src = (
            "ions 2\n"
            "pulse ion=1 rabi=5kHz detune=0 phase=0 area=0.5pi\n"
            f"delay {float(tau)!r}s\n"
            "pulse ion=1 rabi=5kHz detune=0 phase=0 area=1pi\n"
            "pulse ion=2 rabi=5kHz detune=0 phase=0 area=1pi\n"
            f"delay {float(tau)!r}s\n"
            "pulse ion=1 rabi=5kHz detune=0 phase=0 area=0.5pi\n"
            "log sz 1\n"
        )
        record = interpret(parse(src), report2.j_matrix, "00", seed=1, shots=1)
        values.append(record.expectation_log[-1]["value"])
    values = np.array(values)
    # quadrature demodulation at the expected rate recovers nearly all contrast
    phases = TWO_PI * 2 * j_hz * taus
    amplitude = 2 * abs(np.mean((values - values.mean()) * np.exp(1j * phases)))
    assert amplitude > 0.95


def test_energy_table_built_once_per_hamiltonian(report2, monkeypatch):
    rng = np.random.default_rng(31)
    lines = ["ions 2"]
    for _ in range(40):
        lines.append(f"pulse ion={rng.integers(1, 3)} rabi={rng.uniform(2e3, 1e4)!r}Hz "
                     f"detune={rng.uniform(-100, 100)!r}Hz phase={rng.uniform(0, 6)!r}rad area=0.5pi")
        lines.append(f"delay {rng.uniform(2e-4, 3e-3)!r}s")
    program = parse("\n".join(lines) + "\nmeasure z all\n")
    assert len(program.instructions) == 81

    calls = []
    original = pulse_mod.diagonal_rates
    monkeypatch.setattr(pulse_mod, "diagonal_rates", lambda h: calls.append(h) or original(h))
    record = interpret(program, report2.j_matrix, "01", seed=4, shots=50)
    assert len(calls) == 1
    assert np.linalg.norm(record.final_state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [17, 24])
def test_oversized_register_fails_before_the_energy_table(n, monkeypatch):
    # the table has 2^(n-1) rows of n signs: built first, a 24-ion run would allocate gigabytes
    def refuse(h):
        raise AssertionError("the energy table was built before the register size was checked")

    monkeypatch.setattr(pulse_mod, "diagonal_rates", refuse)
    with pytest.raises(ValueError, match=f"^register of {n} qubits exceeds the supported maximum of 16$"):
        interpret(parse(f"ions {n}\ndelay 1ms\n"), np.zeros((n, n)), "0" * n, seed=0, shots=1)


def test_non_finite_state_fails_at_its_instruction(report2):
    program = parse("ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 area=0.5pi\n"
                    "delay 1e308s\nmeasure z all\n")
    with pytest.raises(ProgramRuntimeError) as err:
        interpret(program, report2.j_matrix, "00", seed=0, shots=10)
    assert (err.value.span.line, err.value.span.col) == (3, 1)
    assert "norm" in str(err.value)


@pytest.mark.parametrize("second", ["delay 1e308s", "pulse ion=2 rabi=0 detune=0 phase=0 dur=1e308s"])
def test_sequence_time_overflow_fails_at_its_instruction(second):
    # J = 0, so the state stays exact; only the sequence time leaves the doubles
    program = parse(f"ions 2\ndelay 1e308s\n{second}\nmeasure z all\n")
    with pytest.raises(ProgramRuntimeError, match="^3:1: sequence time inf s is not finite$"):
        interpret(program, np.zeros((2, 2)), "00", seed=0, shots=10)


def test_interpret_checks_ion_count(report2):
    program = parse("ions 3\ndelay 1ms\n")
    with pytest.raises(ValueError):
        interpret(program, report2.j_matrix, "000", seed=0, shots=1)


@pytest.mark.parametrize("source", ["ions 2\ndelay 1ms\n", CNOT_SRC])
def test_interpret_rejects_negative_shots(report2, source):
    with pytest.raises(ValueError, match="shots must be >= 0, got -5"):
        interpret(parse(source), report2.j_matrix, "10", seed=0, shots=-5)


@pytest.mark.parametrize("name", ["ramsey.pp", "echo.pp"])
def test_logged_sz_matches_50_digit_lab_frame_evolution(name):
    # the oracle keeps the ~12.6 GHz carriers and the report's shifts; the interpreter never sees them
    config = load_config(CONFIGS / "trap.json")
    report = build_report(config, solve_chain(config))
    program = parse((CONFIGS / name).read_text(encoding="utf-8"))
    record = interpret(program, report.j_matrix, "00", seed=0, shots=1)
    exact = lab_frame_sz_oracle(report.qubit_frequencies + report.shifts, report.j_matrix, program, "00")
    logged = [entry["value"] for entry in record.expectation_log]
    assert len(logged) == len(exact) == 1
    assert logged == pytest.approx(exact, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("name, initial", [("cnot.pp", "10"), ("cnot.pp", "00"), ("ramsey.pp", "00")],
                         ids=["cnot_control_on", "cnot_control_off", "ramsey_control_flipped"])
def test_j_only_model_matches_the_spin_phonon_hamiltonian(name, initial):
    # epsilon = 0.024 on trap.json: the J-only populations are within 2e-6 of the full spin x Fock dynamics
    config = load_config(CONFIGS / "trap.json")
    chain = solve_chain(config)
    report = build_report(config, chain)
    program = parse((CONFIGS / name).read_text(encoding="utf-8"))
    populations = np.abs(interpret(program, report.j_matrix, initial, seed=0, shots=1).final_state) ** 2
    six, ten = (spin_phonon_populations_oracle(config, chain, report.shifts, program, initial, fock)
                for fock in (6, 10))
    assert np.max(np.abs(six - ten)) <= 1e-12  # converged in the Fock cutoff
    assert np.max(np.abs(ten - populations)) <= 2e-6


def mu0_quadratic_run(n, initial, fock_levels):
    """Spin-phonon and J-only populations of n ions of a mu0 = 0.3, mu1 = 1.0 species in B = 10 z + 2e5 z^2.

    mu0 != 0 puts both levels in the gradient, so the carrier shifts the oracle counts against take the eps_sum
    (mu0 + mu1) path; c != 0 makes the ions' gradients, and for n = 3 the three J, differ. The program is a pi
    pulse on ion 2, then a pi/2 pulse on ion 1, each at its line with every other ion in |1>, at a tenth of the
    smallest |J|. Returns the oracle's populations at each Fock cutoff, then interpret's with the bare drive
    and with the dressed carrier's Rabi rate, exp(-sum_j eps[j, n]^2 / 2) of the bare one, at each duration.
    """
    config = mu0_quadratic_config(n)
    chain = solve_chain(config)
    report = build_report(config, chain)
    assert 0.02 < report.validity <= 0.03
    j = report.j_matrix / TWO_PI
    rabi = 0.1 * float(np.min(np.abs(j[np.triu_indices(n, 1)])))
    line_2, line_1 = float(-j[1].sum()), float(-j[0].sum())  # the diagonal of J is zero
    program = parse(f"ions {n}\npulse ion=2 rabi={rabi!r}Hz detune={line_2!r}Hz phase=0 area=1pi\n"
                    f"pulse ion=1 rabi={rabi!r}Hz detune={line_1!r}Hz phase=0.5rad area=0.5pi\n")
    dressing = np.exp(-0.5 * np.sum(report.epsilon_matrix**2, axis=0))
    dressed = replace(program, instructions=tuple(replace(p, rabi_hz=p.rabi_hz * dressing[p.ion - 1])
                                                  for p in program.instructions))
    oracle = [spin_phonon_populations_oracle(config, chain, report.shifts, program, initial, fock)
              for fock in fock_levels]
    models = [np.abs(interpret(p, report.j_matrix, initial, seed=0, shots=1).final_state) ** 2
              for p in (program, dressed)]
    return report, *oracle, *models


@pytest.mark.parametrize("initial", ["101", "100"], ids=["neighbours_on", "neighbour_3_off"])
def test_three_ions_with_mu0_match_the_spin_phonon_hamiltonian(initial):
    # epsilon = 0.026
    _, four, five, bare_model, dressed_model = mu0_quadratic_run(3, initial, (4, 5))
    assert np.max(np.abs(four - five)) <= 1e-10  # converged in the Fock cutoff: 1.3e-11 from 101
    # the J-only model is off only by the dressed Rabi rate: 1.0e-5 from 101 as it stands, 8e-12 with it applied
    assert np.max(np.abs(five - bare_model)) <= 2e-5
    assert np.max(np.abs(five - dressed_model)) <= 1e-10


@pytest.mark.parametrize("initial", ["10", "00"], ids=["control_on", "control_off"])
def test_two_ions_with_mu0_match_the_spin_phonon_hamiltonian(initial):
    # epsilon = 0.022, J / 2 pi = 8.48 Hz
    report, four, six, bare_model, dressed_model = mu0_quadratic_run(2, initial, (4, 6))
    grads = report.omega_gradients
    assert 1.9 < grads[1] / grads[0] < 2.0  # 4.18e11 and 8.13e11 rad/(s m): the curvature doubles ion 2's gradient
    assert np.max(np.abs(four - six)) <= 1e-10  # converged in the Fock cutoff: 1.4e-14 from 10, 1.2e-12 from 00
    # the J-only model is off only by the dressed Rabi rate: 3.1e-5 from 10 (3.6e-9 from 00) as it stands,
    # 1.4e-13 with it applied
    assert np.max(np.abs(six - bare_model)) <= 5e-5
    assert np.max(np.abs(six - dressed_model)) <= 1e-10


def test_blue_sideband_rabi_rate_is_eta_eff_times_the_drive():
    # one ion of configs/trap.json (epsilon = 0.024) from |0> and the motional ground state, driven at detune = nu1:
    # P(1) = sin^2(eta' e^{-eta'^2/2} Omega t / 2). The Debye-Waller factor e^{-eta'^2/2} is modelled (leaving it
    # out is off by 2.3e-4 at half the pi time); the bound holds the carrier's light shift Omega^2 / (2 nu1),
    # (Omega / (2 nu1 eta'))^2 = 3.9e-5 at the pi time for Omega / nu1 = 3e-4.
    config = validate_config(json.loads((CONFIGS / "trap.json").read_text(encoding="utf-8")) | {"N": 1})
    chain = solve_chain(config)
    report = build_report(config, chain)
    eta = float(report.eta_eff[0, 0])
    assert 0.02 < eta <= 0.03
    assert eta == pytest.approx(report.validity, rel=1e-6)  # the bare eta is 4.5e-6
    nu_hz = config.axial_frequency_hz
    rabi_hz = 3e-4 * nu_hz
    omega = TWO_PI * rabi_hz
    for fraction in (1 / 3, 1 / 2, 1.0):
        t = fraction * math.pi / (eta * omega)
        program = parse(f"ions 1\npulse ion=1 rabi={rabi_hz!r}Hz detune={nu_hz!r}Hz phase=0 dur={t!r}s\n")
        six, ten = (spin_phonon_populations_oracle(config, chain, report.shifts, program, "0", fock)[1]
                    for fock in (6, 10))
        assert abs(six - ten) <= 1e-12
        assert abs(ten - math.sin(eta * math.exp(-eta**2 / 2) * omega * t / 2) ** 2) <= 5e-5, fraction


def test_interpret_deterministic(report2):
    program = parse(CNOT_SRC)
    a = interpret(program, report2.j_matrix, "10", seed=99, shots=100)
    b = interpret(program, report2.j_matrix, "10", seed=99, shots=100)
    doc_a = a.to_json_dict()
    doc_b = b.to_json_dict()
    as_text = dict(sort_keys=True, default=np.ndarray.tolist)  # final-state amplitudes are an array
    assert json.dumps(doc_a, **as_text) == json.dumps(doc_b, **as_text)


def test_run_record_serialization(report2):
    program = parse(CNOT_SRC)
    record = interpret(program, report2.j_matrix, "10", seed=2, shots=10)
    doc = record.to_json_dict()
    assert doc["n_qubits"] == 2
    assert doc["initial"] == "10"
    assert len(doc["final_state"]["amplitudes"]) == 4
    assert "basis_convention" in doc["final_state"]
    assert "wall_time_s" not in doc and "generated_at" not in doc  # run.json holds no timing and no timestamp
