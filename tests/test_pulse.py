import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import TWO_PI
from gradchain import spins
from gradchain.chain import solve_chain
from gradchain.config import load_config
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
from oracles import lab_frame_sz_oracle

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
    assert measure.ions is None  # all


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
    assert isinstance(log_all, ExpectationLog) and log_all.ions is None
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


@pytest.mark.parametrize("line, ions", [
    ("measure z 1, 3", (1, 3)),
    ("measure z 1 ,3", (1, 3)),
    ("measure z 1 , 3", (1, 3)),
    ("log sx all", None),
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
    original = spins.diagonal_rates
    monkeypatch.setattr(spins, "diagonal_rates", lambda h: calls.append(h) or original(h))
    record = interpret(program, report2.j_matrix, "01", seed=4, shots=50)
    assert len(calls) == 1
    assert np.linalg.norm(record.final_state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_non_finite_state_fails_at_its_instruction(report2):
    program = parse("ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 area=0.5pi\n"
                    "delay 1e308s\nmeasure z all\n")
    with pytest.raises(ProgramRuntimeError) as err:
        interpret(program, report2.j_matrix, "00", seed=0, shots=10)
    assert (err.value.span.line, err.value.span.col) == (3, 1)
    assert "norm" in str(err.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("second", ["delay 1e308s", "pulse ion=2 rabi=0 detune=0 phase=0 dur=1e308s"])
def test_sequence_time_overflow_fails_at_its_instruction(second):
    # J = 0, so the state stays exact; only the sequence time leaves the doubles
    program = parse(f"ions 2\ndelay 1e308s\n{second}\nmeasure z all\n")
    with pytest.raises(ProgramRuntimeError, match="^3:1: sequence time inf s is not finite$"):
        interpret(program, np.zeros((2, 2)), "00", seed=0, shots=10)


def test_interpret_checks_ion_count(report2):
    program = parse("ions 3\ndelay 1ms\n")
    with pytest.raises(ValueError):
        interpret(program, report2.j_matrix, "000", seed=0)


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
    assert "wall_time_s" not in doc and "generated_at" not in doc  # the CLI's to add
