import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gradchain
from conftest import HBAR, MU_B, TWO_PI, YB_MASS, json_text, standard_raw
from gradchain.chain import solve_chain
from gradchain.cli import _fmt, _json_text, _sweep_values, _write_text, main
from gradchain.config import validate_config
from gradchain.coupling import build_report
from gradchain.pulse import RunRecord, interpret, parse

CNOT_PROGRAM = """ions 2
pulse ion=2 rabi=1.929847096624915Hz detune=-19.29847096624915Hz phase=0 area=1pi
measure z all
"""


@pytest.fixture()
def trap2(tmp_path):
    path = tmp_path / "trap2.json"
    path.write_text(json.dumps(standard_raw(n=2)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def trap10(tmp_path):
    path = tmp_path / "trap10.json"
    path.write_text(json.dumps(standard_raw(n=10)), encoding="utf-8")
    return str(path)


def read_csv(path):
    rows = [line.split(",") for line in path.read_text().strip().splitlines()]
    return rows[0], rows[1:]


# chain ------------------------------------------------------------------------

def test_chain_n10_prints_min_spacing(trap10, tmp_path, capsys):
    out = tmp_path / "chain.json"
    code = main(["chain", "--config", trap10, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    spacing_line = [line for line in stdout.splitlines() if "min spacing" in line][0]
    spacing_um = float(spacing_line.split("=")[1].replace("um", ""))
    assert spacing_um == pytest.approx(7.0, rel=0.05)
    doc = json.loads(out.read_text())
    assert doc["ion_count"] == 10
    assert "generated_at" not in doc


def test_chain_single_ion(tmp_path, capsys):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps(standard_raw(n=1)), encoding="utf-8")
    code = main(["chain", "--config", str(cfg)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "100.000000" in stdout  # single mode at 100 kHz


def test_chain_missing_config(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["chain", "--config", str(missing)])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_chain_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"species": "Yb171", "N": 0, "nu1": "1Hz",
                               "field": {"uniform": {"b": 0}}}), encoding="utf-8")
    assert main(["chain", "--config", str(cfg)]) == 2


# couplings --------------------------------------------------------------------

def test_couplings_outputs(trap2, tmp_path, capsys):
    out_dir = tmp_path / "coup"
    code = main(["couplings", "--config", trap2, "--out-dir", str(out_dir)])
    assert code == 0
    header, rows = read_csv(out_dir / "j_matrix.csv")
    assert header == ["ion", "1", "2"]
    assert float(rows[0][2]) == pytest.approx(19.2985, rel=1e-4)
    assert float(rows[0][1]) == 0.0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["validity"]["epsilon"] == pytest.approx(0.0241, rel=0.01)
    assert report["validity"]["harmonic_approximation_valid"] is True
    stdout = capsys.readouterr().out
    assert "0.024" in stdout


def test_couplings_zero_gradient(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(standard_raw(n=3, b="0T/m")), encoding="utf-8")
    out_dir = tmp_path / "coup0"
    assert main(["couplings", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    _, rows = read_csv(out_dir / "j_matrix.csv")
    values = [float(x) for row in rows for x in row[1:]]
    assert values == [0.0] * 9


# spectrum ----------------------------------------------------------------------

def test_spectrum_lines(trap2, tmp_path):
    out_dir = tmp_path / "coup"
    main(["couplings", "--config", trap2, "--out-dir", str(out_dir)])
    report = json.loads((out_dir / "report.json").read_text())

    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", trap2, "--ion", "1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["offset_hz", "amplitude", "label"]
    assert len(rows) == 5
    offsets = [float(r[0]) for r in rows]
    assert offsets == sorted(offsets)
    carrier = [r for r in rows if r[2] == "carrier"][0]
    assert float(carrier[1]) == 1.0
    # carrier offset is the shift of ion 1, to every printed digit
    assert carrier[0] == _fmt(report["shifts_hz"][0])
    # sideband amplitudes equal the eta' column of the report
    for mode in (1, 2):
        for side in ("red", "blue"):
            row = [r for r in rows if r[2] == f"{side}_{mode}"][0]
            assert float(row[1]) == pytest.approx(report["eta_eff"][mode - 1][0], rel=1e-9)


def test_spectrum_bad_ion(trap2, tmp_path, capsys):
    code = main(["spectrum", "--config", trap2, "--ion", "7", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "error: ion index 7 out of range [1, 2]\n"


def test_spectrum_plot_data(trap2, tmp_path):
    out = tmp_path / "spec.csv"
    main(["spectrum", "--config", trap2, "--ion", "1", "--out", str(out),
          "--emit-plot-data"])
    dat = out.with_suffix(".csv.dat")
    lines = dat.read_text().strip().splitlines()
    assert len(lines) == 5
    assert all(len(line.split()) == 2 for line in lines)


# simulate ------------------------------------------------------------------------

def test_simulate_cnot(trap2, tmp_path):
    program = tmp_path / "cnot.pp"
    program.write_text(CNOT_PROGRAM, encoding="utf-8")
    out = tmp_path / "run.json"
    code = main(["simulate", "--config", trap2, "--program", str(program),
                 "--initial", "10", "--seed", "3", "--shots", "500",
                 "--out", str(out)])
    assert code == 0
    _, rows = read_csv(tmp_path / "run_hist.csv")
    counts = {outcome: int(count) for outcome, count in rows}
    assert counts.get("11", 0) / 500 > 0.99
    doc = json.loads(out.read_text())
    assert doc["n_qubits"] == 2
    assert "wall_time_s" not in doc


def test_simulate_expectation_log_csv(trap2, tmp_path):
    program = tmp_path / "logged.pp"
    program.write_text("ions 2\ndelay 1ms\nlog sz all\n", encoding="utf-8")
    out = tmp_path / "run.json"
    code = main(["simulate", "--config", trap2, "--program", str(program),
                 "--initial", "10", "--seed", "0", "--out", str(out),
                 "--emit-plot-data"])
    assert code == 0
    header, rows = read_csv(tmp_path / "run_log.csv")
    assert header == ["time_s", "observable", "ion", "value"]
    assert len(rows) == 2
    assert float(rows[0][3]) == pytest.approx(1.0)   # ion 1 was prepared in |1>
    assert float(rows[1][3]) == pytest.approx(-1.0)
    dat = (tmp_path / "run_log.dat").read_text().strip().splitlines()
    assert len(dat) == 2 and all(len(line.split()) == 2 for line in dat)


def test_simulate_parse_error_exit4(trap2, tmp_path, capsys):
    program = tmp_path / "bad.pp"
    program.write_text("ions 2\npulse ion=1 area=1pi dur=1ms rabi=1Hz detune=0 phase=0\n",
                       encoding="utf-8")
    code = main(["simulate", "--config", trap2, "--program", str(program),
                 "--seed", "0", "--out", str(tmp_path / "r.json")])
    assert code == 4
    err = capsys.readouterr().err
    assert "2:" in err  # line:column span


def test_simulate_program_not_utf8_names_the_program(trap2, tmp_path, capsys):
    program = tmp_path / "bad.pp"
    program.write_bytes(b"ions 2\n\xff\n")
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", trap2, "--program", str(program),
                 "--out", str(out_dir / "run.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {program}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")
    assert not out_dir.exists()


def test_simulate_missing_program_exit2(trap2, tmp_path, capsys):
    program = tmp_path / "missing.pp"
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", trap2, "--program", str(program),
                 "--out", str(out_dir / "run.json")])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(program)!r}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--config", "--program"])
def test_simulate_ignores_a_byte_order_mark(trap2, tmp_path, flag):
    program = tmp_path / "cnot.pp"
    program.write_text(CNOT_PROGRAM, encoding="utf-8")
    outputs = []
    for tag in ("plain", "bom"):
        if tag == "bom":
            marked = {"--config": Path(trap2), "--program": program}[flag]
            marked.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
        out_dir = tmp_path / tag
        assert main(["simulate", "--config", trap2, "--program", str(program), "--seed", "5", "--shots", "32",
                     "--out", str(out_dir / "run.json")]) == 0
        outputs.append({path.name: path.read_bytes() for path in out_dir.iterdir()})
    assert sorted(outputs[0]) == ["run.json", "run_hist.csv"]
    assert outputs[0] == outputs[1]


def test_simulate_non_finite_state_exit3(trap2, tmp_path, capsys):
    program = tmp_path / "overflow.pp"
    program.write_text("ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 area=0.5pi\n"
                       "delay 1e308s\nlog sx all\n", encoding="utf-8")
    out = tmp_path / "run.json"
    code = main(["simulate", "--config", trap2, "--program", str(program),
                 "--seed", "0", "--out", str(out)])
    assert code == 3
    assert "3:1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", [CNOT_PROGRAM, "ions 2\ndelay 1ms\n"], ids=["measure", "no_measure"])
def test_simulate_negative_shots_exit2(trap2, tmp_path, capsys, source):
    program = tmp_path / "prog.pp"
    program.write_text(source, encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", trap2, "--program", str(program),
                 "--shots", "-5", "--out", str(out_dir / "run.json")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --shots must be >= 0, got -5\n"
    assert not out_dir.exists()


def test_simulate_negative_area_exit4(trap2, tmp_path, capsys):
    program = tmp_path / "negative.pp"
    program.write_text("ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 area=-1pi\n", encoding="utf-8")
    out = tmp_path / "run.json"
    code = main(["simulate", "--config", trap2, "--program", str(program), "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == f"error: {program}:2:45: area must be non-negative\n"
    assert not out.exists()


def test_non_finite_quantity_exit_codes(tmp_path, capsys):
    trap = tmp_path / "trap.json"
    trap.write_text(json.dumps(standard_raw(n=2, nu1="1e308kHz")), encoding="utf-8")
    assert main(["chain", "--config", str(trap)]) == 2
    trap.write_text(json.dumps(standard_raw(n=2)), encoding="utf-8")
    program = tmp_path / "huge.pp"
    program.write_text("ions 2\ndelay 1e400s\n", encoding="utf-8")
    code = main(["simulate", "--config", str(trap), "--program", str(program),
                 "--seed", "0", "--out", str(tmp_path / "run.json")])
    assert code == 4
    assert "2:7" in capsys.readouterr().err


def repeated_key_text(old: str, new: str) -> str:
    """The two-ion standard config's JSON text with `old` replaced by `new`, which repeats a key no dict can hold."""
    text = json.dumps(standard_raw(n=2))
    assert old in text
    return text.replace(old, new)


# one digit past int's digit limit: 4301 digits unless PYTHONINTMAXSTRDIGITS sets another limit
LONG_INTEGER = "9" * (sys.get_int_max_str_digits() + 1)
DIGITS_ERROR = f"of at most {len(LONG_INTEGER) - 1} digits, got {len(LONG_INTEGER)} digits"

# case -> (config fields over standard_raw(n=2) or a config's whole text, command, program, exit code, stderr line)
FAILING_RUNS = {
    "unknown_species": ({"species": "Xx999"}, ["chain", "--out", "out/chain.json"], CNOT_PROGRAM, 2,
                        "unknown species 'Xx999' (known: Yb171)"),
    "outside_sampled_profile": ({"field": {"sampled": {"points": [["-1um", "0T"], ["1um", "1e-6T"]]}}},
                                ["couplings", "--out-dir", "out"], CNOT_PROGRAM, 2,
                                "position z=-8.01307e-06 m outside sampled profile range [-1e-06, 1e-06] m"),
    "bad_initial_label": ({}, ["simulate", "--initial", "1x"], CNOT_PROGRAM, 2,
                          "label '1x' is not a 2-bit string of 0s and 1s"),
    "register_too_large": ({"N": 17}, ["simulate"], "ions 17\nmeasure z all\n", 2,
                           "register of 17 qubits exceeds the supported maximum of 16"),
    # bounds checked before the arrays they size are allocated: 8 bytes a shot or a step would be 728 TiB, 7.28 TiB
    "huge_shots": ({}, ["simulate", "--shots", "100000000000000"], CNOT_PROGRAM, 2,
                   "shots must be <= 10000000, got 100000000000000"),
    "seed_negative": ({}, ["simulate", "--seed", "-1"], CNOT_PROGRAM, 2, "--seed must be >= 0, got -1"),
    "huge_steps": ({}, ["sweep", "--param", "nu1", "--from", "50kHz", "--to", "100kHz", "--steps", "1000000000000",
                        "--quantity", "max_J", "--out", "out/sweep.csv"], CNOT_PROGRAM, 2,
                   "sweep needs steps <= 100000, got 1000000000000"),
    # J = 0 at b = 0: the state stays exact and only the sequence time overflows
    "time_overflow": ({"field": {"uniform": {"b": "0T/m"}}}, ["simulate"],
                      "ions 2\ndelay 1e308s\ndelay 1e308s\nmeasure z all\n", 3,
                      "3:1: sequence time inf s is not finite"),
    "empty_program": ({}, ["simulate"], "", 4, "p.pp:1:1: program is empty"),
    "unknown_keyword": ({}, ["simulate"], "ions 2\nwiggle 5\n", 4, "p.pp:2:1: unknown keyword 'wiggle'"),
    "duplicate_header": ({}, ["simulate"], "ions 2\nions 2\n", 4, "p.pp:2:1: duplicate 'ions' header"),
    "ion_count_digits": ({}, ["simulate"], f"ions {LONG_INTEGER}\n", 4,
                         f"p.pp:1:6: expected an integer ion count {DIGITS_ERROR}"),
    "ion_index_digits": ({}, ["simulate"], f"ions 2\nmeasure z {LONG_INTEGER}\n", 4,
                         f"p.pp:2:11: expected an integer ion index {DIGITS_ERROR}"),
    "area_and_dur": ({}, ["simulate"], "ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 area=1pi dur=1ms\n", 4,
                     "p.pp:2:49: pulse takes either area or dur, not both"),
    # pi / (2 pi rabi) overflows at a subnormal rabi: a parse error at the rabi value, not an exit-3 sequence time
    "area_duration_overflow": ({}, ["simulate"], "ions 2\npulse ion=1 rabi=1e-320Hz detune=0 phase=0 area=1pi\n",
                               4, "p.pp:2:18: pulse duration inf s is not finite"),
    # `c` and an explicit wavevector have no unit, so their strings take none either
    "curvature_unit": ({"field": {"quadratic": {"b": "10T/m", "c": "1T/m"}}}, ["chain"], CNOT_PROGRAM, 2,
                       "field field.quadratic.c: expected curvature in T/m^2, got gradient ('1T/m')"),
    "wavevector_unit": ({"drive_wavevector": {"explicit": "1e7rad"}}, ["chain"], CNOT_PROGRAM, 2,
                        "field drive_wavevector.explicit: expected wavevector in rad/m, got angle-rad ('1e7rad')"),
    "wavevector_negative": ({"drive_wavevector": {"explicit": "-1e7"}}, ["chain"], CNOT_PROGRAM, 2,
                            "field drive_wavevector.explicit: wavevector must be positive, got -10000000.0"),
    "nu1_non_finite": ({"nu1": "1e400"}, ["chain"], CNOT_PROGRAM, 2,
                       "field nu1: quantity '1e400' is not a finite number"),
    # JSON integers that no double holds, at every quantity field
    "nu1_huge_integer": ({"nu1": 10**400}, ["chain"], CNOT_PROGRAM, 2,
                         "field nu1: integer is beyond the range of a double"),
    "B0_huge_integer": ({"field": {"uniform": {"B0": -10**400, "b": 10}}}, ["chain"], CNOT_PROGRAM, 2,
                        "field field.uniform.B0: integer is beyond the range of a double"),
    "b_huge_integer": ({"field": {"uniform": {"b": 10**400}}}, ["chain"], CNOT_PROGRAM, 2,
                       "field field.uniform.b: integer is beyond the range of a double"),
    "c_huge_integer": ({"field": {"quadratic": {"b": 10, "c": 10**400}}}, ["chain"], CNOT_PROGRAM, 2,
                       "field field.quadratic.c: integer is beyond the range of a double"),
    "explicit_huge_integer": ({"drive_wavevector": {"explicit": 10**400}}, ["couplings", "--out-dir", "out"],
                              CNOT_PROGRAM, 2,
                              "field drive_wavevector.explicit: integer is beyond the range of a double"),
    "sampled_huge_integer": ({"field": {"sampled": {"points": [[-1, 0], [1, -10**400]]}}}, ["chain"], CNOT_PROGRAM, 2,
                             "field field.sampled.points[1].B: integer is beyond the range of a double"),
    # json keeps a repeated key's last value: 50 ions, or b = 0 and so J = 0, under exit 0
    "repeated_key": (repeated_key_text('"N": 2', '"N": 2, "N": 50'), ["chain"], CNOT_PROGRAM, 2,
                     "trap.json: duplicate key 'N'"),
    "repeated_nested_key": (repeated_key_text('"b": "10T/m"', '"b": "20T/m", "b": "0T/m"'),
                            ["couplings", "--out-dir", "out"], CNOT_PROGRAM, 2, "trap.json: duplicate key 'b'"),
    "repeated_key_sweep": (repeated_key_text('"nu1": "100kHz"', '"nu1": "100kHz", "nu1": "200kHz"'),
                           ["sweep", "--param", "nu1", "--from", "50kHz", "--to", "100kHz", "--steps", "3",
                            "--quantity", "max_J", "--out", "out/sweep.csv"], CNOT_PROGRAM, 2,
                           "trap.json: duplicate key 'nu1'"),
}


@pytest.mark.parametrize("case", FAILING_RUNS)
def test_failing_run_exit_code_and_message(tmp_path, capsys, monkeypatch, case):
    fields, command, program, code, message = FAILING_RUNS[case]
    monkeypatch.chdir(tmp_path)
    text = fields if isinstance(fields, str) else json.dumps({**standard_raw(n=2), **fields})
    (tmp_path / "trap.json").write_text(text, encoding="utf-8")
    (tmp_path / "p.pp").write_text(program, encoding="utf-8")
    if command[0] == "simulate":
        command = [*command, "--program", "p.pp", "--out", "out/run.json"]
    assert main([*command, "--config", "trap.json"]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.pp", "trap.json"]


def test_non_finite_couplings_exit3(trap2, tmp_path, capsys):
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps(standard_raw(n=2, b="1e300T/m")), encoding="utf-8")
    out_dir = tmp_path / "coup"
    assert main(["couplings", "--config", str(steep), "--out-dir", str(out_dir)]) == 3
    assert not out_dir.exists()
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", trap2, "--param", "field.uniform.b", "--from", "1", "--to", "1e300",
                 "--steps", "3", "--quantity", "max_J", "--out", str(out)]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("error: coupling quantities are not finite:") for line in lines)


@pytest.mark.parametrize("nu1", ["1e-300Hz", "1e200Hz"])  # nu1**2 underflows to 0 / overflows
@pytest.mark.parametrize("command", [["chain"], ["couplings", "--out-dir", "coup"]])
def test_unrepresentable_length_scale_exit2(tmp_path, capsys, monkeypatch, nu1, command):
    monkeypatch.chdir(tmp_path)
    trap = tmp_path / "trap.json"
    trap.write_text(json.dumps(standard_raw(n=2, nu1=nu1)), encoding="utf-8")
    assert main([*command, "--config", str(trap)]) == 2
    assert capsys.readouterr().err.startswith("error: field nu1:")
    assert not (tmp_path / "coup").exists()


def test_simulate_deterministic(trap2, tmp_path):
    program = tmp_path / "cnot.pp"
    program.write_text(CNOT_PROGRAM, encoding="utf-8")
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}.json"
        main(["simulate", "--config", trap2, "--program", str(program),
              "--initial", "10", "--seed", "11", "--shots", "64",
              "--out", str(out)])
        outputs.append(out.read_bytes() + (tmp_path / f"run_{run}_hist.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_simulate_without_measure_draws_as_a_final_measure_z_all(trap2, tmp_path):
    # the histogram of a program without a measurement is one all-ion draw from the run's generator
    source = ("ions 2\npulse ion=1 rabi=5kHz detune=0 phase=0 area=0.5pi\n"
              "pulse ion=2 rabi=5kHz detune=0 phase=0 area=0.3pi\ndelay 3ms\n")
    histograms = []
    for tag, text in (("bare", source), ("measured", source + "measure z all\n")):
        program = tmp_path / f"{tag}.pp"
        program.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", trap2, "--program", str(program), "--seed", "7", "--shots", "400",
                     "--out", str(tmp_path / f"{tag}.json")]) == 0
        histograms.append((tmp_path / f"{tag}_hist.csv").read_bytes())
    assert histograms[0] == histograms[1]
    assert histograms[0].count(b"\n") == 5  # the header and all four outcomes


# sweep ----------------------------------------------------------------------------

def test_sweep_gradient_quadratic_law(trap2, tmp_path):
    out = tmp_path / "sweep_b.csv"
    code = main(["sweep", "--config", trap2, "--param", "field.uniform.b",
                 "--from", "1T/m", "--to", "100T/m", "--steps", "9", "--scale", "log",
                 "--quantity", "max_J", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["field.uniform.b", "max_J"]
    x = np.array([float(r[0]) for r in rows])
    y = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(x) > 0)
    slope = np.polyfit(np.log(x), np.log(y), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.01)


def test_sweep_nu1_inverse_square_law(trap2, tmp_path):
    out = tmp_path / "sweep_nu.csv"
    code = main(["sweep", "--config", trap2, "--param", "nu1",
                 "--from", "50kHz", "--to", "800kHz", "--steps", "7", "--scale", "log",
                 "--quantity", "max_J", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    x = np.array([float(r[0]) for r in rows])
    y = np.array([float(r[1]) for r in rows])
    slope = np.polyfit(np.log(x), np.log(y), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.01)


def test_sweep_validates_steps(trap2, tmp_path, capsys):
    code = main(["sweep", "--config", trap2, "--param", "nu1",
                 "--from", "1kHz", "--to", "2kHz", "--steps", "1",
                 "--quantity", "max_J", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "steps" in capsys.readouterr().err


def test_sweep_validates_endpoints(trap2, tmp_path):
    code = main(["sweep", "--config", trap2, "--param", "nu1",
                 "--from", "1kHz", "--to", "1kHz", "--steps", "3",
                 "--quantity", "max_J", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    code = main(["sweep", "--config", trap2, "--param", "nu1",
                 "--from=-1kHz", "--to", "1kHz", "--steps", "3", "--scale", "log",
                 "--quantity", "max_J", "--out", str(tmp_path / "s.csv")])
    assert code == 2


# bound -> the units reader's message; the `number` rule has no spelling of nan or inf
NON_FINITE_BOUND_ERRORS = {
    "1e400": "quantity '1e400' is not a finite number",
    "nan": "malformed number in quantity: 'nan'",
    "inf": "malformed number in quantity: 'inf'",
    "-inf": "malformed number in quantity: '-inf'",
}


@pytest.mark.parametrize("bound", ["1e400", "nan", "inf", "-inf"])
def test_sweep_rejects_non_finite_bound(trap2, tmp_path, capsys, bound):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", trap2, "--param", "nu1", "--from", "50kHz", f"--to={bound}",
                 "--steps", "3", "--quantity", "max_J", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: sweep bound: {NON_FINITE_BOUND_ERRORS[bound]}\n"
    assert not out.exists()


@pytest.mark.parametrize("param, start, stop", [
    ("nu1", "1T/m", "2ms"),
    ("nu1", "50kHz", "2ms"),
    ("field.uniform.b", "1kHz", "2T/m"),
    ("field.uniform.b", "1T/m", "2T"),
])
def test_sweep_bound_unit_must_fit_parameter(trap2, tmp_path, capsys, param, start, stop):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", trap2, "--param", param, "--from", start, "--to", stop,
                 "--steps", "3", "--quantity", "max_J", "--out", str(out)])
    assert code == 2
    assert "expected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param, with_units, si", [
    ("nu1", ("50kHz", "0.1MHz"), ("5e4", "100000")),
    ("field.uniform.b", ("1T/m", "30T/m"), ("1", "30")),
])
def test_sweep_bound_units_equal_si_numbers(trap2, tmp_path, param, with_units, si):
    texts = []
    for tag, (start, stop) in (("units", with_units), ("si", si)):
        out = tmp_path / f"{tag}.csv"
        assert main(["sweep", "--config", trap2, "--param", param, "--from", start, "--to", stop,
                     "--steps", "3", "--quantity", "max_J", "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_sweep_min_spacing_needs_two_ions(tmp_path, capsys):
    config = tmp_path / "trap1.json"
    config.write_text(json.dumps(standard_raw(n=1)), encoding="utf-8")
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", str(config), "--param", "nu1", "--from", "50kHz", "--to", "100kHz",
                 "--steps", "2", "--quantity", "min_spacing", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: sweep quantity min_spacing needs at least 2 ions, config has N=1\n"
    assert not out.exists()


def test_sweep_bad_param_path(trap2, tmp_path, capsys, monkeypatch):
    def no_solve(config):
        raise AssertionError("a chain was solved for an invalid sweep parameter")

    monkeypatch.setattr("gradchain.chain.solve_chain", no_solve)
    raw = json.loads(Path(trap2).read_text(encoding="utf-8"))
    Path(trap2).write_text(json.dumps({**raw, "comment": "any text"}), encoding="utf-8")
    out = tmp_path / "s.csv"
    for param, message in [("field.zigzag.b", "sweep parameter path 'field.zigzag.b' not present in config"),
                           ("field.uniform.nope", "sweep parameter path 'field.uniform.nope' not present in config"),
                           *((param, f"sweep parameter {param!r} is not a quantity")
                             for param in ("comment", "N", "species", "field", "field.uniform"))]:
        code = main(["sweep", "--config", trap2, "--param", param, "--from", "1", "--to", "2", "--steps", "2",
                     "--quantity", "max_J", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_sweep_parameter_is_checked_before_its_bounds(trap2, tmp_path, capsys):
    # with a malformed bound as well, the parameter's error is the one reported
    raw = json.loads(Path(trap2).read_text(encoding="utf-8"))
    Path(trap2).write_text(json.dumps({**raw, "comment": "any text"}), encoding="utf-8")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", trap2, "--param", "comment", "--from", "nan", "--to", "2", "--steps", "2",
                 "--quantity", "max_J", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: sweep parameter 'comment' is not a quantity\n"
    assert not out.exists()


def test_sweep_scale_is_checked_by_argparse(trap2, tmp_path, capsys):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", trap2, "--param", "nu1", "--from", "50kHz", "--to", "100kHz", "--steps", "3",
              "--scale", "cubic", "--quantity", "max_J", "--out", str(out)])
    assert exc.value.code == 2
    assert "error: argument --scale: invalid choice: 'cubic'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trap2.json"]


def test_sweep_rows_in_parameter_order(trap2, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", trap2, "--param", "field.uniform.b",
                 "--from", "10", "--to", "1", "--steps", "6",
                 "--quantity", "max_J", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    params = [float(r[0]) for r in rows]
    values = [float(r[1]) for r in rows]
    assert params == pytest.approx(np.linspace(10, 1, 6).tolist(), rel=1e-11)
    # J is quadratic in the gradient, so a descending scan gives descending rows
    assert values == sorted(values, reverse=True)
    assert values[0] / values[-1] == pytest.approx(100.0, rel=1e-9)


def test_sweep_delta_shift_quantity(trap2, tmp_path):
    out = tmp_path / "sweep_d.csv"
    code = main(["sweep", "--config", trap2, "--param", "field.uniform.b",
                 "--from", "1", "--to", "20", "--steps", "4",
                 "--quantity", "delta_shift[1]", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    # the shift is -hbar (d omega/dz)^2 / (2 m nu1^2): quadratic in the gradient
    values = np.array([float(r[1]) for r in rows])
    params = np.array([float(r[0]) for r in rows])
    per_gradient_squared = -HBAR * (MU_B / HBAR) ** 2 / (2 * YB_MASS * (TWO_PI * 1e5) ** 2) / TWO_PI
    assert values / params**2 == pytest.approx(np.full(4, per_gradient_squared), rel=1e-10)


def test_sweep_spec_validation():
    values = _sweep_values(1e4, 1e6, 5, "log")
    assert len(values) == 5
    assert values[0] == pytest.approx(1e4) and values[-1] == pytest.approx(1e6)
    descending = _sweep_values(1e6, 1e4, 3, "linear")
    assert np.all(np.diff(descending) < 0)
    negative_log = _sweep_values(-1.0, -100.0, 3, "log")
    assert np.all(negative_log < 0)
    with pytest.raises(ValueError):
        _sweep_values(1.0, 2.0, 1, "linear")
    with pytest.raises(ValueError):
        _sweep_values(1.0, 1.0, 3, "linear")
    with pytest.raises(ValueError):
        _sweep_values(-1.0, 1.0, 3, "log")
    with pytest.raises(ValueError):
        _sweep_values(-1.7e308, 1.7e308, 3, "linear")  # linspace would step by inf


@pytest.mark.parametrize("start, stop", [(0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (-1.0, 0.0)])
def test_log_sweep_rejects_a_zero_endpoint(start, stop):
    with pytest.raises(ValueError, match=r"^log sweeps need nonzero endpoints of the same sign$"):
        _sweep_values(start, stop, 3, "log")


@pytest.mark.parametrize("start, stop", [(1e-200, 1e-180), (-1e-180, -1e-200), (5e-324, 1e-300)])
def test_log_sweep_takes_endpoints_of_any_magnitude(start, stop):
    # the product of the endpoints underflows to 0, but both are nonzero and of one sign
    values = _sweep_values(start, stop, 3, "log")
    assert values[0] == pytest.approx(start, rel=1e-12) and values[-1] == pytest.approx(stop, rel=1e-12)
    assert np.all(np.sign(values) == math.copysign(1.0, start))


def test_log_sweep_of_negative_gradients(trap2, tmp_path, capsys):
    # argparse reads `--from -2T/m` as a flag with its argument missing; a negative bound is written `--from=-2T/m`
    sweep = ["sweep", "--config", trap2, "--param", "field.uniform.b", "--scale", "log", "--steps", "3",
             "--quantity", "max_J"]
    with pytest.raises(SystemExit) as exc:
        main([*sweep, "--from", "-2T/m", "--to=-20T/m", "--out", str(tmp_path / "spaced.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --from: expected one argument\n")
    tables = []
    for sign in ("-", ""):
        out = tmp_path / f"sweep{sign}.csv"
        assert main([*sweep, f"--from={sign}2T/m", f"--to={sign}20T/m", "--out", str(out)]) == 0
        tables.append(read_csv(out)[1])
    negative, positive = tables
    assert [row[0] for row in negative] == ["-" + row[0] for row in positive]
    assert [row[1] for row in negative] == [row[1] for row in positive]  # J goes as b^2
    assert not (tmp_path / "spaced.csv").exists()


def test_log_sweep_of_a_tiny_offset_field(trap2, tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", trap2, "--param", "field.uniform.B0", "--from", "1e-200", "--to", "1e-180",
                 "--scale", "log", "--steps", "3", "--quantity", "max_J", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["1e-200", "1e-190", "1e-180"]
    assert len({r[1] for r in rows}) == 1  # an offset field moves no coupling


# quantity -> its value at one config, from the library
SWEEP_QUANTITY_VALUES = {
    "max_J": lambda config: float(np.max(np.abs(build_report(config, solve_chain(config)).j_matrix))) / TWO_PI,
    "epsilon": lambda config: build_report(config, solve_chain(config)).validity,
    "min_spacing": lambda config: solve_chain(config).min_spacing_m(),
    "delta_shift[2]": lambda config: float(build_report(config, solve_chain(config)).shifts[1]) / TWO_PI,
}


@pytest.mark.parametrize("quantity", SWEEP_QUANTITY_VALUES)
def test_sweep_rows_are_the_library_values(tmp_path, quantity):
    # three ions in a quadratic field: every ion has its own gradient, so each quantity differs from the others
    raw = standard_raw(n=3) | {"field": {"quadratic": {"b": "10T/m", "c": 2e5}}}
    config = tmp_path / "trap3.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", str(config), "--param", "nu1", "--from", "50kHz", "--to", "200kHz",
                 "--steps", "4", "--quantity", quantity, "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["nu1", quantity]
    points = [5e4, 1e5, 1.5e5, 2e5]
    assert rows == [[_fmt(nu), _fmt(SWEEP_QUANTITY_VALUES[quantity](validate_config(raw | {"nu1": nu})))]
                    for nu in points]


# two ions whose equilibrium (z = -/+ 12.7 um at 50 kHz, -/+ 8.0 um at 100 kHz) lies outside the sampled field
OUTSIDE_PROFILE = standard_raw(n=2) | {"field": {"sampled": {"points": [["-1um", "0T"], ["1um", "1e-6T"]]}}}


def test_sweep_min_spacing_builds_no_report(tmp_path):
    config = tmp_path / "outside.json"
    config.write_text(json.dumps(OUTSIDE_PROFILE), encoding="utf-8")
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", str(config), "--param", "nu1", "--from", "50kHz", "--to", "100kHz",
                 "--steps", "2", "--quantity", "min_spacing", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    assert rows == [[_fmt(nu), _fmt(solve_chain(validate_config(OUTSIDE_PROFILE | {"nu1": nu})).min_spacing_m())]
                    for nu in (5e4, 1e5)]


@pytest.mark.parametrize("quantity", ["max_J", "epsilon", "delta_shift[1]"])
def test_sweep_report_quantities_fail_outside_the_profile(tmp_path, capsys, quantity):
    config = tmp_path / "outside.json"
    config.write_text(json.dumps(OUTSIDE_PROFILE), encoding="utf-8")
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", str(config), "--param", "nu1", "--from", "50kHz", "--to", "100kHz",
                 "--steps", "2", "--quantity", quantity, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: position z=") and "outside sampled profile range [-1e-06, 1e-06] m" in err
    assert not out.exists()


@pytest.mark.parametrize("quantity, message", [
    ("bogus", "unknown sweep quantity 'bogus'"),
    ("delta_shift[x]", "unknown sweep quantity 'delta_shift[x]'"),
    ("delta_shift[99]", "sweep quantity 'delta_shift[99]': ion index 99 out of range [1, 2]"),
    # the index follows the `integer` rule: no `_`, no whitespace, ASCII digits only
    ("delta_shift[1_0]", "unknown sweep quantity 'delta_shift[1_0]'"),
    ("delta_shift[ 1]", "unknown sweep quantity 'delta_shift[ 1]'"),
    ("delta_shift[\u0662]", "unknown sweep quantity 'delta_shift[\u0662]'"),
    # an index past int's digit limit is its ion index's error; the digits are not echoed
    pytest.param(f"delta_shift[{LONG_INTEGER}]",
                 f"sweep quantity delta_shift[j]: expected an ion index {DIGITS_ERROR}\n", id="delta_shift_digits"),
])
def test_sweep_rejects_quantity_before_any_point(trap2, tmp_path, capsys, monkeypatch, quantity, message):
    def no_solve(config):
        raise AssertionError("a chain was solved for an invalid quantity")

    monkeypatch.setattr("gradchain.chain.solve_chain", no_solve)
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", trap2, "--param", "nu1", "--from", "50kHz", "--to", "100kHz",
                 "--steps", "2", "--quantity", quantity, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1 and len(err) < 300
    assert not out.exists()


def test_sweep_plot_data_is_the_csv_columns(trap2, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", trap2, "--param", "nu1", "--from", "50kHz", "--to", "200kHz",
                 "--steps", "4", "--quantity", "max_J", "--out", str(out), "--emit-plot-data"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["nu1", "max_J"]
    dat = tmp_path / "sweep.csv.dat"
    assert dat.read_text(encoding="utf-8") == "".join(f"{x} {y}\n" for x, y in rows)
    assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".json") == ["sweep.csv", "sweep.csv.dat"]


# the integer flags read their text as units.read_integer does
@pytest.mark.parametrize("command, flag, text", [
    (["spectrum", "--out", "s.csv"], "--ion", "\uff12"),
    (["spectrum", "--out", "s.csv"], "--ion", "x"),
    (["simulate", "--program", "p.pp", "--out", "run.json"], "--seed", "1_0"),
    (["simulate", "--program", "p.pp", "--out", "run.json"], "--shots", " 2"),
    (["sweep", "--param", "nu1", "--from", "50kHz", "--to", "100kHz", "--quantity", "max_J", "--out", "s.csv"],
     "--steps", "\uff13"),
])
def test_integer_flags_take_the_integer_rule(trap2, tmp_path, monkeypatch, capsys, command, flag, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.pp").write_text(CNOT_PROGRAM, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", trap2, flag, text])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: expected an integer, got {text!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.pp", "trap2.json"]


@pytest.mark.parametrize("text", ["", ".", "sub/.."])
@pytest.mark.parametrize("command", [
    ["chain"],
    ["spectrum", "--ion", "1"],
    ["simulate", "--program", "p.pp"],
    ["sweep", "--param", "nu1", "--from", "50kHz", "--to", "100kHz", "--steps", "2", "--quantity", "max_J"],
], ids=lambda command: command[0])
def test_out_must_name_a_file(trap2, tmp_path, monkeypatch, capsys, command, text):
    # a path with no file name is argparse's error on --out, before anything runs or is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.pp").write_text(CNOT_PROGRAM, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", trap2, "--out", text])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --out: expected a file path, got {text!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.pp", "trap2.json"]


def test_over_long_integer_flag_is_an_argparse_error(trap2, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", trap2, "--ion", LONG_INTEGER, "--out", "s.csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument --ion: expected an integer {DIGITS_ERROR}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["trap2.json"]


def test_numeric_strings_in_a_config_are_si(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for nu1, c, k in ((100000, 2e5, 1e7), ("100000", "2e5", "1e7")):
        raw = standard_raw(n=3, nu1=nu1) | {"field": {"quadratic": {"b": "10T/m", "c": c}},
                                             "drive_wavevector": {"explicit": k}}
        Path("trap.json").write_text(json.dumps(raw), encoding="utf-8")
        assert main(["chain", "--config", "trap.json", "--out", "chain.json"]) == 0
        assert main(["couplings", "--config", "trap.json", "--out-dir", "coup"]) == 0
        outputs.append([Path(name).read_bytes() for name in ("chain.json", "coup/report.json", "coup/j_matrix.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["sweep", "chain"])
@pytest.mark.parametrize("content, detail", [
    (b'{"N": 2, x}', "invalid JSON"),
    (b'{"comment": "\xff"}', "not UTF-8"),
    # valid JSON that json.loads cannot read: nesting past the recursion limit, an integer past int's digit limit
    pytest.param(b'{"N": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "JSON past the parser's limits",
                 id="deep_nesting"),
    # the whole stderr line: units.read_integer's digit count, not Python's advice to raise the limit
    pytest.param(b'{"N": ' + LONG_INTEGER.encode() + b"}",
                 f"JSON past the parser's limits: expected an integer {DIGITS_ERROR}\n", id="long_integer"),
])
def test_malformed_config_error_names_the_path(tmp_path, capsys, command, content, detail):
    config = tmp_path / "bad.json"
    config.write_bytes(content)
    argv = {"chain": ["chain", "--config", str(config)],
            "sweep": ["sweep", "--config", str(config), "--param", "nu1", "--from", "1", "--to", "2",
                      "--steps", "2", "--quantity", "max_J", "--out", str(tmp_path / "s.csv")]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: {detail}")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


@pytest.mark.parametrize("command", [
    ["chain", "--out", "chain.json"],
    ["couplings", "--out-dir", "out"],
])
def test_emit_plot_data_only_where_it_writes(trap2, tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", trap2, "--emit-plot-data"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --emit-plot-data" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trap2.json"]


# determinism and the module entry point ---------------------------------------------

def test_all_commands_byte_identical(trap2, tmp_path):
    program = tmp_path / "cnot.pp"
    program.write_text(CNOT_PROGRAM, encoding="utf-8")

    def run_all(tag, *flags):
        base = tmp_path / tag
        base.mkdir()
        main(["chain", "--config", trap2, "--out", str(base / "chain.json"), *flags])
        main(["couplings", "--config", trap2, "--out-dir", str(base / "coup"), *flags])
        main(["spectrum", "--config", trap2, "--ion", "2", "--out", str(base / "spec.csv"), *flags])
        main(["simulate", "--config", trap2, "--program", str(program), "--seed", "5",
              "--shots", "32", "--out", str(base / "run.json"), *flags])
        main(["sweep", "--config", trap2, "--param", "nu1", "--from", "50kHz",
              "--to", "200kHz", "--steps", "3", "--quantity", "epsilon",
              "--out", str(base / "sweep.csv"), *flags])
        blobs = []
        for path in sorted(base.rglob("*")):
            if path.is_file():
                blobs.append((path.relative_to(base).as_posix(), path.read_bytes()))
        return blobs

    # --no-timestamp is accepted and changes no byte; without it, two runs still agree
    flagged = run_all("flagged", "--no-timestamp")
    assert len(flagged) == 8  # chain.json, report.json, two matrix CSVs, spec.csv, run.json, run_hist.csv, sweep.csv
    assert run_all("first") == flagged
    assert run_all("second") == flagged


@pytest.mark.parametrize("flags", [[], ["--no-timestamp"]], ids=["timestamp", "no-timestamp"])
def test_simulate_wall_time_only_without_flag(trap2, tmp_path, flags):
    """With the flag and without it, no JSON output holds a timestamp or a wall time."""
    program = tmp_path / "cnot.pp"
    program.write_text(CNOT_PROGRAM, encoding="utf-8")
    assert main(["chain", "--config", trap2, "--out", str(tmp_path / "chain.json"), *flags]) == 0
    assert main(["couplings", "--config", trap2, "--out-dir", str(tmp_path), *flags]) == 0
    assert main(["simulate", "--config", trap2, "--program", str(program), "--out", str(tmp_path / "run.json"),
                 *flags]) == 0
    for name in ("chain.json", "report.json", "run.json"):
        doc = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert "generated_at" not in doc and "wall_time_s" not in doc, name


def test_module_entry_point(trap2, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "gradchain", "chain", "--config", trap2],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "min spacing" in result.stdout


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # N = 50 puts eigh on LAPACK's divide-and-conquer path (above N = 25), which OpenBLAS threads
    config50 = tmp_path / "n50.json"
    config50.write_text(json.dumps(standard_raw(n=50)), encoding="utf-8")
    src = Path(gradchain.__file__).resolve().parents[1]
    configs = src.parent / "configs"
    commands = [["couplings", "--config", str(config50), "--out-dir", "couplings"],
                ["simulate", "--config", str(configs / "trap.json"), "--program", str(configs / "cnot.pp"),
                 "--out", "run.json"]]

    def run_all(threads):
        base = tmp_path / f"threads_{threads}"
        base.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        done = [subprocess.run([sys.executable, "-m", "gradchain", *command], cwd=base, env=env,
                               capture_output=True, check=False) for command in commands]
        assert [d.returncode for d in done] == [0, 0], [d.stderr for d in done]
        files = [(path.relative_to(base).as_posix(), path.read_bytes()) for path in sorted(base.rglob("*"))
                 if path.is_file()]
        return [d.stdout for d in done], files

    one, two = run_all("1"), run_all("2")
    assert len(one[1]) == 5  # report.json, two matrix CSVs, run.json, run_hist.csv
    assert one == two


# the JSON writer -------------------------------------------------------------------

def assert_writes_json_reference(path, doc):
    """The writer's contract, spelled with the standard library: arrays count as their tolist()."""
    got = path.read_text(encoding="utf-8")
    want = json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"
    if got != want:  # a plain assert would diff megabytes of text
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"written text differs at character {at}: "
                    f"{got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


def run_doc(n, source, shots):
    config = validate_config(standard_raw(n=n))
    chain = solve_chain(config)
    record = interpret(parse(source), build_report(config, chain).j_matrix, "0" * n, seed=3, shots=shots)
    return record.to_json_dict()


def register_source(n, rng):
    """A pi/2 pulse on every ion, then random pulses and delays, with logs and measurements."""
    lines = [f"ions {n}"]
    for k, ion in enumerate([*rng.permutation(n) + 1, *rng.integers(1, n + 1, 2 * n)]):
        area = 0.5 if k < n else float(rng.choice([0.25, 0.5, 1.0]))
        lines.append(f"pulse ion={ion} rabi={rng.uniform(2e3, 1e4)!r}Hz detune={rng.uniform(-100, 100)!r}Hz "
                     f"phase={rng.uniform(0, 2 * math.pi)!r}rad area={area!r}pi")
        lines.append(f"delay {rng.uniform(2e-4, 3e-3)!r}s")
        if k % n == n - 1:
            lines += ["log sz all", "measure z all"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def register_doc():
    return run_doc(16, register_source(16, np.random.default_rng(16)), shots=20000)


def test_write_json_16_ion_register(register_doc, tmp_path):
    out = tmp_path / "run.json"
    _write_text({out: _json_text(register_doc)})
    assert len(register_doc["final_state"]["amplitudes"]) == 1 << 16
    assert len(register_doc["measurements"][-1]["counts"]) > 10000
    assert_writes_json_reference(out, register_doc)


SMALL_RUNS = {
    "no shots": (2, CNOT_PROGRAM, 0),
    "no measure": (2, "ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 area=0.5pi\ndelay 1ms\nlog sx all\n", 50),
    "one qubit": (1, "ions 1\npulse ion=1 rabi=1kHz detune=0 phase=0 area=0.5pi\nmeasure z all\nlog sy 1\n", 50),
}


@pytest.mark.parametrize("case", SMALL_RUNS)
def test_write_json_small_runs(tmp_path, case):
    doc = run_doc(*SMALL_RUNS[case])
    out = tmp_path / "run.json"
    _write_text({out: _json_text(doc)})
    assert_writes_json_reference(out, doc)


@pytest.mark.parametrize("amplitudes", [
    [-0.0 + 5e-324j, 1e-20 - 0.0j, 1.5e16 + 1e-5j, 0.1 + 2.5e-310j],  # signed zero, subnormals, exponents
    [1.0 + 0.0j, complex(math.nan, 1.0), complex(math.inf, -math.inf), 0.0j],  # json spells NaN, Infinity
])
def test_write_json_float_spellings(tmp_path, amplitudes):
    record = RunRecord(initial_label="00", seed=0, shots=0, expectation_log=[], measurements=[],
                       histogram={}, final_state=np.array(amplitudes), total_time_s=0.0)
    doc = {"final_state": record.to_json_dict()["final_state"], "counts": {}, "empty": []}
    out = tmp_path / "state.json"
    _write_text({out: _json_text(doc)})
    assert_writes_json_reference(out, doc)


def test_write_json_peak_memory_below_file_size(register_doc, tmp_path):
    """The document text is streamed: the writer never holds a string the size of the file."""
    out = tmp_path / "run.json"
    tracemalloc.start()
    try:
        _write_text({out: _json_text(register_doc)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


@pytest.mark.parametrize("rows, cols", [(1, 1), (4095, 2), (4096, 2), (4097, 2), (8193, 3)])
def test_json_text_array_blocks(rows, cols):
    a = np.random.default_rng(rows).normal(size=(rows, cols))
    doc = {"a": a, "nested": [{"b": a[:3]}]}
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist)


@pytest.mark.parametrize("existing", [False, True])
def test_write_json_failure_leaves_nothing(tmp_path, existing):
    out = tmp_path / "run.json"
    if existing:
        out.write_text("earlier run\n", encoding="utf-8")
    # the array's text is written before json meets the set
    doc = {"amplitudes": np.ones((5000, 2)), "z": [{"outcomes": {1, 2}}]}
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_text({out: _json_text(doc)})
    assert [p.name for p in tmp_path.iterdir()] == (["run.json"] if existing else [])
    if existing:
        assert out.read_text(encoding="utf-8") == "earlier run\n"


class _FullDisk:
    """An open output file whose disk fills after the first 20 characters of its first piece."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, pieces):
        self.fh.write(next(iter(pieces))[:20])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_csv_write_leaves_the_earlier_outputs(tmp_path, monkeypatch, capsys):
    # j_matrix.csv, the first file couplings writes, fails partway: no truncated CSV passes for a result
    monkeypatch.chdir(tmp_path)
    argv = ["couplings", "--config", "trap.json", "--out-dir", "out"]
    Path("trap.json").write_text(json.dumps(standard_raw(n=2)), encoding="utf-8")
    assert main(argv) == 0
    earlier = {p.name: p.read_bytes() for p in Path("out").iterdir()}
    assert sorted(earlier) == ["epsilon_matrix.csv", "j_matrix.csv", "report.json"]
    Path("trap.json").write_text(json.dumps(standard_raw(n=2, b="20T/m")), encoding="utf-8")
    monkeypatch.setattr(gradchain.cli, "open", lambda *args, **kwargs: _FullDisk(open(*args, **kwargs)),
                        raising=False)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    # every file as it was, j_matrix.csv included, and no temporary file left beside them
    assert {p.name: p.read_bytes() for p in Path("out").iterdir()} == earlier


# command -> its arguments and the output whose disk fills; every file the command writes before that one is complete
SET_WRITES = {
    "couplings": (["couplings", "--config", "trap.json", "--out-dir", "out"], "epsilon_matrix.csv"),
    "simulate": (["simulate", "--config", "trap.json", "--program", "run.pp", "--out", "out/run.json",
                  "--emit-plot-data"], "run_hist.csv"),
}


@pytest.mark.parametrize("command", SET_WRITES)
def test_failed_write_leaves_the_whole_earlier_set(tmp_path, monkeypatch, capsys, command):
    # a later file of the set fails after an earlier one is written in full: the earlier one must not replace
    # its old copy either, or the directory holds a mixed set that reads as one result
    argv, failing = SET_WRITES[command]
    monkeypatch.chdir(tmp_path)
    Path("run.pp").write_text(CNOT_PROGRAM + "log sz all\n", encoding="utf-8")
    Path("trap.json").write_text(json.dumps(standard_raw(n=2)), encoding="utf-8")
    assert main(argv) == 0
    earlier = {p.name: p.read_bytes() for p in Path("out").iterdir()}
    assert failing in earlier and len(earlier) >= 3
    Path("trap.json").write_text(json.dumps(standard_raw(n=2, b="20T/m")), encoding="utf-8")

    def fills_inside_failing(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return _FullDisk(fh) if Path(path).name.startswith(f".{failing}.") else fh

    monkeypatch.setattr(gradchain.cli, "open", fills_inside_failing, raising=False)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert {p.name: p.read_bytes() for p in Path("out").iterdir()} == earlier


def test_failed_rename_names_the_output_path(trap2, tmp_path, monkeypatch, capsys):
    # the output path is a directory: the rename fails, and its error names the path, not the removed temporary
    monkeypatch.chdir(tmp_path)
    Path("out").mkdir()
    errors = []
    for _ in range(2):
        assert main(["chain", "--config", trap2, "--out", "out"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'out'\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "trap2.json"]


def test_failed_open_names_the_output_path(trap2, tmp_path, monkeypatch, capsys):
    def refuses_temporaries(path, *args, **kwargs):
        if Path(path).name.startswith(".chain.json."):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return open(path, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gradchain.cli, "open", refuses_temporaries, raising=False)
    assert main(["chain", "--config", trap2, "--out", "out/chain.json"]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: 'out/chain.json'\n"
    assert list(Path("out").iterdir()) == []
