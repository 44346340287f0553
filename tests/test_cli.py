import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import standard_raw
from gradchain.cli import SweepSpec, main

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
    code = main(["chain", "--config", trap10, "--out", str(out), "--no-timestamp"])
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
    code = main(["couplings", "--config", trap2, "--out-dir", str(out_dir), "--no-timestamp"])
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
    assert main(["couplings", "--config", str(cfg), "--out-dir", str(out_dir), "--no-timestamp"]) == 0
    _, rows = read_csv(out_dir / "j_matrix.csv")
    values = [float(x) for row in rows for x in row[1:]]
    assert values == [0.0] * 9


# spectrum ----------------------------------------------------------------------

def test_spectrum_lines(trap2, tmp_path):
    out_dir = tmp_path / "coup"
    main(["couplings", "--config", trap2, "--out-dir", str(out_dir), "--no-timestamp"])
    report = json.loads((out_dir / "report.json").read_text())

    out = tmp_path / "spec.csv"
    code = main(["spectrum", "--config", trap2, "--ion", "1", "--out", str(out), "--no-timestamp"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["offset_hz", "amplitude", "label"]
    assert len(rows) == 5
    offsets = [float(r[0]) for r in rows]
    assert offsets == sorted(offsets)
    carrier = [r for r in rows if r[2] == "carrier"][0]
    assert float(carrier[1]) == 1.0
    # carrier offset equals the gradient-induced shift of ion 1
    assert float(carrier[0]) == pytest.approx(report["shifts_hz"][0], rel=1e-6)
    # sideband amplitudes equal the eta' column of the report
    for mode in (1, 2):
        for side in ("red", "blue"):
            row = [r for r in rows if r[2] == f"{side}_{mode}"][0]
            assert float(row[1]) == pytest.approx(report["eta_eff"][mode - 1][0], rel=1e-9)


def test_spectrum_bad_ion(trap2, tmp_path, capsys):
    code = main(["spectrum", "--config", trap2, "--ion", "7", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "ion index" in capsys.readouterr().err


def test_spectrum_plot_data(trap2, tmp_path):
    out = tmp_path / "spec.csv"
    main(["spectrum", "--config", trap2, "--ion", "1", "--out", str(out),
          "--no-timestamp", "--emit-plot-data"])
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
                 "--out", str(out), "--no-timestamp"])
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
                 "--no-timestamp", "--emit-plot-data"])
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


def test_simulate_deterministic(trap2, tmp_path):
    program = tmp_path / "cnot.pp"
    program.write_text(CNOT_PROGRAM, encoding="utf-8")
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"run_{run}.json"
        main(["simulate", "--config", trap2, "--program", str(program),
              "--initial", "10", "--seed", "11", "--shots", "64",
              "--out", str(out), "--no-timestamp"])
        outputs.append(out.read_bytes() + (tmp_path / f"run_{run}_hist.csv").read_bytes())
    assert outputs[0] == outputs[1]


# sweep ----------------------------------------------------------------------------

def test_sweep_gradient_quadratic_law(trap2, tmp_path):
    out = tmp_path / "sweep_b.csv"
    code = main(["sweep", "--config", trap2, "--param", "field.uniform.b",
                 "--from", "1T/m", "--to", "100T/m", "--steps", "9", "--scale", "log",
                 "--quantity", "max_J", "--out", str(out), "--no-timestamp"])
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
                 "--quantity", "max_J", "--out", str(out), "--no-timestamp"])
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


def test_sweep_bad_param_path(trap2, tmp_path):
    code = main(["sweep", "--config", trap2, "--param", "field.zigzag.b",
                 "--from", "1", "--to", "2", "--steps", "2",
                 "--quantity", "max_J", "--out", str(tmp_path / "s.csv")])
    assert code == 2


def test_sweep_rows_in_parameter_order(trap2, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", trap2, "--param", "field.uniform.b",
                 "--from", "10", "--to", "1", "--steps", "6",
                 "--quantity", "max_J", "--out", str(out), "--no-timestamp"])
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
                 "--quantity", "delta_shift[1]", "--out", str(out), "--no-timestamp"])
    assert code == 0
    _, rows = read_csv(out)
    # shift is linear in the gradient
    values = np.array([float(r[1]) for r in rows])
    params = np.array([float(r[0]) for r in rows])
    assert np.allclose(values / params, values[0] / params[0], rtol=1e-9)


def test_sweep_spec_validation():
    good = SweepSpec("nu1", 1e4, 1e6, 5, "log", "max_J")
    values = good.values()
    assert len(values) == 5
    assert values[0] == pytest.approx(1e4) and values[-1] == pytest.approx(1e6)
    descending = SweepSpec("nu1", 1e6, 1e4, 3, "linear", "epsilon").values()
    assert np.all(np.diff(descending) < 0)
    negative_log = SweepSpec("field.uniform.b", -1.0, -100.0, 3, "log", "max_J").values()
    assert np.all(negative_log < 0)
    with pytest.raises(ValueError):
        SweepSpec("nu1", 1.0, 2.0, 1, "linear", "max_J")
    with pytest.raises(ValueError):
        SweepSpec("nu1", 1.0, 1.0, 3, "linear", "max_J")
    with pytest.raises(ValueError):
        SweepSpec("nu1", -1.0, 1.0, 3, "log", "max_J")
    with pytest.raises(ValueError):
        SweepSpec("nu1", 1.0, 2.0, 3, "cubic", "max_J")


# determinism and the module entry point ---------------------------------------------

def test_all_commands_byte_identical(trap2, tmp_path):
    program = tmp_path / "cnot.pp"
    program.write_text(CNOT_PROGRAM, encoding="utf-8")

    def run_all(tag):
        base = tmp_path / tag
        base.mkdir()
        main(["chain", "--config", trap2, "--out", str(base / "chain.json"), "--no-timestamp"])
        main(["couplings", "--config", trap2, "--out-dir", str(base / "coup"), "--no-timestamp"])
        main(["spectrum", "--config", trap2, "--ion", "2", "--out", str(base / "spec.csv"),
              "--no-timestamp"])
        main(["simulate", "--config", trap2, "--program", str(program), "--seed", "5",
              "--shots", "32", "--out", str(base / "run.json"), "--no-timestamp"])
        main(["sweep", "--config", trap2, "--param", "nu1", "--from", "50kHz",
              "--to", "200kHz", "--steps", "3", "--quantity", "epsilon",
              "--out", str(base / "sweep.csv"), "--no-timestamp"])
        blobs = []
        for path in sorted(base.rglob("*")):
            if path.is_file():
                blobs.append((path.relative_to(base).as_posix(), path.read_bytes()))
        return blobs

    assert run_all("first") == run_all("second")


def test_timestamp_present_without_flag(trap2, tmp_path):
    out = tmp_path / "chain.json"
    main(["chain", "--config", trap2, "--out", str(out)])
    doc = json.loads(out.read_text())
    assert "generated_at" in doc


def test_module_entry_point(trap2, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "gradchain", "chain", "--config", trap2],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "min spacing" in result.stdout
