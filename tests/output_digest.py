"""Print sha256 digests of a fixed set of gradchain CLI runs, for byte-identity checks.

Every command runs as a fresh `python -m gradchain ... --no-timestamp`
process against the package in this checkout's `src/`, with the shipped
configs and programs copied into a temporary directory, so no output
depends on where the checkout lives. The flag changes no output; it keeps
listings from older commits, whose JSON held a timestamp without it,
comparable. For each command the script prints
the digests of its stdout, its stderr, its exit code and every file it
wrote. Run it at two commits and diff the two listings:

    python tests/output_digest.py > before.txt   # at the parent commit
    python tests/output_digest.py > after.txt    # at the change
    diff before.txt after.txt

The command set: `chain`, `couplings`, `spectrum` of the first and the last
ion (the last with --emit-plot-data) and a 7-point log sweep of `max_J`
over `nu1`, on each shipped config; a 5-point linear sweep of `max_J`
over `field.uniform.b` on trap.json with --emit-plot-data; a 5-point
linear sweep of the carrier shift `delta_shift[1]` over
`field.quadratic.b` on trap_quadratic.json; 4-point linear sweeps of
`epsilon` and of `min_spacing` over `nu1` on trap_n10.json, so that every
sweep quantity is covered; `simulate` of
cnot, ramsey and echo with CLI defaults, with `--seed 5 --shots 3000`
and with `--shots 0`, and echo with --emit-plot-data; cnot with CLI defaults once with a UTF-8
byte order mark at the head of the program and once at the head of the config (cnot_program_bom,
cnot_config_bom), whose digests are cnot_defaults'; echo on trap.json with its gradient set to
0 T/m, where J = 0 and every energy is a signed zero (`spins.diagonal_rates` writes +0.0
there by its `0.0 -`; plain negation, -0.0, gives the same outputs, so the bitwise kernel
tests of test_spins.py pin that rule, not this run), and on the same config the exit-3 `line:col` of
two 1e308 s delays, whose sum overflows the sequence time while the state stays exact
(error_time_overflow); `couplings` on trap.json with its gradient set to -0 T/m, whose -0.0
gradients and -0 epsilon entries change if a uniform profile is evaluated as a quadratic one
with c = 0 (its b + 0 z is +0.0 at z >= 0); `couplings` on a 4-ion config whose sampled profile
gives the ions gradients of +10, 0, -15 and +5 T/m (couplings_sampled, SAMPLED_CONFIG), the one
report built from a sampled field; `simulate` on trap_n10 of FRAME_PROGRAM, whose
logged <sx> and <sy> after detuned, phased pulses depend on the frame the
simulator evolves in; `simulate` on trap_n10 of SUBSET_PROGRAM, whose
measurements of permuted ion subsets (`measure z 7, 3 ,1` last, so in the
histogram) pin the order of outcome labels; two generated 16-ion, 80-op, 20000-shot programs
(perfbench's `register_program`, seeds 31 and 32); and `chain` and
`couplings` on a generated 49-ion uniform-gradient config, whose odd
modes have exact zeros at the centre ion (no shipped config has odd N);
`couplings` on one quadratic-field config with an explicit wavevector,
written once with JSON numbers and once with numeric strings (NUMERIC),
whose files must agree; and failing runs, whose stderr carries the exit-2
input message, the exit-3 `line:col` of a non-finite state, or the exit-4
`file:line:col` of a parse error in a pulse field, an ion list (an entry
out of range, a repeated entry, none at all, two entries with no comma
between them in `measure z 1 2`, `all` split into `a ll`), a delay value
(an unknown unit, `5kHz`, `1e400`), a missing field, a negative pulse
area, an area whose duration at `rabi=1e-320Hz` overflows, an empty
program, an unknown keyword, a second `ions` header, `area=` with
`dur=` and an `ions` count of 5,000 digits, past int's digit limit
(ERROR_PROGRAMS, error_program_digits); and the exit-2 input errors of an
unknown species (`chain`), ions outside a sampled field profile
(`couplings`), `--initial 1x` and a 17-ion register (`simulate`), a unit
on the curvature `c` (`chain`), a `nu1` that is the JSON integer 10^400
(`couplings`), a gradient `b` given twice in one object (`couplings`,
error_duplicate_key), a `nu1` nested 100,000 arrays deep, past the
recursion limit (`chain`, error_config_nesting), a `nu1` that is a JSON integer of 5,000 digits,
past int's digit limit (`chain`, error_config_digits), a field variant `cubic` whose body is a
number (`chain`, error_unknown_variant: the unknown name is reported before the body is read), an
`--out` that is a directory the script has already made (`chain`, error_out_is_directory, whose
stderr names that path and no temporary file), an empty `--out` (`spectrum`, error_out_empty,
argparse's usage error), `--ion x` and `--ion 3` on trap.json (`spectrum`, the
latter error_spectrum_ion: its stderr line comes from the one ion check,
`coupling.sideband_spectrum`'s), `--shots` of 10^14, `--seed -1` and a program file
that does not exist (`simulate`, error_seed_negative and error_missing_program), and the sweep
bounds `1_00_000` and `nan`, `--steps ３`, `--steps` of 10^12, `delta_shift[1_0]` on
trap_n10, `delta_shift[j]` with an index of 5,000 digits (error_sweep_index_digits),
`--param comment` and `--param N` (`sweep`, error_sweep_param_n: neither is a quantity).
Byte identity holds per host. numpy's SIMD dispatch and OpenBLAS's kernel
choice reach the last bits: on an AVX-512 host,
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" (numpy without its
AVX-512 loops) changed 16 lines of a 421-line listing and OPENBLAS_CORETYPE=Haswell 14,
while OPENBLAS_NUM_THREADS=1 changed none. Diff listings from one host.
This script is not a test module and pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("trap.json", "trap_n10.json", "trap_quadratic.json")
PROGRAMS = ("cnot.pp", "ramsey.pp", "echo.pp")
REGISTER_SEEDS = (31, 32)
REGISTER_N = 16
ODD_N = 49
FRAME_PROGRAM = """ions 10
pulse ion=3 rabi=2kHz detune=150Hz phase=0.7rad area=0.5pi
delay 3ms
pulse ion=4 rabi=2kHz detune=-40Hz phase=1.1rad area=0.5pi
log sx all
log sy all
measure z all
"""
SUBSET_PROGRAM = """ions 10
pulse ion=1 rabi=2kHz detune=0 phase=0 area=0.5pi
pulse ion=3 rabi=2kHz detune=0 phase=0.4rad area=0.5pi
pulse ion=7 rabi=2kHz detune=0 phase=0.9rad area=0.5pi
pulse ion=2 rabi=2kHz detune=0 phase=0 area=0.3pi
delay 2ms
measure z 3,1
measure z 2
log sx 1,3
measure z 7, 3 ,1
"""

# failing programs on trap.json (2 ions), each run with CLI defaults
ERROR_PROGRAMS = {
    "pulse_field": "ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 dur=-1ms\n",
    "ion_list": "ions 2\nmeasure z 1, 3\n",
    "repeated_ion": "ions 2\nmeasure z 1,1\n",
    "ion_list_no_comma": "ions 2\nmeasure z 1 2\n",
    "split_all": "ions 2\nlog sx a ll\n",
    "missing_ion_list": "ions 2\n    measure z\n",
    "delay_value": "ions 2\ndelay 5lightyears\n",
    "missing_field": "ions 2\n  pulse ion=1 detune=0 phase=0 area=1pi\n",
    "negative_area": "ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 area=-1pi\n",
    "non_finite_state": "ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 area=0.5pi\ndelay 1e308s\nlog sx all\n",
    "empty": "",
    "unknown_keyword": "ions 2\nwiggle 5\n",
    "duplicate_header": "ions 2\nions 2\n",
    "area_and_dur": "ions 2\npulse ion=1 rabi=1kHz detune=0 phase=0 area=1pi dur=1ms\n",
    "delay_unit": "ions 2\ndelay 5kHz\n",
    "delay_non_finite": "ions 2\ndelay 1e400\n",
    "area_overflow": "ions 2\npulse ion=1 rabi=1e-320Hz detune=0 phase=0 area=1pi\n",
    "program_digits": f"ions {'9' * 5000}\n",
}
# failing runs on a config of their own: the config and the command each runs
ERROR_CONFIGS = {
    "species": ({"species": "Xx999", "N": 2, "nu1": "100kHz", "field": {"uniform": {"b": "10T/m"}}},
                ["chain", "--out", "{out}/chain.json"]),
    "profile": ({"species": "Yb171", "N": 2, "nu1": "100kHz",
                 "field": {"sampled": {"points": [["-1um", "0T"], ["1um", "1e-6T"]]}}},
                ["couplings", "--out-dir", "{out}/coup"]),
    "register_too_large": ({"species": "Yb171", "N": REGISTER_N + 1, "nu1": "100kHz",
                            "field": {"uniform": {"b": "10T/m"}}},
                           ["simulate", "--program", "n17.pp", "--out", "{out}/run.json"]),
    "curvature_unit": ({"species": "Yb171", "N": 2, "nu1": "100kHz",
                        "field": {"quadratic": {"b": "10T/m", "c": "1T/m"}}},
                       ["chain", "--out", "{out}/chain.json"]),
    "huge_integer": ({"species": "Yb171", "N": 2, "nu1": 10**400, "field": {"uniform": {"b": "10T/m"}}},
                     ["couplings", "--out-dir", "{out}/coup"]),
    "unknown_variant": ({"species": "Yb171", "N": 2, "nu1": "100kHz", "field": {"cubic": 10.0}},
                        ["chain", "--out", "{out}/chain.json"]),
}
# 4 ions at -18.3, -5.8, 5.8 and 18.3 um, each in a segment of its own: gradients 10, 0, -15 and 5 T/m
SAMPLED_CONFIG = {"species": "Yb171", "N": 4, "nu1": "100kHz",
                  "field": {"sampled": {"points": [["-20um", "0T"], ["-8um", "1.2e-4T"], ["0um", "1.2e-4T"],
                                                   ["8um", "0T"], ["20um", "6e-5T"]]}}}
# a config whose gradient is given twice; json alone would keep the last, 0 T/m, and report J = 0
DUPLICATE_KEY_CONFIG = ('{"species": "Yb171", "N": 2, "nu1": "100kHz", '
                        '"field": {"uniform": {"b": "20T/m", "b": "0T/m"}}}')
# a config whose nu1 nests 100,000 arrays, past the recursion limit of json.loads; json.dumps cannot write it
NESTED_CONFIG = ('{"species": "Yb171", "N": 2, "nu1": ' + "[" * 100_000 + "]" * 100_000
                 + ', "field": {"uniform": {"b": "10T/m"}}}')
# a config whose nu1 is an integer of 5,000 digits, past int's digit limit; json.dumps cannot write it
DIGITS_CONFIG = ('{"species": "Yb171", "N": 2, "nu1": ' + "9" * 5000 + ', "field": {"uniform": {"b": "10T/m"}}}')
# one config twice, its numbers as JSON numbers and as strings; the two runs write the same files
NUMERIC = {
    "numbers": {"species": "Yb171", "N": 3, "nu1": 100000, "field": {"quadratic": {"b": 10, "c": 2e5}},
                "drive_wavevector": {"explicit": 1e7}},
    "strings": {"species": "Yb171", "N": 3, "nu1": "100000", "field": {"quadratic": {"b": "10", "c": "2e5"}},
                "drive_wavevector": {"explicit": "1e7"}},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _register_inputs(work: Path) -> list[tuple[str, list[str]]]:
    """Two generated 16-ion programs on a 16-ion uniform-gradient trap."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import register_program

    config = {"species": "Yb171", "N": REGISTER_N, "nu1": "150kHz",
              "field": {"uniform": {"B0": "0T", "b": "20T/m"}}}
    (work / "n16.json").write_text(json.dumps(config), encoding="utf-8")
    commands = []
    for seed in REGISTER_SEEDS:
        rng = random.Random(seed)
        program = f"register_{seed}.pp"
        (work / program).write_text(register_program(rng, REGISTER_N), encoding="utf-8")
        initial = "".join(rng.choice("01") for _ in range(REGISTER_N))
        commands.append((f"register_{seed}", [
            "simulate", "--config", "n16.json", "--program", program, "--initial", initial,
            "--seed", str(seed), "--shots", "20000", "--out", "{out}/run.json"]))
    return commands


def _commands(work: Path) -> list[tuple[str, list[str]]]:
    commands = []
    for name in CONFIGS:
        stem = name.removesuffix(".json")
        n = json.loads((work / name).read_text(encoding="utf-8"))["N"]
        commands += [
            (f"{stem}_chain", ["chain", "--config", name, "--out", "{out}/chain.json"]),
            (f"{stem}_couplings", ["couplings", "--config", name, "--out-dir", "{out}"]),
            (f"{stem}_spectrum_1", ["spectrum", "--config", name, "--ion", "1", "--out", "{out}/spectrum.csv"]),
            (f"{stem}_spectrum_{n}", ["spectrum", "--config", name, "--ion", str(n),
                                      "--out", "{out}/spectrum.csv", "--emit-plot-data"]),
            (f"{stem}_sweep", ["sweep", "--config", name, "--param", "nu1", "--from", "50kHz",
                               "--to", "400kHz", "--steps", "7", "--scale", "log",
                               "--quantity", "max_J", "--out", "{out}/sweep.csv"]),
        ]
    commands.append(("trap_sweep_plot", ["sweep", "--config", "trap.json", "--param", "field.uniform.b",
                                         "--from", "1T/m", "--to", "100T/m", "--steps", "5", "--quantity",
                                         "max_J", "--out", "{out}/sweep.csv", "--emit-plot-data"]))
    commands.append(("quadratic_sweep_shift", ["sweep", "--config", "trap_quadratic.json", "--param",
                                               "field.quadratic.b", "--from", "1T/m", "--to", "20T/m", "--steps",
                                               "5", "--quantity", "delta_shift[1]", "--out", "{out}/sweep.csv"]))
    for quantity in ("epsilon", "min_spacing"):
        commands.append((f"n10_sweep_{quantity}", ["sweep", "--config", "trap_n10.json", "--param", "nu1", "--from",
                                                   "50kHz", "--to", "200kHz", "--steps", "4", "--quantity", quantity,
                                                   "--out", "{out}/sweep.csv"]))
    for program in PROGRAMS:
        stem = program.removesuffix(".pp")
        base = ["simulate", "--config", "trap.json", "--program", program, "--out", "{out}/run.json"]
        commands += [
            (f"{stem}_defaults", base),
            (f"{stem}_seed5", base + ["--seed", "5", "--shots", "3000"]),
            (f"{stem}_shots0", base + ["--shots", "0"]),
        ]
    commands.append(("echo_plot", ["simulate", "--config", "trap.json", "--program", "echo.pp",
                                   "--out", "{out}/run.json", "--emit-plot-data"]))
    for name in ("cnot.pp", "trap.json"):
        (work / f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + (work / name).read_bytes())
    commands += [("cnot_program_bom", ["simulate", "--config", "trap.json", "--program", "bom_cnot.pp",
                                       "--out", "{out}/run.json"]),
                 ("cnot_config_bom", ["simulate", "--config", "bom_trap.json", "--program", "cnot.pp",
                                      "--out", "{out}/run.json"])]
    zero_j = json.loads((work / "trap.json").read_text(encoding="utf-8"))
    zero_j["field"]["uniform"]["b"] = "0T/m"
    (work / "trap_b0.json").write_text(json.dumps(zero_j), encoding="utf-8")
    commands.append(("echo_zero_j", ["simulate", "--config", "trap_b0.json", "--program", "echo.pp",
                                     "--out", "{out}/run.json"]))
    zero_j["field"]["uniform"]["b"] = "-0T/m"
    (work / "trap_b_neg0.json").write_text(json.dumps(zero_j), encoding="utf-8")
    commands.append(("couplings_negative_zero_b", ["couplings", "--config", "trap_b_neg0.json", "--out-dir", "{out}"]))
    (work / "sampled.json").write_text(json.dumps(SAMPLED_CONFIG), encoding="utf-8")
    commands.append(("couplings_sampled", ["couplings", "--config", "sampled.json", "--out-dir", "{out}"]))
    (work / "time_overflow.pp").write_text("ions 2\ndelay 1e308s\ndelay 1e308s\nmeasure z all\n", encoding="utf-8")
    commands.append(("error_time_overflow", ["simulate", "--config", "trap_b0.json", "--program",
                                             "time_overflow.pp", "--out", "{out}/run.json"]))
    (work / "frame.pp").write_text(FRAME_PROGRAM, encoding="utf-8")
    commands.append(("frame_n10", ["simulate", "--config", "trap_n10.json", "--program", "frame.pp",
                                   "--out", "{out}/run.json"]))
    (work / "subset.pp").write_text(SUBSET_PROGRAM, encoding="utf-8")
    commands.append(("subset_n10", ["simulate", "--config", "trap_n10.json", "--program", "subset.pp",
                                    "--shots", "2000", "--out", "{out}/run.json"]))
    odd = {"species": "Yb171", "N": ODD_N, "nu1": "100kHz", "field": {"uniform": {"B0": "0T", "b": "20T/m"}}}
    (work / f"n{ODD_N}.json").write_text(json.dumps(odd), encoding="utf-8")
    commands += [(f"n{ODD_N}_chain", ["chain", "--config", f"n{ODD_N}.json", "--out", "{out}/chain.json"]),
                 (f"n{ODD_N}_couplings", ["couplings", "--config", f"n{ODD_N}.json", "--out-dir", "{out}"])]
    for name, source in ERROR_PROGRAMS.items():
        (work / f"{name}.pp").write_text(source, encoding="utf-8")
        commands.append((f"error_{name}", ["simulate", "--config", "trap.json", "--program", f"{name}.pp",
                                           "--out", "{out}/run.json"]))
    (work / "n17.pp").write_text(f"ions {REGISTER_N + 1}\nmeasure z all\n", encoding="utf-8")
    for name, (config, args) in ERROR_CONFIGS.items():
        (work / f"error_{name}.json").write_text(json.dumps(config), encoding="utf-8")
        commands.append((f"error_{name}", [args[0], "--config", f"error_{name}.json", *args[1:]]))
    (work / "error_duplicate_key.json").write_text(DUPLICATE_KEY_CONFIG, encoding="utf-8")
    commands.append(("error_duplicate_key", ["couplings", "--config", "error_duplicate_key.json",
                                             "--out-dir", "{out}/coup"]))
    (work / "error_config_nesting.json").write_text(NESTED_CONFIG, encoding="utf-8")
    commands.append(("error_config_nesting", ["chain", "--config", "error_config_nesting.json",
                                              "--out", "{out}/chain.json"]))
    (work / "error_config_digits.json").write_text(DIGITS_CONFIG, encoding="utf-8")
    commands.append(("error_config_digits", ["chain", "--config", "error_config_digits.json",
                                             "--out", "{out}/chain.json"]))
    commands.append(("error_out_is_directory", ["chain", "--config", "trap.json", "--out", "{out}"]))
    commands.append(("error_out_empty", ["spectrum", "--config", "trap.json", "--ion", "1", "--out", ""]))
    commands += [("error_shots", ["simulate", "--config", "trap.json", "--program", "cnot.pp", "--shots", "-5",
                                  "--out", "{out}/run.json"]),
                 ("error_shots_huge", ["simulate", "--config", "trap.json", "--program", "cnot.pp",
                                       "--shots", "100000000000000", "--out", "{out}/run.json"]),
                 ("error_seed_negative", ["simulate", "--config", "trap.json", "--program", "cnot.pp",
                                          "--seed", "-1", "--out", "{out}/run.json"]),
                 ("error_missing_program", ["simulate", "--config", "trap.json", "--program", "missing.pp",
                                            "--out", "{out}/run.json"]),
                 ("error_initial", ["simulate", "--config", "trap.json", "--program", "cnot.pp", "--initial", "1x",
                                    "--out", "{out}/run.json"]),
                 ("error_spectrum_ion", ["spectrum", "--config", "trap.json", "--ion", "3",
                                         "--out", "{out}/spectrum.csv"]),
                 ("error_ion_flag", ["spectrum", "--config", "trap.json", "--ion", "x",
                                     "--out", "{out}/spectrum.csv"])]
    sweep = ["sweep", "--config", "trap.json", "--param", "nu1", "--from", "50kHz", "--quantity", "max_J",
             "--out", "{out}/sweep.csv"]
    commands += [("error_sweep_underscore", sweep + ["--to", "1_00_000", "--steps", "3"]),
                 ("error_sweep_nan", sweep + ["--to", "nan", "--steps", "3"]),
                 ("error_sweep_steps", sweep + ["--to", "100kHz", "--steps", "\uff13"]),
                 ("error_sweep_steps_huge", sweep + ["--to", "100kHz", "--steps", "1000000000000"]),
                 ("error_sweep_ion_index", ["sweep", "--config", "trap_n10.json", "--param", "nu1", "--from", "50kHz",
                                            "--to", "100kHz", "--steps", "3", "--quantity", "delta_shift[1_0]",
                                            "--out", "{out}/sweep.csv"]),
                 ("error_sweep_index_digits", ["sweep", "--config", "trap.json", "--param", "nu1", "--from", "50kHz",
                                               "--to", "100kHz", "--steps", "3", "--quantity",
                                               f"delta_shift[{'9' * 5000}]", "--out", "{out}/sweep.csv"]),
                 ("error_sweep_comment", ["sweep", "--config", "trap.json", "--param", "comment", "--from", "1",
                                          "--to", "2", "--steps", "2", "--quantity", "max_J",
                                          "--out", "{out}/sweep.csv"]),
                 ("error_sweep_param_n", ["sweep", "--config", "trap.json", "--param", "N", "--from", "2", "--to", "3",
                                          "--steps", "2", "--quantity", "max_J", "--out", "{out}/sweep.csv"])]
    for name, config in NUMERIC.items():
        (work / f"{name}.json").write_text(json.dumps(config), encoding="utf-8")
        commands.append((f"{name}_couplings", ["couplings", "--config", f"{name}.json", "--out-dir", "{out}"]))
    return commands + _register_inputs(work)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in CONFIGS + PROGRAMS:
            shutil.copy(ROOT / "configs" / name, work / name)
        for label, args in _commands(work):
            out = Path("out") / label
            (work / out).mkdir(parents=True)
            argv = [a.replace("{out}", str(out)) for a in args] + ["--no-timestamp"]
            done = subprocess.run([sys.executable, "-m", "gradchain", *argv], cwd=work, env=env,
                                  capture_output=True, check=False)
            print(f"{label}: {' '.join(argv)}")
            print(f"  exit {done.returncode}")
            print(f"  stdout {_sha(done.stdout)}")
            print(f"  stderr {_sha(done.stderr)}")
            for path in sorted(p for p in (work / out).rglob("*") if p.is_file()):
                print(f"  {path.relative_to(work / out).as_posix()} {_sha(path.read_bytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
