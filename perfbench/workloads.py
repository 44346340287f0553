"""The benchmark's workloads: seeded inputs, one round of CLI jobs, and each job's check.

A round is the fixed set of jobs that one workload runs; the benchmark
repeats rounds for the length of a run. The seed changes field gradients,
trap frequencies, sweep ranges, pulse programs and job order, never the
amount of work: chain sizes, sweep lengths, program lengths and shot
counts are fixed per workload.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

REGISTER_N = 16
REGISTER_BLOCKS = 4        # each block: 10 x (pulse, delay), then log sz all, measure z all
REGISTER_BLOCK_PULSES = 10
REGISTER_SHOTS = 20000
MIX_SIZES = (5, 12, 24, 36, 50)   # generated chain sizes of cli_mix, each used once per round
MIX_SHOTS = 2000
CNOT_SHOTS = 500


@dataclass
class Job:
    key: str
    args: list[str]                         # gradchain CLI arguments
    out_dir: Path                           # emptied before every run of the job
    check: Callable[[Path], list[str]]      # out_dir -> problems


def _with_finite(check: Callable[[Path], list[str]]) -> Callable[[Path], list[str]]:
    return lambda out: check(out) + checks.nonfinite(out)


def _uniform_config(n: int, nu1_khz: float, b: float, comment: str) -> dict:
    return {
        "comment": comment,
        "species": "Yb171",
        "N": n,
        "nu1": f"{nu1_khz!r}kHz",
        "field": {"uniform": {"B0": "0T", "b": f"{b!r}T/m"}},
    }


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _job(key: str, work: Path, args: list[str], check) -> Job:
    out = work / "out" / key
    return Job(key, [a.replace("{out}", str(out)) for a in args] + ["--no-timestamp"], out, _with_finite(check))


def register_program(rng: random.Random, n: int) -> str:
    """About 40 pulses and 40 delays with periodic 'log sz all' and 'measure z all'.

    The first n pulses are pi/2 pulses on every ion in a seeded order, so
    the state spreads over all 2^n basis states whatever the seed: the
    size of the final-state output and of the shot histograms, and hence
    the work of a job, does not depend on the seed.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    lines = [f"# generated register program, {n} ions", f"ions {n}"]
    for block in range(REGISTER_BLOCKS):
        for k in range(REGISTER_BLOCK_PULSES):
            index = block * REGISTER_BLOCK_PULSES + k
            ion = order[index] if index < n else rng.randint(1, n)
            area = 0.5 if index < n else rng.choice((0.25, 0.5, 0.75, 1.0))
            lines.append(
                f"pulse ion={ion} rabi={round(rng.uniform(2e3, 1e4), 3)!r}Hz "
                f"detune={round(rng.uniform(-100.0, 100.0), 4)!r}Hz "
                f"phase={round(rng.uniform(0.0, 2.0 * math.pi), 6)!r}rad area={area!r}pi"
            )
            lines.append(f"delay {round(rng.uniform(2e-4, 3e-3), 7)!r}s")
        lines += ["log sz all", "measure z all"]
    return "\n".join(lines) + "\n"


def register_16q(seed: int, work: Path, root: Path, ref: checks.Reference) -> list[Job]:
    """One generated pulse program on a 16-ion register; a round is one job."""
    rng = random.Random(seed)
    nu1_khz = round(rng.uniform(100.0, 200.0), 3)
    b = round(rng.uniform(10.0, 30.0), 3)
    config = _write_json(work / "n16.json", _uniform_config(REGISTER_N, nu1_khz, b, "register_16q"))
    text = register_program(rng, REGISTER_N)
    program = work / "program.pp"
    program.write_text(text, encoding="utf-8")
    initial = "".join(rng.choice("01") for _ in range(REGISTER_N))
    j_hz = ref.j_matrix_hz(REGISTER_N, nu1_khz * 1e3, np.full(REGISTER_N, b))
    expected = checks.spin_reference(REGISTER_N, j_hz, checks.parse_program(text)[1], initial)
    args = ["simulate", "--config", config, "--program", str(program), "--initial", initial,
            "--seed", str(rng.randrange(2**31)), "--shots", str(REGISTER_SHOTS), "--out", "{out}/run.json"]
    return [_job("program", work, args, partial(checks.check_simulate, expected=expected, shots=REGISTER_SHOTS))]


def cli_mix(seed: int, work: Path, root: Path, ref: checks.Reference) -> list[Job]:
    """Every command on the shipped configs, plus chain and couplings on distinct N."""
    rng = random.Random(seed)
    golden = float((root / "tests" / "golden" / "n10_max_j_hz.txt").read_text().strip())
    traps = {}
    for path in sorted((root / "configs").glob("*.json")):
        traps[path.stem] = (str(path), json.loads(path.read_text(encoding="utf-8")))
    for n in MIX_SIZES:
        doc = _uniform_config(n, round(rng.uniform(50.0, 300.0), 3), round(rng.uniform(1.0, 30.0), 3),
                              "cli_mix generated")
        traps[f"gen_n{n}"] = (_write_json(work / f"gen_n{n}.json", doc), doc)

    jobs = []
    for name, (path, trap) in traps.items():
        n, nu1_hz = trap["N"], checks.quantity(trap["nu1"])
        grads = ref.gradients(trap)
        jobs.append(_job(f"{name}_chain", work, ["chain", "--config", path, "--out", "{out}/chain.json"],
                         partial(checks.check_chain, ref=ref, n=n, nu1_hz=nu1_hz)))
        jobs.append(_job(f"{name}_couplings", work, ["couplings", "--config", path, "--out-dir", "{out}"],
                         partial(checks.check_couplings, ref=ref, n=n, nu1_hz=nu1_hz, gradients=grads,
                                 golden_max_j=golden if name == "trap_n10" else None)))
        if not name.startswith("gen_"):
            ion = rng.randint(1, n)
            jobs.append(_job(f"{name}_spectrum", work,
                             ["spectrum", "--config", path, "--ion", str(ion), "--out", "{out}/spectrum.csv"],
                             partial(checks.check_spectrum, ref=ref, n=n, nu1_hz=nu1_hz)))

    path, trap = traps["trap"]
    n, nu1_hz = trap["N"], checks.quantity(trap["nu1"])
    j_hz = ref.j_matrix_hz(n, nu1_hz, ref.gradients(trap))
    for program, initial, shots in (("cnot", "10", CNOT_SHOTS), ("ramsey", "00", MIX_SHOTS), ("echo", "00", MIX_SHOTS)):
        pp = root / "configs" / f"{program}.pp"
        expected = checks.spin_reference(n, j_hz, checks.parse_program(pp.read_text(encoding="utf-8"))[1], initial)
        args = ["simulate", "--config", path, "--program", str(pp), "--initial", initial,
                "--seed", str(rng.randrange(2**31)), "--shots", str(shots), "--out", "{out}/run.json"]
        exact = {"11": CNOT_SHOTS} if program == "cnot" else None
        jobs.append(_job(f"trap_{program}", work, args,
                         partial(checks.check_simulate, expected=expected, shots=shots, exact_counts=exact)))

    b_lo, b_hi = round(rng.uniform(0.5, 5.0), 4), round(rng.uniform(10.0, 100.0), 4)
    args = ["sweep", "--config", path, "--param", "field.uniform.b", "--from", f"{b_lo}T/m",
            "--to", f"{b_hi}T/m", "--steps", "5", "--scale", "log", "--quantity", "max_J",
            "--out", "{out}/sweep.csv"]
    jobs.append(_job("trap_sweep", work, args,
                     partial(checks.check_sweep, ref=ref, n=n, nu1_hz=nu1_hz)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"register_16q": register_16q, "cli_mix": cli_mix}
