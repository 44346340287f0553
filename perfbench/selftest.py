"""Show that the output checks catch corrupted outputs.

    python3 perfbench/selftest.py

Run from the repository root. Runs one job of each kind (chain,
couplings, spectrum, sweep, simulate of a shipped and of a generated
16-qubit program), confirms that each passes its check, then corrupts
its output in place and confirms that the check fails: a NaN written
into a file, a J or max_J value off by one part in 1e7, a shifted
sideband, a moved position, an altered <sz>, a changed count. Exits 1
if a corruption goes unnoticed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent
SEED = 0


def _edit_json(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _edit_text(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise SystemExit(f"selftest: {old!r} not found in {path}")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _change_csv(path: Path, row: int, col: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _one_outcome(doc: dict) -> None:
    counts = doc["measurements"][-1]["counts"]
    doc["measurements"][-1]["counts"] = {min(counts): sum(counts.values())}


def _shift_sz(doc: dict) -> None:
    doc["expectation_log"][-1]["value"] += 1e-4


CORRUPTIONS = {
    "_chain": [
        ("NaN in chain.json", lambda out: _edit_json(out / "chain.json", lambda d: d["positions_m"].__setitem__(0, float("nan")))),
        ("position moved by 1e-7", lambda out: _edit_json(out / "chain.json", lambda d: d["positions_dimensionless"].__setitem__(0, d["positions_dimensionless"][0] * (1 + 1e-7)))),
        ("mode frequency off by 1e-7", lambda out: _edit_json(out / "chain.json", lambda d: d["mode_frequencies_hz"].__setitem__(-1, d["mode_frequencies_hz"][-1] * (1 + 1e-7)))),
    ],
    "_couplings": [
        ("J entry off by 1e-7 in j_matrix.csv", lambda out: _change_csv(out / "j_matrix.csv", 1, 2, lambda x: x * (1 + 1e-7))),
        ("inf in epsilon_matrix.csv", lambda out: _change_csv(out / "epsilon_matrix.csv", 1, 1, lambda x: float("inf"))),
    ],
    "_spectrum": [
        ("sideband shifted by 1 Hz", lambda out: _change_csv(out / "spectrum.csv", 1, 0, lambda x: x + 1.0)),
    ],
    "_sweep": [
        ("max_J off by 1e-7", lambda out: _change_csv(out / "sweep.csv", 1, 1, lambda x: x * (1 + 1e-7))),
        ("nan written into sweep.csv", lambda out: _edit_text(out / "sweep.csv", "\n", "\n1,nan\n")),
    ],
    "program": [
        ("logged sz off by 1e-4", lambda out: _edit_json(out / "run.json", _shift_sz)),
        ("all shots moved to one outcome", lambda out: _edit_json(out / "run.json", _one_outcome)),
        ("final amplitude scaled", lambda out: _edit_json(out / "run.json", lambda d: d["final_state"]["amplitudes"].__setitem__(0, [x * 1.01 + 0.01 for x in d["final_state"]["amplitudes"][0]]))),
    ],
    "trap_cnot": [
        ("cnot counts changed", lambda out: _edit_json(out / "run.json", lambda d: d["measurements"][-1].__setitem__("counts", {"11": 499, "10": 1}))),
    ],
}


def main() -> int:
    root = Path.cwd()
    env = run.child_env(root)
    ref = checks.Reference.load()
    work = HERE / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    jobs = workloads.cli_mix(SEED, work, root, ref) + workloads.register_16q(SEED, work, root, ref)
    picked = {}
    for suffix in CORRUPTIONS:
        candidates = [j for j in jobs if j.key.endswith(suffix) and not j.key.startswith("trap_quadratic")]
        picked[suffix] = candidates[0]

    missed = 0
    for suffix, job in picked.items():
        result = run.run_job(job, env, root)
        print(f"{job.key}: clean output {'passes' if not result.problems else 'FAILS: ' + '; '.join(result.problems)}")
        missed += bool(result.problems)
        pristine = work / "pristine"
        shutil.rmtree(pristine, ignore_errors=True)
        shutil.copytree(job.out_dir, pristine)
        for what, corrupt in CORRUPTIONS[suffix]:
            shutil.rmtree(job.out_dir)
            shutil.copytree(pristine, job.out_dir)
            corrupt(job.out_dir)
            try:
                problems = job.check(job.out_dir)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
            print(f"  {what}: {'caught: ' + problems[0] if problems else 'NOT CAUGHT'}")
            missed += not problems
    print("all corruptions caught" if not missed else f"{missed} problem(s)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
