import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradchain

SRC = Path(gradchain.__file__).resolve().parents[1]
CONFIGS = SRC.parent / "configs"

# perfbench/tracer.py's TARGETS: the functions it wraps, looked up in
# sys.modules["gradchain.<module>"] right after `import gradchain.cli`
TRACER_TARGETS = {
    "chain": ("solve_chain", "solve_equilibrium", "stationarity_residual", "dynamical_matrix", "normal_modes"),
    "coupling": ("build_report",),
    "pulse": ("parse", "interpret", "apply_pulse", "free_evolution", "expectation", "marginal_counts"),
    "spins": ("diagonal_rates",),
    "config": ("load_config", "validate_config"),
    "units": ("parse_quantity",),
}

# runs gradchain.cli.main on each argv of the JSON list in argv[1]; prints, as its last line, the exit
# codes and whether gradchain.pulse and gradchain.spins have run (a module still waiting for its
# first attribute read is not a plain ModuleType, and type() does not trigger the load)
SPIN_LAYER_PROBE = """
import json, sys, types
from gradchain.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, [type(sys.modules[f"gradchain.{m}"]) is types.ModuleType for m in ("pulse", "spins")]]))
"""

# imports gradchain.cli and prints, as its last line, each module.function of the JSON table in argv[1]
# that is not a callable in sys.modules
TRACER_PROBE = """
import json, sys
import gradchain.cli
missing = [f"{m}.{f}" for m, names in json.loads(sys.argv[1]).items() for f in names
           if not callable(getattr(sys.modules.get(f"gradchain.{m}"), f, None))]
print(json.dumps(missing))
"""


def run_probe(script: str, arg, cwd: Path):
    """Run `script` in a fresh interpreter on this checkout's package; its last stdout line, as JSON."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(arg)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_all_names_resolve():
    for name in gradchain.__all__:
        assert getattr(gradchain, name) is not None, name


def test_all_matches_imported_names():
    tree = ast.parse(Path(gradchain.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not (alias.asname or alias.name).startswith("_")]
    assert sorted(gradchain.__all__) == sorted(imported + list(gradchain._LAZY_NAMES))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(gradchain, "no_such_name")


def test_tracer_targets_resolve_after_importing_the_cli(tmp_path):
    assert run_probe(TRACER_PROBE, TRACER_TARGETS, tmp_path) == []


def test_only_simulate_runs_the_spin_layer(tmp_path):
    trap = str(CONFIGS / "trap.json")
    others = [
        ["chain", "--config", trap, "--out", "chain.json"],
        ["couplings", "--config", trap, "--out-dir", "couplings"],
        ["spectrum", "--config", trap, "--ion", "1", "--out", "spectrum.csv"],
        ["sweep", "--config", trap, "--param", "nu1", "--from", "100kHz", "--to", "200kHz", "--steps", "2",
         "--quantity", "max_J", "--out", "sweep.csv"],
        ["chain", "--config", "missing.json"],  # an error that reaches main()'s handlers
    ]
    assert run_probe(SPIN_LAYER_PROBE, others, tmp_path) == [[0, 0, 0, 0, 2], [False, False]]
    simulate = ["simulate", "--config", trap, "--program", str(CONFIGS / "cnot.pp"), "--out", "run.json"]
    assert run_probe(SPIN_LAYER_PROBE, [simulate], tmp_path) == [[0], [True, True]]
