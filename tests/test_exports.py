import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gradchain
from gradchain.chain import ChainSolution
from gradchain.pulse import interpret, parse

SRC = Path(gradchain.__file__).resolve().parents[1]
CONFIGS = SRC.parent / "configs"
README = (SRC.parent / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)

# perfbench/tracer.py's TARGETS, read from its source: the functions it wraps, looked up in
# sys.modules["gradchain.<module>"] right after `import gradchain.cli`
[TRACER_TARGETS] = [ast.literal_eval(node.value)
                    for node in ast.parse((SRC.parent / "perfbench" / "tracer.py").read_text(encoding="utf-8")).body
                    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"]

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


def root_imports(source: str) -> set[str]:
    """The names of every `from gradchain import ...` in `source`, at any depth."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "gradchain" and not node.level
            for alias in node.names}


def test_all_is_what_callers_import_from_the_root():
    """__all__ is the names README.md's code and perfbench/make_reference.py import from the root, read from source."""
    make_reference = (SRC.parent / "perfbench" / "make_reference.py").read_text(encoding="utf-8")
    sources = [*PYTHON_BLOCK.findall(README), make_reference]
    assert set(gradchain.__all__) == set().union(*map(root_imports, sources))


def test_records_keep_one_copy_of_each_value(config2, chain2, report2):
    assert not hasattr(config2, "mass")
    assert not hasattr(report2, "sign_convention")
    assert report2.to_json_dict()["sign_convention"] == ChainSolution.SIGN_CONVENTION
    # the chain's mass and axial frequency are the config's, and a run's qubit count is its label's length
    assert not hasattr(chain2, "mass") and not hasattr(chain2, "nu1")
    chain_doc = chain2.to_json_dict(config2)
    assert chain_doc["axial_frequency_hz"] == pytest.approx(config2.axial_frequency_hz, rel=1e-15)
    assert chain_doc["mass_kg"] == config2.species.mass
    record = interpret(parse("ions 2\n"), report2.j_matrix, "01", seed=0, shots=0)
    assert not hasattr(record, "n_qubits")
    assert record.to_json_dict()["n_qubits"] == 2


def test_readme_library_tour_runs():
    """The python block under "## Library tour", in a fresh interpreter from the repository root."""
    tour = PYTHON_BLOCK.search(README.split("## Library tour", 1)[1]).group(1)
    done = subprocess.run([sys.executable, "-c", tour], cwd=SRC.parent, env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    *j_lines, counts = done.stdout.splitlines()
    assert counts == "{'11': 500}"
    j_over_2pi = [float(x) for x in re.findall(r"[-+.\deE]+", " ".join(j_lines))]
    assert j_over_2pi == pytest.approx([0.0, 19.29847097, 19.29847097, 0.0], rel=0, abs=1e-8)


def test_all_names_resolve():
    for name in gradchain.__all__:
        assert getattr(gradchain, name) is not None, name


def test_all_matches_imported_names():
    tree = ast.parse(Path(gradchain.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not (alias.asname or alias.name).startswith("_")]
    assert sorted(gradchain.__all__) == sorted(imported)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(gradchain, "no_such_name")


@pytest.mark.parametrize("name", ["interpret", "apply_pulse"])
def test_root_re_exports_no_spin_layer_name(name):
    with pytest.raises(AttributeError, match=name):
        getattr(gradchain, name)


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


def test_traced_simulate_notes_the_hamiltonian(tmp_path):
    """perfbench/tracer.py, run as the benchmark runs it: spans on the spin layer, its Hamiltonian key noted."""
    tracer = SRC.parent / "perfbench" / "tracer.py"
    simulate = ["simulate", "--config", str(CONFIGS / "trap.json"), "--program", str(CONFIGS / "cnot.pp"),
                "--out", "run.json", "--no-timestamp"]
    done = subprocess.run([sys.executable, str(tracer), "spans.json", "job", "--", *simulate], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    doc = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    name, note = doc["fields"].index("name"), doc["fields"].index("note")
    notes = [span[note] for span in doc["spans"] if span[name] == "spins.diagonal_rates"]
    assert notes and None not in notes
    assert any(span[name].startswith("pulse.") for span in doc["spans"])
