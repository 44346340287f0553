"""Property tests: every input from outside the program fails only in the documented ways.

Runs are derandomized and keep no example database, so the suite tests
the same examples on every run.
"""

import contextlib
import dataclasses
import io
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import json_text, standard_raw
from gradchain import chain as chain_mod
from gradchain.chain import solve_chain
from gradchain.cli import _parse_sweep_bound, main
from gradchain.config import ConfigError, load_config, validate_config
from gradchain.coupling import build_report
from gradchain.pulse import PulseProgramError, SourceSpan, interpret, parse
from gradchain.units import FREQUENCY, QuantityError, read_value

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

UNITS = ("", "Hz", "kHz", "MHz", "GHz", "s", "ms", "us", "T", "T/m", "m", "um", "nm", "deg", "rad", "pi", "x")
numbers = st.floats() | st.integers(-10**6, 10**6)
quantities = numbers | st.builds(
    lambda x, unit: f"{x!r}{unit}",
    st.floats(allow_nan=False) | st.integers(-10**6, 10**6),
    st.sampled_from(UNITS),
)
fields = st.one_of(
    st.fixed_dictionaries({"uniform": st.fixed_dictionaries({"b": quantities}, optional={"B0": quantities})}),
    st.fixed_dictionaries(
        {"quadratic": st.fixed_dictionaries({"b": quantities, "c": numbers}, optional={"B0": quantities})}
    ),
    st.fixed_dictionaries(
        {"sampled": st.fixed_dictionaries({"points": st.lists(st.lists(quantities, min_size=2, max_size=2),
                                                                max_size=5)})}
    ),
    json_values,
)
configs = st.fixed_dictionaries(
    {
        "species": st.sampled_from(["Yb171"]) | st.text(max_size=6),
        "N": st.integers(1, 50) | scalars,
        "nu1": quantities,
        "field": fields,
    },
    optional={"drive_wavevector": st.just("from_transition") | st.fixed_dictionaries({"explicit": numbers}),
              "comment": st.text(max_size=8)},
)

CONFIG_ERRORS = (ConfigError, QuantityError)


@PROPERTY
@given(json_values | configs)
def test_validate_config_fails_only_with_config_errors(raw):
    try:
        validate_config(raw)
    except CONFIG_ERRORS:
        pass


# one number grammar ------------------------------------------------------------------

# mostly ASCII digits; now and then the digits float() also takes (full-width, Arabic-Indic) and `_` separators
ascii_runs = st.text(st.sampled_from("0123456789"), min_size=1, max_size=5)
digit_runs = ascii_runs | ascii_runs | st.text(
    st.sampled_from("0123456789_\uff10\uff11\uff15\u0660\u0661\u0665"), min_size=1, max_size=5)
number_texts = st.builds(
    lambda sign, whole, frac, exp: sign + whole + (f".{frac}" if frac is not None else "") + (exp or ""),
    st.sampled_from(["", "", "+", "-"]), digit_runs, st.none() | digit_runs,
    st.none() | st.builds("".join, st.tuples(st.sampled_from("eE"), st.sampled_from(["", "-"]), digit_runs)),
) | st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e308"])
# units of every dimension, a frequency or none half the time
value_texts = st.builds(str.__add__, number_texts,
                        st.sampled_from(["", "Hz", "kHz", "MHz", "GHz"]) | st.sampled_from(UNITS))


def _value_or_none(read):
    try:
        return read()
    except ValueError:  # QuantityError, ConfigError and PulseProgramError all are
        return None


@settings(PROPERTY, max_examples=500)
@example("1_00_000")
@example("\uff11\uff10\uff10000")
@example("1e400")
@example("5e4")
@given(value_texts)
def test_number_readers_agree(text):
    """A program's detune reads a text as units.read_value does; so do nu1 and a sweep bound on nu1 where it is > 0."""
    value = _value_or_none(lambda: read_value(text, FREQUENCY))
    program = f"ions 1\npulse ion=1 rabi=1kHz detune={text} phase=0 dur=1ms\n"
    assert _value_or_none(lambda: parse(program).instructions[0].detune_hz) == value
    positive = value if value is not None and value > 0 else None
    assert _value_or_none(lambda: validate_config(standard_raw(nu1=text)).axial_frequency_hz) == positive
    assert _value_or_none(lambda: _parse_sweep_bound(text, standard_raw(), "nu1")) == positive


# pulse programs -------------------------------------------------------------------

ions = st.integers(1, 4)
ion_sets = st.just("all") | st.lists(st.integers(-1, 5), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)
pulse_fields = st.lists(
    st.sampled_from(["ion", "rabi", "detune", "phase", "area", "dur", "gain"]).flatmap(
        lambda key: st.builds(lambda v: f"{key}={v}", st.integers(-1, 5) | quantities)
    ),
    max_size=6,
)
program_lines = st.one_of(
    ions.map(lambda n: f"ions {n}"),
    pulse_fields.map(lambda fs: " ".join(["pulse", *fs])),
    quantities.map(lambda q: f"delay {q}"),
    ion_sets.map(lambda s: f"measure z {s}"),
    st.tuples(st.sampled_from(["sx", "sy", "sz", "sw"]), ion_sets).map(lambda t: f"log {t[0]} {t[1]}"),
    st.text(max_size=12),
)
program_texts = st.text() | st.lists(program_lines, max_size=8).map("\n".join)


@PROPERTY
@given(program_texts)
def test_parse_fails_only_with_program_errors(text):
    try:
        parse(text)
    except PulseProgramError:
        pass


positive = st.floats(min_value=0.0, max_value=1e12)
valid_instructions = st.one_of(
    st.builds(lambda i, r, d, p, a: f"pulse ion={i} rabi={r!r}Hz detune={d!r}Hz phase={p!r}rad area={a!r}pi",
              st.integers(1, 3), st.floats(min_value=1e-3, max_value=1e6), st.floats(-1e6, 1e6),
              st.floats(-10.0, 10.0), st.floats(0.0, 4.0)),
    st.builds(lambda i, t: f"pulse ion={i} rabi=1kHz detune=0 phase=90deg dur={t!r}s",
              st.integers(1, 3), positive),
    positive.map(lambda t: f"delay {t!r}s"),
    st.sampled_from(["measure z all", "measure z 3,1", "log sx all", "log sy 2", "log sz 1,2,3"]),
)


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 6), valid_instructions), max_size=8))
def test_each_line_gives_one_instruction_spanned_at_its_keyword(lines):
    program = parse("\n".join(["ions 3", *(" " * pad + line for pad, line in lines)]))
    assert [ins.span for ins in program.instructions] == [
        SourceSpan(line_no, pad + 1) for line_no, (pad, _) in enumerate(lines, start=2)
    ]


# the CLI on generated configs ------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


def typical_or_any(lo, hi):
    """Mostly values of a working trap, and now and then any finite double."""
    return st.floats(lo, hi) | st.floats(lo, hi) | finite


trap_configs = st.fixed_dictionaries(
    {
        "species": st.just("Yb171"),
        "N": st.integers(1, 50),
        "nu1": typical_or_any(1e4, 1e6)
        | st.builds(lambda x, unit: f"{x!r}{unit}", finite, st.sampled_from(["Hz", "kHz", "MHz", "GHz"])),
        "field": st.one_of(
            st.builds(lambda b0, b: {"uniform": {"B0": b0, "b": b}},
                      typical_or_any(-1, 1), typical_or_any(-100, 100)),
            st.builds(lambda b0, b, c: {"quadratic": {"B0": b0, "b": b, "c": c}},
                      typical_or_any(-1, 1), typical_or_any(-100, 100), typical_or_any(-1e7, 1e7) | numbers),
            st.lists(st.tuples(typical_or_any(-1e-3, 1e-3), typical_or_any(-1, 1)),
                     min_size=2, max_size=5, unique_by=lambda p: p[0]).map(
                lambda pts: {"sampled": {"points": sorted(map(list, pts))}}
            ),
        ),
    },
    optional={"drive_wavevector": st.fixed_dictionaries({"explicit": typical_or_any(1.0, 1e8) | numbers}),
              "comment": st.text(max_size=8)},
)
# any JSON value for one leaf, integers beyond double range included
leaf_values = (st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400]) | st.floats()
               | st.text(max_size=8) | st.sampled_from([[], {}]))
QUANTITY_FIELDS = ("nu1", "B0", "b", "c", "explicit")  # the config keys whose values are quantities
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def leaf_paths(node, path=()):
    """The path (keys and list indices) of every value in a JSON document that is not a non-empty container."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    paths = [p for key, child in children for p in leaf_paths(child, (*path, key))]
    return paths or [path]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy overflow or invalid-value warning fails too
@PROPERTY
@given(trap_configs, st.data())
def test_cli_exit_codes_on_generated_configs(raw, data):
    program_text = (f"ions {raw['N']}\npulse ion=1 rabi=1kHz detune=0 phase=0 area=0.5pi\n"
                    "delay 1ms\nlog sx all\nmeasure z all\n")
    sweep_param = ".".join(data.draw(st.sampled_from(
        [p for p in leaf_paths(raw) if all(isinstance(key, str) for key in p)])))
    if data.draw(st.booleans()):
        *parents, last = data.draw(st.sampled_from(leaf_paths(raw)))
        node = raw
        for key in parents:
            node = node[key]
        node[last] = data.draw(leaf_values)
    bounds = data.draw(st.lists(finite.map(repr) | st.sampled_from(["1", "50kHz", "10T/m"]), min_size=2, max_size=2,
                                unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        config = base / "trap.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        program = base / "p.pp"
        program.write_text(program_text, encoding="utf-8")
        commands = [  # each command writes only below base / its name
            ["chain", "--out", str(base / "chain" / "chain.json")],
            ["couplings", "--out-dir", str(base / "couplings")],
            ["spectrum", "--ion", "1", "--out", str(base / "spectrum" / "spec.csv")],
            ["simulate", "--program", str(program), "--shots", "10", "--out", str(base / "simulate" / "run.json")],
            ["sweep", "--param", sweep_param, f"--from={bounds[0]}", f"--to={bounds[1]}", "--steps", "2",
             "--quantity", "max_J", "--out", str(base / "sweep" / "sweep.csv")],
        ]
        for argv in commands:
            command = argv[0]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main([*argv, "--config", str(config)])  # an exception fails the test
            assert code in ((0, 2, 3, 4) if command == "simulate" else (0, 2, 3)), argv
            assert "Traceback" not in stderr.getvalue()
            written = [p for p in (base / command).rglob("*") if p.is_file()]
            if code != 0:
                assert written == [], argv
                continue
            assert written, argv
            for path in written:
                assert not NON_FINITE.search(path.read_text(encoding="utf-8")), (argv, path.name)
            if command == "sweep":
                assert sweep_param.rsplit(".", 1)[-1] in QUANTITY_FIELDS, argv


# mode-sign convention ---------------------------------------------------------------

TRAP_N10 = Path(__file__).resolve().parents[1] / "configs" / "trap_n10.json"
N10_PROGRAM = parse("""ions 10
pulse ion=1 rabi=3kHz detune=0 phase=0 area=0.5pi
pulse ion=4 rabi=3kHz detune=25Hz phase=0.7rad area=0.5pi
delay 12ms
pulse ion=5 rabi=3kHz detune=-7Hz phase=1.3rad area=1pi
delay 5ms
log sx all
log sy all
log sz all
measure z all
""")


def run_json_text(config, chain) -> str:
    """The run.json text the CLI writes for N10_PROGRAM on this chain."""
    record = interpret(N10_PROGRAM, build_report(config, chain).j_matrix, "0101100000", seed=7, shots=500)
    return json_text(record.to_json_dict())


@pytest.fixture(scope="module")
def trap_n10():
    config = load_config(TRAP_N10)
    return config, solve_chain(config)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(st.booleans(), min_size=10, max_size=10).filter(any))
def test_run_json_ignores_mode_signs(trap_n10, flips):
    config, chain = trap_n10
    signs = np.where(flips, -1.0, 1.0)
    flipped = dataclasses.replace(chain, mode_matrix=signs[:, None] * chain.mode_matrix)
    same = run_json_text(config, flipped) == run_json_text(config, chain)  # a bool: a failure prints no long text diff
    assert same, f"run.json changed when mode rows {np.flatnonzero(flips) + 1} were flipped"


def spectrum_csv_text(chain, ion: int) -> str:
    """The spectrum CSV that `spectrum --ion` writes for trap_n10 when the chain solver returns `chain`."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(chain_mod, "solve_chain", return_value=chain):
        out = Path(tmp) / "spectrum.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["spectrum", "--config", str(TRAP_N10), "--ion", str(ion), "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8")


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.lists(st.booleans(), min_size=10, max_size=10).filter(any), st.integers(1, 10))
def test_couplings_and_spectrum_ignore_mode_signs(trap_n10, flips, ion):
    config, chain = trap_n10
    signs = np.where(flips, -1.0, 1.0)
    flipped = dataclasses.replace(chain, mode_matrix=signs[:, None] * chain.mode_matrix)
    report, flipped_report = build_report(config, chain), build_report(config, flipped)
    for name in ("j_matrix", "shifts", "eta_eff"):
        same = np.array_equal(getattr(flipped_report, name), getattr(report, name))  # a bool: no long array diff
        assert same, f"{name} changed when mode rows {np.flatnonzero(flips) + 1} were flipped"
    assert spectrum_csv_text(flipped, ion) == spectrum_csv_text(chain, ion)


# the JSON writer --------------------------------------------------------------------

arrays = st.tuples(st.integers(0, 4), st.integers(0, 3)).flatmap(
    lambda shape: st.lists(st.floats(width=64), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
        lambda xs: np.array(xs, dtype=float).reshape(shape)
    )
)
documents = st.recursive(
    scalars | arrays,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(st.integers() | st.booleans(), inner, max_size=3),  # json stringifies these keys
    max_leaves=16,
)


@PROPERTY
@given(documents)
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist)
