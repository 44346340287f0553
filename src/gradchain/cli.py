"""Command-line front end: chain, couplings, spectrum, simulate, sweep.

Every command is a pure function of its input files, flags and seed, so its
outputs are byte-reproducible; --no-timestamp is accepted and has no effect.
Frequencies in all outputs are ordinary Hz; CSV numbers use 12
significant digits.

Exit codes: 0 success; 2 input error, from ValueError (ConfigError and
QuantityError included) or OSError; 3 numeric failure, from
chain.SolverError (pulse.ProgramRuntimeError included); 4 program parse
error, from pulse.PulseProgramError (a ValueError that cmd_simulate
catches first).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import chain as chain_mod
from . import coupling as coupling_mod
from . import pulse as pulse_mod  # a lazy module (gradchain/__init__.py): only cmd_simulate runs it
from .config import ConfigError, TrapConfig, load_config, read_document, read_text, validate_config
from .units import INTEGER_RE, QuantityError, read_integer, read_value

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_PROGRAM = 4


def _fmt(x: float) -> str:
    return f"{x:.12g}"


_CONTAINERS = (dict, list, tuple, np.ndarray)
_ARRAY_BLOCK_ROWS = 4096  # rows of a 2-D array formatted per piece: ~200 kB of text for a 16-qubit state


def _json_pieces(node, pad: str = "") -> Iterator[str]:
    """Yield json.dumps(node, indent=2, sort_keys=True) of a value nested at indentation `pad`, in pieces.

    An ndarray counts as its tolist(). Before Python 3.13 `indent` switches json's C encoder off. Here a
    container that holds no containers goes to the C encoder, with
    separators that reproduce the indented layout, so Python lays out only
    the nesting above such containers.
    """
    if isinstance(node, np.ndarray):
        yield from _array_pieces(node, pad)
        return
    if not isinstance(node, (dict, list, tuple)):
        yield json.dumps(node)
        return
    inner = pad + "  "
    if not any(map(isinstance, node.values() if isinstance(node, dict) else node, repeat(_CONTAINERS))):
        flat = json.dumps(node, sort_keys=True, separators=(",\n" + inner, ": "))
        yield flat if len(flat) == 2 else f"{flat[0]}\n{inner}{flat[1:-1]}\n{pad}{flat[-1]}"
        return
    if isinstance(node, dict):
        # json turns a non-str key into the text it would give the key as a value
        items = ((f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: ", v) for k, v in sorted(node.items()))
        brackets = "{}"
    else:
        items = (("", v) for v in node)
        brackets = "[]"
    # a container that holds a container is not empty, so its opening bracket always leads an item
    separator = f"{brackets[0]}\n{inner}"
    for key, v in items:
        yield separator + key
        yield from _json_pieces(v, inner)
        separator = ",\n" + inner
    yield f"\n{pad}{brackets[1]}"


def _array_pieces(a: np.ndarray, pad: str) -> Iterator[str]:
    """_json_pieces(a.tolist(), pad); a non-empty 2-D array of finite floats takes one repr each, one join a block."""
    if a.ndim != 2 or a.size == 0 or a.dtype.kind != "f" or not np.isfinite(a).all():
        yield from _json_pieces(a.tolist(), pad)  # json spells non-finite floats NaN/Infinity, not repr's nan/inf
        return
    cols = a.shape[1]
    inner = pad + "    "
    row_separator = f"\n{pad}  ],\n{pad}  [\n{inner}"
    separator = f"[\n{pad}  [\n{inner}"
    for start in range(0, len(a), _ARRAY_BLOCK_ROWS):
        block = a[start:start + _ARRAY_BLOCK_ROWS]
        parts = [",\n" + inner] * (2 * block.size - 1)
        parts[::2] = map(float.__repr__, block.ravel().tolist())
        parts[2 * cols - 1::2 * cols] = [row_separator] * (len(block) - 1)
        yield separator + "".join(parts)
        separator = row_separator
    yield f"\n{pad}  ]\n{pad}]"


def _write_text(files: dict[Path, Iterable[str]]) -> None:
    """Write one command's output files together: each is streamed to a temporary file, then all are renamed.

    Each file's pieces go to `.{name}.{pid}.tmp` beside it; only once every file is written is each renamed
    onto its path. A failure while writing removes every temporary file and leaves every path as it was; an
    OSError that names a temporary file is raised again naming its output path, since the temporary is gone.
    """
    partials = {}
    try:
        for path, pieces in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            partials[path] = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(partials[path], "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        for path, partial in partials.items():
            os.replace(partial, path)
    except BaseException as exc:
        for path, partial in partials.items():
            partial.unlink(missing_ok=True)
            if isinstance(exc, OSError) and exc.filename in (partial, str(partial)):
                exc = OSError(exc.errno, exc.strerror, str(path))
        raise exc


def _json_text(doc: dict) -> Iterator[str]:
    """doc, in pieces, as json.dumps(doc, indent=2, sort_keys=True) + newline gives it, ndarrays as their tolist()."""
    return chain(_json_pieces(doc), ["\n"])


def _table_text(header: Sequence[str], rows: list[Sequence[str]]) -> list[str]:
    """The CSV of `header` and `rows` (cell texts)."""
    return ["\n".join(map(",".join, [header, *rows])), "\n"]


def _plot_text(rows: list[Sequence[str]], x: int, y: int) -> list[str]:
    """Columns x and y of a table's rows, space-joined: its gnuplot-ready .dat file."""
    return ["\n".join(f"{row[x]} {row[y]}" for row in rows), "\n"]


def _table_files(path: Path, header: Sequence[str], rows: list[Sequence[str]],
                 plot_data: bool) -> dict[Path, list[str]]:
    """The CSV at `path` and, with `plot_data`, its first two columns in `path` + .dat."""
    files = {path: _table_text(header, rows)}
    if plot_data:
        files[path.with_suffix(path.suffix + ".dat")] = _plot_text(rows, 0, 1)
    return files


def _matrix_text(matrix: np.ndarray, row_label: str) -> list[str]:
    header = [row_label, *map(str, range(1, matrix.shape[1] + 1))]
    return _table_text(header, [[str(r), *map(_fmt, row)] for r, row in enumerate(matrix, start=1)])


def _report(config: TrapConfig) -> coupling_mod.CouplingReport:
    """The coupling report of a config, from its solved chain."""
    return coupling_mod.build_report(config, chain_mod.solve_chain(config))


def cmd_chain(args) -> int:
    config = load_config(args.config)
    solution = chain_mod.solve_chain(config)
    if args.out is not None:
        _write_text({args.out: _json_text(solution.to_json_dict(config))})

    print(f"ion chain: {config.species.name}, N={config.ion_count}, "
          f"nu1/2pi = {_fmt(config.axial_frequency_hz)} Hz")
    print(f"length scale zeta = {solution.length_scale * 1e6:.4f} um")
    print()
    print("ion   position (um)")
    for i, z in enumerate(solution.positions_m, start=1):
        print(f"{i:3d}   {z * 1e6:12.4f}")
    if config.ion_count > 1:
        print(f"\nmin spacing = {solution.min_spacing_m() * 1e6:.4f} um")
    print("\nmode   frequency (kHz)")
    for j, nu in enumerate(solution.mode_frequencies, start=1):
        print(f"{j:4d}   {nu / (2 * math.pi) / 1e3:12.6f}")
    return EXIT_OK


def cmd_couplings(args) -> int:
    config = load_config(args.config)
    report = _report(config)
    out_dir = Path(args.out_dir)

    two_pi = 2.0 * math.pi
    _write_text({out_dir / "j_matrix.csv": _matrix_text(report.j_matrix / two_pi, "ion"),
                 out_dir / "epsilon_matrix.csv": _matrix_text(report.epsilon_matrix, "mode"),
                 out_dir / "report.json": _json_text(report.to_json_dict())})

    verdict = "valid" if report.harmonic_approximation_valid else "NOT valid"
    print(f"validity epsilon = {report.validity:.6g} "
          f"(harmonic approximation {verdict} at threshold {coupling_mod.VALIDITY_THRESHOLD})")
    if config.ion_count > 1:
        print(f"max |J|/2pi = {_fmt(float(np.max(np.abs(report.j_matrix))) / two_pi)} Hz")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    config = load_config(args.config)
    solution = chain_mod.solve_chain(config)
    report = coupling_mod.build_report(config, solution)
    lines = coupling_mod.sideband_spectrum(solution, report, args.ion)

    rows = [[_fmt(line.offset / (2.0 * math.pi)), _fmt(line.amplitude), line.label] for line in lines]
    _write_text(_table_files(args.out, ["offset_hz", "amplitude", "label"], rows, args.emit_plot_data))
    print(f"wrote {len(lines)} spectral lines for ion {args.ion}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.shots < 0:
        raise ValueError(f"--shots must be >= 0, got {args.shots}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    config = load_config(args.config)
    source = read_text(args.program)
    try:
        program = pulse_mod.parse(source)
    except pulse_mod.PulseProgramError as exc:
        print(f"error: {args.program}:{exc}", file=sys.stderr)
        return EXIT_PROGRAM

    report = _report(config)
    initial = args.initial if args.initial is not None else "0" * config.ion_count
    record = pulse_mod.interpret(program, report.j_matrix, initial, seed=args.seed, shots=args.shots)

    out = args.out
    histogram = [[outcome, str(count)] for outcome, count in record.histogram.items()]
    files = {out: _json_text(record.to_json_dict()),
             out.with_name(out.stem + "_hist.csv"): _table_text(["outcome", "count"], histogram)}
    if record.expectation_log:
        log_path = out.with_name(out.stem + "_log.csv")
        rows = [[_fmt(entry["time_s"]), entry["observable"], str(entry["ion"]), _fmt(entry["value"])]
                for entry in record.expectation_log]
        files[log_path] = _table_text(["time_s", "observable", "ion", "value"], rows)
        if args.emit_plot_data:
            files[log_path.with_suffix(".dat")] = _plot_text(rows, 0, 3)
    _write_text(files)

    print(f"simulated {len(program.instructions)} instructions, "
          f"sequence duration {record.total_time_s:.6g} s")
    return EXIT_OK


# name -> the quantity at one sweep point's config; delta_shift[j] is read by _sweep_quantity
_SWEEP_QUANTITIES = {
    "max_J": lambda config: float(np.max(np.abs(_report(config).j_matrix))) / (2.0 * math.pi),
    "epsilon": lambda config: _report(config).validity,
    "min_spacing": lambda config: chain_mod.solve_chain(config).min_spacing_m(),  # builds no report
}
MAX_SWEEP_STEPS = 10**5  # every point's CSV row (~210 B) is held until the table is written: ~21 MB at the bound


def _sweep_values(start: float, stop: float, steps: int, scale: str) -> np.ndarray:
    """`steps` values from start to stop, evenly spaced (linear) or evenly spaced in log |value| (log)."""
    if steps < 2:
        raise ValueError(f"sweep needs steps >= 2, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        raise ValueError(f"sweep needs steps <= {MAX_SWEEP_STEPS}, got {steps}")
    if start == stop:
        raise ValueError("sweep endpoints must differ")
    if scale == "log" and not (min(start, stop) > 0.0 or max(start, stop) < 0.0):  # not start * stop: it underflows
        raise ValueError("log sweeps need nonzero endpoints of the same sign")
    if scale == "linear" and not math.isfinite(stop - start):
        raise ValueError("linear sweep range stop - start overflows")
    if scale == "log":
        return math.copysign(1.0, start) * np.logspace(math.log10(abs(start)), math.log10(abs(stop)), steps)
    return np.linspace(start, stop, steps)


def _sweep_quantity(quantity: str, ion_count: int) -> Callable[[TrapConfig], float]:
    """Check a sweep quantity against the base config; the function that gives its value at a point's config."""
    if quantity == "min_spacing" and ion_count < 2:
        raise ValueError(f"sweep quantity min_spacing needs at least 2 ions, config has N={ion_count}")
    if quantity in _SWEEP_QUANTITIES:
        return _SWEEP_QUANTITIES[quantity]
    index = quantity[len("delta_shift["):-1]
    if not (quantity.startswith("delta_shift[") and quantity.endswith("]") and INTEGER_RE.fullmatch(index)):
        raise ValueError(f"unknown sweep quantity {quantity!r} "
                         f"(supported: {', '.join(_SWEEP_QUANTITIES)}, delta_shift[j])")
    try:
        ion = read_integer(index, "ion index")
    except QuantityError as exc:  # past int's digit limit; the digits are not echoed
        raise QuantityError(f"sweep quantity delta_shift[j]: {exc}") from None
    if not 1 <= ion <= ion_count:
        raise ValueError(f"sweep quantity {quantity!r}: ion index {ion} out of range [1, {ion_count}]")
    return lambda config: float(_report(config).shifts[ion - 1]) / (2.0 * math.pi)


def _with_value(raw: dict, dotted: str, value) -> dict:
    """A copy of the config document `raw` whose entry at the dotted path (e.g. field.uniform.b) is `value`.

    The objects along the path are copied; `raw` is left as it is.
    """
    *parents, leaf = dotted.split(".")
    doc = node = dict(raw)
    for part in parents:
        if not isinstance(node.get(part), dict):
            raise ValueError(f"sweep parameter path {dotted!r} not present in config")
        node[part] = dict(node[part])
        node = node[part]
    if leaf not in node:
        raise ValueError(f"sweep parameter path {dotted!r} not present in config")
    node[leaf] = value
    return doc


def _accepts(raw: dict, parameter: str, value) -> bool:
    """Whether the config document `raw` is valid with `value` at the dotted path `parameter`."""
    try:
        validate_config(_with_value(raw, parameter, value))
    except ConfigError:
        return False
    return True


def _parse_sweep_bound(text: str, raw: dict, parameter: str) -> float:
    """A sweep bound in SI: a number or quantity of units.read_value, if the swept field takes its text too."""
    try:
        value = read_value(text)
    except QuantityError as exc:
        raise QuantityError(f"sweep bound: {exc}") from None
    validate_config(_with_value(raw, parameter, text))  # the field's own check rejects a unit of another dimension
    return value


def cmd_sweep(args) -> int:
    raw = read_document(args.config)
    evaluate = _sweep_quantity(args.quantity, validate_config(raw).ion_count)  # fail early on a bad config or quantity
    if _accepts(raw, args.param, None) or not _accepts(raw, args.param, 1.0):  # a quantity refuses null, takes 1.0
        raise ConfigError(f"sweep parameter {args.param!r} is not a quantity")
    values = _sweep_values(_parse_sweep_bound(getattr(args, "from"), raw, args.param),
                           _parse_sweep_bound(args.to, raw, args.param), args.steps, args.scale)

    rows = []
    for value in values:
        point = validate_config(_with_value(raw, args.param, float(value)))
        rows.append([_fmt(value), _fmt(evaluate(point))])
    _write_text(_table_files(args.out, [args.param, args.quantity], rows, args.emit_plot_data))
    print(f"swept {args.param} over {args.steps} points -> {args.quantity}")
    return EXIT_OK


def _integer(text: str) -> int:
    """argparse type of the integer flags: units.read_integer, whose error argparse reports as `argument --ion: ...`."""
    try:
        return read_integer(text)
    except QuantityError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _file_path(text: str) -> Path:
    """argparse type of --out: a Path that names a file; "", ".", "/" and ".." name none, and argparse reports them."""
    path = Path(text)
    if path.name in ("", ".."):
        raise argparse.ArgumentTypeError(f"expected a file path, got {text!r}")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradchain",
        description="Magnetic-gradient ion chain: geometry, couplings, spectra, spin dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="trap config JSON file")
    common.add_argument("--no-timestamp", action="store_true", help="no effect: outputs are always byte-reproducible")
    plot_data = argparse.ArgumentParser(add_help=False)
    plot_data.add_argument("--emit-plot-data", action="store_true",
                           help="also write gnuplot-ready two-column .dat files")

    p = sub.add_parser("chain", parents=[common], help="solve equilibrium geometry and normal modes")
    p.add_argument("--out", type=_file_path, help="write ChainSolution JSON here")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("couplings", parents=[common], help="compute J/epsilon matrices, shifts, validity")
    p.add_argument("--out-dir", required=True, help="directory for CSV/JSON outputs")
    p.set_defaults(func=cmd_couplings)

    p = sub.add_parser("spectrum", parents=[common, plot_data], help="microwave sideband stick spectrum of one ion")
    p.add_argument("--ion", type=_integer, required=True)
    p.add_argument("--out", type=_file_path, required=True, help="CSV output path")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", parents=[common, plot_data], help="run a pulse program")
    p.add_argument("--program", required=True, help=".pp pulse program file")
    p.add_argument("--initial", default=None, help="initial basis label, default all zeros")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--shots", type=_integer, default=100)
    p.add_argument("--out", type=_file_path, required=True, help="RunRecord JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common, plot_data], help="sweep one config parameter, tabulate one quantity")
    p.add_argument("--param", required=True, help="config path, e.g. field.uniform.b or nu1")
    p.add_argument("--from", required=True, help="start value (quantity or SI number)")
    p.add_argument("--to", required=True, help="end value")
    p.add_argument("--steps", type=_integer, required=True)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--quantity", required=True,
                   help="max_J | epsilon | min_spacing | delta_shift[j]")
    p.add_argument("--out", type=_file_path, required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except chain_mod.SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
