"""Command-line front end: chain, couplings, spectrum, simulate, sweep.

Every command is a pure function of its input files, flags and seed.
Outputs are byte-reproducible; JSON files carry one ISO-8601 timestamp
field (and simulate a wall-time field) that --no-timestamp suppresses.
Frequencies in all outputs are ordinary Hz; CSV numbers use 12
significant digits.

Exit codes: 0 success; 2 input error, from ValueError (ConfigError and
QuantityError included) or OSError; 3 numeric failure, from
chain.SolverError, coupling.NonFiniteReportError or
pulse.ProgramRuntimeError; 4 program parse error, from
pulse.PulseProgramError (a ValueError that cmd_simulate catches first).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections.abc import Iterator, Sequence
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import chain as chain_mod
from . import coupling as coupling_mod
from . import pulse as pulse_mod  # a lazy module (gradchain/__init__.py): only cmd_simulate runs it
from .config import ConfigError, TrapConfig, load_config, read_document, validate_config
from .units import QuantityError, read_integer, read_value

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_PROGRAM = 4

_INPUT_ERRORS = (OSError, ValueError)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


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


def _write_json(path: Path, doc: dict, with_timestamp: bool, **timing: float) -> None:
    """Write doc as json.dumps(doc, indent=2, sort_keys=True) + newline would, ndarrays as their tolist().

    `generated_at` and the `timing` fields join the document only `with_timestamp`.

    The text goes to the file piece by piece, so the whole document never
    exists as one string. It is written to a temporary file next to `path`
    and renamed onto `path` only once complete; on any failure the
    temporary file is removed and `path` is left as it was.
    """
    if with_timestamp:
        doc = {**doc, "generated_at": _timestamp(), **timing}
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.writelines(_json_pieces(doc))
            fh.write("\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write_table(path: Path, header: Sequence[str], rows: list[Sequence[str]],
                 plot_path: Path | None = None, plot_columns: tuple[int, int] = (0, 1)) -> None:
    """Write the CSV of `header` and `rows` (cell texts); with `plot_path`, also the two plot columns space-joined."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(map(",".join, [header, *rows])) + "\n", encoding="utf-8")
    if plot_path is not None:
        x, y = plot_columns
        plot_path.write_text("\n".join(f"{row[x]} {row[y]}" for row in rows) + "\n", encoding="utf-8")


def _write_matrix_csv(path: Path, matrix: np.ndarray, row_label: str) -> None:
    header = [row_label, *map(str, range(1, matrix.shape[1] + 1))]
    _write_table(path, header, [[str(r), *map(_fmt, row)] for r, row in enumerate(matrix, start=1)])


def cmd_chain(args) -> int:
    config = load_config(args.config)
    solution = chain_mod.solve_chain(config)
    if args.out:
        _write_json(Path(args.out), solution.to_json_dict(), not args.no_timestamp)

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
    solution = chain_mod.solve_chain(config)
    report = coupling_mod.build_report(config, solution)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    two_pi = 2.0 * math.pi
    _write_matrix_csv(out_dir / "j_matrix.csv", report.j_matrix / two_pi, "ion")
    _write_matrix_csv(out_dir / "epsilon_matrix.csv", report.epsilon_matrix, "mode")
    _write_json(out_dir / "report.json", report.to_json_dict(), not args.no_timestamp)

    verdict = "valid" if report.harmonic_approximation_valid else "NOT valid"
    print(f"validity epsilon = {report.validity:.6g} "
          f"(harmonic approximation {verdict} at threshold {coupling_mod.VALIDITY_THRESHOLD})")
    if config.ion_count > 1:
        print(f"max |J|/2pi = {_fmt(float(np.max(np.abs(report.j_matrix))) / two_pi)} Hz")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    config = load_config(args.config)
    if not 1 <= args.ion <= config.ion_count:
        print(f"error: ion index {args.ion} out of range [1, {config.ion_count}]", file=sys.stderr)
        return EXIT_INPUT
    solution = chain_mod.solve_chain(config)
    report = coupling_mod.build_report(config, solution)
    lines = coupling_mod.sideband_spectrum(solution, report, args.ion)

    rows = [[_fmt(line.offset / (2.0 * math.pi)), _fmt(line.amplitude), line.label] for line in lines]
    out = Path(args.out)
    _write_table(out, ["offset_hz", "amplitude", "label"], rows,
                 out.with_suffix(out.suffix + ".dat") if args.emit_plot_data else None)
    print(f"wrote {len(lines)} spectral lines for ion {args.ion}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.shots < 0:
        raise ValueError(f"--shots must be >= 0, got {args.shots}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    config = load_config(args.config)
    try:
        source = Path(args.program).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read program {args.program}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        program = pulse_mod.parse(source)
    except pulse_mod.PulseProgramError as exc:
        print(f"error: {args.program}:{exc}", file=sys.stderr)
        return EXIT_PROGRAM

    solution = chain_mod.solve_chain(config)
    report = coupling_mod.build_report(config, solution)
    initial = args.initial if args.initial is not None else "0" * config.ion_count
    started = time.perf_counter()
    try:
        record = pulse_mod.interpret(program, report.j_matrix, initial, seed=args.seed, shots=args.shots)
    except pulse_mod.ProgramRuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    wall_time_s = time.perf_counter() - started

    out = Path(args.out)
    _write_json(out, record.to_json_dict(), not args.no_timestamp, wall_time_s=wall_time_s)

    if record.measurements:
        counts = record.measurements[-1]["counts"]
    else:
        rng = np.random.default_rng(args.seed)
        counts = pulse_mod.marginal_counts(
            record.final_state, tuple(range(1, record.n_qubits + 1)), rng, args.shots
        )
    _write_table(out.with_name(out.stem + "_hist.csv"), ["outcome", "count"],
                 [[outcome, str(count)] for outcome, count in counts.items()])

    if record.expectation_log:
        log_path = out.with_name(out.stem + "_log.csv")
        rows = [[_fmt(entry["time_s"]), entry["observable"], str(entry["ion"]), _fmt(entry["value"])]
                for entry in record.expectation_log]
        _write_table(log_path, ["time_s", "observable", "ion", "value"], rows,
                     log_path.with_suffix(".dat") if args.emit_plot_data else None, plot_columns=(0, 3))

    print(f"simulated {len(program.instructions)} instructions, "
          f"sequence duration {record.total_time_s:.6g} s")
    return EXIT_OK


_SWEEP_QUANTITIES = ("max_J", "epsilon", "min_spacing")
MAX_SWEEP_STEPS = 10**5  # every point's CSV row (~210 B) is held until the table is written: ~21 MB at the bound


def _sweep_values(start: float, stop: float, steps: int, scale: str) -> np.ndarray:
    """`steps` values from start to stop, evenly spaced (linear) or evenly spaced in log |value| (log)."""
    if steps < 2:
        raise ValueError(f"sweep needs steps >= 2, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        raise ValueError(f"sweep needs steps <= {MAX_SWEEP_STEPS}, got {steps}")
    if start == stop:
        raise ValueError("sweep endpoints must differ")
    if scale not in ("linear", "log"):
        raise ValueError(f"scale must be linear or log, got {scale!r}")
    if scale == "log" and start * stop <= 0.0:
        raise ValueError("log sweeps need nonzero endpoints of the same sign")
    if scale == "linear" and not math.isfinite(stop - start):
        raise ValueError("linear sweep range stop - start overflows")
    if scale == "log":
        return math.copysign(1.0, start) * np.logspace(math.log10(abs(start)), math.log10(abs(stop)), steps)
    return np.linspace(start, stop, steps)


def _sweep_ion(quantity: str, ion_count: int) -> int:
    """Check a sweep quantity against the base config; the ion j of delta_shift[j], 0 for the others."""
    if quantity == "min_spacing" and ion_count < 2:
        raise ValueError(f"sweep quantity min_spacing needs at least 2 ions, config has N={ion_count}")
    if quantity in _SWEEP_QUANTITIES:
        return 0
    try:
        if not (quantity.startswith("delta_shift[") and quantity.endswith("]")):
            raise ValueError
        ion = read_integer(quantity[len("delta_shift["):-1])
    except ValueError:
        raise ValueError(f"unknown sweep quantity {quantity!r} "
                         f"(supported: {', '.join(_SWEEP_QUANTITIES)}, delta_shift[j])") from None
    if not 1 <= ion <= ion_count:
        raise ValueError(f"sweep quantity {quantity!r}: ion index {ion} out of range [1, {ion_count}]")
    return ion


def _sweep_value(quantity: str, ion: int, config: TrapConfig) -> float:
    solution = chain_mod.solve_chain(config)
    if quantity == "min_spacing":
        return solution.min_spacing_m()
    report = coupling_mod.build_report(config, solution)
    if quantity == "max_J":
        return float(np.max(np.abs(report.j_matrix))) / (2.0 * math.pi)
    if quantity == "epsilon":
        return report.validity
    return float(report.shifts[ion - 1]) / (2.0 * math.pi)


def _set_path(raw: dict, dotted: str, value: float) -> None:
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ValueError(f"sweep parameter path {dotted!r} not present in config")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ValueError(f"sweep parameter path {dotted!r} not present in config")
    node[parts[-1]] = value


def _parse_sweep_bound(text: str, raw: dict, parameter: str) -> float:
    """A sweep bound in SI: a number or quantity of units.read_value, if the swept field takes its text too."""
    try:
        value = read_value(text)
    except QuantityError as exc:
        raise QuantityError(f"sweep bound: {exc}") from None
    probe = json.loads(json.dumps(raw))
    _set_path(probe, parameter, None)
    try:
        validate_config(probe)  # a field read as a quantity refuses null
    except ConfigError:
        pass
    else:
        raise ConfigError(f"sweep parameter {parameter!r} is not a quantity")
    _set_path(probe, parameter, text)
    validate_config(probe)  # the field's own check rejects a unit of another dimension
    return value


def cmd_sweep(args) -> int:
    raw = read_document(args.config)
    ion = _sweep_ion(args.quantity, validate_config(raw).ion_count)  # fail early on a bad base config or quantity
    values = _sweep_values(_parse_sweep_bound(getattr(args, "from"), raw, args.param),
                           _parse_sweep_bound(args.to, raw, args.param), args.steps, args.scale)

    rows = []
    for value in values:
        point_raw = json.loads(json.dumps(raw))
        _set_path(point_raw, args.param, float(value))
        rows.append([_fmt(value), _fmt(_sweep_value(args.quantity, ion, validate_config(point_raw)))])
    out = Path(args.out)
    _write_table(out, [args.param, args.quantity], rows,
                 out.with_suffix(out.suffix + ".dat") if args.emit_plot_data else None)
    print(f"swept {args.param} over {args.steps} points -> {args.quantity}")
    return EXIT_OK


def _integer(text: str) -> int:
    """argparse type of the integer flags: units.read_integer, whose error argparse reports as `argument --ion: ...`."""
    try:
        return read_integer(text)
    except QuantityError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradchain",
        description="Magnetic-gradient ion chain: geometry, couplings, spectra, spin dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="trap config JSON file")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamp/wall-time fields for byte-reproducible output")
    plot_data = argparse.ArgumentParser(add_help=False)
    plot_data.add_argument("--emit-plot-data", action="store_true",
                           help="also write gnuplot-ready two-column .dat files")

    p = sub.add_parser("chain", parents=[common], help="solve equilibrium geometry and normal modes")
    p.add_argument("--out", help="write ChainSolution JSON here")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("couplings", parents=[common], help="compute J/epsilon matrices, shifts, validity")
    p.add_argument("--out-dir", required=True, help="directory for CSV/JSON outputs")
    p.set_defaults(func=cmd_couplings)

    p = sub.add_parser("spectrum", parents=[common, plot_data], help="microwave sideband stick spectrum of one ion")
    p.add_argument("--ion", type=_integer, required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("simulate", parents=[common, plot_data], help="run a pulse program")
    p.add_argument("--program", required=True, help=".pp pulse program file")
    p.add_argument("--initial", default=None, help="initial basis label, default all zeros")
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--shots", type=_integer, default=100)
    p.add_argument("--out", required=True, help="RunRecord JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common, plot_data], help="sweep one config parameter, tabulate one quantity")
    p.add_argument("--param", required=True, help="config path, e.g. field.uniform.b or nu1")
    p.add_argument("--from", required=True, help="start value (quantity or SI number)")
    p.add_argument("--to", required=True, help="end value")
    p.add_argument("--steps", type=_integer, required=True)
    p.add_argument("--scale", choices=("linear", "log"), default="linear")
    p.add_argument("--quantity", required=True,
                   help="max_J | epsilon | min_spacing | delta_shift[j]")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (chain_mod.SolverError, coupling_mod.NonFiniteReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
