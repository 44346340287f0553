"""Line-oriented pulse-sequence DSL and its interpreter.

Grammar (one instruction per line, `#` starts a comment):

    ions <int>
    pulse ion=<i> rabi=<qty> detune=<qty> phase=<qty> (area=<qty>|dur=<qty>)
    delay <qty>
    measure z <i,...|all>
    log <sx|sy|sz> <i,...|all>

Quantities take the unit suffixes of gradchain.units; bare numbers are SI
(Hz, s, rad). Pulse areas must carry the `pi` suffix. `detune` is relative
to the target ion's effective carrier (qubit frequency plus gradient-induced
shift), so detune=0 drives the shifted carrier resonantly; which neighbor
states are resonant is then set purely by the J couplings. Drive phases are
synthesizer-referenced: a tone restarted later in the sequence stays phase
coherent with itself.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSolution
from .config import TrapConfig
from .coupling import CouplingReport
from .units import ANGLE, FREQUENCY, TIME, QuantityError, parse_quantity
from .spins import (
    SpinHamiltonian,
    SpinState,
    PulseSpec,
    apply_pulse,
    expectation,
    free_evolution,
    initialize,
    outcome_indices,
    outcome_labels,
)

NORM_TOLERANCE = 1e-9  # largest |1 - ||psi||| accepted after each instruction


@dataclass(frozen=True)
class SourceSpan:
    line: int       # 1-based
    col_start: int  # 1-based, inclusive
    col_end: int    # exclusive

    def __str__(self):
        return f"{self.line}:{self.col_start}"


class PulseProgramError(ValueError):
    """Base parse/validation error; renders as line:col: message."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class ProgramSyntaxError(PulseProgramError):
    pass


class UnknownKeywordError(PulseProgramError):
    pass


class DuplicateFieldError(PulseProgramError):
    pass


class MissingFieldError(PulseProgramError):
    pass


class ConflictingFieldsError(PulseProgramError):
    pass


class EmptyProgramError(PulseProgramError):
    def __init__(self):
        super().__init__("program is empty", SourceSpan(1, 1, 1))


class ProgramRuntimeError(RuntimeError):
    """Simulator failure while executing an instruction; carries its span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span


@dataclass(frozen=True)
class Pulse:
    ion: int
    rabi_hz: float
    detune_hz: float
    phase_rad: float
    area_pi: float | None
    duration_s: float | None
    span: SourceSpan


@dataclass(frozen=True)
class Delay:
    duration_s: float
    span: SourceSpan


@dataclass(frozen=True)
class MeasureZ:
    ions: tuple[int, ...] | None  # None = all
    span: SourceSpan


@dataclass(frozen=True)
class ExpectationLog:
    observable: str  # sx | sy | sz
    ions: tuple[int, ...] | None
    span: SourceSpan


Instruction = Pulse | Delay | MeasureZ | ExpectationLog


@dataclass(frozen=True)
class PulseProgram:
    n_ions: int
    instructions: tuple[Instruction, ...]
    comment: str = ""


_TOKEN_RE = re.compile(r"\S+")
_PULSE_KEYS = ("ion", "rabi", "detune", "phase", "area", "dur")
_REQUIRED_PULSE_KEYS = ("ion", "rabi", "detune", "phase")

_BARE_SI_UNIT = {FREQUENCY: "Hz", TIME: "s", ANGLE: "rad"}


def _tokens(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs; comments stripped."""
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _parse_value(text: str, dimension: str, span: SourceSpan) -> float:
    """A quantity string, or a bare number meaning SI units of `dimension`."""
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise ProgramSyntaxError(f"value must be finite, got {text!r}", span)
        return value
    try:
        value, dim = parse_quantity(text)
    except QuantityError as exc:
        raise ProgramSyntaxError(str(exc), span) from exc
    if dim != dimension:
        raise ProgramSyntaxError(
            f"expected a {_BARE_SI_UNIT[dimension]}-compatible quantity, got {dim} ({text!r})", span
        )
    return value


def _parse_int(text: str, span: SourceSpan, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ProgramSyntaxError(f"expected an integer {what}, got {text!r}", span) from None


def _parse_ion_set(
    tokens: list[tuple[str, int]], line_no: int, n_ions: int
) -> tuple[int, ...] | None:
    if not tokens:
        raise MissingFieldError("expected an ion list or 'all'", SourceSpan(line_no, 1, 1))
    joined = "".join(tok for tok, _ in tokens)
    first_col = tokens[0][1]
    span = SourceSpan(line_no, first_col, tokens[-1][1] + len(tokens[-1][0]))
    if joined == "all":
        return None
    ions = []
    for part in joined.split(","):
        ion = _parse_int(part, span, "ion index")
        if not 1 <= ion <= n_ions:
            raise ProgramSyntaxError(f"ion index {ion} out of range [1, {n_ions}]", span)
        if ion in ions:
            raise DuplicateFieldError(f"ion {ion} listed twice", span)
        ions.append(ion)
    return tuple(ions)


def _parse_pulse(tokens: list[tuple[str, int]], line_no: int, n_ions: int) -> Pulse:
    kw_col = tokens[0][1]
    fields: dict[str, tuple[str, SourceSpan]] = {}
    for tok, col in tokens[1:]:
        if "=" not in tok:
            raise ProgramSyntaxError(f"expected key=value, got {tok!r}", SourceSpan(line_no, col, col + len(tok)))
        key, _, value = tok.partition("=")
        key_span = SourceSpan(line_no, col, col + len(key))
        value_span = SourceSpan(line_no, col + len(key) + 1, col + len(tok))
        if key not in _PULSE_KEYS:
            raise UnknownKeywordError(f"unknown pulse field {key!r}", key_span)
        if key in fields:
            raise DuplicateFieldError(f"duplicate pulse field {key!r}", key_span)
        if key in ("area", "dur") and ("area" in fields or "dur" in fields):
            raise ConflictingFieldsError("pulse takes either area or dur, not both", key_span)
        fields[key] = (value, value_span)

    end_span = SourceSpan(line_no, kw_col, kw_col + len("pulse"))
    for key in _REQUIRED_PULSE_KEYS:
        if key not in fields:
            raise MissingFieldError(f"pulse is missing required field {key!r}", end_span)
    if "area" not in fields and "dur" not in fields:
        raise MissingFieldError("pulse needs either area or dur", end_span)

    ion_text, ion_span = fields["ion"]
    ion = _parse_int(ion_text, ion_span, "ion index")
    if not 1 <= ion <= n_ions:
        raise ProgramSyntaxError(f"ion index {ion} out of range [1, {n_ions}]", ion_span)

    rabi = _parse_value(fields["rabi"][0], FREQUENCY, fields["rabi"][1])
    if rabi < 0:
        raise ProgramSyntaxError("rabi must be non-negative", fields["rabi"][1])
    detune = _parse_value(fields["detune"][0], FREQUENCY, fields["detune"][1])
    phase = _parse_value(fields["phase"][0], ANGLE, fields["phase"][1])

    area_pi = None
    duration = None
    if "area" in fields:
        area_text, area_span = fields["area"]
        if not area_text.endswith("pi"):
            raise ProgramSyntaxError("pulse areas take only the 'pi' suffix", area_span)
        area_pi = _parse_value(area_text, ANGLE, area_span) / math.pi
        if rabi == 0.0:
            raise ProgramSyntaxError("area-specified pulse needs rabi > 0", fields["rabi"][1])
    else:
        duration = _parse_value(fields["dur"][0], TIME, fields["dur"][1])
        if duration < 0:
            raise ProgramSyntaxError("dur must be non-negative", fields["dur"][1])

    last_tok, last_col = tokens[-1]
    span = SourceSpan(line_no, kw_col, last_col + len(last_tok))
    return Pulse(ion, rabi, detune, phase, area_pi, duration, span)


def parse(source: str) -> PulseProgram:
    """Parse DSL text into a validated PulseProgram."""
    n_ions = None
    header_span = None
    instructions: list[Instruction] = []
    comment_lines: list[str] = []

    for line_no, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("#"):
            comment_lines.append(stripped.lstrip("#").strip())
        tokens = _tokens(line)
        if not tokens:
            continue
        keyword, kw_col = tokens[0]
        kw_span = SourceSpan(line_no, kw_col, kw_col + len(keyword))

        if keyword == "ions":
            if n_ions is not None:
                raise DuplicateFieldError("duplicate 'ions' header", kw_span)
            if instructions:
                raise ProgramSyntaxError("'ions' header must precede all instructions", kw_span)
            if len(tokens) != 2:
                raise ProgramSyntaxError("usage: ions <count>", kw_span)
            count_tok, count_col = tokens[1]
            count_span = SourceSpan(line_no, count_col, count_col + len(count_tok))
            n_ions = _parse_int(count_tok, count_span, "ion count")
            if n_ions < 1:
                raise ProgramSyntaxError(f"ion count must be positive, got {n_ions}", count_span)
            header_span = kw_span
            continue

        if n_ions is None:
            raise MissingFieldError("program must start with an 'ions <count>' header", kw_span)

        if keyword == "pulse":
            instructions.append(_parse_pulse(tokens, line_no, n_ions))
        elif keyword == "delay":
            if len(tokens) != 2:
                raise ProgramSyntaxError("usage: delay <duration>", kw_span)
            tok, col = tokens[1]
            value_span = SourceSpan(line_no, col, col + len(tok))
            duration = _parse_value(tok, TIME, value_span)
            if duration < 0:
                raise ProgramSyntaxError("delay must be non-negative", value_span)
            instructions.append(Delay(duration, SourceSpan(line_no, kw_col, col + len(tok))))
        elif keyword == "measure":
            if len(tokens) < 2 or tokens[1][0] != "z":
                raise ProgramSyntaxError("only z-basis measurement is supported: measure z <ions|all>", kw_span)
            ions = _parse_ion_set(tokens[2:], line_no, n_ions)
            last_tok, last_col = tokens[-1]
            instructions.append(MeasureZ(ions, SourceSpan(line_no, kw_col, last_col + len(last_tok))))
        elif keyword == "log":
            if len(tokens) < 2 or tokens[1][0] not in ("sx", "sy", "sz"):
                raise ProgramSyntaxError("usage: log <sx|sy|sz> <ions|all>", kw_span)
            ions = _parse_ion_set(tokens[2:], line_no, n_ions)
            last_tok, last_col = tokens[-1]
            instructions.append(
                ExpectationLog(tokens[1][0], ions, SourceSpan(line_no, kw_col, last_col + len(last_tok)))
            )
        else:
            raise UnknownKeywordError(f"unknown keyword {keyword!r}", kw_span)

    if n_ions is None:
        raise EmptyProgramError()
    return PulseProgram(n_ions, tuple(instructions), comment=" ".join(comment_lines))


def _ion_set_text(ions: tuple[int, ...] | None) -> str:
    return "all" if ions is None else ",".join(str(i) for i in ions)


def pretty_print(program: PulseProgram) -> str:
    """Canonical text form; parse(pretty_print(parse(s))) is a fixed point."""
    lines = [f"ions {program.n_ions}"]
    for ins in program.instructions:
        if isinstance(ins, Pulse):
            tail = f"area={ins.area_pi!r}pi" if ins.area_pi is not None else f"dur={ins.duration_s!r}s"
            lines.append(
                f"pulse ion={ins.ion} rabi={ins.rabi_hz!r}Hz detune={ins.detune_hz!r}Hz "
                f"phase={ins.phase_rad!r}rad {tail}"
            )
        elif isinstance(ins, Delay):
            lines.append(f"delay {ins.duration_s!r}s")
        elif isinstance(ins, MeasureZ):
            lines.append(f"measure z {_ion_set_text(ins.ions)}")
        else:
            lines.append(f"log {ins.observable} {_ion_set_text(ins.ions)}")
    return "\n".join(lines) + "\n"


@dataclass
class RunRecord:
    """Everything one program execution produced."""

    n_qubits: int
    initial_label: str
    seed: int
    shots: int
    expectation_log: list[dict] = field(default_factory=list)
    measurements: list[dict] = field(default_factory=list)
    final_state: SpinState | None = None
    total_time_s: float = 0.0      # simulated sequence time
    wall_time_s: float | None = None

    def to_json_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "n_qubits": self.n_qubits,
            "initial": self.initial_label,
            "seed": self.seed,
            "shots": self.shots,
            "sequence_duration_s": self.total_time_s,
            "expectation_log": self.expectation_log,
            "measurements": self.measurements,
            "final_state": self.final_state.to_json_dict() if self.final_state else None,
        }
        if include_timing and self.wall_time_s is not None:
            doc["wall_time_s"] = self.wall_time_s
        return doc


def marginal_counts(
    state: SpinState, ions: tuple[int, ...], rng: np.random.Generator, shots: int
) -> dict[str, int]:
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    draws = rng.choice(probs.size, size=shots, p=probs)
    tally = np.bincount(outcome_indices(draws, ions))
    seen = np.flatnonzero(tally)
    return dict(zip(outcome_labels(seen, len(ions)), tally[seen].tolist()))


def interpret(
    program: PulseProgram,
    config: TrapConfig,
    chain: ChainSolution,
    report: CouplingReport,
    initial: str,
    seed: int,
    shots: int = 100,
) -> RunRecord:
    """Execute a program against the spin simulator.

    The drive tone of each pulse is the ion's effective carrier
    (qubit frequency + gradient shift) plus the programmed detune. Pulse
    phases are shifted by -omega * t_start so that the synthesizer stays
    phase coherent across the whole sequence. A pulse or delay that leaves
    the state non-finite or its norm off 1 by more than NORM_TOLERANCE
    raises ProgramRuntimeError.
    """
    if program.n_ions != config.ion_count:
        raise ValueError(
            f"program declares {program.n_ions} ions but config has {config.ion_count}"
        )
    n = config.ion_count
    hamiltonian = SpinHamiltonian(
        omega_eff=report.qubit_frequencies + report.shifts,
        coupling=report.j_matrix,
    )
    state = initialize(n, initial)
    rng = np.random.default_rng(seed)
    record = RunRecord(n_qubits=n, initial_label=initial, seed=seed, shots=shots)
    started = time.perf_counter()
    t = 0.0

    for ins in program.instructions:
        try:
            if isinstance(ins, Pulse):
                omega_r = 2.0 * math.pi * ins.rabi_hz
                omega_drive = hamiltonian.omega_eff[ins.ion - 1] + 2.0 * math.pi * ins.detune_hz
                duration = ins.duration_s if ins.duration_s is not None else ins.area_pi * math.pi / omega_r
                spec = PulseSpec(ins.ion, omega_r, omega_drive, ins.phase_rad - omega_drive * t, duration)
                with np.errstate(over="ignore", invalid="ignore"):  # the norm check below reports it
                    apply_pulse(state, hamiltonian, spec)
                t += duration
            elif isinstance(ins, Delay):
                with np.errstate(over="ignore", invalid="ignore"):
                    free_evolution(state, hamiltonian, ins.duration_s)
                t += ins.duration_s
            else:
                ions = ins.ions if ins.ions is not None else tuple(range(1, n + 1))
                if isinstance(ins, MeasureZ):
                    record.measurements.append(
                        {"time_s": t, "ions": list(ions), "counts": marginal_counts(state, ions, rng, shots)}
                    )
                else:
                    for ion in ions:
                        record.expectation_log.append(
                            {"time_s": t, "observable": ins.observable, "ion": ion,
                             "value": expectation(state, ins.observable, ion)}
                        )
        except (ValueError, RuntimeError) as exc:
            raise ProgramRuntimeError(str(exc), ins.span) from exc
        norm = state.norm()
        if not abs(1.0 - norm) <= NORM_TOLERANCE:  # NaN compares false: a non-finite state fails too
            raise ProgramRuntimeError(f"state norm {norm!r} is not within {NORM_TOLERANCE:g} of 1", ins.span)

    record.final_state = state
    record.total_time_s = t
    record.wall_time_s = time.perf_counter() - started
    return record
