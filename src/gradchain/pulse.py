"""Line-oriented pulse-sequence DSL and its interpreter.

Grammar (one instruction per line, `#` starts a comment):

    ions <int>
    pulse ion=<i> rabi=<qty> detune=<qty> phase=<qty> (area=<qty>|dur=<qty>)
    delay <qty>
    measure z <i,...|all>
    log <sx|sy|sz> <i,...|all>

Quantities take the unit suffixes of gradchain.units; bare numbers are SI
(Hz, s, rad). Pulse areas must carry the `pi` suffix; areas, durations and
delays must be >= 0. `detune` is relative to the target ion's carrier, so
detune=0 drives the carrier resonantly; which neighbor states are resonant
is then set purely by the J couplings.
Drive phases are synthesizer-referenced: a tone restarted later in the
sequence stays phase coherent with itself. The interpreter evolves in that
synthesizer frame (FRAME), so carrier frequencies and shifts never enter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .units import ANGLE, FREQUENCY, TIME, QuantityError, read_integer, read_value
from .spins import (
    SpinHamiltonian,
    apply_pulse,
    expectation,
    free_evolution,
    initialize,
    outcome_indices,
    outcome_labels,
)

NORM_TOLERANCE = 1e-9  # largest |1 - ||psi||| accepted after each instruction
MAX_SHOTS = 10**7      # sampling peaks near 28 B a shot (int64 draws and outcome indices): ~280 MB at the bound
BASIS_CONVENTION = "qubit n is bit (n-1) of the basis index; labels list qubit 1 first; sigma_z|1> = +|1>"
FRAME = ("synthesizer frame: each qubit's phase is counted against its own carrier; "
         "amplitude phases and <sx>, <sy> are in this frame, populations and <sz> do not depend on it")


@dataclass(frozen=True)
class SourceSpan:
    line: int  # 1-based
    col: int   # 1-based

    def __str__(self):
        return f"{self.line}:{self.col}"


class PulseProgramError(ValueError):
    """A parse or validation error in a program; renders as line:col: message."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.span = span


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
    duration_s: float  # an area pulse's is its area over 2 pi rabi
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


_TOKEN_RE = re.compile(r"\S+")
_PULSE_KEYS = ("ion", "rabi", "detune", "phase", "area", "dur")
_REQUIRED_PULSE_KEYS = ("ion", "rabi", "detune", "phase")


def _tokens(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs; comments stripped."""
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _read(reader, text: str, arg: str, span: SourceSpan):
    """reader(text, arg), a gradchain.units reader; its QuantityError becomes a PulseProgramError at `span`."""
    try:
        return reader(text, arg)
    except QuantityError as exc:
        raise PulseProgramError(str(exc), span) from exc


def _parse_ion_set(
    tokens: list[tuple[str, int]], line_no: int, n_ions: int
) -> tuple[int, ...] | None:
    """The ion list of a measure or log line, tokens[2:] of it; None for 'all'.

    Whitespace may stand next to a comma, never in its place: two tokens
    with no comma between them are an error at the second.
    """
    if len(tokens) < 3:
        last, col = tokens[-1]
        raise PulseProgramError("expected an ion list or 'all'", SourceSpan(line_no, col + len(last)))
    for (before, _), (tok, col) in zip(tokens[2:], tokens[3:]):
        if not (before.endswith(",") or tok.startswith(",")):
            raise PulseProgramError(f"expected ',' between ion list entries, got {tok!r}", SourceSpan(line_no, col))
    chars = [(ch, col + i) for tok, col in tokens[2:] for i, ch in enumerate(tok)]
    joined = "".join(ch for ch, _ in chars)
    if joined == "all":
        return None
    ions = []
    start = 0  # index of an entry's first character in `joined`; an empty last entry is past the end
    for part in joined.split(","):
        span = SourceSpan(line_no, chars[start][1] if start < len(chars) else chars[-1][1] + 1)
        start += len(part) + 1
        ion = _read(read_integer, part, "integer ion index", span)
        if not 1 <= ion <= n_ions:
            raise PulseProgramError(f"ion index {ion} out of range [1, {n_ions}]", span)
        if ion in ions:
            raise PulseProgramError(f"ion {ion} listed twice", span)
        ions.append(ion)
    return tuple(ions)


def _parse_pulse(tokens: list[tuple[str, int]], span: SourceSpan, n_ions: int) -> Pulse:
    fields: dict[str, tuple[str, SourceSpan]] = {}
    for tok, col in tokens[1:]:
        key_span = SourceSpan(span.line, col)
        if "=" not in tok:
            raise PulseProgramError(f"expected key=value, got {tok!r}", key_span)
        key, _, value = tok.partition("=")
        value_span = SourceSpan(span.line, col + len(key) + 1)
        if key not in _PULSE_KEYS:
            raise PulseProgramError(f"unknown pulse field {key!r}", key_span)
        if key in fields:
            raise PulseProgramError(f"duplicate pulse field {key!r}", key_span)
        if key in ("area", "dur") and ("area" in fields or "dur" in fields):
            raise PulseProgramError("pulse takes either area or dur, not both", key_span)
        fields[key] = (value, value_span)

    for key in _REQUIRED_PULSE_KEYS:
        if key not in fields:
            raise PulseProgramError(f"pulse is missing required field {key!r}", span)
    if "area" not in fields and "dur" not in fields:
        raise PulseProgramError("pulse needs either area or dur", span)

    ion_text, ion_span = fields["ion"]
    ion = _read(read_integer, ion_text, "integer ion index", ion_span)
    if not 1 <= ion <= n_ions:
        raise PulseProgramError(f"ion index {ion} out of range [1, {n_ions}]", ion_span)

    rabi = _read(read_value, fields["rabi"][0], FREQUENCY, fields["rabi"][1])
    if rabi < 0:
        raise PulseProgramError("rabi must be non-negative", fields["rabi"][1])
    detune = _read(read_value, fields["detune"][0], FREQUENCY, fields["detune"][1])
    phase = _read(read_value, fields["phase"][0], ANGLE, fields["phase"][1])

    if "area" in fields:
        area_text, area_span = fields["area"]
        if not area_text.endswith("pi"):
            raise PulseProgramError("pulse areas take only the 'pi' suffix", area_span)
        area = _read(read_value, area_text, ANGLE, area_span) / math.pi  # in units of pi; the duration rounds from it
        if area < 0:
            raise PulseProgramError("area must be non-negative", area_span)
        if rabi == 0.0:
            raise PulseProgramError("area-specified pulse needs rabi > 0", fields["rabi"][1])
        duration = area * math.pi / (2.0 * math.pi * rabi)
    else:
        duration = _read(read_value, fields["dur"][0], TIME, fields["dur"][1])
        if duration < 0:
            raise PulseProgramError("dur must be non-negative", fields["dur"][1])
    return Pulse(ion, rabi, detune, phase, duration, span)


def parse(source: str) -> PulseProgram:
    """Parse DSL text into a validated PulseProgram."""
    n_ions = None
    instructions: list[Instruction] = []

    for line_no, line in enumerate(source.splitlines(), start=1):
        tokens = _tokens(line)
        if not tokens:
            continue
        keyword, kw_col = tokens[0]
        kw_span = SourceSpan(line_no, kw_col)

        if keyword == "ions":
            if n_ions is not None:
                raise PulseProgramError("duplicate 'ions' header", kw_span)
            if instructions:
                raise PulseProgramError("'ions' header must precede all instructions", kw_span)
            if len(tokens) != 2:
                raise PulseProgramError("usage: ions <count>", kw_span)
            count_tok, count_col = tokens[1]
            count_span = SourceSpan(line_no, count_col)
            n_ions = _read(read_integer, count_tok, "integer ion count", count_span)
            if n_ions < 1:
                raise PulseProgramError(f"ion count must be positive, got {n_ions}", count_span)
            continue

        if n_ions is None:
            raise PulseProgramError("program must start with an 'ions <count>' header", kw_span)

        if keyword == "pulse":
            instructions.append(_parse_pulse(tokens, kw_span, n_ions))
        elif keyword == "delay":
            if len(tokens) != 2:
                raise PulseProgramError("usage: delay <duration>", kw_span)
            tok, col = tokens[1]
            value_span = SourceSpan(line_no, col)
            duration = _read(read_value, tok, TIME, value_span)
            if duration < 0:
                raise PulseProgramError("delay must be non-negative", value_span)
            instructions.append(Delay(duration, kw_span))
        elif keyword == "measure":
            if len(tokens) < 2 or tokens[1][0] != "z":
                raise PulseProgramError("only z-basis measurement is supported: measure z <ions|all>", kw_span)
            ions = _parse_ion_set(tokens, line_no, n_ions)
            instructions.append(MeasureZ(ions, kw_span))
        elif keyword == "log":
            if len(tokens) < 2 or tokens[1][0] not in ("sx", "sy", "sz"):
                raise PulseProgramError("usage: log <sx|sy|sz> <ions|all>", kw_span)
            ions = _parse_ion_set(tokens, line_no, n_ions)
            instructions.append(ExpectationLog(tokens[1][0], ions, kw_span))
        else:
            raise PulseProgramError(f"unknown keyword {keyword!r}", kw_span)

    if n_ions is None:
        raise PulseProgramError("program is empty", SourceSpan(1, 1))
    return PulseProgram(n_ions, tuple(instructions))


@dataclass
class RunRecord:
    """Everything one program execution produced."""

    n_qubits: int
    initial_label: str
    seed: int
    shots: int
    expectation_log: list[dict] = field(default_factory=list)
    measurements: list[dict] = field(default_factory=list)
    final_state: np.ndarray | None = None  # complex amplitudes, basis order of gradchain.spins
    total_time_s: float = 0.0      # simulated sequence time

    def to_json_dict(self) -> dict:
        """run.json's document, all but the CLI's generated_at and wall_time_s.

        The final state is a (2^n, 2) float array of [real, imag] rows.
        """
        state = self.final_state
        return {
            "n_qubits": self.n_qubits,
            "initial": self.initial_label,
            "seed": self.seed,
            "shots": self.shots,
            "sequence_duration_s": self.total_time_s,
            "expectation_log": self.expectation_log,
            "measurements": self.measurements,
            "final_state": None if state is None else {
                "basis_convention": BASIS_CONVENTION,
                "amplitudes": np.column_stack((state.real, state.imag)),
            },
            "frame": FRAME,
        }


def marginal_counts(
    state: np.ndarray, ions: tuple[int, ...], rng: np.random.Generator, shots: int
) -> dict[str, int]:
    """Counts of `shots` z measurements of `ions`, by outcome label, in label order; unseen outcomes left out."""
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    draws = rng.choice(probs.size, size=shots, p=probs)
    tally = np.bincount(outcome_indices(draws, ions))
    seen = np.flatnonzero(tally)
    return dict(zip(outcome_labels(seen, len(ions)), tally[seen].tolist()))


def interpret(
    program: PulseProgram,
    coupling: np.ndarray,
    initial: str,
    seed: int,
    shots: int = 100,
) -> RunRecord:
    """Execute a program on the register whose J matrix (rad/s) is `coupling`.

    The register evolves in the synthesizer frame (FRAME), where the energy
    table holds only the J terms. A pulse's tone is its detune, and its phase
    is shifted by -2 pi detune t_start so that the synthesizer stays phase
    coherent across the whole sequence. A pulse or delay that takes the
    sequence time past the largest double, or leaves the state non-finite or
    its norm off 1 by more than NORM_TOLERANCE, raises ProgramRuntimeError.
    """
    n = len(coupling)
    if program.n_ions != n:
        raise ValueError(f"program declares {program.n_ions} ions but the coupling matrix has {n}")
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}, got {shots}")
    hamiltonian = SpinHamiltonian(coupling)
    state = initialize(n, initial)
    rng = np.random.default_rng(seed)
    record = RunRecord(n_qubits=n, initial_label=initial, seed=seed, shots=shots)
    t = 0.0

    for ins in program.instructions:
        try:
            if isinstance(ins, Pulse):
                omega_r = 2.0 * math.pi * ins.rabi_hz
                tone = 2.0 * math.pi * ins.detune_hz
                with np.errstate(over="ignore", invalid="ignore"):  # the norm check below reports it
                    apply_pulse(state, hamiltonian, ins.ion, omega_r, tone, ins.phase_rad - tone * t, ins.duration_s)
                t += ins.duration_s
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
        if not math.isfinite(t):
            raise ProgramRuntimeError(f"sequence time {t!r} s is not finite", ins.span)
        # einsum, not np.linalg.norm or a dot: their BLAS call leaves OpenBLAS threads spinning afterwards
        parts = state.view(np.float64)
        norm = math.sqrt(float(np.einsum("i,i->", parts, parts)))
        if not abs(1.0 - norm) <= NORM_TOLERANCE:  # NaN compares false: a non-finite state fails too
            raise ProgramRuntimeError(f"state norm {norm!r} is not within {NORM_TOLERANCE:g} of 1", ins.span)

    record.final_state = state
    record.total_time_s = t
    return record
