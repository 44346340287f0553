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
from dataclasses import dataclass

import numpy as np

from .chain import SolverError
from .units import ANGLE, FREQUENCY, TIME, QuantityError, read_integer, read_value
from .spins import (
    SpinHamiltonian,
    apply_pulse,
    diagonal_rates,
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


class ProgramRuntimeError(SolverError):
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
    ions: tuple[int, ...]
    span: SourceSpan


@dataclass(frozen=True)
class ExpectationLog:
    observable: str  # sx | sy | sz
    ions: tuple[int, ...]
    span: SourceSpan


Instruction = Pulse | Delay | MeasureZ | ExpectationLog


@dataclass(frozen=True)
class PulseProgram:
    n_ions: int
    instructions: tuple[Instruction, ...]


_TOKEN_RE = re.compile(r"\S+")
_PULSE_KEYS = ("ion", "rabi", "detune", "phase", "area", "dur")
_REQUIRED_PULSE_KEYS = ("ion", "rabi", "detune", "phase")


def _tokens(line: str, line_no: int) -> list[tuple[str, SourceSpan]]:
    """(token, span of its first character) pairs of line `line_no`; a `#` comment is dropped."""
    return [(m.group(0), SourceSpan(line_no, m.start() + 1)) for m in _TOKEN_RE.finditer(line.partition("#")[0])]


def _read(reader, text: str, span: SourceSpan, arg: str, nonnegative: str = ""):
    """reader(text, arg) of gradchain.units; its QuantityError becomes a PulseProgramError at `span`,
    as does a value below zero if `nonnegative` names it: "<nonnegative> must be non-negative"."""
    try:
        value = reader(text, arg)
    except QuantityError as exc:
        raise PulseProgramError(str(exc), span) from exc
    if nonnegative and value < 0:
        raise PulseProgramError(f"{nonnegative} must be non-negative", span)
    return value


def _ion(text: str, span: SourceSpan, n_ions: int) -> int:
    """A pulse's `ion=` or one ion-list entry: an ion index, 1 to n_ions."""
    ion = _read(read_integer, text, span, "integer ion index")
    if not 1 <= ion <= n_ions:
        raise PulseProgramError(f"ion index {ion} out of range [1, {n_ions}]", span)
    return ion


def _parse_ion_set(tokens: list[tuple[str, SourceSpan]], n_ions: int) -> tuple[int, ...]:
    """The ion list of a measure or log line, tokens[2:] of it; 'all' is every ion, 1 to n_ions.

    Whitespace may stand next to a comma, never in its place: two tokens
    with no comma between them are an error at the second.
    """
    last, last_span = tokens[-1]
    if len(tokens) < 3:
        raise PulseProgramError("expected an ion list or 'all'", SourceSpan(last_span.line, last_span.col + len(last)))
    for (before, _), (tok, span) in zip(tokens[2:], tokens[3:]):
        if not (before.endswith(",") or tok.startswith(",")):
            raise PulseProgramError(f"expected ',' between ion list entries, got {tok!r}", span)
    chars = [(ch, span.col + i) for tok, span in tokens[2:] for i, ch in enumerate(tok)]
    joined = "".join(ch for ch, _ in chars)
    if joined == "all":
        return tuple(range(1, n_ions + 1))
    ions = []
    start = 0  # index of an entry's first character in `joined`; an empty last entry is past the end
    for part in joined.split(","):
        span = SourceSpan(last_span.line, chars[start][1] if start < len(chars) else chars[-1][1] + 1)
        start += len(part) + 1
        ion = _ion(part, span, n_ions)
        if ion in ions:
            raise PulseProgramError(f"ion {ion} listed twice", span)
        ions.append(ion)
    return tuple(ions)


def _parse_pulse(tokens: list[tuple[str, SourceSpan]], n_ions: int) -> Pulse:
    span = tokens[0][1]
    fields: dict[str, tuple[str, SourceSpan]] = {}
    for tok, key_span in tokens[1:]:
        if "=" not in tok:
            raise PulseProgramError(f"expected key=value, got {tok!r}", key_span)
        key, _, value = tok.partition("=")
        if key not in _PULSE_KEYS:
            raise PulseProgramError(f"unknown pulse field {key!r}", key_span)
        if key in fields:
            raise PulseProgramError(f"duplicate pulse field {key!r}", key_span)
        if key in ("area", "dur") and ("area" in fields or "dur" in fields):
            raise PulseProgramError("pulse takes either area or dur, not both", key_span)
        fields[key] = (value, SourceSpan(key_span.line, key_span.col + len(key) + 1))

    for key in _REQUIRED_PULSE_KEYS:
        if key not in fields:
            raise PulseProgramError(f"pulse is missing required field {key!r}", span)
    if "area" not in fields and "dur" not in fields:
        raise PulseProgramError("pulse needs either area or dur", span)

    ion = _ion(*fields["ion"], n_ions)
    rabi = _read(read_value, *fields["rabi"], FREQUENCY, "rabi")
    detune = _read(read_value, *fields["detune"], FREQUENCY)
    phase = _read(read_value, *fields["phase"], ANGLE)

    if "area" in fields:
        area_text, area_span = fields["area"]
        if not area_text.endswith("pi"):
            raise PulseProgramError("pulse areas take only the 'pi' suffix", area_span)
        area = _read(read_value, area_text, area_span, ANGLE, "area") / math.pi  # in pi; the duration rounds from it
        if rabi == 0.0:
            raise PulseProgramError("area-specified pulse needs rabi > 0", fields["rabi"][1])
        duration = area * math.pi / (2.0 * math.pi * rabi)
        if not math.isfinite(duration):
            raise PulseProgramError(f"pulse duration {duration!r} s is not finite", fields["rabi"][1])
    else:
        duration = _read(read_value, *fields["dur"], TIME, "dur")
    return Pulse(ion, rabi, detune, phase, duration, span)


def parse(source: str) -> PulseProgram:
    """Parse DSL text into a validated PulseProgram."""
    n_ions = None
    instructions: list[Instruction] = []

    for line_no, line in enumerate(source.splitlines(), start=1):
        tokens = _tokens(line, line_no)
        if not tokens:
            continue
        keyword, kw_span = tokens[0]

        if keyword == "ions":
            if n_ions is not None:
                raise PulseProgramError("duplicate 'ions' header", kw_span)  # a header after an instruction too
            if len(tokens) != 2:
                raise PulseProgramError("usage: ions <count>", kw_span)
            n_ions = _read(read_integer, *tokens[1], "integer ion count")
            if n_ions < 1:
                raise PulseProgramError(f"ion count must be positive, got {n_ions}", tokens[1][1])
            continue

        if n_ions is None:
            raise PulseProgramError("program must start with an 'ions <count>' header", kw_span)

        if keyword == "pulse":
            instructions.append(_parse_pulse(tokens, n_ions))
        elif keyword == "delay":
            if len(tokens) != 2:
                raise PulseProgramError("usage: delay <duration>", kw_span)
            instructions.append(Delay(_read(read_value, *tokens[1], TIME, "delay"), kw_span))
        elif keyword == "measure":
            if len(tokens) < 2 or tokens[1][0] != "z":
                raise PulseProgramError("only z-basis measurement is supported: measure z <ions|all>", kw_span)
            instructions.append(MeasureZ(_parse_ion_set(tokens, n_ions), kw_span))
        elif keyword == "log":
            if len(tokens) < 2 or tokens[1][0] not in ("sx", "sy", "sz"):
                raise PulseProgramError("usage: log <sx|sy|sz> <ions|all>", kw_span)
            instructions.append(ExpectationLog(tokens[1][0], _parse_ion_set(tokens, n_ions), kw_span))
        else:
            raise PulseProgramError(f"unknown keyword {keyword!r}", kw_span)

    if n_ions is None:
        raise PulseProgramError("program is empty", SourceSpan(1, 1))
    return PulseProgram(n_ions, tuple(instructions))


@dataclass(frozen=True)
class RunRecord:
    """Everything one program execution produced."""

    initial_label: str         # one character per qubit
    seed: int
    shots: int
    expectation_log: list[dict]
    measurements: list[dict]
    histogram: dict[str, int]  # the last measurement's counts; not in run.json
    final_state: np.ndarray    # complex amplitudes, basis order of gradchain.spins
    total_time_s: float        # simulated sequence time

    def to_json_dict(self) -> dict:
        """run.json's document.

        The final state is a (2^n, 2) float array of [real, imag] rows.
        """
        return {
            "n_qubits": len(self.initial_label),
            "initial": self.initial_label,
            "seed": self.seed,
            "shots": self.shots,
            "sequence_duration_s": self.total_time_s,
            "expectation_log": self.expectation_log,
            "measurements": self.measurements,
            "final_state": {
                "basis_convention": BASIS_CONVENTION,
                "amplitudes": np.column_stack((self.final_state.real, self.final_state.imag)),
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


def interpret(program: PulseProgram, coupling: np.ndarray, initial: str, seed: int, shots: int) -> RunRecord:
    """Execute a program on the register whose J matrix (rad/s) is `coupling`.

    The register evolves in the synthesizer frame (FRAME), where the energy
    table holds only the J terms. A pulse's tone is its detune, and its phase
    is shifted by -2 pi detune t_start so that the synthesizer stays phase
    coherent across the whole sequence. A pulse or delay that takes the
    sequence time past the largest double, or leaves the state non-finite or
    its norm off 1 by more than NORM_TOLERANCE, raises ProgramRuntimeError.

    One generator, seeded with `seed`, draws every shot. The record's
    histogram is the last measurement's counts; a program without a
    measurement gets a final one of all ions from the same generator.
    """
    n = len(coupling)
    if program.n_ions != n:
        raise ValueError(f"program declares {program.n_ions} ions but the coupling matrix has {n}")
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}, got {shots}")
    state = initialize(n, initial)  # checks the register size before the 2^n table below
    rates = diagonal_rates(SpinHamiltonian(coupling))
    rng = np.random.default_rng(seed)
    log: list[dict] = []
    measurements: list[dict] = []
    t = 0.0

    for ins in program.instructions:
        try:
            if isinstance(ins, Pulse):
                omega_r = 2.0 * math.pi * ins.rabi_hz
                tone = 2.0 * math.pi * ins.detune_hz
                with np.errstate(over="ignore", invalid="ignore"):  # the norm check below reports it
                    apply_pulse(state, rates, ins.ion, omega_r, tone, ins.phase_rad - tone * t, ins.duration_s)
                t += ins.duration_s
            elif isinstance(ins, Delay):
                with np.errstate(over="ignore", invalid="ignore"):
                    free_evolution(state, rates, ins.duration_s)
                t += ins.duration_s
            elif isinstance(ins, MeasureZ):
                measurements.append(
                    {"time_s": t, "ions": list(ins.ions), "counts": marginal_counts(state, ins.ions, rng, shots)}
                )
            else:
                for ion in ins.ions:
                    log.append({"time_s": t, "observable": ins.observable, "ion": ion,
                                "value": expectation(state, ins.observable, ion)})
        except (ValueError, RuntimeError) as exc:
            raise ProgramRuntimeError(str(exc), ins.span) from exc
        if not math.isfinite(t):
            raise ProgramRuntimeError(f"sequence time {t!r} s is not finite", ins.span)
        # einsum, not np.linalg.norm or a dot: those call BLAS, which starts OpenBLAS's threads (README, BLAS threads)
        parts = state.view(np.float64)
        norm = math.sqrt(float(np.einsum("i,i->", parts, parts)))
        if not abs(1.0 - norm) <= NORM_TOLERANCE:  # NaN compares false: a non-finite state fails too
            raise ProgramRuntimeError(f"state norm {norm!r} is not within {NORM_TOLERANCE:g} of 1", ins.span)

    histogram = (measurements[-1]["counts"] if measurements
                 else marginal_counts(state, tuple(range(1, n + 1)), rng, shots))
    return RunRecord(initial_label=initial, seed=seed, shots=shots, expectation_log=log,
                     measurements=measurements, histogram=histogram, final_state=state, total_time_s=t)
