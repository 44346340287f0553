"""Output checks for the benchmark's CLI jobs.

Each check compares a job's output files with values derived from
perfbench/reference.json or computed here without gradchain (this module
never imports it). Only quantities that do not depend on the mode-sign
convention are compared: positions, mode eigenvalues and frequencies, J
matrices, sideband offsets from the carrier, and spin populations. Any
NaN or infinity in an output file fails the job. Every check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

REL = 1e-9          # relative tolerance of geometry, mode and J comparisons
SPIN_ABS = 1e-5     # absolute tolerance of <sz>, and of the total variation distance of the final state
NORM_ABS = 1e-9     # allowed |1 - <psi|psi>| of the final state
SIGMAS = 6.0        # binomial tolerance of sampled populations

_UNITS = {
    "": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9,
    "s": 1.0, "ms": 1e-3, "us": 1e-6, "T": 1.0, "T/m": 1.0,
    "rad": 1.0, "pi": math.pi, "deg": math.pi / 180.0,
}
_QUANTITY_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(\S*)\s*$")


def quantity(value) -> float:
    """SI value of a config or program quantity such as "100kHz" or 0.5."""
    if isinstance(value, (int, float)):
        return float(value)
    m = _QUANTITY_RE.match(value)
    if m is None or m.group(2) not in _UNITS:
        raise ValueError(f"unsupported quantity {value!r}")
    return float(m.group(1)) * _UNITS[m.group(2)]


class Reference:
    """Stored chain geometry and Yb171 constants, with the values derived from them."""

    def __init__(self, doc: dict):
        self.kappa = doc["kappa_rad_per_s_per_tesla"]
        self.hbar_over_2m = doc["hbar_over_2m"]
        self.zeta_1hz = doc["zeta_m_at_1hz"]
        self._positions = {int(n): np.array(u) for n, u in doc["positions"].items()}
        self._inverse: dict[int, np.ndarray] = {}
        self._eigenvalues: dict[int, np.ndarray] = {}

    @classmethod
    def load(cls) -> "Reference":
        path = Path(__file__).resolve().parent / "reference.json"
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def positions(self, n: int) -> np.ndarray:
        return self._positions[n]

    def dynamical_matrix(self, n: int) -> np.ndarray:
        u = self._positions[n]
        d = np.abs(u[:, None] - u[None, :])
        np.fill_diagonal(d, np.inf)
        a = -2.0 * d**-3
        np.fill_diagonal(a, 1.0 + 2.0 * np.sum(d**-3, axis=1))
        return a

    def eigenvalues(self, n: int) -> np.ndarray:
        if n not in self._eigenvalues:
            self._eigenvalues[n] = np.linalg.eigvalsh(self.dynamical_matrix(n))
        return self._eigenvalues[n]

    def zeta_m(self, nu1_hz: float) -> float:
        return self.zeta_1hz * nu1_hz ** (-2.0 / 3.0)

    def j_matrix_hz(self, n: int, nu1_hz: float, gradients: np.ndarray) -> np.ndarray:
        """J/2pi in Hz for field gradients B'(z_n) in T/m at the ions."""
        if n not in self._inverse:
            self._inverse[n] = np.linalg.inv(self.dynamical_matrix(n))
        w1 = 2.0 * math.pi * nu1_hz
        g = self.kappa * np.asarray(gradients, dtype=float)
        j = self.hbar_over_2m / w1**2 * np.outer(g, g) * self._inverse[n]
        np.fill_diagonal(j, 0.0)
        return j / (2.0 * math.pi)

    def gradients(self, trap: dict) -> np.ndarray:
        """B'(z_n) at the equilibrium positions of a uniform or quadratic trap config."""
        n, nu1_hz = trap["N"], quantity(trap["nu1"])
        field = trap["field"]
        if "uniform" in field:
            return np.full(n, quantity(field["uniform"]["b"]))
        quad = field["quadratic"]
        z = self.zeta_m(nu1_hz) * self._positions[n]
        return quantity(quad["b"]) + 2.0 * quantity(quad["c"]) * z


def _close(name: str, got, want, rel: float = REL) -> list[str]:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(got - want))) / scale if scale else float(np.max(np.abs(got), initial=0.0))
    return [] if err <= rel else [f"{name}: relative error {err:.2e} > {rel:.0e}"]


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def nonfinite(out_dir: Path) -> list[str]:
    """NaN or infinity anywhere in the JSON, CSV or .dat files of a job."""
    problems = []
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            bad: list[str] = []
            json.loads(text, parse_constant=bad.append)
        else:
            bad = [tok for tok in re.split(r"[,\s]+", text) if _is_nonfinite(tok)]
        if bad:
            problems.append(f"{path.name}: non-finite value {bad[0]}")
    return problems


def _is_nonfinite(token: str) -> bool:
    try:
        return not math.isfinite(float(token))
    except ValueError:
        return False


def check_chain(out: Path, ref: Reference, n: int, nu1_hz: float) -> list[str]:
    doc = json.loads((out / "chain.json").read_text(encoding="utf-8"))
    u = ref.positions(n)
    lam = ref.eigenvalues(n)
    zeta = ref.zeta_m(nu1_hz)
    return (
        _close("positions_dimensionless", doc["positions_dimensionless"], u)
        + _close("length_scale_m", doc["length_scale_m"], zeta)
        + _close("positions_m", doc["positions_m"], zeta * u)
        + _close("mode_eigenvalues", doc["mode_eigenvalues"], lam)
        + _close("mode_frequencies_hz", doc["mode_frequencies_hz"], nu1_hz * np.sqrt(lam))
    )


def check_couplings(
    out: Path, ref: Reference, n: int, nu1_hz: float, gradients, golden_max_j: float | None = None
) -> list[str]:
    want = ref.j_matrix_hz(n, nu1_hz, gradients)
    header, rows = _read_rows(out / "j_matrix.csv")
    csv_j = [[float(x) for x in row[1:]] for row in rows]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = _close("j_matrix.csv", csv_j, want) + _close("j_matrix_hz", report["j_matrix_hz"], want)
    if len(header) != n + 1:
        problems.append(f"j_matrix.csv: {len(header) - 1} columns, expected {n}")
    if golden_max_j is not None:
        max_j = float(np.max(np.abs(report["j_matrix_hz"])))
        problems += _close("max_J against tests/golden", max_j, golden_max_j, rel=1e-10)
    return problems


def check_spectrum(out: Path, ref: Reference, n: int, nu1_hz: float) -> list[str]:
    """Sidebands sit -/+ nu_n from the carrier, whose own offset is sign-convention dependent."""
    _, rows = _read_rows(out / "spectrum.csv")
    lines = {label: (float(offset), float(amp)) for offset, amp, label in rows}
    if len(rows) != 2 * n + 1 or "carrier" not in lines:
        return [f"spectrum.csv: {len(rows)} lines, expected {2 * n + 1} with a carrier"]
    carrier, carrier_amp = lines["carrier"]
    nu = nu1_hz * np.sqrt(ref.eigenvalues(n))
    blue = [lines[f"blue_{m}"][0] - carrier for m in range(1, n + 1)]
    red = [carrier - lines[f"red_{m}"][0] for m in range(1, n + 1)]
    problems = _close("blue sideband offsets", blue, nu) + _close("red sideband offsets", red, nu)
    if carrier_amp != 1.0:
        problems.append(f"carrier amplitude {carrier_amp}, expected 1")
    if any(lines[f"red_{m}"][1] != lines[f"blue_{m}"][1] or lines[f"red_{m}"][1] <= 0 for m in range(1, n + 1)):
        problems.append("red and blue sideband amplitudes differ or are not positive")
    return problems


def check_sweep(out: Path, ref: Reference, n: int, nu1_hz: float) -> list[str]:
    """max_J of a sweep over the uniform field gradient field.uniform.b."""
    header, rows = _read_rows(out / "sweep.csv")
    if header != ["field.uniform.b", "max_J"]:
        return [f"sweep.csv: header {header}"]
    got, want = [], []
    for b, max_j in rows:
        got.append(float(max_j))
        want.append(float(np.max(np.abs(ref.j_matrix_hz(n, nu1_hz, np.full(n, float(b)))))))
    return _close("sweep max_J / expected", np.array(got) / np.array(want), np.ones(len(want)))


# spin dynamics -------------------------------------------------------------

def parse_program(text: str) -> tuple[int, list[tuple]]:
    """The pulse-program subset the benchmark runs: pulse, delay, log sz, measure z."""
    n, ops = 0, []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        word, rest = tokens[0], tokens[1:]
        if word == "ions":
            n = int(rest[0])
        elif word == "pulse":
            f = dict(tok.split("=", 1) for tok in rest)
            area = quantity(f["area"]) / math.pi if "area" in f else None
            dur = quantity(f["dur"]) if "dur" in f else None
            ops.append(("pulse", int(f["ion"]), quantity(f["rabi"]), quantity(f["detune"]),
                        quantity(f["phase"]), area, dur))
        elif word == "delay":
            ops.append(("delay", quantity(rest[0])))
        elif word in ("log", "measure"):
            if rest[0] != ("sz" if word == "log" else "z"):
                raise ValueError(f"reference supports only 'log sz' and 'measure z': {line!r}")
            ions = None if rest[1] == "all" else [int(i) for i in "".join(rest[1:]).split(",")]
            ops.append((word, ions))
        else:
            raise ValueError(f"unsupported instruction {line!r}")
    return n, ops


def spin_reference(n: int, j_hz: np.ndarray, ops: list[tuple], initial: str) -> dict:
    """Exact RWA evolution in each qubit's rotating frame.

    In that frame the carrier frequencies and gradient shifts drop out;
    only J, the detunings, the Rabi rates and the synthesizer phases remain.
    So the result does not depend on the shifts or on the mode-sign
    convention. Returns the logged <sz> values, the per-ion |1>
    probabilities at each measurement and the final basis probabilities.
    """
    dim = 1 << n
    index = np.arange(dim)
    bit = [(index >> q) & 1 for q in range(n)]
    sz = [2.0 * b - 1.0 for b in bit]
    j = 2.0 * math.pi * np.asarray(j_hz)
    energy = np.zeros(dim)
    for a in range(n):
        for c in range(a + 1, n):
            energy -= 0.5 * j[a, c] * sz[a] * sz[c]
    amp = np.zeros(dim, dtype=complex)
    amp[sum(1 << q for q, ch in enumerate(initial) if ch == "1")] = 1.0
    t = 0.0
    logs, measures = [], []
    for op in ops:
        if op[0] == "pulse":
            _, ion, rabi_hz, detune_hz, phase, area_pi, dur = op
            rabi = 2.0 * math.pi * rabi_hz
            detune = 2.0 * math.pi * detune_hz
            tau = dur if dur is not None else area_pi * math.pi / rabi
            phi = phase - detune * t
            mask = 1 << (ion - 1)
            b0 = index[(index & mask) == 0]
            b1 = b0 | mask
            delta = energy[b1] - energy[b0] - detune
            w = np.hypot(delta, rabi)
            s = np.sin(0.5 * w * tau)
            c = np.cos(0.5 * w * tau)
            with np.errstate(invalid="ignore", divide="ignore"):
                dw = np.where(w > 0, delta / w, 0.0)
                rw = np.where(w > 0, rabi / w, 0.0)
            common = np.exp(-0.5j * delta * tau - 1j * energy[b0] * tau)
            a0, a1 = amp[b0], amp[b1]
            amp[b0] = common * ((c + 1j * dw * s) * a0 - 1j * rw * s * np.exp(-1j * phi) * a1)
            amp[b1] = common * np.exp(-1j * detune * tau) * (
                -1j * rw * s * np.exp(1j * phi) * a0 + (c - 1j * dw * s) * a1)
            t += tau
        elif op[0] == "delay":
            amp *= np.exp(-1j * energy * op[1])
            t += op[1]
        else:
            probs = np.abs(amp) ** 2
            ions = op[1] if op[1] is not None else list(range(1, n + 1))
            if op[0] == "log":
                logs += [("sz", ion, float(sz[ion - 1] @ probs)) for ion in ions]
            else:
                measures.append((ions, np.array([float(bit[ion - 1] @ probs) for ion in ions])))
    return {"logs": logs, "measures": measures, "probs": np.abs(amp) ** 2}


def check_simulate(out: Path, expected: dict, shots: int, exact_counts: dict | None = None) -> list[str]:
    doc = json.loads((out / "run.json").read_text(encoding="utf-8"))
    amps = np.array(doc["final_state"]["amplitudes"])
    probs = amps[:, 0] ** 2 + amps[:, 1] ** 2
    problems = []
    if abs(probs.sum() - 1.0) > NORM_ABS:
        problems.append(f"final state norm^2 {probs.sum():.15g}")
    distance = 0.5 * float(np.sum(np.abs(probs - expected["probs"]))) if probs.shape == expected["probs"].shape else 1.0
    if distance > SPIN_ABS:
        problems.append(f"final basis probabilities at total variation distance {distance:.2e}")
    logs = [(e["observable"], e["ion"], e["value"]) for e in doc["expectation_log"]]
    if [x[:2] for x in logs] != [x[:2] for x in expected["logs"]]:
        problems.append("expectation log entries differ from the program's log instructions")
    elif logs:
        err = max(abs(a[2] - b[2]) for a, b in zip(logs, expected["logs"]))
        if err > SPIN_ABS:
            problems.append(f"logged sz off by {err:.2e}")
    if len(doc["measurements"]) != len(expected["measures"]):
        problems.append("measurement count differs from the program")
        return problems
    for k, (got, (ions, p1)) in enumerate(zip(doc["measurements"], expected["measures"])):
        counts = got["counts"]
        if got["ions"] != list(ions) or sum(counts.values()) != shots:
            problems.append(f"measurement {k}: ions {got['ions']} or shot total {sum(counts.values())}")
            continue
        measured = np.array([
            sum(c for label, c in counts.items() if label[i] == "1") for i in range(len(ions))
        ]) / shots
        p = np.clip(p1, 0.0, 1.0)
        tol = SIGMAS * np.sqrt(p * (1.0 - p) / shots) + 1.0 / shots
        worst = int(np.argmax(np.abs(measured - p1) - tol))
        if abs(measured[worst] - p1[worst]) > tol[worst]:
            problems.append(f"measurement {k}: ion {ions[worst]} |1> population "
                            f"{measured[worst]:.4f}, expected {p1[worst]:.4f}")
    if exact_counts is not None and doc["measurements"][-1]["counts"] != exact_counts:
        problems.append(f"counts {doc['measurements'][-1]['counts']}, expected {exact_counts}")
    return problems
