"""Per-layer metrics from the spans of traced jobs.

Self time is attributed on one time line per job. Between two span
boundaries, every thread's innermost open span is a candidate; a span
that is an ancestor of another candidate is waiting for it and drops out;
the interval is split evenly among the rest. With one thread this is the
usual span-minus-children self time. With sweep points in pool threads,
which share the interpreter lock, it splits wall time between them
instead of counting it twice, so the layer times add up to the traced
wall time. A span that opens on a thread with an empty stack (a pool
thread) is a child of the innermost span open on the job's main thread
at that moment, the cmd_* call that started the pool.

Each span's self time goes to the first bucket found walking up from it,
so stationarity_residual counts under chain.equilibrium_s and
parse_quantity under whichever of config, pulse or cli called it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

BUCKETS = {
    "chain.solve_equilibrium": "chain.equilibrium_s",
    "chain.normal_modes": "chain.normal_modes_s",
    "chain.solve_chain": "chain.solve_self_s",   # its own arithmetic: microseconds, not reported
    "coupling.build_report": "coupling.build_report_s",
    "spins.diagonal_rates": "spins.diagonal_rates_s",
    "spins.apply_pulse": "spins.pulse_self_s",
    "spins.free_evolution": "spins.free_evolution_self_s",
    "spins.expectation": "spins.expectation_s",
    "pulse.parse": "pulse.parse_s",
    "pulse.interpret": "pulse.interpret_self_s",
    "pulse.marginal_counts": "pulse.sample_s",
    "config.load_config": "config.load_s",
    "config.validate_config": "config.load_s",
    "cli.import": "cli.import_s",
}
CLI_BUCKET = "cli.self_s"

# layer times reported as metrics; together they should cover a traced job's wall time
TIMES = [
    "chain.equilibrium_s", "chain.normal_modes_s", "coupling.build_report_s",
    "spins.diagonal_rates_s", "spins.pulse_self_s", "spins.free_evolution_self_s", "spins.expectation_s",
    "pulse.parse_s", "pulse.interpret_self_s", "pulse.sample_s", "config.load_s", "cli.self_s", "cli.import_s",
]


def _bucket(name: str) -> str | None:
    return CLI_BUCKET if name.startswith("cli.cmd_") else BUCKETS.get(name)


def job_profile(spans_path: Path) -> dict:
    """Layer self times (s) and the work counts of one traced job."""
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = {s[0]: s for s in doc["spans"]}
    main = doc["main_thread"]
    parent = {sid: s[4] for sid, s in spans.items()}

    main_spans = [s for s in spans.values() if s[5] == main]
    for sid, s in spans.items():
        if s[4] == 0 and s[5] != main:
            enclosing = [m for m in main_spans if m[2] <= s[2] <= m[3]]
            parent[sid] = max(enclosing, key=lambda m: m[2])[0] if enclosing else 0

    def ancestors(sid: int) -> set[int]:
        out = set()
        while (sid := parent[sid]) != 0:
            out.add(sid)
        return out

    events = sorted([(s[2], 1, sid) for sid, s in spans.items()] + [(s[3], 0, sid) for sid, s in spans.items()])
    stacks: dict[int, list[int]] = defaultdict(list)
    self_ns: dict[int, float] = defaultdict(float)
    last = None
    for t, is_start, sid in events:
        tops = [stack[-1] for stack in stacks.values() if stack]
        if tops and t > last:
            if len(tops) > 1:
                waiting = set().union(*(ancestors(top) for top in tops))
                tops = [top for top in tops if top not in waiting]
            share = (t - last) / len(tops)
            for top in tops:
                self_ns[top] += share
        last = t
        stack = stacks[spans[sid][5]]
        if is_start:
            stack.append(sid)
        else:
            stack.remove(sid)

    bucket_of: dict[int, str | None] = {}

    def bucket(sid: int) -> str | None:
        if sid not in bucket_of:
            own = _bucket(spans[sid][1])
            bucket_of[sid] = own if own or parent[sid] == 0 else bucket(parent[sid])
        return bucket_of[sid]

    times: dict[str, float] = defaultdict(float)
    for sid, ns in self_ns.items():
        times[bucket(sid) or "unattributed_s"] += ns * 1e-9

    names = Counter(s[1] for s in spans.values())
    newton = sum(1 for sid, s in spans.items()
                 if s[1] == "chain.dynamical_matrix" and spans.get(parent[sid], (0, ""))[1] == "chain.solve_equilibrium")
    hamiltonians = {s[6] for s in spans.values() if s[1] == "spins.diagonal_rates"}
    counts = {
        "equilibrium_solves": names["chain.solve_equilibrium"],
        "residual_evals": names["chain.stationarity_residual"],
        "newton_steps": newton,
        "chain_solves": names["chain.solve_chain"],
        "distinct_n": len({s[6] for s in spans.values() if s[1] == "chain.solve_chain"}),
        "diagonal_rates_calls": names["spins.diagonal_rates"],
        "hamiltonians": len(hamiltonians),
        "shots": sum(s[6] for s in spans.values() if s[1] == "pulse.marginal_counts"),
        "parse_calls": names["units.parse_quantity"],
    }
    return {"times": dict(times), "counts": counts}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(profiles: list[dict], job_walls: list[float], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced round: layer times and counts summed over its jobs."""
    times: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    for p in profiles:
        for name, value in p["times"].items():
            times[name] += value
        counts.update(p["counts"])
    metrics = {name: times.get(name, 0.0) for name in TIMES}
    metrics.update({
        "chain.residual_evals": _ratio(counts["residual_evals"], counts["equilibrium_solves"]),
        "chain.newton_steps": _ratio(counts["newton_steps"], counts["equilibrium_solves"]),
        "chain.solves_per_n": _ratio(counts["chain_solves"], counts["distinct_n"]),
        "spins.diagonal_rates_calls": float(counts["diagonal_rates_calls"]),
        "spins.rates_per_hamiltonian": _ratio(counts["diagonal_rates_calls"], counts["hamiltonians"]),
        "pulse.shots": float(counts["shots"]),
        "units.parse_calls": float(counts["parse_calls"]),
        "cli.bytes_written": float(bytes_written),
        "trace.self_share": _ratio(sum(times[name] for name in TIMES), sum(job_walls)),
    })
    return metrics
