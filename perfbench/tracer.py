"""Run one gradchain CLI job with a span around every call into each layer.

    python3 perfbench/tracer.py SPANS_JSON JOB_ID -- <gradchain arguments>

Wrappers are installed from outside the package: each traced function is
replaced at every gradchain module attribute that binds it, which is
where callers look it up (cli.load_config, pulse.apply_pulse, and so on).
A span records its name, start and end (perf_counter_ns), parent span,
job id and thread id. Parents come from a per-thread stack, so spans of
sweep points running in pool threads start without a parent. Spans stay
in memory and are written to SPANS_JSON when the job ends. One more span,
cli.import, times the import of gradchain.cli before the wrappers go in.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# module -> traced functions; cli.cmd_* are added at install time
TARGETS = {
    "chain": ("solve_chain", "solve_equilibrium", "stationarity_residual", "dynamical_matrix", "normal_modes"),
    "coupling": ("build_report",),
    "pulse": ("parse", "interpret", "apply_pulse", "free_evolution", "expectation", "marginal_counts"),
    "spins": ("diagonal_rates",),
    "config": ("load_config", "validate_config"),
    "units": ("parse_quantity",),
}


def _hamiltonian_key(args, kwargs):
    h = args[0] if args else kwargs["h"]
    return hash((h.omega_eff.tobytes(), h.coupling.tobytes()))


# span name -> value recorded with the span, for counts that need an argument
NOTES = {
    "chain.solve_chain": lambda args, kwargs: (args[0] if args else kwargs["config"]).ion_count,
    "spins.diagonal_rates": _hamiltonian_key,
    "pulse.marginal_counts": lambda args, kwargs: args[3] if len(args) > 3 else kwargs["shots"],
}


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans = self.spans
        local = self._local
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, name, start, end, parent, threading.get_ident(),
                              note(args, kwargs) if note else None))

        return traced

    def install(self) -> None:
        start = time.perf_counter_ns()
        import gradchain.cli

        self.spans.append((next(self._ids), "cli.import", start, time.perf_counter_ns(), 0,
                           threading.get_ident(), None))
        modules = [m for name, m in sys.modules.items() if name == "gradchain" or name.startswith("gradchain.")]
        targets = {mod: list(names) for mod, names in TARGETS.items()}
        targets["cli"] = [name for name in vars(gradchain.cli) if name.startswith("cmd_")]
        for mod, names in targets.items():
            home = sys.modules[f"gradchain.{mod}"]
            for fname in names:
                original = getattr(home, fname)
                layer = original.__module__.rsplit(".", 1)[-1]   # pulse.apply_pulse is spins.apply_pulse
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def dump(self, path: str) -> None:
        doc = {"job": self.job, "main_thread": threading.main_thread().ident,
               "fields": ["id", "name", "start_ns", "end_ns", "parent", "thread", "note"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def main(argv: list[str]) -> int:
    spans_path, job, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON JOB_ID -- <gradchain arguments>")
    tracer = Tracer(job)
    tracer.install()
    import gradchain.cli

    try:
        return gradchain.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
