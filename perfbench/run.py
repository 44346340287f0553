"""gradchain benchmark: runs one workload as real CLI jobs and prints its metrics.

    python3 perfbench/run.py --workload register_16q|cli_mix \\
        --seed N --seconds S --trace 0|1

Run it from the root of a gradchain checkout. One client runs the
workload's round of jobs (see workloads.py) in a closed loop, each job a
fresh `python -m gradchain` process, for S seconds: after the first
round, a job runs only if its previous wall time says it ends in time.
Every job's outputs are checked (checks.py); a job that exits nonzero or
fails its check counts as failed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
rounds with rounds whose jobs run under tracer.py and prints the
per-layer metrics (layers.py). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Inputs, outputs, spans and a result record go to perfbench/work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
SETUP_EVERY_S = 3.0      # one setup_s and one probe_s sample per this many seconds of the run, between jobs
JOB_TIMEOUT_S = 60.0     # a job that hangs fails, and the run still ends within 180 s
TAIL_BEYOND = 10        # job_tail_s is the highest percentile with this many jobs beyond it
THREAD_VARS = ("GRADCHAIN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "PYTHONPATH")

E2E_UNITS = {"setup_s": "s", "wall_per_probe": "ratio", "job_p50_per_probe": "ratio", "peak_rss_mb": "MB"}
# The host probe: a fresh interpreter that imports what gradchain imports
# from numpy and the standard library, but not gradchain, so no change to
# the repository moves its time. The speed this shared host gives a run
# drifts by up to 50% over minutes, and the probe's run median follows
# that drift; job times divided by it do not (NOTES.md, "Steadiness").
PROBE = ("import argparse, concurrent.futures, dataclasses, datetime, json, math, os, pathlib, re, sys, time\n"
         "import numpy")
LAYER_UNITS = {name: "s" for name in layers.TIMES} | {
    "chain.residual_evals": "count/solve",
    "chain.newton_steps": "count/solve",
    "chain.solves_per_n": "ratio",
    "spins.diagonal_rates_calls": "count",
    "spins.rates_per_hamiltonian": "ratio",
    "pulse.shots": "count",
    "units.parse_calls": "count",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "trace.self_share": "ratio",
}


@dataclass
class Result:
    key: str
    wall: float          # s, process start to exit
    cpu: float           # s, user + sys of the child
    rss_mb: float        # max resident set of the child
    problems: list[str]
    bytes_written: int


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment with this checkout's src first.

    GRADCHAIN_THREADS is removed, so the sweep pool keeps its default of
    min(8, nproc) threads. Every other setting, BLAS threading included,
    is left as the caller has it.
    """
    env = dict(os.environ)
    env.pop("GRADCHAIN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], env: dict, root: Path, log_path: Path) -> tuple[float, float, float, int]:
    """Run one process to completion: (wall s, cpu s, max RSS MB, exit code)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    reaped = threading.Event()

    def kill_if_running():
        if not reaped.is_set():
            os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(JOB_TIMEOUT_S, kill_if_running)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        reaped.set()
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def run_job(job: workloads.Job, env: dict, root: Path, spans: Path | None = None) -> Result:
    shutil.rmtree(job.out_dir, ignore_errors=True)
    job.out_dir.mkdir(parents=True)
    if spans is None:
        argv = [sys.executable, "-m", "gradchain", *job.args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans), spans.stem, "--", *job.args]
    wall, cpu, rss, code = spawn(argv, env, root, job.out_dir.parent / f"{job.key}.log")
    problems = [f"exit code {code}"] if code else []
    if not problems:
        try:
            problems = job.check(job.out_dir)
        except Exception as exc:  # a malformed output fails the job, not the benchmark
            problems = [f"output check raised {exc!r}"]
    written = sum(p.stat().st_size for p in job.out_dir.rglob("*") if p.is_file())
    return Result(job.key, wall, cpu, rss, problems, written)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n=1"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def machine_info(root: Path, env: dict) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": git_commit(root),
        "thread_env": {k: env.get(k, "unset") for k in THREAD_VARS},
        "sweep_pool_threads": min(8, os.cpu_count() or 1),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def host_steal_s() -> float | None:
    """CPU time the hypervisor gave to others, all CPUs, from /proc/stat; None where unavailable."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def python_sample(source: str, env: dict, root: Path, log: Path) -> float:
    """Wall time of a fresh interpreter that runs source and exits."""
    wall, _, _, code = spawn([sys.executable, "-c", source], env, root, log)
    if code:
        raise SystemExit(f"error: python -c {source!r} exited with {code}; see {log}")
    return wall


def end_to_end(rounds: list[list[Result]], setup: list[float], probe: list[float]) -> tuple[dict, list[str]]:
    """The E2E_UNITS metrics and the printed lines of every end-to-end metric.

    wall_s and cpu_s sum, over the round's jobs, each job's median across
    the run's rounds; the last round may be cut short. wall_s and
    job_p50_s are gated divided by the run's median probe_s, because in
    seconds they follow the host's drift. In seconds they are printed
    only, as are cpu_s (about 1.8 times wall_s on register_16q, where the
    OpenBLAS threads spin), failed_ratio (0 when all is well) and
    job_tail_s (only cli_mix runs enough jobs for it).
    """
    jobs = [r for rnd in rounds for r in rnd]
    walls = sorted(r.wall for r in jobs)
    whole = [rnd for rnd in rounds if len(rnd) == len(rounds[0])]
    round_walls = [sum(r.wall for r in rnd) for rnd in whole]
    round_cpus = [sum(r.cpu for r in rnd) for rnd in whole]
    failed = sum(1 for r in jobs if r.problems)
    by_key: dict[str, list[Result]] = {}
    for r in jobs:
        by_key.setdefault(r.key, []).append(r)
    per_job = list(by_key.values())
    cpu = sum(statistics.median(r.cpu for r in same) for same in per_job)
    wall = sum(statistics.median(r.wall for r in same) for same in per_job)
    probe_s = statistics.median(probe)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_per_probe": wall / probe_s,
        "job_p50_per_probe": statistics.median(walls) / probe_s,
        "peak_rss_mb": max(r.rss_mb for r in jobs),
    }
    lines = [
        f"setup_s      {metrics['setup_s']:.4f} s   median of fresh 'import gradchain.cli', taken between jobs ({quartiles(setup)})",
        f"probe_s      {probe_s:.4f} s   median of the host probe, taken with each setup_s sample ({quartiles(probe)})",
        f"wall_s       {wall:.4f} s   one round of {len(rounds[0])} jobs, sum of per-job median wall "
        f"(round sums: {quartiles(round_walls)})",
        f"wall_per_probe {metrics['wall_per_probe']:.4f}   wall_s / probe_s",
        f"cpu_s        {cpu:.4f} s   one round, sum of per-job median user+sys of the child "
        f"(round sums: {quartiles(round_cpus)})",
        f"job_p50_s    {statistics.median(walls):.4f} s   median job wall time ({quartiles(walls)})",
        f"job_p50_per_probe {metrics['job_p50_per_probe']:.4f}   job_p50_s / probe_s",
    ]
    if len(walls) > TAIL_BEYOND:
        rank = len(walls) - TAIL_BEYOND
        lines.append(f"job_tail_s   {walls[rank - 1]:.4f} s   p{100.0 * rank / len(walls):.1f} of n={len(walls)} jobs, "
                     f"{TAIL_BEYOND} beyond it")
    else:
        lines.append(f"job_tail_s   omitted: n={len(walls)} jobs, fewer than {TAIL_BEYOND + 1}")
    lines += [
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  largest child max-RSS (n={len(jobs)} jobs)",
        f"failed_ratio {failed / len(jobs):.4g}     {failed} of {len(jobs)} jobs failed",
    ]
    return metrics, lines


def run_round(jobs, env, root, spans_dir: Path | None, index: int,
              after_job=lambda: None, fits=lambda job: True) -> tuple[list[Result], list[dict]]:
    """Run the round's jobs in order, stopping before the first job that does not fit."""
    results, profiles = [], []
    for job in jobs:
        if not fits(job):
            break
        spans = None if spans_dir is None else spans_dir / f"r{index}-{job.key}.json"
        results.append(run_job(job, env, root, spans))
        if spans is not None and spans.exists():
            profiles.append(layers.job_profile(spans))
        after_job()
    return results, profiles


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "gradchain" / "cli.py", root / "configs", root / "tests" / "golden" / "n10_max_j_hz.txt"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from the root of a gradchain checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    jobs = workloads.WORKLOADS[args.workload](args.seed, work, root, checks.Reference.load())
    machine = machine_info(root, env)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{len(jobs)} jobs per round, one client, closed loop")
    print("machine " + json.dumps(machine, sort_keys=True))

    # setup_s and probe_s samples are spread through the untraced run, between
    # jobs, so that drift of the host during the run reaches them as it
    # reaches the jobs.
    setup: list[float] = []
    probe: list[float] = []
    setup_log = work / "setup.log"

    def sample_setup():
        while len(setup) < (time.perf_counter() - start) / SETUP_EVERY_S:
            setup.append(python_sample("import gradchain.cli", env, root, setup_log))
            probe.append(python_sample(PROBE, env, root, setup_log))

    # After the first round, an untraced job runs only if its last wall time
    # says it ends within the run, so the last round may be cut short.
    last_wall: dict[str, float] = {}

    def fits(job: workloads.Job) -> bool:
        return job.key not in last_wall or time.perf_counter() - start + last_wall[job.key] <= args.seconds

    if not args.trace:
        python_sample("import gradchain.cli", env, root, setup_log)  # warm-up, not counted
        python_sample(PROBE, env, root, setup_log)
    start = time.perf_counter()
    steal_before = host_steal_s()
    plain_rounds: list[list[Result]] = []
    traced_rounds: list[tuple[list[Result], list[dict]]] = []
    while not args.trace:
        plain = run_round(jobs, env, root, None, len(plain_rounds), sample_setup, fits)[0]
        if plain:
            plain_rounds.append(plain)
        last_wall.update((r.key, r.wall) for r in plain)
        if len(plain) < len(jobs):
            break
    while args.trace:
        began = time.perf_counter()
        plain_rounds.append(run_round(jobs, env, root, None, len(plain_rounds))[0])
        spans_dir = work / "spans"
        spans_dir.mkdir(exist_ok=True)
        traced_rounds.append(run_round(jobs, env, root, spans_dir, len(traced_rounds)))
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > args.seconds:
            break

    elapsed = time.perf_counter() - start
    steal_after = host_steal_s()
    steal = None if steal_before is None or steal_after is None else steal_after - steal_before
    print(f"measured {elapsed:.1f} s; host steal meanwhile {'unknown' if steal is None else f'{steal:.2f} s'}")
    all_results = [r for rnd in plain_rounds for r in rnd] + [r for rnd, _ in traced_rounds for r in rnd]
    failed_jobs = [r for r in all_results if r.problems]
    for r in failed_jobs[:10]:
        print(f"FAILED {r.key}: {'; '.join(r.problems[:3])}", file=sys.stderr)

    if args.trace:
        per_round = [layers.round_metrics(profiles, [r.wall for r in rnd], sum(r.bytes_written for r in rnd))
                     for rnd, profiles in traced_rounds]
        values = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        values["trace.overhead_s"] = (statistics.median(sum(r.wall for r in rnd) for rnd, _ in traced_rounds)
                                      - statistics.median(sum(r.wall for r in rnd) for rnd in plain_rounds))
        for name, value in values.items():
            print(f"{name:30s} {value:12.6g} {LAYER_UNITS[name]}   median of {len(per_round)} traced rounds")
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]} for name, value in values.items()}
    else:
        values, lines = end_to_end(plain_rounds, setup, probe)
        print("\n".join(lines))
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()}

    failed, attempted = len(failed_jobs), len(all_results)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "host_steal_s": steal, "metrics": metrics,
              "jobs": [[r.key, r.wall, r.cpu, r.rss_mb, not r.problems] for r in all_results]}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
