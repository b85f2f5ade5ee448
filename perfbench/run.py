"""Benchmark for the catlin CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; catlin is imported from ``src/``.
Jobs run in-process through ``catlin.cli.main(argv)`` with stdout captured,
as a closed loop: one client, one job at a time, no threads.  The program
sees only the generated ``--expr``/``--n`` inputs; the workload seed is never
passed on as the CLI's ``--seed``.

A pass runs the workload's fixed job list once.  A run makes
``max(1, round(S / pass_seconds))`` passes, so every run of a workload times
the same jobs whatever the host speed; only a host so slow that the passes
run past 2.5 S starts no further pass.  Answers are checked after the timed
passes, with the bundled replayers.

The times behind ``setup_s``, ``jobs_per_s``, ``job_p50_s`` and
``job_tail_s`` are scaled to a nominal host speed by a reference chunk timed
around (and, for jobs, during) each of them (see ``hostspeed.py``), because
the speed of a shared host drifts by half within a run; the raw wall times
are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs half as
many passes again (at least one), each as an untraced pass followed by a pass
with spans around each module's entry points, and prints the per-layer
metrics, the kernel probes and the tracing overhead.  ``--workload all`` runs
every benchmark workload in turn, each in its own process.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Out of range: the torsion model with z2 -> z2^2 did not finish within 10
minutes; it joins the boundary workload once the boundary module is faster.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
BENCH_WORKLOADS = ("normalize", "boundary", "positivity")

# (name, unit, better) of every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("decided_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def import_catlin():
    """Import catlin from this checkout's src/, never from site-packages."""
    if not (SRC / "catlin" / "__init__.py").is_file():
        sys.exit(f"error: no catlin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import catlin
    if Path(catlin.__file__).resolve().parent != SRC / "catlin":
        sys.exit(f"error: imported catlin from {catlin.__file__}, not {SRC}")
    import catlin.cli
    return catlin.cli


# ----------------------------------------------------------------------
# timed passes
# ----------------------------------------------------------------------


class Outcomes:
    """Latencies of every job and its distinct outcomes, checked later."""

    def __init__(self):
        self.latency: List[float] = []
        self.passes: List[Tuple[float, float]] = []     # (wall, cpu)
        self.spans: List[Tuple[int, float, float]] = []  # (pass, start, end)
        self.seen: Dict[Tuple[int, Optional[int], str, str], int] = {}

    def record(self, idx: int, code: Optional[int], out: str, err: str,
               latency: float) -> None:
        self.latency.append(latency)
        key = (idx, code, out, err)
        self.seen[key] = self.seen.get(key, 0) + 1


def run_job(cli, job) -> Tuple[Optional[int], str, str]:
    """Exit code, stdout and stderr of one CLI call; an exception is
    recorded as exit None and counted by the check, never dropped."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv())
    except (Exception, SystemExit) as exc:
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def run_passes(cli, jobs, passes: int, budget: float, tracer=None,
               clock=None) -> Outcomes:
    """With a ``HostClock``, a reference chunk runs before every job and
    after each pass; its time is outside the jobs' spans."""
    rec = Outcomes()
    start = time.perf_counter()
    for p in range(passes):
        w0, c0 = time.perf_counter(), time.process_time()
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_id += 1
            if clock is not None:
                clock.sample()
            t0 = time.perf_counter()
            code, out, err = run_job(cli, job)
            t1 = time.perf_counter()
            rec.record(i, code, out, err, t1 - t0)
            rec.spans.append((p, t0, t1))
        if clock is not None:
            clock.sample()
        rec.passes.append((time.perf_counter() - w0, time.process_time() - c0))
        if time.perf_counter() - start > budget:
            break   # a host far slower than the nominal one
    return rec


def check_outcomes(jobs, rec: Outcomes) -> Tuple[int, int, List[str]]:
    """(failed, decided, reasons), counting every job run."""
    from workloads import check
    failed = decided = 0
    reasons = []
    for (idx, code, out, err), times in rec.seen.items():
        verdict = check(jobs[idx], code, out, err)
        if not verdict.ok:
            failed += times
            reasons.append(f"{jobs[idx].family}: {' '.join(jobs[idx].argv())}"
                           f" -> {verdict.reason}")
        decided += times * verdict.decided
    return failed, decided, reasons


def tail(latency: List[float]) -> Tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank), and its value; the maximum when there are too few."""
    xs = sorted(latency)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)       # ceil(pct * n / 100)
    return xs[rank - 1], pct


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child side: import catlin, build the inputs, say so."""
    import_catlin()
    from workloads import WORKLOADS
    WORKLOADS[workload].make(random.Random(seed))
    print("ready", flush=True)


def measure_setup(workload: str, seed: int
                  ) -> Tuple[List[float], List[float]]:
    """Set-up times of fresh processes at nominal host speed, and raw."""
    from hostspeed import HostClock
    clock, spans = HostClock(), []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        clock.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: set-up probe failed (exit {code})")
        spans.append((t0, ready))
    clock.sample()
    return [clock.adjust(a, b) for a, b in spans], [b - a for a, b in spans]


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def host_info() -> Dict[str, str]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": str(os.cpu_count()),
            "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def say(line: str = "") -> None:
    print(line, flush=True)


def run_workload(cli, name: str, seed: int, seconds: int, trace: bool
                 ) -> Tuple[bool, int, int, Dict[str, dict]]:
    from hostspeed import REF_NOMINAL_S, HostClock
    from workloads import OUT_OF_RANGE, WORKLOADS, check
    wl = WORKLOADS[name]
    rng = random.Random(seed)
    jobs = wl.make(rng)
    passes = max(1, round(seconds / wl.pass_seconds))
    budget = 2.5 * seconds

    say(f"== workload {name} (seed {seed}, trace {int(trace)})")
    say(f"   why: {wl.why}")
    say(f"   jobs: {len(jobs)} per pass x {passes} passes = "
        f"{len(jobs) * passes}; closed loop, one client, in-process")
    say(f"   out of range: {OUT_OF_RANGE}")

    with HostClock() as clock:
        rec = run_passes(cli, jobs, passes, budget, clock=clock)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    adjusted = [clock.adjust(a, b) for _, a, b in rec.spans]
    pass_adjusted = [0.0] * len(rec.passes)
    for (p, _, _), t in zip(rec.spans, adjusted):
        pass_adjusted[p] += t
    for p, (wall, cpu) in enumerate(rec.passes, start=1):
        say(f"   pass {p}: wall {wall:.3f} s, cpu {cpu:.3f} s, "
            f"jobs at nominal host speed {pass_adjusted[p - 1]:.3f} s")
    say(f"   host speed: reference chunk median {clock.median_chunk() * 1e3:.3f}"
        f" ms over {len(clock.starts)} samples, nominal "
        f"{REF_NOMINAL_S * 1e3:.3f} ms")
    setup, raw_setup = measure_setup(name, seed)
    failed, decided, reasons = check_outcomes(jobs, rec)
    attempted = len(rec.latency)
    for r in reasons:
        say(f"   FAILED {r}")

    tail_s, tail_pct = tail(adjusted)
    raw_tail_s, _ = tail(rec.latency)
    say(f"   raw wall time: jobs_per_s "
        f"{statistics.median(len(jobs) / w for w, _ in rec.passes):.6g}, "
        f"job_p50_s {statistics.median(rec.latency):.6g}, "
        f"job_tail_s {raw_tail_s:.6g}, setup_s "
        f"{statistics.median(raw_setup):.6g}")
    e2e = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": statistics.median(len(jobs) / t for t in pass_adjusted),
        "job_p50_s": statistics.median(adjusted),
        "job_tail_s": tail_s,
        "ok_ratio": (attempted - failed) / attempted,
        "decided_ratio": decided / attempted,
        "peak_rss_mb": rss_mb,
    }
    notes = {"job_tail_s": f"p{tail_pct} of {attempted} jobs",
             "setup_s": f"median of {SETUP_PROBES} fresh processes",
             "ok_ratio": f"failed_ratio {failed / attempted:.4f} "
                         f"({failed}/{attempted})",
             "decided_ratio": f"{decided}/{attempted}"}
    say("   end-to-end")
    for metric, unit, _ in END_TO_END:
        say(f"     {metric:<16} {e2e[metric]:>12.6g} {unit:<5} "
            f"{notes.get(metric, '')}")

    for job in wl.after(rng):
        verdict = check(job, *run_job(cli, job))
        attempted, failed = attempted + 1, failed + (not verdict.ok)
        say(f"   untimed check [{job.family}] "
            f"{'ok' if verdict.ok else 'FAILED'}: {' '.join(job.argv())}"
            f"{' -> ' + verdict.reason if verdict.reason else ''}")

    defects = wl.known_defects()
    if defects:
        say(f"   known defects: {len(defects)} models outside the timed corpus,"
            f" not counted above")
    for job in defects:
        verdict = check(job, *run_job(cli, job))
        say(f"     [{job.family}] {'fixed' if verdict.ok else 'reproduced'}: "
            f"{' '.join(job.argv())} -> {verdict.reason or 'ok'}")

    metrics = {m: {"value": e2e[m], "unit": u} for m, u, _ in END_TO_END}
    if trace:
        layer, t_attempted, t_failed = traced_run(
            cli, jobs, max(1, len(rec.passes) // 2), budget)
        attempted, failed = attempted + t_attempted, failed + t_failed
        metrics = {m: {"value": layer[m], "unit": u}
                   for m, u, _ in per_layer_metrics()}
    return failed == 0, attempted, failed, metrics


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    from probes import MOVES
    from tracing import per_layer_names
    return per_layer_names() + [(p, "s", "lower") for p in MOVES] + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower")]


def traced_run(cli, jobs, passes: int, budget: float
               ) -> Tuple[Dict[str, float], int, int]:
    """Per-layer metrics, attempted and failed jobs of the traced passes.

    Each traced pass follows an untraced one, so the tracing overhead is
    taken between neighbours rather than across the whole run."""
    from probes import MOVES, run_probes
    from tracing import Tracer
    tracer = Tracer()
    traced, plain = Outcomes(), []
    for _ in range(passes):
        plain += run_passes(cli, jobs, 1, budget).passes
        tracer.install()
        try:
            rec = run_passes(cli, jobs, 1, budget, tracer)
        finally:
            tracer.remove()
        traced.latency += rec.latency
        traced.passes += rec.passes
        for key, times in rec.seen.items():
            traced.seen[key] = traced.seen.get(key, 0) + times
    failed, _, reasons = check_outcomes(jobs, traced)
    for r in reasons:
        say(f"   FAILED (traced) {r}")
    layer = tracer.layer_metrics(len(jobs), passes)
    traced_wall = statistics.median(w for w, _ in traced.passes)
    plain_wall = statistics.median(w for w, _ in plain)
    layer["trace.overhead_s"] = traced_wall - plain_wall
    layer["trace.overhead_ratio"] = (traced_wall - plain_wall) / plain_wall
    layer.update(run_probes())
    say(f"   traced: {passes} passes, median wall {traced_wall:.3f} s vs "
        f"{plain_wall:.3f} s for the untraced pass before each")
    say("   per layer (per pass)")
    for metric, unit, _ in per_layer_metrics():
        note = f"moves {MOVES[metric]}" if metric in MOVES else ""
        say(f"     {metric:<48} {layer[metric]:>14.6g} {unit:<5} {note}")
    return layer, len(traced.latency), failed


def run_all(args) -> int:
    """Every benchmark workload in its own process, so that peak RSS and
    patched classes do not carry over; metric names get the workload as
    prefix."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in BENCH_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        for line in lines[:-1]:
            say(line)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    cli = import_catlin()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)} or all")

    host = host_info()
    say(f"catlin benchmark: Python {host['python']}, nproc {host['nproc']}, "
        f"CPU {host['cpu']}, commit {host['commit']}")
    correct, attempted, failed, metrics = run_workload(
        cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
