#!/usr/bin/env python3
"""degstab benchmark: one workload per process, closed loop, single thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

With ``--trace 0`` the run measures the end-to-end metrics untraced: cold
set-up time, then passes over the workload's jobs (the next job starts when
the previous one ends) until another pass would overrun ``--seconds``.
With ``--trace 1`` it makes one untraced and one traced pass and reports
the per-layer metrics of the traced one. Every job's output is checked
after its pass, outside the timed region. The last line of standard output
is the result as JSON; the line before it is the run header.

``--all`` runs every workload untraced, each in its own process, prints
every end-to-end metric by name and unit, and exits 1 if any job failed.
Run from the root of a checkout; degstab is imported from its ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("nodes_expanded", "count"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 11


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "degstab" / "__init__.py").is_file():
        print(f"error: no degstab package under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    return run_workload(args)


# --- one workload -------------------------------------------------------------


def run_workload(args) -> int:
    load_start = os.getloadavg()
    metrics, details = {}, {}
    if not args.trace:
        raw, scaled = zip(*(setup_probe() for _ in range(SETUP_PROBES)))
        metrics["setup_s"] = statistics.median(scaled)
        details["setup_raw_s"] = statistics.median(raw)
    sys.path.insert(0, str(SRC))
    import degstab
    from degstab import gallery

    if Path(degstab.__file__).resolve().parent != SRC / "degstab":
        print(f"error: imported degstab from {degstab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    for tag in gallery.SEQUENCE:
        gallery.gallery_graph(tag)

    jobs = workloads.make_jobs(args.workload, args.seed, args.tiny)
    run = Run(degstab, args.workload, jobs)
    if args.trace:
        metrics.update(run.traced(details))
    else:
        metrics.update(run.untraced(args.seconds, details))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = dict(PER_LAYER if args.trace else END_TO_END)
    header = run_header(degstab, args, load_start)
    header.update(details)
    header["failed_frac"] = run.failed / run.attempted
    header["failures"] = run.reasons[:5]
    print(json.dumps({"header": header}, sort_keys=True))
    result = {
        "correct": run.correct(),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def setup_probe() -> tuple[float, float]:
    """Raw and speed-scaled seconds of one cold set-up in a fresh process."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    raw, probe = map(float, out.stdout.split()[:2])
    return raw, raw * calibrate.NOMINAL_S / probe


class Run:
    """Passes over one workload's jobs, with the failures they produced."""

    def __init__(self, degstab, workload: str, jobs: list):
        self.degstab = degstab
        self.workload = workload
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.node_totals: set[int] = set()

    def correct(self) -> bool:
        return self.failed == 0 and not self.reasons and len(self.node_totals) <= 1

    def one_pass(self, on_probe=None) -> tuple[list[float], list[float], list]:
        """Run every job once while sampling the machine's speed; return the
        raw job latencies, their speed-scaled values and the outputs."""
        outputs, spans = [], []
        clock = time.perf_counter
        with calibrate.Sampler(on_probe) as sampler:
            for job in self.jobs:
                start, probed = clock(), sampler.spent
                try:
                    outputs.append(workloads.run_job(self.degstab, self.workload, job))
                except Exception as e:  # a failed job is counted, not fatal
                    outputs.append(e)
                spans.append((start, clock(), sampler.spent - probed))
                sampler.sample()
        raw = [end - start - probed for start, end, probed in spans]
        scaled = [t * sampler.scale(start, end) for t, (start, end, _) in zip(raw, spans)]
        return raw, scaled, outputs

    def check(self, outputs: list) -> None:
        nodes = 0
        for job, out in zip(self.jobs, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                reason = f"{type(out).__name__}: {out}"
            else:
                try:
                    reason = workloads.check_job(self.degstab, self.workload, job, out)
                except Exception as e:
                    reason = f"check raised {type(e).__name__}: {e}"
                if reason is None and self.workload != "verify-sweep":
                    nodes += out[1].nodes_expanded
            if reason is not None:
                self.failed += 1
                self.reasons.append(f"{job.name}: {reason}")
        if self.workload != "verify-sweep":
            self.node_totals.add(nodes)

    def untraced(self, seconds: float, details: dict) -> dict:
        counter = NodeCounter(self.degstab.backend) if self.workload == "verify-sweep" else None
        raw_walls, walls, per_job = [], [], [[] for _ in self.jobs]
        start = time.perf_counter()
        while True:
            raw, scaled, outputs = self.one_pass()
            self.check(outputs)
            raw_walls.append(sum(raw))
            walls.append(sum(scaled))
            for samples, t in zip(per_job, scaled):
                samples.append(t)
            if counter is not None:
                self.node_totals.add(counter.pop())
            elapsed = time.perf_counter() - start
            if elapsed * (len(walls) + 1) / len(walls) > seconds:
                break
        job_ms = sorted(statistics.median(s) * 1e3 for s in per_job)
        # The highest percentile with ten jobs beyond it; the slowest job
        # when there are too few jobs for that.
        tail_rank = len(job_ms) - 11 if len(job_ms) > 10 else len(job_ms) - 1
        details.update(
            passes=len(walls),
            pass_wall_s=walls,
            pass_wall_raw_s=raw_walls,
            jobs=len(self.jobs),
            job_tail_percentile=100 * (tail_rank + 1) / len(job_ms),
            job_tail_beyond=len(job_ms) - tail_rank - 1,
            node_totals=sorted(self.node_totals),
        )
        return {
            "wall_s": statistics.median(walls),
            "job_p50_ms": statistics.median(job_ms),
            "job_tail_ms": job_ms[tail_rank],
            "nodes_expanded": next(iter(self.node_totals)) if len(self.node_totals) == 1 else -1,
        }

    def traced(self, details: dict) -> dict:
        _, untraced, outputs = self.one_pass()
        self.check(outputs)
        tracer = Tracer(record_kernel_calls=self.workload == "delta-structured")
        tracer.install()
        try:
            raw, traced, outputs = self.one_pass(on_probe=tracer.exclude)
        finally:
            tracer.uninstall()
        # Checks call into degstab too, so they run untraced.
        self.check(outputs)
        details.update(passes=2, untraced_wall_s=sum(untraced), traced_wall_s=sum(traced))
        if tracer.kernel_calls is not None:
            details["parity"] = self.parity(tracer.kernel_calls)
        return tracer.metrics(sum(raw), sum(traced) / sum(raw), sum(traced) - sum(untraced))

    def parity(self, kernel_calls: list) -> str:
        try:
            from degstab import _fastcore
        except ImportError:
            return "skipped: degstab._fastcore is not importable"
        from degstab import _purecore

        mismatches = kernel_parity(kernel_calls, _purecore, _fastcore)
        self.reasons += [f"parity: {m}" for m in mismatches]
        return f"{len(kernel_calls)} kernel calls, {len(mismatches)} mismatches"


def kernel_parity(kernel_calls, reference, other) -> list[str]:
    """Replay recorded kernel calls through two kernel sets and list every
    call whose outputs differ, node counts included. Calls on graphs above
    the compiled kernels' order limit of 64 are skipped."""
    mismatches = []
    for name, args in kernel_calls:
        graphs = [a for a in args if isinstance(a, tuple)]
        if any(len(a) > 64 for a in graphs):
            continue
        want = getattr(reference, name)(*args)
        got = getattr(other, name)(*[list(a) if isinstance(a, tuple) else a for a in args])
        if want != got:
            mismatches.append(f"{name}{tuple(len(a) for a in graphs)}: {want!r} != {got!r}")
    return mismatches


class NodeCounter:
    """Sums the nodes of every ``backend.hom_search`` call from now on."""

    def __init__(self, backend):
        self.total = 0
        original = backend.hom_search

        def hom_search(p_adj, t_adj):
            result = original(p_adj, t_adj)
            self.total += result[1]
            return result

        backend.hom_search = hom_search

    def pop(self) -> int:
        """The nodes counted since the last pop."""
        value, self.total = self.total, 0
        return value


# --- header ---------------------------------------------------------------------


def run_header(degstab, args, load_start) -> dict:
    env = os.environ.get("DEGSTAB_BACKEND", "")
    if degstab.backend_name() == "compiled":
        reason = "degstab._fastcore is importable"
    elif env.strip().lower() in {"pure", "python"}:
        reason = f"DEGSTAB_BACKEND={env}"
    else:
        reason = "no degstab._fastcore extension"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "backend": degstab.backend_name(),
        "backend_reason": reason,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=ROOT,
        env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
        capture_output=True,
        text=True,
        timeout=30,
    )
    return out.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# --- all workloads ----------------------------------------------------------------


def run_all(args) -> int:
    status = 0
    print(f"{'workload':<18} {'metric':<16} {'value':>14}  unit")
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.tiny:
            cmd.append("--tiny")
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed (exit {out.returncode})\n{out.stderr}", file=sys.stderr)
            status = 1
            continue
        header = json.loads(lines[-2])["header"]
        result = json.loads(lines[-1])
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("failed_frac", result["failed"] / result["attempted"], "ratio"))
        for name, value, unit in rows:
            print(f"{workload:<18} {name:<16} {value:>14.6g}  {unit}")
        print(f"{workload:<18} backend: {header['backend']} ({header['backend_reason']})")
        if result["failed"] or not result["correct"]:
            print(f"{workload}: failures {header['failures']}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
