"""Closed-loop benchmark of the pargroupoid command line.

    python3 perfbench/run.py --workload verify-8 --seed 1 --seconds 25 --trace 0

One client starts `python -m pargroupoid.cli` child processes one after
another, never two at once, and checks every output without trusting the
program (checks.py). The workload's job list runs in order, round after
round, until the next job would likely end after --seconds; every job runs
at least once.

--trace 0 reports the end-to-end metrics, with no tracing anywhere. Its
times are rescaled to a reference machine speed by a fixed kernel sampled
between jobs (calibrate.py), because the speed of a shared host drifts.
--trace 1 runs whole passes over the job list, each job twice, once as
above and once in process under trace_job.py, and reports the per-layer
metrics; the traced stdout must equal the untraced bytes.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The full record, with provenance, goes to
perfbench/out/results/. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from calibrate import Gauge, speed_factor
from checks import SUITES_ALL, check_decompose, check_gamma, check_verify
from guard import ChildResult, run_guarded
from inputs import cli_seed, group_doc, write_group

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0       # no job starts or runs past this, so a run ends within 180 s
MEM_CAP_BYTES = 2 << 30   # about 3x the largest peak RSS (gamma-16, ~610 MB)
SETUP_SAMPLES = (5, 4)    # child starts timed before and after the jobs

END_TO_END = {            # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# Per-layer metrics. A `<span>_s` time is inclusive of nested layers, except
# semialgebra.mul_s, which is self time: convolution less the table build.
LAYER_TIMES = (
    "cli.emit", "group.make_group", "group.subgroups", "group.stabilizer",
    "groupoid.gamma_build", "groupoid.components", "semialgebra.first_mul",
    "semialgebra.matrix_mul", "semialgebra.delta_split", "semiring.laws",
    "partial_rep.extend", "partial_rep.lift_lower", "partial_rep.relations",
    "partial_rep.factorization", "partial_rep.span", "structure.enumeration",
    "structure.recursion", "structure.component_iso", "structure.census",
)
LAYER_COUNTS = (
    "group.subgroup_count", "group.stabilizer_calls", "groupoid.arrows",
    "semialgebra.mul_calls", "semialgebra.mul_pairs", "semialgebra.mul_terms_out",
    "semialgebra.matrix_mul_calls", "partial_rep.extend_mul_calls",
    "partial_rep.span_products", "structure.enumeration_calls",
    "structure.subsets_walked", "structure.components_verified",
)


PER_LAYER = {             # name -> unit
    "cli.import_s": "s", "cli.stdout_bytes": "bytes",
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    "semialgebra.mul_s": "s",
    **{name: "count" for name in LAYER_COUNTS},
    "semialgebra.mul_yield": "ratio", "trace.spans": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Workloads.

@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[int, bytes], str | None]


WORKLOADS = ("verify-8", "decompose-16", "gamma-16", "delta-16")


def workload_jobs(name: str, seed: int, inputs: Path) -> list[Job]:
    """The job list of a workload; table groups are relabelled from seed."""
    sampled = ("--seed", str(cli_seed(seed)))

    def table(group: str) -> str:
        return "table:" + write_group(inputs, group, seed).relative_to(ROOT).as_posix()

    if name == "verify-8":
        def check(rc, out):
            return check_verify(rc, out, SUITES_ALL)
        return [Job(("verify", "--suite", "all", "--group", g) + sampled, check)
                for g in ("sym:3", "dihedral:4", table("q8"))]
    if name == "decompose-16":
        def check(rc, out):
            return check_decompose(rc, out, 16)
        return [Job(("decompose", "--group", g), check)
                for g in ("cyclic:16", "dihedral:8", table("z4xz4"),
                          table("z2xz8"), table("z2xz2xz4"))]
    if name == "gamma-16":
        cayley = group_doc("z2xz2xz4", seed)["table"]

        def check(rc, out):
            return check_gamma(rc, out, cayley)
        return [Job(("gamma", "--group", table("z2xz2xz4")), check)]
    if name == "delta-16":
        def check(rc, out):
            return check_verify(rc, out, ("delta",))
        return [Job(("verify", "--suite", "delta", "--group", table("z4xz4")) + sampled,
                    check)]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Running jobs.

def cli_argv(job: Job) -> list[str]:
    return [sys.executable, "-m", "pargroupoid.cli", *job.argv]


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Runner:
    """Runs children one at a time and keeps the tally of failures."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.checked: dict[Job, str] = {}  # job -> digest of its checked stdout
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def child(self, argv: list[str], tag: str) -> tuple[ChildResult | None, Path]:
        out = self.workdir / f"{tag}.out"
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 1.0:
            return None, out
        result = run_guarded(argv, stdout=out, stderr=self.workdir / f"{tag}.err",
                             timeout_s=min(JOB_TIMEOUT_S, remaining),
                             mem_bytes=MEM_CAP_BYTES, env=self.env)
        return result, out

    def verdict(self, job: Job, result: ChildResult | None, out: Path,
                tag: str) -> str | None:
        if result is None:
            return "not started: the run's time limit was reached"
        if result.timed_out:
            return "timed out"
        # Identical invocations must print identical bytes, so only the first
        # output of a job is parsed and checked; later ones are compared to it.
        digest = _file_digest(out)
        if job in self.checked:
            if result.returncode == 0 and self.checked[job] == digest:
                return None
            reason = (f"exit {result.returncode}" if result.returncode
                      else "stdout differs from the job's first output")
        else:
            try:
                reason = job.check(result.returncode, out.read_bytes())
            except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
                reason = f"malformed output: {exc!r}"
            if not reason:
                self.checked[job] = digest
        if reason and result.returncode != 0:
            err = (self.workdir / f"{tag}.err").read_text(errors="replace").strip()
            reason += f" ({err.splitlines()[-1]})" if err else ""
        return reason

    def fail(self, job: Job, reason: str) -> None:
        self.failures.append(f"{' '.join(job.argv)}: {reason}")
        print(f"FAILED {' '.join(job.argv)}: {reason}", file=sys.stderr)

    def setup_sample(self) -> float | None:
        """Wall time for a child to start Python and import pargroupoid.cli."""
        result, _ = self.child([sys.executable, "-c", "import pargroupoid.cli"], "setup")
        return result.wall_s if result is not None and result.ok else None


def untraced_runs(runner: Runner, jobs: list[Job], gauge: Gauge, seconds: float,
                  kernel: list[float]) -> list[dict]:
    """Jobs in list order, round after round, each followed by a kernel sample
    appended to `kernel`, until the next job would likely end after
    `seconds`. One record of raw times per job run."""
    deadline = time.perf_counter() + seconds
    records: list[dict] = []
    took: dict[int, float] = {}
    for n in itertools.count():
        i = n % len(jobs)
        if i in took and time.perf_counter() + took[i] > deadline:
            return records
        start = time.perf_counter()
        runner.attempted += 1
        result, out = runner.child(cli_argv(jobs[i]), f"job{i}")
        reason = runner.verdict(jobs[i], result, out, f"job{i}")
        if reason:
            runner.fail(jobs[i], reason)
        kernel.append(gauge.sample())
        took[i] = time.perf_counter() - start
        if result is not None:
            records.append({"job": i, "wall_s": result.wall_s, "cpu_s": result.cpu_s,
                            "maxrss_kb": result.maxrss_kb})


def traced_pass(runner: Runner, jobs: list[Job], spans_dir: Path) -> dict:
    """Each job untraced, then traced in process; totals of the traced runs."""
    rec = {"wall_s": 0.0, "traced_wall_s": 0.0, "stdout_bytes": 0, "spans": 0,
           "import_s": [], "inclusive_ns": Counter(), "self_ns": Counter(),
           "counts": Counter(), "missing": set()}
    for i, job in enumerate(jobs):
        runner.attempted += 1
        result, out = runner.child(cli_argv(job), f"job{i}")
        reason = runner.verdict(job, result, out, f"job{i}")
        summary_path = runner.workdir / f"trace{i}.json"
        summary_path.unlink(missing_ok=True)
        traced = None
        if not reason:
            argv = [sys.executable, str(BENCH / "trace_job.py"),
                    str(spans_dir / f"job{i}.jsonl"), str(summary_path), "--", *job.argv]
            traced, traced_out = runner.child(argv, f"traced{i}")
            if traced is None or traced.timed_out:
                reason = "traced run did not finish"
            elif traced.returncode != result.returncode:
                reason = f"traced run exited {traced.returncode}"
            elif _file_digest(traced_out) != _file_digest(out):
                reason = "traced stdout differs from the untraced bytes"
            elif not summary_path.exists():
                reason = "traced run wrote no summary"
        if reason:
            runner.fail(job, reason)
        if result is not None:
            rec["wall_s"] += result.wall_s
        if traced is not None:
            rec["traced_wall_s"] += traced.wall_s
        if reason:
            continue
        summary = json.loads(summary_path.read_text())
        rec["stdout_bytes"] += out.stat().st_size
        rec["spans"] += summary["spans"]
        rec["import_s"].append(summary["import_ns"] / 1e9)
        rec["inclusive_ns"].update(summary["inclusive_ns"])
        rec["self_ns"].update(summary["self_ns"])
        rec["counts"].update(summary["counts"])
        rec["missing"].update(summary["missing"])
    return rec


def run_passes(seconds: float, one_pass: Callable[[], dict]) -> list[dict]:
    """Passes back to back until the next would likely end after `seconds`."""
    deadline = time.perf_counter() + seconds
    passes, durations = [], []
    while True:
        start = time.perf_counter()
        passes.append(one_pass())
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return passes


# ---------------------------------------------------------------------------
# Metrics.

def end_to_end_metrics(runs: list[dict], setup: list[float], kernel: list[float],
                       attempted: int, failed: int) -> dict[str, float]:
    """Times are rescaled by the run's kernel samples (calibrate.py). wall_s
    and cpu_s sum, over the job list, each job's mean over its runs."""
    speed = speed_factor(kernel)

    def job_list_total(key: str) -> float:
        by_job: dict[int, list[float]] = {}
        for r in runs:
            by_job.setdefault(r["job"], []).append(r[key])
        return speed * sum(statistics.fmean(times) for times in by_job.values())

    return {
        "setup_s": statistics.median(setup) * speed,
        "wall_s": job_list_total("wall_s"),
        "cpu_s": job_list_total("cpu_s"),
        "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer_metrics(passes: list[dict]) -> dict[str, float]:
    def median_of(value: Callable[[dict], float]) -> float:
        return statistics.median(value(p) for p in passes)

    first = passes[0]
    metrics: dict[str, float] = {
        "cli.import_s": statistics.median(
            [s for p in passes for s in p["import_s"]] or [0.0]),
        "cli.stdout_bytes": first["stdout_bytes"],
    }
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = median_of(lambda p: p["inclusive_ns"][name] / 1e9)
    metrics["semialgebra.mul_s"] = median_of(
        lambda p: p["self_ns"]["semialgebra.mul"] / 1e9)
    for name in LAYER_COUNTS:
        metrics[name] = first["counts"][name]
    pairs = first["counts"]["semialgebra.mul_pairs"]
    metrics["semialgebra.mul_yield"] = (
        first["counts"]["semialgebra.mul_terms_out"] / pairs if pairs else 0.0)
    metrics["trace.spans"] = first["spans"]
    metrics["trace.wall_s"] = median_of(lambda p: p["traced_wall_s"])
    metrics["trace.overhead_s"] = median_of(lambda p: p["traced_wall_s"] - p["wall_s"])
    return metrics


def _deterministic_part(rec: dict) -> tuple:
    return rec["stdout_bytes"], rec["spans"], tuple(sorted(rec["counts"].items()))


# ---------------------------------------------------------------------------
# Provenance.

def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of the files under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "src_sha256": tree_digest(ROOT / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so the guard kills and reaps a running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "pargroupoid" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'pargroupoid'} is missing",
              file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance()}
    workdir = OUT / "work"
    spans_dir = OUT / "spans" / args.workload  # the latest traced pass only
    for d in (workdir, spans_dir, OUT / "results"):
        d.mkdir(parents=True, exist_ok=True)
    jobs = workload_jobs(args.workload, args.seed, OUT / "inputs")
    runner = Runner(workdir)
    problems: list[str] = []

    if args.trace:
        passes = run_passes(args.seconds, lambda: traced_pass(runner, jobs, spans_dir))
        complete = [p for p in passes if p["import_s"] and len(p["import_s"]) == len(jobs)]
        if not complete:
            problems.append("no pass traced every job")
            complete = passes
        elif len({_deterministic_part(p) for p in complete}) > 1:
            problems.append("counts differ between passes of one seed")
        metrics = per_layer_metrics(complete)
        units = PER_LAYER
        # A layer function that a later version renames or removes reads 0;
        # it is reported, but it does not make the run incorrect.
        record["trace_targets_missing"] = sorted(set().union(*(p["missing"] for p in passes)))
        if record["trace_targets_missing"]:
            print(f"WARNING trace targets missing: {record['trace_targets_missing']}",
                  file=sys.stderr)
        record["passes"] = [{k: (sorted(v) if isinstance(v, set) else v)
                             for k, v in p.items()} for p in passes]
    else:
        with Gauge() as gauge:
            runner.setup_sample()  # warm the file cache; not measured
            kernel = [gauge.sample()]
            setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES[0])]
            kernel.append(gauge.sample())
            runs = untraced_runs(runner, jobs, gauge, args.seconds, kernel)
            setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES[1])]
            kernel.append(gauge.sample())
        record.update(runs=runs, setup_samples_s=setup, kernel_samples_s=kernel,
                      speed_factor=speed_factor(kernel))
        if None in setup:
            problems.append("a child failed to import pargroupoid.cli")
        setup = [s for s in setup if s is not None] or [0.0]
        metrics = end_to_end_metrics(runs, setup, kernel, runner.attempted,
                                     len(runner.failures))
        units = END_TO_END
        # A child's ru_maxrss includes this process's resident set at fork.
        record["runner_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for path in workdir.iterdir():
        path.unlink()
    failed = len(runner.failures)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record["provenance"]["loadavg_end"] = list(os.getloadavg())
    record.update(failures=runner.failures, problems=problems, result=result)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
