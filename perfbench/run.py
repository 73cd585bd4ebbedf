"""The relchern benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload dual-route --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; relchern is imported from ``src/``.
Every workload is a closed loop with one client: the next job starts when
the previous one has returned and been checked.

With ``--trace 0`` the run warms up, runs passes over the workload's job mix
for ``--seconds`` seconds (at least one whole pass), measures set-up time in
fresh interpreters and prints the end-to-end metrics.  Every time is scaled
to a fixed machine speed by the reference loop of ``speed.py``, timed right
before each job and each probe.  With ``--trace 1`` it runs one untraced
pass and one traced pass over the mix and prints the per-layer metrics of
the traced pass.  The last line of output is always a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the three workloads in turn and prints each one's
figures; its last line merges them, keyed ``workload/metric``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import sys
import time

import jobs as jobgen
import speed
import summary
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 21

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class Run:
    """Outcome counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.violations = 0
        self.reasons = {}

    def record(self, job_id, contract_ok, answer_ok, why):
        self.attempted += 1
        if contract_ok and answer_ok:
            return
        self.failed += 1
        self.violations += not contract_ok
        self.wrong += not answer_ok
        self.reasons.setdefault(job_id, why)


# -- executing one job ---------------------------------------------------------


class LibraryJobs:
    """``dual-route`` and ``series-svw``: in-process library calls."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, workload, seed):
        import workloads
        self.run_job = workloads.LIBRARY_JOBS
        self.jobs = jobgen.make_jobs(workload, seed)

    def warm_up(self):
        # one job of each kind, the smallest, fills first-call lazy state
        smallest = {}
        for job in sorted(self.jobs, key=lambda j: -j["config"]["base"]["dim"]):
            smallest[job["kind"]] = job
        for job in smallest.values():
            self.execute(job, Run())

    def execute(self, job, run, tracer=None, index=-1):
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter_ns()
        try:
            why = self.run_job[job["kind"]](job)
        except Exception as exc:  # a crash is a failed job, not a failed run
            why = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.job = -1
        run.record(job["id"], True, why is None, why)
        return wall

    def notes(self):
        return 0, []

    def close(self):
        pass


class CliJobs:
    """``cli-jobs``: one ``python -m relchern`` child per job."""

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, workload, seed):
        import workloads
        self.w = workloads
        self.jobs = jobgen.make_jobs(workload, seed)
        self.paths = jobgen.write_job_files(
            self.jobs + [jobgen.KNOWN_DEFECT],
            os.path.join(OUT, f"cli-jobs-seed{seed}"))
        self.env = workloads.child_env(SRC)
        # the library's answer for every job, computed before any timing
        self.redrawn = 0
        self.expected = {job["id"]: self.reference(job)
                         for job in self.jobs + [jobgen.KNOWN_DEFECT]}
        self.spans_file = os.path.join(OUT, "cli-child-spans.json")
        self.import_ns = 0
        self.spawn_ns = 0

    def reference(self, job):
        """The library's answer for ``job``; a push class that divides by
        the zero class is redrawn first (see ``jobs.KNOWN_DEFECT``)."""
        for attempt in itertools.count():
            try:
                return self.w.cli_reference(job)
            except ZeroDivisionError:
                if job["command"] != "push":
                    raise
                self.redrawn += 1
                job["class"] = jobgen.redraw_class(job, attempt)

    def warm_up(self):
        # fills the bytecode cache the way a user's first run would
        for job in self.jobs[:3]:
            self.execute(job, Run())

    def execute(self, job, run, tracer=None, index=-1):
        if tracer is None:
            args = ["-m", "relchern", *jobgen.cli_argv(job, self.paths[job["id"]])]
        else:
            args = [os.path.join(HERE, "cli_child.py"), self.spans_file,
                    *jobgen.cli_argv(job, self.paths[job["id"]])]
        self.close()  # no spans file from an earlier child
        start = time.perf_counter_ns()
        code, out, err = self.w.spawn(args, self.env, ROOT)
        wall = time.perf_counter_ns() - start
        run.record(job["id"], *self.w.check_cli(job, self.expected[job["id"]],
                                               code, out, err))
        if tracer is not None:
            self.spawn_ns += wall
            # a child that died before writing its spans leaves no file
            if os.path.exists(self.spans_file):
                with open(self.spans_file, encoding="utf-8") as handle:
                    doc = json.load(handle)
                tracing.merge(tracer.names, tracer.spans, tracer.counters,
                              doc, index)
                self.import_ns += doc["import_ns"]
        return wall

    def notes(self):
        """Runs ``jobs.KNOWN_DEFECT`` once, outside the timed loop and the
        job counts; returns its contract violations and a report line."""
        run = Run()
        job = jobgen.KNOWN_DEFECT
        self.execute(job, run)
        outcome = run.reasons.get(job["id"], "keeps the contract")
        return run.violations, [
            f"known-defect probe (not in failed_share): push"
            f" --class='{job['class']}': {outcome}; push classes redrawn"
            f" because they divided by the zero class: {self.redrawn}"]

    def close(self):
        if os.path.exists(self.spans_file):
            os.remove(self.spans_file)


def make_workload(workload, seed):
    cls = CliJobs if workload == "cli-jobs" else LibraryJobs
    return cls(workload, seed)


# -- the two kinds of run ------------------------------------------------------


def timed_loop(wl, seconds):
    """Passes over the mix until ``seconds`` have gone, at least one whole
    pass.  Returns per-slot scaled and raw wall times (s), the reference
    loop's times and the outcome counts."""
    samples = {job["id"]: [] for job in wl.jobs}
    raw = {job["id"]: [] for job in wl.jobs}
    loops = []
    run = Run()
    start = time.perf_counter()
    passes = 0
    while True:
        for job in wl.jobs:
            loops.append(speed.sample())
            wall = wl.execute(job, run) / 1e9
            raw[job["id"]].append(wall)
            samples[job["id"]].append(wall * speed.REFERENCE_S / loops[-1])
            if passes and time.perf_counter() - start >= seconds:
                return samples, raw, loops, run
        passes += 1
        if time.perf_counter() - start >= seconds:
            return samples, raw, loops, run


def setup_seconds(workload, seed):
    """Median over fresh interpreters of importing relchern and generating
    the workload's inputs (writing the job files, for cli-jobs); scaled and
    raw."""
    import workloads
    env = workloads.child_env(SRC)
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        loop = speed.sample()
        code, out, err = workloads.spawn(
            [os.path.join(HERE, "jobs.py"), "--workload", workload,
             "--seed", str(seed),
             "--out", os.path.join(OUT, "setup-probe")], env, ROOT)
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        raw.append(float(out))
        times.append(raw[-1] * speed.REFERENCE_S / loop)
    return statistics.median(times), statistics.median(raw)


def untraced(workload, seed, seconds):
    wl = make_workload(workload, seed)
    try:
        wl.warm_up()
        samples, raw, loops, run = timed_loop(wl, seconds)
        _, notes = wl.notes()
    finally:
        wl.close()
    figures = summary.end_to_end(samples)
    wall = summary.end_to_end(raw)
    figures["peak_rss_mb"] = resource.getrusage(wl.rusage).ru_maxrss / 1024
    figures["setup_s"], wall["setup_s"] = setup_seconds(workload, seed)
    metrics = {name: {"value": figures[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    share = run.failed / run.attempted
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    for i, name in enumerate(("jobs_per_s", "job_p50_ms", "job_tail_ms", "setup_s")):
        lines[i] += f" (wall {wall[name]:.6g})"
    lines[2] += (f" (p{figures['tail_p']} over the medians of"
                 f" {figures['slots']} jobs; {figures['samples']} samples)")
    lines[3] += f" (median of {SETUP_PROBES} fresh interpreters)"
    lines[4] += " (RUSAGE_SELF)" if wl.rusage == resource.RUSAGE_SELF \
        else " (RUSAGE_CHILDREN)"
    lines.append(f"reference loop: median {statistics.median(loops) * 1e3:.4g} ms"
                 f" over {len(loops)} samples; times are scaled to"
                 f" {speed.REFERENCE_S * 1e3:g} ms")
    lines.append(f"failed_share {share:.6g} ({run.failed} of {run.attempted}"
                 f" jobs; {run.violations} contract violations,"
                 f" {run.wrong} wrong answers)")
    return run, metrics, lines + notes


def traced(workload, seed):
    wl = make_workload(workload, seed)
    tracer = tracing.Tracer()
    run = Run()
    plain, scaled, walls = 0.0, 0.0, []
    try:
        wl.warm_up()
        for job in wl.jobs:
            loop = speed.sample()
            plain += wl.execute(job, Run()) / loop
        missing = tracer.install()
        try:
            for i, job in enumerate(wl.jobs):
                loop = speed.sample()
                walls.append(wl.execute(job, run, tracer, i))
                scaled += walls[-1] / loop
        finally:
            tracer.uninstall()
        violations, notes = wl.notes()
    finally:
        wl.close()
    # both passes scaled job by job, like the end-to-end times
    extra = {"trace.overhead_share": scaled / plain - 1,
             "cli.contract_violations": run.violations + violations}
    if isinstance(wl, CliJobs):
        extra["cli.spawn_to_exit_s"] = wl.spawn_ns / 1e9
        extra["cli.import_s"] = wl.import_ns / 1e9
    values = tracing.layer_metrics(tracer.names, tracer.spans,
                                   tracer.counters, extra)
    sums = tracing.job_self_sums(tracer.spans, range(len(walls)))
    over = [wl.jobs[i]["id"] for i, wall in enumerate(walls) if sums[i] > wall]
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"),
                {"jobs": [{"id": job["id"], "wall_ns": wall}
                          for job, wall in zip(wl.jobs, walls)]})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.LAYER_METRICS.items()}
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += notes
    lines.append(f"traced pass: {len(walls)} jobs, {len(tracer.spans)} spans;"
                 f" jobs whose span self time exceeds their wall time: {len(over)}")
    if missing:
        lines.append("targets not found (their metrics read 0): "
                     + ", ".join(missing))
    if over:
        run.wrong += len(over)
        run.reasons.update({job_id: "span self time exceeds wall time"
                            for job_id in over})
    return run, metrics, lines


# -- reporting -----------------------------------------------------------------


def environment():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "relchern")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    commit = "none (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            commit = handle.read().strip()
        if commit.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", commit[5:])
            if os.path.exists(ref):
                with open(ref, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return (f"python {sys.version.split()[0]}, nproc {nproc}, commit {commit},"
            f" relchern source sha256 {digest.hexdigest()[:16]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=jobgen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relchern", "__init__.py")):
        print(f"error: no relchern package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    print(f"environment: {environment()}")
    names = jobgen.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, merged = True, 0, 0, {}
    for workload in names:
        mode = "traced pass" if args.trace else f"{args.seconds:g} s timed"
        print(f"workload {workload}, seed {args.seed}, {mode}")
        if args.trace:
            run, metrics, lines = traced(workload, args.seed)
        else:
            run, metrics, lines = untraced(workload, args.seed, args.seconds)
        for line in lines:
            print(f"  {line}")
        for job_id, why in sorted(run.reasons.items()):
            print(f"  failed {job_id}: {why}", file=sys.stderr)
        correct = correct and run.wrong == 0
        attempted += run.attempted
        failed += run.failed
        if len(names) == 1:
            merged = metrics
        else:
            merged.update({f"{workload}/{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
