"""One workload in one process: set up, then repeat rounds until the budget is spent.

Started by run.py, never by hand.  It writes one JSON result file:
set-up time, per-round wall and per-command times, failures, an output digest
per task and, for the traced pass, the per-layer metrics and the spans.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

import fockbell
import layers
import tracer as tracing
import workloads


def digest(value) -> str:
    """Short hash of a task's output, stable across processes."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(f"{v.dtype}{v.shape}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif isinstance(v, fockbell.OptimizationResult):
            feed((v.q_max, v.angles, v.chi, v.restarts_used, v.converged))
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()[:16]


class Round:
    """Times one round's tasks, records their output digests and failures."""

    def __init__(self, tracer: tracing.Tracer | None):
        self.tracer = tracer
        self.group_s: dict[str, float] = defaultdict(float)
        self.task_s: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.failures: dict[str, str] = {}
        self.attempted = 0

    def run(self, group: str, task: str, fn):
        self.attempted += 1
        frame = self.tracer.frame("task", task) if self.tracer else None
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as err:  # a failing task is counted, the run goes on
            result = None
            self.failures[task] = f"{type(err).__name__}: {err}"
        finally:
            elapsed = time.perf_counter() - start
            self.group_s[group] += elapsed
            self.task_s[task] = elapsed
            if frame is not None:
                self.tracer.close(frame)
        if result is not None:
            self.digests[task] = digest(result)
        return result

    def cli(self, group: str, task: str, argv: list[str]):
        return self.run(group, task, lambda: workloads.call_cli(argv))

    def check(self, task: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.setdefault(task, f"reference check failed: {detail}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before the parent started this process")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(workload, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__,
                          "fockbell": fockbell.__version__}
    result["vm_peak_mb"] = _vm_peak_mb()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def measure(workload, args) -> dict:
    tracer = tracing.Tracer() if args.traced else None
    undo = tracing.install(tracer, layers.targets()) if tracer else []
    rounds: list[Round] = []
    walls: list[float] = []
    start = time.monotonic()
    try:
        while True:
            rnd = Round(tracer)
            workload.round(rnd)
            rounds.append(rnd)
            walls.append(sum(rnd.group_s.values()))
            # start another round only if it should end inside the budget
            if time.monotonic() - start + statistics.median(walls) > args.budget:
                break
    finally:
        tracing.uninstall(undo)
    failures: dict[str, list] = {}
    for i, rnd in enumerate(rounds):
        for task, message in rnd.failures.items():
            failures.setdefault(task, [0, message, i])[0] += 1
    out = {
        "rounds": [{"wall_s": w, "group_s": dict(r.group_s), "task_s": r.task_s}
                   for w, r in zip(walls, rounds)],
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "failures": {t: {"rounds": c, "first": m, "first_round": i}
                     for t, (c, m, i) in failures.items()},
        "digests": rounds[0].digests,
    }
    if tracer is not None:
        summary = tracing.summarize(tracer.spans)
        out["layers"] = layers.layer_metrics(summary, tracer.spans, len(rounds))
        spans_path = Path(args.result).with_suffix(".spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                row = asdict(s)
                row["counted"] = [[n, t, *v] for (n, t), v in s.counted.items()]
                fh.write(json.dumps(row) + "\n")
        out["spans_file"] = spans_path.name
        out["span_count"] = len(tracer.spans)
    return out


def _vm_peak_mb() -> float | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
