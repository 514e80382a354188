"""fockbell benchmark: run one workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload bell-max --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Every workload runs in a child process of
its own, with FOCKBELL_THREADS unset and an address-space limit on that child
only, so a runaway allocation fails a task instead of the machine.

--trace 0  end-to-end metrics: set-up time (median of several fresh
           processes), the median round's wall time, and peak memory.
--trace 1  per-layer metrics: an untraced and a traced child run the same
           rounds; the traced one wraps fockbell's public functions.  Their
           outputs are compared by digest and the slowdown is reported.

The last line of standard output is the result; the full record, with the
environment, goes to perfbench/out/.
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
OUT = HERE / "out"

WORKLOADS = ("bell-max", "large-n", "verify-sample")
SETUP_SAMPLES = 9              # fresh processes whose set-up time gives setup_s
ADDRESS_SPACE_BYTES = 4 << 30  # per workload child
RUN_TIMEOUT_S = 170            # the whole run, all children included
THREAD_VARIABLES = ("FOCKBELL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")

# end-to-end time of each command group, reported per layer from the untraced pass
COMMAND_GROUPS = ("qmax", "scan", "correlate", "tables", "sample", "oracle_check", "phase")


class ChildError(RuntimeError):
    """A workload process exited without a result."""


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def spawn(workload: str, seed: int, budget: float, tag: str, deadline: float, *,
          traced: bool = False, setup_only: bool = False) -> dict:
    """Run worker.py in a fresh process and return the result it wrote."""
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-{tag}"
    result_path = OUT / f"{stem}.json"
    result_path.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "FOCKBELL_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--budget", repr(budget),
            "--workdir", str(OUT / f"work-{os.getpid()}-{tag}"), "--result", str(result_path)]
    if traced:
        argv.append("--traced")
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], env=env, cwd=ROOT,
                            stdout=sys.stderr, preexec_fn=_limit_address_space)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildError(f"{stem} still running when the run's {RUN_TIMEOUT_S} s ran out") from None
    if code != 0 or not result_path.is_file():
        raise ChildError(f"{stem} exited with code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if setup_only:
        result_path.unlink()
    return result


def environment() -> dict:
    """Machine, interpreter and thread settings that go with the numbers."""
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _first_field("/proc/cpuinfo", "model name"),
        "mem_total": _first_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "git_commit": _git_commit(),
    }


def _first_field(path: str, key: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(workload, seed, 0.0, f"setup{i}", deadline, setup_only=True)["setup_s"]
              for i in range(SETUP_SAMPLES - 1)]
    main = spawn(workload, seed, float(seconds), "trace0", deadline)
    setups.append(main["setup_s"])
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in main["rounds"]), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return metrics, {"setup_samples_s": setups, "main": main,
                     "attempted": main["attempted"], "failed": main["failed"]}


def per_layer(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    plain = spawn(workload, seed, seconds / 2.0, "trace1-plain", deadline)
    traced = spawn(workload, seed, seconds / 2.0, "trace1-traced", deadline, traced=True)
    metrics = dict(traced["layers"])
    for group in COMMAND_GROUPS:
        metrics[f"{group}_s"] = statistics.median(
            r["group_s"].get(group, 0.0) for r in plain["rounds"])
    metrics["trace_overhead_frac"] = (statistics.median(r["wall_s"] for r in traced["rounds"])
                                      / statistics.median(r["wall_s"] for r in plain["rounds"])
                                      - 1.0)
    record = {
        "plain": plain,
        "traced": traced,
        # reported, not gated: tracing must not change what the commands print
        "outputs_identical": plain["digests"] == traced["digests"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }
    return {name: (value, unit_of(name)) for name, value in metrics.items()}, record


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or name.endswith("us_per_chain"):
        return "us"
    if name.endswith("per_grid_cell"):
        return "ns"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def describe(record: dict) -> str:
    """Human-readable lines printed before the result."""
    env = record["environment"]
    lines = [f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
             f"{record['attempted']} tasks, {record['failed']} failed; "
             f"nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']}"]
    for key in ("main", "plain", "traced"):
        if key in record:
            walls = [round(r["wall_s"], 3) for r in record[key]["rounds"]]
            lines.append(f"  {key}: round wall times {walls}")
            for task, info in record[key]["failures"].items():
                lines.append(f"  FAILED {task} in {info['rounds']} round(s): {info['first']}")
    if "outputs_identical" in record:
        lines.append(f"  traced outputs identical to untraced: {record['outputs_identical']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fockbell" / "__init__.py").is_file():
        print(f"error: no fockbell sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, record = measure(args.workload, args.seed, args.seconds, deadline)
    except ChildError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    child = record.get("main") or record["plain"]
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment() | child["versions"],
                  result=result)
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(describe(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
