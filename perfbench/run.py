"""Benchmark of the afdm-pim simulator: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
With --trace 0 the run starts fresh worker processes in turn, each of which
reports when its set-up is done: SETUP_SAMPLES set-up-only workers, the
measuring worker, which then repeats the workload's fixed-work block for
--seconds, checks the outputs and reports, and SETUP_SAMPLES more set-up-only
workers. With --trace 1 one worker runs a traced block of every workload. The
last line of standard output is one JSON object: correct, attempted, failed
and the metrics. A record of the run, with the machine's facts, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ber_fig7", "ber_fig8", "bound_fig4", "design_fig7")
SETUP_SAMPLES = 4  # fresh set-up-only processes before and again after the measuring one
WORKER_TIMEOUT_S = 150.0  # a whole run must end within 180 s

# Numpy runs with one BLAS thread: on a 2-vCPU host a 400x400 GEMM ran at
# 42/s with OpenBLAS's default two threads against 323/s with one.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(args, mode: str) -> tuple[float | None, dict | None]:
    """Start one worker; return (seconds from start to its "ready" line, its
    JSON result). Setup-only workers return no result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = None
            if mode != "trace":
                line = proc.stdout.readline()
                ready = time.perf_counter() - start
                if line.strip() != "ready":
                    raise WorkerFailed(f"{mode} worker did not finish its set-up: {line!r}")
            lines = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
    if code != 0:
        raise WorkerFailed(f"{mode} worker exited with code {code}")
    if mode == "setup":
        return ready, None
    if not lines:
        raise WorkerFailed(f"{mode} worker printed no result")
    return ready, json.loads(lines[-1])


def measured_run(args) -> tuple[dict, dict]:
    setups = [run_worker(args, "setup")[0] for _ in range(SETUP_SAMPLES)]
    ready, res = run_worker(args, "measure")
    setups += [ready] + [run_worker(args, "setup")[0] for _ in range(SETUP_SAMPLES)]
    block_s = statistics.median(res["block_s"])
    summary = {
        "correct": not res["problems"],
        "attempted": len(res["block_s"]),
        "failed": res["failed"],
        "metrics": {
            "items_per_s": {"value": res["items_per_block"] / block_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mib"], "unit": "MiB"},
        },
    }
    return summary, dict(res, setup_s=setups)


def traced_run(args) -> tuple[dict, dict]:
    _, res = run_worker(args, "trace")
    summary = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["layer_metrics"],
    }
    return summary, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="afdm-pim benchmark (one workload per call)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "afdm_pim" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'afdm_pim'}", file=sys.stderr)
        return 2
    started = time.time()
    try:
        summary, detail = (traced_run if args.trace else measured_run)(args)
    except (WorkerFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    for problem in detail["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record = dict(vars(args), started=started, wall_s=time.time() - started, summary=summary, detail=detail)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
