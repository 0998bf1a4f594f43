"""One benchmark process; run.py starts it with a fresh interpreter.

Modes:
  setup    set up the workload, print "ready" and exit;
  measure  set up, print "ready", run timed blocks for --seconds, check the
           outputs and print one JSON line;
  trace    set up and run one traced block of every workload, check them and
           print one JSON line with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import workloads


def read_steal_s() -> float | None:
    """Steal time of the whole machine so far, from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def check_blocks(wl, outputs) -> tuple[list[str], int]:
    """Problems found, and the number of blocks that fail. Blocks repeat the
    same inputs, so each must equal the first, which is checked in full."""
    first = wl.check_output(outputs[0])
    differ = [k for k, out in enumerate(outputs) if out != outputs[0]]
    failed = len(outputs) if first else len(differ)
    problems = first + [f"block {k} differs from block 0" for k in differ]
    return problems + wl.check_run(), failed


def measure(wl, seconds: float) -> dict:
    """Repeat the fixed-work block until the next one would end after `seconds`."""
    cpu0, steal0, t0 = cpu_s(), read_steal_s(), time.perf_counter()
    outputs, times = [], []
    while not times or time.perf_counter() - t0 + statistics.median(times) <= seconds:
        start = time.perf_counter()
        outputs.append(wl.block())
        times.append(time.perf_counter() - start)
    window = time.perf_counter() - t0
    cpu1, steal1 = cpu_s(), read_steal_s()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, failed = check_blocks(wl, outputs)
    return {
        "items_per_block": wl.items_per_block,
        "block_s": times,
        "peak_rss_mib": peak_rss_mib,
        "window_s": window,
        "window_cpu_s": cpu1 - cpu0,
        "window_steal_s": None if steal0 is None else steal1 - steal0,
        "failed": failed,
        "problems": problems,
    }


def trace_pass(wls: dict) -> dict:
    """One traced block of every workload, in the order of workloads.NAMES,
    then the untraced checks."""
    import tracing

    tracer = tracing.Tracer()
    outputs, traced_items_per_s = {}, {}
    cpu0, steal0, t0 = cpu_s(), read_steal_s(), time.perf_counter()
    restore = tracing.install(tracer)
    try:
        for name, wl in wls.items():
            with tracer.span(f"setup:{name}"):
                wl.setup()
            start = time.perf_counter()
            with tracer.span(f"block:{name}"):
                outputs[name] = wl.block()
            traced_items_per_s[name] = wl.items_per_block / (time.perf_counter() - start)
        with tracer.span("probe:design_fig7"):
            tracing.probe_scorers(wls["design_fig7"], tracer)
    finally:
        restore()
    window = time.perf_counter() - t0
    cpu1, steal1 = cpu_s(), read_steal_s()
    metrics = {
        name: {"value": value, "unit": tracing.LAYER_METRICS[name][0]}
        for name, value in tracing.layer_metrics(tracer, wls).items()
    }
    problems, failed = [], 0
    for name, wl in wls.items():
        found, fails = check_blocks(wl, [outputs[name]])
        problems += [f"{name}: {p}" for p in found]
        failed += fails
    return {
        "attempted": len(wls),
        "failed": failed,
        "problems": problems,
        "layer_metrics": metrics,
        "traced_items_per_s": traced_items_per_s,
        "spans": len(tracer.spans),
        "window_s": window,
        "window_cpu_s": cpu1 - cpu0,
        "window_steal_s": None if steal0 is None else steal1 - steal0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)
    if args.mode == "trace":
        result = trace_pass({name: workloads.make(name, args.seed) for name in workloads.NAMES})
    else:
        wl = workloads.make(args.workload, args.seed)
        wl.setup()
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        result = measure(wl, args.seconds)
    result["machine"] = machine_facts()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
