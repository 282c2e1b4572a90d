"""One benchmark process: set up a workload, then run it as a closed loop.

Started by ``run.py``; not meant to be run by hand.  The process imports the
library, generates the warm-up instance's inputs from the seed, runs that
instance, and prints ``READY`` -- the parent times set-up from process start
to that line.  In ``probe`` mode it then exits.  In ``run`` mode it runs one
instance after another (one client, each starting when the previous one has
finished) for ``--seconds`` without tracing and, with ``--trace 1``, for
``--seconds`` more with tracing, then prints ``RESULT <json>``.  A calibration
pass runs before the first instance and after every instance, outside the
timed region.  ``smoke`` mode runs exactly one untraced and one traced instance.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
import types

import numpy as np

import workloads
from tracing import Tracer


def blas_info() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def instance_rng(seed: int, k: int):
    """Inputs of instance k depend on the seed and k only (k = 0 is the warm-up)."""
    return np.random.default_rng([seed, k])


PYTHON_ROUNDS = 30_000  # about 5 to 9 ms on the baseline machine
BLAS_MATRIX = np.random.default_rng(0).normal(size=(128, 128))
BLAS_MATRIX = BLAS_MATRIX + BLAS_MATRIX.T  # about 2 ms per pass on the baseline machine


def python_pass() -> None:
    counts = {}
    for i in range(PYTHON_ROUNDS):
        key = i % 997
        counts[key] = counts.get(key, 0) + i * i % 7
    sorted(counts.items())


def blas_pass() -> None:
    np.linalg.eigh(BLAS_MATRIX)
    BLAS_MATRIX @ BLAS_MATRIX


CALIBRATION_KERNELS = {"python": python_pass, "blas": blas_pass}


def calibrate(kernel: str) -> float:
    """Seconds one pass of a fixed calibration kernel takes now.

    ``python`` is dict updates and a sort in the interpreter, ``blas`` an
    eigensolve and a product of a fixed 128 x 128 matrix on the workload's
    BLAS threads.  Neither touches the library, so a pass measures only how
    fast the host runs this process at the moment.  On a shared host that
    speed changes by up to 2x and stays put for a second or more; ``run.py``
    scales each instance time by the passes on either side of it.
    """
    start = time.perf_counter()
    CALIBRATION_KERNELS[kernel]()
    return time.perf_counter() - start


def run_one(workload, inputs, ctx, log) -> tuple:
    """(ok, seconds, artifact_bytes) for one instance; exceptions count as failures."""
    start = time.perf_counter()
    try:
        ok, size, detail = workload.run(inputs, ctx)
    except Exception as exc:  # a raising instance is a failed instance, the loop goes on
        ok, size, detail = False, 0, f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=log)
    elapsed = time.perf_counter() - start
    if not ok:
        print(f"instance failed: {detail}", file=log)
    return ok, elapsed, size


MIN_INSTANCES = 3  # so a median has a middle even when one instance outlasts --seconds


def closed_loop(workload, seed, first_k, seconds, kernel, ctx, log, tracer=None,
                max_instances=None):
    """Run instances back to back until ``seconds`` have passed and at least
    ``MIN_INSTANCES`` have run, or exactly ``max_instances`` when it is given.

    Each record carries the mean of the calibration passes just before and
    just after its instance."""
    records = []  # (k, ok, seconds, artifact_bytes, calibration_s)
    k = first_k
    deadline = time.perf_counter() + seconds
    before = calibrate(kernel)
    while True:
        inputs = workload.make_inputs(instance_rng(seed, k))
        if tracer is not None:
            tracer.instance = k
        ok, elapsed, size = run_one(workload, inputs, ctx, log)
        after = calibrate(kernel)
        records.append((k, ok, elapsed, size, (before + after) / 2))
        before = after
        k += 1
        if max_instances is not None and len(records) >= max_instances:
            break
        if (max_instances is None and len(records) >= MIN_INSTANCES
                and time.perf_counter() >= deadline):
            break
    if tracer is not None:
        tracer.instance = -1
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("probe", "run", "smoke"), default="run")
    ap.add_argument("--calibration", choices=sorted(CALIBRATION_KERNELS), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    log = sys.stderr
    ctx = types.SimpleNamespace(tmp_dir=os.path.join(args.out_dir, "tmp", f"{os.getpid()}"))
    os.makedirs(ctx.tmp_dir, exist_ok=True)
    try:
        return run_worker(args, ctx, log)
    finally:
        shutil.rmtree(ctx.tmp_dir, ignore_errors=True)


def run_worker(args, ctx, log) -> int:
    workload = workloads.WORKLOADS[args.workload]()
    warm_ok, warm_s, _ = run_one(workload, workload.make_inputs(instance_rng(args.seed, 0)), ctx, log)
    print("READY", json.dumps({"ok": warm_ok, "warmup_s": warm_s}), flush=True)
    if args.mode == "probe":
        return 0 if warm_ok else 1

    smoke = args.mode == "smoke"
    limit = 1 if smoke else None
    untraced = closed_loop(workload, args.seed, 1, args.seconds, args.calibration, ctx, log,
                           max_instances=limit)
    result = {
        "untraced": [list(r) for r in untraced],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "info": {"numpy": np.__version__, "blas": blas_info()},
    }
    if args.trace or smoke:
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
        try:
            traced = closed_loop(
                workload, args.seed, 1 + len(untraced), args.seconds, args.calibration, ctx, log,
                tracer=tracer, max_instances=limit,
            )
        finally:
            tracer.uninstall()
        result["traced"] = [list(r) for r in traced]
        result["per_layer"] = tracer.per_layer([(r[0], r[2]) for r in traced])
        trace_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path)
        result["spans_file"] = trace_path
    print("RESULT", json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
