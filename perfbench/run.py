"""Benchmark entry point for syncgames.

    python3 perfbench/run.py --workload <demo|kcopy2|spectral|classical> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root (the library is imported from ``src/``; nothing is
installed).  Each run starts fresh worker processes, one at a time, so the load
comes from a single client process:

* ``--trace 0`` measures set-up ``SETUP_SAMPLES`` times (process start, import,
  seeded input generation and one warm-up instance; the median is reported),
  then runs the workload as a closed loop for ``--seconds`` and reports the
  end-to-end metrics.
* Instance times are reported at a reference host speed: each is scaled by
  the calibration passes the worker runs on either side of it
  (``worker.calibrate``), as ``CALIBRATION`` sets for the workload.  Set-up
  times are wall times.  Raw wall times and calibration times are printed on
  every run and kept in the full record.
* ``--trace 1`` runs the same untraced loop, then the same loop again with
  spans around every call into the library, and reports the per-layer
  metrics plus the tracing overhead (traced over untraced median instance time).
* ``--smoke`` runs one untraced and one traced instance of every workload and
  checks that every metric named in ``BENCHMARK.json`` is produced.

Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record with provenance is written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from metrics import END_TO_END_UNITS, PER_LAYER_UNITS, TRACE_SUMMARY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("demo", "kcopy2", "spectral", "classical")
SETUP_SAMPLES = 3          # the timed run's own set-up plus two set-up-only processes
RUN_DEADLINE_S = 170.0     # every process of one run ends within this
# Per workload, the calibration kernel (see worker.calibrate) and how strongly
# its instance times follow the kernel's: a time t next to passes of c seconds
# is reported as t * (reference / c) ** exponent, its time on a host where one
# pass takes the kernel's reference time (a typical pass on the baseline
# machine, where python passes ranged from 3.5 to 9 ms).  spectral runs LAPACK
# on the BLAS threads, the others run in the interpreter.  The exponents were
# chosen from recordings on the baseline machine (see README.md): classical
# and spectral move with their kernel;
# demo's tiny numpy calls and kcopy2's JSON codec move less than the
# interpreter does, and a 7 s kcopy2 instance outlasts the speed its passes saw.
CALIBRATION = {
    "demo": ("python", 0.8),
    "kcopy2": ("python", 0.5),
    "spectral": ("blas", 1.0),
    "classical": ("python", 1.0),
}
CALIBRATION_REFERENCE_S = {"python": 0.0075, "blas": 0.0025}


class BenchError(Exception):
    """The benchmark could not produce a result (missing library, crashed worker)."""


def blas_threads() -> int:
    """BLAS threads for the workers: never more than the CPUs this process may use."""
    return max(1, len(os.sched_getaffinity(0)))


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def check_layout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "syncgames", "__init__.py")):
        raise BenchError(f"no library source at {os.path.join(ROOT, 'src', 'syncgames')}")


class Worker:
    """One worker process; stopped and waited for on every path out."""

    def __init__(self, args: list, deadline: float):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--out-dir", OUT_DIR] + args
        self.started = time.perf_counter()
        self.deadline = deadline
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True
        )
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self.proc.kill)
        self.timer.start()

    def read_tagged(self, tag: str) -> dict:
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1 :])
        raise BenchError(f"worker ended without {tag} (exit code {self.proc.wait()})")

    def close(self) -> int:
        """Wait for the process to exit (killing it at the deadline); its exit code."""
        try:
            self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
        self.timer.cancel()
        self.proc.stdout.close()
        return self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
        self.close()


def measure_setup(worker_args: list, deadline: float) -> tuple:
    """(seconds from process start to READY, warm-up passed) for one set-up-only process."""
    with Worker(worker_args + ["--mode", "probe"], deadline) as w:
        ready = w.read_tagged("READY")
        elapsed = time.perf_counter() - w.started
    return elapsed, ready["ok"]


def scaled(workload: str, seconds: float, calibration_s: float) -> float:
    """A wall time scaled to the reference host speed."""
    kernel, exponent = CALIBRATION[workload]
    return seconds * (CALIBRATION_REFERENCE_S[kernel] / calibration_s) ** exponent


def percentile_line(times: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(times)
    line = f"n={n} median={statistics.median(times):.4f}s"
    for q in (99, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(times, n=100, method="inclusive")
            return line + f" p{q}={cuts[q - 1]:.4f}s"
    return line + " (too few samples for a tail percentile)"


def provenance(args, info: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": info.get("numpy"),
        "blas": info.get("blas"),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def bench(args) -> tuple:
    """(human-readable lines, result record) for one run of one workload."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    kernel, exponent = CALIBRATION[args.workload]
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--calibration", kernel]
    setups, warmups_ok = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            elapsed, ok = measure_setup(base, deadline)
            setups.append(elapsed)
            warmups_ok.append(ok)
    with Worker(base + ["--mode", "run"], deadline) as w:
        ready = w.read_tagged("READY")
        setups.append(time.perf_counter() - w.started)
        warmups_ok.append(ready["ok"])
        result = w.read_tagged("RESULT")
        code = w.close()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")

    untraced = result["untraced"]
    records = untraced + result.get("traced", [])
    # every instance counts, the warm-ups of the set-up samples included
    attempted = len(records) + len(warmups_ok)
    failed = sum(1 for r in records if not r[1]) + warmups_ok.count(False)
    times = [scaled(args.workload, t, cal) for _, _, t, _, cal in untraced]
    completed = sum(1 for r in untraced if r[1])
    lines = [f"workload {args.workload} seed {args.seed}: {attempted} instances "
             f"({len(warmups_ok)} warm-up), {failed} failed"]
    lines.append("untraced instance time (scaled): " + percentile_line(times))
    lines.append("untraced instance time (wall):   " + percentile_line([r[2] for r in untraced]))
    lines.append(f"{kernel} calibration time:     " + percentile_line([r[4] for r in untraced])
                 + f" (reference {CALIBRATION_REFERENCE_S[kernel]}s, exponent {exponent})")
    if args.trace:
        traced_times = [scaled(args.workload, t, cal) for _, _, t, _, cal in result["traced"]]
        lines.append("traced instance time (scaled):   " + percentile_line(traced_times))
        metrics = dict(result["per_layer"])
        metrics["trace.untraced_instance_s"] = statistics.median(times)
        metrics["trace.traced_instance_s"] = statistics.median(traced_times)
        metrics["trace.overhead_ratio"] = (
            metrics["trace.traced_instance_s"] / metrics["trace.untraced_instance_s"] - 1.0
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "instance_s": statistics.median(times),
            "instances_per_s": completed / sum(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "artifact_mb": sum(r[3] for r in untraced) / len(untraced) / 1e6,
        }
        lines.append("set-up samples: " + ", ".join(f"{s:.4f}s" for s in setups))
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        lines.append(f"  {name:34s} {value:.6g} {units[name]}")
    lines.append(f"  {'failed_ratio':34s} {failed / attempted:.6g} 1")
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    full = dict(record, provenance=provenance(args, result["info"]),
                instance_counts={"warmup": len(warmups_ok), "untraced": len(untraced),
                                 "traced": len(result.get("traced", []))},
                calibration_kernel=kernel, calibration_exponent=exponent,
                calibration_reference_s=CALIBRATION_REFERENCE_S[kernel],
                setup_samples_s=setups,
                instance_fields=["k", "ok", "wall_s", "artifact_bytes", "calibration_s"],
                instances=records, spans_file=result.get("spans_file"))
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    lines.append(f"provenance: {json.dumps(full['provenance'])}")
    lines.append(f"full record: {os.path.relpath(path, ROOT)}")
    return lines, record


def smoke() -> bool:
    """One untraced and one traced instance per workload, plus a metric-name check."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    agreements = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS,
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS,
        "workloads": [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES),
    }
    for key, ok in agreements.items():
        print(f"BENCHMARK.json {key} matches the benchmark: {'PASS' if ok else 'FAIL'}")
    all_ok = all(agreements.values())
    for name in WORKLOAD_NAMES:
        deadline = time.monotonic() + RUN_DEADLINE_S
        args = ["--workload", name, "--seed", "1", "--mode", "smoke",
                "--calibration", CALIBRATION[name][0]]
        with Worker(args, deadline) as w:
            ready = w.read_tagged("READY")
            result = w.read_tagged("RESULT")
        records = result["untraced"] + result["traced"]
        ok = ready["ok"] and all(r[1] for r in records)
        ok &= set(result["per_layer"]) == set(PER_LAYER_UNITS) - TRACE_SUMMARY
        print(f"smoke {name}: {'PASS' if ok else 'FAIL'} "
              f"(warm-up {ready['warmup_s']:.3f}s, instance {records[0][2]:.3f}s, "
              f"traced {records[1][2]:.3f}s)")
        all_ok &= ok
    return all_ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one instance per workload, then exit")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        check_layout()
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.smoke:
            return 0 if smoke() else 1
        lines, record = bench(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
