"""Benchmark entry point for grou: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-consistency-t8 --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout, never from an
installed copy.  The parent process writes the workload's own input files,
then starts fresh worker processes of this script: several set-up probes,
which import ``grou``, build the inputs and exit at the point where the
first replication would start, and one main worker, which also runs whole
rounds of the workload for ``--seconds`` seconds of measured time and
checks every output.  ``--trace 1`` wraps the library's public functions
(see ``tracing.py``) and reports per-layer metrics instead of end-to-end
ones.  The last line of standard output is the result object; the run
record (machine, rounds, checks, metrics) and, when traced, the spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 4
RUN_LIMIT_S = 170.0

END_TO_END = {
    "reps_per_s": "1/s",
    "cpu_s_per_rep": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("probe", "main"), help=argparse.SUPPRESS)
    parser.add_argument("--run-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- worker process --------------------------------------------------------------


def _import_library():
    """Import ``grou`` from this checkout's ``src``; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "grou", "__init__.py")):
        raise SystemExit(f"no grou sources under {SRC}")
    sys.path.insert(0, SRC)
    import grou

    if not os.path.abspath(grou.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported grou from {grou.__file__}, not from {SRC}")
    return grou


def _openblas_threads(package):
    """Thread count of the OpenBLAS bundled with ``package`` (numpy or scipy), if it exposes one."""
    libdir = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_thread_env": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
    }
    for package in (numpy, scipy):
        blas = package.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        info[f"{package.__name__}_blas"] = f"{blas.get('name')} {blas.get('version')}"
        info[f"{package.__name__}_blas_threads"] = _openblas_threads(package)
    return info


def worker(args):
    _import_library()
    import workloads

    tracer = None
    if args.trace and args.worker == "main":
        import tracing

        tracer = tracing.Tracer()
    workload = workloads.WORKLOADS[args.workload](args.run_dir, args.seed, tracer)
    workload.setup()
    ready = time.monotonic()
    if args.worker == "probe":
        print(json.dumps({"ready": ready}))
        return 0
    if tracer is not None:
        tracing.install_library_spans(tracer)

    rounds, fails, errors = [], [], []
    measured = 0.0
    i = 0
    while measured < args.seconds:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = workload.run_round(i)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        measured += wall
        rounds.append(
            {"wall": wall, "cpu": cpu, "reps": result.reps, "attempted": result.attempted, "failed": result.failed}
        )
        errors += result.errors
        fails += workload.check_round(result)
        i += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fails += workload.finish()

    reps_per_round = rounds[0]["reps"]
    record = {
        "ready": ready,
        "rounds": rounds,
        "reps_per_s": statistics.median(r["reps"] / r["wall"] for r in rounds),
        "cpu_s_per_rep": statistics.median(r["cpu"] for r in rounds) / reps_per_round,
        "peak_rss_mb": peak_kb / 1024.0,
        "check_failures": fails,
        "operation_errors": sorted(set(errors)),
        "machine": machine_info(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(args.run_dir, "spans.jsonl"))
        total_reps = sum(r["reps"] for r in rounds)
        metrics = tracing.layer_metrics(tracer.spans, total_reps)
        metrics["trace.reps_per_s"] = record["reps_per_s"]
        record["layer_metrics"] = metrics
        record["spans"] = len(tracer.spans)
    print(json.dumps(record))
    return 0


# -- parent process --------------------------------------------------------------


def _spawn(args, role, run_dir, deadline):
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--worker", role, "--run-dir", run_dir,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{role} worker exceeded the run's time limit")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{role} worker failed with exit code {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - started
    return record


def parent(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "grou", "__init__.py")):
        print(f"perfbench: no grou sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    workload = workloads.WORKLOADS[args.workload](run_dir, args.seed)
    try:
        workload.prepare()
        setups = [_spawn(args, "probe", run_dir, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        record = _spawn(args, "main", run_dir, deadline)
    finally:
        for file in workload.input_files():
            if os.path.exists(file):
                os.remove(file)
    setups.append(record["setup_s"])
    record["setup_samples_s"] = setups
    record["setup_s"] = statistics.median(setups)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    rounds = record["rounds"]
    if args.trace:
        import tracing

        metrics = {
            name: {"value": record["layer_metrics"][name], "unit": unit}
            for name, (unit, _) in tracing.LAYER_UNITS.items()
        }
    else:
        metrics = {name: {"value": record[name], "unit": unit} for name, unit in END_TO_END.items()}
    for failure in record["check_failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    for error in record["operation_errors"]:
        print(f"perfbench: operation failed: {error}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"]}))
    print(
        json.dumps(
            {
                "correct": not record["check_failures"],
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv=None):
    args = _parse(argv if argv is not None else sys.argv[1:])
    if args.worker:
        sys.path.insert(0, HERE)
        return worker(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
