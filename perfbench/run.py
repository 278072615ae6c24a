"""Benchmark entry point.

    python3 perfbench/run.py --workload {train-k4,baseline-k16,infer-k4}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` of the
same checkout and from nowhere else, so the benchmark measures the tree it
sits in.  BLAS is pinned to one thread before numpy loads.  Standard output
ends with a run record line (``{"record": ...}``: environment, work counts,
checks) and then the result object ``{"correct", "attempted", "failed",
"metrics"}``; ``--trace 1`` reports the per-layer metrics instead of the
end-to-end ones and writes its spans under ``.perfbench/``.  Exit code 2
means the package could not be found or imported.
"""

import os
import sys
import time

PROCESS_T0 = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, or why it is unverified."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unverified: /proc/self/maps unreadable"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unverified: no OpenBLAS thread query found"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_desc = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_desc, "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lcapa", "__init__.py")):
        print(f"perfbench: no lcapa package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import numpy as np
    from perfbench.hostprobe import drift, hot_median_ms

    # A program change that slows the whole process (a thread holding the GIL,
    # BLAS threading, gc settings) slows the in-run probe too; the record
    # compares hot probe batches before the package loads and after the run.
    t_probe = time.perf_counter()
    pre_import_ms = hot_median_ms()
    probe_s = time.perf_counter() - t_probe
    import lcapa

    if os.path.dirname(os.path.abspath(lcapa.__file__)) != os.path.join(SRC, "lcapa"):
        print(f"perfbench: lcapa imported from {lcapa.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.harness import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - PROCESS_T0 - probe_s

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        cls = WORKLOADS[args.workload]
        workload = cls(workdir=workdir) if args.workload == "train-k4" else cls()
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        result, record = measure(workload, args.seed, args.seconds, bool(args.trace),
                                 import_s=import_s,
                                 trace_path=trace_path if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(drift(pre_import_ms, hot_median_ms()))
    record.update(environment(np))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
