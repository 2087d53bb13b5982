"""One benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC is {"src": dir, "commands": [argv, ...], "trace": bool, "env": bool}.
The worker imports delayframe from ``src`` and stamps the time the import
finished, so the parent can take set-up time from the moment it started
the process. It then calls ``delayframe.cli.main`` on each argv in order
and writes wall and CPU time per call, exit codes, peak RSS and, when
traced, the spans to RESULT. An empty command list only measures set-up.
Exit code 3 means the benchmark itself cannot run here (no package under
``src``, a trace target missing); the parent then gives no result.
"""

import json
import os
import resource
import sys
import time

SETUP_FAILED = 3


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas_threads():
    """Thread count the loaded BLAS library reports, or None if unknown."""
    import ctypes

    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libraries = sorted({line.split()[-1] for line in fh
                            if ".so" in line and ("blas" in line or "mkl" in line)})
    names = [p + "openblas_get_num_threads" + s
             for p in ("", "scipy_") for s in ("", "64_")] + ["MKL_Get_Max_Threads"]
    for path in libraries:
        library = ctypes.CDLL(path)
        for name in names:
            getter = getattr(library, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return os.path.basename(path), int(getter())
    return None, None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    library, threads = _blas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_library": library,
        "blas_threads": threads,
    }


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def main():
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    try:
        import delayframe
        import delayframe.cli
    except ImportError as exc:
        print(f"worker: cannot import delayframe from {src}: {exc}", file=sys.stderr)
        return SETUP_FAILED
    imported = time.monotonic()
    if not os.path.realpath(delayframe.__file__).startswith(src + os.sep):
        print(f"worker: delayframe came from {delayframe.__file__}, not {src}",
              file=sys.stderr)
        return SETUP_FAILED

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        try:
            tracer.install()
        except LookupError as exc:
            print(f"worker: {exc}", file=sys.stderr)
            return SETUP_FAILED

    calls = []
    for index, argv in enumerate(spec["commands"]):
        if tracer is not None:
            tracer.command = index
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            code = delayframe.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        t1, cpu1 = time.perf_counter(), _cpu_s()
        calls.append({"code": code, "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0})

    result = {
        "imported": imported,
        "calls": calls,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spec["commands"]:
        import workloads

        result["bytes_written"] = sum(
            _bytes_under(workloads.out_dir(argv))
            for argv, call in zip(spec["commands"], calls) if call["code"] == 0)
    if tracer is not None:
        result["spans"] = tracer.spans
    if spec.get("env"):
        result["env"] = environment()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
