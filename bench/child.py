"""One benchmark invocation in a fresh interpreter.

    python3 bench/child.py MODE RESULT_JSON [-- CLI ARGS...]

MODE is one of
  setup  import kernelshot.cli and stop before calling main (set-up time);
  env    like setup, and also record the interpreter, numpy and BLAS;
  run    call kernelshot.cli.main(CLI ARGS) untraced;
  trace  wrap the public functions of every kernelshot module, then call main.

The result file holds the CLOCK_MONOTONIC time at which main was entered
(the parent compares it with the time it spawned this process), the time
main returned, main's return value, the peak resident set size so far
and, in trace mode, the recorded spans.
Only sys, os and time are imported before kernelshot, so the set-up time is
interpreter start plus the package import.
"""

import os
import sys
import time


def _environment(src_dir: str) -> dict:
    import ctypes
    import glob
    import platform

    import kernelshot
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib_path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            threads = int(getter())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "kernelshot_version": kernelshot.__version__,
        "kernelshot_from_checkout": os.path.realpath(kernelshot.__file__).startswith(
            os.path.realpath(src_dir) + os.sep
        ),
    }


def main() -> int:
    mode, result_path = sys.argv[1], sys.argv[2]
    cli_args = sys.argv[4:] if len(sys.argv) > 3 and sys.argv[3] == "--" else []

    import kernelshot.cli

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    entered = time.monotonic()
    code = kernelshot.cli.main(cli_args) if mode in ("run", "trace") else 0
    returned = time.monotonic()

    import json
    import resource

    # ru_maxrss is the process's high-water mark, in KiB on Linux
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"entered": entered, "returned": returned, "exit_code": code, "peak_rss_kib": peak_rss_kib}
    if mode == "env":
        result["environment"] = _environment(os.environ.get("KERNELSHOT_BENCH_SRC", ""))
    if tracer is not None:
        result["spans"] = tracer.export()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
