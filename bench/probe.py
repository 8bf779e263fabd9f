"""Small child processes of the benchmark.

python3 bench/probe.py setup CONFIG   import pt4al, load CONFIG, build its dataset
python3 bench/probe.py env            print the environment block as JSON

``setup`` is the fixed cost every pt4al command pays before its first SGD
step; the benchmark times the whole process. ``env`` runs under the same
environment variables as the workload commands, so the BLAS thread count
it reports is the one they run with.
"""
import argparse
import ctypes
import json
import os
import platform
import sys


def setup(config_path: str) -> None:
    from pt4al import cli, loop

    config, _ = cli.load_config(config_path, argparse.Namespace(output_dir="unused"))
    loop.build_dataset(config.dataset, config.seed)


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS library for its thread count; None if it cannot be found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env() -> dict:
    import numpy

    import pt4al

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "pt4al": pt4al.__version__,
    }


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif sys.argv[1:] == ["env"]:
        print(json.dumps(env(), sort_keys=True))
    else:
        sys.exit(__doc__)
