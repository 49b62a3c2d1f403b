"""One spinladder CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 bench/child.py [--trace] [CLI ARGS ...]

The first statements import ``spinladder.cli`` from ``src/`` so that the
``ready`` stamp (CLOCK_MONOTONIC, comparable with the parent's stamp taken
before the spawn) closes the set-up interval. The calibration kernel is
timed right before and right after ``cli.main``; ``--trace`` installs the
span tracer first. The last stdout line is one JSON object with the
measurements and the environment.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
from spinladder import cli  # noqa: E402

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402

def environment():
    import platform

    import numpy
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def calibrate():
    """Mean seconds of eight rounds of fixed interpreter and BLAS work.

    Timed in the same process right before and after ``cli.main``, it tracks
    how fast the machine runs at that moment. Its complex matrix products use
    the BLAS kernel that evolution uses anyway, and it touches no other
    library code, so the workloads' peak RSS is unchanged.
    """
    import numpy as np
    mat = np.exp(1j * np.arange(128 * 128.0)).reshape(128, 128) / 128
    mat @ mat  # the first product sets up BLAS buffers; keep it out of the timing
    start = time.perf_counter()
    for _ in range(8):
        total = 0
        for i in range(100000):
            total += i * i
        for _ in range(10):
            mat @ mat
    return (time.perf_counter() - start) / 8


def main(argv):
    result = {"ready": READY}
    tracer = None
    if argv[:1] == ["--trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        argv = argv[1:]
        result["absent"] = tracer.absent
    cal_before = calibrate()
    start = time.perf_counter()
    result["rc"] = cli.main(argv)
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["cal_s"] = [cal_before, calibrate()]
    if tracer is not None:
        result["layers"] = tracer.report(result["wall_s"])
    result["env"] = environment()
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
