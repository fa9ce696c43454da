"""One workload run in a fresh process; prints its measurements as JSON.

Started by run.py with the BLAS thread count already in the environment, so
numpy's BLAS reads it when it loads.  With --setup-only the worker stops after
set-up (importing oddchern and building the ops' inputs) and reports its
duration.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_env():
    """numpy, OpenBLAS version and the thread count OpenBLAS actually uses."""
    import ctypes

    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}",
            "blas_threads_in_use": threads}


class Reference:
    """A fixed numpy and Python kernel whose time tracks the machine's speed.

    On a shared host one core's speed drifts by up to a third over a minute.
    The kernel mixes the two kinds of work the ops do, stacked small complex
    matrix products and interpreted Python.  It is run before every pass and
    after the last one, for a tenth of the previous pass's time and at least
    MIN_WINDOW_S, and its mean time there is recorded; run.py divides each
    pass's time by the mean of the two windows around it.
    """

    MIN_WINDOW_S = 0.3
    # Small arrays (1.3 MB each), so that the kernel adds little to the
    # worker's peak RSS.
    NODES = 20_000

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        shape = (self.NODES, 2, 2)
        self.a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def _once(self):
        import numpy as np

        t0 = time.perf_counter()
        for _ in range(10):
            np.einsum("nij,nji->n", self.a @ self.b, self.a)
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        return time.perf_counter() - t0

    def seconds(self, window):
        """Mean time of the kernel, run for at least max(window, MIN_WINDOW_S)."""
        times = []
        while sum(times) < max(window, self.MIN_WINDOW_S):
            times.append(self._once())
        return sum(times) / len(times)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = restore = per_span_s = None
    span = contextlib.nullcontext
    if args.trace:
        import tracing

        per_span_s = tracing.span_overhead_s()
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        span = tracer.span

    reference = Reference()
    refs = []
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        refs.append(reference.seconds(passes[-1]["seconds"] / 10 if passes else 0.0))
        cpu0 = _cpu_s()
        root = tracer.open("pass") if tracer else None
        t0 = time.perf_counter()
        outcomes = [workloads.attempt(op, span) for op in ops]
        t1 = time.perf_counter()
        if tracer:
            tracer.close(root)
        cpu = _cpu_s() - cpu0
        layers = tracing.pass_metrics(tracer.spans, root, cpu, per_span_s) if tracer else None
        passes.append({"seconds": t1 - t0, "cpu_s": cpu, "layers": layers,
                       "outcomes": [vars(o) for o in outcomes]})
        if t1 >= deadline:
            break
    refs.append(reference.seconds(passes[-1]["seconds"] / 10))
    for p, before, after in zip(passes, refs, refs[1:]):
        p["ref_s"] = (before + after) / 2
    if restore:
        restore()

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _blas_env(),
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
