"""Seconds-to-certified-integer benchmark for oddchern.

Usage, from the repository root:

    python3 perfbench/run.py --workload sphere-chern --seed 1 --seconds 5 --trace 0

Each run starts fresh worker processes (worker.py) with one BLAS thread:
SETUP_SAMPLES - 1 of them only time set-up, and the last one also runs the
workload's ops in passes, back to back, until --seconds have elapsed (a pass
is never cut short, so a run has at least one).  Every op is checked against
its oracle.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of tracing.LAYER_METRICS.

The speed of a core on a shared host drifts by up to a third from one minute
to the next, and a pass's wall time with it.  So solve_s is the median over
passes of the pass's wall seconds scaled to a reference speed: multiplied by
REF_S and divided by the time of a fixed kernel (worker.Reference) measured
just before and just after the pass.  The unscaled median is printed on a
line before the result.

The canonical output of every op is hashed.  A run is incorrect if an op's
hash differs between passes, or from the hash that an earlier run of the same
source tree, numpy and BLAS recorded for the same op inputs in
.cache/digests.json, whether that run was traced or not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "oddchern"
DIGESTS = HERE / ".cache" / "digests.json"

WORKLOADS = ("sphere-chern", "collapse-4d", "gamma-limit")
# The same on every commit; one thread is also the single-threaded baseline.
BLAS_THREADS = "1"
SETUP_SAMPLES = 7
# solve_s is a pass's time on a core that runs worker.Reference in REF_S
# seconds; the kernel takes about that long on one idle core of a 2-vCPU
# Xeon VM.
REF_S = 0.1
RUN_TIMEOUT_S = 170.0


def _worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_worker(args, extra, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cache_key(env):
    """Hash of the package source and of the numpy and BLAS the digests depend on."""
    h = hashlib.sha256(f"numpy {env['numpy']}; blas {env['blas']}\n".encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_digests(passes, known):
    """Op labels whose output hash is not the same in every pass and in ``known``.

    ``known`` maps op labels to hashes recorded earlier; it is updated with
    the hashes of this run.
    """
    mismatched = set()
    for p in passes:
        for o in p["outcomes"]:
            if o["digest"] is None:
                continue
            seen = known.setdefault(o["label"], o["digest"])
            if seen != o["digest"]:
                mismatched.add(o["label"])
    return mismatched


def _load_digests(key):
    try:
        data = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        data = {}
    return data, data.get(key, {})


def _store_digests(data):
    DIGESTS.parent.mkdir(exist_ok=True)
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, DIGESTS)


def min_digits(figures, cap=14.0):
    """Minimum over accuracy figures of -log10(figure), capped."""
    return min((min(cap, -math.log10(f)) if f > 0 else cap for f in figures),
               default=0.0)


def end_to_end(result, setup_samples):
    passes = result["passes"]
    outcomes = [o for p in passes for o in p["outcomes"]]
    failed = sum(not o["ok"] for o in outcomes)
    figures = [f for o in outcomes for f in o["figures"].values()]
    return {
        "solve_s": (statistics.median(p["seconds"] * REF_S / p["ref_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "min_digits": (min_digits(figures), "digits"),
        "ops_ok_frac": (1.0 - failed / len(outcomes), "frac"),
    }


def per_layer(result):
    import tracing

    values = tracing.median_metrics([p["layers"] for p in result["passes"]])
    return {name: (values[name], unit) for name, unit, _, _ in tracing.LAYER_METRICS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "__init__.py").is_file():
        print(f"error: no oddchern sources under {SRC.parent}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_samples = [_run_worker(args, ["--setup-only"], deadline)["setup_s"]
                     for _ in range(SETUP_SAMPLES - 1)]
    result = _run_worker(args, [], deadline)
    setup_samples.append(result["setup_s"])

    sys.path.insert(0, str(HERE))
    key = _cache_key(result["env"])
    data, known = _load_digests(key)
    mismatched = check_digests(result["passes"], known)
    data[key] = known
    _store_digests(data)

    env = dict(result["env"], blas_threads_requested=int(BLAS_THREADS),
               nproc=os.cpu_count(), cpu=_cpu_model(), python=platform.python_version())
    print("env " + json.dumps(env, sort_keys=True))
    outcomes = [o for p in result["passes"] for o in p["outcomes"]]
    for o in outcomes:
        if not o["ok"]:
            print(f"FAILED {o['label']}: {o['reason']}")
    for label in sorted(mismatched):
        print(f"NONDETERMINISTIC {label}: output hash differs from an earlier pass or run")
    print(f"passes {len(result['passes'])}, ops {len(outcomes)}, median wall seconds "
          f"per pass {statistics.median(p['seconds'] for p in result['passes']):.4f}, "
          f"reference kernel {statistics.median(p['ref_s'] for p in result['passes']):.4f}")

    metrics = per_layer(result) if args.trace else end_to_end(result, setup_samples)
    failed = sum(not o["ok"] for o in outcomes)
    print(json.dumps({
        "correct": failed == 0 and not mismatched,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
