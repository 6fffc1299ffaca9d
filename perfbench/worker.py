"""One workload in one process; prints one JSON object on stdout.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src`` and
the BLAS thread count pinned. The clock starts before numpy, scipy or
radreg is imported, so ``setup_s`` covers the imports and the generation of
the inputs.

The worker runs all units of the workload in rounds, as many as fit in the
time; every round must give the same outputs. A unit's time is its median
round. Times are reported in reference seconds. On a virtual
machine that shares its host, the same code runs up to 1.4x slower for
minutes at a time, so wall times of runs made minutes apart are not
comparable. Before every unit and after the last one the worker times a
fixed numpy, scipy and Python kernel that never touches radreg (``calibrate``),
and scales each wall time by ``CAL_REF_S`` over the mean of the kernel
times just before and after it. A change to radreg cannot move the kernel,
so the scaled times compare commits as wall times would on a quiet
machine. The raw wall times are reported as well.

Modes:
  --setup-only     import and generate the inputs, report setup_s, exit
  --seconds S      run rounds while the next one still ends within S seconds,
                   at least one; ``--seconds 0`` runs exactly one round
  --trace          wrap the layers, report per-layer metrics and write the
                   spans to out/WORKLOAD-seedSEED.spans.jsonl
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from workloads import SWEEP_METHODS, WORKLOADS, digest  # noqa: E402

CAL_REF_S = 0.01   # the calibration kernel takes about this long on a quiet 2-vCPU Xeon VM


def _calibration_inputs():
    """Fixed inputs of the calibration kernel: points and a 60 x 6 LAD LP."""
    rng = np.random.default_rng(0)
    points = rng.standard_normal((300, 20))
    X = rng.standard_normal((60, 6))
    y = X @ np.arange(6.0) + rng.standard_normal(60)
    eye = np.eye(60)
    lp = {
        "c": np.concatenate([np.zeros(6), np.ones(60)]),
        "A_ub": np.block([[-X, -eye], [X, -eye]]),
        "b_ub": np.concatenate([-y, y]),
        "bounds": [(None, None)] * 6 + [(0, None)] * 60,
        "method": "highs",
    }
    return points, lp


_CAL_POINTS, _CAL_LP = _calibration_inputs()


def calibrate():
    """Wall time of a fixed kernel like the pipeline's work: two small LPs,
    SVDs, row normalisation, Gram matrices and Python sorting."""
    start = time.perf_counter()
    for _ in range(2):
        linprog(**_CAL_LP)
    for _ in range(10):
        np.linalg.svd(_CAL_POINTS, full_matrices=False)
        rows = _CAL_POINTS / np.linalg.norm(_CAL_POINTS, axis=1)[:, None]
        float((rows.T @ rows).sum())
        sorted(range(200), key=lambda v: -v)
    return time.perf_counter() - start


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas.get("version"),
        "scipy_openblas": scipy_blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_rounds(workload, units, seconds, tracer=None):
    """Run every unit once per round, a calibration before each unit and at the end.

    Returns (rounds of Outcomes, rounds of calibration times), the latter one
    longer per round than the former.
    """
    done, calibrations = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outcomes, cal = [], [calibrate()]
        for index, unit in enumerate(units):
            if tracer is not None:
                tracer.fit = index
            outcomes.append(workload.run(unit))
            cal.append(calibrate())
        done.append(outcomes)
        calibrations.append(cal)
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return done, calibrations


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    units = [workload.make(args.seed, i) for i in range(workload.units)]
    setup_raw_s = time.perf_counter() - STARTED
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = setup_raw_s * CAL_REF_S / statistics.median(calibrate() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    rounds, calibrations = run_rounds(workload, units, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()

    scaled = [[o.seconds * 2.0 * CAL_REF_S / (cal[i] + cal[i + 1]) for i, o in enumerate(r)]
              for r, cal in zip(rounds, calibrations)]
    outcomes = [o for r in rounds for o in r]
    first = rounds[0]
    failures = Counter()
    for outcome in outcomes:
        failures.update(outcome.failures)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "rounds": len(rounds),
        "unit_s": [statistics.median(r[i] for r in scaled) for i in range(len(units))],
        "unit_raw_s": [statistics.median(r[i].seconds for r in rounds)
                       for i in range(len(units))],
        "total_s": sum(map(sum, scaled)),
        "speed": CAL_REF_S / statistics.median(c for cal in calibrations for c in cal),
        "trials": sum(o.trials for o in first),
        "attempted": sum(o.attempted for o in outcomes),
        "failures": dict(failures),
        "repeatable": all([o.tokens for o in r] == [o.tokens for o in first] for r in rounds),
        "digest": digest([t for o in first for t in o.tokens]),
        "marks_digest": digest([m for o in first for m in o.marks]),
        "exact_recoveries": sum(o.exact for o in first),
        "baseline_exact_recoveries": sum(o.baseline_exact for o in first),
        "setup_rss_mb": setup_rss_mb,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        from layers import layer_metrics
        layers = layer_metrics(tracer.spans)
        method_s = Counter()
        for outcome in outcomes:
            method_s.update(outcome.method_s)
        for name in SWEEP_METHODS:
            layers[f"bench.method.{name}.time_s"] = method_s[name]
        layers["trace.self_share"] = layers.pop("trace.self_s") / sum(o.seconds for o in outcomes)
        # span times are wall times: bring them to reference seconds like the rest
        for name in [n for n in layers if n.endswith("_s")]:
            layers[name] *= result["speed"]
        layers["bench.baseline_exact_recoveries"] = result["baseline_exact_recoveries"]
        result["layers"] = layers
        out = Path(__file__).resolve().parent / "out"
        spans = out / f"{workload.name}-seed{args.seed}.spans.jsonl"
        out.mkdir(exist_ok=True)
        tracer.write(spans)
        result["spans"] = str(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
