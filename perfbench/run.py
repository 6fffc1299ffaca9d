"""radreg benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every workload runs in processes of its
own (worker.py) with the BLAS thread count pinned to one. With ``--trace 0``
the command reports the end-to-end metrics of one untraced run, which
repeats the workload's units in rounds for about S seconds, plus the median
set-up time of several fresh processes. With ``--trace 1`` it runs one
round untraced, then the same round in a second, traced process, and
reports the per-layer metrics of that round and the tracing overhead.
``--workload all`` runs the four workloads in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Before it the
command prints the digest of every snapped output of the check set, to
compare two commits on any seed. It exits with 1 when the marks digest
(target hit, miss or exception type per output; see workloads.py) differs
from the reference stored for the seed, or when two rounds or the traced
and untraced rounds give different outputs.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lad_highdim", "mixture_sweep", "relu_ellipsoid", "heavy_recursion")
SETUP_PROCESSES = 3     # extra fresh processes timed for setup_s, besides the main one
DEADLINE_S = 170.0      # every process of one workload run ends before this

END_TO_END = {
    "setup_s": "s",
    "fit_p50_s": "s",
    "fit_tail_s": "s",
    "trials_per_s": "1/s",
    "exact_recoveries": "count",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "isotropy.radial_isotropize.calls",
    "isotropy.radial_isotropize.self_s",
    "isotropy.radial_isotropize.iterations",
    "isotropy.radial_isotropize.heavy_share",
    "linalg.matrix_rank.calls",
    "linalg.matrix_rank.time_s",
    "linalg.span_basis.calls",
    "linalg.span_basis.time_s",
    "linalg.orthonormal_complement.calls",
    "linalg.orthonormal_complement.time_s",
    "l1.l1_fit_linear.calls",
    "l1.l1_fit_linear.self_s",
    "l1.linprog.calls",
    "l1.linprog.time_s",
    "l1.linprog.iterations",
    "l1.snap_to_rational.calls",
    "l1.snap_to_rational.time_s",
    "l1.exact_fit_mask.calls",
    "l1.exact_fit_mask.time_s",
    "linear.recover_linear.calls",
    "linear.recover_linear.self_s",
    "linear.levels",
    "linear.heavy_levels",
    "relu.ellipsoid_recover_relu.calls",
    "relu.ellipsoid_recover_relu.self_s",
    "relu.ellipsoid_recover_relu.steps",
    "relu.sep_oracle.calls",
    "relu.sep_oracle.self_s",
    "relu.sep_oracle.max_depth",
    "relu.ellipsoid_cut.calls",
    "relu.ellipsoid_cut.time_s",
    "relu.certify_share",
    "bench.method.rescaled-l1.time_s",
    "bench.method.naive-l1.time_s",
    "bench.method.normalized-l1.time_s",
    "bench.method.least-squares.time_s",
    "bench.method.ridge.time_s",
    "bench.make_synthetic_dataset.time_s",
    "bench.baseline_exact_recoveries",
    "noise.corrupt_massart.time_s",
    "trace.overhead_s",
    "trace.self_share",
)


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


class WorkerFailed(Exception):
    pass


def run_worker(workload, seed, deadline, *extra):
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
    )
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """Highest percentile with at least 10 samples beyond it, and at least the
    75th: (value, percentile, sample count).

    Below 40 samples the 75th percentile has fewer than 10 samples beyond
    it. It is reported anyway, interpolated, because a higher percentile or
    the maximum of so few samples moved by 20% between seeds.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        return statistics.quantiles(ordered, n=4, method="inclusive")[2], 75.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def reference_digest(workload, seed):
    with open(HERE / "reference_digests.json") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def check_reference(run):
    """Print both digests; True unless the marks digest contradicts the reference."""
    expected = reference_digest(run["workload"], run["seed"])
    if expected is None:
        status = "no reference for this seed"
    elif expected == run["marks_digest"]:
        status = "matches the reference"
    else:
        status = f"MISMATCH, reference {expected}"
    print(f"# {run['workload']} seed={run['seed']} outputs digest={run['digest']}")
    print(f"# {run['workload']} seed={run['seed']} marks digest={run['marks_digest']} ({status})")
    return expected in (None, run["marks_digest"])


def untraced(workload, seed, seconds, deadline):
    setups = [run_worker(workload, seed, deadline, "--setup-only")
              for _ in range(SETUP_PROCESSES)]
    run = run_worker(workload, seed, deadline, "--seconds", str(seconds))
    setups.append(run)
    setup = [s["setup_s"] for s in setups]
    tail_s, tail_pct, n = tail(run["unit_s"])
    failed = sum(run["failures"].values())
    values = {
        "setup_s": statistics.median(setup),
        "fit_p50_s": statistics.median(run["unit_s"]),
        "fit_tail_s": tail_s,
        "trials_per_s": run["trials"] / sum(run["unit_s"]),
        "exact_recoveries": run["exact_recoveries"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    correct = check_reference(run)
    if not run["repeatable"]:
        correct = False
        print("# MISMATCH: the rounds gave different outputs")
    shown = dict(values)
    shown["baseline_exact_recoveries"] = (run["baseline_exact_recoveries"]
                                          if workload == "mixture_sweep" else "n/a")
    shown["failed_share"] = failed / run["attempted"]
    units = dict(END_TO_END, baseline_exact_recoveries="count", failed_share="ratio")
    print(f"# environment {json.dumps(run['environment'], sort_keys=True)}")
    print(f"# {n} units x {run['rounds']} rounds, a unit's time is its median round; "
          f"fit_tail_s is the p{tail_pct:.1f}; setup_s is the median of {len(setup)} "
          f"processes; failures {run['failures']}")
    print(f"# times in reference seconds; machine speed {run['speed']:.3f} of reference; "
          f"raw wall fit_p50_s {statistics.median(run['unit_raw_s'])}, setup_s "
          f"{statistics.median(s['setup_raw_s'] for s in setups)}")
    print(f"# peak_rss_mb {run['peak_rss_mb']} MB, of which {run['setup_rss_mb']} MB "
          f"at the end of set-up (imports and every unit's input)")
    for name, value in shown.items():
        print(f"#   {name:26s} {value} {units[name]}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return correct, run["attempted"], failed, metrics


def traced(workload, seed, deadline):
    plain = run_worker(workload, seed, deadline, "--seconds", "0")
    run = run_worker(workload, seed, deadline, "--seconds", "0", "--trace")
    layers = dict(run["layers"])
    layers["trace.overhead_s"] = run["total_s"] - plain["total_s"]
    correct = check_reference(run)
    if run["digest"] != plain["digest"]:
        correct = False
        print(f"# MISMATCH: untraced outputs digest was {plain['digest']}")
    print(f"# one round traced, {len(run['unit_s'])} units")
    print(f"# spans written to {Path(run['spans']).relative_to(ROOT)}")
    metrics = {name: {"value": layers[name], "unit": layer_unit(name)} for name in PER_LAYER}
    return correct, run["attempted"], sum(run["failures"].values()), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "radreg" / "__init__.py").is_file():
        print(f"radreg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        deadline = time.monotonic() + DEADLINE_S
        try:
            if args.trace:
                correct, attempted, failed, metrics = traced(workload, args.seed, deadline)
            else:
                correct, attempted, failed, metrics = untraced(
                    workload, args.seed, args.seconds, deadline)
        except WorkerFailed as exc:
            print(exc, file=sys.stderr)
            return 2
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        ok = ok and correct
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
