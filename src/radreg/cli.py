"""Command-line interface.

Subcommands: synth, corrupt, fit-linear, fit-relu, gd-relu,
bench recovery-rate, eval margin. Datasets travel as x1..xd,y CSV files,
reports as JSON, trajectories as (iter, loss, distance) CSV. Failures print
a JSON error object on stderr and exit nonzero; the object carries the
exception's ``diagnostics`` when they are not empty.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import bench
from .data import load_dataset_csv, save_dataset_csv
from .errors import ContractViolation
from .linear import recover_linear
from .noise import FlipNegate, MassartSpec, corrupt_massart, strategy_from_json
from .relu import GD_MODES, EllipsoidConfig, ellipsoid_recover_relu, gd_relu_transformed


def _parse_vector(text):
    return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])


def _parse_strategy(text):
    """--strategy as JSON, or a shorthand read as the JSON form it stands for."""
    kind, colon, value = text.partition(":")
    if text.lstrip().startswith("{"):
        try:
            return strategy_from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ContractViolation(f"--strategy is not valid JSON: {exc}") from None
    if text == "flip-negate":
        return FlipNegate()
    if colon and kind in ("scale", "constant"):
        return strategy_from_json({"kind": kind, "factor" if kind == "scale" else "value": value})
    if colon and kind == "gated-flip":
        return strategy_from_json({"kind": "gated", "inner": {"kind": "flip-negate"},
                                   "predicate": {"kind": "any-coord-above", "threshold": value}})
    raise ContractViolation(f"unrecognized strategy {text!r}")


def _emit(obj, out):
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_synth(args):
    w_star = _parse_vector(args.w_star) if args.w_star else bench.default_target(args.d)
    spec = bench.SyntheticSpec(d=args.d, n=args.n, seed=args.seed, w_star=w_star)
    dataset = bench.make_synthetic_dataset(spec, model=args.model)
    save_dataset_csv(dataset, args.out)
    print(json.dumps({"rows": dataset.m, "d": dataset.d,
                      "w_star": [float(v) for v in spec.w_star], "path": args.out}))


def _cmd_corrupt(args):
    dataset = load_dataset_csv(getattr(args, "in"))
    spec = MassartSpec(args.eta, _parse_strategy(args.strategy), args.seed)
    corrupted, record = corrupt_massart(dataset, spec)
    save_dataset_csv(corrupted, args.out)
    print(json.dumps({
        "rows": corrupted.m,
        "corrupted": int(record.mask.sum()),
        "corruptible": int(record.corruptible.sum()),
        "spec": spec.to_json(),
        "path": args.out,
    }))


def _cmd_fit_linear(args):
    dataset = load_dataset_csv(getattr(args, "in"))
    report = recover_linear(dataset, args.max_denominator)
    _emit(report.to_json(), args.out)


def _cmd_fit_relu(args):
    dataset = load_dataset_csv(getattr(args, "in"))
    config = EllipsoidConfig(initial_radius=args.radius, max_denominator=args.max_denominator)
    report = ellipsoid_recover_relu(dataset, config)
    _emit(report.to_json(), args.out)


def _cmd_gd_relu(args):
    dataset = load_dataset_csv(getattr(args, "in"))
    w_star = _parse_vector(args.w_star) if args.w_star else None
    trajectory = gd_relu_transformed(
        dataset, args.mode, alpha=args.alpha, iters=args.iters, w_star=w_star,
    )
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iter", "loss", "distance"])
            writer.writerows((step.iteration, step.loss, step.distance) for step in trajectory)
    final = trajectory[-1]
    # without --w-star the distance is NaN, which strict JSON has no literal for
    print(json.dumps({"iters": len(trajectory), "final_loss": final.loss,
                      "final_distance": None if w_star is None else final.distance,
                      "w": [float(v) for v in final.w]}))


def _cmd_bench_recovery(args):
    grid = _parse_vector(args.eta_grid).tolist() if args.eta_grid else None
    n_grid = [int(v) for v in _parse_vector(args.n_grid)] if args.n_grid else None
    report = bench.exact_recovery_bench(
        [m.strip() for m in args.methods.split(",")],
        d=args.d, n=args.n, eta=args.eta, eta_grid=grid, n_grid=n_grid,
        trials=args.trials, seed=args.seed, instance=args.instance,
    )
    _emit(report.to_json(include_timing=args.timing), args.out)


def _cmd_eval_margin(args):
    testset = load_dataset_csv(getattr(args, "in"))
    w = _parse_vector(args.w)
    frac = bench.margin_fraction(w, testset, args.margin)
    print(json.dumps({"margin": args.margin, "fraction": frac, "rows": testset.m}))


def build_parser():
    parser = argparse.ArgumentParser(prog="radreg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a synthetic mixture dataset as CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--w-star", default=None, help="comma-separated target (default: reference)")
    p.add_argument("--model", choices=["linear", "relu"], default="linear")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("corrupt", help="apply a Massart noise spec to a dataset")
    p.add_argument("--in", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--strategy", default="flip-negate",
                   help="flip-negate | scale:C | constant:V | gated-flip:T | JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("fit-linear", help="recover a linear parameter")
    p.add_argument("--in", required=True)
    p.add_argument("--max-denominator", type=int, default=10**6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_linear)

    p = sub.add_parser("fit-relu",
                       help="recover a ReLU parameter (certified candidate, then ellipsoid)")
    p.add_argument("--in", required=True)
    p.add_argument("--radius", type=float, default=100.0, help="bound on |w*|")
    p.add_argument("--max-denominator", type=int, default=10**6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_relu)

    p = sub.add_parser("gd-relu", help="transformed subgradient descent trajectory")
    p.add_argument("--in", required=True)
    p.add_argument("--mode", choices=GD_MODES, default="radial-isotropic")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--w-star", default=None)
    p.add_argument("--out", default=None, help="trajectory CSV path")
    p.set_defaults(func=_cmd_gd_relu)

    p_bench = sub.add_parser("bench", help="benchmark harnesses")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser("recovery-rate", help="exact-recovery rate sweep")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--n", type=int, default=120)
    p.add_argument("--eta", type=float, default=0.25)
    p.add_argument("--eta-grid", default=None)
    p.add_argument("--n-grid", default=None)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", default="rescaled-l1,naive-l1,normalized-l1,least-squares")
    p.add_argument("--instance", choices=["mixture", "outlier"], default="mixture")
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench_recovery)

    p_eval = sub.add_parser("eval", help="evaluation metrics")
    eval_sub = p_eval.add_subparsers(dest="eval_command", required=True)
    p = eval_sub.add_parser("margin", help="margin fraction of a fit on a test set")
    p.add_argument("--in", required=True)
    p.add_argument("--w", required=True, help="comma-separated parameter vector")
    p.add_argument("--margin", type=float, default=2.0)
    p.set_defaults(func=_cmd_eval_margin)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # contract: machine-readable error JSON on stderr
        error = {"error": type(exc).__name__, "message": str(exc)}
        if getattr(exc, "diagnostics", None):
            error["diagnostics"] = exc.diagnostics
        print(json.dumps(error), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
