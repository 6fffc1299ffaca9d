"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from radreg import bench  # noqa: E402

FIT_WORKLOADS = ("lad_highdim", "relu_ellipsoid", "heavy_recursion")


@pytest.mark.parametrize("name", FIT_WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name].make
    (a, wa), (b, wb), (c, _) = make(3, 1), make(3, 1), make(4, 1)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and np.array_equal(wa, wb)
    assert not np.array_equal(a.x, c.x)


def test_sweep_seed_is_deterministic_per_seed():
    make = workloads.make_sweep
    assert make(3, 1) == make(3, 1) != make(4, 1)


def test_heavy_recursion_rows_have_the_planted_supports():
    samples, _ = workloads.make_heavy_recursion(0, 0)
    support = np.abs(samples.x) > 0
    assert (~support[:, 2:].any(axis=1)).sum() == 300
    assert (~support[:, 6:].any(axis=1)).sum() == 500


def _outcomes(name, units, tracer=None):
    workload = workloads.WORKLOADS[name]
    if tracer is not None:
        tracer.install()
    try:
        return [workload.run(workload.make(0, i)) for i in range(units)]
    finally:
        if tracer is not None:
            tracer.uninstall()


EXERCISED = {
    "lad_highdim": ("l1.linprog",),
    "mixture_sweep": ("l1.linprog",),
    "relu_ellipsoid": ("relu.sep_oracle", "relu.ellipsoid_cut", "l1.snap_to_rational"),
    "heavy_recursion": ("linalg.span_basis",),
}


@pytest.mark.parametrize("name, units", [
    ("lad_highdim", 1), ("mixture_sweep", 1), ("relu_ellipsoid", 4), ("heavy_recursion", 2),
])
def test_tracing_changes_no_output_and_self_times_cover_the_calls(name, units):
    plain = _outcomes(name, units)
    tracer = layers.Tracer()
    traced = _outcomes(name, units, tracer)
    assert [o.tokens for o in traced] == [o.tokens for o in plain]
    assert all(o.exact for o in plain)
    metrics = layers.layer_metrics(tracer.spans)
    covered = metrics["trace.self_s"] / sum(o.seconds for o in traced)
    assert 0.95 < covered <= 1.0 + 1e-9
    assert all(name in metrics for name in run.PER_LAYER
               if not name.startswith(("trace.", "bench.method.", "bench.baseline")))
    # a wrapped function that moved or was renamed would read 0 here
    assert all(metrics[f"{layer}.calls"] > 0 for layer in EXERCISED[name])
    if name == "relu_ellipsoid":
        assert metrics["l1.linprog.calls"] == 0
    if name == "heavy_recursion":
        assert metrics["linear.heavy_levels"] > 0


def test_uninstall_restores_every_name():
    modules = layers.CONSUMERS + tuple(module for module, _, _ in layers.EXTRA)
    before = {m.__name__: dict(vars(m)) for m in modules}
    tracer = layers.Tracer()
    tracer.install()
    assert layers.l1.linprog is not before["radreg.l1"]["linprog"]
    tracer.uninstall()
    assert {m.__name__: dict(vars(m)) for m in modules} == before


def test_self_time_subtracts_children_once():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 6.0, 0, 0, None],
    ]
    assert layers.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_uncaught_fitter_error_is_counted_and_the_sweep_goes_on(monkeypatch):
    registry = bench.method_registry

    def failing_ridge(samples, config):
        raise ValueError("injected")

    def patched(ridge_coeff=1.0):
        return dict(registry(ridge_coeff), ridge=failing_ridge)

    monkeypatch.setattr(bench, "method_registry", patched)
    monkeypatch.setattr(workloads, "SWEEP_TRIALS", 1)
    outcome = workloads.run_sweep(workloads.make_sweep(0, 0))
    assert outcome.failures == {"ValueError": len(workloads.SWEEP_ETAS)}
    assert outcome.attempted == len(workloads.SWEEP_ETAS) * len(workloads.SWEEP_METHODS)
    assert bench.method_registry is patched


def test_failed_fit_is_counted():
    def fails(samples):
        raise ZeroDivisionError

    outcome = workloads._timed_fit(fails, None, np.zeros(2))
    assert outcome.failures == {"ZeroDivisionError": 1} and outcome.exact == 0


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0 and n == 100
    assert run.tail(list(range(40))) == (29, 75.0, 40)
    assert run.tail(list(range(39))) == (28.5, 75.0, 39)
    assert run.tail([3.0, 1.0]) == (2.5, 75.0, 2)


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_marks_digest_mismatch_fails_the_check(monkeypatch):
    run_result = {"workload": "heavy_recursion", "seed": 0, "digest": "a", "marks_digest": "b"}
    monkeypatch.setattr(run, "reference_digest", lambda workload, seed: "c")
    assert run.check_reference(run_result) is False
    monkeypatch.setattr(run, "reference_digest", lambda workload, seed: "b")
    assert run.check_reference(run_result) is True


def test_every_workload_has_a_reference_for_the_default_seed():
    for name in run.WORKLOADS:
        assert run.reference_digest(name, 0) is not None
