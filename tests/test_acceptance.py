"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances and trial counts are fixed here, not configurable.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from radreg.bench import SyntheticSpec, exact_recovery_bench, make_synthetic_dataset
from radreg.data import LabeledDataset
from radreg.errors import RadregError
from radreg.isotropy import RadialTransform, radial_isotropize
from radreg.l1 import FIT_RTOL, l1_fit_linear, snap_to_rational
from radreg.linear import recover_linear
from radreg.noise import (
    FlipNegate,
    MassartSpec,
    corrupt_massart,
    gated_flip,
    inflated_massart_rate,
)
from radreg.relu import (
    EllipsoidConfig,
    ellipsoid_recover_relu,
    gd_relu_transformed,
    relu_l1_loss,
    sep_oracle,
)

from oracles import (check_structural_condition, ellipsoid_only, gd_subgradient,
                     l0_fit_bruteforce, min_isotropy_eig, oracle_transform, recovery_rate)


def _report(num, desc, ok, detail=""):
    tail = f" | {detail}" if detail else ""
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} ({detail})"


def fractions_of(vec):
    return tuple(Fraction(float(v)) for v in vec)


def test_criterion_1_radial_isotropy():
    worst_lam, worst_time = np.inf, 0.0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        pts = rng.standard_normal((50, 5))
        start = time.perf_counter()
        transform = radial_isotropize(pts, gamma=0.5)
        elapsed = time.perf_counter() - start
        assert isinstance(transform, RadialTransform)
        lam = min_isotropy_eig(transform.apply(pts))
        worst_lam = min(worst_lam, lam)
        worst_time = max(worst_time, elapsed)
    ok = worst_lam >= 0.5 and worst_time < 1.0
    _report(1, "radial isotropy: lambda_min >= 0.5 on 100 seeded sets, <1s each",
            ok, f"worst lambda_min={worst_lam:.4f}, worst call={worst_time * 1e3:.1f}ms")


def test_criterion_2_l1_equals_l0_under_structural_condition():
    verified = agreed = 0
    seed = 0
    while verified < 50 and seed < 150:
        seed += 1
        rng = np.random.default_rng(20_000 + seed)
        X = rng.standard_normal((21, 2)) * rng.uniform(0.5, 3.0)
        w_star = np.array([float(rng.integers(-5, 6)),
                           float(rng.integers(-5, 6)) / 2.0])
        clean = LabeledDataset(X, X @ w_star)
        corrupted, _ = corrupt_massart(
            clean, MassartSpec(0.25, FlipNegate(), 30_000 + seed)
        )
        # the equivalence statement is anchored at the exact-fit maximizer:
        # the condition compares clean-vs-corrupted mass relative to it
        l0_w, _ = l0_fit_bruteforce(corrupted)
        holds, _ = check_structural_condition(corrupted, l0_w,
                                              direction_budget=3600)
        if not holds:
            continue
        verified += 1
        l1_snapped = snap_to_rational(l1_fit_linear(corrupted).w, 10**6)
        if l1_snapped == snap_to_rational(l0_w, 10**6):
            agreed += 1
    ok = verified >= 50 and agreed == verified
    _report(2, "l1 minimizer equals the subset-enumeration optimum whenever the "
               "clean-mass condition holds on a 3600-angle grid",
            ok, f"{agreed}/{verified} agreements on verified instances")


def test_criterion_3_linear_recovery_beats_naive():
    start = time.perf_counter()
    report = exact_recovery_bench(
        ["rescaled-l1", "naive-l1"],
        d=5, n=200, eta_grid=[0.25], trials=200, seed=7,
        instance="outlier",
    )
    elapsed = time.perf_counter() - start
    rescaled = recovery_rate(report, "rescaled-l1")
    naive = recovery_rate(report, "naive-l1")
    ok = rescaled >= 0.95 and rescaled > naive and elapsed < 300.0
    _report(3, "desk-scale recovery: rescaled-l1 >= 0.95 and strictly above "
               "naive-l1 (d=5, m=200, eta=0.25, gated flip, 200 trials)",
            ok, f"rescaled={rescaled:.3f}, naive={naive:.3f}, {elapsed:.1f}s")


def test_criterion_4_heavy_subspace_recursion():
    w_star = np.array([3.0, -2.0])
    target = fractions_of(w_star)
    successes = 0
    depths_ok = True
    for trial in range(100):
        rng = np.random.default_rng(40_000 + trial)
        X = rng.standard_normal((300, 2))
        X[:180, 1] = 0.0  # 60% of the points on a 1-dim subspace
        X = X[rng.permutation(300)]
        clean = LabeledDataset(X, X @ w_star)
        corrupted, _ = corrupt_massart(
            clean, MassartSpec(0.2, FlipNegate(), 41_000 + trial)
        )
        rep = recover_linear(corrupted)
        if rep.w_snapped.to_fractions() == target:
            successes += 1
            if rep.recursion_depth != 1:
                depths_ok = False
    ok = successes >= 95 and depths_ok
    _report(4, "planted heavy subspace: exact recovery >= 0.95 over 100 trials "
               "with exactly one recursion level",
            ok, f"successes={successes}/100, one-level traces={depths_ok}")


def _shifted_relu_instance(seed, d=3, m=2000, eta=0.3):
    rng = np.random.default_rng(seed)
    w_star = rng.integers(-5, 6, size=d).astype(float)
    while not w_star.any():
        w_star = rng.integers(-5, 6, size=d).astype(float)
    # mean shift along w* keeps the target's positive side heavy (lambda and
    # rho assumptions hold strictly by construction)
    X = rng.standard_normal((m, d)) + 2.0 * w_star / np.linalg.norm(w_star)
    clean = LabeledDataset(X, np.maximum(X @ w_star, 0.0))
    corrupted, record = corrupt_massart(
        clean, MassartSpec(eta, FlipNegate(), seed + 7919)
    )
    return corrupted, record, w_star


def test_criterion_5_ellipsoid_relu_recovery():
    successes = 0
    worst_time = 0.0
    for trial in range(50):
        corrupted, _, w_star = _shifted_relu_instance(50_000 + trial)
        cfg = EllipsoidConfig(initial_radius=10.0, max_denominator=16)
        start = time.perf_counter()
        try:
            rep = ellipsoid_recover_relu(corrupted, cfg)
            if rep.w_snapped.to_fractions() == fractions_of(w_star):
                successes += 1
        except RadregError:
            pass  # a typed failure is a failed trial; anything else fails the test
        worst_time = max(worst_time, time.perf_counter() - start)
    ok = successes >= 45 and worst_time < 30.0
    _report(5, "ellipsoid ReLU recovery >= 0.9 over 50 trials (d=3, eta=0.3, "
               "m=2000), each run < 30s",
            ok, f"successes={successes}/50, worst run={worst_time:.2f}s")


def test_criterion_6_separation_soundness():
    verified = sound = attempts = 0
    instance_seed = 0
    while verified < 1000 and attempts < 4000:
        instance_seed += 1
        corrupted, record, w_star = _shifted_relu_instance(
            60_000 + instance_seed, d=2, m=400, eta=0.25
        )
        rng = np.random.default_rng(61_000 + instance_seed)
        for _ in range(25):
            attempts += 1
            w0 = w_star + rng.standard_normal(2) * rng.uniform(0.5, 4.0)
            res = sep_oracle(corrupted, w0)
            if res.accepted or res.transform is None:
                continue
            A, mask = oracle_transform(corrupted, w0)
            XS, yS = corrupted.x[mask], corrupted.y[mask]
            V = XS @ A.T
            U = V / np.linalg.norm(V, axis=1)[:, None]
            w0_t, ws_t = np.linalg.solve(A.T, w0), np.linalg.solve(A.T, w_star)
            active = U @ w0_t > 0.0
            clean = ~record.mask[mask]
            gap = np.abs(U @ (w0_t - ws_t))
            margin = gap[active & clean].sum() - gap[active & ~clean].sum()
            if margin <= 0.0:
                continue
            verified += 1
            if res.normal @ (w0 - w_star) > 0.0:
                sound += 1
            if verified >= 1000:
                break
    ok = verified >= 1000 and sound == verified
    _report(6, "separation soundness: every hyperplane from a verified query "
               "separates the query from the target",
            ok, f"{sound}/{verified} sound over {attempts} queries")


def test_criterion_7_subgradient_finite_differences():
    rng = np.random.default_rng(70_000)
    h = 1e-6
    checked = 0
    worst = 0.0
    while checked < 1000:
        X = rng.standard_normal((40, 4))
        y = rng.standard_normal(40) * 2.0
        w = rng.standard_normal(4) * rng.uniform(0.5, 2.0)
        z = X @ w
        # keep every sample away from both kinks (activation and residual)
        if np.min(np.abs(z)) <= 1e-3 or np.min(np.abs(np.maximum(z, 0) - y)) <= 1e-4:
            continue
        ds = LabeledDataset(X, y)
        grad = gd_subgradient(ds, w)
        fd = np.empty(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[j] = (relu_l1_loss(ds, w + e) - relu_l1_loss(ds, w - e)) / (2 * h)
        rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
        worst = max(worst, rel)
        checked += 1
    ok = worst <= 1e-5
    _report(7, "ReLU l1 subgradient (the step of GD's 'original' mode) matches "
               "central differences (h=1e-6) to 1e-5 relative at 1000 kink-free points",
            ok, f"worst relative error={worst:.2e}")


def test_criterion_8_oblivious_simulation_rate():
    eta, m, delta = 0.2, 1000, 0.1
    rate = inflated_massart_rate(eta, m, delta)
    rng = np.random.default_rng(80_000)
    draws = rng.binomial(m, rate, size=10_000)
    coverage = float((draws >= eta * m).mean())
    ok = coverage >= (1.0 - delta) - 0.02
    _report(8, "inflated-rate adversary flags >= eta*m samples with the "
               "promised probability (10000 draws)",
            ok, f"coverage={coverage:.4f} vs bound {1 - delta - 0.02:.2f}")


def test_criterion_9_gd_transform_comparison():
    wins = 0
    for seed in range(50):
        spec = SyntheticSpec(d=10, n=240, seed=90_000 + seed)
        clean = make_synthetic_dataset(spec, model="relu")
        corrupted, _ = corrupt_massart(
            clean, MassartSpec(0.4, gated_flip(5.0), 91_000 + seed)
        )
        d_orig = gd_relu_transformed(corrupted, "original", iters=200,
                                     w_star=spec.w_star)[-1].distance
        d_rad = gd_relu_transformed(corrupted, "radial-isotropic", iters=200,
                                    w_star=spec.w_star)[-1].distance
        wins += d_rad < d_orig
    ok = wins >= 45
    _report(9, "subgradient descent: radial-isotropic mode ends closer to the "
               "target than original mode on >= 90% of 50 seeds (d=10, eta=0.4)",
            ok, f"wins={wins}/50")


def test_criterion_10_ellipsoid_invariants(monkeypatch):
    # the candidate certifies these instances before any cut, so the
    # ellipsoid runs without it
    ellipsoid_only(monkeypatch)
    min_decrease = np.inf
    certificates = True
    cuts = 0
    for trial in range(5):
        corrupted, _, _ = _shifted_relu_instance(95_000 + trial)
        d = corrupted.d
        cfg = EllipsoidConfig(initial_radius=10.0, max_denominator=16)
        rep = ellipsoid_recover_relu(corrupted, cfg)
        decreases = -np.diff(rep.diagnostics["volume_logs"])
        cuts += decreases.size
        if decreases.size:
            min_decrease = min(min_decrease, float(decreases.min()))
        pred = np.maximum(corrupted.x @ rep.w_snapped.to_floats(), 0.0)
        fits = np.abs(pred - corrupted.y) <= FIT_RTOL * (1 + np.abs(corrupted.y))
        certificates &= bool(2 * int(fits.sum()) >= corrupted.m)
    bound = 1.0 / (2 * (3 + 1)) - 1e-9
    ok = cuts > 0 and min_decrease >= bound and certificates
    _report(10, "every ellipsoid cut shrinks log-volume by >= 1/(2(d+1)) and "
                "certified outputs fit a majority",
            ok, f"{cuts} cuts, min decrease={min_decrease:.4f} vs bound {bound:.4f}, "
                f"certificates={certificates}")
