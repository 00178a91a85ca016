"""Acceptance gate: every exit criterion, one pass/fail line each.

Each test verifies one criterion at its stated tolerance and prints a
single verdict line, so `pytest -v -s tests/test_acceptance.py` reads as
a checklist.  Parameters and thresholds here are pinned; loosening them
is not a fix, it is a regression.
"""

import time

import numpy as np
import pytest

from oracles import grid_project
from catchup.diagnostics import (
    check_beta_domination,
    check_discrete_energy,
    corrector_stability_check,
    defect_summability,
    local_truncation,
    predictor_feasibility,
    stability_experiment,
)
from catchup.geometry import (
    Ball,
    Box,
    Halfline,
    Halfspace,
    Intersection,
    NonnegOrthant,
    PerturbedProjection,
    moreau_decompose,
)
from catchup.models import (
    DryFrictionModel,
    OneDimModel,
    equilibrium_residual,
    reference_solution,
)
from catchup.scheme import PowerOfStep, Uniform, make_schedule, run


def criterion(label: str, ok: bool, detail: str = ""):
    note = f" ({detail})" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}{note}")
    assert ok, f"{label}{note}"


@pytest.fixture(scope="module")
def fleet():
    """One run per shipped-model regime, shared by the blanket criteria."""
    runs = {}
    relax = OneDimModel(a=1.0, b=2.0)
    runs["relax"] = (relax, run(
        relax, [0.0], make_schedule(10.0, Uniform(0.01)), certify_normals=False))
    stick = OneDimModel(a=1.0, b=-1.0)
    runs["stick"] = (stick, run(
        stick, [0.5], make_schedule(2.0, Uniform(0.01)), certify_normals=False))
    runs["stick_relaxed"] = (stick, run(
        stick, [0.5],
        make_schedule(2.0, Uniform(0.01), PowerOfStep(eps0=0.1, beta=1.0)),
        projection=PerturbedProjection(seed=5), certify_normals=False))
    friction = DryFrictionModel(K=[[1.0, 0.0], [0.0, 1.0]], tau=[0.5, 0.3],
                                weights=[1.0, 1.0], lower=[-1.0, -1.0], upper=[1.0, 1.0])
    runs["friction_stick"] = (friction, run(
        friction, [0.5, -0.5], make_schedule(3.0, Uniform(0.01)), certify_normals=False))
    runs["friction_rest"] = (friction, run(
        friction, [0.0, 0.0], make_schedule(3.0, Uniform(0.01)), certify_normals=False))
    sliding = DryFrictionModel(K=[[1.0, 0.0], [0.0, 1.0]], tau=[2.0, 0.0],
                               weights=[1.0, 1.0], lower=[-1.0, -1.0], upper=[1.0, 1.0])
    runs["friction_slide"] = (sliding, run(
        sliding, [0.0, 0.0], make_schedule(8.0, Uniform(0.01)), certify_normals=False))
    return runs


def test_equilibrium_convergence_1d():
    model = OneDimModel(a=1.0, b=2.0)
    sched = make_schedule(10.0, Uniform(0.01))
    t0 = time.perf_counter()
    r = run(model, [0.0], sched)
    elapsed = time.perf_counter() - t0
    gap = abs(float(r.X[-1, 0]) - 1.0)
    criterion(
        "1-d run converges to the equilibrium b/(a+1)",
        gap <= 1e-2 and elapsed < 1.0,
        f"|x_final - 1| = {gap:.2e}, runtime {elapsed:.3f}s",
    )


def test_boundary_sticking_time_and_exact_zeros():
    model = OneDimModel(a=1.0, b=-1.0)
    r = run(model, [0.5], make_schedule(2.0, Uniform(0.01)), certify_normals=False)
    zeros = np.nonzero(r.X[:, 0] == 0.0)[0]
    t_hit = float(r.times[zeros[0]])
    expected = np.log(2.0) / 2.0
    all_zero_after = bool(np.all(r.X[zeros[0]:, 0] == 0.0))
    criterion(
        "1-d boundary run hits the wall near ln(2)/2 and stays at exactly 0",
        abs(t_hit - expected) <= 0.05 and all_zero_after,
        f"t_hit = {t_hit:.4f} vs {expected:.4f}, tail exactly zero: {all_zero_after}",
    )


def test_uniform_convergence_to_exact_flow():
    model = OneDimModel(a=1.0, b=2.0)
    errs = []
    for mu in (0.008, 0.004, 0.002, 0.001):
        r = run(model, [0.0], make_schedule(5.0, Uniform(mu)), certify_normals=False)
        exact = model.exact_flow(0.0, r.times)
        errs.append(float(np.max(np.abs(r.X[:, 0] - exact))))
    halving = all(b <= 0.55 * a for a, b in zip(errs, errs[1:]))
    criterion(
        "sup error vs the closed-form flow is 5e-3 at mu=1e-3 and halves with mu",
        errs[-1] <= 5e-3 and halving,
        "errors " + ", ".join(f"{e:.2e}" for e in errs),
    )


def test_continuous_energy_envelope(fleet):
    _, r = fleet["relax"]
    envelope = 1.0 - np.exp(-2.0 * r.times)
    overshoot = float(np.max(r.X[:, 0] ** 2 - envelope))
    criterion(
        "squared state stays within 0.02 of the continuous energy envelope",
        overshoot <= 0.02,
        f"max overshoot {overshoot:.2e}",
    )


def test_discrete_energy_every_run(fleet):
    worst = {}
    for name, (_, r) in fleet.items():
        entry = check_discrete_energy(r)
        worst[name] = (entry.passed, entry.measured)
    ok = all(p for p, _ in worst.values())
    criterion(
        "per-step energy inequality holds on every shipped-model run",
        ok,
        "; ".join(f"{n}: residual {m:.2e}" for n, (_, m) in worst.items()),
    )


def test_defect_summability_every_run(fleet):
    results = {}
    for name, (_, r) in fleet.items():
        entry = defect_summability(r)
        results[name] = (entry.passed, entry.measured, entry.bound)
    ok = all(p for p, _, _ in results.values())
    criterion(
        "sum of squared defects is within its algebraic bound on every run",
        ok,
        "; ".join(f"{n}: {m:.2e} <= {b:.2e}" for n, (_, m, b) in results.items()),
    )


def test_predictor_feasibility_scaling():
    model = OneDimModel(a=1.0, b=-1.0)
    values = []
    bounded = True
    for mu in (0.04, 0.02, 0.01, 0.005):
        r = run(model, [0.5], make_schedule(2.0, Uniform(mu)), certify_normals=False)
        entry = predictor_feasibility(r)[0]
        bounded = bounded and entry.passed
        values.append(entry.measured)
    shrinking = all(a >= 1.8 * b for a, b in zip(values, values[1:]))
    criterion(
        "predictor infeasibility integral is bounded and shrinks 1.8x per halving",
        bounded and shrinking,
        "L2 " + ", ".join(f"{v:.2e}" for v in values),
    )


def test_contraction_of_initial_data():
    model = OneDimModel(a=1.0, b=2.0)
    sched = make_schedule(5.0, Uniform(0.005))
    out = stability_experiment(model, [0.0], [1.0], sched)
    max_r = out["entry"].measured
    criterion(
        "two starts contract within 1.05 of the e^{-2t} envelope",
        max_r <= 1.05,
        f"max ratio {max_r:.4f}",
    )


def test_one_step_stability_random_pairs():
    model = OneDimModel(a=1.0, b=2.0)
    rng = np.random.default_rng(2024)
    pairs = rng.uniform(0.0, 3.0, size=(1000, 2))
    checked = 0
    ok = True
    for mu in (0.1, 0.01):
        for eps in (0.0, 1e-4):
            proj = PerturbedProjection(seed=17) if eps > 0 else None
            for x, x_bar in pairs:
                out = corrector_stability_check(
                    model, [x], [x_bar], mu=mu, eps=eps, projection=proj)
                ok = ok and out.passed
                checked += 1
            if not ok:
                break
    criterion(
        "one-step stability inequality holds at 1000 random pairs per setting",
        ok and checked == 4000,
        f"{checked} pairs checked over mu in {{0.1, 0.01}}, eps in {{0, 1e-4}}",
    )


def test_local_truncation_both_models():
    entries = {}

    stick = OneDimModel(a=1.0, b=-1.0)
    coarse = make_schedule(1.0, Uniform(0.01))
    ref = reference_solution(stick, [0.5], 1.0, 64 * coarse.n_steps)
    entries["onedim"] = local_truncation(stick, ref, coarse)

    relaxed = make_schedule(1.0, Uniform(0.01), PowerOfStep(eps0=0.1, beta=1.0))
    entries["onedim_relaxed"] = local_truncation(
        stick, ref, relaxed, projection=PerturbedProjection(seed=9))

    friction = DryFrictionModel(K=[[1.0, 0.0], [0.0, 1.0]], tau=[0.5, 0.3],
                                weights=[1.0, 1.0], lower=[-1.0, -1.0], upper=[1.0, 1.0])
    coarse_f = make_schedule(1.0, Uniform(0.02))
    ref_f = reference_solution(friction, [0.5, -0.5], 1.0, 64 * coarse_f.n_steps)
    entries["dry_friction"] = local_truncation(friction, ref_f, coarse_f)

    ok = all(e.passed for e in entries.values())
    criterion(
        "one-step defect over (mu + sqrt(eps)) stays under the assembled constant",
        ok,
        "; ".join(f"{n}: {e.measured:.2e} <= {e.bound:.1f}" for n, e in entries.items()),
    )


def test_dry_friction_box_and_equilibrium(fleet):
    model, r = fleet["friction_stick"]
    inside = all(model.C.contains(x) for x in r.X)
    absorbed = float(np.max(np.abs(r.X[-1]))) <= 0.05

    # sub-threshold force from rest: the friction interval absorbs it,
    # so the state never moves and the inclusion holds with zero residual
    _, rest = fleet["friction_rest"]
    stationary = bool(np.all(rest.X == 0.0))
    residual = equilibrium_residual(model, rest.X[-1])

    sliding, rs = fleet["friction_slide"]
    inside_s = all(sliding.C.contains(x) for x in rs.X)
    gap = abs(float(rs.X[-1, 0]) - 1.0)
    second = float(rs.X[-1, 1])

    criterion(
        "friction runs stay in the box, the rest state satisfies the "
        "equilibrium inclusion, and the driven coordinate slides to 1",
        inside and inside_s and absorbed and stationary
        and residual <= 1e-12 and gap <= 1e-2 and second == 0.0,
        f"inclusion residual {residual:.1e}, |x1 - 1| = {gap:.2e}, x2 = {second}",
    )


def test_geometry_property_suite():
    pool = [
        Box([-1.0], [2.0]),
        Halfline(),
        Box([-1.0, 0.0], [1.5, 2.0]),
        Ball([0.3, -0.2], 1.1),
        Halfspace(np.array([1.0, 2.0]) / np.sqrt(5.0), 1.0),
        NonnegOrthant(2),
        Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.5)]),
        Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
        Ball([0.0, 0.1, -0.2], 1.3),
    ]
    rng = np.random.default_rng(7)

    worst_rec = worst_orth = 0.0
    for i in range(10_000):
        C = pool[i % len(pool)]
        x = C.project(rng.uniform(-3.0, 3.0, C.dim))
        u = rng.normal(size=C.dim)
        t, n = moreau_decompose(C, x, u)
        worst_rec = max(worst_rec, float(np.linalg.norm(t + n - u)))
        worst_orth = max(worst_orth, abs(float(t @ n)))

    worst_idem = 0.0
    expansive = 0.0
    last = {}
    for i in range(10_000):
        C = pool[i % len(pool)]
        y = rng.uniform(-4.0, 4.0, C.dim)
        z = C.project(y)
        worst_idem = max(worst_idem, float(np.linalg.norm(C.project(z) - z)))
        if id(C) in last:
            y0, z0 = last[id(C)]
            stretch = float(np.linalg.norm(z - z0)) - float(np.linalg.norm(y - y0))
            expansive = max(expansive, stretch)
        last[id(C)] = (y, z)

    grid_ok = True
    cases = [
        (Box([-1.0], [2.0]), -3.0, 3.0, 2001, [[2.7], [-2.2]]),
        (Ball([0.3, -0.2], 1.1), -3.0, 3.0, 121, [[2.0, 1.5], [-1.0, -2.0]]),
        (Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), -2.0, 2.0, 21,
         [[1.5, -1.8, 0.4], [2.0, 2.0, 2.0]]),
        (Ball([0.0, 0.1, -0.2], 1.3), -2.0, 2.0, 21, [[1.5, 1.5, -1.5]]),
    ]
    for C, lo, hi, n, queries in cases:
        pitch = (hi - lo) / (n - 1)
        for q in queries:
            gp, gd = grid_project(C.contains, q, lo, hi, n)
            d = C.distance(q)
            # the grid must resolve the distance to one cell diagonal, and
            # the obtuse-angle property pins any feasible point that close
            # to the query inside a computable ball around the projection
            lateral = np.sqrt(max(gd * gd - d * d, 0.0))
            if gd - d > pitch * np.sqrt(C.dim) or \
                    float(np.linalg.norm(C.project(q) - gp)) > lateral + 1e-9:
                grid_ok = False

    criterion(
        "projection suite: 1e4 Moreau splits reconstruct orthogonally, "
        "1e4 projections idempotent and nonexpansive, grid oracles agree",
        worst_rec <= 1e-10 and worst_orth <= 1e-10
        and worst_idem <= 1e-10 and expansive <= 1e-12 and grid_ok,
        f"reconstruct {worst_rec:.1e}, orthogonality {worst_orth:.1e}, "
        f"idempotency {worst_idem:.1e}, max stretch {expansive:.1e}, "
        f"grid oracles agree: {grid_ok}",
    )


def test_beta_domination_refines(fleet):
    # companion to the envelope criterion: the needed slack is measured
    # and must not grow as the mesh refines
    model, _ = fleet["relax"]
    slacks = []
    for mu in (0.02, 0.01, 0.005):
        r = run(model, [0.0], make_schedule(4.0, Uniform(mu)), certify_normals=False)
        e = check_beta_domination(r, level=model.M, gamma=model.gamma)
        slacks.append(max(e.measured, 0.0))
    ok = all(b <= max(a / 2.0, 1e-15) for a, b in zip(slacks, slacks[1:]))
    criterion(
        "envelope slack shrinks at least 2x per mesh halving",
        ok,
        "slacks " + ", ".join(f"{s:.1e}" for s in slacks),
    )
