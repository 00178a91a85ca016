import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catchup.diagnostics import continuous_energy_bound
from catchup.geometry import Box, GeometryError
from catchup.operators import (AffineField, LinearPart, MonotoneModel, SeparableL1, ZeroPart,
                               select_F)
from catchup.scheme import SchemeError, Uniform, make_schedule, run
from catchup.models import (
    DryFrictionModel,
    OneDimModel,
    equilibrium_residual,
    named_model_from_config,
    reference_solution,
)

from oracles import box_corners, onedim_flow, onedim_hit_time, reference_equilibrium_residual

# roundoff allowed to a declared constant's inequality; the checks below are
# exact otherwise: every corner selection of G(x) at every point
SLACK = 1e-9


def corner_selections(model, x):
    """The selections f(x) - g of F(x) with g a corner of the box G(x), one
    row each."""
    return model.f(x) - box_corners(*model.G.value(x))


def growth_excess(model, x):
    """max |w| - (a + b |x|) over the corner selections w at x: the norm is
    convex, so its max over the box F(x) sits at a corner."""
    W = corner_selections(model, x)
    return float(np.linalg.norm(W, axis=1).max()) - model.growth_bound(np.linalg.norm(x))


def dissipativity_excess(model, x):
    """max <x, v> - (M - gamma |x|^2) over the tangent projections v of the
    corner selections at x."""
    inner = max(float(x @ model.C.tangent_project(x, w)) for w in corner_selections(model, x))
    return inner - (model.M - model.gamma * float(x @ x))


def lipschitz_excesses(model, points):
    """max <x - xb, w - wb> - ell |x - xb|^2 over the corner selections w at
    x and wb at xb, for every pair of distinct points."""
    W = [corner_selections(model, x) for x in points]
    out = []
    for i in range(len(points)):
        for j in range(i):
            dx = points[i] - points[j]
            out.append(float((W[i] @ dx).max() - (W[j] @ dx).min())
                       - model.ell * float(dx @ dx))
    return np.array(out)


def onedim_grid(m):
    """501 points of [0, 50], with 0 and r_star among them."""
    return np.union1d(np.linspace(0.0, 50.0, 501), [0.0, m.r_star])[:, None]


ONEDIM_PARAMS = [(a, b) for a in (0.5, 1.0, 3.0) for b in (-1.0, 0.0, 2.0)]


def friction_workload_base():
    """K = A A^T / d + I and the load tau of the d = 8 friction benchmark
    workload before its seeded permutation, built as bench/workloads.py
    builds them."""
    rng = np.random.default_rng(1)
    d = 8
    A = rng.standard_normal((d, d))
    K = A @ A.T / d + np.eye(d)
    tau = rng.uniform(-1.0, 1.0, d)
    tau[0::2] = rng.choice((-1.0, 1.0), d // 2) * rng.uniform(3.0, 4.0, d // 2)
    return K, tau


def box_test_points(lower, upper, rng, n=16):
    """Points of the box [lower, upper] (which holds 0): n on a face, n with
    exact-zero coordinates (the origin first), where G(x) is a fat interval,
    and n in the interior."""
    d = lower.shape[0]
    faces = rng.uniform(lower, upper, (n, d))
    k = rng.integers(0, d, n)
    faces[np.arange(n), k] = np.where(rng.random(n) < 0.5, lower[k], upper[k])
    zeros = rng.uniform(lower, upper, (n, d))
    zeros[rng.random((n, d)) < 0.5] = 0.0
    zeros[0] = 0.0
    return np.vstack([faces, zeros, rng.uniform(lower, upper, (n, d))])


FRICTION_CASES = {
    "workload-8d": lambda: DryFrictionModel(*friction_workload_base(), weights=[0.2] * 8,
                                            lower=[-1.0] * 8, upper=[1.0] * 8),
    "2d": lambda: DryFrictionModel(K=[[2.0, 0.5], [0.5, 1.0]], tau=[0.5, -0.3],
                                   weights=[1.0, 0.5], lower=[-2.0, -1.0], upper=[2.0, 1.5]),
}


class TestOneDimModel:
    def test_constants(self):
        m = OneDimModel(1.0, 2.0)
        assert m.a == 2.0 and m.b == 2.0          # growth (|b|, a+1)
        assert m.gamma == pytest.approx(1.0)      # (a+1)/2
        assert m.M == pytest.approx(1.0)          # b^2/(2(a+1))
        assert m.ell == -2.0
        assert m.dim == 1

    def test_requires_positive_a(self):
        with pytest.raises(ValueError):
            OneDimModel(0.0, 1.0)

    def test_equilibrium_branches(self):
        assert OneDimModel(1.0, 2.0).equilibrium() == pytest.approx(1.0)
        assert OneDimModel(1.0, -1.0).equilibrium() == 0.0
        assert OneDimModel(1.0, 0.0).equilibrium() == 0.0

    def test_equilibrium_satisfies_inclusion(self):
        for b in (2.0, -1.0, 0.0):
            m = OneDimModel(1.0, b)
            assert equilibrium_residual(m, [m.equilibrium()]) <= 1e-12

    def test_flow_fixed_point(self):
        m = OneDimModel(1.0, 2.0)
        t = np.linspace(0.0, 5.0, 50)
        np.testing.assert_allclose(m.exact_flow(1.0, t), np.ones_like(t), atol=1e-14)

    def test_flow_converges_to_equilibrium(self):
        m = OneDimModel(1.0, 2.0)
        assert m.exact_flow(0.0, 30.0) == pytest.approx(1.0, abs=1e-12)

    def test_flow_hits_wall_and_stays(self):
        m = OneDimModel(1.0, -1.0)
        t_hit = m.hitting_time(0.5)
        assert t_hit == pytest.approx(np.log(2.0) / 2.0)
        assert t_hit == pytest.approx(onedim_hit_time(1.0, -1.0, 0.5))
        t = np.linspace(0.0, 1.0, 201)
        np.testing.assert_allclose(
            m.exact_flow(0.5, t), onedim_flow(1.0, -1.0, 0.5, t), atol=1e-12
        )
        assert m.exact_flow(0.5, t_hit - 1e-9) > 0.0
        assert m.exact_flow(0.5, t_hit + 1e-9) == 0.0

    def test_flow_wall_start_stays_for_nonpositive_b(self):
        m = OneDimModel(1.0, -1.0)
        np.testing.assert_array_equal(m.exact_flow(0.0, np.linspace(0, 2, 9)), np.zeros(9))

    def test_flow_without_push_decays_and_never_hits(self):
        m = OneDimModel(1.0, 0.0)
        t = np.linspace(0.0, 5.0, 51)
        x = m.exact_flow(0.5, t)
        np.testing.assert_allclose(x, onedim_flow(1.0, 0.0, 0.5, t), rtol=1e-14)
        assert np.all(x > 0.0)
        assert m.hitting_time(0.5) == np.inf == onedim_hit_time(1.0, 0.0, 0.5)

    @pytest.mark.parametrize("b", [-1.0, 0.0])
    def test_wall_start_hits_at_once_for_nonpositive_b(self, b):
        assert OneDimModel(1.0, b).hitting_time(0.0) == 0.0 == onedim_hit_time(1.0, b, 0.0)

    def test_flow_rejects_negative_start(self):
        with pytest.raises(ValueError):
            OneDimModel(1.0, 1.0).exact_flow(-0.1, 1.0)

    def test_energy_bound_formula(self):
        m = OneDimModel(1.0, 2.0)
        t = np.array([0.0, 0.5, 2.0])
        expect = np.exp(-2 * t) * 0.25 + 1.0 * (1 - np.exp(-2 * t))
        np.testing.assert_allclose(continuous_energy_bound([0.5], m.M, m.gamma, t), expect,
                                   rtol=1e-12)

    def test_energy_bound_dominates_flow(self):
        for b in (2.0, -1.0):
            m = OneDimModel(1.0, b)
            t = np.linspace(0.0, 3.0, 301)
            x = m.exact_flow(0.5, t)
            assert np.all(x * x <= continuous_energy_bound([0.5], m.M, m.gamma, t) + 1e-12)

    def test_dissipativity_constants_pass_checker(self):
        for a, b in ONEDIM_PARAMS:
            m = OneDimModel(a, b)
            excess = [dissipativity_excess(m, x) for x in onedim_grid(m) if x[0] >= m.r_star]
            assert max(excess) <= SLACK, (a, b)

    def test_growth_constants_pass_checker(self):
        for a, b in ONEDIM_PARAMS:
            m = OneDimModel(a, b)
            excess = [growth_excess(m, x) for x in onedim_grid(m)]
            # the bound is sharp at x = 0, where |F(0)| = |b|
            assert -SLACK <= max(excess) <= SLACK, (a, b)

    def test_one_sided_lipschitz_constant_holds_on_pairs(self):
        for a, b in ONEDIM_PARAMS:
            m = OneDimModel(a, b)
            excess = lipschitz_excesses(m, onedim_grid(m)[::5])
            # F is affine with slope ell, so every pair meets the bound with equality
            assert np.all(np.abs(excess) <= SLACK), (a, b)


@st.composite
def box_models(draw):
    """A model f(x) = A x + b less a zero, linear or l1 G on a box whose
    coordinates are finite, pinched or infinite at either end, and a member
    x with coordinates on faces, within roundoff of them, at an exact zero
    and inside."""
    d = draw(st.integers(1, 4))
    num = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 2))
    lower, upper, x = [], [], []
    for _ in range(d):
        lo = draw(num)
        hi = lo + draw(st.sampled_from([0.0, 0.5, 2.0, 6.0]))
        lo, hi = draw(st.sampled_from([(lo, hi), (-np.inf, hi), (lo, np.inf),
                                       (-np.inf, np.inf)]))
        ends = [v for v in (lo, hi) if np.isfinite(v)]
        near = [v + s * 1e-12 * (1.0 + abs(v)) for v in ends for s in (-1.0, 1.0)]
        inside = [v for v in near + [0.0, lo + 0.3, hi - 0.3] if lo <= v <= hi and np.isfinite(v)]
        lower.append(lo)
        upper.append(hi)
        x.append(draw(st.sampled_from(ends + inside)))
    A = np.array(draw(st.lists(num, min_size=d * d, max_size=d * d))).reshape(d, d)
    kind = draw(st.sampled_from(["zero", "linear", "l1"]))
    if kind == "zero":
        G = ZeroPart(d)
    elif kind == "linear":
        B = np.array(draw(st.lists(num, min_size=d * d, max_size=d * d))).reshape(d, d)
        G = LinearPart(B @ B.T)
    else:
        G = SeparableL1(draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=d, max_size=d)))
    m = MonotoneModel(AffineField(A, draw(st.lists(num, min_size=d, max_size=d))), G,
                      Box(lower, upper), growth=(0.0, 0.0), dissipativity=(0.0, 0.0, 1.0))
    return m, np.array(x)


class TestEquilibriumResidual:
    """The residual is the norm of the minimal-norm selection projected onto
    the box's tangent cone, with the bytes of the face formula it replaced."""

    @given(box_models())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_face_formula(self, case):
        m, x = case
        assert m.C.contains(x)
        assert equilibrium_residual(m, x).hex() == reference_equilibrium_residual(m, x).hex()

    def test_point_outside_the_box_is_rejected(self):
        m = DryFrictionModel(K=[[1.0]], tau=[0.5], weights=[1.0], lower=[-1.0], upper=[1.0])
        with pytest.raises(GeometryError, match="not in the set"):
            equilibrium_residual(m, [1.5])


class TestDryFrictionModel:
    def small(self, tau=(0.5,), K=((1.0,),), w=(1.0,), lo=-1.0, hi=1.0):
        n = len(tau)
        return DryFrictionModel(
            K=K, tau=tau, weights=w,
            lower=np.full(n, lo), upper=np.full(n, hi),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            self.small(K=((-1.0,),))                      # not PD
        with pytest.raises(ValueError):
            self.small(w=(0.0,))                          # zero friction weight
        with pytest.raises(ValueError):
            DryFrictionModel(K=[[1.0]], tau=[0.0], weights=[1.0],
                             lower=[0.0], upper=[np.inf])  # unbounded box

    def test_field_bound_formula(self):
        m = self.small(tau=(0.5,))
        # L = |tau| + |K| R_C + sqrt(n) w_max = 0.5 + 1 + 1
        assert m.field_bound == pytest.approx(2.5)
        assert m.M == pytest.approx(2.5 * 1.0 + 1.0)

    @pytest.mark.parametrize("case", sorted(FRICTION_CASES))
    def test_declared_constants_hold_on_the_box(self, case):
        m = FRICTION_CASES[case]()
        corners = box_corners(m.C.lower, m.C.upper)
        others = box_test_points(m.C.lower, m.C.upper, np.random.default_rng(7))
        points = np.vstack([corners, others])
        assert max(growth_excess(m, x) for x in points) <= SLACK
        far = [x for x in points if np.linalg.norm(x) >= m.r_star]
        assert len(far) >= corners.shape[0]
        assert max(dissipativity_excess(m, x) for x in far) <= SLACK
        # every sort of point meets every other: corners, faces, zeros, interior
        pairs = np.vstack([corners[:16], others])
        assert lipschitz_excesses(m, pairs).max() <= SLACK

    def test_sticking_when_force_below_threshold(self):
        m = self.small(tau=(0.5,))
        w = select_F(m, [0.0])
        assert w[0] == 0.0
        assert equilibrium_residual(m, [0.0]) == 0.0

    def test_sliding_equilibrium_inside_box(self):
        # tau = 2 balances at x = 1 where 2 - x - 1 = 0, but x = 1 is the
        # box edge here; widen the box so the balance point is interior
        m = DryFrictionModel(K=[[1.0]], tau=[2.0], weights=[1.0],
                             lower=[-2.0], upper=[2.0])
        assert equilibrium_residual(m, [1.0]) == 0.0
        assert equilibrium_residual(m, [0.5]) > 0.0

    def test_boundary_equilibrium_uses_normal_cone(self):
        # tau = 5 drives the state into the upper bound; there the normal
        # ray absorbs the excess force
        m = self.small(tau=(5.0,))
        assert equilibrium_residual(m, [1.0]) == 0.0

    def test_residual_requires_box(self):
        from catchup.geometry import Ball
        from catchup.operators import AffineField, MonotoneModel, ZeroPart
        m = MonotoneModel(
            f=AffineField([[0.0]], [0.0]), G=ZeroPart(1), C=Ball([0.0], 1.0),
            growth=(0.0, 0.0), dissipativity=(0.5, 1.0, 1.0),
        )
        with pytest.raises(ValueError):
            equilibrium_residual(m, [0.0])

    def test_run_stays_feasible_and_is_absorbed_near_rest(self):
        # zero external force: the continuous flow stops at the origin; the
        # discrete selection is single-valued off zero, so the iterates
        # chatter in an O(mu) band around it instead of freezing.  The
        # honest discrete claims: feasibility, absorption into the band,
        # tail-averaged velocity ~ 0, and the force balance |K x|_inf
        # within the friction threshold at the end.
        m = DryFrictionModel(
            K=[[2.0, 0.5], [0.5, 1.0]], tau=[0.0, 0.0], weights=[1.0, 1.0],
            lower=[-1.0, -1.0], upper=[1.0, 1.0],
        )
        s = make_schedule(5.0, Uniform(0.01))
        r = run(m, [0.5, -0.5], s, certify_normals=False)
        assert all(m.C.contains(x) for x in r.X)
        norms = np.linalg.norm(r.X, axis=1)
        entered = int(np.argmax(norms < 0.05))
        assert r.times[entered] < 1.0
        assert norms[entered:].max() < 0.05
        tail = 100
        mean_vel = np.linalg.norm(r.X[-1] - r.X[-1 - tail]) / (tail * s.mus[-1])
        assert mean_vel <= 1e-3
        assert float(np.max(np.abs(m.K @ r.X[-1]))) <= m.weights.min()

    def test_config_round_trip(self):
        m = DryFrictionModel(
            K=[[2.0, 0.5], [0.5, 1.0]], tau=[0.3, -0.2], weights=[0.5, 0.7],
            lower=[-1.0, -2.0], upper=[2.0, 1.0], gamma=0.5,
        )
        m2 = named_model_from_config(m.to_config())
        assert isinstance(m2, DryFrictionModel)
        np.testing.assert_array_equal(m2.K, m.K)
        np.testing.assert_array_equal(m2.tau, m.tau)
        assert m2.gamma == 0.5
        assert m2.M == m.M

    def test_onedim_config_round_trip(self):
        m = OneDimModel(1.5, -0.7)
        m2 = named_model_from_config(m.to_config())
        assert isinstance(m2, OneDimModel)
        assert m2.param_a == 1.5 and m2.param_b == -0.7

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            named_model_from_config({"model": "pendulum"})


class TestReferenceSolution:
    def test_matches_closed_form_smooth_case(self):
        m = OneDimModel(1.0, 2.0)
        ref = reference_solution(m, [0.0], T=5.0, n_steps=50_000)
        exact = m.exact_flow(0.0, ref.times)
        assert float(np.max(np.abs(ref.X[:, 0] - exact))) < 1e-3

    def test_matches_closed_form_kink_case(self):
        m = OneDimModel(1.0, -1.0)
        ref = reference_solution(m, [0.5], T=1.0, n_steps=10_000)
        exact = m.exact_flow(0.5, ref.times)
        assert float(np.max(np.abs(ref.X[:, 0] - exact))) < 1e-3

    def test_first_order_error_decay(self):
        m = OneDimModel(1.0, -1.0)
        errs = []
        for n in (100, 200, 400):
            ref = run(m, [0.5], make_schedule(1.0, Uniform(1.0 / n)), certify_normals=False)
            exact = m.exact_flow(0.5, ref.times)
            errs.append(float(np.max(np.abs(ref.X[:, 0] - exact))))
        assert errs[1] <= 0.65 * errs[0]
        assert errs[2] <= 0.65 * errs[1]

    def test_friction_sticking_reference(self):
        m = DryFrictionModel(K=[[1.0]], tau=[0.5], weights=[1.0],
                             lower=[-1.0], upper=[1.0])
        ref = reference_solution(m, [0.0], T=2.0, n_steps=2000)
        np.testing.assert_array_equal(ref.X, np.zeros_like(ref.X))

    def test_friction_slides_to_balance(self):
        m = DryFrictionModel(K=[[1.0]], tau=[2.0], weights=[1.0],
                             lower=[-2.0], upper=[2.0])
        ref = reference_solution(m, [0.0], T=20.0, n_steps=20_000)
        assert ref.X[-1, 0] == pytest.approx(1.0, abs=1e-6)
        assert equilibrium_residual(m, ref.X[-1]) <= 1e-6

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError):
            reference_solution(OneDimModel(1.0, 2.0), [0.0], T=1.0, n_steps=0)
