import numpy as np
import pytest

from catchup.diagnostics import check_linear_growth, check_tangent_dissipativity
from catchup.geometry import Box
from catchup.operators import select_F
from catchup.scheme import SchemeError, Uniform, make_schedule, run
from catchup.models import (
    DryFrictionModel,
    OneDimModel,
    equilibrium_residual,
    named_model_from_config,
    reference_solution,
)

from oracles import onedim_flow, onedim_hit_time


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

    def test_flow_rejects_negative_start(self):
        with pytest.raises(ValueError):
            OneDimModel(1.0, 1.0).exact_flow(-0.1, 1.0)

    def test_energy_bound_formula(self):
        m = OneDimModel(1.0, 2.0)
        t = np.array([0.0, 0.5, 2.0])
        expect = np.exp(-2 * t) * 0.25 + 1.0 * (1 - np.exp(-2 * t))
        np.testing.assert_allclose(m.energy_bound(0.5, t), expect, rtol=1e-12)

    def test_energy_bound_dominates_flow(self):
        for b in (2.0, -1.0):
            m = OneDimModel(1.0, b)
            t = np.linspace(0.0, 3.0, 301)
            x = m.exact_flow(0.5, t)
            assert np.all(x * x <= m.energy_bound(0.5, t) + 1e-12)

    def test_dissipativity_constants_pass_checker(self):
        m = OneDimModel(1.0, 2.0)
        rec = check_tangent_dissipativity(
            m, rng=np.random.default_rng(0), n_samples=300,
            radius=10.0 * m.equilibrium() + 10.0, use_global=False,
        )
        assert rec.passed
        assert rec.margin >= 0.0

    def test_growth_constants_pass_checker(self):
        m = OneDimModel(1.0, 2.0)
        rec = check_linear_growth(m, rng=np.random.default_rng(1), n_samples=300, radius=10.0)
        assert rec.passed


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
