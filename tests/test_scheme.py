import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catchup.geometry import (
    Ball,
    Box,
    ExactProjection,
    Halfline,
    Halfspace,
    Intersection,
    IterativeProjection,
    PerturbedProjection,
)
from catchup.operators import (
    AffineField,
    LinearPart,
    MinimalNorm,
    MonotoneModel,
    Randomized,
    SeparableL1,
    ZeroPart,
)
from catchup.scheme import (
    DiscreteRun,
    ExplicitErrors,
    ExplicitSteps,
    PowerOfStep,
    SchemeError,
    Uniform,
    Polynomial,
    ZeroError,
    make_schedule,
    read_run_csv,
    run,
    step,
    verify_run_invariants,
)

from oracles import catching_up_halfline, onedim_hit_time


def scalar_model(a=1.0, b=2.0):
    rate = a + 1.0
    return MonotoneModel(
        f=AffineField([[-a]], [b]),
        G=LinearPart([[1.0]]),
        C=Halfline(),
        growth=(abs(b), rate),
        dissipativity=(1.0, b * b / (2.0 * rate), rate / 2.0),
        ell=-rate,
        name="onedim",
    )


class TestSchedules:
    def test_uniform_grid_exact_count(self):
        s = make_schedule(1.0, Uniform(0.01), PowerOfStep(1.0, beta=1.0))
        assert s.n_steps == 100
        assert s.T == pytest.approx(1.0)
        np.testing.assert_allclose(s.eps, 1e-6)
        assert s.q_T == pytest.approx(0.01)

    def test_uniform_grid_has_no_drift(self):
        s = make_schedule(10.0, Uniform(0.01))
        assert s.n_steps == 1000
        assert s.times[-1] == pytest.approx(10.0, abs=1e-12)
        np.testing.assert_allclose(np.diff(s.times), 0.01, atol=1e-15)

    def test_polynomial_harmonic_times(self):
        s = make_schedule(1.0, Polynomial(0.1, alpha=1.0), ZeroError())
        # t_k = 0.1 * H_k
        H = np.cumsum(1.0 / np.arange(1, s.n_steps + 1))
        np.testing.assert_allclose(s.times[1:], 0.1 * H, rtol=1e-12)
        assert s.T <= 1.0
        assert s.T + s.mus[-1] / (s.n_steps + 1) ** 0 >= 0.9  # grid nearly fills the horizon

    def test_polynomial_steps_decrease(self):
        s = make_schedule(1.0, Polynomial(0.1, alpha=0.5))
        assert np.all(np.diff(s.mus) < 0)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            make_schedule(1.0, Polynomial(0.1, alpha=1.5))
        with pytest.raises(ValueError):
            make_schedule(1.0, Polynomial(0.1, alpha=0.0))

    def test_beta_positive_enforced(self):
        with pytest.raises(ValueError):
            make_schedule(1.0, Uniform(0.1), PowerOfStep(1.0, beta=0.0))

    def test_explicit_steps_must_be_nonincreasing(self):
        with pytest.raises(ValueError):
            make_schedule(1.0, ExplicitSteps([0.1, 0.2]))

    def test_explicit_errors_growing_ratio_rejected_with_index(self):
        mus = [0.1, 0.1, 0.1]
        eps = [1e-4, 1e-4, 1e-2]
        with pytest.raises(ValueError, match="index 2"):
            make_schedule(0.3, ExplicitSteps(mus), ExplicitErrors(eps))

    def test_eps_equal_mu_squared_warns_but_runs(self):
        mus = [0.1] * 5
        eps = [m * m for m in mus]
        s = make_schedule(0.5, ExplicitSteps(mus), ExplicitErrors(eps))
        assert len(s.warnings) == 1
        assert "decay" in s.warnings[0]
        assert s.q_T == pytest.approx(1.0)

    def test_decaying_explicit_errors_pass_silently(self):
        mus = [0.1, 0.05, 0.025]
        eps = [1e-4, 1e-5, 1e-6]
        s = make_schedule(0.175, ExplicitSteps(mus), ExplicitErrors(eps))
        assert s.warnings == ()

    def test_horizon_shorter_than_step(self):
        with pytest.raises(ValueError):
            make_schedule(0.005, Uniform(0.01))

    # NaN slips through a plain `x <= 0` test; a NaN step in the polynomial
    # rule would never exceed the horizon and fill memory
    @pytest.mark.parametrize("T, steps, errors", [
        (float("inf"), Uniform(0.1), None),
        (float("nan"), Uniform(0.1), None),
        (1.0, Uniform(float("nan")), None),
        (1.0, Polynomial(float("nan"), alpha=0.5), None),
        (1.0, ExplicitSteps([0.1, float("nan")]), None),
        (1.0, Uniform(0.1), PowerOfStep(float("nan"), beta=1.0)),
        (1.0, Uniform(0.1), PowerOfStep(1.0, beta=float("nan"))),
        (1.0, Uniform(0.1), ExplicitErrors([float("nan")] * 10)),
    ], ids=["T=inf", "T=nan", "uniform-nan", "polynomial-nan", "explicit-nan",
            "eps0-nan", "beta-nan", "explicit-errors-nan"])
    def test_non_finite_schedule_rejected(self, T, steps, errors):
        with pytest.raises(ValueError):
            make_schedule(T, steps, errors)


class TestStep:
    def test_interior_step_frozen(self):
        # x = 0, w = F(0) = 2, y = 0.2 feasible: no defect
        m = scalar_model(a=1.0, b=2.0)
        x1, y, w, p, v = step(m, [0.0], mu=0.1, eps=0.0)
        assert w[0] == pytest.approx(2.0)
        assert y[0] == pytest.approx(0.2)
        assert x1[0] == pytest.approx(0.2)
        assert p[0] == 0.0
        assert v[0] == 0.0

    def test_boundary_step_frozen(self):
        # b = -1: w = F(0) = -1, predictor leaves the set, projection sticks
        m = scalar_model(a=1.0, b=-1.0)
        x1, y, w, p, v = step(m, [0.0], mu=0.1, eps=0.0)
        assert w[0] == pytest.approx(-1.0)
        assert y[0] == pytest.approx(-0.1)
        assert x1[0] == 0.0
        assert p[0] == pytest.approx(0.1)
        assert v[0] == pytest.approx(-1.0)
        # velocity identity fixes the sign: 0 = w - v = -1 - (-1)
        assert (x1[0] - 0.0) / 0.1 == pytest.approx(w[0] - v[0])

    def test_predictor_matches_closed_form(self):
        # y = (1 - (a+1) mu) x + mu b away from the boundary
        m = scalar_model(a=1.0, b=2.0)
        x = np.array([0.7])
        _, y, _, _, _ = step(m, x, mu=0.05, eps=0.0)
        assert y[0] == pytest.approx((1.0 - 2.0 * 0.05) * 0.7 + 0.05 * 2.0)

    def test_zero_mu_rejected(self):
        with pytest.raises(ValueError):
            step(scalar_model(), [0.0], mu=0.0, eps=0.0)

    def test_infeasible_start_rejected(self):
        m = scalar_model()
        with pytest.raises(Exception):
            step(m, [-1.0], mu=0.1, eps=0.0)


class TestRun:
    def test_matches_hand_transcription(self):
        m = scalar_model(a=1.0, b=-1.0)
        s = make_schedule(1.2, Uniform(0.01))
        r = run(m, [0.5], s)
        xs = catching_up_halfline(1.0, -1.0, 0.5, 0.01, s.n_steps)
        np.testing.assert_allclose(r.X[:, 0], xs, atol=1e-14)

    def test_reaches_equilibrium(self):
        m = scalar_model(a=1.0, b=2.0)
        s = make_schedule(10.0, Uniform(0.01))
        r = run(m, [0.0], s)
        assert abs(r.X[-1, 0] - 1.0) < 1e-3

    def test_decreases_to_zero_and_sticks(self):
        m = scalar_model(a=1.0, b=-1.0)
        s = make_schedule(1.0, Uniform(0.01))
        r = run(m, [0.5], s)
        x = r.X[:, 0]
        assert np.all(np.diff(x) <= 1e-15)
        k_stick = int(np.argmax(x == 0.0))
        assert x[k_stick:].max() == 0.0
        t_hit = onedim_hit_time(1.0, -1.0, 0.5)
        assert abs(r.times[k_stick] - t_hit) < 0.05

    def test_equilibrium_start_is_constant(self):
        m = scalar_model(a=1.0, b=2.0)
        s = make_schedule(1.0, Uniform(0.05))
        r = run(m, [1.0], s)
        np.testing.assert_array_equal(r.X, np.ones((s.n_steps + 1, 1)))
        np.testing.assert_array_equal(r.W, np.zeros((s.n_steps, 1)))

    def test_infeasible_start_rejected(self):
        m = scalar_model()
        s = make_schedule(1.0, Uniform(0.1))
        with pytest.raises(Exception):
            run(m, [-0.5], s)

    def test_apriori_bound_holds(self):
        m = scalar_model(a=1.0, b=2.0)
        s = make_schedule(2.0, Uniform(0.01), PowerOfStep(1.0, beta=1.0))
        r = run(m, [0.5], s)
        assert r.apriori["within_bound"]
        assert r.measured_radius() ** 2 <= r.apriori["K_T"]
        assert r.apriori["M_T"] >= r.measured_sup_w() - 1e-12

    def test_partial_run_attached_on_failure(self):
        # one Dykstra sweep cannot certify eps = 0 when both members bind
        C = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.5)], budget=1)
        m = MonotoneModel(
            f=AffineField(np.zeros((2, 2)), [8.0, 4.0]), G=ZeroPart(2), C=C,
            growth=(9.0, 0.0), dissipativity=(0.5, 10.0, 1.0),
        )
        s = make_schedule(1.0, Uniform(0.25))
        with pytest.raises(SchemeError) as info:
            run(m, [0.0, 0.0], s, projection=IterativeProjection())
        partial = info.value.partial_run
        assert partial is not None
        assert partial.X.shape[0] >= 1

    def test_randomized_selection_is_reproducible(self):
        m = MonotoneModel(
            f=AffineField([[0.0]], [0.0]), G=SeparableL1([1.0]), C=Box([-2.0], [2.0]),
            growth=(1.0, 0.0), dissipativity=(1.0, 10.0, 1.0),
        )
        s = make_schedule(0.5, Uniform(0.05))
        r1 = run(m, [0.0], s, selection=Randomized(seed=11))
        r2 = run(m, [0.0], s, selection=Randomized(seed=11))
        np.testing.assert_array_equal(r1.X, r2.X)
        assert r1.seeds == {"selection": 11, "probes": 0}

    def test_eps_contract_invariant(self):
        m = scalar_model(a=1.0, b=-1.0)
        s = make_schedule(1.0, Uniform(0.02), PowerOfStep(0.5, beta=1.0))
        r = run(m, [0.5], s, projection=PerturbedProjection(seed=2))
        for k in range(r.n_steps):
            lhs = float(r.P[k] @ r.P[k])
            rhs = float(s.mus[k] ** 2 * (r.W[k] @ r.W[k]) + s.eps[k])
            assert lhs <= rhs + 1e-12

    def test_velocity_identity_invariant(self):
        m = scalar_model(a=1.0, b=-1.0)
        s = make_schedule(1.0, Uniform(0.01))
        r = run(m, [0.5], s)
        for k in range(r.n_steps):
            vel = (r.X[k + 1] - r.X[k]) / s.mus[k]
            resid = np.linalg.norm(vel - (r.W[k] - r.V[k]))
            assert resid <= 1e-12 * (1.0 + np.linalg.norm(r.W[k]))

    def test_normal_certificates_on_sticking_steps(self):
        m = scalar_model(a=1.0, b=-1.0)
        s = make_schedule(1.0, Uniform(0.01))
        r = run(m, [0.5], s)
        assert len(r.certificates) >= 1
        assert all(c["holds"] for c in r.certificates)
        ks = [c["k"] for c in r.certificates]
        assert all(np.any(r.P[k]) for k in ks)


class TestInterpolants:
    def make_run(self):
        m = scalar_model(a=1.0, b=-1.0)
        s = make_schedule(1.0, Uniform(0.1))
        return run(m, [0.5], s)

    def test_nodes_and_midpoints(self):
        r = self.make_run()
        for k in range(r.n_steps + 1):
            np.testing.assert_allclose(r.interpolate_state(r.times[k]), r.X[k], atol=1e-14)
        mid = 0.5 * (r.times[3] + r.times[4])
        np.testing.assert_allclose(
            r.interpolate_state(mid), 0.5 * (r.X[3] + r.X[4]), atol=1e-14
        )

    def test_predictor_is_cellwise_constant(self):
        r = self.make_run()
        np.testing.assert_allclose(r.interpolate_predictor(0.0), r.Y[0])
        np.testing.assert_allclose(r.interpolate_predictor(0.0999), r.Y[0])
        np.testing.assert_allclose(r.interpolate_predictor(0.1), r.Y[1])

    def test_out_of_range_rejected(self):
        r = self.make_run()
        with pytest.raises(ValueError):
            r.interpolate_state(-0.5)
        with pytest.raises(ValueError):
            r.interpolate_state(r.T + 0.5)

    def test_lipschitz_bound(self):
        r = self.make_run()
        M_T = r.measured_sup_w()
        q_T = r.schedule.q_T
        L = 2.0 * M_T + np.sqrt(q_T)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s_, t_ = sorted(rng.uniform(0.0, r.T, size=2))
            gap = np.linalg.norm(r.interpolate_state(t_) - r.interpolate_state(s_))
            assert gap <= L * (t_ - s_) + 1e-12

    def test_mesh_refinement_converges(self):
        m = scalar_model(a=1.0, b=-1.0)
        ref = run(m, [0.5], make_schedule(1.0, Uniform(0.01 / 16)))
        sups = []
        for level in range(3):
            mu = 0.01 / 2 ** level
            r = run(m, [0.5], make_schedule(1.0, Uniform(mu)))
            ts = np.linspace(0.0, 1.0 - 1e-9, 101)
            sups.append(max(
                float(np.linalg.norm(r.interpolate_state(t) - ref.interpolate_state(t)))
                for t in ts
            ))
        assert sups[1] <= sups[0] * 1.1
        assert sups[2] <= sups[1] * 1.1
        assert sups[2] < sups[0]


class TestSerialization:
    def make_run(self):
        m = scalar_model(a=1.0, b=-1.0)
        s = make_schedule(1.0, Uniform(0.05), PowerOfStep(0.1, beta=1.0))
        return run(m, [0.5], s, projection=PerturbedProjection(seed=4))

    def test_csv_round_trip_bitwise(self):
        r = self.make_run()
        data = read_run_csv(r.to_csv())
        np.testing.assert_array_equal(data["X"], r.X)
        np.testing.assert_array_equal(data["W"], r.W)
        np.testing.assert_array_equal(data["P"], r.P)
        np.testing.assert_array_equal(data["V"], r.V)
        np.testing.assert_array_equal(data["times"], r.times)
        np.testing.assert_array_equal(data["mus"], r.schedule.mus)
        np.testing.assert_array_equal(data["eps"], r.schedule.eps)

    def test_round_trip_reverifies(self):
        r = self.make_run()
        data = read_run_csv(r.to_csv())
        report = verify_run_invariants(data, C=r.model.C)
        assert report["ok"], report

    def test_verifier_catches_tampering(self):
        r = self.make_run()
        data = read_run_csv(r.to_csv())
        data["X"][3] += 0.5
        report = verify_run_invariants(data, C=r.model.C)
        assert not report["ok"]
        assert report["first_violation"] is not None

    def test_manifest_shape(self):
        r = self.make_run()
        man = r.to_manifest()
        assert set(man) == {
            "model", "schedule", "policies", "seeds", "certificates",
            "apriori", "warnings", "measured",
        }
        assert man["policies"] == {"selection": "minimal_norm", "projection": "perturbed"}
        assert man["seeds"]["projection"] == 4
        assert man["schedule"]["n_steps"] == r.n_steps

    def test_csv_file_output(self, tmp_path):
        r = self.make_run()
        path = tmp_path / "traj.csv"
        r.to_csv(str(path))
        data = read_run_csv(str(path))
        np.testing.assert_array_equal(data["X"], r.X)

    def test_csv_path_with_comma(self, tmp_path):
        r = self.make_run()
        path = tmp_path / "a,b.csv"
        r.to_csv(str(path))
        data = read_run_csv(str(path))
        np.testing.assert_array_equal(data["X"], r.X)


class TestProperties:
    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.005, max_value=0.2),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=1e-3),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_step_contract(self, x0, mu, b, eps):
        m = scalar_model(a=1.0, b=b)
        x1, y, w, p, v = step(m, [x0], mu=mu, eps=eps,
                              projection=PerturbedProjection(seed=1))
        assert m.C.contains(x1)
        assert float(p @ p) <= mu * mu * float(w @ w) + eps + 1e-12
        np.testing.assert_allclose(x1, [x0] + mu * w + p, atol=1e-12)
        if not np.any(p):
            assert not np.any(v)
