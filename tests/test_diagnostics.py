"""Certificate checkers: frozen examples plus the inequalities as properties."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import catchup.diagnostics as diagnostics
from catchup.diagnostics import (
    CertificateEntry,
    apriori_envelope,
    certificate_table,
    check_beta_domination,
    check_discrete_energy,
    continuous_energy_bound,
    corrector_stability_check,
    defect_summability,
    local_truncation,
    predictor_feasibility,
    run_constants,
    stability_experiment,
)
from catchup.geometry import (Box, GeometryError, Halfline, PerturbedProjection,
                              in_approx_normal_cone)
from catchup.models import DryFrictionModel, OneDimModel
from catchup.operators import (AffineField, LinearPart, MonotoneModel, ZeroPart,
                                globalize_constants)
from catchup.scheme import DiscreteRun, PowerOfStep, Uniform, make_schedule, run

from oracles import reference_apriori, reference_young_split


@pytest.fixture(scope="module")
def relaxing_run():
    """a=1, b=2: monotone approach to the equilibrium x*=1 from the corner."""
    model = OneDimModel(a=1.0, b=2.0)
    sched = make_schedule(T=2.0, steps=Uniform(0.01))
    return model, run(model, [0.0], sched, certify_normals=False)


@pytest.fixture(scope="module")
def far_run():
    """f(x) = -x from 1e200: the states stay finite, their squares do not."""
    model = MonotoneModel(AffineField([[-1.0]], [0.0]), ZeroPart(1), Halfline(),
                          growth=(0.0, 1.0), dissipativity=(1.0, 1.0, 0.5))
    with np.errstate(over="ignore"):  # the steps' own squares
        r = run(model, [1e200], make_schedule(0.1, Uniform(0.02)))
    assert np.isfinite(r.X).all()
    return r


@pytest.fixture(scope="module")
def sticking_run():
    """a=1, b=-1: decays from 0.5, hits the wall near t=ln(2)/2, stays."""
    model = OneDimModel(a=1.0, b=-1.0)
    sched = make_schedule(T=2.0, steps=Uniform(0.01))
    return model, run(model, [0.5], sched, certify_normals=False)


class TestContinuousEnvelope:
    def test_starts_at_initial_energy(self):
        assert continuous_energy_bound([0.7], 2.0, 1.0, 0.0) == pytest.approx(0.49)

    def test_saturates_at_level_over_rate(self):
        val = continuous_energy_bound([0.0], 2.0, 0.5, 1e6)
        assert val == pytest.approx(4.0)

    def test_scalar_model_formula(self):
        # a=1, b=2 gives rate 2 and level 1, so the envelope from the
        # corner is 1 - e^{-2t}
        t = np.array([0.0, 0.25, 1.0])
        vals = continuous_energy_bound([0.0], 1.0, 1.0, t)
        assert vals == pytest.approx(1.0 - np.exp(-2.0 * t))

    def test_monotone_toward_saturation(self):
        t = np.linspace(0.0, 3.0, 50)
        vals = continuous_energy_bound([0.2], 1.5, 1.0, t)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals <= 1.5 + 1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            continuous_energy_bound([0.0], 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            continuous_energy_bound([0.0], 1.0, 1.0, -0.5)


class TestRunConstants:
    def test_default_split_is_even(self, relaxing_run):
        model, r = relaxing_run
        k = run_constants(r)
        assert k["c"] == model.gamma == 1.0
        assert k["delta"] == k["eta"] == 0.5
        assert k["M_T"] == pytest.approx(model.a + model.b * k["R_T"])
        assert k["q_T"] == 0.0

    @pytest.mark.parametrize("gamma", [1e-300, 0.5, 1.0, 3.7, 1e308])
    def test_young_split_keeps_its_bits(self, gamma):
        model = MonotoneModel(AffineField([[-1.0]], [0.0]), LinearPart([[1.0]]), Halfline(),
                              growth=(0.0, 2.0), dissipativity=(0.0, 0.0, gamma))
        split = model.young_split
        assert [v.hex() for v in split] == [v.hex() for v in reference_young_split(gamma)]
        assert split[0] == gamma
        if gamma == 1e308:  # 2 gamma overflows, so the margin left is inf
            assert split[1] == split[2] == np.inf

    def test_defect_budget_is_one_number(self, sticking_run):
        _, r = sticking_run
        k = run_constants(r)
        C_T = k["C_T"]
        assert C_T == k["M_T"] ** 2 * r.schedule.sum_mu_sq + float(np.sum(r.schedule.eps))
        assert defect_summability(r).bound == C_T
        assert predictor_feasibility(r)[0].detail["C_T"] == C_T


def _bits(record: dict) -> dict:
    """The record with each float as its type and its bits."""
    return {key: (type(v), float(v).hex()) if isinstance(v, float) else v
            for key, v in record.items()}


class TestAprioriEnvelope:
    """`apriori_envelope` against the envelope and verdict the stepping loop
    computed at the end of every run, bit for bit, vacuous ones included."""

    def _check(self, model, x0, T, mu, errors=None):
        schedule = make_schedule(T, Uniform(mu), errors)
        r = run(model, x0, schedule, certify_normals=False)
        got = apriori_envelope(r)
        assert _bits(got) == _bits(reference_apriori(model, schedule, r.X[0], r.X))
        return got

    @settings(max_examples=40, deadline=None)
    @given(a=st.floats(0.1, 5.0), b=st.floats(-3.0, 3.0), x0=st.floats(0.0, 3.0),
           T=st.floats(0.25, 40.0), mu=st.floats(0.01, 0.2),
           eps0=st.sampled_from([None, 0.1, 3.0]))
    @example(a=1.0, b=-1.0, x0=0.5, T=2.0, mu=0.01, eps0=None)  # sticks at 0
    @example(a=1.0, b=2.0, x0=0.0, T=30.0, mu=0.1, eps0=None)  # vacuous
    def test_onedim_matches_the_oracle(self, a, b, x0, T, mu, eps0):
        errors = None if eps0 is None else PowerOfStep(eps0, 1.0)
        self._check(OneDimModel(a=a, b=b), [x0], T, mu, errors)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([1, 2]), k=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
           rho=st.floats(-0.9, 0.9), tau=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           weight=st.floats(0.1, 2.0), at=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           T=st.floats(0.5, 30.0), mu=st.floats(0.01, 0.2))
    def test_dry_friction_matches_the_oracle(self, dim, k, rho, tau, weight, at, T, mu):
        K = np.diag(k[:dim])
        if dim == 2:
            K[0, 1] = K[1, 0] = rho * math.sqrt(k[0] * k[1])
        model = DryFrictionModel(K, tau[:dim], [weight] * dim, [-1.0] * dim, [1.0] * dim)
        self._check(model, [2.0 * v - 1.0 for v in at[:dim]], T, mu)

    def test_vacuous_envelope(self):
        # Lambda_T is about 78, so exp(Lambda_T T) leaves float range at T = 20
        got = self._check(DryFrictionModel([[3.0]], [0.0], [1.0], [-1.0], [1.0]), [0.5],
                          20.0, 0.1)
        assert got["vacuous"] is True
        assert all(got[key] is None for key in ("K_T", "R_T", "M_T", "L_T", "within_bound"))

    def test_overflowing_square_is_outside_the_envelope(self, relaxing_run):
        model, r = relaxing_run
        X = r.X.copy()
        X[-1] = 1e200
        got = apriori_envelope(DiscreteRun(model, r.schedule, X, r.W, r.P))
        assert got["K_T"] < math.inf
        assert got["within_bound"] is False

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 30), dim=st.integers(1, 12), seed=st.integers(0, 2 ** 16),
           scale=st.sampled_from([1e-300, 1e-5, 1.0, 1e100, 1e150]))
    def test_radius_keeps_the_bits_of_the_norm(self, rows, dim, seed, scale):
        X = np.random.default_rng(seed).standard_normal((rows, dim)) * scale
        run_ = DiscreteRun(None, None, X, np.empty((0, dim)), np.empty((0, dim)))
        want = float(np.max(np.linalg.norm(X, axis=1)))
        assert run_.measured_radius().hex() == want.hex()


class TestDiscreteEnergy:
    def test_holds_on_relaxing_run(self, relaxing_run):
        _, r = relaxing_run
        entry = check_discrete_energy(r)
        assert entry.passed
        assert entry.measured <= 0.0
        assert entry.theorem_tag == "energy"

    def test_assembled_constants(self, relaxing_run):
        # R_T is the largest iterate, 1 - 0.98^200; the growth pair is
        # (2, 2) and the globalized level is 5, so with the even split
        # C0 = 10 + 4 M_T^2 and C1 = 4 M_T^2
        _, r = relaxing_run
        entry = check_discrete_energy(r)
        R = 1.0 - 0.98 ** 200
        M_T = 2.0 + 2.0 * R
        assert entry.detail["R_T"] == pytest.approx(R)
        assert entry.detail["C1"] == pytest.approx(4.0 * M_T ** 2)
        assert entry.detail["C0"] == pytest.approx(10.0 + 4.0 * M_T ** 2)
        assert entry.detail["C0"] == pytest.approx(72.87932079108671)

    def test_holds_on_sticking_run(self, sticking_run):
        _, r = sticking_run
        assert check_discrete_energy(r).passed

    def test_tampered_state_fails(self, relaxing_run):
        model, r = relaxing_run
        X = r.X.copy()
        X[-1] = 40.0
        bad = DiscreteRun(model, r.schedule, X, r.W, r.P)
        entry = check_discrete_energy(bad)
        assert not entry.passed
        assert entry.measured > 100.0
        assert entry.detail["worst_step"] == r.n_steps - 1

    def test_overflowing_square_raises(self, far_run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OverflowError, match="leaves the float range"):
                check_discrete_energy(far_run)
        assert [w for w in caught if w.filename == diagnostics.__file__] == []


@pytest.mark.parametrize("check", [check_beta_domination, defect_summability,
                                   predictor_feasibility, run_constants],
                         ids=lambda check: check.__name__)
def test_every_bound_raises_on_an_overflowing_square(far_run, check):
    # beta_bound read NaN there, and defect_sum and feas_L2 passed against
    # the inf bound of an inf radius; the radius itself stays inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError, match="leaves the float range"):
            check(far_run)
    assert [w for w in caught if w.filename == diagnostics.__file__] == []
    assert far_run.measured_radius() == math.inf


def test_truncation_raises_on_an_overflowing_square(far_run):
    # against a reference 32x finer than far_run's grid, the check read an
    # inf radius and passed with an inf bound and a NaN margin
    with np.errstate(over="ignore"):  # the steps' own squares
        reference = run(far_run.model, [1e200], make_schedule(0.1, Uniform(0.02 / 32)),
                        certify_normals=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError, match="leaves the float range"):
            local_truncation(far_run.model, reference, far_run.schedule)
    assert [w for w in caught if w.filename == diagnostics.__file__] == []
    assert reference.measured_radius() == math.inf


class TestBetaDomination:
    def test_sharp_level_zero_slack_from_corner(self, relaxing_run):
        # iterates approach the equilibrium from below, so the only
        # touching point is t=0 and the overshoot is exactly zero
        model, r = relaxing_run
        entry = check_beta_domination(r, level=model.M, gamma=model.gamma)
        assert entry.passed
        assert entry.measured == 0.0
        assert entry.detail["level"] == 1.0

    def test_global_level_is_looser(self, relaxing_run):
        _, r = relaxing_run
        entry = check_beta_domination(r)
        assert entry.passed
        assert entry.detail["level"] == 5.0

    def test_slack_nonincreasing_under_refinement(self):
        model = OneDimModel(a=1.0, b=2.0)
        slacks = []
        for mu in (0.04, 0.02, 0.01):
            sched = make_schedule(T=1.0, steps=Uniform(mu))
            r = run(model, [0.0], sched, certify_normals=False)
            e = check_beta_domination(r, level=model.M, gamma=model.gamma)
            slacks.append(max(e.measured, 0.0))
        assert slacks[1] <= max(slacks[0] / 2.0, 1e-15)
        assert slacks[2] <= max(slacks[1] / 2.0, 1e-15)

    def test_inflated_state_fails(self, relaxing_run):
        model, r = relaxing_run
        X = r.X.copy()
        X[50] = 3.0
        bad = DiscreteRun(model, r.schedule, X, r.W, r.P)
        entry = check_beta_domination(bad, level=model.M, gamma=model.gamma)
        assert not entry.passed
        assert entry.detail["worst_time"] == pytest.approx(0.5)


class TestDefectSummability:
    def test_interior_run_has_zero_defects(self, relaxing_run):
        _, r = relaxing_run
        entry = defect_summability(r)
        assert entry.passed
        assert entry.measured == 0.0
        assert entry.bound > 0.0

    def test_sticking_run_frozen_values(self, sticking_run):
        # the wall is reached at step 35; each of the remaining 165 steps
        # pushes the predictor mu*|F(0)| = 0.01 outside, so the sum is
        # 165 * 1e-4 plus one smaller crossing defect
        _, r = sticking_run
        entry = defect_summability(r)
        assert entry.passed
        assert entry.measured == pytest.approx(0.016547960879583552, rel=1e-12)
        assert entry.measured > 165 * 1e-4
        assert entry.measured < 166 * 1e-4
        # M_T = 1 + 2*0.5 = 2 and sum(mu^2) = 200 * 1e-4
        assert entry.bound == pytest.approx(0.08)

    def test_fabricated_defects_fail(self, sticking_run):
        model, r = sticking_run
        P = r.P.copy()
        P[:] = 1.0
        bad = DiscreteRun(model, r.schedule, r.X, r.W, P)
        assert not defect_summability(bad).passed


class NoGeometryBox(Box):
    """A box whose projection, distance and membership test must not run."""

    def project(self, y):
        raise AssertionError("the set was asked about a point")

    distance = contains = project


class TestPredictorFeasibility:
    def test_interior_run_all_zero(self, relaxing_run):
        _, r = relaxing_run
        l2, cesaro, measure = predictor_feasibility(r)
        assert l2.passed and cesaro.passed and measure.passed
        assert l2.measured == 0.0
        assert cesaro.measured == 0.0

    def test_sticking_run_l2_identity(self, sticking_run):
        # uniform grid and d_k = |p_k| make the predictor L2 exactly
        # mu times the defect sum
        _, r = sticking_run
        l2, cesaro, measure = predictor_feasibility(r)
        assert l2.passed
        assert l2.measured == pytest.approx(0.01 * defect_summability(r).measured, rel=1e-12)
        assert l2.measured <= l2.bound

    def test_cesaro_against_l2(self, sticking_run):
        _, r = sticking_run
        l2, cesaro, _ = predictor_feasibility(r)
        assert cesaro.measured == pytest.approx(0.00828462689690961, rel=1e-12)
        assert cesaro.bound == pytest.approx(np.sqrt(l2.measured / r.T))
        assert cesaro.passed

    def test_measure_chebyshev_chain(self, sticking_run):
        _, r = sticking_run
        _, cesaro, measure = predictor_feasibility(r)
        rec = measure.detail["thresholds"]["0.001"]
        # 166 cells of width 0.01 carry a distance above the threshold
        assert rec["measured"] == pytest.approx(0.83)
        assert rec["bound"] == pytest.approx(cesaro.measured / 1e-3)
        assert measure.passed

    def test_l2_shrinks_under_refinement(self):
        model = OneDimModel(a=1.0, b=-1.0)
        values = []
        for mu in (0.02, 0.01, 0.005):
            sched = make_schedule(T=2.0, steps=Uniform(mu))
            r = run(model, [0.5], sched, certify_normals=False)
            values.append(predictor_feasibility(r)[0].measured)
        # the stuck-phase distance is proportional to mu, so the
        # integral drops nearly 4x per halving
        assert values[1] <= 0.3 * values[0]
        assert values[2] <= 0.3 * values[1]

    def test_reads_only_the_record(self):
        # the distances are the defects' norms, so a box that refuses to
        # project, measure or judge a point gives the same three entries
        def pushed_out(C):
            return MonotoneModel(AffineField(-np.eye(2), [3.0, 0.5]), ZeroPart(2), C,
                                 growth=(3.1, 1.0), dissipativity=(1.0, 4.7, 0.5))

        r = run(pushed_out(Box([-1.0, -1.0], [1.0, 1.0])), [0.0, 0.0],
                make_schedule(1.0, Uniform(0.02)), certify_normals=False)
        assert r.P.any()
        blind = DiscreteRun(pushed_out(NoGeometryBox([-1.0, -1.0], [1.0, 1.0])),
                            r.schedule, r.X, r.W, r.P)
        assert [e.to_record() for e in predictor_feasibility(blind)] == \
            [e.to_record() for e in predictor_feasibility(r)]


class TestStabilityExperiment:
    def test_contraction_fine_mesh(self):
        model = OneDimModel(a=1.0, b=2.0)
        sched = make_schedule(T=2.0, steps=Uniform(0.01))
        out = stability_experiment(model, [0.0], [1.5], sched)
        assert out["entry"].passed
        assert out["entry"].measured <= 1.05
        assert out["profile"][0] == pytest.approx(1.0)
        assert np.all(out["profile"] <= 1.0 + 1e-12)
        np.testing.assert_array_equal(out["profile"], out["gaps"] / out["envelope"])
        assert out["gaps"][0] == out["entry"].detail["gap0"]

    def test_contraction_through_the_wall(self):
        # one trajectory sticks before the other; the gap keeps
        # contracting through the kink
        model = OneDimModel(a=1.0, b=-1.0)
        sched = make_schedule(T=2.0, steps=Uniform(0.01))
        out = stability_experiment(model, [0.5], [0.8], sched)
        assert out["entry"].passed
        assert out["entry"].measured <= 1.05

    def test_coarse_mesh_reported_with_wide_tolerance(self):
        model = OneDimModel(a=1.0, b=2.0)
        sched = make_schedule(T=1.0, steps=Uniform(0.2))
        out = stability_experiment(model, [0.0], [1.0], sched)
        # tol_mesh = 5 * 0.2 * (1 + 2) * 1 = 3
        assert out["entry"].detail["tol_mesh"] == pytest.approx(3.0)
        assert out["entry"].passed

    def test_identical_starts_rejected(self):
        model = OneDimModel(a=1.0, b=2.0)
        sched = make_schedule(T=1.0, steps=Uniform(0.1))
        with pytest.raises(ValueError, match="differ"):
            stability_experiment(model, [0.3], [0.3], sched)

    def test_missing_lipschitz_level_rejected(self):
        model = MonotoneModel(
            f=AffineField([[-2.0]], [2.0]),
            G=LinearPart([[0.0]]),
            C=Halfline(),
            growth=(2.0, 2.0),
            dissipativity=(1.0, 1.0, 1.0),
        )
        sched = make_schedule(T=1.0, steps=Uniform(0.1))
        with pytest.raises(ValueError, match="Lipschitz"):
            stability_experiment(model, [0.0], [1.0], sched)

    def test_seeds_shared_between_twin_runs(self):
        model = OneDimModel(a=1.0, b=2.0)
        sched = make_schedule(T=1.0, steps=Uniform(0.01))
        proj = PerturbedProjection(seed=7)
        out = stability_experiment(model, [0.0], [1.0], sched, projection=proj)
        r1, r2 = out["runs"]
        assert r1.seeds == r2.seeds
        assert out["entry"].passed


class TestLocalTruncation:
    def setup_method(self):
        self.model = OneDimModel(a=1.0, b=-1.0)

    def _reference(self, mu_ref):
        sched = make_schedule(T=1.0, steps=Uniform(mu_ref))
        return run(self.model, [0.5], sched, certify_normals=False)

    def test_one_step_defects_bounded(self):
        ref = self._reference(0.01 / 64)
        coarse = make_schedule(T=1.0, steps=Uniform(0.01))
        entry = local_truncation(self.model, ref, coarse)
        assert entry.passed
        assert entry.theorem_tag == "truncation"
        # R = 0.5 so M_T = 2 and the constant is 6
        assert entry.bound == pytest.approx(6.0)
        assert entry.measured < 0.1
        assert entry.detail["mesh_ratio"] == pytest.approx(64.0)

    def test_insufficient_refinement_rejected(self):
        ref = self._reference(0.001)
        coarse = make_schedule(T=1.0, steps=Uniform(0.01))
        with pytest.raises(ValueError, match="32"):
            local_truncation(self.model, ref, coarse)

    def test_reference_shorter_than_schedule_rejected(self):
        ref = self._reference(0.01 / 64)
        coarse = make_schedule(T=2.0, steps=Uniform(0.01))
        with pytest.raises(ValueError, match="shorter"):
            local_truncation(self.model, ref, coarse)

    def test_relaxed_projection_stays_within_bound(self):
        from catchup.scheme import PowerOfStep

        ref = self._reference(0.01 / 64)
        coarse = make_schedule(T=1.0, steps=Uniform(0.01),
                               errors=PowerOfStep(eps0=0.1, beta=1.0))
        entry = local_truncation(self.model, ref, coarse,
                                 projection=PerturbedProjection(seed=3))
        assert entry.passed


class TestCorrectorStability:
    def setup_method(self):
        self.model = OneDimModel(a=1.0, b=2.0)

    def test_equal_points_exact_projection(self):
        out = corrector_stability_check(self.model, [0.4], [0.4], mu=0.05, eps=0.0)
        assert out.passed
        assert out.measured == 0.0
        assert out.bound == pytest.approx(out.detail["C_T"] * 0.05 ** 2)

    def test_equal_points_pure_perturbation(self):
        eps = 0.01
        out = corrector_stability_check(
            self.model, [0.4], [0.4], mu=0.05, eps=eps,
            projection=PerturbedProjection(seed=1),
        )
        assert out.passed
        assert out.measured <= out.detail["C_T"] * (0.05 ** 2 + eps)

    def test_relaxation_raises_rhs_linearly(self):
        base = corrector_stability_check(self.model, [0.3], [0.7], mu=0.05, eps=0.0)
        relaxed = corrector_stability_check(self.model, [0.3], [0.7], mu=0.05, eps=0.01)
        assert relaxed.bound - base.bound == pytest.approx(relaxed.detail["C_T"] * 0.01)
        assert relaxed.detail["C_T"] == pytest.approx(8.0 * (2.0 + 2.0 * 0.7) ** 2)

    def test_frozen_pair(self):
        # w(0.3) = 1.4 and w(0.7) = 0.6, so with mu = 0.05 the updates
        # land at 0.37 and 0.73 and the gap squared is 0.1296
        out = corrector_stability_check(self.model, [0.3], [0.7], mu=0.05, eps=0.0)
        assert out.measured == pytest.approx(0.1296)
        assert out.passed

    def test_infeasible_point_rejected(self):
        with pytest.raises(GeometryError):
            corrector_stability_check(self.model, [-0.5], [0.4], mu=0.05, eps=0.0)

    def test_bad_step_arguments(self):
        with pytest.raises(ValueError):
            corrector_stability_check(self.model, [0.1], [0.2], mu=0.0, eps=0.0)
        with pytest.raises(ValueError):
            corrector_stability_check(self.model, [0.1], [0.2], mu=0.1, eps=-1e-3)

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.floats(0.0, 3.0),
        x_bar=st.floats(0.0, 3.0),
        mu=st.floats(1e-3, 0.1),
        eps=st.floats(0.0, 1e-2),
        seed=st.integers(0, 2 ** 16),
    )
    def test_inequality_is_a_property(self, x, x_bar, mu, eps, seed):
        out = corrector_stability_check(
            self.model, [x], [x_bar], mu=mu, eps=eps,
            projection=PerturbedProjection(seed=seed),
        )
        assert out.passed


class TestReport:
    def test_text_table_marks_failures(self):
        entries = [CertificateEntry("energy", 1.0, 0.0, -1.0, False),
                   CertificateEntry("defect_sum", 0.0, 1.0, 1.0, True)]
        text = certificate_table(entries)
        assert "FAIL" in text
        assert "pass" in text
        assert text.splitlines()[0].startswith("certificate")

    def test_empty_report(self):
        assert "no certificates" in certificate_table([])


NAN = float("nan")


@pytest.mark.parametrize("call, name", [
    (lambda: in_approx_normal_cone(Halfline(), [0.0], [-1.0], NAN), "delta"),
    (lambda: corrector_stability_check(OneDimModel(1, 2), [0.3], [0.7], mu=NAN, eps=0.0), "mu"),
    (lambda: corrector_stability_check(OneDimModel(1, 2), [0.3], [0.7], mu=0.05, eps=NAN),
     "eps"),
    (lambda: continuous_energy_bound([0.5], 1.0, NAN, 1.0), "gamma"),
    (lambda: continuous_energy_bound([0.5], 1.0, 1.0, NAN), "t"),
    (lambda: continuous_energy_bound([0.5], NAN, 1.0, 1.0), "M_tilde"),
    (lambda: continuous_energy_bound([NAN], 1.0, 1.0, 1.0), "x0"),
    (lambda: globalize_constants(1, 1, 1, 1, NAN), "gamma"),
    (lambda: globalize_constants(NAN, 1, 1, 1, 1), "a"),
    (lambda: globalize_constants(1, 1, 1, NAN, 1), "M"),
], ids=["cone-delta", "corrector-mu", "corrector-eps", "envelope-gamma", "envelope-t",
        "envelope-M_tilde", "envelope-x0", "globalize-gamma", "globalize-a", "globalize-M"])
def test_nan_argument_is_rejected(call, name):
    """A guard written `x < 0` lets NaN through to a NaN or failed result;
    each of these must refuse it as a bad argument, named in the message."""
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call()
