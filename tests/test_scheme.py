import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import catchup.scheme as scheme
from catchup.diagnostics import apriori_envelope
from catchup.models import OneDimModel
from catchup.geometry import (
    Ball,
    Box,
    ExactProjection,
    GeometryError,
    Halfline,
    Halfspace,
    Intersection,
    IterativeProjection,
    PerturbedProjection,
    ProjectionError,
    _norm,
    membership_tol,
)
from catchup.operators import (
    AffineField,
    CustomPart,
    LinearPart,
    MinimalNorm,
    MonotoneModel,
    Randomized,
    SeparableL1,
    SignConvention,
    ZeroPart,
    select_F,
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
    write_csv,
)

from oracles import (
    catching_up_halfline,
    onedim_hit_time,
    reference_csv_text,
    reference_run,
    reference_step,
)


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

    @pytest.mark.parametrize("steps", [Uniform(0.02), Polynomial(0.02, alpha=0.5),
                                       Polynomial(0.02, alpha=1.0)],
                             ids=["uniform", "polynomial", "harmonic"])
    @pytest.mark.parametrize("T", [1e308, 1e9])
    def test_endless_horizon_rejected(self, steps, T):
        # a horizon these steps cannot fill used to grow the step list, or
        # allocate the grid, until memory ran out
        with pytest.raises(ValueError, match="MAX_STEPS"):
            make_schedule(T, steps)

    def test_step_count_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(scheme, "MAX_STEPS", 50)
        assert make_schedule(1.0, Uniform(0.02)).n_steps == 50
        assert make_schedule(1.0, ExplicitSteps([0.02] * 60)).n_steps == 50
        with pytest.raises(ValueError, match="MAX_STEPS"):
            make_schedule(1.0, Uniform(0.019))
        with pytest.raises(ValueError, match="MAX_STEPS"):
            make_schedule(1.0, ExplicitSteps([0.019] * 60))


class TestStep:
    def test_interior_step_frozen(self):
        # x = 0, w = F(0) = 2, y = 0.2 feasible: no defect
        m = scalar_model(a=1.0, b=2.0)
        x1, w, p = step(m, [0.0], mu=0.1, eps=0.0)
        assert w[0] == pytest.approx(2.0)
        assert 0.0 + 0.1 * w[0] == pytest.approx(0.2)
        assert x1[0] == pytest.approx(0.2)
        assert p[0] == 0.0

    def test_boundary_step_frozen(self):
        # b = -1: w = F(0) = -1, predictor leaves the set, projection sticks
        m = scalar_model(a=1.0, b=-1.0)
        x1, w, p = step(m, [0.0], mu=0.1, eps=0.0)
        v = -p / 0.1
        assert w[0] == pytest.approx(-1.0)
        assert 0.0 + 0.1 * w[0] == pytest.approx(-0.1)
        assert x1[0] == 0.0
        assert p[0] == pytest.approx(0.1)
        assert v[0] == pytest.approx(-1.0)
        # velocity identity fixes the sign: 0 = w - v = -1 - (-1)
        assert (x1[0] - 0.0) / 0.1 == pytest.approx(w[0] - v[0])

    def test_predictor_matches_closed_form(self):
        # y = (1 - (a+1) mu) x + mu b away from the boundary
        m = scalar_model(a=1.0, b=2.0)
        x = np.array([0.7])
        _, w, _ = step(m, x, mu=0.05, eps=0.0)
        y = x + 0.05 * w
        assert y[0] == pytest.approx((1.0 - 2.0 * 0.05) * 0.7 + 0.05 * 2.0)

    def test_zero_mu_rejected(self):
        with pytest.raises(ValueError):
            step(scalar_model(), [0.0], mu=0.0, eps=0.0)

    def test_nan_mu_rejected(self):
        with pytest.raises(ValueError, match="mu must be positive, got nan"):
            step(scalar_model(), [0.5], mu=float("nan"), eps=0.0)

    def test_nan_eps_rejected(self):
        # not a contract failure, which a NaN right-hand side would give
        with pytest.raises(ValueError, match="eps must be nonnegative, got nan"):
            step(scalar_model(), [0.5], mu=1e-3, eps=float("nan"))

    def test_infeasible_start_rejected(self):
        m = scalar_model()
        with pytest.raises(Exception):
            step(m, [-1.0], mu=0.1, eps=0.0)


# the state space [-0.5, 0.3]^2 lies inside every set; the three members
# project by Dykstra under the exact policy
STEP_SETS = {
    "ball_halfspace": Intersection([Ball([0.0, 0.0], 1.5), Halfspace([0.6, 0.8], 0.5)]),
    "box": Box([-0.5, -0.5], [1.0, 0.3]),
    "ball": Ball([0.1, -0.1], 1.2),
    "halfspace": Halfspace([0.6, 0.8], 0.5),
    "ball_halfspace_box": Intersection([Ball([0.0, 0.0], 1.5), Halfspace([0.6, 0.8], 0.5),
                                        Box([-0.5, -0.5], [1.0, 0.3])]),
}
STEP_PARTS = {
    "zero": ZeroPart(2),
    "linear": LinearPart([[2.0, 0.5], [0.5, 1.0]]),
    "l1": SeparableL1([0.7, 0.3]),
    "custom_vector": CustomPart(lambda x: x ** 3, 2),
    "custom_box": CustomPart(
        lambda x: (np.minimum(x, 0.0) - 0.2, np.maximum(x, 0.0) + 0.2), 2),
}
STEP_SELECTIONS = {
    "minimal_norm": lambda seed: MinimalNorm(),
    "sign-1": lambda seed: SignConvention(-1),
    "sign0": lambda seed: SignConvention(0),
    "sign+1": lambda seed: SignConvention(1),
    "randomized": Randomized,
}
STEP_PROJECTIONS = {
    "exact": lambda seed: ExactProjection(),
    "perturbed": PerturbedProjection,
    "iterative": lambda seed: IterativeProjection(),
}


def step_outcome(stepper, model, x, mu, eps, sel, proj, seed):
    """The dtype, shape and bytes of each array a step returns, or the
    kind of the SchemeError it raises; seeded policies and generators are
    built afresh, so both sides draw the same numbers."""
    selection, projection = STEP_SELECTIONS[sel](seed), STEP_PROJECTIONS[proj](seed + 1)
    try:
        out = stepper(model, x, mu, eps, selection=selection, projection=projection,
                      sel_rng=np.random.default_rng(seed),
                      proj_rng=np.random.default_rng(seed + 1))
    except SchemeError as exc:
        return exc.kind
    return [(a.dtype, a.shape, a.tobytes()) for a in out]


def reference_triple(model, x, mu, eps, **policies):
    """(x_next, w, p) of the reference step, whose predictor and normal
    term have the bits of x + mu w and of p / -mu (zeros for p = 0)."""
    x_next, y, w, p, v = reference_step(model, x, mu, eps, **policies)
    assert y.tobytes() == (x + mu * w).tobytes()
    assert v.tobytes() == (p / -mu if p.any() else np.zeros(p.shape)).tobytes()
    return x_next, w, p


class TestDefectContract:
    @given(d=st.integers(1, 13), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_one_step_has_the_bits_of_its_row(self, d, seed):
        # the one-step contract is computed in Python floats, the stacked one
        # in numpy arrays; a row must agree to the bit, NaN rows included
        rng = np.random.default_rng(seed)
        p, w, x = (rng.standard_normal((6, d)) * 10.0 ** rng.integers(-8, 8, (6, 1))
                   for _ in range(3))
        for a in (p, w, x):
            a[rng.random(a.shape) < 0.05] = np.nan
        mu = rng.uniform(1e-4, 1.0, 6)
        eps = np.where(rng.random(6) < 0.5, 0.0, rng.uniform(0.0, 1e-2, 6))
        lhs, rhs, ok = scheme._defect_contract(p, w, x, mu, eps)
        for i in range(6):
            one = scheme._defect_contract(p[i], w[i], x[i], float(mu[i]), float(eps[i]))
            assert [type(v) for v in one] == [float, float, bool]
            assert np.array(one[:2]).tobytes() == np.array([lhs[i], rhs[i]]).tobytes()
            assert one[2] == ok[i]

    def test_both_sides_overflowing_fail(self):
        # |p|^2 and mu^2 |w|^2 + eps both beyond float range fail, stacked or
        # one at a time; one side beyond it is judged as before
        p = np.array([[1e200], [1e200], [1.0], [1e200]])
        w = np.array([[1e171], [1e171], [1e171], [1.0]])
        x = np.zeros((4, 1))
        mu, eps = np.array([0.1, 0.1, 0.1, 0.1]), np.array([0.0, np.inf, 0.0, 0.0])
        with np.errstate(over="ignore"):
            lhs, rhs, ok = scheme._defect_contract(p, w, x, mu, eps)
            for i in range(4):
                one = scheme._defect_contract(p[i], w[i], x[i], float(mu[i]), float(eps[i]))
                assert np.array(one[:2]).tobytes() == np.array([lhs[i], rhs[i]]).tobytes()
                assert one[2] == ok[i]
        assert ok.tolist() == [False, False, True, False]


class ScriptedShift:
    """A projection policy that moves every predictor by a fixed vector
    and calls the result a member."""

    name, seed, exact = "scripted", None, False

    def __init__(self, shift):
        self.shift = np.asarray(shift, dtype=float)

    def project(self, C, y, eps, rng=None):
        return y + self.shift, True


class TestOverflowingContract:
    """A step whose defect and predictor step both square beyond float
    range fails as an overflow, not as a pass of inf <= inf."""

    def model(self):
        # a constant drift of 1e171, so mu = 0.1 gives a predictor step of 1e170
        return MonotoneModel(AffineField(np.zeros((2, 2)), [1e171, 0.0]), ZeroPart(2),
                             Box([-np.inf, -np.inf], [np.inf, np.inf]),
                             growth=(1e171, 0.0), dissipativity=(1.0, 1e171, 1.0))

    def test_policy_moving_far_fails_the_step(self):
        with np.errstate(over="ignore"), pytest.raises(SchemeError) as info:
            step(self.model(), [0.0, 0.0], 0.1, 0.0, projection=ScriptedShift([0.0, 1e200]))
        assert info.value.kind == "overflow"
        assert str(info.value) == ("defect contract leaves the float range: "
                                   "|p|^2 = mu^2|w|^2 + eps = inf")

    def test_policy_moving_a_far_state_fails_the_step(self):
        # from x = (1e160, 0), |x|^2 and with it the contract's slack are inf:
        # a defect of 1e150 against a predictor step of 1e-12 used to pass,
        # while a zero defect, which needs no slack, still does
        model = MonotoneModel(AffineField(np.zeros((2, 2)), [1e-10, 0.0]), ZeroPart(2),
                              Box([-np.inf, -np.inf], [np.inf, np.inf]),
                              growth=(1e-10, 0.0), dissipativity=(1.0, 1.0, 1.0))
        x = np.array([1e160, 0.0])
        with np.errstate(over="ignore"), pytest.raises(SchemeError) as info:
            step(model, x, 0.01, 0.0, projection=ScriptedShift([0.0, 1e150]))
        assert info.value.kind == "overflow"
        assert str(info.value) == ("defect contract leaves the float range: |x|^2 = inf, "
                                   "|p|^2 = 1.000000e+300 > mu^2|w|^2 + eps = 1.000000e-24")
        with np.errstate(over="ignore"):
            x_next, _, p = step(model, x, 0.01, 0.0, projection=ScriptedShift([0.0, 0.0]))
        assert not p.any() and x_next[0] == 1e160

    def test_run_stops_at_the_step(self):
        schedule = make_schedule(0.3, Uniform(0.1))
        with np.errstate(over="ignore"), pytest.raises(SchemeError) as info:
            run(self.model(), [0.0, 0.0], schedule, projection=ScriptedShift([0.0, 1e200]))
        assert info.value.kind == "overflow"
        assert str(info.value).startswith("step 0 failed: defect contract leaves the float range")
        assert info.value.partial_run.n_steps == 0

    def test_audit_flags_the_row(self):
        # step 1 of a hand-made table moves by 1e200 against a predictor step of 1e170
        mus = np.full(2, 0.1)
        W = np.array([[1.0, 0.0], [1e171, 0.0]])
        P = np.array([[0.0, 0.0], [0.0, 1e200]])
        X = np.zeros((3, 2))
        X[1] = X[0] + mus[0] * W[0] + P[0]
        X[2] = X[1] + mus[1] * W[1] + P[1]
        data = {"times": np.array([0.0, 0.1, 0.2]), "X": X, "W": W, "P": P,
                "V": P / -mus[:, None], "mus": mus, "eps": np.zeros(2)}
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_run_invariants(data)
        assert report["defect_contract"] is False
        assert report["first_violation"] == {"check": "defect_contract", "k": 1}


class TestStepMatchesReference:
    """The step's (x_next, w, p) has the bytes of the reference step's,
    which builds the bounds of G(x) and picks from them with code of its
    own."""

    @given(
        st.sampled_from(sorted(STEP_PARTS)),
        st.sampled_from(sorted(STEP_SELECTIONS)),
        st.sampled_from(sorted(STEP_PROJECTIONS)),
        st.sampled_from(sorted(STEP_SETS)),
        st.tuples(*[st.one_of(st.just(0.0), st.floats(-0.5, 0.3))] * 2),
        st.tuples(*[st.floats(-4.0, 4.0)] * 2),
        st.floats(0.01, 0.5),
        st.sampled_from([0.0, 1e-4, 1e-2]),
        st.integers(0, 2 ** 16),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_step_bytes(self, part, sel, proj, set_name, x, b, mu, eps, seed, as_list):
        model = MonotoneModel(AffineField(-np.eye(2), b), STEP_PARTS[part], STEP_SETS[set_name],
                              growth=(10.0, 10.0), dissipativity=(1.0, 10.0, 0.5))
        x = list(x) if as_list else np.array(x)
        args = (model, x, mu, eps, sel, proj, seed)
        assert step_outcome(step, *args) == step_outcome(reference_triple, *args)


class TestStepInputs:
    def test_custom_part_with_disordered_bounds_rejected(self):
        G = CustomPart(lambda x: (x + 1.0, x), 1)
        m = MonotoneModel(AffineField([[-1.0]], [0.0]), G, Halfline(),
                          growth=(1.0, 1.0), dissipativity=(1.0, 1.0, 0.5))
        with pytest.raises(ValueError, match="lower <= upper"):
            select_F(m, [0.5])
        with pytest.raises(ValueError, match="lower <= upper"):
            step(m, [0.5], mu=0.1, eps=0.0)

    @pytest.mark.parametrize("x", [[0.5], np.array([1]), np.array([0.5], dtype=np.float32),
                                   np.array(0.5)], ids=["list", "int", "float32", "0-d"])
    def test_vector_likes_step_like_a_float64_vector(self, x):
        # the predictor 0.5 - 0.4 * 2 leaves the halfline, so p is nonzero
        m = scalar_model(b=-1.0)
        expected = step(m, np.asarray(x, dtype=float).reshape(1), mu=0.4, eps=0.0)
        got = step(m, x, mu=0.4, eps=0.0)
        assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
            [(a.dtype, a.shape, a.tobytes()) for a in expected]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("shape", ["stack", "long"])
    def test_misshapen_state_rejected(self, dim, shape):
        m = MonotoneModel(AffineField(-np.eye(dim), np.ones(dim)), ZeroPart(dim),
                          Box(-np.ones(dim), np.ones(dim)),
                          growth=(2.0, 1.0), dissipativity=(1.0, 1.0, 0.5))
        x = np.zeros((1, dim)) if shape == "stack" else np.zeros(dim + 1)
        for bad in (x, x.tolist()):
            with pytest.raises(ValueError):
                step(m, bad, mu=0.1, eps=0.0)
            with pytest.raises(ValueError):
                select_F(m, bad)
        with pytest.raises(ValueError):
            m.C.project(np.zeros((2, 1, dim)))
        if shape == "long":
            with pytest.raises(ValueError):
                m.C.project(x)


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
        apriori = apriori_envelope(r)
        assert apriori["within_bound"]
        assert r.measured_radius() ** 2 <= apriori["K_T"]
        assert apriori["M_T"] >= r.measured_sup_w() - 1e-12

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
            v = -r.P[k] / s.mus[k]
            resid = np.linalg.norm(vel - (r.W[k] - v))
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

    def test_out_of_range_rejected(self):
        r = self.make_run()
        with pytest.raises(ValueError):
            r.interpolate_state(-0.5)
        with pytest.raises(ValueError):
            r.interpolate_state(r.T + 0.5)

    def test_array_of_times_matches_scalar_calls(self):
        r = self.make_run()
        ts = np.concatenate([r.times, 0.5 * (r.times[1:] + r.times[:-1]),
                             np.random.default_rng(0).uniform(0.0, r.T, 50)])
        stacked = np.stack([r.interpolate_state(t) for t in ts])
        assert np.array_equal(r.interpolate_state(ts), stacked)

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


def run_table(schedule, X, W, P, V, path=None):
    """The trajectory table of a run with any normal-term columns V,
    written as `DiscreteRun.to_csv` writes it."""
    X = np.asarray(X, dtype=float)
    n, d = len(W), X.shape[1]
    W, P, V = (np.asarray(a, dtype=float).reshape(n, d) for a in (W, P, V))
    header = ["k", "t"] + [f"{name}{i}" for name in "xwpv" for i in range(d)] + ["mu", "eps"]
    columns = [np.arange(n), schedule.times[:n], *X[:n].T, *W.T, *P.T, *V.T,
               schedule.mus[:n], schedule.eps[:n]]
    last = (n, float(schedule.times[n]), *X[n].tolist(), *[None] * (3 * d + 2))
    return write_csv(path, header, columns, last)


class TestSerialization:
    def make_run(self):
        m = scalar_model(a=1.0, b=-1.0)
        s = make_schedule(1.0, Uniform(0.05), PowerOfStep(0.1, beta=1.0))
        return run(m, [0.5], s, projection=PerturbedProjection(seed=4))

    def test_csv_round_trip_bitwise(self):
        r = self.make_run()
        V = reference_run(r.model, [0.5], r.schedule, projection=PerturbedProjection(seed=4))[4]
        data = read_run_csv(r.to_csv())
        np.testing.assert_array_equal(data["X"], r.X)
        np.testing.assert_array_equal(data["W"], r.W)
        np.testing.assert_array_equal(data["P"], r.P)
        np.testing.assert_array_equal(data["V"], V)
        np.testing.assert_array_equal(data["times"], r.times)
        np.testing.assert_array_equal(data["mus"], r.schedule.mus)
        np.testing.assert_array_equal(data["eps"], r.schedule.eps)

    def test_csv_literal_text(self):
        s = make_schedule(1.0, Uniform(0.5), ExplicitErrors([0.25, 0.125]))
        X = [[0.0, 1.0], [0.5, -0.25], [1.5, 0.1]]
        W = [[2.0, -3.0], [1.0, 0.75]]
        # the v columns are -p / mu, with the -0.0 of p's zero entry
        P = [[-0.5, 0.25], [0.5, 0.0]]
        r = DiscreteRun(None, s, X, W, P)
        assert r.to_csv() == (
            "k,t,x0,x1,w0,w1,p0,p1,v0,v1,mu,eps\n"
            "0,0.0,0.0,1.0,2.0,-3.0,-0.5,0.25,1.0,-0.5,0.5,0.25\n"
            "1,0.5,0.5,-0.25,1.0,0.75,0.5,0.0,-1.0,-0.0,0.5,0.125\n"
            "2,1.0,1.5,0.1,,,,,,,,\n"
        )

    @pytest.mark.parametrize("block", [scheme.CSV_BLOCK_ROWS, 1], ids=["one-block", "per-row"])
    def test_extreme_floats_round_trip_bit_for_bit(self, monkeypatch, block):
        monkeypatch.setattr(scheme, "CSV_BLOCK_ROWS", block)
        s = make_schedule(1.0, Uniform(0.5), ExplicitErrors([5e-324, 0.0]))
        tiny, huge = 5e-324, 1.7976931348623157e308
        X = [[-0.0, huge], [tiny, -huge], [huge, -0.0]]
        W = [[tiny, -0.0], [-tiny, huge]]
        P = [[-huge, 0.0], [-0.0, tiny]]
        V = [[huge, -tiny], [0.0, -0.0]]
        data = read_run_csv(run_table(s, X, W, P, V))
        for key, want in [("X", X), ("W", W), ("P", P), ("V", V), ("times", s.times),
                          ("mus", s.mus), ("eps", s.eps)]:
            assert data[key].tobytes() == np.asarray(want, dtype=float).tobytes(), key

    @pytest.mark.parametrize("cell, bad", [("1.0", ""), ("1.0", "0.5x"), ("1.0,", "")],
                             ids=["empty", "garbled", "short"])
    def test_bad_cell_is_value_error(self, cell, bad):
        s = make_schedule(1.0, Uniform(0.5))
        r = DiscreteRun(None, s, [[0.0], [0.5], [1.0]], [[1.0], [1.0]], [[0.0], [0.0]])
        lines = r.to_csv().split("\n")
        lines[2] = lines[2].replace(cell, bad, 1)
        with pytest.raises(ValueError):
            read_run_csv("\n".join(lines))

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
        assert report["first_violation"] == {"check": "update_identity", "k": 2}

    def test_verifier_checks_the_time_grid(self):
        # every per-step identity still holds; only t_3 - t_2 is not mu_2
        r = self.make_run()
        lines = r.to_csv().split("\n")
        k, t, rest = lines[4].split(",", 2)
        lines[4] = ",".join([k, repr(float(t) + 0.01), rest])
        report = verify_run_invariants(read_run_csv("\n".join(lines)), C=r.model.C)
        assert not report["ok"]
        assert report["first_violation"] == {"check": "update_identity", "k": -1}

    @pytest.mark.parametrize("text, message", [
        ("k,t,x0,w0,p0,v0,mu,eps\n", "no data rows"),
        ("k,t,y0,mu,eps\n0,0.0,1.0,0.5,0.0\n1,0.5,1.0,,\n", "unrecognized trajectory CSV header"),
    ], ids=["header-only", "unknown-header"])
    def test_malformed_text_is_value_error(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_run_csv(text)

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
        # a run carries no a-priori envelope; the manifest writes the one given
        assert man["apriori"] == {} and not hasattr(r, "apriori")
        assert r.to_manifest({"K_T": 1.0})["apriori"] == {"K_T": 1.0}

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


# floats whose repr is hard to round-trip, repeated, and arbitrary ones
csv_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     -1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1]),
    st.floats(),
)


def _float_array(data, shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(csv_floats, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


def _same_bits(a, b) -> bool:
    """Equal bit for bit, except that any NaN equals any NaN: repr writes
    every NaN as nan, whatever its sign and payload."""
    a, b = (np.where(np.isnan(v), np.nan, v) for v in (np.asarray(a), np.asarray(b)))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# NaNs whose sign and payload differ; repr writes each of them as nan
RUN_NANS = [float(v) for v in np.array([0x7FF8000000000000, 0xFFF8000000000000,
                                        0x7FF0000000000001, 0x7FF4000000000000],
                                       dtype=np.uint64).view(np.float64)]


def _run_column(data, n: int) -> np.ndarray:
    """n floats in runs of equal bits: adjacent 0.0 and -0.0, NaNs of
    different payloads, runs of any length up to past two blocks of
    CSV_BLOCK_ROWS, and sometimes one value all the way down."""
    values = st.one_of(csv_floats, st.sampled_from([0.0, -0.0, *RUN_NANS]))
    if data.draw(st.booleans()):
        return np.full(n, data.draw(values))
    runs = data.draw(st.lists(st.tuples(values, st.integers(1, 2 * scheme.CSV_BLOCK_ROWS + 50)),
                              min_size=1, max_size=8))
    column = np.concatenate([np.full(length, v) for v, length in runs])
    return np.resize(column, n)


class TestColumnwiseCSV:
    """`write_csv` formats a block of rows a column at a time and writes the
    text of the writer that formats each cell on its own; `read_run_csv`
    parses it back to the same bits."""

    @pytest.mark.parametrize("block", [1, 3, scheme.CSV_BLOCK_ROWS])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_columns_give_the_cell_by_cell_text(self, block, data):
        n = data.draw(st.integers(0, 12))
        ints = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n)
        columns = [np.array(data.draw(ints), dtype=np.int64) if kind == "int"
                   else _float_array(data, n)
                   for kind in data.draw(st.lists(st.sampled_from(["int", "float"]),
                                                  min_size=1, max_size=5))]
        header = [f"c{i}" for i in range(len(columns))]
        last = data.draw(st.none() | st.lists(st.none() | st.integers() | csv_floats,
                                              min_size=len(columns), max_size=len(columns)))
        rows = [*zip(*(c.tolist() for c in columns))] + ([] if last is None else [last])
        want = reference_csv_text(header, rows)
        with mock.patch.object(scheme, "CSV_BLOCK_ROWS", block), \
                tempfile.TemporaryDirectory() as tmp:
            assert write_csv(None, header, columns, last) == want
            path = Path(tmp) / "table.csv"
            assert write_csv(path, header, columns, last) is None
            assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("block", [1, 3, scheme.CSV_BLOCK_ROWS])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_run_table_round_trips(self, block, data):
        n, d = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 3))
        schedule = SimpleNamespace(times=_float_array(data, n + 1), mus=_float_array(data, n),
                                   eps=_float_array(data, n))
        X = _float_array(data, (n + 1, d))
        W, P, V = (_float_array(data, (n, d)) for _ in range(3))
        header = ["k", "t"] + [f"{name}{i}" for name in "xwpv" for i in range(d)] + ["mu", "eps"]
        rows = [(k, schedule.times[k], *X[k], *W[k], *P[k], *V[k], schedule.mus[k],
                 schedule.eps[k]) for k in range(n)]
        rows.append((n, schedule.times[n], *X[n], *[None] * (3 * d + 2)))
        want = reference_csv_text(header, rows)
        with mock.patch.object(scheme, "CSV_BLOCK_ROWS", block), \
                tempfile.TemporaryDirectory() as tmp:
            assert run_table(schedule, X, W, P, V) == want
            path = Path(tmp) / "trajectory.csv"
            run_table(schedule, X, W, P, V, path)
            assert path.read_bytes() == want.encode()
            for parsed in (read_run_csv(want), read_run_csv(str(path))):
                for key, value in [("times", schedule.times), ("X", X), ("W", W), ("P", P),
                                   ("V", V), ("mus", schedule.mus), ("eps", schedule.eps)]:
                    assert _same_bits(parsed[key], value), key

    @pytest.mark.parametrize("block", [1, 3, scheme.CSV_BLOCK_ROWS])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_runs_of_equal_cells(self, block, data):
        # columns of runs of equal bits, some longer than a block; the
        # writer formats a run once, and neither 0.0 and -0.0 nor NaNs of
        # different payloads may share a text with their neighbours
        n, d = data.draw(st.integers(1, 600)), data.draw(st.integers(1, 2))
        schedule = SimpleNamespace(times=np.arange(n + 1) * 0.5, mus=_run_column(data, n),
                                   eps=np.zeros(n))
        X = np.column_stack([_run_column(data, n + 1) for _ in range(d)])
        W, P, V = (np.column_stack([_run_column(data, n) for _ in range(d)])
                   for _ in range(3))
        header = ["k", "t"] + [f"{name}{i}" for name in "xwpv" for i in range(d)] + ["mu", "eps"]
        rows = [(k, schedule.times[k], *X[k], *W[k], *P[k], *V[k], schedule.mus[k],
                 schedule.eps[k]) for k in range(n)]
        rows.append((n, schedule.times[n], *X[n], *[None] * (3 * d + 2)))
        want = reference_csv_text(header, rows)
        with mock.patch.object(scheme, "CSV_BLOCK_ROWS", block):
            assert run_table(schedule, X, W, P, V) == want
        parsed = read_run_csv(want)
        for key, value in [("times", schedule.times), ("X", X), ("W", W), ("P", P), ("V", V),
                           ("mus", schedule.mus), ("eps", schedule.eps)]:
            assert _same_bits(parsed[key], value), key

    @pytest.mark.parametrize("block", [1, 3, scheme.CSV_BLOCK_ROWS])
    def test_pinned_runs(self, block):
        # a run across two blocks of 256, then 0.0 against -0.0, then NaNs
        # of four payloads, beside a constant column and a column of distinct values
        runs = np.concatenate([np.full(300, 0.1), np.full(3, 0.0), np.full(4, -0.0),
                               np.repeat(RUN_NANS, 2), [-0.0, 0.0, 0.0, 5e-324]])
        columns = [np.arange(runs.size), runs, np.full(runs.size, -0.0),
                   np.linspace(0.0, 1.0, runs.size), np.full(runs.size, 0.001)]
        header = [f"c{i}" for i in range(len(columns))]
        want = reference_csv_text(header, zip(*(c.tolist() for c in columns)))
        with mock.patch.object(scheme, "CSV_BLOCK_ROWS", block):
            assert write_csv(None, header, columns) == want


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
        x1, w, p = step(m, [x0], mu=mu, eps=eps, projection=PerturbedProjection(seed=1))
        assert m.C.contains(x1)
        assert float(p @ p) <= mu * mu * float(w @ w) + eps + 1e-12
        np.testing.assert_allclose(x1, [x0] + mu * w + p, atol=1e-12)


class ScriptedProjection:
    """The metric projection, except at the steps named in `faults` (the
    policy is called once per step): `shift` moves the projection down the
    face x_0 = 1 by mu / 4, a feasible point inside the defect contract
    whose normal term leaves the cone; `far` returns the far corner, which
    breaks the contract; `outside` moves the projection out through the
    face x_0 = 1 by mu / 4, inside the contract but not in the set;
    `budget` raises ProjectionError and `bad` a ValueError, which the step
    does not catch.  A moved point comes with the verdict of `contains`."""

    name = "scripted"
    seed = None
    exact = True

    def __init__(self, faults, mu):
        self.faults = faults
        self.mu = mu
        self.calls = 0

    def project(self, C, y, eps, rng=None):
        fault = self.faults.get(self.calls)
        self.calls += 1
        if fault == "shift":
            z = C.project(y) - [0.0, 0.25 * self.mu]
            return z, C.contains(z)
        if fault == "far":
            z = np.array([-1.0, -1.0])
            return z, C.contains(z)
        if fault == "outside":
            z = C.project(y) + [0.25 * self.mu, 0.0]
            return z, C.contains(z)
        if fault == "budget":
            raise ProjectionError("scripted budget")
        if fault == "bad":
            raise ValueError("scripted bad input")
        return C.project_judged(y)


class FarProbeBox(Box):
    """A box whose stacked projection fails like an exhausted Dykstra budget
    once a query row reaches 21.5 in some coordinate: the probes of a
    certificate at x reach 11 + 10 |x|, so they fail once |x| > 1.05."""

    def project(self, y):
        y = np.asarray(y, dtype=float)
        if y.ndim == 2 and np.max(np.abs(y)) >= 21.5:
            raise ProjectionError("Dykstra sweep budget 1 exhausted before reaching feasibility")
        return super().project(y)


def run_outcome(runner, C, faults, x0=(1.0, 0.0), drift=(1.0, 0.5), mu=0.05, T=1.0):
    """What a run does with the scripted faults: its arrays as bytes and
    its certificate records, or the error it raises with the message and,
    for a SchemeError, the kind and the partial run's bytes and records."""
    model = MonotoneModel(AffineField(np.zeros((2, 2)), list(drift)), ZeroPart(2), C,
                          growth=(2.0, 0.0), dissipativity=(1.0, 10.0, 0.5))
    try:
        out = runner(model, np.array(x0), make_schedule(T, Uniform(mu)),
                     projection=ScriptedProjection(faults, mu))
    except SchemeError as exc:
        part = exc.partial_run
        return ("SchemeError", exc.kind, str(exc), part.n_steps,
                [a.tobytes() for a in (part.X, part.W, part.P)], part.certificates)
    except (GeometryError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(out, DiscreteRun):
        out = (out.X, out.W, out.P, out.certificates)
    else:  # the reference's (X, W, Y, P, V, certificates)
        out = (out[0], out[1], out[3], out[5])
    return ("ok", [a.tobytes() for a in out[:3]], out[3])


BOX = Box([-1.0, -1.0], [1.0, 1.0])


class StackCountingBox(Box):
    """A box that counts its single-point and stacked projections, the rows
    of the stacks, and its membership tests; in a run, the steps project
    single points and the certificates stack their probes."""

    def __init__(self, lower, upper):
        super().__init__(lower, upper)
        self.single = self.stacked = self.rows = self.contains_calls = 0

    def project(self, y):
        y = np.asarray(y, dtype=float)
        self.single += y.ndim == 1
        self.stacked += y.ndim == 2
        self.rows += y.shape[0] if y.ndim == 2 else 0
        return super().project(y)

    def contains(self, x):
        self.contains_calls += 1
        return super().contains(x)


class TestBlockedCertificates:
    """Certificates taken in chunks after the stepping loop give the run,
    records and first failure of the loop that certified each step right
    after it."""

    @pytest.fixture(params=[None, 75], ids=["one-block", "blocks-of-3"])
    def row_budget(self, request, monkeypatch):
        # 75 probe rows hold three certificates in R^2 (25 rows each)
        if request.param is not None:
            monkeypatch.setattr(scheme, "PROBE_ROW_BUDGET", request.param)
        return request.param

    @pytest.mark.parametrize("faults", [
        {},
        {5: "shift"},
        {19: "shift"},
        {3: "shift", 4: "far"},
        {3: "shift", 4: "budget"},
        {3: "shift", 5: "bad"},
        {7: "far"},
        {7: "budget"},
        {6: "bad"},
        {0: "far"},
        # under blocks of 3, the failing certificate and the failing step
        # fall in different blocks
        {1: "shift", 7: "bad"},
        {1: "shift", 7: "budget"},
        {4: "outside"},
        {1: "shift", 7: "outside"},
    ], ids=repr)
    def test_matches_the_step_by_step_loop(self, row_budget, faults):
        got = run_outcome(run, BOX, faults)
        assert got == run_outcome(reference_run, BOX, faults)
        if faults:
            first = min(faults)
            assert got[0] == ("SchemeError" if faults[first] != "bad" else "ValueError")
            if faults[first] == "shift":
                assert got[1] == "normal_cone" and got[3] == first + 1
                assert [c["k"] for c in got[5]] == list(range(first + 1))
            elif got[0] == "SchemeError":
                assert got[3] == first and len(got[5]) == first

    @pytest.mark.parametrize("faults", [{}, {5: "shift"}, {7: "far"}], ids=repr)
    def test_probe_failure_comes_after_earlier_verdicts(self, row_budget, faults):
        got = run_outcome(run, FarProbeBox([-1.0, -1.0], [1.0, 1.0]), faults)
        assert got == run_outcome(reference_run, FarProbeBox([-1.0, -1.0], [1.0, 1.0]), faults)
        if not faults:
            assert got == ("ProjectionError",
                           "Dykstra sweep budget 1 exhausted before reaching feasibility")
        else:
            assert got[:2] == ("SchemeError", "normal_cone" if 5 in faults else "contract")

    def test_one_probe_projection_per_chunk(self, row_budget):
        # pushed into the face x_0 = 1, every step has a nonzero defect; a
        # certificate in R^2 probes 25 points, so chunks hold 163 of them
        # by default and 3 under a budget of 75 rows
        C = StackCountingBox([-1.0, -1.0], [1.0, 1.0])
        model = MonotoneModel(AffineField(np.zeros((2, 2)), [1.0, 0.0]), ZeroPart(2), C,
                              growth=(1.0, 0.0), dissipativity=(1.0, 10.0, 0.5))
        out = run(model, np.array([1.0, 0.0]), make_schedule(1.0, Uniform(0.002)))
        assert len(out.certificates) == out.n_steps == 500
        assert C.stacked == {None: 4, 75: 167}[row_budget]
        # each point is judged once: x0 by `require_member`, x_{k+1} by its
        # step's projection verdict; a certificate that judged its point again
        # would add one projection and one membership test
        assert C.single == out.n_steps + 1
        assert C.contains_calls == 1

    def test_a_box_projects_its_probe_table(self, row_budget):
        # a certificate in R^2 projects the 3 + 16 rows of its probe table
        # (x - W, x + W, x and the draws), not its 24 probe queries
        C = StackCountingBox([-1.0, -1.0], [1.0, 1.0])
        model = MonotoneModel(AffineField(np.zeros((2, 2)), [1.0, 0.0]), ZeroPart(2), C,
                              growth=(1.0, 0.0), dissipativity=(1.0, 10.0, 0.5))
        out = run(model, np.array([1.0, 0.0]), make_schedule(1.0, Uniform(0.002)))
        assert len(out.certificates) == 500
        assert C.rows == 19 * 500

    def test_probe_failure_on_a_budget_one_intersection(self, row_budget):
        # a single sweep (halfspace x_0 <= -0.5, then the unit ball) takes the
        # steps' predictors into the set, but not the far probe points
        C = Intersection([Halfspace([1.0, 0.0], -0.5), Ball([0.0, 0.0], 1.0),
                          Box([-2.0, -2.0], [2.0, 2.0])], budget=1)
        kw = dict(x0=(-0.9, 0.0), drift=(1.0, 0.2), mu=0.1)
        got = run_outcome(run, C, {}, **kw)
        assert got == run_outcome(reference_run, C, {}, **kw)
        assert got[0] == "ProjectionError" and "budget 1 exhausted" in got[1]



def pushed_out(b, C, x0):
    """f(x) = b - x on C, whose equilibrium b lies outside C, and a start."""
    d = len(b)
    size = float(np.linalg.norm(b))
    model = MonotoneModel(AffineField(-np.eye(d), b), ZeroPart(d), C,
                          growth=(size, 1.0), dissipativity=(1.0, size * size / 2.0, 0.5))
    return model, np.array(x0, dtype=float)


# runs whose exact steps take zero defects first, then nonzero ones; on the
# box face x_0 = 1 and the cap's wall x_0 = 0.5 a defect is (p_0, 0.0)
DERIVED_RUNS = {
    "halfline": lambda: (scalar_model(a=1.0, b=-1.0), np.array([0.5])),
    "box": lambda: pushed_out([3.0, 0.5], Box([-1.0, -1.0], [1.0, 1.0]), [0.0, 0.0]),
    "cap": lambda: pushed_out([3.0, 1.0], Intersection([Ball([0.0, 0.0], 1.0),
                                                       Halfspace([1.0, 0.0], 0.5)]), [0.0, 0.0]),
}


class TestDerivedColumns:
    """The normal terms a run's CSV writes, derived from the run's defects,
    have the bytes of the ones the reference loop stores step by step, and
    the defect's norm, which `predictor_feasibility` takes for the
    predictor's distance to the set, bounds that distance."""

    @pytest.mark.parametrize("policy", sorted(STEP_PROJECTIONS))
    @pytest.mark.parametrize("case", sorted(DERIVED_RUNS))
    def test_v_columns_and_predictors(self, case, policy):
        model, x0 = DERIVED_RUNS[case]()
        schedule = make_schedule(1.0, Uniform(0.02), PowerOfStep(0.1, beta=1.0))
        r = run(model, x0, schedule, projection=STEP_PROJECTIONS[policy](3))
        X, W, Y, P, V, _ = reference_run(model, x0, schedule,
                                         projection=STEP_PROJECTIONS[policy](3))
        assert [a.tobytes() for a in (r.X, r.W, r.P)] == [a.tobytes() for a in (X, W, P)]
        assert read_run_csv(r.to_csv())["V"].tobytes() == V.tobytes()
        # x_{k+1} lies in C up to its membership tolerance, so
        # d_C(y_k) <= |p_k| + tol(x_{k+1}); the exact policy projects y_k
        # onto C, so there the two are the same number
        distance, defect = model.C.distance(Y), _norm(P)
        assert (distance <= defect + membership_tol(X[1:])).all()
        if policy == "exact":
            assert distance.tobytes() == defect.tobytes()
        if policy != "perturbed":  # which moves every projection
            zero = ~P.any(axis=1)
            assert zero.any() and not zero.all()
            assert not np.signbit(V[zero]).any()
            on_face = (P == 0.0) & ~zero[:, None]
            assert on_face.any() == (case != "halfline")
            assert np.signbit(V[on_face]).all()

    def test_partial_run_csv(self):
        # the Iterative policy exhausts its 200 sweeps on a thin cap at step 15
        thin_cap = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -0.99)])
        model, x0 = pushed_out([3.0, 1.0], thin_cap, [-0.995, 0.0])
        errors = PowerOfStep(0.1, beta=1.0)
        with pytest.raises(SchemeError) as info:
            run(model, x0, make_schedule(2.0, Uniform(0.01), errors),
                projection=IterativeProjection())
        part = info.value.partial_run
        assert info.value.kind == "projection_budget" and part.n_steps == 15
        X, W, _, P, V, _ = reference_run(model, x0, make_schedule(0.15, Uniform(0.01), errors),
                                         projection=IterativeProjection())
        data = read_run_csv(part.to_csv())
        for key, want in [("X", X), ("W", W), ("P", P), ("V", V)]:
            assert data[key].tobytes() == want.tobytes(), key
        assert np.signbit(V[P == 0.0]).any()


# numbers a float step meets: ordinary, signed zeros, tiny and huge ones
FLOAT_NUMBERS = st.one_of(st.floats(-5.0, 5.0), st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e200, -1e200,
                                           1e308, -1e308]))
SIGN_RULES = {"minimal_norm": MinimalNorm(), "sign-1": SignConvention(-1),
              "sign0": SignConvention(0), "sign+1": SignConvention(1)}


# [-1, 0.5], the unit ball of R^1 cut by a halfspace: a set of no float form
INTERVAL_CAP = Intersection([Ball([0.0], 1.0), Halfspace([1.0], 0.5)])


@st.composite
def one_dim_models(draw):
    """A one-dimensional model: f(x) = a x + b, a zero, linear or l1 G, on
    the halfline or on a box whose ends may be infinite or signed zeros,
    which have a float form, or on a ball cut by a halfspace, which has
    none."""
    nonneg = st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.sampled_from([1e200, 1e308]))
    G = draw(st.sampled_from([ZeroPart(1), "linear", "l1"]))
    if G == "linear":
        G = LinearPart([[draw(nonneg)]])
    elif G == "l1":
        G = SeparableL1([draw(nonneg)])
    ends = st.one_of(FLOAT_NUMBERS, st.sampled_from([-np.inf, np.inf]))
    lower, upper = sorted([draw(ends), draw(ends)])
    assume(lower < np.inf and upper > -np.inf)
    center, radius = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.5, 2.0))
    normal, cut = draw(st.sampled_from([-1.0, 1.0])), draw(st.floats(-0.9, 0.9))
    cap = Intersection([Ball([center], radius),
                        Halfspace([normal], normal * center + cut * radius)])
    C = draw(st.sampled_from([Halfline(), Box([lower], [upper]), cap]))
    return MonotoneModel(AffineField([[draw(FLOAT_NUMBERS)]], [draw(FLOAT_NUMBERS)]), G, C,
                         growth=(1.0, 1.0), dissipativity=(1.0, 1.0, 1.0))


def float_run_outcome(runner, model, x0, schedule, selection, projection):
    """A run's X, W and P as bytes with its certificate records, or the
    error it raises, with the kind, message and partial run of a
    SchemeError; records are compared by repr, so that a NaN equals itself."""
    try:
        with np.errstate(all="ignore"):
            out = runner(model, np.array([x0]), schedule, selection=selection,
                         projection=projection)
    except SchemeError as exc:
        part = exc.partial_run
        return ("SchemeError", exc.kind, str(exc),
                [a.tobytes() for a in (part.X, part.W, part.P)], repr(part.certificates))
    except (GeometryError, ValueError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(out, DiscreteRun):
        out = (out.X, out.W, out.P, out.certificates)
    else:  # the reference's (X, W, Y, P, V, certificates)
        out = (out[0], out[1], out[3], out[5])
    return ("ok", [a.tobytes() for a in out[:3]], repr(out[3]))


class TestFloatStep:
    """A one-dimensional run steps a Python float state, and a step from a
    Python float returns Python floats with the bits of the vector step.  A
    model of float form (`MonotoneModel.float_form`) under minimal norm or a
    sign convention and exact projection takes them from one frame of float
    arithmetic; any other model or rule from the step from [x].  A run
    writes the bytes of `reference_run`, which steps vectors, and one step
    returns, raises and warns as the step from [x] does."""

    SELECTIONS = {**SIGN_RULES, "randomized": Randomized(3)}
    PROJECTIONS = {"exact": ExactProjection(), "perturbed": PerturbedProjection(5),
                   "iterative": IterativeProjection()}

    @given(model=one_dim_models(), x0=FLOAT_NUMBERS,
           rule=st.sampled_from(sorted(SELECTIONS)), policy=st.sampled_from(sorted(PROJECTIONS)),
           steps=st.one_of(st.builds(Uniform, st.floats(0.02, 0.5)),
                           st.builds(Polynomial, st.floats(0.05, 0.5), st.floats(0.1, 0.5)),
                           st.lists(st.floats(0.02, 0.5), min_size=1, max_size=12).map(
                               lambda v: ExplicitSteps(sorted(v, reverse=True)))),
           errors=st.sampled_from([ZeroError(), PowerOfStep(0.1, 1.0)]))
    @example(model=OneDimModel(1e308, 2.0), x0=10.0, rule="minimal_norm", policy="exact",
             steps=Uniform(0.1), errors=ZeroError())  # w = -inf overflows the contract
    @example(model=OneDimModel(1.0, -1.0), x0=-0.0, rule="sign0", policy="exact",
             steps=Uniform(0.1), errors=ZeroError())
    @example(model=pushed_out([3.0], INTERVAL_CAP, [-0.5])[0], x0=-0.5, rule="randomized",
             policy="iterative", steps=Uniform(0.05), errors=PowerOfStep(0.1, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_run_has_the_bytes_of_the_vector_run(self, model, x0, rule, policy, steps, errors):
        C = model.C
        # the cap lies within [-4, 4], and its closed form loses a far point's offset
        if isinstance(C, Intersection):
            x0 = min(max(x0, -4.0), 4.0)
        x0 = float(C.project(np.array([x0]))[0])  # a member
        schedule = make_schedule(1.0, steps, errors)
        selection, projection = self.SELECTIONS[rule], self.PROJECTIONS[policy]
        assert float_run_outcome(run, model, x0, schedule, selection, projection) == \
            float_run_outcome(reference_run, model, x0, schedule, selection, projection)

    @staticmethod
    def outcome(model, x, mu, eps, selection, projection):
        """What a step returns, as bytes, or raises, with every warning;
        each call draws from fresh generators."""
        sel_rng, proj_rng = np.random.default_rng(11), np.random.default_rng(13)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                out = step(model, x, mu, eps, selection, projection, sel_rng, proj_rng)
            except (SchemeError, ValueError, OverflowError) as exc:
                out = (type(exc).__name__, getattr(exc, "kind", None), str(exc))
            else:
                if type(x) is float:
                    assert [type(v) for v in out] == [float] * 3
                out = np.array(out, dtype=float).tobytes()
        return out, [str(w.message) for w in caught]

    @given(model=one_dim_models(), x=st.one_of(FLOAT_NUMBERS, st.floats()),
           mu=st.one_of(st.floats(0.01, 1.0), st.floats()),
           eps=st.one_of(st.just(0.0), st.floats()),
           rule=st.sampled_from(sorted(SELECTIONS)), policy=st.sampled_from(sorted(PROJECTIONS)))
    @example(model=OneDimModel(1e308, 2.0), x=10.0, mu=0.1, eps=0.0, rule="minimal_norm",
             policy="exact")
    @example(model=OneDimModel(1.0, 2.0), x=0.5, mu=0.1, eps=float("nan"), rule="minimal_norm",
             policy="exact")
    @example(model=OneDimModel(1.0, 2.0), x=-1.0, mu=0.5, eps=0.0, rule="minimal_norm",
             policy="exact")
    @example(model=OneDimModel(1.0, 2.0), x=0.5, mu=0.1, eps=0.01, rule="randomized",
             policy="perturbed")
    @settings(max_examples=400, deadline=None)
    def test_step_is_the_step_from_the_vector(self, model, x, mu, eps, rule, policy):
        selection, projection = self.SELECTIONS[rule], self.PROJECTIONS[policy]
        assert self.outcome(model, x, mu, eps, selection, projection) == \
            self.outcome(model, np.array([x]), mu, eps, selection, projection)

    def test_every_one_dimensional_run_steps_floats(self):
        schedule = make_schedule(0.5, Uniform(0.1), PowerOfStep(0.1, 1.0))
        for model, x0, selection, projection, kind in [
                (OneDimModel(1.0, -1.0), [0.5], MinimalNorm(), ExactProjection(), float),
                (OneDimModel(1.0, -1.0), [0.5], Randomized(3), PerturbedProjection(5), float),
                (pushed_out([3.0], INTERVAL_CAP, [-0.5])[0], [-0.5], MinimalNorm(),
                 IterativeProjection(), float),
                (pushed_out([3.0, 1.0], Box([-1.0, -1.0], [1.0, 1.0]), [0.0, 0.0])[0],
                 [0.0, 0.0], MinimalNorm(), ExactProjection(), np.ndarray)]:
            with mock.patch.object(scheme, "step", wraps=scheme.step) as stepper:
                run(model, x0, schedule, selection=selection, projection=projection)
            assert {type(c.args[1]) for c in stepper.call_args_list} == {kind}
            assert stepper.call_count == schedule.n_steps
