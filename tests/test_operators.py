import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catchup.geometry import Box, Halfline, NonnegOrthant
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
    globalize_constants,
    model_from_config,
    select_F,
)

from oracles import box_corners, clamp_interval, reference_select_F


def scalar_model(a=1.0, b=2.0):
    """The halfline model: f(x) = -a x + b, G(x) = {x}, C = [0, inf)."""
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


def friction_model(tau, K=None, weights=None, lower=-2.0, upper=2.0):
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    n = tau.shape[0]
    K = np.eye(n) if K is None else np.asarray(K, dtype=float)
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    C = Box(np.full(n, lower), np.full(n, upper))
    R = C.bounding_radius()
    L = float(np.linalg.norm(tau)) + float(np.linalg.norm(K, 2)) * R + float(np.sqrt(n) * weights.max())
    return MonotoneModel(
        f=AffineField(-K, tau),
        G=SeparableL1(weights),
        C=C,
        growth=(float(np.linalg.norm(tau)) + np.sqrt(n) * weights.max(), float(np.linalg.norm(K, 2))),
        dissipativity=(R / 2.0, L * R + R * R, 1.0),
        ell=-float(np.linalg.eigvalsh(K).min()),
        name="dry_friction",
    )


class TestIntervalValues:
    def test_l1_interval_at_zero(self):
        lo, hi = SeparableL1([1.0]).value([0.0])
        np.testing.assert_allclose(lo, [-1.0])
        np.testing.assert_allclose(hi, [1.0])

    def test_l1_singleton_off_zero(self):
        lo, hi = SeparableL1([1.0, 2.0]).value([0.5, -0.3])
        np.testing.assert_allclose(lo, [1.0, -2.0])
        np.testing.assert_array_equal(hi, lo)

    def test_linear_identity_value(self):
        lo, hi = LinearPart(np.eye(1)).value([3.0])
        np.testing.assert_allclose(lo, [3.0])
        np.testing.assert_array_equal(hi, lo)

    def test_custom_part_takes_a_vector_or_a_pair(self):
        lo, hi = CustomPart(lambda x: [2.0 * x[0]], 1).value([1.5])
        assert lo.tolist() == hi.tolist() == [3.0]
        lo, hi = CustomPart(lambda x: (x - 1.0, [1, 2]), 2).value([0.5, 0.5])
        assert (lo.dtype, lo.tolist(), hi.dtype, hi.tolist()) == \
            (np.float64, [-0.5, -0.5], np.float64, [1.0, 2.0])

    def test_custom_part_rejects_bounds_of_unequal_shape(self):
        with pytest.raises(ValueError, match="equal shape"):
            CustomPart(lambda x: (x, [0.0, 1.0]), 1).value([0.5])

    def test_linear_part_rejects_indefinite(self):
        with pytest.raises(ValueError):
            LinearPart([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            LinearPart([[1.0, 2.0], [0.0, 1.0]])


class TestSelection:
    def test_scalar_model_balance_point(self):
        m = scalar_model(a=1.0, b=2.0)
        for rule in (MinimalNorm(), SignConvention(-1), SignConvention(0),
                     SignConvention(1), Randomized(seed=0)):
            w = select_F(m, [1.0], rule=rule)
            assert w[0] == pytest.approx(0.0, abs=1e-15)

    def test_sticking_selection(self):
        m = friction_model([0.5])
        w = select_F(m, [0.0], rule=MinimalNorm())
        g_oracle = clamp_interval(0.5, -1.0, 1.0)
        assert w[0] == pytest.approx(0.5 - g_oracle)
        assert w[0] == 0.0

    def test_sliding_selection(self):
        m = friction_model([2.0])
        w = select_F(m, [0.0], rule=MinimalNorm())
        g_oracle = clamp_interval(2.0, -1.0, 1.0)
        assert w[0] == pytest.approx(2.0 - g_oracle)
        assert w[0] == pytest.approx(1.0)

    def test_sign_convention_endpoints(self):
        m = friction_model([0.0])
        # g at the lower end -1 gives w = +1; at the upper end +1 gives w = -1
        assert select_F(m, [0.0], rule=SignConvention(-1))[0] == pytest.approx(1.0)
        assert select_F(m, [0.0], rule=SignConvention(1))[0] == pytest.approx(-1.0)
        assert select_F(m, [0.0], rule=SignConvention(0))[0] == pytest.approx(0.0)

    def test_randomized_is_seeded(self):
        m = friction_model([0.0])
        w1 = select_F(m, [0.0], rule=Randomized(seed=5))
        w2 = select_F(m, [0.0], rule=Randomized(seed=5))
        assert w1[0] == w2[0]
        assert -1.0 <= w1[0] <= 1.0

    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=200, deadline=None)
    def test_selection_containment(self, tau, x):
        m = friction_model([tau], lower=-5.0, upper=5.0)
        x_vec = np.array([x])
        for rule in (MinimalNorm(), SignConvention(-1), SignConvention(1), Randomized(seed=1)):
            w = select_F(m, x_vec, rule=rule)
            g_lo, g_hi = m.G.value(x_vec)
            lo, hi = m.f(x_vec) - g_hi, m.f(x_vec) - g_lo
            assert np.all(w >= lo - 1e-12) and np.all(w <= hi + 1e-12)

    @given(st.floats(min_value=-5, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_minimal_norm_optimality(self, tau):
        m = friction_model([tau], lower=-5.0, upper=5.0)
        x = np.array([0.0])
        w_min = select_F(m, x, rule=MinimalNorm())
        for rule in (SignConvention(-1), SignConvention(0), SignConvention(1), Randomized(seed=2)):
            w = select_F(m, x, rule=rule)
            assert np.linalg.norm(w_min) <= np.linalg.norm(w) + 1e-12


# every float, with both zeros, both infinities and NaNs of either sign
special_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                           st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]))


class TestSingletonSelection:
    """Where G(x) is a singleton {g}, minimal-norm selection takes g itself;
    it gives the bytes of the clip f - clip(f, g, g) it used to compute."""

    @given(data=st.data(), dim=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_singleton_matches_the_clip(self, data, dim):
        f = np.array(data.draw(st.lists(special_floats, min_size=dim, max_size=dim)))
        g = np.array(data.draw(st.lists(special_floats, min_size=dim, max_size=dim)))
        model = MonotoneModel(lambda x: f.copy(), CustomPart(lambda x: g, dim), Box(
            np.full(dim, -np.inf), np.full(dim, np.inf)), growth=(1.0, 1.0),
            dissipativity=(1.0, 1.0, 1.0))
        x = np.zeros(dim)
        lower, upper = model.G.value(x)
        assert lower is upper
        assert MinimalNorm().pick(lower, upper, f) is lower
        with np.errstate(all="ignore"):  # inf - inf
            got = select_F(model, x, MinimalNorm())
            want = reference_select_F(model, x, MinimalNorm())
        assert got.tobytes() == want.tobytes()

    @given(data=st.data(), dim=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_interval_takes_the_clip(self, data, dim):
        f = np.array(data.draw(st.lists(special_floats, min_size=dim, max_size=dim)))
        ends = np.array(data.draw(st.lists(
            st.tuples(special_floats, special_floats).map(sorted), min_size=dim, max_size=dim)))
        for lower, upper in [(ends[:, 0], ends[:, 1]), (ends[:, 0], ends[:, 0].copy())]:
            out = MinimalNorm().pick(lower, upper, f)
            assert out is not lower and out is not upper
            assert out.tobytes() == np.clip(f, lower, upper).tobytes()


class TestGlobalize:
    def test_worked_example(self):
        assert globalize_constants(2.0, 2.0, 1.0, 1.0, 1.0) == 5.0

    def test_vanishing_radius(self):
        assert globalize_constants(3.0, 1.0, 0.0, 7.0, 2.0) == 7.0

    def test_pure_radius_arm(self):
        assert globalize_constants(0.0, 0.0, 1.0, 0.0, 1.0) == 1.0

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            globalize_constants(1.0, 1.0, 1.0, 1.0, 0.0)

    def test_model_property_uses_it(self):
        m = scalar_model(a=1.0, b=2.0)
        # growth (2,2), r_star=1, M=1, gamma=1: max{1, 1*(2+2)+1} = 5
        assert m.M_global == 5.0


class TestOneSidedLipschitz:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_monotone_regular_part_pairs(self, seed):
        # a subdifferential is monotone for arbitrary selections, extreme
        # points included
        G = SeparableL1([1.0, 0.5])
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2, 2, size=(2, 2))
        pts[rng.random(size=(2, 2)) < 0.3] = 0.0
        x1, x2 = pts
        for g1 in box_corners(*G.value(x1)):
            for g2 in box_corners(*G.value(x2)):
                assert float((g1 - g2) @ (x1 - x2)) >= -1e-12


class TestModelConfig:
    def test_round_trip(self):
        m = friction_model([0.5, -0.3], K=[[2.0, 0.5], [0.5, 1.0]])
        cfg = m.to_config()
        m2 = model_from_config(cfg)
        assert m2.dim == m.dim
        assert m2.a == m.a and m2.b == m.b
        assert m2.M == m.M and m2.gamma == m.gamma and m2.r_star == m.r_star
        assert m2.ell == m.ell
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(select_F(m2, x), select_F(m, x))

    def test_missing_constants_rejected(self):
        m = scalar_model()
        cfg = m.to_config()
        del cfg["constants"]["gamma"]
        with pytest.raises(ValueError):
            model_from_config(cfg)

    def test_custom_part_has_no_config(self):
        part = CustomPart(lambda x: np.zeros(1), dim=1)
        with pytest.raises(ValueError):
            part.to_config()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MonotoneModel(
                f=AffineField([[1.0]], [0.0]), G=ZeroPart(2), C=Halfline(),
                growth=(1.0, 1.0), dissipativity=(1.0, 1.0, 1.0),
            )
