import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from catchup.geometry import (
    Ball,
    Box,
    ConvexSet,
    ExactProjection,
    GeometryError,
    Halfline,
    Halfspace,
    Intersection,
    IterativeProjection,
    NonnegOrthant,
    PerturbedProjection,
    ProjectionError,
    approx_project,
    in_approx_normal_cone,
    membership_tol,
    moreau_decompose,
    probe_count,
    probe_stack,
    set_from_config,
    _dykstra_limit,
    _norm,
    _probe_layout,
    _sweep,
)
from catchup.cli import main
from catchup.operators import (
    AffineField,
    LinearPart,
    MinimalNorm,
    SeparableL1,
    ZeroPart,
    regular_part_from_config,
)

from oracles import (
    cone_grid_project,
    distance_formula,
    grid_project,
    normal_cone_record,
    probe_points_loop,
    reference_dykstra_limit,
    reference_field,
    reference_iterative_project,
    reference_leaf_distance,
    reference_norm,
    reference_pick,
    reference_probe_stack,
    reference_perturbed_project,
    reference_slack,
    reference_to_config,
    reference_value,
)


def vectors(dim, lo=-10.0, hi=10.0):
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False),
        min_size=dim, max_size=dim,
    ).map(np.array)


class TestBox:
    def test_projection_clamps(self):
        B = Box([-1.0, 0.0], [2.0, 3.0])
        np.testing.assert_allclose(B.project([5.0, -1.0]), [2.0, 0.0])
        np.testing.assert_allclose(B.project([0.5, 1.0]), [0.5, 1.0])

    def test_distance_matches_grid_oracle(self):
        B = Box([-1.0, 0.0], [2.0, 3.0])
        y = np.array([4.0, -2.0])
        _, d_oracle = grid_project(lambda p: bool(B.contains(p)), y, -1.5, 3.5, n=201)
        assert B.distance(y) == pytest.approx(d_oracle, abs=2e-2)
        # exact value: offsets (2, 2) -> distance sqrt(8)
        assert B.distance(y) == pytest.approx(np.sqrt(8.0), abs=1e-12)

    def test_infinite_bounds(self):
        B = Box([0.0], [np.inf])
        assert B.project([-3.0])[0] == 0.0
        assert B.project([7.0])[0] == 7.0
        assert B.bounding_radius() == np.inf

    def test_bounding_radius(self):
        B = Box([-1.0, -2.0], [3.0, 1.0])
        assert B.bounding_radius() == pytest.approx(np.sqrt(9.0 + 4.0))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    def test_tangent_cone_interior_is_everything(self):
        B = Box([0.0, 0.0], [1.0, 1.0])
        u = np.array([-5.0, 3.0])
        np.testing.assert_allclose(B.tangent_project([0.5, 0.5], u), u)

    def test_tangent_cone_at_corner_matches_oracle(self):
        B = Box([0.0, 0.0], [1.0, 1.0])
        u = np.array([-1.0, 2.0])
        t = B.tangent_project([0.0, 0.0], u)
        t_oracle = cone_grid_project(lambda p: bool(np.all(p >= -1e-12)), u, 3.0, n=241)
        np.testing.assert_allclose(t, t_oracle, atol=2e-2)
        np.testing.assert_allclose(t, [0.0, 2.0], atol=1e-14)

    def test_tangent_requires_membership(self):
        B = Box([0.0], [1.0])
        with pytest.raises(GeometryError):
            B.tangent_project([5.0], [1.0])


class TestHalflineOrthant:
    def test_halfline_is_scalar_orthant(self):
        H = Halfline()
        assert H.dim == 1
        assert H.project([-2.0])[0] == 0.0
        assert H.contains([0.0])

    def test_orthant_tangent_at_origin(self):
        O = NonnegOrthant(3)
        t = O.tangent_project(np.zeros(3), [-1.0, 0.5, -0.2])
        np.testing.assert_allclose(t, [0.0, 0.5, 0.0])


class TestBall:
    def test_projection_radial(self):
        S = Ball([1.0, 0.0], 2.0)
        np.testing.assert_allclose(S.project([5.0, 0.0]), [3.0, 0.0])
        np.testing.assert_allclose(S.project([1.0, 1.0]), [1.0, 1.0])

    def test_distance_formula(self):
        S = Ball([0.0, 0.0], 1.0)
        assert S.distance([3.0, 4.0]) == pytest.approx(4.0)
        assert S.distance([0.1, 0.1]) == 0.0

    def test_tangent_on_boundary_removes_outward_component(self):
        S = Ball([0.0, 0.0], 1.0)
        x = np.array([1.0, 0.0])
        np.testing.assert_allclose(S.tangent_project(x, [2.0, 1.0]), [0.0, 1.0])
        np.testing.assert_allclose(S.tangent_project(x, [-2.0, 1.0]), [-2.0, 1.0])

    def test_bounding_radius(self):
        assert Ball([3.0, 4.0], 2.0).bounding_radius() == pytest.approx(7.0)


class TestHalfspace:
    def test_projection(self):
        H = Halfspace([1.0, 0.0], 0.5)
        np.testing.assert_allclose(H.project([2.0, 1.0]), [0.5, 1.0])
        np.testing.assert_allclose(H.project([0.0, 1.0]), [0.0, 1.0])

    def test_unit_normal_required(self):
        with pytest.raises(ValueError):
            Halfspace([2.0, 0.0], 1.0)

    def test_near_unit_normal_lands_far_points_inside(self):
        # 1 - |n|^2 = 1e-9 would leave a far point 1e-9 |y| outside the set
        H = Halfspace([0.9999999995, 0.0], 0.0)
        y = np.array([[1e4, 0.0], [1e6, 3.0]])
        for z in (H.project(y[0]), *H.project(y)):
            assert float(H.normal @ z) - H.offset <= membership_tol(z)

    @pytest.mark.parametrize("normal, y", [
        ([0.9999999995, 0.0], [1e4, 0.0]),
        ([0.9999999995, 0.0], [1e6, 3.0]),
        ([0.0, 0.9999999995], [-2.0, 7.5e5]),
        ([0.6, 0.8], [3.0, 4.0]),
    ])
    def test_distance_is_how_far_the_projection_moves(self, normal, y):
        # a normal short of unit length leaves the slack <n, y> - offset
        # short of the distance, by 5e-10 relative for these normals
        H = Halfspace(normal, 0.0)
        y = np.array(y)
        moved = float(np.linalg.norm(y - H.project(y)))
        assert H.distance(y) == pytest.approx(moved, rel=1e-15, abs=0.0)
        stacked = H.distance(np.array([y, y]))
        np.testing.assert_allclose(stacked, [moved, moved], rtol=1e-15, atol=0.0)

    def test_tangent_on_boundary(self):
        H = Halfspace([0.0, 1.0], 0.0)
        np.testing.assert_allclose(H.tangent_project([3.0, 0.0], [1.0, 2.0]), [1.0, 0.0])
        np.testing.assert_allclose(H.tangent_project([3.0, 0.0], [1.0, -2.0]), [1.0, -2.0])


class TestIntersection:
    def cap(self):
        return Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.5)])

    def test_projection_matches_grid_oracle(self):
        C = self.cap()
        y = np.array([2.0, 1.0])
        z = C.project(y)
        # analytic answer: the circle point at the halfspace boundary
        np.testing.assert_allclose(z, [0.5, np.sqrt(3.0) / 2.0], atol=1e-6)
        _, d_oracle = grid_project(
            lambda p: bool(np.linalg.norm(p) <= 1 + 1e-12 and p[0] <= 0.5 + 1e-12),
            y, -1.1, 1.1, n=441,
        )
        assert C.distance(y) == pytest.approx(d_oracle, abs=1e-2)

    def test_contains_checks_all_members(self):
        C = self.cap()
        assert C.contains([0.0, 0.0])
        assert not C.contains([0.9, 0.0])
        assert not C.contains([0.0, 1.5])

    def outside_corner(self, offset, step):
        """The cap Ball(0, 1) n Halfspace([1, 0], offset) and a point `step`
        outside its upper corner, along the bisector of the two normals."""
        C = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], offset)])
        corner = np.array([offset, np.sqrt(1.0 - offset ** 2)])
        bisector = corner + np.array([1.0, 0.0])
        bisector /= np.linalg.norm(bisector)
        return C, corner + step * bisector, bisector

    @pytest.mark.parametrize("offset, step", [(-0.99, 1e-8), (0.0, 2.5e-9)])
    def test_membership_is_judged_by_members(self, offset, step):
        # each member holds the point within tolerance, while its distance
        # to the intersection exceeds it
        C, x, _ = self.outside_corner(offset, step)
        assert C.contains(x) and C.distance(x) > membership_tol(x)
        np.testing.assert_array_equal(C.require_member(x), x)

    def test_outside_point_is_reported_without_projecting(self):
        # the message gives the largest member distance of (5, 3), which
        # needs no projection onto the thin cap
        C = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -0.99)])
        with pytest.raises(GeometryError, match="not in the set") as info:
            C.require_member([5.0, 3.0])
        assert not isinstance(info.value, ProjectionError)
        assert "5.990e+00" in str(info.value)

    def test_normal_cone_at_a_member_point(self):
        # at the right-angle corner, where the cap projects every probe in
        # closed form, as a ball cut by one halfspace
        C, x, bisector = self.outside_corner(0.0, 2.5e-9)
        assert in_approx_normal_cone(C, x, bisector, 0.0).holds

    def test_normal_cone_at_a_thin_corner(self):
        # the cap projects its probes in closed form, where Dykstra
        # projected none of them within its budget
        C, x, bisector = self.outside_corner(-0.99, 1e-8)
        assert in_approx_normal_cone(C, x, bisector, 0.0).holds

    def test_bounded_via_members(self):
        C = self.cap()
        assert C.bounding_radius() == pytest.approx(1.0)

    def test_tangent_project_feasible_direction(self):
        C = self.cap()
        x = np.array([0.5, np.sqrt(3.0) / 2.0])
        t = C.tangent_project(x, np.array([1.0, 1.0]))
        # tangent cone there: left of the vertical wall and below the circle tangent
        assert t[0] <= 1e-9
        assert float(x @ t) <= 1e-9


def _kkt_violation(ball, half, y, z):
    """How far z misses the KKT conditions of projecting y onto ball n half:
    y - z = lam_B (z - c) + lam_H n with lam >= 0 and lam_i g_i = 0.  The
    constraints g_B = |z - c| - r, g_H = n.z - b active within `allow` carry
    the multipliers, fitted by least squares; the others carry none.
    Returns the residual's norm, the smallest multiplier, the largest
    |lam_i g_i| and the allowance 1e-9 (1 + |y|)."""
    allow = 1e-9 * (1.0 + np.linalg.norm(y))
    columns = [(z - ball.center, np.linalg.norm(z - ball.center) - ball.radius),
               (half.normal, float(half.normal @ z) - half.offset)]
    active = [(col, g) for col, g in columns if g >= -allow]
    if not active:
        return float(np.linalg.norm(y - z)), 0.0, 0.0, allow
    A = np.column_stack([col for col, _ in active])
    lam = np.linalg.lstsq(A, y - z, rcond=None)[0]
    residual = float(np.linalg.norm(y - z - A @ lam))
    slack = max(abs(l * g) for l, (_, g) in zip(lam, active))
    return residual, float(lam.min()), slack, allow


@st.composite
def caps_with_points(draw):
    """Ball(c, r) n Halfspace(n, n.c + u r) in R^2 to R^5, u down to -0.999,
    and points of it in every case: random draws around the ball, and
    points z0 + alpha (z0 - c) + beta n off a rim point z0, which project
    onto z0 with both constraints active; with beta = 0 and u < 0 those lie
    inside H but outside B."""
    d = draw(st.integers(2, 5))
    coords = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=d, max_size=d).map(np.array)
    c, r = draw(coords(-2.0, 2.0)), draw(st.floats(0.1, 3.0))
    u = draw(st.one_of(st.floats(-0.999, 0.9), st.sampled_from([-0.999, -0.99, -0.9, 0.0])))
    g = draw(coords(-1.0, 1.0))
    assume(np.linalg.norm(g) > 0.1)
    n = g / np.linalg.norm(g)
    ball, half = Ball(c, r), Halfspace(n, float(n @ c) + u * r)
    points = []
    for kind in draw(st.lists(st.sampled_from(["draw", "rim", "rim-in-H"]), min_size=1,
                              max_size=8)):
        if kind == "draw":
            points.append(c + r * draw(coords(-4.0, 4.0)))
            continue
        e = draw(coords(-1.0, 1.0))
        e -= (e @ n) * n
        assume(np.linalg.norm(e) > 0.1)
        z0 = c + u * r * n + r * np.sqrt(1.0 - u * u) * e / np.linalg.norm(e)
        beta = 0.0 if kind == "rim-in-H" else draw(st.floats(0.0, 2.0))
        points.append(z0 + draw(st.floats(0.0, 2.0)) * (z0 - c) + beta * n)
    return ball, half, np.array(points)


class TestCapProjection:
    """One ball and one halfspace project in closed form."""

    @given(caps_with_points())
    @settings(max_examples=200, deadline=None)
    def test_point_meets_the_kkt_conditions(self, case):
        ball, half, Y = case
        C = Intersection([ball, half])
        Z = C.project(Y)
        assert Intersection([half, ball]).project(Y).tobytes() == Z.tobytes()
        for y, z in zip(Y, Z):
            assert C.project(y).tobytes() == z.tobytes()
            tol = membership_tol(z)
            assert ball.distance(z) <= tol and half.distance(z) <= tol
            residual, smallest, slack, allow = _kkt_violation(ball, half, y, z)
            assert residual <= allow and smallest >= -allow and slack <= allow


class TestApproxProject:
    def test_exact_policy_is_projection(self):
        B = Box([0.0], [1.0])
        z, _ = approx_project(B, [2.0], eps=0.5, policy=ExactProjection())
        assert z[0] == 1.0

    def test_eps_contract_holds_for_perturbed(self):
        C = Ball([0.0, 0.0], 1.0)
        y = np.array([2.0, 0.5])
        d2 = C.distance(y) ** 2
        for seed in range(8):
            for eps in (1e-8, 1e-3, 0.1):
                z, _ = approx_project(C, y, eps, policy=PerturbedProjection(seed=seed))
                assert C.contains(z)
                assert float(np.sum((z - y) ** 2)) <= d2 + eps + 1e-15

    def test_perturbed_actually_moves(self):
        C = Ball([0.0, 0.0], 1.0)
        y = np.array([2.0, 0.5])
        z0 = C.project(y)
        z, _ = approx_project(C, y, eps=0.1, policy=PerturbedProjection(seed=3))
        assert float(np.linalg.norm(z - z0)) > 1e-4

    def test_perturbed_zero_eps_is_exact(self):
        C = Ball([0.0, 0.0], 1.0)
        y = np.array([2.0, 0.5])
        np.testing.assert_allclose(
            approx_project(C, y, 0.0, policy=PerturbedProjection(seed=1))[0], C.project(y)
        )

    def test_iterative_policy_certifies(self):
        C = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.5)])
        y = np.array([2.0, 1.0])
        d2 = float(np.sum((C.project(y) - y) ** 2))
        for eps in (1e-2, 1e-4, 1e-8):
            z, _ = approx_project(C, y, eps=eps, policy=IterativeProjection())
            assert C.contains(z)
            assert float(np.sum((z - y) ** 2)) <= d2 + eps + 1e-12

    def test_iterative_budget_exhaustion_raises(self):
        # nearly touching disks make alternating projections crawl
        C = Intersection(
            [Ball([-1.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0)], budget=3
        )
        with pytest.raises(ProjectionError):
            approx_project(C, [0.0, 5.0], eps=1e-16, policy=IterativeProjection())

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            approx_project(Halfline(), [1.0], -1e-3)

    def test_nan_eps_rejected(self):
        with pytest.raises(ValueError, match="eps must be nonnegative, got nan"):
            approx_project(Halfline(), [0.5], float("nan"))


class TestMoreau:
    def test_corner_split_frozen(self):
        O = NonnegOrthant(2)
        t, n = moreau_decompose(O, [0.0, 0.0], [-1.0, 2.0])
        np.testing.assert_allclose(t, [0.0, 2.0], atol=1e-14)
        np.testing.assert_allclose(n, [-1.0, 0.0], atol=1e-14)

    def test_reconstruction_is_exact(self):
        O = NonnegOrthant(2)
        u = np.array([-1.234567, 2.987654])
        t, n = moreau_decompose(O, [0.0, 0.0], u)
        np.testing.assert_array_equal(t + n, u)

    @given(vectors(3), vectors(3, lo=0.0, hi=5.0))
    @settings(max_examples=60, deadline=None)
    def test_orthogonality_property(self, u, x):
        O = NonnegOrthant(3)
        t, n = moreau_decompose(O, x, u)
        assert abs(float(t @ n)) <= 1e-9 * (1 + float(u @ u))
        # tangential part lies in the tangent cone, normal part opposes all of C
        assert float(np.linalg.norm(t + n - u)) == 0.0

    @given(vectors(2), st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_ball_boundary_split(self, u, r):
        S = Ball([0.0, 0.0], r)
        x = np.array([r, 0.0])
        t, n = moreau_decompose(S, x, u)
        assert abs(float(t @ n)) <= 1e-9 * (1 + float(u @ u))
        np.testing.assert_array_equal(t + n, u)


class TestNormalConeCertificate:
    def test_valid_normal_direction_passes(self):
        H = Halfline()
        cert = in_approx_normal_cone(H, [0.0], [-1.0], delta=0.0)
        assert cert.holds
        assert cert.worst_violation <= 0.0

    def test_tangent_direction_fails(self):
        H = Halfline()
        cert = in_approx_normal_cone(H, [0.0], [1.0], delta=1e-3)
        assert not cert.holds
        assert cert.worst_violation > 1.0

    def test_interior_point_only_zero_passes(self):
        B = Box([0.0, 0.0], [1.0, 1.0])
        x = [0.5, 0.5]
        assert in_approx_normal_cone(B, x, [0.0, 0.0], delta=0.0).holds
        assert not in_approx_normal_cone(B, x, [0.1, 0.0], delta=1e-4).holds

    def test_delta_slack_is_honored(self):
        B = Box([0.0], [1.0])
        # v = 0.01 at x = 1: <v, z - 1> <= 0 for z in [0,1], holds even with delta=0
        assert in_approx_normal_cone(B, [1.0], [0.01], delta=0.0).holds
        # v = -0.01 at x = 1 violates by 0.01 at z = 0; delta must absorb it
        assert not in_approx_normal_cone(B, [1.0], [-0.02], delta=0.01).holds
        assert in_approx_normal_cone(B, [1.0], [-0.02], delta=0.05).holds

    def test_certificate_records_window_and_probes(self):
        H = Halfline()
        cert = in_approx_normal_cone(H, [0.0], [-1.0], delta=0.0)
        assert cert.window == 10.0
        assert cert.seed == 0
        assert cert.n_probes == 21
        rec = cert.to_record()
        assert set(rec) == {
            "holds", "worst_violation", "witness", "delta", "window", "n_probes", "seed",
        }

    def test_infeasible_base_point_rejected(self):
        with pytest.raises(GeometryError):
            in_approx_normal_cone(Halfline(), [-1.0], [0.0], delta=0.0)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("C", [
        Box([-1.0, 0.0], [2.0, 3.0]),
        Ball([1.0, -1.0], 0.5),
        Halfspace([0.0, 1.0], 2.0),
        NonnegOrthant(3),
        Halfline(),
        Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.5)]),
    ])
    def test_round_trip(self, C):
        C2 = set_from_config(C.to_config())
        assert type(C2) is type(C)
        assert C2.dim == C.dim
        rng = np.random.default_rng(1)
        for _ in range(5):
            y = rng.uniform(-3, 3, size=C.dim)
            np.testing.assert_allclose(C2.project(y), C.project(y), atol=1e-12)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            set_from_config({"type": "torus"})


def _bounds(dim):
    """Box bounds of length dim, each end finite or infinite."""
    ends = st.floats(allow_nan=False)
    return st.lists(st.tuples(ends, ends).map(sorted), min_size=dim, max_size=dim).map(
        lambda pairs: [list(end) for end in zip(*pairs)])


@st.composite
def record_sets(draw, dim, depth=2):
    """A set of every kind in R^dim; an intersection's members nest up to
    `depth` intersections deep."""
    kinds = ["box", "orthant", "ball", "halfspace"] + ["halfline"] * (dim == 1)
    kind = draw(st.sampled_from(kinds + ["intersection"] * (depth > 0)))
    if kind == "box":
        return Box(*draw(_bounds(dim)))
    if kind == "orthant":
        return NonnegOrthant(dim)
    if kind == "halfline":
        return Halfline()
    if kind == "ball":
        return Ball(draw(vectors(dim, -1e6, 1e6)), draw(st.floats(0.0, 1e6)))
    if kind == "halfspace":
        normal = draw(vectors(dim).filter(lambda n: np.linalg.norm(n) > 1e-3))
        return Halfspace(normal / np.linalg.norm(normal), draw(st.floats(-1e6, 1e6)))
    members = draw(st.lists(record_sets(dim, depth - 1), min_size=1, max_size=3))
    return Intersection(members, draw(st.integers(1, 500)))


@st.composite
def record_parts(draw, dim):
    """A regular part of every config kind in R^dim."""
    kind = draw(st.sampled_from(["zero", "linear", "l1"]))
    if kind == "zero":
        return ZeroPart(dim)
    if kind == "linear":
        B = draw(vectors(dim * dim)).reshape(dim, dim)
        M = B @ B.T
        return LinearPart((M + M.T) / 2.0)
    return SeparableL1(draw(vectors(dim, 0.0, 1e6)))


class TestRecordWriter:
    """Every set and regular part writes the record its constructor reads."""

    @given(st.integers(1, 4).flatmap(lambda d: st.one_of(record_sets(d), record_parts(d))))
    @settings(max_examples=300, deadline=None)
    def test_record_matches_the_hand_written_one(self, record):
        cfg = record.to_config()
        assert json.dumps(cfg, sort_keys=True) == json.dumps(reference_to_config(record),
                                                             sort_keys=True)
        rebuild = set_from_config if isinstance(record, ConvexSet) else regular_part_from_config
        assert json.dumps(rebuild(cfg).to_config(), sort_keys=True) == json.dumps(
            cfg, sort_keys=True)

    @pytest.mark.parametrize("C, text", [
        (Box([-1.0, -np.inf], [2.0, 3.0]), "Box(lower=[-1.0, -inf], upper=[2.0, 3.0])"),
        (NonnegOrthant(3), "NonnegOrthant(dim=3)"),
        (Halfline(), "Halfline()"),
        (Ball([1.0, -1.0], 0.5), "Ball(center=[1.0, -1.0], radius=0.5)"),
        (Halfspace([0.0, 1.0], 2.0), "Halfspace(normal=[0.0, 1.0], offset=2.0)"),
        (Intersection([Halfline()], budget=3), "Intersection(members=[Halfline()], budget=3)"),
    ], ids=["box", "orthant", "halfline", "ball", "halfspace", "intersection"])
    def test_repr_reads_as_a_constructor_call(self, C, text):
        assert repr(C) == text


class TestProjectionProperties:
    @given(vectors(2), vectors(2))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive_box(self, y1, y2):
        B = Box([-1.0, -1.0], [1.0, 1.0])
        d_proj = float(np.linalg.norm(B.project(y1) - B.project(y2)))
        d_raw = float(np.linalg.norm(y1 - y2))
        assert d_proj <= d_raw + 1e-12

    @given(vectors(2))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_ball(self, y):
        S = Ball([0.5, -0.5], 1.5)
        z = S.project(y)
        np.testing.assert_allclose(S.project(z), z, atol=1e-12)
        assert S.distance(z) <= membership_tol(z) * 10

    @given(vectors(2), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_eps_inequality_all_policies(self, y, eps):
        C = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.5)])
        d2 = C.distance(y) ** 2
        for policy in (ExactProjection(), PerturbedProjection(seed=0)):
            z, _ = approx_project(C, y, eps, policy=policy)
            assert float(np.sum((z - y) ** 2)) <= d2 + eps + 1e-10


# Sets whose stacked calls must match their per-row calls bit for bit:
# bounded and half-infinite boxes, an orthant, the two smooth leaf sets and a
# cap projected by Dykstra.
STACKED_SETS = {
    "box": Box([-1.0, 0.0, -2.0], [2.0, 3.0, 0.0]),
    "box_infinite": Box([-np.inf, 0.0, -1.0], [1.0, np.inf, np.inf]),
    "orthant": NonnegOrthant(3),
    "ball": Ball([0.5, -0.5, 0.0], 1.5),
    "halfspace": Halfspace([0.6, 0.0, -0.8], 0.25),
    "intersection": Intersection([Ball([0.0, 0.0, 0.0], 1.0), Halfspace([1.0, 0.0, 0.0], 0.5)]),
}

# rows of a query stack: raw draws (with signed zeros), their projections
# (boundary points), and shrunken copies of those (mostly inside)
coordinates = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.5, -1.0]),
)
query_rows = st.lists(st.tuples(st.lists(coordinates, min_size=3, max_size=3),
                                st.sampled_from(["raw", "boundary", "inside"])),
                      min_size=0, max_size=12)


def _stack(C, rows):
    out = []
    for coords, kind in rows:
        y = np.array(coords)
        if kind != "raw":
            y = C.project(y)
        if kind == "inside":
            y = 0.5 * y
        out.append(y)
    return np.array(out).reshape(len(rows), C.dim)


class TestStackedCalls:
    @pytest.mark.parametrize("name", sorted(STACKED_SETS))
    @given(rows=query_rows)
    @settings(max_examples=60, deadline=None)
    def test_rows_match_single_calls(self, name, rows):
        C = STACKED_SETS[name]
        Y = _stack(C, rows)
        m = Y.shape[0]
        expected = {
            "project": np.array([C.project(y) for y in Y]).reshape(m, C.dim),
            "distance": np.array([C.distance(y) for y in Y], dtype=float),
            "contains": np.array([C.contains(y) for y in Y], dtype=bool),
        }
        # the single calls still compute what the 1-D formulas compute
        formula = np.array([distance_formula(C, y) for y in Y], dtype=float)
        assert expected["distance"].tobytes() == formula.tobytes()
        for method, want in expected.items():
            got = getattr(C, method)(Y)
            assert got.shape == want.shape and got.dtype == want.dtype, method
            assert got.tobytes() == want.tobytes(), method

    @pytest.mark.parametrize("name", sorted(STACKED_SETS))
    def test_single_calls_keep_their_types_and_shape_checks(self, name):
        C = STACKED_SETS[name]
        y = np.full(C.dim, 4.0)
        assert C.project(y).shape == (C.dim,)
        assert type(C.distance(y)) is float and type(C.contains(y)) is bool
        assert type(membership_tol(y)) is float and membership_tol(np.stack([y, y])).shape == (2,)
        assert membership_tol(y.tolist()) == membership_tol(y)
        # a leaf set's point exactly on its boundary, and a NaN point
        edge = {"ball": [2.0, -0.5, 0.0], "halfspace": [0.0, 0.0, -0.3125]}.get(name)
        if edge is not None:
            edge, nan = np.array(edge), np.full(C.dim, np.nan)
            assert C.project(edge).tobytes() == edge.tobytes()
            assert type(C.distance(edge)) is float and C.distance(edge) == 0.0
            assert C.contains(edge) is True
            assert np.isnan(C.project(nan)).all() and C.project(nan).shape == (C.dim,)
            assert type(C.distance(nan)) is float and np.isnan(C.distance(nan))
            assert C.contains(nan) is False
        for bad in (np.zeros(C.dim + 1), np.zeros((2, C.dim + 1)), np.zeros((1, 2, C.dim))):
            for method in ("project", "distance", "contains"):
                with pytest.raises(ValueError):
                    getattr(C, method)(bad)


def _certificate_cases(dim):
    """(name, set, member point, vector) per set type at the given dimension."""
    rng = np.random.default_rng(dim)
    normal = rng.standard_normal(dim)
    normal /= np.linalg.norm(normal)
    half = np.arange(dim) % 2 == 0
    sets = {
        "box": Box(-np.ones(dim), 2.0 * np.ones(dim)),
        "box_infinite": Box(np.where(half, -np.inf, -1.0), np.where(half, 1.0, np.inf)),
        "orthant": NonnegOrthant(dim),
        "ball": Ball(np.zeros(dim), 1.5),
        "halfspace": Halfspace(normal, 0.25),
        "intersection": Intersection([Ball(np.zeros(dim), 1.0), Halfspace(normal, 0.5)]),
    }
    cases = []
    for name, C in sets.items():
        x = C.project(3.0 * rng.standard_normal(dim))
        if C.contains(np.where(np.arange(dim) == 1, -0.0, x)):
            x[1] = -0.0  # a signed zero the axis-extreme probes must keep
        cases.append((name, C, x, rng.standard_normal(dim)))
    return cases


class TestStackedProbes:
    @pytest.mark.parametrize("dim", [2, 8, 11])
    def test_certificate_matches_the_per_probe_loop(self, dim):
        # at dim 11 the window corners are skipped
        for name, C, x, v in _certificate_cases(dim):
            pts, W = probe_stack(C, x[None, :])
            want_pts, want_W = probe_points_loop(C, x)
            assert W[0] == want_W and pts[0].tobytes() == want_pts.tobytes(), (name, dim)
            for delta in (0.0, 0.5):
                got = in_approx_normal_cone(C, x, v, delta).to_record()
                want = normal_cone_record(C, x, v, delta)
                assert json.dumps(got) == json.dumps(want), (name, dim)
        assert want["n_probes"] == 1 + 2 * dim + (2 ** dim if dim <= 10 else 0) + 16


def _probe_sets(dim):
    """One set per type `set_from_config` builds, in R^dim."""
    normal = np.cos(np.arange(dim) + 1.0)
    normal /= np.linalg.norm(normal)
    half = np.arange(dim) % 2 == 0
    configs = {
        "box": {"type": "box", "lower": [-1.0] * dim, "upper": [2.0] * dim},
        "box_infinite": {"type": "box", "lower": np.where(half, -np.inf, -1.0).tolist(),
                         "upper": np.where(half, 1.0, np.inf).tolist()},
        "nonneg_orthant": {"type": "nonneg_orthant", "dim": dim},
        "ball": {"type": "ball", "center": [0.25] * dim, "radius": 1.5},
        "halfspace": {"type": "halfspace", "normal": normal.tolist(), "offset": 0.25},
        "intersection": {"type": "intersection", "members": [
            {"type": "ball", "center": [0.0] * dim, "radius": 1.0},
            {"type": "halfspace", "normal": normal.tolist(), "offset": 0.5}]},
    }
    if dim == 1:
        configs["halfline"] = {"type": "halfline"}
    return {name: set_from_config(cfg) for name, cfg in configs.items()}


PROBE_CASES = [(dim, name) for dim in (1, 2, 8, 11) for name in sorted(_probe_sets(dim))]


class TestProbeStack:
    """Row i of the stacked probe builder is the per-probe loop at row i."""

    @pytest.mark.parametrize("dim, name", PROBE_CASES)
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_rows_match_the_per_probe_loop(self, dim, name, data):
        C = _probe_sets(dim)[name]
        rows = data.draw(st.lists(st.tuples(st.lists(coordinates, min_size=dim, max_size=dim),
                                            st.sampled_from(["raw", "boundary", "inside"])),
                                  min_size=1, max_size=40))
        X = _stack(C, rows)
        try:
            pts, W = probe_stack(C, X)
        except ProjectionError:
            with pytest.raises(ProjectionError):
                for x in X:
                    probe_points_loop(C, x)
            return
        assert pts.shape == (X.shape[0], probe_count(dim), dim) and W.shape == (X.shape[0],)
        for i, x in enumerate(X):
            want_pts, want_W = probe_points_loop(C, x)
            assert pts[i].tobytes() == want_pts.tobytes(), i
            assert W[i].tobytes() == np.float64(want_W).tobytes(), i

    @pytest.mark.parametrize("dim, name", PROBE_CASES)
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_bytes_match_the_gather_then_project_recipe(self, dim, name, data):
        # a box projects its per-row table and then gathers the queries;
        # every set gives the bytes of gathering first and projecting the
        # queries, at members with signed zeros and boundary coordinates
        C = _probe_sets(dim)[name]
        rows = data.draw(st.lists(st.tuples(st.lists(coordinates, min_size=dim, max_size=dim),
                                            st.sampled_from(["boundary", "inside"])),
                                  min_size=1, max_size=20))
        X = _stack(C, rows)
        try:
            want = reference_probe_stack(C, X)
        except ProjectionError:
            with pytest.raises(ProjectionError):
                probe_stack(C, X)
            return
        assert [a.tobytes() for a in probe_stack(C, X)] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("window", [1.0, 10.000000000000002, 37.3, 1e-300, 3])
    def test_draws_are_the_generators_uniform_draws(self, window):
        # the builder draws U once and scales it as Generator.uniform does
        for seed in range(5):
            want = np.random.default_rng(seed).uniform(-window, window, size=(16, 3))
            U = np.random.default_rng(seed).random((16, 3))
            W = np.float64(window)
            assert (-W + (W - -W) * U).tobytes() == want.tobytes()


class TestProbeLayout:
    """The parts of the probe recipe that depend on the dimension alone are
    built once per dimension and cannot be written to."""

    @pytest.mark.parametrize("dim", [1, 2, 8, 11])
    def test_layout_is_cached_and_read_only(self, dim):
        index, U = layout = _probe_layout(dim)
        assert _probe_layout(dim) is layout
        assert index.size == (probe_count(dim) - 1) * dim
        assert U.tobytes() == np.random.default_rng(0).random((16, dim)).tobytes()
        for a in layout:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_calls_in_other_dimensions_leave_the_bytes(self):
        stacks = {}
        for dim in (1, 2, 8, 11):
            rng = np.random.default_rng(dim)
            for name, C in _probe_sets(dim).items():
                X = C.project(3.0 * rng.standard_normal((3, dim)))
                stacks[dim, name] = C, X, [a.tobytes() for a in probe_stack(C, X)]
        for key in list(stacks)[::-1] + list(stacks):
            C, X, want = stacks[key]
            assert [a.tobytes() for a in probe_stack(C, X)] == want, key


class NoJudgementBox(Box):
    """A box whose membership test must not run."""

    def contains(self, x):
        raise AssertionError("the point was judged again")


class TestCertificateRows:
    """A certificate handed its `probe_stack` row takes its point as judged
    by the step that produced it, and has the record of the standalone
    certificate, which judges the point itself."""

    @pytest.mark.parametrize("dim", [1, 2, 8, 11])
    def test_row_certificate_matches_the_standalone_one(self, dim):
        rng = np.random.default_rng(dim)
        for name, C in _probe_sets(dim).items():
            X = C.project(3.0 * rng.standard_normal((5, dim)))
            V = rng.standard_normal((5, dim))
            pts, W = probe_stack(C, X)
            for i, (x, v) in enumerate(zip(X, V)):
                for delta in (0.0, 0.5):
                    got = in_approx_normal_cone(C, x, v, delta, (pts[i], float(W[i])))
                    want = in_approx_normal_cone(C, x, v, delta)
                    assert json.dumps(got.to_record()) == json.dumps(want.to_record()), name
                    assert got.witness.tobytes() == want.witness.tobytes(), name

    def test_a_row_is_not_judged_again(self):
        C = NoJudgementBox([-1.0, -1.0], [1.0, 1.0])
        x, v = np.array([1.0, 0.5]), np.array([1.0, 0.0])
        pts, W = probe_stack(C, x[None, :])
        assert in_approx_normal_cone(C, x, v, 0.0, (pts[0], float(W[0]))).holds
        with pytest.raises(AssertionError, match="judged again"):
            in_approx_normal_cone(C, x, v, 0.0)

    @pytest.mark.parametrize("C, x", [
        (Box([-1.0, -1.0], [1.0, 1.0]), [1.5, 0.0]),
        (Box([-1.0, -1.0], [1.0, 1.0]), [np.nan, 0.0]),
        (Ball([0.0, 0.0], 1.0), [0.0, -1.1]),
        (Halfspace([1.0, 0.0], 0.5), [0.75, 3.0]),
        (Intersection([Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.5)]), [0.9, 0.0]),
    ], ids=["box", "box-nan", "ball", "halfspace", "intersection"])
    def test_standalone_certificate_rejects_a_non_member(self, C, x):
        with pytest.raises(GeometryError, match="not in the set"):
            in_approx_normal_cone(C, x, [0.0, 0.0], 0.0)


# --- Dykstra row retirement ------------------------------------------------

CAP = [Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.5)]
THIN_CAP = [Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], -0.99)]


def _stalled_row():
    """A point 1e-8 outside the thin cap's upper corner, along the bisector of
    the two normals: Dykstra never meets the 1e-13 stop there."""
    corner = np.array([-0.99, np.sqrt(1.0 - 0.99 ** 2)])
    bisector = corner + np.array([1.0, 0.0])
    return corner + 1e-8 * bisector / np.linalg.norm(bisector)


dykstra_rows = st.lists(st.one_of(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(list),
    st.just("stalled"), st.just("nan")), max_size=10)


# the polygon benchmark workload's run config for workload seed 4301, pinned
# here so that a change of the workload generator leaves this test as it is;
# its redundant box keeps the cap off the closed form, so it sweeps by Dykstra
POLYGON_RUN = {
    "T": 2.0,
    "errors": {"beta": 1.0, "eps0": 0.1, "kind": "power_of_step"},
    "model": {
        "C": {"type": "intersection", "members": [
            {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            {"type": "halfspace", "normal": [0.920378684104825, 0.3910282315197595],
             "offset": 0.5},
            {"type": "box", "lower": [-2.0, -2.0], "upper": [2.0, 2.0]}]},
        "G": {"type": "l1", "weights": [0.2, 0.2]},
        "constants": {"M": 4.560752510029523, "a": 2.442718521279629,
                      "b": 1.118033988749895, "ell": -1.0, "gamma": 1.0, "r_star": 1.0},
        "f": {"type": "affine", "A": [[-1.0, -0.5], [0.5, -1.0]],
              "b": [1.6188137464568788, 1.4298620785737837]},
    },
    "projection": {"kind": "iterative"},
    "schedule": {"kind": "uniform", "mu0": 0.02},
    "x0": [0.0, 0.0],
}


class TestDykstraStop:
    """The Dykstra stop gives, bit for bit, the limits of the oracle's stop,
    for a vector and for each row of a stack alike."""

    @given(rows=dykstra_rows, thin=st.booleans(), budget=st.sampled_from([1, 2, 3, 4, 5, 200]),
           scale=st.sampled_from([1e-13, 1e-6, 1e-3, 1e-1]), per_row=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_limits_match_the_oracle(self, rows, thin, budget, scale, per_row):
        projectors = [m.project for m in (THIN_CAP if thin else CAP)]
        special = {"stalled": _stalled_row(), "nan": np.full(2, np.nan)}
        Y = np.array([special.get(r, r) if isinstance(r, str) else r for r in rows],
                     dtype=float).reshape(len(rows), 2)
        # a larger tolerance lets rows settle at different sweeps
        tol = scale * (1.0 + _norm(Y)) if per_row else scale
        want = reference_dykstra_limit(projectors, Y, budget, tol)
        got = _dykstra_limit(projectors, Y, budget, tol)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for i, y in enumerate(Y):
            t = tol[i] if per_row else tol
            alone = reference_dykstra_limit(projectors, y, budget, t)
            assert _dykstra_limit(projectors, y, budget, t).tobytes() == alone.tobytes()

    @given(u=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           at=st.sampled_from(["upper corner", "lower corner", "arc", "wall", "inside"]),
           budget=st.sampled_from([1, 2, 3, 4, 5, 200]))
    @settings(max_examples=60, deadline=None)
    def test_tangent_project_matches_the_oracle(self, u, at, budget):
        C = Intersection(CAP, budget=budget)
        h = np.sqrt(0.75)
        x = {"upper corner": [0.5, h], "lower corner": [0.5, -h], "arc": [-0.6, 0.8],
             "wall": [0.5, 0.0], "inside": [0.0, 0.1]}[at]
        x, u = np.array(x), np.array(u)
        projectors = [lambda v, m=m: m.tangent_project(x, v) for m in CAP]
        want = reference_dykstra_limit(projectors, u, budget, 1e-14 * (1.0 + np.linalg.norm(u)))
        assert C.tangent_project(x, u).tobytes() == want.tobytes()

    @pytest.mark.parametrize("budget", [1, 200])
    def test_tangent_project_judges_its_point_once(self, monkeypatch, budget):
        # the members' tangent projections take x as checked, sweep after sweep
        calls = []
        judge = ConvexSet.require_member
        monkeypatch.setattr(ConvexSet, "require_member",
                            lambda C, x: calls.append(type(C).__name__) or judge(C, x))
        C = Intersection(CAP, budget=budget)
        C.tangent_project([0.5, np.sqrt(0.75)], [1.0, 1.0])
        assert calls == ["Intersection"]

    def test_empty_stack_sweeps_once(self):
        calls = []
        projectors = [lambda v, p=m.project: calls.append(v.shape) or p(v) for m in CAP]
        Y = np.empty((0, 2))
        got = _dykstra_limit(projectors, Y, 200, 1e-13)
        assert got.shape == (0, 2) and calls == [(0, 2), (0, 2)]

    def test_polygon_run_keeps_the_oracles_bytes_and_calls(self, tmp_path, monkeypatch):
        # a polygon run config (a cap of the unit disc, l1 friction): its
        # certificates project stacks of probe points by Dykstra
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(POLYGON_RUN))
        work = {}
        for cls in (Ball, Halfspace):
            def counted(self, y, project=cls.project):
                rows = np.shape(y)[0] if np.ndim(y) == 2 else 1
                work["calls"] = work.get("calls", 0) + 1
                work["rows"] = work.get("rows", 0) + rows
                return project(self, y)
            monkeypatch.setattr(cls, "project", counted)

        def run(label):
            work.clear()
            out = tmp_path / label
            assert main(["run", str(cfg), "--seed", "1", "--out", str(out)]) == 0
            return dict(work), (out / "trajectory.csv").read_bytes()

        stopped, trajectory = run("stopped")
        monkeypatch.setattr("catchup.geometry._dykstra_limit", reference_dykstra_limit)
        swept, reference = run("swept")
        assert trajectory == reference
        # every row sweeps until none is pending, as in the oracle
        assert stopped == swept


def _projection_outcome(project, C, y, eps):
    try:
        return project(C, y, eps).tobytes()
    except ProjectionError as e:
        return str(e)


# the cap with its top and bottom cut off by a box: three members, all of
# which bind somewhere, so Dykstra sums three nonzero corrections
BOXED_CAP = [*CAP, Box([-2.0, -0.6], [2.0, 0.6])]


class TestIterativeMatchesReference:
    """The Iterative policy returns the bytes of its loop written out in numpy
    scalars, or raises the same ProjectionError."""

    @given(members=st.sampled_from([CAP, THIN_CAP, BOXED_CAP]),
           eps=st.sampled_from([0.0, 1e-8, 1e-4]),
           where=st.sampled_from(["outward", "arc", "wall", "inside"]),
           angle=st.floats(0.0, 2.0 * np.pi), r=st.floats(1.0, 4.0), t=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_project_matches_the_oracle(self, members, eps, where, angle, r, t):
        thin = members is THIN_CAP
        C, wall = Intersection(members), members[1].offset
        corner = np.arccos(wall)  # the arc runs from this angle to its mirror
        arc = corner + t * (2.0 * np.pi - 2.0 * corner)
        points = {"outward": r * np.array([np.cos(angle), np.sin(angle)]),
                  "arc": np.array([np.cos(arc), np.sin(arc)]),
                  "wall": np.array([wall, (2.0 * t - 1.0) * np.sqrt(1.0 - wall * wall)])}
        # inside: on the way from a point well inside to the point of the wall
        inner = np.array([wall - 0.005 if thin else 0.0, 0.0])
        points["inside"] = inner + 0.99 * (r - 1.0) / 3.0 * (points["wall"] - inner)
        y = points[where]
        want = _projection_outcome(reference_iterative_project, C, y, eps)
        got = _projection_outcome(lambda *args: IterativeProjection().project(*args)[0], C, y, eps)
        assert got == want


class TestIterativeMemberBound:
    """The Iterative policy measures the member distances of y only when a
    feasible iterate is not certified by the separating halfspaces alone,
    or for the budget error's message; its point and message are those of
    the oracle, which measures them before the first sweep."""

    @pytest.mark.parametrize("members, budget, y, eps, measured, sweeps", [
        # inside: the first iterate is y itself, certified with no bound at all
        (CAP, 200, [0.0, 0.5], 0.0, 0, 1),
        # beyond the wall: the sweep lands on (0.5, 0), |z - y|^2 = 1, and
        # its separating bound is 0.75^2; the wall's distance 1 certifies it
        (CAP, 200, [1.5, 0.0], 0.0, 1, 1),
        # the budget runs out before feasibility: the message takes the bound
        (THIN_CAP, 1, [-0.5, 1.5], 0.0, 1, 1),
        (THIN_CAP, 2, [0.0, 2.0], 0.0, 1, 2),
        # a NaN bound stays NaN in the message
        (CAP, 1, [np.nan, 0.0], 1e-3, 1, 1),
    ], ids=["inside", "needs-member-bound", "budget-thin", "budget-two", "budget-nan"])
    def test_matches_the_eager_oracle(self, monkeypatch, members, budget, y, eps, measured,
                                      sweeps):
        C, y = Intersection(members, budget=budget), np.array(y)
        want = _projection_outcome(reference_iterative_project, C, y, eps)
        counts = {"bound": 0, "sweeps": 0}

        def counted(name, f):
            def call(*args):
                counts[name] += 1
                return f(*args)
            return call

        monkeypatch.setattr(Intersection, "distance_lower_bound",
                            counted("bound", Intersection.distance_lower_bound))
        monkeypatch.setattr("catchup.geometry._sweep",
                            counted("sweeps", _sweep))

        def project(C, y, eps):
            z, member = IterativeProjection().project(C, y, eps)
            assert member is True
            return z

        assert _projection_outcome(project, C, y, eps) == want
        assert counts == {"bound": measured, "sweeps": sweeps}

    def test_far_member_bound_squares_to_inf(self):
        # the member bound 1e200 squares to inf, which certifies the feasible
        # iterate (0, 0); squared as a float power it raised OverflowError
        quadrant = Intersection([Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0)])
        with np.errstate(over="ignore"):  # |z - y|^2 overflows to inf as well
            z, member = IterativeProjection().project(quadrant, np.array([1e200, 0.0]), 0.1)
        assert z.tolist() == [0.0, 0.0] and member is True


# --- the bits of the step path's vector formulas ---------------------------

SPECIAL_ENTRIES = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300]


def entries(finite=False):
    """One coordinate: a special value, a moderate float or any float."""
    special = [v for v in SPECIAL_ENTRIES if np.isfinite(v)] if finite else SPECIAL_ENTRIES
    return st.one_of(st.sampled_from(special), st.floats(-10.0, 10.0),
                     st.floats(allow_nan=not finite, allow_infinity=not finite))


def arrays(draw, shape, finite=False, elements=None):
    size = int(np.prod(shape))
    elements = entries(finite) if elements is None else elements
    values = draw(st.lists(elements, min_size=size, max_size=size))
    return np.array(values, dtype=float).reshape(shape)


@st.composite
def leaf_cases(draw):
    """A ball or a halfspace in R^d, d = 1-13, and a vector."""
    d = draw(st.integers(1, 13))
    if draw(st.booleans()):
        radius = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e300))
        C = Ball(arrays(draw, (d,), finite=True), radius)
    else:
        u = arrays(draw, (d,), elements=st.sampled_from([0.0, -0.0, 1.0, -1.0])
                   | st.floats(-10.0, 10.0))
        assume(np.linalg.norm(u) > 1e-100)
        C = Halfspace(u / np.linalg.norm(u), draw(entries(finite=True)))
    return C, arrays(draw, (d,))


@st.composite
def field_cases(draw):
    """An affine drift in R^d, d = 1-13, and a vector."""
    d = draw(st.integers(1, 13))
    f = AffineField(arrays(draw, (d, d), finite=True), arrays(draw, (d,), finite=True))
    return f, arrays(draw, (d,))


@st.composite
def linear_cases(draw):
    """A linear G(x) = {M x} in R^d, d = 1-13, M a diagonal (signed zeros
    among its entries) or B B^T, and a vector."""
    d = draw(st.integers(1, 13))
    if draw(st.booleans()):
        M = np.diag(arrays(draw, (d,), elements=st.sampled_from([0.0, -0.0])
                           | st.floats(0.0, 10.0)))
    else:
        B = arrays(draw, (d, d), elements=st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0))
        M = B @ B.T
        M = np.triu(M) + np.triu(M, 1).T
    return LinearPart(M), arrays(draw, (d,))


@st.composite
def l1_cases(draw):
    """An l1 part in R^d, d = 1-13, with zero weights among others, a point
    x and a drift value f(x)."""
    d = draw(st.integers(1, 13))
    weights = arrays(draw, (d,), elements=st.sampled_from([0.0, -0.0, 1.0])
                     | st.floats(0.0, 1e300))
    return SeparableL1(weights), arrays(draw, (d,)), arrays(draw, (d,))


def same_bits(got, want) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


class TestVectorFormulasKeepTheirBits:
    """The vector formulas of the step path give the bytes of their forms in
    `np.vecdot` and `@` (see oracles.py) for every float vector in
    d = 1-13, signed zeros, NaN, infinities and 1e+-300 included."""

    @given(case=leaf_cases())
    @example(case=(Halfspace([1.0], 0.0), np.array([-0.0])))
    @example(case=(Halfspace([-1.0], 0.0), np.array([0.0])))
    @settings(max_examples=400, deadline=None)
    def test_norm_slack_and_distance(self, case):
        C, y = case
        with np.errstate(all="ignore"):
            assert same_bits(_norm(y), reference_norm(y))
            assert same_bits(C.distance(y), reference_leaf_distance(C, y))
            if isinstance(C, Halfspace):
                assert same_bits(C._slack(y), reference_slack(C, y))

    @given(case=field_cases())
    @example(case=(AffineField([[1.0]], [-0.0]), np.array([-0.0])))
    @example(case=(AffineField([[0.0]], [-0.0]), np.array([-2.0])))
    @settings(max_examples=300, deadline=None)
    def test_affine_field(self, case):
        f, x = case
        with np.errstate(all="ignore"):
            assert same_bits(f(x), reference_field(f, x))

    @given(case=linear_cases())
    @example(case=(LinearPart([[1.0]]), np.array([-0.0])))
    @settings(max_examples=200, deadline=None)
    def test_linear_part(self, case):
        G, x = case
        with np.errstate(all="ignore"):
            for got, want in zip(G.value(x), reference_value(G, x)):
                assert same_bits(got, want)

    @given(case=l1_cases())
    @example(case=(SeparableL1([0.0]), np.array([-1.0]), np.array([-0.0])))
    @example(case=(SeparableL1([0.5, 0.0]), np.array([0.0, 2.0]), np.array([np.nan, -0.0])))
    @settings(max_examples=300, deadline=None)
    def test_l1_value_then_minimal_norm_pick(self, case):
        # the bounds keep their bytes; the pick may return a singleton's
        # bound where clip returned a NaN f(x), so the selection f(x) - g,
        # which a NaN f(x) makes NaN either way, is compared
        G, x, f_val = case
        with np.errstate(all="ignore"):
            bounds, want = G.value(x), reference_value(G, x)
            assert all(same_bits(b, w) for b, w in zip(bounds, want))
            got = f_val - MinimalNorm().pick(*bounds, f_val)
            assert same_bits(got, f_val - reference_pick(MinimalNorm(), want, f_val, None))


class TestStackNormRows:
    """Each row of `_norm` of a stack, from which `catchup study` takes its
    sup_error in one call, has the bits of the 1-D `np.linalg.norm` of
    that row where its dot product is finite, and of the rescaled norm of
    `reference_norm` where that overflows, in d = 1-13, signed zeros, NaN,
    infinities and 1e+-300 included."""

    @given(data=st.data(), d=st.integers(1, 13), m=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_rows_match_the_vector_norm(self, data, d, m):
        A = arrays(data.draw, (m, d))
        with np.errstate(all="ignore"):
            for row, got in zip(A, _norm(A)):
                want = np.linalg.norm(row)
                if want == np.inf and np.isfinite(row).all():
                    want = reference_norm(row)
                assert same_bits(got, want)


class TestOverflowSafeNorm:
    """A norm whose dot product overflows, of finite entries, is taken of the
    entries scaled by their largest magnitude: within two ulps of
    `math.hypot`, for a vector and for each row of a stack, so that a far
    point projects onto a ball, and a cap, where it should."""

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_norm_against_hypot(self, big):
        rows = np.array([[big, 0.0], [big, big], [-big, 3.0], [0.5 * big, -0.25 * big],
                         [big / 3.0, big / 7.0]])
        with np.errstate(over="ignore"):  # the dot products, before rescaling
            stacked = _norm(rows)
            for row, got in zip(rows, stacked):
                assert _norm(row) == got
                assert got == pytest.approx(math.hypot(*row), rel=4.5e-16)

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_far_point_projects(self, big):
        ball = Ball([0.0, 0.0], 1.0)
        y = np.array([big, 0.0])
        cap = Intersection([ball, Halfspace([0.6, 0.8], 0.5)])
        with np.errstate(over="ignore"):
            assert ball.project(y) == pytest.approx([1.0, 0.0], abs=1e-15)
            assert ball.distance(y) == big
            # beyond 1e6 along e_0, the nearest point of the cap is the rim
            # point of largest x_0
            rim = cap.project(np.array([1e6, 0.0]))
            assert cap.project(y) == pytest.approx(rim, abs=1e-6)
            assert cap.project(y[None])[0] == pytest.approx(rim, abs=1e-6)


# every set type, with a vector and a stack, outside and all inside
ALIAS_CASES = [
    (Box([-1.0, 0.0], [2.0, 3.0]), [[5.0, -1.0], [0.5, 1.0]], [[0.5, 1.0], [0.0, 2.0]]),
    (NonnegOrthant(2), [[-1.0, 2.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 3.0]]),
    (Halfline(), [[-1.0], [2.0]], [[2.0], [0.0]]),
    (Ball([0.0, 0.0], 1.0), [[2.0, 1.0], [0.1, 0.2]], [[0.1, 0.2], [-0.5, 0.0]]),
    (Halfspace([0.6, 0.8], 0.5), [[2.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.2]]),
    (Intersection(CAP), [[2.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.1]]),
]


class TestProjectionsDoNotAlias:
    @pytest.mark.parametrize("C, mixed, inside", ALIAS_CASES,
                             ids=[type(case[0]).__name__ for case in ALIAS_CASES])
    @pytest.mark.parametrize("which", ["vector", "stack"])
    @pytest.mark.parametrize("rows", ["mixed", "inside"])
    def test_result_is_a_fresh_array(self, C, mixed, inside, which, rows):
        points = np.array(mixed if rows == "mixed" else inside)
        y = points[0] if which == "vector" else points
        before = y.copy()
        z = C.project(y)
        assert z is not y and not np.shares_memory(z, y)
        z[...] = 7.0
        assert y.tobytes() == before.tobytes()


# every set type, with boundary points: a box with infinite bounds, the
# orthant and the halfline, the two smooth leaf sets, and the two caps
JUDGED_SETS = {
    "box": (Box([-1.0, 0.0, -np.inf], [2.0, np.inf, 0.0]),
            [[-1.0, 0.0, -0.0], [2.0, 5.0, 0.0], [2.0, 1e308, -1e300]]),
    "orthant": (NonnegOrthant(2), [[0.0, -0.0], [-0.0, 1e308]]),
    "halfline": (Halfline(), [[0.0], [-0.0]]),
    "ball": (Ball([0.5, -0.5], 1.5), [[2.0, -0.5], [0.5, 1.0]]),
    "halfspace": (Halfspace([0.6, 0.8], 0.5), [[0.3, 0.4], [-0.0, 0.625]]),
    "cap": (Intersection(CAP), [[0.5, 0.75 ** 0.5], [-1.0, -0.0]]),
    "thin_cap": (Intersection(THIN_CAP), [[-0.99, (1.0 - 0.99 ** 2) ** 0.5], [-1.0, 0.0]]),
}
SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, 1e200, -1e200, 1e308, -1e308, 0.0, -0.0]
judged_coordinates = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL_FLOATS),
                               st.floats(allow_nan=True, allow_infinity=True))


def judged_queries(name):
    """Vectors for a set of JUDGED_SETS: its boundary points, and rows of
    ordinary, huge, infinite, NaN and signed-zero coordinates."""
    C, edges = JUDGED_SETS[name]
    return st.one_of(st.sampled_from(edges),
                     st.lists(judged_coordinates, min_size=C.dim,
                              max_size=C.dim)).map(np.array)


def _outcome(project, *args):
    """A projection's point as bytes with its membership verdict, or the
    ProjectionError it raises."""
    try:
        z, inside = project(*args)
    except ProjectionError as e:
        return str(e)
    return z.tobytes(), inside


class TestJudgedProjection:
    """A projection's verdict is the bool `contains` gives on its point,
    and the point keeps the bytes of the plain projection."""

    @pytest.mark.parametrize("name", sorted(JUDGED_SETS))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_bound_decides_like_contains(self, name, data):
        C = JUDGED_SETS[name][0]
        y = data.draw(judged_queries(name))

        def judged(y):
            z, member = C.project_judged(y)
            assert type(member) is bool
            return z, member

        def plain(y):
            z = C.project(y)
            return z, C.contains(z)

        with np.errstate(all="ignore"):  # inf - inf and overflowing norms
            assert _outcome(judged, y) == _outcome(plain, y)

    def test_iterative_bound_squared_by_multiplication(self):
        # the member bound d = 0.9899999999 squares to the gap |z - y|^2 as
        # d * d, one ulp above d ** 2, so the policy certifies at eps = 0
        C, y = JUDGED_SETS["thin_cap"][0], np.array([-1e-10, 0.0])
        z, member = IterativeProjection().project(C, y, 0.0)
        assert member and z.tobytes() == reference_iterative_project(C, y, 0.0).tobytes()

    @pytest.mark.parametrize("name", sorted(JUDGED_SETS))
    @given(data=st.data(), eps=st.sampled_from([0.0, 1e-8, 1e-3, 0.1]),
           seed=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_policies_keep_their_points(self, name, data, eps, seed):
        C = JUDGED_SETS[name][0]
        y = data.draw(judged_queries(name))
        iterative = reference_iterative_project if isinstance(C, Intersection) else (
            lambda C, y, eps: C.project(y))
        references = [
            (ExactProjection(), lambda: C.project(y)),
            (PerturbedProjection(seed=seed), lambda: reference_perturbed_project(C, y, eps, seed)),
            (IterativeProjection(), lambda: iterative(C, y, eps)),
        ]
        with np.errstate(all="ignore"):
            for policy, reference in references:
                def judged():
                    z, member = policy.project(C, y, eps)
                    assert type(member) is bool
                    return z, member

                def parent():
                    z = reference()
                    return z, C.contains(z)

                assert _outcome(judged) == _outcome(parent), policy.name


class TestCapVectorPath:
    """The vector path of a ball cut by a halfspace gives its row in the
    stacked closed form, as `ConvexSet` promises a stack's rows: the bytes
    of a finite row, and NaNs in the same places otherwise.  Its bound, the
    larger member distance, passes the membership tolerance just when
    `contains` does on its point, with the bits of `_worst_distance` on a
    member."""

    @given(case=caps_with_points(), swap=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_bytes_and_verdict(self, case, swap, data):
        ball, half, Y = case
        C = Intersection([half, ball] if swap else [ball, half])
        queries = st.lists(judged_coordinates, min_size=C.dim, max_size=C.dim)
        extra = data.draw(st.lists(queries, max_size=4))
        Y = np.concatenate([Y, np.array(extra, dtype=float).reshape(-1, C.dim)])
        with np.errstate(all="ignore"):  # inf - inf and overflowing norms
            for y, row in zip(Y, C._cap_project(Y)):
                z, bound = C._cap_judged(y)
                nan = np.isnan(z)
                assert (nan == np.isnan(row)).all()
                assert z[~nan].tobytes() == row[~nan].tobytes()
                tol = membership_tol(z)
                inside = C.contains(z)
                assert (bound <= tol) == inside
                if inside:
                    assert same_bits(bound, C._worst_distance(z, tol))

    @pytest.mark.parametrize("rows", range(10))
    def test_nan_payload_after_any_rows(self, rows):
        # a NaN with payload 1 comes out of a stack with its payload or a
        # canonical one, by the number of finite rows before it; a caller
        # sees neither, since a projection with a NaN raises
        C = Intersection([Ball([0.0, 0.0], 1.0), Halfspace([0.6, 0.8], 0.5)])
        y = np.array([np.nan, np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0]])
        finite = np.random.default_rng(rows).uniform(-2.0, 2.0, (rows, 2))
        Y = np.vstack([finite, y])
        with np.errstate(invalid="ignore"):
            for query in (Y, y):
                with pytest.raises(ProjectionError):
                    C.project(query)
            Z = C._cap_project(Y)
            z, bound = C._cap_judged(y)
        assert np.isnan(Z[-1]).all() and np.isnan(z).all() and np.isnan(bound)
        assert Z[:-1].tobytes() == C._cap_project(finite).tobytes()
        for x, row in zip(finite, Z):
            assert C._cap_judged(x)[0].tobytes() == row.tobytes()
