"""Closed convex sets with exact and inexact projections.

Every constraint region used by the solver is a ConvexSet: it knows its
distance function, its metric projection, and the projection onto its
tangent cone at a feasible point.  On top of those primitives this module
provides the eps-relaxed projection (any feasible point whose squared
distance to the query exceeds the minimum by at most eps), returned with
the membership verdict that its projection already reached, the Moreau
split of a vector into tangent and normal components, and a sampling
certificate for membership of a vector in the delta-approximate normal
cone {v : <v, z - x> <= delta for all z in C}.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ConfigError",
    "GeometryError",
    "ProjectionError",
    "ConvexSet",
    "Box",
    "NonnegOrthant",
    "Halfline",
    "Ball",
    "Halfspace",
    "Intersection",
    "ExactProjection",
    "PerturbedProjection",
    "IterativeProjection",
    "NormalConeCertificate",
    "membership_tol",
    "approx_project",
    "moreau_decompose",
    "in_approx_normal_cone",
    "probe_count",
    "probe_stack",
    "build_record",
    "ConfigRecord",
    "set_from_config",
]

# x is considered a member of C when distance(C, x) <= MEMBERSHIP_RTOL * (1 + |x|),
# and of an intersection when that holds for every member set.  Scheme
# iterates land within roundoff of the boundary, so exact membership tests
# are useless; this scale-aware tolerance is used everywhere.
MEMBERSHIP_RTOL = 1e-9

# The probe recipe of a normal-cone certificate at x: window half-width
# W = PROBE_WINDOW_SCALE * (1 + |x|), corners up to MAX_CORNER_DIM (2^dim of
# them), and PROBE_DRAWS uniform draws from a generator seeded with PROBE_SEED.
PROBE_WINDOW_SCALE = 10.0
MAX_CORNER_DIM = 10
PROBE_DRAWS = 16
PROBE_SEED = 0

# the Dykstra sweeps an intersection may take unless its config gives a budget
DYKSTRA_BUDGET = 200

# the share of the slack eps that PerturbedProjection spends on its perturbation
SLACK_FRACTION = 0.9


class ConfigError(ValueError):
    """Anything wrong with the experiment description itself."""


class GeometryError(Exception):
    """A geometric operation failed (infeasible point, budget exhausted, ...)."""


class ProjectionError(GeometryError):
    """A projection policy could not certify its output within budget."""


def membership_tol(x: NDArray) -> float | NDArray:
    """The membership tolerance of a point, or of each row of a stack."""
    return MEMBERSHIP_RTOL * (1.0 + _norm(np.asarray(x)))


# a float64 ndarray of at least one dimension is what the converters below
# would make of it, so they return it as it is and only check its shape
_FLOAT = np.dtype(float)


def _as_vector(y, dim: int) -> NDArray:
    if type(y) is np.ndarray and y.dtype is _FLOAT and y.shape == (dim,):
        return y
    v = np.atleast_1d(np.asarray(y, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def _as_points(y, dim: int) -> NDArray:
    """y as a vector (dim,) or a stack of vectors (m, dim)."""
    if type(y) is np.ndarray and y.dtype is _FLOAT and 0 < y.ndim < 3 and y.shape[-1] == dim:
        return y
    p = np.atleast_1d(np.asarray(y, dtype=float))
    if p.ndim > 2:
        raise ValueError(f"expected a vector or a stack of vectors, got shape {p.shape}")
    if p.shape[-1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {p.shape[-1]}")
    return p


def _norm(a: NDArray):
    """Euclidean norm over the last axis: a float for a vector, an array for
    a stack.  Each row is summed like the 1-D `np.linalg.norm` (sqrt of the
    row's dot product), so a row of a stack gets the bits of that row on its
    own; `np.linalg.norm(a, axis=1)` sums in another order.  A vector's
    `a.dot(a)` has the bits of `np.vecdot(a, a)` at half its cost.  Where
    the dot product overflows (numpy warns of it) and the entries are finite,
    the norm is that of the entries divided by their largest magnitude,
    times that magnitude, as BLAS dnrm2 scales."""
    if a.ndim == 1:
        nrm = math.sqrt(a.dot(a))
        if nrm == math.inf and np.isfinite(a).all():
            scale = float(np.abs(a).max())
            return scale * _norm(a / scale)
        return nrm
    nrm = np.sqrt(np.vecdot(a, a))
    over = (nrm == np.inf) & np.isfinite(a).all(axis=-1)
    if over.any():
        scale = np.abs(a[over]).max(axis=-1)
        nrm[over] = scale * _norm(a[over] / scale[:, None])
    return nrm


# --- config records --------------------------------------------------------

def check_integer(value, name: str = "seed", minimum: int = 0) -> int:
    """`value` as an int; ValueError naming it unless it is an integer no
    smaller than `minimum`, checked as given: a bool, a float or a string
    is not one.  The default is the seeds a generator takes."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        what = "a nonnegative integer" if minimum == 0 else f"an integer of at least {minimum}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def check_number(value, name: str, finite: bool = True) -> float:
    """`value` as a float; ValueError naming it unless it is a real number
    within float range, checked as given: a bool or a string is not one.
    NaN is never accepted, and +-inf only where `finite` is False.  The
    message echoes a value that is not a number in a bounded repr."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:
            pass
        else:
            if math.isfinite(x) or not (finite or math.isnan(x)):
                return x
            raise ValueError(f"{name} must {'be finite' if finite else 'not be NaN'}, got {x}")
    raise ValueError(f"{name} must be a number, got {reprlib.repr(value)}")


def check_array(value, name: str, ndim: int = 1, finite: bool = True) -> NDArray:
    """`value` as a read-only float64 array of `ndim` (1 or 2) axes, a lone
    number as a vector of one; ValueError names an entry that is not a
    number, a list nested too deep included (`name[0][1]`), or the field:
    for ragged rows, a matrix short of an axis, or an inf where `finite`."""
    def entries(v, at, depth):
        if isinstance(v, (list, tuple, np.ndarray)) and depth < ndim:
            return [entries(e, f"{at}[{i}]", depth + 1) for i, e in enumerate(v)]
        return check_number(v, at, finite=False)

    nested = entries(value, name, 0)
    try:
        a = np.array(nested, dtype=float, ndmin=1)
    except ValueError:  # nested lists of unequal lengths
        raise ValueError(f"{name} must have rows of equal length") from None
    if a.ndim != ndim:
        raise ValueError(f"{name} must be a list of rows, got shape {a.shape}")
    if finite and not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    a.flags.writeable = False
    return a


def build_record(family: str, registry: dict, spec, tag: str | None, default=None, seed=None):
    """Build what a config record of `family` describes.

    The record's `tag` key (`default` when it has none; an untagged record
    has `tag` None) picks the registry entry: a class, or a function where
    the record's keys differ from the constructor's.  The other keys are
    the entry's arguments, matched against its signature; `seed` goes to a
    `seed` parameter the record leaves unset.  A record that is not a
    mapping, an unknown kind, an unknown or missing field, and any error
    the entry raises are a ConfigError prefixed with `family`.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{family} must be a mapping" + (f" with a {tag!r}" if tag else ""))
    kind = spec.get(tag, default)
    try:
        build = registry[kind]
    except (KeyError, TypeError):
        raise ConfigError(f"{family}: unknown {tag} {kind!r} (known: {sorted(registry)})") from None
    of = f" for {tag} {kind!r}" if tag else ""
    fields = {k: v for k, v in spec.items() if k != tag}
    params = _parameters(build)
    for name in fields:
        if name not in params:
            raise ConfigError(f"{family}: unknown field {name!r}{of}")
    if seed is not None and "seed" in params:
        fields.setdefault("seed", seed)
    for name, p in params.items():
        if p.default is p.empty and name not in fields:
            raise ConfigError(f"{family}: missing field {name!r}{of}")
    try:
        return build(**fields)
    except ConfigError:  # a nested record's, already labelled
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{family}: {e}") from None


@functools.cache  # registries hold module-level builders, never a lambda made per call
def _parameters(build):
    return inspect.signature(build).parameters


class ConfigRecord:
    """What a tagged config record builds, written back through the
    signature `build_record` reads it with: `to_config` gives the class's
    {"type": variant} and one entry per constructor parameter, read from
    the attribute of the same name, arrays as lists and nested records as
    records."""

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in _parameters(type(self))}

    def to_config(self) -> dict:
        return {"type": self.variant, **{k: _record_value(v) for k, v in self._fields().items()}}


def _record_value(value):
    if isinstance(value, list):
        return [_record_value(v) for v in value]
    return value.to_config() if isinstance(value, ConfigRecord) else np.asarray(value).tolist()


class ConvexSet(ConfigRecord):
    """Base class: a nonempty closed convex subset of R^dim.

    `project`, `distance` and `contains` take a vector (dim,) or a stack of
    vectors (m, dim).  A finite row of a stacked result has the bits of the
    call on that row alone, and a row with a non-finite coordinate has NaNs
    in the same places.  A vector gives an array, a float and a bool, in
    Python floats; a stack (m, dim), (m,) float and (m,) bool arrays.
    """

    dim: int
    # whether the projection acts on each coordinate alone, so that it
    # commutes with taking coordinates from other points
    separable = False

    def project(self, y) -> NDArray:
        """The metric projection of a vector (dim,) or of each row of a stack (m, dim)."""
        raise NotImplementedError

    def distance(self, y) -> float | NDArray:
        """The distance to the set of a vector, or of each row of a stack."""
        y = _as_points(y, self.dim)
        return _norm(y - self.project(y))

    def contains(self, x) -> bool | NDArray:
        """Whether a vector, or each row of a stack, is within its
        `membership_tol` of the set."""
        x = _as_points(x, self.dim)
        return self.distance(x) <= membership_tol(x)

    def project_judged(self, y) -> tuple[NDArray, bool]:
        """The projection z of a vector y and the bool `contains(z)` gives:
        here d_C(z) <= membership_tol(z).  A box (z finite) and an
        intersection (always True) take the test their projection made."""
        z = self.project(y)
        return z, self.distance(z) <= membership_tol(z)

    def tangent_project(self, x, u) -> NDArray:
        """Project u onto the tangent cone of the set at the feasible point x."""
        return self._tangent(self.require_member(x), _as_vector(u, self.dim))

    def _tangent(self, x: NDArray, u: NDArray) -> NDArray:
        """`tangent_project` of a checked member x and vector u."""
        raise NotImplementedError

    def require_member(self, x) -> NDArray:
        x = _as_vector(x, self.dim)
        if not np.all(np.isfinite(x)):
            raise GeometryError(f"point {x} is not in the set (non-finite coordinates)")
        if not self.contains(x):  # a NaN distance fails too
            raise GeometryError(f"point {x} is not in the set (distance at least "
                                f"{self.distance_lower_bound(x):.3e} exceeds tolerance)")
        return x

    def distance_lower_bound(self, y) -> float:
        """A lower bound on the distance of a vector to the set that needs
        no iterative projection; the distance itself for a simple set."""
        return self.distance(_as_vector(y, self.dim))

    def bounding_radius(self) -> float:
        """sup over the set of |x|; inf for unbounded sets."""
        return np.inf

    def __repr__(self):
        args = (f"{k}={v.tolist() if isinstance(v, np.ndarray) else v!r}"
                for k, v in self._fields().items())
        return f"{type(self).__name__}({', '.join(args)})"


class Box(ConvexSet):
    """Axis-aligned box [lower, upper]; bounds may be infinite."""

    variant = "box"
    separable = True

    def __init__(self, lower, upper):
        self.lower = check_array(lower, "lower", finite=False)
        self.upper = check_array(upper, "upper", finite=False)
        if self.lower.shape != self.upper.shape:
            raise ValueError("box bounds must be vectors of equal length")
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.dim = self.lower.shape[0]

    def project(self, y) -> NDArray:
        return _as_points(y, self.dim).clip(self.lower, self.upper)

    def project_judged(self, y) -> tuple[NDArray, bool]:
        # clip lands in [lower, upper] exactly, so a finite z is a member; a
        # finite z beyond 1e154 overflows z.z, hence the second test
        z = self.project(y)
        return z, math.isfinite(z.dot(z)) or bool(np.isfinite(z).all())

    def _tangent(self, x: NDArray, u: NDArray) -> NDArray:
        out = u.copy()
        tol = membership_tol(x)
        at_lower = x <= self.lower + tol
        at_upper = x >= self.upper - tol
        # Active lower bound forbids inward-negative directions, upper the mirror;
        # a pinched coordinate (both active) admits no motion at all.
        out[at_lower] = np.maximum(out[at_lower], 0.0)
        out[at_upper] = np.minimum(out[at_upper], 0.0)
        return out

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))


class NonnegOrthant(Box):
    """The nonnegative orthant [0, inf)^dim."""

    variant = "nonneg_orthant"

    def __init__(self, dim: int):
        dim = check_integer(dim, "dim", minimum=1)
        super().__init__(np.zeros(dim), np.full(dim, np.inf))


class Halfline(NonnegOrthant):
    """The one-dimensional halfline [0, inf)."""

    variant = "halfline"

    def __init__(self):
        super().__init__(1)


class Ball(ConvexSet):
    """Closed Euclidean ball of given center and radius."""

    variant = "ball"

    def __init__(self, center, radius: float):
        self.center = check_array(center, "center")
        self.radius = check_number(radius, "radius")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        self.dim = self.center.shape[0]

    def project(self, y) -> NDArray:
        y = _as_points(y, self.dim)
        d = y - self.center
        nrm = _norm(d)
        if y.ndim == 1:  # one point: no row masks
            return y.copy() if nrm <= self.radius else self.center + (self.radius / nrm) * d
        inside = nrm <= self.radius
        # rows inside stay put; only the others are scaled onto the sphere
        # (an inside row divides by inf, so a zero norm is never a divisor)
        scale = self.radius / np.where(inside, np.inf, nrm)
        return np.where(inside[..., None], y, self.center + scale[..., None] * d)

    def distance(self, y) -> float | NDArray:
        y = _as_points(y, self.dim)
        gap = _norm(y - self.center) - self.radius
        # max keeps a NaN and a -0.0 gap as np.maximum does
        return max(gap, 0.0) if y.ndim == 1 else np.maximum(gap, 0.0)

    def _tangent(self, x: NDArray, u: NDArray) -> NDArray:
        d = x - self.center
        nrm = float(np.linalg.norm(d))
        if nrm < self.radius - membership_tol(x):
            return u.copy()
        if nrm == 0.0:
            # radius ~ 0 degenerate ball: only the zero direction is tangent
            return np.zeros_like(u)
        n = d / nrm
        return u - max(float(n @ u), 0.0) * n

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius


class Halfspace(ConvexSet):
    """Halfspace {x : <normal, x> <= offset} with a unit normal, up to 1e-9;
    projections divide by |normal|^2 and distances by |normal|, so a far
    point still lands on it and its distance is how far it moves."""

    variant = "halfspace"

    def __init__(self, normal, offset: float):
        self.normal = check_array(normal, "normal")
        self.offset = check_number(offset, "offset")
        nrm = float(np.linalg.norm(self.normal))
        if nrm == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError("halfspace normal must be a unit vector")
        # not n @ n: whenever the norm rounds to 1.0 this is 1.0 too, and the
        # projections and distances keep the bits of y - s n and s
        self.norm = nrm
        self.norm_sq = nrm * nrm
        self.dim = self.normal.shape[0]

    def project(self, y) -> NDArray:
        y = _as_points(y, self.dim)
        s = self._slack(y)
        if y.ndim == 1:  # one point: no row masks
            return y.copy() if s <= 0 else y - s / self.norm_sq * self.normal
        return np.where((s <= 0)[..., None], y, y - (s / self.norm_sq)[..., None] * self.normal)

    def distance(self, y) -> float | NDArray:
        y = _as_points(y, self.dim)
        s = self._slack(y)
        return (max(s, 0.0) if y.ndim == 1 else np.maximum(s, 0.0)) / self.norm

    def _slack(self, y: NDArray):
        """<normal, y> - offset: a float for a vector, an array for a stack.
        `+ 0.0` makes 0.0 of the -0.0 that `y.dot` keeps of a one-coordinate
        product, as `np.vecdot`, which sums from 0.0, does."""
        if y.ndim == 1:
            return float(y.dot(self.normal)) + 0.0 - self.offset
        return np.vecdot(y, self.normal) - self.offset

    def _tangent(self, x: NDArray, u: NDArray) -> NDArray:
        if float(self.normal @ x) - self.offset < -membership_tol(x):
            return u.copy()
        return u - max(float(self.normal @ u), 0.0) / self.norm_sq * self.normal


def _sweep(projectors, z: NDArray, corrections: list) -> tuple[NDArray, list]:
    """One sweep of Dykstra's alternating-correction scheme for projecting
    onto an intersection: from the iterate z (a vector or a stack), each
    member in turn projects z + q_i and its correction q_i becomes what the
    projection removed.  Unlike plain alternating projections, the
    corrections make the limit the metric projection onto the intersection,
    not just some feasible point.  Updates `corrections` in place and
    returns the new iterate with the point z_i each member produced."""
    points = []
    for i, proj in enumerate(projectors):
        w = z + corrections[i]
        z = proj(w)
        corrections[i] = w - z
        points.append(z)
    return z, points


def _dykstra_limit(projectors, y: NDArray, budget: int, tol) -> NDArray:
    """For a vector y, or for each row of a stack: the first Dykstra iterate
    that moved by at most tol (a float, or one per row) in its sweep, or
    the last one when the budget runs out.  Every row sweeps until no row
    is pending, and a row's limit is copied while it is pending."""
    corrections = [0.0] * len(projectors)  # z + 0.0 has the bits of z + zeros
    limit = y.copy()
    pending = np.ones(y.shape[:-1], dtype=bool)
    z_prev = y
    for _ in range(budget):
        z = _sweep(projectors, z_prev, corrections)[0]
        np.copyto(limit, z, where=pending[..., None])
        # logical_not takes a vector's bool too, and keeps a NaN move pending
        pending &= np.logical_not(_norm(z - z_prev) <= tol)
        if not pending.any():  # also an empty stack, after its one sweep
            break
        z_prev = z
    return limit


class Intersection(ConvexSet):
    """Intersection of convex sets.

    The intersection is assumed nonempty (caller contract).  One ball and
    one halfspace, in either order, project in closed form (`_cap_judged`,
    `_cap_project` for a stack); any other intersection sweeps through
    Dykstra's scheme, within `budget` sweeps and exact only up to the
    internal stopping tolerance.  A projected point that fails the test of
    `contains` raises ProjectionError, so `project_judged`'s verdict is True.
    The certified route for a stated slack is `approx_project` with the
    Iterative policy, which sweeps through Dykstra on every intersection.
    """

    variant = "intersection"

    def __init__(self, members, budget: int = DYKSTRA_BUDGET):
        members = list(members)
        if not members:
            raise ValueError("intersection needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError("intersection members must share a dimension")
        self.members = members
        self.budget = check_integer(budget, "budget", minimum=1)
        self.dim = members[0].dim
        self._cap = None
        if len(members) == 2 and {type(m) for m in members} == {Ball, Halfspace}:
            ball, half = sorted(members, key=lambda m: type(m) is Halfspace)
            # the disc where the sphere meets the hyperplane: its centre c'
            # and radius rho, from the centre's signed distance t to the plane
            s = half._slack(ball.center)
            t = s / half.norm
            rho = math.sqrt(max((ball.radius - t) * (ball.radius + t), 0.0))
            self._cap = ball, half, ball.center - (s / half.norm_sq) * half.normal, rho

    def project(self, y) -> NDArray:
        return self._judged(_as_points(y, self.dim))

    def project_judged(self, y) -> tuple[NDArray, bool]:
        return self._judged(_as_vector(y, self.dim)), True

    def _judged(self, y: NDArray) -> NDArray:
        """The projection of a vector, or of each row of a stack, judged a
        member as `contains` judges it; ProjectionError when it is not."""
        if self._cap and y.ndim == 1:
            z, worst = self._cap_judged(y)
            # membership_tol is MEMBERSHIP_RTOL at least, which passes roundoff
            tol = MEMBERSHIP_RTOL if worst <= MEMBERSHIP_RTOL else membership_tol(z)
        else:
            z = self._cap_project(y) if self._cap else _dykstra_limit(
                [m.project for m in self.members], y, self.budget, 1e-13 * (1.0 + _norm(y)))
            tol = membership_tol(z)
            worst = self._worst_distance(z, tol)
        if not (worst <= tol if z.ndim == 1 else (worst <= tol).all()):
            raise ProjectionError("closed-form projection is not a member" if self._cap else
                                  f"Dykstra sweep budget {self.budget} exhausted before "
                                  "reaching feasibility")
        return z

    def _cap_project(self, y: NDArray) -> NDArray:
        """The metric projection onto a ball B n halfspace H of each row of
        a stack, by the active constraints (Bauschke & Combettes, ch. 29):
        P_B(y) if it lies in H, else P_H(y) if it lies in B, else the point
        of the rim circle (centre c', radius rho, in the hyperplane) nearest
        the hyperplane projection p of y.  Rows take their cases by masks, so
        a row keeps the bits of `_cap_judged` on its point alone."""
        ball, half, rim_centre, rho = self._cap
        on_ball = ball.project(y)
        in_half = half._slack(on_ball) <= 0
        on_half = half.project(y)
        in_ball = _norm(on_half - ball.center) <= ball.radius
        # d = p - c' for p, the projection onto the hyperplane: not P_H(y),
        # which leaves a y inside H where it is
        d = y - (half._slack(y) / half.norm_sq)[:, None] * half.normal - rim_centre
        nrm = _norm(d)
        # only rim rows divide, and a zero norm never (as in Ball.project)
        scale = rho / np.where(~(in_half | in_ball) & (nrm != 0), nrm, np.inf)
        rim = rim_centre + scale[:, None] * d
        return np.where(in_half[:, None], on_ball, np.where(in_ball[:, None], on_half, rim))

    def _cap_judged(self, y: NDArray) -> tuple[NDArray, float]:
        """`_cap_project` of a vector, with its larger member distance from
        the norms and slacks its cases compute: the bits of the stack's row
        and, on a member, of `_worst_distance`.  z is finite or has a NaN,
        which makes both distances NaN, so the verdict is that of `contains`."""
        ball, half, rim_centre, rho = self._cap
        d = y - ball.center
        nrm, s = _norm(d), half._slack(y)
        if nrm <= ball.radius:  # P_B(y) is y, with y's norm and slack; copied if returned
            z, slack = y.copy() if s <= 0 else y, s
        else:
            z = ball.center + (ball.radius / nrm) * d
            slack = half._slack(z)
            if slack <= 0:  # z is the answer
                nrm = _norm(z - ball.center)
        if not slack <= 0:
            p = y - (s / half.norm_sq) * half.normal
            # P_H(y) is p for s > 0, and else y, which lies outside B
            nrm = _norm(p - ball.center) if s > 0 else math.inf
            if nrm <= ball.radius:
                z, slack = p, half._slack(p)
            else:
                d = p - rim_centre
                dn = _norm(d)
                z = rim_centre + (rho / dn if dn != 0 else 0.0) * d
                nrm, slack = _norm(z - ball.center), half._slack(z)
        return z, max(max(nrm - ball.radius, 0.0), max(slack, 0.0) / half.norm)

    def distance_lower_bound(self, y) -> float:
        """max_i d_{C_i}(y), a certified lower bound on the intersection distance.
        A point outside the intersection is outside some member, so the bound
        exceeds the membership tolerance whenever `contains` fails."""
        y = _as_vector(y, self.dim)
        return max(m.distance(y) for m in self.members)

    def _tangent(self, x: NDArray, u: NDArray) -> NDArray:
        # The tangent cone of the intersection is the intersection of the
        # members' tangent cones (nonempty-interior contract), each of which
        # we can project onto, so Dykstra applies verbatim; x is a member of
        # every member, so their projections take it unchecked.
        projectors = [lambda v, m=m: m._tangent(x, v) for m in self.members]
        tol = 1e-14 * (1.0 + float(np.linalg.norm(u)))
        return _dykstra_limit(projectors, u, self.budget, tol)

    def contains(self, x) -> bool | NDArray:
        x = _as_points(x, self.dim)
        tol = membership_tol(x)
        return self._worst_distance(x, tol) <= tol

    def _worst_distance(self, x: NDArray, tol):
        """The largest member distance of a vector, or of each row of a
        stack, judged against tol member by member: it stops at the first
        member a vector fails, or once no row passes, and a NaN distance
        stays NaN, so `worst <= tol` is the membership verdict."""
        if x.ndim == 1:
            worst = 0.0
            for m in self.members:
                d = m.distance(x)
                if not d <= tol:
                    return d
                worst = max(worst, d)
            return worst
        worst = np.zeros(x.shape[0])
        for m in self.members:
            worst = np.maximum(worst, m.distance(x))
            if not (worst <= tol).any():
                break
        return worst

    def bounding_radius(self) -> float:
        return min(m.bounding_radius() for m in self.members)


def moreau_decompose(C: ConvexSet, x, u) -> tuple[NDArray, NDArray]:
    """Split u at x in C into (tangential, normal), its tangent and normal cone parts.

    The two parts add up to u exactly and are mutually orthogonal; the
    normal part is obtained as the residual, which keeps the reconstruction
    identity exact in floating point.
    """
    u = _as_vector(u, C.dim)
    t = C.tangent_project(x, u)
    return t, u - t


# --- approximate projection policies -------------------------------------
#
# A policy's `project(C, y, eps, rng)` returns a point z of C with
# |z - y|^2 <= d_C(y)^2 + eps, together with the bool `C.contains(z)` gives,
# as its projection judged it (see `ConvexSet.project_judged`), so the
# caller never projects z again; `seed` is None for deterministic policies,
# else the seed of the generator a run hands to `project`.  `exact` marks
# the metric projection, under which a normal term must pass its cone
# certificate.  A policy's config record holds its constructor arguments
# (see `build_record`).

@dataclass(frozen=True)
class ExactProjection:
    """Return the metric projection (valid for any eps)."""

    name = "exact"
    seed = None
    exact = True

    def project(self, C: ConvexSet, y: NDArray, eps: float, rng=None) -> tuple[NDArray, bool]:
        return C.project_judged(y)


@dataclass(frozen=True)
class PerturbedProjection:
    """Stress-test policy: move the exact projection along the set while the
    eps-inequality |z - y|^2 <= d_C(y)^2 + eps certifiably survives.

    The perturbation radius r solves (d + r)^2 = d^2 + SLACK_FRACTION * eps,
    so nonexpansiveness of the re-projection guarantees the contract.
    """

    seed: int = 0
    name = "perturbed"
    exact = False

    def __post_init__(self):
        check_integer(self.seed)

    def project(self, C: ConvexSet, y: NDArray, eps: float, rng=None) -> tuple[NDArray, bool]:
        z0, member0 = C.project_judged(y)
        if eps == 0.0:
            return z0, member0
        d = float(np.linalg.norm(z0 - y))
        slack = SLACK_FRACTION * eps
        r = -d + np.sqrt(d * d + slack)
        if rng is None:
            rng = np.random.default_rng(self.seed)
        direction = rng.standard_normal(C.dim)
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            return z0, member0
        z, member = C.project_judged(z0 + (r / nrm) * direction)
        # By nonexpansiveness |z - z0| <= r, hence |z - y| <= d + r and the
        # contract holds by construction; verify anyway and fall back.
        if float(np.add.reduce((z - y) ** 2)) <= d * d + eps:
            return z, member
        return z0, member0


@dataclass(frozen=True)
class IterativeProjection:
    """Dykstra sweeps onto an Intersection with a certified stop.

    Accept the iterate z, judged a member (verdict True), once |z - y|^2 <=
    lb + eps.  lb, a certified lower bound on d_C(y)^2, is the larger of the
    squared worst member distance of y, measured only when a feasible z or
    the budget error needs it, and the squared distances of y to the
    separating halfspaces {u : <n, u> <= sum_i <q_i, z_i>} built each sweep
    from the Dykstra corrections q_i (each lies in the normal cone of its
    member at the point it was produced, so the halfspace contains C).  It
    converges to d_C(y)^2, so any eps > 0 is eventually certifiable when the
    sweeps converge.  Other sets are projected exactly.
    """

    name = "iterative"
    seed = None
    exact = False

    def project(self, C: ConvexSet, y: NDArray, eps: float, rng=None) -> tuple[NDArray, bool]:
        if not isinstance(C, Intersection):
            return C.project_judged(y)
        projectors = [m.project for m in C.members]
        corrections = [0.0] * len(projectors)  # z + 0.0 has the bits of z + zeros
        # the separating bound; the member bound d joins it as d * d (a float
        # power would raise OverflowError, not give inf), first so that a
        # NaN stays, once a feasible iterate or the message needs it
        lb, joined = 0.0, False
        z = y
        for _ in range(C.budget):
            z, points = _sweep(projectors, z, corrections)
            # 0 + q_0 + q_1 + ...: the order, and the 0.0 start, of np.sum(axis=0)
            n = sum(corrections)
            nn = math.sqrt(n.dot(n))
            if nn > 0.0:
                # `.dot` differs from `@` only in the sign of a zero, and a
                # zero sep fails the test whatever its sign
                qp = sum(float(q.dot(p)) for q, p in zip(corrections, points))
                sep = (float(n.dot(y)) - qp) / nn
                if sep > 0.0:
                    lb = max(lb, sep * sep)
            tol = membership_tol(z)
            if C._worst_distance(z, tol) <= tol:
                gap = float(np.add.reduce((z - y) ** 2))
                if not (gap <= lb + eps or joined):
                    lb, joined = max((d := C.distance_lower_bound(y)) * d, lb), True
                if gap <= lb + eps:
                    return z, True
        lb = lb if joined else max((d := C.distance_lower_bound(y)) * d, lb)
        raise ProjectionError(
            "Dykstra sweeps could not certify the eps-inequality "
            f"within {C.budget} sweeps (eps={eps:.3e}, distance bound {lb:.3e})"
        )


# config kind -> policy
PROJECTION_POLICIES = {
    "exact": ExactProjection,
    "perturbed": PerturbedProjection,
    "iterative": IterativeProjection,
}


def approx_project(C: ConvexSet, y, eps: float, policy=None,
                   rng=None) -> tuple[NDArray, bool]:
    """A point z in C with |z - y|^2 <= distance(C, y)^2 + eps, and the
    bool `C.contains(z)` gives (see `ConvexSet.project_judged`).

    The returned point always satisfies the inequality; a policy that cannot
    certify it within budget raises ProjectionError.
    """
    if not eps >= 0:  # NaN too
        raise ValueError(f"eps must be nonnegative, got {eps}")
    y = _as_vector(y, C.dim)
    return (policy or ExactProjection()).project(C, y, eps, rng)


# --- delta-approximate normal cone certificates ---------------------------

def probe_count(dim: int) -> int:
    """The probe points of one certificate in R^dim: x and its queries."""
    return 1 + _probe_layout(dim)[0].size // dim


@dataclass(frozen=True)
class NormalConeCertificate:
    holds: bool
    worst_violation: float
    witness: NDArray
    delta: float
    window: float
    n_probes: int
    seed: int

    def to_record(self) -> dict:
        return {
            "holds": bool(self.holds),
            "worst_violation": float(self.worst_violation),
            "witness": np.asarray(self.witness).tolist(),
            "delta": float(self.delta),
            "window": float(self.window),
            "n_probes": int(self.n_probes),
            "seed": int(self.seed),
        }


@functools.cache
def _probe_layout(dim: int):
    """What the probe recipe in R^dim takes from dim alone, read-only: the
    column of `probe_stack`'s per-row table that each coordinate of each
    query takes, and the PROBE_DRAWS draws U (PROBE_DRAWS, dim) of a
    generator seeded with PROBE_SEED."""
    # column c dim + i of the table is coordinate i of its row c: x_i + (-W),
    # x_i + W or x_i for c = 0, 1, 2, and x_i plus draw j for c = 3 + j.  The
    # axis extremes, in the order (-W e_0, +W e_0, -W e_1, ...), keep x_i off
    # their own axis, so a -0.0 there stays -0.0
    axis = np.arange(dim)
    extremes = np.full((2 * dim, dim), 2)
    extremes[2 * axis, axis] = 0
    extremes[2 * axis + 1, axis] = 1
    rows = [extremes]
    if dim <= MAX_CORNER_DIM:
        # corner j has sign +1 in coordinate i when bit i of j is set
        rows.append((np.arange(2 ** dim)[:, None] >> axis) & 1)
    rows.append(np.broadcast_to(np.arange(3, 3 + PROBE_DRAWS)[:, None], (PROBE_DRAWS, dim)))
    index = (np.concatenate(rows) * dim + axis).ravel()
    U = np.random.default_rng(PROBE_SEED).random((PROBE_DRAWS, dim))
    index.flags.writeable = U.flags.writeable = False
    return index, U


def probe_stack(C: ConvexSet, X) -> tuple[NDArray, NDArray]:
    """The probe points of the certificates at the rows x_i of X (m, dim),
    projected in one call, and their window half-widths W (m,).

    Row i of the (m, P, dim) points holds x_i itself, then, each projected
    onto C, the window's axis extremes x_i -+ W_i e_j, its corners
    x_i + W_i s (for dim <= MAX_CORNER_DIM) and PROBE_DRAWS uniform
    draws from it, the same draws for every row.  A finite row i is bit for
    bit what the certificate at x_i alone probes; a row with a NaN or
    infinite coordinate has its NaNs in the same places (see `ConvexSet`).
    """
    X = _as_points(X, C.dim)
    m, dim = X.shape
    index, U = _probe_layout(dim)
    W = PROBE_WINDOW_SCALE * (1.0 + _norm(X))
    Wr = W[:, None, None]
    # the rows every query takes its coordinates from; rng.uniform(-W, W)
    # computes -W + (W - -W) U from the draws U of `random`
    table = np.empty((m, 3 + PROBE_DRAWS, dim))
    table[:, 0] = X + -W[:, None]
    table[:, 1] = X + W[:, None]
    table[:, 2] = X
    table[:, 3:] = X[:, None] + (-Wr + (Wr - -Wr) * U)
    if C.separable:  # project the table's rows, fewer than the queries taken from them
        table = C.project(table.reshape(-1, dim))
    queries = np.take(table.reshape(m, -1), index, axis=1).reshape(-1, dim)
    points = np.empty((m, index.size // dim + 1, dim))
    points[:, 0] = X
    points[:, 1:] = (queries if C.separable else C.project(queries)).reshape(m, -1, dim)
    return points, W


def in_approx_normal_cone(C: ConvexSet, x, v, delta: float,
                          points: tuple[NDArray, float] | None = None) -> NormalConeCertificate:
    """Sampled certificate for v in {u : <u, z - x> <= delta for all z in C}.

    The quantifier runs over all of C, which is not checkable for unbounded
    sets; the certificate therefore samples a declared window around x and
    records it.  `holds` is the verdict over the probed points only.
    A certificate that builds its own probes first requires x to be a
    member of C.  `points`, when given, is the certificate's row of
    `probe_stack` at x with its window, (points (P, dim), W), which it then
    does not rebuild; x is then taken as judged by the step that produced
    it (a run's x_{k+1} passed its projection's verdict, that of
    `C.contains`) and is not judged again.
    """
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    if points is None:
        x = C.require_member(x)
        stack, windows = probe_stack(C, x[None, :])
        points = stack[0], float(windows[0])
    x = _as_vector(x, C.dim)
    v = _as_vector(v, C.dim)
    pts, W = points
    vals = (pts - x) @ v
    worst = int(vals.argmax())
    worst_val = float(vals[worst])
    tol = 1e-12 * (1.0 + math.sqrt(v.dot(v)) * (1.0 + W))
    return NormalConeCertificate(
        holds=worst_val <= delta + tol,
        worst_violation=worst_val,
        witness=pts[worst],
        delta=float(delta),
        window=float(W),
        n_probes=int(pts.shape[0]),
        seed=PROBE_SEED,
    )


def _intersection(members, budget=DYKSTRA_BUDGET):
    return Intersection([set_from_config(m) for m in members], budget)


# config type -> set
_SET_BUILDERS = {
    "box": Box,
    "ball": Ball,
    "halfspace": Halfspace,
    "nonneg_orthant": NonnegOrthant,
    "halfline": Halfline,
    "intersection": _intersection,
}


def set_from_config(cfg: dict) -> ConvexSet:
    """Build a ConvexSet from a tagged configuration record."""
    return build_record("C", _SET_BUILDERS, cfg, "type")
