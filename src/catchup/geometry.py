"""Closed convex sets with exact and inexact projections.

Every constraint region used by the solver is a ConvexSet: it knows its
distance function, its metric projection, and the projection onto its
tangent cone at a feasible point.  On top of those primitives this module
provides the eps-relaxed projection (any feasible point whose squared
distance to the query exceeds the minimum by at most eps), the Moreau
split of a vector into tangent and normal components, and a sampling
certificate for membership of a vector in the delta-approximate normal
cone {v : <v, z - x> <= delta for all z in C}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "GeometryError",
    "ProjectionError",
    "ConvexSet",
    "Box",
    "NonnegOrthant",
    "Halfline",
    "Ball",
    "Halfspace",
    "Intersection",
    "ConePair",
    "ExactProjection",
    "PerturbedProjection",
    "IterativeProjection",
    "NormalConeCertificate",
    "ProbeSpec",
    "membership_tol",
    "approx_project",
    "moreau_decompose",
    "in_approx_normal_cone",
    "sample_points",
    "set_from_config",
]

# x is considered a member of C when distance(C, x) <= MEMBERSHIP_RTOL * (1 + |x|).
# Scheme iterates land within roundoff of the boundary, so exact membership
# tests are useless; this scale-aware tolerance is used everywhere.
MEMBERSHIP_RTOL = 1e-9

# Default probe window half-width for unbounded sets: W = PROBE_WINDOW_SCALE * (1 + |x|).
PROBE_WINDOW_SCALE = 10.0


class GeometryError(Exception):
    """A geometric operation failed (infeasible point, budget exhausted, ...)."""


class ProjectionError(GeometryError):
    """A projection policy could not certify its output within budget."""


def membership_tol(x: NDArray) -> float:
    return MEMBERSHIP_RTOL * (1.0 + float(np.linalg.norm(x)))


def _as_vector(y, dim: int | None = None) -> NDArray:
    v = np.atleast_1d(np.asarray(y, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


class ConvexSet:
    """Base class: a nonempty closed convex subset of R^dim."""

    dim: int

    def project(self, y) -> NDArray:
        raise NotImplementedError

    def distance(self, y) -> float:
        y = _as_vector(y, self.dim)
        return float(np.linalg.norm(y - self.project(y)))

    def contains(self, x, tol: float | None = None) -> bool:
        x = _as_vector(x, self.dim)
        if tol is None:
            tol = membership_tol(x)
        return self.distance(x) <= tol

    def tangent_project(self, x, u) -> NDArray:
        """Project u onto the tangent cone of the set at the feasible point x."""
        raise NotImplementedError

    def require_member(self, x) -> NDArray:
        x = _as_vector(x, self.dim)
        if not np.all(np.isfinite(x)):
            raise GeometryError(f"point {x} is not in the set (non-finite coordinates)")
        d = self.distance(x)
        if not d <= membership_tol(x):  # a NaN distance fails too
            raise GeometryError(
                f"point {x} is not in the set (distance {d:.3e} exceeds tolerance)"
            )
        return x

    def is_bounded(self) -> bool:
        return False

    def bounding_radius(self) -> float:
        """sup over the set of |x|; inf for unbounded sets."""
        return np.inf

    def to_config(self) -> dict:
        raise NotImplementedError


class Box(ConvexSet):
    """Axis-aligned box [lower, upper]; bounds may be infinite."""

    variant = "box"

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("box bounds must be vectors of equal length")
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.dim = self.lower.shape[0]
        self.lower.flags.writeable = False
        self.upper.flags.writeable = False

    def project(self, y) -> NDArray:
        y = _as_vector(y, self.dim)
        return np.clip(y, self.lower, self.upper)

    def tangent_project(self, x, u) -> NDArray:
        x = self.require_member(x)
        u = _as_vector(u, self.dim)
        out = u.copy()
        tol = membership_tol(x)
        at_lower = x <= self.lower + tol
        at_upper = x >= self.upper - tol
        # Active lower bound forbids inward-negative directions, upper the mirror;
        # a pinched coordinate (both active) admits no motion at all.
        out[at_lower] = np.maximum(out[at_lower], 0.0)
        out[at_upper] = np.minimum(out[at_upper], 0.0)
        return out

    def is_bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def bounding_radius(self) -> float:
        if not self.is_bounded():
            return np.inf
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def to_config(self) -> dict:
        return {"type": "box", "lower": self.lower.tolist(), "upper": self.upper.tolist()}

    def __repr__(self):
        return f"Box(lower={self.lower.tolist()}, upper={self.upper.tolist()})"


class NonnegOrthant(Box):
    """The nonnegative orthant [0, inf)^dim."""

    variant = "nonneg_orthant"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be positive")
        super().__init__(np.zeros(dim), np.full(dim, np.inf))

    def to_config(self) -> dict:
        return {"type": "nonneg_orthant", "dim": self.dim}

    def __repr__(self):
        return f"NonnegOrthant(dim={self.dim})"


class Halfline(NonnegOrthant):
    """The one-dimensional halfline [0, inf)."""

    variant = "halfline"

    def __init__(self):
        super().__init__(1)

    def to_config(self) -> dict:
        return {"type": "halfline"}

    def __repr__(self):
        return "Halfline()"


class Ball(ConvexSet):
    """Closed Euclidean ball of given center and radius."""

    variant = "ball"

    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        self.dim = self.center.shape[0]
        self.center.flags.writeable = False

    def project(self, y) -> NDArray:
        y = _as_vector(y, self.dim)
        d = y - self.center
        nrm = float(np.linalg.norm(d))
        if nrm <= self.radius:
            return y.copy()
        return self.center + (self.radius / nrm) * d

    def distance(self, y) -> float:
        y = _as_vector(y, self.dim)
        return max(float(np.linalg.norm(y - self.center)) - self.radius, 0.0)

    def tangent_project(self, x, u) -> NDArray:
        x = self.require_member(x)
        u = _as_vector(u, self.dim)
        d = x - self.center
        nrm = float(np.linalg.norm(d))
        if nrm < self.radius - membership_tol(x):
            return u.copy()
        if nrm == 0.0:
            # radius ~ 0 degenerate ball: only the zero direction is tangent
            return np.zeros_like(u)
        n = d / nrm
        return u - max(float(n @ u), 0.0) * n

    def is_bounded(self) -> bool:
        return True

    def bounding_radius(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    def to_config(self) -> dict:
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Halfspace(ConvexSet):
    """Halfspace {x : <normal, x> <= offset} with a unit normal."""

    variant = "halfspace"

    def __init__(self, normal, offset: float):
        n = np.atleast_1d(np.asarray(normal, dtype=float))
        nrm = float(np.linalg.norm(n))
        if nrm == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError("halfspace normal must be a unit vector")
        self.normal = n
        self.offset = float(offset)
        self.dim = n.shape[0]
        self.normal.flags.writeable = False

    def project(self, y) -> NDArray:
        y = _as_vector(y, self.dim)
        s = float(self.normal @ y) - self.offset
        if s <= 0:
            return y.copy()
        return y - s * self.normal

    def distance(self, y) -> float:
        y = _as_vector(y, self.dim)
        return max(float(self.normal @ y) - self.offset, 0.0)

    def tangent_project(self, x, u) -> NDArray:
        x = self.require_member(x)
        u = _as_vector(u, self.dim)
        if float(self.normal @ x) - self.offset < -membership_tol(x):
            return u.copy()
        return u - max(float(self.normal @ u), 0.0) * self.normal

    def to_config(self) -> dict:
        return {"type": "halfspace", "normal": self.normal.tolist(), "offset": self.offset}

    def __repr__(self):
        return f"Halfspace(normal={self.normal.tolist()}, offset={self.offset})"


def _dykstra(projectors, y: NDArray, budget: int):
    """Dykstra's alternating-correction scheme for projecting onto an intersection.

    Yields (z, corrections, points) after each of at most `budget` sweeps:
    the iterate, the correction q_i of every member and the point z_i that
    member's projection produced in the sweep.  Unlike plain alternating
    projections, the correction terms make the limit the metric projection
    onto the intersection, not just some feasible point.  The lists are
    updated in place by the next sweep.
    """
    z = y.copy()
    corrections = [np.zeros_like(y) for _ in projectors]
    points = [z] * len(projectors)
    for _ in range(budget):
        for i, proj in enumerate(projectors):
            w = z + corrections[i]
            z = proj(w)
            corrections[i] = w - z
            points[i] = z
        yield z, corrections, points


def _dykstra_limit(projectors, y: NDArray, budget: int, tol: float) -> NDArray:
    """The first Dykstra iterate that moved by at most tol in its sweep, or
    the last one when the budget runs out."""
    z_prev = y
    for z, _, _ in _dykstra(projectors, y, budget):
        if float(np.linalg.norm(z - z_prev)) <= tol:
            break
        z_prev = z
    return z


class Intersection(ConvexSet):
    """Intersection of convex sets, projected by Dykstra's scheme.

    The intersection is assumed nonempty (caller contract).  `project`
    iterates within `budget` sweeps and is exact only up to the internal
    stopping tolerance; the certified route for a stated slack is
    `approx_project` with the Iterative policy.
    """

    variant = "intersection"

    def __init__(self, members, budget: int = 200):
        members = list(members)
        if not members:
            raise ValueError("intersection needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError("intersection members must share a dimension")
        if budget < 1:
            raise ValueError("budget must be a positive integer")
        self.members = members
        self.budget = int(budget)
        self.dim = members[0].dim

    def project(self, y) -> NDArray:
        y = _as_vector(y, self.dim)
        tol = 1e-13 * (1.0 + float(np.linalg.norm(y)))
        z = _dykstra_limit([m.project for m in self.members], y, self.budget, tol)
        if not all(m.contains(z) for m in self.members):
            raise ProjectionError(
                f"Dykstra sweep budget {self.budget} exhausted before reaching feasibility"
            )
        return z

    def distance_lower_bound(self, y) -> float:
        """max_i d_{C_i}(y), a certified lower bound on the intersection distance."""
        y = _as_vector(y, self.dim)
        return max(m.distance(y) for m in self.members)

    def tangent_project(self, x, u) -> NDArray:
        # The tangent cone of the intersection is the intersection of the
        # members' tangent cones (nonempty-interior contract), each of which
        # we can project onto, so Dykstra applies verbatim.
        x = self.require_member(x)
        u = _as_vector(u, self.dim)
        projectors = [lambda v, m=m: m.tangent_project(x, v) for m in self.members]
        tol = 1e-14 * (1.0 + float(np.linalg.norm(u)))
        return _dykstra_limit(projectors, u, self.budget, tol)

    def contains(self, x, tol: float | None = None) -> bool:
        x = _as_vector(x, self.dim)
        if tol is None:
            tol = membership_tol(x)
        return all(m.distance(x) <= tol for m in self.members)

    def is_bounded(self) -> bool:
        return any(m.is_bounded() for m in self.members)

    def bounding_radius(self) -> float:
        return min(m.bounding_radius() for m in self.members)

    def to_config(self) -> dict:
        return {
            "type": "intersection",
            "members": [m.to_config() for m in self.members],
            "budget": self.budget,
        }

    def __repr__(self):
        return f"Intersection({self.members!r}, budget={self.budget})"


@dataclass(frozen=True)
class ConePair:
    """Moreau split of a vector at a point of the set: u = tangential + normal."""

    tangential: NDArray
    normal: NDArray

    def reconstruct(self) -> NDArray:
        return self.tangential + self.normal

    @property
    def inner(self) -> float:
        return float(self.tangential @ self.normal)


def moreau_decompose(C: ConvexSet, x, u) -> ConePair:
    """Split u into its tangent-cone and normal-cone projections at x in C.

    The two parts reconstruct u exactly and are mutually orthogonal; the
    normal part is obtained as the residual, which keeps the reconstruction
    identity exact in floating point.
    """
    u = _as_vector(u, C.dim)
    t = C.tangent_project(x, u)
    return ConePair(tangential=t, normal=u - t)


# --- approximate projection policies -------------------------------------
#
# A policy's `project(C, y, eps, rng)` returns a point z of C with
# |z - y|^2 <= d_C(y)^2 + eps; `seed` is None for deterministic policies,
# else the seed of the generator a run hands to `project`.  `exact` marks
# the metric projection, under which a normal term must pass its cone
# certificate.  `from_config(spec, seed)` builds the policy from its config
# record, with `seed` the run's master seed.

@dataclass(frozen=True)
class ExactProjection:
    """Return the metric projection (valid for any eps)."""

    name = "exact"
    seed = None
    exact = True

    def project(self, C: ConvexSet, y: NDArray, eps: float, rng=None) -> NDArray:
        return C.project(y)

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls()


@dataclass(frozen=True)
class PerturbedProjection:
    """Stress-test policy: move the exact projection along the set while the
    eps-inequality |z - y|^2 <= d_C(y)^2 + eps certifiably survives.

    The perturbation radius r solves (d + r)^2 = d^2 + slack_fraction * eps,
    so nonexpansiveness of the re-projection guarantees the contract.
    """

    seed: int = 0
    slack_fraction: float = 0.9
    name = "perturbed"
    exact = False

    def project(self, C: ConvexSet, y: NDArray, eps: float, rng=None) -> NDArray:
        z0 = C.project(y)
        if eps == 0.0:
            return z0
        d = float(np.linalg.norm(z0 - y))
        slack = self.slack_fraction * eps
        r = -d + np.sqrt(d * d + slack)
        if rng is None:
            rng = np.random.default_rng(self.seed)
        direction = rng.standard_normal(C.dim)
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            return z0
        z = C.project(z0 + (r / nrm) * direction)
        # By nonexpansiveness |z - z0| <= r, hence |z - y| <= d + r and the
        # contract holds by construction; verify anyway and fall back.
        if float(np.sum((z - y) ** 2)) <= d * d + eps:
            return z
        return z0

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        # an unseeded spec draws from the master seed, offset from the selection's
        s = int(spec["seed"]) if "seed" in spec else (seed + 1 if seed is not None else 0)
        return cls(seed=s, slack_fraction=float(spec.get("slack_fraction", 0.9)))


@dataclass(frozen=True)
class IterativeProjection:
    """Dykstra sweeps onto an Intersection with a certified stop.

    Accept the iterate z once it is feasible and |z - y|^2 <= lb + eps,
    where lb is a certified lower bound on d_C(y)^2.  The bound starts from
    the worst member distance and is tightened every sweep by the
    separating halfspace {u : <n, u> <= sum_i <q_i, z_i>} built from the
    Dykstra corrections q_i (each lies in the normal cone of its member at
    the point it was produced, so the halfspace contains C).  The bound
    converges to the true distance, so any eps > 0 is eventually
    certifiable when the sweeps converge.  Other sets are projected exactly.
    """

    name = "iterative"
    seed = None
    exact = False

    def project(self, C: ConvexSet, y: NDArray, eps: float, rng=None) -> NDArray:
        if not isinstance(C, Intersection):
            return C.project(y)
        members = C.members
        lb = C.distance_lower_bound(y) ** 2
        for z, corrections, points in _dykstra([m.project for m in members], y, C.budget):
            n = np.sum(corrections, axis=0)
            nn = float(np.linalg.norm(n))
            if nn > 0.0:
                sep = (float(n @ y) - sum(float(q @ p) for q, p in zip(corrections, points))) / nn
                if sep > 0.0:
                    lb = max(lb, sep * sep)
            feasible = all(m.distance(z) <= membership_tol(z) for m in members)
            if feasible and float(np.sum((z - y) ** 2)) <= lb + eps:
                return z
        raise ProjectionError(
            "Dykstra sweeps could not certify the eps-inequality "
            f"within {C.budget} sweeps (eps={eps:.3e}, distance bound {lb:.3e})"
        )

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls()


# config kind -> policy builder
PROJECTION_POLICIES = {
    "exact": ExactProjection.from_config,
    "perturbed": PerturbedProjection.from_config,
    "iterative": IterativeProjection.from_config,
}


def approx_project(C: ConvexSet, y, eps: float, policy=None, rng=None) -> NDArray:
    """A point z in C with |z - y|^2 <= distance(C, y)^2 + eps.

    The returned point always satisfies the inequality; a policy that cannot
    certify it within budget raises ProjectionError.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    y = _as_vector(y, C.dim)
    if policy is None:
        policy = ExactProjection()
    return policy.project(C, y, eps, rng)


# --- delta-approximate normal cone certificates ---------------------------

@dataclass(frozen=True)
class ProbeSpec:
    """How to draw probe points z in C for the normal-cone check.

    `window` is the half-width W of the sampling box [x - W, x + W]; when
    None it defaults to PROBE_WINDOW_SCALE * (1 + |x|).  Deterministic
    probes (projected window corners and axis extremes) are always
    included alongside `n_random` projected uniform draws.
    """

    n_random: int = 16
    seed: int = 0
    window: float | None = None


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


def _probe_points(C: ConvexSet, x: NDArray, spec: ProbeSpec) -> NDArray:
    W = spec.window if spec.window is not None else PROBE_WINDOW_SCALE * (1.0 + float(np.linalg.norm(x)))
    dim = C.dim
    probes = [x.copy()]
    # axis extremes of the window, projected back onto the set
    for i in range(dim):
        for s in (-1.0, 1.0):
            q = x.copy()
            q[i] += s * W
            probes.append(C.project(q))
    # window corners (all sign patterns) for small dimensions
    if dim <= 10:
        for mask in range(2 ** dim):
            signs = np.array([1.0 if mask & (1 << i) else -1.0 for i in range(dim)])
            probes.append(C.project(x + W * signs))
    rng = np.random.default_rng(spec.seed)
    for _ in range(spec.n_random):
        q = x + rng.uniform(-W, W, size=dim)
        probes.append(C.project(q))
    return np.asarray(probes), W


def in_approx_normal_cone(C: ConvexSet, x, v, delta: float, probes: ProbeSpec | None = None) -> NormalConeCertificate:
    """Sampled certificate for v in {u : <u, z - x> <= delta for all z in C}.

    The quantifier runs over all of C, which is not checkable for unbounded
    sets; the certificate therefore samples a declared window around x and
    records it.  `holds` is the verdict over the probed points only.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    x = C.require_member(x)
    v = _as_vector(v, C.dim)
    spec = probes if probes is not None else ProbeSpec()
    pts, W = _probe_points(C, x, spec)
    if pts.shape[0] == 0:
        raise GeometryError("empty probe set")
    vals = (pts - x) @ v
    worst = int(np.argmax(vals))
    worst_val = float(vals[worst])
    tol = 1e-12 * (1.0 + float(np.linalg.norm(v)) * (1.0 + W))
    return NormalConeCertificate(
        holds=worst_val <= delta + tol,
        worst_violation=worst_val,
        witness=pts[worst],
        delta=float(delta),
        window=float(W),
        n_probes=int(pts.shape[0]),
        seed=spec.seed,
    )


def sample_points(C: ConvexSet, rng: np.random.Generator, n: int, radius: float) -> NDArray:
    """Draw n points of C by projecting uniform samples from the window box
    [-radius, radius]^dim.

    Biased toward the boundary (everything outside projects onto it), which
    is what the falsification-style assumption checks want.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    raw = rng.uniform(-radius, radius, size=(n, C.dim))
    return np.asarray([C.project(q) for q in raw])


def _build_intersection(cfg):
    members = [set_from_config(m) for m in cfg["members"]]
    return Intersection(members, budget=int(cfg.get("budget", 200)))


_SET_BUILDERS = {
    "box": lambda cfg: Box(cfg["lower"], cfg["upper"]),
    "ball": lambda cfg: Ball(cfg["center"], cfg["radius"]),
    "halfspace": lambda cfg: Halfspace(cfg["normal"], cfg["offset"]),
    "nonneg_orthant": lambda cfg: NonnegOrthant(int(cfg["dim"])),
    "halfline": lambda cfg: Halfline(),
    "intersection": _build_intersection,
}


def set_from_config(cfg: dict) -> ConvexSet:
    """Build a ConvexSet from a tagged configuration record."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ValueError("set config must be a mapping with a 'type' tag")
    kind = cfg["type"]
    try:
        builder = _SET_BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown set type {kind!r} (known: {sorted(_SET_BUILDERS)})") from None
    return builder(cfg)
