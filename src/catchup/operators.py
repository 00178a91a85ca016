"""Set-valued right-hand sides and their structural assumptions.

A model couples a single-valued drift f with the regular part G of a
maximal monotone operator and the constraint set C; the solver steps the
effective field F(x) = f(x) - G(x).  When G is genuinely set-valued the
step needs a selection rule, and the runtime checks need the growth
envelope sup |F(x)| <= a + b|x| and the dissipativity margin
sup <x, v> <= M - gamma |x|^2 over tangentially projected selections.
The checkers here falsify those bounds by sampling; they cannot prove
them, and they say so in their return records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import ConvexSet, _as_vector, sample_points

__all__ = [
    "IntervalBox",
    "RegularPart",
    "ZeroPart",
    "LinearPart",
    "SeparableL1",
    "CustomPart",
    "AffineField",
    "MonotoneModel",
    "model_from_config",
    "regular_part_from_config",
    "field_from_config",
    "MinimalNorm",
    "SignConvention",
    "Randomized",
    "select_F",
    "globalize_constants",
    "check_linear_growth",
    "check_tangent_dissipativity",
    "estimate_one_sided_lipschitz",
]


@dataclass(frozen=True)
class IntervalBox:
    """Componentwise interval [lower, upper] describing a set of vectors.

    Operator values in this codebase are always products of intervals
    (singletons have lower == upper), which keeps extreme-point
    enumeration and support computations trivial.
    """

    lower: NDArray
    upper: NDArray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("interval bounds must have equal shape")
        if np.any(lo > hi + 1e-15):
            raise ValueError("interval requires lower <= upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def is_singleton(self, tol: float = 0.0) -> bool:
        return bool(np.all(self.upper - self.lower <= tol))

    def midpoint(self) -> NDArray:
        return 0.5 * (self.lower + self.upper)

    def clip(self, v) -> NDArray:
        """Nearest point of the interval box to v."""
        return np.clip(np.asarray(v, dtype=float), self.lower, self.upper)

    def contains(self, v, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def max_norm(self) -> float:
        """max |v| over the box (attained at a vertex)."""
        return float(np.linalg.norm(np.maximum(np.abs(self.lower), np.abs(self.upper))))

    def vertices(self) -> NDArray:
        """All extreme points; exponential in the number of fat coordinates."""
        fat = np.nonzero(self.upper > self.lower)[0]
        base = self.lower.copy()
        if fat.size == 0:
            return base[None, :]
        if fat.size > 16:
            raise ValueError("too many set-valued coordinates to enumerate")
        out = np.tile(base, (2 ** fat.size, 1))
        for j, i in enumerate(fat):
            period = 2 ** j
            mask = (np.arange(out.shape[0]) // period) % 2 == 1
            out[mask, i] = self.upper[i]
        return out

    @staticmethod
    def singleton(v) -> "IntervalBox":
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return IntervalBox(v, v)


class RegularPart:
    """Base class for the single- or set-valued regular part G."""

    def value(self, x) -> IntervalBox:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


class ZeroPart(RegularPart):
    """G identically zero."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    def value(self, x) -> IntervalBox:
        return IntervalBox.singleton(np.zeros(self.dim))

    def to_config(self) -> dict:
        return {"type": "zero", "dim": self.dim}


class LinearPart(RegularPart):
    """G(x) = {M x} for a positive semidefinite symmetric matrix M."""

    def __init__(self, matrix):
        M = np.atleast_2d(np.asarray(matrix, dtype=float))
        if M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        eigs = np.linalg.eigvalsh(M)
        if eigs.min() < -1e-10:
            raise ValueError(f"matrix must be positive semidefinite (min eig {eigs.min():.3e})")
        self.matrix = M
        self.dim = M.shape[0]
        self.matrix.flags.writeable = False

    def value(self, x) -> IntervalBox:
        x = _as_vector(x, self.dim)
        return IntervalBox.singleton(self.matrix @ x)

    def to_config(self) -> dict:
        return {"type": "linear", "matrix": self.matrix.tolist()}


class SeparableL1(RegularPart):
    """Subdifferential of x -> sum_i weights_i |x_i|.

    At a coordinate exactly zero the value is the full interval
    [-w_i, w_i]; elsewhere it is the singleton w_i sign(x_i).  The zero
    test is exact on purpose: the sticking states produced by the scheme
    are exact zeros, and a fuzzy test would misreport the sliding branch.
    """

    def __init__(self, weights):
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if not np.all((w >= 0) & np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        self.weights = w
        self.dim = w.shape[0]
        self.weights.flags.writeable = False

    def value(self, x) -> IntervalBox:
        x = _as_vector(x, self.dim)
        lo = np.where(x == 0.0, -self.weights, self.weights * np.sign(x))
        hi = np.where(x == 0.0, self.weights, self.weights * np.sign(x))
        return IntervalBox(lo, hi)

    def to_config(self) -> dict:
        return {"type": "l1", "weights": self.weights.tolist()}


class CustomPart(RegularPart):
    """Wrap a callable x -> IntervalBox (or x -> vector for singletons)."""

    def __init__(self, fn, dim: int):
        self.fn = fn
        self.dim = int(dim)

    def value(self, x) -> IntervalBox:
        out = self.fn(np.asarray(x, dtype=float))
        if isinstance(out, IntervalBox):
            return out
        return IntervalBox.singleton(out)

    def to_config(self) -> dict:
        raise ValueError("a custom regular part has no serializable form")


_PART_BUILDERS = {
    "zero": lambda cfg: ZeroPart(int(cfg["dim"])),
    "linear": lambda cfg: LinearPart(cfg["matrix"]),
    "l1": lambda cfg: SeparableL1(cfg["weights"]),
}


def regular_part_from_config(cfg: dict) -> RegularPart:
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ValueError("regular part config must be a mapping with a 'type' tag")
    try:
        builder = _PART_BUILDERS[cfg["type"]]
    except KeyError:
        raise ValueError(
            f"unknown regular part type {cfg['type']!r} (known: {sorted(_PART_BUILDERS)})"
        ) from None
    return builder(cfg)


class AffineField:
    """Drift f(x) = A x + b."""

    def __init__(self, matrix, offset):
        A = np.atleast_2d(np.asarray(matrix, dtype=float))
        b = np.atleast_1d(np.asarray(offset, dtype=float))
        if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
            raise ValueError("matrix and offset dimensions must agree")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("drift matrix and offset must be finite")
        self.matrix = A
        self.offset = b
        self.dim = b.shape[0]
        self.matrix.flags.writeable = False
        self.offset.flags.writeable = False

    def __call__(self, x) -> NDArray:
        x = _as_vector(x, self.dim)
        return self.matrix @ x + self.offset

    def to_config(self) -> dict:
        return {"type": "affine", "A": self.matrix.tolist(), "b": self.offset.tolist()}


def field_from_config(cfg: dict):
    if not isinstance(cfg, dict) or cfg.get("type") != "affine":
        raise ValueError("drift config must be a mapping with type 'affine'")
    return AffineField(cfg["A"], cfg["b"])


# --- selection rules for set-valued G -------------------------------------
#
# A rule's `pick(box, f_val, rng)` returns the point g of the interval box
# G(x) that the selection f(x) - g uses; `seed` is None for deterministic
# rules, else the seed of the generator a run hands to `pick`.
# `from_config(spec, seed)` builds the rule from its config record, with
# `seed` the run's master seed.

@dataclass(frozen=True)
class MinimalNorm:
    """Pick the selection of F(x) = f(x) - G(x) of smallest norm, i.e. take
    g as the point of G(x) closest to f(x)."""

    name = "minimal_norm"
    seed = None

    def pick(self, box: IntervalBox, f_val: NDArray, rng=None) -> NDArray:
        return box.clip(f_val)

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls()


@dataclass(frozen=True)
class SignConvention:
    """Pick g at a fixed relative position of each interval coordinate:
    sign=-1 the lower end, 0 the midpoint, +1 the upper end."""

    sign: int = 0
    name = "sign_convention"
    seed = None

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0, or +1")

    def pick(self, box: IntervalBox, f_val: NDArray, rng=None) -> NDArray:
        if self.sign < 0:
            return box.lower.copy()
        if self.sign > 0:
            return box.upper.copy()
        return box.midpoint()

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls(int(spec.get("sign", 0)))


@dataclass(frozen=True)
class Randomized:
    """Draw g uniformly from the interval box, with its own generator."""

    seed: int = 0
    name = "randomized"

    def pick(self, box: IntervalBox, f_val: NDArray, rng=None) -> NDArray:
        if rng is None:
            rng = np.random.default_rng(self.seed)
        return rng.uniform(box.lower, box.upper)

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        if "seed" in spec:
            return cls(int(spec["seed"]))
        return cls(seed if seed is not None else 0)


# config kind -> rule builder
SELECTION_RULES = {
    "minimal_norm": MinimalNorm.from_config,
    "sign": SignConvention.from_config,
    "sign_convention": SignConvention.from_config,
    "randomized": Randomized.from_config,
}


def select_F(model: "MonotoneModel", x, rule=None, rng=None) -> NDArray:
    """One selection w in F(x) = f(x) - G(x) under the given rule."""
    if rule is None:
        rule = MinimalNorm()
    x = _as_vector(x, model.dim)
    f_val = model.f(x)
    g = rule.pick(model.G.value(x), f_val, rng)
    return f_val - g


def globalize_constants(a: float, b: float, r_star: float, M: float, gamma: float) -> float:
    """Extend the dissipativity level M, valid beyond radius r_star, to one
    valid on the whole set: max(M, r(a + b r) + gamma r^2) at r = r_star."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if min(a, b, r_star) < 0:
        raise ValueError("a, b, r_star must be nonnegative")
    return max(M, r_star * (a + b * r_star) + gamma * r_star * r_star)


class MonotoneModel:
    """Drift + regular part + constraint set, with declared constants.

    `growth` is (a, b) in sup |F(x)| <= a + b|x|; `dissipativity` is
    (r_star, M, gamma) in sup <x, v> <= M - gamma |x|^2 for |x| >= r_star,
    the sup over tangentially projected selections v.  `ell` is an optional
    one-sided Lipschitz level for selections of F.  Constants are declared
    by the modeler and checked empirically, never inferred.
    """

    def __init__(self, f, G: RegularPart, C: ConvexSet, growth, dissipativity,
                 ell: float | None = None, name: str = "custom"):
        self.f = f
        self.G = G
        self.C = C
        a, b = growth
        r_star, M, gamma = dissipativity
        # NaN passes every sign test below, so finiteness comes first
        if not np.all(np.isfinite([a, b, r_star, M, gamma] + ([] if ell is None else [ell]))):
            raise ValueError("model constants must be finite")
        if a < 0 or b < 0:
            raise ValueError("growth constants must be nonnegative")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if r_star < 0:
            raise ValueError("r_star must be nonnegative")
        self.a = float(a)
        self.b = float(b)
        self.r_star = float(r_star)
        self.M = float(M)
        self.gamma = float(gamma)
        self.ell = None if ell is None else float(ell)
        self.name = name
        dims = {G.dim, C.dim}
        if hasattr(f, "dim"):
            dims.add(f.dim)
        if len(dims) != 1:
            raise ValueError(f"inconsistent dimensions {dims}")
        self.dim = C.dim

    @property
    def M_global(self) -> float:
        """Dissipativity level valid at every feasible point."""
        return globalize_constants(self.a, self.b, self.r_star, self.M, self.gamma)

    def growth_bound(self, radius: float) -> float:
        return self.a + self.b * float(radius)

    def F_interval(self, x) -> IntervalBox:
        """The set F(x) = f(x) - G(x) as an interval box."""
        x = _as_vector(x, self.dim)
        f_val = self.f(x)
        g = self.G.value(x)
        return IntervalBox(f_val - g.upper, f_val - g.lower)

    def to_config(self) -> dict:
        return {
            "f": self.f.to_config(),
            "G": self.G.to_config(),
            "C": self.C.to_config(),
            "constants": {
                "a": self.a,
                "b": self.b,
                "r_star": self.r_star,
                "M": self.M,
                "gamma": self.gamma,
                "ell": self.ell,
            },
            "name": self.name,
        }


def model_from_config(cfg: dict) -> MonotoneModel:
    """Build a MonotoneModel from its configuration record
    {"f": ..., "G": ..., "C": ..., "constants": {...}}."""
    from .geometry import set_from_config

    for key in ("f", "G", "C", "constants"):
        if key not in cfg:
            raise ValueError(f"model config is missing {key!r}")
    k = cfg["constants"]
    for key in ("a", "b", "r_star", "M", "gamma"):
        if key not in k:
            raise ValueError(f"model constants are missing {key!r}")
    return MonotoneModel(
        f=field_from_config(cfg["f"]),
        G=regular_part_from_config(cfg["G"]),
        C=set_from_config(cfg["C"]),
        growth=(k["a"], k["b"]),
        dissipativity=(k["r_star"], k["M"], k["gamma"]),
        ell=k.get("ell"),
        name=cfg.get("name", "custom"),
    )


# --- empirical falsification checks ---------------------------------------

def _sampling_defaults(model: MonotoneModel, rng, radius):
    """A seed-0 generator and the set's bounding radius (or a window scaled
    by r_star for unbounded sets) unless the caller gave them."""
    if rng is None:
        rng = np.random.default_rng(0)
    if radius is None:
        r = model.C.bounding_radius()
        radius = r if np.isfinite(r) else 10.0 * (1.0 + model.r_star)
    return rng, radius


def check_linear_growth(model: MonotoneModel, rng=None, n_samples: int = 200,
                        radius: float | None = None) -> dict:
    """Try to falsify sup_{w in F(x)} |w| <= a + b |x| over sampled feasible x.

    The sup over the interval box is computed exactly per sample (vertex
    norm); failure to falsify proves nothing, and the record says which
    points were tried.
    """
    rng, radius = _sampling_defaults(model, rng, radius)
    pts = sample_points(model.C, rng, n_samples, radius)
    worst_margin = np.inf
    worst_x = None
    for x in pts:
        box = model.F_interval(x)
        margin = model.growth_bound(np.linalg.norm(x)) - box.max_norm()
        if margin < worst_margin:
            worst_margin = float(margin)
            worst_x = x
    return {
        "holds": bool(worst_margin >= -1e-9),
        "worst_margin": float(worst_margin),
        "witness": None if worst_x is None else worst_x.tolist(),
        "n_samples": int(n_samples),
        "radius": float(radius),
        "kind": "falsification",
    }


def check_tangent_dissipativity(model: MonotoneModel, rng=None, n_samples: int = 200,
                                radius: float | None = None,
                                use_global: bool = True) -> dict:
    """Try to falsify sup_v <x, v> <= M - gamma |x|^2 over sampled feasible x,
    v ranging over tangent projections of the extreme selections of F(x).

    With use_global the level is M_global and every sample counts;
    otherwise only samples with |x| >= r_star are tested.
    """
    rng, radius = _sampling_defaults(model, rng, radius)
    pts = sample_points(model.C, rng, n_samples, radius)
    level = model.M_global if use_global else model.M
    worst_margin = np.inf
    worst = None
    n_tested = 0
    for x in pts:
        nx2 = float(x @ x)
        if not use_global and np.sqrt(nx2) < model.r_star:
            continue
        n_tested += 1
        for w in model.F_interval(x).vertices():
            v = model.C.tangent_project(x, w)
            margin = level - model.gamma * nx2 - float(x @ v)
            if margin < worst_margin:
                worst_margin = float(margin)
                worst = (x, v)
    return {
        "holds": bool(n_tested > 0 and worst_margin >= -1e-9),
        "worst_margin": float(worst_margin) if n_tested else None,
        "witness": None if worst is None else {
            "x": worst[0].tolist(), "v": worst[1].tolist(),
        },
        "level": float(level),
        "use_global": bool(use_global),
        "n_samples": int(n_tested),
        "radius": float(radius),
        "kind": "falsification",
    }


def estimate_one_sided_lipschitz(model: MonotoneModel, rng=None, n_pairs: int = 300,
                                 radius: float | None = None, rule=None) -> dict:
    """Sampled estimate of sup <x - xbar, w - wbar> / |x - xbar|^2 over
    feasible pairs, w and wbar selections of F under the given rule.

    Returns the estimate together with the declared level when the model
    has one; a sampled estimate above the declared level falsifies it.
    """
    rng, radius = _sampling_defaults(model, rng, radius)
    if rule is None:
        rule = MinimalNorm()
    pts = sample_points(model.C, rng, 2 * n_pairs, radius)
    best = -np.inf
    witness = None
    for i in range(n_pairs):
        x, xb = pts[2 * i], pts[2 * i + 1]
        dx = x - xb
        dx2 = float(dx @ dx)
        if dx2 < 1e-16:
            continue
        w = select_F(model, x, rule=rule, rng=rng)
        wb = select_F(model, xb, rule=rule, rng=rng)
        q = float(dx @ (w - wb)) / dx2
        if q > best:
            best = q
            witness = (x, xb)
    declared = model.ell
    return {
        "estimate": float(best),
        "declared": declared,
        "consistent": bool(declared is None or best <= declared + 1e-9),
        "witness": None if witness is None else {
            "x": witness[0].tolist(), "xbar": witness[1].tolist(),
        },
        "n_pairs": int(n_pairs),
        "radius": float(radius),
        "kind": "falsification",
    }
