"""Set-valued right-hand sides and their structural assumptions.

A model couples a single-valued drift f with the regular part G of a
maximal monotone operator and the constraint set C; the solver steps the
effective field F(x) = f(x) - G(x).  When G is genuinely set-valued the
step needs a selection rule, and the runtime checks need the growth
envelope sup |F(x)| <= a + b|x| and the dissipativity margin
sup <x, v> <= M - gamma |x|^2 over tangentially projected selections.
A model declares the constants of those bounds; nothing here checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import (
    Box,
    ConfigRecord,
    ConvexSet,
    _as_vector,
    build_record,
    check_array,
    check_integer,
    check_number,
    set_from_config,
)

__all__ = [
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
]


class RegularPart(ConfigRecord):
    """Base class for the single- or set-valued regular part G, whose
    `value(x)` returns the bounds (lower, upper) of the interval box G(x);
    a singleton may return one array twice, so callers must not write to it."""

    def value(self, x) -> tuple[NDArray, NDArray]:
        raise NotImplementedError


class ZeroPart(RegularPart):
    """G identically zero."""

    variant = "zero"

    def __init__(self, dim: int):
        self.dim = check_integer(dim, "dim", minimum=1)

    def value(self, x) -> tuple[NDArray, NDArray]:
        g = np.zeros(self.dim)
        return g, g


class LinearPart(RegularPart):
    """G(x) = {M x} for a positive semidefinite symmetric matrix M."""

    variant = "linear"

    def __init__(self, matrix):
        M = self.matrix = check_array(matrix, "matrix", ndim=2)
        if M.shape[0] != M.shape[1]:
            raise ValueError(f"matrix must be square, got shape {M.shape}")
        if not np.allclose(M, M.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        eigs = np.linalg.eigvalsh(M)
        if eigs.min() < -1e-10:
            raise ValueError(f"matrix must be positive semidefinite (min eig {eigs.min():.3e})")
        self.dim = M.shape[0]

    def value(self, x) -> tuple[NDArray, NDArray]:
        g = self.matrix @ _as_vector(x, self.dim)
        return g, g


class SeparableL1(RegularPart):
    """Subdifferential of x -> sum_i weights_i |x_i|.

    At a coordinate exactly zero the value is the full interval
    [-w_i, w_i]; elsewhere it is the singleton w_i sign(x_i).  The zero
    test is exact on purpose: the sticking states produced by the scheme
    are exact zeros, and a fuzzy test would misreport the sliding branch.
    """

    variant = "l1"

    def __init__(self, weights):
        self.weights = check_array(weights, "weights")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        self.dim = self.weights.shape[0]

    def value(self, x) -> tuple[NDArray, NDArray]:
        x = _as_vector(x, self.dim)
        slope = self.weights * np.sign(x)
        if 0.0 not in x.tolist():  # no coordinate is zero (-0.0 == 0.0): the singleton
            return slope, slope
        zero = x == 0.0
        return np.where(zero, -self.weights, slope), np.where(zero, self.weights, slope)


class CustomPart(RegularPart):
    """Wrap a callable x -> g (the singleton {g}) or x -> (lower, upper), a
    tuple of interval bounds.  Untrusted bounds enter here, so this is the
    check that their shapes agree and that they are ordered."""

    def __init__(self, fn, dim: int):
        self.fn = fn
        self.dim = check_integer(dim, "dim", minimum=1)

    def value(self, x) -> tuple[NDArray, NDArray]:
        out = self.fn(np.asarray(x, dtype=float))
        bounds = out if isinstance(out, tuple) else (out, out)
        lo, hi = (np.atleast_1d(np.asarray(v, dtype=float)) for v in bounds)
        if lo.shape != hi.shape:
            raise ValueError("interval bounds must have equal shape")
        if np.any(lo > hi + 1e-15):
            raise ValueError("interval requires lower <= upper")
        return lo, hi

    def to_config(self) -> dict:
        raise ValueError("a custom regular part has no serializable form")


# config type -> regular part
_PART_BUILDERS = {"zero": ZeroPart, "linear": LinearPart, "l1": SeparableL1}


def regular_part_from_config(cfg: dict) -> RegularPart:
    return build_record("G", _PART_BUILDERS, cfg, "type")


class AffineField:
    """Drift f(x) = A x + b."""

    def __init__(self, matrix, offset):
        self.matrix = check_array(matrix, "A", ndim=2)
        self.offset = check_array(offset, "b")
        self.dim = self.offset.shape[0]
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError(f"A must be a square matrix and b a vector of its size, "
                             f"got shapes {self.matrix.shape} and {self.offset.shape}")
        # b with -0.0 made 0.0: `A.dot(x)`, half the cost of `A @ x`, keeps the
        # -0.0 of a 1x1 A's product that `@` sums to 0.0, and adding this
        # offset gives the bits of `A @ x + b`
        self._offset = self.offset + 0.0

    def __call__(self, x) -> NDArray:
        x = _as_vector(x, self.dim)
        return self.matrix.dot(x) + self._offset

    def to_config(self) -> dict:
        return {"type": "affine", "A": self.matrix.tolist(), "b": self.offset.tolist()}


_FIELD_BUILDERS = {"affine": lambda A, b: AffineField(A, b)}  # built once: by the record's keys


def field_from_config(cfg: dict):
    return build_record("f", _FIELD_BUILDERS, cfg, "type")


# --- selection rules for set-valued G -------------------------------------
#
# A rule's `pick(lower, upper, f_val, rng)` returns the point g of the
# interval box [lower, upper] = G(x) that the selection f(x) - g uses;
# `seed` is None for deterministic rules, else the seed of the generator a
# run hands to `pick`.  `pick_float`, where a rule has it, is `pick` on one
# coordinate in Python floats, bit for bit.  A rule's config record holds
# its constructor arguments (see `build_record`).

def clip_float(lower: float, upper: float, v: float) -> float:
    """v clipped into [lower, upper] in Python floats, as `np.clip` clips into
    one-element arrays: a tie takes the bound (so -0.0 clipped at 0.0 is 0.0),
    and a NaN v gives a bound, where numpy keeps the NaN."""
    v = v if v > lower else lower
    return v if v < upper else upper


@dataclass(frozen=True)
class MinimalNorm:
    """Pick the selection of F(x) = f(x) - G(x) of smallest norm, i.e. take
    g as the point of G(x) closest to f(x)."""

    name = "minimal_norm"
    seed = None

    def pick(self, lower: NDArray, upper: NDArray, f_val: NDArray, rng=None) -> NDArray:
        if lower is upper:  # a singleton G(x), which clip would return bit for bit
            return lower
        return np.asarray(f_val, dtype=float).clip(lower, upper)

    pick_float = staticmethod(clip_float)  # any f_val but NaN clips into [g, g] at g


@dataclass(frozen=True)
class SignConvention:
    """Pick g at a fixed relative position of each interval coordinate:
    sign=-1 the lower end, 0 the midpoint, +1 the upper end."""

    sign: int = 0
    name = "sign_convention"
    seed = None

    def __post_init__(self):
        if check_integer(self.sign, "sign", minimum=-1) > 1:
            raise ValueError("sign must be -1, 0, or +1")

    def pick(self, lower: NDArray, upper: NDArray, f_val: NDArray, rng=None) -> NDArray:
        if self.sign < 0:
            return lower.copy()
        if self.sign > 0:
            return upper.copy()
        return 0.5 * (lower + upper)

    def pick_float(self, lower: float, upper: float, f_val: float) -> float:
        return 0.5 * (lower + upper) if not self.sign else lower if self.sign < 0 else upper


@dataclass(frozen=True)
class Randomized:
    """Draw g uniformly from the interval box, with its own generator."""

    seed: int = 0
    name = "randomized"

    def __post_init__(self):
        check_integer(self.seed)

    def pick(self, lower: NDArray, upper: NDArray, f_val: NDArray, rng=None) -> NDArray:
        if rng is None:
            rng = np.random.default_rng(self.seed)
        # an interval wider than float range raises OverflowError, which the
        # step reports, with no warning of the overflow first
        with np.errstate(over="ignore"):
            return rng.uniform(lower, upper)


# config kind -> rule
SELECTION_RULES = {
    "minimal_norm": MinimalNorm,
    "sign": SignConvention,
    "sign_convention": SignConvention,
    "randomized": Randomized,
}


def select_F(model: "MonotoneModel", x, rule=None, rng=None) -> NDArray:
    """One selection w in F(x) = f(x) - G(x) under the given rule."""
    x = _as_vector(x, model.dim)
    f_val = model.f(x)
    return f_val - (rule or MinimalNorm()).pick(*model.G.value(x), f_val, rng)


def globalize_constants(a: float, b: float, r_star: float, M: float, gamma: float) -> float:
    """Extend the dissipativity level M, valid beyond radius r_star, to one
    valid on the whole set: max(M, r(a + b r) + gamma r^2) at r = r_star."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not (a >= 0 and b >= 0 and r_star >= 0):
        raise ValueError("a, b, r_star must be nonnegative")
    if np.isnan(M):
        raise ValueError("M must not be NaN")
    return max(M, r_star * (a + b * r_star) + gamma * r_star * r_star)


class MonotoneModel:
    """Drift + regular part + constraint set, with declared constants.

    `growth` is (a, b) in sup |F(x)| <= a + b|x|; `dissipativity` is
    (r_star, M, gamma) in sup <x, v> <= M - gamma |x|^2 for |x| >= r_star,
    the sup over tangentially projected selections v.  `ell` is an optional
    one-sided Lipschitz level for selections of F.  Constants are declared
    by the modeler and trusted: no code infers or checks them, and every
    certificate bounds with them as given.
    """

    def __init__(self, f, G: RegularPart, C: ConvexSet, growth, dissipativity,
                 ell: float | None = None, name: str = "custom"):
        self.f = f
        self.G = G
        self.C = C
        a, b = growth
        r_star, M, gamma = dissipativity
        a, b, r_star, M, gamma = map(check_number, (a, b, r_star, M, gamma),
                                     ("a", "b", "r_star", "M", "gamma"))
        ell = None if ell is None else check_number(ell, "ell")
        if a < 0 or b < 0:
            raise ValueError("growth constants must be nonnegative")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if r_star < 0:
            raise ValueError("r_star must be nonnegative")
        self.a = a
        self.b = b
        self.r_star = r_star
        self.M = M
        self.gamma = gamma
        self.ell = ell
        self.name = name
        dims = {G.dim, C.dim}
        if hasattr(f, "dim"):
            dims.add(f.dim)
        if len(dims) != 1:
            raise ValueError(f"inconsistent dimensions {dims}")
        self.dim = C.dim
        # f(x) = a x + b (an AffineField's b), G(x) = {m x} (a zero or linear G)
        # or the l1 part of `weight` (m None), and a box C = [lower, upper] in R:
        # the float form (a, b, m, weight, lower, upper) `step` steps in floats
        self.float_form = None
        if (self.dim == 1 and type(f) is AffineField and isinstance(C, Box)
                and type(C).project is Box.project
                and type(G) in (ZeroPart, LinearPart, SeparableL1)):
            m = None if type(G) is SeparableL1 else 0.0 if type(G) is ZeroPart else G.matrix.item()
            weight = G.weights.item() if m is None else None
            self.float_form = (f.matrix.item(), f._offset.item(), m, weight,
                               C.lower.item(), C.upper.item())

    @property
    def M_global(self) -> float:
        """Dissipativity level valid at every feasible point."""
        return globalize_constants(self.a, self.b, self.r_star, self.M, self.gamma)

    @property
    def young_split(self) -> tuple[float, float, float]:
        """(c, delta, eta) of the energy bounds: the rate c = gamma in (0, 2 gamma)
        and the even split delta = eta = (2 gamma - c) / 2 of the margin left."""
        delta = (2.0 * self.gamma - self.gamma) / 2.0
        return self.gamma, delta, delta

    def growth_bound(self, radius: float) -> float:
        return self.a + self.b * float(radius)

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


def _constants(a, b, r_star, M, gamma, ell=None) -> dict:
    return {"growth": (a, b), "dissipativity": (r_star, M, gamma), "ell": ell}


def _model(f, G, C, constants, name="custom") -> MonotoneModel:
    return MonotoneModel(field_from_config(f), regular_part_from_config(G), set_from_config(C),
                         **build_record("constants", {None: _constants}, constants, None),
                         name=name)


def model_from_config(cfg: dict) -> MonotoneModel:
    """Build a MonotoneModel from its untagged configuration record
    {"f": ..., "G": ..., "C": ..., "constants": {...}, "name": ...}."""
    return build_record("model", {None: _model}, cfg, None)

