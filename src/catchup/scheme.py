"""The predictor-projection iteration and its discrete bookkeeping.

One step from a feasible x_k: pick a selection w_k of the effective field,
move to the predictor y_{k+1} = x_k + mu_k w_k, then pull back onto the
set with an eps_k-relaxed projection.  The defect p_k = x_{k+1} - y_{k+1}
and the normal term v_k = -p_k / mu_k make the update read

    (x_{k+1} - x_k) / mu_k = w_k - v_k,

the discrete analogue of splitting the velocity into field and constraint
reaction.  This module owns step/error schedules, the stepping loop, the
run container with its interpolants, and CSV/manifest serialization.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .geometry import (
    PROBE_SEED,
    ConvexSet,
    ExactProjection,
    GeometryError,
    _as_vector,
    approx_project,
    check_array,
    check_number,
    in_approx_normal_cone,
    probe_count,
    probe_stack,
)
from .operators import MinimalNorm, MonotoneModel, select_F  # noqa: F401 (bench/tracing.py wraps)

__all__ = [
    "SchemeError",
    "Uniform",
    "Polynomial",
    "ExplicitSteps",
    "ZeroError",
    "PowerOfStep",
    "ExplicitErrors",
    "StepSchedule",
    "make_schedule",
    "step",
    "run",
    "DiscreteRun",
    "verify_run_invariants",
    "read_run_csv",
    "write_csv",
]


class SchemeError(Exception):
    """A step or invariant of the iteration failed.

    When raised from `run`, the partial trajectory computed so far is
    attached as `partial_run` for diagnosis.  `kind` says which check of
    the stepping loop failed: `projection_budget` (the projection policy
    could not certify its output within budget), `contract` (the defect
    contract), `overflow` (the contract or the selection beyond float range),
    `infeasible` (the projected point left the set) or `normal_cone` (a
    normal term failed its cone certificate under exact projection); it is
    None for a failure outside the loop, except `overflow`, also a
    certificate bound beyond float range in the CLI's report.
    """

    def __init__(self, message, partial_run=None, kind: str | None = None):
        super().__init__(message)
        self.partial_run = partial_run
        self.kind = kind


# --- step-size and error schedules ----------------------------------------
#
# A step rule's `resolve(T)` returns the steps that fit the horizon T, their
# node times and a label; an error rule's `resolve(mus)` returns eps_k for
# each step, a label and warnings.  A rule's config record holds its
# constructor arguments (see `geometry.build_record`), which `resolve`
# converts and checks.

# The most steps a schedule may have.  A run keeps three (n, dim) arrays,
# and a step takes about 1 us (the float body of `step`) to 15 us (a vector
# in R^8) on a 2-vCPU Xeon, so 10**7 steps are seconds to minutes of stepping
# and gigabytes of CSV; without a cap, a horizon the steps cannot fill
# (polynomial steps over T = 1e308) grows its step list until memory runs out.
MAX_STEPS = 10 ** 7


def _too_many_steps(T: float) -> ValueError:
    return ValueError(f"horizon {T} needs more than MAX_STEPS = {MAX_STEPS} steps")


def _fill_horizon(steps, T: float):
    """The leading steps whose running sum stays within T, and their node
    times; ValueError when they are more than MAX_STEPS."""
    mus = []
    t = 0.0
    for mu in steps:
        if t + mu > T * (1.0 + 1e-12):
            break
        if len(mus) == MAX_STEPS:
            raise _too_many_steps(T)
        mus.append(mu)
        t += mu
    mus = np.asarray(mus, dtype=float)
    return mus, np.concatenate([[0.0], np.cumsum(mus)])


@dataclass(frozen=True)
class Uniform:
    """Constant step mu0 on the whole horizon."""
    mu0: float

    def resolve(self, T: float):
        mu0 = check_number(self.mu0, "mu0")
        if not mu0 > 0:
            raise ValueError("mu0 must be positive")
        n = np.floor(T / mu0 + 1e-9)
        if n > MAX_STEPS:  # before the grid is allocated
            raise _too_many_steps(T)
        n = int(n)
        if n < 1:
            raise ValueError(f"horizon {T} is shorter than one step {mu0}")
        # exact arithmetic grid; accumulation would drift over many steps
        return np.full(n, mu0), np.arange(n + 1) * mu0, f"uniform(mu0={mu0})"


@dataclass(frozen=True)
class Polynomial:
    """Decaying steps mu_k = mu0 / (k+1)^alpha with alpha in (0, 1]."""
    mu0: float
    alpha: float

    def resolve(self, T: float):
        mu0, alpha = check_number(self.mu0, "mu0"), check_number(self.alpha, "alpha")
        if not mu0 > 0:
            raise ValueError("mu0 must be positive")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        # the first MAX_STEPS + 1 steps sum to at most
        # mu0 (1 + int_1^n x^-alpha dx) with n = MAX_STEPS + 1; a horizon
        # twice that (a margin for the rounding of both sums) needs more
        g, log_n = 1.0 - alpha, math.log(MAX_STEPS + 1)
        if T > 2.0 * mu0 * (1.0 + (math.expm1(g * log_n) / g if g else log_n)):
            raise _too_many_steps(T)
        mus, times = _fill_horizon((mu0 / (k + 1) ** alpha for k in itertools.count()), T)
        if not mus.size:
            raise ValueError(f"horizon {T} is shorter than the first step {mu0}")
        return mus, times, f"polynomial(mu0={mu0}, alpha={alpha})"


@dataclass(frozen=True)
class ExplicitSteps:
    """A caller-supplied positive nonincreasing step list."""
    values: list

    def resolve(self, T: float):
        vals = check_array(self.values, "values")
        if vals.size == 0:
            raise ValueError("explicit step list is empty")
        if not np.all(vals > 0):
            raise ValueError("explicit steps must be positive")
        if np.any(np.diff(vals) > 1e-12 * vals[:-1]):
            raise ValueError("explicit steps must be nonincreasing")
        mus, times = _fill_horizon(vals, T)
        if not mus.size:
            raise ValueError("horizon is shorter than the first explicit step")
        return mus, times, f"explicit({mus.size} steps)"


@dataclass(frozen=True)
class ZeroError:
    """Exact projections: eps_k = 0."""

    def resolve(self, mus: NDArray):
        return np.zeros_like(mus), "zero", []


@dataclass(frozen=True)
class PowerOfStep:
    """eps_k = eps0 * mu_k^(2 + beta) with beta > 0, so eps_k/mu_k^2 -> 0
    as steps refine."""
    eps0: float
    beta: float

    def resolve(self, mus: NDArray):
        eps0, beta = check_number(self.eps0, "eps0"), check_number(self.beta, "beta")
        if eps0 < 0:
            raise ValueError(f"eps0 must be nonnegative, got {eps0}")
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            eps = eps0 * mus ** (2.0 + beta)
        if not np.all(np.isfinite(eps)):
            raise ValueError(f"eps0 must keep every eps_k = eps0 mu_k^(2 + beta) finite, "
                             f"got eps0={eps0} with beta={beta}")
        return eps, f"power_of_step(eps0={eps0}, beta={beta})", []


@dataclass(frozen=True)
class ExplicitErrors:
    """A caller-supplied nonnegative error list."""
    values: list

    def resolve(self, mus: NDArray):
        vals = check_array(self.values, "values")
        if vals.size < mus.size:
            raise ValueError(
                f"explicit error list has {vals.size} entries, schedule needs {mus.size}"
            )
        eps = vals[: mus.size].copy()
        if np.any(eps < 0):
            raise ValueError("explicit error values must be nonnegative")
        ratio = eps / mus ** 2
        worse = np.nonzero(ratio[1:] > ratio[:-1] * (1.0 + 1e-9) + 1e-300)[0]
        if worse.size:
            k = int(worse[0]) + 1
            raise ValueError(
                f"error list violates eps_k/mu_k^2 decay at index {k}: "
                f"ratio rises from {ratio[k - 1]:.3e} to {ratio[k]:.3e}"
            )
        warnings = []
        if ratio[-1] > 0.0 and ratio[-1] > 0.9 * ratio[0]:
            warnings.append(
                "explicit errors keep eps_k/mu_k^2 from decaying "
                f"(ratio stays near {ratio[0]:.3e}); refinement guarantees degrade"
            )
        return eps, f"explicit({eps.size} values)", warnings


# config kind -> rule
STEP_RULES = {"uniform": Uniform, "polynomial": Polynomial, "explicit": ExplicitSteps}
ERROR_RULES = {"zero": ZeroError, "power_of_step": PowerOfStep, "explicit": ExplicitErrors}


@dataclass(frozen=True)
class StepSchedule:
    """Resolved grid: steps mus, tolerances eps, node times, horizon data.

    `times` has one more entry than `mus`; the last node t_n = sum(mus) is
    the largest grid time not exceeding the requested horizon, and all
    reported quantities live on [0, t_n].  `q_T` is the recorded sup of
    eps_k / mu_k^2.
    """

    mus: NDArray
    eps: NDArray
    times: NDArray
    horizon: float
    kind: str
    error_rule: str
    warnings: tuple = ()

    @property
    def n_steps(self) -> int:
        return self.mus.shape[0]

    @property
    def T(self) -> float:
        """The covered horizon t_n (<= the requested one)."""
        return float(self.times[-1])

    @property
    def mu_norm(self) -> float:
        return float(self.mus.max())

    @property
    def q_T(self) -> float:
        return float(np.max(self.eps / self.mus ** 2))

    @property
    def sum_mu_sq(self) -> float:
        return float(np.sum(self.mus ** 2))

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "error_rule": self.error_rule,
            "horizon": self.horizon,
            "n_steps": self.n_steps,
            "T": self.T,
            "mu_norm": self.mu_norm,
            "q_T": self.q_T,
            "warnings": list(self.warnings),
        }


def make_schedule(T: float, steps, errors=None) -> StepSchedule:
    """Resolve step and error rules into a concrete grid on [0, T]."""
    T = float(T)
    if not (T > 0 and np.isfinite(T)):
        raise ValueError("horizon must be positive and finite")
    if errors is None:
        errors = ZeroError()
    mus, times, kind = steps.resolve(T)
    eps, error_rule, warnings = errors.resolve(mus)
    return StepSchedule(
        mus=mus, eps=eps, times=times, horizon=T,
        kind=kind, error_rule=error_rule, warnings=tuple(warnings),
    )


# --- single step -----------------------------------------------------------

def _contract_holds(lhs, rhs, xx):
    """lhs = |p|^2 <= rhs = mu^2 |w|^2 + eps up to a roundoff slack scaled to xx = |x|^2; false
    where both sides overflow or |x|^2 does and |p|^2 needs slack, true if lhs <= rhs < inf."""
    return ((lhs <= rhs + 1e-9 * (1.0 + rhs + xx))
            & ((lhs < math.inf) | (rhs < math.inf)) & ((xx < math.inf) | (lhs <= rhs)))


def step(model: MonotoneModel, x, mu: float, eps: float,
         selection=None, projection=None, sel_rng=None, proj_rng=None):
    """One predictor-projection update from a feasible point.

    Returns (x_next, w, p); the predictor x + mu w and the normal term
    -p / mu follow from them.  Raises SchemeError if the defect violates
    the eps-contract |p|^2 <= mu^2 |w|^2 + eps (which any valid relaxed
    projection must satisfy, since x itself is feasible), kind `overflow`
    where it cannot be judged in float range (see `_contract_holds`) or
    the selection leaves it, or if the projection judged the produced
    point infeasible.

    A Python float x steps to Python floats x_next, w and p, with the bits
    of the step from [x].  Under a model of float form (`model.float_form`),
    a selection with `pick_float`, the exact projection and a Python float
    mu, they come from one frame of float arithmetic, and the step from [x]
    runs in its place where its numpy calls would warn or a check fails.
    Any other x is read as a vector.
    """
    selection, projection = selection or MinimalNorm(), projection or ExactProjection()
    scalar = type(x) is float
    pick = scalar and type(projection) is ExactProjection and getattr(selection, "pick_float", None)
    form = pick and type(mu) is float and model.float_form
    if form and mu > 0 and eps >= 0:
        a, b, m, weight, lower, upper = form
        f = a * x + b
        if weight is None:
            g_lo = g_hi = m * x + 0.0  # {m x}, which `@` sums from 0.0
        elif x:
            g_lo = g_hi = weight if x > 0 else -weight  # {weight sign(x)}
        else:
            g_lo, g_hi = -weight, weight
        w = f - pick(g_lo, g_hi, f)
        y = x + mu * w
        x_next = y if y > lower else lower  # np.clip's bits: a tie takes the bound
        x_next = x_next if x_next < upper else upper
        p = x_next - y
        # the contract; a failed one, or a square beyond float range, takes
        # the vector step below, which raises or warns
        lhs, ww, xx = p * p, w * w, x * x
        rhs = mu * mu * ww + eps
        finite = xx + ww + x_next * x_next + lhs < math.inf  # False for NaN too
        if finite and (lhs <= rhs or _contract_holds(lhs, rhs, xx)):
            return x_next, w, p
    x = _as_vector(x, model.dim)
    if not mu > 0:  # NaN too
        raise ValueError(f"mu must be positive, got {mu}")
    try:  # `select_F`, in this frame
        f_val = model.f(x)
        w = f_val - selection.pick(*model.G.value(x), f_val, sel_rng)
    except OverflowError as exc:  # a random draw from an interval wider than float range
        raise SchemeError(f"selection leaves the float range: {exc}", kind="overflow") from exc
    y = x + mu * w
    try:
        x_next, member = approx_project(model.C, y, eps, policy=projection, rng=proj_rng)
    except GeometryError as exc:
        raise SchemeError(f"projection failed: {exc}", kind="projection_budget") from exc
    p = x_next - y
    lhs, ww, xx = float(p.dot(p)), float(w.dot(w)), float(x.dot(x))
    rhs = mu * mu * ww + eps
    if not (lhs <= rhs < math.inf or _contract_holds(lhs, rhs, xx)):
        if (far := xx == math.inf) or lhs == rhs == math.inf:
            raise SchemeError("defect contract leaves the float range: " + (
                f"|x|^2 = inf, |p|^2 = {lhs:.6e} > mu^2|w|^2 + eps = {rhs:.6e}" if far
                else "|p|^2 = mu^2|w|^2 + eps = inf"), kind="overflow")
        raise SchemeError(
            f"defect contract violated: |p|^2 = {lhs:.6e} > mu^2|w|^2 + eps = {rhs:.6e}",
            kind="contract",
        )
    if not member:
        raise SchemeError(f"projected point left the set (distance "
                          f"{model.C.distance(x_next):.3e})", kind="infeasible")
    if scalar:  # a float state stepped as the vector [x]
        return x_next.item(), w.item(), p.item()
    return x_next, w, p


# --- full runs --------------------------------------------------------------

# Probe points that the normal-cone certificates of a run may project in one
# call: chunks of 163 certificates in R^2, 14 in R^8.
PROBE_ROW_BUDGET = 4096


class DiscreteRun:
    """A completed (or aborted) trajectory with all per-step data.

    Arrays: X has n+1 rows; the selections W and the defects P have n rows
    (one per step), from which the predictors and normal terms follow.
    The interpolants follow the usual half-open cell convention
    [t_k, t_{k+1}) with the right endpoint of the last cell included.
    """

    def __init__(self, model, schedule, X, W, P,
                 selection_name="minimal_norm", projection_name="exact",
                 seeds=None, certificates=None):
        self.model = model
        self.schedule = schedule
        self.X = np.asarray(X, dtype=float)
        self.W = np.asarray(W, dtype=float)
        self.P = np.asarray(P, dtype=float)
        self.selection_name = selection_name
        self.projection_name = projection_name
        self.seeds = dict(seeds or {})
        self.certificates = list(certificates or [])

    @property
    def times(self) -> NDArray:
        return self.schedule.times

    @property
    def n_steps(self) -> int:
        return self.W.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def T(self) -> float:
        return float(self.times[self.n_steps])

    def squared_norms(self, overflow_ok: bool = False) -> NDArray:
        """|x_k|^2 of each state, with no RuntimeWarning.  Where a finite
        state's square leaves float range it is inf if `overflow_ok`, else
        an OverflowError, since a bound read from it would be inf or NaN."""
        with np.errstate(over="ignore"):
            a2 = np.sum(self.X * self.X, axis=1)
        if not (overflow_ok or np.isfinite(a2).all()) and np.isfinite(self.X).all():
            raise OverflowError("a squared state |x_k|^2 leaves the float range")
        return a2

    def measured_radius(self) -> float:
        return float(np.sqrt(np.max(self.squared_norms(overflow_ok=True))))

    def measured_sup_w(self) -> float:
        return float(np.max(np.linalg.norm(self.W, axis=1), initial=0.0))

    def _cell(self, t):
        """The cell index of a time, or elementwise of an array of times."""
        times = self.times
        n = self.n_steps
        if np.any(t < times[0] - 1e-12) or np.any(t > times[n] + 1e-12):
            raise ValueError(f"t={t} outside the grid range [0, {times[n]}]")
        return np.clip(np.searchsorted(times[: n + 1], t, side="right") - 1, 0, n - 1)

    def interpolate_state(self, t) -> NDArray:
        """Piecewise-affine interpolant through the iterates, at a time or
        at each time of an array (one row per time)."""
        k = self._cell(t)
        lam = np.clip((t - self.times[k]) / self.schedule.mus[k], 0.0, 1.0)[..., None]
        return (1.0 - lam) * self.X[k] + lam * self.X[k + 1]

    def to_manifest(self, apriori: dict | None = None) -> dict:
        """The run's record, with `diagnostics.apriori_envelope` or {} as `apriori`."""
        cert_summary = summarize_certificates(self.certificates)
        return {
            "model": self.model.to_config(),
            "schedule": self.schedule.to_config(),
            "policies": {
                "selection": self.selection_name,
                "projection": self.projection_name,
            },
            "seeds": self.seeds,
            "certificates": cert_summary,
            "apriori": apriori or {},
            "warnings": list(self.schedule.warnings),
            "measured": {
                "radius": self.measured_radius(),
                "sup_w": self.measured_sup_w(),
                "final_state": self.X[-1].tolist(),
            },
        }

    def to_csv(self, path=None) -> str | None:
        """Columnar dump: k, t, state, selection, defect, normal term,
        step, tolerance.  The last row carries only (k, t, state).  The
        normal term of a step with a zero defect is +0.0, else -p / mu."""
        d, n = self.dim, self.n_steps
        mus = self.schedule.mus[:n]
        V = np.where(self.P.any(axis=1, keepdims=True), self.P / -mus[:, None], 0.0)
        header = ["k", "t"] + [f"{name}{i}" for name in "xwpv" for i in range(d)] + ["mu", "eps"]
        columns = [np.arange(n), self.times[:n], *self.X[:n].T, *self.W.T, *self.P.T,
                   *V.T, mus, self.schedule.eps[:n]]
        last = (n, float(self.times[n]), *self.X[n].tolist(), *[None] * (3 * d + 2))
        return write_csv(path, header, columns, last)


def summarize_certificates(certificates) -> dict:
    """Aggregate the per-step normal-cone records for the manifest."""
    if not certificates:
        return {"normal_cone": {"checked": 0, "failed": 0}}
    failed = [c for c in certificates if not c["holds"]]
    worst = max(certificates, key=lambda c: c["worst_violation"] - c["delta"])
    return {
        "normal_cone": {
            "checked": len(certificates),
            "failed": len(failed),
            "worst_step": int(worst["k"]),
            "worst_violation": float(worst["worst_violation"]),
            "worst_delta": float(worst["delta"]),
            "window": float(worst["window"]),
        }
    }


def run(model: MonotoneModel, x0, schedule: StepSchedule,
        selection=None, projection=None,
        certify_normals: bool = True) -> DiscreteRun:
    """Iterate the scheme over the whole grid.

    In one dimension the state is a Python float (see `step`), and the
    steps' values go into X, W and P through memoryviews.
    A failed step raises SchemeError with the partial run attached.  When
    `certify_normals` is set, every completed step with a nonzero defect
    then gets a sampled normal-cone certificate for v_k at slack delta_k;
    with exact projections a failed certificate is an error (the inclusion
    is exact there), otherwise it is recorded and left to the diagnostics
    layer.  Certificates never feed back into the trajectory, so they are
    taken after the stepping loop, their probe points projected in chunks
    of PROBE_ROW_BUDGET rows and judged in step order.  The first failure
    wins: a certificate failing at step k raises with the run over its
    first k + 1 steps, and a failed step raises once the certificates
    before it have passed.
    """
    C = model.C
    selection = selection or MinimalNorm()
    projection = projection or ExactProjection()
    x0 = C.require_member(x0)
    n = schedule.n_steps
    d = model.dim
    X = np.empty((n + 1, d))
    W = np.empty((n, d))
    P = np.empty((n, d))
    X[0] = x0

    policies = {"selection": selection, "projection": projection}
    seeds = {key: policy.seed for key, policy in policies.items() if policy.seed is not None}
    sel_rng, proj_rng = (None if policy.seed is None else np.random.default_rng(policy.seed)
                         for policy in policies.values())
    if certify_normals:
        seeds["probes"] = PROBE_SEED
    certificates = []

    def result(k):
        """The run over its first k steps."""
        return DiscreteRun(
            model, schedule, X[: k + 1], W[:k], P[:k],
            selection_name=selection.name, projection_name=projection.name,
            seeds=seeds, certificates=certificates,
        )

    # steps, tolerances and normal-cone slacks delta_k = eps_k / (2 mu_k), read
    # as Python floats through memoryviews; float lists would hold an object
    # per step, which raises the peak memory of a 20000-step run by about 1 MB
    mus, eps = memoryview(schedule.mus), memoryview(schedule.eps)
    deltas = memoryview(schedule.eps / (2.0 * schedule.mus))
    failure, done, x, (Xs, Ws, Ps) = None, n, x0, (X, W, P)
    if d == 1:  # float states, written through memoryviews
        x, Xs, Ws, Ps = x0.item(), *(memoryview(A.reshape(-1)) for A in (X, W, P))
    for k in range(n):
        try:
            x, Ws[k], Ps[k] = step(model, x, mus[k], eps[k], selection, projection,
                                   sel_rng, proj_rng)
        except Exception as exc:
            failure, done = exc, k
            break
        Xs[k + 1] = x

    if certify_normals:
        certified = np.flatnonzero((P[:done] != 0).any(axis=1))
        chunk = max(1, PROBE_ROW_BUDGET // probe_count(d))
        for start in range(0, certified.size, chunk):
            ks = certified[start: start + chunk]
            try:
                points, windows = probe_stack(C, X[ks + 1])
            except GeometryError:
                # a probe point failed to project: certify one step at a time, so
                # that the error comes at its own step, after the verdicts before it
                points = None
            for i, k in enumerate(ks.tolist()):
                delta_k = deltas[k]
                row = None if points is None else (points[i], float(windows[i]))
                cert = in_approx_normal_cone(C, X[k + 1], P[k] / -mus[k], delta_k, row)
                certificates.append({**cert.to_record(), "k": k})
                if projection.exact and not cert.holds:
                    raise SchemeError(
                        f"step {k}: normal term failed its cone certificate under exact "
                        f"projection (violation {cert.worst_violation:.3e} > delta {delta_k:.3e})",
                        partial_run=result(k + 1), kind="normal_cone",
                    ) from None
    if isinstance(failure, SchemeError):
        raise SchemeError(f"step {done} failed: {failure}", partial_run=result(done),
                          kind=failure.kind) from failure
    if failure is not None:
        raise failure
    return result(n)


# --- serialization round trip ----------------------------------------------

# write_csv formats and writes this many rows at a time, so that the cells
# of a block, never those of the whole table, exist as strings at once
CSV_BLOCK_ROWS = 256


def _cells(col: NDArray):
    """The cell texts of a block of a column.  A float column formats each
    run of equal bit patterns once (so +0.0 and -0.0, or NaNs of different
    payloads, are runs of their own), unless its runs are mostly one row."""
    if col.dtype == np.float64:
        bits = col.view(np.int64)
        edges = np.empty(len(col) + 1, dtype=bool)  # the start of each run, and the end
        edges[0] = edges[-1] = True
        np.not_equal(bits[1:], bits[:-1], out=edges[1:-1])
        edges = np.flatnonzero(edges)
        if 2 * (len(edges) - 1) <= len(col):
            texts = map(repr, col[edges[:-1]].tolist())
            return itertools.chain.from_iterable(map(itertools.repeat, texts,
                                                     np.diff(edges).tolist()))
    return map(repr, col.tolist())


def write_csv(path, header, columns, last=None) -> str | None:
    """The table format of every CSV file the package writes: a header
    line, then one line per row of `columns` (numpy arrays of one length),
    ints written through str, floats through repr (full precision), then
    the row `last` of Python ints and floats, None an empty cell; "\n" line
    ends.  Writes to the file `path` and closes it, or returns the text
    when `path` is None."""

    def blocks():
        yield ",".join(header) + "\n"
        for i in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            cells = [_cells(col[i: i + CSV_BLOCK_ROWS]) for col in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"
        if last is not None:
            yield ",".join("" if v is None else repr(v) for v in last) + "\n"

    if path is None:
        return "".join(blocks())
    with open(path, "w") as fh:
        fh.writelines(blocks())
    return None


def read_run_csv(path_or_text: str) -> dict:
    """Parse a trajectory CSV back into arrays.

    Accepts a path or the raw text, told apart by the newline every CSV
    text has.  Returns a dict with keys times, X, W, P, V, mus, eps (arrays
    shaped as in DiscreteRun), column slices of one table.
    """
    text = path_or_text if "\n" in path_or_text else Path(path_or_text).read_text()
    lines = text.rstrip("\n").split("\n")
    n = len(lines) - 2
    if n < 0:
        raise ValueError("trajectory CSV has no data rows")
    header = lines[0].split(",")
    d = sum(1 for name in header if name.startswith("x"))
    if d == 0 or len(header) != 2 + 4 * d + 2:
        raise ValueError("unrecognized trajectory CSV header")
    # columns t, x, w, p, v, mu, eps; the last row holds only t and x
    table = np.empty((n + 1, 4 * d + 3))
    if n:
        table[:n] = np.loadtxt(lines[1:-1], delimiter=",", comments=None, ndmin=2)[:, 1:]
    table[n, :d + 1] = np.array(lines[-1].split(",")[1: d + 2], dtype=float)
    body = table[:n]
    return {"times": table[:, 0], "X": table[:, 1: 1 + d],
            "W": body[:, 1 + d: 1 + 2 * d], "P": body[:, 1 + 2 * d: 1 + 3 * d],
            "V": body[:, 1 + 3 * d: 1 + 4 * d],
            "mus": body[:, 1 + 4 * d], "eps": body[:, 2 + 4 * d]}


def verify_run_invariants(data: dict, C: ConvexSet | None = None) -> dict:
    """Re-check the per-step identities on raw arrays (e.g. after a CSV
    round trip): update bookkeeping, velocity split, defect contract, and
    feasibility when the set is supplied.  Returns a report dict; the
    `ok` flag is the conjunction, and `first_violation` names the earliest
    failing step (checks in that order on a tie)."""
    times, W, P, V = data["times"], data["W"], data["P"], data["V"]
    mus, eps = data["mus"], data["eps"]
    n = W.shape[0]
    x, x_next, mu = data["X"][:n], data["X"][1: n + 1], mus[:, None]
    size = functools.partial(np.linalg.norm, axis=1)
    # each row has the bits of its step's squares (`np.vecdot` sums as `.dot`)
    pp, ww, xx = np.vecdot(P, P), np.vecdot(W, W), np.vecdot(x, x)
    # one mask per identity, True at the steps that break it
    failed = {
        "update_identity": size(x_next - (x + mu * W + P)) > 1e-12 * (1.0 + size(x)),
        # the division amplifies the predictor's roundoff by 1/mu
        "velocity_identity": size((x_next - x) / mu - (W - V))
        > 1e-12 * (1.0 + size(W) + size(V)) + 1e-15 * (1.0 + size(x)) / mus,
        "defect_contract": ~_contract_holds(pp, mus * mus * ww + eps, xx),
    }
    if C is not None:
        failed["feasibility"] = ~C.contains(x_next)
    report = {key: not mask.any() for key, mask in failed.items()}
    report.setdefault("feasibility", None)
    first = min(((int(np.argmax(mask)), order, key)
                 for order, (key, mask) in enumerate(failed.items()) if mask.any()), default=None)
    report["first_violation"] = None if first is None else {"check": first[2], "k": first[0]}
    if abs(times[0]) > 1e-12 or np.max(np.abs(np.diff(times) - mus), initial=0.0) > 1e-9:
        report["update_identity"] = False
        report["first_violation"] = (report["first_violation"]
                                     or {"check": "update_identity", "k": -1})
    report["ok"] = all(report[key] is not False for key in failed)
    return report
