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

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import (
    ConvexSet,
    ExactProjection,
    GeometryError,
    ProbeSpec,
    _as_vector,
    approx_project,
    in_approx_normal_cone,
)
from .operators import MinimalNorm, MonotoneModel, select_F

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
]


class SchemeError(Exception):
    """A step or invariant of the iteration failed.

    When raised from `run`, the partial trajectory computed so far is
    attached as `partial_run` for diagnosis.
    """

    def __init__(self, message, partial_run=None):
        super().__init__(message)
        self.partial_run = partial_run


# --- step-size and error schedules ----------------------------------------
#
# A step rule's `resolve(T)` returns the steps that fit the horizon T, their
# node times and a label; an error rule's `resolve(mus)` returns eps_k for
# each step, a label and warnings.  `from_config(spec, seed)` builds a rule
# from its config record (rules draw nothing, so the seed goes unused).

def _fill_horizon(steps, T: float):
    """The leading steps whose running sum stays within T, and their node times."""
    mus = []
    t = 0.0
    for mu in steps:
        if t + mu > T * (1.0 + 1e-12):
            break
        mus.append(mu)
        t += mu
    mus = np.asarray(mus, dtype=float)
    return mus, np.concatenate([[0.0], np.cumsum(mus)])


@dataclass(frozen=True)
class Uniform:
    """Constant step mu0 on the whole horizon."""
    mu0: float

    def resolve(self, T: float):
        mu0 = float(self.mu0)
        if not mu0 > 0:
            raise ValueError("mu0 must be positive")
        n = int(np.floor(T / mu0 + 1e-9))
        if n < 1:
            raise ValueError(f"horizon {T} is shorter than one step {mu0}")
        # exact arithmetic grid; accumulation would drift over many steps
        return np.full(n, mu0), np.arange(n + 1) * mu0, f"uniform(mu0={mu0})"

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls(float(spec["mu0"]))


@dataclass(frozen=True)
class Polynomial:
    """Decaying steps mu_k = mu0 / (k+1)^alpha with alpha in (0, 1]."""
    mu0: float
    alpha: float

    def resolve(self, T: float):
        mu0, alpha = float(self.mu0), float(self.alpha)
        if not mu0 > 0:
            raise ValueError("mu0 must be positive")
        if not (0.0 < alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        mus, times = _fill_horizon((mu0 / (k + 1) ** alpha for k in itertools.count()), T)
        if not mus.size:
            raise ValueError(f"horizon {T} is shorter than the first step {mu0}")
        return mus, times, f"polynomial(mu0={mu0}, alpha={alpha})"

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls(float(spec["mu0"]), float(spec["alpha"]))


@dataclass(frozen=True)
class ExplicitSteps:
    """A caller-supplied positive nonincreasing step list."""
    values: tuple

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(float(v) for v in values))

    def resolve(self, T: float):
        vals = np.asarray(self.values, dtype=float)
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

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls(spec["values"])


@dataclass(frozen=True)
class ZeroError:
    """Exact projections: eps_k = 0."""

    def resolve(self, mus: NDArray):
        return np.zeros_like(mus), "zero", []

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls()


@dataclass(frozen=True)
class PowerOfStep:
    """eps_k = eps0 * mu_k^(2 + beta) with beta > 0, so eps_k/mu_k^2 -> 0
    as steps refine."""
    eps0: float
    beta: float

    def resolve(self, mus: NDArray):
        eps0, beta = float(self.eps0), float(self.beta)
        if not eps0 >= 0:
            raise ValueError("eps0 must be nonnegative")
        if not beta > 0:
            raise ValueError("beta must be positive")
        return eps0 * mus ** (2.0 + beta), f"power_of_step(eps0={eps0}, beta={beta})", []

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls(float(spec["eps0"]), float(spec["beta"]))


@dataclass(frozen=True)
class ExplicitErrors:
    """A caller-supplied nonnegative error list."""
    values: tuple

    def __init__(self, values):
        object.__setattr__(self, "values", tuple(float(v) for v in values))

    def resolve(self, mus: NDArray):
        vals = np.asarray(self.values, dtype=float)
        if vals.size < mus.size:
            raise ValueError(
                f"explicit error list has {vals.size} entries, schedule needs {mus.size}"
            )
        eps = vals[: mus.size].copy()
        if not np.all(eps >= 0):
            raise ValueError("errors must be nonnegative")
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

    @classmethod
    def from_config(cls, spec: dict, seed: int | None):
        return cls(spec["values"])


# config kind -> rule builder
STEP_RULES = {
    "uniform": Uniform.from_config,
    "polynomial": Polynomial.from_config,
    "explicit": ExplicitSteps.from_config,
}
ERROR_RULES = {
    "zero": ZeroError.from_config,
    "power_of_step": PowerOfStep.from_config,
    "explicit": ExplicitErrors.from_config,
}


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

    def delta(self, k: int) -> float:
        """Normal-cone slack delta_k = eps_k / (2 mu_k)."""
        return float(self.eps[k] / (2.0 * self.mus[k]))

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

def step(model: MonotoneModel, x, mu: float, eps: float,
         selection=None, projection=None, sel_rng=None, proj_rng=None):
    """One predictor-projection update from a feasible point.

    Returns (x_next, y, w, p, v).  Raises SchemeError if the defect
    violates the eps-contract |p|^2 <= mu^2 |w|^2 + eps (which any valid
    relaxed projection must satisfy, since x itself is feasible) or if the
    produced point is infeasible.
    """
    C = model.C
    x = _as_vector(x, model.dim)
    if mu <= 0:
        raise ValueError("mu must be positive")
    w = select_F(model, x, rule=selection or MinimalNorm(), rng=sel_rng)
    y = x + mu * w
    try:
        x_next = approx_project(C, y, eps, policy=projection or ExactProjection(), rng=proj_rng)
    except GeometryError as exc:
        raise SchemeError(f"projection failed: {exc}") from exc
    p = x_next - y
    lhs = float(p @ p)
    rhs = mu * mu * float(w @ w) + eps
    slack = 1e-9 * (1.0 + rhs + float(x @ x))
    if lhs > rhs + slack:
        raise SchemeError(
            f"defect contract violated: |p|^2 = {lhs:.6e} > mu^2|w|^2 + eps = {rhs:.6e}"
        )
    if not C.contains(x_next):
        raise SchemeError(f"projected point left the set (distance {C.distance(x_next):.3e})")
    if np.any(p):
        v = -p / mu
    else:
        v = np.zeros_like(p)
    return x_next, y, w, p, v


# --- full runs --------------------------------------------------------------

class DiscreteRun:
    """A completed (or aborted) trajectory with all per-step data.

    Arrays: X has n+1 rows; W, Y, P, V have n rows (one per step).  The
    interpolants follow the usual half-open cell convention [t_k, t_{k+1})
    with the right endpoint of the last cell included.
    """

    def __init__(self, model, schedule, X, W, Y, P, V,
                 selection_name="minimal_norm", projection_name="exact",
                 seeds=None, certificates=None, apriori=None, warnings=()):
        self.model = model
        self.schedule = schedule
        self.X = np.asarray(X, dtype=float)
        self.W = np.asarray(W, dtype=float)
        self.Y = np.asarray(Y, dtype=float)
        self.P = np.asarray(P, dtype=float)
        self.V = np.asarray(V, dtype=float)
        self.selection_name = selection_name
        self.projection_name = projection_name
        self.seeds = dict(seeds or {})
        self.certificates = list(certificates or [])
        self.apriori = dict(apriori or {})
        self.warnings = tuple(warnings)

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

    def measured_radius(self) -> float:
        return float(np.max(np.linalg.norm(self.X, axis=1)))

    def measured_sup_w(self) -> float:
        if self.W.size == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.W, axis=1)))

    def _cell(self, t: float) -> int:
        times = self.times
        n = self.n_steps
        if t < times[0] - 1e-12 or t > times[n] + 1e-12:
            raise ValueError(f"t={t} outside the grid range [0, {times[n]}]")
        k = int(np.searchsorted(times[: n + 1], t, side="right")) - 1
        return min(max(k, 0), n - 1)

    def interpolate_state(self, t: float) -> NDArray:
        """Piecewise-affine interpolant through the iterates."""
        k = self._cell(t)
        mu = self.schedule.mus[k]
        lam = (t - self.times[k]) / mu
        lam = min(max(lam, 0.0), 1.0)
        return (1.0 - lam) * self.X[k] + lam * self.X[k + 1]

    def interpolate_predictor(self, t: float) -> NDArray:
        """Piecewise-constant predictor: y_{k+1} on [t_k, t_{k+1})."""
        return self.Y[self._cell(t)].copy()

    def to_manifest(self) -> dict:
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
            "apriori": self.apriori,
            "warnings": list(self.warnings),
            "measured": {
                "radius": self.measured_radius(),
                "sup_w": self.measured_sup_w(),
                "final_state": self.X[-1].tolist(),
            },
        }

    def to_csv(self, path=None) -> str | None:
        """Columnar dump: k, t, state, selection, defect, normal term,
        step, tolerance.  The last row carries only (k, t, state)."""
        d = self.dim
        header = (["k", "t"]
                  + [f"x{i}" for i in range(d)]
                  + [f"w{i}" for i in range(d)]
                  + [f"p{i}" for i in range(d)]
                  + [f"v{i}" for i in range(d)]
                  + ["mu", "eps"])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        n = self.n_steps
        for k in range(n):
            row = [k, repr(float(self.times[k]))]
            row += [repr(float(v)) for v in self.X[k]]
            row += [repr(float(v)) for v in self.W[k]]
            row += [repr(float(v)) for v in self.P[k]]
            row += [repr(float(v)) for v in self.V[k]]
            row += [repr(float(self.schedule.mus[k])), repr(float(self.schedule.eps[k]))]
            writer.writerow(row)
        last = [n, repr(float(self.times[n]))]
        last += [repr(float(v)) for v in self.X[n]]
        last += [""] * (3 * d + 2)
        writer.writerow(last)
        text = buf.getvalue()
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)
        return None


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


def _young_split(gamma: float, c: float | None = None):
    """A contraction rate c in (0, 2 gamma), gamma by default, and the even
    Young split delta = eta = (2 gamma - c) / 2 of the remaining margin."""
    if c is None:
        c = gamma
    if not (0.0 < c < 2.0 * gamma):
        raise ValueError(f"c must lie in (0, {2.0 * gamma}), got {c}")
    delta = (2.0 * gamma - c) / 2.0
    return float(c), float(delta), float(delta)


def _apriori_constants(model: MonotoneModel, schedule: StepSchedule, x0: NDArray,
                       c: float | None = None) -> dict:
    """The rough growth chain: a contraction rate c in (0, 2 gamma) splits
    2 gamma - c evenly between the two Young couplings, and the recursion
    a_{k+1} <= (1 + Lam mu) a_k + A mu + B mu^2 integrates to the
    exponential envelope K(T) bounding max_k |x_k|^2 ahead of the run.
    An envelope beyond float range is vacuous: its K_T, R_T, M_T and L_T
    are recorded as None."""
    c, delta, eta = _young_split(model.gamma, c)
    a, b = model.a, model.b
    q_T = schedule.q_T
    mu_T = schedule.mu_norm
    M_tilde = model.M_global
    coupling = 1.0 / delta + 1.0 / eta
    Lam = -c + 2.0 * b * b * coupling + 8.0 * b * b * mu_T
    A = 2.0 * M_tilde + 2.0 * a * a * coupling + q_T / delta
    B = 8.0 * a * a + 2.0 * q_T
    T = schedule.T
    with np.errstate(over="ignore", invalid="ignore"):
        K = float(np.exp(max(Lam, 0.0) * T) * (float(x0 @ x0) + A * T + B * schedule.sum_mu_sq))
    constants = {
        "c": c,
        "delta": delta,
        "eta": eta,
        "Lambda_T": float(Lam),
        "A_T": float(A),
        "B_T": float(B),
        "q_T": float(q_T),
        "M_tilde": float(M_tilde),
    }
    if not np.isfinite(K):
        return constants | {"K_T": None, "R_T": None, "M_T": None, "L_T": None, "vacuous": True}
    R = float(np.sqrt(K))
    M_T = a + b * R
    return constants | {"K_T": K, "R_T": R, "M_T": float(M_T),
                        "L_T": float(2.0 * M_T + np.sqrt(q_T))}


def run(model: MonotoneModel, x0, schedule: StepSchedule,
        selection=None, projection=None,
        certify_normals: bool = True, probe_spec: ProbeSpec | None = None) -> DiscreteRun:
    """Iterate the scheme over the whole grid.

    Per-step invariants are asserted as they are produced; a failure
    raises SchemeError with the partial run attached.  When
    `certify_normals` is set, every step with a nonzero defect gets a
    sampled normal-cone certificate for v_k at slack delta_k; with exact
    projections a failed certificate is an error (the inclusion is exact
    there), otherwise it is recorded and left to the diagnostics layer.
    """
    C = model.C
    selection = selection or MinimalNorm()
    projection = projection or ExactProjection()
    x0 = C.require_member(x0)
    n = schedule.n_steps
    d = model.dim
    X = np.empty((n + 1, d))
    W = np.empty((n, d))
    Y = np.empty((n, d))
    P = np.empty((n, d))
    V = np.empty((n, d))
    X[0] = x0

    policies = {"selection": selection, "projection": projection}
    seeds = {key: policy.seed for key, policy in policies.items() if policy.seed is not None}
    sel_rng, proj_rng = (None if policy.seed is None else np.random.default_rng(policy.seed)
                         for policy in policies.values())
    spec = probe_spec if probe_spec is not None else ProbeSpec()
    if certify_normals:
        seeds["probes"] = spec.seed

    certificates = []

    def result(k, apriori=None):
        """The run over its first k steps."""
        return DiscreteRun(
            model, schedule, X[: k + 1], W[:k], Y[:k], P[:k], V[:k],
            selection_name=selection.name, projection_name=projection.name,
            seeds=seeds, certificates=certificates, apriori=apriori,
            warnings=schedule.warnings,
        )

    for k in range(n):
        mu = float(schedule.mus[k])
        eps = float(schedule.eps[k])
        try:
            x_next, y, w, p, v = step(
                model, X[k], mu, eps,
                selection=selection, projection=projection,
                sel_rng=sel_rng, proj_rng=proj_rng,
            )
        except SchemeError as exc:
            raise SchemeError(f"step {k} failed: {exc}", partial_run=result(k)) from exc
        X[k + 1], Y[k], W[k], P[k], V[k] = x_next, y, w, p, v
        if certify_normals and np.any(p):
            delta_k = schedule.delta(k)
            cert = in_approx_normal_cone(C, x_next, v, delta_k, probes=spec)
            rec = cert.to_record()
            rec["k"] = k
            certificates.append(rec)
            if projection.exact and not cert.holds:
                raise SchemeError(
                    f"step {k}: normal term failed its cone certificate under exact "
                    f"projection (violation {cert.worst_violation:.3e} > delta {delta_k:.3e})",
                    partial_run=result(k + 1),
                )

    apriori = _apriori_constants(model, schedule, x0)
    apriori["within_bound"] = None if apriori.get("vacuous") else bool(
        np.max(np.sum(X * X, axis=1)) <= apriori["K_T"] * (1.0 + 1e-9)
    )
    return result(n, apriori)


# --- serialization round trip ----------------------------------------------

def read_run_csv(path_or_text: str) -> dict:
    """Parse a trajectory CSV back into arrays.

    Accepts a path or the raw text, told apart by the newline every CSV
    text has.  Returns a dict with keys times, X, W, P, V, mus, eps (arrays
    shaped as in DiscreteRun).
    """
    if "\n" in path_or_text:
        text = path_or_text
    else:
        with open(path_or_text) as fh:
            text = fh.read()
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("trajectory CSV has no data rows")
    header = rows[0]
    d = sum(1 for name in header if name.startswith("x"))
    if d == 0 or len(header) != 2 + 4 * d + 2:
        raise ValueError("unrecognized trajectory CSV header")
    body = rows[1:]
    n = len(body) - 1
    times = np.empty(n + 1)
    X = np.empty((n + 1, d))
    W = np.empty((n, d))
    P = np.empty((n, d))
    V = np.empty((n, d))
    mus = np.empty(n)
    eps = np.empty(n)
    for i, row in enumerate(body):
        times[i] = float(row[1])
        X[i] = [float(v) for v in row[2: 2 + d]]
        if i < n:
            W[i] = [float(v) for v in row[2 + d: 2 + 2 * d]]
            P[i] = [float(v) for v in row[2 + 2 * d: 2 + 3 * d]]
            V[i] = [float(v) for v in row[2 + 3 * d: 2 + 4 * d]]
            mus[i] = float(row[2 + 4 * d])
            eps[i] = float(row[2 + 4 * d + 1])
    return {"times": times, "X": X, "W": W, "P": P, "V": V, "mus": mus, "eps": eps}


def verify_run_invariants(data: dict, C: ConvexSet | None = None) -> dict:
    """Re-check the per-step identities on raw arrays (e.g. after a CSV
    round trip): update bookkeeping, velocity split, defect contract, and
    feasibility when the set is supplied.  Returns a report dict; the
    `ok` flag is the conjunction."""
    times, X, W, P, V = data["times"], data["X"], data["W"], data["P"], data["V"]
    mus, eps = data["mus"], data["eps"]
    n = W.shape[0]
    report = {
        "update_identity": True,
        "velocity_identity": True,
        "defect_contract": True,
        "feasibility": True if C is not None else None,
        "first_violation": None,
    }

    def fail(key, k):
        report[key] = False
        if report["first_violation"] is None:
            report["first_violation"] = {"check": key, "k": int(k)}

    for k in range(n):
        mu = mus[k]
        xtol = 1e-12 * (1.0 + float(np.linalg.norm(X[k])))
        if float(np.linalg.norm(X[k + 1] - (X[k] + mu * W[k] + P[k]))) > xtol:
            fail("update_identity", k)
        vel = (X[k + 1] - X[k]) / mu
        # the division amplifies the predictor's roundoff by 1/mu
        wtol = (1e-12 * (1.0 + float(np.linalg.norm(W[k])) + float(np.linalg.norm(V[k])))
                + 1e-15 * (1.0 + float(np.linalg.norm(X[k]))) / mu)
        if float(np.linalg.norm(vel - (W[k] - V[k]))) > wtol:
            fail("velocity_identity", k)
        lhs = float(P[k] @ P[k])
        rhs = mu * mu * float(W[k] @ W[k]) + eps[k]
        if lhs > rhs + 1e-9 * (1.0 + rhs + float(X[k] @ X[k])):
            fail("defect_contract", k)
        if C is not None and not C.contains(X[k + 1]):
            fail("feasibility", k)
    if abs(times[0]) > 1e-12 or np.max(np.abs(np.diff(times) - mus)) > 1e-9:
        fail("update_identity", -1)
    report["ok"] = all(v is not False for v in
                       (report["update_identity"], report["velocity_identity"],
                        report["defect_contract"], report["feasibility"]))
    return report
