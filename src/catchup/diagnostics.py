"""Runtime verification of the quantitative certificates.

Each checker takes a completed run (or a model plus points) and returns a
CertificateEntry holding the measured quantity, the assembled theoretical
bound, their margin, and a pass flag.  Bounds are assembled from measured
run constants (radius, selection bound) rather than the a-priori growth
chain, which is also reported but can be astronomically loose; integrals
over the interpolants are computed cell by cell in closed form, so the
margins contain no quadrature error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .geometry import ExactProjection, approx_project
from .operators import MinimalNorm, MonotoneModel, select_F
from .scheme import DiscreteRun, StepSchedule, _young_split, run as run_scheme, step as scheme_step

__all__ = [
    "CertificateEntry",
    "DiagnosticsReport",
    "continuous_energy_bound",
    "check_discrete_energy",
    "check_beta_domination",
    "defect_summability",
    "predictor_feasibility",
    "stability_experiment",
    "local_truncation",
    "corrector_stability_check",
    "run_constants",
]

# float fuzz added to bounds before comparing; certificates must hold
# mathematically, this only absorbs roundoff in their evaluation
_FUZZ = 1e-9


@dataclass
class CertificateEntry:
    """One verified inequality: measured value, bound, margin, verdict."""

    theorem_tag: str
    measured: float
    bound: float
    margin: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        rec = {
            "measured": self.measured,
            "bound": self.bound,
            "margin": self.margin,
            "pass": self.passed,
            "theorem_tag": self.theorem_tag,
        }
        if self.detail:
            rec["detail"] = self.detail
        return rec


class DiagnosticsReport:
    """Ordered collection of certificate entries with JSON and text forms."""

    def __init__(self):
        self.entries: list[CertificateEntry] = []

    def add(self, entry: CertificateEntry):
        self.entries.append(entry)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self, **kwargs) -> str:
        return json.dumps({e.theorem_tag: e.to_record() for e in self.entries},
                          indent=2, **kwargs)

    def to_text(self) -> str:
        if not self.entries:
            return "(no certificates)"
        rows = [("certificate", "measured", "bound", "margin", "verdict")]
        for e in self.entries:
            rows.append((
                e.theorem_tag,
                f"{e.measured:.6e}",
                f"{e.bound:.6e}",
                f"{e.margin:+.3e}",
                "pass" if e.passed else "FAIL",
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = []
        for i, r in enumerate(rows):
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def run_constants(run: DiscreteRun, c: float | None = None) -> dict:
    """Measured constants of a run plus the Young-split bookkeeping.

    The split parameters satisfy delta + eta = 2 gamma - c with the even
    choice delta = eta; R_T is the measured radius, M_T = a + b R_T its
    induced selection bound, q_T comes from the schedule.
    """
    model = run.model
    c, delta, eta = _young_split(model.gamma, c)
    R_T = run.measured_radius()
    M_T = model.a + model.b * R_T
    q_T = run.schedule.q_T
    return {
        "c": c,
        "delta": delta,
        "eta": eta,
        "R_T": float(R_T),
        "M_T": float(M_T),
        "q_T": float(q_T),
        "M_tilde": float(model.M_global),
        "sup_w": run.measured_sup_w(),
    }


def continuous_energy_bound(x0, M_tilde: float, gamma: float, t) -> NDArray:
    """The squared-norm envelope e^{-2 gamma t} |x0|^2
    + (M_tilde/gamma)(1 - e^{-2 gamma t}), nondecreasing toward
    M_tilde/gamma when it starts below it."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    decay = np.exp(-2.0 * gamma * t)
    return decay * float(x0 @ x0) + (M_tilde / gamma) * (1.0 - decay)


def check_discrete_energy(run: DiscreteRun, c: float | None = None) -> CertificateEntry:
    """Per-step energy inequality with assembled constants.

    Verifies |x_{k+1}|^2 <= (1 - c mu_k) |x_k|^2 + C0 mu_k + C1 mu_k^2 at
    every step, with C0 = 2 M~ + (1/delta + 1/eta) M_T^2 + q_T/delta and
    C1 = 4 M_T^2 + 2 q_T.  The measured value is the worst residual
    (positive = violation); the bound is zero.
    """
    k = run_constants(run, c)
    C0 = 2.0 * k["M_tilde"] + (1.0 / k["delta"] + 1.0 / k["eta"]) * k["M_T"] ** 2 \
        + k["q_T"] / k["delta"]
    C1 = 4.0 * k["M_T"] ** 2 + 2.0 * k["q_T"]
    mus = run.schedule.mus
    a2 = np.sum(run.X * run.X, axis=1)
    rhs = (1.0 - k["c"] * mus) * a2[:-1] + C0 * mus + C1 * mus ** 2
    residuals = a2[1:] - rhs
    worst = float(np.max(residuals)) if residuals.size else 0.0
    slack = _FUZZ * (1.0 + float(np.max(a2)))
    return CertificateEntry(
        theorem_tag="energy",
        measured=worst,
        bound=0.0,
        margin=-worst,
        passed=bool(worst <= slack),
        detail={
            "C0": C0, "C1": C1, "worst_step": int(np.argmax(residuals)) if residuals.size else -1,
            **{key: k[key] for key in ("c", "delta", "eta", "R_T", "M_T", "q_T", "M_tilde")},
        },
    )


def check_beta_domination(run: DiscreteRun, level: float | None = None,
                          gamma: float | None = None) -> CertificateEntry:
    """Grid check of |x_k|^2 against the continuous envelope beta(t_k).

    `level` defaults to the globalized dissipativity constant; a model
    with a sharper level valid at every feasible point (the scalar model's
    local M is one) may pass it explicitly.  The measured value is the
    worst overshoot max_k (|x_k|^2 - beta(t_k)), clamped at zero from
    below in the margin so refinement studies can compare slacks.
    """
    model = run.model
    if level is None:
        level = model.M_global
    if gamma is None:
        gamma = model.gamma
    beta = continuous_energy_bound(run.X[0], level, gamma, run.times)
    a2 = np.sum(run.X * run.X, axis=1)
    overshoot = a2 - beta
    worst = float(np.max(overshoot))
    k_worst = int(np.argmax(overshoot))
    slack = _FUZZ * (1.0 + float(np.max(a2)))
    return CertificateEntry(
        theorem_tag="beta_bound",
        measured=worst,
        bound=0.0,
        margin=-worst,
        passed=bool(worst <= slack),
        detail={
            "level": float(level), "gamma": float(gamma),
            "worst_time": float(run.times[k_worst]),
            "slack_per_mu": float(max(worst, 0.0) / run.schedule.mu_norm),
        },
    )


def defect_summability(run: DiscreteRun) -> CertificateEntry:
    """Sum of squared defects against M_T^2 sum(mu^2) + sum(eps).

    This bound is algebraic: each term obeys the per-step contract with
    |w_k| <= M_T, so a failure here means the stepping loop is broken,
    not that an assumption was optimistic.
    """
    k = run_constants(run)
    total = float(np.sum(run.P * run.P))
    bound = k["M_T"] ** 2 * run.schedule.sum_mu_sq + float(np.sum(run.schedule.eps))
    return CertificateEntry(
        theorem_tag="defect_sum",
        measured=total,
        bound=bound,
        margin=bound - total,
        passed=bool(total <= bound + _FUZZ * (1.0 + bound)),
        detail={"M_T": k["M_T"], "sum_mu_sq": run.schedule.sum_mu_sq,
                "sum_eps": float(np.sum(run.schedule.eps))},
    )


def predictor_feasibility(run: DiscreteRun,
                          thresholds=(1e-1, 1e-2, 1e-3)) -> list[CertificateEntry]:
    """Infeasibility of the predictor in three integrated senses.

    The predictor interpolant is constant on cells, so all integrals are
    exact sums: L2 = sum mu_k d_k^2, its bound 2 M_T^2 T |mu|^2
    + 2 C(T) |mu| with C(T) the defect-sum bound; the Cesaro mean
    (1/T) sum mu_k d_k against sqrt(L2/T); and for each threshold the
    normalized measure of cells with d_k above it against the Chebyshev
    ratio cesaro/threshold.
    """
    k = run_constants(run)
    C = run.model.C
    sched = run.schedule
    T = run.T
    d = np.array([C.distance(y) for y in run.Y])
    L2 = float(np.sum(sched.mus * d * d))
    C_T = k["M_T"] ** 2 * sched.sum_mu_sq + float(np.sum(sched.eps))
    mu_norm = sched.mu_norm
    L2_bound = 2.0 * k["M_T"] ** 2 * T * mu_norm ** 2 + 2.0 * C_T * mu_norm
    cesaro = float(np.sum(sched.mus * d)) / T
    cesaro_bound = float(np.sqrt(L2 / T))
    entries = [
        CertificateEntry(
            theorem_tag="feas_L2",
            measured=L2,
            bound=L2_bound,
            margin=L2_bound - L2,
            passed=bool(L2 <= L2_bound + _FUZZ * (1.0 + L2_bound)),
            detail={"C_T": C_T, "mu_norm": mu_norm, "T": T, "max_distance": float(d.max(initial=0.0))},
        ),
        CertificateEntry(
            theorem_tag="feas_cesaro",
            measured=cesaro,
            bound=cesaro_bound,
            margin=cesaro_bound - cesaro,
            passed=bool(cesaro <= cesaro_bound + _FUZZ * (1.0 + cesaro_bound)),
            detail={"T": T},
        ),
    ]
    measure_detail = {}
    worst_margin = np.inf
    ok = True
    for thr in thresholds:
        meas = float(np.sum(sched.mus[d > thr])) / T
        cheb = cesaro / thr
        measure_detail[f"{thr:g}"] = {"measured": meas, "bound": cheb}
        ok = ok and meas <= cheb + _FUZZ * (1.0 + cheb)
        if cheb - meas < worst_margin:
            worst_margin = cheb - meas
            worst_pair = (meas, cheb)
    entries.append(CertificateEntry(
        theorem_tag="feas_measure",
        measured=worst_pair[0],
        bound=worst_pair[1],
        margin=worst_margin,
        passed=bool(ok),
        detail={"thresholds": measure_detail},
    ))
    return entries


def stability_experiment(model: MonotoneModel, x0_one, x0_two, schedule: StepSchedule,
                         selection=None, projection=None,
                         tol_mesh: float | None = None) -> dict:
    """Contraction profile of two runs from distinct starts.

    Both trajectories share the schedule, policies, and seeds.  Reports
    r(t_k) = |x1_k - x2_k| / (e^{ell t_k} |x1_0 - x2_0|) on the grid;
    the pass criterion max r <= 1 + tol_mesh uses the declared mesh
    tolerance, default 5 |mu| (1 + |ell|) T, since the discrete
    exponential lags the continuous one by O(|mu|).
    """
    if model.ell is None:
        raise ValueError("the model declares no one-sided Lipschitz level")
    x0_one = np.atleast_1d(np.asarray(x0_one, dtype=float))
    x0_two = np.atleast_1d(np.asarray(x0_two, dtype=float))
    gap0 = float(np.linalg.norm(x0_one - x0_two))
    if gap0 == 0.0:
        raise ValueError("initial points must differ")
    ell = model.ell
    if tol_mesh is None:
        tol_mesh = 5.0 * schedule.mu_norm * (1.0 + abs(ell)) * schedule.T
    r1 = run_scheme(model, x0_one, schedule, selection=selection,
                    projection=projection, certify_normals=False)
    r2 = run_scheme(model, x0_two, schedule, selection=selection,
                    projection=projection, certify_normals=False)
    gaps = np.linalg.norm(r1.X - r2.X, axis=1)
    envelope = np.exp(ell * schedule.times) * gap0
    profile = gaps / envelope
    max_r = float(np.max(profile))
    entry = CertificateEntry(
        theorem_tag="stability",
        measured=max_r,
        bound=1.0 + tol_mesh,
        margin=1.0 + tol_mesh - max_r,
        passed=bool(max_r <= 1.0 + tol_mesh + _FUZZ),
        detail={"ell": float(ell), "tol_mesh": float(tol_mesh), "gap0": gap0},
    )
    return {
        "entry": entry,
        "times": schedule.times.copy(),
        "profile": profile,
        "runs": (r1, r2),
    }


def local_truncation(model: MonotoneModel, reference: DiscreteRun,
                     schedule: StepSchedule, selection=None, projection=None) -> CertificateEntry:
    """One-step defects against the reference flow.

    From the reference state at each coarse node, one coarse step lands at
    z_{k+1}; the defect |z_{k+1} - x_ref(t_{k+1})| is reported relative to
    mu_k + sqrt(eps_k), and the worst ratio is compared with the assembled
    constant max{3 M_T, 1} (the field bound enters twice, once through
    the step and once through the solution's own speed).  The reference
    mesh must be at least 32x finer than the coarse one.
    """
    ref_mu = float(np.max(reference.schedule.mus))
    coarse_min = float(np.min(schedule.mus))
    ratio = coarse_min / ref_mu
    if ratio < 32.0:
        raise ValueError(
            f"reference mesh is only {ratio:.1f}x finer than the coarse grid; need >= 32x"
        )
    if schedule.T > reference.T + 1e-12:
        raise ValueError("reference run is shorter than the coarse schedule")
    sel = selection or MinimalNorm()
    proj = projection or ExactProjection()
    C = model.C
    ratios = np.empty(schedule.n_steps)
    radius = reference.measured_radius()
    for k in range(schedule.n_steps):
        t_k = schedule.times[k]
        t_next = schedule.times[k + 1]
        xk = C.project(reference.interpolate_state(t_k))
        z, _, _, _, _ = scheme_step(model, xk, float(schedule.mus[k]),
                                    float(schedule.eps[k]), selection=sel, projection=proj)
        defect = float(np.linalg.norm(z - reference.interpolate_state(t_next)))
        ratios[k] = defect / (schedule.mus[k] + np.sqrt(schedule.eps[k]))
        radius = max(radius, float(np.linalg.norm(z)))
    M_T = model.a + model.b * radius
    C_T = max(3.0 * M_T, 1.0)
    worst = float(np.max(ratios)) if ratios.size else 0.0
    return CertificateEntry(
        theorem_tag="truncation",
        measured=worst,
        bound=C_T,
        margin=C_T - worst,
        passed=bool(worst <= C_T + _FUZZ * (1.0 + C_T)),
        detail={
            "M_T": M_T, "mesh_ratio": ratio,
            "mean_ratio": float(np.mean(ratios)) if ratios.size else 0.0,
            "worst_step": int(np.argmax(ratios)) if ratios.size else -1,
        },
    )


def corrector_stability_check(model: MonotoneModel, x, x_bar, mu: float, eps: float,
                              selection=None, projection=None) -> dict:
    """Both sides of the one-step stability inequality for a point pair.

    u and u_bar are the eps-relaxed projections of the two predictors;
    the right-hand side is (2 + 4 ell mu) |x - x_bar|^2
    + max{8 m^2, 8} (mu^2 + eps) with m = a + b max(|x|, |x_bar|).
    Requires the model's one-sided Lipschitz level.
    """
    if model.ell is None:
        raise ValueError("the model declares no one-sided Lipschitz level")
    if mu <= 0 or eps < 0:
        raise ValueError("need mu > 0 and eps >= 0")
    C = model.C
    x = C.require_member(x)
    x_bar = C.require_member(x_bar)
    sel = selection or MinimalNorm()
    proj = projection or ExactProjection()
    w = select_F(model, x, rule=sel)
    w_bar = select_F(model, x_bar, rule=sel)
    u = approx_project(C, x + mu * w, eps, policy=proj)
    u_bar = approx_project(C, x_bar + mu * w_bar, eps, policy=proj)
    dx2 = float(np.sum((x - x_bar) ** 2))
    lhs = float(np.sum((u - u_bar) ** 2))
    m = model.a + model.b * max(float(np.linalg.norm(x)), float(np.linalg.norm(x_bar)))
    c_T = 4.0 * model.ell
    C_T = max(8.0 * m * m, 8.0)
    rhs = (2.0 + c_T * mu) * dx2 + C_T * (mu * mu + eps)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "margin": rhs - lhs,
        "holds": bool(lhs <= rhs + _FUZZ * (1.0 + rhs)),
        "c_T": c_T,
        "C_T": C_T,
        "m": m,
    }
