"""Runtime verification of the quantitative certificates.

Every check returns a CertificateEntry holding the measured quantity, the
assembled theoretical bound, their margin, and a pass flag.  The bounds of
a run's checks are assembled from measured run constants (radius, selection
bound) rather than the a-priori growth chain of `apriori_envelope`, which a
run's manifest reports but can be astronomically loose; integrals over the
interpolants are computed cell by cell in closed form, so the margins
contain no quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .geometry import _norm, approx_project
from .operators import MonotoneModel, select_F
from .scheme import DiscreteRun, StepSchedule, run as run_scheme, step as scheme_step

__all__ = [
    "CertificateEntry",
    "certificate_table",
    "continuous_energy_bound",
    "check_discrete_energy",
    "check_beta_domination",
    "defect_summability",
    "predictor_feasibility",
    "stability_experiment",
    "local_truncation",
    "corrector_stability_check",
    "run_constants",
    "apriori_envelope",
]

# float fuzz added to bounds before comparing; certificates must hold
# mathematically, this only absorbs roundoff in their evaluation
_FUZZ = 1e-9

# the distances above which predictor_feasibility measures the predictor's cells
FEAS_THRESHOLDS = (1e-1, 1e-2, 1e-3)


@dataclass
class CertificateEntry:
    """One verified inequality: measured value, bound, margin, verdict."""

    theorem_tag: str
    measured: float
    bound: float
    margin: float
    passed: bool
    detail: dict = field(default_factory=dict)

    @classmethod
    def check(cls, theorem_tag: str, measured: float, bound: float,
              slack: float | None = None, detail: dict | None = None) -> "CertificateEntry":
        """The entry of the claim measured <= bound, judged by `_within`.

        The margin is bound - measured.  With a slack of the caller's own
        (energy, beta_bound, stability) it is written -(measured - bound),
        the same number except that a zero margin is -0.0, as energy and
        beta_bound have always reported it."""
        margin = bound - measured if slack is None else -(measured - bound)
        return cls(theorem_tag, measured, bound, margin, _within(measured, bound, slack),
                   detail or {})

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


def _within(measured: float, bound: float, slack: float | None = None) -> bool:
    """The verdict of every certificate: measured <= bound up to a roundoff
    slack, by default _FUZZ * (1 + bound)."""
    if slack is None:
        return bool(measured <= bound + _FUZZ * (1 + bound))
    return bool(measured <= bound + slack)


def certificate_table(entries) -> str:
    """The entries as the text table that run and stability print, one row
    per entry in the given order."""
    rows = [(e.theorem_tag, f"{e.measured:.6e}", f"{e.bound:.6e}", f"{e.margin:+.3e}",
             "pass" if e.passed else "FAIL") for e in entries]
    if not rows:
        return "(no certificates)"
    rows.insert(0, ("certificate", "measured", "bound", "margin", "verdict"))
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _energy_split(run: DiscreteRun) -> dict:
    """The constants every energy bound of a run shares: the model's Young
    split (c, delta, eta), the schedule's q_T and the globalized level M~."""
    c, delta, eta = run.model.young_split
    return {"c": c, "delta": delta, "eta": eta, "q_T": float(run.schedule.q_T),
            "M_tilde": float(run.model.M_global)}


def run_constants(run: DiscreteRun) -> dict:
    """`_energy_split` and the measured constants of a run: R_T is the
    measured radius, M_T = a + b R_T its induced selection bound, and
    C_T = M_T^2 sum(mu^2) + sum(eps) the defect budget (OverflowError where
    |x_k|^2 or M_T^2 leaves float range)."""
    R_T = float(np.sqrt(np.max(run.squared_norms())))
    M_T = float(run.model.growth_bound(R_T))
    return _energy_split(run) | {
        "R_T": R_T, "M_T": M_T,
        "C_T": M_T ** 2 * run.schedule.sum_mu_sq + float(np.sum(run.schedule.eps)),
    }


def apriori_envelope(run: DiscreteRun) -> dict:
    """The rough growth chain of a completed run, with `_energy_split`: the
    recursion a_{k+1} <= (1 + Lam mu) a_k + A mu + B mu^2 integrates to the
    exponential envelope K(T) bounding max_k |x_k|^2 ahead of the run, and
    `within_bound` says whether the run's squares stay under it (one beyond
    float range does not).  An envelope beyond float range is vacuous: its
    K_T, R_T, M_T, L_T and within_bound are None."""
    model, schedule, x0 = run.model, run.schedule, run.X[0]
    k = _energy_split(run)
    a, b, q_T = model.a, model.b, k["q_T"]
    coupling = 1.0 / k["delta"] + 1.0 / k["eta"]
    Lam = -k["c"] + 2.0 * b * b * coupling + 8.0 * b * b * schedule.mu_norm
    A = 2.0 * k["M_tilde"] + 2.0 * a * a * coupling + q_T / k["delta"]
    B = 8.0 * a * a + 2.0 * q_T
    T = schedule.T
    with np.errstate(over="ignore", invalid="ignore"):
        K = float(np.exp(max(Lam, 0.0) * T) * (float(x0 @ x0) + A * T + B * schedule.sum_mu_sq))
    k |= {"Lambda_T": float(Lam), "A_T": float(A), "B_T": float(B)}
    if not np.isfinite(K):
        return k | dict.fromkeys(("K_T", "R_T", "M_T", "L_T", "within_bound")) | {"vacuous": True}
    R = float(np.sqrt(K))
    M_T = model.growth_bound(R)
    within = bool(np.max(run.squared_norms(overflow_ok=True)) <= K * (1.0 + 1e-9))
    return k | {"K_T": K, "R_T": R, "M_T": float(M_T), "L_T": float(2.0 * M_T + np.sqrt(q_T)),
                "within_bound": within}


def continuous_energy_bound(x0, M_tilde: float, gamma: float, t) -> NDArray:
    """The squared-norm envelope e^{-2 gamma t} |x0|^2
    + (M_tilde/gamma)(1 - e^{-2 gamma t}), nondecreasing toward
    M_tilde/gamma when it starts below it."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    for name, value in (("M_tilde", M_tilde), ("x0", x0)):
        if np.isnan(value).any():
            raise ValueError(f"{name} must not be NaN")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be nonnegative")
    decay = np.exp(-2.0 * gamma * t)
    return decay * float(x0 @ x0) + (M_tilde / gamma) * (1.0 - decay)


def check_discrete_energy(run: DiscreteRun) -> CertificateEntry:
    """Per-step energy inequality with assembled constants.

    Verifies |x_{k+1}|^2 <= (1 - c mu_k) |x_k|^2 + C0 mu_k + C1 mu_k^2 at
    every step, with C0 = 2 M~ + (1/delta + 1/eta) M_T^2 + q_T/delta and
    C1 = 4 M_T^2 + 2 q_T.  The measured value is the worst residual
    (positive = violation); the bound is zero.  A finite state whose square
    leaves float range raises OverflowError, where the residual would be NaN.
    """
    k = run_constants(run)
    C0 = 2.0 * k["M_tilde"] + (1.0 / k["delta"] + 1.0 / k["eta"]) * k["M_T"] ** 2 \
        + k["q_T"] / k["delta"]
    C1 = 4.0 * k["M_T"] ** 2 + 2.0 * k["q_T"]
    mus = run.schedule.mus
    a2 = run.squared_norms()
    rhs = (1.0 - k["c"] * mus) * a2[:-1] + C0 * mus + C1 * mus ** 2
    residuals = a2[1:] - rhs
    worst = float(np.max(residuals)) if residuals.size else 0.0
    return CertificateEntry.check(
        "energy", worst, 0.0, slack=_FUZZ * (1.0 + float(np.max(a2))),
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
    below in the margin so refinement studies can compare slacks.  A finite
    state whose square leaves float range raises OverflowError.
    """
    model = run.model
    if level is None:
        level = model.M_global
    if gamma is None:
        gamma = model.gamma
    a2 = run.squared_norms()
    beta = continuous_energy_bound(run.X[0], level, gamma, run.times)
    overshoot = a2 - beta
    worst = float(np.max(overshoot))
    k_worst = int(np.argmax(overshoot))
    return CertificateEntry.check(
        "beta_bound", worst, 0.0, slack=_FUZZ * (1.0 + float(np.max(a2))),
        detail={
            "level": float(level), "gamma": float(gamma),
            "worst_time": float(run.times[k_worst]),
            "slack_per_mu": float(max(worst, 0.0) / run.schedule.mu_norm),
        },
    )


def defect_summability(run: DiscreteRun) -> CertificateEntry:
    """Sum of squared defects against the defect budget C_T of `run_constants`.

    This bound is algebraic: each term obeys the per-step contract with
    |w_k| <= M_T, so a failure here means the stepping loop is broken,
    not that an assumption was optimistic.
    """
    k = run_constants(run)
    total = float(np.sum(run.P * run.P))
    return CertificateEntry.check(
        "defect_sum", total, k["C_T"],
        detail={"M_T": k["M_T"], "sum_mu_sq": run.schedule.sum_mu_sq,
                "sum_eps": float(np.sum(run.schedule.eps))},
    )


def predictor_feasibility(run: DiscreteRun) -> list[CertificateEntry]:
    """Infeasibility of the predictor in three integrated senses, from the
    defects alone: d_k = |p_k| bounds the predictor's distance to C up to
    the membership tolerance of x_{k+1}, and is that distance under an
    exact projection.  All integrals are exact sums over the cells:
    L2 = sum mu_k d_k^2, its bound 2 M_T^2 T |mu|^2 + 2 C(T) |mu| with
    C(T) the defect-sum bound; the Cesaro mean (1/T) sum mu_k d_k against
    sqrt(L2/T); and for each threshold the normalized measure of cells
    with d_k above it against the Chebyshev ratio cesaro/threshold.
    """
    k = run_constants(run)
    sched = run.schedule
    T = run.T
    d = _norm(run.P)
    L2 = float(np.sum(sched.mus * d * d))
    mu_norm = sched.mu_norm
    L2_bound = 2.0 * k["M_T"] ** 2 * T * mu_norm ** 2 + 2.0 * k["C_T"] * mu_norm
    cesaro = float(np.sum(sched.mus * d)) / T
    cesaro_bound = float(np.sqrt(L2 / T))
    entries = [
        CertificateEntry.check(
            "feas_L2", L2, L2_bound,
            detail={"C_T": k["C_T"], "mu_norm": mu_norm, "T": T,
                    "max_distance": float(d.max(initial=0.0))},
        ),
        CertificateEntry.check("feas_cesaro", cesaro, cesaro_bound, detail={"T": T}),
    ]
    # (threshold, measure, Chebyshev bound); the entry shows the pair with
    # the least margin and passes when every pair does
    pairs = [(f"{thr:g}", float(np.sum(sched.mus[d > thr])) / T, cesaro / thr)
             for thr in FEAS_THRESHOLDS]
    _, meas, cheb = min(pairs, key=lambda pair: pair[2] - pair[1])
    entries.append(CertificateEntry(
        "feas_measure", meas, cheb, cheb - meas, all(_within(m, b) for _, m, b in pairs),
        {"thresholds": {thr: {"measured": m, "bound": b} for thr, m, b in pairs}},
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
    elif not 0.0 <= tol_mesh < np.inf:
        raise ValueError(f"tol_mesh must be nonnegative and finite, got {tol_mesh!r}")
    r1 = run_scheme(model, x0_one, schedule, selection=selection,
                    projection=projection, certify_normals=False)
    r2 = run_scheme(model, x0_two, schedule, selection=selection,
                    projection=projection, certify_normals=False)
    gaps = np.linalg.norm(r1.X - r2.X, axis=1)
    envelope = np.exp(ell * schedule.times) * gap0
    profile = gaps / envelope
    entry = CertificateEntry.check(
        "stability", float(np.max(profile)), 1.0 + tol_mesh, slack=_FUZZ,
        detail={"ell": float(ell), "tol_mesh": float(tol_mesh), "gap0": gap0},
    )
    return {
        "entry": entry,
        "times": schedule.times.copy(),
        "gaps": gaps,
        "envelope": envelope,
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
    mesh must be at least 32x finer than the coarse one.  A reference
    state whose square leaves float range raises OverflowError.
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
    C = model.C
    ratios = np.empty(schedule.n_steps)
    radius = float(np.sqrt(np.max(reference.squared_norms())))
    ref_states = reference.interpolate_state(schedule.times)
    starts = C.project(ref_states[:-1])
    for k in range(schedule.n_steps):
        z, _, _ = scheme_step(model, starts[k], float(schedule.mus[k]),
                              float(schedule.eps[k]), selection=selection, projection=projection)
        defect = float(np.linalg.norm(z - ref_states[k + 1]))
        ratios[k] = defect / (schedule.mus[k] + np.sqrt(schedule.eps[k]))
        radius = max(radius, float(np.linalg.norm(z)))
    M_T = model.growth_bound(radius)
    C_T = max(3.0 * M_T, 1.0)
    worst = float(np.max(ratios)) if ratios.size else 0.0
    return CertificateEntry.check(
        "truncation", worst, C_T,
        detail={
            "M_T": M_T, "mesh_ratio": ratio,
            "mean_ratio": float(np.mean(ratios)) if ratios.size else 0.0,
            "worst_step": int(np.argmax(ratios)) if ratios.size else -1,
        },
    )


def corrector_stability_check(model: MonotoneModel, x, x_bar, mu: float, eps: float,
                              selection=None, projection=None) -> CertificateEntry:
    """The one-step stability inequality for a point pair: measured is the
    left-hand side |u - u_bar|^2, bound the right-hand side.

    u and u_bar are the eps-relaxed projections of the two predictors;
    the right-hand side is (2 + 4 ell mu) |x - x_bar|^2
    + max{8 m^2, 8} (mu^2 + eps) with m = a + b max(|x|, |x_bar|).
    Requires the model's one-sided Lipschitz level.
    """
    if model.ell is None:
        raise ValueError("the model declares no one-sided Lipschitz level")
    if not (mu > 0 and eps >= 0):
        raise ValueError("need mu > 0 and eps >= 0")
    C = model.C
    x = C.require_member(x)
    x_bar = C.require_member(x_bar)
    w = select_F(model, x, rule=selection)
    w_bar = select_F(model, x_bar, rule=selection)
    u = approx_project(C, x + mu * w, eps, policy=projection)[0]
    u_bar = approx_project(C, x_bar + mu * w_bar, eps, policy=projection)[0]
    dx2 = float(np.sum((x - x_bar) ** 2))
    lhs = float(np.sum((u - u_bar) ** 2))
    m = model.growth_bound(max(float(np.linalg.norm(x)), float(np.linalg.norm(x_bar))))
    c_T = 4.0 * model.ell
    C_T = max(8.0 * m * m, 8.0)
    rhs = (2.0 + c_T * mu) * dx2 + C_T * (mu * mu + eps)
    return CertificateEntry.check("one_step_stability", lhs, rhs,
                                  detail={"c_T": c_T, "C_T": C_T, "m": m})

