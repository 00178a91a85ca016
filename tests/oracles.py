"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately dumb: dense grid searches and direct
formula transcriptions with no shared code with the package under test.
Slow is fine; these run on tiny inputs.  The two exceptions are
`reference_step`, the stepping code with G(x) and its selection written
out here, and `reference_run`, the stepping loop as it was while every
normal-cone certificate was taken right after its step: they keep the
package's projection policies, sets, step and certificate, so that the
lean step and the chunked certificates can be compared with them byte for
byte.  Likewise `reference_dykstra_limit` is the Dykstra stop as
it was while every row of a stack swept until the last one settled, and
`reference_iterative_project` the Iterative policy's certified stop as it
was while its norms, tolerances and verdicts were numpy scalars; both
sweep with `dykstra_sweeps`, written out here.  `reference_perturbed_project`
is the Perturbed policy's point as it was while a policy returned its point
alone, from the sets' own projections.  `reference_probe_stack` is the
stacked probe builder as it was while every query was gathered and then
projected, and `reference_csv_text` the CSV writer as it was while every
cell was formatted on its own.  `reference_to_config` is the config record
of each set and regular part as its own class wrote it, before one writer
read every record off its constructor's signature.  `reference_norm`,
`reference_slack`, `reference_leaf_distance` and `reference_field` are the
vector formulas of the step path as they were while every vector product
went through `np.vecdot` or `@`, and `reference_value` and `reference_pick`
give G(x) and the point a rule picks from it as they were while every
minimal-norm selection clipped.  `reference_equilibrium_residual` is the
equilibrium residual as it was while it widened G(x) by the normal-cone
rays of the active faces itself, and `reference_young_split` the Young
split as it was while its rate c was an option.  `reference_apriori` is the
a-priori envelope and its `within_bound` verdict as the stepping loop
computed them at the end of every run.
"""

import itertools
import math

import numpy as np

from catchup.geometry import (
    Ball,
    Box,
    ExactProjection,
    GeometryError,
    Halfline,
    Halfspace,
    Intersection,
    NonnegOrthant,
    ProjectionError,
    in_approx_normal_cone,
    membership_tol,
)
from catchup.operators import LinearPart, MinimalNorm, Randomized, SeparableL1, ZeroPart
from catchup.scheme import DiscreteRun, SchemeError, step


def grid_project(contains, y, lo, hi, n=201):
    """Brute-force metric projection: scan an n^d grid over [lo, hi]^d
    and return the feasible grid point closest to y.

    `contains` is a predicate on points.  Accuracy is the grid pitch, so
    callers must pick tolerances accordingly.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = y.shape[0]
    axes = [np.linspace(lo, hi, n) for _ in range(d)]
    best = None
    best_d2 = np.inf
    for pt in itertools.product(*axes):
        p = np.array(pt)
        if not contains(p):
            continue
        d2 = float(np.sum((p - y) ** 2))
        if d2 < best_d2:
            best_d2 = d2
            best = p
    if best is None:
        raise ValueError("no feasible grid point found")
    return best, np.sqrt(best_d2)


def cone_grid_project(in_cone, u, radius, n=161):
    """Brute-force projection of u onto a cone given by a membership
    predicate, via grid search over [-radius, radius]^d."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    d = u.shape[0]
    axes = [np.linspace(-radius, radius, n) for _ in range(d)]
    best = None
    best_d2 = np.inf
    for pt in itertools.product(*axes):
        p = np.array(pt)
        if not in_cone(p):
            continue
        d2 = float(np.sum((p - u) ** 2))
        if d2 < best_d2:
            best_d2 = d2
            best = p
    if best is None:
        raise ValueError("no cone grid point accepted")
    return best


def clamp_interval(y, lo, hi):
    """1-D interval projection, written out longhand."""
    if y < lo:
        return lo
    if y > hi:
        return hi
    return y


def box_corners(lower, upper):
    """Every corner of the interval box [lower, upper], one row each, by
    plain enumeration; a coordinate with lower == upper has one value."""
    ends = [sorted({float(lo), float(hi)}) for lo, hi in zip(lower, upper)]
    return np.array(list(itertools.product(*ends)), dtype=float)


def onedim_flow(a, b, x0, t):
    """Reference trajectory for the scalar model on the halfline.

    Solves x' = -(a+1) x + b while x > 0, by the standard linear-ODE
    formula; if b <= 0 the state hits zero in finite time and stays.
    """
    rate = a + 1.0
    xeq = b / rate
    t = np.asarray(t, dtype=float)
    x_unc = xeq + (x0 - xeq) * np.exp(-rate * t)
    if b > 0 or (b <= 0 and x0 <= 0):
        return np.maximum(x_unc, 0.0)
    # b <= 0, x0 > 0: zero crossing at exp(-rate t) = -xeq / (x0 - xeq)
    t_hit = np.log((x0 - xeq) / (-xeq)) / rate if xeq < 0 else np.inf
    out = np.where(t < t_hit, x_unc, 0.0)
    return np.maximum(out, 0.0)


def onedim_hit_time(a, b, x0):
    """Time at which the scalar flow reaches the constraint, inf if never."""
    rate = a + 1.0
    xeq = b / rate
    if b > 0 or x0 <= 0:
        return np.inf if x0 > 0 or b > 0 else 0.0
    if xeq == 0:
        return np.inf
    return float(np.log((x0 - xeq) / (-xeq)) / rate)


def catching_up_halfline(a, b, x0, mu, n):
    """Transcribe the scalar scheme by hand: y = x + mu(-(a+1)x + b),
    x_next = max(y, 0).  Independent of the package's stepping loop."""
    xs = [x0]
    x = x0
    for _ in range(n):
        y = x + mu * (-(a + 1.0) * x + b)
        x = max(y, 0.0)
        xs.append(x)
    return np.array(xs)


def probe_points_loop(C, x):
    """The probe points of the sampled normal-cone certificate, built the
    slow way: one projection call per probe, in the certificate's order (x
    itself, the axis extremes x -+ W e_i with W = 10 (1 + |x|), the window
    corners for dim <= 10, then 16 uniform draws of size dim from one
    generator seeded with 0)."""
    x = np.asarray(x, dtype=float)
    W = 10.0 * (1.0 + float(np.linalg.norm(x)))
    dim = x.shape[0]
    probes = [x.copy()]
    for i in range(dim):
        for s in (-1.0, 1.0):
            q = x.copy()
            q[i] += s * W
            probes.append(C.project(q))
    if dim <= 10:
        for mask in range(2 ** dim):
            signs = np.array([1.0 if mask & (1 << i) else -1.0 for i in range(dim)])
            probes.append(C.project(x + W * signs))
    rng = np.random.default_rng(0)
    for _ in range(16):
        probes.append(C.project(x + rng.uniform(-W, W, size=dim)))
    return np.asarray(probes), W


def reference_probe_stack(C, X):
    """The probe points and windows of `geometry.probe_stack` at the rows of
    X (m, dim) as they were built while every query was gathered before its
    projection: each coordinate of each query taken from the table
    (m, dim, 3) of x_i + (-W), x_i + W and x_i, with W = 10 (1 + |x|), the
    draws -W + (W - -W) U of a generator seeded with 0 added to the 16 draw
    queries, and all queries projected in one call."""
    X = np.asarray(X, dtype=float)
    m, dim = X.shape
    axis = np.arange(dim)
    extremes = np.full((2 * dim, dim), 2)
    extremes[2 * axis, axis] = 0
    extremes[2 * axis + 1, axis] = 1
    rows = [extremes]
    if dim <= 10:
        rows.append((np.arange(2 ** dim)[:, None] >> axis) & 1)
    rows.append(np.full((16, dim), 2))
    index = (3 * axis + np.concatenate(rows)).ravel()
    U = np.random.default_rng(0).random((16, dim)).ravel()
    W = 10.0 * (1.0 + np.sqrt(np.vecdot(X, X)))
    Wr = W[:, None]
    table = np.empty((m, dim, 3))
    table[..., 0] = X + -Wr
    table[..., 1] = X + Wr
    table[..., 2] = X
    Q = np.take(table.reshape(m, -1), index, axis=1)
    Q[:, -U.size:] += -Wr + (Wr - -Wr) * U
    points = np.empty((m, index.size // dim + 1, dim))
    points[:, 0] = X
    points[:, 1:] = C.project(Q.reshape(-1, dim)).reshape(m, -1, dim)
    return points, W


def normal_cone_record(C, x, v, delta):
    """The certificate record for v at x over the loop-built probes: the
    worst <v, z - x>, its probe, and the verdict with the certificate's
    roundoff allowance 1e-12 (1 + |v| (1 + W))."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    pts, W = probe_points_loop(C, x)
    vals = (pts - x) @ v
    worst = int(np.argmax(vals))
    tol = 1e-12 * (1.0 + float(np.linalg.norm(v)) * (1.0 + W))
    return {
        "holds": bool(float(vals[worst]) <= delta + tol),
        "worst_violation": float(vals[worst]),
        "witness": pts[worst].tolist(),
        "delta": float(delta),
        "window": float(W),
        "n_probes": int(pts.shape[0]),
        "seed": 0,
    }


def reference_csv_text(header, rows) -> str:
    """The CSV text of a header and rows written cell by cell: ints through
    str, other numbers through repr of their float, None as an empty cell,
    "\n" line ends."""
    lines = [",".join(header)]
    lines += [",".join("" if v is None else str(v) if isinstance(v, int) else repr(float(v))
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def distance_formula(C, y):
    """Distance of the vector y to a leaf set or an intersection, written
    out with the 1-D `np.linalg.norm` and Python's `max`."""
    y = np.asarray(y, dtype=float)
    if hasattr(C, "radius"):
        return max(float(np.linalg.norm(y - C.center)) - C.radius, 0.0)
    if hasattr(C, "offset"):
        return max(float(C.normal @ y) - C.offset, 0.0)
    return float(np.linalg.norm(y - C.project(y)))


def reference_norm(a):
    """|a| of a vector: the square root of `np.vecdot(a, a)`; where that
    overflows and the entries are finite, m |a / m| with m the largest
    entry magnitude."""
    nrm = math.sqrt(np.vecdot(a, a))
    if nrm == math.inf and np.isfinite(a).all():
        m = float(np.max(np.abs(a)))
        return m * math.sqrt(np.vecdot(a / m, a / m))
    return nrm


def reference_slack(H, y):
    """<normal, y> - offset of a halfspace H at the vector y, a Python float."""
    return float(np.vecdot(y, H.normal)) - H.offset


def reference_leaf_distance(C, y):
    """The distance of the vector y to a ball or a halfspace, a Python float:
    max(gap, 0.0) keeps a NaN and a -0.0 gap."""
    if hasattr(C, "radius"):
        return max(reference_norm(y - C.center) - C.radius, 0.0)
    return max(reference_slack(C, y), 0.0) / C.norm


def reference_field(f, x):
    """The affine drift A x + b at the vector x."""
    return f.matrix @ x + f.offset


def reference_value(G, x):
    """The bounds (lower, upper) of G(x), each a float vector, as each
    regular part builds them; a custom part's callable gives a vector or
    a tuple of bounds."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if hasattr(G, "fn"):
        out = G.fn(x)
        if isinstance(out, tuple):
            return tuple(np.atleast_1d(np.asarray(v, dtype=float)) for v in out)
        g = np.atleast_1d(np.asarray(out, dtype=float))
        return g, g
    if hasattr(G, "weights"):
        lo = np.where(x == 0.0, -G.weights, G.weights * np.sign(x))
        hi = np.where(x == 0.0, G.weights, G.weights * np.sign(x))
        return lo, hi
    g = G.matrix @ x if hasattr(G, "matrix") else np.zeros(G.dim)
    return g, g


def reference_pick(rule, bounds, f_val, rng):
    """The point of the box [lower, upper] a selection rule picks; minimal
    norm clips f_val into the box, a singleton box [g, g] included, where
    the selection is then f_val - clip(f_val, g, g)."""
    lower, upper = bounds
    if isinstance(rule, MinimalNorm):
        return np.clip(np.asarray(f_val, dtype=float), lower, upper)
    if isinstance(rule, Randomized):
        if rng is None:
            rng = np.random.default_rng(rule.seed)
        return rng.uniform(lower, upper)
    if rule.sign < 0:
        return lower.copy()
    if rule.sign > 0:
        return upper.copy()
    return 0.5 * (lower + upper)


def reference_select_F(model, x, rule, rng=None):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f_val = model.f(x)
    return f_val - reference_pick(rule, reference_value(model.G, x), f_val, rng)


def reference_step(model, x, mu, eps, selection, projection, sel_rng=None, proj_rng=None):
    """(x_next, y, w, p, v) of one predictor-projection step, with every
    check of the stepping loop; a failed check raises SchemeError."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.dim,):
        raise ValueError(f"expected a vector of dimension {model.dim}, got shape {x.shape}")
    if mu <= 0:
        raise ValueError("mu must be positive")
    C = model.C
    try:
        w = reference_select_F(model, x, selection, sel_rng)
    except OverflowError as exc:
        raise SchemeError("selection leaves the float range", kind="overflow") from exc
    y = x + mu * w
    try:
        x_next, _ = projection.project(C, y, eps, proj_rng)
    except GeometryError as exc:
        raise SchemeError(f"projection failed: {exc}", kind="projection_budget") from exc
    p = x_next - y
    lhs, rhs, xx = float(p @ p), mu * mu * float(w @ w) + eps, float(x @ x)
    # inf <= inf would prove nothing, nor would a slack of inf
    if lhs == rhs == np.inf or (xx == np.inf and not lhs <= rhs):
        raise SchemeError("defect contract leaves the float range", kind="overflow")
    if not lhs <= rhs + 1e-9 * (1.0 + rhs + xx):
        raise SchemeError("defect contract violated", kind="contract")
    if not C.contains(x_next):
        raise SchemeError("projected point left the set", kind="infeasible")
    v = -p / mu if np.any(p) else np.zeros_like(p)
    return x_next, y, w, p, v


def reference_run(model, x0, schedule, selection=None, projection=None):
    """The run of `scheme.run` with normal-cone certificates, each taken
    right after its step: (X, W, Y, P, V, certificate records), with the
    predictor y = x + mu w and the normal term v = -p / mu (zeros for a
    zero defect) stored step by step.  A failed step or certificate raises
    the SchemeError the loop raised, with the partial run; a certificate's
    GeometryError propagates as it is."""
    C = model.C
    selection = selection or MinimalNorm()
    projection = projection or ExactProjection()
    x0 = C.require_member(x0)
    n, d = schedule.n_steps, model.dim
    X = np.empty((n + 1, d))
    W, Y, P, V = (np.empty((n, d)) for _ in range(4))
    X[0] = x0
    sel_rng = None if selection.seed is None else np.random.default_rng(selection.seed)
    proj_rng = None if projection.seed is None else np.random.default_rng(projection.seed)
    certificates = []

    def partial(k):
        return DiscreteRun(model, schedule, X[: k + 1], W[:k], P[:k], certificates=certificates)

    for k in range(n):
        mu, eps = float(schedule.mus[k]), float(schedule.eps[k])
        try:
            x_next, w, p = step(model, X[k], mu, eps, selection=selection,
                                projection=projection, sel_rng=sel_rng, proj_rng=proj_rng)
        except SchemeError as exc:
            raise SchemeError(f"step {k} failed: {exc}", partial_run=partial(k),
                              kind=exc.kind) from exc
        y = X[k] + mu * w
        v = -p / mu if np.any(p) else np.zeros_like(p)
        X[k + 1], Y[k], W[k], P[k], V[k] = x_next, y, w, p, v
        if np.any(p):
            delta_k = float(schedule.eps[k] / (2.0 * schedule.mus[k]))
            cert = in_approx_normal_cone(C, x_next, v, delta_k)
            certificates.append({**cert.to_record(), "k": k})
            if projection.exact and not cert.holds:
                raise SchemeError(
                    f"step {k}: normal term failed its cone certificate under exact "
                    f"projection (violation {cert.worst_violation:.3e} > delta {delta_k:.3e})",
                    partial_run=partial(k + 1), kind="normal_cone",
                )
    return X, W, Y, P, V, certificates


def dykstra_sweeps(projectors, y, budget):
    """Dykstra's alternating-correction scheme written out: yields (z,
    corrections, points) after each of at most `budget` sweeps, the
    iterate, the correction q_i of every member and the point z_i that
    member's projection produced in the sweep."""
    z = y.copy()
    corrections = [np.zeros(y.shape) for _ in projectors]
    for _ in range(budget):
        points = []
        for i, proj in enumerate(projectors):
            w = z + corrections[i]
            z = proj(w)
            corrections[i] = w - z
            points.append(z)
        yield z, corrections, points


def reference_dykstra_limit(projectors, y, budget, tol):
    """For a vector y, or for each row of a stack: the first Dykstra iterate
    that moved by at most tol (a float, or one per row) in its sweep, or
    the last one when the budget runs out.  Every row sweeps, its limit
    copied under a pending mask, until no row is pending."""
    limit = y.copy()
    pending = np.ones(y.shape[:-1], dtype=bool)
    z_prev = y
    for z, _, _ in dykstra_sweeps(projectors, y, budget):
        np.copyto(limit, z, where=pending[..., None])
        moved = z - z_prev
        pending &= ~(np.sqrt(np.vecdot(moved, moved)) <= tol)
        if not pending.any():
            break
        z_prev = z
    return limit


def _leaf_distance(C, y):
    """The distance of the vector y to a ball, a halfspace or a box, in
    numpy scalars."""
    if hasattr(C, "normal"):
        return np.maximum(np.vecdot(y, C.normal) - C.offset, 0.0).item()
    if hasattr(C, "radius"):
        d = y - C.center
        return np.maximum(np.sqrt(np.vecdot(d, d)) - C.radius, 0.0).item()
    d = y - np.clip(y, C.lower, C.upper)
    return np.sqrt(np.vecdot(d, d)).item()


def reference_iterative_project(C, y, eps):
    """The Iterative policy's point for the vector y on an intersection of
    balls, halfspaces and boxes: the first Dykstra iterate z that lies
    within the membership tolerance 1e-9 (1 + |z|) of every member and whose
    squared distance to y exceeds a certified lower bound on d_C(y)^2 by at
    most eps.  The bound starts from the worst member distance and takes each
    sweep's separating halfspace; the budget running out raises the
    policy's ProjectionError."""
    members = C.members
    d = max(_leaf_distance(m, y) for m in members)
    lb = d * d  # as the policy squares it: `d ** 2` can be one ulp lower
    for z, corrections, points in dykstra_sweeps([m.project for m in members], y,
                                                  C.budget):
        n = np.sum(corrections, axis=0)
        nn = float(np.linalg.norm(n))
        if nn > 0.0:
            sep = (float(n @ y) - sum(float(q @ p) for q, p in zip(corrections, points))) / nn
            if sep > 0.0:
                lb = max(lb, sep * sep)
        tol = (1e-9 * (1.0 + np.sqrt(np.vecdot(z, z)))).item()
        feasible = all(_leaf_distance(m, z) <= tol for m in members)
        if feasible and float(np.sum((z - y) ** 2)) <= lb + eps:
            return z
    raise ProjectionError(
        "Dykstra sweeps could not certify the eps-inequality "
        f"within {C.budget} sweeps (eps={eps:.3e}, distance bound {lb:.3e})"
    )


def reference_perturbed_project(C, y, eps, seed):
    """The Perturbed policy's point for the vector y: the projection z0 moved
    by the radius r with (d + r)^2 = d^2 + 0.9 eps along a standard normal
    direction drawn from a generator seeded with `seed`, and projected
    again; z0 when eps is 0, the direction is 0 or the moved point breaks
    the eps-inequality."""
    z0 = C.project(y)
    if eps == 0.0:
        return z0
    d = float(np.linalg.norm(z0 - y))
    r = -d + np.sqrt(d * d + 0.9 * eps)
    direction = np.random.default_rng(seed).standard_normal(C.dim)
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:
        return z0
    z = C.project(z0 + (r / nrm) * direction)
    return z if float(np.sum((z - y) ** 2)) <= d * d + eps else z0


# the hand-written writer of each record kind, by exact class
_REFERENCE_WRITERS = {
    Box: lambda C: {"type": "box", "lower": C.lower.tolist(), "upper": C.upper.tolist()},
    NonnegOrthant: lambda C: {"type": "nonneg_orthant", "dim": C.dim},
    Halfline: lambda C: {"type": "halfline"},
    Ball: lambda C: {"type": "ball", "center": C.center.tolist(), "radius": C.radius},
    Halfspace: lambda C: {"type": "halfspace", "normal": C.normal.tolist(), "offset": C.offset},
    Intersection: lambda C: {"type": "intersection",
                             "members": [reference_to_config(m) for m in C.members],
                             "budget": C.budget},
    ZeroPart: lambda G: {"type": "zero", "dim": G.dim},
    LinearPart: lambda G: {"type": "linear", "matrix": G.matrix.tolist()},
    SeparableL1: lambda G: {"type": "l1", "weights": G.weights.tolist()},
}


def reference_to_config(record) -> dict:
    """The config record of a set or a regular part, written field by field."""
    return _REFERENCE_WRITERS[type(record)](record)


def reference_equilibrium_residual(model, x) -> float:
    """The face formula of the equilibrium residual on a box: f_i(x) must
    land in [g_lo, g_hi] widened by the normal-cone ray of an active face
    of coordinate i; the norm of the componentwise distances."""
    C = model.C
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f_val = model.f(x)
    lo, hi = model.G.value(x)
    tol = membership_tol(x)
    lo = np.where(x <= C.lower + tol, -np.inf, lo)
    hi = np.where(x >= C.upper - tol, np.inf, hi)
    resid = np.maximum(0.0, np.maximum(lo - f_val, f_val - hi))
    return float(np.linalg.norm(resid))


def reference_young_split(gamma: float, c: float | None = None):
    """(c, delta, eta) with c in (0, 2 gamma), gamma by default, and the
    even split delta = eta = (2 gamma - c) / 2."""
    if c is None:
        c = gamma
    if not (0.0 < c < 2.0 * gamma):
        raise ValueError(f"c must lie in (0, {2.0 * gamma}), got {c}")
    delta = (2.0 * gamma - c) / 2.0
    return float(c), float(delta), float(delta)


def reference_apriori(model, schedule, x0, X) -> dict:
    """The growth chain a_{k+1} <= (1 + Lam mu) a_k + A mu + B mu^2 and its
    exponential envelope K(T) of max_k |x_k|^2, None where K leaves float
    range, with the verdict of the states X under it.  The squares of X are
    taken with overflow ignored, where the loop let numpy warn."""
    c, delta, eta = model.young_split
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
        return constants | {"K_T": None, "R_T": None, "M_T": None, "L_T": None,
                            "vacuous": True, "within_bound": None}
    R = float(np.sqrt(K))
    M_T = model.growth_bound(R)
    with np.errstate(over="ignore"):
        within = bool(np.max(np.sum(X * X, axis=1)) <= K * (1.0 + 1e-9))
    return constants | {"K_T": K, "R_T": R, "M_T": float(M_T),
                        "L_T": float(2.0 * M_T + np.sqrt(q_T)), "within_bound": within}
