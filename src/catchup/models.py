"""Ready-made models with closed-form ground truth.

Two systems ship with the package.  The scalar halfline model couples
f(x) = -a x + b with the identity regular part on C = [0, inf); its flow,
equilibrium, hitting time, and energy envelope all have closed forms,
which makes it the workhorse for acceptance checks.  The dry-friction
model is a box-constrained linear spring network with a separable
friction subdifferential; it has no closed-form flow, so its ground truth
is the equilibrium inclusion, verified by interval arithmetic rather than
solved for.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .geometry import Box, Halfline, build_record, check_array, check_number
from .operators import AffineField, LinearPart, MonotoneModel, SeparableL1, select_F
from .scheme import SchemeError, Uniform, make_schedule, run

__all__ = [
    "OneDimModel",
    "DryFrictionModel",
    "reference_solution",
    "equilibrium_residual",
    "named_model_from_config",
    "NAMED_MODELS",
]


class OneDimModel(MonotoneModel):
    """f(x) = -a x + b with G(x) = {x} on the halfline [0, inf).

    The effective field is F(x) = -(a+1) x + b.  Growth constants are
    (|b|, a+1); the dissipativity pair gamma = (a+1)/2, M = b^2 / (2(a+1))
    holds at every feasible point (Young's inequality), and the field is
    one-sided Lipschitz with constant -(a+1).
    """

    def __init__(self, a: float, b: float, r_star: float = 1.0):
        a, b = check_number(a, "a"), check_number(b, "b")
        if a <= 0:
            raise ValueError("a must be positive")
        rate = a + 1.0
        super().__init__(
            f=AffineField([[-a]], [b]),
            G=LinearPart([[1.0]]),
            C=Halfline(),
            growth=(abs(b), rate),
            dissipativity=(r_star, b * b / (2.0 * rate), rate / 2.0),
            ell=-rate,
            name="onedim",
        )
        self.param_a = a
        self.param_b = b

    @property
    def rate(self) -> float:
        return self.param_a + 1.0

    def equilibrium(self) -> float:
        """b/(a+1) when the push is positive, the wall otherwise."""
        if self.param_b > 0:
            return self.param_b / self.rate
        return 0.0

    def exact_flow(self, x0: float, t) -> NDArray:
        """The projected-ODE solution through x0 >= 0.

        Linear decay toward the unconstrained equilibrium b/(a+1) while
        the state is positive; for b <= 0 the state reaches the wall in
        finite time (never, for b = 0) and stays there.
        """
        x0 = float(x0)
        if x0 < 0:
            raise ValueError("x0 must be nonnegative")
        t = np.asarray(t, dtype=float)
        r = self.rate
        x_unc = self.param_b / r
        free = x_unc + (x0 - x_unc) * np.exp(-r * t)
        if self.param_b > 0 or x0 == 0.0:
            # never crosses the wall from inside (b > 0), or starts and
            # stays there (b <= 0, x0 = 0: the projected field vanishes)
            out = free if self.param_b > 0 else np.zeros_like(free)
            return np.maximum(out, 0.0)
        if self.param_b == 0.0:
            return free  # pure decay, positive forever
        t_hit = self.hitting_time(x0)
        return np.where(t < t_hit, np.maximum(free, 0.0), 0.0)

    def hitting_time(self, x0: float) -> float:
        """Time at which the flow through x0 > 0 reaches the wall
        (inf when it never does)."""
        x0 = float(x0)
        if self.param_b >= 0 or x0 == 0.0:
            return 0.0 if x0 == 0.0 and self.param_b <= 0 else np.inf
        x_unc = self.param_b / self.rate
        return float(np.log((x0 - x_unc) / (-x_unc)) / self.rate)

    def to_config(self) -> dict:
        return {"model": "onedim", "a": self.param_a, "b": self.param_b,
                "r_star": self.r_star}


class DryFrictionModel(MonotoneModel):
    """Box-constrained spring network with separable Coulomb friction.

    f(x) = tau - K x with K symmetric positive definite, G = the
    subdifferential of x -> sum_i weights_i |x_i|, C = [lower, upper].
    The field is bounded on the box by L = |tau| + |K| R_C + sqrt(n) w_max,
    which gives the dissipativity level M = L R_C + gamma R_C^2 for any
    gamma > 0 on the compact set.
    """

    def __init__(self, K, tau, weights, lower, upper, gamma: float = 1.0):
        gamma = check_number(gamma, "gamma")
        K = check_array(K, "K", ndim=2)
        tau, weights = check_array(tau, "tau"), check_array(weights, "weights")
        n = tau.shape[0]
        if K.shape != (n, n):
            raise ValueError("K must be square and match tau")
        if not np.allclose(K, K.T, atol=1e-12):
            raise ValueError("K must be symmetric")
        eigs = np.linalg.eigvalsh(K)
        if eigs.min() <= 0:
            raise ValueError("K must be positive definite")
        if np.any(weights <= 0):
            raise ValueError("friction weights must be positive")
        C = Box(lower, upper)
        if C.dim != n:
            raise ValueError("box bounds must match tau")
        R_C = C.bounding_radius()
        if R_C == np.inf:
            raise ValueError("the state box must be bounded")
        if np.any(C.lower >= C.upper):
            raise ValueError("box must have nonempty interior")
        K_norm = float(np.linalg.norm(K, 2))
        a0 = float(np.linalg.norm(tau)) + float(np.sqrt(n) * weights.max())
        L = float(np.linalg.norm(tau)) + K_norm * R_C + float(np.sqrt(n) * weights.max())
        super().__init__(
            f=AffineField(-K, tau),
            G=SeparableL1(weights),
            C=C,
            growth=(a0, K_norm),
            dissipativity=(R_C / 2.0, L * R_C + gamma * R_C * R_C, gamma),
            ell=-float(eigs.min()),
            name="dry_friction",
        )
        self.K = K
        self.tau = tau
        self.weights = weights
        self.field_bound = L

    def to_config(self) -> dict:
        return {
            "model": "dry_friction",
            "K": self.K.tolist(),
            "tau": self.tau.tolist(),
            "weights": self.weights.tolist(),
            "lower": self.C.lower.tolist(),
            "upper": self.C.upper.tolist(),
            "gamma": self.gamma,
        }


def reference_solution(model: MonotoneModel, x0, T: float, n_steps: int):
    """Fine-mesh exact-projection run standing in for the true solution.

    For the scalar model the result is cross-validated against the closed
    form; a mismatch means the stepping loop is broken, so it raises
    instead of returning quietly.
    """
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    mu = float(T) / n_steps
    schedule = make_schedule(T, Uniform(mu))
    ref = run(model, x0, schedule, certify_normals=False)
    if isinstance(model, OneDimModel):
        exact = model.exact_flow(float(np.atleast_1d(x0)[0]), ref.times)
        sup_err = float(np.max(np.abs(ref.X[:, 0] - exact)))
        tol = max(1e-4, mu)
        if sup_err > tol:
            raise SchemeError(
                f"reference run deviates from the closed-form flow by {sup_err:.3e} "
                f"(tolerance {tol:.3e}); the stepping loop is suspect"
            )
    return ref


def equilibrium_residual(model: MonotoneModel, x) -> float:
    """Distance of 0 from f(x) - G(x) - N_C(x) at a member x of a box C
    (else GeometryError): the minimal-norm selection of f(x) - G(x), which
    attains it coordinate by coordinate, projected onto the tangent cone at x.
    Zero (within float fuzz) certifies an equilibrium."""
    if not isinstance(model.C, Box):
        raise ValueError("equilibrium residuals are implemented for box sets only")
    return float(np.linalg.norm(model.C.tangent_project(x, select_F(model, x))))


# config model name -> model
NAMED_MODELS = {"onedim": OneDimModel, "dry_friction": DryFrictionModel}


def named_model_from_config(cfg: dict) -> MonotoneModel:
    """Resolve {"model": <name>, ...} records to a ready-made model."""
    return build_record("model", NAMED_MODELS, cfg, "model")
