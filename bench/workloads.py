"""Seeded workloads of the catchup benchmark.

A workload is a closed-loop CLI session: one process runs one session at a
time, and the next session starts only when the previous one has finished.
`generate(name, seed)` turns a seed into the JSON configs of a session; the
program receives nothing else.  `Workload.session` then drives the public
entry points (`catchup.cli.main` plus the library's audit functions) on
those configs and checks every output.

An operation is one CLI command or one audit.  It fails on an unexpected
exit code or on a failed output check; `Outcome.correct` is false only when
an output check failed, i.e. when the program produced a wrong result rather
than a verdict the benchmark did not expect.

Seeds vary the inputs only where the work and the accuracy stay put, so
that run-to-run spread is the machine's alone.  The friction run is a
symmetry image of one base instance (a signed permutation of the
coordinates, which maps the box and the l1 weights onto themselves):
redrawing K would move the final equilibrium residual, which decays like
exp(-lambda_min T), by orders of magnitude.  The polygon's halfspace normal
is turned by at most 2 mrad.  The scalar session's stability pair is drawn
freely on either side of the equilibrium.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import catchup.cli as cli
import catchup.models as models
import catchup.scheme as scheme
from catchup.geometry import Box, Halfline
from catchup.models import OneDimModel

__all__ = ["Outcome", "Workload", "WORKLOADS", "generate", "write_inputs"]


# --- configs -------------------------------------------------------------------

# scalar relaxation x' = b - a x - x on x >= 0, equilibrium b / (a + 1) = 1
SCALAR_MODEL = {"model": "onedim", "a": 1.0, "b": 2.0}
SCALAR_GRID = {"T": 20.0, "schedule": {"kind": "uniform", "mu0": 1e-3}}

FRICTION_DIM = 8
FRICTION_BASE_SEED = 1
FRICTION_GRID = {"T": 10.0, "schedule": {"kind": "uniform", "mu0": 0.01}}

# ball(0, 1) cut by <n, x> <= 0.5; the drift -alpha x + omega J x + b rotates
# about its unconstrained equilibrium, which sits outside C beyond the corner
POLYGON_ANGLE = 0.4
POLYGON_JITTER = 0.002
POLYGON_ALPHA = 1.0
POLYGON_OMEGA = 0.5
POLYGON_L1 = 0.2
POLYGON_LEVELS = [0.04, 0.02, 0.01, 0.005]


def _scalar_configs(rng: np.random.Generator) -> dict:
    # One start on each side of the equilibrium: the two runs converge from
    # opposite sides, the case a contraction certificate has to handle.
    below = float(rng.uniform(0.0, 0.8))
    above = float(rng.uniform(1.2, 3.0))
    return {
        "run.json": {"model": SCALAR_MODEL, "x0": [0.0], **SCALAR_GRID},
        "stability.json": {"model": SCALAR_MODEL, "x0": [[below], [above]], **SCALAR_GRID},
    }


def _friction_base() -> tuple[np.ndarray, np.ndarray]:
    """K = A A^T / d + I and a load tau whose even entries push past the box."""
    rng = np.random.default_rng(FRICTION_BASE_SEED)
    d = FRICTION_DIM
    A = rng.standard_normal((d, d))
    K = A @ A.T / d + np.eye(d)
    tau = rng.uniform(-1.0, 1.0, d)
    tau[0::2] = rng.choice((-1.0, 1.0), d // 2) * rng.uniform(3.0, 4.0, d // 2)
    return K, tau


def _friction_configs(rng: np.random.Generator) -> dict:
    K, tau = _friction_base()
    d = FRICTION_DIM
    # permute within the even and within the odd coordinates, so the pushed
    # entries stay at even indices, and flip signs
    perm = np.empty(d, dtype=int)
    perm[0::2] = rng.permutation(np.arange(0, d, 2))
    perm[1::2] = rng.permutation(np.arange(1, d, 2))
    signs = rng.choice((-1.0, 1.0), d)
    K_image = signs[:, None] * K[np.ix_(perm, perm)] * signs[None, :]
    model = {
        "model": "dry_friction",
        "K": K_image.tolist(),
        "tau": (signs * tau[perm]).tolist(),
        "weights": [0.2] * d,
        "lower": [-1.0] * d,
        "upper": [1.0] * d,
    }
    return {"run.json": {"model": model, "x0": [0.0] * d, **FRICTION_GRID}}


def _polygon_configs(rng: np.random.Generator) -> dict:
    # The seed turns the halfspace normal by at most POLYGON_JITTER radians.
    # Dykstra's sweep count is so sensitive to the set's orientation against
    # the certificate's fixed random probe offsets that the eight signed
    # permutations of the plane move it between 118k and 175k a session.
    angle = POLYGON_ANGLE + rng.uniform(-POLYGON_JITTER, POLYGON_JITTER)
    n = np.array([np.cos(angle), np.sin(angle)])
    corner = 0.5 * n + np.sqrt(0.75) * np.array([-n[1], n[0]])
    outward = (n + corner) / np.linalg.norm(n + corner)
    A = np.array([[-POLYGON_ALPHA, -POLYGON_OMEGA], [POLYGON_OMEGA, -POLYGON_ALPHA]])
    b = -A @ (corner + outward)
    a_growth = float(np.linalg.norm(b) + POLYGON_L1 * np.sqrt(2.0))
    b_growth = float(np.hypot(POLYGON_ALPHA, POLYGON_OMEGA))
    model = {
        "f": {"type": "affine", "A": A.tolist(), "b": b.tolist()},
        "G": {"type": "l1", "weights": [POLYGON_L1, POLYGON_L1]},
        "C": {"type": "intersection", "members": [
            {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            {"type": "halfspace", "normal": n.tolist(), "offset": 0.5},
        ]},
        # C lies in the unit ball, so |<x, w>| <= a + b there and
        # M = a + b + gamma covers the dissipativity inequality at r_star = 1
        "constants": {"a": a_growth, "b": b_growth, "r_star": 1.0,
                      "M": a_growth + b_growth + POLYGON_ALPHA,
                      "gamma": POLYGON_ALPHA, "ell": -POLYGON_ALPHA},
    }
    base = {"model": model, "x0": [0.0, 0.0], "T": 2.0,
            "projection": {"kind": "iterative"},
            "errors": {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0}}
    return {
        "study.json": {**base, "study": {"levels": POLYGON_LEVELS}},
        "run.json": {**base, "schedule": {"kind": "uniform", "mu0": 0.02}},
    }


# --- sessions ----------------------------------------------------------------------

@dataclass
class Outcome:
    """What one session did: operations, failures, steps and accuracy."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: list = field(default_factory=list)
    steps: int = 0
    ref_err: float = float("nan")
    cli_bytes: int = 0
    manifests: dict = field(default_factory=dict)

    def record(self, op: str, exit_code: int | None, checks: dict) -> None:
        """Count one operation: a command's exit code (None for an audit)
        and its output checks, each mapped to its verdict."""
        self.attempted += 1
        problems = [f"exit code {exit_code}"] if exit_code else []
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.correct = False
        if problems or bad:
            self.failed += 1
            self.failures.append(f"{op}: " + ", ".join(problems + bad))

    def cli(self, op: str, argv: list, out: Path,
            checks: Callable[[dict], dict] = lambda manifest: {}) -> dict | None:
        """One CLI command writing to `out`, then `checks` on its manifest.
        Returns the manifest unless the command wrote a failure manifest."""
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main([*argv, "--out", str(out)])
            manifest = json.loads((out / "manifest.json").read_text())
            verdicts = {"manifest exit code": manifest.get("exit_code", code) == code}
            if "failed" in manifest:  # no results to check
                manifest = None
            else:
                verdicts.update(checks(manifest))
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            self.record(op, None, {f"raised {type(exc).__name__}: {exc}": False})
            return None
        self.cli_bytes += sum(f.stat().st_size for f in out.iterdir())
        if manifest is not None:
            self.manifests[op] = manifest
        self.record(op, code, verdicts)
        return manifest

    def audit(self, op: str, csv_path: Path, C, extra: Callable[[dict], dict]) -> dict | None:
        """Read a trajectory back, re-check its invariants, then `extra`."""
        try:
            data = scheme.read_run_csv(str(csv_path))
            report = scheme.verify_run_invariants(data, C)
            checks = {"verify_run_invariants": bool(report["ok"]), **extra(data)}
        except Exception as exc:
            self.record(op, None, {f"raised {type(exc).__name__}: {exc}": False})
            return None
        self.record(op, None, checks)
        return data


def _scalar_session(inputs: Path, work: Path) -> Outcome:
    o = Outcome()
    cfg = json.loads((inputs / "run.json").read_text())
    mu = cfg["schedule"]["mu0"]
    o.cli("run", ["run", str(inputs / "run.json")], work / "run")

    def exact(data):
        m = OneDimModel(cfg["model"]["a"], cfg["model"]["b"])
        o.ref_err = float(np.max(np.abs(data["X"][:, 0] - m.exact_flow(cfg["x0"][0], data["times"]))))
        o.steps += data["W"].shape[0]
        return {"trajectory within max(1e-4, mu) of exact_flow": o.ref_err <= max(1e-4, mu)}

    o.audit("audit", work / "run" / "trajectory.csv", Halfline(), exact)
    if o.cli("stability", ["stability", str(inputs / "stability.json")], work / "stability"):
        rows = (work / "stability" / "stability.csv").read_text().count("\n") - 2
        o.steps += 2 * rows
    return o


def _friction_session(inputs: Path, work: Path) -> Outcome:
    o = Outcome()
    cfg = json.loads((inputs / "run.json").read_text())
    o.cli("run", ["run", str(inputs / "run.json")], work / "run")

    def equilibrium(data):
        model = models.named_model_from_config(cfg["model"])
        o.ref_err = models.equilibrium_residual(model, data["X"][-1])
        o.steps += data["W"].shape[0]
        # K >= I contracts the free coordinates by exp(-T) ~ 5e-5 over the run
        return {"final equilibrium residual <= 1e-3": o.ref_err <= 1e-3}

    o.audit("audit", work / "run" / "trajectory.csv",
            Box(cfg["model"]["lower"], cfg["model"]["upper"]), equilibrium)
    return o


def _polygon_session(inputs: Path, work: Path) -> Outcome:
    o = Outcome()
    study = o.cli("study", ["study", str(inputs / "study.json")], work / "study",
                  lambda m: {"sup_errors_decreasing": m["checks"]["sup_errors_decreasing"]})
    if study is not None:
        o.ref_err = float(study["levels"][-1]["sup_error"])
        cfg = study["config"]
        ref = scheme.make_schedule(cfg["T"], scheme.Uniform(cfg["reference_mu"]))
        o.steps += sum(level["n_steps"] for level in study["levels"]) + ref.n_steps
    run = o.cli("run", ["run", str(inputs / "run.json")], work / "run")
    if run is not None:
        o.steps += run["run"]["schedule"]["n_steps"]
    return o


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # expected share of traced session time per module
    shares: dict
    configs: Callable[[np.random.Generator], dict]
    session: Callable[[Path, Path], Outcome]


WORKLOADS = {w.name: w for w in (
    Workload(
        "scalar_session",
        "interior scalar state: no probes or Dykstra, so per-step overhead, "
        "the two-trajectory stability run and 20k-row CSV write and read dominate",
        {"scheme": 0.40, "geometry": 0.30, "operators": 0.25, "cli": 0.02, "diagnostics": 0.01},
        _scalar_configs, _scalar_session),
    Workload(
        "friction_run",
        "d=8 dry friction pinned on half the box faces: ~96% of steps carry a "
        "sampled certificate of 289 box projections, the step loop is minor",
        {"geometry": 0.93, "scheme": 0.05, "operators": 0.02},
        _friction_configs, _friction_session),
    Workload(
        "polygon_session",
        "ball and halfspace: study time in the certified Dykstra stop and "
        "feasibility distances, run time in probes that each project by Dykstra",
        {"geometry": 0.93, "operators": 0.04, "scheme": 0.03},
        _polygon_configs, _polygon_session),
)}


def generate(name: str, seed: int) -> dict[str, bytes]:
    """The session's config files as bytes; the same seed gives the same bytes."""
    configs = WORKLOADS[name].configs(np.random.default_rng(seed))
    return {fname: (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()
            for fname, cfg in sorted(configs.items())}


def write_inputs(name: str, seed: int, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for fname, blob in generate(name, seed).items():
        (directory / fname).write_bytes(blob)
    return directory
