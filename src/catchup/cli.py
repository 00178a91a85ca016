"""Experiment driver.

Subcommands: `run` executes one trajectory and verifies its certificates,
`study` sweeps a dyadic mesh family against a fine reference, `stability`
contrasts two starts under shared noise, `models list` names the ready-made
systems.  Outputs are plain CSV and JSON with no timestamps, so the same
config and seed produce bit-identical files.

Exit codes: 0 all certificates pass, 1 a certificate failed, 2 the config
is invalid, 3 the geometry or the stepping loop failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .diagnostics import (
    DiagnosticsReport,
    check_beta_domination,
    check_discrete_energy,
    defect_summability,
    local_truncation,
    predictor_feasibility,
    stability_experiment,
)
from .geometry import PROJECTION_POLICIES, ExactProjection, GeometryError
from .models import NAMED_MODELS, named_model_from_config, reference_solution
from .operators import SELECTION_RULES, MinimalNorm, model_from_config
from .scheme import ERROR_RULES, STEP_RULES, SchemeError, make_schedule, run as run_scheme

__all__ = ["main", "ConfigError", "EXIT_OK", "EXIT_CERTIFICATE", "EXIT_CONFIG", "EXIT_RUNTIME"]

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# the cheap hard certificates a run checks unless told otherwise
DEFAULT_RUN_TAGS = ("energy", "defect_sum", "feas_L2", "feas_cesaro", "feas_measure")
# these hold up to an O(mesh) term, so their failure is advisory unless --strict
INFORMATIONAL_TAGS = frozenset({"beta_bound", "stability"})

_MODEL_SUMMARIES = {
    "onedim": "scalar relaxation b - a*x with unit monotone part on the half-line x >= 0",
    "dry_friction": "force field tau - K*x with weighted l1 friction, confined to a box",
}


class ConfigError(ValueError):
    """Anything wrong with the experiment description itself."""


# --- config resolution ------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _model_from(cfg: dict):
    spec = cfg.get("model")
    if spec is None:
        raise ConfigError("config needs a 'model' entry")
    try:
        if isinstance(spec, dict) and "model" in spec:
            return named_model_from_config(spec)
        if isinstance(spec, dict):
            return model_from_config(spec)
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"model: {e}") from None
    raise ConfigError("'model' must be a mapping")


def _point_from(model, value, label: str) -> np.ndarray:
    try:
        x = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError):
        raise ConfigError(f"{label} must be a vector of numbers") from None
    try:
        return model.C.require_member(x)
    except GeometryError as e:
        raise ConfigError(f"{label} violates the constraint set: {e}") from None


def _from_registry(family: str, registry: dict, spec, seed=None, default=None):
    """Build the rule or policy that a config record {"kind": ..., ...}
    names, from the registry of its family."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{family} must be a mapping with a 'kind'")
    kind = spec.get("kind", default)
    try:
        build = registry[kind]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown {family} kind {kind!r} (known: {sorted(registry)})") from None
    try:
        return build(spec, seed)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{family}: {e}") from None


def _schedule_from(cfg: dict, mu_override: float | None = None):
    if "T" not in cfg:
        raise ConfigError("config needs a horizon 'T'")
    spec = cfg.get("schedule")
    if mu_override is not None:
        spec = {"kind": "uniform", "mu0": mu_override}
    if not spec:
        raise ConfigError("config needs a 'schedule' entry")
    steps = _from_registry("schedule", STEP_RULES, spec)
    errors = _from_registry("error rule", ERROR_RULES, cfg.get("errors") or {}, default="zero")
    try:
        return make_schedule(T=float(cfg["T"]), steps=steps, errors=errors)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"schedule: {e}") from None


def _setup(args):
    """What run, study and stability share: the config, its model, the
    master seed (--seed over the config's), and the selection rule and
    projection policy, minimal-norm and exact unless the config names others."""
    cfg = _load_config(args.config)
    model = _model_from(cfg)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    selection = _from_registry("selection", SELECTION_RULES, cfg.get("selection") or {}, seed,
                               default="minimal_norm")
    projection = _from_registry("projection", PROJECTION_POLICIES, cfg.get("projection") or {},
                                seed, default="exact")
    return cfg, model, seed, selection, projection


def _tags_from(value, default=DEFAULT_RUN_TAGS):
    if value is None:
        return tuple(default)
    if isinstance(value, str):
        value = [t.strip() for t in value.split(",") if t.strip()]
    if value == ["all"] or value == "all":
        return RUN_TAGS
    tags = tuple(value)
    unknown = [t for t in tags if t not in RUN_TAGS]
    if unknown:
        raise ConfigError(f"unknown diagnostics tags {unknown}; known: {list(RUN_TAGS)} or 'all'")
    return tags


def _out_dir(args, cfg: dict) -> Path:
    out = args.out or cfg.get("out") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _failure(out: Path, command: str, error: Exception) -> int:
    """Write the failure manifest of a scheme or geometry error and return
    its exit code.  An error carrying a partial run stopped on a failed
    per-step check: `certificate`, exit 1, with the partial trajectory.
    Anything else failed outside the checks: `scheme` or `geometry`, exit 3."""
    partial = getattr(error, "partial_run", None)
    if partial is not None:
        kind, code = "certificate", EXIT_CERTIFICATE
    else:
        kind = "scheme" if isinstance(error, SchemeError) else "geometry"
        code = EXIT_RUNTIME
    payload = {"command": command, "failed": kind, "error": str(error)}
    if partial is not None:
        payload["partial"] = partial.to_manifest()
        partial.to_csv(out / "trajectory.csv")
    _write_json(out / "manifest.json", payload)
    print(f"{kind} failure: {error}", file=sys.stderr)
    return code


# --- diagnostics assembly ----------------------------------------------------

def _truncation_entry(model, completed):
    mu_min = float(np.min(completed.schedule.mus))
    T = completed.T
    n_ref = int(np.ceil(64.0 * T / mu_min))
    reference = reference_solution(model, completed.X[0], T, n_ref)
    return local_truncation(model, reference, completed.schedule,
                            selection=MinimalNorm(), projection=ExactProjection())


# tag -> the entries a check of a completed run yields; the checkers are
# looked up when a report is made, and one call may yield several tags
_RUN_CHECKS = {
    "energy": lambda model, completed: [check_discrete_energy(completed)],
    "beta_bound": lambda model, completed: [check_beta_domination(completed)],
    "defect_sum": lambda model, completed: [defect_summability(completed)],
    **dict.fromkeys(("feas_L2", "feas_cesaro", "feas_measure"),
                    lambda model, completed: predictor_feasibility(completed)),
    "truncation": lambda model, completed: [_truncation_entry(model, completed)],
}
# certificates a plain run can verify
RUN_TAGS = tuple(_RUN_CHECKS)


def _run_report(model, completed, tags) -> DiagnosticsReport:
    report = DiagnosticsReport()
    entries = {}
    for tag in tags:
        if tag not in entries:
            entries.update((e.theorem_tag, e) for e in _RUN_CHECKS[tag](model, completed))
        report.add(entries[tag])
    return report


def _verdict(report: DiagnosticsReport, strict: bool):
    hard = [e.theorem_tag for e in report if not e.passed and e.theorem_tag not in INFORMATIONAL_TAGS]
    soft = [e.theorem_tag for e in report if not e.passed and e.theorem_tag in INFORMATIONAL_TAGS]
    code = EXIT_OK
    if hard or (strict and soft):
        code = EXIT_CERTIFICATE
    return code, hard, soft


# --- subcommands --------------------------------------------------------------

def cmd_run(args) -> int:
    cfg, model, seed, selection, projection = _setup(args)
    x0 = _point_from(model, cfg.get("x0", 0.0), "x0")
    schedule = _schedule_from(cfg)
    tags = _tags_from(args.diagnostics if args.diagnostics is not None else cfg.get("diagnostics"))
    out = _out_dir(args, cfg)

    try:
        completed = run_scheme(model, x0, schedule,
                               selection=selection, projection=projection)
    except (SchemeError, GeometryError) as e:
        return _failure(out, "run", e)

    report = _run_report(model, completed, tags)
    code, hard, soft = _verdict(report, args.strict)

    completed.to_csv(out / "trajectory.csv")
    (out / "diagnostics.json").write_text(report.to_json() + "\n")
    manifest = {
        "command": "run",
        "config": {
            "model": model.to_config(),
            "x0": [float(v) for v in x0],
            "T": schedule.horizon,
            "schedule": schedule.to_config(),
            "selection": selection.name,
            "projection": projection.name,
            "seed": seed,
            "diagnostics": list(tags),
            "strict": bool(args.strict),
        },
        "run": completed.to_manifest(),
        "certificates": {e.theorem_tag: e.to_record() for e in report},
        "hard_failures": hard,
        "informational_failures": soft,
        "exit_code": code,
    }
    _write_json(out / "manifest.json", manifest)

    print(report.to_text())
    final = ", ".join(f"{v:.6g}" for v in completed.X[-1])
    print(f"final state: [{final}] after {completed.n_steps} steps")
    if code == EXIT_OK:
        print(f"ok: wrote {out}")
    else:
        print(f"FAILED certificates: {hard + soft}", file=sys.stderr)
    return code


def cmd_study(args) -> int:
    cfg, model, seed, selection, projection = _setup(args)
    x0 = _point_from(model, cfg.get("x0", 0.0), "x0")
    if "T" not in cfg:
        raise ConfigError("config needs a horizon 'T'")
    study = cfg.get("study") or {}
    try:
        T = float(cfg["T"])
        levels = [float(v) for v in study.get("levels") or []]
        refine = int(study.get("reference_refine", 8))
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"study: {e}") from None
    if len(levels) < 3:
        raise ConfigError("study needs at least 3 refinement levels")
    if any(m <= 0 for m in levels) or any(b >= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("study levels must be positive and strictly decreasing")
    if refine < 2:
        raise ConfigError("reference_refine must be at least 2")
    out = _out_dir(args, cfg)

    mu_ref = levels[-1] / refine
    try:
        reference = run_scheme(model, x0, _schedule_from(cfg, mu_override=mu_ref),
                               selection=selection, projection=ExactProjection(),
                               certify_normals=False)
        rows = []
        per_level = []
        for i, mu in enumerate(levels):
            sched = _schedule_from(cfg, mu_override=mu)
            completed = run_scheme(model, x0, sched, selection=selection,
                                   projection=projection, certify_normals=False)
            gaps = [float(np.linalg.norm(completed.X[k] - reference.interpolate_state(t)))
                    for k, t in enumerate(completed.times)]
            sup_err = max(gaps)
            feas = predictor_feasibility(completed)[0]
            defect = defect_summability(completed)
            energy = check_discrete_energy(completed)
            rows.append((i, mu, completed.n_steps, sup_err,
                         feas.measured, feas.bound,
                         defect.measured, defect.bound, energy.measured))
            per_level.append({
                "mu": mu,
                "n_steps": completed.n_steps,
                "sup_error": sup_err,
                "feas_L2": feas.to_record(),
                "defect_sum": defect.to_record(),
                "energy": energy.to_record(),
            })
    except (SchemeError, GeometryError) as e:
        return _failure(out, "study", e)

    errs = [r[3] for r in rows]
    decreasing = all(b <= 1.1 * a for a, b in zip(errs, errs[1:]))
    feas_ok = all(lvl["feas_L2"]["pass"] for lvl in per_level)
    energy_ok = all(lvl["energy"]["pass"] for lvl in per_level)
    defect_ok = all(lvl["defect_sum"]["pass"] for lvl in per_level)
    if all(e > 0 for e in errs):
        slope = np.polyfit(np.log([r[1] for r in rows]), np.log(errs), 1)
        order = float(slope[0])
    else:
        order = None

    header = ("level,mu,n_steps,sup_error,feas_L2,feas_L2_bound,"
              "defect_sum,defect_sum_bound,energy_residual")
    lines = [header]
    for r in rows:
        lines.append(",".join([str(r[0]), repr(r[1]), str(r[2])]
                              + [repr(float(v)) for v in r[3:]]))
    (out / "study.csv").write_text("\n".join(lines) + "\n")

    code = EXIT_OK if (decreasing and feas_ok and energy_ok and defect_ok) else EXIT_CERTIFICATE
    manifest = {
        "command": "study",
        "config": {
            "model": model.to_config(),
            "x0": [float(v) for v in x0],
            "T": T,
            "levels": levels,
            "reference_mu": mu_ref,
            "selection": selection.name,
            "projection": projection.name,
            "seed": seed,
            "strict": bool(args.strict),
        },
        "levels": per_level,
        "empirical_order": order,
        "checks": {
            "sup_errors_decreasing": decreasing,
            "feas_L2_bounded": feas_ok,
            "energy_all_pass": energy_ok,
            "defect_sum_all_pass": defect_ok,
        },
        "exit_code": code,
    }
    _write_json(out / "manifest.json", manifest)
    _write_json(out / "diagnostics.json", {
        **{f"level_{lvl['n_steps']}": {
            "energy": lvl["energy"], "defect_sum": lvl["defect_sum"], "feas_L2": lvl["feas_L2"],
        } for lvl in per_level},
        "summary": manifest["checks"] | {"empirical_order": order},
    })

    for r in rows:
        print(f"mu={r[1]:<8g} steps={r[2]:<6d} sup_error={r[3]:.6e}")
    if order is not None:
        print(f"empirical order: {order:.3f}")
    print(("ok" if code == EXIT_OK else "FAILED") + f": wrote {out}")
    return code


def cmd_stability(args) -> int:
    cfg, model, seed, selection, projection = _setup(args)
    pair = cfg.get("x0")
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(p, (list, tuple)) for p in pair)):
        raise ConfigError("stability needs 'x0' as a pair of points [[...], [...]]")
    x0_one = _point_from(model, pair[0], "x0[0]")
    x0_two = _point_from(model, pair[1], "x0[1]")
    schedule = _schedule_from(cfg)
    tol_mesh = cfg.get("tol_mesh")
    out = _out_dir(args, cfg)

    try:
        result = stability_experiment(
            model, x0_one, x0_two, schedule,
            selection=selection, projection=projection,
            tol_mesh=None if tol_mesh is None else float(tol_mesh),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None
    except (SchemeError, GeometryError) as e:
        return _failure(out, "stability", e)

    entry = result["entry"]
    r1, r2 = result["runs"]
    gaps = np.linalg.norm(r1.X - r2.X, axis=1)
    envelope = np.exp(model.ell * schedule.times) * entry.detail["gap0"]

    lines = ["t,gap,envelope,ratio"]
    for t, g, env, rr in zip(schedule.times, gaps, envelope, result["profile"]):
        lines.append(",".join(repr(float(v)) for v in (t, g, env, rr)))
    (out / "stability.csv").write_text("\n".join(lines) + "\n")

    # passing only thanks to a wide mesh tolerance is reported, not
    # failed; --strict upgrades that to an error
    informational = entry.passed and entry.measured > 1.05
    code = EXIT_OK
    if not entry.passed:
        code = EXIT_CERTIFICATE
    elif args.strict and informational:
        code = EXIT_CERTIFICATE

    report = DiagnosticsReport()
    report.add(entry)
    (out / "diagnostics.json").write_text(report.to_json() + "\n")
    manifest = {
        "command": "stability",
        "config": {
            "model": model.to_config(),
            "x0": [[float(v) for v in x0_one], [float(v) for v in x0_two]],
            "T": schedule.horizon,
            "schedule": schedule.to_config(),
            "selection": selection.name,
            "projection": projection.name,
            "seed": seed,
            "strict": bool(args.strict),
        },
        "stability": entry.to_record(),
        "informational": informational,
        "max_ratio": entry.measured,
        "exit_code": code,
    }
    _write_json(out / "manifest.json", manifest)

    print(report.to_text())
    flag = " (informational: within mesh tolerance only)" if informational else ""
    print(f"max contraction ratio {entry.measured:.6f}{flag}")
    print(("ok" if code == EXIT_OK else "FAILED") + f": wrote {out}")
    return code


def cmd_models(args) -> int:
    if args.action == "list":
        for name in sorted(NAMED_MODELS):
            print(f"{name:<14} {_MODEL_SUMMARIES.get(name, '')}")
        print("generic models: give 'f', 'G', 'C', and 'constants' instead of a name")
        return EXIT_OK
    raise ConfigError(f"unknown models action {args.action!r}")


# --- entry point ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catchup",
        description="catching-up runs for constrained monotone dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="JSON experiment description")
        p.add_argument("--out", default=None, help="output directory (default: cwd or config)")
        p.add_argument("--seed", type=int, default=None, help="master seed for randomized policies")
        p.add_argument("--strict", action="store_true",
                       help="treat informational mesh failures as errors")

    p_run = sub.add_parser("run", help="one trajectory with certificate checks")
    common(p_run)
    p_run.add_argument("--diagnostics", default=None,
                       help="comma-separated certificate tags, or 'all'")

    p_study = sub.add_parser("study", help="dyadic mesh refinement against a fine reference")
    common(p_study)

    p_stab = sub.add_parser("stability", help="contraction profile for two starts")
    common(p_stab)

    p_models = sub.add_parser("models", help="inspect the ready-made models")
    p_models.add_argument("action", choices=["list"])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "study": cmd_study,
        "stability": cmd_stability,
        "models": cmd_models,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
