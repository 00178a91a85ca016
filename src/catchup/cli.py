"""Experiment driver.

Subcommands: `run` executes one trajectory and verifies its certificates,
`study` sweeps a dyadic mesh family against a fine reference, `stability`
contrasts two starts under shared noise, `models list` names the ready-made
systems.  Outputs are plain CSV and JSON with no timestamps, so the same
config and seed produce bit-identical files.

Exit codes: 0 all certificates pass, 1 a certificate failed, 2 the config
is invalid, 3 the geometry or the stepping loop failed, or a step's
contract or a certificate's bound overflowed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .diagnostics import (
    apriori_envelope,
    certificate_table,
    check_beta_domination,
    check_discrete_energy,
    defect_summability,
    local_truncation,
    predictor_feasibility,
    stability_experiment,
)
from .geometry import (
    PROJECTION_POLICIES,
    ConfigError,
    ExactProjection,
    GeometryError,
    _norm,
    build_record,
    check_array,
    check_integer,
    check_number,
)
from .models import NAMED_MODELS, named_model_from_config, reference_solution
from .operators import SELECTION_RULES, model_from_config
from .scheme import (ERROR_RULES, STEP_RULES, SchemeError, make_schedule, run as run_scheme,
                     write_csv)

__all__ = ["main", "ConfigError", "EXIT_OK", "EXIT_CERTIFICATE", "EXIT_CONFIG", "EXIT_RUNTIME"]

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# the cheap hard certificates a run checks unless told otherwise
DEFAULT_RUN_TAGS = ("energy", "defect_sum", "feas_L2", "feas_cesaro", "feas_measure")
# these hold up to an O(mesh) term, so their failure is advisory unless --strict
INFORMATIONAL_TAGS = frozenset({"beta_bound"})

_MODEL_SUMMARIES = {
    "onedim": "scalar relaxation b - a*x with unit monotone part on the half-line x >= 0",
    "dry_friction": "force field tau - K*x with weighted l1 friction, confined to a box",
}


# --- config resolution ------------------------------------------------------

def _load_config(args) -> SimpleNamespace:
    """The config file's top-level record, with the flags that were given
    over its keys; a null key is left out, so it takes its default."""
    try:
        text = Path(args.config).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {args.config}: {e}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {args.config} is not valid JSON: {e}") from None
    except RecursionError:
        raise ConfigError(f"config {args.config} is nested too deeply to read") from None
    if isinstance(cfg, dict):  # any other root is build_record's to reject
        flags = [(key, getattr(args, key, None)) for key in ("seed", "out", "diagnostics")]
        cfg = {key: value for key, value in [*cfg.items(), *flags] if value is not None}
    return build_record("config", {None: _config}, cfg, None)


def _config(model, T, x0=0.0, schedule=None, errors=None, selection=None, projection=None,
            seed=None, diagnostics=None, out=None, study=None, tol_mesh=None):
    """The top level lists every key some command reads, so one config
    serves them all.  What every command uses is built here, in order: the
    model, the master seed, the selection rule and the projection policy,
    minimal-norm and exact unless the config names others, and the numbers
    `T` and `tol_mesh`.  The other keys stay as given, for the command that
    reads them."""
    model = (named_model_from_config if isinstance(model, dict) and "model" in model
             else model_from_config)(model)
    if seed is not None:
        check_integer(seed)
    try:  # the error names the field alone, not the record it sits in
        T = check_number(T, "T")
        tol_mesh = None if tol_mesh is None else check_number(tol_mesh, "tol_mesh")
    except ValueError as e:
        raise ConfigError(str(e)) from None
    selection = build_record("selection", SELECTION_RULES, {} if selection is None else selection,
                             "kind", "minimal_norm", seed)
    # an unseeded projection draws from the master seed, offset from the selection's
    projection = build_record("projection", PROJECTION_POLICIES,
                              {} if projection is None else projection, "kind", "exact",
                              None if seed is None else seed + 1)
    return SimpleNamespace(**locals())


def _study(levels, reference_refine=8):
    """The `study` record: its levels and the reference's step."""
    levels = check_array(levels, "levels").tolist()
    refine = check_integer(reference_refine, "reference_refine", minimum=2)
    if len(levels) < 3:
        raise ValueError("needs at least 3 refinement levels")
    if any(m <= 0 for m in levels) or any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be positive and strictly decreasing")
    return levels, levels[-1] / refine


def _point_from(model, value, label: str) -> np.ndarray:
    try:
        x = check_array(value, label)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    try:
        return model.C.require_member(x)
    except GeometryError as e:
        raise ConfigError(f"{label} violates the constraint set: {e}") from None
    except ValueError as e:  # a point of the wrong shape
        raise ConfigError(f"{label}: {e}") from None


def _schedule_from(cfg, mu_override: float | None = None):
    spec = cfg.schedule if mu_override is None else {"kind": "uniform", "mu0": mu_override}
    if spec is None:
        raise ConfigError("config needs a 'schedule' entry")
    steps = build_record("schedule", STEP_RULES, spec, "kind")
    errors = build_record("errors", ERROR_RULES, {} if cfg.errors is None else cfg.errors,
                          "kind", "zero")
    try:
        return make_schedule(T=cfg.T, steps=steps, errors=errors)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"schedule: {e}") from None


def _tags_from(value):
    if value is None:
        return DEFAULT_RUN_TAGS
    if isinstance(value, str):
        value = [t.strip() for t in value.split(",") if t.strip()]
    if not isinstance(value, list):
        raise ConfigError(f"diagnostics must be a list of tags or a comma-separated string, "
                          f"got {value!r}")
    if not value:
        raise ConfigError("diagnostics must name at least one tag, or 'all'")
    if value == ["all"]:
        return RUN_TAGS
    tags = tuple(value)
    unknown = [t for t in tags if t not in RUN_TAGS]
    if unknown:
        raise ConfigError(f"unknown diagnostics tags {unknown}; known: {list(RUN_TAGS)} or 'all'")
    return tags


def _out_dir(out) -> Path:
    """The output directory `out` (the working directory when absent), made
    if it is not there."""
    try:
        path = Path("." if out is None else out)
        path.mkdir(parents=True, exist_ok=True)
    except (TypeError, OSError) as e:
        raise ConfigError(f"out: {e}") from None
    return path


def _config_record(cfg, x0, T, **extra) -> dict:
    """The manifest `config` of run, study and stability: the keys they
    share, then each command's own `extra` keys."""
    return {
        "model": cfg.model.to_config(),
        "x0": np.asarray(x0).tolist(),
        "T": T,
        "selection": cfg.selection.name,
        "projection": cfg.projection.name,
        "seed": cfg.seed,
        **extra,
    }


def _exit_code(hard, soft=False, strict: bool = False) -> int:
    """Exit 1 on a failed hard check, or on an informational one under
    --strict; `hard` and `soft` are the failures (or whether there are any)."""
    return EXIT_CERTIFICATE if hard or (strict and soft) else EXIT_OK


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _failure(out: Path, command: str, error: Exception) -> int:
    """Write the failure manifest of a scheme or geometry error and return
    its exit code.  An error carrying a partial run stopped on a failed
    per-step check: `certificate`, exit 1, with the partial trajectory.
    Anything else failed outside the checks, as does an overflow wherever
    it stopped: `scheme` or `geometry`, exit 3.  `reason` is the
    `SchemeError.kind` of the failed check (null for an error without one)."""
    partial, reason = getattr(error, "partial_run", None), getattr(error, "kind", None)
    if partial is not None and reason != "overflow":
        kind, code = "certificate", EXIT_CERTIFICATE
    else:
        kind = "scheme" if isinstance(error, SchemeError) else "geometry"
        code = EXIT_RUNTIME
    payload = {"command": command, "failed": kind, "reason": reason, "error": str(error)}
    if partial is not None:
        payload["partial"] = partial.to_manifest()
        partial.to_csv(out / "trajectory.csv")
    _write_json(out / "manifest.json", payload)
    print(f"{kind} failure: {error}", file=sys.stderr)
    return code


# --- diagnostics assembly ----------------------------------------------------

def _reference(label: str, solve, *args, **kwargs):
    """The reference run `solve(*args, **kwargs)`; a SchemeError comes back
    prefixed with `label`, same kind, without the reference's partial run."""
    try:
        return solve(*args, **kwargs)
    except SchemeError as e:
        raise SchemeError(f"{label}: {e}", kind=e.kind) from e


def _truncation_entry(completed):
    mu_min = float(np.min(completed.schedule.mus))
    T = completed.T
    n_ref = int(np.ceil(64.0 * T / mu_min))
    reference = _reference("truncation reference", reference_solution,
                           completed.model, completed.X[0], T, n_ref)
    return local_truncation(completed.model, reference, completed.schedule)


# tag -> the entries a check of a completed run yields; the checkers are
# looked up when a report is made, and one call may yield several tags
_RUN_CHECKS = {
    "energy": lambda completed: [check_discrete_energy(completed)],
    "beta_bound": lambda completed: [check_beta_domination(completed)],
    "defect_sum": lambda completed: [defect_summability(completed)],
    **dict.fromkeys(("feas_L2", "feas_cesaro", "feas_measure"),
                    lambda completed: predictor_feasibility(completed)),
    "truncation": lambda completed: [_truncation_entry(completed)],
}
# certificates a plain run can verify
RUN_TAGS = tuple(_RUN_CHECKS)
# the certificates study checks at every level
STUDY_TAGS = ("feas_L2", "defect_sum", "energy")


def _run_report(completed, tags) -> dict:
    """{tag: entry} of the certificates `tags` names, in their order.  A
    check whose bound leaves float range raises SchemeError, kind `overflow`."""
    entries = {}
    for tag in tags:
        if tag not in entries:
            try:
                entries.update((e.theorem_tag, e) for e in _RUN_CHECKS[tag](completed))
            except OverflowError as e:
                raise SchemeError(f"{tag}: a bound of the check leaves the float range",
                                  kind="overflow") from e
    return {tag: entries[tag] for tag in tags}


# --- subcommands --------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = _load_config(args)
    x0 = _point_from(cfg.model, cfg.x0, "x0")
    schedule = _schedule_from(cfg)
    tags = _tags_from(cfg.diagnostics)
    out = _out_dir(cfg.out)

    try:
        completed = run_scheme(cfg.model, x0, schedule,
                               selection=cfg.selection, projection=cfg.projection)
        entries = _run_report(completed, tags)
    except (SchemeError, GeometryError) as e:
        return _failure(out, "run", e)

    hard = [tag for tag, e in entries.items() if not e.passed and tag not in INFORMATIONAL_TAGS]
    soft = [tag for tag, e in entries.items() if not e.passed and tag in INFORMATIONAL_TAGS]
    code = _exit_code(hard, soft, args.strict)

    completed.to_csv(out / "trajectory.csv")
    certificates = {tag: e.to_record() for tag, e in entries.items()}
    _write_json(out / "diagnostics.json", certificates)
    manifest = {
        "command": "run",
        "config": _config_record(cfg, x0, schedule.horizon, strict=args.strict,
                                 schedule=schedule.to_config(), diagnostics=list(tags)),
        "run": completed.to_manifest(apriori_envelope(completed)),
        "certificates": certificates,
        "hard_failures": hard,
        "informational_failures": soft,
        "exit_code": code,
    }
    _write_json(out / "manifest.json", manifest)

    print(certificate_table(entries.values()))
    final = ", ".join(f"{v:.6g}" for v in completed.X[-1])
    print(f"final state: [{final}] after {completed.n_steps} steps")
    if code == EXIT_OK:
        print(f"ok: wrote {out}")
    else:
        print(f"FAILED certificates: {hard + soft}", file=sys.stderr)
    return code


def cmd_study(args) -> int:
    cfg = _load_config(args)
    x0 = _point_from(cfg.model, cfg.x0, "x0")
    levels, mu_ref = build_record("study", {None: _study}, {} if cfg.study is None else cfg.study,
                                  None)
    out = _out_dir(cfg.out)

    try:
        reference = _reference("study reference", run_scheme, cfg.model, x0,
                               _schedule_from(cfg, mu_override=mu_ref), selection=cfg.selection,
                               projection=ExactProjection(), certify_normals=False)
        per_level = []
        for mu in levels:
            try:
                completed = run_scheme(cfg.model, x0, _schedule_from(cfg, mu_override=mu),
                                       selection=cfg.selection, projection=cfg.projection,
                                       certify_normals=False)
            except SchemeError as e:
                raise SchemeError(f"level mu={mu}: {e}", e.partial_run, e.kind) from e
            gaps = completed.X - reference.interpolate_state(completed.times)
            certificates = {tag: e.to_record()
                            for tag, e in _run_report(completed, STUDY_TAGS).items()}
            per_level.append({"mu": mu, "n_steps": completed.n_steps,
                              "sup_error": float(np.max(_norm(gaps))),
                              **certificates})
    except (SchemeError, GeometryError) as e:
        return _failure(out, "study", e)

    errs = [lvl["sup_error"] for lvl in per_level]
    if all(e > 0 for e in errs):
        order = float(np.polyfit(np.log(levels), np.log(errs), 1)[0])
    else:
        order = None
    passed = {tag: all(lvl[tag]["pass"] for lvl in per_level) for tag in STUDY_TAGS}
    checks = {
        "sup_errors_decreasing": all(b <= 1.1 * a for a, b in zip(errs, errs[1:])),
        "feas_L2_bounded": passed["feas_L2"],
        "energy_all_pass": passed["energy"],
        "defect_sum_all_pass": passed["defect_sum"],
    }

    header = ["level", "mu", "n_steps", "sup_error", "feas_L2", "feas_L2_bound",
              "defect_sum", "defect_sum_bound", "energy_residual"]
    rows = [(lvl["mu"], lvl["n_steps"], lvl["sup_error"],
             lvl["feas_L2"]["measured"], lvl["feas_L2"]["bound"],
             lvl["defect_sum"]["measured"], lvl["defect_sum"]["bound"], lvl["energy"]["measured"])
            for lvl in per_level]
    write_csv(out / "study.csv", header, [np.arange(len(rows)), *map(np.array, zip(*rows))])

    code = _exit_code(not all(checks.values()))
    manifest = {
        "command": "study",
        "config": _config_record(cfg, x0, cfg.T, levels=levels, reference_mu=mu_ref),
        "levels": per_level,
        "empirical_order": order,
        "checks": checks,
        "exit_code": code,
    }
    _write_json(out / "manifest.json", manifest)
    _write_json(out / "diagnostics.json", {
        **{f"level_{lvl['n_steps']}": {tag: lvl[tag] for tag in STUDY_TAGS} for lvl in per_level},
        "summary": checks | {"empirical_order": order},
    })

    for lvl in per_level:
        print(f"mu={lvl['mu']:<8g} steps={lvl['n_steps']:<6d} sup_error={lvl['sup_error']:.6e}")
    if order is not None:
        print(f"empirical order: {order:.3f}")
    print(("ok" if code == EXIT_OK else "FAILED") + f": wrote {out}")
    return code


def cmd_stability(args) -> int:
    cfg = _load_config(args)
    pair = cfg.x0
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(p, (list, tuple)) for p in pair)):
        raise ConfigError("stability needs 'x0' as a pair of points [[...], [...]]")
    x0_one = _point_from(cfg.model, pair[0], "x0[0]")
    x0_two = _point_from(cfg.model, pair[1], "x0[1]")
    schedule = _schedule_from(cfg)
    out = _out_dir(cfg.out)

    try:
        result = stability_experiment(
            cfg.model, x0_one, x0_two, schedule,
            selection=cfg.selection, projection=cfg.projection,
            tol_mesh=cfg.tol_mesh,
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None
    except (SchemeError, GeometryError) as e:
        return _failure(out, "stability", e)

    entry = result["entry"]
    write_csv(out / "stability.csv", ["t", "gap", "envelope", "ratio"],
              [schedule.times, result["gaps"], result["envelope"], result["profile"]])

    # passing only thanks to a wide mesh tolerance is reported, not
    # failed; --strict upgrades that to an error
    informational = entry.passed and entry.measured > 1.05
    code = _exit_code(not entry.passed, informational, args.strict)

    certificates = {"stability": entry.to_record()}
    _write_json(out / "diagnostics.json", certificates)
    manifest = {
        "command": "stability",
        "config": _config_record(cfg, [x0_one, x0_two], schedule.horizon, strict=args.strict,
                                 schedule=schedule.to_config()),
        "stability": certificates["stability"],
        "informational": informational,
        "max_ratio": entry.measured,
        "exit_code": code,
    }
    _write_json(out / "manifest.json", manifest)

    print(certificate_table([entry]))
    flag = " (informational: within mesh tolerance only)" if informational else ""
    print(f"max contraction ratio {entry.measured:.6f}{flag}")
    print(("ok" if code == EXIT_OK else "FAILED") + f": wrote {out}")
    return code


def cmd_models(args) -> int:
    for name in sorted(NAMED_MODELS):
        print(f"{name:<14} {_MODEL_SUMMARIES.get(name, '')}")
    print("generic models: give 'f', 'G', 'C', and 'constants' instead of a name")
    return EXIT_OK


# --- entry point ---------------------------------------------------------------

@functools.cache  # built once per process; parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catchup",
        description="catching-up runs for constrained monotone dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one trajectory with certificate checks")
    p_study = sub.add_parser("study", help="dyadic mesh refinement against a fine reference")
    p_stab = sub.add_parser("stability", help="contraction profile for two starts")
    for p in (p_run, p_study, p_stab):
        p.add_argument("config", help="JSON experiment description")
        p.add_argument("--out", default=None, help="output directory (default: cwd or config)")
        p.add_argument("--seed", type=int, default=None, help="master seed for randomized policies")
    for p in (p_run, p_stab):  # a study has no informational checks
        p.add_argument("--strict", action="store_true",
                       help="treat informational mesh failures as errors")
    p_run.add_argument("--diagnostics", default=None,
                       help="comma-separated certificate tags, or 'all'")

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
