"""Driver behavior: exit codes, output files, determinism, round trips."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import catchup
from catchup.cli import main
from catchup.geometry import (Halfline, Intersection, NonnegOrthant, PerturbedProjection,
                              _parameters)
from catchup.operators import CustomPart, Randomized, SignConvention, ZeroPart, field_from_config
from catchup.scheme import read_run_csv, verify_run_invariants


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def onedim_config(**overrides):
    cfg = {
        "model": {"model": "onedim", "a": 1, "b": 2},
        "x0": [0.0],
        "T": 2.0,
        "schedule": {"kind": "uniform", "mu0": 0.01},
    }
    cfg.update(overrides)
    return cfg


class TestRunCommand:
    def test_reaches_equilibrium(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(T=10.0))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        final = manifest["run"]["measured"]["final_state"]
        assert abs(final[0] - 1.0) <= 1e-2
        assert manifest["exit_code"] == 0
        assert manifest["hard_failures"] == []

    def test_outputs_reload_and_reverify(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           onedim_config(model={"model": "onedim", "a": 1, "b": -1},
                                         x0=[0.5]))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        data = read_run_csv(str(out / "trajectory.csv"))
        report = verify_run_invariants(data)
        assert report["ok"]
        assert data["X"].shape[0] == 201

    def test_infeasible_start_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", onedim_config(x0=[-0.5]))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "x0" in err and "not in the set" in err

    def test_start_outside_a_thin_cap_is_config_error(self, tmp_path, capsys):
        # the message needs no projection of (5, 3) onto the thin cap, and
        # names no Dykstra sweep
        model = {**POLYGON_MODEL, "C": {"type": "intersection", "members": [
            {"type": "ball", "center": [0, 0], "radius": 1.0},
            {"type": "halfspace", "normal": [1, 0], "offset": -0.99},
        ]}}
        cfg = write_config(tmp_path / "c.json", onedim_config(model=model, x0=[5.0, 3.0]))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "x0" in err and "not in the set" in err and "Dykstra" not in err

    def test_flat_error_list_warns_but_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            model={"model": "onedim", "a": 1, "b": -1},
            x0=[0.5],
            T=0.1,
            schedule={"kind": "explicit", "values": [0.01] * 10},
            errors={"kind": "explicit", "values": [1e-4] * 10},
        ))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("decay" in w for w in manifest["run"]["warnings"])

    def test_all_diagnostics_include_slow_tags(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(T=1.0))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--diagnostics", "all"]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert {"energy", "beta_bound", "defect_sum", "feas_L2", "feas_cesaro",
                "feas_measure", "truncation"} == set(diag)
        assert all(rec["pass"] for rec in diag.values())

    def test_unknown_tag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", onedim_config())
        assert main(["run", cfg, "--out", str(tmp_path / "o"),
                     "--diagnostics", "energy,nonsense"]) == 2
        assert "nonsense" in capsys.readouterr().err

    def test_projection_budget_failure_writes_partial(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "model": {
                "f": {"type": "affine", "A": [[0, 0], [0, 0]], "b": [8.0, 4.0]},
                "G": {"type": "zero", "dim": 2},
                "C": {"type": "intersection", "budget": 1, "members": [
                    {"type": "ball", "center": [0, 0], "radius": 1.0},
                    {"type": "halfspace", "normal": [1, 0], "offset": 0.5},
                ]},
                "constants": {"a": 9.0, "b": 0.0, "r_star": 0.5, "M": 10.0, "gamma": 1.0},
            },
            "x0": [0.0, 0.0],
            "T": 1.0,
            "schedule": {"kind": "uniform", "mu0": 0.25},
            "projection": {"kind": "iterative"},
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == "certificate"
        assert manifest["reason"] == "projection_budget"
        assert "partial" in manifest
        assert (out / "trajectory.csv").exists()
        # the run stopped at step 0, and its one-row trajectory still audits
        assert verify_run_invariants(read_run_csv(str(out / "trajectory.csv")))["ok"]

    @pytest.mark.parametrize("drift, reason", [([4.0, 4.0], "contract"),
                                               ([4.0, 2.0], "normal_cone")])
    def test_failed_check_is_named(self, tmp_path, drift, reason):
        # one Dykstra sweep onto two halfspaces meeting at 45 degrees lands
        # in the wedge but not at the metric projection: pushed towards the
        # apex, the defect outgrows mu |w|; pushed to one side, the normal
        # term leaves the normal cone at the projected point
        r = 0.5 ** 0.5
        cfg = write_config(tmp_path / "c.json", {
            "model": {
                "f": {"type": "affine", "A": [[0, 0], [0, 0]], "b": drift},
                "G": {"type": "zero", "dim": 2},
                "C": {"type": "intersection", "budget": 1, "members": [
                    {"type": "halfspace", "normal": [0, 1], "offset": 0.0},
                    {"type": "halfspace", "normal": [r, r], "offset": 0.0},
                ]},
                "constants": {"a": 5.0, "b": 0.0, "r_star": 0.5, "M": 10.0, "gamma": 1.0},
            },
            "x0": [0.0, 0.0],
            "T": 1.0,
            "schedule": {"kind": "uniform", "mu0": 0.25},
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == "certificate"
        assert manifest["reason"] == reason
        assert manifest["error"].startswith("step 0")

    def test_failed_truncation_reference_is_runtime_error(self, tmp_path, capsys):
        # the Iterative policy certifies its one-sweep steps, so the run
        # passes; the exact reference of the truncation check breaks its
        # defect contract at step 0 on the same wedge
        r = 0.5 ** 0.5
        cfg = write_config(tmp_path / "c.json", {
            "model": {
                "f": {"type": "affine", "A": [[-1, 0], [0, -1]], "b": [3.0, 3.0]},
                "G": {"type": "zero", "dim": 2},
                "C": {"type": "intersection", "budget": 1, "members": [
                    {"type": "halfspace", "normal": [0, 1], "offset": 0.0},
                    {"type": "halfspace", "normal": [r, r], "offset": 0.0},
                ]},
                "constants": {"a": 4.5, "b": 1.0, "r_star": 1.0, "M": 9.0, "gamma": 0.5},
            },
            "x0": [0.0, 0.0],
            "T": 0.5,
            "schedule": {"kind": "uniform", "mu0": 0.1},
            "projection": {"kind": "iterative"},
            "errors": {"kind": "power_of_step", "eps0": 100.0, "beta": 1.0},
        })
        assert main(["run", cfg, "--out", str(tmp_path / "plain")]) == 0
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--diagnostics", "truncation"]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == "scheme"
        assert manifest["reason"] == "contract"
        assert "truncation reference" in manifest["error"]
        assert "partial" not in manifest
        assert not (out / "trajectory.csv").exists()
        assert "scheme failure" in capsys.readouterr().err

    def test_bit_identical_reruns(self, tmp_path):
        cfg_payload = onedim_config(
            model={"model": "onedim", "a": 1, "b": -1},
            x0=[0.5],
            errors={"kind": "power_of_step", "eps0": 0.1, "beta": 1.0},
            projection={"kind": "perturbed"},
        )
        cfg = write_config(tmp_path / "c.json", cfg_payload)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(a), "--seed", "42"]) == 0
        assert main(["run", cfg, "--out", str(b), "--seed", "42"]) == 0
        for name in ("trajectory.csv", "diagnostics.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_perturbed_trajectory(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            model={"model": "onedim", "a": 1, "b": -1},
            x0=[0.5],
            errors={"kind": "power_of_step", "eps0": 0.1, "beta": 1.0},
            projection={"kind": "perturbed"},
        ))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(a), "--seed", "1"]) == 0
        assert main(["run", cfg, "--out", str(b), "--seed", "2"]) == 0
        assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()


class TestStudyCommand:
    def test_scalar_first_order(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            study={"levels": [0.04, 0.02, 0.01, 0.005]},
        ))
        out = tmp_path / "out"
        assert main(["study", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checks"]["sup_errors_decreasing"]
        assert manifest["checks"]["feas_L2_bounded"]
        assert 0.8 <= manifest["empirical_order"] <= 1.2
        lines = (out / "study.csv").read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("level,mu,n_steps,sup_error")

    def test_dry_friction_errors_decrease(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {
            "model": {"model": "dry_friction", "K": [[1, 0], [0, 1]],
                      "tau": [2.0, 0.0], "weights": [1.0, 1.0],
                      "lower": [-1, -1], "upper": [1, 1]},
            "x0": [0.0, 0.0],
            "T": 2.0,
            "study": {"levels": [0.04, 0.02, 0.01]},
        })
        out = tmp_path / "out"
        assert main(["study", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        errs = [lvl["sup_error"] for lvl in manifest["levels"]]
        assert errs[1] <= 1.1 * errs[0] and errs[2] <= 1.1 * errs[1]

    def test_too_few_levels_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            study={"levels": [0.02, 0.01]},
        ))
        assert main(["study", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "3 refinement levels" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"T": "soon", "study": {"levels": [0.04, 0.02, 0.01]}}, "T"),
        ({"study": {"levels": ["fine", 0.02, 0.01]}}, "study: "),
        ({"study": {"levels": [0.04, 0.02, 0.01], "reference_refine": "x"}},
         "study: reference_refine must be"),
        ({"study": [0.04, 0.02, 0.01]}, "study must be a mapping"),
        ({"study": {"levels": [0.04, 0.02, 0.01], "referenc_refine": 2}},
         "study: unknown field 'referenc_refine'"),
    ], ids=["T", "levels", "reference_refine", "study-list", "referenc_refine"])
    def test_malformed_study_is_config_error(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "c.json", onedim_config(**overrides))
        assert main(["study", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_strict_is_not_a_study_flag(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            study={"levels": [0.04, 0.02, 0.01]},
        ))
        with pytest.raises(SystemExit) as exc:
            main(["study", cfg, "--out", str(tmp_path / "o"), "--strict"])
        assert exc.value.code == 2

    def test_non_refining_levels_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            study={"levels": [0.01, 0.02, 0.005]},
        ))
        assert main(["study", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_failed_reference_is_runtime_error(self, tmp_path, capsys):
        # the exact reference projects by one Dykstra sweep of the wedge
        # and breaks its defect contract at step 0, before any level runs
        r = 0.5 ** 0.5
        cfg = write_config(tmp_path / "c.json", {
            "model": {
                "f": {"type": "affine", "A": [[-1, 0], [0, -1]], "b": [3.0, 3.0]},
                "G": {"type": "zero", "dim": 2},
                "C": {"type": "intersection", "budget": 1, "members": [
                    {"type": "halfspace", "normal": [0, 1], "offset": 0.0},
                    {"type": "halfspace", "normal": [r, r], "offset": 0.0},
                ]},
                "constants": {"a": 4.5, "b": 1.0, "r_star": 1.0, "M": 9.0, "gamma": 0.5},
            },
            "x0": [0.0, 0.0],
            "T": 0.5,
            "schedule": {"kind": "uniform", "mu0": 0.1},
            "projection": {"kind": "iterative"},
            "errors": {"kind": "power_of_step", "eps0": 100.0, "beta": 1.0},
            "study": {"levels": [0.1, 0.05, 0.025]},
        })
        out = tmp_path / "out"
        assert main(["study", cfg, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == "scheme"
        assert manifest["reason"] == "contract"
        assert manifest["error"].startswith("study reference: step 0 failed")
        assert "partial" not in manifest
        assert not (out / "trajectory.csv").exists()
        assert "scheme failure" in capsys.readouterr().err

    def test_failed_level_is_named(self, tmp_path):
        # one Iterative sweep cannot certify the first outward step of the
        # coarsest level; the exact reference needs no certificate
        model = json.loads(json.dumps(POLYGON_MODEL))
        model["C"]["budget"] = 1
        cfg = write_config(tmp_path / "c.json", {
            "model": model, "x0": [0.0, 0.0], "T": 1.0,
            "projection": {"kind": "iterative"},
            "study": {"levels": [0.25, 0.125, 0.0625]},
        })
        out = tmp_path / "out"
        assert main(["study", cfg, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == "certificate"
        assert manifest["error"].startswith("level mu=0.25: step 0 failed")
        assert (out / "trajectory.csv").exists()


class TestDiagnosticsFile:
    def test_diagnostics_file_is_the_manifest_records(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", onedim_config(T=1.0))
        out = tmp_path / "run"
        assert main(["run", cfg, "--out", str(out), "--diagnostics", "all"]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert diag == manifest["certificates"]
        assert all(rec["pass"] for rec in diag.values())
        records = list(diag.values())

        cfg = write_config(tmp_path / "stab.json", onedim_config(
            x0=[[0.0], [1.0]], schedule={"kind": "uniform", "mu0": 0.005}))
        out = tmp_path / "stab"
        assert main(["stability", cfg, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert diag == {"stability": manifest["stability"]}
        records += diag.values()
        for rec in records:
            assert {"measured", "bound", "margin", "pass", "theorem_tag"} <= set(rec)


class TestStabilityCommand:
    def test_fine_mesh_contracts(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            x0=[[0.0], [1.0]],
            schedule={"kind": "uniform", "mu0": 0.005},
        ))
        out = tmp_path / "out"
        assert main(["stability", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["max_ratio"] <= 1.05
        assert manifest["informational"] is False
        rows = (out / "stability.csv").read_text().splitlines()
        assert rows[0] == "t,gap,envelope,ratio"
        assert len(rows) == 402

    def test_identical_points_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", onedim_config(x0=[[0.3], [0.3]]))
        assert main(["stability", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "differ" in capsys.readouterr().err

    def test_single_point_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(x0=[0.3]))
        assert main(["stability", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_understated_rate_is_informational(self, tmp_path):
        # declared ell -3 while the true decay is e^{-2t}: the ratio
        # drifts above 1.05 yet stays inside the mesh tolerance
        payload = {
            "model": {
                "f": {"type": "affine", "A": [[-1.0]], "b": [2.0]},
                "G": {"type": "linear", "matrix": [[1.0]]},
                "C": {"type": "halfline"},
                "constants": {"a": 2.0, "b": 2.0, "r_star": 1.0,
                              "M": 1.0, "gamma": 1.0, "ell": -3.0},
            },
            "x0": [[0.0], [1.0]],
            "T": 1.0,
            "schedule": {"kind": "uniform", "mu0": 0.2},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["stability", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["informational"] is True
        assert manifest["max_ratio"] > 1.05
        # --strict upgrades the advisory pass to a failure
        assert main(["stability", cfg, "--out", str(tmp_path / "strict"),
                     "--strict"]) == 1

    def test_failed_step_writes_partial(self, tmp_path, capsys):
        # one Dykstra sweep onto the wedge of test_failed_check_is_named,
        # pushed towards its apex: the first run breaks its defect contract
        r = 0.5 ** 0.5
        cfg = write_config(tmp_path / "c.json", {
            "model": {
                "f": {"type": "affine", "A": [[0, 0], [0, 0]], "b": [4.0, 4.0]},
                "G": {"type": "zero", "dim": 2},
                "C": {"type": "intersection", "budget": 1, "members": [
                    {"type": "halfspace", "normal": [0, 1], "offset": 0.0},
                    {"type": "halfspace", "normal": [r, r], "offset": 0.0},
                ]},
                "constants": {"a": 5.0, "b": 0.0, "r_star": 0.5, "M": 10.0, "gamma": 1.0,
                              "ell": 0.0},
            },
            "x0": [[0.0, 0.0], [-1.0, 0.0]],
            "T": 1.0,
            "schedule": {"kind": "uniform", "mu0": 0.25},
        })
        out = tmp_path / "out"
        assert main(["stability", cfg, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "stability"
        assert manifest["failed"] == "certificate"
        assert manifest["reason"] == "contract"
        assert "partial" in manifest
        assert (out / "trajectory.csv").exists()
        assert not (out / "stability.csv").exists()
        assert "certificate failure" in capsys.readouterr().err

    def test_profile_matches_runs(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            x0=[[0.0], [1.0]],
            T=1.0,
            schedule={"kind": "uniform", "mu0": 0.01},
        ))
        out = tmp_path / "out"
        assert main(["stability", cfg, "--out", str(out)]) == 0
        rows = np.loadtxt(out / "stability.csv", delimiter=",", skiprows=1)
        t, gap, env, ratio = rows.T
        np.testing.assert_allclose(ratio, gap / env, rtol=1e-12)
        assert gap[0] == 1.0
        assert np.all(np.diff(gap) <= 1e-12)


class TestModelsCommand:
    def test_list_names_both_models(self, capsys):
        assert main(["models", "list"]) == 0
        out = capsys.readouterr().out
        assert "onedim" in out
        assert "dry_friction" in out


# a ball cut by a halfspace, pushed against the corner by a constant drift
POLYGON_MODEL = {
    "f": {"type": "affine", "A": [[0, 0], [0, 0]], "b": [8.0, 4.0]},
    "G": {"type": "zero", "dim": 2},
    "C": {"type": "intersection", "members": [
        {"type": "ball", "center": [0, 0], "radius": 1.0},
        {"type": "halfspace", "normal": [1, 0], "offset": 0.5},
    ]},
    "constants": {"a": 9.0, "b": 0.0, "r_star": 0.5, "M": 10.0, "gamma": 1.0},
}


class TestConfigKinds:
    """Every documented kind of each config family reaches the manifest under
    its recorded name; an unknown kind is a config error."""

    @pytest.mark.parametrize("spec, recorded", [
        ({"kind": "uniform", "mu0": 0.01}, "uniform"),
        ({"kind": "polynomial", "mu0": 0.05, "alpha": 0.5}, "polynomial"),
        ({"kind": "explicit", "values": [0.01] * 50}, "explicit"),
    ])
    def test_schedule_kinds(self, tmp_path, spec, recorded):
        cfg = write_config(tmp_path / "c.json", onedim_config(T=0.5, schedule=spec))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["schedule"]["kind"].startswith(recorded + "(")

    @pytest.mark.parametrize("spec, recorded", [
        (None, "zero"),
        ({"kind": "zero"}, "zero"),
        ({"kind": "power_of_step", "eps0": 0.1, "beta": 1.0}, "power_of_step("),
        ({"kind": "explicit", "values": [1e-6] * 50}, "explicit("),
    ])
    def test_error_kinds(self, tmp_path, spec, recorded):
        payload = onedim_config(T=0.5)
        if spec is not None:
            payload["errors"] = spec
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["schedule"]["error_rule"].startswith(recorded)

    @pytest.mark.parametrize("spec, recorded", [
        ({"kind": "minimal_norm"}, "minimal_norm"),
        ({"kind": "sign", "sign": 1}, "sign_convention"),
        ({"kind": "sign_convention", "sign": -1}, "sign_convention"),
        ({"kind": "randomized"}, "randomized"),
    ])
    def test_selection_kinds(self, tmp_path, spec, recorded):
        cfg = write_config(tmp_path / "c.json", onedim_config(T=0.5, selection=spec))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["selection"] == recorded
        assert manifest["run"]["policies"]["selection"] == recorded

    @pytest.mark.parametrize("kind", ["exact", "perturbed", "iterative"])
    def test_projection_kinds(self, tmp_path, kind):
        cfg = write_config(tmp_path / "c.json", {
            "model": POLYGON_MODEL, "x0": [0.0, 0.0], "T": 0.5,
            "schedule": {"kind": "uniform", "mu0": 0.05},
            "errors": {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0},
            "projection": {"kind": kind},
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["projection"] == kind
        assert manifest["run"]["policies"]["projection"] == kind

    @pytest.mark.parametrize("family", ["schedule", "errors", "selection", "projection"])
    def test_unknown_kind_is_config_error(self, tmp_path, capsys, family):
        cfg = write_config(tmp_path / "c.json",
                           onedim_config(**{family: {"kind": "no_such_kind"}}))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "no_such_kind" in capsys.readouterr().err

    def test_study_budget_failure_is_a_certificate_failure(self, tmp_path):
        model = json.loads(json.dumps(POLYGON_MODEL))
        model["C"]["budget"] = 1
        cfg = write_config(tmp_path / "c.json", {
            "model": model, "x0": [0.0, 0.0], "T": 1.0,
            "projection": {"kind": "iterative"},
            "study": {"levels": [0.25, 0.125, 0.0625]},
        })
        out = tmp_path / "out"
        assert main(["study", cfg, "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed"] == "certificate"
        assert manifest["reason"] == "projection_budget"
        assert "partial" in manifest


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")

# f(x) = -x on the halfline from 1e200: the steps stay within float range,
# the squares |x_k|^2 do not
FAR_HALFLINE = {
    "model": {"f": {"type": "affine", "A": [[-1.0]], "b": [0.0]},
              "G": {"type": "zero", "dim": 1}, "C": {"type": "halfline"},
              "constants": {"a": 0.0, "b": 1.0, "r_star": 1.0, "M": 1.0, "gamma": 0.5}},
    "x0": [1e200], "T": 0.1, "schedule": {"kind": "uniform", "mu0": 0.02},
}


class TestBoundaryValidation:
    GENERIC = {
        "f": {"type": "affine", "A": [[-1.0]], "b": [2.0]},
        "G": {"type": "linear", "matrix": [[1.0]]},
        "C": {"type": "halfline"},
        "constants": {"a": 2.0, "b": 2.0, "r_star": 1.0, "M": 1.0,
                      "gamma": 1.0, "ell": -2.0},
    }

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("where", ["a", "b", "r_star", "M", "gamma", "ell",
                                       "onedim r_star", "x0", "drift", "l1 weights"])
    def test_non_finite_input_is_config_error(self, tmp_path, where, value):
        model = json.loads(json.dumps(self.GENERIC))
        x0 = [0.5]
        if where == "x0":
            x0 = [value]
        elif where == "onedim r_star":
            model = {"model": "onedim", "a": 1, "b": 2, "r_star": value}
        elif where == "drift":
            model["f"]["b"] = [value]
        elif where == "l1 weights":
            model["G"] = {"type": "l1", "weights": [value]}
        else:
            model["constants"][where] = value
        cfg = write_config(tmp_path / "c.json", onedim_config(model=model, x0=x0, T=0.1))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("field, C", [
        ("lower", {"type": "box", "lower": [float("nan")], "upper": [1.0]}),
        ("upper", {"type": "box", "lower": [-1.0], "upper": [float("nan")]}),
        ("center", {"type": "ball", "center": [float("nan")], "radius": 1.0}),
        ("radius", {"type": "ball", "center": [0.0], "radius": float("nan")}),
        ("normal", {"type": "halfspace", "normal": [float("nan")], "offset": 1.0}),
        ("offset", {"type": "halfspace", "normal": [1.0], "offset": float("nan")}),
    ])
    def test_nan_set_parameter_is_named(self, tmp_path, capsys, field, C):
        cfg = write_config(tmp_path / "c.json",
                           onedim_config(model={**self.GENERIC, "C": C}, x0=[0.5], T=0.1))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("depth, message", [
        (900, "weights[0] must be a number, got [[["),
        (3000, "is nested too deeply to read"),
    ])
    def test_deeply_nested_entry_is_config_error(self, tmp_path, capsys, depth, message):
        # an l1 weight 0.0 inside `depth` lists: 3000 levels exceed the JSON
        # reader's recursion limit, 900 parse and are echoed in a short form
        model = {**self.GENERIC, "G": {"type": "l1", "weights": "NESTED"}}
        text = json.dumps(onedim_config(model=model, x0=[0.5], T=0.1))
        cfg = tmp_path / "c.json"
        cfg.write_text(text.replace('"NESTED"', "[" * depth + "0.0" + "]" * depth))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err) < 200

    @pytest.mark.parametrize("command, entry", [
        ("run", {"selection": {"kind": "randomized", "seed": float("inf")}}),
        ("run", {"selection": {"kind": "sign", "sign": float("inf")}}),
        ("run", {"projection": {"kind": "perturbed", "seed": float("inf")}}),
        ("run", {"model": {**GENERIC, "C": {"type": "intersection", "budget": float("inf"),
                                            "members": [{"type": "halfline"}]}}}),
        ("run", {"model": {**GENERIC, "C": {"type": "nonneg_orthant", "dim": float("inf")}}}),
        ("study", {"study": {"levels": [0.04, 0.02, 0.01], "reference_refine": float("inf")}}),
    ], ids=["selection.seed", "selection.sign", "projection.seed", "C.budget",
            "nonneg_orthant.dim", "study.reference_refine"])
    def test_overflowing_integer_is_config_error(self, tmp_path, command, entry):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            **{"model": self.GENERIC, "x0": [0.5], "T": 0.1, **entry}))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command, entry, field", [
        ("run", {"selection": {"kind": "sign", "sign": 0.5}}, "sign"),
        ("run", {"selection": {"kind": "sign", "sign": True}}, "sign"),
        ("run", {"model": {**GENERIC, "C": {"type": "intersection", "budget": 1.5,
                                            "members": [{"type": "halfline"}]}}}, "budget"),
        ("run", {"model": {**GENERIC, "C": {"type": "intersection", "budget": "7",
                                            "members": [{"type": "halfline"}]}}}, "budget"),
        ("run", {"model": {**GENERIC, "C": {"type": "nonneg_orthant", "dim": 1.5}}}, "dim"),
        ("run", {"model": {**GENERIC, "G": {"type": "zero", "dim": 1.9}}}, "dim"),
        ("study", {"study": {"levels": [0.04, 0.02, 0.01], "reference_refine": 2.7}},
         "reference_refine"),
    ], ids=["selection.sign-fraction", "selection.sign-bool", "C.budget-fraction",
            "C.budget-string", "nonneg_orthant.dim", "zero.dim", "study.reference_refine"])
    def test_non_integer_is_config_error(self, tmp_path, capsys, command, entry, field):
        # each of these used to be truncated by int() and run
        cfg = write_config(tmp_path / "c.json", onedim_config(
            **{"model": self.GENERIC, "x0": [0.5], "T": 0.1, **entry}))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, field", [
        ({"errors": {"kind": "power_of_step", "eps0": float("inf"), "beta": 1.0}}, "eps0"),
        ({"errors": {"kind": "power_of_step", "eps0": 0.1, "beta": float("inf")}}, "beta"),
        ({"errors": {"kind": "explicit", "values": [float("inf")] * 10}}, "values"),
        ({"model": {**GENERIC, "G": {"type": "linear", "matrix": [[float("inf")]]}}}, "matrix"),
    ], ids=["power_of_step.eps0", "power_of_step.beta", "explicit.values", "linear.matrix"])
    def test_infinite_parameter_is_config_error(self, tmp_path, capsys, entry, field):
        # each of these used to run: to exit 0, or to fail a certificate on a NaN
        cfg = write_config(tmp_path / "c.json", onedim_config(
            **{"model": self.GENERIC, "x0": [0.5], "T": 0.1, **entry}))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, entry, field", [
        ("run", {"T": 10 ** 400}, "T"),
        ("study", {"T": 10 ** 400}, "T"),
        ("run", {"x0": [10 ** 400]}, "x0"),
        ("stability", {"x0": [[10 ** 400], [1.0]]}, "x0"),
        ("stability", {"x0": [[0.5], [1.0]], "tol_mesh": 10 ** 400}, "tol_mesh"),
        ("study", {"study": {"levels": [0.04, 0.02, 0.01], "reference_refine": 10 ** 400}},
         "study"),
    ], ids=["run.T", "study.T", "run.x0", "stability.x0", "tol_mesh", "reference_refine"])
    def test_overflowing_number_is_config_error(self, tmp_path, capsys, command, entry, field):
        # an integer beyond float range used to escape as an OverflowError
        cfg = write_config(tmp_path / "c.json", onedim_config(
            **{"x0": [0.5], "T": 0.1, "study": {"levels": [0.04, 0.02, 0.01]}, **entry}))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}")

    @pytest.mark.parametrize("part, record", [
        ("f", {"type": "affine", "A": [[[1.0]]], "b": [2.0]}),
        ("f", {"type": "affine", "A": [[-1.0]], "b": [[1.0, 2.0]]}),
        ("G", {"type": "linear", "matrix": [[[1.0]]]}),
    ], ids=["affine.A", "affine.b", "linear.matrix"])
    def test_mis_shaped_matrix_is_config_error(self, tmp_path, capsys, part, record):
        # each of these used to pass its constructor and fail the first step
        cfg = write_config(tmp_path / "c.json", onedim_config(
            model={**self.GENERIC, part: record}, x0=[0.5], T=0.1))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {part}: ")

    @pytest.mark.parametrize("schedule", [{"kind": "uniform", "mu0": 0.02},
                                          {"kind": "polynomial", "mu0": 0.02, "alpha": 0.5}],
                             ids=["uniform", "polynomial"])
    def test_endless_horizon_is_config_error(self, tmp_path, capsys, schedule):
        # the polynomial steps used to fill the list until memory ran out
        cfg = write_config(tmp_path / "c.json", onedim_config(T=1e308, schedule=schedule))
        start = time.perf_counter()
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err.startswith("config error: schedule: ")

    def test_overflowing_tolerances_are_config_error(self, tmp_path, capsys):
        # eps_k = 1e308 * 2^3 used to be written as inf in every row, with exit 0
        cfg = write_config(tmp_path / "c.json", onedim_config(
            T=4.0, schedule={"kind": "uniform", "mu0": 2.0},
            errors={"kind": "power_of_step", "eps0": 1e308, "beta": 1}))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "eps0 must keep every eps_k" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "study", "stability"])
    @pytest.mark.parametrize("x0", [[0.0, 1.0], [[0.0]]], ids=["two-coordinates", "nested"])
    def test_start_of_the_wrong_shape_is_config_error(self, tmp_path, capsys, command, x0):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            x0=[x0, [1.0]] if command == "stability" else x0, T=0.1,
            study={"levels": [0.04, 0.02, 0.01]}))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert "x0" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, argv", [
        ({"seed": "abc", "selection": {"kind": "randomized"}}, []),
        ({"seed": 1.5, "selection": {"kind": "randomized"}}, []),
        ({"seed": True}, []),
        ({}, ["--seed", "-1"]),
        ({"selection": {"kind": "randomized", "seed": -1}}, []),
        ({"projection": {"kind": "perturbed", "seed": -1}}, []),
        ({"seed": -2, "projection": {"kind": "perturbed"}}, []),
        ({"selection": {"kind": "randomized", "seed": 1.5}}, []),
        ({"selection": {"kind": "randomized", "seed": True}}, []),
        ({"selection": {"kind": "randomized", "seed": "3"}}, []),
        ({"projection": {"kind": "perturbed", "seed": 1.5}}, []),
        ({"projection": {"kind": "perturbed", "seed": True}}, []),
        ({"projection": {"kind": "perturbed", "seed": "3"}}, []),
    ], ids=["string", "fraction", "bool", "negative-flag", "negative-selection-seed",
            "negative-projection-seed", "negative-under-perturbed", "fraction-selection-seed",
            "bool-selection-seed", "string-selection-seed", "fraction-projection-seed",
            "bool-projection-seed", "string-projection-seed"])
    def test_bad_seed_is_config_error(self, tmp_path, capsys, entry, argv):
        cfg = write_config(tmp_path / "c.json", onedim_config(**{"T": 0.1, **entry}))
        assert main(["run", cfg, "--out", str(tmp_path / "out"), *argv]) == 2
        err = capsys.readouterr().err
        assert "seed must be a nonnegative integer" in err
        # a policy's own seed is named with its family
        for family in ("selection", "projection"):
            if "seed" in entry.get(family, {}):
                assert f"{family}: seed" in err

    @pytest.mark.parametrize("entry, argv", [
        ({}, ["--diagnostics", ""]),
        ({}, ["--diagnostics", " , "]),
        ({"diagnostics": []}, []),
    ], ids=["empty-flag", "blank-flag", "empty-list"])
    def test_empty_diagnostics_is_config_error(self, tmp_path, capsys, entry, argv):
        cfg = write_config(tmp_path / "c.json", onedim_config(**{"T": 0.1, **entry}))
        assert main(["run", cfg, "--out", str(tmp_path / "out"), *argv]) == 2
        assert "diagnostics" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", [Randomized, PerturbedProjection])
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_policy_rejects_a_bad_seed(self, policy, seed):
        with pytest.raises(ValueError, match="seed"):
            policy(seed=seed)

    @pytest.mark.parametrize("build, field", [
        (lambda: Intersection([Halfline()], budget=1.5), "budget"),
        (lambda: NonnegOrthant(2.5), "dim"),
        (lambda: ZeroPart(2.9), "dim"),
        (lambda: CustomPart(np.zeros, 1.5), "dim"),
        (lambda: SignConvention(True), "sign"),
    ], ids=["Intersection.budget", "NonnegOrthant.dim", "ZeroPart.dim", "CustomPart.dim",
            "SignConvention.bool"])
    def test_constructor_rejects_a_non_integer(self, build, field):
        with pytest.raises(ValueError, match=f"{field} must be"):
            build()

    @pytest.mark.parametrize("command, field, value", [
        ("run", "diagnostics", 5),
        ("run", "diagnostics", {"energy": True}),
        ("stability", "tol_mesh", [1]),
        ("stability", "tol_mesh", float("nan")),
        ("stability", "tol_mesh", -5.0),
        ("stability", "tol_mesh", float("inf")),
    ], ids=["diagnostics-number", "diagnostics-mapping", "tol_mesh-list", "tol_mesh-nan",
            "tol_mesh-negative", "tol_mesh-inf"])
    def test_malformed_field_is_config_error(self, tmp_path, capsys, command, field, value):
        x0 = [[0.0], [1.0]] if command == "stability" else [0.0]
        cfg = write_config(tmp_path / "c.json", onedim_config(x0=x0, T=0.1, **{field: value}))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("entry, argv", [
        ({"out": 5}, []),
        ({"out": []}, []),
        ({"out": True}, []),
        ({}, ["--out", "c.json"]),
    ], ids=["number", "list", "bool", "flag-at-a-file"])
    def test_malformed_out_is_config_error(self, tmp_path, monkeypatch, capsys, entry, argv):
        # a number or a boolean used to escape as a TypeError, a list to mean
        # the working directory, and a file as a FileExistsError
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "c.json", onedim_config(T=0.1, **entry))
        assert main(["run", cfg, *argv]) == 2
        assert capsys.readouterr().err.startswith("config error: out")

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"),
        ("{\"T\": ", "is not valid JSON"),
        ("[1, 2]", "must be a mapping"),
    ], ids=["unreadable", "invalid-json", "list-root"])
    def test_unloadable_config_is_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    FRICTION = {"model": "dry_friction", "K": [[2.0, 0.5], [0.5, 1.0]], "tau": [1.0, 0.0],
                "weights": [0.5, 0.5], "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}

    @pytest.mark.parametrize("overrides, message", [
        ({"model": {**GENERIC, "f": {"type": "affine", "A": [[-1.0, 0.0], [1.0]],
                                     "b": [2.0, 0.0]}}},
         "f: A must have rows of equal length"),
        ({"model": {**GENERIC, "G": {"type": "linear", "matrix": [[1.0, 0.0]]}}},
         "G: matrix must be square, got shape (1, 2)"),
        ({"model": {**FRICTION, "K": [[2.0, 0.5], [0.0, 1.0]]}}, "model: K must be symmetric"),
        ({"model": {**FRICTION, "lower": [-1.0], "upper": [1.0]}},
         "model: box bounds must match tau"),
        ({"model": {**FRICTION, "lower": [-1.0, 0.0], "upper": [1.0, 0.0]}},
         "model: box must have nonempty interior"),
        ({"schedule": {"kind": "polynomial", "mu0": 0.0, "alpha": 0.5}},
         "schedule: mu0 must be positive"),
        ({"T": 0.1, "schedule": {"kind": "polynomial", "mu0": 0.5, "alpha": 0.5}},
         "schedule: horizon 0.1 is shorter than the first step 0.5"),
        ({"T": 0.1, "schedule": {"kind": "uniform", "mu0": 0.05},
          "errors": {"kind": "explicit", "values": [1e-4, -1e-4]}},
         "schedule: explicit error values must be nonnegative"),
    ], ids=["ragged-rows", "non-square-G", "non-symmetric-K", "bounds-off-tau",
            "empty-interior", "polynomial-mu0", "polynomial-short-horizon", "negative-errors"])
    def test_malformed_model_or_schedule_is_config_error(self, tmp_path, capsys, overrides,
                                                         message):
        # the model and the schedule are judged before the start, so x0 stays [0.0]
        cfg = write_config(tmp_path / "c.json", onedim_config(**overrides))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("model", [
        {"model": "onedim", "a": 1e308, "b": 2.0},
        {**GENERIC, "constants": {**GENERIC["constants"], "a": 1e308}},
    ], ids=["onedim", "declared-a"])
    @pytest.mark.parametrize("command", ["run", "study"])
    def test_overflowing_bound_is_runtime_error(self, tmp_path, capsys, command, model):
        # M_T = a + b R_T is about 1e308, so M_T^2 leaves float range; the
        # energy certificate used to escape as an OverflowError, exit 1
        cfg = write_config(tmp_path / "c.json", onedim_config(
            model=model, x0=[0.5], T=0.1,
            schedule={"kind": "uniform", "mu0": 0.02},
            study={"levels": [0.02, 0.01, 0.005]}))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):  # onedim's steps themselves overflow |p|^2
            assert main([command, cfg, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["command"], manifest["failed"], manifest["reason"]) == (
            command, "scheme", "overflow")
        err = capsys.readouterr().err
        assert err.startswith("scheme failure: ") and "leaves the float range" in err
        assert "Traceback" not in err

    def test_overflowing_step_fails_at_step_zero(self, tmp_path):
        # onedim with a = 1e308 moves by 1e306 in its first step, so |p|^2 and
        # mu^2 |w|^2 both leave float range; the contract used to pass that
        # step as inf <= inf, and the run failed later, at its energy bound
        cfg = write_config(tmp_path / "c.json", onedim_config(
            model={"model": "onedim", "a": 1e308, "b": 2.0}, x0=[0.5], T=0.1,
            schedule={"kind": "uniform", "mu0": 0.02}))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["run", cfg, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["failed"], manifest["reason"]) == ("scheme", "overflow")
        assert manifest["error"] == ("step 0 failed: defect contract leaves the float range: "
                                     "|p|^2 = mu^2|w|^2 + eps = inf")
        assert read_run_csv(str(out / "trajectory.csv"))["X"].tolist() == [[0.5]]

    def test_overflowing_random_draw_fails_at_step_zero(self, tmp_path, capsys):
        # G(0) = [-1e308, 1e308] is wider than float range, so the randomized
        # draw raised numpy's OverflowError, a traceback with exit 1
        cfg = write_config(tmp_path / "c.json", onedim_config(
            model={"f": {"type": "affine", "A": [[-1.0]], "b": [1.0]},
                   "G": {"type": "l1", "weights": [1e308]}, "C": {"type": "halfline"},
                   "constants": {"a": 1.0, "b": 1.0, "r_star": 1.0, "M": 1.0, "gamma": 1.0}},
            x0=[0.0], T=0.1,
            schedule={"kind": "uniform", "mu0": 0.02}, selection={"kind": "randomized"}))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["run", cfg, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["failed"], manifest["reason"]) == ("scheme", "overflow")
        assert manifest["error"] == ("step 0 failed: selection leaves the float range: "
                                     "Range exceeds valid bounds")
        assert read_run_csv(str(out / "trajectory.csv"))["X"].tolist() == [[0.0]]
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_random_draw_warns_of_nothing(self, tmp_path, capsys):
        # the same draw with RuntimeWarnings as errors: numpy warned of the
        # overflow before it raised, and the warning escaped as a traceback
        cfg = write_config(tmp_path / "c.json", onedim_config(
            model={"f": {"type": "affine", "A": [[-1.0]], "b": [1.0]},
                   "G": {"type": "l1", "weights": [1e308]}, "C": {"type": "halfline"},
                   "constants": {"a": 1.0, "b": 1.0, "r_star": 1.0, "M": 1.0, "gamma": 1.0}},
            x0=[0.0], T=0.1,
            schedule={"kind": "uniform", "mu0": 0.02}, selection={"kind": "randomized"}))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["failed"], manifest["reason"]) == ("scheme", "overflow")
        assert capsys.readouterr().err == f"scheme failure: {manifest['error']}\n"

    def test_overflowing_square_fails_the_energy_check(self, tmp_path):
        # f(x) = -x from 1e200 steps within float range, but |x_k|^2 leaves
        # it; the energy certificate used to print a NaN residual and exit 1
        cfg = write_config(tmp_path / "c.json", FAR_HALFLINE)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["run", cfg, "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["failed"], manifest["reason"]) == ("scheme", "overflow")
        assert manifest["error"] == "energy: a bound of the check leaves the float range"

    @pytest.mark.parametrize("tags", ["defect_sum,feas_L2", "beta_bound", "truncation"])
    def test_overflowing_square_fails_every_bound(self, tmp_path, capsys, tags):
        # on the same run, defect_sum, feas_L2 and truncation passed against
        # an inf bound and beta_bound printed a NaN overshoot, all with exit 0
        cfg = write_config(tmp_path / "c.json", FAR_HALFLINE)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["run", cfg, "--out", str(out), "--diagnostics", tags]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["failed"], manifest["reason"]) == ("scheme", "overflow")
        first = tags.split(",")[0]
        assert manifest["error"] == f"{first}: a bound of the check leaves the float range"
        assert not (out / "diagnostics.json").exists()
        assert capsys.readouterr().out == ""

    def test_overflowing_envelope_is_vacuous(self, tmp_path):
        # b = |K| = 3 makes the a-priori rate Lambda_T about 71, so
        # exp(Lambda_T T) leaves float range at T = 20
        cfg = write_config(tmp_path / "c.json", {
            "model": {"model": "dry_friction", "K": [[3.0]], "tau": [0.0],
                      "weights": [1.0], "lower": [-1.0], "upper": [1.0]},
            "x0": [0.5],
            "T": 20.0,
            "schedule": {"kind": "uniform", "mu0": 0.1},
        })
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=_reject_constant)
        apriori = manifest["run"]["apriori"]
        assert apriori["vacuous"] is True
        assert apriori["within_bound"] is None
        assert all(apriori[key] is None for key in ("K_T", "R_T", "M_T", "L_T"))


def _with(cfg: dict, path: tuple, value) -> dict:
    """A copy of cfg whose entry at the key path is value."""
    cfg = json.loads(json.dumps(cfg))
    record = cfg
    for key in path[:-1]:
        record = record[key]
    record[path[-1]] = value
    return cfg


# small configs whose every field the boundary fuzz replaces by each of
# FUZZ_VALUES, with the command that runs them
FUZZ_BASES = {
    "onedim-run": ("run", {
        "model": {"model": "onedim", "a": 1, "b": 2, "r_star": 1.0}, "x0": [0.5], "T": 0.1,
        "seed": 1, "schedule": {"kind": "uniform", "mu0": 0.02}, "diagnostics": ["energy"],
        "errors": {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0},
        "selection": {"kind": "randomized", "seed": 2},
        "projection": {"kind": "perturbed", "seed": 3}}),
    "onedim-stability": ("stability", {
        "model": {"model": "onedim", "a": 1, "b": 2}, "x0": [[0.5], [1.0]], "T": 0.1,
        "schedule": {"kind": "uniform", "mu0": 0.02}, "tol_mesh": 0.1}),
    "onedim-study": ("study", {
        "model": {"model": "onedim", "a": 1, "b": 2}, "x0": [0.5], "T": 0.1,
        "study": {"levels": [0.04, 0.02, 0.01], "reference_refine": 2}}),
    "generic-halfline": ("run", {
        "model": {"f": {"type": "affine", "A": [[-1.0]], "b": [2.0]},
                  "G": {"type": "linear", "matrix": [[1.0]]}, "C": {"type": "halfline"},
                  "constants": {"a": 2.0, "b": 2.0, "r_star": 1.0, "M": 1.0, "gamma": 1.0,
                                "ell": -2.0},
                  "name": "scalar"},
        "x0": [0.5], "T": 0.1, "schedule": {"kind": "explicit", "values": [0.05, 0.05]},
        "errors": {"kind": "explicit", "values": [1e-4, 1e-4]},
        "selection": {"kind": "sign", "sign": 1}}),
    "polygon": ("run", {
        "model": {"f": {"type": "affine", "A": [[0, 0], [0, 0]], "b": [8.0, 4.0]},
                  "G": {"type": "l1", "weights": [0.1, 0.1]},
                  "C": {"type": "intersection", "budget": 50, "members": [
                      {"type": "ball", "center": [0, 0], "radius": 1.0},
                      {"type": "halfspace", "normal": [1, 0], "offset": 0.5}]},
                  "constants": {"a": 9.0, "b": 0.0, "r_star": 0.5, "M": 10.0, "gamma": 1.0}},
        "x0": [0.0, 0.0], "T": 0.1, "schedule": {"kind": "uniform", "mu0": 0.05},
        "projection": {"kind": "iterative"}}),
    "friction": ("run", {
        "model": {"model": "dry_friction", "K": [[2.0, 0.5], [0.5, 1.0]], "tau": [3.0, -0.2],
                  "weights": [0.5, 0.7], "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                  "gamma": 0.5},
        "x0": [0.0, 0.0], "T": 0.1, "schedule": {"kind": "uniform", "mu0": 0.05},
        "selection": {"kind": "sign", "sign": -1}}),
    "interval": ("run", {
        "model": {"f": {"type": "affine", "A": [[-1.0]], "b": [3.0]},
                  "G": {"type": "l1", "weights": [0.5]},
                  "C": {"type": "intersection", "members": [
                      {"type": "ball", "center": [0.0], "radius": 1.0},
                      {"type": "halfspace", "normal": [1.0], "offset": 0.5}]},
                  "constants": {"a": 4.0, "b": 1.0, "r_star": 1.0, "M": 4.0, "gamma": 0.5}},
        "x0": [0.0], "T": 0.1, "schedule": {"kind": "uniform", "mu0": 0.05}}),
}
FUZZ_VALUES = [None, True, "x", [], {}, -1, 0, 0.5, 10 ** 400, float("nan"), float("inf"),
               [[[1.0]]]]


def _field_paths(record: dict, prefix=()):
    """The key path of every field of a config, into nested records and
    intersection members."""
    for key, value in record.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, member in enumerate(value):
                yield from _field_paths(member, prefix + (key, i))


class TestConfigFields:
    """A config record's fields are its kind's constructor arguments: an
    unknown or missing one is a config error that names it, in every family."""

    BASE = onedim_config(model=TestBoundaryValidation.GENERIC, x0=[0.5], T=0.1)

    @pytest.mark.parametrize("path, value, field", [
        (("model", "C", "dim"), 3, "dim"),
        (("model", "C"), {"type": "intersection", "members": [{"type": "halfline", "dim": 3}]},
         "dim"),
        (("model", "G", "extra"), 1, "extra"),
        (("model", "f", "c"), 1, "c"),
        (("model",), {"model": "onedim", "a": 1, "b": 2, "r_sta": 5}, "r_sta"),
        (("model", "nme"), "mine", "nme"),
        (("model", "constants", "elll"), -2.0, "elll"),
        (("schedule", "mu"), 7, "mu"),
        (("errors",), {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0, "gamma": 2}, "gamma"),
        (("errors",), {"kind": "zero", "eps0": 0.1}, "eps0"),
        (("selection",), {"kind": "minimal_norm", "sign": 7}, "sign"),
        (("projection",), {"kind": "perturbed", "slack_fraction": 5}, "slack_fraction"),
        (("projection",), {"kind": "exact", "seed": 4}, "seed"),
        (("diagnostic",), "all", "diagnostic"),
        (("tol_mes",), 0.5, "tol_mes"),
    ], ids=["C.halfline", "C.member", "G.linear", "f.affine", "model.onedim", "model.generic",
            "constants", "schedule", "errors", "errors.zero", "selection", "projection",
            "projection.exact", "config.diagnostic", "config.tol_mes"])
    def test_unknown_field_is_config_error(self, tmp_path, capsys, path, value, field):
        # each of these used to be ignored, and the run exited 0
        cfg = write_config(tmp_path / "c.json", _with(self.BASE, path, value))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"unknown field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, field", [
        (("model", "C"), {"type": "box", "lower": [0.0]}, "upper"),
        (("model", "C"), {"type": "intersection"}, "members"),
        (("model", "G"), {"type": "linear"}, "matrix"),
        (("model", "f"), {"type": "affine", "A": [[-1.0]]}, "b"),
        (("model",), {"model": "onedim", "b": 2}, "a"),
        (("model",), {key: TestBoundaryValidation.GENERIC[key] for key in "fGC"}, "constants"),
        (("model", "constants"), {"a": 2.0, "b": 2.0, "r_star": 1.0, "M": 1.0}, "gamma"),
        (("schedule",), {"kind": "uniform"}, "mu0"),
        (("errors",), {"kind": "power_of_step", "eps0": 0.1}, "beta"),
    ], ids=["C.box", "C.intersection", "G.linear", "f.affine", "model.onedim",
            "model.generic", "constants", "schedule", "errors"])
    def test_missing_field_is_named(self, tmp_path, capsys, path, value, field):
        cfg = write_config(tmp_path / "c.json", _with(self.BASE, path, value))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"missing field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "study", "stability"])
    @pytest.mark.parametrize("key", ["T", "model"])
    def test_missing_top_level_key_is_named(self, tmp_path, capsys, command, key):
        payload = onedim_config(x0=[[0.0], [1.0]] if command == "stability" else [0.0],
                                study={"levels": [0.04, 0.02, 0.01]})
        del payload[key]
        cfg = write_config(tmp_path / "c.json", payload)
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config: missing field {key!r}")

    @pytest.mark.parametrize("command, family", [("run", "schedule"), ("run", "errors"),
                                                 ("run", "selection"), ("run", "projection"),
                                                 ("study", "study")])
    @pytest.mark.parametrize("value", [[], 0, False, ""], ids=["list", "zero", "false", "empty"])
    def test_falsy_record_is_not_a_default(self, tmp_path, capsys, command, family, value):
        # only an absent or null record takes its default; these used to
        # run with the default kind, or fail with an unrelated message
        cfg = write_config(tmp_path / "c.json", onedim_config(
            **{"T": 0.1, "study": {"levels": [0.04, 0.02, 0.01]}, family: value}))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {family} must be a mapping")

    # field -> (command, the config entries holding a value, the name the error gives)
    NUMBER_FIELDS = {
        "T": ("run", lambda v: {"T": v}, "T"),
        "tol_mesh": ("stability", lambda v: {"tol_mesh": v}, "tol_mesh"),
        "x0": ("run", lambda v: {"x0": [v]}, "x0[0]"),
        "stability.x0": ("stability", lambda v: {"x0": [[0.5], [v]]}, "x0[1][0]"),
        "study.levels": ("study", lambda v: {"study": {"levels": [v, 0.02, 0.01]}}, "levels[0]"),
        "uniform.mu0": ("run", lambda v: {"schedule": {"kind": "uniform", "mu0": v}}, "mu0"),
        "polynomial.mu0": ("run", lambda v: {"schedule": {"kind": "polynomial", "mu0": v,
                                                          "alpha": 0.5}}, "mu0"),
        "polynomial.alpha": ("run", lambda v: {"schedule": {"kind": "polynomial", "mu0": 0.02,
                                                            "alpha": v}}, "alpha"),
        "explicit.steps": ("run", lambda v: {"schedule": {"kind": "explicit",
                                                          "values": [v, 0.05]}}, "values[0]"),
        "power_of_step.eps0": ("run", lambda v: {"errors": {"kind": "power_of_step", "eps0": v,
                                                            "beta": 1.0}}, "eps0"),
        "power_of_step.beta": ("run", lambda v: {"errors": {"kind": "power_of_step", "eps0": 0.1,
                                                            "beta": v}}, "beta"),
        "explicit.errors": ("run", lambda v: {"errors": {"kind": "explicit",
                                                         "values": [1e-4, v]}}, "values[1]"),
        "ball.radius": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "C": {
            "type": "ball", "center": [0.0], "radius": v}}}, "radius"),
        "halfspace.offset": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "C": {
            "type": "halfspace", "normal": [1.0], "offset": v}}}, "offset"),
        "constants.M": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "constants": {
            **TestBoundaryValidation.GENERIC["constants"], "M": v}}}, "M"),
        "onedim.a": ("run", lambda v: {"model": {"model": "onedim", "a": v, "b": 2}}, "a"),
        "dry_friction.gamma": ("run", lambda v: {
            "model": {**FUZZ_BASES["friction"][1]["model"], "gamma": v}, "x0": [0.0, 0.0]},
            "gamma"),
        "box.lower": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "C": {
            "type": "box", "lower": [v], "upper": [1.0]}}}, "lower[0]"),
        "box.upper": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "C": {
            "type": "box", "lower": [0.0], "upper": [v]}}}, "upper[0]"),
        "ball.center": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "C": {
            "type": "ball", "center": [v], "radius": 1.0}}}, "center[0]"),
        "halfspace.normal": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "C": {
            "type": "halfspace", "normal": [v], "offset": 1.0}}}, "normal[0]"),
        "l1.weights": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "G": {
            "type": "l1", "weights": [v]}}}, "weights[0]"),
        "linear.matrix": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "G": {
            "type": "linear", "matrix": [[v]]}}}, "matrix[0][0]"),
        "affine.A": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "f": {
            "type": "affine", "A": [[v]], "b": [2.0]}}}, "A[0][0]"),
        "affine.b": ("run", lambda v: {"model": {**TestBoundaryValidation.GENERIC, "f": {
            "type": "affine", "A": [[-1.0]], "b": [v]}}}, "b[0]"),
        "dry_friction.K": ("run", lambda v: {
            "model": {**FUZZ_BASES["friction"][1]["model"], "K": [[v, 0.5], [0.5, 1.0]]},
            "x0": [0.0, 0.0]}, "K[0][0]"),
        "dry_friction.tau": ("run", lambda v: {
            "model": {**FUZZ_BASES["friction"][1]["model"], "tau": [v, -0.2]},
            "x0": [0.0, 0.0]}, "tau[0]"),
        "dry_friction.weights": ("run", lambda v: {
            "model": {**FUZZ_BASES["friction"][1]["model"], "weights": [v, 0.7]},
            "x0": [0.0, 0.0]}, "weights[0]"),
        "dry_friction.lower": ("run", lambda v: {
            "model": {**FUZZ_BASES["friction"][1]["model"], "lower": [v, -1.0]},
            "x0": [0.0, 0.0]}, "lower[0]"),
        "dry_friction.upper": ("run", lambda v: {
            "model": {**FUZZ_BASES["friction"][1]["model"], "upper": [v, 1.0]},
            "x0": [0.0, 0.0]}, "upper[0]"),
    }

    @pytest.mark.parametrize("value", [True, "0.1"], ids=["true", "string"])
    @pytest.mark.parametrize("field", list(NUMBER_FIELDS))
    def test_number_field_takes_a_json_number(self, tmp_path, capsys, field, value):
        # each of these used to run on 1.0 or on the parsed string, or to
        # fail with an error about something else
        command, entry, name = self.NUMBER_FIELDS[field]
        cfg = write_config(tmp_path / "c.json", onedim_config(**{
            "model": TestBoundaryValidation.GENERIC, "T": 0.1,
            "x0": [[0.5], [1.0]] if command == "stability" else [0.5],
            "study": {"levels": [0.04, 0.02, 0.01]}, **entry(value)}))
        assert main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"{name} must be a number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("base", list(FUZZ_BASES))
    def test_fuzzed_field_never_escapes(self, tmp_path, base):
        # each field in turn takes each bad value; the command must end with
        # one of its exit codes, never with an exception
        command, cfg = FUZZ_BASES[base]
        escaped = []
        for path in _field_paths(cfg):
            for value in FUZZ_VALUES:
                argv = [command, write_config(tmp_path / "c.json", _with(cfg, path, value)),
                        "--out", str(tmp_path / "out")]
                try:
                    code = main(argv)
                except Exception as e:
                    code = repr(e)
                if code not in (0, 1, 2, 3):
                    escaped.append((path, value, code))
        assert not escaped


class TestCaches:
    """The parser is built once per process and each builder's signature
    read once; neither may carry state from one command to the next."""

    # the understated-rate stability config, its ratio advisory unless
    # --strict, under perturbed projection so that the seed moves the runs
    PAYLOAD = {
        "model": {
            "f": {"type": "affine", "A": [[-1.0]], "b": [2.0]},
            "G": {"type": "linear", "matrix": [[1.0]]},
            "C": {"type": "halfline"},
            "constants": {"a": 2.0, "b": 2.0, "r_star": 1.0, "M": 1.0, "gamma": 1.0,
                          "ell": -3.0},
        },
        "x0": [[0.0], [1.0]],
        "T": 1.0,
        "schedule": {"kind": "uniform", "mu0": 0.2},
        "errors": {"kind": "power_of_step", "eps0": 0.01, "beta": 1.0},
        "projection": {"kind": "perturbed"},
    }

    def test_two_commands_in_one_process_write_what_two_processes_write(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.PAYLOAD)
        argvs = [["stability", "c.json", "--strict", "--seed", "5"], ["stability", "c.json"]]
        env = {**os.environ, "PYTHONPATH": str(Path(catchup.__file__).parents[1])}
        codes = []
        for i, argv in enumerate(argvs):
            codes.append(main([argv[0], cfg, *argv[2:], "--out", str(tmp_path / f"one{i}")]))
            proc = subprocess.run([sys.executable, "-m", "catchup.cli", *argv,
                                   "--out", f"fresh{i}"], cwd=tmp_path, env=env,
                                  capture_output=True)
            assert proc.returncode == codes[-1]
        assert codes == [1, 0]
        for i in range(len(argvs)):
            one, fresh = tmp_path / f"one{i}", tmp_path / f"fresh{i}"
            names = sorted(p.name for p in one.iterdir())
            assert names == sorted(p.name for p in fresh.iterdir())
            for name in names:
                assert (one / name).read_bytes() == (fresh / name).read_bytes(), name
        assert (tmp_path / "one0" / "stability.csv").read_bytes() != \
            (tmp_path / "one1" / "stability.csv").read_bytes()

    def test_field_records_leave_the_signature_cache_as_it_was(self):
        cfg = {"type": "affine", "A": [[-1.0]], "b": [2.0]}
        field_from_config(cfg)
        size = _parameters.cache_info().currsize
        for _ in range(1000):
            field_from_config(cfg)
        assert _parameters.cache_info().currsize == size
