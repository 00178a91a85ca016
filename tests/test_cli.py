"""Driver behavior: exit codes, output files, determinism, round trips."""

import json

import numpy as np
import pytest

from catchup.cli import main
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
        assert "partial" in manifest
        assert (out / "trajectory.csv").exists()

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

    @pytest.mark.parametrize("overrides", [
        {"T": "soon", "study": {"levels": [0.04, 0.02, 0.01]}},
        {"study": {"levels": ["fine", 0.02, 0.01]}},
        {"study": {"levels": [0.04, 0.02, 0.01], "reference_refine": "x"}},
        {"study": [0.04, 0.02, 0.01]},
    ], ids=["T", "levels", "reference_refine", "study-list"])
    def test_malformed_study_is_config_error(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "c.json", onedim_config(**overrides))
        assert main(["study", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_non_refining_levels_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", onedim_config(
            study={"levels": [0.01, 0.02, 0.005]},
        ))
        assert main(["study", cfg, "--out", str(tmp_path / "o")]) == 2


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
        assert "partial" in manifest


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


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
