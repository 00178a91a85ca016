"""Checks of the benchmark itself: the generator, the trace against the
program's own counts, and the output contract.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from catchup.scheme import Uniform, make_schedule  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_byte_deterministic(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    distinct = {json.dumps({k: v.decode() for k, v in workloads.generate(name, s).items()})
                for s in range(6)}
    assert len(distinct) > 1


def _manifest_steps(manifests: dict) -> int:
    steps = 0
    for m in manifests.values():
        if m["command"] == "run":
            steps += m["run"]["schedule"]["n_steps"]
        elif m["command"] == "stability":
            steps += 2 * m["config"]["schedule"]["n_steps"]
        elif m["command"] == "study":
            cfg = m["config"]
            steps += sum(level["n_steps"] for level in m["levels"])
            steps += make_schedule(cfg["T"], Uniform(cfg["reference_mu"])).n_steps
    return steps


@pytest.mark.parametrize("name", NAMES)
def test_trace_counts_match_the_program(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workloads.write_inputs(name, 11, tmp_path / "inputs")
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        outcome = workload.session(inputs, tmp_path / "work")
    finally:
        tracer.uninstall()
    (table,) = tracer.session_tables().values()

    assert outcome.correct, outcome.failures
    expected_failures = ["stability: exit code 1"] if name == "scalar_session" else []
    assert outcome.failures == expected_failures

    steps = _manifest_steps(outcome.manifests)
    assert table["scheme.step.calls"] == steps == outcome.steps
    checked = sum(m["run"]["certificates"]["normal_cone"]["checked"]
                  for m in outcome.manifests.values() if m["command"] == "run")
    assert table["geometry.in_approx_normal_cone.calls"] == checked
    if name == "scalar_session":
        assert checked == 0
    else:
        assert checked > 0
        assert table["geometry.in_approx_normal_cone.probes"] > checked
    sweeps = table["geometry.dykstra.sweeps"]
    assert (sweeps > 0) == (name == "polygon_session")


def test_uninstall_restores_the_program():
    import catchup.geometry as geometry
    import catchup.scheme as scheme

    before = (scheme.step, geometry.Box.project, geometry.ConvexSet.contains)
    tracer = tracing.Tracer()
    tracer.install(0)
    assert scheme.step is not before[0]
    tracer.uninstall()
    assert (scheme.step, geometry.Box.project, geometry.ConvexSet.contains) == before


def test_speed_probe_samples_and_restores_the_timer():
    probe = speed.SpeedProbe(period=0.01)
    before = signal.getsignal(signal.SIGALRM)
    with probe.window() as probes:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probes) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.fastest() == min(probes)
    # at the reference speed a stretch keeps its time less the probes;
    # twice as slow throughout, half of that
    ref = speed.REF_PROBE_S
    assert speed.full_speed_seconds(1.0, [ref] * 4) == pytest.approx(1.0 - 4 * ref)
    assert speed.full_speed_seconds(1.0, [2 * ref] * 4) == pytest.approx((1.0 - 8 * ref) / 2)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "friction_run", "--seed", "4",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    names = [m[0] for m in (run.PER_LAYER if trace else run.END_TO_END)]
    assert list(result["metrics"]) == names
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "friction_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
