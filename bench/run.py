"""The catchup benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the `src` directory beside `bench/`; without
it the benchmark exits with code 2.  One process generates the workload's
configs from the seed, runs one warm-up session and then closed-loop
sessions, one at a time, for S seconds.  BLAS threads are pinned to 1 here
and in every child process.

With `--trace 0` it reports the end-to-end metrics; set-up time is measured
in fresh child processes spawned between the sessions.  Session times are
full-speed seconds (see `speed.py`): wall time less the speed probes, scaled
to a fixed reference speed of the core, because shared hosts' cores slow
down by up to 2x for stretches of any length; the wall times are reported.  With `--trace 1` it
alternates untraced and traced sessions and reports the per-layer metrics
from the traced ones (calls per session, median self time per session).
The last line of standard output is the result as one JSON object; the
lines before it are a readable report and the machine facts.  Session
outputs, the full result and the spans of a traced run are written under
`bench/_work/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_MIN_SAMPLES = 5

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("session_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ref_err", "abs", "lower", 0.1),
    ("pass_ratio", "ratio", "higher", 0.01),
]


def _layer(name: str) -> tuple[str, str, str]:
    kind = name.rsplit(".", 1)[-1]
    unit = {"calls": "count", "probes": "count", "sweeps": "count", "self_s": "s",
            "bytes": "B", "bytes_written": "B"}.get(kind, "ratio")
    better = "higher" if name == "scheme.certified_step_ratio" else "lower"
    return name, unit, better


# Which end-to-end metric a layer should move, and where:
#   geometry.project.* -> session_s on friction_run (box) and polygon_session
#     (intersection, ball, halfspace); near nil on scalar_session (halfline)
#   geometry.in_approx_normal_cone.*, scheme.certified_step_ratio -> session_s
#     on friction_run and polygon_session; no calls on scalar_session
#   geometry.approx_project.*, geometry.dykstra.* -> session_s on
#     polygon_session; no sweeps elsewhere.  sweeps_per_projection is the
#     wasted-work ratio: member projections per intersection projection
#   geometry.contains/distance, operators.*, scheme.step/run -> steps_per_s on
#     scalar_session; they should not move friction_run
#   scheme.to_csv/read_run_csv/verify_run_invariants -> session_s on
#     scalar_session (20k rows)
#   scheme.interpolate_state -> session_s on polygon_session (the study's gaps)
#   diagnostics.* -> session_s on scalar_session and polygon_session
#   models.build, scheme.make_schedule -> setup_s
#   cli.main (config parsing, output writing), cli.bytes_written -> session_s
#     everywhere
#   trace.overhead_ratio: traced over untraced session_s, in the same run
PER_LAYER = [_layer(n) for n in (
    *(f"geometry.project.{v}.{k}" for v in ("box", "halfline", "ball", "halfspace", "intersection")
      for k in ("calls", "self_s")),
    "geometry.in_approx_normal_cone.calls", "geometry.in_approx_normal_cone.self_s",
    "geometry.in_approx_normal_cone.probes", "scheme.certified_step_ratio",
    "geometry.approx_project.calls", "geometry.approx_project.self_s",
    "geometry.dykstra.sweeps", "geometry.dykstra.sweeps_per_projection",
    *(f"{f}.{k}" for f in ("geometry.contains", "geometry.distance", "operators.select_F",
                           "operators.regular_part.value", "operators.field", "scheme.step",
                           "scheme.run", "scheme.to_csv", "scheme.interpolate_state")
      for k in ("calls", "self_s")),
    "scheme.to_csv.bytes", "scheme.read_run_csv.self_s", "scheme.verify_run_invariants.self_s",
    *(f"diagnostics.{f}.self_s" for f in ("check_discrete_energy", "defect_summability",
                                          "predictor_feasibility", "stability_experiment")),
    "models.build.self_s", "scheme.make_schedule.self_s",
    "cli.main.self_s", "cli.bytes_written", "trace.overhead_ratio",
)]


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                facts[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return facts


def setup_seconds(inputs: Path) -> float:
    """Wall seconds of one fresh process that imports the CLI and builds
    every config's model and schedule."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), *map(str, sorted(inputs.glob("*.json")))]
    # a blocking wait: subprocess's wait with a timeout polls, which rounds
    # the measured time up to its 50 ms sleeps
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def run_session(workload, inputs: Path, tracer=None, session_id=0, probe=None):
    """One session; returns its outcome, its wall seconds and, with a
    `speed.SpeedProbe`, the probe times taken while it ran."""
    work = WORK / workload.name / "session"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gc.collect()
    if tracer is not None:
        tracer.install(session_id)
    window = probe.window() if probe is not None else contextlib.nullcontext([])
    try:
        with window as probes:
            t0 = time.perf_counter()
            try:
                outcome = workload.session(inputs, work)
            finally:
                elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcome, elapsed, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "catchup" / "__init__.py").is_file():
        print(f"error: no catchup package under {SRC}; run inside a catchup checkout",
              file=sys.stderr)
        return 2
    # before numpy is imported here or in any child process
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import catchup
    if Path(catchup.__file__).resolve().parent != SRC / "catchup":
        print(f"error: imported catchup from {catchup.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORK / workload.name, ignore_errors=True)
    inputs = workloads.write_inputs(workload.name, args.seed, WORK / workload.name / "inputs")

    report = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine_facts()}
    if args.trace:
        metrics, outcomes, text = traced_run(workload, inputs, args.seconds, report)
    else:
        metrics, outcomes, text = untraced_run(workload, inputs, args.seconds, report)

    failures = sorted({f for o in outcomes for f in o.failures})
    correct = all(o.correct for o in outcomes) and not report.get("inconsistent")
    result = {
        "correct": bool(correct),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }
    report.update(result=result, failures=failures)
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(text)
    for f in failures:
        print(f"failed operation: {f}")
    for msg in report.get("inconsistent", []):
        print(f"inconsistent: {msg}")
    print(json.dumps({"machine": report["machine"], "seed": args.seed}, sort_keys=True))
    print(json.dumps(result))
    return 0


def _same(outcomes, attr: str, report: dict):
    """A value every session must reproduce bit for bit; a mismatch marks
    the run incorrect (same inputs must give the same outputs)."""
    values = {getattr(o, attr) for o in outcomes}
    if len(values) != 1:
        report.setdefault("inconsistent", []).append(f"{attr} differs across sessions: {sorted(values)}")
    return getattr(outcomes[0], attr)


def untraced_run(workload, inputs: Path, seconds: float, report: dict):
    import speed

    probe = speed.SpeedProbe()
    setup_seconds(inputs)  # fills the bytecode cache; users pay that once
    warm, _, _ = run_session(workload, inputs, probe=probe)
    # one set-up sample before each session, so both sample the same stretch
    # of this machine's time
    setup, outcomes, walls, probed = [], [], [], []
    end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < end:
        setup.append(setup_seconds(inputs))
        outcome, elapsed, probes = run_session(workload, inputs, probe=probe)
        outcomes.append(outcome)
        walls.append(elapsed)
        probed.append(probes)
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_seconds(inputs))
    times = [speed.full_speed_seconds(w, p) for w, p in zip(walls, probed)]
    steps = _same([warm, *outcomes], "steps", report)
    ref_err = _same([warm, *outcomes], "ref_err", report)
    attempted = sum(o.attempted for o in [warm, *outcomes])
    failed = sum(o.failed for o in [warm, *outcomes])
    values = {
        "setup_s": statistics.median(setup),
        "session_s": statistics.median(times),
        "steps_per_s": statistics.median(steps / t for t in times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_err": ref_err if ref_err == ref_err else None,  # NaN: no audit completed
        "pass_ratio": (attempted - failed) / attempted,
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    fastest = probe.fastest()
    slowdown = [statistics.fmean(p) / speed.REF_PROBE_S for p in probed if p]
    report["samples"] = {"setup_s": setup, "session_s": times, "session_wall_s": walls,
                         "probes_per_session": [len(p) for p in probed],
                         "mean_slowdown": slowdown, "steps_per_session": steps}
    report["speed_probe"] = {"period_s": probe.period, "ref_s": speed.REF_PROBE_S,
                             "fastest_s": fastest}
    lines = [f"{workload.name} seed={report['seed']}: {len(times)} sessions after one warm-up, "
             f"{steps} steps each",
             f"  wall seconds per session: median {statistics.median(walls):.6g}; the core ran "
             f"{min(slowdown):.2f}x to {max(slowdown):.2f}x slower than full speed "
             f"(probe {speed.REF_PROBE_S * 1e3:.3f} ms; fastest here {fastest * 1e3:.3f} ms)"]
    for name, unit, _, _ in END_TO_END:
        note = {"setup_s": f"median of {len(setup)} fresh processes, wall",
                "session_s": f"median of {len(times)} sessions, at full speed",
                "steps_per_s": "at full speed"}.get(name, "")
        lines.append(f"  {name:<12} {values[name]:>14.6g} {unit:<6} {note}")
    return metrics, [warm, *outcomes], "\n".join(lines)


def traced_run(workload, inputs: Path, seconds: float, report: dict):
    import tracing

    tracer = tracing.Tracer()
    warm, _, _ = run_session(workload, inputs)
    outcomes, plain, traced = [], [], []
    end = time.perf_counter() + seconds
    i = 0
    while not traced or time.perf_counter() < end:
        is_traced = i % 2 == 1
        outcome, elapsed, _ = run_session(workload, inputs, tracer if is_traced else None, i)
        outcomes.append(outcome)
        (traced if is_traced else plain).append(elapsed)
        if is_traced:
            tracer.counters[(i, "cli.bytes_written")] += outcome.cli_bytes
        i += 1
    tables = list(tracer.session_tables().values())
    values = {}
    for name, unit, _ in PER_LAYER:
        samples = [t.get(name, 0) for t in tables]
        if name.endswith(".self_s"):
            values[name] = statistics.median(samples)
        elif len(set(samples)) != 1:
            report.setdefault("inconsistent", []).append(f"{name} differs across traced sessions: {samples}")
            values[name] = statistics.median(samples)
        else:
            values[name] = samples[0]
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    report["samples"] = {"untraced_session_s": plain, "traced_session_s": traced}
    report["per_session"] = tables
    tracer.save(WORK / workload.name / "spans.npz")
    return metrics, [warm, *outcomes], layer_table(workload, tables, statistics.median(traced))


def layer_table(workload, tables: list, session_s: float) -> str:
    """Per-layer self time and calls per traced session, largest first, then
    the share of session time by module against the workload's expectation."""
    first = tables[0]
    rows = []
    for key in first:
        if key.endswith(".self_s"):
            base = key[: -len(".self_s")]
            self_s = statistics.median(t[key] for t in tables)
            rows.append((self_s, base, first.get(f"{base}.calls", 0)))
    rows.sort(reverse=True)
    lines = [f"{workload.name}: {len(tables)} traced sessions, median {session_s:.4f} s each",
             f"  {'layer':<40} {'calls':>10} {'self_s':>10} {'share':>7}"]
    by_module = {}
    for self_s, base, calls in rows:
        lines.append(f"  {base:<40} {calls:>10d} {self_s:>10.4f} {self_s / session_s:>7.1%}")
        module = base.split(".", 1)[0]
        by_module[module] = by_module.get(module, 0.0) + self_s
    by_module["benchmark"] = session_s - sum(by_module.values())
    lines.append(f"  {'module':<40} {'measured':>10} {'expected':>10}")
    for module in sorted(set(by_module) | set(workload.shares)):
        lines.append(f"  {module:<40} {by_module.get(module, 0.0) / session_s:>10.1%} "
                     f"{workload.shares.get(module, 0.0):>10.1%}")
    for key in ("geometry.in_approx_normal_cone.probes", "geometry.dykstra.sweeps",
                "geometry.dykstra.sweeps_per_projection", "scheme.certified_step_ratio",
                "scheme.to_csv.bytes", "cli.bytes_written", "trace.spans"):
        lines.append(f"  {key:<40} {first.get(key, 0):>10.6g}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
