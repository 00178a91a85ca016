"""Compare what two source trees of catchup write for a fixed CLI matrix.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC [--work DIR]

Each case runs one `catchup` command in a fresh interpreter, once with
OLD_SRC and once with NEW_SRC on PYTHONPATH, from a directory of its own
that holds the case's config.  Paths on the command line are relative, so
the output of both sides can be compared byte for byte: every file under
the case directory, the exit code, stdout and stderr.  One line is printed
per case; a differing manifest also prints its changed lines.  The exit
code is 1 when any case differs.

The matrix: for seeds 1-3, the configs `bench/workloads.generate` makes
for every benchmark workload, run as `run` and
`run --diagnostics all --strict` (each run.json), `stability` and
`stability --strict` (the scalar stability.json) and `study` (the polygon
study.json); plus three onedim runs with `--diagnostics all`: the README
example, a sticking run (b < 0), and a polynomial schedule with perturbed
projection and randomized selection.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

ONEDIM_CASES = {
    "readme": {"model": {"model": "onedim", "a": 1, "b": 2}, "x0": [0.0], "T": 10.0,
               "schedule": {"kind": "uniform", "mu0": 0.01}},
    "sticking": {"model": {"model": "onedim", "a": 1, "b": -1}, "x0": [0.5], "T": 2.0,
                 "schedule": {"kind": "uniform", "mu0": 0.01}},
    "randomized": {"model": {"model": "onedim", "a": 1, "b": 2}, "x0": [0.0], "T": 2.0,
                   "schedule": {"kind": "polynomial", "mu0": 0.05, "alpha": 0.5},
                   "errors": {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0},
                   "selection": {"kind": "randomized"},
                   "projection": {"kind": "perturbed"}},
}


def cases(src: Path) -> list[tuple[str, dict[str, bytes], list[str]]]:
    """(name, config files, argv) for every case of the matrix; the
    workload generator imports catchup, which is taken from `src`."""
    sys.path[:0] = [str(src), str(REPO)]
    from bench.workloads import WORKLOADS, generate

    matrix = []
    for name in WORKLOADS:
        for seed in (1, 2, 3):
            files = generate(name, seed)
            variants = {
                "run.json": [["run"], ["run", "--diagnostics", "all", "--strict"]],
                "stability.json": [["stability"], ["stability", "--strict"]],
                "study.json": [["study"]],
            }
            for fname in files:
                for argv in variants[fname]:
                    label = f"{name}-{seed}-" + "-".join(a.strip("-") for a in argv)
                    matrix.append((label, files, [argv[0], fname, "--seed", "1", *argv[1:]]))
    for name, cfg in ONEDIM_CASES.items():
        files = {"run.json": (json.dumps(cfg) + "\n").encode()}
        matrix.append((f"onedim-{name}", files,
                       ["run", "run.json", "--seed", "1", "--diagnostics", "all"]))
    return matrix


def run_case(src: Path, where: Path, files: dict[str, bytes], argv: list[str]) -> dict:
    """Run one command in `where` and collect everything it produced."""
    where.mkdir(parents=True)
    for fname, blob in files.items():
        (where / fname).write_bytes(blob)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "catchup.cli", *argv, "--out", "out"],
                          cwd=where, env=env, capture_output=True)
    written = {str(p.relative_to(where)): p.read_bytes()
               for p in sorted(where.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            **{f"file {k}": v for k, v in written.items()}}


def differences(old: dict, new: dict) -> list[str]:
    """One line per differing item, then the changed lines of text files."""
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        lines.append(f"    {key}: " + ("missing" if a is None else "added" if b is None
                                        else "differs"))
        if isinstance(a, bytes) and isinstance(b, bytes):
            diff = difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                        b.decode(errors="replace").splitlines(),
                                        lineterm="", n=0)
            lines += [f"      {d}" for d in list(diff)[2:12]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the case directories here (default: a temporary one)")
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    differing = 0
    try:
        for label, files, cmd in cases(args.new_src.resolve()):
            old = run_case(args.old_src.resolve(), work / "old" / label, files, cmd)
            new = run_case(args.new_src.resolve(), work / "new" / label, files, cmd)
            lines = differences(old, new)
            differing += bool(lines)
            print(f"{'DIFF' if lines else 'same'}  exit {old['exit code']}/{new['exit code']}"
                  f"  {label}: catchup {' '.join(cmd)}", flush=True)
            for line in lines:
                print(line, flush=True)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{differing} case(s) differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
