"""Compare what two source trees of catchup write for a fixed CLI matrix.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC [--work DIR]

Each case runs one `catchup` command in a fresh interpreter, once with
OLD_SRC and once with NEW_SRC on PYTHONPATH, from a directory of its own
that holds the case's config.  Paths on the command line are relative, so
the output of both sides can be compared byte for byte: every file under
the case directory, the exit code, stdout and stderr.  Cases run
concurrently, one worker per CPU the process may run on.  One line is
printed per case, in matrix order; a differing manifest also prints its
changed lines.  The exit code is 1 when any case differs.

The matrix: for seeds 1-3, the configs `bench/workloads.generate` makes
for every benchmark workload, run as `run` and
`run --diagnostics all --strict` (each run.json), `stability` and
`stability --strict` (the scalar stability.json) and `study` (the polygon
study.json); plus runs with `--diagnostics all` of pinned configs: five
onedim runs (the README example, a sticking run with b < 0, the same
run for T 8, 800 steps whose x, w and p stay constant from step 35 on,
across the 256-row blocks of the CSV writer, a
polynomial schedule with perturbed projection and randomized selection,
and explicit step and error lists under perturbed projection, whose
errors keep eps_k / mu_k^2 at 0.1, so the schedule records the warning
that the ratio does not decay),
and four runs whose normal-cone certificates probe sets the benchmark
configs do not: an affine field pushing out of a lone ball, one pushing
out of a lone halfspace, the orthant of dimension 3, and an
11-dimensional dry-friction box (too many corners to probe them), the
last also with two other selections of its set-valued l1 part: the lower
end of each interval, and a randomized one under perturbed projection and
power_of_step errors; two runs that fail at their first step, on a wedge
of two halfspaces projected by a single Dykstra sweep, one with the normal
term leaving its cone (reason normal_cone) and one with the defect
outgrowing its contract (reason contract), whose failure manifests and
partial trajectories are compared like any other output; a run pushed
out of the same wedge by f(x) = (3, 3) - x under the Iterative policy, with
`--diagnostics truncation` only, which passes its own checks but whose
exact fine-mesh reference breaks its defect contract at step 0 (a failure
manifest, reason contract, exit 3, and no trajectory), and the same
config run as `study`, whose exact reference fails the same way (exit 3,
no trajectory); a far outward
step from a halfspace whose normal is 5e-10 short of unit length, which
lands on the boundary, since the projection divides by |normal|^2
(exit 0); f(x) = (3, -3, -2) - x pushed out of a box with infinite bounds
(lower (-1, -inf, 0), upper (1, 2, inf)), 20 steps of mu = 0.05 from 0,
each with a normal-cone certificate that projects the probe table of a
box; a start outside
a thin cap (a ball cut at -0.99 of its radius), a config error; a run
pushed by f(x) = (3, 1) - x from (-0.995, 0) into that cap's upper corner,
whose normal-cone certificates project their probes onto the thin cap
(in closed form, as a ball cut by one halfspace), and the same run
under the Iterative policy with power_of_step errors, whose steps stop
Dykstra on the thin cap until step 15 exhausts the 200-sweep budget (a
failure manifest, reason projection_budget, whose message holds the
distance bound, exit 1, and its partial trajectory); a generic
scalar model whose records carry fields their kinds do not have (`dim` on
a halfline, `extra` on a linear G, `elll` among the constants, `mu` in a
uniform schedule, `sign` on minimal_norm, `slack_fraction` on perturbed),
a config error; an onedim run whose power_of_step tolerances
eps0 mu^(2 + beta) overflow (eps0 1e308, mu0 2), a config error; a
generic scalar model that writes the record kinds no other case's
manifest holds, an affine f(x) = -x - 1 with a `linear` G on a
`halfline`, pushed onto the wall from 0.5 in 20 steps of mu = 0.05; a
model whose every number is an integer literal, in matrices, vectors and
scalars (an affine f, an l1 G, a ball, a box and a halfspace), which its
manifest writes back as floats; a key
that no command reads, a config error, at the top level (the README
example with `diagnostic` for `diagnostics`, run without `--diagnostics`)
and in `study` (an onedim study with `referenc_refine`); the
wedge-contract config run as `stability` from (0, 0) and (-1, 0) with
`ell` 0, whose first run breaks its defect contract (a failure manifest,
reason contract, exit 1, and its partial trajectory); and the
seed-1 polygon run.json under exact projection with no errors, whose steps
project by the Dykstra stop, whose 84 normal-cone certificates are
enforced, and whose truncation diagnostic projects a stack; and the same
run.json under perturbed projection with its power_of_step errors, whose
every step projects onto the intersection twice, the exact projection and
the moved one; and a drift less an l1 part with a zero weight, pushed from
a start with a zero coordinate out of a disc cut by a halfspace and a box,
under the Iterative policy with power_of_step errors: its first step takes
the interval of G(x) and the others a singleton, and every projection
sweeps Dykstra over three members; and five one-dimensional runs that
step in Python floats through every branch: a zero G on the interval
[-1, 2], an l1 G that sticks at an exact 0 under minimal norm and under
the sign conventions -1, 0 and +1, and a linear G on a box whose lower
end is -inf; a `study` of the README model from its equilibrium x = 1,
whose every sup_error is 0, so its empirical order is null; the
record-kinds model declaring a growth constant a = 1e308, run for T 0.1
with mu0 0.02, whose energy bound squares an M_T of about 1e308 (a
failure manifest, reason overflow, exit 3); and a one-dimensional
dry-friction run (K 3, tau 0, weight 1, box [-1, 1]) from 0.5 for T 20
with mu0 0.1, whose a-priori envelope exp(Lambda_T T) leaves float
range, so the manifest records it as vacuous (exit 0, nothing on stderr);
and f(x) = 3 - x less the l1 part 0.2 |x| on the unit ball of R^1 cut by
{x <= 0.5}, from -0.5 for T 2 with mu0 0.02, a one-dimensional set with no
float form, by the cap's closed form and under the Iterative policy with
power_of_step errors (eps0 0.1, beta 1); f(x) = 1 - x less an l1 part of
weight 1e308 on the halfline, from 0 for T 0.1 with mu0 0.02 under
randomized selection, whose first draw from G(0) = [-1e308, 1e308] leaves
float range (a failure manifest, reason overflow, exit 3, and its partial
trajectory); and the README model from 1e160 for T 1, whose |x|^2 leaves
float range: its steps have zero defects, which need no slack of the
contract, so they pass, and the energy bound overflows (exit 3); and
the polygon run config of workload seed 4301 with a redundant box
[-2, 2]^2 among its members, under the Iterative policy with power_of_step
errors: the box keeps the disc cut by a halfspace off the cap's closed
form, so its 84 normal-cone certificates project their probe stacks by
the Dykstra stop (`boxed-polygon`).

numpy's warnings name the file and line that raised them, so stderr has
each tree's source directory replaced by `SRC`, and the line number of a
`SRC/catchup/<module>.py:<n>:` location by `N`, before it is compared; the
module, the warning and the source line it quotes are still compared.

Last, the line count of each module under `catchup/` in OLD_SRC and
NEW_SRC is printed, with the net change.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _pushed_out(b: list[float], C: dict, x0: list[float]) -> dict:
    """f(x) = b - x on C, whose equilibrium b lies outside C; |f(x)| <= |b| + |x|
    and <f(x), x> <= |b|^2 / 2 - |x|^2 / 2."""
    d = len(b)
    size = sum(v * v for v in b) ** 0.5
    return {"model": {"f": {"type": "affine", "A": [[-float(i == j) for j in range(d)]
                                                      for i in range(d)], "b": b},
                      "G": {"type": "zero", "dim": d}, "C": C,
                      "constants": {"a": size, "b": 1.0, "r_star": 1.0,
                                    "M": size * size / 2.0, "gamma": 0.5}},
            "x0": x0, "T": 2.0, "schedule": {"kind": "uniform", "mu0": 0.01}}


FRICTION_11 = {"model": "dry_friction",
               "K": [[1.0 if i == j else 0.05 for j in range(11)] for i in range(11)],
               "tau": [(-1.0) ** (i // 2) * 3.0 if i % 2 == 0 else 0.1 * i for i in range(11)],
               "weights": [0.2] * 11, "lower": [-1.0] * 11, "upper": [1.0] * 11}

# {x_1 <= 0} and {x_0 + x_1 <= 0}, two halfspaces meeting at 45 degrees,
# projected by one Dykstra sweep: not the metric projection
WEDGE = {"type": "intersection", "budget": 1, "members": [
    {"type": "halfspace", "normal": [0.0, 1.0], "offset": 0.0},
    {"type": "halfspace", "normal": [0.5 ** 0.5, 0.5 ** 0.5], "offset": 0.0}]}


def _wedge(drift: list[float]) -> dict:
    """Constant drift onto the wedge."""
    return {"model": {"f": {"type": "affine", "A": [[0.0, 0.0], [0.0, 0.0]], "b": drift},
                      "G": {"type": "zero", "dim": 2}, "C": WEDGE,
                      "constants": {"a": 5.0, "b": 0.0, "r_star": 0.5, "M": 10.0,
                                    "gamma": 1.0}},
            "x0": [0.0, 0.0], "T": 1.0, "schedule": {"kind": "uniform", "mu0": 0.25}}


# the unit disc cut by {x_0 <= -0.99}: a thin cap with sharp corners
THIN_CAP = {"type": "intersection", "members": [
    {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
    {"type": "halfspace", "normal": [1.0, 0.0], "offset": -0.99}]}


PINNED_CASES = {
    "onedim-readme": {"model": {"model": "onedim", "a": 1, "b": 2}, "x0": [0.0], "T": 10.0,
                      "schedule": {"kind": "uniform", "mu0": 0.01}},
    "onedim-sticking": {"model": {"model": "onedim", "a": 1, "b": -1}, "x0": [0.5], "T": 2.0,
                        "schedule": {"kind": "uniform", "mu0": 0.01}},
    "onedim-sticking-long": {"model": {"model": "onedim", "a": 1, "b": -1}, "x0": [0.5],
                             "T": 8.0, "schedule": {"kind": "uniform", "mu0": 0.01}},
    "onedim-randomized": {"model": {"model": "onedim", "a": 1, "b": 2}, "x0": [0.0], "T": 2.0,
                          "schedule": {"kind": "polynomial", "mu0": 0.05, "alpha": 0.5},
                          "errors": {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0},
                          "selection": {"kind": "randomized"},
                          "projection": {"kind": "perturbed"}},
    "onedim-explicit": {"model": {"model": "onedim", "a": 1, "b": 2}, "x0": [0.0], "T": 1.0,
                        "schedule": {"kind": "explicit",
                                     "values": [0.2, 0.2, 0.1, 0.1, 0.1] + [0.05] * 6},
                        "errors": {"kind": "explicit",
                                   "values": [0.004, 0.004] + [0.001] * 3 + [0.00025] * 6},
                        "projection": {"kind": "perturbed"}},
    "ball-outward": _pushed_out([3.0, 1.0], {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
                                [0.0, 0.0]),
    "halfspace-outward": _pushed_out([2.0, 0.5], {"type": "halfspace", "normal": [0.6, 0.8],
                                                  "offset": 0.5}, [0.0, 0.0]),
    "orthant-3": _pushed_out([-1.0, 2.0, -0.5], {"type": "nonneg_orthant", "dim": 3},
                             [1.0, 1.0, 1.0]),
    "friction-11": {"model": FRICTION_11, "x0": [0.0] * 11, "T": 2.0,
                    "schedule": {"kind": "uniform", "mu0": 0.01}},
    "friction-11-sign": {"model": FRICTION_11, "x0": [0.0] * 11, "T": 2.0,
                         "schedule": {"kind": "uniform", "mu0": 0.01},
                         "selection": {"kind": "sign", "sign": -1}},
    "friction-11-randomized": {"model": FRICTION_11, "x0": [0.0] * 11, "T": 2.0,
                               "schedule": {"kind": "uniform", "mu0": 0.01},
                               "errors": {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0},
                               "selection": {"kind": "randomized"},
                               "projection": {"kind": "perturbed"}},
    "wedge-normal-cone": _wedge([4.0, 2.0]),
    "wedge-contract": _wedge([4.0, 4.0]),
    "wedge-truncation": {**_pushed_out([3.0, 3.0], WEDGE, [0.0, 0.0]), "T": 0.5,
                         "schedule": {"kind": "uniform", "mu0": 0.1},
                         "projection": {"kind": "iterative"},
                         "errors": {"kind": "power_of_step", "eps0": 100.0, "beta": 1.0}},
    "halfspace-near-unit": {**_pushed_out([1e4, 0.0], {"type": "halfspace",
                                                      "normal": [0.9999999995, 0.0],
                                                      "offset": 0.0}, [0.0, 0.0]),
                            "T": 1.0, "schedule": {"kind": "uniform", "mu0": 0.1}},
    "box-half-infinite": {**_pushed_out([3.0, -3.0, -2.0],
                                        {"type": "box", "lower": [-1.0, -float("inf"), 0.0],
                                         "upper": [1.0, 2.0, float("inf")]}, [0.0, 0.0, 0.0]),
                          "T": 1.0, "schedule": {"kind": "uniform", "mu0": 0.05}},
    "thin-cap-start": _pushed_out([3.0, 1.0], THIN_CAP, [5.0, 3.0]),
    "thin-cap-corner": _pushed_out([3.0, 1.0], THIN_CAP, [-0.995, 0.0]),
    "unknown-fields": {"model": {"f": {"type": "affine", "A": [[-1.0]], "b": [2.0]},
                                 "G": {"type": "linear", "matrix": [[1.0]], "extra": 1},
                                 "C": {"type": "halfline", "dim": 3},
                                 "constants": {"a": 2.0, "b": 2.0, "r_star": 1.0, "M": 1.0,
                                               "gamma": 1.0, "elll": -2.0}},
                       "x0": [0.5], "T": 2.0,
                       "schedule": {"kind": "uniform", "mu0": 0.01, "mu": 7},
                       "selection": {"kind": "minimal_norm", "sign": 7},
                       "projection": {"kind": "perturbed", "slack_fraction": 5}},
    "eps-overflow": {"model": {"model": "onedim", "a": 1, "b": 2}, "x0": [0.0], "T": 4.0,
                     "schedule": {"kind": "uniform", "mu0": 2.0},
                     "errors": {"kind": "power_of_step", "eps0": 1e308, "beta": 1.0}},
    "record-kinds": {"model": {"f": {"type": "affine", "A": [[-1.0]], "b": [-1.0]},
                               "G": {"type": "linear", "matrix": [[1.0]]},
                               "C": {"type": "halfline"},
                               "constants": {"a": 1.0, "b": 2.0, "r_star": 1.0, "M": 1.0,
                                             "gamma": 1.0, "ell": -2.0}},
                     "x0": [0.5], "T": 1.0, "schedule": {"kind": "uniform", "mu0": 0.05}},
    "int-literals": {"model": {"f": {"type": "affine", "A": [[-1, 0], [0, -1]], "b": [3, 1]},
                               "G": {"type": "l1", "weights": [1, 0]},
                               "C": {"type": "intersection", "members": [
                                   {"type": "ball", "center": [0, 0], "radius": 2},
                                   {"type": "box", "lower": [-1, -1], "upper": [1, 1]},
                                   {"type": "halfspace", "normal": [0, 1], "offset": 1}]},
                               "constants": {"a": 5, "b": 1, "r_star": 1, "M": 5, "gamma": 1,
                                             "ell": -1}},
                     "x0": [0, 0], "T": 1, "schedule": {"kind": "uniform", "mu0": 0.05}},
}
# f(x) = (3, 1) - x less an l1 part with a zero weight, out of the unit
# disc cut by {0.6 x_0 + 0.8 x_1 <= 0.5} and the box [-0.8, 0.8]^2, from a
# start with a zero coordinate: the first step takes G(x)'s interval, the
# others its singleton, and the Iterative policy sweeps over three members
PINNED_CASES["l1-zero-weight-iterative"] = {
    **_pushed_out([3.0, 1.0], {"type": "intersection", "members": [
        {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
        {"type": "halfspace", "normal": [0.6, 0.8], "offset": 0.5},
        {"type": "box", "lower": [-0.8, -0.8], "upper": [0.8, 0.8]}]}, [0.0, 0.3]),
    "projection": {"kind": "iterative"},
    "errors": {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0}}
PINNED_CASES["l1-zero-weight-iterative"]["model"]["G"] = {"type": "l1", "weights": [0.0, 0.5]}
PINNED_CASES["l1-zero-weight-iterative"]["model"]["constants"].update(a=3.7, M=7.0)
# the thin-cap-corner run under the Iterative policy: every step sweeps
# Dykstra on the thin cap, and step 15 exhausts the budget of 200 sweeps
PINNED_CASES["thin-cap-corner-iterative"] = {
    **PINNED_CASES["thin-cap-corner"], "projection": {"kind": "iterative"},
    "errors": {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0}}
PINNED_CASES["wedge-study"] = {**PINNED_CASES["wedge-truncation"],
                               "study": {"levels": [0.1, 0.05, 0.025]}}
PINNED_CASES["top-level-typo"] = {**PINNED_CASES["onedim-readme"], "diagnostic": "all"}
PINNED_CASES["study-typo"] = {**PINNED_CASES["onedim-readme"], "T": 2.0,
                              "study": {"levels": [0.04, 0.02, 0.01], "referenc_refine": 2}}
PINNED_CASES["wedge-stability"] = {**_wedge([4.0, 4.0]), "x0": [[0.0, 0.0], [-1.0, 0.0]]}
PINNED_CASES["wedge-stability"]["model"]["constants"]["ell"] = 0.0
# a study that starts at the equilibrium x = 1 of the README model, so every
# level's sup_error is 0 and the empirical order is null
PINNED_CASES["rest-study"] = {**PINNED_CASES["study-typo"], "x0": [1.0],
                              "study": {"levels": [0.04, 0.02, 0.01]}}
# a declared growth constant a = 1e308 makes the selection bound M_T = a + b R_T
# about 1e308, so M_T^2 leaves float range in the energy certificate.  Not
# onedim with a = 1e308: its steps overflow too, so it fails at step 0
PINNED_CASES["bound-overflow"] = {**PINNED_CASES["record-kinds"], "T": 0.1,
                                  "schedule": {"kind": "uniform", "mu0": 0.02}}
PINNED_CASES["bound-overflow"]["model"] = {**PINNED_CASES["record-kinds"]["model"],
                                           "constants": {"a": 1e308, "b": 2.0, "r_star": 1.0,
                                                         "M": 1.0, "gamma": 1.0}}
# one-dimensional runs through every branch of a step in Python floats: a
# zero G pushed onto the upper end of [-1, 2]; f(x) = 0.3 - x less the l1
# part |x| on [0, 2], which sticks at the exact 0 of the lower end under
# minimal norm, leaves it under the lower end of G(0) = [-1, 1] and presses
# on it under the upper end and the midpoint; and a linear G on a box whose
# lower end is -inf
L1_STICKING = {**_pushed_out([0.3], {"type": "box", "lower": [0.0], "upper": [2.0]}, [0.5]),
               "T": 1.0, "schedule": {"kind": "uniform", "mu0": 0.05}}
L1_STICKING["model"]["G"] = {"type": "l1", "weights": [1.0]}
PINNED_CASES.update({
    "interval-zero-G": _pushed_out([3.0], {"type": "box", "lower": [-1.0], "upper": [2.0]},
                                   [0.0]),
    "l1-sticking": L1_STICKING,
    **{f"l1-sticking-{end}": {**L1_STICKING, "selection": {"kind": "sign", "sign": sign}}
       for end, sign in (("lower", -1), ("midpoint", 0), ("upper", 1))},
    "box-lower-infinite": _pushed_out([3.0], {"type": "box", "lower": [-float("inf")],
                                              "upper": [1.0]}, [-1.0]),
})
PINNED_CASES["box-lower-infinite"]["model"]["G"] = {"type": "linear", "matrix": [[0.5]]}
# Lambda_T is about 78, so exp(Lambda_T T) leaves float range at T = 20
PINNED_CASES["envelope-vacuous"] = {
    "model": {"model": "dry_friction", "K": [[3.0]], "tau": [0.0], "weights": [1.0],
              "lower": [-1.0], "upper": [1.0]},
    "x0": [0.5], "T": 20.0, "schedule": {"kind": "uniform", "mu0": 0.1}}
# f(x) = 3 - x less the l1 part 0.2 |x| on [-1, 0.5], the unit ball of R^1 cut
# by {x <= 0.5}: a one-dimensional set of no float form, whose float states
# step as vectors, by the cap's closed form and under the Iterative policy
INTERVAL_CAP = {**_pushed_out([3.0], {"type": "intersection", "members": [
    {"type": "ball", "center": [0.0], "radius": 1.0},
    {"type": "halfspace", "normal": [1.0], "offset": 0.5}]}, [-0.5]),
    "schedule": {"kind": "uniform", "mu0": 0.02}}
INTERVAL_CAP["model"]["G"] = {"type": "l1", "weights": [0.2]}
INTERVAL_CAP["model"]["constants"]["a"] = 3.2
PINNED_CASES.update({
    "interval-cap": INTERVAL_CAP,
    "interval-cap-iterative": {**INTERVAL_CAP, "projection": {"kind": "iterative"},
                               "errors": {"kind": "power_of_step", "eps0": 0.1, "beta": 1.0}},
})
PINNED_CASES.update({
    "randomized-overflow": {
        "model": {"f": {"type": "affine", "A": [[-1.0]], "b": [1.0]},
                  "G": {"type": "l1", "weights": [1e308]}, "C": {"type": "halfline"},
                  "constants": {"a": 1.0, "b": 1.0, "r_star": 1.0, "M": 1.0, "gamma": 1.0}},
        "x0": [0.0], "T": 0.1, "schedule": {"kind": "uniform", "mu0": 0.02},
        "selection": {"kind": "randomized"}},
    "onedim-far": {**PINNED_CASES["onedim-readme"], "x0": [1e160], "T": 1.0},
})
# the polygon workload's run config for seed 4301, as tests/test_geometry.py
# pins it: its redundant box keeps the cap off the closed form, so every
# certificate projects a stack of probe points by Dykstra
PINNED_CASES["boxed-polygon"] = {
    "T": 2.0,
    "errors": {"beta": 1.0, "eps0": 0.1, "kind": "power_of_step"},
    "model": {
        "C": {"type": "intersection", "members": [
            {"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
            {"type": "halfspace", "normal": [0.920378684104825, 0.3910282315197595],
             "offset": 0.5},
            {"type": "box", "lower": [-2.0, -2.0], "upper": [2.0, 2.0]}]},
        "G": {"type": "l1", "weights": [0.2, 0.2]},
        "constants": {"M": 4.560752510029523, "a": 2.442718521279629,
                      "b": 1.118033988749895, "ell": -1.0, "gamma": 1.0, "r_star": 1.0},
        "f": {"type": "affine", "A": [[-1.0, -0.5], [0.5, -1.0]],
              "b": [1.6188137464568788, 1.4298620785737837]},
    },
    "projection": {"kind": "iterative"},
    "schedule": {"kind": "uniform", "mu0": 0.02},
    "x0": [0.0, 0.0],
}
# the pinned cases run as `run --diagnostics all`, except these
PINNED_ARGV = {"wedge-truncation": ["run", "--diagnostics", "truncation"],
               "wedge-study": ["study"], "top-level-typo": ["run"], "study-typo": ["study"],
               "wedge-stability": ["stability"], "rest-study": ["study"],
               "bound-overflow": ["run"]}


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
    polygon = json.loads(generate("polygon_session", 1)["run.json"])
    exact = {key: value for key, value in polygon.items() if key != "errors"}
    pinned = {**PINNED_CASES, "polygon-exact": {**exact, "projection": {"kind": "exact"}},
              "polygon-perturbed": {**polygon, "projection": {"kind": "perturbed"}}}
    for name, cfg in pinned.items():
        command, *flags = PINNED_ARGV.get(name, ["run", "--diagnostics", "all"])
        files = {f"{command}.json": (json.dumps(cfg) + "\n").encode()}
        matrix.append((name, files, [command, f"{command}.json", "--seed", "1", *flags]))
    return matrix


def line_counts(src: Path) -> dict[str, int]:
    """Lines of each module of the package under `src`."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted((src / "catchup").glob("*.py"))}


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
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": re.sub(rb"(SRC/catchup/\w+\.py):\d+:", rb"\1:N:",
                             proc.stderr.replace(str(src).encode(), b"SRC")),
            **{f"file {k}": v for k, v in written.items()}}


def differences(old: dict, new: dict) -> list[str]:
    """One line per differing item, then the changed lines of text files."""
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        lines.append(f"    {key}: " + ("added" if a is None else "missing" if b is None
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
    old_src, new_src = args.old_src.resolve(), args.new_src.resolve()

    def compare(case):
        label, files, cmd = case
        old = run_case(old_src, work / "old" / label, files, cmd)
        new = run_case(new_src, work / "new" / label, files, cmd)
        lines = differences(old, new)
        return [f"{'DIFF' if lines else 'same'}  exit {old['exit code']}/{new['exit code']}"
                f"  {label}: catchup {' '.join(cmd)}", *lines]

    differing = 0
    workers = len(os.sched_getaffinity(0))
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            for lines in pool.map(compare, cases(new_src)):
                differing += len(lines) > 1
                print("\n".join(lines), flush=True)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{differing} case(s) differ")
    old_lines, new_lines = line_counts(old_src), line_counts(new_src)
    print("catchup/ lines, OLD -> NEW:")
    for name in sorted(set(old_lines) | set(new_lines)):
        a, b = old_lines.get(name, 0), new_lines.get(name, 0)
        print(f"  {name:<16} {a:>5} -> {b:>5}  {b - a:+d}")
    a, b = sum(old_lines.values()), sum(new_lines.values())
    print(f"  {'total':<16} {a:>5} -> {b:>5}  {b - a:+d}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
