"""Spans around catchup's public functions, recorded from outside the package.

`Tracer.install(session)` replaces each traced function at the name its caller
looks it up under (`catchup.scheme.select_F`, `catchup.cli.run_scheme`,
methods on the set classes, ...) with a wrapper that records one span per
call: span index, name, start and end in ns, parent span and session id,
plus one integer of context (`aux`: the member count of an intersection
projection, 1 for a run with normal-cone certificates).  `uninstall()` puts
the originals back and files the session's spans as an int64 array.  Spans
stay in memory and are written out once, by `save`, when the run ends.

A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import itertools
import os
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import catchup.cli as cli
import catchup.diagnostics as diagnostics
import catchup.models as models
import catchup.operators as operators
import catchup.scheme as scheme
from catchup.geometry import Ball, Box, ConvexSet, Halfspace, Intersection

FIELDS = ("index", "name", "start_ns", "end_ns", "parent", "session", "aux")

# (namespace, attribute, span name): module-level functions, wrapped where
# their callers look them up
FUNCTIONS = [
    (scheme, "select_F", "operators.select_F"),
    (diagnostics, "select_F", "operators.select_F"),
    (scheme, "step", "scheme.step"),
    (diagnostics, "scheme_step", "scheme.step"),
    (cli, "run_scheme", "scheme.run"),
    (diagnostics, "run_scheme", "scheme.run"),
    (models, "run", "scheme.run"),
    (cli, "make_schedule", "scheme.make_schedule"),
    (models, "make_schedule", "scheme.make_schedule"),
    (scheme, "read_run_csv", "scheme.read_run_csv"),
    (scheme, "verify_run_invariants", "scheme.verify_run_invariants"),
    (cli, "check_discrete_energy", "diagnostics.check_discrete_energy"),
    (cli, "defect_summability", "diagnostics.defect_summability"),
    (cli, "predictor_feasibility", "diagnostics.predictor_feasibility"),
    (cli, "stability_experiment", "diagnostics.stability_experiment"),
    (cli, "named_model_from_config", "models.build"),
    (cli, "model_from_config", "models.build"),
    (models, "named_model_from_config", "models.build"),
    (cli, "main", "cli.main"),
    (scheme, "approx_project", "geometry.approx_project"),
    (diagnostics, "approx_project", "geometry.approx_project"),
    (scheme, "in_approx_normal_cone", "geometry.in_approx_normal_cone"),
]

# methods, wrapped on the class that defines them
METHODS = [
    (ConvexSet, "contains", "geometry.contains"),
    (Intersection, "contains", "geometry.contains"),
    (ConvexSet, "distance", "geometry.distance"),
    (Ball, "distance", "geometry.distance"),
    (Halfspace, "distance", "geometry.distance"),
    (operators.ZeroPart, "value", "operators.regular_part.value"),
    (operators.LinearPart, "value", "operators.regular_part.value"),
    (operators.SeparableL1, "value", "operators.regular_part.value"),
    (operators.CustomPart, "value", "operators.regular_part.value"),
    (operators.AffineField, "__call__", "operators.field"),
    (scheme.DiscreteRun, "to_csv", "scheme.to_csv"),
    (scheme.DiscreteRun, "interpolate_state", "scheme.interpolate_state"),
]

# projections, named after the set's variant (Box.project also serves the
# orthant and the halfline)
PROJECTIONS = [Box, Ball, Halfspace, Intersection]
PROJECT_PREFIX = "geometry.project."


class Tracer:
    """Spans of traced sessions: one `install(session)` ... `uninstall()`
    pair per session."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("q")
        self.sessions: dict[int, np.ndarray] = {}
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.session = -1
        self._next = itertools.count()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # --- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, name, aux=None, after=None):
        """A span around fn.  `name` is a str or a function of the first
        argument; `aux(args, kwargs)` gives the span's context integer and
        `after(result, args, kwargs)` feeds the counters."""
        records, stack, counter = self.records, self._stack, self._next
        session = self.session
        fixed = self.name_id(name) if isinstance(name, str) else None
        by_type = {}  # a variant name is fixed per class

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = next(counter)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                nid = fixed
                if nid is None:
                    nid = by_type.get(type(args[0]))
                    if nid is None:
                        nid = by_type[type(args[0])] = self.name_id(name(args[0]))
                records.extend((idx, nid, t0, t1, stack[-1], session,
                                aux(args, kwargs) if aux else 0))
            if after:
                after(result, args, kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, session: int):
        """Start recording the spans of `session`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        if session in self.sessions:
            raise ValueError(f"session {session} was traced already")
        self.session = session

        def add(key, value):
            self.counters[(session, key)] += value

        def set_members(args, kwargs):
            C = args[0]
            return len(C.members) if isinstance(C, Intersection) else 0

        special = {
            "geometry.approx_project": dict(aux=set_members),
            "geometry.in_approx_normal_cone": dict(
                after=lambda cert, a, k: add("geometry.in_approx_normal_cone.probes", cert.n_probes)),
            "scheme.run": dict(aux=lambda a, k: int(k.get("certify_normals", True))),
            "scheme.to_csv": dict(after=lambda text, a, k: add(
                "scheme.to_csv.bytes",
                os.path.getsize(k.get("path", a[1] if len(a) > 1 else None))
                if text is None else len(text.encode()))),
        }
        for module, attr, name in FUNCTIONS:
            self._patch(module, attr, self._wrap(getattr(module, attr), name,
                                                 **special.get(name, {})))
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, **special.get(name, {})))
        for cls in PROJECTIONS:
            aux = set_members if cls is Intersection else None
            self._patch(cls, "project", self._wrap(
                cls.__dict__["project"], lambda s: PROJECT_PREFIX + s.variant, aux=aux))

    def uninstall(self):
        """Put the originals back and file the session's spans, ordered by
        span index, under its id."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        flat = np.frombuffer(self.records, dtype=np.int64).reshape(-1, len(FIELDS))
        rows = np.empty_like(flat)
        if len(flat):
            rows[flat[:, 0] - flat[:, 0].min()] = flat
        del flat
        self.records = array("q")
        self.sessions[self.session] = rows

    # --- analysis ---------------------------------------------------------------

    def session_tables(self) -> dict[int, dict[str, float]]:
        """Per traced session: `<name>.calls`, `<name>.self_s`, derived
        counts (Dykstra sweeps, certified-step ratio) and the counters."""
        names = np.array(self.names)
        is_project = np.char.startswith(names, PROJECT_PREFIX)
        is_member_name = is_project & (names != "geometry.project.intersection")
        intersection_like = np.isin(names, ["geometry.project.intersection", "geometry.approx_project"])
        ids = [self._ids.get(n, -1) for n in ("scheme.run", "scheme.step",
                                                "geometry.in_approx_normal_cone")]
        run_id, step_id, cone_id = ids
        return {s: self._table(rows, names, is_member_name, intersection_like,
                               run_id, step_id, cone_id, s)
                for s, rows in self.sessions.items()}

    def _table(self, rows, names, is_member_name, intersection_like,
               run_id, step_id, cone_id, session) -> dict[str, float]:
        table = {}
        n_names = len(names)
        if len(rows):
            # every call records exactly one span, so the row of span i is i - first
            first = rows[0, 0]
            if not np.array_equal(rows[:, 0], np.arange(first, first + len(rows))):
                raise RuntimeError("span indices are not contiguous")
            name, parent, aux = rows[:, 1], rows[:, 4], rows[:, 6]
            dur = (rows[:, 3] - rows[:, 2]).astype(float)
            has_parent = parent >= 0
            prow = np.where(has_parent, parent - first, 0)
            child = np.bincount(prow[has_parent], weights=dur[has_parent], minlength=len(rows))
            calls = np.bincount(name, minlength=n_names)
            self_s = np.bincount(name, weights=dur - child, minlength=n_names) / 1e9
            # a Dykstra sweep projects once onto every member of the intersection
            member = is_member_name[name] & has_parent & intersection_like[name[prow]] & (aux[prow] > 0)
            sweeps = float(np.sum(1.0 / aux[prow[member]]))
            projections = len(np.unique(prow[member]))
            certified = has_parent & (name[prow] == run_id) & (aux[prow] == 1)
            steps = int(np.sum(certified & (name == step_id)))
            cones = int(np.sum(certified & (name == cone_id)))
        else:
            calls, self_s = np.zeros(n_names, int), np.zeros(n_names)
            sweeps, projections, steps, cones = 0.0, 0, 0, 0
        for i, n in enumerate(names):
            table[f"{n}.calls"] = int(calls[i])
            table[f"{n}.self_s"] = float(self_s[i])
        table["geometry.dykstra.sweeps"] = sweeps
        table["geometry.dykstra.sweeps_per_projection"] = sweeps / projections if projections else 0.0
        table["scheme.certified_step_ratio"] = cones / steps if steps else 0.0
        table["trace.spans"] = len(rows)
        for (cs, key), value in self.counters.items():
            if cs == session:
                table[key] = value
        return table

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), fields=np.array(FIELDS),
                 **{f"session_{s}": rows for s, rows in self.sessions.items()})
