"""Span tracer for the traced run, and the per-layer metrics drawn from it.

The tracer replaces, from outside the package, the module attributes through
which one layer calls another (``perron._lift_inplace``,
``msolve._newton_core``, ``face_gradients_2d`` as bound in ``mco`` and in
``msolve``, ...).  Every call through a wrapped attribute records a span
(name, start, end, parent id) in memory; ``install`` returns the tracer,
``uninstall`` puts the original attributes back, and ``write`` dumps the
spans as JSON lines when the run ends.  A layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict

from meancurv import cli, dirichlet, field, levelset, mco, measure, msolve, perron

# Newton systems are bucketed by unknown count m, not by the solver chosen, so
# a change to the dense/sparse cut-off still compares like with like.
FACTOR_BUCKETS = (("le512", 512), ("le2k", 2048), ("le8k", 8192), ("gt8k", math.inf))
# factor_kind codes: the mean over a bucket's factorizations; -1 if it has none.
KIND_CODES = {"dense": 0, "splu": 1, "krylov": 2}
# The (module, attribute) pairs whose calls cross a layer boundary, by span name.
WRAPPED = (
    ("perron.lift", perron, "_lift_inplace"),
    ("perron.cover", perron, "build_ball_cover"),
    ("msolve.newton", msolve, "_newton_core"),
    ("msolve.residual", msolve, "_residual"),
    ("msolve.jac_fill", msolve, "_jac_values_2d"),
    ("msolve.penalty_jac", msolve, "_penalty_triplets"),
    ("msolve.harmonic", msolve, "_harmonic_extension"),
    ("msolve.factor", msolve, "_factorize"),
    ("mco.face_grad", mco, "face_gradients_2d"),
    ("mco.boundary_flux", mco, "boundary_flux"),
    ("mco.h1_density", mco, "h1_density"),
    ("field.mollify", field, "mollify_field"),
    ("field.geometry", field, "_reconstruct_geometry"),
    ("field.segments", field, "interface_segments"),
    ("measure.ball_flux", measure, "ball_flux"),
    ("measure.table", measure, "ball_measure_table"),
    ("measure.sandwich", measure, "weak_convergence_check"),
    ("levelset.coarea", levelset, "coarea_profile"),
    ("levelset.level_report", levelset, "level_set_report"),
    ("levelset.eta_margin", levelset, "eta_margin"),
    ("dirichlet.mollify_measure", dirichlet, "mollify_measure"),
    ("dirichlet.pipeline", dirichlet, "solve_measure_dirichlet"),
    ("cli.run_experiment", cli, "run_experiment"),
)


def _bucket(m: int) -> str:
    return next(name for name, top in FACTOR_BUCKETS if m <= top)


def _solver_kind(solve) -> str:
    """Which linear solver a closure returned by ``_factorize`` wraps."""
    cells = [c.cell_contents for c in (solve.__closure__ or ())]
    if any(type(c).__name__ == "SuperLU" for c in cells):
        return "splu"
    if any(isinstance(c, tuple) for c in cells):     # (lu, piv) of lu_factor
        return "dense"
    return "krylov"


class Tracer:
    def __init__(self):
        self.spans = []        # (id, parent, name, start, end, error), in closing order
        self._stack = []       # open spans: (id, parent, name, start)
        self._next_id = 0
        self._undo = []
        self.extra = defaultdict(float)   # counts measured at span boundaries
        self.factors = []                 # (bucket, kind, seconds)
        self._trials = None               # line-search trials since the last back-solve
        self._max_trials = 0

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        span = (self._next_id, self._stack[-1][0] if self._stack else -1, name,
                time.perf_counter())
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span, error=None):
        # closed spans are tuples of plain values, which the garbage collector
        # stops tracking; a list per span made every collection slower
        self.spans.append((*span, time.perf_counter(), error))
        self._stack.pop()

    def _traced(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, type(exc).__name__)
                raise
            self._close(span)
            if after is not None:
                out = after(args, kwargs, out, self.spans[-1])
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    # -- per-span hooks ------------------------------------------------------

    def _newton_before(self, args, kwargs):
        opts = args[6] if len(args) > 6 else kwargs["opts"]
        # alpha = 1, 1/2, ... down to alpha_min
        self._max_trials = int(math.floor(-math.log2(opts.alpha_min))) + 1
        self._trials = None

    def _close_line_search(self):
        # A line search accepts on a trial before the last, or the step is
        # rejected; one accepted on exactly the last trial counts as rejected.
        if self._trials is not None and 0 < self._trials < self._max_trials:
            self.extra["accepted"] += 1
        self._trials = None

    def _newton_after(self, args, kwargs, out, span):
        self._close_line_search()
        self.extra["newton_iters"] += out[1]["iterations"]
        return out

    def _residual_before(self, args, kwargs):
        if self._trials is not None:
            self._trials += 1

    def _face_grad_before(self, args, kwargs):
        values = args[0]
        self.extra["face_grad_cells"] += values.size
        # computed, not measured: the values read plus the eight face arrays
        # (gradient, transverse gradient, weight, flux per axis) written
        nx, ny = values.shape
        faces = (nx - 1) * ny + nx * (ny - 1)
        self.extra["face_grad_bytes"] += values.itemsize * (values.size + 4 * faces)

    def _factor_after(self, args, kwargs, solve, span):
        m = args[3] if len(args) > 3 else kwargs["m"]
        self.factors.append((_bucket(m), _solver_kind(solve), span[4] - span[3]))
        traced_solve = self._traced("msolve.backsolve", solve)

        def backsolve(b):
            self._close_line_search()
            self._trials = 0
            return traced_solve(b)
        return backsolve

    def _count_result(self, key, measure_fn):
        def after(args, kwargs, out, span):
            self.extra[key] += measure_fn(args, kwargs, out)
            return out
        return after

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        hooks = {
            "msolve.newton": (self._newton_before, self._newton_after),
            "msolve.residual": (self._residual_before, None),
            "msolve.factor": (None, self._factor_after),
            "mco.face_grad": (self._face_grad_before, None),
            "field.segments": (None, self._count_result(
                "segments", lambda a, k, out: len(out))),
            "levelset.eta_margin": (None, self._count_result(
                "eta_members", lambda a, k, out: out.family_size)),
            "dirichlet.pipeline": (None, self._count_result(
                "stages", lambda a, k, out: len(out.stages))),
            "cli.run_experiment": (None, self._count_result(
                "cli_bytes", lambda a, k, out: _tree_bytes(a[1] if len(a) > 1
                                                           else k["out_dir"]))),
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "meancurv" or name.startswith("meancurv.")]
        for name, home, attr in WRAPPED:
            original = getattr(home, attr)
            before, after = hooks.get(name, (None, None))
            wrapper = self._traced(name, original, before, after)
            # every module that bound the function under the same name
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapper)

        save = field.ScalarField.save
        traced_save = self._traced("field.save", save, after=self._count_result(
            "save_bytes", lambda a, k, out: os.path.getsize(a[1] if len(a) > 1
                                                            else k["path"])))
        self._replace(field.ScalarField, "save", traced_save)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, error in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "error": error}) + "\n")

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_time = defaultdict(float)
        errors = defaultdict(int)
        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)
        newton_in_lift = []
        for sid, parent, name, start, end, error in self.spans:
            dur = end - start
            calls[name] += 1
            busy[name] += dur
            self_time[name] += dur - sum(c[4] - c[3] for c in children[sid])
            errors[name] += error is not None
            if name == "perron.lift":
                newton_in_lift.append(sum(c[2] == "msolve.newton" for c in children[sid]))

        x = self.extra
        out = {
            "perron.lifts": (calls["perron.lift"], "count"),
            "perron.lift_s": (busy["perron.lift"], "s"),
            "perron.lift_self_s": (self_time["perron.lift"], "s"),
            "perron.cover_s": (busy["perron.cover"], "s"),
            "perron.restarts": (sum(max(0, k - 1) for k in newton_in_lift), "count"),
            "perron.refused": (errors["perron.lift"], "count"),
            "msolve.newton_calls": (calls["msolve.newton"], "count"),
            "msolve.newton_iters": (int(x["newton_iters"]), "count"),
            "msolve.newton_self_s": (self_time["msolve.newton"], "s"),
            "msolve.residual_calls": (calls["msolve.residual"], "count"),
            "msolve.residual_s": (busy["msolve.residual"], "s"),
            "msolve.accept_ratio": (x["accepted"] / max(calls["msolve.residual"], 1),
                                    "ratio"),
            "msolve.jac_fill_s": (busy["msolve.jac_fill"], "s"),
            "msolve.penalty_jac_s": (busy["msolve.penalty_jac"], "s"),
            "msolve.harmonic_s": (busy["msolve.harmonic"], "s"),
        }
        for bucket, _ in FACTOR_BUCKETS:
            mine = [(kind, sec) for b, kind, sec in self.factors if b == bucket]
            out[f"msolve.factor_calls.{bucket}"] = (len(mine), "count")
            out[f"msolve.factor_s.{bucket}"] = (sum(sec for _, sec in mine), "s")
            out[f"msolve.factor_kind.{bucket}"] = (
                sum(KIND_CODES[k] for k, _ in mine) / len(mine) if mine else -1, "code")
        out.update({
            "msolve.backsolve_calls": (calls["msolve.backsolve"], "count"),
            "msolve.backsolve_s": (busy["msolve.backsolve"], "s"),
            "msolve.factor_reuse": (calls["msolve.backsolve"] / max(len(self.factors), 1),
                                    "ratio"),
            "mco.face_grad_calls": (calls["mco.face_grad"], "count"),
            "mco.face_grad_s": (busy["mco.face_grad"], "s"),
            "mco.face_grad_cells": (int(x["face_grad_cells"]), "count"),
            "mco.face_grad_bytes_computed": (int(x["face_grad_bytes"]), "bytes"),
            "mco.boundary_flux_calls": (calls["mco.boundary_flux"], "count"),
            "mco.boundary_flux_s": (busy["mco.boundary_flux"], "s"),
            "mco.h1_density_s": (busy["mco.h1_density"], "s"),
            "field.mollify_s": (busy["field.mollify"], "s"),
            "field.geometry_calls": (calls["field.geometry"], "count"),
            "field.geometry_s": (busy["field.geometry"], "s"),
            "field.segments_calls": (calls["field.segments"], "count"),
            "field.segments_s": (busy["field.segments"], "s"),
            "field.segments": (int(x["segments"]), "count"),
            "field.save_s": (busy["field.save"], "s"),
            "field.save_bytes": (int(x["save_bytes"]), "bytes"),
            "measure.ball_flux_calls": (calls["measure.ball_flux"], "count"),
            "measure.ball_flux_s": (busy["measure.ball_flux"], "s"),
            "measure.table_s": (busy["measure.table"], "s"),
            "measure.sandwich_s": (busy["measure.sandwich"], "s"),
            "levelset.coarea_s": (busy["levelset.coarea"], "s"),
            "levelset.level_report_s": (busy["levelset.level_report"], "s"),
            "levelset.eta_margin_s": (busy["levelset.eta_margin"], "s"),
            "levelset.eta_members": (int(x["eta_members"]), "count"),
            "dirichlet.mollify_measure_s": (busy["dirichlet.mollify_measure"], "s"),
            "dirichlet.stages": (int(x["stages"]), "count"),
            "dirichlet.pipeline_s": (busy["dirichlet.pipeline"], "s"),
            "cli.run_experiment_s": (busy["cli.run_experiment"], "s"),
            "cli.self_s": (self_time["cli.run_experiment"], "s"),
            "cli.bytes_written": (int(x["cli_bytes"]), "bytes"),
            "trace.spans": (len(self.spans), "count"),
        })
        return out


def _tree_bytes(root) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)
