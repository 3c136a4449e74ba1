"""Experiment runner: declarative JSON configs to tables and field dumps.

Each run writes its outputs plus a manifest recording the config hash, the
produced files and every assertion's verdict; the exit status mirrors the
assertions so runs can gate scripts.  Identical config and seed give byte
identical CSVs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .field import (
    ScalarField,
    ShapeSpec,
    make_grid,
    mollify_field,
    sample_function,
    superlevel_set,
)
from .mco import boundary_flux, CircleInterface, h1_density, enclosed_density_sum
from .msolve import SolveOptions, minimize_prescribed_mc, solve_dirichlet
from .perron import approximation_sweep, direct_mollified_sequence, smooth_subharmonic_sequence
from .measure import BallFamily, ball_measure_table, generate_ball_family
from .levelset import decay_threshold, harnack_report
from .dirichlet import (
    ContinuationSchedule,
    CurveSpec,
    MeasureSpec,
    boundary_admissibility,
    solve_measure_dirichlet,
)
from .tables import write_ball_measure_table, write_csv


class ConfigError(ValueError):
    """The experiment configuration does not validate; nothing was run."""


# ---------------------------------------------------------------------------
# formula registry (closed-form fields referable from configs)


def _uc_factory(a, b, delta, sigma, c):
    def uc(p):
        r = np.hypot(p[:, 0], p[:, 1]) if p.shape[1] == 2 else np.abs(p[:, 0])
        out = np.empty(len(p))
        outer = r >= 1.0
        out[outer] = a * np.maximum(r[outer] - 1.0, 0.0) ** delta
        out[~outer] = -b * (1.0 - r[~outer]) ** sigma - c
        return out
    return uc


def formula(spec):
    """Resolve a formula descriptor {'name': ..., params...} to a callable; any
    other spec, such as a number or a callable, is returned as it is (every
    consumer takes it through ``field.cell_values``)."""
    if not isinstance(spec, dict):
        return spec
    if "name" not in spec:
        raise ConfigError(f"formula descriptor must have a name, got {spec!r}")
    name = spec["name"]
    if name == "zero":
        return lambda p: np.zeros(len(p))
    if name == "cone":
        cx = spec.get("center", None)
        def cone(p):
            c = cx or [0.0] * p.shape[1]
            if p.shape[1] == 1:
                return np.abs(p[:, 0] - c[0])
            return np.hypot(p[:, 0] - c[0], p[:, 1] - c[1])
        return cone
    if name == "hemisphere":
        R = float(spec.get("R", 4.0))
        def hemi(p):
            r2 = (p ** 2).sum(axis=1)
            return -np.sqrt(R * R - r2)
        return hemi
    if name == "hemisphere_density":
        R = float(spec.get("R", 4.0))
        def dens(p):
            return np.full(len(p), p.shape[1] / R)
        return dens
    if name == "scherk":
        return lambda p: np.log(np.cos(p[:, 0]) / np.cos(p[:, 1]))
    if name == "uc":
        return _uc_factory(float(spec.get("a", 2.0)), float(spec.get("b", 2.0)),
                           float(spec.get("delta", 0.25)), float(spec.get("sigma", 0.25)),
                           float(spec.get("c", 0.5)))
    if name == "boundary_peak":
        # positive convex profile blowing up toward x1 = 1, peak height M
        M = float(spec.get("M", 2.0))
        base = float(spec.get("base", 0.05))
        x0 = float(spec.get("onset", 0.5))
        pw = float(spec.get("power", 4.0))
        return lambda p: base + M * np.maximum((p[:, 0] - x0) / (1.0 - x0), 0.0) ** pw
    raise ConfigError(f"unknown formula {name!r}")


def _numbers(xs, size=None) -> bool:
    """Whether ``xs`` is a list of JSON numbers (bools are not), of ``size``
    entries when given."""
    return (isinstance(xs, list) and size in (None, len(xs))
            and all(type(x) in (int, float) for x in xs))


def _ball_family(balls, seed: int) -> BallFamily:
    """The family of a config's ball list, a nonempty list of [center, r]
    pairs of numbers; ConfigError for anything else."""
    def pair(b):
        return (isinstance(b, list) and len(b) == 2 and _numbers(b[0]) and b[0]
                and _numbers(b[1:]))
    if not (isinstance(balls, list) and balls and all(map(pair, balls))):
        raise ConfigError(f"a ball list must be a nonempty list of [center, r] pairs "
                          f"of numbers, got {balls!r}")
    return BallFamily(balls=tuple((tuple(c), float(r)) for c, r in balls), gap=0.0,
                      seed=seed)


# ---------------------------------------------------------------------------
# experiment plumbing


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentConfig:
    """A loaded config: the JSON as written, which ``canonical`` hashes, and
    every value its run reads, built by ``from_json`` (``shape`` None for
    verify and report; ``job`` the kind's values by name)."""

    kind: str
    domain: dict
    resolutions: list
    params: dict
    seed: int = 0
    out: Path = Path("run")
    shape: Optional[ShapeSpec] = None
    opts: SolveOptions = field(default_factory=SolveOptions)
    job: dict = field(default_factory=dict)

    KINDS = ("solve", "perron", "measure", "harnack", "dirichlet", "verify", "report")
    OPTION_KEYS = ("max_iter", "tol", "damping", "init")

    @staticmethod
    def from_json(d: dict) -> "ExperimentConfig":
        """The one parse of a config.  Every fault it finds is a ConfigError,
        raised before anything is written; faults that need the grid (an eps
        below 2h, a shape thinner than 2h) are left to the run."""
        kind = d.get("kind")
        if kind not in ExperimentConfig.KINDS:
            raise ConfigError(f"kind must be one of {ExperimentConfig.KINDS}, got {kind!r}")
        if kind not in ("verify", "report") and "domain" not in d:
            raise ConfigError("config needs a domain")
        try:
            return ExperimentConfig._parse(kind, d)
        except ConfigError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"bad {kind} config: {type(exc).__name__}: {exc}") from exc

    @staticmethod
    def _parse(kind: str, d: dict) -> "ExperimentConfig":
        res, seed, params = d.get("resolutions", [32]), d.get("seed", 0), d.get("params", {})
        if not (isinstance(res, list) and res):
            raise ConfigError(f"resolution list must be nonempty, got {res!r}")
        if type(seed) is not int:
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        if not isinstance(params, dict):
            raise ConfigError(f"params must be an object, got {params!r}")

        def obj(key):
            value = params.get(key, {})
            if not isinstance(value, dict):
                raise ConfigError(f"params.{key} must be an object, got {value!r}")
            return value

        def data(spec):
            if not (spec is None or type(spec) in (int, float) or isinstance(spec, dict)):
                raise ConfigError(f"a formula must be a number or a descriptor, got {spec!r}")
            return formula(spec)

        options = obj("options")
        unknown = sorted(set(options) - set(ExperimentConfig.OPTION_KEYS))
        if unknown:
            raise ConfigError(f"unknown solver options {unknown}; "
                              f"known are {ExperimentConfig.OPTION_KEYS}")
        if options.get("init", "harmonic") != "harmonic":
            raise ConfigError(f"options.init must be 'harmonic', got {options['init']!r}")
        # only the keys the config sets: the defaults are SolveOptions'
        opts = SolveOptions(**{name: options[key] for key, name in (
            ("max_iter", "max_iter"), ("tol", "tol"), ("damping", "sigma")) if key in options})
        shape, job = None, {}
        if kind not in ("verify", "report"):
            if not all(type(r) is int and r >= 8 for r in res):
                raise ConfigError(f"resolutions must be integers >= 8, got {res!r}")
            shape = ShapeSpec.from_json(d["domain"])
        if kind == "solve":
            job = {"f": data(params.get("f")), "phi": data(params.get("phi", 0.0)),
                   "exact": data(params.get("exact")),
                   "convergence_factor": float(params.get("convergence_factor", 0.0))}
        elif kind == "perron":
            levels = params.get("levels", [2, 3])
            if not (isinstance(levels, list) and levels and all(type(j) is int for j in levels)):
                raise ConfigError(f"perron levels must be a nonempty list of integers, "
                                  f"got {levels!r}")
            job = {"u": data(params.get("u", {"name": "cone"})), "levels": levels}
        elif kind == "measure":
            levels, eps = None, params.get("eps_list", [0.12, 0.06, 0.03])
            if params.get("route", "mollify") == "sweep":
                levels = params.get("levels")
                if not (isinstance(levels, list) and levels
                        and all(_numbers(p, 2) for p in levels)):
                    raise ConfigError(f"the sweep route needs levels as [j, eps] pairs, "
                                      f"got {levels!r}")
                levels = [(int(j), float(e)) for j, e in levels]
                eps = [e for _, e in levels]
            if not (_numbers(eps) and eps):
                raise ConfigError(f"eps_list must be a nonempty list of numbers, got {eps!r}")
            job = {"u": data(params.get("u", {"name": "cone"})), "law": params.get("law"),
                   "levels": levels, "eps_list": eps}
            balls = obj("balls")
            if "explicit" in balls:
                job["balls"] = _ball_family(balls["explicit"], seed)
            else:       # (count, r_min, r_max), drawn on the grid; r_min None is 10 h
                job["balls"] = (int(balls.get("count", 6)),
                                float(balls["r_min"]) if "r_min" in balls else None,
                                float(balls.get("r_max", 0.3)))
        elif kind == "harnack":
            family = params.get("family", [{"name": "boundary_peak", "M": m} for m in (2, 4, 8)])
            if not (isinstance(family, list) and family):
                raise ConfigError(f"harnack's family must be a nonempty list, got {family!r}")
            job = {"r": float(params.get("r", 1.0)),
                   "family": [(spec, data(spec)) for spec in family],
                   "expect_increasing": params.get("expect_increasing", False)}
        elif kind == "dirichlet":
            measure, deltas = obj("measure"), params.get("deltas")
            atoms = tuple((float(x), float(m)) for x, m in measure.get("atoms", []))
            curves = tuple(CurveSpec.circle(tuple(c["center"]), float(c["radius"]),
                                            float(c["lambda"]))
                           for c in measure.get("curves", []))
            if atoms and shape.kind != "interval":
                raise ConfigError("atoms are admissible on an interval domain only")
            if curves and shape.kind == "interval":
                raise ConfigError("curves are admissible on a 2d domain only")
            nu = MeasureSpec(density=data(measure.get("density")), curves=curves, atoms=atoms)
            nu.check_signs()
            job = {"nu": nu,
                   "phi": data(params.get("phi", 0.0)),
                   "schedule": (ContinuationSchedule(deltas=tuple(deltas)) if deltas
                                else ContinuationSchedule.default()),
                   "balls": (_ball_family(params["check_balls"], seed)
                             if "check_balls" in params else None),
                   "mass_tol": float(params.get("mass_tol", 0.05))}
        elif kind == "report":
            job = {"root": Path(params.get("root", "."))}
        return ExperimentConfig(kind=kind, domain=d.get("domain", {}), resolutions=list(res),
                                params=params, seed=seed, out=Path(d.get("out", "run")),
                                shape=shape, opts=opts, job=job)

    def canonical(self) -> str:
        return json.dumps({"kind": self.kind, "domain": self.domain,
                           "resolutions": self.resolutions, "params": self.params,
                           "seed": self.seed}, sort_keys=True)


def run_experiment(config: ExperimentConfig, out_dir: Path) -> dict:
    """Execute the configured pipeline; returns the manifest dict."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = {"solve": _run_solve, "perron": _run_perron, "measure": _run_measure,
              "harnack": _run_harnack, "dirichlet": _run_dirichlet, "verify": _run_verify,
              "report": _run_report}[config.kind]
    outputs, assertions = runner(config, out_dir)
    manifest = {
        "kind": config.kind,
        "config_sha256": hashlib.sha256(config.canonical().encode()).hexdigest(),
        "outputs": sorted(outputs),
        "index": {name: {"bytes": (out_dir / name).stat().st_size,
                         "sha256": hashlib.sha256((out_dir / name).read_bytes()).hexdigest()}
                  for name in outputs},
        "assertions": [{"name": a.name, "passed": a.passed, "detail": a.detail}
                       for a in assertions],
        "passed": all(a.passed for a in assertions),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _run_solve(config: ExperimentConfig, out_dir: Path):
    job = config.job
    rows, errors, outputs = [], [], []
    prev_field = None
    for res in config.resolutions:
        grid, mask = make_grid(config.shape, res)
        init = None
        if prev_field is not None:
            init = ScalarField(grid=grid, values=_resample(prev_field, grid, mask))
        out = solve_dirichlet(mask, f=job["f"], phi=job["phi"], opts=config.opts, init=init)
        err = float("nan")
        if job["exact"] is not None:
            ex = sample_function(job["exact"], grid, mask)
            err = float(np.nanmax(np.abs(out.field.values[mask.interior]
                                         - ex.values[mask.interior])))
            errors.append(err)
        rows.append((config.shape.kind, res, grid.h, out.iterations, out.residual_norm,
                     int(out.converged), err))
        outputs += [p.name for p in out.field.save(out_dir / f"solution_res{res}.json")]
        prev_field = out.field
    write_csv(out_dir / "solve_log.csv",
              ["region", "resolution", "h", "iters", "residual", "converged",
               "linf_error"], rows)
    outputs.append("solve_log.csv")
    n_conv = sum(r[5] for r in rows)
    assertions = [Assertion("all_converged", n_conv == len(rows),
                            f"{n_conv}/{len(rows)} converged")]
    min_factor = job["convergence_factor"]
    if min_factor > 0 and len(errors) >= 2:
        ok = all(errors[k] / max(errors[k + 1], 1e-300) >= min_factor
                 for k in range(len(errors) - 1))
        assertions.append(Assertion(
            "error_halving", ok,
            "ratios " + ",".join(f"{errors[k]/max(errors[k+1],1e-300):.2f}"
                                 for k in range(len(errors) - 1))))
    return outputs, assertions


def _resample(field: ScalarField, grid, mask) -> np.ndarray:
    """Multilinear interpolation of a field onto the interior cells of a new
    grid (NaN elsewhere); undefined and out-of-grid values read as zero."""
    from scipy.interpolate import RegularGridInterpolator
    old = field.grid
    rgi = RegularGridInterpolator(tuple(old.axis_centers(k) for k in range(old.n)),
                                  np.nan_to_num(field.values, nan=0.0),
                                  bounds_error=False, fill_value=0.0)
    out = np.full(grid.shape, np.nan)
    out[mask.interior] = rgi(grid.points()[mask.interior])
    return out


def _run_perron(config: ExperimentConfig, out_dir: Path):
    outputs, assertions = [], []
    for res in config.resolutions:
        grid, mask = make_grid(config.shape, res)
        u = sample_function(config.job["u"], grid, mask)
        for j in config.job["levels"]:
            swept, trace = approximation_sweep(u, mask, j)
            path = out_dir / f"sweep_res{res}_j{j}.csv"
            write_csv(path, ["index", *(f"c{k}" for k in range(grid.n)),
                             "max_increase", "iters"],
                      trace.to_csv_rows())
            outputs.append(path.name)
            assertions.append(Assertion(
                f"monotone_res{res}_j{j}",
                trace.completed and trace.monotone_within >= -1e-9,
                f"min increase {trace.monotone_within:.2e}"))
            assertions.append(Assertion(
                f"covered_res{res}_j{j}", trace.uncovered == 0,
                f"{trace.uncovered} target cells farther than r from every center"))
    return outputs, assertions


def _run_measure(config: ExperimentConfig, out_dir: Path):
    job = config.job
    outputs, assertions = [], []
    for res in config.resolutions:
        grid, mask = make_grid(config.shape, res)
        u = sample_function(job["u"], grid, mask)
        if job["levels"] is not None:
            seq = smooth_subharmonic_sequence(u, mask, job["levels"])
        else:
            seq = direct_mollified_sequence(u, job["eps_list"])
        balls = job["balls"]
        if not isinstance(balls, BallFamily):
            count, r_min, r_max = balls
            balls = generate_ball_family(
                mask, count, r_min=10 * grid.h if r_min is None else r_min, r_max=r_max,
                seed=config.seed, margin=max(job["eps_list"]) + 4 * grid.h)
        tab = ball_measure_table(seq, balls)
        path = out_dir / f"measure_res{res}.csv"
        write_ball_measure_table(path, tab)
        outputs.append(path.name)
        if job["law"] == "cone":
            worst = max(abs(row.mu - math.sqrt(2) * math.pi * row.radius)
                        / (math.sqrt(2) * math.pi * row.radius) for row in tab.rows)
            assertions.append(Assertion(f"cone_law_res{res}", worst <= 0.02,
                                        f"worst rel err {worst:.3%}"))
    return outputs, assertions


def _run_harnack(config: ExperimentConfig, out_dir: Path):
    job = config.job
    outputs, assertions, ratios, rows = [], [], [], []
    grid, mask = make_grid(config.shape, config.resolutions[0])
    for k, (phi_spec, phi) in enumerate(job["family"]):
        out = solve_dirichlet(mask, f=None, phi=phi, opts=config.opts)
        rep = harnack_report(out.field, mask, r=job["r"])
        rows.append((k, json.dumps(phi_spec, sort_keys=True), rep.sup_half,
                     rep.inf_half, rep.ratio))
        psi_path = out_dir / f"psi_{k}.csv"
        write_csv(psi_path, ["t", "sphere_measure"], rep.to_csv_rows())
        outputs.append(psi_path.name)
        ratios.append(rep.ratio)
    write_csv(out_dir / "harnack_ratios.csv",
              ["index", "phi", "sup_half", "inf_half", "ratio"], rows)
    outputs.append("harnack_ratios.csv")
    if job["expect_increasing"]:
        ok = all(b > a for a, b in zip(ratios, ratios[1:]))
        assertions.append(Assertion("ratio_increasing", ok,
                                    "ratios " + ",".join(f"{x:.3f}" for x in ratios)))
    assertions.append(Assertion("ratios_finite", all(np.isfinite(ratios)),
                                f"max ratio {max(ratios):.3f}"))
    return outputs, assertions


def _run_dirichlet(config: ExperimentConfig, out_dir: Path):
    job, nu = config.job, config.job["nu"]
    outputs, assertions = [], []
    grid, mask = make_grid(config.shape, config.resolutions[0])
    result = solve_measure_dirichlet(mask, nu, phi=job["phi"], schedule=job["schedule"],
                                     opts=config.opts, validate_balls=job["balls"])
    write_csv(out_dir / "stages.csv",
              ["delta", "eps", "iters", "residual", "min_u", "max_u",
               "monotonicity_violations"], result.to_csv_rows())
    outputs += ["stages.csv", *(p.name for p in result.field.save(out_dir / "limit_field.json"))]
    assertions.append(Assertion("pipeline_converged", result.converged,
                                result.diagnosis))
    viol = sum(s.monotonicity_violations for s in result.stages)
    assertions.append(Assertion("stage_monotonicity", viol == 0,
                                f"{viol} violations"))
    if result.mass_check:
        total, tol = nu.total_mass(mask), job["mass_tol"]
        worst = max(abs(rec - ex) for _, _, rec, ex in result.mass_check)
        assertions.append(Assertion("mass_recovery", worst <= tol * max(total, 1e-9),
                                    f"worst abs err {worst:.4f} vs {tol:.0%} of {total:.4f}"))
        write_csv(out_dir / "mass_check.csv",
                  ["cx", "cy", "r", "recovered", "exact"],
                  [(c[0], c[1] if len(c) > 1 else 0.0, r, rec, ex)
                   for c, r, rec, ex in result.mass_check])
        outputs.append("mass_check.csv")
    return outputs, assertions


def _run_verify(config: ExperimentConfig, out_dir: Path):
    """Quick all-trivial sanity suite; every check is one cheap identity."""
    assertions = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        assertions.append(Assertion(name, bool(ok), detail))

    def c_mollify_constant():
        grid, mask = make_grid(ShapeSpec.interval(-1, 1), 32)
        u = sample_function(lambda p: np.full(len(p), 3.25), grid, mask)
        out = mollify_field(u, 4 * grid.h)
        have = out.defined
        gap = float(np.max(np.abs(out.values[have] - 3.25)))
        return gap < 1e-10, f"max deviation {gap:.2e}"

    def c_affine_density():
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 16)
        u = sample_function(lambda p: 0.3 * p[:, 0] - 0.2 * p[:, 1] + 1, grid, mask)
        d = h1_density(u)
        have = mask.interior & ~np.isnan(d.values)
        worst = float(np.max(np.abs(d.values[have])))
        return worst < 1e-12, f"max density {worst:.2e}"

    def c_divergence():
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 24)
        u = sample_function(lambda p: np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]),
                            grid, mask)
        C = CircleInterface((0.5, 0.5), 0.3)
        gap = abs(boundary_flux(u, C) - enclosed_density_sum(u, C))
        return gap <= 1e-12, f"gap {gap:.2e}"

    def c_empty_superlevel():
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        s = superlevel_set(u, mask, 1.0, r=0.8)
        return s.is_empty() and s.volume == 0.0, "empty set; volume 0"

    def c_threshold_root():
        t = decay_threshold(1.0)
        return abs(t - 3 ** -0.75) < 1e-10, f"T(1)={t:.6f}"

    def c_zero_minimizer():
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        out = minimize_prescribed_mc(mask, g=None, phi=0.0)
        worst = float(np.nanmax(np.abs(out.field.values[mask.interior])))
        return worst == 0.0, f"max |u| = {worst:.2e}"

    def c_admissibility():
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        rep = boundary_admissibility(mask, 0.4)
        return rep.passed and abs(rep.min_margin - 0.2) < 1e-12, \
            f"margin {rep.min_margin:.3f}"

    check("mollify_preserves_constants", c_mollify_constant)
    check("affine_density_vanishes", c_affine_density)
    check("discrete_divergence_theorem", c_divergence)
    check("empty_superlevel_legal", c_empty_superlevel)
    check("decay_threshold_root", c_threshold_root)
    check("zero_data_minimizer_zero", c_zero_minimizer)
    check("disk_admissibility_margin", c_admissibility)

    write_csv(out_dir / "verify.csv", ["check", "passed", "detail"],
              [(a.name, int(a.passed), a.detail) for a in assertions])
    return ["verify.csv"], assertions


def _manifest_rows(mpath: Path) -> list:
    """Report rows of one manifest's assertions, or one failing row when the
    manifest cannot be read or is not an object whose ``assertions`` each
    carry a name, a verdict and a detail."""
    run = str(mpath.parent)
    try:
        with open(mpath, "r", encoding="utf-8") as fh:
            man = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [(run, "?", "manifest_readable", 0, f"{type(exc).__name__}: {exc}")]
    try:
        return [(run, man.get("kind", "?"), a["name"], int(a["passed"]), a["detail"])
                for a in man.get("assertions", [])]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [(run, "?", "manifest_well_formed", 0, f"{type(exc).__name__}: {exc}")]


def _run_report(config: ExperimentConfig, out_dir: Path):
    root = config.job["root"]
    manifests = sorted(root.glob("**/manifest.json"))
    rows = [row for mpath in manifests for row in _manifest_rows(mpath)]
    write_csv(out_dir / "report.csv",
              ["run", "kind", "assertion", "passed", "detail"], rows)
    ok = bool(manifests) and all(r[3] for r in rows)
    detail = f"{len(rows)} assertions" if manifests else f"no manifest was found under {root}"
    return ["report.csv"], [Assertion("all_runs_passed", ok, detail)]


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meancurv",
        description="mean curvature operator laboratory: run declarative experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ExperimentConfig.KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config path (optional for verify/report)")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--resolution", type=str, default=None,
                       help="comma-separated resolution list override")
    args = parser.parse_args(argv)

    try:
        raw = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"a config must be a JSON object, got {type(raw).__name__}")
        raw.setdefault("kind", args.command)
        if raw["kind"] != args.command:
            raise ConfigError(f"config kind {raw['kind']!r} does not match "
                              f"subcommand {args.command!r}")
        if args.command in ("verify", "report"):
            raw.setdefault("resolutions", [16])
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.resolution is not None:
            raw["resolutions"] = [int(x) for x in args.resolution.split(",")]
        if args.out is not None:
            raw["out"] = args.out
        config = ExperimentConfig.from_json(raw)
    except (ValueError, OSError) as exc:     # ConfigError and JSONDecodeError among them
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2

    manifest = run_experiment(config, config.out)
    for a in manifest["assertions"]:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['detail']}")
    return 0 if manifest["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
