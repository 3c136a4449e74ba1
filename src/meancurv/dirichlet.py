"""Measure-data Dirichlet pipeline.

A nonnegative measure (Lipschitz density + curve-supported parts + atoms in
1d) is mollified onto the grid, the boundary curvature balance is checked,
and the problem is solved through a decreasing relaxation schedule: at each
stage the equation with right side (1 - delta) * mollified measure is
solved, warm-started from the previous stage.  Solutions decrease cellwise
as delta decreases; the limit is reported as the final stage plus the
extrapolation gap, and validated by recovering the measure of test balls
from the stage sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .field import (
    DomainMask,
    Grid,
    ScalarField,
    ShapeSpec,
    SizingError,
    UndefinedCellError,
    _dist_to,
    mollifier_kernel,
)
from .measure import BallFamily, ball_fluxes
from .msolve import SolveOptions, solve_dirichlet


class AtomRejectionError(ValueError):
    """Point masses are inadmissible in 2d.

    A ball shrinking onto the atom keeps measure bounded below while its
    perimeter vanishes, so the measure/perimeter solvability balance fails
    for every positive atom; accepting one would silently produce
    meaningless runs.
    """


@dataclass(frozen=True)
class CurveSpec:
    """Codimension-1 measure part: a circle with constant linear density."""

    kind: str
    center: tuple
    radius: float
    lam: float

    @staticmethod
    def circle(center, radius: float, lam: float) -> "CurveSpec":
        if lam < 0:
            raise ValueError("linear density must be nonnegative")
        return CurveSpec(kind="circle", center=tuple(map(float, center)),
                         radius=float(radius), lam=float(lam))

    def total_mass(self) -> float:
        return self.lam * 2.0 * math.pi * self.radius


@dataclass
class MeasureSpec:
    """Nonnegative measure = Lipschitz density + curve parts (+ atoms in 1d)."""

    density: Union[None, float, Callable, ScalarField] = None
    lipschitz_const: Optional[float] = None
    curves: tuple = ()
    atoms: tuple = ()            # ((x, mass), ...) -- 1d only
    unsupported_by_theory: bool = False

    def validate(self, mask: DomainMask) -> None:
        n = mask.grid.n
        if self.atoms and n == 2:
            raise AtomRejectionError(
                "point masses are not admissible in 2d: balls around the atom "
                "have perimeter -> 0 while the measure stays positive, so the "
                "measure/perimeter balance fails")
        for x0, m in self.atoms:
            if m < 0:
                raise ValueError("atom masses must be nonnegative")
        for c in self.curves:
            if c.lam < 0:
                raise ValueError("curve densities must be nonnegative")
            sd = float(np.asarray(mask.shape.signed_distance(
                np.asarray([list(c.center)]))).ravel()[0])
            if sd - c.radius < 2 * mask.grid.h:
                # codim-1 support reaching the boundary is outside the
                # compact-support hypothesis; accepted but tagged
                self.unsupported_by_theory = True
        if isinstance(self.density, (int, float)) and self.density < 0:
            raise ValueError("density must be nonnegative")

    def density_values(self, mask: DomainMask) -> np.ndarray:
        """The density on interior cells, zero elsewhere; a NaN or infinite
        value on an interior cell raises, while a field's non-finite values
        count as zero."""
        grid = mask.grid
        out = np.zeros(grid.shape)
        if self.density is None:
            return out
        if isinstance(self.density, ScalarField):
            vals = np.where(np.isfinite(self.density.values), self.density.values, 0.0)
        elif callable(self.density):
            pts = grid.points().reshape(-1, grid.n)
            vals = np.asarray(self.density(pts), dtype=float).reshape(grid.shape)
        else:
            vals = np.full(grid.shape, float(self.density))
        bad = mask.interior & ~np.isfinite(vals)
        if bad.any():
            raise UndefinedCellError("density returned inf or NaN at interior cells",
                                     list(zip(*np.nonzero(bad))))
        out[mask.interior] = vals[mask.interior]
        if (out < 0).any():
            raise ValueError("density must be nonnegative")
        return out

    def total_mass(self, mask: DomainMask) -> float:
        total = float(self.density_values(mask).sum() * mask.grid.cell_volume)
        total += sum(c.total_mass() for c in self.curves)
        total += sum(m for _, m in self.atoms)
        return total

    def ball_mass(self, mask: DomainMask, center, radius: float) -> float:
        """Exact measure of a ball from the specification parts."""
        grid = mask.grid
        inside = _dist_to(grid.points(), center) < radius
        total = float(self.density_values(mask)[inside].sum() * grid.cell_volume)
        for c in self.curves:
            total += c.lam * _circle_arc_inside(c, center, radius)
        for x0, m in self.atoms:
            if abs(x0 - center[0]) < radius:
                total += m
        return total


def _circle_arc_inside(curve: CurveSpec, center, radius: float) -> float:
    """Arc length of the curve circle lying inside the given ball."""
    npts = max(512, int(64 * curve.radius / 0.01))
    ang = (np.arange(npts) + 0.5) * 2 * math.pi / npts
    px = curve.center[0] + curve.radius * np.cos(ang)
    py = curve.center[1] + curve.radius * np.sin(ang)
    inside = np.hypot(px - center[0], py - center[1]) < radius
    return float(inside.sum()) / npts * 2 * math.pi * curve.radius


def mollify_measure(nu: MeasureSpec, eps: float, mask: DomainMask,
                    arc_step: Optional[float] = None) -> ScalarField:
    """Smooth nonnegative density with the same discrete mass as the measure.

    The Lipschitz part (extended by zero outside the domain) is convolved
    with the unit-mass bump; curve parts are spread by per-point normalized
    kernel quadrature so every arc element lands with its exact mass.
    """
    grid = mask.grid
    h = grid.h
    nu.validate(mask)
    w = mollifier_kernel(grid.n, h, eps)
    from scipy import signal
    dens = nu.density_values(mask)
    out = signal.fftconvolve(dens, w, mode="same") if dens.any() else np.zeros(grid.shape)

    step = h / 2.0 if arc_step is None else float(arc_step)
    if step > h + 1e-12:
        raise SizingError(f"curve quadrature under-resolved: arc step {step} > h={h}")
    k = w.shape[0] // 2
    for curve in nu.curves:
        npts = max(8, int(math.ceil(2 * math.pi * curve.radius / step)))
        ang = (np.arange(npts) + 0.5) * 2 * math.pi / npts
        pxs = curve.center[0] + curve.radius * np.cos(ang)
        pys = curve.center[1] + curve.radius * np.sin(ang)
        mass = curve.lam * 2 * math.pi * curve.radius / npts
        out += _spread_points(grid, np.stack([pxs, pys], axis=1),
                              np.full(npts, mass), eps, k)
    for x0, m in nu.atoms:
        out += _spread_points(grid, np.asarray([[x0]]), np.asarray([m]), eps, k)

    out = np.maximum(out, 0.0)
    vals = np.where(mask.region, out, np.nan)
    return ScalarField(grid=grid, values=vals, provenance="mollified")


def _spread_points(grid: Grid, pts: np.ndarray, masses: np.ndarray,
                   eps: float, k: int) -> np.ndarray:
    """Deposit point masses as densities with per-point unit-sum kernels."""
    out = np.zeros(grid.shape)
    hv = grid.cell_volume
    for p, m in zip(pts, masses):
        idx = [int(round((p[d] - grid.origin[d]) / grid.h)) for d in range(grid.n)]
        sl = []
        offs = []
        for d in range(grid.n):
            lo = max(idx[d] - k, 0)
            hi = min(idx[d] + k + 1, grid.extents[d])
            sl.append(slice(lo, hi))
            offs.append(grid.axis_centers(d)[lo:hi] - p[d])
        if grid.n == 1:
            s2 = (offs[0] / eps) ** 2
        else:
            s2 = ((offs[0][:, None] / eps) ** 2 + (offs[1][None, :] / eps) ** 2)
        wloc = np.zeros_like(s2)
        inside = s2 < 1.0
        wloc[inside] = np.exp(1.0 / (s2[inside] - 1.0))
        total = wloc.sum()
        if total <= 0:
            raise SizingError("kernel support missed the grid for a point part")
        out[tuple(sl)] += (m / total / hv) * wloc
    return out


@dataclass
class AdmissibilitySample:
    point: tuple
    curvature: float
    f_value: float
    margin: float


@dataclass
class AdmissibilityReport:
    samples: list
    passed: bool
    min_margin: float


def boundary_admissibility(mask: DomainMask, f: Union[None, float, Callable],
                           samples: int = 64) -> AdmissibilityReport:
    """Margin of the boundary curvature over n/(n-1) times the density.

    Shapes without a closed-form boundary curvature are refused.  For an
    annulus the inner circle contributes negative curvature (it bends away
    from the domain), so a positive density there always fails.
    """
    shape = mask.shape
    n = mask.grid.n
    factor = n / (n - 1.0) if n > 1 else 1.0
    pts_curv = []
    if shape.kind == "interval":
        a, b = shape.bounds
        pts_curv = [((a,), 0.0), ((b,), 0.0)]
    elif shape.kind == "disk":
        ang = (np.arange(samples) + 0.5) * 2 * math.pi / samples
        for t in ang:
            p = (shape.center[0] + shape.radius * math.cos(t),
                 shape.center[1] + shape.radius * math.sin(t))
            pts_curv.append((p, 1.0 / shape.radius))
    elif shape.kind == "annulus":
        half = max(samples // 2, 8)
        ang = (np.arange(half) + 0.5) * 2 * math.pi / half
        for t in ang:
            p = (shape.center[0] + shape.radius * math.cos(t),
                 shape.center[1] + shape.radius * math.sin(t))
            pts_curv.append((p, 1.0 / shape.radius))
            q = (shape.center[0] + shape.inner_radius * math.cos(t),
                 shape.center[1] + shape.inner_radius * math.sin(t))
            pts_curv.append((q, -1.0 / shape.inner_radius))
    else:
        raise SizingError(f"no closed-form boundary curvature for {shape.kind!r}")

    rows = []
    for p, curv in pts_curv:
        if f is None:
            fv = 0.0
        elif callable(f):
            fv = float(np.asarray(f(np.asarray([list(p)])), dtype=float).ravel()[0])
        else:
            fv = float(f)
        rows.append(AdmissibilitySample(point=tuple(p), curvature=curv,
                                        f_value=fv, margin=curv - factor * fv))
    min_margin = min(r.margin for r in rows)
    return AdmissibilityReport(samples=rows, passed=min_margin > 0,
                               min_margin=min_margin)


@dataclass
class ContinuationSchedule:
    """Strictly decreasing relaxation factors with mollification widths."""

    deltas: tuple

    def __post_init__(self):
        d = tuple(float(x) for x in self.deltas)
        if len(d) < 2:
            raise ValueError("schedule needs at least two stages")
        if any(b >= a for a, b in zip(d, d[1:])):
            raise ValueError("deltas must be strictly decreasing")
        if d[-1] <= 0:
            raise ValueError("delta floor must stay positive")
        object.__setattr__(self, "deltas", d)

    def eps(self, delta: float, h: float) -> float:
        return max(2 * h, delta / 4.0)

    @staticmethod
    def default() -> "ContinuationSchedule":
        """Six geometric stages from delta = 0.5 down to 0.08."""
        return ContinuationSchedule(deltas=tuple(np.geomspace(0.5, 0.08, 6)))


@dataclass
class StageRecord:
    delta: float
    eps: float
    iterations: int
    residual: float
    converged: bool
    min_u: float
    max_u: float
    monotonicity_violations: int


@dataclass
class PipelineResult:
    field: ScalarField
    stages: list
    converged: bool
    extrapolation_gap: float
    diagnosis: str
    mass_check: Optional[list] = None   # (center, r, recovered, exact) rows

    def to_csv_rows(self):
        for s in self.stages:
            yield (s.delta, s.eps, s.iterations, s.residual, s.min_u, s.max_u,
                   s.monotonicity_violations)


def solve_measure_dirichlet(mask: DomainMask, nu: MeasureSpec, phi=0.0,
                            schedule: Optional[ContinuationSchedule] = None,
                            opts: Optional[SolveOptions] = None,
                            validate_balls: Optional[BallFamily] = None) -> PipelineResult:
    """Relaxation continuation toward the measure-data solution.

    Solves the equation with right side (1-delta) * mollified measure down
    the schedule, warm-starting each stage and certifying that solutions
    decrease cellwise as delta decreases (violations beyond 10 tol are
    counted).  Divergence stops the pipeline and returns the last converged
    stage with a diagnosis; when test balls are supplied the stage fluxes
    are extrapolated in delta and compared against the exact ball masses.
    """
    opts = opts or SolveOptions()
    grid = mask.grid
    schedule = schedule or ContinuationSchedule.default()
    nu.validate(mask)

    stages = []
    stage_fields = []
    prev_field = None
    diagnosis = "completed"
    converged = True
    for delta in schedule.deltas:
        eps = schedule.eps(delta, grid.h)
        g_eps = mollify_measure(nu, eps, mask)
        rhs = ScalarField(grid=grid,
                          values=np.where(mask.interior,
                                          (1.0 - delta) * np.nan_to_num(g_eps.values),
                                          np.nan),
                          provenance="derived")
        out = solve_dirichlet(mask, f=rhs, phi=phi, opts=opts, init=prev_field)
        viol = 0
        if prev_field is not None:
            both = mask.interior
            viol = int((out.field.values[both] > prev_field.values[both]
                        + 10 * opts.tol).sum())
        vals_in = out.field.values[mask.interior]
        stages.append(StageRecord(delta=float(delta), eps=float(eps),
                                  iterations=out.iterations,
                                  residual=out.residual_norm,
                                  converged=out.converged,
                                  min_u=float(np.nanmin(vals_in)),
                                  max_u=float(np.nanmax(vals_in)),
                                  monotonicity_violations=viol))
        if not out.converged:
            converged = False
            diagnosis = ("stage diverged: candidate measure/perimeter balance "
                         "violation (mass too large for the domain boundary)")
            if prev_field is None:
                stage_fields.append(out.field)
            break
        prev_field = out.field
        stage_fields.append(out.field)

    final = stage_fields[-1] if stage_fields else None
    if final is None:
        raise RuntimeError("no stage produced a field")
    gap = 0.0
    if len(stage_fields) >= 2:
        a = stage_fields[-2].values
        b = stage_fields[-1].values
        both = np.isfinite(a) & np.isfinite(b)
        gap = float(np.max(np.abs(b[both] - a[both])))

    mass_rows = None
    if validate_balls is not None and converged:
        mass_rows = []
        deltas = [s.delta for s in stages]
        for (center, radius), fluxes in zip(validate_balls,
                                            ball_fluxes(stage_fields, validate_balls)):
            recovered = _delta_extrapolate(deltas, fluxes)
            exact = nu.ball_mass(mask, center, radius)
            mass_rows.append((tuple(center), radius, recovered, exact))

    return PipelineResult(field=final, stages=stages, converged=converged,
                          extrapolation_gap=gap, diagnosis=diagnosis,
                          mass_check=mass_rows)


def _delta_extrapolate(deltas: Sequence[float], values: Sequence[float]) -> float:
    """Linear fit of the last three (delta, value) pairs, read off at zero."""
    d = np.asarray(deltas[-3:], dtype=float)
    v = np.asarray(values[-3:], dtype=float)
    if len(d) < 2:
        return float(v[-1])
    A = np.stack([np.ones_like(d), d], axis=1)
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    return float(coef[0])
