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
from typing import Callable, Optional, Union

import numpy as np

from .field import (
    DomainMask,
    Grid,
    ScalarField,
    SizingError,
    _convolve_same,
    ball_distances,
    cell_values,
    circle_points,
    mollifier_kernel,
)
from .measure import BallFamily, ball_fluxes, extrapolate
from .msolve import PlanHolder, SolveOptions, solve_dirichlet


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

    center: tuple
    radius: float
    lam: float

    @staticmethod
    def circle(center, radius: float, lam: float) -> "CurveSpec":
        if lam < 0:
            raise ValueError("linear density must be nonnegative")
        if not radius > 0:
            raise ValueError(f"circle radius must be positive, got {radius}")
        return CurveSpec(center=tuple(map(float, center)), radius=float(radius),
                         lam=float(lam))

    def total_mass(self) -> float:
        return self.lam * 2.0 * math.pi * self.radius

    def length_inside(self, center, radius: float) -> float:
        """Length of the circle inside the open ball (center, radius): the arc
        rho * 2 acos((d^2 + rho^2 - r^2) / (2 d rho)) where the two circles
        cross, the whole circle or nothing otherwise."""
        rho = self.radius
        d = math.dist(self.center, center)
        if d > 0:
            cos = (d * d + rho * rho - radius * radius) / (2 * d * rho)
        else:
            cos = -1.0 if rho < radius else 1.0
        return 2 * math.acos(min(max(cos, -1.0), 1.0)) * rho


@dataclass
class MeasureSpec:
    """Nonnegative measure = Lipschitz density + curve parts (+ atoms in 1d)."""

    density: Union[None, float, Callable, ScalarField] = None
    curves: tuple = ()
    atoms: tuple = ()            # ((x, mass), ...) -- 1d only

    def validate(self, mask: DomainMask) -> None:
        """AtomRejectionError for an atom in 2d, then ``check_signs``; the
        spec is not modified."""
        if self.atoms and mask.grid.n == 2:
            raise AtomRejectionError(
                "point masses are not admissible in 2d: balls around the atom "
                "have perimeter -> 0 while the measure stays positive, so the "
                "measure/perimeter balance fails")
        self.check_signs()

    def unsupported_by_theory(self, mask: DomainMask) -> bool:
        """Whether a curve part comes within 2h of the domain's boundary:
        codim-1 support reaching the boundary is outside the compact-support
        hypothesis; ``validate`` accepts such a measure and this query tags it."""
        return any(mask.shape.signed_distance(np.asarray([c.center]))[0] - c.radius
                   < 2 * mask.grid.h for c in self.curves)

    def check_signs(self) -> None:
        """The checks that need no grid: ValueError for a negative atom
        mass, curve density or numeric density."""
        if any(m < 0 for _, m in self.atoms):
            raise ValueError("atom masses must be nonnegative")
        if any(c.lam < 0 for c in self.curves):
            raise ValueError("curve densities must be nonnegative")
        if isinstance(self.density, (int, float)) and self.density < 0:
            raise ValueError("density must be nonnegative")

    def density_values(self, mask: DomainMask) -> np.ndarray:
        """``cell_values`` of the density on interior cells, zero elsewhere; a
        field's non-finite values count as zero, and a negative value raises."""
        dens = self.density
        if isinstance(dens, ScalarField):
            dens = dens.with_values(np.where(dens.finite, dens.values, 0.0))
        out = cell_values(dens, mask.grid, mask.interior, "interior cells of the density")
        out[~mask.interior] = 0.0
        if (out < 0).any():
            raise ValueError("density must be nonnegative")
        return out

    def total_mass(self, mask: DomainMask) -> float:
        total = float(self.density_values(mask).sum() * mask.grid.cell_volume)
        total += sum(c.total_mass() for c in self.curves)
        total += sum(m for _, m in self.atoms)
        return total

    def ball_mass(self, mask: DomainMask, center, radius: float) -> float:
        """Measure of the open ball from the specification parts: the density
        on the cells whose centers it holds, each curve's arc inside it in
        closed form, and the atoms inside it."""
        grid = mask.grid
        win, dist = ball_distances(grid, center, radius)
        total = float(self.density_values(mask)[win][dist < radius].sum()
                      * grid.cell_volume)
        for c in self.curves:
            total += c.lam * c.length_inside(center, radius)
        for x0, m in self.atoms:
            if abs(x0 - center[0]) < radius:
                total += m
        return total

    def sample_parts(self, h: float):
        """(points, masses) of each curve part, then of each atom.

        A circle is sampled at arc step h/2 by circle_points, with equal
        masses that sum to its total; an atom is one point of its mass.
        """
        for c in self.curves:
            count = max(8, int(math.ceil(2 * math.pi * c.radius / (h / 2.0))))
            yield circle_points(c.center, c.radius, count), np.full(count, c.total_mass() / count)
        for x0, m in self.atoms:
            yield np.asarray([[x0]]), np.asarray([m])


def mollify_measure(nu: MeasureSpec, eps: float, mask: DomainMask) -> ScalarField:
    """Smooth nonnegative density with the same discrete mass as the measure.

    The Lipschitz part (extended by zero outside the domain) is convolved
    with the unit-mass bump; curve parts are spread by per-point normalized
    kernel quadrature so every arc element lands with its exact mass.
    """
    grid = mask.grid
    h = grid.h
    nu.validate(mask)
    w = mollifier_kernel(grid.n, h, eps)
    dens = nu.density_values(mask)
    out = _convolve_same(dens, w) if dens.any() else np.zeros(grid.shape)
    for pts, masses in nu.sample_parts(grid.h):
        out += _spread_points(grid, pts, masses, eps, w.shape[0] // 2)

    out = np.maximum(out, 0.0)
    vals = np.where(mask.region, out, np.nan)
    return ScalarField(grid=grid, values=vals, provenance="mollified")


def _spread_points(grid: Grid, pts: np.ndarray, masses: np.ndarray,
                   eps: float, k: int) -> np.ndarray:
    """Deposit point masses as densities with per-point unit-sum kernels.

    A point's bump covers the cells of the (2k+1)^n window around its nearest
    cell that lie on the grid; the shares are added in point order, as a loop
    over the points would add them.
    """
    count, n = pts.shape
    win = grid.nearest_cells(pts)[:, :, None] + np.arange(-k, k + 1)     # (P, n, 2k+1)
    offs = (np.asarray(grid.origin)[:, None] + grid.h * win - pts[:, :, None]) / eps
    on_grid = (win >= 0) & (win < np.asarray(grid.extents)[:, None])
    s2, live, flat = 0.0, True, 0
    for d in range(n):      # window axis d becomes array axis d + 1
        lay = (count,) + tuple(-1 if e == d else 1 for e in range(n))
        s2 = s2 + (offs[:, d] ** 2).reshape(lay)
        live = live & on_grid[:, d].reshape(lay)
        flat = flat * grid.extents[d] + win[:, d].reshape(lay)
    live = live & (s2 < 1.0)
    w = np.zeros(s2.shape)
    w[live] = np.exp(1.0 / (s2[live] - 1.0))
    total = w.reshape(count, -1).sum(axis=1)
    if (total <= 0).any():
        raise SizingError("kernel support missed the grid for a point part")
    share = (masses / total / grid.cell_volume).reshape((count,) + (1,) * n) * w
    out = np.zeros(grid.shape)
    np.add.at(out.reshape(-1), flat[live], share[live])
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


def boundary_admissibility(mask: DomainMask, f: Union[None, float, Callable]
                           ) -> AdmissibilityReport:
    """Margin of the boundary curvature over n/(n-1) times the density.

    f is None (zero), a number, or a callable of the (k, n) sample points
    that must return k values (ValueError otherwise).  The samples are the
    two ends of an interval, 64 points of a disk's circle, and 32 angles of
    an annulus with a point on each of its circles.  Shapes without a
    closed-form boundary curvature are refused.  For an
    annulus the inner circle contributes negative curvature (it bends away
    from the domain), so a positive density there always fails.
    """
    shape = mask.shape
    n = mask.grid.n
    factor = n / (n - 1.0) if n > 1 else 1.0
    if shape.kind == "interval":
        pts = np.asarray(shape.bounds, dtype=float)[:, None]
        curv = np.zeros(2)
    elif shape.kind == "disk":
        pts = circle_points(shape.center, shape.radius, 64)
        curv = np.full(64, 1.0 / shape.radius)
    elif shape.kind == "annulus":
        half = 32
        # an outer and an inner sample at each angle, in turn
        pts = np.stack([circle_points(shape.center, shape.radius, half),
                        circle_points(shape.center, shape.inner_radius, half)],
                       axis=1).reshape(-1, 2)
        curv = np.tile([1.0 / shape.radius, -1.0 / shape.inner_radius], half)
    else:
        raise SizingError(f"no closed-form boundary curvature for {shape.kind!r}")

    if f is None:
        fv = np.zeros(len(pts))
    elif callable(f):
        fv = np.asarray(f(pts), dtype=float)
        if fv.shape != (len(pts),):
            raise ValueError(f"data for boundary samples of f must be one value per sample, "
                             f"got shape {fv.shape} for {len(pts)} samples")
    else:
        fv = np.full(len(pts), float(f))
    margin = curv - factor * fv
    rows = [AdmissibilitySample(point=tuple(map(float, p)), curvature=float(c),
                                f_value=float(v), margin=float(m))
            for p, c, v, m in zip(pts, curv, fv, margin)]
    min_margin = float(margin.min())
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


def solve_measure_dirichlet(mask: DomainMask, nu: MeasureSpec, phi=0.0,
                            schedule: Optional[ContinuationSchedule] = None,
                            opts: Optional[SolveOptions] = None,
                            validate_balls: Optional[BallFamily] = None) -> PipelineResult:
    """Relaxation continuation toward the measure-data solution.

    Solves the equation with right side (1-delta) * mollified measure down
    the schedule, warm-starting each stage on the field and the last LU of
    the stage before (one plan holder serves them all), and certifying that
    solutions decrease cellwise as delta decreases (violations beyond 10 tol
    are counted).  Divergence stops the pipeline and returns the last
    converged stage with a diagnosis; when test balls are supplied the stage
    fluxes are extrapolated in delta (the line through the last two stages,
    read at delta = 0) and compared against the exact ball masses.  Only the
    fields of those last stages are kept, and only they are measured.
    """
    opts = opts or SolveOptions()
    grid = mask.grid
    schedule = schedule or ContinuationSchedule.default()
    nu.validate(mask)

    carry = PlanHolder()   # every stage's plan, and the LU one stage hands the next
    stages = []
    fields = []            # the last two converged stages: all the order-1 limit reads
    diagnosis = "completed"
    converged = True
    for delta in schedule.deltas:
        prev_field = fields[-1] if fields else None
        eps = schedule.eps(delta, grid.h)
        g_eps = mollify_measure(nu, eps, mask)
        rhs = ScalarField(grid=grid,
                          values=np.where(mask.interior, (1.0 - delta) * g_eps.values, np.nan),
                          provenance="derived")
        out = solve_dirichlet(mask, f=rhs, phi=phi, opts=opts, init=prev_field, carry=carry)
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
                fields.append(out.field)
            break
        fields = fields[-1:] + [out.field]

    gap = 0.0
    if len(fields) == 2:
        a, b = (f.values for f in fields)
        both = np.isfinite(a) & np.isfinite(b)
        gap = float(np.max(np.abs(b[both] - a[both])))

    mass_rows = None
    if validate_balls is not None and converged:
        mass_rows = []
        deltas = [s.delta for s in stages[-2:]]
        for (center, radius), fluxes in zip(validate_balls,
                                            ball_fluxes(fields, validate_balls)):
            recovered, _ = extrapolate(deltas, fluxes, 1)
            exact = nu.ball_mass(mask, center, radius)
            mass_rows.append((tuple(center), radius, recovered, exact))

    return PipelineResult(field=fields[-1], stages=stages, converged=converged,
                          extrapolation_gap=gap, diagnosis=diagnosis,
                          mass_check=mass_rows)

