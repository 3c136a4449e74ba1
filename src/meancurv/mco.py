"""Mean curvature operator in conservative flux form.

The graph mean curvature div(Du / sqrt(1 + |Du|^2)) is discretized with
staggered face fluxes: the normal derivative on a face is the central
difference of the two adjacent cells, the transverse derivative averages
the four surrounding cell differences, and the cell density is the exact
discrete divergence of the face fluxes.  Flux integrals over closed
interfaces therefore satisfy the discrete divergence theorem to rounding,
which is what all the measure bookkeeping downstream leans on.

Every face quantity has one layout in 1d and 2d: per face axis a tuple
(g, t, w, f) of normal gradient, transverse gradient (0 in 1d), weight
sqrt(1 + g^2 + t^2) and flux g / w, written down once in ``face_formula``.
``face_gradients`` hands a 1d array to the 1d kernel and any other to the 2d
one; everything downstream (flux fields, the density, interface fluxes)
loops over the axes.  The solver's residual applies ``face_formula`` to the
gathered faces of its rows instead of whole face arrays.  The discrete boundary length is the face
count of the boundary, ``_interior_face_count`` times h^(n-1), for both the
area functional and the minimizer's stationarity rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .field import (
    DomainMask,
    Grid,
    ScalarField,
    UndefinedCellError,
    _dist_to,
)


# ---------------------------------------------------------------------------
# staggered face gradients and fluxes


def _along(n: int, axis: int, s: slice, rest: slice = slice(None)) -> tuple:
    """Index tuple taking *s* on *axis* and *rest* on every other axis."""
    return tuple(s if k == axis else rest for k in range(n))


@functools.lru_cache(maxsize=None)
def face_sides(n: int) -> tuple:
    """Per face axis, the index tuples of the cells below and above its faces."""
    return tuple((_along(n, a, slice(None, -1)), _along(n, a, slice(1, None)))
                 for a in range(n))


@functools.lru_cache(maxsize=None)
def _divergence_index(n: int) -> tuple:
    """Inner cells, and per axis the faces below and above each inner cell."""
    inner = slice(1, -1)
    return (inner,) * n, tuple((_along(n, a, slice(None, -1), inner),
                                _along(n, a, slice(1, None), inner)) for a in range(n))


def face_formula(lo, hi, dl, dr, h: float, fallback_transverse: bool = False):
    """(g, t, w, f) of faces from the values of their lower and upper cells
    and the transverse differences dl, dr of those cells (zero in 1d, NaN
    where a cell lacks a neighbour).

    The one place the scheme's face quantities are written down: the grid
    kernels below apply it to whole face arrays, the Newton residual
    (``msolve._residual``) to the gathered faces of its rows.  With
    fallback_transverse a transverse difference known on one side only is
    taken from that side, and faces without one get t = 0.
    """
    g = (hi - lo) / h
    t = (dl + dr) / (4.0 * h)
    if fallback_transverse:
        only_l = np.isfinite(dl) & ~np.isfinite(dr)
        only_r = np.isfinite(dr) & ~np.isfinite(dl)
        t = np.where(only_l, dl / (2.0 * h), t)
        t = np.where(only_r, dr / (2.0 * h), t)
        t = np.where(np.isnan(t) & np.isfinite(g), 0.0, t)
    w = np.sqrt(1.0 + g * g + t * t)
    return g, t, w, g / w


def face_gradients_1d(values: np.ndarray, h: float):
    """The one face axis of a 1d array: ((g, t, w, f),) with t = 0."""
    v = np.where(np.isfinite(values), values, np.nan)
    zero = np.zeros(v.size - 1)
    return (face_formula(v[:-1], v[1:], zero, zero, h),)


def face_gradients_2d(values: np.ndarray, h: float, fallback_transverse: bool = False):
    """Staggered gradients on x- and y-faces.

    Returns ((gx, tx, wx, fx), (gy, ty, wy, fy)); f* are the flux components
    normal to each face, |f*| < 1 wherever defined.  With
    fallback_transverse the 4-point transverse average degrades to the
    available one-sided differences instead of going undefined (used only by
    the boundary-penalized solver stage).
    """
    v = np.where(np.isfinite(values), values, np.nan)
    faces = []
    for axis, (lo, hi) in enumerate(face_sides(2)):
        inner, up, down = (_along(2, 1 - axis, s)
                           for s in (slice(1, -1), slice(2, None), slice(None, -2)))
        # transverse differences of the cells below (dl) and above (dr) the face
        dl, dr = (np.full(v[lo].shape, np.nan) for _ in range(2))
        for d, cells in ((dl, v[lo]), (dr, v[hi])):
            d[inner] = cells[up] - cells[down]
        faces.append(face_formula(v[lo], v[hi], dl, dr, h, fallback_transverse))
    return tuple(faces)


def face_gradients(values: np.ndarray, h: float, fallback_transverse: bool = False):
    """Per face axis (g, t, w, f) of a 1d or 2d cell array."""
    if values.ndim == 1:
        return face_gradients_1d(values, h)
    return face_gradients_2d(values, h, fallback_transverse)


def _divergence(faces, h: float) -> np.ndarray:
    """Cell density of per-axis face fluxes; NaN on the outermost cells."""
    inner, sides = _divergence_index(len(faces))
    f0 = faces[0][3]
    dens = np.full((f0.shape[0] + 1,) + f0.shape[1:], np.nan)
    total = None
    for (lo, hi), (_, _, _, f) in zip(sides, faces):
        total = f[hi] - f[lo] if total is None else total + f[hi] - f[lo]
    dens[inner] = total / h
    return dens


@dataclass
class FluxField:
    """Face fluxes Du/W on the staggered grid; |flux| < 1 on defined faces."""

    grid: Grid
    fx: np.ndarray
    fy: Optional[np.ndarray] = None

    @property
    def axes(self) -> tuple:
        """The flux arrays, one per face axis."""
        return tuple(f for f in (self.fx, self.fy) if f is not None)

    def max_magnitude(self) -> float:
        vals = [np.nanmax(np.abs(f)) for f in self.axes if np.isfinite(f).any()]
        return float(max(vals)) if vals else 0.0

    def to_json(self) -> dict:
        enc = lambda a: [None if np.isnan(v) else float(v) for v in a.ravel(order="C")]
        d = {"grid": self.grid.to_json(), "fx_shape": list(self.fx.shape),
             "fx": enc(self.fx)}
        if self.fy is not None:
            d["fy_shape"] = list(self.fy.shape)
            d["fy"] = enc(self.fy)
        return d


def flux_field(u: ScalarField) -> FluxField:
    faces = face_gradients(u.values, u.grid.h)
    return FluxField(u.grid, *(f for _, _, _, f in faces))


def h1_density(u: ScalarField) -> ScalarField:
    """Cell density of the operator: discrete divergence of the face fluxes.

    Cells whose stencil touches an undefined or -inf value are NaN; callers
    integrating the density must skip and count them.
    """
    dens = _divergence(face_gradients(u.values, u.grid.h), u.grid.h)
    return ScalarField(grid=u.grid, values=dens, provenance="derived")


def density_integral(u: ScalarField, inside: np.ndarray,
                     name: str = "density integral") -> float:
    """Sum of h1_density * cell volume over *inside*; NaN cells are an error."""
    dens = h1_density(u).values
    bad = inside & np.isnan(dens)
    if bad.any():
        raise UndefinedCellError(f"{name}: density undefined inside the region",
                                 list(zip(*np.nonzero(bad))))
    return float(dens[inside].sum() * u.grid.cell_volume)


def trace_coefficient_matrix(du: np.ndarray) -> np.ndarray:
    """Coefficient matrix I - Du (x) Du / (1 + |Du|^2) of the operator.

    Eigenvalues lie in [1/(1+|Du|^2), 1]: the operator stays elliptic no
    matter how steep the graph gets.
    """
    du = np.asarray(du, dtype=float)
    n = du.shape[-1]
    w2 = 1.0 + np.sum(du * du, axis=-1)
    eye = np.eye(n)
    outer = du[..., :, None] * du[..., None, :]
    return eye - outer / w2[..., None, None]


# ---------------------------------------------------------------------------
# closed interfaces and flux integrals


@dataclass(frozen=True)
class CircleInterface:
    center: tuple
    radius: float

    def inside(self, pts: np.ndarray) -> np.ndarray:
        return np.hypot(pts[..., 0] - self.center[0],
                        pts[..., 1] - self.center[1]) < self.radius

    def describe(self) -> str:
        return f"circle(center={self.center}, r={self.radius})"


@dataclass(frozen=True)
class RectInterface:
    x0: float
    x1: float
    y0: float
    y1: float

    def inside(self, pts: np.ndarray) -> np.ndarray:
        return ((pts[..., 0] > self.x0) & (pts[..., 0] < self.x1)
                & (pts[..., 1] > self.y0) & (pts[..., 1] < self.y1))

    def describe(self) -> str:
        return f"rect([{self.x0},{self.x1}]x[{self.y0},{self.y1}])"


@dataclass(frozen=True)
class PairInterface:
    """1d closed interface: the two endpoints of an interval."""

    a: float
    b: float

    def inside(self, pts: np.ndarray) -> np.ndarray:
        x = pts[..., 0] if pts.ndim > 1 else pts
        return (x > self.a) & (x < self.b)

    def describe(self) -> str:
        return f"pair({self.a}, {self.b})"


def boundary_flux(u, interface) -> float:
    """Outward flux of Du/W through a closed interface.

    *u* is a field or its ``flux_field``.  Exactly equals the h1_density sum
    over the enclosed cells (discrete divergence theorem); faces with
    undefined flux along the interface raise.
    """
    ff = u if isinstance(u, FluxField) else flux_field(u)
    grid = ff.grid
    inside = interface.inside(grid.points())
    total, bad_cells = None, []
    for (lo, hi), f in zip(face_sides(grid.n), ff.axes):
        cut = inside[hi] != inside[lo]
        bad_cells += list(zip(*np.nonzero(cut & np.isnan(f))))
        part = (f[cut] * np.where(inside[lo], 1.0, -1.0)[cut]).sum()
        total = part if total is None else total + part
    if bad_cells:
        raise UndefinedCellError("interface crosses undefined faces", bad_cells)
    return float(total * grid.h ** (grid.n - 1))


def enclosed_density_sum(u: ScalarField, interface) -> float:
    """Density integral over the cells enclosed by the interface."""
    inside = interface.inside(u.grid.points())
    return density_integral(u, inside, name=interface.describe())


# ---------------------------------------------------------------------------
# area functional


def cell_gradients(u: ScalarField) -> np.ndarray:
    """Cell-centered gradient by central differences; NaN where incomplete."""
    v = np.where(np.isfinite(u.values), u.values, np.nan)
    n, h = u.grid.n, u.grid.h
    g = np.full(v.shape + (n,), np.nan)
    for a in range(n):
        g[_along(n, a, slice(1, -1)) + (a,)] = (
            v[_along(n, a, slice(2, None))] - v[_along(n, a, slice(None, -2))]) / (2 * h)
    return g


def _interior_face_count(mask: DomainMask) -> np.ndarray:
    """Per-cell count of faces shared with an interior cell."""
    inter = mask.interior
    count = np.zeros(mask.grid.shape, dtype=float)
    for lo, hi in face_sides(mask.grid.n):
        count[hi] += inter[lo]
        count[lo] += inter[hi]
    return count


def area_functional(u: ScalarField, g: Optional[ScalarField],
                    phi: ScalarField, mask: DomainMask) -> float:
    """The minimizer's discrete functional: graph area + forcing pairing +
    boundary deviation, whose first-order condition is density = g, the
    equation the minimizer's rows solve.

    Midpoint quadrature of sqrt(1+|Du|^2) over interior cells, plus
    integral g*u, plus |u - phi| on boundary cells against the boundary
    length the stationarity rows use: each cell's face count with the
    interior times h^(n-1).
    """
    grid = u.grid
    hv = grid.cell_volume
    u.require_finite(mask.interior, "area functional")
    grads = cell_gradients(u)
    gnorm2 = np.nansum(grads * grads, axis=-1)
    area = float(np.sqrt(1.0 + gnorm2[mask.interior]).sum() * hv)
    load = 0.0
    if g is not None:
        load = float((g.values[mask.interior] * u.values[mask.interior]).sum() * hv)
    lengths = _interior_face_count(mask) * grid.h ** (grid.n - 1)
    dev = np.abs(u.values - phi.values)
    pen = float(np.nansum(dev[mask.boundary] * lengths[mask.boundary]))
    return area + load + pen


# ---------------------------------------------------------------------------
# subharmonicity diagnostics


@dataclass
class BallCheck:
    center: tuple
    radius: float
    passed: bool
    violation: float
    inconclusive: bool = False


@dataclass
class SubharmonicReport:
    """Comparison-with-harmonic-replacement verdicts over a ball family."""

    balls: list
    tol: float
    overall_pass: bool

    @property
    def worst_violation(self) -> float:
        vals = [b.violation for b in self.balls if not b.inconclusive]
        return max(vals) if vals else 0.0

    def to_json(self) -> dict:
        return {
            "tol": self.tol,
            "overall_pass": self.overall_pass,
            "balls": [{"center": list(b.center), "radius": b.radius,
                       "passed": b.passed, "violation": b.violation,
                       "inconclusive": b.inconclusive} for b in self.balls],
        }


def default_subharmonic_tol(u: ScalarField, where: np.ndarray) -> float:
    """Scheme-truncation-matched tolerance 10 h^2 (1 + max|Du|^2)."""
    grads = cell_gradients(u)
    g2 = np.nansum(grads * grads, axis=-1)
    sel = where & ~np.isnan(g2)
    gmax2 = float(g2[sel].max()) if sel.any() else 0.0
    return 10.0 * u.grid.h ** 2 * (1.0 + gmax2)


def viscosity_subharmonic_check(u: ScalarField, mask: DomainMask,
                                balls: Sequence[tuple], tol: Optional[float] = None,
                                opts=None) -> SubharmonicReport:
    """Check u <= harmonic replacement on each test ball.

    For every ball the homogeneous Dirichlet problem is solved with u as
    sphere data; the ball passes when the replacement dominates u inside up
    to tol.  A diverging inner solve marks the ball inconclusive, not failed.
    """
    from .msolve import SolveOptions, solve_on_ball

    opts = opts or SolveOptions()
    checks = []
    tols = []
    grid = u.grid
    for center, radius in balls:
        dist = _dist_to(grid.points(), center)
        ball_cells = mask.interior & (dist < radius)
        ball_tol = tol if tol is not None else default_subharmonic_tol(
            u, mask.interior & (dist < radius + 2 * grid.h))
        tols.append(ball_tol)
        outcome = solve_on_ball(u, mask, center, radius, opts=opts)
        if not outcome.converged:
            checks.append(BallCheck(center=tuple(center), radius=radius,
                                    passed=False, violation=float("nan"),
                                    inconclusive=True))
            continue
        diff = u.values - outcome.field.values
        viol = float(np.nanmax(np.where(ball_cells, diff, -np.inf)))
        checks.append(BallCheck(center=tuple(center), radius=radius,
                                passed=viol <= ball_tol, violation=viol))
    conclusive = [c for c in checks if not c.inconclusive]
    overall = bool(conclusive) and all(c.passed for c in conclusive)
    return SubharmonicReport(balls=checks, tol=max(tols) if tols else 0.0,
                             overall_pass=overall)


# ---------------------------------------------------------------------------
# interior gradient growth envelope


@dataclass
class EnvelopeFit:
    """Least upper affine envelope of (|u|/r, log|Du|) sample points."""

    c1: float
    c2: float
    max_residual: float
    points: list
    degenerate: bool = False
    excluded: int = 0

    def to_csv_rows(self):
        return [(x, y) for (x, y) in self.points]


def gradient_bound_report(entries: Sequence[tuple]) -> EnvelopeFit:
    """Fit the least affine upper envelope to gradient growth samples.

    Each entry is (field, eval_point, r): a non-positive solution on a ball
    of radius r around eval_point.  Points are (|u(p)|/r, log|Du(p)|); the
    report fits log|Du| <= log c1 + c2 * |u|/r and verifies nothing sits
    above the fitted line.
    """
    if len(entries) < 3:
        raise ValueError("need at least 3 family members to fit an envelope")
    xs, ys = [], []
    excluded = 0
    for fld, point, r in entries:
        idx = _nearest_cell(fld.grid, point)
        grads = cell_gradients(fld)
        gnorm = float(np.sqrt(np.nansum(grads[idx] ** 2)))
        uval = float(fld.values[idx])
        if not np.isfinite(gnorm) or gnorm < 1e-14:
            excluded += 1
            continue
        xs.append(abs(uval) / r)
        ys.append(math.log(gnorm))
    if len(xs) < 2:
        return EnvelopeFit(c1=0.0, c2=0.0, max_residual=0.0,
                           points=list(zip(xs, ys)), degenerate=True,
                           excluded=excluded)
    intercept, slope = _upper_affine_envelope(np.array(xs), np.array(ys))
    resid = float(np.max(np.array(ys) - (intercept + slope * np.array(xs))))
    return EnvelopeFit(c1=math.exp(intercept), c2=slope, max_residual=resid,
                       points=list(zip(xs, ys)), excluded=excluded)


def _nearest_cell(grid: Grid, point) -> tuple:
    idx = []
    for k in range(grid.n):
        i = int(round((point[k] - grid.origin[k]) / grid.h))
        idx.append(min(max(i, 0), grid.extents[k] - 1))
    return tuple(idx)


def _upper_affine_envelope(xs: np.ndarray, ys: np.ndarray):
    """Line above all points minimizing the total vertical gap."""
    best = None
    m = len(xs)
    candidates = []
    for i in range(m):
        for j in range(i + 1, m):
            if xs[i] == xs[j]:
                continue
            slope = (ys[j] - ys[i]) / (xs[j] - xs[i])
            candidates.append((float(ys[i] - slope * xs[i]), float(slope)))
    candidates.append((float(ys.max()), 0.0))
    for intercept, slope in candidates:
        line = intercept + slope * xs
        if (ys - line).max() > 1e-12 * (1 + np.abs(ys).max()):
            continue
        gap = float((line - ys).sum())
        if best is None or gap < best[0]:
            best = (gap, intercept, slope)
    _, intercept, slope = best
    return intercept, slope
