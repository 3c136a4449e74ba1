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
``face_gradients`` applies it to the one face axis of a 1d array itself and
hands a 2d array to ``face_gradients_2d``; everything downstream (flux
fields, the density, interface fluxes) loops over the axes.  The solver's
residual applies ``face_formula`` to the gathered faces of its rows instead
of whole face arrays.  The discrete boundary length is the face count of
the boundary, ``_interior_face_count`` times h^(n-1), for both the area
functional and the minimizer's stationarity rows.

Interface fluxes are ball-local: they read the interface's window of cells
(``field.ball_distances``, or the box window of a rectangle or a 1d pair)
and the faces between window cells, never the whole grid, and sum them in
the full grid's C order.
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
    ball_distances,
    box_window,
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
    taken from that side, and faces without one get t = 0.  Each input is
    let go once read, so inputs passed as temporaries (the residual's
    gathered columns) are freed before w is formed.
    """
    g = (hi - lo) / h
    del lo, hi
    t = (dl + dr) / (4.0 * h)
    if fallback_transverse:
        only_l = np.isfinite(dl) & ~np.isfinite(dr)
        only_r = np.isfinite(dr) & ~np.isfinite(dl)
        t = np.where(only_l, dl / (2.0 * h), t)
        t = np.where(only_r, dr / (2.0 * h), t)
        t = np.where(np.isnan(t) & np.isfinite(g), 0.0, t)
    del dl, dr
    w = np.sqrt(1.0 + g * g + t * t)
    return g, t, w, g / w


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
    """Per face axis (g, t, w, f) of a 1d or 2d cell array; the one axis of
    a 1d array has t = 0, so it needs no transverse fallback."""
    if values.ndim == 2:
        return face_gradients_2d(values, h, fallback_transverse)
    v = np.where(np.isfinite(values), values, np.nan)
    zero = np.zeros(v.size - 1)
    return (face_formula(v[:-1], v[1:], zero, zero, h),)


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
    """Face fluxes Du/W on the staggered grid, one array per face axis in
    ``axes``; |flux| < 1 on defined faces."""

    grid: Grid
    axes: tuple

    def max_magnitude(self) -> float:
        vals = [np.nanmax(np.abs(f)) for f in self.axes if np.isfinite(f).any()]
        return float(max(vals)) if vals else 0.0


def flux_field(u: ScalarField) -> FluxField:
    faces = face_gradients(u.values, u.grid.h)
    return FluxField(u.grid, tuple(f for _, _, _, f in faces))


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

    def cells(self, grid: Grid) -> tuple:
        """The ball's window and which of its cells the circle encloses."""
        win, dist = ball_distances(grid, self.center, self.radius)
        return win, dist < self.radius

    def describe(self) -> str:
        return f"circle(center={self.center}, r={self.radius})"


@dataclass(frozen=True)
class RectInterface:
    x0: float
    x1: float
    y0: float
    y1: float

    def cells(self, grid: Grid) -> tuple:
        """The rectangle's window and which of its cells it encloses."""
        win = box_window(grid, (self.x0, self.y0), (self.x1, self.y1))
        pts = grid.points()[win]
        return win, ((pts[..., 0] > self.x0) & (pts[..., 0] < self.x1)
                     & (pts[..., 1] > self.y0) & (pts[..., 1] < self.y1))

    def describe(self) -> str:
        return f"rect([{self.x0},{self.x1}]x[{self.y0},{self.y1}])"


@dataclass(frozen=True)
class PairInterface:
    """1d closed interface: the two endpoints of an interval."""

    a: float
    b: float

    def cells(self, grid: Grid) -> tuple:
        """The interval's window and which of its cells lie between the ends."""
        win = box_window(grid, (self.a,), (self.b,))
        x = grid.points()[win][..., 0]
        return win, (x > self.a) & (x < self.b)

    def describe(self) -> str:
        return f"pair({self.a}, {self.b})"


def boundary_flux(u, interface) -> float:
    """Outward flux of Du/W through a closed interface.

    *u* is a field or its ``flux_field``.  Exactly equals the h1_density sum
    over the enclosed cells (discrete divergence theorem); faces with
    undefined flux along the interface raise, naming their lower cells.
    Only the interface's window is read: the enclosed cells are tested
    there, and each axis's faces between window cells are summed in the
    C order of the whole face array, so the sum is the full-grid one bit
    for bit.
    """
    ff = u if isinstance(u, FluxField) else flux_field(u)
    grid = ff.grid
    win, inside = interface.cells(grid)
    start = np.array([w.start for w in win])
    total, bad_cells = None, []
    for axis, ((lo, hi), f) in enumerate(zip(face_sides(grid.n), ff.axes)):
        # faces between window cells: all but the window's last cell on this axis
        f = f[tuple(slice(w.start, max(w.stop - 1, 0)) if k == axis else w
                    for k, w in enumerate(win))]
        cut = inside[hi] != inside[lo]
        bad_cells += list(map(tuple, np.argwhere(cut & np.isnan(f)) + start))
        part = (f[cut] * np.where(inside[lo], 1.0, -1.0)[cut]).sum()
        total = part if total is None else total + part
    if bad_cells:
        raise UndefinedCellError("interface crosses undefined faces", bad_cells)
    return float(total * grid.h ** (grid.n - 1))


def enclosed_density_sum(u: ScalarField, interface) -> float:
    """Density integral over the cells enclosed by the interface."""
    win, cells = interface.cells(u.grid)
    inside = np.zeros(u.grid.shape, bool)
    inside[win] = cells
    return density_integral(u, inside, name=interface.describe())


# ---------------------------------------------------------------------------
# area functional


def central_differences(u: ScalarField, cells: tuple) -> np.ndarray:
    """(u(c + e_a) - u(c - e_a)) / 2h at the cells c of the index tuple
    ``cells``, one array per axis a stacked first; NaN on the grid's edge
    along a and beside a non-finite value.  Only the cells' neighbours are read."""
    grid, v = u.grid, u.values
    out = []
    for a in range(grid.n):
        c, top = cells[a], grid.extents[a] - 1
        hi, lo = (v[cells[:a] + (np.clip(c + d, 0, top),) + cells[a + 1:]] for d in (1, -1))
        ok = (c > 0) & (c < top) & np.isfinite(hi) & np.isfinite(lo)
        with np.errstate(invalid="ignore"):         # -inf beside -inf, masked below
            out.append(np.where(ok, (hi - lo) / (2 * grid.h), np.nan))
    return np.stack(out)


def cell_gradients(u: ScalarField) -> np.ndarray:
    """``central_differences`` at every cell, the axis last: shape extents + (n,)."""
    return np.moveaxis(central_differences(u, tuple(np.indices(u.grid.shape))), 0, -1)


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
        idx = tuple(fld.grid.nearest_cells(point))
        gnorm = float(np.sqrt(np.nansum(central_differences(fld, idx) ** 2)))
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
