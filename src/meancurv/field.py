"""Grids, masked domains, scalar fields, level sets and discrete set geometry.

Everything downstream works on a uniform cell grid: a field value lives at
each cell center, a domain mask classifies cells as interior / boundary /
exterior, and subsets of cells are measured with an exact cell-count volume
and a subcell linear interface perimeter (marching reconstruction, so that
perimeters converge to the Euclidean length of smooth boundaries rather
than to the axis-aligned l1 length).  The reconstruction is one array kernel
on the corners of the mixed squares, run once per set and kept on it.
Problem data (a forcing term, boundary values, a density, a sampled formula)
reaches the grid through one evaluator, ``cell_values``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import ndimage, signal

NEG_INF = float("-inf")

#: relative slack allowed below the isoperimetric floor for perimeters of
#: reconstructed smooth sublevel sets (subcell reconstruction error).
TOL_ISO = 0.05

#: best isoperimetric constants c_n with |boundary| >= c_n |set|^(1-1/n)
ISOPERIMETRIC_CONSTANT = {1: 2.0, 2: 2.0 * math.sqrt(math.pi)}


class SizingError(ValueError):
    """Requested shape or kernel is too small for the grid resolution."""


class UndefinedCellError(ValueError):
    """An operation touched cells that carry no defined value."""

    def __init__(self, message: str, cells: Sequence[tuple] = ()):
        self.cells = list(cells)[:8]
        if self.cells:
            message = f"{message} (first offending cells: {self.cells})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True)
class ShapeSpec:
    """Closed-form domain shape: interval, disk, rectangle or annulus."""

    kind: str
    center: tuple = (0.0, 0.0)
    radius: float = 0.0
    inner_radius: float = 0.0
    bounds: tuple = ()

    @staticmethod
    def interval(a: float, b: float) -> "ShapeSpec":
        if not b > a:
            raise SizingError(f"empty interval [{a}, {b}]")
        return ShapeSpec(kind="interval", bounds=(float(a), float(b)))

    @staticmethod
    def disk(center=(0.0, 0.0), radius: float = 1.0) -> "ShapeSpec":
        if radius <= 0:
            raise SizingError(f"disk radius must be positive, got {radius}")
        return ShapeSpec(kind="disk", center=tuple(map(float, center)), radius=float(radius))

    @staticmethod
    def rectangle(x0: float, x1: float, y0: float, y1: float) -> "ShapeSpec":
        if not (x1 > x0 and y1 > y0):
            raise SizingError("rectangle sides must have positive length")
        return ShapeSpec(kind="rectangle", bounds=((float(x0), float(x1)), (float(y0), float(y1))))

    @staticmethod
    def annulus(center=(0.0, 0.0), inner_radius: float = 0.5, radius: float = 1.0) -> "ShapeSpec":
        if not 0 < inner_radius < radius:
            raise SizingError("annulus needs 0 < inner_radius < radius")
        return ShapeSpec(kind="annulus", center=tuple(map(float, center)),
                         radius=float(radius), inner_radius=float(inner_radius))

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        """Positive strictly inside, negative outside, 1-Lipschitz inside."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "interval":
            a, b = self.bounds
            x = pts[..., 0] if pts.ndim > 1 else pts
            return np.minimum(x - a, b - x)
        if self.kind == "disk":
            return self.radius - _dist_to(pts, self.center)
        if self.kind == "rectangle":
            (x0, x1), (y0, y1) = self.bounds
            dx = np.minimum(pts[..., 0] - x0, x1 - pts[..., 0])
            dy = np.minimum(pts[..., 1] - y0, y1 - pts[..., 1])
            return np.minimum(dx, dy)
        if self.kind == "annulus":
            rho = _dist_to(pts, self.center)
            return np.minimum(self.radius - rho, rho - self.inner_radius)
        raise ValueError(f"unknown shape kind {self.kind!r}")

    @staticmethod
    def from_json(d: dict) -> "ShapeSpec":
        kind = d["kind"]
        if kind == "interval":
            return ShapeSpec.interval(*d["bounds"])
        if kind == "rectangle":
            (x0, x1), (y0, y1) = d["bounds"]
            return ShapeSpec.rectangle(x0, x1, y0, y1)
        if kind == "disk":
            return ShapeSpec.disk(d["center"], d["radius"])
        if kind == "annulus":
            return ShapeSpec.annulus(d["center"], d["inner_radius"], d["radius"])
        raise ValueError(f"unknown shape kind {kind!r}")


# ---------------------------------------------------------------------------
# grid and mask


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid; the center of cell (i, ...) is origin + index*h."""

    n: int
    h: float
    extents: tuple
    origin: tuple

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.n}")
        if not self.h > 0:
            raise ValueError("cell size must be positive")
        if len(self.extents) != self.n or len(self.origin) != self.n:
            raise ValueError("extents/origin length must match dimension")
        if any(e < 3 for e in self.extents):
            raise SizingError(f"need at least 3 cells per axis, got {self.extents}")

    @property
    def shape(self) -> tuple:
        return tuple(self.extents)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    def axis_centers(self, k: int) -> np.ndarray:
        return self.origin[k] + self.h * np.arange(self.extents[k])

    def meshgrid(self):
        return np.meshgrid(*(self.axis_centers(k) for k in range(self.n)), indexing="ij")

    def points(self) -> np.ndarray:
        """All cell centers, shape extents + (n,); cached, do not mutate."""
        cached = self.__dict__.get("_points")
        if cached is None:
            cached = np.stack(self.meshgrid(), axis=-1)
            self.__dict__["_points"] = cached
        return cached

    def cell_center(self, idx) -> tuple:
        return tuple(self.origin[k] + self.h * idx[k] for k in range(self.n))

    def nearest_cells(self, pts) -> np.ndarray:
        """Index of the cell nearest each point of shape (..., n), clipped to the grid."""
        idx = np.rint((np.asarray(pts, dtype=float) - self.origin) / self.h).astype(np.intp)
        return np.clip(idx, 0, np.asarray(self.extents) - 1)

    def to_json(self) -> dict:
        return {"n": self.n, "h": self.h, "extents": list(self.extents),
                "origin": list(self.origin)}

    @staticmethod
    def from_json(d: dict) -> "Grid":
        return Grid(n=d["n"], h=d["h"], extents=tuple(d["extents"]),
                    origin=tuple(d["origin"]))


@dataclass(frozen=True)
class DomainMask:
    """Cell classification: interior carries unknowns, boundary carries data.

    Boundary cells are the non-interior cells 8-adjacent to an interior cell,
    so that every face/transverse stencil used on interior cells stays inside
    interior + boundary.
    """

    grid: Grid
    shape: ShapeSpec
    interior: np.ndarray
    boundary: np.ndarray

    @property
    def exterior(self) -> np.ndarray:
        return ~(self.interior | self.boundary)

    @property
    def region(self) -> np.ndarray:
        return self.interior | self.boundary

    @property
    def interior_count(self) -> int:
        return int(self.interior.sum())

    def interior_volume(self) -> float:
        return self.interior_count * self.grid.cell_volume

    def validate(self) -> None:
        if not self.interior.any():
            raise SizingError("mask has no interior cells")
        if not self.boundary.any():
            raise SizingError("mask has no boundary cells")
        rim = self.interior.copy()
        rim[(slice(1, -1),) * self.grid.n] = False
        if rim.any():
            raise SizingError("interior cell on the grid edge has no boundary cell beyond it")
        # the default structure is face connectivity: one edge-connected component
        labels, count = ndimage.label(self.interior)
        if count != 1:
            raise SizingError(f"interior is not connected ({count} components)")
        grown = ndimage.binary_dilation(
            self.interior, structure=np.ones((3,) * self.grid.n, bool))
        if not ((grown & ~self.interior) == self.boundary).all():
            raise ValueError("boundary layer is not the exterior-adjacent layer")


def make_grid(shape: ShapeSpec, resolution: int) -> tuple[Grid, DomainMask]:
    """Build a grid with h = 1/resolution and classify cells against *shape*.

    1d intervals put the end centers on the two endpoints, the last one up
    to a cell beyond when the length is not a whole number of cells (those
    become the two boundary cells); 2d shapes are covered cell-centered with
    one extra margin ring so every interior stencil is in range.
    """
    resolution = int(resolution)
    if resolution < 8:
        raise SizingError(f"resolution must be >= 8 cells per unit, got {resolution}")
    h = 1.0 / resolution

    if shape.kind == "interval":
        a, b = shape.bounds
        if b - a <= 2 * h:
            raise SizingError("interval shorter than 2h")
        ncells = int(math.ceil((b - a) / h - 1e-9))
        grid = Grid(n=1, h=h, extents=(ncells + 1,), origin=(a,))
    elif shape.kind == "rectangle":
        (x0, x1), (y0, y1) = shape.bounds
        if min(x1 - x0, y1 - y0) <= 2 * h:
            raise SizingError("rectangle side shorter than 2h")
        nx = int(round((x1 - x0) / h))
        ny = int(round((y1 - y0) / h))
        grid = Grid(n=2, h=h, extents=(nx + 2, ny + 2),
                    origin=(x0 - h / 2, y0 - h / 2))
    elif shape.kind in ("disk", "annulus"):
        if shape.radius <= 2 * h or (shape.kind == "annulus"
                                     and shape.radius - shape.inner_radius <= 2 * h):
            raise SizingError("shape radius (or annulus gap) must exceed 2h")
        k = int(math.ceil(shape.radius / h)) + 2
        grid = Grid(n=2, h=h, extents=(2 * k + 1, 2 * k + 1),
                    origin=(shape.center[0] - k * h, shape.center[1] - k * h))
    else:
        raise ValueError(f"unknown shape kind {shape.kind!r}")

    pts = grid.points()
    inside = shape.signed_distance(pts) > 0
    mask = DomainMask(grid=grid, shape=shape, interior=inside, boundary=_ring(inside))
    mask.validate()
    return grid, mask


# ---------------------------------------------------------------------------
# scalar fields

PROVENANCE_TAGS = ("sampled", "solved", "lifted", "mollified", "derived")


@dataclass
class ScalarField:
    """Grid-sampled function; NaN marks undefined cells, -inf extended values.

    The -inf sentinel is legal only on fields flagged ``extended`` and is
    excluded from all arithmetic: operations either skip such cells with an
    accounted count or raise :class:`UndefinedCellError`.
    """

    grid: Grid
    values: np.ndarray
    provenance: str = "sampled"
    extended: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} != grid {self.grid.shape}")
        if self.provenance not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not self.extended and np.isneginf(self.values).any():
            raise ValueError("-inf values require an extended field")
        if np.isposinf(self.values).any():
            raise ValueError("+inf is never a legal field value")

    @property
    def defined(self) -> np.ndarray:
        return ~np.isnan(self.values)

    @property
    def finite(self) -> np.ndarray:
        return np.isfinite(self.values)

    @property
    def neg_inf_mask(self) -> np.ndarray:
        return np.isneginf(self.values)

    def neg_inf_fraction(self) -> float:
        defined = self.defined
        total = int(defined.sum())
        return float(self.neg_inf_mask.sum()) / total if total else 0.0

    def undefined_in(self, region: np.ndarray) -> int:
        """How many cells of the region carry no defined value."""
        return int((region & ~self.defined).sum())

    def with_values(self, values: np.ndarray, provenance: Optional[str] = None,
                    extended: Optional[bool] = None) -> "ScalarField":
        return ScalarField(grid=self.grid, values=np.asarray(values, float).copy(),
                           provenance=provenance or self.provenance,
                           extended=self.extended if extended is None else extended)

    def require_finite(self, where: np.ndarray, context: str) -> None:
        bad = where & ~self.finite
        if bad.any():
            cells = list(zip(*np.nonzero(bad)))
            raise UndefinedCellError(f"{context}: field not finite where required", cells)

    def _json_header(self) -> dict:
        return {"grid": self.grid.to_json(), "provenance": self.provenance,
                "extended": self.extended}

    def to_json(self) -> dict:
        return {**self._json_header(), "values": _json_values(self.values.ravel())}

    @staticmethod
    def from_json(d: dict) -> "ScalarField":
        grid = Grid.from_json(d["grid"])
        cells = np.array(d["values"], dtype=object)
        cells[np.equal(cells, None)] = np.nan
        cells[np.equal(cells, "-inf")] = NEG_INF
        vals = cells.astype(float).reshape(grid.shape, order="C")
        return ScalarField(grid=grid, values=vals, provenance=d["provenance"],
                           extended=d["extended"])

    def save(self, path) -> None:
        """Write ``to_json`` as one JSON line, the values through the C
        encoder in chunks of ``_SAVE_CHUNK`` cells (the bytes of
        ``json.dump``)."""
        head = json.dumps({**self._json_header(), "values": []})
        flat = self.values.ravel()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head[:-2])          # up to the values' opening bracket
            for start in range(0, flat.size, _SAVE_CHUNK):
                if start:
                    fh.write(", ")
                fh.write(json.dumps(_json_values(flat[start:start + _SAVE_CHUNK]))[1:-1])
            fh.write("]}\n")

    @staticmethod
    def load(path) -> "ScalarField":
        with open(path, "r", encoding="utf-8") as fh:
            return ScalarField.from_json(json.load(fh))


_SAVE_CHUNK = 1 << 16


def _json_values(flat: np.ndarray) -> list:
    """Flat cell values as JSON-ready objects: None for NaN, "-inf" for -inf."""
    out = flat.tolist()
    for i in np.flatnonzero(np.isnan(flat)):
        out[i] = None
    for i in np.flatnonzero(np.isneginf(flat)):
        out[i] = "-inf"
    return out


def cell_values(data, grid: Grid, where: np.ndarray, what: str,
                extended: bool = False) -> np.ndarray:
    """The one way problem data reaches the grid: the datum's values on the
    cells of ``where``, NaN elsewhere.

    data is None (zero), a number, a ScalarField on grid, or a callable that
    takes the cell centres of ``where`` as an (m, n) array and must return m
    values.  A field on another grid, even one of the same shape, or any
    other shape of values raises ValueError; NaN or +inf on a cell of
    ``where``, or -inf unless extended, raises UndefinedCellError naming the
    cells.  ``what`` names the cells and the datum in these messages, as in
    "interior cells of the density".
    """
    out = np.full(grid.shape, np.nan)
    m = int(where.sum())
    if isinstance(data, ScalarField):
        if data.grid != grid:
            raise ValueError(f"data for {what} is a field on another grid: {data.grid} "
                             f"is not {grid}")
        got = data.values[where]
    elif callable(data):
        got = np.asarray(data(grid.points()[where]), dtype=float)
    else:
        got = np.full(m, 0.0 if data is None else float(data))
    if got.shape != (m,):
        raise ValueError(f"data for {what} must be one value per cell, got shape "
                         f"{got.shape} for {m} cells")
    out[where] = got
    bad = where & (np.isnan(out) | np.isposinf(out) | (np.isneginf(out) & (not extended)))
    if bad.any():
        raise UndefinedCellError(f"infinite or NaN at {what}", list(zip(*np.nonzero(bad))))
    return out


def sample_function(f: Callable, grid: Grid, mask: DomainMask,
                    extended: bool = False, provenance: str = "sampled") -> ScalarField:
    """``cell_values`` of f on the interior and boundary cells, as a field."""
    return ScalarField(grid=grid, provenance=provenance, extended=extended,
                       values=cell_values(f, grid, mask.region,
                                          "domain cells of the sampled function", extended))


# ---------------------------------------------------------------------------
# mollification


def mollifier_kernel(n: int, h: float, eps: float) -> np.ndarray:
    """Discrete compactly supported bump at scale eps, normalized to sum 1.

    Profile exp(1/(s^2 - 1)) on s = |z|/eps < 1; the continuum normalizing
    constant is replaced by exact discrete normalization so that constants
    are preserved exactly.
    """
    if eps < 2 * h - 1e-12:
        raise SizingError(f"mollifier under-resolved: eps={eps} < 2h={2*h}")
    k = int(math.floor(eps / h + 1e-12))
    offs = np.arange(-k, k + 1) * h
    if n == 1:
        s2 = (offs / eps) ** 2
    else:
        zx, zy = np.meshgrid(offs, offs, indexing="ij")
        s2 = (zx ** 2 + zy ** 2) / eps ** 2
    w = np.zeros_like(s2)
    inside = s2 < 1.0
    w[inside] = np.exp(1.0 / (s2[inside] - 1.0))
    return w / w.sum()


def mollify_field(u: ScalarField, eps: float) -> ScalarField:
    """Discrete convolution with the unit-mass bump kernel at scale eps.

    The evaluation region shrinks by eps: output cells whose kernel support
    touches an undefined or -inf cell are undefined.
    """
    grid = u.grid
    w = mollifier_kernel(grid.n, grid.h, eps)
    finite = u.finite
    filled = np.where(finite, u.values, 0.0)
    support = (w > 0).astype(float)
    conv = signal.fftconvolve(filled, w, mode="same")
    cover = signal.fftconvolve(finite.astype(float), support, mode="same")
    valid = np.round(cover) >= support.sum() - 0.5
    out = np.where(valid, conv, np.nan)
    return ScalarField(grid=grid, values=out, provenance="mollified", extended=False)


# ---------------------------------------------------------------------------
# discrete sets and interface reconstruction


@dataclass
class SetGeometry:
    volume: float
    perimeter: float
    gamma_int: float
    gamma_bdy: float
    wall_length: float
    segment_count: int


#: interface piece kinds: a level crossing, the clip sphere, a mask wall
LEVEL, CLIP, WALL = 0, 1, 2


@dataclass(frozen=True)
class InterfaceSegments:
    """Interface pieces: endpoints p1, p2 of shape (k, n) and kind codes (k,).

    level_attained is True when a non-member cell across a crossed pair
    carries exactly the level value of the set's level source: the discrete
    signature of a critical (Sard-excluded) level, whose interface runs
    along a plateau and is ambiguous.
    """

    p1: np.ndarray
    p2: np.ndarray
    kind: np.ndarray
    level_attained: bool = False

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def length(self) -> np.ndarray:
        """Segment lengths in 2d; in 1d each crossing point counts 1."""
        if self.p1.shape[1] == 1:
            return np.ones(len(self))
        d = self.p2 - self.p1
        return np.hypot(d[:, 0], d[:, 1])

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.p1 + self.p2)


@dataclass
class DiscreteSet:
    """A set of interior cells with a subcell-reconstructed boundary.

    When the set came from a superlevel operation the generating field and
    threshold are kept so edge crossings can be interpolated; pure indicator
    sets fall back to midpoint crossings.  The reconstruction is made once,
    on the first call to ``segments`` or ``geometry``, and kept.
    """

    grid: Grid
    member: np.ndarray
    mask: DomainMask
    clip: Optional[tuple] = None          # (center tuple, radius)
    level_source: Optional[tuple] = None  # (values array, threshold)
    _geometry: Optional[SetGeometry] = None
    _segments: Optional[InterfaceSegments] = None

    @property
    def cell_count(self) -> int:
        return int(self.member.sum())

    @property
    def volume(self) -> float:
        return self.cell_count * self.grid.cell_volume

    def is_empty(self) -> bool:
        return not self.member.any()

    def segments(self) -> InterfaceSegments:
        """The pieces of ``interface_segments``, reconstructed once."""
        if self._segments is None:
            self._segments = interface_segments(self)
        return self._segments

    def geometry(self) -> SetGeometry:
        """Volume, reconstructed perimeter and its split: gamma_int is the
        pieces within h of the clip sphere, gamma_bdy the rest."""
        if self._geometry is None:
            self._geometry = _reconstruct_geometry(self)
        return self._geometry

    def contains(self, other: "DiscreteSet") -> bool:
        return bool((other.member & ~self.member).sum() == 0)


def superlevel_set(u: ScalarField, mask: DomainMask, t: float,
                   r: Optional[float] = None, center=None) -> DiscreteSet:
    """Cells with u > t, optionally clipped to the ball of radius r.

    An empty result is legal and reports volume zero.  NaN and -inf cells
    are never members (they compare false).  The clip ball's distances are
    taken on its window only (``ball_distances``).
    """
    if not np.isfinite(t):
        raise ValueError("threshold t must be finite")
    grid = u.grid
    member = mask.interior & (u.values > t)
    clip = None
    if r is not None:
        if center is None:
            center = _shape_center(mask.shape)
        inside = np.zeros(grid.shape, bool)
        if r > 0:                   # no cell is nearer than a radius <= 0 (or NaN)
            win, dist = ball_distances(grid, center, r)
            inside[win] = dist < r
        member &= inside
        clip = (tuple(center), float(r))
    return DiscreteSet(grid=grid, member=member, mask=mask, clip=clip,
                       level_source=(u.values, float(t)))


def _shape_center(shape: ShapeSpec):
    if shape.kind == "interval":
        a, b = shape.bounds
        return (0.5 * (a + b),)
    if shape.kind == "rectangle":
        (x0, x1), (y0, y1) = shape.bounds
        return (0.5 * (x0 + x1), 0.5 * (y0 + y1))
    return shape.center


def _ring(cells: np.ndarray) -> np.ndarray:
    """Cells sharing a face or a corner with *cells*, outside them."""
    return ndimage.binary_dilation(cells, structure=np.ones((3,) * cells.ndim, bool)) & ~cells


def circle_points(center, radius: float, count: int) -> np.ndarray:
    """count points on a circle at the angles (k + 1/2) 2 pi / count, shape (count, 2)."""
    ang = (np.arange(count) + 0.5) * 2 * math.pi / count
    return np.stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)],
                    axis=1)


def _dist_to(pts: np.ndarray, center) -> np.ndarray:
    """Euclidean distance of points of shape (..., n) to center."""
    if pts.shape[-1] == 1:
        return np.abs(pts[..., 0] - center[0])
    return np.hypot(pts[..., 0] - center[0], pts[..., 1] - center[1])


def box_window(grid: Grid, lows, highs, margin: int = 1) -> tuple:
    """Slices of the cells whose centres lie within *margin* cells of the box
    with corners *lows* and *highs*, clipped to the grid; every cell whose
    centre lies in the open box is inside it.  The corners may be infinite,
    not NaN."""
    win = []
    for k in range(grid.n):
        # clamping before rounding keeps an infinite corner finite; it moves no
        # end that the clip to the grid below would keep
        lo = (lows[k] - grid.origin[k]) / grid.h
        hi = (highs[k] - grid.origin[k]) / grid.h
        lo = int(math.floor(max(lo, -1.0))) - margin
        hi = int(math.ceil(min(hi, grid.extents[k]))) + margin + 1
        # a box below the grid gets an empty window, not a stop counted from the end
        win.append(slice(max(lo, 0), max(min(hi, grid.extents[k]), 0)))
    return tuple(win)


def ball_distances(grid: Grid, center, radius: float, margin: int = 1) -> tuple:
    """The ball's window, the ``box_window`` of its bounding box (so every
    cell nearer to *center* than *radius* is inside it), and the distances
    of the window's cells to *center*.  Ball solves, clip balls and every
    ball-local sum read these instead of the whole grid."""
    win = box_window(grid, [c - radius for c in center], [c + radius for c in center],
                     margin)
    return win, _dist_to(grid.points()[win], center)


def isoperimetric_floor(s: DiscreteSet) -> float:
    """Lower bound c_n |S|^(1-1/n) that reconstructed perimeters must respect."""
    c = ISOPERIMETRIC_CONSTANT[s.grid.n]
    return c * s.volume ** (1.0 - 1.0 / s.grid.n)


# Marching squares on the member grid padded by one non-member ring.  A
# square is named by its lo-lo corner, padded cell (i, j) or flat k = i w + j
# with w padded cells per row.  Its corner c (c0=lo-lo, c1=hi-lo, c2=hi-hi,
# c3=lo-hi; bit c of the case index) is flat cell k + (0, w, w + 1, 1)[c]
# and padded cell (i, j) + _CORNER_AXES[:, c].
_CORNER_AXES = np.array([(0, 1, 1, 0), (0, 0, 1, 1)])


def _case_table() -> np.ndarray:
    """[bits, center_in] -> two segments, each as its two crossings' (member
    corner, non-member corner); -1 where there is none."""
    edges = ((0, 1), (1, 2), (3, 2), (0, 3))        # bottom, right, top, left
    pairs = np.full((16, 2, 2, 2), -1)
    single = {1: (3, 0), 2: (0, 1), 4: (1, 2), 8: (2, 3), 3: (3, 1), 6: (0, 2),
              12: (3, 1), 9: (0, 2), 7: (3, 2), 11: (1, 2), 13: (0, 1), 14: (3, 0)}
    for bits, pair in single.items():
        pairs[bits, :, 0] = pair
    # saddles: a center inside joins the two member corners through it
    pairs[5, 1] = pairs[10, 0] = ((0, 1), (2, 3))
    pairs[5, 0] = pairs[10, 1] = ((3, 0), (1, 2))
    table = np.full(pairs.shape + (2,), -1)
    for bits, center_in, slot, end in np.argwhere(pairs >= 0):
        a, b = edges[pairs[bits, center_in, slot, end]]
        table[bits, center_in, slot, end] = (a, b) if bits >> a & 1 else (b, a)
    return table


_CASE_TABLE = _case_table()


def _on_grid(grid: Grid, at) -> np.ndarray:
    """Which padded cells, n integer coordinate arrays, lie on the grid."""
    on = True
    for c, e in zip(at, grid.shape):
        on = on & (c >= 1) & (c <= e)
    return on


def _level_at(s: DiscreteSet, at) -> np.ndarray:
    """u - t of the level source at padded cells (n integer coordinate
    arrays), NaN off the grid."""
    vals, t = s.level_source
    cells = tuple(np.clip(c - 1, 0, e - 1) for c, e in zip(at, s.grid.shape))
    return np.where(_on_grid(s.grid, at), vals[cells] - t, np.nan)


def _edge_crossings(s: DiscreteSet, at_in, at_out, a, b):
    """Crossing points (n coordinate arrays), kinds and whether some b is 0,
    on the pairs of a member cell at_in and a non-member cell at_out.

    at_in and at_out are n integer coordinate arrays of padded cells, all of
    one shape; a and b are u - t at them (NaN off the grid), or None when the
    set has no level source.
    """
    grid = s.grid
    p_in = [o + (c - 1) * grid.h for o, c in zip(grid.origin, at_in)]
    p_out = [o + (c - 1) * grid.h for o, c in zip(grid.origin, at_out)]
    sources = []
    attained = False
    if a is not None:
        attained = bool((b == 0.0).any())
        sources.append((LEVEL, a, b))
    if s.clip is not None:
        # the member cell is on the grid; the other may be a padding cell
        center, r = s.clip
        sources.append((CLIP, r - _dist_to(np.stack(p_in, axis=-1), center),
                        np.where(_on_grid(grid, at_out),
                                 r - _dist_to(np.stack(p_out, axis=-1), center), np.nan)))
    theta = np.full(at_in[0].shape, 0.5)
    kind = np.full(at_in[0].shape, WALL)
    # level before clip, and a clip crossing must be strictly nearer: level wins ties
    for code, a, b in sources:
        with np.errstate(divide="ignore", invalid="ignore"):
            th = a / (a - b)
        take = (np.isfinite(a) & np.isfinite(b) & (a > 0.0) & (b <= 0.0)
                & ((kind == WALL) | (th < theta)))
        theta = np.where(take, th, theta)
        kind = np.where(take, code, kind)
    # 1d steps exactly h from the member center, 2d along the center difference
    if grid.n == 2:
        steps = [q - p for p, q in zip(p_in, p_out)]
    else:
        steps = [(co - ci) * grid.h for ci, co in zip(at_in, at_out)]
    return [p + theta * d for p, d in zip(p_in, steps)], kind, attained


def interface_segments(s: DiscreteSet) -> InterfaceSegments:
    """The subcell reconstruction of the boundary of a discrete set.

    Every member/non-member cell pair is crossed once.  The crossing sits
    where the nearest sign-changing constraint (u - t of the level source,
    r - |x - c| of the clip ball) vanishes on the linear interpolant from
    the member center; the level constraint wins ties, and a pair across
    which no constraint changes sign (a mask wall, or an indicator set) is
    cut at its midpoint and tagged wall.

    In 2d, marching squares joins the crossings of each mixed square into
    segments.  The saddle cases (diagonal corners in) are resolved by the
    mean of the four corner values, level values where finite and +-1 for
    member/non-member otherwise: a positive center joins the member corners.
    Nielsen & Hamann's asymptotic decider (1991) is the reference
    alternative, not taken here.  Zero-length segments are dropped.  In 1d
    each crossing is one piece with p1 == p2 and unit length.

    A piece is CLIP when its midpoint lies within h of the clip sphere, else
    WALL when both its crossings are walls, else LEVEL.

    The kernel touches the whole grid only to find the mixed squares: 2x2
    sums over flat views of a uint8 member grid padded by one non-member
    ring.  Everything after works on the mixed squares' corners alone: their
    coordinates from divmod of the square index, u - t gathered there (NaN
    off the grid), the case table's member and non-member corner of each
    crossing, and the crossing computed per axis.
    """
    grid = s.grid
    padded = tuple(e + 2 for e in grid.shape)
    m = np.zeros(padded, np.uint8)
    m[(slice(1, -1),) * grid.n] = s.member
    m = m.ravel()
    a = b = None
    if grid.n == 1:
        lo = np.flatnonzero(m[:-1] != m[1:])
        first_in = m[lo] == 1
        # one end per piece: the crossing arrays are (1, pieces)
        at_in = (np.where(first_in, lo, lo + 1)[None],)
        at_out = (np.where(first_in, lo + 1, lo)[None],)
        if s.level_source is not None:
            a, b = _level_at(s, at_in), _level_at(s, at_out)
    else:
        w = padded[1]
        offset = np.array([0, w, w + 1, 1])[:, None]
        # the square at flat k exists for k < m.size - w - 1; the squares
        # that wrap from the last column hold padding cells only, so none is mixed
        span = m.size - w - 1
        count = m[:span] + m[w:w + span]
        count += m[w + 1:w + 1 + span]
        count += m[1:1 + span]
        sq = np.flatnonzero((count & 3) != 0)              # 1 to 3 members
        inside = m[sq + offset]                             # (4 corners, squares)
        at = tuple(x + d[:, None] for x, d in zip(divmod(sq, w), _CORNER_AXES))
        vals = np.where(inside, 1.0, -1.0)
        level = None
        if s.level_source is not None:
            level = _level_at(s, at)
            vals = np.where(np.isfinite(level), level, vals)
        center_in = (vals[0] + vals[1] + vals[2] + vals[3]) / 4.0 > 0
        bits = inside[0] | inside[1] << 1 | inside[2] << 2 | inside[3] << 3
        cases = _CASE_TABLE[bits, center_in.astype(int)]
        q, slot = np.nonzero(cases[:, :, 0, 0] >= 0)        # square-major order
        # flat (corner, square) indices of the (member, non-member) corner at
        # each end: (2, 2 ends, segments)
        ends = cases[q, slot].T * len(sq) + q
        at_in = tuple(x.ravel()[ends[0]] for x in at)
        at_out = tuple(x.ravel()[ends[1]] for x in at)
        if level is not None:
            a, b = level.ravel()[ends[0]], level.ravel()[ends[1]]
    p, k, attained = _edge_crossings(s, at_in, at_out, a, b)
    kind = np.where((k[0] == WALL) & (k[-1] == WALL), WALL, LEVEL)
    if s.clip is not None:
        center, r = s.clip
        mid = np.stack([0.5 * (x[0] + x[-1]) for x in p], axis=-1)
        kind[np.abs(_dist_to(mid, center) - r) <= grid.h] = CLIP
    p1, p2 = np.stack([x[0] for x in p], axis=-1), np.stack([x[-1] for x in p], axis=-1)
    if grid.n == 2:
        keep = (p[0][0] != p[0][1]) | (p[1][0] != p[1][1])
        p1, p2, kind = p1[keep], p2[keep], kind[keep]
    return InterfaceSegments(p1=p1, p2=p2, kind=kind, level_attained=attained)


def _reconstruct_geometry(s: DiscreteSet) -> SetGeometry:
    segs = s.segments()
    length = segs.length
    total = float(length.sum())
    g_int = float(length[segs.kind == CLIP].sum())
    return SetGeometry(volume=s.volume, perimeter=total, gamma_int=g_int,
                       gamma_bdy=total - g_int,
                       wall_length=float(length[segs.kind == WALL].sum()),
                       segment_count=len(segs))
