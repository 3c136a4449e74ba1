"""Grids, masked domains, scalar fields, level sets and discrete set geometry.

Everything downstream works on a uniform cell grid: a field value lives at
each cell center, a domain mask classifies cells as interior / boundary /
exterior, and subsets of cells are measured with an exact cell-count volume
and a subcell linear interface perimeter (marching reconstruction, so that
perimeters converge to the Euclidean length of smooth boundaries rather
than to the axis-aligned l1 length).
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

    @property
    def dimension(self) -> int:
        return 1 if self.kind == "interval" else 2

    def signed_distance(self, pts: np.ndarray) -> np.ndarray:
        """Positive strictly inside, negative outside, 1-Lipschitz inside."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "interval":
            a, b = self.bounds
            x = pts[..., 0] if pts.ndim > 1 else pts
            return np.minimum(x - a, b - x)
        if self.kind == "disk":
            rho = np.hypot(pts[..., 0] - self.center[0], pts[..., 1] - self.center[1])
            return self.radius - rho
        if self.kind == "rectangle":
            (x0, x1), (y0, y1) = self.bounds
            dx = np.minimum(pts[..., 0] - x0, x1 - pts[..., 0])
            dy = np.minimum(pts[..., 1] - y0, y1 - pts[..., 1])
            return np.minimum(dx, dy)
        if self.kind == "annulus":
            rho = np.hypot(pts[..., 0] - self.center[0], pts[..., 1] - self.center[1])
            return np.minimum(self.radius - rho, rho - self.inner_radius)
        raise ValueError(f"unknown shape kind {self.kind!r}")

    def boundary_length(self) -> float:
        """Measure of the shape boundary (a point count in 1d)."""
        if self.kind == "interval":
            return 2.0
        if self.kind == "disk":
            return 2.0 * math.pi * self.radius
        if self.kind == "rectangle":
            (x0, x1), (y0, y1) = self.bounds
            return 2.0 * ((x1 - x0) + (y1 - y0))
        if self.kind == "annulus":
            return 2.0 * math.pi * (self.radius + self.inner_radius)
        raise ValueError(self.kind)

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "interval":
            d["bounds"] = list(self.bounds)
        elif self.kind == "rectangle":
            d["bounds"] = [list(b) for b in self.bounds]
        else:
            d["center"] = list(self.center)
            d["radius"] = self.radius
            if self.kind == "annulus":
                d["inner_radius"] = self.inner_radius
        return d

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
        axes = [self.axis_centers(k) for k in range(self.n)]
        if self.n == 1:
            return (axes[0],)
        return np.meshgrid(*axes, indexing="ij")

    def points(self) -> np.ndarray:
        """All cell centers, shape extents + (n,); cached, do not mutate."""
        cached = self.__dict__.get("_points")
        if cached is None:
            cached = np.stack(self.meshgrid(), axis=-1)
            self.__dict__["_points"] = cached
        return cached

    def cell_center(self, idx) -> tuple:
        return tuple(self.origin[k] + self.h * idx[k] for k in range(self.n))

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
        structure = np.ones((3,) * self.grid.n, bool) if self.grid.n == 2 else None
        if self.grid.n == 1:
            labels, count = ndimage.label(self.interior)
        else:
            # 4-connectivity: interior must be one edge-connected component
            labels, count = ndimage.label(self.interior,
                                          structure=ndimage.generate_binary_structure(2, 1))
        if count != 1:
            raise SizingError(f"interior is not connected ({count} components)")
        grown = ndimage.binary_dilation(
            self.interior, structure=np.ones((3,) * self.grid.n, bool))
        if not ((grown & ~self.interior) == self.boundary).all():
            raise ValueError("boundary layer is not the exterior-adjacent layer")


def make_grid(shape: ShapeSpec, resolution: int) -> tuple[Grid, DomainMask]:
    """Build a grid with h = 1/resolution and classify cells against *shape*.

    1d intervals place the end centers exactly on the two endpoints (those
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
        ncells = int(round((b - a) / h))
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

    def copy(self) -> "ScalarField":
        return self.with_values(self.values)

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


def sample_function(f: Callable, grid: Grid, mask: DomainMask,
                    extended: bool = False, provenance: str = "sampled") -> ScalarField:
    """Evaluate f at every interior and boundary cell center.

    f receives an (m, n) array of points and must return m values; -inf
    return values are accepted only with extended=True, NaN is always an
    error naming the offending cell.
    """
    pts = grid.points().reshape(-1, grid.n)
    region = mask.region.ravel()
    vals = np.full(pts.shape[0], np.nan)
    out = np.asarray(f(pts[region]), dtype=float)
    if out.shape != (int(region.sum()),):
        raise ValueError("sampled function must return one value per point")
    vals[region] = out
    vals = vals.reshape(grid.shape)
    nan_cells = np.isnan(vals) & mask.region
    if nan_cells.any():
        cells = list(zip(*np.nonzero(nan_cells)))
        raise UndefinedCellError("function returned NaN at domain cells", cells)
    if not extended and np.isneginf(vals).any():
        cells = list(zip(*np.nonzero(np.isneginf(vals))))
        raise UndefinedCellError(
            "function returned -inf but the field was not declared extended", cells)
    return ScalarField(grid=grid, values=vals, provenance=provenance, extended=extended)


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
    """Interface pieces: endpoints p1, p2 of shape (k, n) and kind codes (k,)."""

    p1: np.ndarray
    p2: np.ndarray
    kind: np.ndarray

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
    sets fall back to midpoint crossings.
    """

    grid: Grid
    member: np.ndarray
    mask: DomainMask
    clip: Optional[tuple] = None          # (center tuple, radius)
    level_source: Optional[tuple] = None  # (values array, threshold)
    _geometry: Optional[SetGeometry] = None

    @property
    def cell_count(self) -> int:
        return int(self.member.sum())

    @property
    def volume(self) -> float:
        return self.cell_count * self.grid.cell_volume

    @property
    def perimeter(self) -> float:
        return self.geometry().perimeter

    def is_empty(self) -> bool:
        return not self.member.any()

    def geometry(self) -> SetGeometry:
        if self._geometry is None:
            self._geometry = _reconstruct_geometry(self)
        return self._geometry

    def contains(self, other: "DiscreteSet") -> bool:
        return bool((other.member & ~self.member).sum() == 0)


def superlevel_set(u: ScalarField, mask: DomainMask, t: float,
                   r: Optional[float] = None, center=None) -> DiscreteSet:
    """Cells with u > t, optionally clipped to the ball of radius r.

    An empty result is legal and reports volume zero.
    """
    if not np.isfinite(t):
        raise ValueError("threshold t must be finite")
    grid = u.grid
    member = mask.interior & u.defined & (np.where(u.defined, u.values, NEG_INF) > t)
    clip = None
    if r is not None:
        if center is None:
            center = _shape_center(mask.shape)
        dist = _dist_to(grid.points(), center)
        member = member & (dist < r)
        clip = (tuple(center), float(r))
    return DiscreteSet(grid=grid, member=member, mask=mask, clip=clip,
                       level_source=(u.values, float(t)))


def set_geometry(s: DiscreteSet) -> SetGeometry:
    """Volume, reconstructed perimeter and the interior/boundary split.

    gamma_int collects interface pieces whose midpoint lies within h of the
    clip sphere; everything else (level crossings and mask walls) counts as
    gamma_bdy.
    """
    return s.geometry()


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


def _dist_to(pts: np.ndarray, center) -> np.ndarray:
    """Euclidean distance of points of shape (..., n) to center."""
    if pts.shape[-1] == 1:
        return np.abs(pts[..., 0] - center[0])
    return np.hypot(pts[..., 0] - center[0], pts[..., 1] - center[1])


def isoperimetric_floor(s: DiscreteSet) -> float:
    """Lower bound c_n |S|^(1-1/n) that reconstructed perimeters must respect."""
    c = ISOPERIMETRIC_CONSTANT[s.grid.n]
    return c * s.volume ** (1.0 - 1.0 / s.grid.n)


# Marching squares on the member grid padded by one non-member ring.  Corner
# c of the square whose lo-lo corner is padded cell (i, j) is (i, j) +
# _CORNERS[c] (c0=lo-lo, c1=hi-lo, c2=hi-hi, c3=lo-hi; bit c of the case
# index); edges 0..3 = bottom, right, top, left join the corners in _EDGES.
_CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
_EDGES = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])


def _case_table() -> np.ndarray:
    """[bits, center_in] -> two (edge, edge) pairs, -1 where there is none."""
    table = np.full((16, 2, 2, 2), -1)
    single = {1: (3, 0), 2: (0, 1), 4: (1, 2), 8: (2, 3), 3: (3, 1), 6: (0, 2),
              12: (3, 1), 9: (0, 2), 7: (3, 2), 11: (1, 2), 13: (0, 1), 14: (3, 0)}
    for bits, pair in single.items():
        table[bits, :, 0] = pair
    # saddles: a center inside joins the two member corners through it
    table[5, 1] = table[10, 0] = ((0, 1), (2, 3))
    table[5, 0] = table[10, 1] = ((3, 0), (1, 2))
    return table


_CASE_TABLE = _case_table()


def _at(arr: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """arr at integer cells of shape (..., n)."""
    return arr[tuple(np.moveaxis(cells, -1, 0))]


def _centers(grid: Grid, cells: np.ndarray) -> np.ndarray:
    """Center coordinates of padded cells (..., n)."""
    return np.asarray(grid.origin) + (cells - 1) * grid.h


def _constraint_at(s: DiscreteSet, code: int, cells: np.ndarray) -> np.ndarray:
    """Level (u - t) or clip (r - |x - c|) value at padded cells, NaN off the grid."""
    idx = cells - 1
    on = ((idx >= 0) & (idx < s.grid.shape)).all(axis=-1)
    out = np.full(on.shape, np.nan)
    if code == LEVEL:
        vals, t = s.level_source
        out[on] = _at(vals, idx[on]) - t
    else:
        center, r = s.clip
        out[on] = r - _dist_to(_centers(s.grid, cells[on]), center)
    return out


def _edge_crossings(s: DiscreteSet, member: np.ndarray, cells: np.ndarray):
    """Crossing points (..., n) and kinds (...) on cell pairs (..., 2, n)."""
    first_in = _at(member, cells[..., 0, :])[..., None]
    c_in = np.where(first_in, cells[..., 0, :], cells[..., 1, :])
    c_out = np.where(first_in, cells[..., 1, :], cells[..., 0, :])
    theta = np.full(c_in.shape[:-1], 0.5)
    kind = np.full(c_in.shape[:-1], WALL)
    # level before clip, and a clip crossing must be strictly nearer: level wins ties
    for code, source in ((LEVEL, s.level_source), (CLIP, s.clip)):
        if source is None:
            continue
        a, b = _constraint_at(s, code, c_in), _constraint_at(s, code, c_out)
        with np.errstate(divide="ignore", invalid="ignore"):
            th = a / (a - b)
        take = (np.isfinite(a) & np.isfinite(b) & (a > 0.0) & (b <= 0.0)
                & ((kind == WALL) | (th < theta)))
        theta = np.where(take, th, theta)
        kind = np.where(take, code, kind)
    p_in, p_out = _centers(s.grid, c_in), _centers(s.grid, c_out)
    # 1d steps exactly h from the member center, 2d along the center difference
    step = p_out - p_in if s.grid.n == 2 else (c_out - c_in) * s.grid.h
    return p_in + theta[..., None] * step, kind


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
    """
    grid = s.grid
    m = np.pad(s.member, 1, constant_values=False)
    if grid.n == 1:
        lo = np.flatnonzero(m[:-1] != m[1:])
        p, k = _edge_crossings(s, m, np.stack([lo, lo + 1], axis=-1)[..., None])
        p1, p2, k1, k2 = p, p, k, k
    else:
        corners = (m[:-1, :-1], m[1:, :-1], m[1:, 1:], m[:-1, 1:])
        mixed = np.logical_or.reduce(corners) & ~np.logical_and.reduce(corners)
        cells = np.argwhere(mixed)[:, None, :] + _CORNERS     # (squares, 4, 2)
        inside = _at(m, cells)
        vals = np.where(inside, 1.0, -1.0)
        if s.level_source is not None:
            level = _constraint_at(s, LEVEL, cells)
            vals = np.where(np.isfinite(level), level, vals)
        center_in = (vals[:, 0] + vals[:, 1] + vals[:, 2] + vals[:, 3]) / 4.0 > 0
        pairs = _CASE_TABLE[inside @ (1 << np.arange(4)), center_in.astype(int)]
        sq, slot = np.nonzero(pairs[..., 0] >= 0)                # square-major order
        p, k = _edge_crossings(s, m, cells[sq[:, None, None], _EDGES[pairs[sq, slot]]])
        p1, p2, k1, k2 = p[:, 0], p[:, 1], k[:, 0], k[:, 1]
    kind = np.where((k1 == WALL) & (k2 == WALL), WALL, LEVEL)
    if s.clip is not None:
        center, r = s.clip
        kind[np.abs(_dist_to(0.5 * (p1 + p2), center) - r) <= grid.h] = CLIP
    segs = InterfaceSegments(p1=p1, p2=p2, kind=kind)
    if grid.n == 2:
        keep = segs.length != 0.0
        segs = InterfaceSegments(p1=p1[keep], p2=p2[keep], kind=kind[keep])
    return segs


def _reconstruct_geometry(s: DiscreteSet) -> SetGeometry:
    segs = interface_segments(s)
    length = segs.length
    total = float(length.sum())
    g_int = float(length[segs.kind == CLIP].sum())
    return SetGeometry(volume=s.volume, perimeter=total, gamma_int=g_int,
                       gamma_bdy=total - g_int,
                       wall_length=float(length[segs.kind == WALL].sum()),
                       segment_count=len(segs))

