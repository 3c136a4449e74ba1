"""Level-set analytics: Harnack reports, co-area profiles, margins, decay.

Superlevel sets of a field inside clip balls are measured with the subcell
interface machinery; from those come the interior/boundary interface split,
the geodesic radius of the spherical trace, co-area consistency tables, the
measure-vs-perimeter margin of a set family, and the decay-threshold check
behind uniform lower bounds.  Level interfaces take one path in 1d and 2d:
the pieces of ``interface_segments`` that cross the level (segments in 2d,
crossing points of unit measure in 1d), with |Du| interpolated at each.
Each set is reconstructed once (``DiscreteSet.segments``): its geometry,
level pieces and critical-level flag read the same segments.  The margin
reduces the measure to one per-cell mass array and sums it over each member
of the family: rectangles and intervals through a summed-area table (all
rectangles of one row start at once), balls over their bounding box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .field import (
    LEVEL,
    DiscreteSet,
    DomainMask,
    ScalarField,
    SizingError,
    ball_distances,
    circle_points,
    superlevel_set,
)
from .mco import face_gradients, face_sides


#: default threshold parameter for the steep-gradient interface fraction
def default_delta(n: int) -> float:
    return 4.0 ** (-n)


# ---------------------------------------------------------------------------
# per-(r, t) level set statistics


@dataclass
class LevelSetStats:
    r: float
    t: float
    volume: float
    gamma_int: float
    gamma_bdy: float
    rho: float                  # geodesic (arc half-length) radius on the clip circle
    ratio_bdy_int: float        # inf when gamma_int is empty
    steep_fraction: float       # fraction of gamma_bdy with |Du| > 2/sqrt(delta)
    delta: float
    empty: bool = False
    ambiguous: bool = False     # interface ran through near-flat gradient cells


def level_set_report(u: ScalarField, mask: DomainMask, r: float, t: float,
                     delta: Optional[float] = None, center=None) -> LevelSetStats:
    """Geometry of the superlevel set of u above t clipped to the r-ball."""
    n = u.grid.n
    delta = default_delta(n) if delta is None else float(delta)
    s = superlevel_set(u, mask, t, r=r, center=center)
    if s.is_empty():
        return LevelSetStats(r=r, t=t, volume=0.0, gamma_int=0.0, gamma_bdy=0.0,
                             rho=0.0, ratio_bdy_int=float("nan"), steep_fraction=0.0,
                             delta=delta, empty=True)
    geo = s.geometry()
    rho = geo.gamma_int / 2.0
    ratio = geo.gamma_bdy / geo.gamma_int if geo.gamma_int > 0 else float("inf")
    steep, ambiguous = _steep_interface_fraction(u, s, delta)
    ambiguous = ambiguous or s.segments().level_attained
    return LevelSetStats(r=r, t=t, volume=geo.volume, gamma_int=geo.gamma_int,
                         gamma_bdy=geo.gamma_bdy, rho=rho, ratio_bdy_int=ratio,
                         steep_fraction=steep, delta=delta, ambiguous=ambiguous)


def _interp_gradient(u: ScalarField, points: np.ndarray) -> np.ndarray:
    """|Du| at points (k, n) by bilinear interpolation of the central
    differences of ``mco.cell_gradients``, taken at the cells read only."""
    grid, v = u.grid, u.values

    def derivative(a):
        def at(cell):
            # NaN, as in cell_gradients, at the edge along a and beside non-finite values
            c, top = cell[a], grid.extents[a] - 1
            hi, lo = (v[cell[:a] + (np.clip(c + d, 0, top),) + cell[a + 1:]] for d in (1, -1))
            ok = (c > 0) & (c < top) & np.isfinite(hi) & np.isfinite(lo)
            return np.where(ok, (hi - lo) / (2 * grid.h), np.nan)
        return at

    comps = [_bilinear(grid, derivative(a), points) for a in range(grid.n)]
    return np.hypot(*comps) if grid.n == 2 else np.abs(comps[0])


def _bilinear(grid, at, points: np.ndarray) -> np.ndarray:
    """``at(cells)``, cells an index tuple, interpolated at points (k, n) from
    the corners of their cell blocks, read in one call; a block with undefined
    values gives the mean of the defined ones, else NaN."""
    x = (points - np.asarray(grid.origin)) / grid.h
    idx = np.clip(np.floor(x).astype(int), 0, np.asarray(grid.extents) - 2)
    frac = np.clip(x - idx, 0.0, 1.0)
    if grid.n == 1:
        i, f = idx[:, 0], frac[:, 0]
        a, b = at((np.stack([i, i + 1]),))
        return np.where(np.isnan(a), b, np.where(np.isnan(b), a, a * (1 - f) + b * f))
    i, j = idx[:, 0], idx[:, 1]
    fx, fy = frac[:, 0], frac[:, 1]
    block = at((np.stack([i, i, i + 1, i + 1]), np.stack([j, j + 1, j, j + 1])))
    ok = ~np.isnan(block)
    with np.errstate(invalid="ignore"):
        mean = np.where(ok, block, 0.0).sum(axis=0) / ok.sum(axis=0)
    b00, b01, b10, b11 = block
    full = (b00 * (1 - fx) * (1 - fy) + b10 * fx * (1 - fy)
            + b01 * (1 - fx) * fy + b11 * fx * fy)
    return np.where(ok.all(axis=0), full, mean)


def _steep_interface_fraction(u: ScalarField, s: DiscreteSet, delta: float):
    """Length fraction of the level interface where |Du| > 2 delta^-1/2."""
    seg, g = _level_pieces(u, s)
    finite = np.isfinite(g)
    ambiguous = bool(not finite.all() or (g[finite] < 1e-8).any())
    total = float(seg[finite].sum())
    steep = float(seg[finite & (g > 2.0 / math.sqrt(delta))].sum())
    frac = steep / total if total > 0 else 0.0
    return frac, ambiguous


def _level_pieces(u: ScalarField, s: DiscreteSet):
    """Lengths of the level-interface segments and |Du| at their midpoints."""
    segs = s.segments()
    level = segs.kind == LEVEL
    return segs.length[level], _interp_gradient(u, segs.midpoint[level])


# ---------------------------------------------------------------------------
# co-area profile


@dataclass
class CoareaRow:
    t: float
    volume: float
    dvolume_dt: float
    interface_integral: float   # integral of 1/|Du| over the level interface
    flagged: bool


@dataclass
class CoareaTable:
    rows: list
    max_mismatch: float         # worst |phi' + integral| / max(|phi'|, floor)


def coarea_profile(u: ScalarField, mask: DomainMask, r: Optional[float] = None,
                   levels: Optional[Sequence[float]] = None,
                   center=None) -> CoareaTable:
    """Superlevel volume phi(t), its t-derivative, and the co-area integral.

    phi' comes from centered differencing on the level grid; the co-area
    integral quadratures 1/|Du| over the level pieces of the reconstructed
    interface (segments in 2d, crossing points in 1d; clip and mask-wall
    pieces do not count).  Levels where the interface runs through
    undefined or |Du| < 1e-8 cells, or attains the level exactly, are flagged
    (the derivative can be meaningless there) and excluded from the
    mismatch summary.
    """
    if u.provenance not in ("solved", "mollified", "sampled", "lifted"):
        raise ValueError("co-area profile needs a field, not a density")
    vals = u.values[mask.interior & u.defined]
    if levels is None:
        lo, hi = np.quantile(vals, [0.05, 0.95])
        levels = np.linspace(lo, hi, 21)
    levels = np.asarray(sorted(levels), dtype=float)
    phis = []
    integrals = []
    flags = []
    for t in levels:
        s = superlevel_set(u, mask, float(t), r=r, center=center)
        phis.append(s.volume)
        if s.is_empty():
            integrals.append(0.0)
            flags.append(False)
            continue
        seg, gmag = _level_pieces(u, s)
        ok = np.isfinite(gmag) & (gmag >= 1e-8)
        integrals.append(float((seg[ok] / gmag[ok]).sum()))
        flags.append(s.segments().level_attained or not ok.all())
    phis = np.asarray(phis)
    dphi = (np.gradient(phis, levels) if len(levels) > 1
            else np.full(1, float("nan")))
    rows = []
    mism = 0.0
    for k, t in enumerate(levels):
        interiorish = 0 < k < len(levels) - 1
        row = CoareaRow(t=float(t), volume=float(phis[k]), dvolume_dt=float(dphi[k]),
                        interface_integral=float(integrals[k]), flagged=bool(flags[k]))
        rows.append(row)
        if interiorish and not row.flagged and (abs(row.dvolume_dt) > 1e-12
                                                or row.interface_integral > 1e-12):
            scale = max(abs(row.dvolume_dt), row.interface_integral, 1e-12)
            mism = max(mism, abs(row.dvolume_dt + row.interface_integral) / scale)
    return CoareaTable(rows=rows, max_mismatch=mism)


# ---------------------------------------------------------------------------
# Harnack reports


@dataclass
class HarnackReport:
    r: float
    sup_half: float
    inf_half: float
    ratio: float
    psi: list                   # (t, sphere measure above t) rows
    center: tuple

    def to_csv_rows(self):
        for t, m in self.psi:
            yield (t, m)


def sphere_values(u: ScalarField, r: float, center=None, samples: Optional[int] = None):
    """Field values interpolated on the sphere of radius r (both points in 1d)."""
    grid = u.grid
    if center is None:
        center = (0.0,) * grid.n
    if grid.n == 1:
        pts = np.array([[center[0] - r], [center[0] + r]])
        return _bilinear(grid, u.values.__getitem__, pts), 1.0
    m = samples or max(64, int(2 * math.pi * r / grid.h) * 2)
    return _bilinear(grid, u.values.__getitem__, circle_points(center, r, m)), 2 * math.pi * r / m


def harnack_report(u: ScalarField, mask: DomainMask, r: float, center=None,
                   levels: Optional[Sequence[float]] = None) -> HarnackReport:
    """Sup/inf over the half ball and the sphere-measure decay profile.

    Requires a field solved by the Dirichlet solver and positive on the ball.
    """
    grid = u.grid
    if center is None:
        center = (0.0,) * grid.n
    if u.provenance != "solved":
        raise ValueError("harnack report expects a solved field "
                         f"(got provenance {u.provenance!r})")
    win, dist = ball_distances(grid, center, r)
    vals = u.values[win]
    ball = mask.interior[win] & (dist <= r) & ~np.isnan(vals)
    if not ball.any():
        raise SizingError("harnack ball contains no cells")
    if float(np.nanmin(vals[ball])) <= 0.0:
        raise ValueError("harnack hypothesis violated: field not positive on the ball")
    half = ball & (dist <= r / 2.0)
    sup_half = float(np.nanmax(vals[half]))
    inf_half = float(np.nanmin(vals[half]))
    svals, darc = sphere_values(u, r, center)
    svals = svals[np.isfinite(svals)]
    if levels is None:
        levels = _psi_levels(svals)
    psi = [(float(t), float((svals > t).sum() * darc)) for t in levels]
    return HarnackReport(r=r, sup_half=sup_half, inf_half=inf_half,
                         ratio=sup_half / inf_half, psi=psi, center=tuple(center))


def _psi_levels(svals: np.ndarray) -> np.ndarray:
    """Geometric level grid t_k = t0 * 2^(k/4) plus the extreme quantiles."""
    lo = max(float(svals.min()) * 0.9, 1e-6)
    hi = float(svals.max()) * 1.05 + 1e-6
    k = int(math.ceil(4 * math.log2(hi / lo))) + 1
    geo = lo * 2.0 ** (np.arange(k) / 4.0)
    crit = np.quantile(svals, [0.0, 0.02, 0.98, 1.0])
    return np.unique(np.concatenate([geo, crit]))


@dataclass
class WeakHarnackResult:
    sup_half: float
    integral_bound: float       # (r^-n integral of (u+)^p)^(1/p)
    implied_constant: float
    p: float
    r: float
    undefined: bool = False


def weak_harnack_check(u: ScalarField, mask: DomainMask, p: float, r: float,
                       center=None) -> WeakHarnackResult:
    """Ratio of the half-ball sup to the normalized p-mean of the positive part."""
    if p <= 0:
        raise ValueError("p must be positive")
    grid = u.grid
    if center is None:
        center = (0.0,) * grid.n
    win, dist = ball_distances(grid, center, r)
    vals = u.values[win]
    ball = mask.interior[win] & (dist <= r) & ~np.isnan(vals)
    half = ball & (dist <= r / 2.0)
    sup_half = float(np.nanmax(vals[half]))
    uplus = np.maximum(vals[ball], 0.0)
    integral = float((uplus ** p).sum() * grid.cell_volume)
    if integral <= 0.0:
        return WeakHarnackResult(sup_half=sup_half, integral_bound=0.0,
                                 implied_constant=float("nan"), p=p, r=r,
                                 undefined=True)
    bound = (integral / r ** grid.n) ** (1.0 / p)
    return WeakHarnackResult(sup_half=sup_half, integral_bound=bound,
                             implied_constant=sup_half / bound, p=p, r=r)


# ---------------------------------------------------------------------------
# measure-vs-perimeter margin over a set family


@dataclass
class FamilyMember:
    kind: str
    descriptor: tuple
    nu: float
    perimeter: float

    @property
    def ratio(self) -> float:
        return self.nu / self.perimeter


@dataclass
class EtaMarginReport:
    family_size: int
    excluded: int
    max_ratio: float
    eta_star: float
    worst: Optional[FamilyMember]


@dataclass
class SetFamily:
    """Declared family of candidate sets for the margin certification.

    rectangles: enumerate all cell-aligned rectangles inside the interior
    (strided by rect_stride to cap the count on big grids); balls: lattice
    of centers x radius list; annuli: explicit (r_in, r_out) list around a
    center; superlevels: all sublevel/superlevel sets of a field at given
    thresholds.
    """

    rectangles: bool = True
    rect_stride: int = 1
    ball_radii: tuple = ()
    ball_stride: int = 4
    annuli: tuple = ()          # ((center, r_in, r_out), ...)
    superlevel_field: Optional[ScalarField] = None
    superlevel_thresholds: tuple = ()


def eta_margin(nu, mask: DomainMask, family: SetFamily) -> EtaMarginReport:
    """Largest measure/perimeter ratio over the family; eta* = 1 - max ratio.

    nu is a density field, a measure specification with density, curve and
    atom parts, or None; a specification is validated first, so a 2d atom
    or a negative mass raises.  It is reduced to one per-cell mass array: the
    density times the cell volume on interior cells, and every sample of
    ``MeasureSpec.sample_parts`` (curves at arc step h/2, atoms) in its
    nearest cell.  A member's nu is the sum of that array over its
    cells (rectangles and intervals read it from a summed-area table).
    Rectangles use their exact perimeter, balls and annuli the analytic
    circumference of their continuum proxies, superlevel sets their
    reconstructed interface length.  Zero-perimeter members are excluded
    with a count.
    """
    grid = mask.grid
    mass = _cell_masses(nu, mask)
    members = []
    excluded = 0

    if family.rectangles and grid.n == 2:
        members.extend(_rect_members(mass, mask, family))
    if family.rectangles and grid.n == 1:
        members.extend(_interval_members(mass, mask, family))
    for radius in family.ball_radii:
        members.extend(_ball_members(mass, mask, radius, family.ball_stride))
    for center, r_in, r_out in family.annuli:
        win, dist = ball_distances(grid, center, r_out)
        nu_val = float(mass[win][(dist > r_in) & (dist < r_out) & mask.interior[win]].sum())
        per = 2 * math.pi * (r_in + r_out) if grid.n == 2 else 4.0
        members.append(FamilyMember(kind="annulus", descriptor=(center, r_in, r_out),
                                    nu=nu_val, perimeter=per))
    if family.superlevel_field is not None:
        for t in family.superlevel_thresholds:
            s = superlevel_set(family.superlevel_field, mask, float(t))
            if s.is_empty():
                excluded += 1
                continue
            per = s.geometry().perimeter
            if per <= 0:
                excluded += 1
                continue
            members.append(FamilyMember(kind="superlevel", descriptor=(float(t),),
                                        nu=float(mass[s.member].sum()), perimeter=per))

    members = [m for m in members if m.perimeter > 0]
    if not members:
        raise ValueError("empty set family")
    worst = max(members, key=lambda m: m.ratio)
    return EtaMarginReport(family_size=len(members), excluded=excluded,
                           max_ratio=worst.ratio, eta_star=1.0 - worst.ratio,
                           worst=worst)


def _cell_masses(nu, mask: DomainMask) -> np.ndarray:
    """Mass of nu in every cell of the grid (see eta_margin)."""
    grid = mask.grid
    if nu is None:
        return np.zeros(grid.shape)
    if isinstance(nu, ScalarField):
        keep = mask.interior & np.isfinite(nu.values)
        return np.where(keep, nu.values, 0.0) * grid.cell_volume
    nu.validate(mask)
    mass = nu.density_values(mask) * grid.cell_volume
    for pts, masses in nu.sample_parts(grid.h):
        np.add.at(mass, tuple(grid.nearest_cells(pts).T), masses)
    return mass


def _summed_area(values: np.ndarray) -> np.ndarray:
    """Table S with S[i, j] = values[:i, :j].sum() (S[i] = values[:i].sum() in 1d)."""
    acc = values
    for axis in range(values.ndim):
        acc = np.cumsum(acc, axis=axis)
    table = np.zeros(tuple(k + 1 for k in values.shape), dtype=acc.dtype)
    table[(slice(1, None),) * values.ndim] = acc
    return table


def _rect_members(mass: np.ndarray, mask: DomainMask, family: SetFamily):
    """Cell-aligned rectangles inside the interior with corners on the stride
    lattice, in (a, b, c, d) order: one row start a at a time, every (b, c, d)
    tested and summed at once on the summed-area tables."""
    grid = mask.grid
    inter = mask.interior
    idx = np.argwhere(inter)
    i0, j0 = idx.min(axis=0)
    i1, j1 = idx.max(axis=0)
    h = grid.h
    stride = max(1, family.rect_stride)
    mass_sat, inter_sat, held_sat = (_summed_area(v) for v in (mass, inter, mass != 0))

    def box(sat, a, b, c, d):
        return sat[b + 1, d + 1] - sat[a, d + 1] - sat[b + 1, c] + sat[a, c]

    rows = np.arange(i0, i1 + 1, stride)
    cols = np.arange(j0, j1 + 1, stride)
    c_of, d_of = (cols[k] for k in np.triu_indices(len(cols)))   # every c <= d, c-major
    members = []
    for a in rows.tolist():
        ends = rows[rows >= a][:, None]
        fits = box(inter_sat, a, ends, c_of, d_of) >= (ends - a + 1) * (d_of - c_of + 1)
        bi, k = np.nonzero(fits)                                # b-major, then (c, d)
        b, c, d = ends[bi, 0], c_of[k], d_of[k]
        per = 2.0 * ((b - a + 1) * h + (d - c + 1) * h)
        # a rectangle holding no mass gets 0, not the table's rounding residue
        nu = np.where(box(held_sat, a, b, c, d) != 0, box(mass_sat, a, b, c, d), 0.0)
        for b_, c_, d_, nu_, per_ in zip(b.tolist(), c.tolist(), d.tolist(),
                                         nu.tolist(), per.tolist()):
            members.append(FamilyMember(kind="rectangle", descriptor=(a, b_, c_, d_),
                                        nu=nu_, perimeter=per_))
    return members


def _interval_members(mass: np.ndarray, mask: DomainMask, family: SetFamily):
    idx = np.nonzero(mask.interior)[0]
    i0, i1 = int(idx.min()), int(idx.max())
    stride = max(1, family.rect_stride)
    sat = _summed_area(mass)
    return [FamilyMember(kind="interval", descriptor=(a, b),
                         nu=float(sat[b + 1] - sat[a]), perimeter=2.0)
            for a in range(i0, i1 + 1, stride) for b in range(a, i1 + 1, stride)]


def _ball_members(mass: np.ndarray, mask: DomainMask, radius: float, stride: int):
    grid = mask.grid
    pts = grid.points()
    sdist = mask.shape.signed_distance(pts)
    ok = mask.interior & (sdist >= radius)
    lattice = np.zeros(grid.shape, bool)
    lattice[(slice(None, None, stride),) * grid.n] = True
    members = []
    per = 2 * math.pi * radius if grid.n == 2 else 2.0
    for cidx in np.argwhere(ok & lattice):
        center = tuple(grid.cell_center(tuple(cidx)))
        win, dist = ball_distances(grid, center, radius)
        inside = (dist < radius) & mask.interior[win]
        members.append(FamilyMember(kind="ball", descriptor=(center, radius),
                                    nu=float(mass[win][inside].sum()), perimeter=per))
    return members


# ---------------------------------------------------------------------------
# decay threshold and envelope check


def decay_threshold(eta: float) -> float:
    """Smallest T with T^(2/3) / sqrt(1 + T^(4/3)) >= 1 - eta/2."""
    if not 0 < eta <= 2:
        raise ValueError("eta must lie in (0, 2]")
    m = 1.0 - eta / 2.0
    if m <= 0:
        return 0.0
    fn = lambda T: T ** (2.0 / 3.0) / math.sqrt(1.0 + T ** (4.0 / 3.0)) - m
    lo, hi = 1e-9, 1e9
    return float(brentq(fn, lo, hi, xtol=1e-12, rtol=1e-14))


@dataclass
class DecayReport:
    threshold_T: float
    vanish_level: float
    envelope_constant: float
    predicted_bound: float
    dominated: bool
    table: list                 # (t, phi(t)) rows


def decay_bound_check(u: ScalarField, mask: DomainMask, eta: float,
                      levels: Optional[Sequence[float]] = None) -> DecayReport:
    """Sublevel volume decay against the cube-root envelope shape.

    phi(t) is the volume of {u <= -t}; the report finds the threshold T for
    eta, the measured level where phi vanishes, and the least envelope
    constant C such that phi^(1/n)(t) <= max(0, phi^(1/n)(T)
    + C eta (T^(1/3) - t^(1/3))) at every sampled level.
    """
    if eta <= 0:
        raise ValueError("eta must be positive (measure margin not certified)")
    grid = u.grid
    n = grid.n
    T = decay_threshold(eta)
    vals = u.values[mask.interior & u.defined]
    depth = -float(vals.min())
    if levels is None:
        lo = max(min(depth / 50.0, 0.01), 1e-6)
        hi = max(depth * 1.2, lo * 2, T * 1.1)
        k = int(math.ceil(4 * math.log2(hi / lo))) + 1
        levels = lo * 2.0 ** (np.arange(k) / 4.0)
        levels = np.unique(np.concatenate([levels, [depth * 0.5, depth * 0.9,
                                                    depth, T]]))
    levels = np.asarray(sorted(levels))
    hv = grid.cell_volume
    phi = np.array([float(((vals <= -t).sum()) * hv) for t in levels])
    vanish = float(levels[phi <= 0][0]) if (phi <= 0).any() else float("inf")
    phiT = float(((vals <= -T).sum()) * hv)
    phiT_root = phiT ** (1.0 / n)
    c_lower = 0.0
    for t, p in zip(levels, phi):
        if p <= 0 or t >= T:
            continue
        need = (p ** (1.0 / n) - phiT_root) / (eta * (T ** (1.0 / 3.0) - t ** (1.0 / 3.0)))
        c_lower = max(c_lower, need)
    c = c_lower
    dominated = True
    for t, p in zip(levels, phi):
        env = phiT_root + c * eta * (T ** (1.0 / 3.0) - t ** (1.0 / 3.0))
        if p ** (1.0 / n) > max(env, 0.0) + 1e-12:
            dominated = False
    if c > 0:
        predicted = (T ** (1.0 / 3.0) + phiT_root / (c * eta)) ** 3
    else:
        predicted = T if phiT <= 0 else float("inf")
    return DecayReport(threshold_T=T, vanish_level=vanish, envelope_constant=c,
                       predicted_bound=predicted, dominated=dominated,
                       table=list(zip(levels.tolist(), phi.tolist())))


# ---------------------------------------------------------------------------
# truncated BV norm


def truncated_bv_norm(u: ScalarField, t: float, window: np.ndarray) -> float:
    """Integral of |D max(u, -t)| over the window, from staggered face gradients.

    Each face carries the full staggered gradient magnitude; summing
    h^n |g| over faces inside the window counts every cell once per
    dimension, hence the 1/n normalization toward the isotropic total
    variation.
    """
    if t < 0:
        raise ValueError("truncation level t must be >= 0")
    grid = u.grid
    h = grid.h
    vals = np.where(np.isnan(u.values), np.nan, np.maximum(u.values, -t))
    n = grid.n
    total = 0.0
    faces = face_gradients(vals, h, fallback_transverse=True)
    for (lo, hi), (g, t, _, _) in zip(face_sides(n), faces):
        mag = np.hypot(g, np.where(np.isfinite(t), t, 0.0))
        total += mag[window[lo] & window[hi] & np.isfinite(mag)].sum()
    return float(total) * grid.cell_volume / n
