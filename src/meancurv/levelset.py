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
reduces the measure to one per-cell mass array and scores the family as
arrays of nu and perimeter: boxes (intervals and rectangles) on one
summed-area path, one start at a time, balls and annuli over their windows;
members of perimeter <= 0 are excluded and counted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
    center, in_ball, in_half = _harnack_ball(u, mask, r, center, solved=True)
    if float(in_ball.min()) <= 0.0:
        raise ValueError("harnack hypothesis violated: field not positive on the ball")
    sup_half = float(in_half.max())
    inf_half = float(in_half.min())
    svals, darc = sphere_values(u, r, center)
    svals = svals[np.isfinite(svals)]
    if levels is None:
        levels = _psi_levels(svals)
    psi = [(float(t), float((svals > t).sum() * darc)) for t in levels]
    return HarnackReport(r=r, sup_half=sup_half, inf_half=inf_half,
                         ratio=sup_half / inf_half, psi=psi, center=tuple(center))


def _harnack_ball(u: ScalarField, mask: DomainMask, r: float, center, solved: bool):
    """The centre (the origin when None) and the values on the defined
    interior cells of the closed ball and of its closed half ball.  Checks r
    is positive and finite, then (when ``solved``) the field's provenance,
    then that neither ball is empty (SizingError)."""
    if not 0 < r < math.inf:
        raise ValueError(f"ball radius must be positive and finite, got {r!r}")
    if solved and u.provenance != "solved":
        raise ValueError("harnack report expects a solved field "
                         f"(got provenance {u.provenance!r})")
    if center is None:
        center = (0.0,) * u.grid.n
    win, dist = ball_distances(u.grid, center, r)
    vals = u.values[win]
    ball = mask.interior[win] & (dist <= r) & ~np.isnan(vals)
    half = ball & (dist <= r / 2.0)
    if not half.any():
        part = "half ball" if ball.any() else "ball"
        raise SizingError(f"the harnack {part} of ({center}, r={r}) holds no defined "
                          "interior cell")
    return center, vals[ball], vals[half]


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
    _, in_ball, in_half = _harnack_ball(u, mask, r, center, solved=False)
    sup_half = float(in_half.max())
    grid = u.grid
    integral = float((np.maximum(in_ball, 0.0) ** p).sum() * grid.cell_volume)
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

    rectangles: every cell-aligned box inside the interior, intervals in 1d
    and rectangles in 2d (corners strided by rect_stride to cap the count on
    big grids); balls: lattice of centers x radius list; annuli: explicit
    (r_in, r_out) list around a center; superlevels: all sublevel/superlevel
    sets of a field at given thresholds.
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
    nearest cell.  A member's nu is the sum of that array over its cells.
    Boxes (intervals and rectangles) have their exact perimeter, balls and
    annuli the analytic circumference of their continuum proxies, superlevel
    sets their reconstructed interface length (0 when empty).  The family is
    scored as arrays, one block per kind in the order boxes, balls by
    radius, annuli, superlevel sets; the first member of largest ratio is
    the one reported.  Members with perimeter <= 0 are excluded and counted.
    """
    blocks = list(_family_blocks(_cell_masses(nu, mask), mask, family))
    nus = np.concatenate([np.empty(0)] + [b.nu for b in blocks])
    pers = np.concatenate([np.empty(0)] + [b.perimeter for b in blocks])
    scored = np.flatnonzero(pers > 0)
    if not scored.size:
        raise ValueError("empty set family")
    at = int(scored[np.argmax(nus[scored] / pers[scored])])
    for block in blocks:
        if at < len(block.nu):
            worst = block.member(at)
            break
        at -= len(block.nu)
    return EtaMarginReport(family_size=scored.size, excluded=pers.size - scored.size,
                           max_ratio=worst.ratio, eta_star=1.0 - worst.ratio,
                           worst=worst)


class _Block(NamedTuple):
    """Members of one kind: a descriptor each (the rows of an int array for
    boxes, tuples otherwise), their nu and their perimeters."""

    kind: str
    descriptors: Sequence
    nu: np.ndarray
    perimeter: np.ndarray

    def member(self, i: int) -> FamilyMember:
        d = self.descriptors[i]
        return FamilyMember(kind=self.kind,
                            descriptor=tuple(d.tolist()) if isinstance(d, np.ndarray) else d,
                            nu=float(self.nu[i]), perimeter=float(self.perimeter[i]))


def _family_blocks(mass: np.ndarray, mask: DomainMask, family: SetFamily):
    """The family's members in blocks, in the order eta_margin scores them."""
    grid = mask.grid
    if family.rectangles:
        yield from _box_blocks(mass, mask, max(1, family.rect_stride))
    if family.ball_radii:
        sdist = mask.shape.signed_distance(grid.points())
        lattice = np.zeros(grid.shape, bool)
        lattice[(slice(None, None, family.ball_stride),) * grid.n] = True
    for radius in family.ball_radii:
        centers = [tuple(grid.cell_center(tuple(c)))
                   for c in np.argwhere(mask.interior & lattice & (sdist >= radius))]
        per = 2 * math.pi * radius if grid.n == 2 else 2.0
        yield _Block("ball", [(c, radius) for c in centers],
                     np.array([_shell_mass(mass, mask, c, -math.inf, radius) for c in centers]),
                     np.full(len(centers), per))
    for center, r_in, r_out in family.annuli:
        per = 2 * math.pi * (r_in + r_out) if grid.n == 2 else 4.0
        yield _Block("annulus", [(center, r_in, r_out)],
                     np.array([_shell_mass(mass, mask, center, r_in, r_out)]), np.array([per]))
    if family.superlevel_field is not None:
        for t in family.superlevel_thresholds:
            s = superlevel_set(family.superlevel_field, mask, float(t))
            per = 0.0 if s.is_empty() else s.geometry().perimeter
            yield _Block("superlevel", [(float(t),)],
                         np.array([float(mass[s.member].sum())]), np.array([per]))


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


def _shell_mass(mass: np.ndarray, mask: DomainMask, center, r_in: float,
                r_out: float) -> float:
    """Mass of the interior cells with r_in < |x - center| < r_out."""
    win, dist = ball_distances(mask.grid, center, r_out)
    return float(mass[win][(dist > r_in) & (dist < r_out) & mask.interior[win]].sum())


def _summed_area(values: np.ndarray) -> np.ndarray:
    """Table S with S[i, j] = values[:i, :j].sum() (S[i] = values[:i].sum() in 1d)."""
    acc = values
    for axis in range(values.ndim):
        acc = np.cumsum(acc, axis=axis)
    table = np.zeros(tuple(k + 1 for k in values.shape), dtype=acc.dtype)
    table[(slice(1, None),) * values.ndim] = acc
    return table


def _box_sum(sat: np.ndarray, lo: tuple, hi: tuple):
    """Sums over the boxes of cells lo[k]..hi[k] along each axis k (arrays
    broadcast) from a summed-area table: its 2^n corners added and
    subtracted in turn, the first axis switching fastest."""
    total = 0
    for below in itertools.product((False, True), repeat=len(lo)):
        term = sat[tuple(s if low else e + 1 for s, e, low in zip(lo, hi, below[::-1]))]
        total = total - term if sum(below) % 2 else total + term
    return total


def _box_blocks(mass: np.ndarray, mask: DomainMask, stride: int):
    """Cell-aligned boxes inside the interior with corners on the stride
    lattice: intervals (a, b) in 1d and rectangles (a, b, c, d) in 2d, of
    cells a..b along the first axis and c..d along the second.  One block
    per start a, in (a, b, c, d) order: every box of a start is tested and
    summed at once on the summed-area tables, so the temporaries hold one
    start's boxes even at stride 1.  Side lengths L_k h give the perimeter
    sum_k 2 prod_{j != k} L_j h, which is 2 in 1d."""
    grid, inter = mask.grid, mask.interior
    idx = np.argwhere(inter)
    axes = [np.arange(lo, hi + 1, stride) for lo, hi in zip(idx.min(axis=0), idx.max(axis=0))]
    mass_sat, inter_sat, held_sat = (_summed_area(v) for v in (mass, inter, mass != 0))
    # every (c, d) of the second axis with c <= d, c-major; none in 1d
    cd = [ax[k] for ax in axes[1:] for k in np.triu_indices(len(ax))]
    kind = "rectangle" if grid.n == 2 else "interval"
    for a in axes[0].tolist():
        ends = axes[0][axes[0] >= a][:, None]
        lo, hi = (a, *cd[:1]), (ends, *cd[1:])
        fits = _box_sum(inter_sat, lo, hi) >= math.prod(e - s + 1 for s, e in zip(lo, hi))
        bi, k = np.nonzero(fits)                                # b-major, then (c, d)
        lo = (np.full(bi.size, a), *(c[k] for c in cd[:1]))
        hi = (ends[bi, 0], *(d[k] for d in cd[1:]))
        sides = [(e - s + 1) * grid.h for s, e in zip(lo, hi)]
        per = sum(2.0 * math.prod(sides[:j] + sides[j + 1:]) for j in range(grid.n))
        # a box holding no mass gets 0, not the table's rounding residue
        nu = np.where(_box_sum(held_sat, lo, hi) != 0, _box_sum(mass_sat, lo, hi), 0.0)
        yield _Block(kind, np.stack([x for pair in zip(lo, hi) for x in pair], axis=1),
                     nu, np.broadcast_to(per, nu.shape))


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
