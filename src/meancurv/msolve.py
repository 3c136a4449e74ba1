"""Dirichlet solvers for the prescribed mean curvature equation.

``solve_dirichlet`` runs damped Newton on the conservative staggered scheme
with exact Dirichlet data on the boundary layer; ``minimize_prescribed_mc``
solves the first-order conditions of the area functional with a smoothed L1
boundary deviation term, pinning the trace wherever the boundary flux stays
strictly below one (active-set polish), so attained-trace minimizers agree
with the Newton solver on the same discrete equations.  Every solve runs the
one Newton loop ``_newton_core`` on a plan and a flat window, from the
window's values or from the harmonic extension of the data (that LU of the
Newton matrix at zero gradient); ``_newton_arrays`` sets up whole-domain
solves.  A plan per cell pattern (``_NewtonPlan``) numbers the unknowns in
a nested-dissection order and keeps their faces and each row's stencil
slots, so the residual (``_residual``, bit for bit the grid density) and
every analytically assembled matrix read the same faces, and one
symmetric-mode sparse LU factors every matrix in that order: 1d and 2d
solves, whole-domain, ball and penalized, run the same code.  Above
``_SINGLE_ABOVE`` unknowns that LU is float32, a chord matrix whose steps
the loop accepts by their float64 residual.  Ball replacement lives in
``perron``, whose windowed ball kernel sets up each ball's plan and flat
window and runs ``_newton_core`` on them.

Plans, LUs and ball records belong to a ``PlanHolder``, owned by the
solve, sweep or continuation that makes it, never to the module: a Perron
sweep, the ring pipeline's stages and the minimizer's rounds each
share one, and a solve given none makes its own.  A Newton solve may start
on the holder's last LU of an earlier solve of the same plan (a chord
matrix lagged across solves).  No two threads share a holder, so a
solve's iterates never depend on other threads.
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import dataclass, field as _dcfield
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as slinalg

from .field import (DiscreteSet, DomainMask, ScalarField, UndefinedCellError, _box_sum,
                    _summed_area, cell_values)
from .levelset import SetFamily, eta_margin
from .mco import _interior_face_count, area_functional, face_formula, face_sides

logger = logging.getLogger("meancurv")


class UnboundedDescentError(RuntimeError):
    """The functional decreases without bound along a certified direction.

    Raised when the iterate collapses and a set is found on which the
    prescribed measure exceeds the perimeter: lowering the field on that set
    lowers the functional forever, which is how a violated solvability
    balance shows up.  The witness (set description, margin) is attached.
    """

    def __init__(self, message, witness=None, functional_trace=None):
        super().__init__(message)
        self.witness = witness
        self.functional_trace = functional_trace or []


@dataclass
class SolveOptions:
    max_iter: int = 40
    tol: float = 1e-8               # residual tolerance, density units, max-norm
    sigma: float = 1e-4             # Armijo sufficient-decrease fraction
    alpha_min: float = 2.0 ** -24

    def __post_init__(self):
        # every comparison with NaN is False, so NaN breaks each rule
        for name, rule, ok in (("max_iter", "an integer >= 1", lambda v: v >= 1),
                               ("tol", "positive and finite", lambda v: 0 < v < math.inf),
                               ("sigma", "in (0, 0.5)", lambda v: 0 < v < 0.5),
                               ("alpha_min", "in (0, 1]", lambda v: 0 < v <= 1)):
            v = getattr(self, name)
            kind = numbers.Integral if name == "max_iter" else numbers.Real
            if isinstance(v, bool) or not isinstance(v, kind) or not ok(v):
                raise ValueError(f"{name} must be {rule}, got {v!r}")


@dataclass
class SolveOutcome:
    field: ScalarField
    residual_norm: float
    iterations: int
    converged: bool
    certificate: Optional[dict] = None
    diagnostics: dict = _dcfield(default_factory=dict)


# ---------------------------------------------------------------------------
# core Newton machinery (operates on a sliced window around the region)


def _residual(Vx: np.ndarray, h: float, f_rows: Optional[np.ndarray], plan: "_NewtonPlan"):
    """Density minus forcing on every unknown row, from the plan's faces only;
    ``f_rows`` None is zero forcing.

    ``Vx`` is the plan's flat window (``_NewtonPlan.flat``).  The
    faces come from ``_faces`` and the divergence adds their fluxes per axis
    in the order of ``mco._divergence``, so a row equals
    ``_divergence(face_gradients(V, h, plan.fallback))`` there minus its
    forcing, bit for bit.  Returns the rows and the faces' flux f; their g,
    t and w are freed here, and ``_faces`` rebuilds them for a Newton matrix.
    """
    flux = _faces(Vx, h, plan)[3]
    total = _divergence_rows(flux, h, plan)
    if f_rows is not None:
        total -= f_rows
    return total, flux


def _divergence_rows(flux, h, plan):
    """Per unknown row, the flux of its face above along each axis minus the
    one below, summed axis by axis and divided by h."""
    fr = flux[plan.rows]
    total = fr[1] - fr[0]
    for axis in range(1, len(fr) // 2):
        total += fr[2 * axis + 1]
        total -= fr[2 * axis]
    total /= h
    return total


def _faces(Vx, h, plan):
    """The (g, t, w, f) of the plan's faces at the flat window ``Vx`` (as in
    ``_residual``), by ``mco.face_formula`` on their cells gathered one
    column at a time: lower, upper, then the transverse difference about
    each.  ``face_formula`` frees each column once read, so at most five
    face arrays live at once and no (6, F) block of the cells is gathered."""
    c = plan.cells
    return face_formula(Vx[c[0]], Vx[c[1]], Vx[c[2]] - Vx[c[3]], Vx[c[4]] - Vx[c[5]], h,
                        plan.fallback)


def _face_plan(unk, unknowns):
    """The faces of the unknown rows, in face order (axis by axis, each in
    C order of its face grid), plus one sentinel face.

    Returns (cells, rows).  ``cells`` (6, F + 1) holds per face
    the flat window indices of its lower and upper cell and of their
    transverse neighbours (lower +, lower -, upper +, upper -).  Index N of
    an N-cell window is a NaN slot: a neighbour past the window's edge reads
    it, and so do all six cells of the sentinel face F.  Index N + 1 is a
    zero slot, the transverse neighbours of a 1d face.  ``rows`` (2n, m)
    holds per unknown, in the order of ``unknowns`` (flat window indices),
    the positions of its faces below and above along each axis, F where the
    window ends.
    """
    n, size = unk.ndim, unk.size
    ids = np.pad(np.arange(size).reshape(unk.shape), 1, constant_values=size)
    unit = np.eye(n, dtype=int)
    cells, positions, count = [], [], 0
    for axis, (lo, hi) in enumerate(face_sides(n)):
        e = unit[axis]
        touch = unk[lo] | unk[hi]
        pos = np.full(touch.shape, -1, np.intp)
        pos[touch] = count + np.arange(np.count_nonzero(touch))
        face = np.array(np.nonzero(touch)) + 1     # padded index of the lower cell

        def at(offset):
            return ids[tuple(face + offset[:, None])]

        if n == 1:
            trans = [np.full(face.shape[1], size + 1)] * 4
        else:
            t = unit[1 - axis]
            trans = [at(t), at(-t), at(e + t), at(e - t)]
        cells.append(np.stack([at(0 * e), at(e), *trans]))
        positions.append(pos)
        count += face.shape[1]
    cells = np.concatenate(cells + [np.full((6, 1), size)], axis=1)
    cell = np.unravel_index(unknowns, unk.shape)
    rows = []
    for axis, pos in enumerate(positions):
        padded = np.pad(pos, [(int(k == axis),) * 2 for k in range(n)], constant_values=count)
        rows += [padded[cell], padded[tuple(c + (k == axis) for k, c in enumerate(cell))]]
    return cells, np.stack(rows)


def _dissection(unk):
    """Flat window indices of the unknown cells in nested-dissection order.

    The unknowns' bounding box is bisected across its longer axis (the first
    on a tie): the unknowns of the one-cell slab in the middle come after
    those of the two halves, and each half is ordered the same way (George,
    "Nested dissection of a regular finite element mesh", SIAM J. Numer.
    Anal. 10, 1973).  A Newton row couples only its 3^n neighbourhood, so
    the slab separates the halves, and an LU in this order fills in only
    within the nested boxes and their slabs.  All boxes of one level are
    split at once; a summed-area table (``field._summed_area`` and
    ``field._box_sum``) counts the unknowns of each half,
    which places every slab without a sort.  A slab lists its cells in C
    order; a 1d window of N cells is taken as an N x 1 window.
    """
    unk2 = unk.reshape(unk.shape + (1,) * (2 - unk.ndim))
    flat = unk2.ravel()
    ny = unk2.shape[1]
    sat = _summed_area(unk2)

    def count(lo, hi):
        """Unknowns in the boxes of cells lo..hi - 1, (2, k) corners."""
        return _box_sum(sat, tuple(lo), tuple(hi - 1))

    out = np.empty(int(sat[-1, -1]), np.intp)
    if not out.size:
        return out
    # the boxes of one level: corners lo, hi (2, k) and their first position;
    # the first is the unknowns' bounding box
    spans = [np.flatnonzero(unk2.any(axis=1 - k)) for k in (0, 1)]
    lo = np.array([[s[0]] for s in spans], np.intp)
    hi = np.array([[s[-1] + 1] for s in spans], np.intp)
    start = np.zeros(1, np.intp)
    while start.size:
        k = np.arange(start.size)
        ext = hi - lo
        axis = (ext[1] > ext[0]).astype(np.intp)
        mid = lo[axis, k] + ext[axis, k] // 2
        low_hi, high_lo = hi.copy(), lo.copy()
        low_hi[axis, k] = mid
        high_lo[axis, k] = mid + 1
        n_low, n_high = count(lo, low_hi), count(high_lo, hi)
        # the slab's cells run along the other axis from its first cell
        first = np.where(axis == 0, mid * ny + lo[1], lo[0] * ny + mid)
        length = ext[1 - axis, k]
        ends = np.cumsum(length)
        box = np.repeat(k, length)
        cell = first[box] + np.where(axis == 0, 1, ny)[box] * (
            np.arange(ends[-1]) - np.repeat(ends - length, length))
        known = flat[cell]
        before = np.cumsum(known) - known       # unknowns before each cell, over all slabs
        at = (start + n_low + n_high)[box] + before - before[ends - length][box]
        out[at[known]] = cell[known]
        lo = np.concatenate([lo, high_lo], axis=1)
        hi = np.concatenate([low_hi, hi], axis=1)
        start = np.concatenate([start, start + n_low])
        keep = np.concatenate([n_low, n_high]) > 0
        lo, hi, start = lo[:, keep], hi[:, keep], start[keep]
    return out


# the face cells (as in ``_face_plan``: lower, upper, then lower +, lower -,
# upper +, upper - along the transverse axis), each cell's place from the
# lower cell (along the normal, along the transverse axis), and the sign of
# the flux's derivative in it; a 1d face has the first two only
_FACE_CELLS = np.array([(0, 0), (1, 0), (0, 1), (0, -1), (1, 1), (1, -1)])
_FACE_SIGNS = (-1, 1, 1, -1, 1, -1)


@functools.lru_cache(maxsize=None)
def _face_terms(n, ncoeffs):
    """A row's stencil terms, in the order the matrix adds them: by axis,
    then the face above the row (the row is its lower cell, the flux adds),
    then the one below (it subtracts), then by face cell.  Per face slot j
    of ``_face_plan``'s ``rows``: (j, per face cell (its offset in C order
    of the 3^n neighbourhood, ``np.add`` or ``np.subtract`` by its sign,
    which of ``ncoeffs`` coefficients it takes: normal, transverse about the
    lower cell, about the upper cell))."""
    terms = []
    for axis in range(n):
        for side in (0, 1):
            cells = []
            for c in range(2 if n == 1 else 6):
                off = np.roll(_FACE_CELLS[c] - (side, 0), axis)[:n]
                k = int(np.ravel_multi_index(tuple(off + 1), (3,) * n))
                add = np.add if (1 - 2 * side) * _FACE_SIGNS[c] > 0 else np.subtract
                cells.append((k, add, min(c // 2, ncoeffs - 1)))
            terms.append((2 * axis + 1 - side, tuple(cells)))
    return tuple(terms)


def _csc_pattern(unk, unknowns):
    """CSC pattern of the Newton matrices of the window's unknown cells,
    numbered in the order of ``unknowns`` (flat window indices), and where
    each row's 3^n stencil goes in it.

    A row couples the unknowns of its 3^n neighbourhood and no others (see
    ``_jac_values_2d``), so the pattern is symmetric and column c holds the
    unknowns of c's neighbourhood, rows sorted.  Returns int32 (indptr,
    indices, table): ``table[k, r]`` is the CSC slot of row r's entry whose
    column is the k-th cell of r's neighbourhood (in C order of the offsets
    -1, 0, 1 per axis), or the sentinel slot nnz (one past the last) where
    that cell is no unknown; ``table[3^n // 2]`` holds the diagonal.  Built
    from the neighbourhood table without a sort: a column's rows are its
    neighbours, each placed by the count of those numbered below it.
    """
    m = unknowns.size
    ids = np.full(unk.size, m, np.int32)
    ids[unknowns] = np.arange(m)
    ids = np.pad(ids.reshape(unk.shape), 1, constant_values=m)
    cell = tuple(c + 1 for c in np.unravel_index(unknowns, unk.shape))
    offsets = np.array(list(np.ndindex((3,) * unk.ndim))) - 1    # the 3^n neighbourhood
    near = np.stack([ids[tuple(c + d for c, d in zip(cell, off))] for off in offsets])
    present = near < m
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=0))]).astype(np.int32)
    # a column's rows are sorted: a neighbour's place is the count of smaller ones
    rank = np.zeros(near.shape, np.int8)
    for other in near:
        rank += other < near
    # the slot of column c's entry in its neighbour at offset k; column m is the sentinel
    slot = np.full((len(offsets), m + 1), indptr[-1], np.int32)
    slot[:, :m] = indptr[:-1] + rank
    indices = np.empty(indptr[-1], np.int32)
    indices[slot[:, :m][present]] = near[present]
    # row r's entry in its neighbour c at offset k is c's entry in r, at offset -k
    return indptr, indices, np.take_along_axis(slot[::-1], near, axis=1)


def _jac_values_2d(h, faces, plan):
    """The Newton matrix as its rows' stencils, (3^n, m) in the layout of
    ``plan.table``, from the plan's faces (g, t, w, f).

    A row adds the flux of its face above along each axis and subtracts the
    one below.  A flux's derivative is (1 + t^2)/w^3 in the face's two cells
    and -g t/w^3 / 4 in their transverse neighbours; a transverse difference
    taken from one side only (``plan.transverse``) weighs that side 1/2, as
    in ``mco.face_formula``.  Each face slot gathers its coefficients once
    and adds its cells' terms at their offsets in the order of
    ``_face_terms``; the sentinel face adds nothing (its coefficients are 0,
    and adding +-0.0 keeps the bits of a sum that starts at +0.0).  A
    penalty row takes the flux into its cell: its stencil is negated.
    """
    g, t, w, _ = faces
    w3 = w ** 3
    q = np.float64(1.0 / (h * h))
    normal = (1.0 + t * t) / w3 * q
    trans = -g * t / w3 * (0.25 * q)
    normal[-1] = trans[-1] = 0.0       # the sentinel face adds no term
    n = plan.rows.shape[0] // 2
    coeffs = (normal, trans)[:n]
    if plan.transverse is not None:
        coeffs = (normal, *(np.multiply(trans, f, out=np.zeros_like(trans), where=f != 0)
                            for f in plan.transverse))
    out = np.zeros(plan.table.shape)
    for j, cells in _face_terms(n, len(coeffs)):
        x = [a[plan.rows[j]] for a in coeffs]
        for k, add, c in cells:
            add(out[k], x[c], out=out[k])
    out[:, plan.penalty_rows] = 0.0 - out[:, plan.penalty_rows]   # an empty entry stays +0.0
    return out


class _NewtonPlan:
    """What the Newton systems of one cell pattern share; fixed once built.

    ``shape``: the window's.  ``unknowns``: the flat window index of each
    unknown, in the nested-dissection order of ``_dissection``, which numbers
    the unknowns (rows and columns of the matrix) everywhere below.  The face tables
    ``cells`` and ``rows`` of ``_face_plan``, where a penalty row's faces to
    penalty or undefined cells are the sentinel face: it takes the flux
    into its cell from its other neighbours only.  ``penalty_rows``, the
    unknowns that are penalty rows; ``fallback``, whether there are any, in
    which case the faces take one-sided transverse differences and, in 2d,
    ``transverse`` holds per face the weight (0, 1 or 2) of the transverse
    differences about its lower and its upper cell (None without).  Then
    the CSC pattern of ``_csc_pattern``: ``indptr``, ``indices`` and the
    stencil ``table``.
    """

    def __init__(self, unk, fix, rows_interior):
        n = unk.ndim
        self.shape = np.array(unk.shape)
        self.unknowns = _dissection(unk)
        self.cells, self.rows = _face_plan(unk, self.unknowns)
        pcells = unk & ~rows_interior
        self.penalty_rows = np.flatnonzero(pcells.ravel()[self.unknowns])
        self.fallback = self.penalty_rows.size > 0
        # per flat window index, NaN and zero slots included
        penalty, defined = (np.append(a.ravel(), (False, False)) for a in (pcells, unk | fix))
        # a penalty row's neighbours: the lower cell of the face below, the
        # upper cell of the face above
        faces = self.rows[:, self.penalty_rows]
        nb = self.cells[np.arange(2 * n)[:, None] % 2, faces]
        self.rows[:, self.penalty_rows] = np.where(penalty[nb] | ~defined[nb],
                                                   self.cells.shape[1] - 1, faces)
        self.transverse = None
        if self.fallback and n == 2:
            ok = [defined[self.cells[c]] & defined[self.cells[c + 1]] for c in (2, 4)]
            self.transverse = np.stack([ok[0] * (2 - ok[1]), ok[1] * (2 - ok[0])]).astype(np.int8)
        self.indptr, self.indices, self.table = _csc_pattern(unk, self.unknowns)

    def flat(self, window: Optional[np.ndarray] = None) -> np.ndarray:
        """The flat window that the plan's indices read, laid out as
        ``_face_plan`` numbers it: the window's values in C order (all NaN
        when ``window`` is None), then a NaN slot and a zero slot."""
        values = np.full(self.shape, np.nan) if window is None else window
        return np.concatenate([values.ravel(), (np.nan, 0.0)])

    def window(self, Vx: np.ndarray) -> np.ndarray:
        """The window's values in the flat window ``Vx``, a view."""
        return Vx[:-2].reshape(self.shape)


class PlanHolder:
    """The Newton plans of one solve, sweep or continuation, and its last
    fresh LU.

    ``plan`` builds the plan of a cell pattern the first time the holder
    meets it, keyed by the window shape and the bytes of the pattern's
    masks, and hands out that same plan after: the translated balls of a
    sweep level repeat a pattern, and so do the stages of a continuation.
    ``lu`` is the last fresh ``(plan, solve)`` pair of a solve run with the
    holder, on which a later solve of the same plan may start (see
    ``_newton_core``).  ``balls`` maps a ball's grid shape and window
    pattern of inside cells to its ``perron._BallRecord``, which keeps the
    corrections from which ``perron._solve_ball`` predicts the start of the
    next ball of that pattern.  Whoever makes a holder owns it, and all of these
    go with it; no two threads share one.
    """

    def __init__(self, plans: Optional[dict] = None):
        self.plans = {} if plans is None else plans
        self.lu = None
        self.balls = {}

    def plan(self, unk, fix, rows_interior) -> _NewtonPlan:
        key = (unk.shape, unk.tobytes(), fix.tobytes(), rows_interior.tobytes())
        plan = self.plans.get(key)
        if plan is None:
            plan = self.plans[key] = _NewtonPlan(unk, fix, rows_interior)
        return plan

    def without_lu(self) -> "PlanHolder":
        """A holder of these plans that carries no LU."""
        return PlanHolder(self.plans)


# SuperLU factors in panels of w columns, with workspace of about 15 w bytes
# per unknown while it runs; scipy's default is w = 20.  Measured on the
# hemisphere ladder's Newton matrices (2-core Xeon VM, one BLAS thread), an
# LU at m = 205,857 peaks 71 MB above its factors at w = 20, 20 MB at w = 4,
# 14 MB at w = 2 and 11 MB at w = 1; in the m = 823,469 solve the peak above
# the factors falls from 273 to 78 MB at w = 2.  Factor time at w = 2 is
# 0.80-0.91x that of w = 20 for m <= 51,429, 0.97x at 205,857 and 1.10x at
# 823,469; w = 1 is 1.09x at 205,857.  Solutions agree to rounding.
_PANEL_SIZE = 2


# Newton matrices of more unknowns than this are factored in float32.  On the
# hemisphere solve's first Newton matrix (same machine as above) the float32
# LU takes 0.74x the time of the float64 one at m = 12,849, 0.71x at 51,429
# and 0.65x at 205,857, its back-solve 0.90x, 0.90x and 0.77x, and its
# solution is within 2e-5, 5e-5 and 4e-5 relative of a float64 LU's (random
# right side); every solve of the dirichlet_solve workload keeps its Newton
# iterations and LUs.  The cut sits below the ring pipeline's 12,849 and above
# the sweep balls of the tests and the benchmark (3,205 unknowns at level 2
# at 128 and level 3 at 256).
_SINGLE_ABOVE = 8192


def _factorize(plan: _NewtonPlan, vals, diag, m):
    """Factor one Newton matrix (its rows' stencils ``vals``, of
    ``_jac_values_2d``, plus ``diag`` on the diagonal); returns a solve
    closure.

    One indexed store writes the stencils into the plan's CSC data through
    ``plan.table`` (entries whose column is no unknown land in the sentinel
    slot past the end, which the matrix leaves out), and one sparse LU with
    diagonal-preferring pivots (SuperLU's symmetric mode) factors it in the
    plan's own nested-dissection order at every size, so every factorization
    of a pattern takes the same path.  Callers hand the stencils over, and
    the face table they are filled from, with no name of their own
    (``_factorize(plan, _jac_values_2d(h, _faces(...), plan), ...)``): the
    table is freed when the fill returns and the stencils once stored, so
    neither lives through the LU.  SuperLU factors in panels of
    ``_PANEL_SIZE`` columns.

    Above ``_SINGLE_ABOVE`` unknowns SuperLU factors the float32 rounding of
    the data (the float64 store is freed first) and the solve is one float32
    back-solve, relative error 1e-5 to 1e-4: a chord matrix, whose steps
    Newton accepts by their float64 residual, so no solve is refined
    (Dembo, Eisenstat & Steihaug, "Inexact Newton methods", SIAM J. Numer.
    Anal. 19, 1982; Langou et al., SC 2006).
    """
    nnz = plan.indices.size
    data = np.empty(nnz + 1)
    data[plan.table] = vals
    del vals
    data[plan.table[len(plan.table) // 2]] += diag
    single = m > _SINGLE_ABOVE
    data = data[:nnz].astype(np.float32) if single else data[:nnz]    # float32: frees the store
    lu = slinalg.splu(sparse.csc_matrix((data, plan.indices, plan.indptr), shape=(m, m)),
                      permc_spec="NATURAL", diag_pivot_thresh=0.001, panel_size=_PANEL_SIZE,
                      options=dict(SymmetricMode=True))
    # closures over the LU: perfbench's tracer reads it
    if not single:
        return lambda b: lu.solve(b)
    return lambda b: lu.solve(b.astype(np.float32)).astype(float)


def _harmonic_extension(Vx, h, plan: _NewtonPlan):
    """Values on the plan's unknowns of the discrete harmonic extension of
    the fixed values in the flat window ``Vx`` (laid out as in
    ``_residual``); the start of a Newton solve given no initial field.

    At zero gradient every face has w = 1 and t = 0, so ``_jac_values_2d``
    on such faces is the 2n + 1 point Laplacian of the unknowns (its
    transverse entries are 0), factored by ``_factorize`` like any Newton
    matrix.  The right side is the divergence of the faces' linear
    differences with the unknowns at zero, so the solve is one Newton step
    of the Laplace equation from zero, in float32 above ``_SINGLE_ABOVE``
    unknowns (relative error 1e-5 to 1e-4; every caller only starts from
    it).  Cells that are neither unknown nor fixed count as zero.
    ValueError on a plan with penalty rows, which are no Laplace rows;
    RuntimeError when the LU fails or its solution is not finite.
    """
    if plan.fallback:
        raise ValueError("a harmonic start needs a plan without penalty rows")
    m, nfaces = plan.unknowns.size, plan.cells.shape[1]
    data = np.nan_to_num(Vx, nan=0.0)
    data[plan.unknowns] = 0.0
    # only the right side lives through the LU: the window copy is dropped,
    # and the face differences and their row gathers are freed in the sum
    rhs = -_divergence_rows((data[plan.cells[1]] - data[plan.cells[0]]) / h, h, plan)
    del data
    # the zero-gradient faces, handed over with the stencils
    solve = _factorize(plan, _jac_values_2d(
        h, (np.zeros(nfaces), np.zeros(nfaces), np.ones(nfaces), None), plan), np.zeros(m), m)
    u = solve(rhs)
    if not np.isfinite(u).all():
        raise RuntimeError("the Laplace solve returned non-finite values")
    return u


def _window(unknown, fixed) -> tuple:
    """The bounding box of the unknown and fixed cells: a solve's window."""
    return tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(unknown | fixed))


def _newton_arrays(h: float, n: int, unknown: np.ndarray, fixed: np.ndarray,
                   fixed_values: np.ndarray, f_values: np.ndarray,
                   opts: SolveOptions, init_values: Optional[np.ndarray] = None,
                   penalty: Optional[dict] = None,
                   carry: Optional[PlanHolder] = None) -> tuple[np.ndarray, dict]:
    """A whole-domain solve's set-up for ``_newton_core``: the tight window,
    its plan from ``carry`` (its own when None), the fixed values and
    ``init_values`` (NaN or -inf ones repaired), else the harmonic start;
    non-finite forcing is zero.  Returns values (NaN off the unknown and
    fixed cells) and ``info``."""
    win = _window(unknown, fixed)
    unk = unknown[win]
    fix = fixed[win]
    V = np.full(unk.shape, np.nan)
    V[fix] = fixed_values[win][fix]
    rows_interior = unk if penalty is None else unk & ~penalty["cells"][win]
    if init_values is not None:
        V[unk] = init_values[win][unk]
        if np.isnan(V[unk]).any() or np.isneginf(V[unk]).any():
            V = _repair_init(V, unk, fix)
    carry = carry or PlanHolder()
    plan = carry.plan(unk, fix, rows_interior)
    f_rows = f_values[win].ravel()[plan.unknowns]
    f_rows = np.where(np.isfinite(f_rows), f_rows, 0.0)
    pen = None
    if penalty is not None:
        cells = plan.unknowns[plan.penalty_rows]
        pen = {"cells": cells, "phi": penalty["phi"][win].ravel()[cells],
               "length": penalty["length"][win].ravel()[cells], "kappa": penalty["kappa"]}
    Vx, info = _newton_core(h, n, plan, plan.flat(V), f_rows, pen, opts, carry,
                            init_values is None)
    out = np.full(unknown.shape, np.nan)
    out[win] = plan.window(Vx)
    return out, info


def _newton_core(h: float, n: int, plan: _NewtonPlan, Vx: np.ndarray,
                 f_rows: Optional[np.ndarray],
                 pen: Optional[dict], opts: SolveOptions, carry: PlanHolder,
                 harmonic: bool = False) -> tuple[np.ndarray, dict]:
    """The one Newton loop: damped Newton on the plan's unknowns of the flat
    window ``Vx`` (as in ``_residual``), from its values or, with
    ``harmonic``, from ``_harmonic_extension``, with forcing ``f_rows`` (None
    for zero) and penalty rows ``pen``.  Returns the last flat window and ``info``.

    A failed harmonic start ends the solve with ``info["error"]``.  Each
    fresh LU stays frozen as the chord matrix while steps keep contracting;
    a failed line search, slow contraction, or a back-solve that raises or
    returns non-finite values drops it and refactors (ending the solve with
    ``info["error"]`` when it was fresh).  The first LU is ``carry.lu``'s,
    the last fresh pair of an earlier solve, when of this plan; every fresh
    LU replaces the pair, emptied before the LU is built.  ``info`` counts
    ``iterations`` (a pass that only drops an LU is none),
    ``residual_evals`` and ``factorizations``, and says whether the solve
    ``carried``.

    Between LUs the loop holds the rows ``r`` of its iterate and no face
    arrays: each residual frees its faces once its rows are summed, and a
    fresh LU rebuilds the iterate's faces with ``_faces`` (no residual
    evaluation) and frees them with the stencils before SuperLU runs.
    """
    m = plan.unknowns.size
    info = {"iterations": 0, "converged": False, "line_search_failures": 0,
            "factorizations": 0, "carried": False}
    if harmonic:
        try:
            Vx[plan.unknowns] = _harmonic_extension(Vx, h, plan)
        except (RuntimeError, SystemError) as exc:     # what SuperLU raises
            info.update(error=f"harmonic start failed: {exc}", residual=math.nan,
                        residual_evals=0)
            return Vx, info

    evals = 0

    def full_residual(Vx):
        nonlocal evals
        evals += 1
        r, flux = _residual(Vx, h, f_rows, plan)
        if pen is not None:
            r[plan.penalty_rows] = _penalty_residual(Vx, h, n, pen, flux, plan)
        return r

    r = full_residual(Vx)
    bad = np.isnan(r)
    if bad.any():
        bad[plan.penalty_rows] = False
        cells = np.unravel_index(np.sort(plan.unknowns[bad]), plan.shape)   # C order
        raise UndefinedCellError("solver stencil touches undefined cells", list(zip(*cells)))
    u = Vx[plan.unknowns]
    rnorm = float(np.abs(r).max()) if m else 0.0
    merit = 0.5 * float(r @ r)
    best = (rnorm, u)
    trial = Vx.copy()   # line-search buffer: differs from Vx on the unknowns only

    lu = carry.lu[1] if carry.lu and carry.lu[0] is plan else None   # frozen while it contracts
    info["carried"] = lu is not None
    iterations = factorizations = 0

    def assemble_factorize():
        diag = np.zeros(m)
        if pen is not None:
            diag[plan.penalty_rows] = _penalty_triplets(Vx, h, n, pen)
        # the faces of the iterate, freed with the stencils before the LU
        return _factorize(plan, _jac_values_2d(h, _faces(Vx, h, plan), plan), diag, m)

    # a pass that only drops a carried or frozen LU takes no step and is not
    # counted; the fresh LU after it either steps or ends the solve
    while iterations < opts.max_iter and not rnorm <= opts.tol:
        fresh = lu is None
        if fresh:
            carry.lu = None     # no second LU lives through the factorization
            try:
                lu = assemble_factorize()
            # what SuperLU raises, and an LU that does not fit in memory
            except (RuntimeError, SystemError, ValueError, MemoryError) as exc:
                info["error"] = f"linear solve failed: {exc}"
                break
            factorizations += 1
            carry.lu = (plan, lu)
        try:
            du = lu(-r)
            failure = None if np.isfinite(du).all() else "non-finite Newton direction"
        except (RuntimeError, SystemError, ValueError) as exc:   # what SuperLU raises
            failure = f"back-solve failed: {exc}"
        if failure is not None:
            if not fresh:
                lu = None   # a carried or frozen LU unfit for this system: refactor
                continue
            info["error"] = failure
            break
        alpha = 1.0
        while alpha >= opts.alpha_min:
            u_try = u + du if alpha == 1.0 else u + alpha * du
            trial[plan.unknowns] = u_try
            r_try = full_residual(trial)
            merit_try = 0.5 * float(r_try @ r_try)
            if math.isfinite(merit_try) and merit_try <= (1 - 2 * opts.sigma * alpha) * merit:
                break
            alpha *= 0.5
        accepted = alpha >= opts.alpha_min
        if not accepted and not fresh:
            lu = None  # frozen direction went stale, rebuild and retry
            continue
        iterations += 1
        if not accepted:
            info["line_search_failures"] += 1
            break
        Vx, trial = trial, Vx
        u, r = u_try, r_try
        if alpha < 1.0 or merit_try > 0.1 * merit:
            lu = None  # slow contraction: refresh the Jacobian next pass
        merit = merit_try
        rnorm = float(np.abs(r).max()) if m else 0.0
        if rnorm < best[0]:
            best = (rnorm, u)

    if rnorm <= opts.tol:
        info["converged"] = True
    if rnorm > best[0]:
        Vx[plan.unknowns] = best[1]
        rnorm = best[0]
    info.update(iterations=iterations, factorizations=factorizations, residual=rnorm,
                residual_evals=evals)
    return Vx, info


def _warn_if_margin_fails(mask: DomainMask, g_vals: np.ndarray) -> dict:
    """Coarse measure-vs-perimeter margin screen for the minimizer data:
    ``{"eta_star": eta*}``, logged at WARNING when eta* <= 0.

    A screen that cannot run (``ScalarField`` or ``eta_margin`` raising
    ``ValueError``) returns ``{"skipped": reason}``, logged at WARNING; any
    other exception propagates.
    """
    try:
        dens = ScalarField(grid=mask.grid,
                           values=np.where(mask.interior, g_vals, np.nan),
                           provenance="derived")
        stride = max(2, min(mask.grid.extents) // 8)
        rep = eta_margin(dens, mask, SetFamily(rectangles=True, rect_stride=stride))
        if rep.eta_star <= 0:
            logger.warning(
                "prescribed density fails the measure/perimeter margin on the "
                "screened family (eta* = %.3f); the minimizer may be unbounded",
                rep.eta_star)
    except ValueError as exc:
        logger.warning("measure/perimeter margin screen skipped: %s", exc)
        return {"skipped": str(exc)}
    return {"eta_star": rep.eta_star}


def _descent_witness(mask: DomainMask, g_vals: np.ndarray, lengths: np.ndarray,
                     iterate: np.ndarray):
    """Set on which lowering u decreases the functional without bound.

    Dropping u by s on a set A changes the functional at rate
    |interface of A| + (boundary length inside A) - nu(A) for large s; a
    negative rate certifies the solvability-balance failure.  Candidate
    sets: the whole domain and sublevel sets of the failed iterate (the
    collapse happens exactly on a failing set), at quantiles of its finite
    interior values; a sublevel set equal to the whole domain is scored as
    the whole domain only.
    """
    grid = mask.grid
    hv = grid.cell_volume
    candidates = []
    total_nu = float(np.nansum(np.where(mask.interior, g_vals, 0.0)) * hv)
    total_len = float(lengths[mask.boundary].sum())
    candidates.append(("the whole domain", total_len - total_nu))
    finite = mask.interior & np.isfinite(iterate)
    if finite.any():
        vals = iterate[finite]
        for q in (0.1, 0.3, 0.5):
            t = float(np.quantile(vals, q))
            member = finite & (iterate <= t)     # never empty: it holds vals.min()
            if np.array_equal(member, mask.interior):
                continue
            s = DiscreteSet(grid=grid, member=member,
                            level_source=(np.where(np.isfinite(iterate),
                                                   t - iterate, -1.0), 0.0))
            per = s.geometry().perimeter
            nu_a = float(np.nansum(np.where(member, g_vals, 0.0)) * hv)
            candidates.append((f"a sublevel set of the iterate (q={q})",
                               per - nu_a))
    worst = min(candidates, key=lambda c: c[1])
    return worst if worst[1] < 0 else None


def _repair_init(V, unk, fix):
    fill = np.nanmin(V[fix]) if fix.any() else 0.0
    bad = unk & ~np.isfinite(V)
    V[bad] = fill
    return V


# penalty rows: flux balance + smoothed absolute deviation at boundary cells


def _penalty_residual(Vx, h, n, pen, flux, plan):
    """Penalty rows: the flux into the penalty cell from its non-penalty
    neighbours (its faces to others are the sentinel face, whose flux reads
    0), summed face by face in the order of the face axes, plus the
    smoothed-L1 deviation term."""
    fr = flux[plan.rows[:, plan.penalty_rows]]
    fr = np.where(np.isfinite(fr), fr, 0.0)
    out_flux = np.zeros(fr.shape[1])
    for sign, f in zip(np.tile([1.0, -1.0], n), fr):
        out_flux += sign * f
    kappa = pen["kappa"]
    dev = Vx[pen["cells"]] - pen["phi"]
    sprime = dev / np.sqrt(dev * dev + kappa * kappa)
    return (out_flux * h ** (n - 1) + pen["length"] * sprime) / h ** n


def _penalty_triplets(Vx, h, n, pen):
    """Diagonal of the smoothed-L1 term in the penalty rows, row by row.

    The flux part of those rows comes with the face coefficients (see
    ``_jac_values_2d``).
    """
    kappa = pen["kappa"]
    dev = Vx[pen["cells"]] - pen["phi"]
    return pen["length"] * kappa * kappa / (dev * dev + kappa * kappa) ** 1.5 / h ** n


# ---------------------------------------------------------------------------
# public solvers


def solve_dirichlet(mask: DomainMask, f=None, phi=0.0,
                    opts: Optional[SolveOptions] = None,
                    init: Optional[ScalarField] = None,
                    carry: Optional[PlanHolder] = None) -> SolveOutcome:
    """Solve the prescribed mean curvature Dirichlet problem on the mask.

    f is the target density (None means the minimal surface equation) and
    phi the boundary-cell data, each a datum of ``field.cell_values``.
    Newton starts from ``init`` on the interior when given (undefined cells
    take the lowest boundary value), else from the harmonic extension of phi.
    A continuation passes one ``carry`` holder to each of its solves, which
    then share the plan and may start on the last LU of the solve before
    (see ``_newton_core``).  Non-convergence is a reportable outcome carrying
    the best iterate, never an exception.
    """
    opts = opts or SolveOptions()
    grid = mask.grid
    unknown, fixed = mask.interior, mask.boundary
    phi_vals = cell_values(phi, grid, fixed, "boundary cells of phi")
    f_vals = cell_values(f, grid, unknown, "interior cells of the forcing f")
    values, info = _newton_arrays(grid.h, grid.n, unknown, fixed, phi_vals, f_vals,
                                  opts, init_values=None if init is None else init.values,
                                  carry=carry)
    fld = ScalarField(grid=grid, values=values, provenance="solved")
    certificate = None
    # no residual was evaluated when the harmonic start failed: no iterate
    if info["residual_evals"] and (f is None or (np.asarray(f_vals[unknown]) == 0).all()):
        lo, hi = float(np.nanmin(phi_vals[fixed])), float(np.nanmax(phi_vals[fixed]))
        umin = float(np.nanmin(values[unknown]))
        umax = float(np.nanmax(values[unknown]))
        certificate = {
            "max_principle": bool(umin >= lo - 10 * opts.tol - 1e-12
                                  and umax <= hi + 10 * opts.tol + 1e-12),
            "phi_range": (lo, hi), "u_range": (umin, umax),
        }
    return SolveOutcome(field=fld, residual_norm=info["residual"],
                        iterations=info["iterations"], converged=info["converged"],
                        certificate=certificate, diagnostics=info)


_ACTIVE_SET_ROUNDS = 3   # pinning rounds after the fully penalized first solve


def minimize_prescribed_mc(mask: DomainMask, g=None, phi=0.0,
                           opts: Optional[SolveOptions] = None) -> SolveOutcome:
    """First-order stationarity for area + load + L1 boundary deviation,
    ``mco.area_functional``, whose rows are density = g.

    Stage one solves with the boundary deviation smoothed as
    sqrt(s^2 + kappa^2), kappa = h; boundary cells whose flux balance stays
    strictly inside the unit ball are then pinned to the trace and the
    system re-solved, so that fully attained traces reproduce the Newton
    solver exactly.  A monotonically sinking functional with an exploding
    iterate aborts with the witness direction (solvability balance failure).
    One plan holder serves the start and every round, so a round may start
    on the last LU of the round before.  A failed harmonic start raises
    RuntimeError.  The diagnostics are the last round's ``info``, except
    ``iterations``, ``factorizations`` (the start's LU included) and
    ``residual_evals``, summed over the ``rounds`` run, plus the
    ``margin_screen`` of ``_warn_if_margin_fails``: its eta* or why it was
    skipped.
    """
    opts = opts or SolveOptions()
    grid = mask.grid
    phi_vals = cell_values(phi, grid, mask.boundary, "boundary cells of phi")
    g_vals = cell_values(g, grid, mask.interior, "interior cells of the load g")
    kappa = grid.h
    screen = _warn_if_margin_fails(mask, g_vals)

    # boundary length element for the stationarity rows: face measure of the
    # discrete boundary (one h^(n-1) per face shared with an interior cell)
    nfaces = _interior_face_count(mask)
    lengths = nfaces * grid.h ** (grid.n - 1)
    # cells touching the interior only diagonally carry no boundary length;
    # the deviation term cannot move them, so they are pinned to the trace
    always_pinned = mask.boundary & (nfaces == 0)

    detached = mask.boundary & ~always_pinned  # start fully penalized
    span = float(np.nanmax(phi_vals[mask.boundary]) - np.nanmin(phi_vals[mask.boundary]))
    floor_guard = float(np.nanmin(phi_vals[mask.boundary])) - 10.0 * (1.0 + span)

    # first round starts from the trace-anchored harmonic extension; the
    # penalized system alone is too loosely pinned to initialize well
    carry = PlanHolder()
    values = phi_vals.copy()
    win = _window(mask.interior, mask.boundary)
    start = carry.plan(mask.interior[win], mask.boundary[win], mask.interior[win])
    values[win].flat[start.unknowns] = _harmonic_extension(start.flat(values[win]), grid.h,
                                                           start)
    info = {}
    counts = {"iterations": 0, "factorizations": 1, "residual_evals": 0}   # the start's LU
    phi_field = ScalarField(grid=grid, values=phi_vals)
    g_field = ScalarField(grid=grid, values=np.where(mask.interior, g_vals, 0.0))
    func_trace = []
    for round_ in range(_ACTIVE_SET_ROUNDS + 1):
        pinned = (mask.boundary & ~detached) | always_pinned
        unk = mask.interior | detached
        penalty = None
        if detached.any():
            penalty = {"cells": detached, "phi": phi_vals, "length": lengths, "kappa": kappa}
        values, info = _newton_arrays(grid.h, grid.n, unk, pinned, phi_vals, g_vals,
                                      opts, init_values=values, penalty=penalty, carry=carry)
        for key in counts:
            counts[key] += info[key]
        umin = float(np.nanmin(values[mask.interior]))
        fval = area_functional(
            ScalarField(grid=grid, values=np.where(mask.region, values, np.nan)),
            g_field, phi_field, mask)
        func_trace.append(fval)
        if not info["converged"] and umin < floor_guard:
            witness = _descent_witness(mask, g_vals, lengths, values)
            if witness is not None:
                raise UnboundedDescentError(
                    "functional decreases without bound along the witness "
                    "direction; the measure/perimeter solvability balance is "
                    f"violated on {witness[0]} (margin {witness[1]:.4f})",
                    witness=witness, functional_trace=func_trace)
        if not detached.any():
            break
        dev = values - phi_vals
        sprime = dev / np.sqrt(dev * dev + kappa * kappa)
        attainable = mask.boundary & (np.abs(np.where(np.isfinite(sprime), sprime, 0.0)) <= 0.98)
        new_detached = detached & ~attainable
        if (new_detached == detached).all() and round_ > 0:
            break
        detached = new_detached

    attained = mask.boundary & ~detached
    out_vals = values.copy()
    out_vals[~mask.region] = np.nan
    fld = ScalarField(grid=grid, values=out_vals, provenance="solved")
    diag = dict(info, **counts)
    diag.update({
        "rounds": round_ + 1,
        "kappa": kappa,
        "attained_fraction": float(attained.sum()) / float(mask.boundary.sum()),
        "detached_cells": int(detached.sum()),
        "functional": func_trace[-1] if func_trace else float("nan"),
        "stationarity_norm": info.get("residual", float("nan")),
        "margin_screen": screen,
    })
    return SolveOutcome(field=fld, residual_norm=info.get("residual", float("nan")),
                        iterations=counts["iterations"], converged=info.get("converged", False),
                        diagnostics=diag)
