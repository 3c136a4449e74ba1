"""Dirichlet solvers for the prescribed mean curvature equation.

``solve_dirichlet`` runs damped Newton on the conservative staggered scheme
with exact Dirichlet data on the boundary layer; ``minimize_prescribed_mc``
solves the first-order conditions of the area functional with a smoothed L1
boundary deviation term, pinning the trace wherever the boundary flux stays
strictly below one (active-set polish), so attained-trace minimizers agree
with the Newton solver on the same discrete equations.  All of them run the
one Newton kernel ``_newton_core``, which starts from a given field or else
from the harmonic extension of the data, and whose matrix is assembled
analytically (penalty rows included) and factored at every size by one
symmetric-mode sparse LU.  A cached plan per cell pattern numbers the
unknowns in a nested-dissection order read off the cells before any
factorization, and keeps the CSC slot of every matrix entry, so every
factorization scatters its values and factors them in that order on one
path, and a solve never depends on which patterns the cache has seen.  The
plan, fixed once built, also indexes every Newton step: ``_residual``
gathers only the faces that touch the unknown rows from the flat window,
applies ``mco.face_formula`` (the formula of the grid kernels) and sums the
divergence as ``mco._divergence`` does, so each row equals the grid density
bit for bit; the matrix reads the same faces, and 1d and 2d solves run the
same code.  Ball replacements (``solve_on_ball``, the Perron lift and sweep,
the viscosity check) go through one windowed ball kernel: ``ball_region``
cuts the ball's window and takes its ball and ring masks from a bounded
cache, ``_solve_ball`` checks the sphere data and owns the warm start and
the harmonic restart.

A Newton solve's first LU is factored fresh, except in a Perron sweep: there
each ball's warm-started solve may start on the last LU of the ball before it
(a chord matrix lagged across solves), handed over in a holder that the sweep
owns, and only when both balls share one cached plan.  LUs are never kept on
the shared plan, so a solve's iterates never depend on other threads.
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from dataclasses import dataclass, field as _dcfield
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as slinalg

from .field import (DomainMask, Grid, ScalarField, SizingError, UndefinedCellError,
                    _dist_to, _ring)
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
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")


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


def _residual(Vx: np.ndarray, h: float, f_rows: np.ndarray, plan: "_NewtonPlan",
              fallback: bool):
    """Density minus forcing on every unknown row, from the plan's faces only.

    ``Vx`` is the flat window followed by a NaN slot and a zero slot.  The
    faces come from ``mco.face_formula`` on the gathered cells and the
    divergence adds them per axis in the order of ``mco._divergence``, so a
    row equals ``_divergence(face_gradients(V, h, fallback))`` there minus
    its forcing, bit for bit.  Returns the rows and the faces' (g, t, w, f).
    """
    lo, hi, l_up, l_down, h_up, h_down = Vx[plan.cells]
    faces = face_formula(lo, hi, l_up - l_down, h_up - h_down, h, fallback)
    fr = faces[3][plan.rows]
    total = fr[1] - fr[0]
    for axis in range(1, len(fr) // 2):
        total = total + fr[2 * axis + 1] - fr[2 * axis]
    return total / h - f_rows, faces


# a face flux depends on the normal difference across the face and on the
# transverse differences of its two sides (0 below, 1 above the face), each
# as (side, transverse offset, weight); sides and offsets act along the
# face's normal and transverse axes
_FACE_DEPS = ((0, 0, -1.0), (1, 0, 1.0), (0, 1, 0.25), (0, -1, -0.25),
              (1, 1, 0.25), (1, -1, -0.25))


def _face_plan(unk, unknowns):
    """The faces of the unknown rows, in face order (axis by axis, each in
    C order of its face grid), plus one sentinel face.

    Returns (cells, rows, face_pos).  ``cells`` (6, F + 1) holds per face
    the flat window indices of its lower and upper cell and of their
    transverse neighbours (lower +, lower -, upper +, upper -).  Index N of
    an N-cell window is a NaN slot: a neighbour past the window's edge reads
    it, and so do all six cells of the sentinel face F.  Index N + 1 is a
    zero slot, the transverse neighbours of a 1d face.  ``rows`` (2n, m)
    holds per unknown, in the order of ``unknowns`` (flat window indices),
    the positions of its faces below and above along each axis, F where the
    window ends.  ``face_pos`` maps each axis's face grid to positions, -1
    off the plan.
    """
    n, size = unk.ndim, unk.size
    ids = np.pad(np.arange(size).reshape(unk.shape), 1, constant_values=size)
    unit = np.eye(n, dtype=int)
    cells, face_pos, count = [], [], 0
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
        face_pos.append(pos)
        count += face.shape[1]
    cells = np.concatenate(cells + [np.full((6, 1), size)], axis=1)
    cell = np.unravel_index(unknowns, unk.shape)
    rows = []
    for axis, pos in enumerate(face_pos):
        padded = np.pad(pos, [(int(k == axis),) * 2 for k in range(n)], constant_values=count)
        rows += [padded[cell], padded[tuple(c + (k == axis) for k, c in enumerate(cell))]]
    return cells, np.stack(rows), face_pos


def _dissection(unk):
    """Flat window indices of the unknown cells in nested-dissection order.

    The unknowns' bounding box is bisected across its longer axis (the first
    on a tie): the unknowns of the one-cell slab in the middle come after
    those of the two halves, and each half is ordered the same way (George,
    "Nested dissection of a regular finite element mesh", SIAM J. Numer.
    Anal. 10, 1973).  A Newton row couples only its 3^n neighbourhood, so
    the slab separates the halves, and an LU in this order fills in only
    within the nested boxes and their slabs.  All boxes of one level are
    split at once; a summed-area table counts the unknowns of each half,
    which places every slab without a sort.  A slab lists its cells in C
    order; a 1d window of N cells is taken as an N x 1 window.
    """
    unk2 = unk.reshape(unk.shape + (1,) * (2 - unk.ndim))
    flat = unk2.ravel()
    ny = unk2.shape[1]
    sat = np.zeros((unk2.shape[0] + 1, ny + 1), np.intp)
    sat[1:, 1:] = unk2.cumsum(0).cumsum(1)

    def count(lo, hi):
        return sat[hi[0], hi[1]] - sat[lo[0], hi[1]] - sat[hi[0], lo[1]] + sat[lo[0], lo[1]]

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


def _jac_structure(unk, fix, rows_interior, slots, fallback, face_pos, nfaces):
    """Sparsity pattern of the Newton matrix; fixed across Newton iterations.

    An interior row takes every face flux of its cell; a penalty row
    (unknown, not interior) takes, sign-flipped, the flux through each face
    it shares with a defined non-penalty cell.  A 1d face has no transverse
    axis, so its flux depends on its two cells only.  With fallback, a
    transverse difference taken from one side only weighs that side 1/2
    instead of 1/4, as in ``mco.face_formula``.  Every entry couples a row
    to a column in its 3^n neighbourhood, whose CSC slot ``slots`` (of
    ``_csc_pattern``) holds.  Returns (slot, (gather, scale)): value k goes
    to CSC slot ``slot[k]`` and is ``coeff[gather[k]] * scale[k] / h^2``
    over the normal then the transverse flux derivatives of the plan's faces
    (``face_pos`` places them among the ``nfaces``, see ``_face_plan``), as
    ``_jac_values_2d`` concatenates them.
    """
    n = unk.ndim
    defined, interior, pcells = (np.pad(a, 1) for a in
                                 (unk | fix, rows_interior, unk & ~rows_interior))
    padded = defined.shape
    steps = np.cumprod((1,) + padded[:0:-1])[::-1]     # flat step along each axis
    unit = np.eye(n, dtype=int)
    slot, gather, scale = [], [], []
    for axis, pos in enumerate(face_pos):
        e = unit[axis]
        # flat index of each face's lower cell in the padded window
        face = np.ravel_multi_index(tuple(np.indices(pos.shape).reshape(n, -1) + 1), padded)
        pos = pos.ravel()

        def at(arr, offset):
            return arr.reshape(-1)[face + offset @ steps]

        # (offset of the column cell, weight, fallback factor, coefficient block)
        deps = [(s * e, dep, 1.0, 0) for s, d, dep in _FACE_DEPS if not d]
        for t in unit[np.arange(n) != axis]:     # the transverse axis, none in 1d
            ok = [at(defined, s * e + t) & at(defined, s * e - t) for s in (0, 1)]
            deps += [(s * e + d * t, dep, ok[s] * (2 - ok[1 - s]) if fallback else 1.0,
                      nfaces) for s, d, dep in _FACE_DEPS if d]
        for side, row_sign in ((0, 1.0), (1, -1.0)):
            here, there = side * e, (1 - side) * e
            weight = np.where(at(interior, here), row_sign,
                              np.where(at(pcells, here) & ~at(pcells, there)
                                       & at(defined, there), -row_sign, 0.0))
            for offset, dep, factor, block in deps:
                val = weight * dep * factor
                link = np.ravel_multi_index(tuple(here - offset + 1), (3,) * n)
                where = at(slots[link], offset)
                keep = (val != 0) & (where >= 0)
                slot.append(where[keep])
                gather.append(pos[keep] + block)
                scale.append(val[keep])
    # values are +-1, +-1/2 or +-1/4: exact in float32
    return (np.concatenate(slot),
            (np.concatenate(gather).astype(np.int32), np.concatenate(scale).astype(np.float32)))


def _csc_pattern(unk, unknowns):
    """CSC pattern of the Newton matrices of the window's unknown cells,
    numbered in the order of ``unknowns`` (flat window indices).

    Column c holds every unknown of its 3^n neighbourhood, which holds every
    entry of the matrix (see ``_jac_structure``), rows sorted.  Returns int32
    (indptr, indices, slots, diagonal): ``slots[k]`` is the window padded by
    one cell, holding at each unknown the slot of the entry whose row lies
    at the k-th offset of the 3^n neighbourhood (in C order of the offsets
    -1, 0, 1 per axis) from it, -1 where there is none; ``diagonal`` holds
    the slots of the diagonal.  Built column by column from the
    neighbourhood table, without a global sort.
    """
    m = unknowns.size
    ids = np.full(unk.size, m)
    ids[unknowns] = np.arange(m)
    ids = np.pad(ids.reshape(unk.shape), 1, constant_values=m)
    cell = tuple(c + 1 for c in np.unravel_index(unknowns, unk.shape))
    offsets = np.array(list(np.ndindex((3,) * unk.ndim))) - 1    # the 3^n neighbourhood
    rows = np.stack([ids[tuple(c + d for c, d in zip(cell, off))] for off in offsets], axis=1)
    present = rows < m
    by = np.argsort(rows, axis=1, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))]).astype(np.int32)
    indices = np.take_along_axis(rows, by, axis=1)
    rank = np.empty_like(by)
    np.put_along_axis(rank, by, np.arange(len(offsets)), axis=1)
    slot = np.where(present, indptr[:-1, None] + rank, -1).astype(np.int32)
    slots = np.full((len(offsets),) + ids.shape, -1, np.int32)
    slots[(slice(None),) + cell] = slot.T
    return indptr, indices[indices < m].astype(np.int32), slots, slot[:, len(offsets) // 2]


def _jac_values_2d(h, faces, plan):
    """Newton matrix values from the plan's faces (g, t, w, f) and its
    (gather, scale)."""
    gather, scale = plan
    g, t, w, _ = faces
    w3 = w ** 3
    coeff = np.concatenate([(1.0 + t * t) / w3, -g * t / w3])
    return coeff[gather] * (scale * np.float64(1.0 / (h * h)))


class _NewtonPlan:
    """What the Newton systems of one cell pattern share; fixed once built.

    ``unknowns``: the flat window index of each unknown, in the
    nested-dissection order of ``_dissection``, which numbers the unknowns
    (rows and columns of the matrix) everywhere below.  The residual's
    gather indices: ``cells`` and ``rows`` of ``_face_plan``;
    ``penalty_rows``, the unknowns that are penalty rows; ``penalty_signs``
    (2n, rows), which orient the flux of each of their faces from a
    non-penalty neighbour into the penalty cell, 0 where the neighbour is a
    penalty cell.  Then the (gather, scale) ``values`` plan of
    ``_jac_values_2d`` with the CSC ``slot`` of each value (of
    ``_jac_structure``), and the matrix's CSC pattern of ``_csc_pattern``:
    ``indptr``, ``indices`` and the ``diagonal`` slots.
    """

    def __init__(self, unk, fix, rows_interior, fallback):
        self.unknowns = _dissection(unk)
        self.cells, self.rows, face_pos = _face_plan(unk, self.unknowns)
        pcells = unk & ~rows_interior
        self.penalty_rows = np.flatnonzero(pcells.ravel()[self.unknowns])
        other = np.pad(pcells, 1)
        cell = tuple(c + 1 for c in np.unravel_index(self.unknowns[self.penalty_rows],
                                                     unk.shape))
        signs = []
        for axis in range(unk.ndim):
            # the face below a penalty cell brings flux in, the one above takes it out
            for step, sign in ((-1, 1.0), (1, -1.0)):
                nb = tuple(c + step * (k == axis) for k, c in enumerate(cell))
                signs.append(np.where(other[nb], 0.0, sign))
        self.penalty_signs = np.stack(signs)
        self.indptr, self.indices, slots, self.diagonal = _csc_pattern(unk, self.unknowns)
        self.slot, self.values = _jac_structure(unk, fix, rows_interior, slots, fallback,
                                                face_pos, self.cells.shape[1])


# held around every plan lookup: lru_cache alone lets concurrent misses build
# and hand out two plans for one pattern, and a carried LU is matched to its
# pattern by the identity of the plan
_PLAN_LOCK = threading.Lock()


@functools.lru_cache(maxsize=64)
def _newton_plan(shape, unk, fix, rows_interior, fallback) -> _NewtonPlan:
    """Plan of a cell pattern given by the bytes of its masks, cached
    because the translated balls of a sweep level repeat it."""
    return _NewtonPlan(*(np.frombuffer(b, bool).reshape(shape)
                         for b in (unk, fix, rows_interior)), fallback)


def _factorize(plan: _NewtonPlan, vals, diag, m):
    """Factor one Newton matrix (values ``vals`` in the plan's slots, plus
    ``diag`` on the diagonal); returns a solve closure.

    One ``bincount`` scatters the values into the plan's CSC form, and one
    sparse LU with diagonal-preferring pivots (SuperLU's symmetric mode)
    factors it in the plan's own nested-dissection order at every size, so
    every factorization of a pattern takes the same path.
    """
    data = np.bincount(plan.slot, vals, plan.indices.size)
    data[plan.diagonal] += diag
    lu = slinalg.splu(sparse.csc_matrix((data, plan.indices, plan.indptr), shape=(m, m)),
                      permc_spec="NATURAL", diag_pivot_thresh=0.001,
                      options=dict(SymmetricMode=True))
    return lambda b: lu.solve(b)   # a closure over the LU: perfbench's tracer reads it


def _harmonic_extension(n, shape, unknown, fixed, V):
    """5-point Laplace solve with the fixed values as data (cheap initializer)."""
    m = int(unknown.sum())
    ids = np.full([k + 2 for k in shape], -1)     # unknown ids, padded by one cell
    ids[(slice(1, -1),) * n][unknown] = np.arange(m)
    data = np.pad(np.where(fixed & ~unknown, V, 0.0), 1)
    cells = np.nonzero(unknown)
    rows, cols, vals = [np.arange(m)], [np.arange(m)], [np.full(m, -float(2 * n))]
    rhs = np.zeros(m)
    for axis in range(n):
        for step in (-1, 1):
            nb = tuple(c + 1 + step * (k == axis) for k, c in enumerate(cells))
            inner = ids[nb] >= 0
            rows.append(np.nonzero(inner)[0])
            cols.append(ids[nb][inner])
            vals.append(np.ones(len(rows[-1])))
            rhs -= data[nb]
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m)).tocsc()
    try:
        sol = slinalg.spsolve(A, rhs)
        if not np.isfinite(sol).all():   # spsolve only warns on a singular matrix
            raise RuntimeError("the Laplace solve returned non-finite values")
    except (RuntimeError, ValueError) as exc:
        logger.warning("harmonic initializer failed (%s); starting from zero", exc)
        sol = np.zeros(m)
    out = V.copy()
    out[unknown] = sol
    return out


def _newton_core(h: float, n: int, unknown: np.ndarray, fixed: np.ndarray,
                 fixed_values: np.ndarray, f_values: np.ndarray,
                 opts: SolveOptions, init_values: Optional[np.ndarray] = None,
                 penalty: Optional[dict] = None,
                 carry: Optional[list] = None) -> tuple[np.ndarray, dict]:
    """Damped Newton on arrays; slices its own tight window internally.

    The cell pattern's cached ``_NewtonPlan`` indexes every step: the
    residual (``_residual``, penalty rows by ``_penalty_residual``) reads
    only the faces of the unknown rows from the flat window, the line search
    writes trial values through the plan's unknown indices into a second
    buffer, and the matrix takes the same faces.  Each fresh LU stays frozen
    as the chord matrix of later steps while they keep contracting; a failed
    line search, slow contraction, or a back-solve that raises or returns
    non-finite values drops it and refactors (and ends the solve with
    ``info["error"]`` when the LU was fresh).  The first LU is fresh unless
    ``carry``, a holder of the last fresh ``[plan, solve]`` pair of an
    earlier solve, holds this pattern's plan: the solve then starts on that
    LU.  Every fresh LU replaces the pair in ``carry``.  ``info`` counts
    ``iterations`` (Newton steps, at most ``opts.max_iter``; a pass that only
    drops an LU is not one), ``residual_evals`` (``_residual`` calls, line
    search trials included) and ``factorizations`` (fresh LUs), and says
    whether the solve ``carried`` (started on a carried LU).
    """
    win = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(unknown | fixed))
    unk = unknown[win]
    fix = fixed[win]
    V = np.full(unk.shape, np.nan)
    V[fix] = fixed_values[win][fix]
    rows_interior = unk
    if penalty is not None:
        rows_interior = unk & ~penalty["cells"][win]

    if init_values is not None:
        V[unk] = init_values[win][unk]
        if np.isnan(V[unk]).any() or np.isneginf(V[unk]).any():
            V = _repair_init(V, unk, fix)
    else:
        V[~(unk | fix)] = np.nan
        V = _harmonic_extension(n, unk.shape, unk, fix, V)

    fallback = penalty is not None
    with _PLAN_LOCK:
        plan = _newton_plan(unk.shape, unk.tobytes(), fix.tobytes(),
                            rows_interior.tobytes(), fallback)
    m = plan.unknowns.size
    f_rows = f_values[win].ravel()[plan.unknowns]
    f_rows = np.where(np.isfinite(f_rows), f_rows, 0.0)
    pen = None
    if penalty is not None:
        cells = plan.unknowns[plan.penalty_rows]
        pen = {"cells": cells, "phi": penalty["phi"][win].ravel()[cells],
               "length": penalty["length"][win].ravel()[cells], "kappa": penalty["kappa"]}

    evals = 0

    def full_residual(Vx):
        nonlocal evals
        evals += 1
        r, faces = _residual(Vx, h, f_rows, plan, fallback)
        if pen is not None:
            r[plan.penalty_rows] = _penalty_residual(Vx, h, n, pen, faces[3], plan)
        return r, faces

    # flat window plus the NaN and zero slots the plan's indices read
    Vx = np.concatenate([V.ravel(), (np.nan, 0.0)])
    r, faces = full_residual(Vx)
    if np.isnan(r).any():
        bad = np.isnan(r)
        bad[plan.penalty_rows] = False
        cells = np.unravel_index(np.sort(plan.unknowns[bad]), unk.shape)   # C order
        raise UndefinedCellError("solver stencil touches undefined cells", list(zip(*cells)))
    u = Vx[plan.unknowns]
    rnorm = float(np.abs(r).max()) if m else 0.0
    best = (rnorm, u)
    trial = Vx.copy()   # line-search buffer: differs from Vx on the unknowns only

    lu = carry[1] if carry and carry[0] is plan else None   # frozen while it contracts
    info = {"iterations": 0, "converged": False, "line_search_failures": 0,
            "factorizations": 0, "carried": lu is not None}

    def assemble_factorize():
        vi = _jac_values_2d(h, faces, plan.values)
        diag = np.zeros(m)
        if pen is not None:
            diag[plan.penalty_rows] = _penalty_triplets(Vx, h, n, pen)
        return _factorize(plan, vi, diag, m)

    # a pass that only drops a carried or frozen LU takes no step and is not
    # counted; the fresh LU after it either steps or ends the solve
    while info["iterations"] < opts.max_iter:
        if rnorm <= opts.tol:
            info["converged"] = True
            break
        fresh = lu is None
        if fresh:
            try:
                lu = assemble_factorize()
            except Exception as exc:
                info["error"] = f"linear solve failed: {exc}"
                break
            info["factorizations"] += 1
            if carry is not None:
                carry[:] = (plan, lu)
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
        merit = 0.5 * float(r @ r)
        alpha = 1.0
        accepted = False
        while alpha >= opts.alpha_min:
            u_try = u + alpha * du
            trial[plan.unknowns] = u_try
            r_try, faces_try = full_residual(trial)
            merit_try = 0.5 * float(r_try @ r_try)
            if np.isfinite(merit_try) and merit_try <= (1 - 2 * opts.sigma * alpha) * merit:
                Vx, trial = trial, Vx
                u, r, faces = u_try, r_try, faces_try
                accepted = True
                break
            alpha *= 0.5
        if not accepted and not fresh:
            lu = None  # frozen direction went stale, rebuild and retry
            continue
        info["iterations"] += 1
        if not accepted:
            info["line_search_failures"] += 1
            break
        merit_new = 0.5 * float(r @ r)
        if alpha < 1.0 or merit_new > 0.1 * merit:
            lu = None  # slow contraction: refresh the Jacobian next pass
        rnorm = float(np.abs(r).max()) if m else 0.0
        if rnorm < best[0]:
            best = (rnorm, u)

    if rnorm <= opts.tol:
        info["converged"] = True
    if rnorm > best[0]:
        Vx[plan.unknowns] = best[1]
        rnorm = best[0]
    info["residual"] = rnorm
    info["residual_evals"] = evals

    out = np.full(unknown.shape, np.nan)
    out[win] = Vx[:-2].reshape(unk.shape)
    return out, info


def _warn_if_margin_fails(mask: DomainMask, g_vals: np.ndarray) -> None:
    """Coarse measure-vs-perimeter margin screen for the minimizer data.

    A screen that cannot run (``ScalarField`` or ``eta_margin`` raising
    ``ValueError``) is logged at WARNING with its reason; any other
    exception propagates.
    """
    try:
        from .levelset import SetFamily, eta_margin
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


def _descent_witness(mask: DomainMask, g_vals: np.ndarray, lengths: np.ndarray,
                     iterate: np.ndarray):
    """Set on which lowering u decreases the functional without bound.

    Dropping u by s on a set A changes the functional at rate
    |interface of A| + (boundary length inside A) - nu(A) for large s; a
    negative rate certifies the solvability-balance failure.  Candidate
    sets: the whole domain and sublevel sets of the failed iterate (the
    collapse happens exactly on a failing set).
    """
    grid = mask.grid
    hv = grid.cell_volume
    candidates = []
    total_nu = float(np.nansum(np.where(mask.interior, g_vals, 0.0)) * hv)
    total_len = float(lengths[mask.boundary].sum())
    candidates.append(("the whole domain", total_len - total_nu))
    vals = iterate[mask.interior]
    if np.isfinite(vals).any():
        from .field import DiscreteSet
        for q in (0.1, 0.3, 0.5):
            t = float(np.nanquantile(vals, q))
            member = mask.interior & np.isfinite(iterate) & (iterate <= t)
            if not member.any() or member.all():
                continue
            s = DiscreteSet(grid=grid, member=member, mask=mask,
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
    neighbours, summed face by face in the order of the face axes, plus the
    smoothed-L1 deviation term."""
    fr = flux[plan.rows[:, plan.penalty_rows]]
    fr = np.where(np.isfinite(fr), fr, 0.0)
    out_flux = np.zeros(fr.shape[1])
    for sign, f in zip(plan.penalty_signs, fr):
        out_flux += sign * f
    kappa = pen["kappa"]
    dev = Vx[pen["cells"]] - pen["phi"]
    sprime = dev / np.sqrt(dev * dev + kappa * kappa)
    return (out_flux * h ** (n - 1) + pen["length"] * sprime) / h ** n


def _penalty_triplets(Vx, h, n, pen):
    """Diagonal of the smoothed-L1 term in the penalty rows, row by row.

    The flux part of those rows comes with the face coefficients (see
    ``_jac_structure``).
    """
    kappa = pen["kappa"]
    dev = Vx[pen["cells"]] - pen["phi"]
    return pen["length"] * kappa * kappa / (dev * dev + kappa * kappa) ** 1.5 / h ** n


# ---------------------------------------------------------------------------
# public solvers


def _as_values(grid: Grid, mask: DomainMask, data, where: np.ndarray) -> np.ndarray:
    out = np.full(grid.shape, np.nan)
    if data is None:
        out[where] = 0.0
    elif isinstance(data, ScalarField):
        out[where] = data.values[where]
    elif callable(data):
        pts = grid.points()[where]
        out[where] = np.asarray(data(pts.reshape(-1, grid.n)), dtype=float)
    else:
        out[where] = float(data)
    bad = where & ~np.isfinite(out)
    if bad.any():
        raise UndefinedCellError("data undefined or infinite on required cells",
                                 list(zip(*np.nonzero(bad))))
    return out


def solve_dirichlet(mask: DomainMask, f=None, phi=0.0,
                    opts: Optional[SolveOptions] = None,
                    init: Optional[ScalarField] = None) -> SolveOutcome:
    """Solve the prescribed mean curvature Dirichlet problem on the mask.

    f is the target density (None means the minimal surface equation), phi
    supplies boundary-cell data (scalar, callable on points, or a field).
    Newton starts from ``init`` on the interior when given (undefined cells
    take the lowest boundary value), else from the harmonic extension of phi.
    Non-convergence is a reportable outcome carrying the best iterate, never
    an exception.
    """
    opts = opts or SolveOptions()
    grid = mask.grid
    unknown, fixed = mask.interior, mask.boundary
    phi_vals = _as_values(grid, mask, phi, fixed)
    f_vals = _as_values(grid, mask, f, unknown)
    values, info = _newton_core(grid.h, grid.n, unknown, fixed, phi_vals, f_vals,
                                opts, init_values=None if init is None else init.values)
    fld = ScalarField(grid=grid, values=values, provenance="solved")
    certificate = None
    if f is None or (np.asarray(f_vals[unknown]) == 0).all():
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


# cells this close to the sphere (in cells) are tested against each centre
_SPHERE_BAND = 1e-6


@functools.lru_cache(maxsize=64)
def _window_ball(n: int, h: float, radius: float, offset: tuple, shape: tuple):
    """Window-local ``inside`` and ``ring`` masks of a ball centred ``offset``
    cells from the window's first cell centre, and the cells within
    ``_SPHERE_BAND`` cells of its sphere; read-only, shared by translates."""
    local = np.moveaxis(np.indices(shape), 0, -1)
    dist = _dist_to((local - offset) * h, (0.0,) * n)
    inside = dist < radius
    ring = _ring(inside)
    for a in (inside, ring):
        a.flags.writeable = False
    return inside, ring, np.nonzero(np.abs(dist - radius) <= _SPHERE_BAND * h)


def ball_region(mask: DomainMask, center, radius) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Window slices (bounding box plus three cells) and window-local unknown
    cells and data ring of a ball subregion solve.

    The ball and ring masks come from ``_window_ball``, cached per grid
    spacing, radius, offset of the centre in the window (to 1e-8 cells) and
    window shape; cells near the sphere are tested against this centre's
    ``grid.points()``, so the masks are the direct computation's.  The ring
    is the one of the ball, which equals the unknowns whenever the ball is
    accepted.  ValueError unless every cell of the ball is interior and its
    ring lies in the mask's region."""
    grid = mask.grid
    win = []
    for k in range(grid.n):
        lo = int(math.floor((center[k] - radius - grid.origin[k]) / grid.h)) - 3
        hi = int(math.ceil((center[k] + radius - grid.origin[k]) / grid.h)) + 3 + 1
        win.append(slice(max(lo, 0), min(hi, grid.extents[k])))
    win = tuple(win)
    offset = tuple(round(float(c - o) / grid.h - s.start, 8)
                   for c, o, s in zip(center, grid.origin, win))
    inside, ring, near = _window_ball(grid.n, grid.h, radius, offset,
                                      tuple(max(s.stop - s.start, 0) for s in win))
    if near[0].size:
        cells = tuple(i + s.start for i, s in zip(near, win))
        exact = _dist_to(grid.points()[cells], center) < radius
        if (exact != inside[near]).any():
            inside = inside.copy()
            inside[near] = exact
            ring = _ring(inside)
    interior = mask.interior[win]
    unknown = interior & inside
    if not unknown.any():
        raise SizingError(f"ball ({center}, r={radius}) contains no interior cells")
    if (inside & ~interior).any() or (ring & ~(interior | mask.boundary[win])).any():
        raise ValueError(f"ball ({center}, r={radius}) is not compactly inside the domain")
    return win, unknown, ring


def _solve_ball(V: np.ndarray, mask: DomainMask, center, radius, opts: SolveOptions,
                carry: Optional[list] = None):
    """Minimal-graph replacement of the full-grid array V inside a ball.

    Warm-starts from V when it is finite on the unknowns, passing ``carry``
    (see ``_newton_core``) to that solve only; a warm start that does not
    converge gets one harmonic restart with a fresh LU, kept when it
    converges or lowers the residual.  Returns (win, unknown, window values,
    info); after a restart, ``info["factorizations"]`` and
    ``info["residual_evals"]`` count both solves.
    """
    grid = mask.grid
    win, unknown, ring = ball_region(mask, center, radius)
    Vw = V[win]
    bad = np.argwhere(ring & ~np.isfinite(Vw)) + [s.start for s in win]
    if len(bad):
        raise UndefinedCellError("sphere data is not finite; ball rejected",
                                 [tuple(cell) for cell in bad])
    f_zero = np.zeros(Vw.shape)
    warm = Vw if np.isfinite(Vw[unknown]).all() else None
    values, info = _newton_core(grid.h, grid.n, unknown, ring, Vw, f_zero, opts,
                                init_values=warm, carry=carry)
    if not info["converged"] and warm is not None:
        # kinked warm starts can stall the line search; harmonic restart
        values2, info2 = _newton_core(grid.h, grid.n, unknown, ring, Vw, f_zero, opts,
                                      init_values=None)
        counts = {key: info[key] + info2[key] for key in ("factorizations", "residual_evals")}
        if info2["converged"] or info2["residual"] < info["residual"]:
            values, info = values2, info2
            info["restarted"] = True
        info.update(counts)
    return win, unknown, values, info


def solve_on_ball(u: ScalarField, mask: DomainMask, center, radius,
                  opts: Optional[SolveOptions] = None) -> SolveOutcome:
    """Minimal-graph replacement of u inside a ball, u as sphere data.

    The field is NaN outside the ball's unknowns and data ring.
    """
    win, _, window_values, info = _solve_ball(u.values, mask, center, radius,
                                              opts or SolveOptions())
    values = np.full(u.grid.shape, np.nan)
    values[win] = window_values
    fld = ScalarField(grid=u.grid, values=values, provenance="solved")
    return SolveOutcome(field=fld, residual_norm=info["residual"],
                        iterations=info["iterations"], converged=info["converged"],
                        diagnostics=info)


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
    """
    opts = opts or SolveOptions()
    grid = mask.grid
    phi_vals = _as_values(grid, mask, phi, mask.boundary)
    g_vals = _as_values(grid, mask, g, mask.interior)
    kappa = grid.h
    _warn_if_margin_fails(mask, g_vals)

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
    values = np.where(mask.boundary, phi_vals, np.nan)
    values = _harmonic_extension(grid.n, grid.shape, mask.interior, mask.boundary, values)
    info = {}
    total_iters = 0
    phi_field = ScalarField(grid=grid, values=np.where(mask.boundary, phi_vals, np.nan))
    g_field = ScalarField(grid=grid, values=np.where(mask.interior, g_vals, 0.0))
    func_trace = []
    for round_ in range(_ACTIVE_SET_ROUNDS + 1):
        pinned = (mask.boundary & ~detached) | always_pinned
        unk = mask.interior | detached
        fixed = pinned
        fixed_vals = np.where(pinned, phi_vals, np.nan)
        penalty = None
        if detached.any():
            penalty = {"cells": detached, "phi": np.where(mask.boundary, phi_vals, 0.0),
                       "length": lengths, "kappa": kappa}
        values, info = _newton_core(grid.h, grid.n, unk, fixed, fixed_vals, g_vals,
                                    opts, init_values=values, penalty=penalty)
        total_iters += info["iterations"]
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
    diag = dict(info)
    diag.update({
        "kappa": kappa,
        "attained_fraction": float(attained.sum()) / float(mask.boundary.sum()),
        "detached_cells": int(detached.sum()),
        "functional": func_trace[-1] if func_trace else float("nan"),
        "stationarity_norm": info.get("residual", float("nan")),
    })
    return SolveOutcome(field=fld, residual_norm=info.get("residual", float("nan")),
                        iterations=total_iters, converged=info.get("converged", False),
                        diagnostics=diag)
