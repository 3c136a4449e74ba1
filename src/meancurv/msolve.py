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
symmetric-mode sparse LU, whose ordering and CSC slots a cached plan per cell
pattern keeps.  The residual and the matrix take the per-axis face layout of
``mco.face_gradients`` and loop over the face axes, so 1d and 2d solves run
the same code, plan cache and carried LU included.  Ball replacements
(``solve_on_ball``, the Perron lift and sweep, the viscosity check) go
through one windowed ball kernel: ``ball_region`` cuts the ball's window and
ring, ``_solve_ball`` checks the sphere data and owns the warm start and the
harmonic restart.

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
from typing import NamedTuple, Optional

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse import linalg as slinalg

from .field import (DomainMask, Grid, ScalarField, SizingError, UndefinedCellError,
                    _dist_to)
from .mco import _divergence, _interior_face_count, area_functional, face_gradients, face_sides

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


def _residual(V: np.ndarray, h: float, f_arr: np.ndarray, rows_interior: np.ndarray,
              fallback: bool):
    faces = face_gradients(V, h, fallback)
    dens = _divergence(faces, h)
    return dens[rows_interior] - f_arr[rows_interior], dens, faces


# a face flux depends on the normal difference across the face and on the
# transverse differences of its two sides (0 below, 1 above the face), each
# as (side, transverse offset, weight); sides and offsets act along the
# face's normal and transverse axes
_FACE_DEPS = ((0, 0, -1.0), (1, 0, 1.0), (0, 1, 0.25), (0, -1, -0.25),
              (1, 1, 0.25), (1, -1, -0.25))


def _jac_structure(unk, fix, rows_interior, unk_id, fallback):
    """Sparsity pattern of the Newton matrix; fixed across Newton iterations.

    An interior row takes every face flux of its cell; a penalty row
    (unknown, not interior) takes, sign-flipped, the flux through each face
    it shares with a defined non-penalty cell.  A 1d face has no transverse
    axis, so its flux depends on its two cells only.  With fallback, a
    transverse difference taken from one side only weighs that side 1/2
    instead of 1/4, as in ``face_gradients_2d``.  Returns (rows, cols,
    (gather, scale)): value k is ``coeff[gather[k]] * scale[k] / h^2`` over
    the concatenated normal and transverse flux derivatives of
    ``_jac_values_2d``.
    """
    n = unk.ndim
    defined, interior, pcells = (np.pad(a, 1) for a in
                                 (unk | fix, rows_interior, unk & ~rows_interior))
    ids = np.pad(unk_id, 1, constant_values=-1)
    unit = np.eye(n, dtype=int)
    rows, cols, gather, scale = [], [], [], []
    base = 0
    for axis in range(n):
        e = unit[axis]
        face = np.indices(np.subtract(unk.shape, e)).reshape(n, -1) + 1   # padded

        def at(arr, offset):
            return arr[tuple(face + offset[:, None])]

        nf = face.shape[1]
        # (offset of the column cell, weight, fallback factor, coefficient block)
        deps = [(s * e, dep, 1.0, base) for s, d, dep in _FACE_DEPS if not d]
        for t in unit[np.arange(n) != axis]:     # the transverse axis, none in 1d
            ok = [at(defined, s * e + t) & at(defined, s * e - t) for s in (0, 1)]
            deps += [(s * e + d * t, dep, ok[s] * (2 - ok[1 - s]) if fallback else 1.0,
                      base + nf) for s, d, dep in _FACE_DEPS if d]
        for side, row_sign in ((0, 1.0), (1, -1.0)):
            here, there = side * e, (1 - side) * e
            weight = np.where(at(interior, here), row_sign,
                              np.where(at(pcells, here) & ~at(pcells, there)
                                       & at(defined, there), -row_sign, 0.0))
            r_id = at(ids, here)
            for offset, dep, factor, block in deps:
                val = weight * dep * factor
                c_id = at(ids, offset)
                keep = (val != 0) & (c_id >= 0)
                rows.append(r_id[keep])
                cols.append(c_id[keep])
                gather.append(np.nonzero(keep)[0] + block)
                scale.append(val[keep])
        base += 2 * nf
    return (np.concatenate(rows), np.concatenate(cols),
            (np.concatenate(gather), np.concatenate(scale)))


def _jac_values_2d(h, faces, plan):
    """Newton matrix values from the per-axis faces and a plan's (gather, scale)."""
    gather, scale = plan
    coeff = np.concatenate([c.ravel() for g, t, w, _ in faces
                            for c in ((1.0 + t * t) / w ** 3, -g * t / w ** 3)])
    return coeff[gather] * (scale * (1.0 / (h * h)))


class _Triplets(NamedTuple):
    """Triplet rows and columns, the full diagonal last, and the column
    ordering (``SuperLU.perm_c``) once the first factorization found it."""
    rows: np.ndarray
    cols: np.ndarray
    perm: Optional[np.ndarray] = None


class _Ordered(NamedTuple):
    """CSC pattern of the matrix permuted symmetrically by ``perm`` (unknown k
    moves to perm[k], ``order`` inverts it) and each triplet's int32 slot."""
    perm: np.ndarray
    order: np.ndarray
    slot: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray


class _NewtonPlan:
    """What the Newton matrices of one cell pattern share: the (gather, scale)
    ``values`` plan of ``_jac_values_2d`` and a ``pattern``, a
    ``_Triplets`` until the second factorization replaces it, whole, by an
    ``_Ordered``: racing solves may repeat a step but never see half of one."""

    def __init__(self, ri, ci, m, values):
        self.pattern = _Triplets(*(np.concatenate([a, np.arange(m)]) for a in (ri, ci)))
        self.values = values


# held around every plan lookup: lru_cache alone lets concurrent misses build
# and hand out two plans for one pattern, and a carried LU is matched to its
# pattern by the identity of the plan
_PLAN_LOCK = threading.Lock()


@functools.lru_cache(maxsize=64)
def _newton_plan(shape, unk, fix, rows_interior, fallback) -> _NewtonPlan:
    """Plan of a cell pattern given by the bytes of its masks, cached
    because the translated balls of a sweep level repeat it."""
    unk, fix, rows_interior = (np.frombuffer(b, bool).reshape(shape)
                               for b in (unk, fix, rows_interior))
    unk_id = np.full(shape, -1)
    unk_id[unk] = np.arange(np.count_nonzero(unk))
    ri, ci, values = _jac_structure(unk, fix, rows_interior, unk_id, fallback)
    return _NewtonPlan(ri, ci, np.count_nonzero(unk), values)


def _factorize(plan: _NewtonPlan, vals, diag, m):
    """Factor one Newton matrix (the plan's triplets, values ``vals`` then the
    diagonal ``diag``); returns a solve closure.

    One sparse LU with diagonal-preferring pivots (SuperLU's symmetric mode)
    serves every size.  A pattern's first factorization orders it by minimum
    degree on A^T + A; from the second on, the matrix is scattered into its CSC
    form in that ordering and factored in natural order, with the same fill
    and pivots.
    """
    pat = plan.pattern
    if isinstance(pat, _Triplets) and pat.perm is not None:
        # second factorization: no LU of the pattern is alive for this sort
        keys, slot = np.unique(pat.perm[pat.cols] * np.int64(m) + pat.perm[pat.rows],
                               return_inverse=True)
        pat = _Ordered(pat.perm, np.argsort(pat.perm), slot.astype(np.int32),
                       np.searchsorted(keys, np.arange(m + 1) * m).astype(np.int32),
                       (keys % m).astype(np.int32))
        plan.pattern = pat
    if isinstance(pat, _Ordered):   # joined values stay unnamed: freed before the LU
        data = np.bincount(pat.slot, np.concatenate([vals, diag]), pat.indices.size)
        A = sparse.csc_matrix((data, pat.indices, pat.indptr), shape=(m, m))
        order, perm = pat.order, pat.perm
    else:
        A = sparse.coo_matrix((np.concatenate([vals, diag]), (pat.rows, pat.cols)),
                              shape=(m, m)).tocsc()
        order = perm = slice(None)
    lu = slinalg.splu(A, permc_spec="NATURAL" if isinstance(pat, _Ordered)
                      else "MMD_AT_PLUS_A", diag_pivot_thresh=0.001,
                      options=dict(SymmetricMode=True))
    if plan.pattern is pat and isinstance(pat, _Triplets):
        plan.pattern = pat._replace(perm=lu.perm_c.copy())   # a view keeps the LU alive
    return lambda b: lu.solve(b[order])[perm]


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

    Each fresh LU stays frozen as the chord matrix of later steps while they
    keep contracting; a failed line search, slow contraction, or a back-solve
    that raises or returns non-finite values drops it and refactors (and ends
    the solve with ``info["error"]`` when the LU was fresh).  The first LU is
    fresh unless ``carry``, a holder of the last fresh ``[plan, solve]`` pair
    of an earlier solve, holds this pattern's cached plan: the solve then
    starts on that LU.  Every fresh LU replaces the pair in ``carry``.
    ``info`` counts ``iterations`` (Newton steps, at most ``opts.max_iter``;
    a pass that only drops an LU is not one) and ``factorizations`` (fresh
    LUs), and says whether the solve ``carried`` (started on a carried LU).
    """
    win = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(unknown | fixed))
    unk = unknown[win]
    fix = fixed[win]
    V = np.full(unk.shape, np.nan)
    V[fix] = fixed_values[win][fix]
    f_arr = np.zeros(unk.shape)
    f_sl = f_values[win]
    f_arr[unk] = np.where(np.isfinite(f_sl[unk]), f_sl[unk], 0.0)

    pen = None
    rows_interior = unk.copy()
    if penalty is not None:
        pcells = penalty["cells"][win]
        rows_interior = unk & ~pcells
        pen = {
            "cells": pcells,
            "phi": penalty["phi"][win],
            "length": penalty["length"][win],
            "kappa": penalty["kappa"],
        }

    if init_values is not None:
        V[unk] = init_values[win][unk]
        if np.isnan(V[unk]).any() or np.isneginf(V[unk]).any():
            V = _repair_init(V, unk, fix)
    else:
        V[~(unk | fix)] = np.nan
        V = _harmonic_extension(n, unk.shape, unk, fix, V)

    m = int(unk.sum())
    unk_id = np.full(unk.shape, -1)
    unk_id[unk] = np.arange(m)
    int_ids = unk_id[rows_interior]
    pen_ids = unk_id[pen["cells"]] if pen is not None else None

    def full_residual(Vcur):
        r_int, dens, faces = _residual(Vcur, h, f_arr, rows_interior, pen is not None)
        r = np.zeros(m)
        r[int_ids] = r_int
        if pen is not None:
            r[pen_ids] = _penalty_residual(Vcur, h, n, pen, faces)
        return r, dens, faces

    r, dens, faces = full_residual(V)
    if np.isnan(r).any():
        raise UndefinedCellError("solver stencil touches undefined cells",
                                 list(zip(*np.nonzero(unk & np.isnan(
                                     np.where(rows_interior, dens, 0.0))))))
    best = (np.max(np.abs(r)), V.copy())

    def pattern_plan():
        with _PLAN_LOCK:
            return _newton_plan(unk.shape, unk.tobytes(), fix.tobytes(),
                                rows_interior.tobytes(), pen is not None)

    plan = lu = None  # lu: frozen factorization, reused while it keeps contracting
    if carry:
        plan = pattern_plan()
        if carry[0] is plan:
            lu = carry[1]
    info = {"iterations": 0, "converged": False, "line_search_failures": 0,
            "factorizations": 0, "carried": lu is not None}

    def assemble_factorize():
        nonlocal plan
        if plan is None:
            plan = pattern_plan()
        vi = _jac_values_2d(h, faces, plan.values)
        diag = np.zeros(m)
        if pen is not None:
            diag[pen_ids] = _penalty_triplets(V, h, n, pen)
        return _factorize(plan, vi, diag, m)

    # a pass that only drops a carried or frozen LU takes no step and is not
    # counted; the fresh LU after it either steps or ends the solve
    while info["iterations"] < opts.max_iter:
        rnorm_inf = float(np.max(np.abs(r))) if m else 0.0
        if rnorm_inf <= opts.tol:
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
            failure = None if np.all(np.isfinite(du)) else "non-finite Newton direction"
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
            V_try = V.copy()
            V_try[unk] = V[unk] + alpha * du
            r_try, dens, faces_try = full_residual(V_try)
            merit_try = 0.5 * float(r_try @ r_try)
            if np.isfinite(merit_try) and merit_try <= (1 - 2 * opts.sigma * alpha) * merit:
                V, r, faces = V_try, r_try, faces_try
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
        cur = float(np.max(np.abs(r))) if m else 0.0
        if cur < best[0]:
            best = (cur, V.copy())

    rfinal = float(np.max(np.abs(r))) if m else 0.0
    if rfinal <= opts.tol:
        info["converged"] = True
    if rfinal > best[0]:
        V = best[1]
        rfinal = best[0]
    info["residual"] = rfinal

    out = np.full(unknown.shape, np.nan)
    out[win] = V
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


def _penalty_residual(V, h, n, pen, faces):
    cells = pen["cells"]
    phi = pen["phi"]
    ell = pen["length"]
    kappa = pen["kappa"]
    hn = h ** n
    out_flux = _outgoing_flux(cells, faces)
    dev = V - phi
    sprime = dev / np.sqrt(dev * dev + kappa * kappa)
    r = (out_flux * h ** (n - 1) + ell * sprime) / hn
    return r[cells]


def _outgoing_flux(pcells, faces):
    """Sum of face fluxes oriented from non-penalty cells into penalty cells."""
    out = np.zeros(pcells.shape)
    for (lo, hi), (_, _, _, f) in zip(face_sides(pcells.ndim), faces):
        flux = np.where(np.isfinite(f), f, 0.0)
        out[hi] += np.where(pcells[hi] & ~pcells[lo], flux, 0.0)
        out[lo] += np.where(pcells[lo] & ~pcells[hi], -flux, 0.0)
    return out


def _penalty_triplets(V, h, n, pen):
    """Diagonal of the smoothed-L1 term in the penalty rows, cell by cell.

    The flux part of those rows comes with the face coefficients (see
    ``_jac_structure``).
    """
    cells, kappa = pen["cells"], pen["kappa"]
    dev = V[cells] - pen["phi"][cells]
    return pen["length"][cells] * kappa * kappa / (dev * dev + kappa * kappa) ** 1.5 / h ** n


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


def ball_region(mask: DomainMask, center, radius) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Window slices (bounding box plus three cells) and window-local unknown
    cells and data ring of a ball subregion solve.

    ValueError unless every cell of the ball is interior and its ring lies in
    the mask's region."""
    grid = mask.grid
    win = []
    for k in range(grid.n):
        lo = int(math.floor((center[k] - radius - grid.origin[k]) / grid.h)) - 3
        hi = int(math.ceil((center[k] + radius - grid.origin[k]) / grid.h)) + 3 + 1
        win.append(slice(max(lo, 0), min(hi, grid.extents[k])))
    win = tuple(win)
    inside = _dist_to(grid.points()[win], center) < radius
    unknown = mask.interior[win] & inside
    if not unknown.any():
        raise SizingError(f"ball ({center}, r={radius}) contains no interior cells")
    ring = ndimage.binary_dilation(unknown, structure=np.ones((3,) * grid.n, bool)) \
        & ~unknown
    if (inside & ~mask.interior[win]).any() \
            or (ring & ~(mask.interior[win] | mask.boundary[win])).any():
        raise ValueError(f"ball ({center}, r={radius}) is not compactly inside the domain")
    return win, unknown, ring


def _solve_ball(V: np.ndarray, mask: DomainMask, center, radius, opts: SolveOptions,
                carry: Optional[list] = None):
    """Minimal-graph replacement of the full-grid array V inside a ball.

    Warm-starts from V when it is finite on the unknowns, passing ``carry``
    (see ``_newton_core``) to that solve only; a warm start that does not
    converge gets one harmonic restart with a fresh LU, kept when it
    converges or lowers the residual.  Returns (win, unknown, window values,
    info); after a restart, ``info["factorizations"]`` counts both solves.
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
        factorizations = info["factorizations"] + info2["factorizations"]
        if info2["converged"] or info2["residual"] < info["residual"]:
            values, info = values2, info2
            info["restarted"] = True
        info["factorizations"] = factorizations
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
    """First-order stationarity for area - load + L1 boundary deviation.

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
