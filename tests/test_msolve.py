import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import ndimage, sparse
from scipy.sparse import linalg as slinalg

from meancurv import NEG_INF, ScalarField, ShapeSpec, levelset, make_grid, msolve, sample_function
from meancurv.cli import _resample
from meancurv.field import SizingError, UndefinedCellError, _dist_to
from meancurv.mco import _divergence, area_functional, face_gradients, face_sides
from meancurv.perron import build_ball_cover
from meancurv.msolve import (
    SolveOptions,
    UnboundedDescentError,
    _factorize,
    _interior_face_count,
    _newton_core,
    ball_region,
    minimize_prescribed_mc,
    solve_dirichlet,
    solve_on_ball,
)

from conftest import hemisphere_formula


def scherk(p):
    return np.log(np.cos(p[:, 0]) / np.cos(p[:, 1]))


class TestSolveDirichlet:
    def test_affine_exact(self, unit_disk_64):
        grid, mask = unit_disk_64
        aff = lambda p: 0.3 * p[:, 0] - 0.2 * p[:, 1] + 1.0
        out = solve_dirichlet(mask, f=None, phi=aff)
        ex = sample_function(aff, grid, mask)
        assert out.converged
        err = np.nanmax(np.abs(out.field.values[mask.interior]
                               - ex.values[mask.interior]))
        assert err < 1e-10

    def test_hemisphere_second_order(self):
        R = 4.0
        hemi = hemisphere_formula(R)
        f = lambda p: np.full(len(p), 2.0 / R)
        errs = []
        for res in (32, 64):
            grid, mask = make_grid(ShapeSpec.disk((0, 0), 2.0), res)
            out = solve_dirichlet(mask, f=f, phi=hemi)
            assert out.converged
            ex = sample_function(hemi, grid, mask)
            errs.append(np.nanmax(np.abs(out.field.values[mask.interior]
                                         - ex.values[mask.interior])))
        assert errs[0] / errs[1] >= 3.0

    def test_init_equals_newton_init_values(self):
        R = 4.0
        hemi = hemisphere_formula(R)
        f = lambda p: np.full(len(p), 2.0 / R)
        coarse = solve_dirichlet(make_grid(ShapeSpec.disk((0, 0), 2.0), 32)[1],
                                 f=f, phi=hemi).field
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 2.0), 64)
        init = ScalarField(grid=grid, values=_resample(coarse, grid, mask))
        warm = solve_dirichlet(mask, f=f, phi=hemi, init=init)
        values, info = _newton_core(grid.h, 2, mask.interior, mask.boundary,
                                    msolve._as_values(grid, mask, hemi, mask.boundary),
                                    msolve._as_values(grid, mask, f, mask.interior),
                                    SolveOptions(), init_values=init.values)
        assert np.array_equal(warm.field.values, values, equal_nan=True)
        assert warm.iterations == info["iterations"]
        cold = solve_dirichlet(mask, f=f, phi=hemi)
        assert warm.converged and cold.converged
        assert warm.iterations < cold.iterations

    def test_scherk_second_order(self):
        errs = []
        for res in (32, 64):
            grid, mask = make_grid(ShapeSpec.rectangle(-0.6, 0.6, -0.6, 0.6), res)
            out = solve_dirichlet(mask, f=None, phi=scherk)
            assert out.converged
            ex = sample_function(scherk, grid, mask)
            errs.append(np.nanmax(np.abs(out.field.values[mask.interior]
                                         - ex.values[mask.interior])))
        assert errs[0] / errs[1] >= 3.0

    def test_1d_circular_arc(self, interval_100):
        grid, mask = interval_100
        R = 4.0
        arc = lambda p: -np.sqrt(R * R - p[:, 0] ** 2)
        out = solve_dirichlet(mask, f=lambda p: np.full(len(p), 1.0 / R), phi=arc)
        ex = sample_function(arc, grid, mask)
        err = np.nanmax(np.abs(out.field.values[mask.interior]
                               - ex.values[mask.interior]))
        assert out.converged and err < 1e-5

    def test_maximum_principle_certificate(self, unit_disk_64):
        grid, mask = unit_disk_64
        out = solve_dirichlet(mask, f=None, phi=lambda p: np.sin(3 * p[:, 0]))
        assert out.certificate is not None
        assert out.certificate["max_principle"]

    def test_comparison_principle(self, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions()
        phi1 = lambda p: np.sin(2 * p[:, 0])
        phi2 = lambda p: np.sin(2 * p[:, 0]) + 0.3 * (1 + np.cos(p[:, 1]))
        u1 = solve_dirichlet(mask, f=None, phi=phi1, opts=opts).field
        u2 = solve_dirichlet(mask, f=None, phi=phi2, opts=opts).field
        gap = np.nanmax(u1.values[mask.interior] - u2.values[mask.interior])
        assert gap <= 10 * opts.tol

    def test_translation_equivariance(self, unit_disk_64):
        grid, mask = unit_disk_64
        phi = lambda p: 0.5 * np.cos(2 * p[:, 0]) * np.sin(p[:, 1])
        u0 = solve_dirichlet(mask, f=None, phi=phi).field
        u1 = solve_dirichlet(mask, f=None,
                             phi=lambda p: phi(p) + 2.5).field
        gap = np.nanmax(np.abs(u1.values[mask.interior]
                               - u0.values[mask.interior] - 2.5))
        assert gap < 1e-7

    def test_monotone_decreasing_boundary_data(self, unit_disk_64):
        grid, mask = unit_disk_64
        prev = None
        for c in (1.0, 0.5, 0.25):
            u = solve_dirichlet(mask, f=None,
                                phi=lambda p, cc=c: cc * (1 + p[:, 0] ** 2)).field
            if prev is not None:
                assert (u.values[mask.interior]
                        <= prev.values[mask.interior] + 1e-7).all()
            prev = u

    def test_divergence_is_outcome_not_exception(self, unit_disk_64):
        grid, mask = unit_disk_64
        # constant density 4 on the unit disk violates the perimeter balance
        out = solve_dirichlet(mask, f=lambda p: np.full(len(p), 4.0), phi=0.0,
                              opts=SolveOptions(max_iter=12))
        assert not out.converged
        assert np.isfinite(out.residual_norm)
        assert out.field is not None


def reference_ball_solve(u, mask, center, radius, opts):
    """Full-grid ball mask and ring, Newton, then one harmonic restart.

    The construction the windowed ball kernel replaced, kept as a reference;
    a restarted solve counts the factorizations and residual evaluations of
    both Newton runs.
    """
    grid = mask.grid
    unknown = mask.interior & (_dist_to(grid.points(), center) < radius)
    ring = ndimage.binary_dilation(unknown, structure=np.ones((3,) * grid.n, bool)) \
        & ~unknown
    assert not (ring & mask.exterior).any()
    f = np.where(unknown, 0.0, np.nan)
    init = u.values if np.isfinite(u.values[unknown]).all() else None
    values, info = _newton_core(grid.h, grid.n, unknown, ring, u.values, f, opts,
                                init_values=init)
    if not info["converged"] and init is not None:
        values2, info2 = _newton_core(grid.h, grid.n, unknown, ring, u.values, f, opts,
                                      init_values=None)
        counts = {key: info[key] + info2[key] for key in ("factorizations", "residual_evals")}
        if info2["converged"] or info2["residual"] < info["residual"]:
            values, info = values2, info2
            info["restarted"] = True
        info.update(counts)
    return values, info


class TestSolveOnBall:
    @pytest.mark.parametrize("case", ["disk", "interval", "kinked_restart"])
    def test_matches_full_grid_reference(self, case, unit_disk_64, interval_100):
        opts = SolveOptions()
        if case == "disk":
            grid, mask = unit_disk_64
            u = sample_function(lambda p: np.hypot(p[:, 0], p[:, 1]), grid, mask)
            ball = ((0.2, 0.1), 0.2)
        elif case == "interval":
            grid, mask = interval_100
            u = sample_function(lambda p: np.abs(p[:, 0]) + 3 * np.abs(p[:, 0] - 0.2),
                                grid, mask)
            ball = ((0.3,), 0.4)
        else:
            grid, mask = unit_disk_64
            u = sample_function(lambda p: 6 * np.abs(p[:, 0] - 0.05)
                                + 4 * np.abs(p[:, 1] + 0.1)
                                + 3 * np.maximum(p[:, 0] + p[:, 1], 0), grid, mask)
            ball = ((0.0, 0.0), 0.4)
            opts = SolveOptions(max_iter=3)   # the warm start stalls
        out = solve_on_ball(u, mask, *ball, opts=opts)
        values, info = reference_ball_solve(u, mask, *ball, opts)
        assert np.array_equal(out.field.values, values, equal_nan=True)
        assert out.diagnostics == info
        assert out.diagnostics.get("restarted", False) == (case == "kinked_restart")

    def test_ball_crossing_boundary_is_value_error(self, cone_64, unit_disk_64,
                                                   face_layer_disk_64):
        cases = [(unit_disk_64, ((0.8, 0.0), 0.3)), (face_layer_disk_64, ((0.8, 0.0), 0.3)),
                 # every ball cell interior, but the ring reaches past the face layer
                 (face_layer_disk_64, ((0.5, 0.5), 0.29))]
        for (grid, mask), ball in cases:
            with pytest.raises(ValueError, match="not compactly inside"):
                solve_on_ball(cone_64, mask, *ball)
        assert solve_on_ball(cone_64, unit_disk_64[1], (0.5, 0.5), 0.29).converged

    def test_undefined_sphere_cells_are_full_grid(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        ball = ((0.2, -0.1), 0.25)
        win, unknown, ring = ball_region(mask, *ball)
        assert all(s.start > 0 for s in win)
        vals = cone_64.values.copy()
        vals[win][ring & (np.arange(ring.shape[0])[:, None] < ring.shape[0] // 2)] = NEG_INF
        u = ScalarField(grid=grid, values=vals, extended=True)
        with pytest.raises(UndefinedCellError) as caught:
            solve_on_ball(u, mask, *ball)
        assert caught.value.cells
        assert all(vals[cell] == NEG_INF for cell in caught.value.cells)

    def test_ball_solve_matches_global_on_harmonic(self, unit_disk_64):
        grid, mask = unit_disk_64
        out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        ball = solve_on_ball(out.field, mask, (0.0, 0.0), 0.4)
        assert ball.converged
        pts = grid.points()
        inside = mask.interior & (np.hypot(pts[..., 0], pts[..., 1]) < 0.4)
        gap = np.nanmax(np.abs(ball.field.values[inside]
                               - out.field.values[inside]))
        assert gap < 1e-6


class TestMinimizer:
    def test_zero_data(self, unit_disk_64):
        grid, mask = unit_disk_64
        out = minimize_prescribed_mc(mask, g=None, phi=0.0)
        assert out.converged
        assert np.nanmax(np.abs(out.field.values[mask.interior])) < 1e-12

    def test_affine_trace(self, unit_disk_64):
        grid, mask = unit_disk_64
        aff = lambda p: 0.2 * p[:, 0] + 0.1 * p[:, 1] - 0.3
        out = minimize_prescribed_mc(mask, g=None, phi=aff)
        ex = sample_function(aff, grid, mask)
        err = np.nanmax(np.abs(out.field.values[mask.interior]
                               - ex.values[mask.interior]))
        assert err < 1e-9
        assert out.diagnostics["attained_fraction"] == 1.0

    def test_cross_validation_with_newton(self):
        R = 4.0
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 2.0), 32)
        hemi = hemisphere_formula(R)
        f = lambda p: np.full(len(p), 2.0 / R)
        opts = SolveOptions(tol=1e-9)
        o1 = solve_dirichlet(mask, f=f, phi=hemi, opts=opts)
        o2 = minimize_prescribed_mc(mask, g=f, phi=hemi, opts=opts)
        assert o1.converged and o2.converged
        gap = np.nanmax(np.abs(o1.field.values[mask.interior]
                               - o2.field.values[mask.interior]))
        assert gap <= 10 * opts.tol
        assert o2.diagnostics["kappa"] == grid.h

    def test_1d_affine(self, interval_100):
        grid, mask = interval_100
        aff = lambda p: 0.5 * p[:, 0] + 0.2
        out = minimize_prescribed_mc(mask, g=None, phi=aff)
        ex = sample_function(aff, grid, mask)
        err = np.nanmax(np.abs(out.field.values[mask.interior]
                               - ex.values[mask.interior]))
        assert out.converged and err < 1e-9

    def test_unbounded_descent_detected(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        # mass 4*pi over a disk with perimeter 2*pi: balance badly violated
        with pytest.raises(UnboundedDescentError):
            minimize_prescribed_mc(mask, g=lambda p: np.full(len(p), 4.0), phi=0.0,
                                   opts=SolveOptions(max_iter=25))


class _Captured(Exception):
    pass


@contextmanager
def cold_plans():
    """An empty Newton-plan cache for the block."""
    msolve._newton_plan.cache_clear()
    yield msolve._newton_plan.cache_info


def newton_system(h, n, unknown, fixed, V, penalty=None):
    """Residual, Newton-matrix triplets and _factorize arguments of
    _newton_core's first step from V, unknowns in the plan's order."""
    out = {}

    def capture(plan, vals, diag, m):
        out["triplets"] = (*plan_triplets(plan, m), np.concatenate([vals, diag]), m)
        out["args"] = (plan, vals, diag, m)

        def solve(b):
            out["r"] = -b
            raise _Captured
        return solve

    with mock.patch.object(msolve, "_factorize", capture), pytest.raises(_Captured):
        _newton_core(h, n, unknown, fixed, V, np.zeros(V.shape),
                     SolveOptions(tol=1e-300, max_iter=1), init_values=V, penalty=penalty)
    return out["r"], out["triplets"], out["args"]


def plan_triplets(plan, m):
    """Triplet rows and columns of a Newton plan's values, then its diagonal."""
    cols = np.repeat(np.arange(m), np.diff(plan.indptr))
    return (np.concatenate([plan.indices[plan.slot], np.arange(m)]),
            np.concatenate([cols[plan.slot], np.arange(m)]))


def c_order(plan):
    """Indices that put an array over the plan's unknowns in C order of
    their cells: ``x[c_order(plan)]``."""
    return np.argsort(plan.unknowns)


def dense(triplets):
    ri, ci, vi, m = triplets
    return sparse.coo_matrix((vi, (ri, ci)), shape=(m, m)).toarray()


def smooth_iterate(grid, rng):
    """A random smooth field: quadratic plus one sine mode."""
    c = rng.uniform(-1.5, 1.5, 7)
    x = grid.points()[..., 0]
    y = grid.points()[..., 1] if grid.n == 2 else 0.0 * x
    return (c[0] * x + c[1] * y + c[2] * x * x + c[3] * x * y + c[4] * y * y
            + 0.3 * np.sin(c[5] * 4 * x + c[6] * 3 * y + 1.0))


def newton_case(system, n, seed, radius=0.6):
    """(h, n, unknown, fixed, V, penalty) of a whole-domain, ball-window or
    penalized (minimizer) system at a random smooth iterate."""
    shape = ShapeSpec.interval(-1.0, 1.0) if n == 1 else ShapeSpec.disk((0.0, 0.0), radius)
    grid, mask = make_grid(shape, 10 if n == 1 else 8)
    ball = ((0.1,) if n == 1 else (0.05, -0.05), 0.3)
    return system_case(grid, mask, system, np.random.default_rng(seed), ball)


def system_case(grid, mask, system, rng, ball):
    """``newton_case`` on a given domain; ``ball`` is (centre, radius)."""
    n = grid.n
    V = np.where(mask.region, smooth_iterate(grid, rng), np.nan)
    if system == "ball":
        win, unknown, ring = msolve.ball_region(mask, *ball)
        return grid.h, n, unknown, ring, V[win], None
    if system == "whole":
        return grid.h, n, mask.interior, mask.boundary, V, None
    nfaces = _interior_face_count(mask)
    detached = mask.boundary & (nfaces > 0) & (rng.random(grid.shape) < rng.choice([0.5, 1.0]))
    # one boundary cell with the most interior faces is always detached; in 2d
    # that is a staircase corner, beside a cell with a one-sided transverse difference
    corners = np.flatnonzero(mask.boundary & (nfaces == nfaces[mask.boundary].max()))
    detached.flat[rng.choice(corners)] = True
    phi =np.where(mask.boundary, V + rng.uniform(-3, 3, grid.shape) * grid.h, 0.0)
    penalty = {"cells": detached, "phi": phi, "length": nfaces * grid.h ** (n - 1),
               "kappa": grid.h}
    return (grid.h, n, mask.interior | detached, mask.boundary & ~detached, V, penalty)


class TestNewtonMatrix:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @example(seed=54764)       # once drew no detached staircase corner
    @pytest.mark.parametrize("system", ["whole", "ball", "penalized"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_matrix_is_residual_jacobian(self, n, system, seed):
        h, n, unknown, fixed, V, penalty = newton_case(system, n, seed)
        _, triplets, args = newton_system(h, n, unknown, fixed, V, penalty)
        c = c_order(args[0])
        J = dense(triplets)[np.ix_(c, c)]
        order = np.nonzero(unknown)
        eps = 1e-6
        fd = np.empty_like(J)
        for j in range(J.shape[0]):
            cell = tuple(k[j] for k in order)
            Vp, Vm = V.copy(), V.copy()
            Vp[cell] += eps
            Vm[cell] -= eps
            fd[:, j] = (newton_system(h, n, unknown, fixed, Vp, penalty)[0]
                        - newton_system(h, n, unknown, fixed, Vm, penalty)[0])[c] / (2 * eps)
        assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()
        if penalty is not None and n == 2:
            # x-faces from a penalty cell to a defined non-penalty cell whose
            # transverse difference has one side only
            d = np.pad(unknown | fixed, 1)
            lo, hi = d[1:-2, 2:] & d[1:-2, :-2], d[2:-1, 2:] & d[2:-1, :-2]
            pc = penalty["cells"]
            assert ((lo ^ hi) & d[1:-2, 1:-1] & d[2:-1, 1:-1] & (pc[:-1] ^ pc[1:])).any()

    @pytest.mark.parametrize("radius, sizes", [(0.12, (1, 512)), (0.25, (513, 2048)),
                                               (0.5, (2049, 8192)), ("penalized", (513, 2048))])
    def test_factorize_matches_dense_solve(self, radius, sizes, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        if radius == "penalized":      # the minimizer's system on a radius-2 disk
            *system, penalty = newton_case("penalized", 2, seed=7, radius=2.0)
            _, triplets, args = newton_system(*system, penalty=penalty)
        else:
            win, unknown, ring = msolve.ball_region(mask, (0.0, 0.0), radius)
            V = cone_64.values[win]
            _, triplets, args = newton_system(grid.h, 2, unknown, ring, V)
        assert sizes[0] <= triplets[3] <= sizes[1]
        b = np.random.default_rng(0).standard_normal(triplets[3])
        ref = np.linalg.solve(dense(triplets), b)
        # every factorization of a plan takes the one path
        first = _factorize(*args)(b)
        assert np.linalg.norm(first - ref) <= 1e-10 * np.linalg.norm(ref)
        for _ in range(2):
            assert same_bits(_factorize(*args)(b), first)
        plan = args[0]
        assert {a.dtype for a in (plan.slot, plan.diagonal, plan.indices, plan.indptr)} == {
            np.dtype(np.int32)}


def reference_dissection(unk):
    """The recursive bisection that ``_dissection`` runs level by level, one
    box at a time: flat indices of the unknowns, halves before their slab."""
    unk2 = unk.reshape(unk.shape + (1,) * (2 - unk.ndim))
    out = []

    def order(lo, hi):
        if not unk2[lo[0]:hi[0], lo[1]:hi[1]].any():
            return
        ext = [b - a for a, b in zip(lo, hi)]
        axis = int(ext[1] > ext[0])
        mid = lo[axis] + ext[axis] // 2
        order(lo, [mid if k == axis else b for k, b in enumerate(hi)])
        order([mid + 1 if k == axis else a for k, a in enumerate(lo)], hi)
        slab = [slice(mid, mid + 1) if k == axis else slice(a, b)
                for k, (a, b) in enumerate(zip(lo, hi))]
        cells = np.argwhere(unk2[tuple(slab)]) + [s.start for s in slab]
        out.extend(np.ravel_multi_index(tuple(cells.T), unk2.shape))

    rows, cols = np.nonzero(unk2)
    if rows.size:
        order([rows.min(), cols.min()], [rows.max() + 1, cols.max() + 1])
    return np.array(out, dtype=np.intp)


def random_domain(kind, rng):
    """A random interval, disk, annulus or rectangle on a coarse grid, and the
    largest ball around the interior cell deepest in it."""
    centre = rng.uniform(-0.5, 0.5, 2)
    if kind == "interval":      # dyadic ends on the grid: both end cells are boundary cells
        a, res = -rng.integers(0, 8) / 8, int(rng.choice([8, 16, 32]))
        shape = ShapeSpec.interval(a, a + rng.integers(4, 16) / 8)
    elif kind == "disk":
        shape, res = ShapeSpec.disk(centre, rng.uniform(0.3, 1.0)), rng.integers(8, 24)
    elif kind == "annulus":
        radius = rng.uniform(0.6, 1.0)
        shape = ShapeSpec.annulus(centre, radius * rng.uniform(0.3, 0.6), radius)
        res = rng.integers(12, 24)
    else:
        x0, y0 = centre
        shape = ShapeSpec.rectangle(x0, x0 + rng.uniform(0.3, 1.5), y0, y0 + rng.uniform(0.3, 1.5))
        res = rng.integers(8, 24)
    grid, mask = make_grid(shape, res)
    depth = np.where(mask.interior, shape.signed_distance(grid.points()), -np.inf)
    deepest = np.unravel_index(np.argmax(depth), grid.shape)
    ball = (grid.points()[deepest], 0.6 * depth[deepest])
    return grid, mask, ball


class TestDissection:
    """Every Newton plan numbers its unknowns in one nested-dissection order,
    and every factorization runs in that order."""

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]),
           density=st.floats(0.0, 1.0))
    def test_order_is_the_recursive_bisection(self, seed, n, density):
        rng = np.random.default_rng(seed)
        unk = rng.random(tuple(rng.integers(1, 40, n))) < density
        order = msolve._dissection(unk)
        assert order.dtype == np.intp
        assert np.array_equal(np.sort(order), np.flatnonzero(unk))
        assert np.array_equal(order, reference_dissection(unk))
        assert np.array_equal(msolve._dissection(unk.copy()), order)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.parametrize("system", ["whole", "ball", "penalized"])
    @pytest.mark.parametrize("kind", ["interval", "disk", "annulus", "rectangle"])
    def test_plans_factor_like_a_dense_solve(self, kind, system, seed):
        rng = np.random.default_rng(seed)
        grid, mask, ball = random_domain(kind, rng)
        h, n, unknown, fixed, V, penalty = system_case(grid, mask, system, rng, ball)
        _, triplets, args = newton_system(h, n, unknown, fixed, V, penalty)
        plan, m = args[0], args[3]
        win = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(unknown | fixed))
        assert np.array_equal(plan.unknowns, msolve._dissection(unknown[win]))
        b = rng.standard_normal(m)
        ref = np.linalg.solve(dense(triplets), b)
        x = _factorize(*args)(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @staticmethod
    def fills(args, triplets):
        """Nonzeros of L and U: the plan's LU, and SuperLU's minimum-degree
        ordering on A^T + A of the same matrix with the unknowns in C order."""
        plan, m = args[0], args[3]
        solve = _factorize(*args)
        lu = next(c.cell_contents for c in solve.__closure__
                  if isinstance(c.cell_contents, slinalg.SuperLU))
        c = c_order(plan)
        ri, ci, vi, _ = triplets
        A = sparse.coo_matrix((vi, (ri, ci)), shape=(m, m)).tocsc()[c][:, c]
        mmd = slinalg.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.001,
                           options=dict(SymmetricMode=True))
        return lu.L.nnz + lu.U.nnz, mmd.L.nnz + mmd.U.nnz

    def test_fill_below_minimum_degree_on_the_hemisphere(self):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 2.0), 64)
        V = sample_function(hemisphere_formula(4.0), grid, mask).values
        _, triplets, args = newton_system(grid.h, 2, mask.interior, mask.boundary, V)
        assert args[3] == 51429
        ours, mmd = self.fills(args, triplets)
        assert ours < 0.85 * mmd, (ours, mmd)

    @pytest.mark.parametrize("radius", [0.25, 0.125, 0.0625])   # sweep levels 2-4 at 128
    def test_ball_fill_near_minimum_degree(self, radius):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 128)
        cone = sample_function(lambda p: np.hypot(p[:, 0], p[:, 1]), grid, mask).values
        rng = np.random.default_rng(5)
        for centre in [(0.0, 0.0), (0.013, -0.021)] + [tuple(rng.uniform(-0.3, 0.3, 2))
                                                       for _ in range(3)]:
            win, unknown, ring = ball_region(mask, centre, radius)
            _, triplets, args = newton_system(grid.h, 2, unknown, ring, cone[win])
            ours, mmd = self.fills(args, triplets)
            assert ours <= 1.1 * mmd, (centre, ours, mmd)


class TestNewtonPlan:
    def test_equal_unknown_counts_never_share_a_plan(self):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 16)
        V = smooth_iterate(grid, np.random.default_rng(3))
        blocks = [np.zeros(grid.shape, bool) for _ in range(2)]
        blocks[0][6:9, 5:9] = True              # 3 x 4 and 4 x 3 unknowns
        blocks[1][5:9, 6:9] = True
        systems = []
        with cold_plans():
            for unknown in blocks:
                ring = ndimage.binary_dilation(unknown, np.ones((3, 3), bool)) & ~unknown
                _, triplets, args = newton_system(grid.h, 2, unknown, ring, V)
                systems.append((np.linalg.solve(dense(triplets), np.ones(12)), args))
        assert systems[0][1][0] is not systems[1][1][0]
        assert not np.allclose(systems[0][0], systems[1][0])
        for _ in range(3):                     # interleaved, through every plan state
            for ref, args in systems:
                assert np.allclose(_factorize(*args)(np.ones(12)), ref,
                                   rtol=1e-12, atol=0.0)

    def test_warm_plan_solve_equals_cold(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        ball = ((0.1, -0.05), 0.3)
        with cold_plans() as plans:
            cold = solve_on_ball(cone_64, mask, *ball)
            assert plans().currsize == 1
            warm = solve_on_ball(cone_64, mask, *ball)
            assert plans().misses == 1
        assert cold.converged and warm.iterations == cold.iterations
        assert same_bits(warm.field.values, cold.field.values)

    def test_cold_and_warm_plan_caches_agree(self):
        hemi, f = hemisphere_formula(4.0), lambda p: np.full(len(p), 0.5)
        disk = ShapeSpec.disk((0.0, 0.0), 2.0)
        solves = [lambda: solve_dirichlet(make_grid(disk, 32)[1], f=f, phi=hemi),
                  lambda: minimize_prescribed_mc(make_grid(disk, 16)[1], g=f, phi=hemi)]
        for solve in solves:
            with cold_plans() as plans:
                cold = solve()
                warm = solve()
                assert plans().hits > 0
            assert cold.converged and warm.iterations == cold.iterations
            assert same_bits(warm.field.values, cold.field.values)

    def test_threads_match_sequential(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        # translates by whole cells share their cell pattern, hence one plan
        balls = [((-0.02 + 9 * grid.h * i, 0.03 - 7 * grid.h * j), 0.2)
                 for i in (-1, 0, 1) for j in (-1, 0, 1)]

        def solve(ball):
            return solve_on_ball(cone_64, mask, *ball)

        with cold_plans() as plans:
            sequential = [solve(ball) for ball in balls]
            assert plans().currsize < len(balls)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave the threads as often as possible
        try:
            with cold_plans(), ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(solve, balls, timeout=300))
        finally:
            sys.setswitchinterval(switch)
        for one, other in zip(sequential, threaded):
            assert one.converged and one.iterations == other.iterations
            assert np.nanmax(np.abs(one.field.values - other.field.values)) <= 1e-12


    def test_concurrent_misses_build_one_plan_per_pattern(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        balls = [((-0.02 + 9 * grid.h * i, 0.03 - 7 * grid.h * j), 0.2)
                 for i in (-1, 0, 1) for j in (-1, 0, 1)]

        def solve(ball):
            return solve_on_ball(cone_64, mask, *ball)

        with cold_plans() as plans:
            for ball in balls:
                solve(ball)
            patterns = plans().misses
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with cold_plans() as plans, ThreadPoolExecutor(len(balls)) as pool:
                assert all(out.converged for out in pool.map(solve, balls, timeout=300))
                assert plans().misses == patterns
        finally:
            sys.setswitchinterval(switch)


class TestReportedFallbacks:
    def test_infinite_forcing_raises(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        f = lambda p: np.where(p[:, 0] > 0.5, np.inf, 0.0)
        with pytest.raises(UndefinedCellError, match="infinite") as exc:
            solve_dirichlet(mask, f=f, phi=0.0)
        assert exc.value.cells
        assert all(mask.interior[c] and grid.cell_center(c)[0] > 0.5
                   for c in exc.value.cells)

    def test_margin_screen_logs_value_errors_only(self, caplog):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        g = np.ones(grid.shape)
        with mock.patch.object(levelset, "eta_margin", side_effect=ValueError("no members")), \
                caplog.at_level("WARNING", logger="meancurv"):
            msolve._warn_if_margin_fails(mask, g)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "margin screen skipped: no members" in caplog.text
        with mock.patch.object(levelset, "eta_margin", side_effect=TypeError("bad family")), \
                pytest.raises(TypeError, match="bad family"):
            msolve._warn_if_margin_fails(mask, g)

    def test_nan_jacobian_entry_is_reported(self, unit_disk_64):
        grid, mask = unit_disk_64
        fill = msolve._jac_values_2d

        def nan_fill(*args):
            vals = fill(*args)
            vals[len(vals) // 2] = np.nan
            return vals

        with mock.patch.object(msolve, "_jac_values_2d", nan_fill):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        assert not out.converged
        assert "error" in out.diagnostics

    def test_failed_harmonic_initializer_is_logged(self, unit_disk_64, caplog):
        grid, mask = unit_disk_64

        def broken(*args, **kwargs):
            raise RuntimeError("factor is exactly singular")

        with mock.patch.object(msolve.slinalg, "spsolve", broken), \
                caplog.at_level("WARNING", logger="meancurv"):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        assert out.converged
        assert "harmonic initializer failed" in caplog.text

    def test_non_finite_harmonic_solve_is_logged(self, unit_disk_64, caplog):
        grid, mask = unit_disk_64

        def singular(A, b):     # what spsolve returns for a singular matrix
            return np.full(b.shape, np.nan)

        with mock.patch.object(msolve.slinalg, "spsolve", singular), \
                caplog.at_level("WARNING", logger="meancurv"):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        assert out.converged
        assert "harmonic initializer failed" in caplog.text

    @pytest.mark.parametrize("lu", ["fresh", "frozen"])
    def test_raising_back_solve_is_reported(self, lu, unit_disk_64):
        grid, mask = unit_disk_64
        factorize = msolve._factorize
        raised = []

        def spy(*args):
            solve, calls = factorize(*args), []

            def first_raises(b):   # a fresh LU's first solve, or its first frozen reuse
                calls.append(b)
                if len(calls) == (1 if lu == "fresh" else 2):
                    raised.append(b)
                    raise SystemError("gstrs was called with invalid arguments")
                return solve(b)
            return first_raises

        with mock.patch.object(msolve, "_factorize", spy):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        assert raised
        if lu == "fresh":
            assert not out.converged and len(raised) == 1
            assert out.diagnostics["error"].startswith("back-solve failed: gstrs")
        else:       # the frozen LU is dropped and the matrix refactored
            assert out.converged and "error" not in out.diagnostics
            assert out.diagnostics["factorizations"] > len(raised)


class TestCarriedLU:
    """A sweep's ball solve may start on the last LU of the solve before it."""

    ball = ((0.1, -0.05), 0.3)

    def test_foreign_plan_is_ignored(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions()
        ref = msolve._solve_ball(cone_64.values, mask, *self.ball, opts)
        carry = []
        msolve._solve_ball(cone_64.values, mask, (0.0, 0.1), 0.2, opts, carry)
        foreign = carry[0]
        got = msolve._solve_ball(cone_64.values, mask, *self.ball, opts, carry)
        assert np.array_equal(got[2], ref[2], equal_nan=True)
        assert got[3] == ref[3] and ref[3]["converged"] and not got[3]["carried"]
        assert carry[0] is not foreign      # the holder now carries this ball's pair

    def test_raising_carried_solve_refactors(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions()
        carry = []
        msolve._solve_ball(cone_64.values, mask, *self.ball, opts, carry)
        ref = msolve._solve_ball(cone_64.values, mask, *self.ball, opts)

        def raising(b):
            raise SystemError("gstrs was called with invalid arguments")

        carry[1] = raising
        got = msolve._solve_ball(cone_64.values, mask, *self.ball, opts, carry)
        assert got[3]["carried"] and got[3]["converged"] and "error" not in got[3]
        assert got[3]["factorizations"] == ref[3]["factorizations"]
        # the pass that only dropped the raising LU took no step
        assert got[3]["iterations"] == ref[3]["iterations"]
        assert carry[1] is not raising
        assert np.array_equal(got[2], ref[2], equal_nan=True)



def same_bits(a, b):
    """Equal arrays, bit for bit on the non-NaN entries."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def plan_of(unknown, fixed, rows, fallback):
    return msolve._newton_plan(unknown.shape, unknown.tobytes(), fixed.tobytes(),
                               rows.tobytes(), fallback)


def grid_penalty_rows(V, h, n, penalty, faces):
    """The penalty rows from whole face arrays: flux out of the non-penalty
    neighbours, axis by axis, plus the smoothed-L1 deviation term."""
    pcells, kappa = penalty["cells"], penalty["kappa"]
    out = np.zeros(pcells.shape)
    for (lo, hi), (_, _, _, f) in zip(face_sides(n), faces):
        flux = np.where(np.isfinite(f), f, 0.0)
        out[hi] += np.where(pcells[hi] & ~pcells[lo], flux, 0.0)
        out[lo] += np.where(pcells[lo] & ~pcells[hi], -flux, 0.0)
    dev = V - penalty["phi"]
    sprime = dev / np.sqrt(dev * dev + kappa * kappa)
    return ((out * h ** (n - 1) + penalty["length"] * sprime) / h ** n)[pcells]


class TestPlanResidual:
    """The plan-indexed residual is the grid kernels' residual, bit for bit."""

    @settings(max_examples=8)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.parametrize("system", ["whole", "ball", "penalized"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_rows_equal_grid_rows(self, n, system, seed):
        h, n, unknown, fixed, V, penalty = newton_case(system, n, seed)
        fallback = penalty is not None
        rows = unknown & ~penalty["cells"] if fallback else unknown
        newton_rows, _, args = newton_system(h, n, unknown, fixed, V, penalty)
        newton_rows = newton_rows[c_order(args[0])]
        V = np.where(unknown | fixed, V, np.nan)
        grid_faces = face_gradients(V, h, fallback)
        dens = _divergence(grid_faces, h)
        # the kernel on its own, with forcing, on every unknown row
        f = np.random.default_rng(seed).standard_normal(V.shape)
        Vx = np.concatenate([V.ravel(), (np.nan, 0.0)])
        plan = plan_of(unknown, fixed, rows, fallback)
        r, _ = msolve._residual(Vx, h, f.ravel()[plan.unknowns], plan, fallback)
        assert same_bits(r[c_order(plan)], dens[unknown] - f[unknown])
        # _newton_core's first residual, penalty rows included
        ref = dens[unknown]
        if fallback:
            ref[penalty["cells"][unknown]] = grid_penalty_rows(V, h, n, penalty, grid_faces)
        assert same_bits(newton_rows, ref)

    @settings(max_examples=8)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.parametrize("system", ["whole", "ball", "penalized"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_nan_stencil_names_grid_cells(self, n, system, seed):
        h, n, unknown, fixed, V, penalty = newton_case(system, n, seed)
        rng = np.random.default_rng(seed)
        rows = unknown & ~penalty["cells"] if penalty is not None else unknown
        near = fixed & ndimage.binary_dilation(rows)   # face neighbours of the rows
        assume(near.any())       # a 1d minimizer system may have detached both ends
        holes = near & (rng.random(V.shape) < 0.3)
        holes.flat[rng.choice(np.flatnonzero(near))] = True
        data = np.where(holes, np.nan, V)
        with pytest.raises(UndefinedCellError) as caught:
            _newton_core(h, n, unknown, fixed, data, np.zeros(V.shape), SolveOptions(),
                         init_values=V, penalty=penalty)
        # the grid path on _newton_core's window
        win = tuple(slice(int(i.min()), int(i.max()) + 1)
                    for i in np.nonzero(unknown | fixed))
        Vw = np.where(unknown | fixed, data, np.nan)[win]
        Vw[unknown[win]] = V[win][unknown[win]]
        dens = _divergence(face_gradients(Vw, h, penalty is not None), h)
        cells = list(zip(*np.nonzero(unknown[win] & np.isnan(np.where(rows[win], dens, 0.0)))))
        assert cells and caught.value.cells == cells[:8]     # the error keeps eight


def direct_ball_region(mask, center, radius):
    """``ball_region`` as computed before its masks were cached: the window,
    its inside mask from the points, the ring by dilation."""
    grid = mask.grid
    win = []
    for k in range(grid.n):
        lo = int(np.floor((center[k] - radius - grid.origin[k]) / grid.h)) - 3
        hi = int(np.ceil((center[k] + radius - grid.origin[k]) / grid.h)) + 3 + 1
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


def region_outcome(fn, mask, center, radius):
    try:
        return fn(mask, center, radius)
    except (SizingError, ValueError) as exc:
        return type(exc)


def assert_same_region(mask, center, radius):
    got = region_outcome(ball_region, mask, center, radius)
    ref = region_outcome(direct_ball_region, mask, center, radius)
    if isinstance(ref, type):
        assert got is ref, (center, radius)
        return
    assert got[0] == ref[0], (center, radius)
    assert all(np.array_equal(a, b) for a, b in zip(got[1:], ref[1:])), (center, radius)


class TestBallGeometry:
    """Cached ball masks are the direct computation's, ball by ball."""

    @pytest.mark.parametrize("res", [64, 128, 256])
    def test_cover_centres_match_direct(self, res):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), res)
        for level in (2, 3, 4):
            cover = build_ball_cover(mask, level)
            patterns = set()
            for center in cover.centers:
                assert_same_region(mask, center, cover.radius)
                win, unknown, _ = ball_region(mask, center, cover.radius)
                patterns.add((unknown.shape, unknown.tobytes()))
            # translates share one pattern; at 64, level 4 four balls have
            # edge-clipped windows of their own
            assert len(patterns) == (5 if (res, level) == (64, 4) else 1)

    @pytest.mark.parametrize("res, cells", [(50, 5), (60, 7), (100, 10)])
    def test_translates_on_sphere_cells_match_direct(self, res, cells):
        # with h not a power of two, cells at exactly `cells` cells from the
        # centre fall inside or outside by rounding, translate by translate
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), res)
        pts = grid.points()
        radius = cells * grid.h
        masks = set()
        for i in range(res // 2, res + res // 2, 3):
            for j in range(res // 2, res + res // 2, 3):
                center = tuple(pts[i, j])
                assert_same_region(mask, center, radius)
                win, unknown, _ = direct_ball_region(mask, center, radius)
                masks.add(unknown.tobytes())
        assert len(masks) > 1

    def test_off_lattice_centres_through_solve_on_ball(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        rng = np.random.default_rng(20)
        region, calls = msolve.ball_region, []

        def checked(mask, center, radius):
            assert_same_region(mask, center, radius)
            calls.append(center)
            return region(mask, center, radius)

        with mock.patch.object(msolve, "ball_region", checked):
            for _ in range(12):
                radius = float(rng.uniform(0.05, 0.3))
                center = tuple(rng.uniform(-0.5, 0.5, 2))
                assert solve_on_ball(cone_64, mask, center, radius).converged
                # the same ball again, now from the cache
                assert solve_on_ball(cone_64, mask, center, radius).converged
        assert len(calls) == 24

    def test_errors_match_direct(self, unit_disk_64, face_layer_disk_64):
        grid, mask = unit_disk_64
        cases = [(mask, (5.0, 5.0), 0.2, SizingError),          # no cell at all
                 (mask, (0.99, 0.0), 0.005, SizingError),       # no interior cell
                 (mask, (0.8, 0.0), 0.3, ValueError),           # crosses the boundary
                 (face_layer_disk_64[1], (0.5, 0.5), 0.29, ValueError)]   # ring leaves
        for m, center, radius, error in cases:
            for _ in range(2):          # computed, then cached
                assert region_outcome(direct_ball_region, m, center, radius) is error
                with pytest.raises(error):
                    ball_region(m, center, radius)

    def test_cached_masks_are_read_only_and_bounded(self, unit_disk_64):
        grid, mask = unit_disk_64
        cache = msolve._window_ball.cache_info
        for k in range(2 * cache().maxsize):
            win, unknown, ring = ball_region(mask, (0.0, 0.0), 0.1 + 0.001 * k)
            assert cache().currsize <= cache().maxsize
        with pytest.raises(ValueError):
            ring[0] = True


class TestResidualEvaluations:
    """``info["residual_evals"]`` counts the ``_residual`` calls of a solve."""

    def count(self, fn):
        residual, calls = msolve._residual, []

        def spy(*args):
            calls.append(1)
            return residual(*args)

        with mock.patch.object(msolve, "_residual", spy):
            out = fn()
        return out, len(calls)

    def test_solves_count_every_evaluation(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        kinked = sample_function(lambda p: 6 * np.abs(p[:, 0] - 0.05)
                                 + 4 * np.abs(p[:, 1] + 0.1)
                                 + 3 * np.maximum(p[:, 0] + p[:, 1], 0), grid, mask)
        solves = [lambda: solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2),
                  lambda: minimize_prescribed_mc(mask, g=None, phi=lambda p: p[:, 0] ** 2),
                  lambda: solve_on_ball(cone_64, mask, (0.1, -0.05), 0.3),
                  # a stalled warm start and its harmonic restart
                  lambda: solve_on_ball(kinked, mask, (0.0, 0.0), 0.4,
                                        opts=SolveOptions(max_iter=3))]
        for solve in solves:
            out, calls = self.count(solve)
            diag = out.diagnostics
            if "attained_fraction" in diag:      # the minimizer reports its last solve
                assert 0 < diag["residual_evals"] < calls
            else:
                assert diag["residual_evals"] == calls
            assert diag["residual_evals"] > diag["iterations"]
        assert self.count(solves[-1])[0].diagnostics["restarted"]


class TestFunctionalGradient:
    """The finite-difference gradient of ``area_functional`` against the
    interior residual rows, on a disk of radius 1/2 at 16, 32 and 64.

    Rows whose 3x3 neighbourhood is interior see the same cells in both
    discretizations and agree at second order without forcing.  Rows next to
    the boundary layer do not: the cell-centred area sum leaves out the
    boundary cells' terms, and the mismatch grows like 1/h.  With forcing g
    the gradient is -(density - g), the negated rows: the load enters the
    functional as the rows' first-order condition has it, and the forced gap
    on deep rows vanishes at second order too.
    """

    @staticmethod
    def mismatch(res, load):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 0.5), res)
        p = grid.points()
        u = np.where(mask.region, 0.3 * np.sin(2 * p[..., 0] + 1) + 0.2 * p[..., 1] ** 2
                     + 0.1 * p[..., 0] * p[..., 1], np.nan)
        g = np.where(mask.interior, load * (0.5 + 0.3 * p[..., 0]), 0.0)
        g_field = ScalarField(grid=grid, values=g)
        phi = ScalarField(grid=grid, values=np.where(mask.boundary, u, np.nan))
        eps = 1e-6
        grad = []
        for cell in zip(*np.nonzero(mask.interior)):
            F = []
            for step in (eps, -eps):
                v = u.copy()
                v[cell] += step
                F.append(area_functional(ScalarField(grid=grid, values=v), g_field, phi, mask))
            grad.append((F[0] - F[1]) / (2 * eps) / grid.cell_volume)
        plan = plan_of(mask.interior, mask.boundary, mask.interior, False)
        Vx = np.concatenate([u.ravel(), (np.nan, 0.0)])
        rows = msolve._residual(Vx, grid.h, g.ravel()[plan.unknowns], plan, False)[0]
        rows = rows[c_order(plan)]
        gap = -np.array(grad) - rows
        deep = ndimage.binary_erosion(mask.interior, np.ones((3, 3), bool))[mask.interior]
        return gap, deep

    def test_orders_are_pinned(self):
        deep_err, all_err, load_err = [], [], []
        for res in (16, 32, 64):
            gap, deep = self.mismatch(res, 0.0)
            deep_err.append(np.abs(gap[deep]).max())
            all_err.append(np.abs(gap).max())
            gap, deep = self.mismatch(res, 1.0)
            load_err.append(np.abs(gap[deep]).max())
        order = lambda e: np.log2(np.array(e[:-1]) / np.array(e[1:]))
        assert np.all(np.abs(order(deep_err) - 2.0) < 0.15), deep_err
        assert np.all(np.abs(order(load_err) - 2.0) < 0.15), load_err
        assert np.all(np.abs(order(all_err) + 1.0) < 0.25), all_err
