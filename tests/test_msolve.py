import gc
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage, sparse
from scipy.sparse import linalg as slinalg

from meancurv import (NEG_INF, ScalarField, ShapeSpec, make_grid, msolve, perron,
                      sample_function)
from meancurv.cli import _resample
from meancurv.field import SizingError, UndefinedCellError, _dist_to, cell_values
from meancurv.mco import _divergence, area_functional, face_gradients, face_sides
from meancurv.perron import ball_region, build_ball_cover, solve_on_ball
from meancurv.msolve import (
    SolveOptions,
    UnboundedDescentError,
    _factorize,
    _descent_witness,
    _interior_face_count,
    _newton_arrays,
    minimize_prescribed_mc,
    solve_dirichlet,
)

from conftest import calls_to, hemisphere_formula, plan_builds, traced_peak


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
        values, info = _newton_arrays(grid.h, 2, mask.interior, mask.boundary,
                                      cell_values(hemi, grid, mask.boundary, "phi"),
                                      cell_values(f, grid, mask.interior, "f"),
                                      SolveOptions(), init_values=init.values)
        assert np.array_equal(warm.field.values, values, equal_nan=True)
        assert warm.iterations == info["iterations"]
        cold = solve_dirichlet(mask, f=f, phi=hemi)
        assert warm.converged and cold.converged
        assert warm.iterations < cold.iterations

    def test_undefined_init_is_repaired(self):
        # every interior cell undefined: they all start at the lowest boundary value
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        phi = lambda p: 0.5 * p[:, 0] ** 2 - 0.25 * p[:, 1]
        init = ScalarField(grid=grid, values=np.full(grid.shape, np.nan), provenance="solved")
        repair, repairs = msolve._repair_init, []

        def counted(*args):
            repairs.append(1)
            return repair(*args)

        with mock.patch.object(msolve, "_repair_init", counted):
            out = solve_dirichlet(mask, f=None, phi=phi, init=init)
        ref = solve_dirichlet(mask, f=None, phi=phi)
        assert len(repairs) == 1 and out.converged and ref.converged
        gap = np.abs(out.field.values - ref.field.values)[mask.interior]
        assert gap.max() <= 1e-9

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
    values, info = _newton_arrays(grid.h, grid.n, unknown, ring, u.values, f, opts,
                                  init_values=init)
    if not info["converged"] and init is not None:
        values2, info2 = _newton_arrays(grid.h, grid.n, unknown, ring, u.values, f, opts,
                                        init_values=None)
        counts = {key: info[key] + info2[key] for key in ("factorizations", "residual_evals")}
        if info2["converged"] or info2["residual"] < info["residual"]:
            values, info = values2, info2
            info["restarted"] = True
        info.update(counts)
    return values, info


class TestSolveOptions:
    @pytest.mark.parametrize("kwargs", [
        {"tol": float("inf")}, {"tol": float("nan")}, {"tol": 0.0}, {"tol": -1e-8},
        {"tol": "1e-8"}, {"sigma": 0.5}, {"sigma": 0.9}, {"sigma": 0.0},
        {"sigma": float("nan")}, {"alpha_min": 0.0}, {"alpha_min": -1.0},
        {"alpha_min": 1.5}, {"alpha_min": float("nan")}, {"max_iter": 2.5},
        {"max_iter": 40.0}, {"max_iter": 0}, {"max_iter": True}])
    def test_values_that_break_the_loop_are_refused(self, kwargs):
        # tol=inf took the start as converged after 0 iterations, tol=nan ran
        # every iteration and reported no convergence at residual 8e-15
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolveOptions(**kwargs)

    def test_edges_are_accepted(self):
        opts = SolveOptions(max_iter=np.int64(1), tol=1e-300, sigma=0.49, alpha_min=1.0)
        assert opts.max_iter == 1 and opts.alpha_min == 1.0


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

    @staticmethod
    def counted(mask, g, phi):
        """The minimizer's outcome, its telemetry checked against the
        iterations it reports and the LUs and residuals it made."""
        with calls_to("_factorize") as lus, calls_to("_residual") as evals:
            out = minimize_prescribed_mc(mask, g=g, phi=phi)
        diag = out.diagnostics
        assert diag["iterations"] == out.iterations
        assert (diag["factorizations"], diag["residual_evals"]) == (lus(), evals())
        return out

    def test_telemetry_sums_every_round(self):
        # the harmonic start's LU, then a penalized round and a pinned one
        mask = make_grid(ShapeSpec.disk((0, 0), 2.0), 16)[1]
        out = self.counted(mask, lambda p: np.full(len(p), 0.5), hemisphere_formula(4.0))
        assert out.converged and out.diagnostics["rounds"] == 2

    def test_rounds_end_when_the_detached_set_stays(self):
        # an inner trace of 100 on the annulus: the cells of the inner ring
        # that the first pinning round leaves detached stay so, which ends
        # the rounds before they run out
        grid, mask = make_grid(ShapeSpec.annulus((0, 0), 0.3, 1.0), 16)
        out = self.counted(mask, None,
                           lambda p: np.where(np.hypot(p[:, 0], p[:, 1]) < 0.6, 100.0, 0.0))
        diag = out.diagnostics
        assert out.converged and diag["rounds"] == 2 < msolve._ACTIVE_SET_ROUNDS + 1
        # pinned cells keep their trace; the detached ones lie on the inner ring
        inner = mask.boundary & (np.hypot(*np.moveaxis(grid.points(), -1, 0)) < 0.6)
        off_trace = mask.boundary & (out.field.values != np.where(inner, 100.0, 0.0))
        assert 0 < diag["detached_cells"] == off_trace.sum() == (off_trace & inner).sum()

    def test_unbounded_descent_detected(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        # mass 4*pi over a disk with perimeter 2*pi: balance badly violated
        with pytest.raises(UnboundedDescentError):
            minimize_prescribed_mc(mask, g=lambda p: np.full(len(p), 4.0), phi=0.0,
                                   opts=SolveOptions(max_iter=25))


class TestDescentWitness:
    @staticmethod
    def disk_16():
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        return grid, mask, _interior_face_count(mask) * grid.h

    def test_whole_interior_sublevel_set_is_not_scored(self):
        # a constant iterate: every sublevel set is the whole interior, whose
        # margin is the whole domain's 7.75 - 7 > 0, so there is no witness
        grid, mask, lengths = self.disk_16()
        g = np.where(mask.interior, 7.0 / mask.interior_volume(), 0.0)
        assert lengths[mask.boundary].sum() == 7.75
        assert _descent_witness(mask, g, lengths, np.zeros(grid.shape)) is None

    def test_thresholds_from_the_finite_values(self):
        # -inf on 14 % of the interior: the 0.1 quantile of all interior
        # values would be -inf; that of the finite ones bounds a band
        # {-0.6 <= x <= t} holding the whole load, the cheapest failing set
        grid, mask, lengths = self.disk_16()
        x = grid.points()[..., 0]
        g = np.where(mask.interior & (x >= -0.6) & (x < -0.45), 40.0, 0.0)
        name, margin = _descent_witness(mask, g, lengths, np.where(x < -0.6, NEG_INF, x))
        assert name == "a sublevel set of the iterate (q=0.1)" and margin < 0


class _Captured(Exception):
    pass


def newton_system(h, n, unknown, fixed, V, penalty=None, plans=None):
    """Residual, Newton-matrix triplets and _factorize arguments of
    _newton_core's first step from V, unknowns in the plan's order; the
    plan comes from the holder ``plans`` when given, and the LU is fresh."""
    out = {}

    def capture(plan, vals, diag, m):
        out["triplets"] = plan_triplets(plan, vals, diag, m)
        out["args"] = (plan, vals, diag, m)

        def solve(b):
            out["r"] = -b
            raise _Captured
        return solve

    with mock.patch.object(msolve, "_factorize", capture), pytest.raises(_Captured):
        _newton_arrays(h, n, unknown, fixed, V, np.zeros(V.shape),
                       SolveOptions(tol=1e-300, max_iter=1), init_values=V, penalty=penalty,
                       carry=plans and plans.without_lu())
    return out["r"], out["triplets"], out["args"]


def plan_triplets(plan, vals, diag, m):
    """Triplets (rows, columns, values, m) of a Newton matrix: its rows'
    stencils ``vals`` where the plan's table has a slot (the column is an
    unknown), each at its stencil's row and its slot's CSC column, then
    ``diag`` on the diagonal."""
    cols = np.repeat(np.arange(m), np.diff(plan.indptr))
    real = plan.table < plan.indices.size
    return (np.concatenate([np.nonzero(real)[1], np.arange(m)]),
            np.concatenate([cols[plan.table[real]], np.arange(m)]),
            np.concatenate([vals[real], diag]), m)


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
        win, unknown, ring = perron.ball_region(mask, *ball)
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
        plans = msolve.PlanHolder()     # one plan for every system below
        _, triplets, args = newton_system(h, n, unknown, fixed, V, penalty, plans)
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
            rows = [newton_system(h, n, unknown, fixed, W, penalty, plans)[0] for W in (Vp, Vm)]
            fd[:, j] = (rows[0] - rows[1])[c] / (2 * eps)
        assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()
        if penalty is not None and n == 2:
            # x-faces from a penalty cell to a defined non-penalty cell whose
            # transverse difference has one side only
            d = np.pad(unknown | fixed, 1)
            lo, hi = d[1:-2, 2:] & d[1:-2, :-2], d[2:-1, 2:] & d[2:-1, :-2]
            pc = penalty["cells"]
            assert ((lo ^ hi) & d[1:-2, 1:-1] & d[2:-1, 1:-1] & (pc[:-1] ^ pc[1:])).any()

    @pytest.mark.parametrize("radius, sizes", [(0.12, (1, 512)), (0.25, (513, 2048)),
                                               (0.5, (2049, 8192)), ("penalized", (513, 2048)),
                                               ("whole", (1, 512)), ("1d", (1, 512))])
    def test_factorize_matches_dense_solve(self, radius, sizes, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        if radius in ("penalized", "whole", "1d"):
            # the minimizer's system on a radius-2 disk, the whole-domain
            # system on a radius-1 disk and on an interval
            system, n, r = {"penalized": ("penalized", 2, 2.0), "whole": ("whole", 2, 1.0),
                            "1d": ("whole", 1, 0.6)}[radius]
            *system, penalty = newton_case(system, n, seed=7, radius=r)
            _, triplets, args = newton_system(*system, penalty=penalty)
        else:
            win, unknown, ring = perron.ball_region(mask, (0.0, 0.0), radius)
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
        assert {a.dtype for a in (plan.table, plan.indices, plan.indptr)} == {
            np.dtype(np.int32)}


def reference_csc_data(h, faces, plan, diag, unk, fix, rows_interior):
    """The CSC data of a Newton matrix by the per-entry path that the
    stencil fill replaced, kept as a reference: every term of every face is
    one (CSC slot, coefficient, scale) entry, in order (axis, the row's side
    of the face, face cell), and one ``bincount`` sums them into their
    slots.  A term whose sign or weight is 0 is dropped.  ``unk``, ``fix``
    and ``rows_interior`` are the plan's window masks."""
    n = unk.ndim
    m, nfaces = plan.unknowns.size, plan.cells.shape[1]
    k = 2 if n == 1 else 6
    weights = np.array([-1.0, 1.0, 0.25, -0.25, 0.25, -0.25], np.float32)
    # per flat window index, NaN and zero slots included
    penalty, defined = (np.append(a.ravel(), (False, False)) for a in (unk & ~rows_interior,
                                                                       unk | fix))
    number = np.full(defined.size, m, np.int32)
    number[plan.unknowns] = np.arange(m, dtype=np.int32)
    # the CSC slot of entry (row, column) is the place of column * m + row
    # among the pattern's keys, which CSC order sorts
    keys = np.repeat(np.arange(m, dtype=np.int64), np.diff(plan.indptr)) * m + plan.indices
    # each axis's faces are a run of the plan's faces
    start = np.cumsum([0] + [np.count_nonzero(unk[lo] | unk[hi]) for lo, hi in face_sides(n)])
    assert start[-1] == nfaces - 1
    slot, gather, scale = [], [], []
    for axis in range(n):
        cells = plan.cells[:, start[axis]:start[axis + 1]]
        cols = number[cells[:k]]
        weight = np.where(cols < m, weights[:k, None], np.float32(0))
        if penalty.any() and n == 2:
            ok = [defined[cells[c]] & defined[cells[c + 1]] for c in (2, 4)]
            weight[2:4] *= ok[0] * (2 - ok[1])
            weight[4:] *= ok[1] * (2 - ok[0])
        coeff = np.empty(cols.shape, np.int32)
        coeff[:] = np.arange(start[axis], start[axis + 1], dtype=np.int32)
        coeff[2:] += nfaces
        for side in (0, 1):
            # the row adds the flux of the face above it and subtracts the one
            # below; a penalty row takes the flux into its cell, from a
            # defined non-penalty neighbour only
            row_sign, row, other = 1 - 2 * side, cells[side], cells[1 - side]
            sign = np.where(penalty[row], -row_sign * (defined[other] & ~penalty[other]), row_sign)
            val = np.where(cols[side] < m, sign, 0).astype(np.float32) * weight
            keep = val != 0
            slot += [np.searchsorted(keys, c[w].astype(np.int64) * m + cols[side][w])
                     for c, w in zip(cols, keep)]
            gather.append(coeff[keep])
            scale.append(val[keep])
    g, t, w, _ = faces
    w3 = w ** 3
    coeff = np.concatenate([(1.0 + t * t) / w3, -g * t / w3])
    vals = coeff[np.concatenate(gather)] * (np.concatenate(scale) * np.float64(1.0 / (h * h)))
    data = np.bincount(np.concatenate(slot), vals, keys.size).astype(float, copy=False)
    data[np.searchsorted(keys, np.arange(m, dtype=np.int64) * (m + 1))] += diag
    return data


def factorized_data(plan, vals, diag, m, cut=None):
    """The CSC data of the Newton matrix that ``_factorize`` hands SuperLU
    with ``_SINGLE_ABOVE`` at ``cut``; by default at m, so the float64 data,
    which SuperLU gets rounded to float32 above the cut."""
    out = []
    csc = msolve.sparse.csc_matrix

    def capture(arg, **kwargs):
        out.append(csc(arg, **kwargs).data.copy())
        raise _Captured

    with (mock.patch.object(msolve, "_SINGLE_ABOVE", m if cut is None else cut),
          mock.patch.object(msolve.sparse, "csc_matrix", capture), pytest.raises(_Captured)):
        _factorize(plan, vals, diag, m)
    assert out[0].dtype == (np.float64 if cut is None or m <= cut else np.float32)
    return out[0]


def lu_of(solve):
    """The ``SuperLU`` object among a ``_factorize`` closure's cells, where
    perfbench's tracer finds it."""
    return next(c.cell_contents for c in solve.__closure__
                if isinstance(c.cell_contents, slinalg.SuperLU))


def stencil_system(h, n, unknown, fixed, V, penalty=None):
    """``newton_system``'s _factorize arguments, the faces that filled its
    values, and the plan's window masks (unknown, fixed, interior rows)."""
    fill, faces = msolve._jac_values_2d, []

    def spy(h, f, plan):
        faces.append(f)
        return fill(h, f, plan)

    with mock.patch.object(msolve, "_jac_values_2d", spy):
        _, _, args = newton_system(h, n, unknown, fixed, V, penalty)
    win = msolve._window(unknown, fixed)
    rows = unknown if penalty is None else unknown & ~penalty["cells"]
    return args, faces[0], (unknown[win], fixed[win], rows[win])


class TestStencilFill:
    """Each Newton matrix is filled row by row from its stencil, and its CSC
    data equal the per-entry reference's bit for bit."""

    @staticmethod
    def check(h, args, faces, masks):
        plan, vals, diag, m = args
        assert vals.shape == plan.table.shape == (3 ** (plan.rows.shape[0] // 2), m)
        ref = reference_csc_data(h, faces, plan, diag, *masks)
        assert same_bits(factorized_data(*args), ref)
        if not plan.fallback:       # the harmonic start's matrix: zero gradient
            nfaces = plan.cells.shape[1]
            flat = (np.zeros(nfaces), np.zeros(nfaces), np.ones(nfaces), None)
            got = factorized_data(plan, msolve._jac_values_2d(h, flat, plan), np.zeros(m), m)
            assert same_bits(got, reference_csc_data(h, flat, plan, np.zeros(m), *masks))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @example(seed=54764)       # as in test_matrix_is_residual_jacobian
    @pytest.mark.parametrize("system", ["whole", "ball", "penalized"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_csc_data_equal_the_reference(self, n, system, seed):
        h, n, unknown, fixed, V, penalty = newton_case(system, n, seed)
        self.check(h, *stencil_system(h, n, unknown, fixed, V, penalty))

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @example(seed=9)    # annulus: penalty rows with entries exactly 0, which stay +0.0
    @pytest.mark.parametrize("system", ["whole", "ball", "penalized"])
    @pytest.mark.parametrize("kind", ["interval", "disk", "annulus", "rectangle"])
    def test_random_domains_equal_the_reference(self, kind, system, seed):
        rng = np.random.default_rng(seed)
        grid, mask, ball = random_domain(kind, rng)
        h, n, unknown, fixed, V, penalty = system_case(grid, mask, system, rng, ball)
        self.check(h, *stencil_system(h, n, unknown, fixed, V, penalty))

    def test_hemisphere_128(self):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 2.0), 128)
        V = sample_function(hemisphere_formula(4.0), grid, mask).values
        args, faces, masks = stencil_system(grid.h, 2, mask.interior, mask.boundary, V)
        assert args[3] == 205857
        self.check(grid.h, args, faces, masks)

    @pytest.mark.parametrize("seed", [7, 54764])
    def test_zero_sign_terms_are_dropped(self, seed):
        # a penalty row's face to an undefined cell inside the window has a
        # NaN flux coefficient; the row takes no flux there, so the term is
        # not added (the minimizer's system on a radius-2 disk has such faces)
        h, n, unknown, fixed, V, penalty = newton_case("penalized", 2, seed, radius=2.0)
        args, faces, masks = stencil_system(h, n, unknown, fixed, V, penalty)
        unk, fix, _ = masks
        defined = np.append((unk | fix).ravel(), (False, False))
        whole = plan_of(unk, fix, unk)      # the same faces, none of them dropped
        pr = whole.rows[:, args[0].penalty_rows]
        nb = whole.cells[np.arange(4)[:, None] % 2, pr]     # the penalty rows' neighbours
        sentinel = whole.cells.shape[1] - 1
        assert (~defined[nb] & np.isnan(faces[2][pr]) & (pr != sentinel)).any()
        assert np.isfinite(factorized_data(*args)).all()
        self.check(h, args, faces, masks)


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
        lu = lu_of(_factorize(*args))
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


class TestSinglePrecision:
    """Newton matrices of more than ``_SINGLE_ABOVE`` unknowns are factored
    in float32: a chord matrix, whose steps Newton accepts by their float64
    residual."""

    @pytest.fixture(scope="class", params=["hemisphere", "penalized"])
    def system(self, request):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 2.0), 64)
        if request.param == "hemisphere":   # as in test_fill_below_minimum_degree_on_the_hemisphere
            V = sample_function(hemisphere_formula(4.0), grid, mask).values
            _, triplets, args = newton_system(grid.h, 2, mask.interior, mask.boundary, V)
            assert args[3] == 51429
        else:       # the minimizer's system on the same disk
            *case, penalty = system_case(grid, mask, "penalized", np.random.default_rng(3), None)
            _, triplets, args = newton_system(*case, penalty=penalty)
            assert args[0].fallback
        assert args[3] > msolve._SINGLE_ABOVE
        return triplets, args

    def test_single_solve_is_near_a_double_lu(self, system):
        (ri, ci, vi, m), args = system
        b = np.random.default_rng(0).standard_normal(m)
        ref = slinalg.splu(sparse.coo_matrix((vi, (ri, ci)), shape=(m, m)).tocsc()).solve(b)
        solve = _factorize(*args)
        assert lu_of(solve).L.dtype == np.float32
        x = solve(b)
        assert x.dtype == np.float64
        assert np.linalg.norm(x - ref) <= 1e-3 * np.linalg.norm(ref)
        for _ in range(2):
            assert same_bits(_factorize(*args)(b), x)

    def test_single_data_are_the_double_data_rounded(self, system):
        _, args = system
        rounded = factorized_data(*args).astype(np.float32)
        single = factorized_data(*args, cut=args[3] - 1)
        assert np.array_equal(single.view(np.int32), rounded.view(np.int32))

    def test_single_above_the_cut_only(self, system):
        _, args = system
        m = args[3]
        for cut, dtype in [(m - 1, np.float32), (m, np.float64)]:
            with mock.patch.object(msolve, "_SINGLE_ABOVE", cut):
                assert lu_of(_factorize(*args)).L.dtype == dtype

    @pytest.mark.parametrize("res, level", [(128, 2), (256, 3)])
    def test_sweep_balls_stay_double(self, res, level):
        # the largest balls that the sweeps of the tests, of CI's perron run
        # and of the benchmark lift: every one is factored in float64
        _, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), res)
        cover = build_ball_cover(mask, level)
        counts = [int(ball_region(mask, c, cover.radius)[1].sum()) for c in cover.centers]
        assert 3000 < max(counts) <= msolve._SINGLE_ABOVE

    @pytest.mark.parametrize("solver", ["newton", "minimizer"])
    def test_single_chord_takes_the_double_steps(self, solver):
        # the cut below every system of the solve, then above every one
        R = 4.0
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 2.0), 64)
        f = lambda p: np.full(len(p), 2.0 / R)
        opts = SolveOptions(tol=1e-9)
        cuts = {np.float32: int(mask.interior.sum()) - 1,
                np.float64: int((mask.interior | mask.boundary).sum())}
        runs = {}
        for dtype, cut in cuts.items():
            kinds = []

            def spy(*args):
                solve = _factorize(*args)
                kinds.append(lu_of(solve).L.dtype)
                return solve

            with (mock.patch.object(msolve, "_SINGLE_ABOVE", cut),
                  mock.patch.object(msolve, "_factorize", spy)):
                if solver == "newton":
                    out = solve_dirichlet(mask, f=f, phi=hemisphere_formula(R), opts=opts)
                else:
                    out = minimize_prescribed_mc(mask, g=f, phi=hemisphere_formula(R), opts=opts)
            assert out.converged and set(kinds) == {np.dtype(dtype)}
            runs[dtype] = (out.iterations, len(kinds), out.field.values[mask.interior])
        (it32, lu32, u32), (it64, lu64, u64) = runs.values()
        assert (it32, lu32) == (it64, lu64)
        assert np.abs(u32 - u64).max() <= 10 * opts.tol


class TestNewtonPlan:
    def test_equal_unknown_counts_never_share_a_plan(self):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 16)
        V = smooth_iterate(grid, np.random.default_rng(3))
        blocks = [np.zeros(grid.shape, bool) for _ in range(2)]
        blocks[0][6:9, 5:9] = True              # 3 x 4 and 4 x 3 unknowns
        blocks[1][5:9, 6:9] = True
        systems = []
        plans = msolve.PlanHolder()         # one holder meets both patterns
        for unknown in blocks:
            ring = ndimage.binary_dilation(unknown, np.ones((3, 3), bool)) & ~unknown
            _, triplets, args = newton_system(grid.h, 2, unknown, ring, V, plans=plans)
            systems.append((np.linalg.solve(dense(triplets), np.ones(12)), args))
        assert systems[0][1][0] is not systems[1][1][0] and len(plans.plans) == 2
        assert not np.allclose(systems[0][0], systems[1][0])
        for _ in range(3):                     # interleaved, through every plan state
            for ref, args in systems:
                assert np.allclose(_factorize(*args)(np.ones(12)), ref,
                                   rtol=1e-12, atol=0.0)

    def test_warm_plan_solve_equals_cold(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        ball = ((0.1, -0.05), 0.3)
        plans = msolve.PlanHolder()
        with plan_builds() as built:
            # each solve with the holder's plans and a fresh LU
            cold = perron._solve_ball(cone_64.values, mask, *ball, SolveOptions(),
                                      plans.without_lu())
            assert built() == len(plans.plans) == 1
            warm = perron._solve_ball(cone_64.values, mask, *ball, SolveOptions(),
                                      plans.without_lu())
            assert built() == 1
        assert cold[3]["converged"] and warm[3]["iterations"] == cold[3]["iterations"]
        assert same_bits(warm[2], cold[2])

    def test_cold_and_warm_plan_caches_agree(self):
        hemi, f = hemisphere_formula(4.0), lambda p: np.full(len(p), 0.5)
        disk = ShapeSpec.disk((0.0, 0.0), 2.0)
        mask = make_grid(disk, 32)[1]
        plans = msolve.PlanHolder()
        with plan_builds() as built:
            cold = solve_dirichlet(mask, f=f, phi=hemi, carry=plans)
            assert built() == 1
            warm = solve_dirichlet(mask, f=f, phi=hemi, carry=plans.without_lu())
            assert built() == 1
        # the minimizer owns its holder: a second run builds every plan again
        with plan_builds() as built:
            solves = [minimize_prescribed_mc(make_grid(disk, 16)[1], g=f, phi=hemi)]
            first = built()
            solves.append(minimize_prescribed_mc(make_grid(disk, 16)[1], g=f, phi=hemi))
            assert built() == 2 * first > 0
        for cold, warm in ((cold, warm), solves):
            assert cold.converged and warm.iterations == cold.iterations
            assert same_bits(warm.field.values, cold.field.values)

    def test_threads_match_sequential(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        balls = [((-0.02 + 9 * grid.h * i, 0.03 - 7 * grid.h * j), 0.2)
                 for i in (-1, 0, 1) for j in (-1, 0, 1)]

        def solve(ball):
            return solve_on_ball(cone_64, mask, *ball)

        sequential = [solve(ball) for ball in balls]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave the threads as often as possible
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(solve, balls, timeout=300))
        finally:
            sys.setswitchinterval(switch)
        for one, other in zip(sequential, threaded):
            assert one.converged and one.iterations == other.iterations
            assert np.nanmax(np.abs(one.field.values - other.field.values)) <= 1e-12

    def test_concurrent_misses_build_one_plan_per_pattern(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        # translates by whole cells: one pattern, but no solve shares another's plan
        balls = [((-0.02 + 9 * grid.h * i, 0.03 - 7 * grid.h * j), 0.2)
                 for i in (-1, 0, 1) for j in (-1, 0, 1)]

        def solve(ball):
            return solve_on_ball(cone_64, mask, *ball)

        with plan_builds() as built:
            for ball in balls:
                solve(ball)
            assert built() == len(balls)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with plan_builds() as built, ThreadPoolExecutor(len(balls)) as pool:
                assert all(out.converged for out in pool.map(solve, balls, timeout=300))
                assert built() == len(balls)
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
        with mock.patch.object(msolve, "eta_margin", side_effect=ValueError("no members")), \
                caplog.at_level("WARNING", logger="meancurv"):
            msolve._warn_if_margin_fails(mask, g)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "margin screen skipped: no members" in caplog.text
        with mock.patch.object(msolve, "eta_margin", side_effect=TypeError("bad family")), \
                pytest.raises(TypeError, match="bad family"):
            msolve._warn_if_margin_fails(mask, g)

    def test_nan_jacobian_entry_is_reported(self, unit_disk_64):
        grid, mask = unit_disk_64
        fill = msolve._jac_values_2d

        def nan_fill(*args):
            vals = fill(*args)
            vals[len(vals) // 2, vals.shape[1] // 2] = np.nan    # one diagonal entry
            return vals

        zero = ScalarField(grid=grid, values=np.zeros(grid.shape))  # no harmonic start
        with mock.patch.object(msolve, "_jac_values_2d", nan_fill):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2, init=zero)
        assert not out.converged
        assert "error" in out.diagnostics

    def test_fill_bug_is_not_an_outcome(self):
        # only what SuperLU raises (and an LU that does not fit) is an outcome
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        zero = ScalarField(grid=grid, values=np.zeros(grid.shape))  # no harmonic start

        def broken(*args):
            raise IndexError("index 9 is out of bounds for axis 0 with size 9")

        with mock.patch.object(msolve, "_jac_values_2d", broken), \
                pytest.raises(IndexError, match="out of bounds"):
            solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2, init=zero)

    def test_lu_out_of_memory_is_reported(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        zero = ScalarField(grid=grid, values=np.zeros(grid.shape))

        def broken(*args):
            raise MemoryError("SUPERLU_MALLOC fails for buf in intSetup()")

        with mock.patch.object(msolve, "_factorize", broken):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2, init=zero)
        assert not out.converged and out.iterations == 0
        assert out.diagnostics["error"].startswith("linear solve failed: SUPERLU_MALLOC")

    @pytest.mark.parametrize("failure", ["raises", "non-finite"])
    def test_failed_harmonic_start_is_an_error(self, failure, unit_disk_64):
        grid, mask = unit_disk_64

        def broken(*args):
            if failure == "raises":
                raise RuntimeError("Factor is exactly singular")
            return lambda b: np.full(b.shape, np.nan)

        with mock.patch.object(msolve, "_factorize", broken):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        assert not out.converged and out.iterations == 0
        assert out.diagnostics["error"].startswith("harmonic start failed")
        assert np.isnan(out.field.values[mask.interior]).all()    # no zeros
        assert np.array_equal(out.field.values[mask.boundary],
                              grid.points()[mask.boundary][:, 0] ** 2)

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

        zero = ScalarField(grid=grid, values=np.zeros(grid.shape))  # no harmonic start's LU
        with mock.patch.object(msolve, "_factorize", spy):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2, init=zero)
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
        ref = perron._solve_ball(cone_64.values, mask, *self.ball, opts)
        carry = msolve.PlanHolder()
        perron._solve_ball(cone_64.values, mask, (0.0, 0.1), 0.2, opts, carry)
        foreign = carry.lu[0]
        got = perron._solve_ball(cone_64.values, mask, *self.ball, opts, carry)
        assert np.array_equal(got[2], ref[2], equal_nan=True)
        assert got[3] == ref[3] and ref[3]["converged"] and not got[3]["carried"]
        assert carry.lu[0] is not foreign   # the holder now carries this ball's pair
        assert len(carry.plans) == 2

    def test_raising_carried_solve_refactors(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions()
        carry = msolve.PlanHolder()
        perron._solve_ball(cone_64.values, mask, *self.ball, opts, carry)
        ref = perron._solve_ball(cone_64.values, mask, *self.ball, opts)

        def raising(b):
            raise SystemError("gstrs was called with invalid arguments")

        carry.lu = (carry.lu[0], raising)
        # without them the solve would start from the first one's solution
        # and converge before it needs an LU
        for ball in carry.balls.values():
            ball.corrections = ()
        got = perron._solve_ball(cone_64.values, mask, *self.ball, opts, carry)
        assert got[3]["carried"] and got[3]["converged"] and "error" not in got[3]
        assert got[3]["factorizations"] == ref[3]["factorizations"]
        # the pass that only dropped the raising LU took no step
        assert got[3]["iterations"] == ref[3]["iterations"]
        assert carry.lu[1] is not raising
        assert np.array_equal(got[2], ref[2], equal_nan=True)

    def test_stale_chord_direction_refactors(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions()
        carry = msolve.PlanHolder()
        perron._solve_ball(cone_64.values, mask, *self.ball, opts, carry)
        ref = perron._solve_ball(cone_64.values, mask, *self.ball, opts)
        plan, solve = carry.lu
        calls = []

        def uphill(b):
            # the Newton direction reversed: no step along it lowers the merit
            calls.append(1)
            return -solve(b)

        carry.lu = (plan, uphill)
        for ball in carry.balls.values():
            ball.corrections = ()
        got = perron._solve_ball(cone_64.values, mask, *self.ball, opts, carry)
        assert got[3]["carried"] and got[3]["converged"] and "error" not in got[3]
        assert len(calls) == 1 and carry.lu[1] is not uphill
        # the stale direction's line search ran every trial, failed, and was
        # neither a step nor a line-search failure; the refactored solve is ref
        trials = int(np.floor(-np.log2(opts.alpha_min))) + 1
        assert got[3]["residual_evals"] == ref[3]["residual_evals"] + trials
        assert got[3]["line_search_failures"] == 0
        for key in ("iterations", "factorizations", "residual"):
            assert got[3][key] == ref[3][key]
        assert np.array_equal(got[2], ref[2], equal_nan=True)



def reference_harmonic(n, shape, unknown, fixed, V):
    """The COO 5-point Laplace solve by ``spsolve`` that the plan's LU
    replaced as the harmonic start, kept as a reference: full window in,
    full window out."""
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
    out = V.copy()
    out[unknown] = slinalg.spsolve(A, rhs)
    return out


def window_start(h, unknown, fixed, V):
    """The plan's harmonic start on the solve window of (unknown, fixed):
    (window, window values)."""
    win = msolve._window(unknown, fixed)
    unk, fix = unknown[win], fixed[win]
    plan = msolve.PlanHolder().plan(unk, fix, unk)
    Vx = np.concatenate([np.where(fix, V[win], np.nan).ravel(), (np.nan, 0.0)])
    Vx[plan.unknowns] = msolve._harmonic_extension(Vx, h, plan)
    return win, Vx[:-2].reshape(unk.shape)


@pytest.fixture(scope="module")
def hemisphere_64():
    """The hemisphere solve at 64 on the disk of radius 2: h, its plan
    (m = 51,429), its flat window at the harmonic start and its forcing rows."""
    R = 4.0
    grid, mask = make_grid(ShapeSpec.disk((0, 0), 2.0), 64)
    win = msolve._window(mask.interior, mask.boundary)
    unk, fix = mask.interior[win], mask.boundary[win]
    plan = msolve.PlanHolder().plan(unk, fix, unk)
    phi = cell_values(hemisphere_formula(R), grid, mask.boundary, "phi")
    Vx = np.concatenate([np.where(fix, phi[win], np.nan).ravel(), (np.nan, 0.0)])
    Vx[plan.unknowns] = msolve._harmonic_extension(Vx, grid.h, plan)
    return grid.h, plan, Vx, np.full(plan.unknowns.size, 2.0 / R)


class TestWorkingSet:
    """What a Newton solve holds, in units of one float64 face array (8 F
    bytes, F faces), on the hemisphere's plan at 64."""

    def test_residual_gathers_column_by_column(self, hemisphere_64):
        # gathering the six face columns as one block took 6 units, and the
        # call peaked at 12.5; column by column it peaks at 5.0
        h, plan, Vx, f_rows = hemisphere_64
        unit = 8 * (plan.cells.shape[1] - 1)
        (r, flux), peak = traced_peak(lambda: msolve._residual(Vx, h, f_rows, plan))
        assert plan.unknowns.size == 51429 and r.shape == (51429,)
        assert flux.shape == plan.cells.shape[1:]
        assert peak < 6 * unit, peak / unit

    def test_chord_step_holds_no_face_arrays(self, hemisphere_64):
        # one step on a carried LU: the loop's vectors and one residual,
        # 7.7 units; keeping (g, t, w, f) between LUs and gathering the
        # cells as one block peaked at 19.2
        h, plan, Vx, f_rows = hemisphere_64
        unit = 8 * (plan.cells.shape[1] - 1)
        carry, opts = msolve.PlanHolder(), SolveOptions(max_iter=1)
        msolve._newton_core(h, 2, plan, Vx.copy(), f_rows, None, opts, carry)
        start = Vx.copy()
        (_, info), peak = traced_peak(
            lambda: msolve._newton_core(h, 2, plan, start, f_rows, None, opts, carry))
        assert info["carried"] and info["iterations"] == 1 and info["factorizations"] == 0
        assert peak < 10 * unit, peak / unit

    def test_harmonic_start_keeps_only_its_right_side_through_the_lu(self, hemisphere_64):
        # live at the start's splu call: the float32 matrix, the zero
        # diagonal and the right side, 3.2 units; holding the window copy,
        # the face differences and their row gathers through the LU read 7.9
        h, plan, Vx, _ = hemisphere_64
        unit = 8 * (plan.cells.shape[1] - 1)
        splu, base, live = slinalg.splu, [], []

        def start():
            base.append(tracemalloc.get_traced_memory()[0])
            return msolve._harmonic_extension(Vx, h, plan)

        def spy_splu(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0] - base[0])
            return splu(*args, **kwargs)

        with mock.patch.object(msolve.slinalg, "splu", spy_splu):
            traced_peak(start)
        assert len(live) == 1 and live[0] < 4 * unit, [x / unit for x in live]


class TestHarmonicStart:
    """The harmonic start is the plan's Newton matrix at zero gradient,
    factored by ``_factorize``."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @pytest.mark.parametrize("system", ["whole", "ball"])
    @pytest.mark.parametrize("kind", ["interval", "disk", "annulus", "rectangle"])
    def test_plan_start_equals_laplace_solve(self, kind, system, seed):
        rng = np.random.default_rng(seed)
        grid, mask, ball = random_domain(kind, rng)
        h, n, unknown, fixed, V, _ = system_case(grid, mask, system, rng, ball)
        win, got = window_start(h, unknown, fixed, V)
        unk, fix = unknown[win], fixed[win]
        ref = reference_harmonic(n, unk.shape, unk, fix, np.where(fix, V[win], np.nan))
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.nanmax(np.abs(got - ref)) <= 1e-10

    def test_solve_starts_from_it(self, unit_disk_64):
        grid, mask = unit_disk_64
        phi = np.where(mask.boundary, grid.points()[..., 0] ** 2, np.nan)
        _, start = window_start(grid.h, mask.interior, mask.boundary, phi)
        starts = []

        def first(Vx, *args):
            starts.append(Vx[:-2].reshape(start.shape).copy())
            raise _Captured

        with mock.patch.object(msolve, "_residual", first), pytest.raises(_Captured):
            solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        assert same_bits(starts[0], start)

    def test_penalized_plan_raises(self):
        h, n, unknown, fixed, V, penalty = newton_case("penalized", 2, seed=3)
        plan = msolve._NewtonPlan(unknown, fixed, unknown & ~penalty["cells"])
        assert plan.fallback
        Vx = np.concatenate([np.where(fixed, V, np.nan).ravel(), (np.nan, 0.0)])
        with pytest.raises(ValueError, match="penalty rows"):
            msolve._harmonic_extension(Vx, h, plan)
        with pytest.raises(ValueError, match="penalty rows"):
            _newton_arrays(h, n, unknown, fixed, V, np.zeros(V.shape), SolveOptions(),
                           penalty=penalty)

    def test_singular_start_is_an_error(self):
        # one unknown cell and no fixed cell: its Laplace row is empty
        unknown = np.zeros(5, bool)
        unknown[2] = True
        values, info = _newton_arrays(0.25, 1, unknown, np.zeros(5, bool), np.zeros(5),
                                      np.zeros(5), SolveOptions())
        assert np.isnan(values).all()            # undefined, not zeros
        assert info["error"] == "harmonic start failed: Factor is exactly singular"
        assert not info["converged"] and info["iterations"] == 0
        assert np.isnan(info["residual"]) and info["residual_evals"] == 0


class TestPlanOwnership:
    """Plans and LUs belong to the holder of a solve, sweep or continuation."""

    def test_finished_solve_drops_its_plan_and_lu(self, unit_disk_64):
        grid, mask = unit_disk_64
        plan = msolve.PlanHolder.plan
        factorize = msolve._factorize
        held = []

        def spy_plan(self, *args):
            out = plan(self, *args)
            held.append(weakref.ref(out))
            return out

        def spy_factorize(*args):
            out = factorize(*args)
            held.append(weakref.ref(out))
            return out

        with mock.patch.object(msolve.PlanHolder, "plan", spy_plan), \
                mock.patch.object(msolve, "_factorize", spy_factorize):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        assert out.converged and len(held) >= 3     # plan, start and Newton LUs
        gc.collect()
        assert all(ref() is None for ref in held)

    def test_values_are_freed_before_the_lu(self, unit_disk_64):
        # the stencils and the face table they were filled from
        grid, mask = unit_disk_64
        fill, splu = msolve._jac_values_2d, slinalg.splu
        values, alive = [], []

        def spy_fill(h, faces, plan):
            out = fill(h, faces, plan)
            values.extend(weakref.ref(a) for a in (out, *faces) if a is not None)
            return out

        def spy_splu(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in values))
            return splu(*args, **kwargs)

        with mock.patch.object(msolve, "_jac_values_2d", spy_fill), \
                mock.patch.object(msolve.slinalg, "splu", spy_splu):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        assert out.converged and len(alive) >= 2      # the start's LU and Newton's
        assert alive == [0] * len(alive)

    def test_every_lu_takes_the_narrow_panel(self, unit_disk_64):
        # SuperLU's workspace grows with its panel width: every LU of a
        # solve, the harmonic start's and Newton's, takes the module's width
        grid, mask = unit_disk_64
        splu, widths = slinalg.splu, []

        def spy_splu(*args, **kwargs):
            widths.append(kwargs.get("panel_size"))
            return splu(*args, **kwargs)

        with mock.patch.object(msolve.slinalg, "splu", spy_splu):
            out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        assert out.converged and len(widths) >= 2      # the start's LU and Newton's
        assert widths == [msolve._PANEL_SIZE] * len(widths)

    def test_plan_arrays_stay_small(self):
        # the plan keeps per-face and per-row tables and the CSC pattern, no
        # array per matrix entry: at most 240 bytes per unknown
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 2.0), 64)
        plan = plan_of(mask.interior, mask.boundary, mask.interior)
        m = plan.unknowns.size
        assert m == 51429
        held = sum(a.nbytes for a in vars(plan).values() if isinstance(a, np.ndarray))
        assert all(isinstance(a, (np.ndarray, bool, type(None))) for a in vars(plan).values())
        assert held <= 240 * m, held / m

    def test_holder_keeps_each_pattern_once(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        carry = msolve.PlanHolder()
        with plan_builds() as built:
            for ball in [((0.1, -0.05), 0.3), ((0.0, 0.1), 0.2), ((0.1, -0.05), 0.3)]:
                perron._solve_ball(cone_64.values, mask, *ball, SolveOptions(), carry)
        assert built() == len(carry.plans) == 2


def same_bits(a, b):
    """Equal arrays, bit for bit on the non-NaN entries."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def plan_of(unknown, fixed, rows):
    return msolve.PlanHolder().plan(unknown, fixed, rows)


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
        plan = plan_of(unknown, fixed, rows)
        r, _ = msolve._residual(Vx, h, f.ravel()[plan.unknowns], plan)
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
        rows = unknown & ~penalty["cells"] if penalty is not None else unknown
        beside = ndimage.binary_dilation(rows)      # face neighbours of the rows
        if not (fixed & beside).any():
            # a minimizer system detached every cell beside a row (in 1d both
            # ends): attach the first of them again
            first = np.unravel_index(np.flatnonzero(penalty["cells"] & beside)[0], V.shape)
            penalty = dict(penalty, cells=penalty["cells"].copy())
            penalty["cells"][first] = unknown[first] = False
            fixed[first] = True
        rng = np.random.default_rng(seed)
        near = fixed & beside
        holes = near & (rng.random(V.shape) < 0.3)
        holes.flat[rng.choice(np.flatnonzero(near))] = True
        data = np.where(holes, np.nan, V)
        with pytest.raises(UndefinedCellError) as caught:
            _newton_arrays(h, n, unknown, fixed, data, np.zeros(V.shape), SolveOptions(),
                           init_values=V, penalty=penalty)
        # the grid path on _newton_arrays's window
        win = tuple(slice(int(i.min()), int(i.max()) + 1)
                    for i in np.nonzero(unknown | fixed))
        Vw = np.where(unknown | fixed, data, np.nan)[win]
        Vw[unknown[win]] = V[win][unknown[win]]
        dens = _divergence(face_gradients(Vw, h, penalty is not None), h)
        cells = list(zip(*np.nonzero(unknown[win] & np.isnan(np.where(rows[win], dens, 0.0)))))
        assert cells and caught.value.cells == cells[:8]     # the error keeps eight


def direct_ball_region(mask, center, radius):
    """``ball_region`` computed on its own: the window, its inside mask from
    the points, the ring by dilation."""
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
    """Ball masks are the direct computation's, ball by ball, and a holder
    keeps one ball record per cell pattern."""

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
        region, calls = perron.ball_region, []

        def checked(mask, center, radius):
            assert_same_region(mask, center, radius)
            calls.append(center)
            return region(mask, center, radius)

        with mock.patch.object(perron, "ball_region", checked):
            for _ in range(12):
                radius = float(rng.uniform(0.05, 0.3))
                center = tuple(rng.uniform(-0.5, 0.5, 2))
                assert solve_on_ball(cone_64, mask, center, radius).converged
                # the same ball again
                assert solve_on_ball(cone_64, mask, center, radius).converged
        assert len(calls) == 24

    def test_errors_match_direct(self, unit_disk_64, face_layer_disk_64):
        grid, mask = unit_disk_64
        cases = [(mask, (5.0, 5.0), 0.2, SizingError),          # no cell at all
                 (mask, (0.99, 0.0), 0.005, SizingError),       # no interior cell
                 (mask, (0.8, 0.0), 0.3, ValueError),           # crosses the boundary
                 (face_layer_disk_64[1], (0.5, 0.5), 0.29, ValueError)]   # ring leaves
        for m, center, radius, error in cases:
            for _ in range(2):          # the same outcome again
                assert region_outcome(direct_ball_region, m, center, radius) is error
                with pytest.raises(error):
                    ball_region(m, center, radius)

    def test_held_record_checks_every_ball(self, cone_64, unit_disk_64, face_layer_disk_64):
        # translates by whole cells share one ball record of the holder; each
        # later ball is checked from its gathered cells as the first one was
        grid, mask = face_layer_disk_64
        carry = msolve.PlanHolder()
        perron._solve_ball(cone_64.values, mask, (0.0, 0.0), 0.29, SolveOptions(), carry)
        with pytest.raises(ValueError, match="not compactly inside"):
            ball_region(mask, (0.5, 0.5), 0.29)
        with plan_builds() as built:
            with pytest.raises(ValueError, match="not compactly inside"):
                perron._solve_ball(cone_64.values, mask, (0.5, 0.5), 0.29, SolveOptions(), carry)
            ball = ((0.375, 0.375), 0.29)
            win, unknown, ring = ball_region(mask, *ball)
            vals = cone_64.values.copy()
            vals[win][ring & (np.arange(ring.shape[0])[:, None] < 4)] = NEG_INF
            bad = np.argwhere(ring & ~np.isfinite(vals[win])) + [s.start for s in win]
            with pytest.raises(UndefinedCellError) as caught:
                perron._solve_ball(vals, mask, *ball, SolveOptions(), carry)
            assert len(bad) and caught.value.cells == [tuple(c) for c in bad[:8]]
            assert built() == 0 and len(carry.balls) == 1

    @pytest.mark.parametrize("res, levels, records", [(128, (2, 3, 4), 1), (64, (4,), 5)])
    def test_sweep_keeps_one_record_per_pattern(self, res, levels, records):
        # a flat field makes every lift a zero-step solve; at 64, level 4 four
        # balls have edge-clipped windows of their own
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), res)
        flat = ScalarField(grid=grid, values=np.zeros(grid.shape))
        for level in levels:
            holders = []

            def held():
                holders.append(msolve.PlanHolder())
                return holders[-1]

            with mock.patch.object(perron, "PlanHolder", held):
                _, trace = perron.approximation_sweep(flat, mask, level)
            assert trace.completed and len(holders) == 1
            assert len(holders[0].balls) == records, (res, level)

    def test_radii_with_the_same_cells_share_a_record(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        center = tuple(grid.points()[32, 30])
        # no cell centre lies between 3.5 and 3.6 cells from a cell centre
        radii = (3.5 * grid.h, 3.6 * grid.h)
        regions = [ball_region(mask, center, r) for r in radii]
        assert regions[0][0] == regions[1][0]
        assert all(np.array_equal(a, b) for a, b in zip(regions[0][1:], regions[1][1:]))
        carry = msolve.PlanHolder()
        first = perron._solve_ball(cone_64.values, mask, center, radii[0], SolveOptions(), carry)
        with plan_builds() as built:
            second = perron._solve_ball(cone_64.values, mask, center, radii[1], SolveOptions(),
                                        carry)
            assert built() == 0
        assert len(carry.balls) == 1 and len(carry.plans) == 1
        assert first[3]["converged"] and second[3]["converged"] and second[3]["predicted"]


class TestResidualEvaluations:
    """``info["residual_evals"]`` counts the ``_residual`` calls of a solve."""

    def count(self, fn):
        with calls_to("_residual") as calls:
            out = fn()
        return out, calls()

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
            diag = out.diagnostics      # the minimizer's, summed over its rounds
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
        plan = plan_of(mask.interior, mask.boundary, mask.interior)
        Vx = np.concatenate([u.ravel(), (np.nan, 0.0)])
        rows = msolve._residual(Vx, grid.h, g.ravel()[plan.unknowns], plan)[0]
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
