"""Ball-local sums read only their ball's window: each must equal the sum of
the same formula over the whole grid, bit for bit.

The oracles below are the whole-grid formulas: an enclosed-cell mask over
every grid point, the faces of whole face arrays, the cells of whole-grid
masks.  Interfaces are drawn so that windows are cut by the grid edge, miss
the grid, exceed the domain, or pass exactly through cell centres.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meancurv import ScalarField, ShapeSpec, make_grid
from meancurv import levelset
from meancurv.dirichlet import CurveSpec, MeasureSpec
from meancurv.field import Grid, SizingError, UndefinedCellError, _dist_to
from meancurv.levelset import SetFamily, eta_margin, harnack_report, weak_harnack_check
from meancurv.mco import (CircleInterface, PairInterface, RectInterface, boundary_flux,
                          density_integral, enclosed_density_sum, face_sides, flux_field)

# a non-square 2d grid, so an axis mix-up shows, and a 1d grid
GRID_2D = Grid(n=2, h=1 / 16, extents=(35, 29), origin=(-1.1, -0.9))
GRID_1D = Grid(n=1, h=1 / 20, extents=(41,), origin=(-1.0,))
DISK, DISK_MASK = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 16)
LINE, LINE_MASK = make_grid(ShapeSpec.interval(-1.0, 1.0), 20)


def outcome(fn, *args, **kwargs):
    """fn's value, or the type and named cells of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), getattr(exc, "cells", None)


def full_grid_flux(ff, inside):
    """Outward flux over whole face arrays, given the enclosed-cell mask."""
    grid = ff.grid
    total, bad = None, []
    for (lo, hi), f in zip(face_sides(grid.n), ff.axes):
        cut = inside[hi] != inside[lo]
        bad += list(zip(*np.nonzero(cut & np.isnan(f))))
        part = (f[cut] * np.where(inside[lo], 1.0, -1.0)[cut]).sum()
        total = part if total is None else total + part
    if bad:
        raise UndefinedCellError("interface crosses undefined faces", bad)
    return float(total * grid.h ** (grid.n - 1))


def random_field(grid, seed, nan_share):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.shape).cumsum(axis=0)
    vals[rng.random(grid.shape) < nan_share] = np.nan
    return ScalarField(grid=grid, values=vals)


def coordinate(grid, k):
    """A float strategy for axis k: anywhere from well below to well above the
    grid, or exactly a cell centre."""
    lo = grid.origin[k]
    hi = lo + grid.h * (grid.extents[k] - 1)
    return st.one_of(
        st.floats(lo - 2.0, hi + 2.0),
        st.integers(-3, grid.extents[k] + 2).map(lambda i: lo + grid.h * i))


def radius(grid):
    """Radii below a cell, whole numbers of cells (spheres through cell
    centres), up to the domain and far beyond it, and infinite."""
    return st.one_of(st.floats(0.0, 0.7), st.floats(0.7, 8.0),
                     st.integers(0, 12).map(lambda k: k * grid.h), st.just(math.inf))


seeds = st.integers(0, 2 ** 32 - 1)
nan_shares = st.sampled_from([0.0, 0.01, 0.05])


def check_interface(u, interface, inside):
    """Flux and enclosed density sum equal the whole-grid formulas, or both
    raise naming the same cells."""
    ff = flux_field(u)
    assert outcome(boundary_flux, ff, interface) == outcome(full_grid_flux, ff, inside)
    assert (outcome(enclosed_density_sum, u, interface)
            == outcome(density_integral, u, inside, interface.describe()))


class TestWindowedFlux:
    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, nan_share=nan_shares, data=st.data())
    def test_circles(self, seed, nan_share, data):
        grid = GRID_2D
        u = random_field(grid, seed, nan_share)
        center = (data.draw(coordinate(grid, 0)), data.draw(coordinate(grid, 1)))
        r = data.draw(radius(grid))
        inside = _dist_to(grid.points(), center) < r
        check_interface(u, CircleInterface(center, r), inside)

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, nan_share=nan_shares, data=st.data())
    def test_rectangles(self, seed, nan_share, data):
        grid = GRID_2D
        u = random_field(grid, seed, nan_share)
        x0, x1 = sorted(data.draw(coordinate(grid, 0)) for _ in range(2))
        y0, y1 = sorted(data.draw(coordinate(grid, 1)) for _ in range(2))
        pts = grid.points()
        inside = ((pts[..., 0] > x0) & (pts[..., 0] < x1)
                  & (pts[..., 1] > y0) & (pts[..., 1] < y1))
        check_interface(u, RectInterface(x0, x1, y0, y1), inside)

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, nan_share=nan_shares, data=st.data())
    def test_pairs(self, seed, nan_share, data):
        grid = GRID_1D
        u = random_field(grid, seed, nan_share)
        a, b = sorted(data.draw(coordinate(grid, 0)) for _ in range(2))
        x = grid.points()[..., 0]
        check_interface(u, PairInterface(a, b), (x > a) & (x < b))

    def test_undefined_faces_name_full_grid_cells(self):
        grid = GRID_2D
        u = random_field(grid, 0, 0.0)
        u.values[20, 15] = np.nan
        center = grid.cell_center((20, 12))
        with pytest.raises(UndefinedCellError) as err:
            boundary_flux(u, CircleInterface(center, 3 * grid.h))
        # the sphere's faces next to the NaN cell, by their lower cells
        assert err.value.cells == [(19, 14), (20, 14), (21, 14)]


class TestWindowedBallSums:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ball_mass_2d(self, data):
        grid, mask = DISK, DISK_MASK
        nu = MeasureSpec(density=lambda p: 1.0 + p[:, 0] ** 2 - 0.3 * p[:, 1],
                         curves=(CurveSpec.circle((0.1, -0.2), 0.5, 0.7),
                                 CurveSpec.circle((0.0, 0.0), 0.8, 0.2)))
        center = (data.draw(coordinate(grid, 0)), data.draw(coordinate(grid, 1)))
        r = data.draw(st.one_of(st.floats(0.0, 0.7), st.floats(0.7, 4.0),
                                st.integers(0, 12).map(lambda k: k * grid.h)))
        inside = _dist_to(grid.points(), center) < r
        expect = float(nu.density_values(mask)[inside].sum() * grid.cell_volume)
        for c in nu.curves:
            expect += c.lam * c.length_inside(center, r)
        assert nu.ball_mass(mask, center, r) == expect

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ball_mass_1d_atoms(self, data):
        grid, mask = LINE, LINE_MASK
        nu = MeasureSpec(density=lambda p: 2.0 + np.sin(3 * p[:, 0]),
                         atoms=((0.2, 0.7), (-0.45, 0.3)))
        center = (data.draw(coordinate(grid, 0)),)
        r = data.draw(st.one_of(st.floats(0.0, 3.0), st.integers(0, 12).map(lambda k: k * grid.h)))
        inside = _dist_to(grid.points(), center) < r
        expect = float(nu.density_values(mask)[inside].sum() * grid.cell_volume)
        for x0, m in nu.atoms:
            if abs(x0 - center[0]) < r:
                expect += m
        assert nu.ball_mass(mask, center, r) == expect

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, data=st.data())
    def test_harnack_balls(self, seed, data):
        grid, mask = DISK, DISK_MASK
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-0.05, 2.0, size=grid.shape)
        vals[rng.random(grid.shape) < 0.05] = np.nan
        u = ScalarField(grid=grid, values=vals, provenance="solved")
        center = (data.draw(coordinate(grid, 0)), data.draw(coordinate(grid, 1)))
        # r > 0: the weak Harnack bound divides by r^n
        r = data.draw(st.one_of(st.floats(0.01, 0.7), st.floats(0.7, 3.0),
                                st.integers(1, 12).map(lambda k: k * grid.h)))
        dist = _dist_to(grid.points(), center)
        ball = mask.interior & (dist <= r) & u.defined
        half = ball & (dist <= r / 2.0)

        def full_grid_harnack():
            if not half.any():                  # the half ball lies in the ball
                raise SizingError("empty")
            if float(np.nanmin(vals[ball])) <= 0.0:
                raise ValueError("not positive")
            return float(np.nanmax(vals[half])), float(np.nanmin(vals[half]))

        got = outcome(harnack_report, u, mask, r, center=center)
        expect = outcome(full_grid_harnack)
        if isinstance(got, levelset.HarnackReport):
            got = (got.sup_half, got.inf_half)
        assert got == expect

        def full_grid_weak(p):
            if not half.any():
                raise SizingError("empty")
            sup_half = float(np.nanmax(vals[half]))
            integral = float((np.maximum(vals[ball], 0.0) ** p).sum() * grid.cell_volume)
            if integral <= 0.0:
                return sup_half, 0.0
            return sup_half, (integral / r ** grid.n) ** (1.0 / p)

        for p in (0.5, 2.0):
            got = outcome(weak_harnack_check, u, mask, p, r, center=center)
            if isinstance(got, levelset.WeakHarnackResult):
                got = (got.sup_half, got.integral_bound)
            assert got == outcome(full_grid_weak, p)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_eta_margin_annuli(self, data):
        grid, mask = DISK, DISK_MASK
        nu = MeasureSpec(density=lambda p: 1.0 + p[:, 0] ** 2,
                         curves=(CurveSpec.circle((0.0, 0.0), 0.5, 0.5),))
        center = (data.draw(coordinate(grid, 0)), data.draw(coordinate(grid, 1)))
        r_in = data.draw(st.one_of(st.floats(0.0, 1.0), st.integers(0, 8).map(lambda k: k * grid.h)))
        r_out = r_in + data.draw(st.one_of(st.floats(0.01, 3.0),
                                           st.integers(1, 8).map(lambda k: k * grid.h)))
        rep = eta_margin(nu, mask, SetFamily(rectangles=False,
                                             annuli=((center, r_in, r_out),)))
        dist = _dist_to(grid.points(), center)
        mass = levelset._cell_masses(nu, mask)
        assert rep.worst.nu == float(mass[(dist > r_in) & (dist < r_out) & mask.interior].sum())
