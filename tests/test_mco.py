import math

import numpy as np
import pytest

from meancurv import ShapeSpec, make_grid, sample_function
from meancurv.field import UndefinedCellError
from meancurv.mco import (
    CircleInterface,
    PairInterface,
    RectInterface,
    _upper_affine_envelope,
    area_functional,
    boundary_flux,
    enclosed_density_sum,
    flux_field,
    gradient_bound_report,
    h1_density,
    trace_coefficient_matrix,
)
from meancurv.msolve import SolveOptions
from meancurv.perron import viscosity_subharmonic_check

from conftest import cone_formula, hemisphere_formula


def random_trig_field(grid, mask, rng, amp=0.4):
    a = rng.uniform(-amp, amp, size=3)
    w = rng.uniform(0.5, 4.0, size=(3, grid.n))
    ph = rng.uniform(0, 2 * np.pi, size=3)

    def f(p):
        out = np.zeros(len(p))
        for k in range(3):
            out += a[k] * np.sin((p * w[k]).sum(axis=1) + ph[k])
        return out

    return sample_function(f, grid, mask)


class TestDensity:
    def test_constant_zero(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: np.full(len(p), 5.0), grid, mask)
        d = h1_density(u).values
        have = mask.interior & ~np.isnan(d)
        assert np.abs(d[have]).max() == 0.0

    def test_affine_zero(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: 0.3 * p[:, 0] - 0.2 * p[:, 1] + 1.0, grid, mask)
        d = h1_density(u).values
        have = mask.interior & ~np.isnan(d)
        # rounding in the flux chain is amplified by 1/h^2
        assert np.abs(d[have]).max() < 1e-11

    def test_hemisphere_density_second_order(self):
        R = 4.0
        errs = []
        for res in (32, 64, 128):
            grid, mask = make_grid(ShapeSpec.disk((0, 0), 2.0), res)
            u = sample_function(hemisphere_formula(R), grid, mask)
            d = h1_density(u).values
            rr = np.hypot(grid.points()[..., 0], grid.points()[..., 1])
            sel = mask.interior & (rr < 1.8) & ~np.isnan(d)
            errs.append(np.abs(d[sel] - 2.0 / R).max())
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_neg_inf_stencil_excluded_with_count(self, unit_disk_64):
        grid, mask = unit_disk_64

        def dip(p):
            out = np.hypot(p[:, 0], p[:, 1])
            out[out < 0.03] = -np.inf
            return out

        u = sample_function(dip, grid, mask, extended=True)
        dens = h1_density(u)
        count = dens.undefined_in(mask.interior)
        assert count > 0
        far = mask.interior & ~np.isnan(dens.values)
        assert far.sum() > 0


class TestFluxBound:
    def test_face_flux_below_one(self, unit_disk_64):
        grid, mask = unit_disk_64
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = random_trig_field(grid, mask, rng, amp=1.5)
            ff = flux_field(u)
            assert ff.max_magnitude() < 1.0

    def test_ellipticity_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            du = rng.normal(scale=3.0, size=2)
            A = trace_coefficient_matrix(du)
            ev = np.linalg.eigvalsh(A)
            lo = 1.0 / (1.0 + du @ du)
            assert ev.min() >= lo - 1e-12
            assert ev.max() <= 1.0 + 1e-12


class TestBoundaryFlux:
    def test_affine_closed_zero(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: 0.4 * p[:, 0] + 0.1 * p[:, 1], grid, mask)
        for C in (CircleInterface((0.1, 0.0), 0.5),
                  RectInterface(-0.4, 0.3, -0.2, 0.5)):
            assert abs(boundary_flux(u, C)) < 1e-12

    def test_cone_flux_sqrt2_pi_r(self, cone_64):
        C = CircleInterface((0.0, 0.0), 0.5)
        expect = math.sqrt(2) * math.pi * 0.5
        assert abs(boundary_flux(cone_64, C) - expect) < 0.02 * expect

    def test_1d_cone_jump(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: np.abs(p[:, 0]), grid, mask)
        flux = boundary_flux(u, PairInterface(-0.3, 0.3))
        assert abs(flux - math.sqrt(2)) < 1e-10

    def test_divergence_theorem_random(self, unit_disk_64):
        grid, mask = unit_disk_64
        rng = np.random.default_rng(7)
        for k in range(20):
            u = random_trig_field(grid, mask, rng)
            if k % 2 == 0:
                C = CircleInterface((rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)),
                                    rng.uniform(0.2, 0.6))
            else:
                C = RectInterface(rng.uniform(-0.6, -0.1), rng.uniform(0.1, 0.6),
                                  rng.uniform(-0.6, -0.1), rng.uniform(0.1, 0.6))
            gap = abs(boundary_flux(u, C) - enclosed_density_sum(u, C))
            assert gap <= 1e-12

    def test_undefined_faces_reported(self, unit_disk_64):
        grid, mask = unit_disk_64

        def dip(p):
            out = np.zeros(len(p))
            out[np.hypot(p[:, 0] - 0.5, p[:, 1]) < 0.05] = -np.inf
            return out

        u = sample_function(dip, grid, mask, extended=True)
        with pytest.raises(UndefinedCellError):
            boundary_flux(u, CircleInterface((0.5, 0.0), 0.05))


class TestAreaFunctional:
    def test_flat_zero_data_gives_area(self):
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 32)
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        phi = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        val = area_functional(u, None, phi, mask)
        assert abs(val - 1.0) < 0.02

    def test_boundary_term_adds_perimeter(self):
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 32)
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        phi = sample_function(lambda p: np.ones(len(p)), grid, mask)
        val = area_functional(u, None, phi, mask)
        assert abs(val - (1.0 + 4.0)) < 0.02 * 5.0

    def test_affine_slope(self):
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 32)
        s = 0.75
        aff = lambda p: s * p[:, 0]
        u = sample_function(aff, grid, mask)
        phi = sample_function(aff, grid, mask)
        val = area_functional(u, None, phi, mask)
        expect = math.sqrt(1 + s * s)
        assert abs(val - expect) < 0.02 * expect

    def test_boundary_term_is_face_count_length(self):
        # the stationarity rows' length: 252 faces of h = 1/32 on the unit disk,
        # not the Euclidean 2 pi
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        phi = sample_function(lambda p: np.ones(len(p)), grid, mask)
        val = area_functional(u, None, phi, mask)
        assert abs(val - mask.interior_volume() - 7.875) < 1e-12


class TestSubharmonicCheck:
    BALLS = (((0.0, 0.0), 0.3), ((0.2, -0.1), 0.25), ((-0.25, 0.2), 0.3))

    def test_convex_passes(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: (p ** 2).sum(axis=1), grid, mask)
        rep = viscosity_subharmonic_check(u, mask, self.BALLS)
        assert rep.overall_pass

    def test_concave_fails_with_violation(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: -(p ** 2).sum(axis=1), grid, mask)
        rep = viscosity_subharmonic_check(u, mask, (((0.0, 0.0), 0.3),))
        assert not rep.overall_pass
        assert rep.balls[0].violation > 0.05

    def test_unconverged_balls_are_inconclusive(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        u = sample_function(cone_formula, grid, mask)
        balls = (((0.0, 0.0), 0.4), ((0.2, -0.1), 0.3))
        # one Newton step cannot reach the tolerance: no verdict, and no pass
        rep = viscosity_subharmonic_check(u, mask, balls,
                                          opts=SolveOptions(max_iter=1, tol=1e-12))
        assert [c.inconclusive for c in rep.balls] == [True, True]
        assert all(math.isnan(c.violation) and not c.passed for c in rep.balls)
        assert not rep.overall_pass
        # with the default options both balls converge and pass
        assert viscosity_subharmonic_check(u, mask, balls).overall_pass

    def test_solved_field_is_fixed_point(self, unit_disk_64):
        from meancurv.msolve import solve_dirichlet
        grid, mask = unit_disk_64
        out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2)
        rep = viscosity_subharmonic_check(out.field, mask, (((0.0, 0.0), 0.4),))
        assert rep.overall_pass


class TestGradientEnvelope:
    def test_envelope_skips_pairs_of_equal_x(self):
        xs, ys = np.array([0.0, 1.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0, 2.5])
        with np.errstate(divide="raise", invalid="raise"):
            intercept, slope = _upper_affine_envelope(xs, ys)
        assert math.isfinite(intercept) and math.isfinite(slope)
        assert (intercept + slope * xs >= ys - 1e-12).all()

    def test_refuses_tiny_family(self):
        with pytest.raises(ValueError):
            gradient_bound_report([(None, (0, 0), 1.0)] * 2)

    def test_constants_degenerate(self, unit_disk_64):
        grid, mask = unit_disk_64
        entries = []
        for mlevel in (1.0, 2.0, 3.0):
            u = sample_function(lambda p, m=mlevel: np.full(len(p), -m), grid, mask)
            entries.append((u, (0.0, 0.0), 0.5))
        fit = gradient_bound_report(entries)
        assert fit.degenerate
        assert fit.excluded == 3

    def test_steep_family_positive_slope(self):
        from meancurv.msolve import solve_dirichlet
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 64)
        entries = []
        for M in (1.0, 2.0, 4.0, 8.0):
            def phi(p, M=M):
                return -0.05 - M * np.maximum((p[:, 0] - 0.3) / 0.7, 0.0) ** 4

            out = solve_dirichlet(mask, f=None, phi=phi)
            assert out.converged
            entries.append((out.field, (0.45, 0.0), 0.55))
        fit = gradient_bound_report(entries)
        assert fit.c2 > 0.0
        assert fit.max_residual <= 1e-9

    def test_hemisphere_family_envelope(self):
        entries = []
        for R, shift, pt in ((3.0, 0.0, (0.4, 0.0)), (4.0, -0.5, (0.5, 0.1)),
                             (5.0, -1.0, (0.3, -0.4)), (3.5, -0.2, (0.0, 0.5)),
                             (4.5, -0.7, (-0.45, 0.0))):
            grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 64)
            hemi = hemisphere_formula(R)
            u = sample_function(lambda p, s=shift, f=hemi: f(p) + s, grid, mask)
            entries.append((u, pt, 1.0 - math.hypot(*pt)))
            # oracle: |Du| at the sample point has closed form |p|/sqrt(R^2-|p|^2)
            from meancurv.mco import cell_gradients
            idx = tuple(grid.nearest_cells(pt))
            g = cell_gradients(u)[idx]
            rr = math.hypot(*grid.cell_center(idx))
            exact = rr / math.sqrt(R * R - rr * rr)
            assert abs(math.hypot(*g) - exact) < 0.01 * exact + 1e-4
        fit = gradient_bound_report(entries)
        assert not fit.degenerate
        assert fit.max_residual <= 1e-9
