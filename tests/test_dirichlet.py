import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meancurv import ShapeSpec, dirichlet, make_grid, msolve, sample_function
from meancurv.field import ScalarField, SizingError, UndefinedCellError, mollifier_kernel
from meancurv.dirichlet import (
    AtomRejectionError,
    ContinuationSchedule,
    CurveSpec,
    MeasureSpec,
    _spread_points,
    boundary_admissibility,
    mollify_measure,
    solve_measure_dirichlet,
)
from meancurv.levelset import SetFamily, eta_margin
from meancurv.measure import BallFamily

from conftest import calls_to, hemisphere_formula, plan_builds


class TestMeasureSpec:
    def test_atom_rejected_in_2d(self, unit_disk_64):
        grid, mask = unit_disk_64
        nu = MeasureSpec(atoms=((0.0, 1.0),))
        with pytest.raises(AtomRejectionError):
            nu.validate(mask)

    def test_atom_fine_in_1d(self, interval_100):
        grid, mask = interval_100
        nu = MeasureSpec(atoms=((0.0, 1.0),))
        nu.validate(mask)
        assert nu.total_mass(mask) == 1.0

    def test_negative_density_rejected(self, unit_disk_64):
        grid, mask = unit_disk_64
        nu = MeasureSpec(density=-1.0)
        with pytest.raises(ValueError):
            nu.validate(mask)

    def test_curve_touching_boundary_tagged(self, unit_disk_64):
        grid, mask = unit_disk_64
        nu = MeasureSpec(curves=(CurveSpec.circle((0, 0), 0.999, 1.0),))
        nu.validate(mask)
        assert nu.unsupported_by_theory

    def test_nan_density_raises_everywhere(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        for bad in (np.nan, np.inf):
            nu = MeasureSpec(density=lambda p: np.where(p[:, 0] > 0.5, bad, 1.0))
            entry_points = (lambda: nu.density_values(mask),
                            lambda: nu.total_mass(mask),
                            lambda: mollify_measure(nu, 0.12, mask),
                            lambda: eta_margin(nu, mask, SetFamily(rectangles=True,
                                                                   rect_stride=8)))
            for call in entry_points:
                with pytest.raises(UndefinedCellError, match="NaN at interior cells") as exc:
                    call()
                assert all(mask.interior[c] and grid.cell_center(c)[0] > 0.5
                           for c in exc.value.cells)
        # inadmissible atoms: one in 2d, a negative one in 1d
        _, line = make_grid(ShapeSpec.interval(-1.0, 1.0), 16)
        for nu, where, error in ((MeasureSpec(atoms=((0.0, 0.1),)), mask, AtomRejectionError),
                                 (MeasureSpec(atoms=((0.2, -0.1),)), line, ValueError)):
            for call in (lambda: mollify_measure(nu, 0.12, where),
                         lambda: eta_margin(nu, where, SetFamily(rectangles=True))):
                with pytest.raises(error):
                    call()

    def test_field_density_keeps_non_finite_as_zero(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        vals = np.where(grid.points()[..., 0] > 0.5, np.nan, 1.0)
        nu = MeasureSpec(density=ScalarField(grid=grid, values=vals))
        dens = nu.density_values(mask)
        assert np.array_equal(dens, np.where(mask.interior & np.isfinite(vals), 1.0, 0.0))

    def test_ball_mass(self, unit_disk_64):
        grid, mask = unit_disk_64
        nu = MeasureSpec(curves=(CurveSpec.circle((0, 0), 0.5, 0.5),))
        assert abs(nu.ball_mass(mask, (0.0, 0.0), 0.3)) < 1e-12
        full = 0.5 * 2 * math.pi * 0.5
        assert abs(nu.ball_mass(mask, (0.0, 0.0), 0.8) - full) < 1e-12
        # the ball (0.5, 0) of radius 0.5 cuts the ring at (1/4, +-sqrt(3)/4):
        # the arc inside subtends 2 pi / 3
        assert abs(nu.ball_mass(mask, (0.5, 0.0), 0.5) - 0.5 * 0.5 * 2 * math.pi / 3) < 1e-12

    def test_ball_mass_counts_1d_atoms_inside(self, interval_100):
        grid, mask = interval_100
        nu = MeasureSpec(density=0.0, atoms=((0.3, 0.7), (-0.5, 0.2)))
        assert nu.ball_mass(mask, (0.2,), 0.15) == 0.7
        assert nu.ball_mass(mask, (0.0,), 0.6) == 0.7 + 0.2
        # the ball is open: an atom on its sphere is outside
        assert nu.ball_mass(mask, (0.0,), 0.3) == 0.0


class TestArcOracle:
    @staticmethod
    def quadrature(curve, center, radius, count=10 ** 6):
        ang = (np.arange(count) + 0.5) * 2 * math.pi / count
        pts = np.asarray(curve.center) + curve.radius * np.stack([np.cos(ang), np.sin(ang)], 1)
        inside = np.hypot(*(pts - np.asarray(center)).T) < radius
        return inside.mean() * 2 * math.pi * curve.radius

    def test_crossing_balls_match_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            curve = CurveSpec.circle(rng.uniform(-0.5, 0.5, 2), rng.uniform(0.1, 1.0), 1.0)
            rho = curve.radius
            d = rng.uniform(0.05, 2.0) * rho
            radius = rng.uniform(abs(d - rho), d + rho)    # the two circles cross
            t = rng.uniform(0, 2 * math.pi)
            center = np.asarray(curve.center) + d * np.array([math.cos(t), math.sin(t)])
            exact = curve.length_inside(center, radius)
            assert 0 < exact < 2 * math.pi * rho
            # the quadrature's error is a point count: at most about two points
            assert abs(exact - self.quadrature(curve, center, radius)) \
                <= 3 * 2 * math.pi * rho / 10 ** 6

    def test_all_or_nothing(self):
        curve = CurveSpec.circle((0.2, -0.1), 0.5, 1.0)
        full = 2 * math.pi * 0.5
        cases = [((0.2, -0.1), 0.6, full),      # d = 0, larger ball
                 ((0.2, -0.1), 0.4, 0.0),       # d = 0, smaller ball
                 ((0.3, -0.1), 0.7, full),      # the ball encloses the circle
                 ((0.3, -0.1), 0.3, 0.0),       # the circle encloses the ball
                 ((1.5, -0.1), 0.6, 0.0)]       # disjoint
        for center, radius, want in cases:
            assert curve.length_inside(center, radius) == want
            assert self.quadrature(curve, center, radius) == want


class TestMollifyMeasure:
    def test_zero_measure(self, unit_disk_64):
        grid, mask = unit_disk_64
        g = mollify_measure(MeasureSpec(), 0.1, mask)
        assert np.nansum(np.abs(g.values)) == 0.0

    def test_ring_mass_conserved(self, unit_disk_64):
        grid, mask = unit_disk_64
        nu = MeasureSpec(curves=(CurveSpec.circle((0, 0), 0.5, 1.0),))
        g = mollify_measure(nu, 0.1, mask)
        mass = float(np.nansum(g.values[mask.region]) * grid.cell_volume)
        assert abs(mass - math.pi) < 0.005 * math.pi
        assert (np.nan_to_num(g.values) >= 0).all()

    def test_margin_survives_mollification(self):
        # averaging cannot lose more than a whisker of the measure margin
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        nu = MeasureSpec(curves=(CurveSpec.circle((0, 0), 0.5, 0.5),))
        annuli = tuple(((0.0, 0.0), 0.5 - w, 0.5 + w) for w in (0.08, 0.15, 0.25))
        fam = SetFamily(rectangles=False, annuli=annuli,
                        ball_radii=(0.55, 0.7), ball_stride=8)
        before = eta_margin(nu, mask, fam)
        g = mollify_measure(nu, 0.12, mask)
        after = eta_margin(g, mask, fam)
        assert after.eta_star >= before.eta_star - 0.03


def spread_points_loop(grid, pts, masses, eps, k):
    """The per-point loop that ``_spread_points`` replaced, as its reference."""
    out = np.zeros(grid.shape)
    hv = grid.cell_volume
    for p, m in zip(pts, masses):
        idx = [int(round((p[d] - grid.origin[d]) / grid.h)) for d in range(grid.n)]
        sl = []
        offs = []
        for d in range(grid.n):
            lo = max(idx[d] - k, 0)
            hi = min(idx[d] + k + 1, grid.extents[d])
            sl.append(slice(lo, hi))
            offs.append(grid.axis_centers(d)[lo:hi] - p[d])
        if grid.n == 1:
            s2 = (offs[0] / eps) ** 2
        else:
            s2 = ((offs[0][:, None] / eps) ** 2 + (offs[1][None, :] / eps) ** 2)
        wloc = np.zeros_like(s2)
        inside = s2 < 1.0
        wloc[inside] = np.exp(1.0 / (s2[inside] - 1.0))
        total = wloc.sum()
        if total <= 0:
            raise SizingError("kernel support missed the grid for a point part")
        out[tuple(sl)] += (m / total / hv) * wloc
    return out


class TestSpreadPoints:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1),
           ratio=st.floats(2.0, 6.0))
    def test_matches_point_loop(self, n, seed, ratio):
        rng = np.random.default_rng(seed)
        shape = ShapeSpec.interval(-1.0, 1.0) if n == 1 else ShapeSpec.disk((0.0, 0.0), 0.6)
        grid, _ = make_grid(shape, 16)
        eps = ratio * grid.h
        k = mollifier_kernel(n, grid.h, eps).shape[0] // 2
        lo = np.asarray(grid.origin)
        pts = rng.uniform(lo, lo + (np.asarray(grid.extents) - 1) * grid.h,
                          (int(rng.integers(1, 40)), n))
        masses = rng.uniform(0.0, 2.0, len(pts))
        idx = grid.nearest_cells(pts)
        clipped = ((idx < k) | (idx + k >= np.asarray(grid.extents))).any(axis=1)
        for part in (~clipped, clipped):
            if not part.any():
                continue
            got = _spread_points(grid, pts[part], masses[part], eps, k)
            want = spread_points_loop(grid, pts[part], masses[part], eps, k)
            if part is clipped:
                # a kernel's total also sums the zeros beyond the grid edge
                np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
            else:
                assert np.array_equal(got, want)


class TestAdmissibility:
    def test_disk_margins(self, unit_disk_64):
        grid, mask = unit_disk_64
        assert abs(boundary_admissibility(mask, 0.4).min_margin - 0.2) < 1e-12
        assert abs(boundary_admissibility(mask, 0.6).min_margin + 0.2) < 1e-12
        assert not boundary_admissibility(mask, 0.6).passed
        assert boundary_admissibility(mask, None).passed

    def test_annulus_inner_wall_negative(self):
        grid, mask = make_grid(ShapeSpec.annulus((0, 0), 0.4, 1.0), 32)
        rep = boundary_admissibility(mask, 0.1)
        assert not rep.passed
        assert rep.min_margin < -2.0

    def test_rectangle_refused(self):
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 16)
        with pytest.raises(SizingError):
            boundary_admissibility(mask, 0.0)

    def test_callable_f_returns_one_value_per_sample(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        # a scalar is not broadcast over the samples, as in field.cell_values
        for f, shape in ((lambda p: 0.5, r"\(\)"), (lambda p: np.ones(2), r"\(2,\)")):
            with pytest.raises(ValueError, match=rf"one value per sample, got shape {shape} "
                                                 r"for 64 samples"):
                boundary_admissibility(mask, f)
        # curvature 1 on the unit circle, less n/(n-1) = 2 times f
        rep = boundary_admissibility(mask, lambda p: 0.25 + 0.1 * p[:, 0])
        assert len(rep.samples) == 64
        want = [1.0 - 2 * (0.25 + 0.1 * s.point[0]) for s in rep.samples]
        assert [s.margin for s in rep.samples] == pytest.approx(want, abs=1e-12)
        assert rep.passed

    def test_interval_ends(self):
        grid, mask = make_grid(ShapeSpec.interval(-1.0, 1.0), 16)
        rep = boundary_admissibility(mask, lambda p: 0.3 + p[:, 0])
        assert [s.point for s in rep.samples] == [(-1.0,), (1.0,)]
        assert [s.curvature for s in rep.samples] == [0.0, 0.0]
        # the ends have no curvature and the factor is 1: the margin is -f
        assert [s.margin for s in rep.samples] == pytest.approx([0.7, -1.3], abs=1e-12)
        assert rep.min_margin == pytest.approx(-1.3, abs=1e-12) and not rep.passed


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuationSchedule(deltas=(0.5,))
        with pytest.raises(ValueError):
            ContinuationSchedule(deltas=(0.5, 0.5))
        with pytest.raises(ValueError):
            ContinuationSchedule(deltas=(0.5, 0.0))
        sch = ContinuationSchedule.default()
        assert sch.eps(0.5, 1 / 64) == 0.125
        assert sch.eps(0.01, 1 / 64) == 2 / 64


class TestPipeline:
    def test_zero_measure_zero_solution(self, unit_disk_64):
        grid, mask = unit_disk_64
        res = solve_measure_dirichlet(mask, MeasureSpec(), phi=0.0,
                                      schedule=ContinuationSchedule(deltas=(0.4, 0.2)))
        assert res.converged
        assert np.nanmax(np.abs(res.field.values[mask.interior])) < 1e-12
        assert all(s.monotonicity_violations == 0 for s in res.stages)

    def test_hemisphere_density_recovers_cap(self):
        R = 4.0
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 2.0), 32)
        hemi = hemisphere_formula(R)
        nu = MeasureSpec(density=2.0 / R)
        res = solve_measure_dirichlet(
            mask, nu, phi=hemi,
            schedule=ContinuationSchedule(deltas=(0.2, 0.1, 0.05, 0.02, 0.008)))
        assert res.converged
        ex = sample_function(hemi, grid, mask)
        # final stage solves with (1-delta) nu; compare after the delta gap
        err = np.nanmax(np.abs(res.field.values[mask.interior]
                               - ex.values[mask.interior]))
        assert err < 0.05
        assert all(s.monotonicity_violations == 0 for s in res.stages)

    def test_stage_fields_decrease(self, unit_disk_64):
        grid, mask = unit_disk_64
        nu = MeasureSpec(curves=(CurveSpec.circle((0, 0), 0.5, 0.5),))
        res = solve_measure_dirichlet(mask, nu, phi=0.0)
        mins = [s.min_u for s in res.stages]
        assert all(b <= a + 1e-9 for a, b in zip(mins, mins[1:]))

    def test_sup_bound(self, unit_disk_64):
        grid, mask = unit_disk_64
        nu = MeasureSpec(curves=(CurveSpec.circle((0, 0), 0.5, 0.5),))
        res = solve_measure_dirichlet(mask, nu, phi=lambda p: 0.2 + 0.1 * p[:, 0])
        sup_phi = 0.3
        assert all(s.max_u <= sup_phi + 1e-6 for s in res.stages)

    @pytest.mark.parametrize("density, stopped_at", [(4.0, 2), (8.0, 1)])
    def test_diverged_stage_stops_the_pipeline(self, density, stopped_at):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        solve, outs = dirichlet.solve_dirichlet, []

        def recorded(*args, **kwargs):
            outs.append(solve(*args, **kwargs))
            return outs[-1]

        balls = BallFamily(balls=(((0.0, 0.0), 0.5),), gap=0.0, seed=0)
        with mock.patch.object(dirichlet, "solve_dirichlet", recorded):
            res = solve_measure_dirichlet(mask, MeasureSpec(density=density), phi=0.0,
                                          opts=msolve.SolveOptions(max_iter=15),
                                          validate_balls=balls)
        assert len(res.stages) == len(outs) == stopped_at
        assert [s.converged for s in res.stages] == [True] * (stopped_at - 1) + [False]
        assert not res.converged and res.mass_check is None
        assert res.diagnosis.startswith("stage diverged")
        # the last converged stage's field; with none, the first stage's own
        assert res.field is outs[max(stopped_at - 2, 0)].field

    def test_stages_share_one_plan_and_carry_the_lu(self, unit_disk_64):
        grid, mask = unit_disk_64
        nu = MeasureSpec(curves=(CurveSpec.circle((0, 0), 0.5, 0.5),))
        with plan_builds() as built, calls_to("_factorize") as lus:
            res = solve_measure_dirichlet(mask, nu, phi=0.0)
        assert res.converged and len(res.stages) == 6
        # one plan; the first stage's harmonic start and its Newton LU serve all six
        assert built() == 1 and lus() == 2
