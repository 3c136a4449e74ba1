import math

import numpy as np
import pytest

from meancurv import ShapeSpec, make_grid, sample_function
from meancurv.field import ScalarField, SizingError, UndefinedCellError
from meancurv.dirichlet import (
    AtomRejectionError,
    ContinuationSchedule,
    CurveSpec,
    MeasureSpec,
    boundary_admissibility,
    mollify_measure,
    solve_measure_dirichlet,
)
from meancurv.levelset import SetFamily, eta_margin

from conftest import hemisphere_formula


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
        assert abs(nu.ball_mass(mask, (0.0, 0.0), 0.8) - full) < 1e-3


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

    def test_arc_step_validated(self, unit_disk_64):
        grid, mask = unit_disk_64
        nu = MeasureSpec(curves=(CurveSpec.circle((0, 0), 0.5, 1.0),))
        with pytest.raises(SizingError):
            mollify_measure(nu, 0.1, mask, arc_step=3 * grid.h)

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
        nu = MeasureSpec(density=2.0 / R, lipschitz_const=0.0)
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
