import math

import numpy as np
import pytest

from meancurv import ShapeSpec, make_grid, sample_function
from meancurv.field import SizingError, UndefinedCellError, mollify_field
from meancurv.mco import CircleInterface, enclosed_density_sum
from meancurv.measure import (
    BallFamily,
    ball_measure_table,
    extrapolate_tail,
    generate_ball_family,
    interface_singular_mass,
    total_mass_bound,
    weak_convergence_check,
)
from meancurv.perron import direct_mollified_sequence

from conftest import cone_formula


def uc_formula(a=2.0, b=2.0, delta=0.25, sigma=0.25, c=0.5):
    def uc(p):
        r = np.hypot(p[:, 0], p[:, 1]) if p.shape[1] == 2 else np.abs(p[:, 0])
        return np.where(r >= 1.0, a * np.maximum(r - 1, 0) ** delta,
                        -b * (1 - np.minimum(r, 1.0)) ** sigma - c)
    return uc


class TestBallFamily:
    def test_generation_deterministic_and_inside(self, unit_disk_64):
        grid, mask = unit_disk_64
        f1 = generate_ball_family(mask, 8, r_min=8 * grid.h, r_max=0.3,
                                  gap=4 * grid.h, seed=5)
        f2 = generate_ball_family(mask, 8, r_min=8 * grid.h, r_max=0.3,
                                  gap=4 * grid.h, seed=5)
        assert f1.balls == f2.balls
        for (c, r) in f1:
            sd = float(np.asarray(mask.shape.signed_distance(
                np.asarray(c)[None, :])).ravel()[0])
            assert sd >= r + f1.gap

    def test_tiny_radius_rejected(self, unit_disk_64):
        grid, mask = unit_disk_64
        with pytest.raises(SizingError):
            generate_ball_family(mask, 3, r_min=2 * grid.h, r_max=0.1)


class TestBallMeasureTable:
    def test_affine_all_zero(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: 0.4 * p[:, 0] - 0.2, grid, mask)
        fam = BallFamily(balls=(((0.0, 0.0), 0.3), ((0.1, 0.1), 0.4)),
                         gap=0.0, seed=0)
        tab = ball_measure_table(u, fam)
        assert all(abs(r.mu) < 1e-11 for r in tab.rows)

    def test_density_equals_flux(self, cone_64):
        fam = BallFamily(balls=(((0.05, -0.1), 0.3),), gap=0.0, seed=0)
        tab = ball_measure_table(cone_64, fam)
        dens = enclosed_density_sum(cone_64, CircleInterface((0.05, -0.1), 0.3))
        assert abs(tab.rows[0].mu - dens) <= 1e-12
        # a field is the one-term sequence
        assert tab.method == "limit-of-sequence"
        assert tab.rows[0].per_term == (tab.rows[0].mu,)
        assert tab.rows[0].band == 0.0 and tab.rows[0].converged

    def test_single_field_sphere_on_undefined_cells_raises(self, cone_64):
        sm = mollify_field(cone_64, 0.1)           # undefined within 0.1 of the rim
        fam = BallFamily(balls=(((0.0, 0.0), 0.3), ((0.0, 0.0), 0.97)), gap=0.0, seed=0)
        with pytest.raises(UndefinedCellError):
            ball_measure_table(sm, fam)

    def test_cone_2d_mollified_sequence(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 128)
        u = sample_function(cone_formula, grid, mask)
        seq = direct_mollified_sequence(u, [0.12, 0.06, 0.03])
        fam = BallFamily(balls=tuple(((0.0, 0.0), r) for r in (0.25, 0.5, 0.75)),
                         gap=0.0, seed=0)
        tab = ball_measure_table(seq, fam)
        for row in tab.rows:
            expect = math.sqrt(2) * math.pi * row.radius
            assert abs(row.mu - expect) <= 0.02 * expect
        assert tab.eps_neg < 1e-6
        assert tab.method == "limit-of-sequence"

    def test_cone_1d_atom(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: np.abs(p[:, 0]), grid, mask)
        seq = direct_mollified_sequence(u, [0.12, 0.06, 0.03])
        fam = BallFamily(balls=(((0.0,), 0.4), ((0.55,), 0.1)), gap=0.0, seed=0)
        tab = ball_measure_table(seq, fam)
        assert abs(tab.rows[0].mu - math.sqrt(2)) <= 0.01 * math.sqrt(2)
        assert abs(tab.rows[1].mu) <= 0.01

    def test_monotone_set_function(self, cone_64):
        fam = BallFamily(balls=tuple(((0.0, 0.0), r) for r in (0.2, 0.4, 0.6)),
                         gap=0.0, seed=0)
        tab = ball_measure_table(cone_64, fam)
        mus = [r.mu for r in tab.rows]
        assert mus[0] <= mus[1] + tab.eps_neg
        assert mus[1] <= mus[2] + tab.eps_neg

    def test_nonnegativity_smooth_subharmonic(self, cone_64):
        sm = mollify_field(cone_64, 0.1)
        fam = BallFamily(balls=(((0.0, 0.0), 0.3), ((0.2, 0.0), 0.25)),
                         gap=0.0, seed=0)
        tab = ball_measure_table(sm, fam)
        assert all(r.mu >= -1e-12 for r in tab.rows)

    def test_global_bound(self, cone_64, unit_disk_64, interval_100):
        grid, mask = interval_100
        cone_1d = sample_function(cone_formula, grid, mask)
        for u, (_, mask) in ((cone_64, unit_disk_64), (cone_1d, interval_100)):
            total, bdry = total_mass_bound(u, mask)
            assert 0 < total <= bdry + 1e-9


class TestExtrapolateTail:
    def test_geometric_sequence_recovered(self):
        limit, spread = extrapolate_tail([1.0, 1.5, 1.75])
        assert abs(limit - 2.0) < 1e-12
        assert spread == 0.75

    def test_noisy_tail_falls_back_to_raw(self):
        limit, _ = extrapolate_tail([1.0, 1.2, 0.9])
        assert limit == 0.9


class TestWeakConvergence:
    def test_same_sequence_trivially_passes(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        seq = direct_mollified_sequence(cone_64, [0.12, 0.08])
        fam = generate_ball_family(mask, 5, r_min=8 * grid.h, r_max=0.25,
                                   gap=4 * grid.h, seed=3, margin=0.12 + 4 * grid.h)
        v = weak_convergence_check(seq, seq, fam, gap=4 * grid.h, tol=0.03)
        assert v.passed
        assert v.l1_gap == 0.0

    def test_disagreeing_sequences_refused(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        seq_a = direct_mollified_sequence(cone_64, [0.1])
        shifted = cone_64.with_values(cone_64.values + 1.0)
        seq_b = direct_mollified_sequence(shifted, [0.1])
        fam = BallFamily(balls=(((0.0, 0.0), 0.2),), gap=0.0, seed=0)
        with pytest.raises(ValueError):
            weak_convergence_check(seq_a, seq_b, fam, gap=0.05, tol=0.03)


class TestSingularMass:
    def test_smooth_field_zero_within_band(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: np.sin(2 * p[:, 0]) * np.cos(p[:, 1]),
                            grid, mask)
        res = interface_singular_mass(u, {"circle": ((0.0, 0.0), 0.4)},
                                      widths=[0.08, 0.16, 0.24])
        assert abs(res.mass) <= res.band + 1e-9

    def test_1d_atom_sqrt2(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: np.abs(p[:, 0]), grid, mask)
        res = interface_singular_mass(u, {"point": 0.0}, widths=[0.1, 0.2, 0.3])
        assert abs(res.mass - math.sqrt(2)) <= 0.01 * math.sqrt(2)
        assert res.converged

    def test_uc_ring_mass_zero(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.5), 128)
        u = sample_function(uc_formula(), grid, mask)
        res = interface_singular_mass(u, {"circle": ((0.0, 0.0), 1.0)},
                                      widths=[0.08, 0.16, 0.32])
        assert abs(res.mass) <= res.band

    def test_width_validation(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: np.abs(p[:, 0]), grid, mask)
        with pytest.raises(ValueError):
            interface_singular_mass(u, {"point": 0.0}, widths=[0.1, 0.2])
        with pytest.raises(SizingError):
            interface_singular_mass(u, {"point": 0.0},
                                    widths=[grid.h, 0.2, 0.3])
