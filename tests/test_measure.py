import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meancurv import ShapeSpec, make_grid, sample_function
from meancurv.field import SizingError, UndefinedCellError, mollify_field
from meancurv.mco import CircleInterface, enclosed_density_sum
from meancurv.measure import (
    BallFamily,
    ball_measure_table,
    extrapolate,
    generate_ball_family,
    interface_singular_mass,
    total_mass_bound,
    weak_convergence_check,
)
from meancurv.perron import SequenceTerm, direct_mollified_sequence

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


def params_toward_zero(count):
    """count distinct positive params, decreasing by ratios in [1.2, 3]."""
    return st.tuples(st.floats(0.01, 0.5),
                     st.lists(st.floats(1.2, 3.0), min_size=count - 1,
                              max_size=count - 1)).map(
        lambda tr: list(reversed(np.cumprod([tr[0], *tr[1]]).tolist())))


coefficient = st.floats(-10.0, 10.0, allow_nan=False)


def lagrange_reference(ws, ms):
    """The three-width Lagrange quadratic at 0 and the line through the two
    narrowest widths, written out as the singular-mass code once did."""
    order = np.argsort(ws)
    ws, ms = np.asarray(ws)[order], np.asarray(ms)[order]
    quad = 0.0
    for i in range(3):
        num = den = 1.0
        for j in range(3):
            if j != i:
                num *= -ws[j]
                den *= ws[i] - ws[j]
        quad += ms[i] * num / den
    linear = (ms[0] * ws[1] - ms[1] * ws[0]) / (ws[1] - ws[0])
    return quad, abs(quad - linear)


class TestExtrapolate:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), order=st.integers(1, 3), extra=st.integers(0, 2))
    def test_polynomial_of_degree_at_most_order_reproduced(self, data, order, extra):
        degree = data.draw(st.integers(0, order))
        coefs = data.draw(st.lists(coefficient, min_size=degree + 1, max_size=degree + 1))
        ts = data.draw(params_toward_zero(order + 1 + extra))
        values = [sum(c * t ** k for k, c in enumerate(coefs)) for t in ts]
        limit, band = extrapolate(ts, values, order)
        scale = 1.0 + max(abs(v) for v in values[-order - 1:])
        assert abs(limit - coefs[0]) <= 1e-10 * scale
        if degree < order:      # the lower fit reproduces it too
            assert band <= 1e-10 * scale

    @given(values=st.lists(coefficient, min_size=1, max_size=8))
    def test_order_zero_is_last_value_and_tail_spread(self, values):
        limit, band = extrapolate(None, values, 0)
        assert limit == values[-1]
        assert band == max(values[-3:]) - min(values[-3:])
        assert extrapolate(range(len(values)), values, 0) == (limit, band)

    @settings(max_examples=200, deadline=None)
    @given(ws=params_toward_zero(3), ms=st.lists(coefficient, min_size=3, max_size=3))
    def test_order_two_matches_lagrange_minus_line(self, ws, ms):
        limit, band = extrapolate(ws, ms, 2)
        quad, ref = lagrange_reference(ws, ms)
        slack = 1e-12 * max(1.0, max(abs(m) for m in ms))
        assert math.isclose(limit, quad, rel_tol=1e-12, abs_tol=slack)
        assert math.isclose(band, ref, rel_tol=1e-12, abs_tol=slack)

    def test_order_one_is_the_line_through_the_last_two(self):
        limit, band = extrapolate([0.5, 0.2, 0.1], [9.0, 1.4, 1.2], 1)
        assert limit == pytest.approx(1.0, abs=1e-14)
        assert band == pytest.approx(0.2, abs=1e-14)

    def test_too_few_or_misaligned_pairs_raise(self):
        with pytest.raises(ValueError):
            extrapolate([0.1, 0.2], [1.0, 2.0], 2)
        with pytest.raises(ValueError):
            extrapolate([0.1], [1.0, 2.0], 1)


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

    def test_defect_allowance_is_over_the_inflated_ball(self, unit_disk_64):
        # a's mass on B_r beats b's on B_{r+gap} by more than defect * |B_{r+gap}|
        # but by less than the defect itself, a density: the pair must fail
        grid, mask = unit_disk_64
        defect, radius, gap, tol = 0.1, 0.2, 0.05, 0.03
        u_a = sample_function(lambda p: 0.1 * (p[:, 0] ** 2 + p[:, 1] ** 2), grid, mask)
        u_b = u_a.with_values(np.where(u_a.finite, 0.0, u_a.values))
        seq_a = [SequenceTerm(field=u_a, level=0, eps=0.0, defect=defect)]
        seq_b = [SequenceTerm(field=u_b, level=0, eps=0.0, defect=0.0)]
        fam = BallFamily(balls=(((0.0, 0.0), radius),), gap=gap, seed=0)
        v = weak_convergence_check(seq_a, seq_b, fam, gap=gap, tol=tol)
        row = v.rows[0]
        excess = row.mu_a_r - row.mu_b_inflated - tol * max(abs(row.mu_b_inflated), 0.05)
        assert defect * math.pi * (radius + gap) ** 2 < excess < defect
        assert row.slack_ab > 0 and not v.passed


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
        res = interface_singular_mass(u, {"point": 0.0}, widths=[0.1, 0.3, 0.2])
        assert abs(res.mass - math.sqrt(2)) <= 0.01 * math.sqrt(2)
        assert res.converged
        # widest first, the order extrapolate takes
        assert [w for w, _ in res.samples] == [0.3, 0.2, 0.1]
        masses = [m for _, m in res.samples]
        mass, band = extrapolate([0.3, 0.2, 0.1], masses, 2)
        assert res.mass == mass
        assert res.band == band + 1e-9 * (1.0 + max(abs(m) for m in masses))

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
