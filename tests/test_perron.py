import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from meancurv import NEG_INF, ScalarField, ShapeSpec, make_grid, msolve, perron, sample_function
from meancurv.field import SizingError
from meancurv.msolve import SolveOptions, solve_dirichlet
from meancurv.perron import (
    BallCover,
    PerronLiftRefused,
    approximation_sweep,
    ball_region,
    build_ball_cover,
    direct_mollified_sequence,
    perron_lift,
    smooth_subharmonic_sequence,
    solve_on_ball,
)

from conftest import calls_to, cone_formula, plan_builds


def dist_field(grid, center):
    pts = grid.points()
    if grid.n == 1:
        return np.abs(pts[..., 0] - center[0])
    return np.hypot(pts[..., 0] - center[0], pts[..., 1] - center[1])


class TestBallCover:
    def test_coverage_and_order(self, unit_disk_64):
        grid, mask = unit_disk_64
        cover = build_ball_cover(mask, 3)
        assert cover.centers == tuple(sorted(cover.centers))
        sdist = mask.shape.signed_distance(grid.points())
        target = mask.interior & (sdist > cover.radius / 2)
        pts = grid.points()[target]
        centers = np.asarray(cover.centers)
        d = np.sqrt(((pts[:, None, :] - centers[None, :, :]) ** 2).sum(-1))
        assert (d.min(axis=1) <= cover.radius + 1e-12).all()
        sd_centers = mask.shape.signed_distance(centers)
        assert (sd_centers >= cover.radius - 1e-12).all()

    def test_under_resolved_level_rejected(self, unit_disk_64):
        grid, mask = unit_disk_64
        with pytest.raises(SizingError):
            build_ball_cover(mask, 6)  # 2^-6 < 4h at h=1/64

    @pytest.mark.parametrize("shape, level, uncovered", [
        # only the mid-circle of the thin annulus is a radius deep
        (ShapeSpec.annulus((0.0, 0.0), 0.5, 1.0), 2, 2868),
        (ShapeSpec.rectangle(-1.0, 1.0, -1.0, 1.0), 2, 0),
        (ShapeSpec.rectangle(-1.0, 1.0, -0.5, 0.5), 3, 0),
        (ShapeSpec.disk((0.2, -0.1), 0.7), 3, 0),
    ], ids=["annulus", "square", "rectangle", "off_centre_disk"])
    def test_uncovered_cells_are_counted(self, shape, level, uncovered):
        grid, mask = make_grid(shape, 64)
        cover = build_ball_cover(mask, level)
        assert cover.centers == tuple(sorted(cover.centers))
        centers = np.asarray(cover.centers)
        assert (mask.shape.signed_distance(centers) >= cover.radius - 1e-12).all()
        pts = grid.points()
        target = pts[mask.interior & (mask.shape.signed_distance(pts) > cover.radius / 2)]
        d = np.sqrt(((target[:, None, :] - centers[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert (d > cover.radius + 1e-12).sum() == cover.uncovered == uncovered

    def test_hand_built_cover_is_counted(self, unit_disk_64):
        # the first 200 centres of the level-3 cover leave most of the disk
        grid, mask = unit_disk_64
        full = build_ball_cover(mask, 3)
        centers = np.asarray(full.centers[:200])
        pts = grid.points()
        target = pts[mask.interior & (mask.shape.signed_distance(pts) > full.radius / 2)]
        d = np.sqrt(((target[:, None, :] - centers[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert len(target) == 11277 and (d > full.radius + 1e-12).sum() == 6785
        assert len(perron._uncovered(mask, full.radius, full.centers[:200])) == 6785
        assert len(perron._uncovered(mask, full.radius, full.centers)) == full.uncovered == 0

    def test_sweep_reports_the_uncovered_count(self, caplog):
        grid, mask = make_grid(ShapeSpec.annulus((0.0, 0.0), 0.5, 1.0), 32)
        u = sample_function(cone_formula, grid, mask)
        with caplog.at_level(logging.WARNING, logger="meancurv"):
            _, trace = approximation_sweep(u, mask, 2)
        assert trace.completed and len(trace.records) == 4
        assert trace.uncovered == build_ball_cover(mask, 2).uncovered == 716
        assert "leaves 716 target cells uncovered" in caplog.text


class TestPerronLift:
    def test_fixed_point_on_solved_field(self, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions()
        u = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0] ** 2, opts=opts).field
        lifted = perron_lift(u, mask, (0.0, 0.0), 0.3, opts=opts)
        gap = np.nanmax(np.abs(lifted.values[mask.interior]
                               - u.values[mask.interior]))
        assert gap <= 100 * opts.tol

    def test_1d_cone_lift_is_constant(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: np.abs(p[:, 0]), grid, mask)
        a = 0.5
        lifted = perron_lift(u, mask, (0.0,), a)
        inside = mask.interior & (dist_field(grid, (0.0,)) < a)
        assert np.abs(lifted.values[inside] - a).max() < 1e-6

    def test_2d_cone_lift_is_constant(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        a = 0.25
        lifted = perron_lift(cone_64, mask, (0.0, 0.0), a)
        inside = mask.interior & (dist_field(grid, (0.0, 0.0)) < a)
        vals = lifted.values[inside]
        assert vals.min() >= a - 1e-9
        assert vals.max() <= a + 2 * grid.h

    def test_outside_invariance_exact(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        lifted = perron_lift(cone_64, mask, (0.2, 0.1), 0.2)
        inside = mask.interior & (dist_field(grid, (0.2, 0.1)) < 0.2)
        outside = ~inside
        a = lifted.values[outside]
        b = cone_64.values[outside]
        both = ~np.isnan(a)
        assert np.array_equal(a[both], b[np.array(both)])

    def test_monotone_and_idempotent(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions()
        ball = ((0.15, -0.1), 0.3)
        l1 = perron_lift(cone_64, mask, *ball, opts=opts)
        assert (l1.values[mask.interior]
                >= cone_64.values[mask.interior] - 10 * opts.tol).all()
        l2 = perron_lift(l1, mask, *ball, opts=opts)
        gap = np.nanmax(np.abs(l2.values[mask.interior] - l1.values[mask.interior]))
        assert gap <= 100 * opts.tol

    def test_nesting_monotonicity(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions()
        small = perron_lift(cone_64, mask, (0.0, 0.0), 0.2, opts=opts)
        large = perron_lift(cone_64, mask, (0.0, 0.0), 0.4, opts=opts)
        gap = np.nanmax(small.values[mask.interior] - large.values[mask.interior])
        assert gap <= 10 * opts.tol

    def test_l1_stability_under_sphere_perturbation(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        ball = ((0.0, 0.0), 0.35)
        inside = mask.interior & (dist_field(grid, ball[0]) < ball[1])
        base = perron_lift(cone_64, mask, *ball)
        gaps = []
        for k in (4.0, 16.0):
            pert = cone_64.with_values(cone_64.values + (1.0 / k)
                                       * np.sin(5 * grid.points()[..., 0]))
            lifted = perron_lift(pert, mask, *ball)
            gaps.append(float(np.abs(lifted.values[inside]
                                     - base.values[inside]).mean()))
        assert gaps[1] < gaps[0]
        # lifted interiors are trapped by the sphere-data perturbation
        assert gaps[1] <= 1.0 / 16 + 1e-9

    def test_neg_inf_sphere_rejected(self, unit_disk_64):
        grid, mask = unit_disk_64
        win, unknown, ring = ball_region(mask, (0.0, 0.0), 0.29)
        vals = np.where(mask.region, 1.0, np.nan)
        vals[win][tuple(np.argwhere(ring)[0])] = NEG_INF
        u = ScalarField(grid=grid, values=vals, extended=True)
        with pytest.raises(PerronLiftRefused):
            perron_lift(u, mask, (0.0, 0.0), 0.29)

    @pytest.mark.parametrize("case", ["neg_inf_sphere", "not_converged", "crosses_boundary",
                                      "crosses_boundary_unit_disk"])
    def test_refusal_carries_untouched_input(self, case, cone_64, unit_disk_64,
                                             face_layer_disk_64):
        grid, mask = unit_disk_64
        u, ball, opts = cone_64, ((0.0, 0.0), 0.3), SolveOptions()
        if case == "neg_inf_sphere":
            win, _, ring = ball_region(mask, *ball)
            vals = cone_64.values.copy()
            vals[win][tuple(np.argwhere(ring)[0])] = NEG_INF
            u = ScalarField(grid=grid, values=vals, extended=True)
        elif case == "not_converged":
            opts = SolveOptions(max_iter=1)
        else:
            if case == "crosses_boundary":
                _, mask = face_layer_disk_64
            ball = ((0.8, 0.0), 0.3)
        with pytest.raises(PerronLiftRefused) as caught:
            perron_lift(u, mask, *ball, opts=opts)
        assert caught.value.field is u

    def test_lift_equals_one_ball_sweep(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions(tol=1e-7)
        center, radius = (0.2, 0.1), 0.2
        lifted = perron_lift(cone_64, mask, center, radius, opts=opts)
        cover = BallCover(level=3, radius=radius, centers=(center,))
        swept, trace = approximation_sweep(cone_64, mask, 3, opts=opts, cover=cover)
        assert trace.completed and len(trace.records) == 1
        assert np.array_equal(lifted.values, swept.values, equal_nan=True)

    def test_lift_repairs_interior_neg_inf(self, unit_disk_64):
        grid, mask = unit_disk_64
        vals = np.where(mask.region, 1.0, np.nan)
        center_cell = tuple(e // 2 for e in grid.extents)
        vals[center_cell] = NEG_INF
        u = ScalarField(grid=grid, values=vals, extended=True)
        lifted = perron_lift(u, mask, (0.0, 0.0), 0.2)
        assert np.isfinite(lifted.values[center_cell])


class TestSweep:
    def test_harmonic_field_unchanged(self, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions()
        u = solve_dirichlet(mask, f=None, phi=lambda p: 0.5 * p[:, 0], opts=opts).field
        swept, trace = approximation_sweep(u, mask, 3, opts=opts)
        assert trace.completed
        assert trace.sup_change <= 1e-5
        assert all(r.max_increase <= 1e-5 for r in trace.records)

    def test_cone_sweep_dominates_and_bounded(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        j = 3
        swept, trace = approximation_sweep(cone_64, mask, j, opts=SolveOptions(tol=1e-7))
        assert trace.completed
        assert (swept.values[mask.interior]
                >= cone_64.values[mask.interior] - 1e-9).all()
        strictly = (swept.values[mask.interior]
                    > cone_64.values[mask.interior] + 1e-6).sum()
        assert strictly * grid.cell_volume > 0.05
        # sequential lifting compounds at most one extra ball radius
        assert trace.sup_change <= 2 * 2.0 ** (-j) + 1e-6
        assert trace.monotone_within >= -1e-9

    def test_adjacent_levels_close(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions(tol=1e-7)
        j = 3
        s1, _ = approximation_sweep(cone_64, mask, j, opts=opts)
        s2, _ = approximation_sweep(cone_64, mask, j + 1, opts=opts)
        gap = np.nanmax(np.abs(s1.values[mask.interior] - s2.values[mask.interior]))
        assert gap <= 2.0 ** (-j + 1) + 1e-6

    def test_order_robustness(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions(tol=1e-7)
        j = 3
        cover = build_ball_cover(mask, j)
        rev = BallCover(level=j, radius=cover.radius,
                        centers=tuple(reversed(cover.centers)))
        a, _ = approximation_sweep(cone_64, mask, j, opts=opts, cover=cover)
        b, _ = approximation_sweep(cone_64, mask, j, opts=opts, cover=rev)
        gap = np.nanmax(np.abs(a.values[mask.interior] - b.values[mask.interior]))
        assert gap <= 2 * 2.0 ** (-j)


class TestRefusedLift:
    """A refused lift stops the sweep at its ball; the sweep keeps what the
    lifts before it did, so a caller can restart from there."""

    # the third ball reaches past the unit circle
    CENTERS = ((-0.25, 0.0), (0.0, 0.25), (0.95, 0.0), (0.25, 0.0))
    COVER = BallCover(level=3, radius=0.125, centers=CENTERS)

    def head(self, u, mask):
        """The sweep of the lifts before the refused one."""
        swept, trace = approximation_sweep(u, mask, 3, cover=replace(self.COVER,
                                                                       centers=self.CENTERS[:2]))
        assert trace.completed
        return swept

    def test_sweep_stops_and_keeps_the_partial_output(self, cone_64, unit_disk_64):
        _, mask = unit_disk_64
        with pytest.raises(ValueError, match="not compactly inside"):
            ball_region(mask, self.CENTERS[2], self.COVER.radius)
        swept, trace = approximation_sweep(cone_64, mask, 3, cover=self.COVER)
        assert not trace.completed
        assert [r.center for r in trace.records] == list(self.CENTERS[:2])
        assert np.array_equal(swept.values, self.head(cone_64, mask).values, equal_nan=True)
        assert (swept.values > cone_64.values + 1e-3).any()

    def test_sequence_raises_with_the_partial_field(self, cone_64, unit_disk_64):
        _, mask = unit_disk_64
        with mock.patch.object(perron, "build_ball_cover", return_value=self.COVER), \
                pytest.raises(PerronLiftRefused, match="level 3 aborted") as caught:
            smooth_subharmonic_sequence(cone_64, mask, [(3, 1 / 32)])
        assert np.array_equal(caught.value.field.values, self.head(cone_64, mask).values,
                              equal_nan=True)

    def test_a_ball_without_interior_cells_is_a_sizing_error(self, cone_64, unit_disk_64):
        # SizingError is a ValueError, which a lift otherwise turns into a refusal
        grid, mask = unit_disk_64
        center, radius = (1.02, 0.0), 0.01
        work = cone_64.values.copy()
        with pytest.raises(SizingError, match="no interior cells"):
            perron._lift_inplace(work, mask, center, radius, SolveOptions())
        assert np.array_equal(work, cone_64.values, equal_nan=True)
        cover = BallCover(level=3, radius=radius, centers=(center,))
        for call in (lambda: perron_lift(cone_64, mask, center, radius),
                     lambda: approximation_sweep(cone_64, mask, 3, cover=cover)):
            with pytest.raises(SizingError):
                call()


def cones(cone_64, unit_disk_64, interval_100):
    """The cone on the unit disk at 64 and |x| on [-1, 1] at 100, with masks."""
    grid, mask = interval_100
    return ((cone_64, unit_disk_64[1]),
            (sample_function(cone_formula, grid, mask), mask))


class TestCarriedLU:
    """Each ball solve of a sweep may start on the previous ball's LU."""

    def test_factorizations_are_counted(self, cone_64, unit_disk_64, interval_100):
        for u, mask in cones(cone_64, unit_disk_64, interval_100):
            with calls_to("_factorize") as calls:
                _, trace = approximation_sweep(u, mask, 3, opts=SolveOptions(tol=1e-7))
            assert trace.completed
            assert trace.factorizations == calls() < len(trace.records)
            assert min(r.factorizations for r in trace.records) == 0
            # some lift took Newton steps on the LU carried from the ball before
            assert any(r.iterations and not r.factorizations for r in trace.records)

    def test_residual_evaluations_are_counted(self, cone_64, unit_disk_64, interval_100):
        for u, mask in cones(cone_64, unit_disk_64, interval_100):
            with calls_to("_residual") as calls:
                _, trace = approximation_sweep(u, mask, 3, opts=SolveOptions(tol=1e-7))
            assert trace.completed
            assert trace.residual_evals == calls()
            # the first evaluation of each solve plus one per line-search trial
            assert all(r.residual_evals > r.iterations for r in trace.records)

    def test_sweep_matches_lift_by_lift(self, cone_64, unit_disk_64, interval_100):
        opts = SolveOptions(tol=1e-7)
        for u, mask in cones(cone_64, unit_disk_64, interval_100):
            cover = build_ball_cover(mask, 3)
            swept, trace = approximation_sweep(u, mask, 3, opts=opts, cover=cover)
            assert trace.completed and len(trace.records) == len(cover)
            lifted = u            # every ball factored fresh
            for center in cover.centers:
                lifted = perron_lift(lifted, mask, center, cover.radius, opts=opts)
            assert np.array_equal(np.isnan(swept.values), np.isnan(lifted.values))
            assert np.nanmax(np.abs(swept.values - lifted.values)) <= 1e-9

    def test_sweep_builds_one_plan_per_pattern(self, cone_64, unit_disk_64, interval_100):
        for u, mask in cones(cone_64, unit_disk_64, interval_100):
            cover = build_ball_cover(mask, 3)
            patterns = set()
            for center in cover.centers:
                _, unknown, ring = ball_region(mask, center, cover.radius)
                win = msolve._window(unknown, ring)
                patterns.add((unknown[win].shape, unknown[win].tobytes(), ring[win].tobytes()))
            with plan_builds() as built:
                _, trace = approximation_sweep(u, mask, 3, opts=SolveOptions(tol=1e-7),
                                               cover=cover)
            assert trace.completed
            assert built() == len(patterns) < len(cover)

    def test_threaded_sweeps_match_sequential(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions(tol=1e-7)
        y = grid.points()[..., 1]
        # three sweeps over one cover, one thread and one plan holder each
        fields = [cone_64.with_values(cone_64.values + a * np.sin(4 * y))
                  for a in (0.0, 0.05, -0.05)]
        full = build_ball_cover(mask, 3)
        cover = BallCover(level=3, radius=full.radius, centers=full.centers[:200])

        def sweep(u):
            return approximation_sweep(u, mask, 3, opts=opts, cover=cover)

        sequential = [sweep(u) for u in fields]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave the threads as often as possible
        try:
            with ThreadPoolExecutor(len(fields)) as pool:
                threaded = list(pool.map(sweep, fields, timeout=300))
        finally:
            sys.setswitchinterval(switch)
        for (one, one_trace), (other, other_trace) in zip(sequential, threaded):
            assert one_trace.completed and other_trace.completed
            # a hand-built cover's default count is recounted by the sweep
            assert cover.uncovered == 0 and one_trace.uncovered == other_trace.uncovered == 6785
            assert ([r.iterations for r in one_trace.records]
                    == [r.iterations for r in other_trace.records])
            assert np.nanmax(np.abs(one.values - other.values)) <= 1e-12


class TestPredictedStart:
    """A sweep's lift starts from the corrections of the lifts before it of
    its cell pattern; a single lift and ``solve_on_ball`` start from the
    field, as they did before the sweep predicted."""

    def test_sweep_predicts_and_repeats(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions(tol=1e-7)
        traces = [approximation_sweep(cone_64, mask, 3, opts=opts)[1] for _ in range(2)]
        counts = [[(r.predicted, r.iterations, r.factorizations, r.residual_evals)
                   for r in trace.records] for trace in traces]
        assert traces[0].completed and counts[0] == counts[1]
        assert not traces[0].records[0].predicted
        assert 0 < traces[0].predicted < len(traces[0].records)
        assert traces[0].predicted == sum(c[0] for c in counts[0])

    def test_single_lifts_start_from_the_field(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        opts = SolveOptions(tol=1e-7)
        center, radius = (0.2, 0.1), 0.2
        win, unknown, ring = ball_region(mask, center, radius)
        Vw = cone_64.values[win]
        # Newton from the field, on a plan holder of its own
        values, info = msolve._newton_arrays(grid.h, grid.n, unknown, ring, Vw,
                                             np.zeros(Vw.shape), opts, init_values=Vw)
        expect = cone_64.values.copy()
        expect[win][unknown] = np.maximum(values[unknown], Vw[unknown])
        # a sweep over translates of this ball keeps corrections of its pattern
        cover = BallCover(level=3, radius=radius,
                          centers=tuple((0.2 + k * grid.h, 0.1) for k in range(3)))
        for _ in range(2):
            lifted = perron_lift(cone_64, mask, center, radius, opts=opts)
            out = solve_on_ball(cone_64, mask, center, radius, opts=opts)
            assert np.array_equal(lifted.values, expect, equal_nan=True)
            assert np.array_equal(out.field.values[win], values, equal_nan=True)
            assert out.diagnostics == info and info["converged"]
            assert "predicted" not in info
            _, trace = approximation_sweep(cone_64, mask, 3, opts=opts, cover=cover)
            assert [r.predicted for r in trace.records] == [False, True, True]


class TestSmoothSequence:
    def test_affine_defect_zero(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: 0.2 * p[:, 0] - 0.1, grid, mask)
        terms = smooth_subharmonic_sequence(u, mask, [(3, 1 / 32)],
                                            opts=SolveOptions(tol=1e-9))
        assert terms[0].defect < 1e-6

    def test_cone_defects_decay(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 128)
        u = sample_function(cone_formula, grid, mask)
        terms = smooth_subharmonic_sequence(
            u, mask, [(2, 1 / 16), (3, 1 / 32), (4, 1 / 64)],
            opts=SolveOptions(tol=1e-7))
        defects = [t.defect for t in terms]
        assert defects[-1] <= defects[0] / 2
        # the tail can graze the 2h mollification floor; no step may grow
        # beyond that floor effect
        assert all(b <= a * 1.10 + 1e-9 for a, b in zip(defects, defects[1:]))
        for term in terms:
            have = term.field.defined & u.defined
            assert (term.field.values[have]
                    >= u.values[have] - term.eps - 1e-9).all()

    def test_direct_mollified_convex_defect_zero(self, cone_64):
        terms = direct_mollified_sequence(cone_64, [0.12, 0.06])
        assert all(t.defect <= 1e-10 for t in terms)

    def test_eps_validation(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        with pytest.raises(SizingError):
            smooth_subharmonic_sequence(cone_64, mask, [(3, grid.h)])
        with pytest.raises(SizingError):
            smooth_subharmonic_sequence(cone_64, mask, [(3, 0.2)])
