import math

import numpy as np
import pytest

from meancurv import ShapeSpec, SizingError, make_grid, sample_function
from meancurv import levelset
from meancurv.dirichlet import CurveSpec, MeasureSpec
from meancurv.levelset import (
    SetFamily,
    coarea_profile,
    decay_bound_check,
    decay_threshold,
    default_delta,
    eta_margin,
    harnack_report,
    level_set_report,
    sphere_values,
    truncated_bv_norm,
    weak_harnack_check,
)
from meancurv.msolve import solve_dirichlet

from conftest import cone_formula


@pytest.fixture(scope="module")
def disk12_64():
    return make_grid(ShapeSpec.disk((0.0, 0.0), 1.2), 64)


class TestLevelSetReport:
    def test_radial_cap(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: 1 - np.hypot(p[:, 0], p[:, 1]), grid, mask)
        st = level_set_report(u, mask, r=1.0, t=0.5)
        assert abs(st.volume - math.pi / 4) < 0.02 * math.pi / 4 + 2 * grid.h
        assert st.gamma_int == 0.0
        assert abs(st.gamma_bdy - math.pi) < 0.02 * math.pi
        assert st.delta == default_delta(2)

    def test_constant_full_ball(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: np.full(len(p), 2.0), grid, mask)
        st = level_set_report(u, mask, r=0.8, t=1.0)
        assert st.gamma_bdy == 0.0
        assert abs(st.gamma_int - 2 * math.pi * 0.8) < 0.02 * 2 * math.pi * 0.8
        assert abs(st.rho - st.gamma_int / 2) < 1e-12
        assert st.rho <= math.pi * 0.8 + 1e-9

    def test_half_disk(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: p[:, 0], grid, mask)
        st = level_set_report(u, mask, r=1.0, t=0.0)
        assert abs(st.volume - math.pi / 2) < 0.03 * math.pi / 2
        assert abs(st.gamma_bdy - 2.0) < 0.05 * 2.0
        assert abs(st.gamma_int - math.pi) < 0.02 * math.pi
        assert 0.0 <= st.steep_fraction <= 1.0

    @pytest.mark.parametrize("slope, steep", [(10.0, 1.0), (1.0, 0.0)])
    def test_1d_steep_fraction(self, interval_100, slope, steep):
        # the threshold is 2 / sqrt(delta) = 4 at the default delta 1/4
        grid, mask = interval_100
        u = sample_function(lambda p: slope * p[:, 0] + 0.005, grid, mask)
        st = level_set_report(u, mask, r=0.9, t=0.0)
        assert st.steep_fraction == steep
        assert not st.ambiguous

    def test_empty_level(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        st = level_set_report(u, mask, r=0.8, t=1.0)
        assert st.empty and st.volume == 0.0
        assert math.isnan(st.ratio_bdy_int)


class TestCoarea:
    def test_radial_profile(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: 1 - np.hypot(p[:, 0], p[:, 1]), grid, mask)
        tab = coarea_profile(u, mask, r=1.0, levels=np.linspace(0.1, 0.8, 13))
        assert tab.max_mismatch <= 0.03
        for row in tab.rows[1:-1]:
            expect_phi = math.pi * (1 - row.t) ** 2
            assert abs(row.volume - expect_phi) < 0.05 * expect_phi + 3 * grid.h ** 2

    def test_constant_no_interfaces(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: np.full(len(p), 1.5), grid, mask)
        tab = coarea_profile(u, mask, r=0.9, levels=[0.5, 1.0, 2.0])
        assert all(r.interface_integral == 0.0 for r in tab.rows)

    def test_slab_exact_linear(self):
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 50)
        u = sample_function(lambda p: p[:, 0], grid, mask)
        levels = np.arange(0.1, 0.95, 0.1)
        tab = coarea_profile(u, mask, r=None, levels=levels)
        for row in tab.rows[1:-1]:
            assert abs(row.dvolume_dt + 1.0) < 1e-9
            assert abs(row.interface_integral - 1.0) < 0.03

    def test_flat_level_flagged(self, disk12_64):
        # a plateau at the sampled level has |Du| ~ 0 on the interface
        grid, mask = disk12_64
        u = sample_function(
            lambda p: np.maximum(0.5, 1 - np.hypot(p[:, 0], p[:, 1])), grid, mask)
        tab = coarea_profile(u, mask, r=1.0, levels=[0.5])
        assert tab.rows[0].flagged

    def test_1d_integral_counts_level_crossings_only(self, interval_100):
        # u = x^2: {u = t} is the two points +-sqrt(t), each with |u'| = 2 sqrt(t);
        # the mask-wall crossings at the interval ends do not count
        grid, mask = interval_100
        u = sample_function(lambda p: p[:, 0] ** 2, grid, mask)
        tab = coarea_profile(u, mask, levels=[0.16, 0.25, 0.36, 0.49])
        for row in tab.rows:
            assert abs(row.interface_integral - 1 / math.sqrt(row.t)) <= 0.01 / math.sqrt(row.t)

    def test_phi_monotone(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: np.cos(2 * p[:, 0]) * np.cos(p[:, 1]),
                            grid, mask)
        tab = coarea_profile(u, mask, r=1.0)
        vols = [r.volume for r in tab.rows]
        assert all(b <= a + 1e-12 for a, b in zip(vols, vols[1:]))


class TestHarnack:
    def test_constant_ratio_one(self, disk12_64):
        grid, mask = disk12_64
        out = solve_dirichlet(mask, f=None, phi=lambda p: np.full(len(p), 2.0))
        rep = harnack_report(out.field, mask, r=1.0)
        assert abs(rep.ratio - 1.0) < 1e-9
        top = [m for t, m in rep.psi if t < 1.9]
        assert all(abs(m - 2 * math.pi) < 0.05 * 2 * math.pi for m in top)
        assert all(m == 0.0 for t, m in rep.psi if t > 2.05)

    def test_affine_exact_ratio(self, disk12_64):
        grid, mask = disk12_64
        out = solve_dirichlet(mask, f=None, phi=lambda p: 1 + p[:, 0] / 2)
        rep = harnack_report(out.field, mask, r=1.0)
        assert abs(rep.sup_half - 1.25) < 1e-9
        assert abs(rep.inf_half - 0.75) < 1e-9
        assert abs(rep.ratio - 5.0 / 3.0) < 1e-9

    def test_psi_monotone_nonincreasing(self, disk12_64):
        grid, mask = disk12_64
        out = solve_dirichlet(mask, f=None,
                              phi=lambda p: 1.2 + np.sin(2 * p[:, 0]))
        rep = harnack_report(out.field, mask, r=1.0)
        ms = [m for _, m in rep.psi]
        assert all(b <= a + 1e-9 for a, b in zip(ms, ms[1:]))

    def test_positivity_hypothesis_enforced(self, disk12_64):
        grid, mask = disk12_64
        out = solve_dirichlet(mask, f=None, phi=lambda p: p[:, 0])
        with pytest.raises(ValueError):
            harnack_report(out.field, mask, r=1.0)

    def test_sampled_provenance_refused(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: np.full(len(p), 1.0), grid, mask)
        with pytest.raises(ValueError):
            harnack_report(u, mask, r=1.0)

    @pytest.mark.parametrize("r", [0.0, math.nan])
    def test_radius_must_be_positive_and_finite(self, r):
        # at r = 0 on a cell centre the report read one cell and the weak
        # check divided by r^n
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        u = sample_function(lambda p: 2.0 + p[:, 0], grid, mask, provenance="solved")
        center = grid.cell_center((33, 33))
        for check in (lambda: harnack_report(u, mask, r, center=center),
                      lambda: weak_harnack_check(u, mask, 2.0, r, center=center)):
            with pytest.raises(ValueError, match="positive and finite"):
                check()

    @pytest.mark.parametrize("center, r", [((5.0, 5.0), 0.5), ((0.03, 0.0), 0.05)],
                             ids=["ball-off-the-domain", "half-ball-without-a-cell"])
    def test_empty_ball_or_half_ball_is_a_sizing_error(self, center, r):
        # a ball off the domain, or a half ball between cell centres, has no sup
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        u = sample_function(lambda p: 2.0 + p[:, 0], grid, mask, provenance="solved")
        for check in (lambda: harnack_report(u, mask, r, center=center),
                      lambda: weak_harnack_check(u, mask, 2.0, r, center=center)):
            with pytest.raises(SizingError, match="holds no defined interior cell"):
                check()

    def test_1d_sphere_is_the_two_end_points(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: 1.0 + 2.0 * p[:, 0], grid, mask)
        values, weight = sphere_values(u, 0.3, (0.1,))
        # linear interpolation is exact on an affine field
        assert values == pytest.approx([0.6, 1.8], abs=1e-12)
        assert weight == 1.0

    def test_array_center_is_the_tuple_center(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        u = sample_function(lambda p: 2.0 + p[:, 0] - 0.5 * p[:, 1] ** 2, grid, mask,
                            provenance="solved")
        tup, arr = (0.1, 0.0), np.array([0.1, 0.0])
        (vt, dt), (va, da) = sphere_values(u, 0.5, tup), sphere_values(u, 0.5, arr)
        assert np.array_equal(va, vt) and da == dt
        assert harnack_report(u, mask, 0.5, center=arr) == harnack_report(u, mask, 0.5,
                                                                          center=tup)
        assert (weak_harnack_check(u, mask, 2.0, 0.5, center=arr)
                == weak_harnack_check(u, mask, 2.0, 0.5, center=tup))

    def test_default_ball_is_about_the_domain_centre(self):
        # on [0, 1]^2 the ball is about (0.5, 0.5), not the corner (0, 0)
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 32)
        u = sample_function(lambda p: 2.0 + p[:, 0] - 0.5 * p[:, 1] ** 2, grid, mask,
                            provenance="solved")
        rep = harnack_report(u, mask, 0.4)
        assert rep.center == (0.5, 0.5)
        assert rep == harnack_report(u, mask, 0.4, center=(0.5, 0.5))
        assert weak_harnack_check(u, mask, 2.0, 0.4) == weak_harnack_check(
            u, mask, 2.0, 0.4, center=(0.5, 0.5))


class TestWeakHarnack:
    def test_constant(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.1), 64)
        u = sample_function(lambda p: np.ones(len(p)), grid, mask)
        res = weak_harnack_check(u, mask, p=2, r=1.0)
        assert abs(res.implied_constant - math.pi ** -0.5) < 0.01

    def test_cone(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.1), 64)
        u = sample_function(cone_formula, grid, mask)
        res = weak_harnack_check(u, mask, p=1, r=1.0)
        expect = 0.5 / (2 * math.pi / 3)
        assert abs(res.implied_constant - expect) < 0.01 * expect + 1e-3

    def test_scaling_family_reported_per_lambda(self):
        # no invariance law is asserted, only finiteness across the family
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.1), 64)
        u = sample_function(cone_formula, grid, mask)
        consts = []
        for lam in (0.5, 1.0, 2.0):
            res = weak_harnack_check(u.with_values(lam * u.values), mask, p=2, r=1.0)
            consts.append(res.implied_constant)
        assert all(np.isfinite(consts))

    def test_nonpositive_flagged(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.1), 64)
        u = sample_function(lambda p: np.full(len(p), -1.0), grid, mask)
        res = weak_harnack_check(u, mask, p=1, r=1.0)
        assert res.undefined


class TestEtaMargin:
    def test_zero_measure(self):
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 8)
        rep = eta_margin(None, mask, SetFamily(rectangles=True))
        assert rep.eta_star == 1.0

    def test_constant_density_unit_square(self):
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 8)
        dens = sample_function(lambda p: np.ones(len(p)), grid, mask)
        rep = eta_margin(dens, mask, SetFamily(rectangles=True))
        assert abs(rep.eta_star - 0.75) < 1e-12
        assert rep.worst.kind == "rectangle"

    def test_ring_measure_annulus_family(self):
        from meancurv.dirichlet import CurveSpec, MeasureSpec
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 64)
        nu = MeasureSpec(curves=(CurveSpec.circle((0, 0), 0.5, 1.0),))
        annuli = tuple(((0.0, 0.0), 0.5 - w, 0.5 + w) for w in (0.05, 0.1, 0.2))
        rep = eta_margin(nu, mask, SetFamily(rectangles=False, annuli=annuli))
        assert abs(rep.max_ratio - 0.5) < 0.03
        assert abs(rep.eta_star - 0.5) < 0.03

    def test_empty_superlevel_is_excluded_and_counted(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 32)
        u = sample_function(cone_formula, grid, mask)
        dens = sample_function(lambda p: np.ones(len(p)), grid, mask)
        top = float(np.nanmax(u.values[mask.interior]))
        reps = [eta_margin(dens, mask, SetFamily(rectangles=False, superlevel_field=u,
                                                 superlevel_thresholds=ts))
                for ts in ((0.3, 0.6), (0.3, top + 1.0, 0.6))]
        assert (reps[0].family_size, reps[0].excluded) == (2, 0)
        assert (reps[1].family_size, reps[1].excluded) == (2, 1)
        assert reps[1].max_ratio == reps[0].max_ratio and reps[1].worst == reps[0].worst

    def test_zero_perimeter_members_are_excluded_and_counted(self):
        # balls of radius 0 at the 16 lattice centres have perimeter 0
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 8)
        dens = sample_function(lambda p: np.ones(len(p)), grid, mask)
        base = eta_margin(dens, mask, SetFamily(rectangles=True))
        rep = eta_margin(dens, mask, SetFamily(rectangles=True, ball_radii=(0.0,),
                                               ball_stride=2))
        assert (rep.family_size, rep.excluded) == (base.family_size, 16)
        assert rep.worst == base.worst

    def test_family_growth_never_raises_eta(self):
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 12)
        dens = sample_function(lambda p: 1 + 0.5 * p[:, 0], grid, mask)
        small = eta_margin(dens, mask, SetFamily(rectangles=True, rect_stride=3))
        large = eta_margin(dens, mask, SetFamily(rectangles=True, rect_stride=1))
        assert large.eta_star <= small.eta_star + 1e-12


def _recorded_members(nu, mask, family):
    """Every member eta_margin scores, in order."""
    blocks = levelset._family_blocks(levelset._cell_masses(nu, mask), mask, family)
    members = (b.member(i) for b in blocks for i in range(len(b.nu)))
    return [m for m in members if m.perimeter > 0]


def _oracle_cells(member, mask, family, inside):
    """The cells of a member, by plain loops over the interior cells."""
    grid = mask.grid
    if member.kind == "rectangle":
        a, b, c, d = member.descriptor
        return {(i, j) for i in range(a, b + 1) for j in range(c, d + 1)}
    if member.kind == "interval":
        a, b = member.descriptor
        return {(i,) for i in range(a, b + 1)}
    if member.kind == "ball":
        center, r = member.descriptor
        return {c for c in inside if math.dist(grid.cell_center(c), center) < r}
    if member.kind == "annulus":
        center, r_in, r_out = member.descriptor
        return {c for c in inside
                if r_in < math.dist(grid.cell_center(c), center) < r_out}
    (t,) = member.descriptor
    vals = family.superlevel_field.values
    return {c for c in inside if np.isfinite(vals[c]) and vals[c] > t}


def _oracle_parts(nu, mask, inside):
    """Density times cell volume per interior cell, and (rounded cell, mass)
    of every arc sample (step h/2) and atom."""
    grid = mask.grid
    h = grid.h
    dens = {c: float(nu.density(np.array([grid.cell_center(c)]))[0]) * grid.cell_volume
            for c in inside}
    points = []
    for curve in nu.curves:
        npts = max(8, math.ceil(2 * math.pi * curve.radius / (h / 2)))
        for k in range(npts):
            ang = (k + 0.5) * 2 * math.pi / npts
            pt = (curve.center[0] + curve.radius * math.cos(ang),
                  curve.center[1] + curve.radius * math.sin(ang))
            cell = tuple(min(max(round((pt[d] - grid.origin[d]) / h), 0),
                             grid.extents[d] - 1) for d in range(2))
            points.append((cell, curve.lam * 2 * math.pi * curve.radius / npts))
    points += [((round((x0 - grid.origin[0]) / h),), m) for x0, m in nu.atoms]
    return dens, points


def _oracle_descriptors(mask, family):
    """The family's members (kind, descriptor) in enumeration order."""
    grid = mask.grid
    inter = mask.interior
    out = []
    if family.rectangles:
        idx = np.argwhere(inter)
        lo, hi = idx.min(axis=0), idx.max(axis=0)
        s = family.rect_stride
        if grid.n == 1:
            out += [("interval", (a, b)) for a in range(lo[0], hi[0] + 1, s)
                    for b in range(a, hi[0] + 1, s)]
        else:
            for a in range(lo[0], hi[0] + 1, s):
                for b in range(a, hi[0] + 1, s):
                    for c in range(lo[1], hi[1] + 1, s):
                        for d in range(c, hi[1] + 1, s):
                            if all(inter[i, j] for i in range(a, b + 1)
                                   for j in range(c, d + 1)):
                                out.append(("rectangle", (a, b, c, d)))
    for r in family.ball_radii:
        for i, j in np.ndindex(*grid.extents):
            center = grid.cell_center((i, j))
            sd = float(mask.shape.signed_distance(np.array([center]))[0])
            if (i % family.ball_stride == 0 and j % family.ball_stride == 0
                    and inter[i, j] and sd >= r):
                out.append(("ball", (center, r)))
    out += [("annulus", a) for a in family.annuli]
    if family.superlevel_field is not None:
        vals = family.superlevel_field.values
        out += [("superlevel", (float(t),)) for t in family.superlevel_thresholds
                if (inter & np.isfinite(vals) & (vals > t)).any()]
    return out


class TestEtaMarginSingularParts:
    """Member masses of measures with curve and atom parts, against plain loops."""

    def _check(self, nu, mask, family):
        made = _recorded_members(nu, mask, family)
        assert [(m.kind, m.descriptor) for m in made] == _oracle_descriptors(mask, family)
        inside = [c for c in np.ndindex(*mask.grid.extents) if mask.interior[c]]
        dens, points = _oracle_parts(nu, mask, inside)
        for m in made:
            cells = _oracle_cells(m, mask, family, inside)
            want = (sum(dens[c] for c in cells if c in dens)
                    + sum(w for c, w in points if c in cells))
            assert abs(m.nu - want) <= 1e-12 * abs(want), (m, want)
        rep = eta_margin(nu, mask, family)
        assert rep.family_size == len(made) and rep.worst == max(made, key=lambda m: m.ratio)
        return made

    def test_ring_plus_density_2d(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 24)
        nu = MeasureSpec(density=lambda p: 1 + p[:, 0] ** 2,
                         curves=(CurveSpec.circle((0.1, 0.0), 0.45, 0.7),
                                 CurveSpec.circle((-0.3, 0.2), 0.25, 1.3)))
        family = SetFamily(
            rectangles=True, rect_stride=3, ball_radii=(0.3, 0.5), ball_stride=5,
            annuli=(((0.1, 0.0), 0.35, 0.55), ((0.0, 0.0), 0.2, 0.7)),
            superlevel_field=sample_function(lambda p: -np.hypot(p[:, 0], p[:, 1]),
                                             grid, mask),
            superlevel_thresholds=(-0.8, -0.5, -0.2))
        made = self._check(nu, mask, family)
        assert {m.kind for m in made} == {"rectangle", "ball", "annulus", "superlevel"}

    def test_ring_plus_density_rectangle(self):
        # balls of radius 5.5 h touch the bottom side, so their windows are
        # cut by the grid's first row
        grid, mask = make_grid(ShapeSpec.rectangle(0.0, 1.0, 0.0, 0.75), 16)
        nu = MeasureSpec(density=lambda p: 1 + p[:, 0] * p[:, 1],
                         curves=(CurveSpec.circle((0.5, 0.375), 0.3, 0.9),))
        family = SetFamily(
            rectangles=True, rect_stride=3, ball_radii=(0.2, 5.5 / 16), ball_stride=2,
            annuli=(((0.5, 0.375), 0.1, 0.3),),
            superlevel_field=sample_function(lambda p: p[:, 0] * p[:, 1], grid, mask),
            superlevel_thresholds=(0.1, 0.3))
        made = self._check(nu, mask, family)
        balls = [m.descriptor for m in made if m.kind == "ball"]
        assert any(c[1] - r < grid.origin[1] + grid.h for c, r in balls)

    def test_atoms_1d(self):
        grid, mask = make_grid(ShapeSpec.interval(-1.0, 1.0), 24)
        # two atoms share a cell, one lies off the grid
        nu = MeasureSpec(density=lambda p: 0.5 + p[:, 0] ** 2,
                         atoms=((0.3, 0.2), (-0.55, 0.1), (0.3, 0.05), (5.0, 1.0)))
        made = self._check(nu, mask, SetFamily(rectangles=True,
                                                            rect_stride=2))
        assert made and all(m.kind == "interval" for m in made)


class TestDecayBound:
    def test_threshold_values(self):
        assert abs(decay_threshold(0.2) - 2.967) < 0.01
        assert abs(decay_threshold(1.0) - 3 ** -0.75) < 1e-10
        assert decay_threshold(2.0) == 0.0

    def test_refuses_nonpositive_eta(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        with pytest.raises(ValueError):
            decay_bound_check(u, mask, eta=0.0)

    def test_bounded_field_vanishes_and_dominated(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: -0.4 * (1 - np.hypot(p[:, 0], p[:, 1])),
                            grid, mask)
        rep = decay_bound_check(u, mask, eta=0.5)
        assert np.isfinite(rep.vanish_level)
        assert rep.vanish_level <= 0.45
        assert rep.dominated

    def test_plateau_past_the_threshold_is_not_dominated(self, disk12_64):
        # half the disk at depth 2 > T, half at 0.5 < T: the volume stays
        # at phi(T) past T, where the envelope with C > 0 falls below it
        grid, mask = disk12_64
        u = sample_function(lambda p: np.where(p[:, 0] < 0, -2.0, -0.5), grid, mask)
        T = decay_threshold(0.5)
        rep = decay_bound_check(u, mask, eta=0.5, levels=[0.25, 1.0, 1.5])
        assert 1.0 < T < 1.5 and rep.threshold_T == T
        assert rep.envelope_constant > 0 and not rep.dominated
        assert np.isfinite(rep.predicted_bound) and rep.predicted_bound > T

    @pytest.mark.parametrize("depth, predicted", [(-0.3, "T"), (2.0, math.inf)])
    def test_zero_envelope_constant(self, depth, predicted, disk12_64):
        # a flat field needs no envelope slope: the bound is T when nothing
        # lies below -T, and none when the sublevel volume at T is positive
        grid, mask = disk12_64
        u = sample_function(lambda p: np.full(len(p), -depth), grid, mask)
        rep = decay_bound_check(u, mask, eta=0.5, levels=[0.25, 1.0, 1.5])
        assert rep.envelope_constant == 0.0 and rep.dominated
        expect = rep.threshold_T if predicted == "T" else predicted
        assert rep.predicted_bound == expect


class TestTruncatedBV:
    def test_zero_field(self, disk12_64):
        grid, mask = disk12_64
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        assert truncated_bv_norm(u, 1.0, mask.interior) == 0.0

    def test_radial_truncation(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 128)
        u = sample_function(lambda p: -np.hypot(p[:, 0], p[:, 1]), grid, mask)
        pts = grid.points()
        window = mask.interior & (np.hypot(pts[..., 0], pts[..., 1]) < 1 - 2 * grid.h)
        tv = truncated_bv_norm(u, 0.5, window)
        assert abs(tv - math.pi / 4) <= 0.03 * math.pi / 4

    def test_1d(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: -np.abs(p[:, 0]), grid, mask)
        window = mask.interior.copy()
        tv = truncated_bv_norm(u, 0.5, window)
        assert abs(tv - 1.0) < 0.05
