import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meancurv import (
    DiscreteSet,
    NEG_INF,
    ScalarField,
    ShapeSpec,
    SizingError,
    UndefinedCellError,
    make_grid,
    mollify_field,
    sample_function,
    superlevel_set,
)
from meancurv.field import (
    CLIP,
    DomainMask,
    ISOPERIMETRIC_CONSTANT,
    LEVEL,
    TOL_ISO,
    WALL,
    _dist_to,
    cell_values,
    interface_segments,
    isoperimetric_floor,
    mollifier_kernel,
)
from meancurv.dirichlet import MeasureSpec
from meancurv.msolve import minimize_prescribed_mc, solve_dirichlet

from conftest import cone_formula


class TestMakeGrid:
    def test_unit_disk_interior_count(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 64)
        expect = math.pi / grid.h ** 2
        assert abs(mask.interior_count - expect) / expect < 0.02

    def test_interval_layout(self):
        grid, mask = make_grid(ShapeSpec.interval(-1, 1), 100)
        assert grid.extents == (201,)
        assert int(mask.boundary.sum()) == 2
        assert grid.axis_centers(0)[0] == -1.0
        assert grid.axis_centers(0)[-1] == 1.0

    def test_interval_of_fractional_length(self):
        # 10.3 cells: the last center lies beyond the right end, a boundary cell
        grid, mask = make_grid(ShapeSpec.interval(-0.3, 0.73), 10)
        assert grid.extents == (12,)
        assert mask.boundary[[0, -1]].all() and mask.interior[1:-1].all()
        # a solve used to meet an undefined cell beyond the last interior one
        out = solve_dirichlet(mask, phi=lambda p: 2 * p[:, 0])
        x = grid.axis_centers(0)[mask.interior]
        assert out.converged
        assert np.abs(out.field.values[mask.interior] - 2 * x).max() < 1e-8

    def test_interior_on_grid_edge_rejected(self):
        grid, mask = make_grid(ShapeSpec.interval(-1, 1), 8)
        interior = mask.interior.copy()
        interior[-1] = True
        boundary = mask.boundary & ~interior
        with pytest.raises(SizingError, match="grid edge"):
            DomainMask(grid=grid, shape=mask.shape, interior=interior,
                       boundary=boundary).validate()

    def test_rectangle_full_mask_perimeter(self):
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 32)
        s = DiscreteSet(grid=grid, member=mask.interior.copy(), mask=mask)
        assert abs(s.geometry().perimeter - 4.0) <= 2 * grid.h

    def test_degenerate_shape_rejected(self):
        with pytest.raises(SizingError):
            make_grid(ShapeSpec.disk((0, 0), 0.05), 16)
        with pytest.raises(SizingError):
            make_grid(ShapeSpec.disk((0, 0), 1.0), 4)

    def test_mask_invariants(self):
        for shape in (ShapeSpec.disk((0, 0), 1.0),
                      ShapeSpec.annulus((0, 0), 0.4, 1.0),
                      ShapeSpec.rectangle(0, 1.2, 0, 0.7)):
            grid, mask = make_grid(shape, 32)
            mask.validate()
            assert not (mask.interior & mask.boundary).any()
            # the discrete boundary hugs the true boundary to within one cell
            sd = shape.signed_distance(grid.points())
            assert np.abs(sd[mask.boundary]).max() <= grid.h * math.sqrt(2) + 1e-12


class TestSampleFunction:
    def test_zero(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        assert (u.values[mask.region] == 0).all()

    def test_cone_exact_at_centers(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(cone_formula, grid, mask)
        pts = grid.points()[mask.region]
        assert np.allclose(u.values[mask.region], np.hypot(pts[:, 0], pts[:, 1]),
                           rtol=0, atol=0)

    def test_nan_rejected_with_cell(self, unit_disk_64):
        grid, mask = unit_disk_64

        def bad(p):
            out = np.zeros(len(p))
            out[p[:, 0] > 0.9] = np.nan
            return out

        with pytest.raises(UndefinedCellError):
            sample_function(bad, grid, mask)

    def test_neg_inf_requires_extended(self, unit_disk_64):
        grid, mask = unit_disk_64

        def dip(p):
            out = np.zeros(len(p))
            out[np.hypot(p[:, 0], p[:, 1]) < 0.05] = NEG_INF
            return out

        with pytest.raises(UndefinedCellError):
            sample_function(dip, grid, mask)
        u = sample_function(dip, grid, mask, extended=True)
        assert u.neg_inf_fraction() > 0

    def test_uc_jump_across_unit_circle(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.5), 64)
        a = b = 2.0
        delta = sigma = 0.25
        c = 0.5

        def uc(p):
            r = np.hypot(p[:, 0], p[:, 1])
            out = np.where(r >= 1.0, a * np.maximum(r - 1, 0) ** delta,
                           -b * (1 - np.minimum(r, 1.0)) ** sigma - c)
            return out

        u = sample_function(uc, grid, mask)
        r = np.hypot(grid.points()[..., 0], grid.points()[..., 1])
        just_in = mask.interior & (r < 1.0) & (r > 1.0 - 2 * grid.h)
        just_out = mask.interior & (r >= 1.0) & (r < 1.0 + 2 * grid.h)
        assert u.values[just_in].max() < -c + 0.2
        assert u.values[just_out].min() > -0.2


class TestCellValues:
    """One data contract for every datum that reaches the grid: None (zero),
    a number, a field on the grid, or a callable of the needed cell centres
    returning one value per centre; NaN everywhere else."""

    def test_the_forms_agree(self, unit_disk_64):
        grid, mask = unit_disk_64
        want = np.where(mask.boundary, 0.5, np.nan)
        field = ScalarField(grid=grid, values=np.full(grid.shape, 0.5))
        for data in (0.5, field, lambda p: np.full(len(p), 0.5)):
            got = cell_values(data, grid, mask.boundary, "boundary cells of phi")
            assert np.array_equal(got, want, equal_nan=True)
        zero = cell_values(None, grid, mask.interior, "interior cells of f")
        assert np.array_equal(zero, np.where(mask.interior, 0.0, np.nan), equal_nan=True)

    def test_a_callable_sees_the_needed_centres_only(self, unit_disk_64):
        grid, mask = unit_disk_64
        seen = []

        def density(p):
            seen.append(p.copy())
            return np.ones(len(p))

        MeasureSpec(density=density).density_values(mask)
        sample_function(density, grid, mask)
        solve_dirichlet(mask, f=None, phi=density)
        wants = (mask.interior, mask.region, mask.boundary)
        assert [len(p) for p in seen] == [int(w.sum()) for w in wants]
        for p, where in zip(seen, wants):
            assert np.array_equal(p, grid.points()[where])

    def test_numbers_are_the_constant_callables(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)

        def const(v):
            return lambda p: np.full(len(p), v)

        runs = (lambda f, phi: solve_dirichlet(mask, f=f, phi=phi).field.values,
                lambda g, phi: minimize_prescribed_mc(mask, g=g, phi=phi).field.values,
                lambda f, phi: sample_function(phi, grid, mask).values,
                lambda f, phi: MeasureSpec(density=f).density_values(mask))
        for run in runs:
            assert np.array_equal(run(0.5, 0.2), run(const(0.5), const(0.2)),
                                  equal_nan=True)

    def test_a_scalar_returning_callable_is_one_value_error(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        half = lambda p: 0.5   # pass the number itself instead
        for call in (lambda: solve_dirichlet(mask, f=half),
                     lambda: solve_dirichlet(mask, phi=half),
                     lambda: minimize_prescribed_mc(mask, g=half),
                     lambda: minimize_prescribed_mc(mask, phi=half),
                     lambda: sample_function(half, grid, mask),
                     lambda: MeasureSpec(density=half).density_values(mask)):
            with pytest.raises(ValueError, match=r"one value per cell, got shape \(\)") as exc:
                call()
            assert type(exc.value) is ValueError

    @pytest.mark.parametrize("other", [((1.0, 2.0), 16), ((0.0, 1.0), 32)])
    def test_a_field_on_another_grid_is_one_value_error(self, other):
        # the unit square at 16; the square moved by one (a grid of the same
        # shape) and the unit square at 32 (a grid of another shape)
        grid, mask = make_grid(ShapeSpec.rectangle(0, 1, 0, 1), 16)
        (x0, x1), res = other
        o_grid, o_mask = make_grid(ShapeSpec.rectangle(x0, x1, 0, 1), res)
        phi = sample_function(lambda p: p[:, 0], o_grid, o_mask)
        assert (o_grid.shape == grid.shape) == (res == 16)
        for call in (lambda: cell_values(phi, grid, mask.boundary, "boundary cells of phi"),
                     lambda: solve_dirichlet(mask, phi=phi),
                     lambda: minimize_prescribed_mc(mask, phi=phi)):
            with pytest.raises(ValueError, match="boundary cells of phi is a field on "
                                                 "another grid") as exc:
                call()
            assert type(exc.value) is ValueError
        own = sample_function(lambda p: p[:, 0], grid, mask)
        assert cell_values(own, grid, mask.boundary, "boundary cells of phi")[mask.boundary] \
            == pytest.approx(grid.points()[mask.boundary][:, 0], abs=0)

    def test_undefined_values_name_the_datum_and_its_cells(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 16)
        holes = lambda p: np.where(p[:, 0] > 0.5, np.nan, 1.0)
        cases = ((lambda: solve_dirichlet(mask, f=holes), "interior cells of the forcing f",
                  mask.interior),
                 (lambda: solve_dirichlet(mask, phi=holes), "boundary cells of phi",
                  mask.boundary),
                 (lambda: minimize_prescribed_mc(mask, g=holes),
                  "interior cells of the load g", mask.interior),
                 (lambda: minimize_prescribed_mc(mask, phi=holes), "boundary cells of phi",
                  mask.boundary),
                 (lambda: sample_function(holes, grid, mask),
                  "domain cells of the sampled function", mask.region),
                 (lambda: MeasureSpec(density=holes).density_values(mask),
                  "interior cells of the density", mask.interior))
        for call, what, where in cases:
            with pytest.raises(UndefinedCellError, match=f"NaN at {what}") as exc:
                call()
            assert exc.value.cells
            assert all(where[c] and grid.cell_center(c)[0] > 0.5 for c in exc.value.cells)


class TestMollify:
    def test_kernel_sums_to_one(self):
        for n in (1, 2):
            w = mollifier_kernel(n, 1 / 64, 0.1)
            assert abs(w.sum() - 1.0) < 1e-13

    def test_constant_preserved(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: np.full(len(p), 2.5), grid, mask)
        out = mollify_field(u, 0.1)
        have = out.defined
        assert have.any()
        assert np.abs(out.values[have] - 2.5).max() < 1e-10

    def test_1d_cone_exact_away_from_kink(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: np.abs(p[:, 0]), grid, mask)
        eps = 0.1
        out = mollify_field(u, eps)
        x = grid.axis_centers(0)
        far = out.defined & (np.abs(x) > 2 * eps)
        assert np.abs(out.values[far] - np.abs(x[far])).max() < 1e-12
        low = out.defined
        assert (out.values[low] >= np.abs(x[low]) - 1e-12).all()

    def test_sandwich(self, cone_64):
        out = mollify_field(cone_64, 0.08)
        have = out.defined
        assert out.values[have].min() >= cone_64.values[have].min() - 0.08
        assert out.values[have].max() <= np.nanmax(cone_64.values) + 1e-12

    def test_under_resolved_rejected(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        with pytest.raises(SizingError):
            mollify_field(u, grid.h)

    def test_region_shrinks(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        out = mollify_field(cone_64, 0.1)
        assert int(out.defined.sum()) < int(cone_64.defined.sum())
        assert out.provenance == "mollified"


class TestSuperlevelSet:
    def test_radial_disk(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        u = cone_64.with_values(1.0 - cone_64.values)
        s = superlevel_set(u, mask, 0.5, r=1.0)
        assert abs(s.volume - math.pi / 4) < 0.02 * math.pi / 4 + 2 * grid.h

    def test_above_max_empty(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        s = superlevel_set(cone_64, mask, 10.0, r=0.9)
        assert s.is_empty() and s.volume == 0.0

    def test_full_clipped_ball(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: np.zeros(len(p)), grid, mask)
        s = superlevel_set(u, mask, -1.0, r=0.7)
        geo = s.geometry()
        assert geo.gamma_bdy == 0.0
        assert abs(geo.gamma_int - 2 * math.pi * 0.7) < 0.02 * 2 * math.pi * 0.7

    def test_default_clip_centre_of_a_rectangle_is_its_middle(self):
        shape = ShapeSpec.from_json({"kind": "rectangle", "bounds": [[0.0, 1.0], [0.0, 0.5]]})
        assert shape == ShapeSpec.rectangle(0.0, 1.0, 0.0, 0.5)
        grid, mask = make_grid(shape, 16)
        u = sample_function(lambda p: p[:, 0], grid, mask)
        s = superlevel_set(u, mask, 0.2, r=0.3)
        assert s.clip == ((0.5, 0.25), 0.3)
        dist = _dist_to(grid.points(), (0.5, 0.25))
        assert np.array_equal(s.member, mask.interior & (u.values > 0.2) & (dist < 0.3))

    def test_monotone_nesting(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        u = cone_64.with_values(1.0 - cone_64.values)
        outer = superlevel_set(u, mask, 0.3, r=0.9)
        inner = superlevel_set(u, mask, 0.5, r=0.7)
        assert outer.contains(inner)

    @pytest.mark.parametrize("shape,centers", [
        (ShapeSpec.interval(-1.0, 1.0), [(-1.05,), (0.98,), (1.6,), (0.0,)]),
        (ShapeSpec.rectangle(0.0, 1.0, 0.0, 0.75),
         [(0.98, 0.02), (1.3, 0.4), (-2.0, -2.0), (0.5, 0.8), (0.5, 0.4)]),
    ], ids=["1d", "2d"])
    def test_clip_window_is_the_full_grid_test(self, shape, centers):
        # the clip ball is tested on its window only; near and beyond the grid
        # edge, for empty balls and for balls larger than the domain, the
        # members are those of the distance test over the whole grid
        grid, mask = make_grid(shape, 16)
        u = sample_function(lambda p: np.cos(3 * p[:, 0]), grid, mask)
        for center in centers:
            dist = _dist_to(grid.points(), center)
            for r in (-0.1, 0.0, 1e-3, 0.05, 0.3, 5.0, math.inf):
                for t in (-2.0, 0.5):
                    s = superlevel_set(u, mask, t, r=r, center=center)
                    want = mask.interior & (u.values > t) & (dist < r)
                    assert np.array_equal(s.member, want), (center, r, t)


class TestSetGeometry:
    def test_circle_perimeter_2pct(self):
        grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), 128)
        u = sample_function(lambda p: 1 - np.hypot(p[:, 0], p[:, 1]), grid, mask)
        s = superlevel_set(u, mask, 0.5, r=1.0)
        assert abs(s.geometry().perimeter - math.pi) < 0.02 * math.pi

    def test_perimeter_first_order_convergence(self):
        errs = []
        for res in (32, 64, 128):
            grid, mask = make_grid(ShapeSpec.disk((0, 0), 1.0), res)
            u = sample_function(lambda p: 1 - np.hypot(p[:, 0], p[:, 1]), grid, mask)
            s = superlevel_set(u, mask, 0.5, r=1.0)
            errs.append(abs(s.geometry().perimeter - math.pi))
        assert errs[1] <= errs[0] / 2 + 1e-4
        assert errs[2] <= errs[1] / 2 + 1e-4

    def test_single_cell_diamond(self, unit_disk_64):
        grid, mask = unit_disk_64
        member = np.zeros(grid.shape, bool)
        center = tuple(e // 2 for e in grid.extents)
        member[center] = True
        s = DiscreteSet(grid=grid, member=member, mask=mask)
        assert abs(s.geometry().perimeter - 2 * math.sqrt(2) * grid.h) < 1e-12

    def test_isoperimetric_floor_on_smooth_sets(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: 1 - np.hypot(p[:, 0], p[:, 1]), grid, mask)
        for t in (0.2, 0.4, 0.6):
            s = superlevel_set(u, mask, t, r=1.0)
            assert s.geometry().perimeter >= isoperimetric_floor(s) * (1 - TOL_ISO)

    def test_1d_geometry(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: 1 - np.abs(p[:, 0]), grid, mask)
        s = superlevel_set(u, mask, 0.5, r=0.9)
        geo = s.geometry()
        assert geo.perimeter == 2.0
        assert abs(geo.volume - 1.0) <= 2 * grid.h


class TestSerialization:
    def test_round_trip_with_specials(self, unit_disk_64):
        grid, mask = unit_disk_64
        vals = np.full(grid.shape, np.nan)
        vals[mask.region] = 1.5
        idx = tuple(np.argwhere(mask.interior)[0])
        vals[idx] = NEG_INF
        u = ScalarField(grid=grid, values=vals, provenance="sampled", extended=True)
        blob = json.dumps(u.to_json())
        v = ScalarField.from_json(json.loads(blob))
        assert v.grid == u.grid
        assert np.isneginf(v.values[idx])
        both = ~np.isnan(u.values)
        assert np.array_equal(v.values[both], u.values[both])
        assert json.loads(blob)["values"].count("-inf") == 1

    @staticmethod
    def loop_save(u, path):
        """The former ``save``: a per-cell loop, then ``json.dump``."""
        flat = []
        for v in u.values.ravel(order="C"):
            if np.isnan(v):
                flat.append(None)
            elif np.isneginf(v):
                flat.append("-inf")
            else:
                flat.append(float(v))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"grid": u.grid.to_json(), "provenance": u.provenance,
                       "extended": u.extended, "values": flat}, fh)
            fh.write("\n")

    @pytest.mark.parametrize("res", [16, 160])     # one chunk of values, and several
    def test_save_bytes_equal_the_loop(self, res, tmp_path):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), res)
        rng = np.random.default_rng(res)
        vals = np.where(mask.region, rng.standard_normal(grid.shape) * 1e3, np.nan)
        vals[mask.interior & (rng.random(grid.shape) < 0.05)] = NEG_INF
        u = ScalarField(grid=grid, values=vals, provenance="solved", extended=True)
        self.loop_save(u, tmp_path / "loop.json")
        u.save(tmp_path / "save.json")
        assert (tmp_path / "save.json").read_bytes() == (tmp_path / "loop.json").read_bytes()
        back = ScalarField.load(tmp_path / "save.json")
        assert (back.grid, back.provenance, back.extended) == (grid, "solved", True)
        assert np.array_equal(back.values, vals, equal_nan=True)
        assert back.to_json() == u.to_json()
        # +inf is no legal field value, but a field written over still saves as before
        u.values[tuple(np.argwhere(mask.boundary)[0])] = np.inf
        self.loop_save(u, tmp_path / "loop.json")
        u.save(tmp_path / "save.json")
        assert (tmp_path / "save.json").read_bytes() == (tmp_path / "loop.json").read_bytes()


# ---------------------------------------------------------------------------
# reference: the per-square loop the vectorized kernel replaced


_REF_CASES = {
    0: [], 15: [],
    1: [(3, 0)], 2: [(0, 1)], 4: [(1, 2)], 8: [(2, 3)],
    3: [(3, 1)], 6: [(0, 2)], 12: [(3, 1)], 9: [(0, 2)],
    7: [(3, 2)], 11: [(1, 2)], 13: [(0, 1)], 14: [(3, 0)],
}


def _ref_sources(s):
    pad = lambda arr: np.pad(arr, 1, constant_values=np.nan)
    s_level = s_clip = None
    if s.level_source is not None:
        vals, t = s.level_source
        s_level = pad(vals - t)
    if s.clip is not None:
        center, r = s.clip
        pts = s.grid.points()
        if s.grid.n == 1:
            dist = np.abs(pts[..., 0] - center[0])
        else:
            dist = np.hypot(pts[..., 0] - center[0], pts[..., 1] - center[1])
        s_clip = pad(r - dist)
    return s_level, s_clip


def _ref_crossing(s_level, s_clip, a, b):
    best = None
    for src, kind in ((s_level, "level"), (s_clip, "clip")):
        if src is None:
            continue
        sa, sb = src[a], src[b]
        if np.isfinite(sa) and np.isfinite(sb) and sa > 0.0 and sb <= 0.0:
            theta = sa / (sa - sb)
            if best is None or theta < best[0]:
                best = (float(theta), kind)
    return best if best is not None else (0.5, "wall")


def _ref_kind(s, mid, k1, k2):
    if s.clip is not None:
        center, r = s.clip
        dist = (abs(mid[0] - center[0]) if s.grid.n == 1
                else np.hypot(mid[0] - center[0], mid[1] - center[1]))
        if abs(dist - r) <= s.grid.h:
            return "clip"
    return "wall" if k1 == "wall" and k2 == "wall" else "level"


def reference_segments(s):
    """(p1, p2, kind) triples from the scalar per-square / per-edge loop."""
    grid, h = s.grid, s.grid.h
    m = np.pad(s.member, 1, constant_values=False)
    s_level, s_clip = _ref_sources(s)
    c = lambda idx: np.array([grid.origin[k] + (idx[k] - 1) * h for k in range(grid.n)])
    out = []
    if grid.n == 1:
        for i in range(m.size - 1):
            if m[i] == m[i + 1]:
                continue
            if m[i]:
                theta, kind = _ref_crossing(s_level, s_clip, (i,), (i + 1,))
                x = c((i,)) + theta * h
            else:
                theta, kind = _ref_crossing(s_level, s_clip, (i + 1,), (i,))
                x = c((i + 1,)) - theta * h
            out.append((x, x, _ref_kind(s, 0.5 * (x + x), kind, kind)))
        return out

    def crossing(a, b):
        if not m[a]:
            a, b = b, a
        theta, kind = _ref_crossing(s_level, s_clip, a, b)
        return c(a) + theta * (c(b) - c(a)), kind

    mixed = (m[:-1, :-1] | m[1:, :-1] | m[1:, 1:] | m[:-1, 1:]) & \
        ~(m[:-1, :-1] & m[1:, :-1] & m[1:, 1:] & m[:-1, 1:])
    for i, j in np.argwhere(mixed):
        corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
        bits = sum(1 << k for k, cc in enumerate(corners) if m[cc])
        edges = {0: (corners[0], corners[1]), 1: (corners[1], corners[2]),
                 2: (corners[3], corners[2]), 3: (corners[0], corners[3])}
        if bits in (5, 10):
            vals = [s_level[cc] if s_level is not None and np.isfinite(s_level[cc])
                    else (1.0 if m[cc] else -1.0) for cc in corners]
            center_in = sum(vals) / 4.0 > 0
            if (bits == 5) == center_in:
                pairs = [(0, 1), (2, 3)]
            else:
                pairs = [(3, 0), (1, 2)]
        else:
            pairs = _REF_CASES[bits]
        for e1, e2 in pairs:
            p1, k1 = crossing(*edges[e1])
            p2, k2 = crossing(*edges[e2])
            if np.hypot(*(p2 - p1)) == 0.0:
                continue
            out.append((p1, p2, _ref_kind(s, 0.5 * (p1 + p2), k1, k2)))
    return out


def reference_level_attained(s):
    """A member and a non-member share a face and the non-member carries
    exactly the level value: a critical level."""
    if s.level_source is None:
        return False
    vals, t = s.level_source
    m = s.member
    for cell in zip(*np.nonzero(m)):
        for axis in range(m.ndim):
            for step in (-1, 1):
                nb = list(cell)
                nb[axis] += step
                nb = tuple(nb)
                if 0 <= nb[axis] < m.shape[axis] and not m[nb] and vals[nb] == t:
                    return True
    return False


_KIND_CODE = {"level": LEVEL, "clip": CLIP, "wall": WALL}


def assert_matches_reference(s):
    segs = interface_segments(s)
    ref = reference_segments(s)
    n = s.grid.n
    assert len(segs) == len(ref)
    assert np.array_equal(segs.p1, np.array([p for p, _, _ in ref]).reshape(-1, n))
    assert np.array_equal(segs.p2, np.array([p for _, p, _ in ref]).reshape(-1, n))
    assert np.array_equal(segs.kind, np.array([_KIND_CODE[k] for _, _, k in ref], int))
    assert segs.level_attained == reference_level_attained(s)
    lengths = [1.0 if n == 1 else float(np.hypot(*(p2 - p1))) for p1, p2, _ in ref]
    expect = {
        "perimeter": sum(lengths),
        "gamma_int": sum(x for x, (_, _, k) in zip(lengths, ref) if k == "clip"),
        "wall_length": sum(x for x, (_, _, k) in zip(lengths, ref) if k == "wall"),
    }
    expect["gamma_bdy"] = expect["perimeter"] - expect["gamma_int"]
    geo = s.geometry()
    for name, value in expect.items():
        assert getattr(geo, name) == pytest.approx(value, rel=1e-12, abs=1e-15), name
    assert geo.segment_count == len(ref)
    return segs


def _saddle_set(grid, mask, diagonal, off_value):
    """Superlevel set at t = 0 whose one mixed square has two diagonal members."""
    i, j = (e // 2 for e in grid.extents)
    vals = np.where(mask.region, -1.0, np.nan)
    corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
    for k, cell in enumerate(corners):
        vals[cell] = 1.0 if k in diagonal else off_value
    u = ScalarField(grid=grid, values=vals)
    return superlevel_set(u, mask, 0.0), corners


_SMALL_DISK = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 10)
_ORACLE_GRIDS = {1: [make_grid(ShapeSpec.interval(-1.0, 1.0), 8)],
                 2: [_SMALL_DISK, make_grid(ShapeSpec.rectangle(0.0, 1.0, 0.0, 0.75), 8)]}


@st.composite
def drawn_sets(draw):
    """Small 1d and 2d sets: superlevel sets, at a drawn level or at one a
    cell attains, of fields with NaN holes and, on extended fields, -inf
    cells; or indicator sets with no level source.  Either kind may carry a
    clip ball whose centre lies up to half a unit beyond the grid."""
    grid, mask = draw(st.sampled_from(_ORACLE_GRIDS[draw(st.sampled_from((1, 2)))]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    vals = np.where(mask.region, rng.normal(size=grid.shape), np.nan)
    vals[rng.random(grid.shape) < draw(st.sampled_from((0.0, 0.1, 0.3)))] = np.nan
    extended = draw(st.booleans())
    if extended:
        vals[mask.region & (rng.random(grid.shape) < 0.15)] = NEG_INF
    clip = None
    if draw(st.booleans()):
        lo = np.asarray(grid.origin)
        hi = lo + (np.asarray(grid.extents) - 1) * grid.h
        center = tuple(draw(st.floats(float(a) - 0.5, float(b) + 0.5)) for a, b in zip(lo, hi))
        clip = (center, draw(st.floats(0.05, 1.5)))
    if draw(st.booleans()):
        u = ScalarField(grid=grid, values=vals, extended=extended)
        attained = vals[np.isfinite(vals)]
        if attained.size and draw(st.booleans()):
            t = float(attained[draw(st.integers(0, attained.size - 1))])
        else:
            t = draw(st.floats(-1.0, 1.0))
        if clip is None:
            return superlevel_set(u, mask, t)
        return superlevel_set(u, mask, t, r=clip[1], center=clip[0])
    member = mask.interior & (rng.random(grid.shape) < 0.6)
    return DiscreteSet(grid=grid, member=member, mask=mask, clip=clip)


class TestInterfaceKernel:
    @pytest.mark.parametrize("diagonal", [(0, 2), (1, 3)])
    @pytest.mark.parametrize("off_value,center_in", [(-0.2, True), (-3.0, False)])
    def test_saddles(self, unit_disk_64, diagonal, off_value, center_in):
        grid, mask = unit_disk_64
        s, corners = _saddle_set(grid, mask, diagonal, off_value)
        segs = assert_matches_reference(s)
        # each of the square's two segments cuts off one corner: the two
        # non-members when the center is in (a band joins the members), else
        # the two members
        xy = np.array([grid.cell_center(c) for c in corners])
        mid = segs.midpoint
        inner = np.abs(mid - xy.mean(axis=0)).max(axis=1) < grid.h / 2
        assert inner.sum() == 2
        cut = np.linalg.norm(mid[inner][:, None, :] - xy, axis=2).argmin(axis=1)
        assert np.isin(cut, diagonal).tolist() == [not center_in] * 2

    def test_wall_only_indicator(self, unit_disk_64):
        grid, mask = unit_disk_64
        s = DiscreteSet(grid=grid, member=mask.interior.copy(), mask=mask)
        segs = assert_matches_reference(s)
        assert (segs.kind == WALL).all()
        assert s.geometry().wall_length == s.geometry().perimeter

    def test_level_set_touching_the_wall(self, unit_disk_64):
        grid, mask = unit_disk_64
        u = sample_function(lambda p: p[:, 0], grid, mask)
        segs = assert_matches_reference(superlevel_set(u, mask, 0.3))
        assert {LEVEL, WALL} <= set(segs.kind.tolist())

    def test_clip_tagged(self, cone_64, unit_disk_64):
        grid, mask = unit_disk_64
        u = cone_64.with_values(1.0 - cone_64.values)
        for t, r, center in ((0.2, 0.5, (0.3, -0.2)), (0.6, 0.5, (0.3, -0.2))):
            segs = assert_matches_reference(superlevel_set(u, mask, t, r=r, center=center))
            assert {LEVEL, CLIP} <= set(segs.kind.tolist())

    def test_1d(self, interval_100):
        grid, mask = interval_100
        u = sample_function(lambda p: np.cos(9 * p[:, 0]), grid, mask)
        for t, r in [(t, None) for t in np.linspace(-0.9, 0.9, 7)] + [(-0.5, 0.9), (0.5, 0.3)]:
            segs = assert_matches_reference(superlevel_set(u, mask, float(t), r=r))
            assert segs.p1.shape == (len(segs), 1)
            assert np.array_equal(segs.p1, segs.p2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), level=st.booleans(), clip=st.booleans())
    def test_random_masks(self, seed, level, clip):
        grid, mask = _SMALL_DISK
        rng = np.random.default_rng(seed)
        member = mask.interior & (rng.random(grid.shape) < 0.6)
        # level values agree with membership on most cells, so level, clip
        # and wall crossings and both saddle resolutions all occur
        vals = np.abs(rng.normal(size=grid.shape)) * np.where(member, 1.0, -1.0)
        vals[rng.random(grid.shape) < 0.2] *= -1.0
        vals[rng.random(grid.shape) < 0.1] = np.nan
        s = DiscreteSet(grid=grid, member=member, mask=mask,
                        level_source=(vals, 0.0) if level else None,
                        clip=((0.1, -0.2), 0.7) if clip else None)
        segs = assert_matches_reference(s)
        geo = s.geometry()
        assert geo.perimeter == segs.length.sum()
        assert geo.segment_count == len(segs)

    @pytest.mark.parametrize("seed", range(4))
    def test_members_on_the_grid_edge(self, seed):
        # members on the outermost cells put square corners off the grid,
        # where the level and clip values are undefined
        grid, mask = _ORACLE_GRIDS[2][1]
        rng = np.random.default_rng(seed)
        member = rng.random(grid.shape) < 0.7
        member[0] = member[:, -1] = True
        vals = np.abs(rng.normal(size=grid.shape)) * np.where(member, 1.0, -1.0)
        vals[rng.random(grid.shape) < 0.2] *= -1.0
        s = DiscreteSet(grid=grid, member=member, mask=mask, level_source=(vals, 0.0),
                        clip=((0.5, 0.4), 0.45))
        segs = assert_matches_reference(s)
        assert {LEVEL, CLIP, WALL} <= set(segs.kind.tolist())

    @settings(max_examples=150, deadline=None)
    @given(s=drawn_sets())
    def test_drawn_sets_match_the_loop(self, s):
        assert_matches_reference(s)
        assert s.segments() is s.segments()
