"""Acceptance suite: every criterion is one test with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; ``-s`` additionally streams the measured numbers.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from meancurv import ScalarField, ShapeSpec, make_grid, sample_function
from meancurv.cli import _resample
from meancurv.mco import (
    CircleInterface,
    RectInterface,
    boundary_flux,
    enclosed_density_sum,
    gradient_bound_report,
)
from meancurv.msolve import SolveOptions, solve_dirichlet
from meancurv.perron import (
    direct_mollified_sequence,
    perron_lift,
    smooth_subharmonic_sequence,
)
from meancurv.measure import (
    BallFamily,
    ball_measure_table,
    generate_ball_family,
    interface_singular_mass,
    weak_convergence_check,
)
from meancurv.levelset import (
    SetFamily,
    decay_bound_check,
    decay_threshold,
    eta_margin,
    harnack_report,
    truncated_bv_norm,
)
from meancurv.dirichlet import (
    ContinuationSchedule,
    CurveSpec,
    MeasureSpec,
    solve_measure_dirichlet,
)

from conftest import cone_formula, hemisphere_formula


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def uc_formula(c: float):
    a = b = 2.0
    delta = sigma = 0.25

    def uc(p):
        r = np.hypot(p[:, 0], p[:, 1])
        return np.where(r >= 1.0, a * np.maximum(r - 1, 0) ** delta,
                        -b * (1 - np.minimum(r, 1.0)) ** sigma - c)

    return uc


# -- shared heavy fixtures ---------------------------------------------------


@pytest.fixture(scope="module")
def cone_sequences_256():
    """Mollified and sweep-route approximating sequences of the 2d cone."""
    t0 = time.time()
    grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 256)
    cone = sample_function(cone_formula, grid, mask)
    seq_moll = direct_mollified_sequence(cone, [0.12, 0.06, 0.03])
    seq_sweep = smooth_subharmonic_sequence(
        cone, mask, [(3, 1 / 32), (4, 1 / 64), (5, 1 / 128)],
        opts=SolveOptions(tol=1e-7))
    return {"grid": grid, "mask": mask, "cone": cone, "moll": seq_moll,
            "sweep": seq_sweep, "build_seconds": time.time() - t0}


@pytest.fixture(scope="module")
def ring_pipeline_64():
    """Ring-measure Dirichlet run shared by criteria 7 and 9."""
    t0 = time.time()
    grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 64)
    nu = MeasureSpec(curves=(CurveSpec.circle((0.0, 0.0), 0.5, 0.5),))
    balls = BallFamily(balls=tuple(((0.0, 0.0), r) for r in (0.3, 0.6, 0.9)),
                       gap=0.0, seed=0)
    result = solve_measure_dirichlet(mask, nu, phi=0.0, validate_balls=balls)
    return {"grid": grid, "mask": mask, "nu": nu, "result": result,
            "build_seconds": time.time() - t0}


@pytest.fixture(scope="module")
def uc_sequences_128():
    """Mollified sequences of the jump example u_c and its continuous twin."""
    grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.5), 128)
    eps = [0.12, 0.08, 0.05, 0.03]
    u_c = sample_function(uc_formula(0.5), grid, mask)
    u_0 = sample_function(uc_formula(0.0), grid, mask)
    return {"grid": grid, "mask": mask, "u_c": u_c, "u_0": u_0,
            "seq_c": direct_mollified_sequence(u_c, eps),
            "seq_0": direct_mollified_sequence(u_0, eps)}


# -- criteria ----------------------------------------------------------------


def test_acceptance_01_solver_regression():
    cases = {
        "hemisphere": {
            "shape": ShapeSpec.disk((0.0, 0.0), 2.0),
            "f": lambda p: np.full(len(p), 2.0 / 4.0),
            "exact": hemisphere_formula(4.0),
        },
        "scherk": {
            "shape": ShapeSpec.rectangle(-0.6, 0.6, -0.6, 0.6),
            "f": None,
            "exact": lambda p: np.log(np.cos(p[:, 0]) / np.cos(p[:, 1])),
        },
    }
    details = []
    ok = True
    for name, case in cases.items():
        errs = []
        prev_field = None
        for res in (32, 64, 128):
            grid, mask = make_grid(case["shape"], res)
            init = None
            if prev_field is not None:
                init = ScalarField(grid=grid, values=_resample(prev_field, grid, mask))
            t0 = time.time()
            out = solve_dirichlet(mask, f=case["f"], phi=case["exact"], init=init)
            seconds = time.time() - t0
            ok &= out.converged and seconds < 30.0
            ex = sample_function(case["exact"], grid, mask)
            errs.append(float(np.nanmax(np.abs(
                out.field.values[mask.interior] - ex.values[mask.interior]))))
            prev_field = out.field
        ratios = [errs[k] / errs[k + 1] for k in range(2)]
        ok &= all(r >= 3.0 for r in ratios)
        details.append(f"{name} errs={['%.2e' % e for e in errs]} "
                       f"ratios={['%.2f' % r for r in ratios]} last={seconds:.1f}s")
    report(1, ok, "; ".join(details))


def test_acceptance_02_discrete_divergence_theorem():
    grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 64)
    rng = np.random.default_rng(2024)
    fields = []
    for _ in range(20):
        a = rng.uniform(-0.4, 0.4, size=3)
        w = rng.uniform(0.5, 4.0, size=(3, 2))
        ph = rng.uniform(0, 2 * np.pi, size=3)
        fields.append(sample_function(
            lambda p, a=a, w=w, ph=ph: sum(
                a[k] * np.sin((p * w[k]).sum(axis=1) + ph[k]) for k in range(3)),
            grid, mask))
    interfaces = []
    for k in range(20):
        if k % 2 == 0:
            interfaces.append(CircleInterface(
                (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)),
                rng.uniform(0.15, 0.6)))
        else:
            interfaces.append(RectInterface(
                rng.uniform(-0.6, -0.05), rng.uniform(0.05, 0.6),
                rng.uniform(-0.6, -0.05), rng.uniform(0.05, 0.6)))
    worst = 0.0
    for u in fields:
        for C in interfaces:
            gap = abs(boundary_flux(u, C) - enclosed_density_sum(u, C))
            worst = max(worst, gap)
    report(2, worst <= 1e-12,
           f"worst |flux - density sum| = {worst:.2e} over 400 pairs (<= 1e-12)")


def test_acceptance_03_cone_measure(cone_sequences_256):
    data = cone_sequences_256
    t0 = time.time()
    fam = BallFamily(balls=tuple(((0.0, 0.0), r) for r in (0.25, 0.5, 0.75)),
                     gap=0.0, seed=0)
    rel = {}
    for tag, seq in (("moll", data["moll"]), ("sweep", data["sweep"])):
        tab = ball_measure_table(seq, fam)
        for row in tab.rows:
            expect = math.sqrt(2) * math.pi * row.radius
            rel[(tag, row.radius)] = (row.mu - expect) / expect
    grid1, mask1 = make_grid(ShapeSpec.interval(-1.0, 1.0), 128)
    cone1 = sample_function(lambda p: np.abs(p[:, 0]), grid1, mask1)
    seq1 = direct_mollified_sequence(cone1, [0.12, 0.06, 0.03])
    tab1 = ball_measure_table(seq1, BallFamily(balls=(((0.0,), 0.4),),
                                               gap=0.0, seed=0))
    atom_rel = (tab1.rows[0].mu - math.sqrt(2)) / math.sqrt(2)
    seconds = data["build_seconds"] + (time.time() - t0)
    ok = (all(abs(v) <= 0.02 for v in rel.values())
          and abs(atom_rel) <= 0.01 and seconds < 120.0)
    worst2d = max(abs(v) for v in rel.values())
    report(3, ok, f"worst 2d rel err {worst2d:.3%} over both sequences, "
                  f"1d atom rel err {atom_rel:.3%}, {seconds:.0f}s (< 120s)")


def test_acceptance_04_weak_convergence_sandwich(cone_sequences_256):
    data = cone_sequences_256
    grid, mask = data["grid"], data["mask"]
    t0 = time.time()
    gap = 4 * grid.h
    fam = generate_ball_family(mask, 12, r_min=10 * grid.h, r_max=0.3, gap=gap,
                               seed=7, margin=0.12 + 6 * grid.h)
    verdict = weak_convergence_check(data["moll"], data["sweep"], fam,
                                     gap=gap, tol=0.03)
    seconds = time.time() - t0
    worst = max(max(r.slack_ab, r.slack_ba) for r in verdict.rows)
    report(4, verdict.passed and seconds < 120.0,
           f"12-ball sandwich at t=4h tol 3%: worst slack {worst:+.4f} "
           f"(<= 0 passes), l1 gap {verdict.l1_gap:.4f}, {seconds:.0f}s")


def test_acceptance_05_perron_properties():
    t0 = time.time()
    grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 64)
    opts = SolveOptions()
    tol10 = 10 * opts.tol
    rng = np.random.default_rng(55)
    fields = [sample_function(cone_formula, grid, mask)]
    for _ in range(3):
        planes = rng.uniform(-0.7, 0.7, size=(4, 3))
        scale = rng.uniform(0.1, 0.5)

        def convex(p, planes=planes, scale=scale):
            vals = [pl[0] * p[:, 0] + pl[1] * p[:, 1] + pl[2] for pl in planes]
            return np.max(vals, axis=0) + scale * (p ** 2).sum(axis=1)

        fields.append(sample_function(convex, grid, mask))
    checks = []
    for u in fields:
        ball = ((0.1, -0.05), 0.3)
        lifted = perron_lift(u, mask, *ball, opts=opts)
        inside = mask.interior & (np.hypot(grid.points()[..., 0] - ball[0][0],
                                           grid.points()[..., 1] - ball[0][1])
                                  < ball[1])
        checks.append(("monotone", float(
            (lifted.values - u.values)[mask.interior].min()) >= -tol10))
        twice = perron_lift(lifted, mask, *ball, opts=opts)
        checks.append(("idempotent", float(np.nanmax(np.abs(
            twice.values[mask.interior] - lifted.values[mask.interior])))
            <= 100 * opts.tol))
        small = perron_lift(u, mask, (0.1, -0.05), 0.18, opts=opts)
        checks.append(("nesting", float(np.nanmax(
            small.values[mask.interior] - lifted.values[mask.interior])) <= tol10))
        outside = mask.region & ~inside
        checks.append(("outside", bool(np.array_equal(
            lifted.values[outside], u.values[outside], equal_nan=True))))
    seconds = time.time() - t0
    bad = [name for name, ok in checks if not ok]
    report(5, not bad and seconds < 120.0,
           f"{len(checks)} property checks on cone + 3 random subharmonic "
           f"fields, failures: {bad or 'none'}, {seconds:.0f}s")


def test_acceptance_06_harnack_behavior():
    t0 = time.time()
    grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 64)
    graphs = [
        lambda p: np.full(len(p), 2.0),
        lambda p: 1.0 + 0.5 * p[:, 0],
        lambda p: 1.5 + 0.5 * np.sin(2 * p[:, 0]) * np.cos(p[:, 1]),
        lambda p: 2.0 + p[:, 0] ** 2 - 0.5 * p[:, 1],
        lambda p: 0.5 + 0.3 * np.cos(3 * p[:, 0]),
    ]
    ratios = []
    for phi in graphs:
        out = solve_dirichlet(mask, f=None, phi=phi)
        rep = harnack_report(out.field, mask, r=1.0)
        ratios.append(rep.ratio)
        ms = [m for _, m in rep.psi]
        assert all(b <= a + 1e-9 for a, b in zip(ms, ms[1:]))
    finite = all(np.isfinite(r) and r < 50 for r in ratios)

    peak_ratios = []
    centers = []
    prev = None
    for M in (2.0, 4.0, 8.0):
        def phi_m(p, M=M):
            return 0.05 + M * np.maximum((p[:, 0] - 0.5) / 0.5, 0.0) ** 4

        out = solve_dirichlet(mask, f=None, phi=phi_m, init=prev)
        rep = harnack_report(out.field, mask, r=1.0)
        peak_ratios.append(rep.ratio)
        center_cell = tuple(e // 2 for e in grid.extents)
        centers.append(float(out.field.values[center_cell]))
        prev = out.field
    increasing = all(b > a for a, b in zip(peak_ratios, peak_ratios[1:]))
    center_ok = all(c <= 1.0 + 0.05 for c in centers)
    seconds = time.time() - t0
    report(6, finite and increasing and center_ok and seconds < 180.0,
           f"5-graph ratios finite (max {max(ratios):.2f}); peak family ratios "
           f"{['%.2f' % r for r in peak_ratios]} strictly increasing, "
           f"u(0) max {max(centers):.3f} <= 1.05, {seconds:.0f}s")


def test_acceptance_07_decay_bound_shadow(ring_pipeline_64):
    t0 = time.time()
    data = ring_pipeline_64
    grid, mask, nu = data["grid"], data["mask"], data["nu"]
    u = data["result"].field
    neg = u.with_values(np.where(np.isnan(u.values), np.nan, -u.values))
    levels = tuple(np.nanquantile(-u.values[mask.interior],
                                  np.linspace(0.05, 0.95, 10)))
    family = SetFamily(rectangles=True, rect_stride=8,
                       ball_radii=(0.52, 0.6, 0.75), ball_stride=16,
                       annuli=tuple(((0.0, 0.0), 0.5 - w, 0.5 + w)
                                    for w in (0.06, 0.12, 0.2)),
                       superlevel_field=neg, superlevel_thresholds=levels)
    margin = eta_margin(nu, mask, family)
    rep = decay_bound_check(u, mask, eta=margin.eta_star)
    troot = decay_threshold(0.2)
    ok = (margin.eta_star >= 0.4 and np.isfinite(rep.vanish_level)
          and rep.dominated and abs(troot - 2.967) <= 0.01)
    seconds = data["build_seconds"] + (time.time() - t0)
    report(7, ok and seconds < 60.0,
           f"eta*={margin.eta_star:.3f} (>=0.4), phi vanishes at "
           f"{rep.vanish_level:.3f}, envelope dominated={rep.dominated}, "
           f"T(0.2)={troot:.4f} (=2.967 +/- 0.01), {seconds:.0f}s")


def test_acceptance_08_eta_margin_brute_force():
    grid, mask = make_grid(ShapeSpec.rectangle(0.0, 1.0, 0.0, 1.0), 8)
    dens_vals = np.zeros(grid.shape)
    # dyadic densities keep both summation routes exact in binary
    idx = np.argwhere(mask.interior)
    for k, (i, j) in enumerate(idx):
        dens_vals[i, j] = (k % 16) / 16.0 + 0.5
    dens = ScalarField(grid=grid, values=np.where(mask.region, dens_vals, np.nan))
    rep = eta_margin(dens, mask, SetFamily(rectangles=True))

    # independent exhaustive oracle: plain python loops over all rectangles
    h = grid.h
    best = -1.0
    ii = np.argwhere(mask.interior)
    i0, j0 = ii.min(axis=0)
    i1, j1 = ii.max(axis=0)
    for a in range(i0, i1 + 1):
        for b in range(a, i1 + 1):
            for c in range(j0, j1 + 1):
                for d in range(c, j1 + 1):
                    nu = 0.0
                    for i in range(a, b + 1):
                        for j in range(c, d + 1):
                            nu += dens_vals[i, j] * h * h
                    per = 2.0 * ((b - a + 1) * h + (d - c + 1) * h)
                    best = max(best, nu / per)
    exact_match = abs(rep.max_ratio - best) <= 1e-12

    ones = ScalarField(grid=grid,
                       values=np.where(mask.region, 1.0, np.nan))
    rep_const = eta_margin(ones, mask, SetFamily(rectangles=True))
    const_ok = abs(rep_const.eta_star - 0.75) <= 1e-12
    report(8, exact_match and const_ok,
           f"max ratio {rep.max_ratio!r} == oracle {best!r} (gap "
           f"{abs(rep.max_ratio - best):.1e}); constant density eta* = "
           f"{rep_const.eta_star!r} (= 0.75 +/- 1e-12)")


def test_acceptance_09_measure_data_pipeline(ring_pipeline_64):
    data = ring_pipeline_64
    result = data["result"]
    nu, mask = data["nu"], data["mask"]
    viol = sum(s.monotonicity_violations for s in result.stages)
    total = nu.total_mass(mask)
    worst = max(abs(rec - ex) for _, _, rec, ex in result.mass_check)
    ok = (result.converged and viol == 0 and worst <= 0.05 * total
          and data["build_seconds"] < 300.0)
    rows = ", ".join(f"r={r}: {rec:.4f}/{ex:.4f}"
                     for _, r, rec, ex in result.mass_check)
    report(9, ok, f"{len(result.stages)} stages, {viol} monotonicity violations, "
                  f"mass recovery {rows} (worst err {worst:.4f} <= "
                  f"{0.05 * total:.4f}), {data['build_seconds']:.0f}s")


def test_acceptance_10_nonuniqueness_witness(uc_sequences_128):
    t0 = time.time()
    data = uc_sequences_128
    grid, mask = data["grid"], data["mask"]
    sup_gap = float(np.nanmax(np.abs(data["u_c"].values[mask.region]
                                     - data["u_0"].values[mask.region])))
    fam = generate_ball_family(mask, 10, r_min=10 * grid.h, r_max=0.35,
                               gap=0.0, seed=17, margin=0.12 + 4 * grid.h)
    tab_c = ball_measure_table(data["seq_c"], fam)
    tab_0 = ball_measure_table(data["seq_0"], fam)
    rels = []
    for rc, r0 in zip(tab_c.rows, tab_0.rows):
        scale = max(abs(r0.mu), 0.2)
        rels.append(abs(rc.mu - r0.mu) / scale)
    sing = interface_singular_mass(data["u_c"], {"circle": ((0.0, 0.0), 1.0)},
                                   widths=[0.08, 0.16, 0.32])
    seconds = time.time() - t0
    ok = (max(rels) <= 0.02 and abs(sup_gap - 0.5) <= 1e-12
          and abs(sing.mass) <= sing.band and seconds < 120.0)
    report(10, ok, f"tables agree within {max(rels):.3%} on 10 balls while "
                   f"sup gap = {sup_gap}; ring singular mass {sing.mass:+.4f} "
                   f"within band {sing.band:.4f}, {seconds:.0f}s")


def test_acceptance_11_gradient_envelope():
    t0 = time.time()
    entries = []
    for R, shift, pt in ((3.0, 0.0, (0.4, 0.0)), (4.0, -0.5, (0.5, 0.1)),
                         (5.0, -1.0, (0.3, -0.4)), (3.5, -0.2, (0.0, 0.5)),
                         (4.5, -0.7, (-0.45, 0.0)), (6.0, -0.3, (0.2, 0.3))):
        grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 64)
        hemi = hemisphere_formula(R)
        u = sample_function(lambda p, s=shift, f=hemi: f(p) + s, grid, mask)
        entries.append((u, pt, 1.0 - math.hypot(*pt)))
    grid, mask = make_grid(ShapeSpec.disk((0.0, 0.0), 1.0), 64)
    for M in (1.0, 2.0, 4.0, 8.0):
        def phi_m(p, M=M):
            return -0.05 - M * np.maximum((p[:, 0] - 0.3) / 0.7, 0.0) ** 4

        out = solve_dirichlet(mask, f=None, phi=phi_m)
        entries.append((out.field, (0.45, 0.0), 0.55))
    fit = gradient_bound_report(entries)
    seconds = time.time() - t0
    ok = (not fit.degenerate and len(fit.points) == 10
          and fit.max_residual <= 1e-9 and seconds < 120.0)
    report(11, ok, f"10-member family, envelope c1={fit.c1:.3f} c2={fit.c2:.3f}, "
                   f"max residual {fit.max_residual:.2e} (<= 0), {seconds:.0f}s")


def test_acceptance_12_bv_bound(uc_sequences_128):
    t0 = time.time()
    data = uc_sequences_128
    grid, mask = data["grid"], data["mask"]
    pts = grid.points()
    window = mask.interior & (np.hypot(pts[..., 0], pts[..., 1]) < 1.3)
    norms = [truncated_bv_norm(term.field, 2.0, window)
             for term in data["seq_c"][-4:]]
    ratio = max(norms) / min(norms)
    seconds = time.time() - t0
    report(12, ratio <= 1.5 and seconds < 60.0,
           f"truncated BV norms over last four terms "
           f"{['%.3f' % v for v in norms]}, max/min = {ratio:.3f} (<= 1.5), "
           f"{seconds:.0f}s")


def cone_exact_mass(center, radius: float) -> float:
    """The cone's measure (1/sqrt 2) dx/|x| of the ball, by quad over the ray
    angle of the ray's chord length in the ball: from the tip to the sphere
    when the ball holds the tip, else between the two tangent angles."""
    d = math.hypot(*center)
    if d <= radius:
        lo, hi = -math.pi, math.pi

        def chord(s):
            return d * math.cos(s) + math.sqrt(max(radius ** 2 - (d * math.sin(s)) ** 2, 0.0))
    else:
        hi = math.asin(radius / d)
        lo = -hi

        def chord(s):
            return 2 * math.sqrt(max(radius ** 2 - (d * math.sin(s)) ** 2, 0.0))
    value, _ = quad(chord, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return value / math.sqrt(2)


def test_acceptance_13_cone_exact_measure(cone_sequences_256):
    # the sweep's last level lifts balls of radius 2^-5; a family ball that
    # holds the tip or comes within two of those radii of it is a tip ball,
    # where the sweep route's error is reported and bounded apart.  The
    # centred balls hold the tip at their centre, 0.25 or more inside their
    # spheres, and are graded with the balls off the tip
    data = cone_sequences_256
    grid, mask = data["grid"], data["mask"]
    t0 = time.time()
    family = generate_ball_family(mask, 12, r_min=10 * grid.h, r_max=0.3, gap=4 * grid.h,
                                  seed=7, margin=0.12 + 6 * grid.h)
    centred = [((0.0, 0.0), r) for r in (0.25, 0.5, 0.75)]
    balls = [*family, *centred]
    exact = [cone_exact_mass(c, r) for c, r in balls]
    law = max(abs(ex / (math.sqrt(2) * math.pi * r) - 1)
              for ex, (_, r) in zip(exact[len(family):], centred))
    rows = {tag: ball_measure_table(data[tag], balls).rows for tag in ("moll", "sweep")}
    rel = {tag: [(row.mu - ex) / ex for row, ex in zip(rows[tag], exact)] for tag in rows}
    # reported, not gated: the balls whose band does not cover the oracle error
    uncovered = {tag: sum(abs(row.mu - ex) > row.band for row, ex in zip(rows[tag], exact))
                 for tag in rows}
    tip_reach = 2 * 2.0 ** -data["sweep"][-1].level
    tip = [k < len(family) and math.hypot(*balls[k][0]) < balls[k][1] + tip_reach
           for k in range(len(balls))]
    moll = max(abs(e) for e in rel["moll"])
    sweep_off = max(abs(e) for e, t in zip(rel["sweep"], tip) if not t)
    sweep_tip = [e for e, t in zip(rel["sweep"], tip) if t]
    seconds = time.time() - t0
    ok = (law <= 1e-10 and moll <= 0.01 and sweep_off <= 0.03
          and all(abs(e) <= 0.05 for e in sweep_tip) and seconds < 60.0)
    report(13, ok, f"{len(balls)} balls against (1/sqrt 2) dx/|x| (centred within "
                   f"{law:.1e} of sqrt(2) pi r): mollified worst "
                   f"{moll:.3%} (<= 1%), sweep off the tip worst {sweep_off:.3%} "
                   f"(<= 3%), sweep on {len(sweep_tip)} tip balls "
                   f"{', '.join(f'{e:+.3%}' for e in sweep_tip)} (each <= 5%); band "
                   f"short of the error on {uncovered['moll']} mollified and "
                   f"{uncovered['sweep']} sweep balls, {seconds:.1f}s")
