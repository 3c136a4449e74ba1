"""Ball replacement: the minimal-graph solve on a ball, the viscosity check,
Perron lifting and smooth near-subharmonic approximation.

u is subharmonic for the mean curvature operator when it lies below the
minimal graph with u's own sphere values on every ball.  One windowed ball
kernel, ``_solve_ball``, computes that replacement for ``solve_on_ball``,
``viscosity_subharmonic_check``, the lift and the sweep: it takes the cells
of the ball's window nearer the centre than the radius, looks up the
``_BallRecord`` of that cell pattern, gathers the ball from the mask and the
field, runs ``msolve._newton_core`` and owns the warm start, its prediction
from the corrections of earlier balls and the harmonic restart.

A lift merges the replacement into the field as a cellwise max; sweeping it
over a deterministic ball cover of the domain and mollifying the result
produces the smooth approximating sequences that the measure machinery
consumes.  A single lift factors its Newton matrices fresh and starts Newton
from the field; a sweep owns one ``msolve.PlanHolder``, which keeps a plan
and a ball record per cell pattern, and hands the last LU of each ball solve
to the next one, whose warm-started Newton run starts on it as a chord
matrix when the two balls share a cell pattern (translates by whole cells
do).  A ball record also keeps the corrections of the last two converged
lifts of its pattern, and the next lift of that pattern starts from their
linear extrapolation in the ball centre (a continuation predictor, Newton
the corrector) while the max-merge still compares with the unlifted field.
On the cone at 128, levels 2-4, this takes the sweep from 35,786 Newton
iterations and 700 LUs to 27,598 and 590.  A cover reports the target cells
it leaves uncovered, and so does the sweep's trace.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .field import (DomainMask, ScalarField, SizingError, UndefinedCellError, _ring,
                    ball_distances, mollify_field)
from .mco import cell_gradients, h1_density
from .msolve import PlanHolder, SolveOptions, SolveOutcome, _newton_core, _window

logger = logging.getLogger("meancurv")


def ball_region(mask: DomainMask, center, radius) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Window slices (bounding box plus three cells), window-local unknown
    cells (those nearer the centre than the radius) and data ring of a ball
    subregion solve; SizingError when no cell of the ball is interior,
    ValueError unless all are and its ring lies in the region."""
    win, dist = ball_distances(mask.grid, center, radius, margin=3)
    inside = dist < radius
    ring = _ring(inside)
    interior = mask.interior[win]
    unknown = interior & inside
    if not unknown.any():
        raise SizingError(f"ball ({center}, r={radius}) contains no interior cells")
    if (inside & ~interior).any() or (ring & ~(interior | mask.boundary[win])).any():
        raise ValueError(f"ball ({center}, r={radius}) is not compactly inside the domain")
    return win, unknown, ring


class _BallRecord:
    """An accepted ball's ``plan``, the flat indices (C order) of its
    unknowns and ring from its window's first cell (``cells``, ``ring``) and
    in the plan's window (``local``, ``ring_local``), ``blank`` flat window
    and the ``corrections`` (solution minus start on the
    unknowns) of its last two converged warm solves, newest first; one per
    grid shape and window pattern of inside cells, shared by translates."""

    def __init__(self, holder: PlanHolder, grid_shape, unknown, ring):
        tight = _window(unknown, ring)
        self.plan = holder.plan(unknown[tight], ring[tight], unknown[tight])
        self.cells, self.ring = (np.ravel_multi_index(np.nonzero(a), grid_shape)
                                 for a in (unknown, ring))
        self.local, self.ring_local = (np.flatnonzero(a[tight]) for a in (unknown, ring))
        self.blank = np.append(np.full(unknown[tight].size + 1, np.nan), 0.0)
        self.corrections = ()


def _solve_ball(V: np.ndarray, mask: DomainMask, center, radius, opts: SolveOptions,
                carry: Optional[PlanHolder] = None):
    """Minimal-graph replacement of the full-grid array V inside a ball.

    The holder ``carry`` (its own when None) keeps a ``_BallRecord`` per
    grid shape and cell pattern of the window; ``ball_region`` checks the
    first ball of a record and names the error of a later one whose gathered
    cells leave the domain.  Non-finite sphere data raise
    UndefinedCellError.  Newton starts harmonic unless V is finite on the
    unknowns, else from V + 2 c1 - c2, V + c1 or V, with c1, c2 the record's
    last corrections (``info["predicted"]`` if any).  A warm start that does
    not converge gets one harmonic restart on an LU the holder does not
    carry, kept when it converges or lowers the residual; ``info`` counts
    both.  Returns (cells, ring, values, info): full-grid flat indices (C
    order) of the unknowns and ring, and the solution.
    """
    grid = mask.grid
    carry = carry or PlanHolder()
    win, dist = ball_distances(grid, center, radius, margin=3)
    inside = dist < radius
    key = (grid.shape, inside.shape, inside.tobytes())
    ball = carry.balls.get(key)
    if ball is None:
        ball = carry.balls[key] = _BallRecord(carry, grid.shape,
                                              *ball_region(mask, center, radius)[1:])
    base = np.ravel_multi_index([s.start for s in win], grid.shape)
    cells, ring = base + ball.cells, base + ball.ring
    if not (mask.interior.take(cells).all()
            and (mask.interior.take(ring) | mask.boundary.take(ring)).all()):
        ball_region(mask, center, radius)    # raises: the ball leaves the domain
    sphere = V.take(ring)
    if not np.isfinite(sphere).all():
        bad = np.unravel_index(ring[~np.isfinite(sphere)], V.shape)
        raise UndefinedCellError("sphere data is not finite; ball rejected", list(zip(*bad)))
    old = V.take(cells)
    warm = bool(np.isfinite(old).all())
    seen = ball.corrections if warm else ()
    Vx = ball.blank.copy()
    Vx[ball.ring_local] = sphere
    if warm:
        Vx[ball.local] = old
    if seen:
        Vx[ball.local] += 2 * seen[0] - seen[1] if len(seen) == 2 else seen[0]
    Vx, info = _newton_core(grid.h, grid.n, ball.plan, Vx, None, None, opts, carry,
                            not warm)
    values = Vx[ball.local]
    if not info["converged"] and warm:
        # kinked warm starts can stall the line search; harmonic restart, which
        # reads the window's ring only
        Vx, info2 = _newton_core(grid.h, grid.n, ball.plan, Vx, None, None, opts,
                                 carry.without_lu(), True)
        counts = {k: info[k] + info2[k] for k in ("factorizations", "residual_evals")}
        if info2["converged"] or info2["residual"] < info["residual"]:
            values, info = Vx[ball.local], info2
            info["restarted"] = True
        info.update(counts)
    if seen:
        info["predicted"] = True
    if info["converged"] and warm:
        ball.corrections = (values - old,) + seen[:1]
    return cells, ring, values, info


def solve_on_ball(u: ScalarField, mask: DomainMask, center, radius,
                  opts: Optional[SolveOptions] = None) -> SolveOutcome:
    """Minimal-graph replacement of u inside a ball, u as sphere data.

    The field is NaN outside the ball's unknowns and data ring.
    """
    cells, ring, solved, info = _solve_ball(u.values, mask, center, radius,
                                            opts or SolveOptions())
    values = np.full(u.grid.shape, np.nan)
    values.put(ring, u.values.take(ring))
    values.put(cells, solved)
    fld = ScalarField(grid=u.grid, values=values, provenance="solved")
    return SolveOutcome(field=fld, residual_norm=info["residual"],
                        iterations=info["iterations"], converged=info["converged"],
                        diagnostics=info)


@dataclass
class BallCheck:
    center: tuple
    radius: float
    passed: bool
    violation: float
    inconclusive: bool = False


@dataclass
class SubharmonicReport:
    """Comparison-with-harmonic-replacement verdicts over a ball family."""

    balls: list
    tol: float
    overall_pass: bool


def viscosity_subharmonic_check(u: ScalarField, mask: DomainMask,
                                balls: Sequence[tuple], tol: Optional[float] = None,
                                opts=None) -> SubharmonicReport:
    """Check u <= harmonic replacement on each test ball.

    For every ball the homogeneous Dirichlet problem is solved with u as
    sphere data; the ball passes when the replacement dominates u inside up
    to tol.  A diverging inner solve marks the ball inconclusive, not failed.
    The default tol matches the scheme's truncation per ball: 10 h^2 (1 +
    max|Du|^2), the maximum over the interior cells within 2h of the ball.
    """
    opts = opts or SolveOptions()
    checks = []
    tols = []
    grid = u.grid
    if tol is None:
        grads = cell_gradients(u)
        g2 = np.nansum(grads * grads, axis=-1)
    for center, radius in balls:
        # the window of the ball grown by the 2h the default tolerance reads
        win, dist = ball_distances(grid, center, radius + 2 * grid.h)
        interior = mask.interior[win]
        ball_cells = interior & (dist < radius)
        ball_tol = tol
        if ball_tol is None:
            near = interior & (dist < radius + 2 * grid.h)
            ball_tol = 10.0 * grid.h ** 2 * (1.0 + float(g2[win][near].max(initial=0.0)))
        tols.append(ball_tol)
        outcome = solve_on_ball(u, mask, center, radius, opts=opts)
        if not outcome.converged:
            checks.append(BallCheck(center=tuple(center), radius=radius,
                                    passed=False, violation=float("nan"),
                                    inconclusive=True))
            continue
        diff = u.values[win] - outcome.field.values[win]
        viol = float(np.nanmax(np.where(ball_cells, diff, -np.inf)))
        checks.append(BallCheck(center=tuple(center), radius=radius,
                                passed=viol <= ball_tol, violation=viol))
    conclusive = [c for c in checks if not c.inconclusive]
    overall = bool(conclusive) and all(c.passed for c in conclusive)
    return SubharmonicReport(balls=checks, tol=max(tols) if tols else 0.0,
                             overall_pass=overall)


class PerronLiftRefused(RuntimeError):
    """The inner ball solve did not converge, or its sphere data was -inf or
    fell outside the mask's region.

    The unmodified input field is attached, which keeps monotone sweeps
    sound: a caller can continue from exactly where it stopped.
    """

    def __init__(self, message, field: Optional[ScalarField] = None, center=None):
        super().__init__(message)
        self.field = field
        self.center = center


@dataclass(frozen=True)
class BallCover:
    """Ordered balls of radius 2^-j covering the cells deeper than 2^-j-1,
    save ``uncovered`` of them (``_uncovered``; a sweep recounts its cover)."""

    level: int
    radius: float
    centers: tuple
    uncovered: int = 0

    def __len__(self) -> int:
        return len(self.centers)


def _uncovered(mask: DomainMask, radius: float, centers, targets=None) -> np.ndarray:
    """The targets of a cover, the interior cells deeper than half a radius
    (``targets`` (k, n) when given), farther than the radius from every
    centre: their points."""
    from scipy.spatial import cKDTree
    if targets is None:
        pts = mask.grid.points()
        targets = pts[mask.interior & (mask.shape.signed_distance(pts) > radius / 2.0)]
    dist = cKDTree(np.asarray(centers).reshape(-1, mask.grid.n)).query(targets)[0]
    return targets[dist > radius]


def build_ball_cover(mask: DomainMask, level: int) -> BallCover:
    """Deterministic (lexicographically ordered) cover at the given level.

    Admissible centers are the interior cells at least a radius deep, and
    the candidates sit on a sub-lattice of them spaced about half the
    radius.  A target cell (deeper than half a radius) that no candidate
    covers pulls in its nearest admissible center when that center lies
    within a radius of it; one with no admissible center that near (most of
    a thin annulus at a coarse level) stays uncovered, and the cover counts
    it in ``uncovered``.
    """
    grid = mask.grid
    radius = 2.0 ** (-level)
    if radius < 4 * grid.h - 1e-12:
        raise SizingError(f"cover level {level}: ball radius {radius} < 4h")
    pts = grid.points()
    sdist = mask.shape.signed_distance(pts)
    admissible = mask.interior & (sdist >= radius)
    if not admissible.any():
        raise SizingError(f"cover level {level}: no admissible ball centers")
    # half-radius lattice spacing: strong ball overlap keeps the swept
    # field's gradient sheets weak enough that mollification defects decay
    stride = max(1, int(round(radius / (2 * grid.h))))
    lattice = np.zeros(grid.shape, bool)
    lattice[(slice(None, None, stride),) * grid.n] = True
    chosen = admissible & lattice

    cpts = pts[chosen].reshape(-1, grid.n)
    lost = _uncovered(mask, radius, cpts, pts[mask.interior & (sdist > radius / 2.0)])
    uncovered = 0
    if len(lost):
        from scipy.spatial import cKDTree
        apts = pts[admissible].reshape(-1, grid.n)
        dist, nearest = cKDTree(apts).query(lost)
        cpts = np.concatenate([cpts, apts[nearest[dist <= radius]]])
        uncovered = len(_uncovered(mask, radius, cpts, lost))
    centers = np.unique(cpts, axis=0)
    return BallCover(level=level, radius=radius, centers=tuple(map(tuple, centers.tolist())),
                     uncovered=uncovered)


def perron_lift(u: ScalarField, mask: DomainMask, center, radius,
                opts: Optional[SolveOptions] = None) -> ScalarField:
    """Harmonic replacement of u inside the ball, u outside, never below u.

    The replacement solves the minimal surface equation with u as sphere
    data; inside the ball the output is the cellwise max of the replacement
    and u (the discrete upper-semicontinuous regularization), outside it is
    u exactly.  -inf sphere data, a data ring leaving the mask's region or
    a non-converging inner solve raise :class:`PerronLiftRefused` carrying
    the untouched input.
    """
    lifted = u.values.copy()
    try:
        _lift_inplace(lifted, mask, center, radius, opts or SolveOptions())
    except PerronLiftRefused as exc:
        exc.field = u
        raise
    return ScalarField(grid=u.grid, values=lifted, provenance="lifted",
                       extended=u.extended)


def _lift_inplace(work: np.ndarray, mask: DomainMask, center, radius,
                  opts: SolveOptions, carry: Optional[PlanHolder] = None
                  ) -> tuple[float, float, int, dict]:
    """Lift mutating the full-grid array *work* on the ball's unknowns: the
    cellwise max of ``_solve_ball``'s solution (given ``carry``) and
    the finite old values.  Returns (max_increase, min_increase, repaired
    -inf cells, the ball solve's ``info``); raises PerronLiftRefused
    without a field attached.
    """
    try:
        cells, _, new, info = _solve_ball(work, mask, center, radius, opts, carry)
    except SizingError:
        raise
    except ValueError as exc:
        raise PerronLiftRefused(f"ball at {center} rejected: {exc}",
                                center=center) from exc
    if not info["converged"]:
        raise PerronLiftRefused(
            f"inner solve did not converge at {center} "
            f"(residual {info['residual']:.3e})", center=center)
    old = work.take(cells)
    finite = np.isfinite(old)
    if finite.all():
        merged = np.maximum(new, old, out=new)
        delta, repaired = merged - old, 0
    else:
        merged = np.maximum(new, old, out=new, where=finite)
        delta = np.subtract(merged, old, out=np.zeros_like(merged), where=finite)
        repaired = int(np.count_nonzero(np.isneginf(old)))
    work.put(cells, merged)
    return float(delta.max()), float(delta.min()), repaired, info


@dataclass
class SweepRecord:
    index: int
    center: tuple
    max_increase: float
    min_increase: float
    iterations: int
    repaired_cells: int
    factorizations: int       # fresh LUs built for this lift
    residual_evals: int       # residual evaluations, line-search trials included
    predicted: bool           # started from the corrections of earlier lifts


@dataclass
class SweepTrace:
    level: int
    records: list
    sup_change: float
    completed: bool
    monotone_within: float
    uncovered: int            # the cover's target cells farther than r from every center

    @property
    def factorizations(self) -> int:
        """Fresh LUs built over the level's recorded lifts."""
        return sum(r.factorizations for r in self.records)

    @property
    def residual_evals(self) -> int:
        """Residual evaluations over the level's recorded lifts."""
        return sum(r.residual_evals for r in self.records)

    @property
    def predicted(self) -> int:
        """Recorded lifts that started from a prediction."""
        return sum(r.predicted for r in self.records)

    def to_csv_rows(self):
        for r in self.records:
            yield (r.index, *r.center, r.max_increase, r.iterations)


def approximation_sweep(u: ScalarField, mask: DomainMask, level: int,
                        opts: Optional[SolveOptions] = None,
                        cover: Optional[BallCover] = None
                        ) -> tuple[ScalarField, SweepTrace]:
    """Sequentially lift u over the level's ball cover.

    The output dominates u; a refused lift aborts the sweep at that ball and
    returns the partial output with the trace collected so far (completed
    stays False), so a deterministic restart is possible.  Each ball solve
    may start on the last LU of the one before (see ``msolve._newton_core``)
    and from the corrections of the lifts before it (see
    ``_solve_ball``).  The trace carries the cover's ``uncovered``
    count (recounted for a given cover), which a completed sweep does not
    clear: such cells were lifted by no ball.
    """
    opts = opts or SolveOptions()
    cover = build_ball_cover(mask, level) if cover is None else replace(
        cover, uncovered=len(_uncovered(mask, cover.radius, cover.centers)))
    if cover.uncovered:
        logger.warning("level %d ball cover leaves %d target cells uncovered",
                       level, cover.uncovered)
    work = u.values.copy()
    records = []
    completed = True
    carry = PlanHolder()   # this sweep's plans, last fresh LU and ball records
    for k, center in enumerate(cover.centers):
        try:
            inc_max, inc_min, repaired, info = _lift_inplace(
                work, mask, center, cover.radius, opts, carry)
        except PerronLiftRefused:
            completed = False
            break
        records.append(SweepRecord(index=k, center=tuple(center),
                                   max_increase=inc_max, min_increase=inc_min,
                                   iterations=info["iterations"], repaired_cells=repaired,
                                   factorizations=info["factorizations"],
                                   residual_evals=info["residual_evals"],
                                   predicted=info.get("predicted", False)))
    both = np.isfinite(u.values) & np.isfinite(work)
    sup_change = float(np.max(np.abs(work[both] - u.values[both]))) \
        if both.any() else 0.0
    monotone = min((r.min_increase for r in records), default=0.0)
    extended = u.extended and bool(np.isneginf(work).any())
    current = ScalarField(grid=u.grid, values=work, provenance="lifted",
                          extended=extended)
    trace = SweepTrace(level=level, records=records, sup_change=sup_change,
                       completed=completed, monotone_within=monotone,
                       uncovered=cover.uncovered)
    return current, trace


@dataclass
class SequenceTerm:
    field: ScalarField
    level: int
    eps: float
    defect: float


def _sequence_term(smooth: ScalarField, level: int, eps: float) -> SequenceTerm:
    """A sequence term and its defect, the largest negative density of *smooth*."""
    dens = h1_density(smooth).values
    have = ~np.isnan(dens)
    defect = float(max(0.0, -dens[have].min())) if have.any() else 0.0
    return SequenceTerm(field=smooth, level=level, eps=eps, defect=defect)


def smooth_subharmonic_sequence(u: ScalarField, mask: DomainMask,
                                levels: Sequence[tuple],
                                opts: Optional[SolveOptions] = None
                                ) -> list[SequenceTerm]:
    """Sweep-then-mollify approximations with their near-subharmonicity defect.

    levels is a list of (j, eps_j) with eps_j >= 2h and eps_j <= 2^-j / 4;
    each term is mollify(sweep(u, j), eps_j) and the defect is the largest
    negative density it exhibits (zero for exactly subharmonic output).
    """
    h = u.grid.h
    out = []
    for level, eps in levels:
        if eps < 2 * h - 1e-12:
            raise SizingError(f"eps={eps} under-resolved (needs >= 2h = {2*h})")
        if eps > 2.0 ** (-level) / 4.0 + 1e-12:
            raise SizingError(f"eps={eps} too coarse for level {level}")
        swept, trace = approximation_sweep(u, mask, level, opts=opts)
        if not trace.completed:
            raise PerronLiftRefused(f"sweep at level {level} aborted", field=swept)
        out.append(_sequence_term(mollify_field(swept, eps), level, eps))
    return out


def direct_mollified_sequence(u: ScalarField, eps_list: Sequence[float]
                              ) -> list[SequenceTerm]:
    """Plain mollifications of u at a decreasing scale schedule.

    For convex fields this is an exactly subharmonic smooth sequence; for
    merely subharmonic fields the defect is reported per term just like the
    sweep route.
    """
    return [_sequence_term(mollify_field(u, eps), -1, eps) for eps in eps_list]
