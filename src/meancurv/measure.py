"""Curvature mass of fields on test balls, and weak-convergence checks.

The mass of a ball is the sphere flux of an approximating sequence's last
term, with the spread over the last three terms kept as an error bar and any
near-subharmonicity defect propagated into the negativity allowance.  Every
limit here and in the Dirichlet pipeline is read by ``extrapolate``.  A
single smooth field is the one-term sequence: its mass is its sphere flux,
which the conservative scheme makes identical to the density integral.  1d
and 2d share every path; a 1d sphere is a pair of points.  Each sphere flux
reads only its ball's window of cells and the faces between them
(``mco.boundary_flux``), so a table of many small balls costs little more
than the flux field it is read from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .field import DomainMask, ScalarField, SizingError
from .mco import (CircleInterface, PairInterface, _interior_face_count, boundary_flux,
                  flux_field, h1_density)


@dataclass(frozen=True)
class BallFamily:
    """Deterministic family of test balls with room for inflation by gap."""

    balls: tuple          # ((center tuple, radius), ...)
    gap: float
    seed: int

    def __len__(self):
        return len(self.balls)

    def __iter__(self):
        return iter(self.balls)


def generate_ball_family(mask: DomainMask, count: int, r_min: float, r_max: float,
                         gap: float = 0.0, seed: int = 0,
                         margin: Optional[float] = None) -> BallFamily:
    """Seeded rejection sampling of balls whose gap-inflations stay inside;
    SizingError, before any draw, for r_min below 8h or above r_max."""
    grid = mask.grid
    if r_min < 8 * grid.h - 1e-12:
        raise SizingError(f"ball radii must be >= 8h = {8*grid.h}")
    if r_min > r_max:
        raise SizingError(f"a ball draw needs r_min <= r_max, got r_min = {r_min} "
                          f"above r_max = {r_max}")
    rng = np.random.default_rng(seed)
    margin = 2 * grid.h if margin is None else margin
    pts = grid.points()
    lo = [float(pts[..., k].min()) for k in range(grid.n)]
    hi = [float(pts[..., k].max()) for k in range(grid.n)]
    balls = []
    attempts = 0
    while len(balls) < count and attempts < 20000:
        attempts += 1
        c = tuple(rng.uniform(lo[k], hi[k]) for k in range(grid.n))
        r = float(rng.uniform(r_min, r_max))
        sd = float(np.asarray(mask.shape.signed_distance(np.asarray(c)[None, :])).ravel()[0])
        if sd >= r + gap + margin:
            balls.append((c, r))
    if len(balls) < count:
        raise SizingError("could not place the requested ball family")
    return BallFamily(balls=tuple(balls), gap=gap, seed=seed)


def ball_flux(u, center, radius) -> float:
    """Outward flux through the sphere of the ball (its two end points in
    1d); u is a field or its ``flux_field``."""
    if u.grid.n == 1:
        return boundary_flux(u, PairInterface(center[0] - radius, center[0] + radius))
    return boundary_flux(u, CircleInterface(tuple(center), radius))


def ball_fluxes(fields, balls) -> list:
    """Per ball, the list of the fields' sphere fluxes; each field's flux_field
    is computed once and dropped before the next one's."""
    out = [[] for _ in balls]
    for f in fields:
        flux = flux_field(f)
        for per, (center, radius) in zip(out, balls):
            per.append(ball_flux(flux, center, radius))
    return out


@dataclass
class BallMeasureRow:
    center: tuple
    radius: float
    mu: float
    band: float
    converged: bool
    per_term: tuple = ()


@dataclass
class BallMeasureTable:
    rows: list
    method: str               # always limit-of-sequence
    eps_neg: float            # defect-propagated negativity allowance


#: a ball whose tail spread exceeds this share of max(|mu|, 0.2) is unconverged
REL_BAND = 0.25
#: the sandwich refuses two sequences whose last terms differ more in mean
L1_TOL = 0.1


def _ball_volume(n: int, radius: float) -> float:
    return math.pi * radius * radius if n == 2 else 2 * radius


def _sequence_fields(seq) -> tuple[list, float]:
    """Normalize a sequence argument to (fields, max defect of last terms);
    a bare field is the one-term sequence."""
    if isinstance(seq, ScalarField):
        seq = (seq,)
    fields = []
    defects = []
    for term in seq:
        if isinstance(term, ScalarField):
            fields.append(term)
            defects.append(0.0)
        else:
            fields.append(term.field)
            defects.append(float(getattr(term, "defect", 0.0)))
    tail = defects[-3:] if defects else [0.0]
    return fields, max(tail)


def extrapolate(params: Optional[Sequence[float]], values: Sequence[float],
                order: int) -> tuple[float, float]:
    """Limit at param 0 of values ordered toward it, and its error band.

    Order k >= 1 reads the degree-k polynomial through the last k + 1
    (param, value) pairs at 0 (Neville's scheme), banded by its distance to
    the degree k - 1 fit through the last k pairs, which the same tableau
    yields.  Order 0 is the last value, banded by the spread of the last
    three; it reads no params.
    """
    v = [float(x) for x in values]
    if order == 0:
        return v[-1], max(v[-3:]) - min(v[-3:])
    t = [float(x) for x in params]
    if order < 0 or len(t) != len(v) or len(v) <= order:
        raise ValueError(f"order {order} needs {order + 1} or more aligned params and values")
    t, p = t[-order - 1:], v[-order - 1:]
    # step k leaves in p[i] the fit through pairs i..i+k read at 0, so p[1]
    # before the last step is the fit through the last order pairs
    for k in range(1, order + 1):
        lower = p[1]
        for i in range(order + 1 - k):
            p[i] = (t[i] * p[i + 1] - t[i + k] * p[i]) / (t[i] - t[i + k])
    return p[0], abs(p[0] - lower)


def ball_measure_table(u_or_sequence, balls) -> BallMeasureTable:
    """Curvature mass on every test ball (a BallFamily or (center, radius) pairs).

    Reports the last term's sphere flux (``extrapolate`` at order 0) with the
    last-three-term spread as the band, flagging balls whose spread exceeds
    REL_BAND of the reported scale.  A single field is the one-term sequence:
    its mass is its flux (the density integral, by the discrete divergence
    theorem) with band 0, and a sphere crossing undefined faces raises.  An
    empty sequence or ball family raises ValueError.
    """
    fields, defect = _sequence_fields(u_or_sequence)
    if not fields:
        raise ValueError("empty approximating sequence")
    if not len(balls):
        raise ValueError("empty ball family: there is no test ball to measure")
    rows = []
    for (center, radius), per in zip(balls, ball_fluxes(fields, balls)):
        mu, spread = extrapolate(None, per, 0)
        scale = max(abs(mu), 0.2)
        rows.append(BallMeasureRow(center=tuple(center), radius=radius, mu=mu,
                                   band=spread, converged=spread <= REL_BAND * scale,
                                   per_term=tuple(per)))
    eps_neg = defect * max(_ball_volume(fields[0].grid.n, r) for (_, r) in balls) + 1e-12
    return BallMeasureTable(rows=rows, method="limit-of-sequence", eps_neg=eps_neg)


@dataclass
class SandwichRow:
    center: tuple
    radius: float
    mu_a_r: float
    mu_b_inflated: float
    mu_b_r: float
    mu_a_inflated: float
    slack_ab: float
    slack_ba: float
    ok: bool


@dataclass
class SandwichVerdict:
    passed: bool
    rows: list
    worst: Optional[SandwichRow]
    l1_gap: float


def weak_convergence_check(seq_a, seq_b, balls: BallFamily, gap: float,
                           tol: float) -> SandwichVerdict:
    """Two-sided sandwich between the measures of two approximating sequences.

    For every ball, mass_a(B_r) <= mass_b(B_{r+gap}) within tol (relative)
    plus the larger defect times |B_{r+gap}|, and symmetrically.  Refused
    when the two sequences do not agree in L1, since then they are not
    approximations of the same field.  Every mass is the last term's sphere
    flux, so only the last terms are measured (an empty ball family raises
    there).
    """
    fa, defect_a = _sequence_fields(seq_a)
    fb, defect_b = _sequence_fields(seq_b)
    ua, ub = fa[-1], fb[-1]
    both = np.isfinite(ua.values) & np.isfinite(ub.values)
    if not both.any():
        raise ValueError("sequences have no common defined cells")
    l1 = float(np.abs(ua.values[both] - ub.values[both]).mean())
    if l1 > L1_TOL:
        raise ValueError(f"sequences disagree in L1 (mean gap {l1:.3g} > {L1_TOL});"
                         " sandwich check refused")
    defect = max(defect_a, defect_b)
    spheres = [*balls, *((center, radius + gap) for center, radius in balls)]
    mu_a = [row.mu for row in ball_measure_table(ua, spheres).rows]
    mu_b = [row.mu for row in ball_measure_table(ub, spheres).rows]
    rows = []
    worst = None
    worst_slack = -np.inf
    for k, (center, radius) in enumerate(balls):
        mu_a_r, mu_a_i = mu_a[k], mu_a[k + len(balls)]
        mu_b_r, mu_b_i = mu_b[k], mu_b[k + len(balls)]
        # the defect is a density: its mass allowance is over the inflated ball
        eps_neg = defect * _ball_volume(ua.grid.n, radius + gap) + 1e-12
        allow_ab = tol * max(abs(mu_b_i), 0.05) + eps_neg
        allow_ba = tol * max(abs(mu_a_i), 0.05) + eps_neg
        slack_ab = mu_a_r - mu_b_i - allow_ab
        slack_ba = mu_b_r - mu_a_i - allow_ba
        ok = slack_ab <= 0 and slack_ba <= 0
        row = SandwichRow(center=tuple(center), radius=radius, mu_a_r=mu_a_r,
                          mu_b_inflated=mu_b_i, mu_b_r=mu_b_r, mu_a_inflated=mu_a_i,
                          slack_ab=slack_ab, slack_ba=slack_ba, ok=ok)
        rows.append(row)
        s = max(slack_ab, slack_ba)
        if s > worst_slack:
            worst_slack = s
            worst = row
    return SandwichVerdict(passed=all(r.ok for r in rows), rows=rows, worst=worst,
                           l1_gap=l1)


@dataclass
class SingularMassResult:
    mass: float
    band: float
    converged: bool
    samples: tuple      # (width, shell mass) pairs, widest first


def interface_singular_mass(u: ScalarField, jump, widths: Sequence[float],
                            ) -> SingularMassResult:
    """Mass concentrated on a declared codimension-1 jump set.

    jump is {"circle": (center, radius)} in 2d or {"point": x0} in 1d; the
    shell mass at width w is the flux difference across the annulus of
    half-width w around the jump, and the mass is its extrapolation to
    w -> 0 (``extrapolate`` at order 2: quadratic through three widths,
    banded by the distance to the line through the two narrowest).  A
    non-convergent extrapolation is flagged and the mass should not be
    trusted.
    """
    widths = sorted((float(w) for w in widths), reverse=True)
    if len(widths) != 3:
        raise ValueError("need exactly three shell widths")
    if widths[-1] < 2 * u.grid.h:
        raise SizingError("smallest shell width under-resolved (< 2h)")
    samples = []
    flux = flux_field(u)
    for w in widths:
        if "circle" in jump:
            center, radius = jump["circle"]
            outer = ball_flux(flux, center, radius + w)
            inner = ball_flux(flux, center, radius - w)
            samples.append((w, outer - inner))
        elif "point" in jump:
            x0 = jump["point"]
            samples.append((w, ball_flux(flux, (x0,), w)))
        else:
            raise ValueError("jump must declare a circle or a point")
    ms = [m for _, m in samples]
    mass, band = extrapolate(widths, ms, 2)
    floor = 1e-9 * (1.0 + max(abs(m) for m in ms))
    band += floor
    converged = band <= max(0.75 * (max(ms) - min(ms)), 10 * floor)
    return SingularMassResult(mass=mass, band=band, converged=converged,
                              samples=tuple(samples))


def total_mass_bound(u: ScalarField, mask: DomainMask) -> tuple[float, float]:
    """Total density mass over the interior vs the face-count boundary measure.

    The discrete mirror of 'total curvature mass is at most the boundary
    area' holds against the face measure of the discrete boundary, which is
    the natural length the flux bound |F| < 1 sums against.
    """
    dens = h1_density(u).values
    have = mask.interior & ~np.isnan(dens)
    total = float(dens[have].sum() * u.grid.cell_volume)
    # every face between an interior and a non-interior cell, counted once
    faces = _interior_face_count(mask)[~mask.interior].sum()
    return total, float(faces) * u.grid.h ** (u.grid.n - 1)
