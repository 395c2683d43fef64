"""Planar ground truth: Poisson points, their Delaunay triangulation, and
weighted typical-cell estimators read directly off the tessellation.

This is the one module that exercises the model's definition itself (empty
circumdisks over a Poisson process) rather than formulas derived from it.
The triangulation kernel is Qhull (scipy.spatial.Delaunay); everything that
carries statistical meaning on top of it is built and audited here:

* toroidal mode replicates a margin of points across the seam and keeps the
  triangles whose circumcenter falls in the fundamental domain, realizing
  the stationary tessellation with no edge effects (exactly 2N triangles);
* plain mode keeps the convex-hull triangulation and corrects edges by
  minus-sampling (only cells whose circumcenter lies in a guarded window
  enter the estimators);
* the weighted typical-cell moment is the self-normalizing ratio
  sum V^(mu+1+s) / sum V^(mu+1) over selected cells, with block-resampled
  standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaincc

from .errors import ConvergenceError, DomainError

__all__ = [
    "SimWindow",
    "Triangulation",
    "TypicalCellEstimate",
    "sample_poisson_points",
    "circumcircle",
    "delaunay_triangulate",
    "estimate_typical_moment",
    "estimate_radius_cdf",
    "audit_empty_circumdisk",
    "tiling_defect",
    "edge_incidence_counts",
]

_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class SimWindow:
    """Square observation window of the given side; guard is the margin
    excluded by minus-sampling (plain mode only, toroidal needs none)."""

    side: float
    guard: float = 0.0
    mode: str = "plain"

    def __post_init__(self):
        if not self.side > 0:
            raise DomainError("SimWindow: side must be positive")
        if self.mode not in ("plain", "toroidal"):
            raise DomainError("SimWindow: mode must be 'plain' or 'toroidal'")
        if self.guard < 0 or self.guard >= self.side / 2.0:
            raise DomainError("SimWindow: guard must lie in [0, side/2)")
        if self.mode == "toroidal" and self.guard != 0.0:
            raise DomainError("SimWindow: toroidal mode has no guard")


@dataclass
class Triangulation:
    """Triangles of a Delaunay tessellation with per-cell circumdata.

    vertices holds indices into the original point set; coords the actual
    triangle coordinates (shifted copies on the torus); centers the
    circumcenters (canonical representatives in [0, side)^2 on the torus).
    """

    points: np.ndarray
    mode: str
    side: Optional[float]
    vertices: np.ndarray
    coords: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    areas: np.ndarray
    hull_size: int = 0

    @property
    def n_triangles(self) -> int:
        return len(self.vertices)


@dataclass
class TypicalCellEstimate:
    mu: float
    s: float
    estimate: float
    std_error: float
    n_cells: int
    effective_sample_size: float


def sample_poisson_points(gamma: float, window: SimWindow, rng: np.random.Generator) -> np.ndarray:
    """Poisson(gamma * side^2) points placed uniformly in the window."""
    if not gamma > 0:
        raise DomainError("sample_poisson_points: gamma must be positive")
    expected = gamma * window.side**2
    if expected < 100:
        raise DomainError("sample_poisson_points: expected count below 100 is too sparse")
    if expected > 1e8:
        raise DomainError("sample_poisson_points: expected count above 1e8 exceeds the resource budget")
    count = rng.poisson(expected)
    return rng.uniform(0.0, window.side, size=(count, 2))


def circumcircle(p, q, r):
    """Circumcenter and circumradius of the triangle (p, q, r).

    Raises for (near-)collinear input instead of returning a huge circle:
    the determinant is compared against a relative degeneracy tolerance.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    d = 2.0 * ((p[0] - r[0]) * (q[1] - r[1]) - (q[0] - r[0]) * (p[1] - r[1]))
    scale = max(np.max(np.abs(np.vstack([p - r, q - r]))), 1e-300) ** 2
    if abs(d) <= _DEGENERACY_TOL * scale:
        raise DomainError("circumcircle: points are collinear or nearly so")
    p2 = np.dot(p - r, p - r)
    q2 = np.dot(q - r, q - r)
    cx = r[0] + ((q[1] - r[1]) * p2 - (p[1] - r[1]) * q2) / d
    cy = r[1] + ((p[0] - r[0]) * q2 - (q[0] - r[0]) * p2) / d
    center = np.array([cx, cy])
    return center, float(np.linalg.norm(p - center))


def _circumdata(coords):
    """Vectorized circumcenters, radii and areas for coords (m, 3, 2)."""
    a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
    d = 2.0 * ((a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1]) - (b[:, 0] - c[:, 0]) * (a[:, 1] - c[:, 1]))
    a2 = ((a - c) ** 2).sum(axis=1)
    b2 = ((b - c) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ux = c[:, 0] + ((b[:, 1] - c[:, 1]) * a2 - (a[:, 1] - c[:, 1]) * b2) / d
        uy = c[:, 1] + ((a[:, 0] - c[:, 0]) * b2 - (b[:, 0] - c[:, 0]) * a2) / d
    centers = np.stack([ux, uy], axis=1)
    radii = np.linalg.norm(a - centers, axis=1)
    areas = 0.5 * np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    )
    return centers, radii, areas


def _check_input_points(points):
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DomainError("delaunay_triangulate: points must be an (N, 2) array")
    if len(points) < 3:
        raise DomainError("delaunay_triangulate: need at least 3 points")
    ordered = points[np.lexsort((points[:, 1], points[:, 0]))]
    if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
        raise DomainError("delaunay_triangulate: duplicate points")
    return points


def _toroidal_margin(n_points: int, side: float) -> float:
    # margin exceeding the largest circumradius among ~2N cells with high
    # probability: solve 2N * P(R > r) = 1e-3 for the radius law of the
    # typical cell at the empirical intensity, then pad by 30%
    from scipy.optimize import brentq

    gamma_hat = max(n_points / side**2, 1e-12)

    def excess(r):
        return 2.0 * n_points * gammaincc(2.0, gamma_hat * math.pi * r * r) - 1e-3

    hi = side / 4.0
    r_star = brentq(excess, 1e-9, hi) if excess(hi) < 0 else hi
    return min(1.3 * r_star, side / 3.0)


def delaunay_triangulate(points, mode: str = "plain", side: Optional[float] = None) -> Triangulation:
    """Delaunay triangulation with per-triangle circumdata.

    mode='plain' triangulates the points as given (convex hull cover);
    mode='toroidal' treats [0, side)^2 as a torus by replicating a margin of
    points across the seam, keeping each torus triangle once (circumcenter in
    the fundamental domain) and verifying post hoc that every kept circumdisk
    fits inside the replicated region.
    """
    from scipy.spatial import Delaunay, QhullError

    points = _check_input_points(points)
    if mode == "plain":
        try:
            tri = Delaunay(points)
        except QhullError as exc:
            raise DomainError(f"delaunay_triangulate: degenerate input ({exc})") from exc
        simplices = tri.simplices
        coords = points[simplices]
        centers, radii, areas = _circumdata(coords)
        if not np.all(np.isfinite(radii)):
            raise DomainError("delaunay_triangulate: exactly degenerate triangle in the output")
        return Triangulation(
            points=points,
            mode="plain",
            side=side,
            vertices=simplices,
            coords=coords,
            centers=centers,
            radii=radii,
            areas=areas,
            hull_size=len(np.unique(tri.convex_hull)),
        )
    if mode != "toroidal":
        raise DomainError("delaunay_triangulate: mode must be 'plain' or 'toroidal'")
    if side is None or not side > 0:
        raise DomainError("delaunay_triangulate: toroidal mode needs the window side")
    if np.any(points < 0.0) or np.any(points >= side):
        raise DomainError("delaunay_triangulate: toroidal points must lie in [0, side)")

    n = len(points)
    margin = _toroidal_margin(n, side)
    for _ in range(4):
        ext = [points]
        orig = [np.arange(n)]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if (dx, dy) == (0, 0):
                    continue
                shifted = points + np.array([dx * side, dy * side])
                inside = (
                    (shifted[:, 0] > -margin)
                    & (shifted[:, 0] < side + margin)
                    & (shifted[:, 1] > -margin)
                    & (shifted[:, 1] < side + margin)
                )
                ext.append(shifted[inside])
                orig.append(np.nonzero(inside)[0])
        ext_points = np.vstack(ext)
        mapping = np.concatenate(orig)
        try:
            tri = Delaunay(ext_points)
        except QhullError as exc:
            raise DomainError(f"delaunay_triangulate: degenerate input ({exc})") from exc
        coords = ext_points[tri.simplices]
        centers, radii, areas = _circumdata(coords)
        keep = (
            (centers[:, 0] >= 0.0)
            & (centers[:, 0] < side)
            & (centers[:, 1] >= 0.0)
            & (centers[:, 1] < side)
        )
        if np.max(radii[keep], initial=0.0) < margin:
            return Triangulation(
                points=points,
                mode="toroidal",
                side=side,
                vertices=mapping[tri.simplices[keep]],
                coords=coords[keep],
                centers=centers[keep],
                radii=radii[keep],
                areas=areas[keep],
            )
        margin = min(2.0 * margin, side / 2.001)
    raise ConvergenceError("delaunay_triangulate: replication margin failed to cover the circumdisks")


def _selected(tri: Triangulation, window: SimWindow):
    if tri.mode == "toroidal":
        return np.ones(tri.n_triangles, dtype=bool)
    g = window.guard
    c = tri.centers
    return (c[:, 0] >= g) & (c[:, 0] <= window.side - g) & (c[:, 1] >= g) & (c[:, 1] <= window.side - g)


def estimate_typical_moment(tri: Triangulation, window: SimWindow, mu: float, s: float) -> TypicalCellEstimate:
    """Ratio estimator of E V(Z_mu)^s: sum V^(mu+1+s) / sum V^(mu+1) over
    cells with circumcenter in the guarded window.

    The standard error is the linearized ratio-estimator error across a grid
    of spatial blocks (cells grouped by circumcenter); the effective sample
    size is (sum W)^2 / sum W^2 for the weights W = V^(mu+1).
    """
    sel = _selected(tri, window)
    if sel.sum() < 100:
        raise DomainError("estimate_typical_moment: fewer than 100 cells in the guarded window")
    v = tri.areas[sel]
    centers = tri.centers[sel]
    w = v ** (mu + 1.0)
    num = w * v**s
    ratio = float(num.sum() / w.sum())
    ess = float(w.sum() ** 2 / np.sum(w * w))

    nblocks = int(np.clip(math.isqrt(int(sel.sum())) // 8, 2, 8))
    lo, hi = window.guard, window.side - window.guard
    ix = np.clip(((centers[:, 0] - lo) / (hi - lo) * nblocks).astype(int), 0, nblocks - 1)
    iy = np.clip(((centers[:, 1] - lo) / (hi - lo) * nblocks).astype(int), 0, nblocks - 1)
    block = ix * nblocks + iy
    nb = nblocks * nblocks
    num_b = np.bincount(block, weights=num, minlength=nb)
    den_b = np.bincount(block, weights=w, minlength=nb)
    resid = num_b - ratio * den_b
    se = float(math.sqrt(nb / (nb - 1.0) * np.sum(resid**2)) / w.sum())
    return TypicalCellEstimate(
        mu=mu,
        s=s,
        estimate=ratio,
        std_error=max(se, 1e-300),
        n_cells=int(sel.sum()),
        effective_sample_size=ess,
    )


def estimate_radius_cdf(tri: Triangulation, window: SimWindow, mu: float, t_grid):
    """Weighted empirical CDF of the circumradius with weights V^(mu+1),
    evaluated on t_grid.  Returns (values, effective_sample_size)."""
    sel = _selected(tri, window)
    if sel.sum() < 100:
        raise DomainError("estimate_radius_cdf: fewer than 100 cells in the guarded window")
    r = tri.radii[sel]
    w = tri.areas[sel] ** (mu + 1.0)
    order = np.argsort(r)
    r_sorted = r[order]
    cum = np.cumsum(w[order])
    total = cum[-1]
    idx = np.searchsorted(r_sorted, np.asarray(t_grid, dtype=float), side="right")
    values = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0) / total
    ess = float(w.sum() ** 2 / np.sum(w * w))
    return values, ess


def audit_empty_circumdisk(tri: Triangulation, n_audits: int, rng: np.random.Generator, tol: float = 1e-9) -> int:
    """Count audited triangles whose open circumdisk strictly contains a
    point beyond the predicate tolerance: a point nearer to the circumcenter
    than radius * (1 - tol).  Should be zero.

    The nearest points come from a KD-tree of the points alone, independent
    of Qhull's output; on the torus the tree is periodic, so distances are
    minimum-image.  A triangle's own vertices lie at distance radius and never
    count."""
    from scipy.spatial import cKDTree

    tree = cKDTree(tri.points, boxsize=tri.side if tri.mode == "toroidal" else None)
    m = tri.n_triangles
    chosen = rng.choice(m, size=min(n_audits, m), replace=False)
    nearest, _ = tree.query(tri.centers[chosen], k=1)
    return int(np.count_nonzero(nearest < tri.radii[chosen] * (1.0 - tol)))


def tiling_defect(tri: Triangulation) -> float:
    """Relative gap between the summed triangle areas and the area they must
    tile: side^2 on the torus, the convex hull area in plain mode."""
    total = float(tri.areas.sum())
    if tri.mode == "toroidal":
        target = tri.side**2
    else:
        hull_pts = tri.points[np.unique(tri.vertices)]
        from scipy.spatial import ConvexHull

        target = ConvexHull(hull_pts).volume
    return abs(total - target) / target


def edge_incidence_counts(tri: Triangulation) -> np.ndarray:
    """Multiset of edge incidence counts.  Interior edges must appear exactly
    twice (plain mode additionally has hull edges appearing once).  An edge is
    keyed by its vertex ids (lo, hi) plus, on the torus, the period offset of
    hi's image relative to lo's, which separates distinct seam-crossing edges
    between the same two points; the offsets come from ``coords`` and
    ``points`` alone."""
    pairs = ((0, 1), (1, 2), (2, 0))
    vi = np.concatenate([tri.vertices[:, i] for i, _ in pairs]).astype(np.int64)
    vj = np.concatenate([tri.vertices[:, j] for _, j in pairs]).astype(np.int64)
    lo, hi = np.minimum(vi, vj), np.maximum(vi, vj)
    keys = lo * len(tri.points) + hi
    if tri.mode == "toroidal":
        image = np.rint((tri.coords - np.take(tri.points, tri.vertices, axis=0)) / tri.side).astype(np.int64)
        dx, dy = (np.concatenate([image[:, j, a] - image[:, i, a] for i, j in pairs]) for a in (0, 1))
        sign = np.where(vi > vj, -1, 1)  # offsets run from lo to hi
        dx *= sign
        dy *= sign
        half = 2 * int(np.abs(image).max())
        width = 2 * half + 1
        keys = (keys * width + dx + half) * width + dy + half
    _, counts = np.unique(keys, return_counts=True)
    return np.sort(counts)
