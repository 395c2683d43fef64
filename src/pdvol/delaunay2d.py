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
from scipy.special import lambertw

from .errors import ConvergenceError, DomainError, check_integer

__all__ = [
    "SimWindow",
    "Triangulation",
    "TypicalCellEstimate",
    "sample_poisson_points",
    "delaunay_triangulate",
    "estimate_typical_moment",
    "estimate_radius_cdf",
    "audit_empty_circumdisk",
    "tiling_defect",
    "edge_incidence_counts",
]

@dataclass(frozen=True)
class SimWindow:
    """Square observation window of the given side; guard is the margin
    excluded by minus-sampling (plain mode only, toroidal needs none)."""

    side: float
    guard: float = 0.0
    mode: str = "plain"

    def __post_init__(self):
        if not 0.0 < self.side < math.inf:
            raise DomainError("SimWindow: side must be positive and finite")
        if self.mode not in ("plain", "toroidal"):
            raise DomainError("SimWindow: mode must be 'plain' or 'toroidal'")
        if not 0.0 <= self.guard < self.side / 2.0:
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
    # probability: the typical cell's radius law at the empirical intensity
    # gamma gives P(R > r) = (1 + x) e^(-x) with x = gamma pi r^2, so
    # 2N P(R > r) = 1e-3 has the closed form 1 + x = -W_{-1}(-1e-3 / (2N e));
    # the radius is capped at side/4, then padded by 30%
    gamma_hat = max(n_points / side**2, 1e-12)
    x = -lambertw(-1e-3 / (2.0 * n_points * math.e), -1).real - 1.0
    return 1.3 * min(math.sqrt(x / (gamma_hat * math.pi)), side / 4.0)


def _qhull(points):
    """Qhull's Delaunay triangulation of points, each triangle's coordinates
    (m, 3, 2), and their circumcenters, circumradii and areas."""
    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(points)
    except QhullError as exc:
        raise DomainError(f"delaunay_triangulate: degenerate input ({exc})") from exc
    coords = points[tri.simplices]
    return tri, coords, *_circumdata(coords)


def _images(points, side: float, margin: float):
    """The points followed by their images under the 8 nonzero period offsets
    (dx, dy), dx and dy in (-1, 0, 1) in that order, that fall within margin
    of [0, side)^2; and each row's index into points."""
    offsets = side * np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy], dtype=float)
    shifted = points + offsets[:, None, :]
    which, idx = np.nonzero(np.all((shifted > -margin) & (shifted < side + margin), axis=2))
    return np.concatenate([points, shifted[which, idx]]), np.concatenate([np.arange(len(points)), idx])


def delaunay_triangulate(points, mode: str = "plain", side: Optional[float] = None) -> Triangulation:
    """Delaunay triangulation with per-triangle circumdata.

    mode='plain' triangulates the points as given (convex hull cover) and,
    given a side, refuses points outside [0, side)^2 and records the side;
    mode='toroidal' treats [0, side)^2 as a torus by replicating a margin of
    points across the seam, keeping each torus triangle once (circumcenter in
    the fundamental domain) and verifying post hoc that every kept circumdisk
    fits inside the replicated region.  The margin comes in closed form from
    the typical cell's circumradius law and doubles, up to three times, when
    a circumdisk does not fit.
    """
    points = _check_input_points(points)
    if mode not in ("plain", "toroidal"):
        raise DomainError("delaunay_triangulate: mode must be 'plain' or 'toroidal'")
    if side is None and mode == "toroidal":
        raise DomainError("delaunay_triangulate: toroidal mode needs the window side")
    if side is not None:
        if not side > 0:
            raise DomainError("delaunay_triangulate: the window side must be positive")
        if np.any(points < 0.0) or np.any(points >= side):
            raise DomainError("delaunay_triangulate: points must lie in [0, side)")
    if mode == "plain":
        tri, coords, centers, radii, areas = _qhull(points)
        if not np.all(np.isfinite(radii)):
            raise DomainError("delaunay_triangulate: exactly degenerate triangle in the output")
        vertices = tri.simplices
        hull_size = len(np.unique(tri.convex_hull))
    else:
        margin = _toroidal_margin(len(points), side)
        for _ in range(4):
            ext_points, mapping = _images(points, side, margin)
            tri, coords, centers, radii, areas = _qhull(ext_points)
            keep = np.all((centers >= 0.0) & (centers < side), axis=1)
            if np.max(radii[keep], initial=0.0) < margin:
                break
            margin = min(2.0 * margin, side / 2.001)
        else:
            raise ConvergenceError("delaunay_triangulate: replication margin failed to cover the circumdisks")
        vertices, hull_size = mapping[tri.simplices[keep]], 0
        coords, centers, radii, areas = coords[keep], centers[keep], radii[keep], areas[keep]
    return Triangulation(
        points=points,
        mode=mode,
        side=side,
        vertices=vertices,
        coords=coords,
        centers=centers,
        radii=radii,
        areas=areas,
        hull_size=hull_size,
    )


def _weighted_cells(tri: Triangulation, window: SimWindow, mu: float, caller: str):
    """The cells that enter the estimators, as a mask over the triangles (all
    of them on the torus, those with circumcenter in the guarded window in
    plain mode), their weights W = V^(mu+1) and the effective sample size
    (sum W)^2 / sum W^2.  Refuses a window of another mode than the
    triangulation, or of another side than the one it records, and fewer
    than 100 cells."""
    if window.mode != tri.mode:
        raise DomainError(f"{caller}: a {window.mode} window does not match a {tri.mode} triangulation")
    if tri.side is not None and window.side != tri.side:
        raise DomainError(f"{caller}: window side {window.side:g} is not the triangulation's side {tri.side:g}")
    if tri.mode == "toroidal":
        sel = np.ones(tri.n_triangles, dtype=bool)
    else:
        lo, hi = window.guard, window.side - window.guard
        c = tri.centers
        sel = (c[:, 0] >= lo) & (c[:, 0] <= hi) & (c[:, 1] >= lo) & (c[:, 1] <= hi)
    if sel.sum() < 100:
        raise DomainError(f"{caller}: fewer than 100 cells in the guarded window")
    w = tri.areas[sel] ** (mu + 1.0)
    return sel, w, float(w.sum() ** 2 / np.sum(w * w))


def estimate_typical_moment(tri: Triangulation, window: SimWindow, mu: float, s: float) -> TypicalCellEstimate:
    """Ratio estimator of E V(Z_mu)^s: sum V^(mu+1+s) / sum V^(mu+1) over
    cells with circumcenter in the guarded window.

    The standard error is the linearized ratio-estimator error across a grid
    of spatial blocks (cells grouped by circumcenter); the effective sample
    size is (sum W)^2 / sum W^2 for the weights W = V^(mu+1).
    """
    sel, w, ess = _weighted_cells(tri, window, mu, "estimate_typical_moment")
    centers = tri.centers[sel]
    num = w * tri.areas[sel] ** s
    ratio = float(num.sum() / w.sum())

    nblocks = int(np.clip(math.isqrt(len(w)) // 8, 2, 8))
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
        n_cells=len(w),
        effective_sample_size=ess,
    )


def estimate_radius_cdf(tri: Triangulation, window: SimWindow, mu: float, t_grid):
    """Weighted empirical CDF of the circumradius with weights V^(mu+1),
    evaluated on t_grid.  Returns (values, effective_sample_size)."""
    sel, w, ess = _weighted_cells(tri, window, mu, "estimate_radius_cdf")
    r = tri.radii[sel]
    order = np.argsort(r)
    r_sorted = r[order]
    cum = np.cumsum(w[order])
    total = cum[-1]
    idx = np.searchsorted(r_sorted, np.asarray(t_grid, dtype=float), side="right")
    values = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0) / total
    return values, ess


#: relative predicate tolerance of the empty-circumdisk audit
_AUDIT_TOL = 1e-9


def audit_empty_circumdisk(tri: Triangulation, n_audits: int, rng: np.random.Generator) -> int:
    """Count audited triangles whose open circumdisk strictly contains a
    point beyond the predicate tolerance: a point nearer to the circumcenter
    than radius * (1 - _AUDIT_TOL).  Should be zero.

    The nearest points come from a KD-tree of the points alone, independent
    of Qhull's output; on the torus the tree is periodic, so distances are
    minimum-image.  A triangle's own vertices lie at distance radius and never
    count."""
    n_audits = check_integer("audit_empty_circumdisk", "n_audits", n_audits, 0)
    from scipy.spatial import cKDTree

    tree = cKDTree(tri.points, boxsize=tri.side if tri.mode == "toroidal" else None)
    m = tri.n_triangles
    chosen = rng.choice(m, size=min(n_audits, m), replace=False)
    nearest, _ = tree.query(tri.centers[chosen], k=1)
    return int(np.count_nonzero(nearest < tri.radii[chosen] * (1.0 - _AUDIT_TOL)))


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
    # keys = lo * len(points) + hi, formed in place
    keys = np.minimum(vi, vj)
    keys *= len(tri.points)
    keys += np.maximum(vi, vj)
    flip = vi > vj  # offsets run from lo to hi
    del vi, vj
    if tri.mode == "toroidal":
        image = np.take(tri.points, tri.vertices, axis=0)
        np.subtract(tri.coords, image, out=image)
        image /= tri.side
        np.rint(image, out=image)
        half = 2 * int(max(image.max(), -image.min()))
        dx, dy = (
            np.concatenate([image[:, j, a] - image[:, i, a] for i, j in pairs]).astype(np.int64) for a in (0, 1)
        )
        del image
        np.negative(dx, out=dx, where=flip)
        np.negative(dy, out=dy, where=flip)
        width = 2 * half + 1
        keys *= width
        keys += dx + half
        keys *= width
        keys += dy + half
    # sorted, equal keys form runs; their lengths are the incidence counts
    keys.sort()
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[: keys.size])
    return np.sort(np.diff(starts, append=keys.size))
