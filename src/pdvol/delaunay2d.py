"""Planar ground truth: Poisson points, their Delaunay triangulation, and
weighted typical-cell estimators read directly off the tessellation.

This is the one module that exercises the model's definition itself (empty
circumdisks over a Poisson process) rather than formulas derived from it.
The triangulation kernel is Qhull (scipy.spatial.Delaunay); everything that
carries statistical meaning on top of it is built and audited here:

* toroidal mode realizes the stationary tessellation with no edge effects
  (exactly 2N triangles): it cuts the fundamental domain into up to four
  vertical strips, triangulates each strip with the images of the points
  within a margin of it (across the seams), and keeps the triangles whose
  circumcenter falls in the strip.  The strips run one Qhull call each: the
  trailing strips' calls run on the package's helper thread
  (``specfun._helper``) while the calling thread runs the leading ones' and
  then everything else; scipy's Qhull releases the GIL.  How many strips
  there are depends on the points and the side alone, and the result is the
  same bit for bit on one CPU or two;
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

from . import specfun
from .errors import ConvergenceError, DomainError, check_integer, check_real, check_real_array, refusing_fp_errors

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
        object.__setattr__(self, "side", check_real("SimWindow", "side", self.side, above=0.0))
        if self.mode not in ("plain", "toroidal"):
            raise DomainError("SimWindow: mode must be 'plain' or 'toroidal'")
        # a guard in [0, side/2) in plain mode; toroidal mode has none
        below, most = (self.side / 2.0, None) if self.mode == "plain" else (None, 0.0)
        guard = check_real("SimWindow", "guard", self.guard, least=0.0, most=most, below=below)
        object.__setattr__(self, "guard", guard)


@dataclass
class Triangulation:
    """Triangles of a Delaunay tessellation with per-cell circumdata.

    vertices holds indices into the original point set; periods, int8 of
    shape (m, 3, 2), each vertex's period offset (dx, dy) in {-1, 0, 1} on
    the torus, so that its image is points[vertex] + side * (dx, dy), and 0 in
    plain mode; centers the circumcenters (canonical representatives in
    [0, side)^2 on the torus).
    """

    points: np.ndarray
    mode: str
    side: Optional[float]
    vertices: np.ndarray
    periods: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    areas: np.ndarray

    @property
    def n_triangles(self) -> int:
        return len(self.vertices)

    @property
    def coords(self) -> np.ndarray:
        """The triangles' vertex coordinates, (m, 3, 2): the images of their
        points on the torus, which may lie outside [0, side)^2."""
        if self.mode == "plain":
            return self.points[self.vertices]
        return self.points[self.vertices] + self.side * self.periods


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
    gamma = check_real("sample_poisson_points", "gamma", gamma, above=0.0)
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


def _check_input_points(points, side):
    points = check_real_array("delaunay_triangulate", "points", points, least=None if side is None else 0.0, below=side)
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
    """Qhull's Delaunay triangulation of points."""
    from scipy.spatial import Delaunay, QhullError

    try:
        return Delaunay(points)
    except QhullError as exc:
        raise DomainError(f"delaunay_triangulate: degenerate input ({exc})") from exc


#: the most strips a torus is cut into, and the least strip width in
#: margins: the margins on either side of a strip then add at most a quarter
#: to its width
_STRIPS = 4
_STRIP_WIDTH = 8.0


def _images(points, side: float, margin: float, lo: float, hi: float):
    """The images p + side (dx, dy) of the points, dx and dy in (-1, 0, 1),
    that fall within margin of the strip [lo, hi) x [0, side); each image's
    index into points; and its period (dx, dy), as int8."""
    x, y = points[:, 0], points[:, 1]
    index, period = [], []
    for dx in (-1, 0, 1):
        column = np.flatnonzero((x + dx * side > lo - margin) & (x + dx * side < hi + margin))
        for dy in (-1, 0, 1):
            image = y[column] + dy * side
            index.append(column[(image > -margin) & (image < side + margin)])
            period.append(np.full((len(index[-1]), 2), (dx, dy), dtype=np.int8))
    index, period = np.concatenate(index), np.concatenate(period)
    return points[index] + side * period, index, period


def _canonical(simplices, mapping, ext):
    """Each triangle's ext-indices reordered to start at the vertex opposite
    its longest edge (of those, the one of least point index) and to turn
    counterclockwise.  Its circumdata then depend on the triangle alone, not
    on Qhull's rotation, and its area is the cross product of its two shorter
    edges, the most accurate of the three: against exact arithmetic on the
    quick report's 2e4-point torus the areas' RMS relative error is 6.5e-17
    (8.7e-17 in Qhull's rotation) and the largest 2.4e-16 (5.3e-15)."""
    x, y = ext[simplices, 0], ext[simplices, 1]
    # squared length of the edge opposite each vertex, the same bits in
    # either direction and rotation
    opposite = np.stack([(x[:, j] - x[:, k]) ** 2 + (y[:, j] - y[:, k]) ** 2 for j, k in ((1, 2), (2, 0), (0, 1))], 1)
    longest = opposite == opposite.max(axis=1, keepdims=True)
    first = np.where(longest, mapping[simplices], np.iinfo(mapping.dtype).max).argmin(axis=1)
    order = (first[:, None] + np.arange(3)) % 3
    simplices, x, y = (np.take_along_axis(v, order, axis=1) for v in (simplices, x, y))
    clockwise = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]) < 0.0
    simplices[clockwise, 1:] = simplices[clockwise, :0:-1]
    return simplices


def _strip(points, side: float, lo: float, hi: float, margin: float, images, simplices):
    """The torus triangles whose circumcenter lies in the strip
    [lo, hi) x [0, side), as (vertices, periods, centers, radii, areas),
    from Qhull's ``simplices`` over the ``images`` within margin of the strip
    (``_images``).  While a kept circumdisk does not fit inside the margin,
    the margin doubles, up to three times, and Qhull runs again."""
    for attempt in range(4):
        if attempt:
            margin = min(2.0 * margin, side / 2.001)
            images = _images(points, side, margin, lo, hi)
            simplices = _qhull(images[0]).simplices
        ext, mapping, period = images
        simplices = _canonical(simplices, mapping, ext)
        centers, radii, areas = _circumdata(ext[simplices])
        keep = (centers[:, 0] >= lo) & (centers[:, 0] < hi) & (centers[:, 1] >= 0.0) & (centers[:, 1] < side)
        if np.max(radii[keep], initial=0.0) < margin:
            kept = simplices[keep]
            return mapping[kept], period[kept], centers[keep], radii[keep], areas[keep]
    raise ConvergenceError("delaunay_triangulate: replication margin failed to cover the circumdisks")


def _torus(points, side: float):
    """(vertices, periods, centers, radii, areas) of the torus triangulation,
    stitched from its strips (``_strip``).  The strips' first Qhull calls are
    split by ``specfun._split``: the helper thread runs those of the trailing
    strips while the calling thread runs the leading ones.  The helper runs
    nothing else, so the strips' arrays reuse the calling thread's heap: with
    whole strips on the helper, its heap kept them, and the full report's
    peak RSS read 153 MB in 3 of 4 runs, against 137-140 MB."""
    margin = _toroidal_margin(len(points), side)
    count = max(1, min(_STRIPS, int(side / (_STRIP_WIDTH * margin))))
    edges = np.linspace(0.0, side, count + 1).tolist()
    images = [_images(points, side, margin, edges[k], edges[k + 1]) for k in range(count)]

    def qhull(first, last):
        return [_qhull(images[k][0]).simplices for k in range(first, last)]

    simplices = [part for half in specfun._split(qhull, count) for part in half] if count > 1 else qhull(0, 1)
    parts = [_strip(points, side, edges[k], edges[k + 1], margin, images[k], simplices[k]) for k in range(count)]
    fields = [np.concatenate(field) for field in zip(*parts)]
    if len(fields[0]) != 2 * len(points):
        raise ConvergenceError(
            f"delaunay_triangulate: the strips stitch {len(fields[0])} triangles for {len(points)} points, not 2N"
        )
    return fields


def delaunay_triangulate(points, mode: str = "plain", side: Optional[float] = None) -> Triangulation:
    """Delaunay triangulation with per-triangle circumdata.

    mode='plain' triangulates the points as given (convex hull cover) in one
    Qhull call and, given a side, refuses points outside [0, side)^2 and
    records the side.  mode='toroidal' treats [0, side)^2 as a torus: it cuts
    the square into up to four vertical strips, as many as keep each strip
    at least eight margins wide, and triangulates each strip with the images
    of the points within a margin of it (across the seams), keeping the
    triangles whose circumcenter lies in the strip.  Each strip verifies post
    hoc that every kept circumdisk fits inside its margin; the margin comes in
    closed form from the typical cell's circumradius law and doubles, up to
    three times, when one does not.  Delaunay triangles are unique, so the
    strips give each torus triangle once, whichever strips and threads
    computed them; a stitched count other than 2N raises ConvergenceError.
    A torus triangle's vertices start at the vertex opposite its longest
    edge and turn counterclockwise, so its circumdata depend on the triangle
    alone.
    """
    if mode not in ("plain", "toroidal"):
        raise DomainError("delaunay_triangulate: mode must be 'plain' or 'toroidal'")
    if side is None and mode == "toroidal":
        raise DomainError("delaunay_triangulate: toroidal mode needs the window side")
    if side is not None:
        side = check_real("delaunay_triangulate", "side", side, above=0.0)
    points = _check_input_points(points, side)
    if mode == "plain":
        vertices = _qhull(points).simplices
        periods = np.zeros((*vertices.shape, 2), dtype=np.int8)
        centers, radii, areas = _circumdata(points[vertices])
        if not np.all(np.isfinite(radii)):
            raise DomainError("delaunay_triangulate: exactly degenerate triangle in the output")
    else:
        vertices, periods, centers, radii, areas = _torus(points, side)
    return Triangulation(points, mode, side, vertices, periods, centers, radii, areas)


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
    mu = check_real("estimate_typical_moment", "mu", mu, above=-2.0)
    s = check_real("estimate_typical_moment", "s", s)
    # V^(mu+1) and V^(mu+1+s) overflow, or all underflow, at extreme mu and s
    with refusing_fp_errors("estimate_typical_moment", "a weighted sum over the cells"):
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
    mu = check_real("estimate_radius_cdf", "mu", mu, above=-2.0)
    t_grid = check_real_array("estimate_radius_cdf", "t_grid", t_grid, least=0.0, most=math.inf)
    with refusing_fp_errors("estimate_radius_cdf", "a weighted sum over the cells"):
        sel, w, ess = _weighted_cells(tri, window, mu, "estimate_radius_cdf")
        r = tri.radii[sel]
        order = np.argsort(r)
        r_sorted = r[order]
        cum = np.cumsum(w[order])
        total = cum[-1]
        idx = np.searchsorted(r_sorted, t_grid, side="right")
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
    hi's image relative to lo's, read off ``periods``, which separates
    distinct seam-crossing edges between the same two points.  A torus
    record whose periods are not integers in {-1, 0, 1} is refused."""
    m, vertices, periods = tri.n_triangles, tri.vertices, tri.periods
    torus = tri.mode == "toroidal"
    if torus and not (periods.dtype.kind == "i" and periods.min(initial=0) >= -1 and periods.max(initial=0) <= 1):
        raise DomainError("edge_incidence_counts: a vertex's period offset is not an integer in {-1, 0, 1}")
    # keys = lo * len(points) + hi, then on the torus key * 25 + 5 sx + sy + 12
    # for the offsets sx, sy in [-2, 2] from lo to hi, formed pair by pair
    digits = periods[:, :, 0] * 5 + periods[:, :, 1] if torus else None
    keys = np.empty(3 * m, dtype=np.int64)
    for p, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        vi, vj, key = vertices[:, i], vertices[:, j], keys[p * m : (p + 1) * m]
        np.minimum(vi, vj, out=key)
        key *= len(tri.points)
        key += np.maximum(vi, vj)
        if torus:
            step = digits[:, j] - digits[:, i]
            step *= (vi < vj).astype(np.int8) * 2 - 1  # offsets run from lo to hi
            key *= 25
            key += step
            key += 12
    # sorted, equal keys form runs; their lengths are the incidence counts
    keys.sort()
    change = np.empty(keys.size, dtype=bool)
    change[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    del change
    return np.sort(np.diff(starts, append=keys.size))
