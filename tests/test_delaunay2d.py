import dataclasses
import hashlib
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

import pdvol.delaunay2d as dl
import pdvol.specfun as specfun
from pdvol.delaunay2d import (
    SimWindow,
    Triangulation,
    audit_empty_circumdisk,
    delaunay_triangulate,
    edge_incidence_counts,
    estimate_radius_cdf,
    estimate_typical_moment,
    sample_poisson_points,
    tiling_defect,
    _toroidal_margin,
)
from pdvol.errors import ConvergenceError, DomainError
from pdvol.exactlaw import ModelParams, radius_cdf, volume_moment
from pdvol.sampling import DEFAULT_SEED, RngStream


def rng(sid=0):
    return RngStream(20260810, sid).generator()


def test_sim_window_validation():
    SimWindow(100.0, 10.0, "plain")
    SimWindow(100.0, 0.0, "toroidal")
    with pytest.raises(DomainError):
        SimWindow(0.0)
    with pytest.raises(DomainError):
        SimWindow(100.0, 60.0)
    with pytest.raises(DomainError):
        SimWindow(100.0, 5.0, "toroidal")
    with pytest.raises(DomainError):
        SimWindow(100.0, 0.0, "weird")


@pytest.mark.parametrize("side, guard", [(math.inf, 0.0), (math.nan, 0.0), (100.0, math.nan), (100.0, math.inf)])
def test_sim_window_refuses_non_finite(side, guard):
    with pytest.raises(DomainError, match=r"^SimWindow: .*\b(side|guard)\b"):
        SimWindow(side, guard)


def test_circumcircle_known_triangles():
    right = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    eq = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    centers, radii, areas = dl._circumdata(np.array([right, eq]))
    assert np.allclose(centers[0], [0.5, 0.5])
    assert radii[0] == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)
    assert areas[0] == pytest.approx(0.5, rel=1e-14)
    assert radii[1] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


def test_poisson_point_counts():
    win = SimWindow(100.0)
    pts = sample_poisson_points(1.0, win, rng(1))
    assert abs(len(pts) - 10**4) < 4.0 * 100.0
    pts = sample_poisson_points(2.0, win, rng(2))
    assert abs(len(pts) - 2 * 10**4) < 4.0 * math.sqrt(2.0) * 100.0
    with pytest.raises(DomainError):
        sample_poisson_points(1.0, SimWindow(5.0), rng(3))
    with pytest.raises(DomainError):
        sample_poisson_points(1.0, SimWindow(2.0e4), rng(3))


def test_minimal_and_degenerate_inputs():
    tri = delaunay_triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert tri.n_triangles == 1
    with pytest.raises(DomainError):
        delaunay_triangulate(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    with pytest.raises(DomainError):
        delaunay_triangulate(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        delaunay_triangulate(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_cocircular_square():
    # both diagonals are valid; the tie is broken deterministically and the
    # weak empty-circumdisk property (boundary allowed) still holds
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tri = delaunay_triangulate(square)
    assert tri.n_triangles == 2
    assert audit_empty_circumdisk(tri, 2, rng(4)) == 0
    again = delaunay_triangulate(square)
    assert np.array_equal(tri.vertices, again.vertices)


def test_plain_triangle_count_and_tiling():
    win = SimWindow(60.0)
    pts = sample_poisson_points(1.0, win, rng(5))
    tri = delaunay_triangulate(pts)
    assert tri.n_triangles == 2 * len(pts) - 2 - len(ConvexHull(pts).vertices)
    assert tiling_defect(tri) < 1e-6
    counts = edge_incidence_counts(tri)
    assert set(np.unique(counts)) == {1, 2}


def test_toroidal_invariants():
    side = math.sqrt(2.0e4)
    win = SimWindow(side, 0.0, "toroidal")
    pts = sample_poisson_points(1.0, win, rng(6))
    tri = delaunay_triangulate(pts, mode="toroidal", side=side)
    assert tri.n_triangles == 2 * len(pts)
    assert tiling_defect(tri) < 1e-6
    assert audit_empty_circumdisk(tri, 1000, rng(7)) == 0
    # circumcenters all canonical and equidistant from their three vertices
    assert np.all((tri.centers >= 0.0) & (tri.centers < side))
    dists = np.linalg.norm(tri.coords - tri.centers[:, None, :], axis=2)
    assert np.max(np.abs(dists - tri.radii[:, None]) / tri.radii[:, None]) < 1e-9
    # triangles per unit area ~ 2 gamma
    z = abs(len(pts) - side * side) / math.sqrt(side * side)
    assert z < 3.0


def test_toroidal_edges_shared_exactly_twice():
    side = 40.0
    win = SimWindow(side, 0.0, "toroidal")
    pts = sample_poisson_points(1.0, win, rng(8))
    tri = delaunay_triangulate(pts, mode="toroidal", side=side)
    counts = edge_incidence_counts(tri)
    assert np.all(counts == 2)


def _digest(tri):
    h = hashlib.sha256()
    for field, dtype in (("vertices", "<i8"), ("coords", "<f8"), ("centers", "<f8"), ("radii", "<f8"),
                         ("areas", "<f8")):
        h.update(np.ascontiguousarray(getattr(tri, field), dtype=dtype).tobytes())
    return h.hexdigest()


_PINNED = [
    ("toroidal", math.sqrt(2.0e4), 20260810, 6, "f8b878211d32e073907deec05b098595c88c4558b7ec68e08d5abd9032c93538"),
    ("toroidal", 40.0, 20260810, 8, "ef784952c6a3b8bc0e1f97c2e61b731609bf3ae59db0d9ad2e51ff280422ab20"),
    ("toroidal", 30.0, 20260810, 17, "f0d1c50d2d7ecc210013173a9cdca1f5b871fc083833e4c82276dd1e9b3e3931"),
    ("toroidal", 30.0, 20260810, 19, "1ed805a99316fb098936a3cf9c8dcc520bdf7acd86ead716f261834552ff65b8"),
    ("toroidal", 200.0, 20260810, 14, "3a06ce9f0fdcd26970dfb9a68d6858f906e880618112afa7238063a34722de90"),
    # the quick report's tessellation-invariants torus
    ("toroidal", math.sqrt(2.0e4), DEFAULT_SEED, 50, "96249387774418f6c3bab89c94d970f179c1ac2f1c1df66e3564c763c8895425"),
    ("plain", 60.0, 20260810, 5, "16a844e82274c746c9664c50ea9d36fefe674366a4cbb9de48e6c64b09e0d589"),
    ("plain", 30.0, 20260810, 15, "764cb1f20d4394d0a1ff0360cbdbab506108f29326a3e9ebb5a53e736059fc43"),
]


@pytest.mark.parametrize("mode, side, seed, sid, digest", _PINNED)
def test_triangulations_pinned(mode, side, seed, sid, digest):
    # sha256 of the triangles and their circumdata: a change to the margin,
    # the Qhull call or the circumdata shows here bit for bit
    pts = sample_poisson_points(1.0, SimWindow(side, 0.0, mode), RngStream(seed, sid).generator())
    tri = delaunay_triangulate(pts, mode=mode, side=side if mode == "toroidal" else None)
    assert _digest(tri) == digest


@pytest.mark.parametrize("side, seed, sid", [case[1:4] for case in _PINNED if case[0] == "toroidal"])
def test_strips_give_the_single_qhull_tessellation(side, seed, sid):
    # the same triangle set as one Qhull call over the whole torus, and each
    # triangle's circumdata bit for bit, whichever strip computed it
    pts = sample_poisson_points(1.0, SimWindow(side, 0.0, "toroidal"), RngStream(seed, sid).generator())
    tri = delaunay_triangulate(pts, mode="toroidal", side=side)
    vertices, *fields = _single_qhull(pts, side)
    keys, expected = _by_triangle(pts, side, vertices, *fields)
    got_keys, got = _by_triangle(pts, side, tri.vertices, tri.coords, tri.centers, tri.radii, tri.areas)
    assert np.array_equal(got_keys, keys) and len(keys) == 2 * len(pts)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
    # each triangle starts at the vertex opposite its longest edge and turns
    # counterclockwise
    (a, b, c) = (tri.coords[:, i] for i in range(3))
    assert np.all(np.sum((b - c) ** 2, axis=1) >= np.maximum(np.sum((c - a) ** 2, axis=1), np.sum((a - b) ** 2, axis=1)))
    assert np.all((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) > (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def test_strips_keep_their_bits_on_one_cpu_and_two(monkeypatch, two_cpus):
    side = math.sqrt(2.0e4)
    pts = sample_poisson_points(1.0, SimWindow(side, 0.0, "toroidal"), rng(6))
    names = []
    qhull = dl._qhull
    monkeypatch.setattr(dl, "_qhull", lambda points: names.append(threading.current_thread().name) or qhull(points))
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(specfun, "_helper_pool", None)
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one_cpu.setattr(os, "cpu_count", lambda: 1)
        threads = set(threading.enumerate())
        one = _digest(delaunay_triangulate(pts, mode="toroidal", side=side))
        assert specfun._helper_pool is None and set(threading.enumerate()) == threads
    # one CPU: every strip on the calling thread; two: the trailing strips on
    # the helper thread
    assert names == [threading.current_thread().name] * 4
    names.clear()
    assert _digest(delaunay_triangulate(pts, mode="toroidal", side=side)) == one == _PINNED[0][-1]
    caller = threading.current_thread().name
    assert names.count(caller) == 2 and len(names) == 4 and all(n.startswith("pdvol") for n in names if n != caller)


@pytest.mark.parametrize("n", [100, 10**3, 10**5, 10**6])
@pytest.mark.parametrize("side", [1.0, 300.0])
def test_toroidal_margin_solves_the_tail_equation(n, side):
    # 2N P(R > r) = 1e-3 at the unpadded radius, P(R > r) = (1 + x) e^(-x)
    r = _toroidal_margin(n, side) / 1.3
    assert r < side / 4.0
    x = n / side**2 * math.pi * r * r
    assert 2.0 * n * (1.0 + x) * math.exp(-x) == pytest.approx(1e-3, rel=1e-12)


@pytest.mark.parametrize("side", [1.0, math.sqrt(3.0), 300.0])
def test_toroidal_margin_caps(side):
    # three points put the root beyond side/4, so the radius is capped there;
    # padded by 30% it stays within side/3
    margin = _toroidal_margin(3, side)
    assert margin == 1.3 * (side / 4.0)
    assert margin <= side / 3.0


def _vertex_triples(tri):
    triples = np.sort(tri.vertices, axis=1)
    return triples[np.lexsort(triples.T[::-1])]


def test_toroidal_margin_retry(monkeypatch):
    # a margin below the largest circumradius must fail the post hoc check
    # and double until the circumdisks fit, giving the unpatched result.  The
    # strips' first Qhull calls run on two threads, in any order; each strip's
    # own rounds run in order
    side = 30.0
    pts = sample_poisson_points(1.0, SimWindow(side, 0.0, "toroidal"), rng(17))
    ref = delaunay_triangulate(pts, mode="toroidal", side=side)
    start = 0.3 * ref.radii.max()
    rounds, calls = [], []
    images, qhull = dl._images, dl._qhull
    monkeypatch.setattr(dl, "_toroidal_margin", lambda n, side: start)
    monkeypatch.setattr(dl, "_images", lambda points, side, margin, lo, hi: rounds.append((lo, margin))
                        or images(points, side, margin, lo, hi))
    monkeypatch.setattr(dl, "_qhull", lambda points: calls.append(len(points)) or qhull(points))
    tri = delaunay_triangulate(pts, mode="toroidal", side=side)
    strips = sorted({lo for lo, _ in rounds})
    assert len(strips) == dl._STRIPS and len(calls) == len(rounds) > len(strips)
    for lo in strips:
        margins = [margin for first, margin in rounds if first == lo]
        assert margins == [start * 2.0**k for k in range(len(margins))]
    assert np.array_equal(_vertex_triples(tri), _vertex_triples(ref))
    assert tri.n_triangles == 2 * len(pts)
    assert np.all(edge_incidence_counts(tri) == 2)
    assert audit_empty_circumdisk(tri, tri.n_triangles, rng(18)) == 0


def test_a_stitched_count_other_than_2n_raises(monkeypatch):
    # a strip that loses its last triangle leaves 2N - 1: refused, not returned
    side = math.sqrt(2.0e4)
    pts = sample_poisson_points(1.0, SimWindow(side, 0.0, "toroidal"), rng(6))
    strip = dl._strip
    monkeypatch.setattr(dl, "_strip", lambda *args: tuple(field[:-1] if args[2] == 0.0 else field
                                                          for field in strip(*args)))
    with pytest.raises(ConvergenceError, match="stitch 40095 triangles for 20048 points"):
        delaunay_triangulate(pts, mode="toroidal", side=side)


def _single_qhull(points, side):
    """The torus triangles from one Qhull call over the points and all their
    images within the margin of [0, side)^2, keeping those whose circumcenter
    lies in it, in the package's vertex order: (vertices, coords, centers,
    radii, areas)."""
    margin = _toroidal_margin(len(points), side)
    shifts = side * np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=float)
    images = points + shifts[:, None, :]
    which, index = np.nonzero(np.all((images > -margin) & (images < side + margin), axis=2))
    ext = images[which, index]
    simplices = dl._canonical(Delaunay(ext).simplices, index, ext)
    coords = ext[simplices]
    centers, radii, areas = dl._circumdata(coords)
    keep = np.all((centers >= 0.0) & (centers < side), axis=1)
    assert radii[keep].max() < margin
    return index[simplices[keep]], coords[keep], centers[keep], radii[keep], areas[keep]


def _by_triangle(points, side, vertices, *fields):
    """The fields sorted by each triangle's vertex triple and its vertices'
    period offsets, and those keys."""
    offsets = np.rint((fields[0] - points[vertices]) / side).astype(np.int64).reshape(len(vertices), 6)
    keys = np.concatenate([vertices, offsets], axis=1)
    order = np.lexsort(keys.T[::-1])
    return keys[order], [field[order] for field in fields]


def test_estimators_refuse_a_mismatched_window():
    side = 40.0
    torus = delaunay_triangulate(sample_poisson_points(1.0, SimWindow(side, 0.0, "toroidal"), rng(8)),
                                 mode="toroidal", side=side)
    plain = delaunay_triangulate(sample_poisson_points(1.0, SimWindow(side), rng(5)))
    for tri, win in [(torus, SimWindow(side, 10.0, "plain")), (torus, SimWindow(side / 2.0, 0.0, "toroidal")),
                     (plain, SimWindow(side, 0.0, "toroidal"))]:
        with pytest.raises(DomainError, match="estimate_typical_moment"):
            estimate_typical_moment(tri, win, mu=-1.0, s=1.0)
        with pytest.raises(DomainError, match="estimate_radius_cdf"):
            estimate_radius_cdf(tri, win, -1.0, [1.0])
    # the matching windows are accepted
    estimate_typical_moment(torus, SimWindow(side, 0.0, "toroidal"), mu=-1.0, s=1.0)
    estimate_radius_cdf(plain, SimWindow(side, 10.0, "plain"), -1.0, [1.0])


def test_plain_triangulation_keeps_its_side():
    # a plain triangulation given its window's side records it, refuses points
    # outside [0, side)^2, and refuses an estimator window of another side
    # (a side-240 window read 23 785 cells, hull slivers included, off this
    # side-120 triangulation, against 19 720 with its own window)
    win = SimWindow(120.0, 10.0, "plain")
    pts = sample_poisson_points(1.0, win, RngStream(3, 2).generator())
    tri = delaunay_triangulate(pts, mode="plain", side=120.0)
    assert tri.side == 120.0
    assert delaunay_triangulate(pts, mode="plain").side is None
    with pytest.raises(DomainError, match=r"^delaunay_triangulate: .*\bpoints in \[0\.0, 60\.0\)"):
        delaunay_triangulate(pts, mode="plain", side=60.0)
    with pytest.raises(DomainError, match=r"^delaunay_triangulate: .*\bside > 0\.0"):
        delaunay_triangulate(pts, mode="plain", side=0.0)
    wide = SimWindow(240.0, 10.0, "plain")
    with pytest.raises(DomainError, match="estimate_typical_moment"):
        estimate_typical_moment(tri, wide, mu=-1.0, s=1.0)
    with pytest.raises(DomainError, match="estimate_radius_cdf"):
        estimate_radius_cdf(tri, wide, -1.0, [1.0])
    # its own window gives the values recorded before the side was kept
    est = estimate_typical_moment(tri, win, mu=-1.0, s=1.0)
    assert est.n_cells == 19720
    assert est.estimate == 0.5073830669082765
    assert est.std_error == 0.00486612893839602
    values, ess = estimate_radius_cdf(tri, win, -1.0, [0.3, 0.6, 1.0])
    assert values.tolist() == [0.03159229208924949, 0.30689655172413793, 0.8110040567951319]
    assert ess == 19720.0


def _one_triangle(tri, j, extra_point=None):
    """Triangle j alone, over the same points plus an optional extra point."""
    points = tri.points if extra_point is None else np.vstack([tri.points, extra_point])
    fields = ("vertices", "periods", "centers", "radii", "areas")
    return dataclasses.replace(tri, points=points, **{f: getattr(tri, f)[j : j + 1] for f in fields})


def test_audit_finds_planted_points():
    # plain mode: a point at a circumcenter violates that triangle's disk
    pts = sample_poisson_points(1.0, SimWindow(30.0), rng(15))
    tri = delaunay_triangulate(pts)
    assert audit_empty_circumdisk(tri, tri.n_triangles, rng(16)) == 0
    assert audit_empty_circumdisk(_one_triangle(tri, 0), 1, rng(16)) == 0
    assert audit_empty_circumdisk(_one_triangle(tri, 0, tri.centers[0]), 1, rng(16)) == 1

    # torus: a point inside a seam-crossing disk, stored at its wrapped
    # position, which only a periodic search finds inside that disk
    side = 30.0
    pts = sample_poisson_points(1.0, SimWindow(side, 0.0, "toroidal"), rng(17))
    tri = delaunay_triangulate(pts, mode="toroidal", side=side)
    assert audit_empty_circumdisk(tri, tri.n_triangles, rng(18)) == 0
    outside = np.any((tri.coords < 0.0) | (tri.coords >= side), axis=2)
    j = int(np.nonzero(outside.any(axis=1))[0][0])
    vertex = tri.coords[j][outside[j]][0]
    wrapped = np.mod(0.5 * (tri.centers[j] + vertex), side)
    assert np.linalg.norm(wrapped - tri.centers[j]) > tri.radii[j]
    assert audit_empty_circumdisk(_one_triangle(tri, j), 1, rng(18)) == 0
    assert audit_empty_circumdisk(_one_triangle(tri, j, wrapped), 1, rng(18)) == 1


def test_edge_counts_see_a_dropped_triangle():
    side = 30.0
    pts = sample_poisson_points(1.0, SimWindow(side, 0.0, "toroidal"), rng(19))
    tri = delaunay_triangulate(pts, mode="toroidal", side=side)
    # drop a seam-crossing triangle, whose edges need the image offsets
    outside = np.any((tri.coords < 0.0) | (tri.coords >= side), axis=(1, 2))
    keep = np.ones(tri.n_triangles, dtype=bool)
    keep[np.nonzero(outside)[0][0]] = False
    fields = ("vertices", "periods", "centers", "radii", "areas")
    holed = dataclasses.replace(tri, **{f: getattr(tri, f)[keep] for f in fields})
    counts = edge_incidence_counts(holed)
    assert np.sum(counts == 1) == 3 and np.all(counts[3:] == 2)


def test_edge_counts_stay_lean():
    # keys formed pair by pair in place from the stored int8 period offsets:
    # the tracemalloc peak of counting read 2.49 MB on this 2e4-point torus
    # (2.74 MB with the offsets rebuilt from the coordinates by rounding,
    # 5.92 MB with whole-array keys and (2N, 3, 2) float offsets)
    side = math.sqrt(2.0e4)
    tri = delaunay_triangulate(sample_poisson_points(1.0, SimWindow(side, 0.0, "toroidal"), rng(6)),
                               mode="toroidal", side=side)
    tracemalloc.start()
    try:
        counts = edge_incidence_counts(tri)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(counts == 2) and counts.size == 3 * len(tri.points)
    assert peak < 3.25e6


def test_edge_counts_separate_seam_images():
    # points 0 and 1 are joined twice: directly (triangle A) and across the
    # x seam (triangle B); triangle C is B translated by one period, so it
    # repeats B's three edges and no edge of A
    side = 10.0
    points = np.array([[1.0, 5.0], [9.0, 5.0], [5.0, 1.0], [5.0, 9.0]])
    vertices = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 3]])
    periods = np.array([
        [[0, 0], [0, 0], [0, 0]],
        [[0, 0], [-1, 0], [0, 0]],
        [[1, 0], [0, 0], [1, 0]],
    ], dtype=np.int8)
    zeros = np.zeros(3)
    tri = Triangulation(points, "toroidal", side, vertices, periods, np.zeros((3, 2)), zeros, zeros)
    assert tri.coords.tolist() == [
        [[1.0, 5.0], [9.0, 5.0], [5.0, 1.0]],
        [[1.0, 5.0], [-1.0, 5.0], [5.0, 9.0]],
        [[11.0, 5.0], [9.0, 5.0], [15.0, 9.0]],
    ]
    assert edge_incidence_counts(tri).tolist() == [1, 1, 1, 2, 2, 2]
    assert edge_incidence_counts(dataclasses.replace(tri, mode="plain")).tolist() == [1, 1, 2, 2, 3]
    # a torus image lies at most one period from its point: C shifted by a
    # second period is refused
    far = periods.copy()
    far[2, :, 0] += 1
    with pytest.raises(DomainError, match=r"^edge_incidence_counts: .*\{-1, 0, 1\}"):
        edge_incidence_counts(dataclasses.replace(tri, periods=far))


def test_torus_record_is_lean():
    # each vertex's period offset is stored as int8 and its coordinates
    # derived: 62 B per triangle (104 B with the coordinates stored)
    side = math.sqrt(2.0e4)
    tri = delaunay_triangulate(sample_poisson_points(1.0, SimWindow(side, 0.0, "toroidal"), rng(6)),
                               mode="toroidal", side=side)
    arrays = [getattr(tri, f.name) for f in dataclasses.fields(tri) if f.name != "points"]
    assert sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) <= 62 * tri.n_triangles


def test_typical_moment_estimates():
    win = SimWindow(200.0, 8.0, "plain")
    pts = sample_poisson_points(1.0, win, rng(9))
    tri = delaunay_triangulate(pts)
    est0 = estimate_typical_moment(tri, win, mu=-1.0, s=0.0)
    assert est0.estimate == 1.0
    est = estimate_typical_moment(tri, win, mu=-1.0, s=1.0)
    assert abs(est.estimate - 0.5) < 3.0 * est.std_error
    assert est.effective_sample_size == pytest.approx(est.n_cells)
    target = volume_moment(ModelParams(2, 0.0, 1.0), 1.0)
    estw = estimate_typical_moment(tri, win, mu=0.0, s=1.0)
    assert abs(estw.estimate - target) < 3.0 * estw.std_error
    assert estw.effective_sample_size < estw.n_cells


def test_guard_robustness():
    win1 = SimWindow(200.0, 8.0, "plain")
    pts = sample_poisson_points(1.0, win1, rng(10))
    tri = delaunay_triangulate(pts)
    win2 = SimWindow(200.0, 16.0, "plain")
    e1 = estimate_typical_moment(tri, win1, mu=-1.0, s=1.0)
    e2 = estimate_typical_moment(tri, win2, mu=-1.0, s=1.0)
    assert abs(e1.estimate - e2.estimate) < 2.0 * math.hypot(e1.std_error, e2.std_error)


def test_estimate_convergence_with_window():
    ests = []
    for k, side in enumerate((100.0, 200.0, 400.0)):
        win = SimWindow(side, 8.0, "plain")
        pts = sample_poisson_points(1.0, win, rng(11 + k))
        tri = delaunay_triangulate(pts)
        est = estimate_typical_moment(tri, win, mu=-1.0, s=1.0)
        assert abs(est.estimate - 0.5) < 4.0 * est.std_error
        ests.append(est)
    # standard error shrinks like 1/side (inverse square root of the area)
    for a, b in zip(ests, ests[1:]):
        assert 0.25 < b.std_error / a.std_error < 0.85


def test_insufficient_cells_error():
    win = SimWindow(12.0, 0.0, "plain")
    pts = sample_poisson_points(1.0, win, rng(13))
    tri = delaunay_triangulate(pts)
    tight = SimWindow(12.0, 5.9, "plain")
    with pytest.raises(DomainError):
        estimate_typical_moment(tri, tight, mu=-1.0, s=1.0)


def test_radius_cdf_estimates():
    side = math.sqrt(4.0e4)
    win = SimWindow(side, 0.0, "toroidal")
    pts = sample_poisson_points(1.0, win, rng(14))
    tri = delaunay_triangulate(pts, mode="toroidal", side=side)
    tgrid = np.linspace(0.05, 1.6, 60)
    for mu in (-1.0, 0.0):
        values, ess = estimate_radius_cdf(tri, win, mu, tgrid)
        ref = radius_cdf(ModelParams(2, mu, 1.0), tgrid)
        dev = np.max(np.abs(values - ref))
        # adjacent cells are positively correlated; the sqrt(2) factor is the
        # measured dependence inflation of the weighted KS scale
        assert dev < 3.0 * 0.5 * math.sqrt(2.0) / math.sqrt(ess)
    values, _ = estimate_radius_cdf(tri, win, -1.0, [tri.radii.max() + 1.0])
    assert values[0] == 1.0
