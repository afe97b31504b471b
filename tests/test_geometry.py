import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from berezin import closed_form, geometry, kernels, symbols


def test_hull_square_with_interior_point():
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    hull = geometry.convex_hull(pts)
    np.testing.assert_allclose(hull, [[0, 0], [1, 0], [1, 1], [0, 1]])


def test_hull_collinear_points():
    pts = np.array([[0, 0], [1, 1], [2, 2], [0.5, 0.5]])
    hull = geometry.convex_hull(pts)
    np.testing.assert_allclose(hull, [[0, 0], [2, 2]])


def test_hull_duplicates_collapse():
    pts = np.array([[1.0, 2.0]] * 5)
    hull = geometry.convex_hull(pts)
    assert hull.shape == (1, 2)


def test_hull_starts_at_lexicographic_minimum_ccw():
    rng = np.random.default_rng(71)
    pts = rng.normal(size=(200, 2))
    hull = geometry.convex_hull(pts)
    # first vertex is the lexicographic minimum
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    np.testing.assert_allclose(hull[0], pts[order[0]])
    # counterclockwise orientation means positive signed area
    assert geometry.polygon_area(hull) > 0
    # every input point lies inside (within numerical slack)
    depth = geometry.hull_signed_depth(pts, pts)
    assert depth.min() >= -1e-12


def test_polygon_area_unit_square():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
    np.testing.assert_allclose(geometry.polygon_area(square), 1.0)


def test_default_tolerance_scales_with_diameter():
    pts = np.array([[0, 0], [10, 0]])
    np.testing.assert_allclose(geometry.default_tolerance(pts), 1e-2)
    tiny = np.array([[0, 0], [1e-12, 0]])
    np.testing.assert_allclose(geometry.default_tolerance(tiny), 1e-12)


def test_classify_point_segment_region():
    point = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    assert geometry.classify_shape(point).tag == "POINT"

    seg = np.column_stack([np.linspace(0, 1, 50), np.zeros(50)])
    shape = geometry.classify_shape(seg)
    assert shape.tag == "SEGMENT"

    rng = np.random.default_rng(9)
    blob = rng.normal(size=(300, 2))
    assert geometry.classify_shape(blob).tag == "REGION2D"


def test_convexity_report_filled_square():
    # tolerance chosen to match the density of the random cloud: with 20000
    # points the typical spacing is ~7e-3, so tol = 0.02 keeps the interior
    # covered while still resolving the annulus hole below
    rng = np.random.default_rng(31)
    pts = rng.uniform(0, 1, size=(20000, 2))
    rep = geometry.convexity_report(pts, tol=0.02)
    assert rep.shape.tag == "REGION2D"
    assert rep.verdict == "CONVEX"
    assert rep.coverage_ratio >= 0.99


def test_convexity_report_annulus_not_convex():
    rng = np.random.default_rng(32)
    theta = rng.uniform(0, 2 * np.pi, 20000)
    radius = rng.uniform(0.8, 1.0, 20000)
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    rep = geometry.convexity_report(pts)
    assert rep.verdict == "NOT_CONVEX"
    assert rep.coverage_ratio <= 0.90


def test_convexity_report_dense_segment_convex():
    xs = np.linspace(0, 1, 2000)
    pts = np.column_stack([xs, 2 * xs])
    rep = geometry.convexity_report(pts)
    assert rep.shape.tag == "SEGMENT"
    assert rep.verdict == "CONVEX"


def test_convexity_report_gappy_segment_not_convex():
    xs = np.concatenate([np.linspace(0, 0.3, 300), np.linspace(0.8, 1.0, 200)])
    pts = np.column_stack([xs, np.zeros_like(xs)])
    rep = geometry.convexity_report(pts)
    assert rep.shape.tag == "SEGMENT"
    assert rep.verdict == "NOT_CONVEX"
    assert rep.max_gap >= 0.5 - 1e-9


def test_exact_finite_modes():
    same = np.array([[1.5, 0.0], [1.5, 0.0]])
    rep = geometry.convexity_report(same, exact_finite=True)
    assert (rep.verdict, rep.shape.tag) == ("CONVEX", "POINT")

    two = np.array([[1.0, 0.0], [2.0, 0.0]])
    rep = geometry.convexity_report(two, exact_finite=True)
    assert rep.verdict == "NOT_CONVEX"
    assert rep.shape.tag == "SEGMENT"


def test_report_json_round_trip():
    import json

    rng = np.random.default_rng(44)
    rep = geometry.convexity_report(rng.uniform(size=(5000, 2)))
    payload = rep.to_json_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["verdict"] == rep.verdict
    assert back["shape"] == rep.shape.tag
    assert isinstance(back["hull"], list)


def test_hausdorff_distance_known_value():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(geometry.hausdorff_distance(a, b), 1.0)
    np.testing.assert_allclose(
        geometry.hausdorff_distance(a, b), geometry.hausdorff_distance(b, a)
    )


def test_hausdorff_zero_on_identical_sets():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(500, 2))
    assert geometry.hausdorff_distance(pts, pts) == 0.0


def test_hull_signed_depth_on_square():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
    q = np.array([[0.5, 0.5], [0.5, 0.0], [1.2, 0.5]])
    depth = geometry.hull_signed_depth(sq, q)
    np.testing.assert_allclose(depth, [0.5, 0.0, -0.2], atol=1e-12)


def test_hull_signed_depth_degenerate_hulls():
    single = np.array([[1.0, 2.0], [1.0, 2.0]])
    depth = geometry.hull_signed_depth(single, np.array([[1.0, 2.0], [1.0, 3.0]]))
    np.testing.assert_allclose(depth, [0.0, -1.0], atol=1e-15)

    seg = np.array([[0.0, 0.0], [2.0, 0.0]])
    depth = geometry.hull_signed_depth(seg, np.array([[1.0, 0.0], [3.0, 0.0]]))
    np.testing.assert_allclose(depth, [0.0, -1.0], atol=1e-15)


def test_thread_count_env_override(monkeypatch):
    monkeypatch.setenv("BEREZIN_THREADS", "2")
    rng = np.random.default_rng(55)
    pts = rng.uniform(size=(3000, 2))
    rep = geometry.convexity_report(pts, tol=0.05)
    assert rep.verdict == "CONVEX"


# ---------------------------------------------------------------------------
# Reference implementations.  convex_hull drops points deep inside the
# octagon of extreme points (or short-cuts sets the chain would reduce to
# two points) before the monotone chain, the coverage grid tests two
# spanning edges per point and the diameter is searched in blocks of rows;
# each must give exactly what its reference gives.

def reference_hull(points) -> np.ndarray:
    """Monotone chain over every point, with no filter in front."""
    pts = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if len(pts) == 1:
        return pts
    x, y = pts[:, 0], pts[:, 1]

    def half_chain(order):
        chain = []
        for i in order:
            while len(chain) >= 2:
                ox, oy = x[chain[-2]], y[chain[-2]]
                ax, ay = x[chain[-1]], y[chain[-1]]
                if (ax - ox) * (y[i] - oy) - (ay - oy) * (x[i] - ox) <= geometry._CROSS_EPS:
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    lower = half_chain(range(len(pts)))
    upper = half_chain(reversed(range(len(pts))))
    hull_idx = lower[:-1] + upper[:-1]
    if len(hull_idx) < 2:
        hull_idx = [lower[0], lower[-1]] if len(lower) > 1 else lower
    return pts[hull_idx]


def reference_inside(hull, points) -> np.ndarray:
    """All-edges test: left of (or within _CROSS_EPS of) every CCW edge."""
    inside = np.ones(len(points), dtype=bool)
    for i in range(len(hull)):
        j = (i + 1) % len(hull)
        ex, ey = hull[j] - hull[i]
        cross = ex * (points[:, 1] - hull[i, 1]) - ey * (points[:, 0] - hull[i, 0])
        inside &= cross >= -geometry._CROSS_EPS
    return inside


def _cloud(kind: str, n: int, rng) -> np.ndarray:
    if kind == "square":
        return rng.uniform(-1, 1, size=(n, 2))
    if kind == "disk":
        r, t = np.sqrt(rng.uniform(size=n)), rng.uniform(0, 2 * np.pi, n)
        return np.column_stack([r * np.cos(t), r * np.sin(t)])
    if kind == "annulus":
        r, t = rng.uniform(0.8, 1.0, n), rng.uniform(0, 2 * np.pi, n)
        return np.column_stack([r * np.cos(t), r * np.sin(t)])
    if kind == "gauss":
        return rng.normal(size=(n, 2)) * [3.0, 0.2]
    if kind == "lattice":  # many exact ties in x, y, x+y and x-y
        return rng.integers(-4, 5, size=(n, 2)).astype(float)
    raise ValueError(kind)


_KINDS = ("square", "disk", "annulus", "gauss", "lattice")
_coords = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def reference_diameter(hull):
    """The whole distance matrix at once; its first maximal pair in row-major order."""
    if len(hull) == 1:
        return 0.0, (hull[0], hull[0])
    diff = hull[:, None, :] - hull[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    return float(np.sqrt(d2[i, j])), (hull[i], hull[j])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 257, 1000, 3000])
@pytest.mark.parametrize("rounded", [False, True])
def test_blocked_diameter_equals_whole_matrix(n, rounded):
    # regular polygons tie many pairs; rounding ties more of them exactly
    t = 2 * np.pi * np.arange(n) / n
    hull = np.column_stack([np.cos(t), np.sin(t)])
    if rounded:
        hull = np.round(hull, 2)
    diam, (p0, p1) = geometry._diameter(hull)
    ref, (r0, r1) = reference_diameter(hull)
    assert diam == ref
    np.testing.assert_array_equal(np.vstack([p0, p1]), np.vstack([r0, r1]))


def _contains_all(hull, points) -> bool:
    """Whether the chain's output is a hull of its input: every point in it."""
    if len(hull) >= 3:
        return bool(reference_inside(hull, points).all())
    if len(hull) == 2:
        return bool(np.max(geometry._segment_distances(points, *hull)) <= 1e-12)
    return bool(np.all(points == hull[0]))


@_settings
@given(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=60))
def test_hull_equals_reference_on_drawn_points(points):
    # Where two boundary points lie within about _CROSS_EPS of each other the
    # chain can drop a true vertex, so its output is no hull of the input and
    # may keep an interior point (for example (0,0), (0,-1), (1,0),
    # (0.25,-0.5), (-3.8e-16,0) give a triangle through (0.25,-0.5) that
    # misses (0,-1)).  Dropping that interior point first then changes the
    # output, so equality is asserted where the chain computes a hull.
    pts = np.array(points)
    expected = reference_hull(pts)
    assume(_contains_all(expected, pts))
    np.testing.assert_array_equal(geometry.convex_hull(pts), expected)


@_settings
@given(st.sampled_from(_KINDS), st.integers(3, 3000), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
def test_hull_equals_reference_on_random_clouds(kind, n, seed, scale):
    rng = np.random.default_rng(seed)
    pts = _cloud(kind, n, rng) * scale + rng.normal(size=2)
    np.testing.assert_array_equal(geometry.convex_hull(pts), reference_hull(pts))


@_settings
@given(st.integers(2, 500), st.integers(0, 2**32 - 1), st.integers(1, 50))
def test_hull_equals_reference_with_duplicates(n, seed, copies):
    rng = np.random.default_rng(seed)
    base = _cloud("disk", n, rng)
    pts = np.vstack([base] + [base[: max(1, n // copies)]] * copies)
    rng.shuffle(pts)
    np.testing.assert_array_equal(geometry.convex_hull(pts), reference_hull(pts))


@_settings
@given(st.integers(2, 2000), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-18, 1e-16, 1e-14, 1e-13, 1e-12, 1e-10, 1e-8, 1e-6]),
       st.sampled_from([1e-6, 1e-3, 1.0, 10.0, 1e3]),
       st.floats(0.0, 2 * np.pi))
def test_hull_equals_reference_on_near_collinear_rescaled(n, seed, noise, scale, angle):
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1, 1, n)
    h = noise * rng.normal(size=n)
    u = np.array([np.cos(angle), np.sin(angle)])
    pts = (t[:, None] * u + h[:, None] * [-u[1], u[0]]) * scale + rng.normal(size=2)
    np.testing.assert_array_equal(geometry.convex_hull(pts), reference_hull(pts))


@pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -2.0)])
def test_hull_equals_reference_on_exactly_collinear_sets(direction):
    t = np.linspace(-3.0, 5.0, 4001)
    pts = np.outer(t, direction)
    hull = geometry.convex_hull(pts)
    np.testing.assert_array_equal(hull, reference_hull(pts))
    assert len(hull) == 2


@pytest.mark.parametrize("space, alpha", [("hardy", 0.5), ("bergman", 0.3j), ("hardy", 0.9)])
def test_hull_equals_reference_on_berezin_ranges(space, alpha):
    grid = closed_form.PolarGrid.regular(200, 256, 0.998)
    spec = {"hardy": kernels.HARDY, "bergman": kernels.BERGMAN}[space]
    pts = closed_form.sample_range(spec, symbols.blaschke(alpha), grid).points()
    hull = geometry.convex_hull(pts)
    np.testing.assert_array_equal(hull, reference_hull(pts))
    points = _mask_cases(hull, np.random.default_rng(0), 200)
    np.testing.assert_array_equal(geometry._inside_hull(hull, points),
                                  reference_inside(hull, points))


def _mask_cases(hull, rng, steps):
    """Grid points over the bounding box, vertices, edge points and random points."""
    lo, hi = hull.min(axis=0), hull.max(axis=0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], steps), np.linspace(lo[1], hi[1], steps),
                         indexing="ij")
    nxt = np.roll(hull, -1, axis=0)
    t = rng.uniform(size=(len(hull), 1))
    return np.vstack([
        np.column_stack([gx.ravel(), gy.ravel()]),
        hull,
        0.5 * (hull + nxt),
        hull + t * (nxt - hull),
        lo + (hi - lo) * rng.uniform(-0.1, 1.1, size=(200, 2)),
    ])


@_settings
@given(st.sampled_from(_KINDS), st.integers(3, 400), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-6, 1.0, 1e3]), st.integers(3, 60))
def test_inside_mask_equals_all_edges_loop(kind, n, seed, scale, steps):
    rng = np.random.default_rng(seed)
    hull = geometry.convex_hull(_cloud(kind, n, rng) * scale + rng.normal(size=2))
    assume(len(hull) >= 3)
    points = _mask_cases(hull, rng, steps)
    np.testing.assert_array_equal(geometry._inside_hull(hull, points),
                                  reference_inside(hull, points))


@pytest.mark.parametrize("seed", range(5))
def test_inside_mask_on_hulls_with_vertical_edges(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 1, size=(300, 2))
    pts[:3, 0] = 0.0  # left edge vertical
    pts[3:6, 0] = 1.0  # right edge vertical
    hull = geometry.convex_hull(pts)
    assert np.any(np.roll(hull, -1, axis=0)[:, 0] == hull[:, 0])
    points = _mask_cases(hull, rng, 41)
    np.testing.assert_array_equal(geometry._inside_hull(hull, points),
                                  reference_inside(hull, points))


def test_inside_mask_on_exact_boundary_points():
    square = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
    diamond = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
    for hull in (square, diamond):
        g = np.linspace(0.0, 2.0, 9)
        points = np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
        expected = reference_inside(hull, points)
        np.testing.assert_array_equal(geometry._inside_hull(hull, points), expected)


@_settings
@given(st.sampled_from(_KINDS), st.integers(1, 500), st.integers(0, 2**32 - 1))
def test_hull_invariant_under_permutation(kind, n, seed):
    rng = np.random.default_rng(seed)
    pts = _cloud(kind, n, rng)
    np.testing.assert_array_equal(geometry.convex_hull(pts),
                                  geometry.convex_hull(rng.permutation(pts)))


@_settings
@given(st.sampled_from(_KINDS), st.integers(1, 500), st.integers(0, 2**32 - 1))
def test_every_point_lies_in_its_own_hull(kind, n, seed):
    pts = _cloud(kind, n, np.random.default_rng(seed))
    assert geometry.hull_signed_depth(pts, pts).min() >= -1e-12


@pytest.mark.parametrize("points, shape", [
    (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), "POINT"),
    (np.column_stack([np.linspace(0, 1, 500), np.zeros(500)]), "SEGMENT"),
    (np.random.default_rng(9).normal(size=(3000, 2)), "REGION2D"),
])
@pytest.mark.parametrize("exact_finite", [False, True])
def test_one_hull_build_per_report(monkeypatch, points, shape, exact_finite):
    calls = []
    original = geometry.convex_hull

    def counted(pts):
        calls.append(len(pts))
        return original(pts)

    monkeypatch.setattr(geometry, "convex_hull", counted)
    rep = geometry.convexity_report(points, exact_finite=exact_finite)
    if not exact_finite:
        assert rep.shape.tag == shape
    assert len(calls) == 1


def test_workers_reads_a_capped_positive_integer(monkeypatch):
    monkeypatch.delenv("BEREZIN_THREADS", raising=False)
    assert geometry._workers() == 1
    monkeypatch.setenv("BEREZIN_THREADS", "1")
    assert geometry._workers() == 1
    monkeypatch.setenv("BEREZIN_THREADS", str(10**6))
    assert geometry._workers() == (os.cpu_count() or 1)


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "two", ""])
def test_workers_rejects_invalid_thread_counts(monkeypatch, value):
    monkeypatch.setenv("BEREZIN_THREADS", value)
    with pytest.raises(ValueError, match="BEREZIN_THREADS"):
        geometry._workers()
