import ast
import json
import pathlib
import tracemalloc

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
    # counterclockwise orientation means positive signed (shoelace) area
    x, y = hull[:, 0], hull[:, 1]
    assert np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0
    # every input point lies inside (within numerical slack)
    depth = geometry.hull_signed_depth(pts, pts)
    assert depth.min() >= -1e-12


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


@pytest.mark.parametrize("rows, verdict", [
    ([[1.5, 0.0], [1.5, 0.0]], "CONVEX"),  # equal rows
    ([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]], "CONVEX"),  # differ only in the sign of a zero
    ([[1.0, 0.0], [2.0, 0.0]], "NOT_CONVEX"),  # two distinct rows
    ([[1.0, 0.0], [1.0, 1e-15]], "NOT_CONVEX"),  # distinct, closer than the default tolerance
])
def test_finite_set_verdict(rows, verdict):
    assert geometry.finite_set_verdict(np.array(rows)) == verdict


@pytest.mark.parametrize("space, symbol, shape", [
    (kernels.HARDY, symbols.blaschke(0.3j), "REGION2D"),
    (kernels.HARDY, symbols.elliptic(-0.5), "SEGMENT"),
    (kernels.HARDY, symbols.elliptic(1.0), "POINT"),
])
def test_classify_range_equals_report_of_unique_points(space, symbol, shape):
    sample = closed_form.sample_range(space, symbol, closed_form.PolarGrid.regular())
    got = geometry.classify_range(sample).to_json_dict()
    ref = geometry.convexity_report(np.unique(sample.points(), axis=0)).to_json_dict()
    assert got["shape"] == shape
    assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)


def test_no_module_reaches_into_geometry_privates():
    # classify_range and finite_set_verdict are the ways in; the helpers
    # behind them stay private to geometry.
    reached = []
    for path in sorted(pathlib.Path(geometry.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id == "geometry"):
                reached.append(f"{path.name}:{node.lineno} geometry.{node.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("geometry"):
                reached += [f"{path.name}:{node.lineno} {a.name}"
                            for a in node.names if a.name.startswith("_")]
    assert not reached


def test_report_json_round_trip():
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


def test_uniform_square_cloud_is_convex():
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


def _diameter_input(kind: str, n: int, rng) -> np.ndarray:
    if kind == "polygon":  # regular 2m-gon, in hull order
        t = np.pi * np.arange(2 * n) / n
        return np.column_stack([np.cos(t), np.sin(t)])
    if kind == "mirror":  # symmetric under x -> -x and y -> -y: exact ties
        q = rng.uniform(0, 1, size=(n, 2))
        return geometry.convex_hull(np.vstack([q, q * [-1, 1], q * [1, -1], -q]))
    if kind == "rounded":  # rounding leaves the polygon not quite convex
        t = 2 * np.pi * np.arange(n) / n + rng.uniform(0, 1)
        return np.round(np.column_stack([np.cos(t), 0.5 * np.sin(t)]), int(rng.integers(1, 4)))
    if kind == "duplicates":
        hull = geometry.convex_hull(_cloud("disk", n, rng))
        return np.repeat(hull, rng.integers(1, 4, size=len(hull)), axis=0)
    if kind == "collinear":
        return np.outer(rng.uniform(-1, 1, n), rng.normal(size=2))
    if kind == "cloud":  # no hull order at all
        return _cloud(str(rng.choice(_KINDS)), n, rng)
    return rng.normal(size=(n % 3 + 1, 2))  # "few": one to three points


@_settings
@given(st.sampled_from(["polygon", "mirror", "rounded", "duplicates", "collinear", "cloud", "few"]),
       st.integers(1, 600), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-150, 1e-6, 1.0, 1e6, 1e150]))
def test_diameter_equals_whole_matrix_on_drawn_inputs(kind, n, seed, scale):
    points = _diameter_input(kind, n, np.random.default_rng(seed)) * scale
    diam, (p0, p1) = geometry._diameter(points)
    ref, (r0, r1) = reference_diameter(points)
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


@_settings
@given(st.sampled_from(["left", "right", "both"]), st.integers(3, 400), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-6, 1.0, 30.0, 1e3, 1e6]), st.integers(3, 60))
def test_inside_mask_with_vertical_edges_equals_all_edges_loop(ends, n, seed, scale, steps):
    # Scales from 30 up take hulls past the span (D > 32) where the two-edge
    # test decides nothing inside.
    rng = np.random.default_rng(seed)
    pts = _cloud(str(rng.choice(_KINDS)), n, rng) * scale + rng.normal(size=2)
    lo, hi = pts[:, 0].min(), pts[:, 0].max()
    if ends in ("left", "both"):
        pts[rng.integers(0, n, 2), 0] = lo
    if ends in ("right", "both"):
        pts[rng.integers(0, n, 2), 0] = hi
    hull = geometry.convex_hull(pts)
    vertical = np.roll(hull, -1, axis=0)[:, 0] == hull[:, 0]
    assume(len(hull) >= 3)
    assume(vertical[hull[:, 0] == lo].any() == (ends != "right"))
    assume(vertical[hull[:, 0] == hi].any() == (ends != "left"))
    ys = np.linspace(pts[:, 1].min(), pts[:, 1].max(), steps)
    ys = np.concatenate([ys, hull[:, 1], ys[[0, -1]] + np.array([-1.0, 1.0]) * (ys[-1] - ys[0])])
    on_ends = np.column_stack([np.repeat([lo, hi], len(ys)), np.tile(ys, 2)])
    points = np.vstack([_mask_cases(hull, rng, steps), on_ends])
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
def test_one_hull_build_per_report(monkeypatch, points, shape):
    calls = []
    original = geometry.convex_hull

    def counted(pts):
        calls.append(len(pts))
        return original(pts)

    monkeypatch.setattr(geometry, "convex_hull", counted)
    rep = geometry.convexity_report(points)
    assert rep.shape.tag == shape
    assert len(calls) == 1


@pytest.mark.parametrize("rows", [
    [[0.0, 1.0], [0.0, 2.0], [1.0, -1.0], [2.0, 0.0]],  # sorted
    [[2.0, 0.0], [0.0, 2.0], [1.0, -1.0], [0.0, 1.0]],  # unsorted
    [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]],  # duplicated
    [[-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [1.0, 0.0]],  # differ only in the sign of zero
    [[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [1.0, -0.0]],
    [[3.0, 4.0]],
])
def test_sorted_unique_equals_np_unique(rows):
    pts = np.array(rows)
    got = geometry._sorted_unique(pts)
    ref = np.unique(pts, axis=0)
    assert got.tobytes() == ref.tobytes()  # sign bits of zeros included
    assert geometry.convex_hull(pts).tobytes() == geometry.convex_hull(ref).tobytes()


@_settings
@given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e300]),
                          st.sampled_from([0.0, -0.0, 2.0, -2.0, 5e-324])),
                min_size=1, max_size=40),
       st.lists(st.tuples(_coords, _coords), max_size=20), st.integers(1, 100),
       st.integers(0, 2**32 - 1), st.booleans())
def test_sorted_unique_equals_np_unique_on_drawn_rows(few, many, copies, seed, presorted):
    # Past 16 rows np.unique's sort is no longer stable, so which of the rows
    # equal up to the sign of zero it keeps depends on its partitioning.
    pts = np.tile(np.array(few + many, dtype=float).reshape(-1, 2), (copies, 1))
    np.random.default_rng(seed).shuffle(pts)
    if presorted:
        pts = np.unique(pts, axis=0)
    got = geometry._sorted_unique(pts)
    ref = np.unique(pts, axis=0)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()  # sign bits of zeros included


def test_sorted_unique_sorts_a_cloud_without_np_unique(monkeypatch):
    rng = np.random.default_rng(4)
    pts = np.repeat(rng.integers(-3, 4, size=(300, 2)).astype(float), 2, axis=0)
    rng.shuffle(pts)
    ref = np.unique(pts, axis=0)
    monkeypatch.setattr(np, "unique", lambda *a, **k: pytest.fail("np.unique called"))
    assert geometry._sorted_unique(pts).tobytes() == ref.tobytes()


def test_sorted_unique_skips_the_sort_of_a_sorted_cloud(monkeypatch):
    pts = np.unique(np.random.default_rng(3).normal(size=(500, 2)), axis=0)
    monkeypatch.setattr(np, "unique", lambda *a, **k: pytest.fail("sorted twice"))
    assert geometry._sorted_unique(pts) is pts


def reference_nearest(points, queries) -> np.ndarray:
    """Every query against every point, in the formula the search must match bit for bit."""
    dx = queries[:, None, 0] - points[None, :, 0]
    dy = queries[:, None, 1] - points[None, :, 1]
    return np.sqrt(dx * dx + dy * dy).min(axis=1)


def _nn_cloud(shape: str, n: int, rng) -> np.ndarray:
    centre = rng.normal(size=2)
    if shape == "equal":
        return np.tile(centre, (n, 1))
    if shape == "one":
        return centre[None, :]
    if shape in ("horizontal", "vertical", "diagonal"):
        direction = {"horizontal": (1.0, 0.0), "vertical": (0.0, 1.0), "diagonal": (1.0, 1.0)}[shape]
        return centre + rng.uniform(-1, 1, size=(n, 1)) * np.array(direction)
    return _cloud(shape, n, rng)


@_settings
@given(st.sampled_from(_KINDS + ("equal", "one", "horizontal", "vertical", "diagonal")),
       st.integers(1, 600), st.integers(1, 400), st.integers(1, 3),
       st.sampled_from([1e-6, 1.0, 1e6]), st.sampled_from(["inside", "outside", "far"]),
       st.integers(0, 2**32 - 1))
def test_nearest_distances_equal_brute_force(shape, n, nq, copies, scale, where, seed):
    rng = np.random.default_rng(seed)
    pts = np.repeat(_nn_cloud(shape, n, rng), copies, axis=0) * scale
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float(np.max(hi - lo)) or scale
    if where == "inside":
        queries = rng.uniform(lo, hi, size=(nq, 2))
    elif where == "outside":
        queries = rng.uniform(lo - 3 * span, hi + 3 * span, size=(nq, 2))
    else:
        queries = lo + rng.normal(size=(nq, 2)) * 1e4 * span
    queries[: nq // 4] = pts[rng.integers(0, len(pts), nq // 4)]  # queries on points
    np.testing.assert_array_equal(geometry._nearest_distances(pts, queries),
                                  reference_nearest(pts, queries))


@pytest.mark.parametrize("space, symbol, alpha", [
    ("hardy", "blaschke", 0.3j),  # a 2-D range with holes: many queries far from the cloud
    ("bergman", "elliptic", 1j),  # points on rays, dense near their ends
])
def test_nearest_distances_on_a_berezin_range_coverage_grid(space, symbol, alpha):
    grid = closed_form.PolarGrid.regular(60, 64, 0.998)
    spec = {"hardy": kernels.HARDY, "bergman": kernels.BERGMAN}[space]
    make = {"blaschke": symbols.blaschke, "elliptic": symbols.elliptic}[symbol]
    pts = np.unique(closed_form.sample_range(spec, make(alpha), grid).points(), axis=0)
    queries = geometry._hull_interior_grid(geometry.convex_hull(pts), 120)
    np.testing.assert_array_equal(geometry._nearest_distances(pts, queries),
                                  reference_nearest(pts, queries))


@pytest.mark.parametrize("pairs", [1, 100, 2000])
def test_nearest_distances_in_small_passes(monkeypatch, pairs):
    # Tiny limits split every pass, which full-size inputs rarely need.
    monkeypatch.setattr(geometry, "_NN_PAIRS", pairs)
    rng = np.random.default_rng(11)
    pts = np.repeat(_cloud("annulus", 1500, rng), 2, axis=0)
    queries = rng.uniform(-1.2, 1.2, size=(1000, 2))
    np.testing.assert_array_equal(geometry._nearest_distances(pts, queries),
                                  reference_nearest(pts, queries))


def test_nearest_distances_memory_is_bounded():
    # The largest coverage test of the benchmark: 50,945 points, 31,086 queries.
    sample = closed_form.sample_range(kernels.BERGMAN, symbols.blaschke(0.5),
                                      closed_form.PolarGrid.regular(200, 256, 0.998))
    pts = np.unique(sample.points(), axis=0)
    queries = geometry._hull_interior_grid(geometry.convex_hull(pts), 200)
    assert (len(pts), len(queries)) == (50945, 31086)
    tracemalloc.start()
    try:
        geometry._nearest_distances(pts, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.25 * 2**20  # measured: 4.3 MiB


@pytest.mark.parametrize("run", [1, 7, 100])
def test_nearest_distances_in_short_runs(monkeypatch, run):
    # Runs this short split tiles of every level between runs.  Queries
    # repeated three times keep a tile of several queries down to the last
    # level, where each becomes a tile of its own.
    monkeypatch.setattr(geometry, "_NN_RUN", run)
    rng = np.random.default_rng(12)
    pts = np.repeat(_cloud("disk", 800, rng), 2, axis=0)
    repeated = np.repeat(np.vstack([rng.uniform(-1.2, 1.2, size=(20, 2)), pts[100:110]]), 3, axis=0)
    queries = np.vstack([rng.uniform(-1.2, 1.2, size=(300, 2)), pts[:50], repeated])
    np.testing.assert_array_equal(geometry._nearest_distances(pts, queries),
                                  reference_nearest(pts, queries))


@pytest.mark.parametrize("block", [2, 3, 2**14])
def test_segment_path_in_blocks_equals_the_whole_cloud_formulas(monkeypatch, block):
    monkeypatch.setattr(geometry, "_CLOUD_BLOCK", block)
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0.0, 1.0, 1001))
    pts = np.column_stack([0.3 + 2.0 * t, -0.1 + 0.7 * t + rng.normal(scale=1e-6, size=t.size)])
    rep = geometry.convexity_report(pts)
    assert rep.shape.tag == "SEGMENT"
    p0, p1 = rep.shape.vertices
    direction = (p1 - p0) / np.linalg.norm(p1 - p0)
    assert rep.max_gap == float(np.max(np.diff(np.sort((pts - p0) @ direction))))
    # The segment test of a 2-D cloud takes the maximum over blocks.
    cloud = np.vstack([pts, [[1.0, 1.0]]])
    hull = geometry.convex_hull(cloud)
    diameter = geometry._diameter(hull)
    far = float(np.max(geometry._segment_distances(cloud, *diameter[1])))
    for tol, tag in ((far, "SEGMENT"), (np.nextafter(far, 0.0), "REGION2D")):
        assert diameter[0] > tol and geometry._classify(cloud, hull, diameter, tol).tag == tag


@pytest.mark.parametrize("r_steps, theta_steps, bound", [
    (200, 256, 7 * 2**20),  # measured: 5.8 MiB
    (800, 1024, 80 * 800 * 1024),  # measured: 60.2 bytes a sample
], ids=["200x256", "800x1024"])
def test_classify_range_memory_is_bounded(r_steps, theta_steps, bound):
    # Beyond the sample itself, which is allocated before tracing starts.
    sample = closed_form.sample_range(kernels.HARDY, symbols.blaschke(0.3j),
                                      closed_form.PolarGrid.regular(r_steps, theta_steps, 0.998))
    tracemalloc.start()
    try:
        report = geometry.classify_range(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.shape.tag, report.verdict) == ("REGION2D", "NOT_CONVEX")
    assert peak <= bound


def _sweep_hull_and_grid():
    """The largest hull of the sweep grid (Hardy Blaschke 0.5, 2,517 vertices)
    and the 40,000 points of its coverage grid's bounding box."""
    sample = closed_form.sample_range(kernels.HARDY, symbols.blaschke(0.5),
                                      closed_form.PolarGrid.regular(2000, 8, 0.998))
    hull = geometry.convex_hull(sample.points())
    lo, hi = hull.min(axis=0), hull.max(axis=0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 200), np.linspace(lo[1], hi[1], 200),
                         indexing="ij")
    return hull, np.column_stack([gx.ravel(), gy.ravel()])


@pytest.mark.parametrize("step", ["diameter", "inside"])
def test_diameter_and_inside_memory_is_bounded(step):
    hull, grid = _sweep_hull_and_grid()
    # Make both end edges vertical (the left one is within 5e-19 of it already).
    k = int(np.argmax(hull[:, 0]))
    hull = geometry.convex_hull(np.vstack([hull, [hull[0, 0], hull[-1, 1]], hull[k] - [0, 1e-3]]))
    assert np.sum(np.roll(hull, -1, axis=0)[:, 0] == hull[:, 0]) == 2
    assert (len(hull), len(grid)) == (2517, 40000)
    tracemalloc.start()
    try:
        if step == "diameter":
            geometry._diameter(hull)
        else:
            geometry._inside_hull(hull, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # measured: 1.0 MiB (diameter), 2.2 MiB (inside)
