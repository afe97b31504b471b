"""Planar convexity machinery for sampled Berezin ranges.

Points are (n, 2) float arrays.  The central entry point is
:func:`convexity_report`, which classifies a sample cloud as a POINT, a
SEGMENT or a genuine 2-D region and then issues a CONVEX / NOT_CONVEX /
INCONCLUSIVE verdict:

* POINT        -> CONVEX,
* SEGMENT      -> CONVEX iff the largest gap between consecutive projections
                  onto the segment direction is small,
* REGION2D     -> coverage test: fraction of a uniform grid over the hull
                  interior lying within tol of some sample (>= 0.99 CONVEX,
                  <= 0.90 NOT_CONVEX, INCONCLUSIVE in between).

Sampling cannot certify convexity of a continuum, hence the INCONCLUSIVE
band; the thresholds are deliberately conservative.
"""
from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np

__all__ = [
    "ShapeClass",
    "ConvexityReport",
    "convex_hull",
    "polygon_area",
    "classify_shape",
    "convexity_report",
    "hausdorff_distance",
    "hull_signed_depth",
    "default_tolerance",
]

# Orientation tests treat cross products below this as collinear.
_CROSS_EPS = 1e-12

# Verdict thresholds for the REGION2D coverage test.
_COVERAGE_CONVEX = 0.99
_COVERAGE_NOT_CONVEX = 0.90

# A SEGMENT is convex when no projection gap exceeds this many tolerances.
_GAP_FACTOR = 10.0


def __getattr__(name):
    # scipy.spatial costs about 0.4 s to import; only the coverage and
    # Hausdorff queries need it, so it is imported on first use (PEP 562).
    if name == "cKDTree":
        from scipy.spatial import cKDTree

        return cKDTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _kdtree(points):
    """A KD-tree over points; ``cKDTree`` is looked up on the module per call."""
    return sys.modules[__name__].cKDTree(points)


def _workers() -> int:
    """Thread count for KD-tree queries, from the BEREZIN_THREADS env var.

    Must be an integer >= 1; values above ``os.cpu_count()`` are capped.
    """
    raw = os.environ.get("BEREZIN_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"BEREZIN_THREADS must be an integer >= 1, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"BEREZIN_THREADS must be an integer >= 1, got {raw!r}")
    return min(n, os.cpu_count() or 1)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("empty point set")
    pts = pts.reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _deep_inside_octagon(pts: np.ndarray) -> np.ndarray:
    """Mask of points far inside the octagon of extreme points (Akl–Toussaint).

    The octagon's vertices are the points extreme in x, y, x+y and x-y, so it
    lies inside the hull and no point inside it is a hull vertex.  The chain
    treats crosses below the absolute ``_CROSS_EPS`` as collinear, so a point
    counts as deep only at a distance from every octagon edge of at least 1%
    of the extent, and more where the extent is so small that ``_CROSS_EPS``
    matters.  A cross a dropped point would take part in can then come near
    ``_CROSS_EPS`` only if two boundary points lie within 1e-7 of the extent
    of each other, where the chain can already lose a true vertex by itself.
    """
    x, y = pts[:, 0], pts[:, 1]
    s, d = x + y, x - y
    # Extreme in the directions 180, 225, ..., 135 degrees: counterclockwise.
    ext = [int(np.argmin(x)), int(np.argmin(s)), int(np.argmin(y)), int(np.argmax(d)),
           int(np.argmax(x)), int(np.argmax(s)), int(np.argmax(y)), int(np.argmin(d))]
    ext = [k for i, k in enumerate(ext) if k != ext[i - 1]]
    if len(ext) < 3:
        return np.zeros(len(pts), dtype=bool)
    extent = max(float(np.ptp(x)), float(np.ptp(y)))
    margin = max(1e-2 * extent, 1e-5 / extent)
    deep = np.ones(len(pts), dtype=bool)
    for i, j in zip(ext, ext[1:] + ext[:1]):
        ex, ey = x[j] - x[i], y[j] - y[i]
        cross = ex * (y - y[i]) - ey * (x - x[i])
        deep &= cross > margin * np.hypot(ex, ey)
    return deep


def _chain_pops_all(pts: np.ndarray) -> bool:
    """Whether every orientation test of the chain over sorted ``pts`` is <= _CROSS_EPS.

    The chain then keeps only the first and the last point.  Every point lies
    within H = c / L of the line through them (c the largest cross against
    it, L their distance), so each test is at most 4 * D * H exactly, D the
    diagonal of the bounding box; the 1e-15 terms bound the rounding of c
    and of the test.
    """
    first, last = pts[0], pts[-1]
    ux, uy = last - first
    length = float(np.hypot(ux, uy))
    diag = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    c = float(np.max(np.abs(ux * (pts[:, 1] - first[1]) - uy * (pts[:, 0] - first[0]))))
    bound = 4.0 * diag * (c + 1e-15 * length * diag) / length + 1e-15 * diag * diag
    return bound <= _CROSS_EPS


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices in counterclockwise order (monotone chain).

    Collinear boundary points are removed; degenerate inputs return one
    (all points equal) or two (all collinear) vertices.  The first vertex
    is the lexicographically smallest point.
    """
    pts = np.unique(_as_points(points), axis=0)
    if len(pts) == 1:
        return pts
    if _chain_pops_all(pts):
        return pts[[0, -1]]
    # np.unique sorts lexicographically, which is what the chain needs; the
    # filter keeps that order.
    pts = pts[~_deep_inside_octagon(pts)]
    x, y = pts[:, 0], pts[:, 1]

    def half_chain(order):
        chain = []
        for i in order:
            while len(chain) >= 2:
                ox, oy = x[chain[-2]], y[chain[-2]]
                ax, ay = x[chain[-1]], y[chain[-1]]
                if (ax - ox) * (y[i] - oy) - (ay - oy) * (x[i] - ox) <= _CROSS_EPS:
                    chain.pop()
                else:
                    break
            chain.append(i)
        return chain

    idx = range(len(pts))
    lower = half_chain(idx)
    upper = half_chain(reversed(range(len(pts))))
    hull_idx = lower[:-1] + upper[:-1]
    if len(hull_idx) < 2:  # fully collinear sets collapse the chains
        hull_idx = [lower[0], lower[-1]] if len(lower) > 1 else lower
    return pts[hull_idx]


def polygon_area(vertices) -> float:
    """Shoelace area of a counterclockwise polygon (0 for <3 vertices)."""
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def default_tolerance(points) -> float:
    """Default classification tolerance: 1e-3 of the sample diameter."""
    diam, _ = _diameter(convex_hull(points))
    return _tolerance(None, diam)


def _tolerance(tol, diam: float) -> float:
    if tol is None:
        return max(1e-3 * diam, 1e-12)
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    return tol


def _diameter(hull: np.ndarray):
    """Exact diameter of a point set and the realizing pair, from its hull.

    The pair is the first maximal one in row-major order of the distance
    matrix, which is built in blocks of rows of about 2**18 entries each,
    so memory stays bounded for hulls of thousands of vertices.
    """
    if len(hull) == 1:
        return 0.0, (hull[0], hull[0])
    rows = max(1, 2**18 // len(hull))
    best, bi, bj = -1.0, 0, 0
    for start in range(0, len(hull), rows):
        diff = hull[start : start + rows, None, :] - hull[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        i, j = np.unravel_index(np.argmax(d2), d2.shape)
        if d2[i, j] > best:
            best, bi, bj = d2[i, j], start + i, j
    return float(np.sqrt(best)), (hull[bi], hull[bj])


def _segment_distances(pts: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    seg = p1 - p0
    L2 = float(seg @ seg)
    if L2 == 0.0:
        return np.linalg.norm(pts - p0, axis=1)
    t = np.clip((pts - p0) @ seg / L2, 0.0, 1.0)
    proj = p0 + t[:, None] * seg
    return np.linalg.norm(pts - proj, axis=1)


@dataclasses.dataclass(frozen=True)
class ShapeClass:
    """Classification of a planar sample: POINT, SEGMENT or REGION2D."""

    tag: str
    endpoints: np.ndarray | None = None  # SEGMENT: (2, 2); POINT: (1, 2)
    hull: np.ndarray | None = None  # REGION2D
    area: float = 0.0


def classify_shape(points, tol: float | None = None) -> ShapeClass:
    """Classify a point cloud at tolerance ``tol``.

    POINT if the diameter is <= tol; SEGMENT if every point lies within tol
    of the segment joining the maximal-distance pair; REGION2D otherwise
    (with hull vertices and hull area attached).
    """
    pts = _as_points(points)
    hull = convex_hull(pts)
    diameter = _diameter(hull)
    return _classify(pts, hull, diameter, _tolerance(tol, diameter[0]))


def _classify(pts, hull, diameter, tol: float) -> ShapeClass:
    """classify_shape for a hull and diameter already computed."""
    diam, (p0, p1) = diameter
    if diam <= tol:
        center = pts.mean(axis=0, keepdims=True)
        return ShapeClass("POINT", endpoints=center)
    if np.max(_segment_distances(pts, p0, p1)) <= tol:
        return ShapeClass("SEGMENT", endpoints=np.vstack([p0, p1]))
    return ShapeClass("REGION2D", hull=hull, area=polygon_area(hull))


@dataclasses.dataclass(frozen=True)
class ConvexityReport:
    shape: ShapeClass
    verdict: str  # CONVEX | NOT_CONVEX | INCONCLUSIVE
    coverage_ratio: float
    max_gap: float
    tolerance: float
    sample_count: int
    exact_finite_mode: bool = False

    def to_json_dict(self) -> dict:
        hull = self.shape.hull
        if hull is None:
            hull = self.shape.endpoints
        return {
            "shape": self.shape.tag,
            "verdict": self.verdict,
            "coverage_ratio": self.coverage_ratio,
            "max_gap": self.max_gap,
            "tolerance": self.tolerance,
            "sample_count": self.sample_count,
            "hull": [[float(x), float(y)] for x, y in np.atleast_2d(hull)],
        }


def _hull_interior_grid(hull: np.ndarray, steps: int) -> np.ndarray:
    """Uniform grid over the hull's bounding box, filtered to the hull."""
    lo = hull.min(axis=0)
    hi = hull.max(axis=0)
    xs = np.linspace(lo[0], hi[0], steps)
    ys = np.linspace(lo[1], hi[1], steps)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    return grid[_inside_hull(hull, grid)]


def _inside_all_edges(hull: np.ndarray, points: np.ndarray) -> np.ndarray:
    """CCW hull: a point is inside iff it is on the left of every edge."""
    inside = np.ones(len(points), dtype=bool)
    nxt = np.roll(np.arange(len(hull)), -1)
    for i, j in zip(range(len(hull)), nxt):
        ex, ey = hull[j] - hull[i]
        cross = ex * (points[:, 1] - hull[i, 1]) - ey * (points[:, 0] - hull[i, 0])
        inside &= cross >= -_CROSS_EPS
    return inside


def _inside_hull(hull: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The mask of :func:`_inside_all_edges`, testing two edges per point.

    Each point meets the lower and the upper hull edge spanning its x, found
    by binary search, in the same cross expression as the all-edges loop.  A
    cross below -_CROSS_EPS is that loop's very float, so the point is out.
    Rounding in one cross is below 1e-15 * D**2 (D the diagonal of the
    bounding box); where that is at most _CROSS_EPS, two spanning crosses of
    at least _CROSS_EPS put the point inside the exact polygon, so every edge
    passes.  Only the thin band in between takes the all-edges loop, and so
    do hulls with a vertical edge, whose chains are not monotone in x.
    """
    n = len(hull)
    edges = np.roll(hull, -1, axis=0) - hull
    span = hull.max(axis=0) - hull.min(axis=0)
    if np.any(edges[:, 0] == 0) or 1e-15 * float(span @ span) > _CROSS_EPS:
        return _inside_all_edges(hull, points)
    px, py = points[:, 0], points[:, 1]
    # hull[0] is the leftmost vertex and hull[k] the rightmost: edges 0..k-1
    # form the lower chain, edges k..n-1 the upper chain (right to left).
    k = int(np.argmax(hull[:, 0]))
    lower = np.clip(np.searchsorted(hull[: k + 1, 0], px, side="right") - 1, 0, k - 1)
    upper_x = np.append(hull[0, 0], hull[: k - 1 : -1, 0])  # hull[0], hull[n-1], ..., hull[k]
    upper = n - 1 - np.clip(np.searchsorted(upper_x, px, side="right") - 1, 0, n - k - 1)

    def cross(e):
        return edges[e, 0] * (py - hull[e, 1]) - edges[e, 1] * (px - hull[e, 0])

    c_lo, c_up = cross(lower), cross(upper)
    outside = (c_lo < -_CROSS_EPS) | (c_up < -_CROSS_EPS)
    inside = (c_lo >= _CROSS_EPS) & (c_up >= _CROSS_EPS) & (px >= hull[0, 0]) & (px <= hull[k, 0])
    band = ~(outside | inside)
    inside[band] = _inside_all_edges(hull, points[band])
    return inside


def _segment_coverage(pts, p0, p1, tol, steps=512):
    """1-D analog of the region coverage test: probe points along the segment."""
    t = np.linspace(0.0, 1.0, steps)
    probes = p0 + t[:, None] * (p1 - p0)
    dist, _ = _kdtree(pts).query(probes, workers=_workers())
    return float(np.mean(dist <= tol))


def convexity_report(
    points,
    tol: float | None = None,
    exact_finite: bool = False,
    grid_steps: int = 200,
) -> ConvexityReport:
    """Issue a convexity verdict for a sampled planar set.

    Parameters
    ----------
    points : array-like, shape (n, 2)
        The sample cloud.
    tol : float, optional
        Classification tolerance; defaults to 1e-3 of the sample diameter.
    exact_finite : bool
        Treat the input as a complete finite set (e.g. the Berezin set of a
        finite matrix read off the diagonal).  A finite set with two or more
        distinct points is never convex; the verdict is CONVEX iff all points
        are exactly equal.
    grid_steps : int
        Resolution per axis of the coverage grid for REGION2D inputs
        (at least 200).
    """
    pts = _as_points(points)
    n_samples = len(pts)
    # One hull per report: tolerance, shape and coverage grid all use it.
    hull = convex_hull(pts)
    diameter = _diameter(hull)
    tol = _tolerance(tol, diameter[0])

    if exact_finite:
        if len(hull) == 1:
            shape = ShapeClass("POINT", endpoints=hull)
            return ConvexityReport(shape, "CONVEX", 1.0, 0.0, tol, n_samples, True)
        shape = _classify(pts, hull, diameter, tol)
        if shape.tag == "POINT":
            # Distinct values closer than tol: still a finite non-convex set.
            shape = ShapeClass("SEGMENT", endpoints=np.vstack(diameter[1]))
        return ConvexityReport(shape, "NOT_CONVEX", 0.0, 0.0, tol, n_samples, True)

    shape = _classify(pts, hull, diameter, tol)
    if shape.tag == "POINT":
        return ConvexityReport(shape, "CONVEX", 1.0, 0.0, tol, n_samples)

    if shape.tag == "SEGMENT":
        p0, p1 = shape.endpoints
        direction = (p1 - p0) / np.linalg.norm(p1 - p0)
        proj = np.sort((pts - p0) @ direction)
        max_gap = float(np.max(np.diff(proj))) if len(proj) > 1 else 0.0
        verdict = "CONVEX" if max_gap <= _GAP_FACTOR * tol else "NOT_CONVEX"
        coverage = _segment_coverage(pts, p0, p1, tol)
        return ConvexityReport(shape, verdict, coverage, max_gap, tol, n_samples)

    grid = _hull_interior_grid(hull, max(int(grid_steps), 200))
    dist, _ = _kdtree(pts).query(grid, workers=_workers())
    coverage = float(np.mean(dist <= tol))
    max_gap = float(np.max(dist))
    if coverage >= _COVERAGE_CONVEX:
        verdict = "CONVEX"
    elif coverage <= _COVERAGE_NOT_CONVEX:
        verdict = "NOT_CONVEX"
    else:
        verdict = "INCONCLUSIVE"
    return ConvexityReport(shape, verdict, coverage, max_gap, tol, n_samples)


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    pa = _as_points(a)
    pb = _as_points(b)
    workers = _workers()
    d_ab, _ = _kdtree(pb).query(pa, workers=workers)
    d_ba, _ = _kdtree(pa).query(pb, workers=workers)
    return float(max(d_ab.max(), d_ba.max()))


def hull_signed_depth(hull_points, query_points) -> np.ndarray:
    """Signed distance of each query point into the convex hull of a point set.

    Positive means inside, negative outside.  For a point inside a
    non-degenerate hull the value is the distance to the nearest edge line;
    for degenerate hulls (a point or a collinear set) it is the negated
    distance to the hull point or segment, so containment tests reduce to
    ``depth >= -tol`` in every case.
    """
    hull = convex_hull(hull_points)
    q = _as_points(query_points)
    if hull.shape[0] == 1:
        return -np.hypot(q[:, 0] - hull[0, 0], q[:, 1] - hull[0, 1])
    if hull.shape[0] == 2:
        return -_segment_distances(q, hull[0], hull[1])
    edges = np.roll(hull, -1, axis=0) - hull
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    rel = q[:, None, :] - hull[None, :, :]
    cross = edges[None, :, 0] * rel[:, :, 1] - edges[None, :, 1] * rel[:, :, 0]
    return np.min(cross / lengths[None, :], axis=1)
