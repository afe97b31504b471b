"""Planar convexity machinery for sampled Berezin ranges.

Points are (n, 2) float arrays.  A sampled range enters by
:func:`classify_range`, a finite set by :func:`finite_set_verdict`.  The
first hands the range's distinct values to :func:`convexity_report`, which
classifies a cloud as a POINT, a SEGMENT or a genuine 2-D region and issues
a CONVEX / NOT_CONVEX / INCONCLUSIVE verdict:

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

import numpy as np

from .kernels import row_blocks

__all__ = [
    "ShapeClass",
    "ConvexityReport",
    "convex_hull",
    "classify_shape",
    "convexity_report",
    "classify_range",
    "finite_set_verdict",
    "hausdorff_distance",
    "hull_signed_depth",
    "default_tolerance",
]

# Orientation tests treat cross products below this as collinear.
_CROSS_EPS = 1e-12

# Verdict thresholds for the REGION2D coverage test, and the points per axis
# of its grid.
_COVERAGE_CONVEX = 0.99
_COVERAGE_NOT_CONVEX = 0.90
_COVERAGE_STEPS = 200
# Probe points of the SEGMENT coverage ratio.
_SEGMENT_PROBES = 512

# A SEGMENT is convex when no projection gap exceeds this many tolerances.
_GAP_FACTOR = 10.0

# The pair arrays of one vectorised pass (nearest neighbours, the diameter's
# pair scan) take about this many bytes.  It bounds a pass, not a search: a
# run of queries descends breadth first, and _nearest_distances says what it
# holds besides.
_CHUNK_BYTES = 2**21
# Passes over the whole cloud (the hull's two prefilters, the segment test and
# projections, the search's Morton codes and leaves) run on kernels.row_blocks
# of this many points, so their temporaries are a few 128 KiB float64 arrays
# at a time.
_CLOUD_BLOCK = 2**14
# Relative slack on every pruning bound: far above the rounding of the few
# operations that compute one, so no candidate that can win is dropped.
_SLACK = 1.0 + 1e-9

# The diameter scans pairs of blocks of this many consecutive hull vertices,
# at most _DIAM_PAIRS of them (64 bytes of index and distance arrays per
# vertex pair) per pass.
_DIAM_LEAF = 8
_DIAM_PAIRS = _CHUNK_BYTES // (64 * _DIAM_LEAF**2)
# (point, edge) pairs per block of the all-edges test, in two float64 arrays:
# 256 KiB, small next to the arrays of the two-edge test over the whole grid.
_BAND_ENTRIES = 2**14


def __getattr__(name):
    # No code in this package calls cKDTree; the attribute stays resolvable
    # only because bench/tracer.py wraps it when tracing.  ROADMAP item 1
    # removes it together with the tracer's KD-tree span.
    if name == "cKDTree":
        from scipy.spatial import cKDTree

        return cKDTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    x_lo, x_hi, y_lo, y_hi = (int(f(c)) for c in (x, y) for f in (np.argmin, np.argmax))
    # One array holds x + y, then x - y.
    s = x + y
    s_lo, s_hi = int(np.argmin(s)), int(np.argmax(s))
    d = np.subtract(x, y, out=s)
    d_lo, d_hi = int(np.argmin(d)), int(np.argmax(d))
    del s, d
    # Extreme in the directions 180, 225, ..., 135 degrees: counterclockwise.
    ext = [x_lo, s_lo, y_lo, d_hi, x_hi, s_hi, y_hi, d_lo]
    ext = [k for i, k in enumerate(ext) if k != ext[i - 1]]
    if len(ext) < 3:
        return np.zeros(len(pts), dtype=bool)
    extent = max(float(np.ptp(x)), float(np.ptp(y)))
    margin = max(1e-2 * extent, 1e-5 / extent)
    edges = [(i, x[j] - x[i], y[j] - y[i]) for i, j in zip(ext, ext[1:] + ext[:1])]
    deep = np.ones(len(pts), dtype=bool)
    for b in row_blocks(len(pts), _CLOUD_BLOCK):
        xb, yb = x[b], y[b]
        for i, ex, ey in edges:
            cross = ex * (yb - y[i]) - ey * (xb - x[i])
            deep[b] &= cross > margin * np.hypot(ex, ey)
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
    c = max(float(np.max(np.abs(ux * (pts[b, 1] - first[1]) - uy * (pts[b, 0] - first[0]))))
            for b in row_blocks(len(pts), _CLOUD_BLOCK))
    bound = 4.0 * diag * (c + 1e-15 * length * diag) / length + 1e-15 * diag * diag
    return bound <= _CROSS_EPS


def _sorted_unique(pts: np.ndarray) -> np.ndarray:
    """``np.unique(pts, axis=0)`` of a finite (n, 2) array, by one stable sort.

    Rows that already strictly increase in lexicographic order are returned
    as they are.  Otherwise ``np.lexsort`` orders the rows by x, then y, and
    each row equal to its predecessor is dropped: the rows and the order of
    ``np.unique``.  Rows that differ only in the sign of a zero compare equal
    in both, but which of them ``np.unique``'s unstable sort keeps is its
    own, so a cloud holding such rows takes ``np.unique`` itself.

    The sorted copy is the one array the size of ``pts`` this makes: the
    repeats are dropped from it in place, block by block (the rows kept
    before a block never reach past its start), and it is then shrunk to
    the rows kept.
    """
    prev, row = pts[:-1], pts[1:]
    ascend = (row[:, 0] > prev[:, 0]) | ((row[:, 0] == prev[:, 0]) & (row[:, 1] > prev[:, 1]))
    if np.all(ascend):
        return pts
    rows = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    same = np.all(rows[1:] == rows[:-1], axis=1)
    if np.any(rows[1:][same].view(np.int64) != rows[:-1][same].view(np.int64)):
        return np.unique(pts, axis=0)
    keep = np.concatenate([[True], ~same])
    k = 0
    for b in row_blocks(len(rows), _CLOUD_BLOCK):
        kept = rows[b][keep[b]]
        rows[k : k + len(kept)] = kept
        k += len(kept)
    rows.resize((k, 2), refcheck=False)  # no view of ``rows`` is alive
    return rows


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices in counterclockwise order (monotone chain).

    Collinear boundary points are removed; degenerate inputs return one
    (all points equal) or two (all collinear) vertices.  The first vertex
    is the lexicographically smallest point.
    """
    pts = _sorted_unique(_as_points(points))
    if len(pts) == 1:
        return pts
    if _chain_pops_all(pts):
        return pts[[0, -1]]
    # The rows are in lexicographic order, which is what the chain needs; the
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

    # Each half-chain of two or more points keeps at least two of them.
    lower = half_chain(range(len(pts)))
    upper = half_chain(reversed(range(len(pts))))
    return pts[lower[:-1] + upper[:-1]]


def default_tolerance(points) -> float:
    """Default classification tolerance: 1e-3 of the sample diameter."""
    diam, _ = _diameter(convex_hull(points))
    return _tolerance(None, diam)


def _tolerance(tol, diam: float) -> float:
    if tol is None:
        return max(1e-3 * diam, 1e-12)
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    return tol


def _diameter(hull: np.ndarray):
    """Exact diameter of a point set and the realizing pair, from its hull.

    The pair is the first maximal one in row-major order of the matrix of
    ``dx*dx + dy*dy`` over all vertex pairs, found without building it.  A
    double sweep (the vertex farthest from ``hull[0]``, then the largest
    distance from it) gives a squared distance ``floor`` that some pair
    attains.  Blocks of consecutive vertices, halved level by level, then
    prune pairs of blocks whose bounding boxes are no farther apart than
    ``floor``: box corners bound every squared distance of their points,
    since rounding is monotone, so no maximal pair is dropped even when the
    input is not exactly convex.  The surviving pairs are scanned in chunks
    of at most ``_DIAM_PAIRS`` pairs of blocks.
    """
    n = len(hull)
    if n == 1:
        return 0.0, (hull[0], hull[0])
    diff = hull - hull[0]
    diff = hull - hull[np.argmax(np.einsum("ik,ik->i", diff, diff))]
    floor = float(np.einsum("ik,ik->i", diff, diff).max())
    leaf = _DIAM_LEAF
    boxes = []  # per level: (x0, x1, y0, y1) of blocks of leaf * 2**level vertices
    while not boxes or len(boxes[-1][0]) > 1:
        starts = np.arange(0, n, leaf << len(boxes))
        boxes.append(tuple(f.reduceat(hull[:, c], starts)
                           for c in (0, 1) for f in (np.minimum, np.maximum)))
    best, key = -1.0, 0
    slots = np.arange(leaf)
    stack = [(len(boxes) - 1, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))]
    while stack:
        level, a, b = stack.pop()
        if level == 0:
            i = ((a * leaf)[:, None] + slots).repeat(leaf, axis=1).ravel()
            j = np.tile((b * leaf)[:, None] + slots, leaf).ravel()
            ok = (i < n) & (j < n)
            i, j = i[ok], j[ok]
            diff = hull[i] - hull[j]
            d2 = np.einsum("ik,ik->i", diff, diff)
            top = d2.max()
            if top >= best:
                hit = d2 == top
                first = int(np.min(i[hit] * n + j[hit]))
                key = first if top > best else min(key, first)
                best = top
            continue
        # Split each pair of blocks into its four pairs of halves; by symmetry
        # of the matrix only pairs with a <= b can hold the first maximum.
        level -= 1
        a = ((2 * a)[:, None] + [0, 0, 1, 1]).ravel()
        b = ((2 * b)[:, None] + [0, 1, 0, 1]).ravel()
        x0, x1, y0, y1 = boxes[level]
        keep = (a <= b) & (b < len(x0))
        a, b = a[keep], b[keep]
        dx = np.maximum(x1[a] - x0[b], x1[b] - x0[a])
        dy = np.maximum(y1[a] - y0[b], y1[b] - y0[a])
        keep = (dx * dx + dy * dy) * _SLACK >= floor
        a, b = a[keep], b[keep]
        for s in range(0, len(a), _DIAM_PAIRS):
            stack.append((level, a[s : s + _DIAM_PAIRS], b[s : s + _DIAM_PAIRS]))
    return float(np.sqrt(best)), (hull[key // n], hull[key % n])


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
    vertices: np.ndarray  # POINT: (1, 2) centre; SEGMENT: (2, 2) ends; REGION2D: hull


def classify_shape(points, tol: float | None = None) -> ShapeClass:
    """Classify a point cloud at tolerance ``tol``.

    POINT if the diameter is <= tol; SEGMENT if every point lies within tol
    of the segment joining the maximal-distance pair; REGION2D otherwise
    (with the hull vertices attached).
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
        return ShapeClass("POINT", center)
    blocks = row_blocks(len(pts), _CLOUD_BLOCK)
    if max(np.max(_segment_distances(pts[b], p0, p1)) for b in blocks) <= tol:
        return ShapeClass("SEGMENT", np.vstack([p0, p1]))
    return ShapeClass("REGION2D", hull)


@dataclasses.dataclass(frozen=True)
class ConvexityReport:
    shape: ShapeClass
    verdict: str  # CONVEX | NOT_CONVEX | INCONCLUSIVE
    coverage_ratio: float
    max_gap: float
    tolerance: float
    sample_count: int

    def to_json_dict(self) -> dict:
        return {
            "shape": self.shape.tag,
            "verdict": self.verdict,
            "coverage_ratio": self.coverage_ratio,
            "max_gap": self.max_gap,
            "tolerance": self.tolerance,
            "sample_count": self.sample_count,
            "hull": [[float(x), float(y)] for x, y in self.shape.vertices],
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


def _inside_hull(hull: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Mask of the points left of (or within _CROSS_EPS of) every CCW hull edge.

    ``hull[0]`` is the leftmost vertex.  Each point meets the lower and the
    upper hull edge spanning its x, found by binary search, in the cross
    expression of :func:`_inside_every_edge`.  A cross below -_CROSS_EPS is
    that test's very float, so the point is out.  Rounding in one cross is
    below 1e-15 * D**2 (D the diagonal of the bounding box); where that is at
    most _CROSS_EPS, two spanning crosses of at least _CROSS_EPS put a point
    strictly between x_min and x_max inside the exact polygon, so every edge,
    vertical ones included, passes.  Both chains are strictly monotone in x
    apart from a vertical edge at x_min or x_max, which no point strictly
    between them spans.  The rest (points with x <= x_min or x >= x_max, the
    thin band in between, and every point not ruled out when the span is too
    large) meets every edge.
    """
    n = len(hull)
    edges = np.roll(hull, -1, axis=0) - hull
    span = hull.max(axis=0) - hull.min(axis=0)
    px, py = points[:, 0], points[:, 1]
    # hull[k], the first rightmost vertex, ends the lower chain: edges 0..k-1
    # form the lower chain, the others the upper chain (right to left).
    k = int(np.argmax(hull[:, 0]))
    lower = np.clip(np.searchsorted(hull[: k + 1, 0], px, side="right") - 1, 0, k - 1)
    upper_x = np.append(hull[0, 0], hull[: k - 1 : -1, 0])  # hull[0], hull[n-1], ..., hull[k]
    upper = n - 1 - np.clip(np.searchsorted(upper_x, px, side="right") - 1, 0, n - k - 1)

    def cross(e):
        return edges[e, 0] * (py - hull[e, 1]) - edges[e, 1] * (px - hull[e, 0])

    c_lo, c_up = cross(lower), cross(upper)
    outside = (c_lo < -_CROSS_EPS) | (c_up < -_CROSS_EPS)
    inside = (c_lo >= _CROSS_EPS) & (c_up >= _CROSS_EPS) & (px > hull[0, 0]) & (px < hull[k, 0])
    if 1e-15 * float(span @ span) > _CROSS_EPS:
        inside[:] = False
    band = ~(outside | inside)
    inside[band] = _inside_every_edge(hull, edges, points[band])
    return inside


def _inside_every_edge(hull: np.ndarray, edges: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Whether each point's cross against every CCW edge is >= -_CROSS_EPS.

    The cross of edge i is ``ex * (y - hull[i, 1]) - ey * (x - hull[i, 0])``
    with (ex, ey) = hull[i + 1] - hull[i], evaluated on blocks of at most
    ``_BAND_ENTRIES`` (point, edge) pairs.
    """
    inside = np.empty(len(points), dtype=bool)
    for b in row_blocks(len(points), max(1, _BAND_ENTRIES // len(hull))):
        block = points[b, :, None]
        c = block[:, 1] - hull[:, 1]
        c *= edges[:, 0]
        d = block[:, 0] - hull[:, 0]
        d *= edges[:, 1]
        c -= d
        inside[b] = np.all(c >= -_CROSS_EPS, axis=1)
    return inside


# Nearest-neighbour search.  Points in Morton order are cut into leaves of
# _NN_LEAF consecutive points; queries descend a quadtree of their own, one
# level per pass, each tile carrying the leaves that may hold a nearest point
# of one of its queries.
_NN_LEAF = 16
_NN_BITS = 16  # Morton grid of 2**16 cells per axis: 32-bit codes
# A vector pass holds at most _CHUNK_BYTES of pair arrays, 16 float64 a pair.
_NN_PAIRS = _CHUNK_BYTES // (16 * 8)
# Queries descend in runs of this many, consecutive in Morton order, so that
# no array of a pass has one entry per query of the whole set.
_NN_RUN = 4096


def _spread(v: np.ndarray) -> np.ndarray:
    """Move bit i of each 16-bit integer of a uint32 array to bit 2i, in place."""
    for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555)):
        v |= v << shift
        v &= mask
    return v


def _morton(xy: np.ndarray) -> np.ndarray:
    """32-bit Morton codes of points on a 2**16 grid over their bounding square.

    The codes only group points; every bound of the search is computed from
    the coordinates themselves, so the grouping affects speed, not results.
    """
    x, y = xy[:, 0], xy[:, 1]
    lo = (x.min(), y.min())
    span = max(x.max() - lo[0], y.max() - lo[1])
    code = np.zeros(len(xy), dtype=np.uint32)
    for b in row_blocks(len(xy), _CLOUD_BLOCK):
        for axis, c in enumerate((x, y)):
            u = c[b] - lo[axis]
            if span > 0:
                u /= span
            u *= 2**_NN_BITS
            np.minimum(u, 2**_NN_BITS - 1, out=u)
            code[b] |= _spread(u.astype(np.uint32)) << axis
    return code


def _leaves(points: np.ndarray):
    """Points in Morton order, cut into leaves of _NN_LEAF consecutive points.

    Returns x and y as (leaves, _NN_LEAF) arrays, the last leaf padded with
    copies of the last point (a copy changes no minimum), and per leaf its box
    (x0, x1, y0, y1) and first point (x, y).

    Besides ``points``, at most the order (8 bytes a point) and x and y (8
    each) are held at once, as the codes (4) go once sorted.  The codes and
    the sorted coordinates are computed on blocks of ``_CLOUD_BLOCK`` points.
    """
    n = len(points)
    order = np.argsort(_morton(points), kind="stable")
    xs, ys = np.empty((2, -(-n // _NN_LEAF), _NN_LEAF))
    x, y = xs.reshape(-1), ys.reshape(-1)
    for b in row_blocks(n, _CLOUD_BLOCK):
        rows = points[order[b]]
        x[b], y[b] = rows[:, 0], rows[:, 1]
    del order
    x[n:], y[n:] = x[n - 1], y[n - 1]
    columns = (xs.min(axis=1), xs.max(axis=1), ys.min(axis=1), ys.max(axis=1),
               xs[:, 0], ys[:, 0])
    return xs, ys, columns


def _rows(ptr: np.ndarray, owners: np.ndarray):
    """Indices of the CSR rows ``ptr[o]:ptr[o + 1]`` of each owner, end to end."""
    counts = ptr[owners + 1] - ptr[owners]
    offsets = np.cumsum(counts) - counts
    idx = np.repeat(ptr[owners] - offsets, counts) + np.arange(int(counts.sum()))
    return idx, counts, offsets


def _cuts(counts: np.ndarray, size: int) -> np.ndarray:
    """Cut consecutive groups into runs of about ``size`` elements (whole groups)."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    inner = np.searchsorted(ends, np.arange(size, total, size)) + 1
    cuts = np.concatenate([[0], inner, [len(counts)]])  # nondecreasing
    return cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]


def _prune(columns, cx, cy, r, leaf, counts, offsets) -> np.ndarray:
    """Mask of the candidate leaves each tile keeps (leaves grouped by tile).

    A query within r of the tile centre (cx, cy) is within U + r of its
    nearest point, U the distance from the centre to the nearest first point
    of the tile's leaves; that point lies within U + 2r of the centre, so a
    leaf whose box is farther away cannot hold it.
    """
    x0, x1, y0, y1, fx, fy = (c.take(leaf) for c in columns)
    ccx = np.repeat(cx, counts)
    ccy = np.repeat(cy, counts)
    ex = np.maximum(x0 - ccx, ccx - x1)
    np.maximum(ex, 0.0, out=ex)
    ey = np.maximum(y0 - ccy, ccy - y1)
    np.maximum(ey, 0.0, out=ey)
    ex *= ex
    ey *= ey
    ex += ey
    fx -= ccx
    fy -= ccy
    fx *= fx
    fy *= fy
    fx += fy
    bound = (np.sqrt(np.minimum.reduceat(fx, offsets)) + 2.0 * r) * _SLACK
    bound *= bound
    bound += 2.0**-1000  # so that squares which underflow still compare
    return ex <= np.repeat(bound, counts)


def _leaf_minimum(xs, ys, qx, qy, cand, ptr, owners) -> np.ndarray:
    """Distance from each query (qx[i], qy[i]) to the nearest point of the
    leaves ``cand[ptr[owners[i]]:ptr[owners[i] + 1]]``."""
    out = np.empty(len(owners))
    cuts = _cuts(ptr[owners + 1] - ptr[owners], max(1, _NN_PAIRS // _NN_LEAF))
    for a, z in zip(cuts[:-1], cuts[1:]):
        idx, counts, offsets = _rows(ptr, owners[a:z])
        leaf = cand[idx]
        dx = xs.take(leaf, axis=0)
        dx -= np.repeat(qx[a:z], counts)[:, None]
        dy = ys.take(leaf, axis=0)
        dy -= np.repeat(qy[a:z], counts)[:, None]
        dx *= dx
        dy *= dy
        dx += dy
        out[a:z] = np.minimum.reduceat(dx.min(axis=1), offsets)
    return np.sqrt(out)


def _nearest_distances(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact distance from each query to its nearest point.

    Equal bit for bit to ``np.sqrt(dx*dx + dy*dy).min(axis=1)`` over all
    points: pruning only drops leaves that cannot hold a nearest point, and
    each query's distance is the minimum of that formula over the points
    left.  Queries are sorted in Morton order and split one quadtree level at
    a time; a tile keeps the leaves :func:`_prune` cannot rule out.  A tile
    that holds one query, or that keeps at most two leaves, is finished by
    comparing each of its queries with every point of its leaves.

    Cell sizes come from the inputs' bounding boxes.  Memory, besides the
    inputs and the result: the leaves (:func:`_leaves`: x and y, 16 bytes a
    point padded to whole leaves, and 32 bytes a leaf for the boxes), the
    queries' Morton codes and order (12 bytes a query), and one run of
    ``_NN_RUN`` queries at a time, which descends on its own, breadth first:
    a level's tiles are split together.
    Within a run, each vector pass handles at most ``_NN_PAIRS`` (tile, leaf)
    pairs, about ``_CHUNK_BYTES``, unless a single tile needs more (near the
    root, a tile carries every leaf).  On the 50,945 points and 31,086
    queries of a Bergman Blaschke 0.5 coverage test, tracemalloc peaks at
    4.1 MiB.
    """
    out = np.empty(len(queries))
    if len(queries) == 0:
        return out
    xs, ys, columns = _leaves(points)
    # Enough levels that the finest tiles of evenly spread queries hold one each.
    depth = min(int(np.ceil(np.log2(max(len(queries), 2)))) + 1, _NN_BITS)
    morton = _morton(queries)
    morton >>= 2 * (_NN_BITS - depth)
    order = np.argsort(morton)
    leaves = np.arange(len(xs))
    for s in range(0, len(queries), _NN_RUN):
        # The run's live queries in Morton order (x, y, code, index), the first
        # query of each tile, and each tile's candidate leaves (CSR).
        qidx = order[s : s + _NN_RUN]
        qx, qy, code = queries[qidx, 0], queries[qidx, 1], morton[qidx]
        tiles = np.zeros(1, dtype=np.int64)
        cand, ptr = leaves, np.array([0, len(leaves)])
        level = 0
        while len(qx):
            level += 1
            m = len(qx)
            # Split each tile into its children at this level; past the last
            # level, every query is a tile of its own.
            key = code >> 2 * (depth - level) if level <= depth else np.arange(m)
            first = np.empty(m, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            first[tiles] = True
            head = np.flatnonzero(first)
            parent = np.searchsorted(tiles, head, side="right") - 1
            sizes = np.diff(head, append=m)
            x0, x1 = np.minimum.reduceat(qx, head), np.maximum.reduceat(qx, head)
            y0, y1 = np.minimum.reduceat(qy, head), np.maximum.reduceat(qy, head)
            cx = x0 + 0.5 * (x1 - x0)
            cy = y0 + 0.5 * (y1 - y0)
            dx = qx - np.repeat(cx, sizes)
            dy = qy - np.repeat(cy, sizes)
            r = np.sqrt(np.maximum.reduceat(dx * dx + dy * dy, head))
            kept = np.empty(len(head), dtype=np.int64)
            parts = []
            cuts = _cuts(ptr[parent + 1] - ptr[parent], _NN_PAIRS)
            for a, z in zip(cuts[:-1], cuts[1:]):
                idx, counts, offsets = _rows(ptr, parent[a:z])
                leaf = cand[idx]
                keep = _prune(columns, cx[a:z], cy[a:z], r[a:z], leaf, counts, offsets)
                kept[a:z] = np.add.reduceat(keep, offsets)
                parts.append(leaf[keep])
            cand = np.concatenate(parts)
            ptr = np.concatenate([[0], np.cumsum(kept)])

            done = (sizes == 1) | (kept <= 2)
            if done.any():
                finish = np.repeat(done, sizes)
                owner = np.repeat(np.arange(len(head)), sizes)[finish]
                out[qidx[finish]] = _leaf_minimum(xs, ys, qx[finish], qy[finish], cand, ptr, owner)
                live = ~finish
                qx, qy, code, qidx = qx[live], qy[live], code[live], qidx[live]
                cand = cand[np.repeat(~done, kept)]
                kept, sizes = kept[~done], sizes[~done]
                ptr = np.concatenate([[0], np.cumsum(kept)])
            tiles = np.cumsum(sizes) - sizes
    return out


def _segment_coverage(pts, p0, p1, tol):
    """1-D analog of the region coverage test: probe points along the segment."""
    t = np.linspace(0.0, 1.0, _SEGMENT_PROBES)
    probes = p0 + t[:, None] * (p1 - p0)
    return float(np.mean(_nearest_distances(pts, probes) <= tol))


def convexity_report(points, tol: float | None = None) -> ConvexityReport:
    """Issue a convexity verdict for a sampled planar set.

    Parameters
    ----------
    points : array-like, shape (n, 2)
        The sample cloud.
    tol : float, optional
        Classification tolerance; defaults to 1e-3 of the sample diameter.

    A REGION2D input is tested on a ``_COVERAGE_STEPS`` x ``_COVERAGE_STEPS``
    grid over the hull's bounding box.
    """
    pts = _as_points(points)
    n_samples = len(pts)
    # One hull per report: tolerance, shape and coverage grid all use it.
    hull = convex_hull(pts)
    diameter = _diameter(hull)
    tol = _tolerance(tol, diameter[0])
    shape = _classify(pts, hull, diameter, tol)
    if shape.tag == "POINT":
        return ConvexityReport(shape, "CONVEX", 1.0, 0.0, tol, n_samples)

    if shape.tag == "SEGMENT":
        p0, p1 = shape.vertices
        direction = (p1 - p0) / np.linalg.norm(p1 - p0)
        proj = np.empty(len(pts))
        for b in row_blocks(len(pts), _CLOUD_BLOCK):
            np.matmul(pts[b] - p0, direction, out=proj[b])
        proj.sort()
        max_gap = float(np.max(np.diff(proj))) if len(proj) > 1 else 0.0
        verdict = "CONVEX" if max_gap <= _GAP_FACTOR * tol else "NOT_CONVEX"
        coverage = _segment_coverage(pts, p0, p1, tol)
        return ConvexityReport(shape, verdict, coverage, max_gap, tol, n_samples)

    grid = _hull_interior_grid(hull, _COVERAGE_STEPS)
    dist = _nearest_distances(pts, grid)
    coverage = float(np.mean(dist <= tol))
    max_gap = float(np.max(dist))
    if coverage >= _COVERAGE_CONVEX:
        verdict = "CONVEX"
    elif coverage <= _COVERAGE_NOT_CONVEX:
        verdict = "NOT_CONVEX"
    else:
        verdict = "INCONCLUSIVE"
    return ConvexityReport(shape, verdict, coverage, max_gap, tol, n_samples)


def classify_range(sample, tol: float | None = None) -> ConvexityReport:
    """Convexity report of the distinct values of a ``closed_form.RangeSample``."""
    return convexity_report(_sorted_unique(_as_points(sample.points())), tol)


def finite_set_verdict(points) -> str:
    """Verdict on a complete finite set, such as a matrix's Berezin set: CONVEX
    exactly when all points are equal (zeros of either sign alike)."""
    return "CONVEX" if len(_sorted_unique(_as_points(points))) == 1 else "NOT_CONVEX"


def hausdorff_distance(a, b) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    pa = _as_points(a)
    pb = _as_points(b)
    return float(max(_nearest_distances(pb, pa).max(), _nearest_distances(pa, pb).max()))


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
