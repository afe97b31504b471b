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


def _sorted_unique(pts: np.ndarray) -> np.ndarray:
    """``np.unique(pts, axis=0)``, without the sort when the rows already ascend.

    Callers often pass a cloud that ``np.unique`` has already sorted.  Rows
    that strictly increase in lexicographic order are their own unique sort.
    Rows that differ only in the sign of a zero compare equal here, as in
    ``np.unique``, so they take the sort.
    """
    prev, row = pts[:-1], pts[1:]
    ascend = (row[:, 0] > prev[:, 0]) | ((row[:, 0] == prev[:, 0]) & (row[:, 1] > prev[:, 1]))
    if np.all(ascend):
        return pts
    return np.unique(pts, axis=0)


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
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
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


# Nearest-neighbour search.  Points are cut into quadtree leaves of at most
# _NN_LEAF points; queries descend a quadtree of their own, one level per
# pass, each tile carrying the leaves that may hold a nearest point of one of
# its queries.
_NN_LEAF = 16
_NN_BITS = 16  # Morton grid of 2**16 cells per axis
# Working memory of one search: a vector pass holds at most this many bytes of
# pair arrays (16 float64 per pair), and one batch of tiles at most this many
# bytes of candidate leaves; larger batches are split and run depth first.
_NN_CHUNK_BYTES = 2**21
_NN_PAIRS = _NN_CHUNK_BYTES // (16 * 8)
_NN_BATCH = _NN_CHUNK_BYTES // 8
# Relative slack on every pruning bound: far above the rounding of the few
# operations that compute one, so no leaf holding a nearest point is dropped.
_NN_SLACK = 1.0 + 1e-9


def _spread(v: np.ndarray) -> np.ndarray:
    """Move bit i of each 16-bit integer to bit 2i."""
    for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333), (1, 0x55555555)):
        v = (v | (v << shift)) & mask
    return v


def _morton(xy: np.ndarray) -> np.ndarray:
    """Morton codes of points on a 2**16 grid over their bounding square.

    The codes only group points; every bound of the search is computed from
    the coordinates themselves, so the grouping affects speed, not results.
    """
    x, y = xy[:, 0], xy[:, 1]
    lo = (x.min(), y.min())
    span = max(x.max() - lo[0], y.max() - lo[1])
    code = np.zeros(len(xy), dtype=np.int64)
    for axis, c in enumerate((x, y)):
        u = c - lo[axis]
        if span > 0:
            u /= span
        u *= 2**_NN_BITS
        np.minimum(u, 2**_NN_BITS - 1, out=u)
        code |= _spread(u.astype(np.int64)) << axis
    return code


def _leaves(points: np.ndarray):
    """Points in Morton order, cut into quadtree leaves of at most _NN_LEAF points.

    A leaf is the largest grid cell holding at most _NN_LEAF points; points
    sharing a finest cell beyond that are cut every _NN_LEAF.  Returns x and y
    in that order, each followed by _NN_LEAF infinities so that the window of
    _NN_LEAF slots from any leaf start stays in bounds (slots past the leaf
    hold other points or infinity, neither of which changes a minimum), the
    leaf starts, and per leaf its box (x0, x1, y0, y1) and first point (x, y).
    """
    n = len(points)
    code = _morton(points)
    order = np.argsort(code)
    code = code[order]
    # Two neighbours in Morton order are cut apart when the smallest cell
    # holding both has more than _NN_LEAF points; that cell is the run of
    # codes equal above bit ``shift``.
    differ = code[1:] ^ code[:-1]
    shift = (np.frexp(differ)[1].astype(np.int64) + 1) // 2 * 2
    low = (code[1:] >> shift) << shift
    first = np.searchsorted(code, low)
    size = np.searchsorted(code, low + (np.int64(1) << shift)) - first
    cut = np.ones(n, dtype=bool)
    rank = np.arange(1, n) - first
    cut[1:] = (size > _NN_LEAF) & ((differ > 0) | (rank % _NN_LEAF == 0))
    starts = np.flatnonzero(cut)
    pad = np.full(_NN_LEAF, np.inf)
    xs = np.concatenate([points[order, 0], pad])
    ys = np.concatenate([points[order, 1], pad])
    x, y = xs[:n], ys[:n]
    columns = (np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts),
               np.minimum.reduceat(y, starts), np.maximum.reduceat(y, starts),
               x[starts], y[starts])
    return xs, ys, starts, columns


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
    return np.unique(np.concatenate([[0], inner, [len(counts)]]))


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
    bound = (np.sqrt(np.minimum.reduceat(fx, offsets)) + 2.0 * r) * _NN_SLACK
    bound *= bound
    bound += 2.0**-1000  # so that squares which underflow still compare
    return ex <= np.repeat(bound, counts)


def _leaf_minimum(xs, ys, starts, qx, qy, cand, ptr, owners) -> np.ndarray:
    """Distance from each query (qx[i], qy[i]) to the nearest point of the
    leaves ``cand[ptr[owners[i]]:ptr[owners[i] + 1]]``."""
    out = np.empty(len(owners))
    slots = np.arange(_NN_LEAF)
    cuts = _cuts(ptr[owners + 1] - ptr[owners], max(1, _NN_PAIRS // _NN_LEAF))
    for a, z in zip(cuts[:-1], cuts[1:]):
        idx, counts, offsets = _rows(ptr, owners[a:z])
        window = starts.take(cand[idx])[:, None] + slots
        dx = xs.take(window) - np.repeat(qx[a:z], counts)[:, None]
        dy = ys.take(window) - np.repeat(qy[a:z], counts)[:, None]
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
    whose queries coincide, or that keeps at most two leaves, is finished by
    comparing each of its queries with every point of its leaves.

    Cell sizes come from the inputs' bounding boxes.  Each vector pass handles
    at most ``_NN_PAIRS`` (tile, leaf) pairs and each batch of tiles at most
    ``_NN_BATCH`` candidate leaves, both set by ``_NN_CHUNK_BYTES``, unless a
    single tile needs more; a larger batch is split and its parts run depth
    first.
    """
    out = np.empty(len(queries))
    if len(queries) == 0:
        return out
    xs, ys, starts, columns = _leaves(points)
    # Enough levels that the finest tiles of evenly spread queries hold one each.
    depth = min(int(np.ceil(np.log2(max(len(queries), 2)))) + 1, _NN_BITS)
    code = _morton(queries) >> 2 * (_NN_BITS - depth)
    order = np.argsort(code)
    leaves = np.arange(len(starts))
    # A batch: its level, its queries in Morton order (x, y, code, index),
    # the first query of each tile, and each tile's candidate leaves (CSR).
    stack = [(0, queries[order, 0], queries[order, 1], code[order], order,
              np.zeros(1, dtype=np.int64), leaves, np.array([0, len(leaves)]))]
    while stack:
        level, qx, qy, code, qidx, tiles, cand, ptr = stack.pop()
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

        point = (x0 == x1) & (y0 == y1)  # all queries of the tile coincide
        done = point | (kept <= 2)
        if done.any():
            # A tile of coincident queries is compared once, at its centre.
            tile = np.flatnonzero(point)
            out[qidx[np.repeat(point, sizes)]] = np.repeat(
                _leaf_minimum(xs, ys, starts, cx[tile], cy[tile], cand, ptr, tile), sizes[tile])
            rest = np.repeat(done & ~point, sizes)
            owner = np.repeat(np.arange(len(head)), sizes)[rest]
            out[qidx[rest]] = _leaf_minimum(xs, ys, starts, qx[rest], qy[rest], cand, ptr, owner)
            live = np.repeat(~done, sizes)
            qx, qy, code, qidx = qx[live], qy[live], code[live], qidx[live]
            cand = cand[np.repeat(~done, kept)]
            kept, sizes = kept[~done], sizes[~done]
            ptr = np.concatenate([[0], np.cumsum(kept)])
        if len(kept) == 0:
            continue
        heads = np.cumsum(sizes) - sizes
        batches = _cuts(kept, _NN_BATCH)
        for a, z in zip(batches[-2::-1], batches[:0:-1]):
            q0, q1 = heads[a], heads[z] if z < len(heads) else len(qx)
            stack.append((level, qx[q0:q1], qy[q0:q1], code[q0:q1], qidx[q0:q1],
                          heads[a:z] - q0, cand[ptr[a]:ptr[z]], ptr[a:z + 1] - ptr[a]))
    return out


def _segment_coverage(pts, p0, p1, tol, steps=512):
    """1-D analog of the region coverage test: probe points along the segment."""
    t = np.linspace(0.0, 1.0, steps)
    probes = p0 + t[:, None] * (p1 - p0)
    return float(np.mean(_nearest_distances(pts, probes) <= tol))


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
