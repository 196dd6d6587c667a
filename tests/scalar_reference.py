"""Scalar reference implementations that the batched kernels must match.

One polygon, one trapezoid, one ring at a time, in plain Python floats: the
ring orientation of the GeoJSON reader, polygon areas, the even-odd
point-in-polygon test of `group_by_hierarchy`, the convex Sutherland-Hodgman
clipper, the shoelace sum, the trapezoid decomposition and the per-pair
`summarize_aw` loop the batched code replaced (which cuts the polygon of a
pair with fewer vertices into trapezoids and clips the other's rings), the
per-point, per-chunk loop of `assign_to_partition` that grid partitions
replaced, the merge of sparse grid cells repeated to its fixpoint, and the
per-anchor, per-region loop of `group_by_hierarchy`, the inscribed buffer
polygon and point-segment distance of `extract_at` and `nearest`, and the
per-row dict of category weights behind `extract_at`'s frequency columns.
The batched code performs the same float operations in the same order, so
its results must be equal to these bit for bit.
"""

import math

from gridchop.dataio import ResultTable
from gridchop.errors import InvalidParameterError
from gridchop.geom import Point, Polygon, Polyline, Ring, bbox_of
from gridchop.partition import Chunk, PartitionSet


def signed_ring_area(ring):
    """Shoelace area; positive for counterclockwise rings."""
    verts = ring.vertices
    total = 0.0
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return 0.5 * total


def make_polygon(rings):
    """Build a polygon from raw vertex lists, fixing ring orientations."""
    oriented = []
    for i, pts in enumerate(rings):
        ring = Ring(list(pts))
        area = signed_ring_area(ring)
        want_ccw = i == 0
        if (area > 0) != want_ccw:
            ring = Ring(list(reversed(ring.vertices)))
        oriented.append(ring)
    return Polygon(oriented[0], oriented[1:])


def polygon_area(poly):
    area = abs(signed_ring_area(poly.outer))
    for hole in poly.holes:
        area -= abs(signed_ring_area(hole))
    return area


def _on_segment(p, a, b):
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if cross != 0.0:
        return False
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def _ring_crossings(p, ring):
    count = 0
    verts = ring.vertices
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            xcross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if xcross > p.x:
                count += 1
    return count


def point_in_polygon(p, poly):
    """Even-odd test; points on any ring boundary count as inside."""
    for ring in [poly.outer, *poly.holes]:
        verts = ring.vertices
        n = len(verts)
        for i in range(n):
            if _on_segment(p, verts[i], verts[(i + 1) % n]):
                return True
    crossings = _ring_crossings(p, poly.outer)
    for hole in poly.holes:
        crossings += _ring_crossings(p, hole)
    return crossings % 2 == 1


def representative_point(geometry):
    """The point that places a feature: its first vertex."""
    if isinstance(geometry, Point):
        return geometry
    if isinstance(geometry, Polyline):
        return geometry.vertices[0]
    return geometry.outer.vertices[0]


def buffer_point(p, radius, segments=64):
    """Regular polygon inscribed in the circle of `radius` around `p`.

    Relative area shortfall vs the true disc is 1 - (n/2pi)sin(2pi/n),
    about 0.16% at the default 64 segments.
    """
    if radius <= 0:
        raise InvalidParameterError(f"buffer radius must be > 0, got {radius}")
    if segments < 8:
        raise InvalidParameterError(f"buffer segments must be >= 8, got {segments}")
    verts = []
    for i in range(segments):
        theta = 2.0 * math.pi * i / segments
        verts.append(Point(p.x + radius * math.cos(theta), p.y + radius * math.sin(theta)))
    return Polygon(Ring(verts))


def point_segment_distance(p, a, b):
    """Euclidean distance from p to the closed segment ab (a == b allowed)."""
    dx = b.x - a.x
    dy = b.y - a.y
    dd = dx * dx + dy * dy
    if dd == 0.0:
        t = 0.0
    else:
        t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / dd
        t = min(1.0, max(0.0, t))
    cx = a.x + t * dx
    cy = a.y + t * dy
    ex = p.x - cx
    ey = p.y - cy
    # explicit multiplies, not **2: scalar pow can differ from numpy's
    # vectorized square by one ulp
    return math.sqrt(ex * ex + ey * ey)


def trapezoids(poly):
    """Decompose a polygon (holes included, even-odd) into convex trapezoids."""
    edges = []
    for ring in [poly.outer, *poly.holes]:
        verts = ring.vertices
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            if a.y != b.y:
                edges.append((a.x, a.y, b.x, b.y))
    ys = sorted({e[1] for e in edges} | {e[3] for e in edges})
    traps = []
    for y0, y1 in zip(ys, ys[1:]):
        ymid = 0.5 * (y0 + y1)
        xs = []
        for ax, ay, bx, by in edges:
            if min(ay, by) <= y0 and max(ay, by) >= y1:
                slope = (bx - ax) / (by - ay)
                xs.append((ax + (ymid - ay) * slope, ax + (y0 - ay) * slope, ax + (y1 - ay) * slope))
        xs.sort()
        for i in range(0, len(xs) - 1, 2):
            (_, l0, l1), (_, r0, r1) = xs[i], xs[i + 1]
            traps.append([(l0, y0), (max(r0, l0), y0), (max(r1, l1), y1), (l1, y1)])
    return traps


def clip_ring_convex(pts, clip_pts):
    """Sutherland-Hodgman against a convex CCW clip polygon."""
    out = pts
    m = len(clip_pts)
    for e in range(m):
        ax, ay = clip_pts[e]
        bx, by = clip_pts[(e + 1) % m]
        ex, ey = bx - ax, by - ay
        if ex == 0.0 and ey == 0.0:
            continue
        pts_in = out
        out = []
        n = len(pts_in)
        if n == 0:
            break
        for i in range(n):
            cx, cy = pts_in[i]
            qx, qy = pts_in[i - 1]
            cur_in = ex * (cy - ay) - ey * (cx - ax) >= 0.0
            prev_in = ex * (qy - ay) - ey * (qx - ax) >= 0.0
            if cur_in != prev_in:
                dc = ex * (cy - ay) - ey * (cx - ax)
                dq = ex * (qy - ay) - ey * (qx - ax)
                t = dq / (dq - dc)
                out.append((qx + t * (cx - qx), qy + t * (cy - qy)))
            if cur_in:
                out.append((cx, cy))
    return out


def shoelace(pts):
    total = 0.0
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def _same_polygon(a, b):
    ra = [[(v.x, v.y) for v in ring.vertices] for ring in [a.outer, *a.holes]]
    rb = [[(v.x, v.y) for v in ring.vertices] for ring in [b.outer, *b.holes]]
    return ra == rb


def intersection_area(a, b, traps):
    if _same_polygon(a, b):
        return polygon_area(a)
    rings = [[(v.x, v.y) for v in ring.vertices] for ring in [b.outer, *b.holes]]
    total = 0.0
    for trap in traps:
        for ring in rings:
            clipped = clip_ring_convex(ring, trap)
            if len(clipped) >= 3:
                total += shoelace(clipped)
    return max(total, 0.0)


def _vertex_count(poly):
    return sum(map(len, poly.parts))


def summarize_aw(targets, sources, value_columns, stat="mean", id_column="id"):
    """The per-target, per-source loop over bbox-overlapping pairs; a pair's
    polygon with fewer vertices, every ring counted (the target on a tie),
    is the one cut into trapezoids."""
    src_boxes = [bbox_of(f.geometry) for f in sources.features]
    src_areas = [polygon_area(f.geometry) for f in sources.features]
    src_traps = [trapezoids(f.geometry) for f in sources.features]
    cols = [f"{c}_{stat}" for c in value_columns]
    rows_out = []
    for tgt in targets.features:
        tbox = bbox_of(tgt.geometry)
        traps = trapezoids(tgt.geometry)
        tarea = polygon_area(tgt.geometry)
        inter_total = 0.0
        num = {c: 0.0 for c in value_columns}
        for i, src in enumerate(sources.features):
            if not tbox.intersects(src_boxes[i]):
                continue
            if _vertex_count(src.geometry) < _vertex_count(tgt.geometry):
                aij = intersection_area(src.geometry, tgt.geometry, src_traps[i])
            else:
                aij = intersection_area(tgt.geometry, src.geometry, traps)
            if aij <= 0.0:
                continue
            inter_total += aij
            for c in value_columns:
                v = float(src.attributes[c])
                if stat == "mean":
                    num[c] += aij * v
                else:
                    num[c] += v * (aij / src_areas[i])
        row = {id_column: tgt.id, "coverage": inter_total / tarea if tarea > 0 else 0.0}
        for c, oc in zip(value_columns, cols):
            if inter_total > 0.0:
                row[oc] = num[c] / inter_total if stat == "mean" else num[c]
            else:
                row[oc] = None
        rows_out.append(row)
    return ResultTable({c: [r[c] for r in rows_out] for c in [id_column, *cols, "coverage"]})


def frequency_columns(rows, values, weights, n):
    """{freq_<category>: one value per row} of n rows from cells of row
    rows[i], value values[i] and weight weights[i]: each row's dict adds each
    counted cell's weight (weight > 0) to its category, in cell order from
    0.0. Every NaN is one category and 0.0 and -0.0 are one (as dict keys);
    columns go by category, NaN last, and a row without a category reads 0.0."""
    sums = [{} for _ in range(n)]
    for row, value, weight in zip(rows, values, weights):
        if weight > 0.0:
            key = "nan" if math.isnan(value) else value
            sums[row][key] = sums[row].get(key, 0.0) + weight
    cats = sorted({c for per_row in sums for c in per_row},
                  key=lambda c: (c == "nan", 0.0 if c == "nan" else c))

    def name(c):
        if c == "nan":
            return "freq_nan"
        return f"freq_{int(c)}" if c.is_integer() else f"freq_{c!r}"

    return {name(c): [per_row.get(c, 0.0) for per_row in sums] for c in cats}


def assign_to_partition(anchors, parts):
    """Each anchor to the first chunk (by chunk id) whose core owns its
    representative point, else to the nearest core centre, ties to the
    lowest chunk id."""
    gx = max(c.core.xmax for c in parts.chunks)
    gy = max(c.core.ymax for c in parts.chunks)
    chunks = [Chunk(c.chunk_id, c.core) for c in parts.chunks]
    chunks.sort(key=lambda c: c.chunk_id)

    def owns(core, p):
        okx = core.xmin <= p.x < core.xmax or (p.x == core.xmax == gx)
        oky = core.ymin <= p.y < core.ymax or (p.y == core.ymax == gy)
        if core.xmax == core.xmin:
            okx = p.x == core.xmin
        if core.ymax == core.ymin:
            oky = p.y == core.ymin
        return okx and oky

    for feat in anchors.features:
        rep = representative_point(feat.geometry)
        target = next((c for c in chunks if owns(c.core, rep)), None)
        if target is None:
            best = None
            for c in chunks:
                cx = (c.core.xmin + c.core.xmax) / 2.0
                cy = (c.core.ymin + c.core.ymax) / 2.0
                d = (rep.x - cx) ** 2 + (rep.y - cy) ** 2
                if best is None or d < best[0]:
                    best = (d, c)
            target = best[1]
        target.member_ids.append(feat.id)
    return PartitionSet(parts.mode, chunks)


def merge_cells_to_fixpoint(counts, nx, ny, min_features):
    """Cells of each group of the merged grid, groups ordered by their first
    cell: Kruskal's MST over the rook edges weighted by the two cells' point
    counts, then scans of the MST edges, ascending, that merge two groups
    when both hold fewer than min_features points, repeated until a scan
    merges nothing."""
    n_cells = nx * ny
    edges = []
    for j in range(ny):
        for i in range(nx):
            u = j * nx + i
            if i + 1 < nx:
                edges.append((float(counts[u] + counts[u + 1]), u, u + 1))
            if j + 1 < ny:
                edges.append((float(counts[u] + counts[u + nx]), u, u + nx))

    def finder(parent):
        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a
        return find

    tree = list(range(n_cells))
    find = finder(tree)
    mst = []
    for w, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            tree[ru] = rv
            mst.append((w, u, v))

    group = list(range(n_cells))
    find = finder(group)
    gcount = {i: int(counts[i]) for i in range(n_cells)}
    merged = True
    while merged:
        merged = False
        for _, u, v in mst:
            ru, rv = find(u), find(v)
            if ru == rv:
                continue
            if gcount[ru] < min_features and gcount[rv] < min_features:
                group[ru] = rv
                gcount[rv] += gcount.pop(ru)
                merged = True
    members = {}
    for cell in range(n_cells):
        members.setdefault(find(cell), []).append(cell)
    return sorted(members.values(), key=lambda cells: cells[0])


def group_by_regions(anchors, regions, regions_id):
    """Each anchor, by its representative point, to the first region in file
    order whose polygon holds it (a point on a ring counts as inside), one
    even-odd test per anchor and region; the rest go to UNASSIGNED."""
    keys = [str(f.attributes.get(regions_id, f.id)) for f in regions.features]
    groups = {k: [] for k in keys}
    unassigned = []
    for feat in anchors.features:
        rep = representative_point(feat.geometry)
        key = next((k for k, r in zip(keys, regions.features)
                    if point_in_polygon(rep, r.geometry)), None)
        (unassigned if key is None else groups[key]).append(feat.id)
    out = list(groups.items())
    if unassigned:
        out.append(("UNASSIGNED", unassigned))
    return out
