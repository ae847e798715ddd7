"""Scalar ray oracles for the linked-pair kernel and ``spiraling``.

A ray is a callable j -> dart: the j-th outgoing dart along an infinite
reduced path in the universal cover, based at a common lift of a vertex.
``primitive_self_count`` compares rays pairwise and weights each linked pair
by 1/overlap; ``tests/test_kernel.py`` checks ``self_intersection`` and
the masks of ``linked_passages`` against it, and ``tests/test_intersect.py``
builds its translate-counting oracle for ``spiraling`` from the same rays.
The file name has no ``test_`` prefix, so pytest imports it from the tests
but does not collect it.

``_sorted_ends`` is the kernel's former end order, one tuple key (rank of
the first dart, turns, passage) per end with every key 2 * max(len) - 1
turns long, over one path or several; ``tests/test_kernel.py`` checks the
string-keyed order that ``intersect.linked_passages`` reads its intervals
off, and the places of ``intersect._located``, against it.  ``two_path_crossings`` reads
``intersection`` off that order of two roots' ends, with the prefix XOR and
the start rule.
"""

from randcurve.intersect import EdgePath
from randcurve.ribbon import RibbonGraph


def _forward_ray(darts, s):
    n = len(darts)
    return lambda j: darts[(s + j) % n]


def _backward_ray(darts, pair, s):
    n = len(darts)
    return lambda j: pair[darts[(s - 1 - j) % n]]


def _divergence(r1, r2, cap):
    """First index where the rays differ, or None if equal up to cap."""
    for j in range(cap):
        if r1(j) != r2(j):
            return j
    return None


def _orient(g: RibbonGraph, u, v, w, cap) -> int:
    """Circular orientation of three distinct ends seen from the basepoint.

    The three rays span a tripod; at its center the rays (or the back-dart
    toward the branch that split off earlier) leave along three distinct
    darts of one vertex, whose cyclic order decides the orientation.
    """
    duv = _divergence(u, v, cap)
    duw = _divergence(u, w, cap)
    dvw = _divergence(v, w, cap)
    if duv is None or duw is None or dvw is None:
        raise AssertionError("rays required to be distinct did not diverge")
    m = min(duv, duw, dvw)
    if duv > m:
        return g.cyc_orient(u(duv), v(duv), g.pair[u(duv - 1)])
    if duw > m:
        return g.cyc_orient(u(duw), g.pair[u(duw - 1)], w(duw))
    if dvw > m:
        return g.cyc_orient(g.pair[v(dvw - 1)], v(dvw), w(dvw))
    return g.cyc_orient(u(m), v(m), w(m))


def _linked(g, chord1, chord2, cap) -> bool:
    """Whether two chords (pairs of distinct ends) strictly interleave."""
    (p, q), (s, t) = chord1, chord2
    return _orient(g, p, s, q, cap) != _orient(g, p, t, q, cap)


def _overlap_size(g, rays1, rays2, cap) -> int:
    """Number of vertices the two based lines share.

    Two crossing lines in the universal cover meet in a segment; a crossing
    pair is seen once per shared vertex when enumerated through vertex
    passages, so counts are weighted by the segment size.  The segment
    extends backward while the backward ray of line 1 agrees with either ray
    of line 2, and forward likewise.
    """
    b1, f1 = rays1
    b2, f2 = rays2

    def extent(r, a, b):
        da = _divergence(r, a, cap)
        db = _divergence(r, b, cap)
        if da is None or db is None:
            raise AssertionError("distinct lines overlap beyond cap")
        return max(da, db)

    return 1 + extent(b1, b2, f2) + extent(f1, b2, f2)


def primitive_self_count(path: EdgePath) -> int:
    """Test oracle for ``self_intersection`` of a primitive path (scalar
    ray loops).

    Sums 1/overlap over linked vertex-passage pairs; the total is the number
    of crossing line-pair orbits, i.e. the geometric count.
    """
    from fractions import Fraction

    g = path.graph
    d = path.darts
    n = len(d)
    cap = 2 * n + 4
    total = Fraction(0)
    vertex_of = g.vertex_of
    for i in range(n):
        vi = vertex_of[d[i]]
        rays_i = (_backward_ray(d, g.pair, i), _forward_ray(d, i))
        for j in range(i + 1, n):
            if vertex_of[d[j]] != vi:
                continue
            rays_j = (_backward_ray(d, g.pair, j), _forward_ray(d, j))
            if _linked(g, rays_i, rays_j, cap):
                total += Fraction(1, _overlap_size(g, rays_i, rays_j, cap))
    if total.denominator != 1:
        raise AssertionError("non-integral crossing count: invariant violated")
    return int(total)


def _sorted_ends(g: RibbonGraph, paths) -> list[int]:
    """The passages of ``paths``, numbered consecutively over the paths,
    listed in the order of their ends: each passage appears twice, once for
    its forward end and once for its backward end."""
    return [owner for owner, _ in ends_in_order(g, paths)]


def ends_in_order(g: RibbonGraph, paths) -> list[tuple[int, bool]]:
    """``(passage, backward)`` for each end of ``paths`` in the order of
    ``_sorted_ends``."""
    pair = g.pair
    pos = g._pos_in_vertex
    deg = [len(g.vertices[v]) for v in g.vertex_of]
    rank = [0] * g.dart_count  # darts in vertex-major circular order
    k = 0
    for cyc in g.vertices:
        for d in cyc:
            rank[d] = k
            k += 1
    m = 2 * max(map(len, paths)) - 1
    ends = []
    first = 0
    for darts in paths:
        n = len(darts)
        back = tuple(pair[d] for d in reversed(darts))
        # the forward end at index i of ``back`` is the backward end B_{-i}
        for seq, sign in ((darts, 1), (back, -1)):
            # a turn lies in 1..deg-1, one character each: strings compare
            # by code point, so in the order of the turns
            enc = "".join([chr((pos[d] - pos[pair[q]]) % deg[d])
                           for q, d in zip(seq[-1:] + seq[:-1], seq)])
            enc *= m // n + 2
            for i, d in enumerate(seq):
                ends.append((rank[d], enc[i + 1:i + 1 + m],
                             first + sign * i % n, sign < 0))
        first += n
    ends.sort()  # the two ends of a passage leave by distinct darts
    return [(owner, back) for _, _, owner, back in ends]


def two_path_crossings(p: EdgePath, q: EdgePath) -> int:
    """Test oracle for ``intersection``: the linked pairs (s, t), s a
    passage of p's root and t one of q's, whose shared segment starts at
    the vertex of the passages, times the two powers.  Linked pairs are read
    off the prefix XOR over the tuple-keyed order of the roots' ends; the
    start rule compares the first dart of B_s with those of F_t and B_t."""
    (ru, k), (rv, m) = p.primitive_root(), q.primitive_root()
    g, u, v = p.graph, ru.darts, rv.darts
    n = len(u)
    order = _sorted_ends(g, [u, v])
    prefix, x, places = [0], 0, [[] for _ in range(n)]
    for i, j in enumerate(order):
        x ^= 1 << j
        prefix.append(x)
        if j < n:
            places[j].append(i)
    count = 0
    for s, (lo, hi) in enumerate(places):
        between = prefix[hi] ^ prefix[lo + 1]  # ends strictly inside
        start = g.pair[u[s - 1]]
        for t in range(len(v)):
            if between >> (n + t) & 1 and start not in (v[t], g.pair[v[t - 1]]):
                count += 1
    return k * m * count
