"""Geometric intersection numbers of closed edge-paths on ribbon graphs.

``EdgePath``, ``self_intersection``, ``intersection``, ``linked_passages``
and ``spiraling`` run on one pure-Python linked-pair kernel.  Two strands
passing through a vertex of the thickened graph cross exactly when their
four ends interleave in the circular order that the fattening induces on
the ends of the universal cover (a tree); this is the linked-pair criterion
of Cohen-Lustig.  The kernel sorts the two ends of every vertex passage of
a path once.  Each legal step between darts of a graph has one character,
its step code, numbered by the first dart's vertex-major rank and the turn
and built once per graph, so a graph may have at most 0x110000 steps.  An
end's key is a slice of its path's string of codes; the keys are cut to 32
codes and widened fourfold, up to the 2 * max(len) - 1 codes that decide
every comparison, only while two of them are equal.  A passage owns the
interval between its two ends, and two passages are linked when their
intervals overlap.  The intervals and masks are kept, as tuples, for the
last path (``linked_passages``), so a lifting sample's self-intersection,
clique number and cover search share one sort of its root's ends.
``intersection(p, q)`` sorts only the ends of q's primitive root, with
their prefix XOR and first-dart blocks, and places each end of p's root
among them by bisection in one C-level map (``_located``): O((|p| + |q|)
log |q|) comparisons of keys.  Two
crossing lines share a segment of one or more vertices; a linked pair
counts only at the vertex where that segment starts, which the XOR mask of
the block of ends leaving by one dart tells, so each crossing is counted
once with integers alone.  The self-intersection of a primitive path is
half its ordered count; a proper power w^k is handled by the
k-parallel-strand cable model, contributing k^2 crossings per base crossing
plus k-1 for closing the cable.  ``check_quadratic_bound`` and
``check_invariance`` (under inversion and rotation) are the self-checks on
its values.

A word's darts come from one table per graph (``_letter_table``): the
letters, packed as signed bytes, are decoded by ``codecs.charmap_decode`` in
one C call into a string with one character per dart, the dart of each
letter, and the darts are read back from that string in C.  A byte the
table leaves undefined, a letter with no dart or a dart of 0xD800 or more,
sends the word to ``RibbonGraph.dart_for_letter``, the definition, which
raises ``RibbonError`` for a letter with no dart; the string is then joined
from those darts.

``spiraling`` is the winding of a lift to the annular cover around a simple
core, with the common-end condition, read off the same circular order of
ends.  A lift that runs s darts along the axis of a simple core, whose root
has c darts, and leaves the axis on one side at both ends crosses s // c of
its core translates, or one fewer when c divides s and, at the vertex where
the last translate's backward end and its own forward end leave the axis,
its own comes first.  The core is checked for simplicity once per (core,
graph), and its darts are read off the path that check builds; a sample's
darts, their string and its primitive root are built once per (curve,
graph) and read by its spiraling around every core.  The root is cut at the
string's least period, from ``words._period``, the one least-period search
of classes and paths.  The runs are found by a compiled regular expression
over the darts as characters, one per core orientation and phase: the next
run start whose run holds more roots than the best score so far, so only
runs that can raise the score are extended and scored in Python.

The oracle ``brute_min_crossings``, which ``verify`` runs, minimizes chord
crossings over every band-consistent strand ordering of the same diagram.
It fixes each chord end once as (zone position, sign, traversal), so an
ordering only changes the traversals' heights, and it refuses diagrams with
more than ``MAX_ORDERINGS`` = 8! orderings in total before trying any.  The
ray oracle for the self-intersection, ``primitive_self_count``, which
compares rays pairwise and weights each linked pair by 1/overlap, and the
ray helpers of the tests' ``spiraling`` oracle are in
``tests/ray_oracle.py``.
"""

from __future__ import annotations

import re
import struct
from bisect import bisect_left
from codecs import charmap_decode, utf_32_le_encode
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, permutations, product
from math import factorial, prod
from operator import and_, invert, xor

from .ribbon import RibbonGraph
from .words import (CyclicWord, InvariantViolation, Word, WordError, _period,
                    cyclic_reduce, least_rotation, require)


class IntersectionError(ValueError):
    pass


class BudgetExceeded(IntersectionError):
    pass


@dataclass(frozen=True)
class EdgePath:
    """Closed, freely reduced dart path on a ribbon graph."""

    graph: RibbonGraph
    darts: tuple[int, ...]

    def __post_init__(self):
        darts = tuple(self.darts)
        object.__setattr__(self, "darts", darts)
        if not darts:
            raise IntersectionError("trivial path has no darts")
        g = self.graph
        if _steps(g)[1].issuperset(zip(darts, darts[1:] + darts[:1])):
            return
        for d in darts:
            if not 0 <= d < g.dart_count:
                raise IntersectionError(f"dart {d} not in graph")
        for d, nd in zip(darts, darts[1:] + darts[:1]):
            if g.vertex_of[g.pair[d]] != g.vertex_of[nd]:
                raise IntersectionError("path darts are not head-to-tail")
            if nd == g.pair[d]:
                raise IntersectionError("path backtracks")

    @classmethod
    def from_word(cls, w: Word | CyclicWord, g: RibbonGraph) -> "EdgePath":
        return cls(g, _darts_of(cyclic_reduce(w).letters, g)[0])

    def __len__(self) -> int:
        return len(self.darts)

    def primitive_root(self) -> tuple["EdgePath", int]:
        p = _period("".join(map(chr, self.darts)))
        if p == len(self.darts):
            return self, 1
        return EdgePath(self.graph, self.darts[:p]), len(self.darts) // p

    def inverse(self) -> "EdgePath":
        g = self.graph
        return EdgePath(g, tuple(g.pair[d] for d in reversed(self.darts)))

    def class_key(self):
        """Canonical key of the unoriented free homotopy class: the least
        rotation of the darts or of the inverse darts."""
        return min(d[k:] + d[:k] for d in (self.darts, self.inverse().darts)
                   for k in [least_rotation(d)])


@lru_cache(maxsize=16)
def _letter_table(g: RibbonGraph) -> str:
    """The ``charmap_decode`` table of ``g``'s letters, built once per graph:
    the character at byte x & 0xFF is the dart of letter x, or U+FFFE, the
    codec's mark of an undefined byte, where x has no dart or a dart of
    0xD800 or more: the first surrogate, which the strict UTF-32 read-back
    of ``_darts_of`` refuses."""
    darts = map(g._dart_of_letter.get, [*range(128), *range(-128, 0)])
    return "".join(["\ufffe" if d is None or d >= 0xD800 else chr(d)
                    for d in darts])


def _darts_of(letters, g: RibbonGraph) -> tuple[tuple[int, ...], str]:
    """The dart of each letter, ``g.dart_for_letter`` letter by letter, and
    the same darts as a string, one character each.  The string is decoded
    in one C call from the letters packed as signed bytes, through
    ``_letter_table``, and the darts are read back from it in C.  A letter
    the table leaves undefined takes ``dart_for_letter``, which raises
    ``RibbonError`` for a letter with no dart."""
    try:
        text = charmap_decode(struct.pack(f"{len(letters)}b", *letters), None,
                              _letter_table(g))[0]
    except UnicodeDecodeError:
        darts = tuple([g.dart_for_letter(x) for x in letters])
        return darts, "".join(map(chr, darts))
    return struct.unpack(f"<{len(text)}I", utf_32_le_encode(text)[0]), text


# --- linked-pair kernel ------------------------------------------------------
#
# Passage i of a closed dart path D is its visit to the vertex dart D[i]
# leaves.  Lifted through a common lift of that vertex, it has a forward end
# F_i = (D[i], D[i+1], ...) and a backward end B_i = (pair[D[i-1]],
# pair[D[i-2]], ...).  An end is the sequence of its darts, and it is fixed by
# its first dart and its turns: the turn into dart r from dart q is the
# position of r counted counterclockwise from pair[q] at their vertex.  Ends
# sorted by (vertex of the first dart, position of that dart, turns) lie
# around each lifted vertex in the circular order of the tree's boundary.
#
# Each legal step q -> r of a graph (r leaves the vertex q arrives at and is
# not pair[q]) has one character, its step code, numbered in the order of
# (vertex-major rank of q, turn into r).  An end's key is the string of the
# codes of its steps.  Once two keys agree on their first codes, the ends
# agree on the darts those steps reach, so the next codes compare their
# turns: keys sort in the order above.  The codes are code points, below
# 0x110000, so the number of steps, sum over vertices of deg (deg - 1), may
# not exceed 1,114,112: sum deg^2 <= 0x110000 suffices, and one vertex may
# have degree 1,055.  ``_steps`` refuses a larger graph.  A cover's vertices
# have the degrees of the base's, at most 52 on a rose.
#
# The ends that leave by one dart b are consecutive in that order, and no
# passage has both ends among them (its path would backtrack), so the XOR of
# 1 << j over them is the mask of the passages touching b.

@lru_cache(maxsize=16)
def _steps(g: RibbonGraph):
    """The step codes of ``g``, ``codes[q][r]``, and its legal steps as a
    set of pairs (q, r)."""
    size = sum(len(cyc) * (len(cyc) - 1) for cyc in g.vertices)
    if size > 0x110000:
        raise IntersectionError(
            f"{size} steps between darts exceed the 0x110000 step codes of "
            "the linked-pair kernel")
    pair, pos = g.pair, g._pos_in_vertex
    codes = [None] * g.dart_count
    k = 0
    for cyc in g.vertices:
        for q in cyc:
            head = g.vertices[g.vertex_of[pair[q]]]
            p, n = pos[pair[q]], len(head)
            codes[q] = {head[(p + t) % n]: chr(k + t - 1) for t in range(1, n)}
            k += n - 1
    return tuple(codes), frozenset((q, r) for q, row in enumerate(codes)
                                  for r in row)


def _end_keys(g: RibbonGraph, paths):
    """The keys of the ends F_0, ..., F_{n-1}, B_0, ..., B_{n-1} of each
    closed path of ``paths``, path after path, and the first dart of each
    end in the same order.

    The ends of a path are periodic with its length, so two distinct ends
    of paths of lengths nu and nv differ within nu + nv - 1 darts
    (Fine-Wilf), and m = 2 * max(len) - 1 codes decide every comparison;
    equal keys of m codes are equal ends, which only powers of one root
    have.  Most ends differ within a few darts, so the keys are cut to the
    first width h of min(32, m), and widened fourfold, up to m, while any
    two keys of ``paths`` are equal: keys that differ within h codes
    compare as their ends do."""
    codes, pair = _steps(g)[0], g.pair
    m = 2 * max(map(len, paths)) - 1
    runs, firsts = [], []
    for darts in paths:
        n = len(darts)
        back = [pair[d] for d in reversed(darts)]
        # B_j is the end of ``back`` from index n - j (mod n: codes repeat)
        runs += [("".join([codes[q][r] for q, r in zip(s, s[1:] + s[:1])])
                  * (m // n + 2), starts) for s, starts in
                 ((darts, range(n)), (back, range(n, 0, -1)))]
        firsts += [*darts, *back[:1], *back[:0:-1]]
    h = min(32, m)
    while True:
        keys = [enc[i:i + h] for enc, starts in runs for i in starts]
        if h == m or len(set(keys)) == len(keys):
            return keys, firsts
        h = min(4 * h, m)


def _located(g: RibbonGraph, u, v):
    """``at``, ``masks`` and ``touch`` of the closed path ``u`` against the
    closed path ``v``.  ``at[e]`` is the number of v's ends before end e of
    u, F_0, ..., F_{n-1}, B_0, ..., B_{n-1} (n = len(u)), an end of u coming
    before the equal ends of v.  Bit j of ``masks[s]`` is set when passage s
    of u and passage j of v are linked, and bit j of ``touch[s]`` when an
    end of v's passage j leaves by the first dart of B_s.  Only v's ends are
    sorted; u's are placed among them by bisection."""
    keys, firsts = _end_keys(g, [v, u])
    nv, n = len(v), len(u)
    order = sorted(range(2 * nv), key=keys.__getitem__)
    prefix = [*accumulate([1 << i % nv for i in order], xor, initial=0)]
    block = dict.fromkeys(firsts, 0)  # dart -> XOR over v's ends
    for i, b in enumerate(firsts[:2 * nv]):
        block[b] ^= 1 << i % nv
    at = [*map(partial(bisect_left, [*map(keys.__getitem__, order)]),
               keys[2 * nv:])]
    xs = [*map(prefix.__getitem__, at)]
    return (at, [*map(xor, xs, xs[n:])],
            [*map(block.__getitem__, firsts[2 * nv + n:])])


@lru_cache(maxsize=1)
def linked_passages(path: EdgePath) -> tuple[tuple[int, ...], ...]:
    """``lo``, ``hi``, ``masks`` and ``touch`` of a primitive path.  Passage
    i owns the interval from ``lo[i]`` to ``hi[i]``, the places of its ends
    in the sorted order of the path's ends; bit j of ``masks[i]`` is set
    when passages i and j are linked, that is, when their intervals overlap,
    and bit j of ``touch[i]`` when an end of passage j leaves by the first
    dart of B_i.  Kept for the last path, because a lifting sample reads
    them for its self-intersection and its cover search; tuples, since
    callers share them."""
    g, darts = path.graph, path.darts
    n = len(darts)
    keys, firsts = _end_keys(g, [darts])
    # the sort is stable: equal full keys are ordered by passage
    order = sorted(range(2 * n), key=keys.__getitem__)
    del keys  # freed before the prefix XOR, which peaks at O(n^2) bits
    firsts = [*map(firsts.__getitem__, order)]
    order = [*map(([*range(n)] * 2).__getitem__, order)]  # their passages
    lo, hi = [-1] * n, [-1] * n
    prefix, x = [0], 0  # prefix[k]: XOR of 1 << j over the first k ends
    for k, j in enumerate(order):
        if lo[j] < 0:
            lo[j] = k
        else:
            hi[j] = k
        x ^= 1 << j
        prefix.append(x)
    cuts = [k for k in range(1, 2 * n) if firsts[k] != firsts[k - 1]]
    block = {firsts[a]: prefix[b] ^ prefix[a]
             for a, b in zip([0, *cuts], [*cuts, 2 * n])}
    pair = g.pair
    return (tuple(lo), tuple(hi),
            tuple([prefix[h] ^ prefix[l + 1] for l, h in zip(lo, hi)]),
            tuple([block[pair[d]] for d in darts[-1:] + darts[:-1]]))


def _ordered_crossings(masks, touch) -> int:
    """Linked ordered pairs (s, t), s a passage of ``masks`` and t a bit of
    ``masks[s]``, whose lines' shared segment starts at the vertex of the
    passages: B_s(0) is neither B_t(0) nor F_t(0), so t is not in
    ``touch[s]``.

    Each crossing of two lines shares a segment of one or more vertices and
    is seen at each of them; the start rule keeps the first vertex along s.
    Equal ends (powers of one root) belong to passages on one line, which the
    start rule always skips.  ``masks`` and ``touch`` are those of
    ``linked_passages`` or ``_located``.
    """
    return sum(map(int.bit_count, map(and_, masks, map(invert, touch))))


def self_intersection(p: EdgePath) -> int:
    """Geometric self-intersection number of the class carried by ``p``.

    The primitive root's crossings are half its ordered crossings; a proper
    power w^k is the k-strand cable, k^2 crossings per base crossing plus
    k-1 for closing the cable.
    """
    root, k = p.primitive_root()
    _, _, masks, touch = linked_passages(root)
    ordered = _ordered_crossings(masks, touch)
    require(ordered % 2 == 0, "odd ordered crossing count: invariant violated")
    return k * k * (ordered // 2) + (k - 1)


def check_quadratic_bound(i: int, n: int) -> None:
    """Raise ``InvariantViolation`` unless a self-intersection number ``i``
    of a word of length ``n`` is at most n(n-1)/2."""
    require(i <= n * (n - 1) // 2, "quadratic bound violated")


def check_invariance(p: EdgePath, i: int, shift: int) -> None:
    """Raise ``InvariantViolation`` unless the inverse of ``p`` and its
    rotation by ``shift`` darts have the self-intersection number ``i`` of
    ``p``."""
    require(self_intersection(p.inverse()) == i, "not inversion invariant")
    rot = EdgePath(p.graph, p.darts[shift:] + p.darts[:shift])
    require(self_intersection(rot) == i, "not rotation invariant")


def intersection(p: EdgePath, q: EdgePath) -> int:
    """Geometric intersection number of two distinct unoriented classes.

    The ends of q's primitive root are sorted and each end of p's root is
    placed among them by bisection, O((|p| + |q|) log |q|) comparisons of
    keys; passage s of p is linked with the passages of q that have one end
    between the places of F_s and B_s.  A proper power counts each crossing
    of the roots once per pair of strands.
    """
    g, h = p.graph, q.graph
    if g is not h and (g.nxt, g.pair, g.label) != (h.nxt, h.pair, h.label):
        raise IntersectionError("paths live on different graphs")
    if len(p) == len(q) and p.class_key() == q.class_key():
        raise IntersectionError(
            "classes agree up to conjugacy and inversion; use self_intersection")
    ru, k = p.primitive_root()
    rv, m = q.primitive_root()
    return k * m * _ordered_crossings(*_located(g, ru.darts, rv.darts)[1:])


# --- band-diagram oracle ---------------------------------------------------

MAX_ORDERINGS = factorial(8)  # total strand orderings brute_min_crossings tries


def brute_min_crossings(paths) -> int:
    """Minimum total crossings over all band-consistent strand orderings.

    Accepts one EdgePath or a sequence; the total includes crossings between
    different paths.  The traversals are numbered over the paths in order,
    and an ordering gives each a height h among the traversals of its edge.
    Passage k joins the end of traversal k in the zone of its out-dart to
    the end of traversal k - 1 in the zone of its in-dart.  An end in the
    zone of dart x sits at m * (position of x at its vertex) + sign * h,
    where m = 2 * (number of traversals) + 1 keeps the zones apart, and sign
    is +1 when x is the smaller dart of its edge and -1 otherwise (the flip
    that makes the band gluing orientable).  Every ordering is tried, so
    their total number, the product over edges of (traversals)!, may not
    exceed ``MAX_ORDERINGS``.
    """
    paths = [paths] if isinstance(paths, EdgePath) else list(paths)
    if not paths:
        raise IntersectionError("no paths given")
    g = paths[0].graph
    pair, pos, vertex_of = g.pair, g._pos_in_vertex, g.vertex_of
    darts = [d for p in paths for d in p.darts]
    by_edge = {}
    for k, d in enumerate(darts):
        by_edge.setdefault(min(d, pair[d]), []).append(k)
    groups = list(by_edge.values())
    total = prod(factorial(len(ks)) for ks in groups)
    if total > MAX_ORDERINGS:
        raise BudgetExceeded(f"{total} strand orderings, budget {MAX_ORDERINGS}")
    m = 2 * len(darts) + 1

    def end(x, k):
        return m * pos[x], 1 if x < pair[x] else -1, k

    chords = {}  # vertex -> its chords: the end at the out-dart, then at the in-dart
    first = 0
    for pi, p in enumerate(paths):
        n = len(p.darts)
        for t, d in enumerate(p.darts):
            k = first + (t - 1) % n
            x = pair[darts[k]]
            require(vertex_of[x] == vertex_of[d],
                    f"chord {t} of path {pi} joins two vertices")
            chords.setdefault(vertex_of[d], []).append(end(d, first + t) + end(x, k))
        first += n
    h = [0] * len(darts)
    best = None
    for orders in product(*(permutations(range(len(ks))) for ks in groups)):
        for ks, order in zip(groups, orders):
            for k, o in zip(ks, order):
                h[k] = o
        cost = 0
        for cs in chords.values():
            ends = [(u + su * h[ku], v + sv * h[kv]) for u, su, ku, v, sv, kv in cs]
            for i, (a, b) in enumerate(ends):
                for c, e in ends[i + 1:]:
                    # linked: exactly one end of (c, e) lies between a and b
                    cost += ((a < c) != (b < c)) != ((a < e) != (b < e))
        if best is None or cost < best:
            best = cost
    return best


# --- spiraling -------------------------------------------------------------

@lru_cache(maxsize=64)
def _simple_core(alpha: CyclicWord, g: RibbonGraph):
    """The darts of the primitive root of the simple core ``alpha``, and its
    letters, each in both orientations; the darts are read off the path
    whose simplicity is checked.  Raises ``IntersectionError`` when the core
    is not simple; an error is not cached, so it raises again on every
    call."""
    path = EdgePath.from_word(alpha, g)
    if self_intersection(path) != 0:
        raise IntersectionError("spiraling core must be simple")
    core = path.primitive_root()[0]
    root = alpha.primitive_root()[0]
    return ((core.darts, core.inverse().darts),
            (root.letters, root.inverse().letters))


@lru_cache(maxsize=1)
def _dart_text(gamma: CyclicWord, g: RibbonGraph):
    """The darts of ``gamma``, the same darts as a string of characters, and
    the letters of its primitive root, built once per (curve, graph): the
    spiraling of one sample around each core reads them.  The string is the
    one ``_darts_of`` returns, and the root is cut at its least period, from
    ``words._period``, the one least-period search.  Raises ``RibbonError``
    for a letter with no dart; an error is not cached, so it raises again on
    every call."""
    d, text = _darts_of(gamma.letters, g)
    return d, text, gamma.letters[:_period(text)]


@lru_cache(maxsize=1024)
def _run_search(rot: str, before: str, k: int):
    """Search for a run start: ``rot`` not preceded by ``before``, repeated
    at least ``k`` times."""
    r = re.escape(rot)
    return re.compile(f"{r}(?<!{re.escape(before)}{r})(?:{r}){{{k - 1},}}").search


def spiraling(gamma: CyclicWord, alpha: CyclicWord, g: RibbonGraph) -> int:
    """Maximal self-crossing count of a lift of ``gamma`` to the annular
    cover around ``alpha`` whose two ends escape through a common end.

    A lift meeting the core axis shares with it a maximal run of s darts of
    ``gamma`` that follow the core's root (c darts) or its inverse.  If both
    of its ends leave the axis on one side, its translate by k roots crosses
    it when kc < s, not when kc > s, and when kc = s exactly if the
    translate's backward end comes before its own forward end along that
    side.  Other lifts contribute 0.
    """
    if len(alpha) == 0 or len(gamma) == 0:
        raise WordError("spiraling needs nontrivial curves")
    cores, roots = _simple_core(alpha, g)
    d, darts, root = _dart_text(gamma, g)
    if root in roots:
        raise IntersectionError("curve is a power of a conjugate of the core")
    pair = g.pair
    L, c = len(d), len(cores[0])
    # text[i + 1] is d[i % L]; a maximal run is shorter than L + c - 1
    # (Fine-Wilf), so every run starting at 0..L-1 fits in the text
    text = darts[-1] + (darts * (c + 2))[:2 * L + c]
    best = 0
    for core in cores:
        for r in range(c):
            rot = "".join(map(chr, core[r:] + core[:r]))
            start = 1
            while m := _run_search(rot, chr(core[r - 1]), best + 1)(text, start):
                if m.start() > L:
                    break
                p = m.start() - 1
                s = m.end() - m.start()
                while d[(p + s) % L] == core[(r + s) % c]:
                    s += 1
                q = (p + s) % L
                side = g.cyc_orient(d[p], pair[d[p - 1]], pair[core[r - 1]])
                if side == g.cyc_orient(core[(r + s) % c], d[q], pair[d[q - 1]]):
                    # side +1 lies clockwise of the incoming axis dart, so the
                    # translate's end comes first when the order there is -side
                    best = s // c - (s % c == 0 and
                                     _end_order(g, d, p, q) != -side)
                start = m.start() + 1
    return best


def _end_order(g: RibbonGraph, d, p: int, q: int) -> int:
    """Orientation (+1 counterclockwise) of the end back along ``d[q-1]``,
    the backward end at ``p`` and the forward end at ``q``, which leave one
    vertex: the first darts where the two ends differ, counterclockwise from
    the dart both arrived by (the turns that order the step codes of
    ``_end_keys``).  Both ends have period len(d), so len(d) darts decide;
    equal ends would make the class conjugate to its inverse."""
    L = len(d)
    prev = d[q - 1]
    for j in range(L):
        xb, xf = g.pair[d[(p - 1 - j) % L]], d[(q + j) % L]
        if xb != xf:
            return g.cyc_orient(g.pair[prev], xb, xf)
        prev = xf
    raise InvariantViolation("a class agrees with its inverse: invariant violated")
