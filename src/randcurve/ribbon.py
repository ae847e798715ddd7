"""Ribbon graphs (fatgraphs), surface signatures, and finite covers.

A ribbon graph is a set of darts with a fixed-point-free pairing involution
(the edges) and a permutation ``nxt`` whose cycles are the vertices, read in
the counterclockwise order in which darts leave each vertex.  Thickening the
graph produces an oriented surface with boundary; faces are the cycles of
``d -> nxt[pair[d]]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .words import CyclicWord, WordError, format_letters, parse_letters, require


class RibbonError(ValueError):
    pass


@dataclass(frozen=True)
class SurfaceSignature:
    genus: int
    boundary_count: int

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.boundary_count


# --- permutations of 0..n-1 as tuples of images ---------------------------

def perm_cycles(p: tuple[int, ...]) -> list[list[int]]:
    """Cycles of ``p``, each starting at its least point, in order of that
    point."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(cyc)
    return out


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def perm_orbit_count(n: int, perms) -> int:
    """Number of orbits of the group generated by ``perms`` on 0..n-1
    (union-find over the pairs i, p[i])."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count = n
    for p in perms:
        for i, v in enumerate(p):
            ra, rb = find(i), find(v)
            if ra != rb:
                parent[ra] = rb
                count -= 1
    return count


@dataclass(frozen=True)
class PermRep:
    """Assignment of a permutation of {0..d-1} to each generator.

    ``images[i]`` acts for generator ``i+1``; inverse letters act by the
    inverse permutation.  Sheets are 0-indexed internally and 1-indexed in
    cycle notation output.
    """

    degree: int
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(tuple(p) for p in self.images))
        for p in self.images:
            if sorted(p) != list(range(self.degree)):
                raise RibbonError(f"not a permutation of 0..{self.degree - 1}: {p}")

    @property
    def rank(self) -> int:
        return len(self.images)

    @cached_property
    def _inverses(self) -> tuple[tuple[int, ...], ...]:
        return tuple(perm_inverse(p) for p in self.images)

    def perm(self, letter: int) -> tuple[int, ...]:
        if letter > 0:
            return self.images[letter - 1]
        return self._inverses[-letter - 1]

    def act(self, sheet: int, letter: int) -> int:
        return self.perm(letter)[sheet]

    def perm_of(self, letters) -> tuple[int, ...]:
        """Permutation of the word, letters acting left to right."""
        cur = list(range(self.degree))
        for x in letters:
            p = self.perm(x)
            cur = [p[s] for s in cur]
        return tuple(cur)

    @cached_property
    def is_transitive(self) -> bool:
        return self.orbit_count() == 1

    def orbit_count(self) -> int:
        return perm_orbit_count(self.degree, self.images)

    def satisfies_closed_relation(self, genus: int) -> bool:
        """Whether the images satisfy the genus-g surface relation.

        Generators are read as (a1, b1, ..., ag, bg); the product of
        commutators [a1,b1]...[ag,bg] must act trivially.
        """
        if self.rank != 2 * genus:
            raise RibbonError("closed relation needs rank == 2*genus")
        relator = [x for k in range(1, 2 * genus, 2) for x in (k, k + 1, -k, -k - 1)]
        return self.perm_of(relator) == tuple(range(self.degree))

    def cycle_notation(self, letter: int) -> str:
        parts = ["(" + " ".join(str(v + 1) for v in cyc) + ")"
                 for cyc in perm_cycles(self.perm(letter)) if len(cyc) > 1]
        return "".join(parts) or "()"


class RibbonGraph:
    """Immutable fatgraph with labeled edges.

    ``label[d]`` is the signed generator letter the dart spells when
    traversed outward; the paired dart carries the negated label.
    """

    __slots__ = ("nxt", "pair", "label", "rank", "vertex_of", "vertices",
                 "_pos_in_vertex", "_dart_of_letter")

    def __init__(self, nxt, pair, label, rank):
        nxt = tuple(nxt)
        pair = tuple(pair)
        label = tuple(label)
        n = len(nxt)
        if len(pair) != n or len(label) != n:
            raise RibbonError("nxt, pair, label must have equal length")
        if sorted(nxt) != list(range(n)) or sorted(pair) != list(range(n)):
            raise RibbonError("nxt and pair must be permutations of the darts")
        for d in range(n):
            if pair[d] == d or pair[pair[d]] != d:
                raise RibbonError("pair must be a fixed-point-free involution")
            if label[d] != -label[pair[d]]:
                raise RibbonError("paired darts must carry inverse labels")
            if label[d] == 0 or abs(label[d]) > rank:
                raise RibbonError("dart label outside alphabet")
        self.nxt = nxt
        self.pair = pair
        self.label = label
        self.rank = rank

        vertices = tuple(tuple(c) for c in perm_cycles(nxt))
        vertex_of = [0] * n
        pos = [0] * n
        for vi, cyc in enumerate(vertices):
            for pi, d in enumerate(cyc):
                vertex_of[d] = vi
                pos[d] = pi
        self.vertices = vertices
        self.vertex_of = tuple(vertex_of)
        self._pos_in_vertex = tuple(pos)

        dart_of_letter = {}
        for d in range(n):
            dart_of_letter.setdefault(label[d], d)
        self._dart_of_letter = dart_of_letter

    @property
    def dart_count(self) -> int:
        return len(self.nxt)

    @property
    def edge_count(self) -> int:
        return len(self.nxt) // 2

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def dart_for_letter(self, x: int) -> int:
        try:
            return self._dart_of_letter[x]
        except KeyError:
            raise RibbonError(f"no dart labeled {x}") from None

    def cyc_orient(self, p: int, q: int, r: int) -> int:
        """+1 if darts (p, q, r) occur counterclockwise at their vertex."""
        cyc = self.vertices[self.vertex_of[p]]
        k = len(cyc)
        pp = self._pos_in_vertex
        a = (pp[q] - pp[p]) % k
        b = (pp[r] - pp[p]) % k
        return 1 if a < b else -1

    @classmethod
    def rose(cls, order) -> "RibbonGraph":
        """One-vertex graph whose darts appear in the given cyclic order.

        ``order`` is a sequence of signed letters (or a string like "abAB")
        in which every letter of the alphabet appears exactly once; its rank
        is the largest generator in ``order``.
        """
        order = tuple(parse_letters(order) if isinstance(order, str) else order)
        if not order:
            raise RibbonError("rose order must list at least one letter")
        rank = max(abs(x) for x in order)
        if sorted(order) != [x for x in range(-rank, rank + 1) if x]:
            raise RibbonError("rose order must list every letter exactly once")
        n = len(order)
        pos = {x: i for i, x in enumerate(order)}
        return cls([(i + 1) % n for i in range(n)], [pos[-x] for x in order],
                   order, rank)

    def to_text(self) -> str:
        lines = []
        for cyc in self.vertices:
            lines.append("vertex " + " ".join(str(d) for d in cyc))
        done = set()
        for d in range(self.dart_count):
            if d in done:
                continue
            e = self.pair[d]
            done.update((d, e))
            x = self.label[d]
            lines.append(f"edge {d} {e} {format_letters([abs(x)])}"
                         if x > 0 else f"edge {e} {d} {format_letters([abs(x)])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RibbonGraph":
        """The graph of ``to_text``'s lines; ``RibbonError`` names a line it
        cannot read."""
        vertex_lines = []
        edges = []
        darts_of_line = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kind, *fields = line.split()
            if kind not in ("vertex", "edge"):
                raise RibbonError(f"unrecognized line {line!r}")
            try:
                if kind == "vertex":
                    darts = [int(t) for t in fields]
                    vertex_lines.append(darts)
                else:
                    d, e, letter = fields
                    (x,) = parse_letters(letter)
                    darts = [int(d), int(e)]
                    edges.append((*darts, x))
            except ValueError:  # the field count, a dart or the label
                raise RibbonError(f"malformed line {line!r}") from None
            darts_of_line.append((darts, line))
        n = sum(len(v) for v in vertex_lines)
        for darts, line in darts_of_line:
            if not all(0 <= d < n for d in darts):
                raise RibbonError(f"dart outside 0..{n - 1} in line {line!r}")
        nxt = [0] * n
        for cyc in vertex_lines:
            for i, d in enumerate(cyc):
                nxt[d] = cyc[(i + 1) % len(cyc)]
        pair = [-1] * n
        label = [0] * n
        for d, e, x in edges:
            pair[d], pair[e] = e, d
            label[d], label[e] = x, -x
        rank = max(abs(x) for x in label) if label else 1
        return cls(nxt, pair, label, rank)


# each preset surface's rose order
SURFACE_PRESETS = {
    "punctured-torus": "abAB",
    "pair-of-pants": "aAbB",
    "genus2-boundary1": "abABcdCD",
}


@lru_cache(maxsize=None)
def surface(name: str) -> RibbonGraph:
    """The preset surface ``name``, built once per process."""
    try:
        order = SURFACE_PRESETS[name]
    except KeyError:
        raise RibbonError(f"unknown surface preset {name!r}") from None
    return RibbonGraph.rose(order)


def punctured_torus() -> RibbonGraph:
    return surface("punctured-torus")


def pair_of_pants() -> RibbonGraph:
    return surface("pair-of-pants")


def genus2_boundary1() -> RibbonGraph:
    return surface("genus2-boundary1")


def components(g: RibbonGraph) -> int:
    """Connected components: the dart orbits of <nxt, pair>."""
    return perm_orbit_count(g.dart_count, (g.nxt, g.pair))


def faces(g: RibbonGraph) -> tuple[tuple[int, ...], ...]:
    """Boundary walks: cycles of d -> nxt[pair[d]]."""
    n = g.dart_count
    face_perm = tuple(g.nxt[g.pair[d]] for d in range(n))
    return tuple(tuple(c) for c in perm_cycles(face_perm))


def boundary_words(g: RibbonGraph) -> list[tuple[int, ...]]:
    return [tuple(g.label[d] for d in cyc) for cyc in faces(g)]


def signature(g: RibbonGraph) -> SurfaceSignature:
    """Genus and boundary count of the thickened surface."""
    if components(g) != 1:
        raise RibbonError("signature needs a connected ribbon graph")
    chi = g.vertex_count - g.edge_count
    b = len(faces(g))
    require((2 - chi - b) % 2 == 0, "non-integral genus: invariant violated")
    genus = (2 - chi - b) // 2
    require(genus >= 0, "negative genus: invariant violated")
    return SurfaceSignature(genus, b)


def cover(g: RibbonGraph, phi: PermRep) -> RibbonGraph:
    """Degree-d cover: dart (d, sheet) with pairing twisted by ``phi``.

    Cover dart ids are ``b * degree + sheet`` for base dart ``b``.
    """
    if phi.rank < g.rank:
        raise RibbonError("permutation rep must cover every generator")
    d = phi.degree
    n = g.dart_count
    nxt = [0] * (n * d)
    pair = [0] * (n * d)
    label = [0] * (n * d)
    for b in range(n):
        pb = g.pair[b]
        nb = g.nxt[b]
        lb = g.label[b]
        p = phi.perm(lb)
        for s in range(d):
            i = b * d + s
            nxt[i] = nb * d + s
            pair[i] = pb * d + p[s]
            label[i] = lb
    return RibbonGraph(nxt, pair, label, g.rank)


@dataclass(frozen=True)
class Elevation:
    start_sheet: int
    winding: int
    darts: tuple[int, ...]
    cover: RibbonGraph


def elevations(gamma: CyclicWord, phi: PermRep, base: RibbonGraph) -> list[Elevation]:
    """One elevation per cycle of phi(gamma).

    A cycle of length k through sheet s yields the closed path spelling
    gamma^k in the cover, lifted starting at sheet s.  Windings sum to the
    degree.
    """
    if len(gamma) == 0:
        raise WordError("trivial curve has no elevations")
    cov = cover(base, phi)
    d = phi.degree
    p_gamma = phi.perm_of(gamma.letters)
    out = []
    for cyc in perm_cycles(p_gamma):
        s0 = min(cyc)
        k = len(cyc)
        darts = []
        s = s0
        for _ in range(k):
            for x in gamma.letters:
                darts.append(base.dart_for_letter(x) * d + s)
                s = phi.act(s, x)
        require(s == s0, f"elevation from sheet {s0} did not close up")
        out.append(Elevation(s0, k, tuple(darts), cov))
    return out


def project_elevation(e: Elevation) -> tuple[int, ...]:
    """Letters spelled by the projected elevation path."""
    return tuple(e.cover.label[d] for d in e.darts)
