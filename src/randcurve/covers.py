"""Simple lifting degree by a backtracking search, and subgroup-counting
formulas with enumeration cross-checks.

``simple_lifting_degree`` finds, for d = ω, ω + 1, ..., the fewest sheets
on which the elevation of a curve's primitive root can close up embedded.
It walks that elevation from sheet 0, defining permutation entries only
when the walk needs them and numbering sheets in order of first visit (the
low-index-subgroups technique, Sims, *Computation with Finitely Presented
Groups*, ch. 5), and cuts a branch as soon as one sheet holds two linked
positions of the root; the linked positions are the bitmasks of
``intersect.linked_passages``, computed once per curve.  Pairwise linked
positions need distinct sheets, so the search starts at ω, the size of the
largest such set.  The linked pairs are the overlapping pairs of the
intervals between each passage's two ends, so the linked graph is a circle
graph and ``clique_number`` finds ω exactly in polynomial time (Gavril,
*Networks* 3, 1973).  The enumeration of transitive tuples the search
replaced is the oracle ``_degree_by_enumeration`` in ``tests/test_covers.py``.

``hall_count`` evaluates Hall's recursion for the number of index-d
subgroups of a free group; ``mednykh_count`` evaluates the character-sum
recursion for closed surface groups, with irreducible degrees from the hook
length formula.  Both are exact integer computations.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial

from .intersect import EdgePath, linked_passages
from .ribbon import PermRep, RibbonGraph, perm_orbit_count
from .words import CyclicWord, WordError, require


class CoverSearchError(ValueError):
    pass


# --- partitions and character degrees --------------------------------------

@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if any(p <= 0 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)


def partitions(d: int) -> list[Partition]:
    """All partitions of d, parts weakly decreasing."""
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(Partition(tuple(acc)))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            acc.append(p)
            rec(remaining - p, p, acc)
            acc.pop()

    rec(d, d, [])
    return out


def hook_degree(lam: Partition) -> int:
    """Degree of the irreducible character of S_d indexed by ``lam``
    (hook length formula, exact)."""
    parts = lam.parts
    d = lam.size
    conj = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            conj[j] += 1
    hooks = 1
    for i, p in enumerate(parts):
        for j in range(p):
            hooks *= (p - j) + (conj[j] - i) - 1
    deg, rem = divmod(factorial(d), hooks)
    require(rem == 0, "hook product does not divide d!")
    return deg


# --- counting formulas ------------------------------------------------------

@lru_cache(maxsize=None)
def hall_count(r: int, d: int) -> int:
    """Number of index-d subgroups of the free group of rank r.

    N_d = d*(d!)^(r-1) - sum_{k<d} ((d-k)!)^(r-1) * N_k.
    """
    if r < 2 or d < 1:
        raise ValueError("hall_count needs r >= 2, d >= 1")
    total = d * factorial(d) ** (r - 1)
    for k in range(1, d):
        total -= factorial(d - k) ** (r - 1) * hall_count(r, k)
    return total


@lru_cache(maxsize=None)
def _mednykh_h(g: int, d: int) -> Fraction:
    return Fraction(factorial(d)) ** (2 * g - 1) * sum(
        Fraction(1, hook_degree(lam) ** (2 * g - 2)) for lam in partitions(d))


@lru_cache(maxsize=None)
def mednykh_count(g: int, d: int) -> int:
    """Number of index-d subgroups of the genus-g closed surface group.

    N_d = h_d/(d-1)! - sum_{k<d} h_{d-k} N_k / (d-k)!  with
    h_d = (d!)^(2g-1) * sum over irreducible degrees f of f^(2-2g).
    """
    if g < 2 or d < 1:
        raise ValueError("mednykh_count needs g >= 2, d >= 1")
    total = _mednykh_h(g, d) / factorial(d - 1)
    for k in range(1, d):
        total -= _mednykh_h(g, d - k) * mednykh_count(g, k) / factorial(d - k)
    require(total.denominator == 1, "non-integral subgroup count: implementation bug")
    return int(total)


# --- enumeration ------------------------------------------------------------

MAX_REP_TUPLES = 10 ** 6  # (d!)^rank tuples transitive_reps may scan


def transitive_reps(rank: int, d: int, closed_genus: int | None = None):
    """Yield every transitive PermRep of the given degree.

    Free mode enumerates all rank-tuples of permutations with transitive
    joint action; closed mode (rank = 2*genus) additionally requires the
    product of commutators to act trivially.  Raises ``CoverSearchError``
    before the first tuple when the (d!)^rank tuples exceed
    ``MAX_REP_TUPLES``.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if factorial(d) ** rank > MAX_REP_TUPLES:
        raise CoverSearchError(
            f"{factorial(d) ** rank} tuples, budget {MAX_REP_TUPLES}")
    perms = list(permutations(range(d)))
    for tup in product(perms, repeat=rank):
        if perm_orbit_count(d, tup) != 1:
            continue
        rep = PermRep(d, tup)
        if closed_genus is not None and not rep.satisfies_closed_relation(closed_genus):
            continue
        yield rep


def subgroup_count_by_enumeration(rank: int, d: int, closed_genus: int | None = None) -> int:
    """Index-d subgroup count: transitive tuples / (d-1)! (stabilizer of a
    marked sheet)."""
    n = sum(1 for _ in transitive_reps(rank, d, closed_genus))
    cnt, rem = divmod(n, factorial(d - 1))
    require(rem == 0, "transitive count not divisible by (d-1)!")
    return cnt


# --- simple lifting degree ---------------------------------------------------

@dataclass(frozen=True)
class DegreeSearchResult:
    """``lower_bound`` is ω, the clique number of the root's linked graph and
    the search's start: the degree, found or past ``d_max``, is at least it."""
    degree: int | None
    d_max: int
    witness: PermRep | None = None
    elevation_index: int | None = None
    lower_bound: int = 1

    @property
    def found(self) -> bool:
        return self.degree is not None


def clique_number(lo, hi) -> int:
    """Size ω of a largest set of pairwise overlapping intervals
    ``(lo[i], hi[i])`` with distinct ends in 0..2L-1, in O(L^2 log L).

    Fix the clique's leftmost interval i.  The other members start inside i
    and end after it, no two nested: a longest increasing run of right ends
    taken in left-end order (patience sorting).
    """
    right = [-1] * (2 * len(lo))  # right[k]: right end of the interval starting at k
    for l, h in zip(lo, hi):
        right[l] = h
    best = 0
    for l, h in zip(lo, hi):
        tails = []  # tails[m]: least right end of an increasing run of m + 1
        for r in [r for r in right[l + 1:h] if r > h]:  # in left-end order
            m = bisect_left(tails, r)
            if m == len(tails):
                tails.append(r)
            else:
                tails[m] = r
        best = max(best, len(tails) + 1)
    return best


def _embedded_walk(letters, power: int, masks, rank: int, d: int):
    """Partial permutations on at most ``d`` sheets along which the
    elevation of ``root^power`` from sheet 0 closes up embedded, else None.

    ``fwd[k][s]`` is the image of sheet ``s`` under generator ``k+1``, -1
    where undefined; ``inv[k]`` is its inverse.  The walk defines an entry
    only when it needs one, trying each sheet in use whose opposite entry is
    free and then one new sheet, so sheets are numbered in order of first
    visit and no conjugate tuple is tried twice.  Position ``i`` may not be
    placed on a sheet holding a position ``j`` with bit ``j`` set in
    ``masks[i]``, the masks of ``linked_passages``.  Backtracking uses an
    explicit stack: the walk is root length times passes deep.
    """
    L = len(letters)
    fwd = [[-1] * d for _ in range(rank)]
    inv = [[-1] * d for _ in range(rank)]
    # per position: the entries the letter reads, and their opposite entries
    steps = [(fwd[x - 1], inv[x - 1]) if x > 0 else (inv[-x - 1], fwd[-x - 1])
             for x in letters]
    held = [0] * d  # bitmask of the root positions placed on each sheet
    walk = []  # sheet of each step; step k sits at position k % L
    choices = []  # open choices: [step, candidate sheets, next try, sheets in use]
    s, k, used = 0, 0, 1
    while True:
        i = k % L
        if k and not i and not s:
            if (k // L) % power == 0:
                return fwd
        elif not held[s] & masks[i]:
            held[s] |= 1 << i
            walk.append(s)
            out, back = steps[i]
            t = out[s]
            if t >= 0:
                s, k = t, k + 1
                continue
            cands = [u for u in range(used) if back[u] < 0]
            if used < d:
                cands.append(used)
            choices.append([k, cands, 0, used])
        # dead end, or a new choice: take the next candidate of the last choice
        while choices:
            choice = choices[-1]
            k0, cands, j, used0 = choice
            while len(walk) > k0 + 1:
                sheet = walk.pop()
                held[sheet] &= ~(1 << (len(walk) % L))
            s0 = walk[k0]
            out, back = steps[k0 % L]
            if j:  # undo the previous try
                back[out[s0]] = -1
                out[s0] = -1
            if j == len(cands):
                choices.pop()
                continue
            t = cands[j]
            choice[2] = j + 1
            out[s0], back[t] = t, s0
            used = used0 + (t == used0)
            s, k = t, k0 + 1
            break
        else:
            return None


def _complete(fwd, d: int) -> list[list[int]]:
    """Fill each partial permutation by matching its free points to its free
    images in increasing order."""
    out = []
    for p in fwd:
        images = set(p)
        free_images = iter(t for t in range(d) if t not in images)
        out.append([t if t >= 0 else next(free_images) for t in p])
    return out


def simple_lifting_degree(gamma: CyclicWord, g: RibbonGraph,
                          d_max: int = 6) -> DegreeSearchResult:
    """Least degree of a connected cover in which ``gamma`` has an embedded
    elevation, searching d = ω..d_max, ω the clique number below.

    For each d, a backtracking search walks the elevation of the primitive
    root from sheet 0 over partial permutations (see ``_embedded_walk``).
    Root positions landing on a common sheet cross exactly when their base
    residues are a linked pair (``intersect.linked_passages``), so no cover
    is built.  The walk succeeds when it returns to sheet 0 after a number of
    root passes divisible by the power.  Every sheet in use is reached by
    the walk, so every completion of the partial permutations is transitive,
    and the least d with an embedded closed walk is the degree.  The witness
    fills the undefined entries in increasing order; ``elevation_index``
    names the elevation through sheet 0.

    No sheet holds two linked positions, so pairwise linked positions lie
    on distinct sheets and the degree is at least the clique number of the
    linked graph.  The search starts at that bound (``clique_number``, read
    off the intervals of ``intersect.linked_passages``), and a bound past
    ``d_max`` ends it with no walk.
    """
    if d_max < 1:
        raise CoverSearchError(f"d_max must be positive, got {d_max}")
    if len(gamma) == 0:
        raise WordError("trivial curve")
    if g.vertex_count != 1:
        raise CoverSearchError("degree search expects a one-vertex spine")
    root, power = gamma.primitive_root()
    lo, hi, masks, _ = linked_passages(EdgePath.from_word(root, g))
    omega = clique_number(lo, hi)
    for d in range(omega, d_max + 1):
        fwd = _embedded_walk(root.letters, power, masks, g.rank, d)
        if fwd is not None:
            rep = PermRep(d, _complete(fwd, d))
            # elevations() lists the cycle through sheet 0 first
            return DegreeSearchResult(d, d_max, rep, 0, omega)
    return DegreeSearchResult(None, d_max, lower_bound=omega)


def check_degree_bounds(degree: int | None, i: int, spiral: int) -> None:
    """Raise ``InvariantViolation`` unless a found degree (None passes)
    obeys its bounds against self-intersection ``i`` and largest spiraling
    ``spiral``: degree <= 5i + 5, degree >= spiral, 1 exactly when i = 0."""
    if degree is None:
        return
    require(degree <= 5 * i + 5, "linear degree bound violated")
    require(degree >= spiral, "spiraling lower bound violated")
    require((degree == 1) == (i == 0), "degree-1 iff simple failed")
