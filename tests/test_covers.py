import math
import random
from itertools import permutations, product

import pytest

from randcurve.covers import (CoverSearchError, DegreeSearchResult, Partition,
                              _complete, _embedded_walk,
                              clique_number, hall_count,
                              hook_degree, mednykh_count, partitions,
                              simple_lifting_degree,
                              subgroup_count_by_enumeration, transitive_reps)
from randcurve.intersect import EdgePath, linked_passages, self_intersection
from randcurve.ribbon import (PermRep, cover, elevations, pair_of_pants,
                              perm_cycles, perm_orbit_count, punctured_torus)
from randcurve.stats import _max_spiraling
from randcurve.words import (CyclicWord, Word, WordError, alphabet_letters,
                             cyclic_classes, cyclic_reduce)

PT = punctured_torus()


def C(s):
    return CyclicWord.from_string(s, 2)


# --- oracle for simple_lifting_degree: enumeration of transitive tuples -----

def _cycle_type_reps(d):
    """One permutation per conjugacy class of S_d (cycle type)."""
    for lam in partitions(d):
        p = []
        start = 0
        for part in lam.parts:
            p.extend(list(range(start + 1, start + part)) + [start])
            start += part
        yield tuple(p)


def _simple_elevation_sheet(rep, letters, power, masks):
    """Sheet starting an embedded elevation of root^power, else None.

    An elevation of the power is an honest embedded circle exactly when the
    root-permutation cycle length is divisible by the power and the lifted
    root-curve is embedded.  Root-elevation positions landing on a common
    sheet cross exactly when their base residues are a linked pair, so no
    cover is ever built.
    """
    L = len(letters)
    steps = [rep.perm(x) for x in letters]
    for cyc in perm_cycles(rep.perm_of(letters)):
        if len(cyc) % power != 0:
            continue
        held = [0] * rep.degree  # bitmask of the root positions on each sheet
        s = cyc[0]
        for k in range(len(cyc) * L):
            i = k % L
            if held[s] & masks[i]:
                break
            held[s] |= 1 << i
            s = steps[i][s]
        else:
            return cyc[0]
    return None


def _degree_by_enumeration(gamma, g, d_max, exhaustive=False):
    """Test oracle for ``simple_lifting_degree``: every transitive tuple of
    each degree d = 1..d_max, every cycle of the root permutation.

    The first generator is fixed to one representative per cycle type
    (valid for the existence question, since simultaneous conjugation acts
    on covers by isomorphism); ``exhaustive=True`` disables that reduction.
    """
    if len(gamma) == 0:
        raise WordError("trivial curve")
    if g.vertex_count != 1:
        raise CoverSearchError("degree search expects a one-vertex spine")
    root, power = gamma.primitive_root()
    letters = root.letters
    masks = linked_passages(EdgePath.from_word(root, g))[2]
    rank = g.rank
    for d in range(1, d_max + 1):
        perms = list(permutations(range(d)))
        first = perms if exhaustive else list(_cycle_type_reps(d))
        for p0 in first:
            for rest in product(perms, repeat=rank - 1):
                tup = (p0,) + rest
                if perm_orbit_count(d, tup) != 1:
                    continue
                rep = PermRep(d, tup)
                sheet = _simple_elevation_sheet(rep, letters, power, masks)
                if sheet is not None:
                    gamma_perm = rep.perm_of(gamma.letters)
                    idx = next(i for i, cyc in enumerate(perm_cycles(gamma_perm))
                               if sheet in cyc)
                    return DegreeSearchResult(d, d_max, rep, idx)
    return DegreeSearchResult(None, d_max)


def test_partitions():
    assert len(partitions(5)) == 7
    assert Partition((3, 1, 1)).size == 5
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError, match="positive"):
        Partition((1, 0))


def test_hook_degrees():
    assert hook_degree(Partition((3,))) == 1
    assert hook_degree(Partition((2, 1))) == 2
    assert hook_degree(Partition((2, 2))) == 2
    for d in range(1, 9):
        assert sum(hook_degree(lam) ** 2 for lam in partitions(d)) == math.factorial(d)
        for lam in partitions(d):
            assert math.factorial(d) % hook_degree(lam) == 0


def test_hall_values():
    assert [hall_count(2, d) for d in range(1, 6)] == [1, 3, 13, 71, 461]
    assert hall_count(3, 1) == 1
    with pytest.raises(ValueError):
        hall_count(1, 2)


def test_hall_vs_enumeration():
    for d in range(1, 5):
        assert subgroup_count_by_enumeration(2, d) == hall_count(2, d)
    assert subgroup_count_by_enumeration(3, 3) == hall_count(3, 3)


def test_transitive_counts():
    assert sum(1 for _ in transitive_reps(2, 1)) == 1
    reps = list(transitive_reps(2, 2))
    assert len(reps) == 3
    assert all(r.is_transitive for r in reps)
    with pytest.raises(ValueError, match="degree must be positive"):
        next(transitive_reps(2, 0))


def test_transitive_reps_budget():
    # (7!)^2 and (5!)^3 tuples are refused before the first one is scanned
    with pytest.raises(CoverSearchError):
        next(transitive_reps(2, 7))
    with pytest.raises(CoverSearchError):
        next(transitive_reps(3, 5))
    # (6!)^2 = 518,400 tuples stay within the budget
    assert next(transitive_reps(2, 6)).is_transitive


def test_mednykh_values_and_enumeration():
    assert mednykh_count(2, 1) == 1
    assert mednykh_count(2, 2) == 15  # = 2^4 - 1 nonzero classes in H^1(S_2; Z/2)
    assert subgroup_count_by_enumeration(4, 2, closed_genus=2) == 15
    # S_2 is abelian, so every transitive pair satisfies the relation at
    # d = 2; at d = 3 it rejects most of the free count's tuples
    assert mednykh_count(2, 3) == 220 < hall_count(4, 3) == 625
    assert subgroup_count_by_enumeration(4, 3, closed_genus=2) == 220
    with pytest.raises(ValueError):
        mednykh_count(1, 2)


# degrees frozen after exhaustive-search cross-validation
DEGREES = {
    "a": 1, "ab": 1, "aab": 1, "aabab": 1,
    "aa": 2, "aabb": 2, "abab": 2, "abaB": 2,
    "aaa": 3, "aabaB": 3, "aabbab": 3,
    "Baaaba": 4, "aabbaabb": 4,
}


@pytest.mark.parametrize("word,deg", sorted(DEGREES.items()))
def test_simple_lifting_degree_values(word, deg):
    res = simple_lifting_degree(C(word), PT, d_max=6)
    assert res.degree == deg
    assert res.witness is not None and res.witness.is_transitive
    assert res.elevation_index == 0


def test_degree_search_matches_exhaustive():
    rng = random.Random(31)
    letters = alphabet_letters(2)
    for _ in range(25):
        c = cyclic_reduce(Word(tuple(rng.choice(letters) for _ in range(rng.randrange(1, 8))), 2))
        if len(c) == 0:
            continue
        fast = simple_lifting_degree(c, PT, d_max=3)
        full = _degree_by_enumeration(c, PT, 3, exhaustive=True)
        assert fast.degree == full.degree, c


def _assert_witness_embedded(c, res):
    assert res.witness.degree == res.degree and res.witness.is_transitive, c
    e = elevations(c, res.witness, PT)[res.elevation_index]
    assert self_intersection(EdgePath(e.cover, e.darts)) == 0, c


def _assert_matches_oracle(classes, d_max, exhaustive=False):
    found = 0
    for c in classes:
        res = simple_lifting_degree(c, PT, d_max=d_max)
        oracle = _degree_by_enumeration(c, PT, d_max, exhaustive=exhaustive)
        assert res.degree == oracle.degree, c
        if res.found:
            assert res.lower_bound <= oracle.degree, c
            _assert_witness_embedded(c, res)
            found += 1
    return found


def test_backtracking_matches_cycle_type_enumeration_every_class():
    classes = list(cyclic_classes(8))
    assert len(classes) == 1386
    found = _assert_matches_oracle(classes, d_max=4)
    assert 0 < found < len(classes)


def test_backtracking_matches_exhaustive_enumeration_short_classes():
    _assert_matches_oracle(cyclic_classes(6), d_max=4, exhaustive=True)


def test_backtracking_matches_enumeration_on_long_walks():
    rng = random.Random(33)
    letters = alphabet_letters(2)
    words = []
    while len(words) < 40:
        c = cyclic_reduce(Word(tuple(rng.choice(letters) for _ in range(40)), 2))
        if len(c):
            words.append(c)
    found = _assert_matches_oracle(words, d_max=5)
    assert 0 < found < len(words)


def _root_masks(c):
    root, power = c.primitive_root()
    return root, power, linked_passages(EdgePath.from_word(root, PT))[2]


def _walks(seed, n, count):
    rng = random.Random(seed)
    letters = alphabet_letters(2)
    out = []
    while len(out) < count:
        c = cyclic_reduce(Word(tuple(rng.choice(letters) for _ in range(n)), 2))
        if len(c):
            out.append(c)
    return out


def _clique_number_by_networkx(nx, masks):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(masks)))
    graph.add_edges_from((i, j) for i, m in enumerate(masks)
                         for j in range(i) if m >> j & 1)
    return max(len(q) for q in nx.find_cliques(graph))


def test_clique_bound_matches_networkx():
    nx = pytest.importorskip("networkx")
    classes = list(cyclic_classes(8))
    walks = [c for n in (40, 60, 80, 120) for c in _walks(n, n, 8)]
    for g, cases in ((PT, classes + walks), (pair_of_pants(), classes)):
        for c in cases:
            lo, hi, masks, _ = linked_passages(
                EdgePath.from_word(c.primitive_root()[0], g))
            assert clique_number(lo, hi) == _clique_number_by_networkx(nx, masks), c


def test_clique_number_matches_networkx_on_random_intervals():
    # a random order of 2m labelled ends, each label owning the interval
    # between its two ends: overlap graphs short words do not reach
    nx = pytest.importorskip("networkx")
    rng = random.Random(36)
    for _ in range(200):
        m = rng.randrange(1, 61)
        ends = [j for j in range(m) for _ in range(2)]
        rng.shuffle(ends)
        lo, hi = [-1] * m, [-1] * m
        for k, j in enumerate(ends):
            if lo[j] < 0:
                lo[j] = k
            else:
                hi[j] = k
        masks = [sum(1 << j for j in range(m) if (l < lo[j] < h) != (l < hi[j] < h))
                 for l, h in zip(lo, hi)]
        assert clique_number(lo, hi) == _clique_number_by_networkx(nx, masks), ends


def _deepening_from_one(c, d_max):
    """Degree, witness and elevation index of the first d >= 1 at which the
    walk closes up embedded, with no lower bound."""
    root, power, masks = _root_masks(c)
    for d in range(1, d_max + 1):
        fwd = _embedded_walk(root.letters, power, masks, 2, d)
        if fwd is not None:
            return d, PermRep(d, _complete(fwd, d)), 0
    return None, None, None


def test_clique_start_matches_deepening_from_one():
    classes = list(cyclic_classes(7)) + _walks(35, 40, 40)
    skipped = 0
    for c in classes:
        res = simple_lifting_degree(c, PT, d_max=5)
        assert (res.degree, res.witness, res.elevation_index) == \
            _deepening_from_one(c, 5), c
        skipped += res.lower_bound > 1
    assert skipped


def test_clique_bound_past_d_max_is_not_found():
    # six pairwise linked root positions: degree 6, found with no skipped walk
    c = C("Baaaaaba")
    for d_max in (3, 5):
        res = simple_lifting_degree(c, PT, d_max=d_max)
        assert not res.found and res.lower_bound == 6
    res = simple_lifting_degree(c, PT, d_max=6)
    assert res.degree == res.lower_bound == 6


@pytest.mark.parametrize("d_max", [0, -2])
def test_nonpositive_d_max_rejected(d_max):
    with pytest.raises(CoverSearchError, match="d_max must be positive"):
        simple_lifting_degree(C("abAB"), PT, d_max=d_max)


def test_degree_search_refuses_trivial_class_and_two_vertex_spine():
    with pytest.raises(WordError, match="trivial curve"):
        simple_lifting_degree(CyclicWord((), 2), PT)
    two_sheets = cover(PT, PermRep(2, ((1, 0), (0, 1))))
    with pytest.raises(CoverSearchError, match="one-vertex spine"):
        simple_lifting_degree(C("ab"), two_sheets)


def test_deep_walk_needs_no_recursion():
    # the walk is 201 * 5 = 1005 steps deep, past the default recursion limit
    c = CyclicWord.from_string(("a" * 200 + "b") * 5, 2)
    res = simple_lifting_degree(c, PT, d_max=5)
    assert res.degree == 5 and res.witness.is_transitive


def test_degree_one_iff_simple():
    rng = random.Random(32)
    letters = alphabet_letters(2)
    for _ in range(25):
        c = cyclic_reduce(Word(tuple(rng.choice(letters) for _ in range(rng.randrange(1, 7))), 2))
        if len(c) == 0:
            continue
        res = simple_lifting_degree(c, PT, d_max=4)
        simple = self_intersection(EdgePath.from_word(c, PT)) == 0
        assert (res.degree == 1) == simple


def test_degree_invariant_under_conjugation_and_inversion():
    for w in ("aabb", "abaB", "aaa"):
        c = C(w)
        base = simple_lifting_degree(c, PT, d_max=6).degree
        assert simple_lifting_degree(c.inverse(), PT, d_max=6).degree == base
        conj = cyclic_reduce(Word.from_string("b" + w + "B", 2))
        assert simple_lifting_degree(conj, PT, d_max=6).degree == base


def test_degree_bounds():
    for w, deg in DEGREES.items():
        i = self_intersection(EdgePath.from_word(C(w), PT))
        assert deg <= 5 * i + 5
        assert deg >= _max_spiraling(C(w), PT)


def test_not_found_result():
    res = simple_lifting_degree(C("aabbaabb"), PT, d_max=3)
    assert not res.found and res.degree is None and res.d_max == 3


def test_witness_elevation_is_simple():
    for w in ("aabb", "aa", "aabbab"):
        c = C(w)
        res = simple_lifting_degree(c, PT, d_max=6)
        _assert_witness_embedded(c, res)
