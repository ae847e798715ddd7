"""The sorted-ends linked-pair kernel against independent oracles.

- the masks of ``linked_passages`` against the scalar ray comparison
  ``_linked`` of ``ray_oracle`` applied to every pair of passages at a
  common vertex;
- ``self_intersection`` against ``ray_oracle.primitive_self_count``, which
  weights linked passage pairs by 1/overlap instead of reading the start of
  the shared segment;
- ``intersection`` against the band-diagram brute force on short classes,
  and against ``ray_oracle.two_path_crossings`` at lengths up to 300;
- the string-keyed end order that ``linked_passages`` reads its intervals
  off, and the places of one path's ends among another's that ``_located``
  finds by bisection, against the tuple-keyed order of
  ``ray_oracle._sorted_ends``, which keys every end by its first dart's rank
  and 2 * max(len) - 1 turns;
- both counts against closed forms at lengths up to 2,000, where the keys
  widen past 32 codes.
"""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

from randcurve.intersect import (EdgePath, _end_keys, _located, _steps,
                                 brute_min_crossings, intersection,
                                 linked_passages, self_intersection)
from randcurve.ribbon import (PermRep, RibbonGraph, elevations,
                              genus2_boundary1, pair_of_pants, punctured_torus)
from randcurve.words import CyclicWord, Word, alphabet_letters, cyclic_classes, \
    cyclic_reduce
from randcurve.stats import _sample_word, uniform_reduced_word
from ray_oracle import _backward_ray, _forward_ray, _linked
from ray_oracle import _sorted_ends as tuple_sorted_ends
from ray_oracle import ends_in_order, primitive_self_count, two_path_crossings

PT, PP, G2 = punctured_torus(), pair_of_pants(), genus2_boundary1()
PRESETS = (PT, PP, G2)


def scalar_linked_masks(path):
    """Linked passage pairs by comparing rays pairwise."""
    g = path.graph
    d = path.darts
    n = len(d)
    cap = 2 * n + 4
    chords = [(_backward_ray(d, g.pair, i), _forward_ray(d, i)) for i in range(n)]
    out = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if g.vertex_of[d[i]] == g.vertex_of[d[j]] and \
                _linked(g, chords[i], chords[j], cap):
            out[i] |= 1 << j
            out[j] |= 1 << i
    return out


def primitive_paths(g, classes):
    for c in classes:
        if c.primitive_root()[1] == 1:
            yield EdgePath.from_word(c, g)


def elevation_paths(seed, count):
    """Elevations of random words to random covers of degree 2 and 3."""
    rng = random.Random(seed)
    letters = alphabet_letters(2)
    perms = {d: list(itertools.permutations(range(d))) for d in (2, 3)}
    out = []
    while len(out) < count:
        d = rng.choice((2, 3))
        phi = PermRep(d, (rng.choice(perms[d]), rng.choice(perms[d])))
        c = cyclic_reduce(Word(tuple(rng.choice(letters)
                                     for _ in range(rng.randrange(1, 9))), 2))
        if len(c) == 0:
            continue
        for e in elevations(c, phi, PT):
            path = EdgePath(e.cover, e.darts)
            if path.primitive_root()[1] == 1:
                out.append(path)
    return out


def random_primitive(rng, g, rank, lo, hi):
    letters = alphabet_letters(rank)
    while True:
        n = rng.randrange(lo, hi)
        c = cyclic_reduce(Word(tuple(rng.choice(letters) for _ in range(n)), rank))
        if len(c) and c.primitive_root()[1] == 1:
            return EdgePath.from_word(c, g)


def test_linked_masks_match_scalar_rays():
    paths = [p for g in PRESETS for p in primitive_paths(g, cyclic_classes(6))]
    paths += list(primitive_paths(G2, cyclic_classes(3, rank=4)))
    paths += elevation_paths(41, 120)
    for p in paths:
        assert list(linked_passages(p)[2]) == scalar_linked_masks(p), p.darts


def test_self_count_matches_oracle_on_every_short_class():
    classes = list(cyclic_classes(8))
    assert len(classes) == 1386
    for g in PRESETS:
        for p in primitive_paths(g, classes):
            assert self_intersection(p) == primitive_self_count(p), p.darts


def test_self_count_matches_oracle_on_higher_rank():
    for p in primitive_paths(G2, cyclic_classes(4, rank=4)):
        assert self_intersection(p) == primitive_self_count(p), p.darts
    rng = random.Random(23)
    for _ in range(25):
        p = random_primitive(rng, G2, 4, 4, 16)
        assert self_intersection(p) == primitive_self_count(p), p.darts


def rose_300_paths(seed, count):
    """A one-vertex graph of 300 darts and ``count`` reduced closed paths on
    it, each a power of a path of at most 8 darts out of 5: turns above 255,
    and few darts so that ends agree for several darts."""
    rng = random.Random(seed)
    order = list(alphabet_letters(150))
    rng.shuffle(order)
    g = RibbonGraph.rose(order)
    paths = []
    while len(paths) < count:
        pool = rng.sample(range(g.dart_count), 5)
        base = [rng.choice(pool) for _ in range(rng.randrange(1, 9))]
        if any(g.pair[x] == y for x, y in zip(base, base[1:] + base[:1])):
            continue  # not a reduced closed path
        paths.append(EdgePath(g, tuple(base * rng.randrange(1, 4))))
    return g, paths


def test_kernel_on_a_vertex_of_300_darts():
    g, paths = rose_300_paths(150, 400)
    pos = g._pos_in_vertex
    top = 0
    for p in paths:
        root, k = p.primitive_root()
        assert self_intersection(p) == \
            k * k * primitive_self_count(root) + k - 1, p.darts
        assert list(linked_passages(root)[2]) == scalar_linked_masks(root), \
            root.darts
        top = max(top, *((pos[d] - pos[g.pair[q]]) % g.dart_count
                         for q, d in zip(p.darts[-1:] + p.darts[:-1], p.darts)))
    assert top > 255


def test_self_count_matches_oracle_on_elevations():
    for p in elevation_paths(42, 200):
        assert self_intersection(p) == primitive_self_count(p), p.darts


def test_self_count_matches_oracle_on_random_long_words():
    rng = random.Random(17)
    for _ in range(40):
        p = random_primitive(rng, rng.choice((PT, PP)), 2, 8, 40)
        assert self_intersection(p) == primitive_self_count(p), p.darts


def _brute_intersection(pu, pv):
    return (brute_min_crossings([pu, pv]) - brute_min_crossings(pu)
            - brute_min_crossings(pv))


def test_intersection_matches_brute_force_on_short_classes():
    classes = list(cyclic_classes(3))
    for g in (PT, PP):
        for u, v in itertools.combinations(classes, 2):
            pu, pv = EdgePath.from_word(u, g), EdgePath.from_word(v, g)
            if pu.class_key() == pv.class_key():
                continue
            assert intersection(pu, pv) == _brute_intersection(pu, pv), (u, v)


def test_intersection_of_powers_of_one_root_matches_brute_force():
    # parallel copies of a curve cross twice per self-crossing of the root,
    # though every end of one is an end of the other
    cases = [(PT, "a", 1, 3), (PT, "ab", 1, 2), (PP, "aB", 1, 2),
             (PP, "aB", 1, 3), (PP, "aab", 1, 2)]
    nonzero = 0
    for g, root, k, m in cases:
        u = CyclicWord.from_string(root * k, 2)
        v = CyclicWord.from_string(root * m, 2)
        for w in (v, v.inverse()):
            pu, pw = EdgePath.from_word(u, g), EdgePath.from_word(w, g)
            val = intersection(pu, pw)
            assert val == intersection(pw, pu) == _brute_intersection(pu, pw), \
                (root, k, m)
            nonzero += val > 0
    assert nonzero >= 4


def assert_tuple_order(g, darts):
    """The owner of each place in the end order of ``darts``, read off the
    ``lo`` and ``hi`` of ``linked_passages``, against the tuple order."""
    owners = [None] * (2 * len(darts))
    for j, places in enumerate(zip(*linked_passages(EdgePath(g, darts))[:2])):
        for k in places:
            owners[k] = j
    assert owners == tuple_sorted_ends(g, [darts]), darts


def assert_located(g, u, v):
    """``_located``'s places of u's ends among v's: for end e of u (F_s is
    s, B_s is len(u) + s), the number of v's ends before it in the tuple
    order of the ends of both paths."""
    n, before, places = len(u), 0, {}
    for owner, back in ends_in_order(g, [u, v]):
        if owner < n:
            places[owner + n * back] = before
        else:
            before += 1
    assert _located(g, u, v)[0] == [places[e] for e in range(2 * n)], (u, v)


def test_end_order_matches_tuple_keys_on_every_short_class():
    for g in PRESETS:
        for c in cyclic_classes(8):
            assert_tuple_order(g, EdgePath.from_word(c, g).darts)


def test_end_order_matches_tuple_keys_on_two_paths():
    # the roots that ``intersection`` reads, with a root against itself and
    # its inverse, whose ends are equal in pairs
    roots = {EdgePath.from_word(c, g).primitive_root()[0]
             for g in (PT, PP) for c in cyclic_classes(4)}
    for pu, pv in itertools.product(roots, repeat=2):
        if pu.graph is pv.graph:
            assert_located(pu.graph, pu.darts, pv.darts)
            assert_located(pu.graph, pu.darts, pv.inverse().darts)


def test_end_order_matches_tuple_keys_on_covers_and_a_300_dart_vertex():
    paths = elevation_paths(43, 100)
    for p in paths:
        assert_tuple_order(p.graph, p.darts)
    rng = random.Random(44)
    letters = alphabet_letters(2)
    phi = PermRep(3, ((1, 2, 0), (0, 2, 1)))
    checked = 0
    while checked < 40:  # elevations of one curve share their cover
        c = cyclic_reduce(Word(tuple(rng.choice(letters)
                                     for _ in range(rng.randrange(2, 12))), 2))
        lifts = elevations(c, phi, PT) if len(c) else []
        if len(lifts) > 1:
            for e, f in itertools.permutations(lifts, 2):
                assert_located(lifts[0].cover, e.darts, f.darts)
            checked += 1
    g, paths = rose_300_paths(151, 200)
    for p, q in zip(paths, paths[1:]):
        assert_tuple_order(g, p.darts)
        assert_located(g, p.darts, q.darts)


def key_width(g, *paths):
    """The width, in codes, of the keys ``_end_keys`` gives ``paths``."""
    return len(_end_keys(g, paths)[0][0])


def test_ends_agreeing_on_32_codes_widen_their_keys():
    a40 = "a" * 40
    cases = [
        # ends in a run of a's agree on up to 39 codes: 32 tie, 128 do not
        (a40 + "b" + a40 + "B", 128),
        (a40 + "bb" + a40 + "BB", 128),
        ("bbb" + a40, 85),  # 32 tie, then full width
        ("aabbaBBAbab", 21),  # 21 codes are full width at once
    ]
    for word, width in cases:
        darts = EdgePath.from_word(CyclicWord.from_string(word, 2), PT).darts
        assert_tuple_order(PT, darts)
        assert key_width(PT, darts) == width, word


def test_a_cross_tie_at_32_codes_widens_the_keys():
    a, a40b = "a", "a" * 40 + "b"
    cases = [
        # the ends of a^40 b in its run of a's agree with a's for up to 39
        # codes: the keys widen to full width, 81 codes; b and B turn on
        # opposite sides of the a's, so at 32 codes one of them would be
        # placed on the wrong side
        (a40b, a, 81),
        ("a" * 40 + "B", a, 81),
        # a^33 b agrees with a on 32 codes, and no two of its own ends do:
        # a cross tie alone widens to full width, 67 codes
        ("a" * 33 + "b", a, 67),
        ("a" * 33 + "B", a, 67),
        # one root, two classes: the ties stay at full width, and equal ends
        # place u's end first
        (a40b, a40b * 2, 81),
        ("aabbaBBAbabAbbaab", a, 32),  # no tie at 32
    ]
    for word, other, width in cases:
        u, v = (EdgePath.from_word(CyclicWord.from_string(w, 2), PT)
                .primitive_root()[0].darts for w in (word, other))
        assert_located(PT, u, v)
        assert key_width(PT, v, u) == width, (word, other)


def walk_path(rng, g, lo, hi):
    """The path of a nontrivial walk class of ``lo`` to ``hi`` - 1 letters."""
    while True:
        c = cyclic_reduce(uniform_reduced_word(rng, g.rank, rng.randrange(lo, hi)))
        if len(c):
            return EdgePath.from_word(c, g)


def rose_path(rng, g, pool, length):
    """A reduced closed path of ``length`` darts of ``pool`` on a rose."""
    while True:
        darts = [rng.choice(pool)]
        for _ in range(length - 1):
            darts.append(rng.choice([d for d in pool if d != g.pair[darts[-1]]]))
        if darts[0] != g.pair[darts[-1]]:
            return EdgePath(g, tuple(darts))


def assert_crossings(p, q):
    for x, y in ((p, q), (q, p)):
        if len(x) != len(y) or x.class_key() != y.class_key():
            assert intersection(x, y) == two_path_crossings(x, y), \
                (x.darts, y.darts)


def test_intersection_matches_two_path_oracle_at_long_lengths():
    # short curves, simple and not, powers among them, against walk classes
    # of 20-300 darts, their powers and their roots; long against long
    rng = random.Random(30)
    shorts = ("a", "b", "ab", "aB", "abAB", "aab", "abab", "aaBB", "aabAB",
              "abaBAbab")
    for g in PRESETS:
        longs = [walk_path(rng, g, 20, 300) for _ in range(4)]
        longs += [EdgePath(g, p.darts * 2)
                  for p in (walk_path(rng, g, 10, 150) for _ in range(2))]
        for w in shorts:
            p = EdgePath.from_word(CyclicWord.from_string(w, g.rank), g)
            for q in rng.sample(longs, 3):
                assert_crossings(p, q)
        for p, q in itertools.combinations(longs, 2):
            assert_crossings(p, q)
        root = walk_path(rng, g, 20, 100).primitive_root()[0]
        assert_crossings(root, EdgePath(g, root.darts * 2))
        assert_crossings(root.inverse(), EdgePath(g, root.darts * 3))
    # a cover: elevations of a short curve and of walk classes
    phi = PermRep(3, ((1, 2, 0), (0, 2, 1)))
    shorts = elevations(CyclicWord.from_string("abAB", 2), phi, PT)
    for n in (20, 60, 100):
        c = cyclic_reduce(uniform_reduced_word(rng, 2, n))
        for e, f in itertools.product(shorts, elevations(c, phi, PT)):
            assert_crossings(EdgePath(e.cover, e.darts),
                             EdgePath(f.cover, f.darts))
    # a vertex of 300 darts, whose turns exceed 255
    g, paths = rose_300_paths(152, 6)
    pool = rng.sample(range(g.dart_count), 6)
    longs = [rose_path(rng, g, pool, rng.randrange(20, 300)) for _ in range(4)]
    for p in paths:
        for q in longs:
            assert_crossings(p, q)
    assert_crossings(longs[0], longs[1])


def test_self_count_of_a_k_b_k_is_k_minus_1_squared():
    # ends in the runs of a^k b^k agree on up to 2k - 2 codes, so past
    # k = 17 the keys widen beyond 32 codes
    for k in (4, 10, 50, 200, 1000):
        p = EdgePath.from_word(CyclicWord.from_string("a" * k + "b" * k, 2), PT)
        d = p.darts
        for q in (p, p.inverse(), EdgePath(PT, d[1:] + d[:1]),
                  EdgePath(PT, d[3 * k // 2:] + d[:3 * k // 2])):
            assert self_intersection(q) == (k - 1) ** 2, k


# the maximum self-intersection over the classes of each length L = 1..10,
# by enumeration (Chas-Phillips)
MAXIMA = {"punctured-torus": (PT, (0, 1, 2, 3, 4, 5, 6, 9, 12, 16)),
          "pair-of-pants": (PP, (0, 1, 2, 5, 6, 11, 12, 19, 20, 29))}


def closed_form_maximum(name, L):
    """The maximum for length ``L`` in closed form: on the torus for L >= 7,
    where it exceeds the L - 1 of b^L, and on the pants for L >= 2."""
    if name == "punctured-torus":
        return (L - 2) ** 2 // 4 if L % 2 == 0 else (L - 1) * (L - 3) // 4
    return L * L // 4 + L // 2 - 1 if L % 2 == 0 else (L * L - 1) // 4


def test_maximum_self_count_per_length_on_both_presets():
    for name, (g, maxima) in MAXIMA.items():
        best = [0] * 11
        for c in cyclic_classes(10, 2):
            best[len(c)] = max(best[len(c)],
                               self_intersection(EdgePath.from_word(c, g)))
        assert tuple(best[1:]) == maxima, name
        for L in range(7 if name == "punctured-torus" else 2, 11):
            assert closed_form_maximum(name, L) == maxima[L - 1], (name, L)


def test_long_classes_stay_at_or_below_the_maximum_for_their_length():
    # walk and ball classes of about 100-2,000 letters, and the squares and
    # cubes of two of them, whose self-intersection is k^2 i + k - 1
    classes = [cyclic_reduce(_sample_word(sampler, 2, (0.25,) * 4, n, 3, i))
               for sampler, grid in (("walk", (200, 1000)), ("ball", (100, 2000)))
               for n in grid for i in range(2)]
    classes += [CyclicWord(c.letters * k, 2) for c in (classes[0], classes[4])
                for k in (2, 3)]
    assert all(100 <= len(c) <= 2000 for c in classes)
    for name, (g, _) in MAXIMA.items():
        for c in classes:
            i = self_intersection(EdgePath.from_word(c, g))
            assert i <= closed_form_maximum(name, len(c)), (name, len(c), i)


def test_boundary_curves_of_the_pants_meet_no_class():
    # a and b are boundary curves of the pair of pants
    a, b = (EdgePath.from_word(CyclicWord.from_string(w, 2), PP) for w in "ab")
    checked = 0
    for c in cyclic_classes(8):
        if c.letters not in ((1,), (-1,), (2,), (-2,)):
            p = EdgePath.from_word(c, PP)
            assert intersection(p, a) == intersection(p, b) == 0, c
            checked += 2
    assert checked == 2764


def test_intersection_with_a_bounds_the_b_exponent_on_long_walks():
    # i(w, a) is at least the algebraic intersection |e_b(w)|, with its
    # parity
    a = EdgePath.from_word(CyclicWord.from_string("a", 2), PT)
    for n in (200, 1000, 2000):
        for index in range(10):
            c = cyclic_reduce(_sample_word("walk", 2, (0.25,) * 4, n, 3, index))
            e = c.letters.count(2) - c.letters.count(-2)
            p = EdgePath.from_word(c, PT)
            for i in (intersection(p, a), intersection(a, p)):
                assert i >= abs(e) and (i - e) % 2 == 0, (n, index, i, e)


def traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sorted_ends_memory_on_a_long_walk():
    # keys of 32 codes: the full keys of ``ray_oracle._sorted_ends``, of
    # 2 * 2,100 - 1 turns each, peak at 17.5 MB on this walk
    rng = random.Random(2050)
    p = EdgePath.from_word(cyclic_reduce(uniform_reduced_word(rng, 2, 2100)), PT)
    assert len(p) > 2000
    _steps(PT)  # the graph's tables are not part of the call

    def sort_ends():
        keys = _end_keys(PT, [p.darts])[0]
        sorted(range(len(keys)), key=keys.__getitem__)

    assert traced_peak(sort_ends) < 2 * 2 ** 20
    # the uncached pass releases the keys before it builds the masks
    assert traced_peak(lambda: linked_passages.__wrapped__(p)) <= 2.5 * 2 ** 20


def test_kernel_runs_without_numpy():
    code = "\n".join((
        "import sys",
        "from randcurve import (EdgePath, cyclic, intersection,",
        "                       punctured_torus, self_intersection,",
        "                       simple_lifting_degree)",
        "g = punctured_torus()",
        "p = EdgePath.from_word(cyclic('aabbaBBAbab'), g)",
        "assert self_intersection(p) > 0",
        "assert intersection(p, EdgePath.from_word(cyclic('a'), g)) > 0",
        "assert simple_lifting_degree(cyclic('aabb'), g).degree == 2",
        "from randcurve.stats import (ExperimentConfig, WalkDistribution,",
        "                             drift_estimate, random_walk, run_experiment)",
        "assert len(random_walk(WalkDistribution.uniform(2), 50, 0)) == 50",
        "assert drift_estimate(WalkDistribution.uniform(2), 40, 5, 0).mean > 0",
        "for family in ('spiral', 'self-int'):",
        "    run_experiment(ExperimentConfig(experiment=family, n_grid=(12,),",
        "                                    samples=3))",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
