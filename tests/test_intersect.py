import itertools
import math
import random
import statistics

import pytest

from randcurve.intersect import (BudgetExceeded, EdgePath, IntersectionError,
                                 _dart_text, _darts_of, _letter_table,
                                 _simple_core,
                                 brute_min_crossings,
                                 check_invariance, intersection,
                                 self_intersection, spiraling)
from randcurve.ribbon import (PermRep, RibbonError, RibbonGraph, cover,
                              genus2_boundary1, pair_of_pants, punctured_torus,
                              signature, surface)
from randcurve.stats import _sample_word, uniform_reduced_word
from randcurve.words import CyclicWord, Word, WordError, alphabet_letters, \
    cyclic_classes, cyclic_reduce, least_rotation
from ray_oracle import _backward_ray, _divergence, _forward_ray, _linked

PT = punctured_torus()
PP = pair_of_pants()


def C(s):
    return CyclicWord.from_string(s, 2)


def P(s, g=PT):
    return EdgePath.from_word(C(s), g)


# values frozen from brute_min_crossings (band-diagram oracle)
PT_VALUES = {
    "a": 0, "ab": 0, "aB": 0, "abAB": 0, "aab": 0, "aaab": 0, "aabab": 0,
    "aaB": 0, "aa": 1, "aaa": 2, "aaaa": 3, "aabb": 1, "abab": 1, "abaB": 1,
    "aabB": 1, "aabbab": 2, "ababab": 2, "Baaaba": 3, "aabbaB": 4,
}
PP_VALUES = {
    "a": 0, "ab": 0, "aB": 1, "aab": 1, "aa": 1, "aaa": 2, "aaaa": 3,
    "aabb": 2, "abab": 1, "abaB": 2, "aaB": 2, "aaab": 2, "aabab": 2,
    "aabB": 1, "abAB": 3, "aabbab": 3, "ababab": 2, "Baaaba": 4, "aabbaB": 6,
}


@pytest.mark.parametrize("word,expected", sorted(PT_VALUES.items()))
def test_self_intersection_punctured_torus(word, expected):
    assert self_intersection(P(word)) == expected


@pytest.mark.parametrize("word,expected", sorted(PP_VALUES.items()))
def test_self_intersection_pair_of_pants(word, expected):
    assert self_intersection(P(word, PP)) == expected


def test_edge_path_validation():
    with pytest.raises(IntersectionError):
        EdgePath(PT, (0, PT.pair[0]))  # backtrack
    p = P("ab")
    assert len(p) == 2
    assert p.inverse().class_key() == p.class_key()


def test_edge_path_error_messages():
    n = PT.dart_count
    for darts in ((n, 0), (0, n)):
        with pytest.raises(IntersectionError, match=f"^dart {n} not in graph$"):
            EdgePath(PT, darts)
    for darts in ((-1, 0), (0, -1)):
        with pytest.raises(IntersectionError, match="^dart -1 not in graph$"):
            EdgePath(PT, darts)
    # sheet 0 of the a-edge leads to sheet 1, where dart 2 (b, sheet 0) is not
    two_sheets = cover(PT, PermRep(2, ((1, 0), (0, 1))))
    with pytest.raises(IntersectionError,
                       match="^path darts are not head-to-tail$"):
        EdgePath(two_sheets, (0, 2))
    with pytest.raises(IntersectionError, match="^path backtracks$"):
        EdgePath(PT, (0, PT.pair[0]))
    with pytest.raises(RibbonError, match="^no dart labeled 3$"):
        EdgePath.from_word(CyclicWord.from_string("abc", 3), PT)


def test_graph_past_the_step_codes_is_refused():
    # one vertex of 1,058 darts has 1,058 * 1,057 steps between darts, more
    # than the 0x110000 code points the kernel's step codes may use
    n = 1058
    text = "vertex " + " ".join(map(str, range(n))) + "\n" + "".join(
        f"edge {d} {d + 1} a\n" for d in range(0, n, 2))
    g = RibbonGraph.from_text(text)
    with pytest.raises(IntersectionError, match="0x110000"):
        self_intersection(EdgePath(g, (0, 2)))


def test_trivial_path_errors():
    with pytest.raises(IntersectionError):
        EdgePath(PT, ())
    with pytest.raises(IntersectionError):
        EdgePath.from_word(Word.from_string("aA", 2), PT)
    with pytest.raises(IntersectionError, match="^no paths given$"):
        brute_min_crossings([])
    p = P("aab")
    root, k = p.primitive_root()
    assert root is p and k == 1
    root, k = P("abab").primitive_root()
    assert root == P("ab") and k == 2


def test_power_formula_against_oracle():
    # cable model: k^2 * base + (k - 1), cross-checked with the oracle
    for root, k in (("a", 5), ("ab", 3), ("aab", 2), ("aabb", 2)):
        w = C(root * k)
        val = self_intersection(EdgePath.from_word(w, PT))
        assert val == brute_min_crossings(EdgePath.from_word(w, PT))
        base = self_intersection(P(root))
        assert val == k * k * base + (k - 1)


def test_oracle_agreement_exhaustive_small():
    letters = alphabet_letters(2)
    seen = set()
    for L in range(1, 6):
        for tup in itertools.product(letters, repeat=L):
            if any(tup[i] == -tup[(i + 1) % L] for i in range(L)):
                continue
            k = least_rotation(tup)
            canon = tup[k:] + tup[:k]
            if canon in seen:
                continue
            seen.add(canon)
            c = CyclicWord(canon, 2)
            for g in (PT, PP):
                p = EdgePath.from_word(c, g)
                assert self_intersection(p) == brute_min_crossings(p), c


def test_quadratic_bound_random():
    rng = random.Random(5)
    letters = alphabet_letters(2)
    for _ in range(300):
        n = rng.randrange(1, 30)
        w = Word(tuple(rng.choice(letters) for _ in range(n)), 2)
        c = cyclic_reduce(w)
        if len(c) == 0:
            continue
        i = self_intersection(EdgePath.from_word(c, PT))
        assert i <= n * (n - 1) // 2


def test_invariance_rotation_inversion_relabel():
    rng = random.Random(6)
    letters = alphabet_letters(2)
    for _ in range(80):
        c = cyclic_reduce(Word(tuple(rng.choice(letters) for _ in range(rng.randrange(2, 9))), 2))
        if len(c) == 0:
            continue
        p = EdgePath.from_word(c, PT)
        base = self_intersection(p)
        check_invariance(p, base, rng.randrange(len(c)))
        relabeled = CyclicWord.from_string(
            str(c).translate(str.maketrans("abAB", "bABa")), 2)
        assert self_intersection(EdgePath.from_word(relabeled, PT)) == base


def test_intersection_examples():
    assert intersection(P("a"), P("b")) == 1
    assert intersection(P("a"), P("abAB")) == 0
    assert intersection(P("b"), P("abAB")) == 0
    assert intersection(P("a"), P("aa")) == 0  # parallel powers
    assert intersection(P("aabb"), P("ab")) == 0


def test_intersection_errors_on_equal_classes():
    with pytest.raises(IntersectionError):
        intersection(P("a"), P("a"))
    # a conjugate representative is the same class
    conj = EdgePath.from_word(cyclic_reduce(Word.from_string("baB", 2)), PT)
    with pytest.raises(IntersectionError):
        intersection(P("a"), conj)
    # inversion also counts as equal
    with pytest.raises(IntersectionError):
        intersection(P("ab"), P("ab").inverse())


def test_intersection_compares_classes_of_equal_length_only(monkeypatch):
    # an inverse conjugate has the length of the class, and still raises
    with pytest.raises(IntersectionError, match="agree up to conjugacy"):
        intersection(P("aab"), P("ABA"))
    # distinct classes of one length still compute
    pu, pv = P("aab"), P("abb")
    assert intersection(pu, pv) == (brute_min_crossings([pu, pv])
                                    - brute_min_crossings(pu)
                                    - brute_min_crossings(pv))

    # classes of different lengths differ: no class key is built
    pairs = [(P("a"), P("ab")), (P("aabab"), P("b")), (P("aabb"), P("ab"))]
    expected = [intersection(pu, pv) for pu, pv in pairs]

    def refuse(self):
        raise AssertionError("class key built")

    monkeypatch.setattr(EdgePath, "class_key", refuse)
    assert [intersection(pu, pv) for pu, pv in pairs] == expected


def test_intersection_needs_one_graph():
    # two degree-2 covers whose darts carry the same labels, glued apart
    c1 = cover(PT, PermRep(2, ((1, 0), (0, 1))))
    c2 = cover(PT, PermRep(2, ((0, 1), (1, 0))))
    assert c1.label == c2.label and c1.pair != c2.pair
    with pytest.raises(IntersectionError, match="different graphs"):
        intersection(EdgePath(c1, (0, 1)), EdgePath(c2, (0, 0)))
    # the same graph built twice is one graph
    again = RibbonGraph.rose("abAB")
    assert intersection(P("a"), EdgePath.from_word(C("b"), again)) == 1


def test_intersection_symmetric_and_matches_oracle():
    pairs = [("a", "b"), ("a", "abAB"), ("aab", "abb"), ("aB", "ab"),
             ("aabab", "b"), ("aabb", "ab")]
    for u, v in pairs:
        pu, pv = P(u), P(v)
        val = intersection(pu, pv)
        assert val == intersection(pv, pu)
        total = brute_min_crossings([pu, pv])
        assert val == total - brute_min_crossings(pu) - brute_min_crossings(pv)


def test_brute_budget():
    # 9! orderings on one edge
    with pytest.raises(BudgetExceeded):
        brute_min_crossings(P("a" * 9))
    # 8! * 8! orderings: refused before any is tried, where a per-edge limit
    # of 8 would enumerate them all
    with pytest.raises(BudgetExceeded):
        brute_min_crossings(P("a" * 8 + "b" * 8))


def test_elevations_of_simple_curves_are_simple():
    perms = {d: list(itertools.permutations(range(d))) for d in (2, 3)}
    from randcurve.ribbon import elevations

    for w in ("a", "ab", "aB", "aab", "aabab"):
        c = C(w)
        assert self_intersection(P(w)) == 0
        for d in (2, 3):
            for tup in itertools.product(perms[d], repeat=2):
                for e in elevations(c, PermRep(d, tup), PT):
                    assert self_intersection(EdgePath(e.cover, e.darts)) == 0


# --- spiraling ---------------------------------------------------------------

def test_spiraling_examples():
    a = C("a")
    assert spiraling(C("b"), a, PT) == 0
    # a through-run (b a^3 b) crosses the annulus: not a spiral
    assert spiraling(C("baaab"), a, PT) == 0
    # b a b^-1 is the classic one-turn finger
    assert spiraling(C("baBa"), a, PT) == 1
    # B a^3 b enters and exits over a common end, winding three times
    assert spiraling(C("Baaaba"), a, PT) == 3
    assert spiraling(C("aabAAb"), a, PT) == 0


def test_spiraling_preconditions():
    with pytest.raises(IntersectionError):
        spiraling(C("aa"), C("a"), PT)  # power of the core
    with pytest.raises(IntersectionError):
        spiraling(C("b"), C("aa"), PT)  # core not simple? aa is non-simple
    with pytest.raises(IntersectionError):
        spiraling(C("baaaBbaB"), C("a"), PT)  # reduces to a power of a
    with pytest.raises(RibbonError):
        spiraling(CyclicWord.from_string("abc", 3), C("a"), PT)  # no dart c
    with pytest.raises(WordError, match="nontrivial curves"):
        spiraling(CyclicWord((), 2), C("a"), PT)


def test_spiraling_non_simple_core_raises_on_every_call():
    # the core check is cached per (core, graph); a failed check is not
    assert self_intersection(P("aabb")) == 1
    for _ in range(3):
        with pytest.raises(IntersectionError, match="simple"):
            spiraling(C("ab"), C("aabb"), PT)


def test_spiraling_alternating_calls_match_isolated_calls():
    # the dart text is cached for the last (curve, graph): interleaving
    # curves, cores and graphs must not leak one call's text into another
    g2 = genus2_boundary1()
    calls = [(C(w), C(core), g)
             for w in ("Baaaba", "baBa", "BababA", "baabab", "abab")
             for core in ("a", "b", "ab") for g in (PT, PP)]
    calls += [(CyclicWord.from_string(w, 4), CyclicWord.from_string(core, 4), g2)
              for w in ("aaCbAc", "cdCbd") for core in "ac"]

    def call(gamma, alpha, g):
        try:
            return spiraling(gamma, alpha, g)
        except IntersectionError as exc:
            return str(exc)

    isolated = []
    for args in calls:
        _dart_text.cache_clear()
        _simple_core.cache_clear()
        isolated.append(call(*args))
    assert any(isinstance(v, int) and v > 0 for v in isolated)
    assert any(isinstance(v, str) for v in isolated)
    rng = random.Random(3)
    for _ in range(3):
        order = list(range(len(calls)))
        rng.shuffle(order)
        assert [call(*calls[i]) for i in order] == [isolated[i] for i in order]


def _check_letter_table(gamma, g):
    """``_darts_of`` and ``_dart_text`` against ``dart_for_letter`` letter by
    letter and ``primitive_root``."""
    darts = tuple(g.dart_for_letter(x) for x in gamma.letters)
    text = "".join(map(chr, darts))
    assert _darts_of(gamma.letters, g) == (darts, text), gamma
    _dart_text.cache_clear()
    assert _dart_text(gamma, g) == (darts, text,
                                    gamma.primitive_root()[0].letters), gamma


def test_letter_table_matches_dart_for_letter():
    for name in ("punctured-torus", "pair-of-pants", "genus2-boundary1"):
        g = surface(name)
        for c in cyclic_classes(6, g.rank):
            _check_letter_table(c, g)
    rng = random.Random(27)
    walks = [cyclic_reduce(_sample_word("walk", 2, (0.25,) * 4,
                                        rng.randrange(450, 3801), 27, i))
             for i in range(50)]
    assert all(200 <= len(c) <= 2000 for c in walks)
    for c in walks:
        _check_letter_table(c, PT)
    # proper powers: the root is cut at the text's least period
    for c in walks[:5]:
        power = cyclic_reduce(Word(c.letters[:37] * 9, 2))
        assert power.primitive_root()[1] == 9
        _check_letter_table(power, PT)
    # a degree-101 cover, whose letter darts run past 255
    phi = PermRep(101, tuple(tuple(rng.sample(range(101), 101)) for _ in range(2)))
    big = cover(PT, phi)
    assert max(big.dart_for_letter(x) for x in (1, 2, -1, -2)) >= 256
    for c in walks[:10] + list(cyclic_classes(4)):
        _check_letter_table(c, big)


def test_letter_table_holds_no_dart_as_its_undefined_mark():
    # U+FFFE marks an undefined byte of a charmap table, so letter c, whose
    # dart is 0xFFFE, must still read as that dart; the table leaves letters
    # b and c, whose darts are 0xD800 or more, undefined, so a word with
    # either takes dart_for_letter, and a word of a alone does not
    n = 0x10000
    label = [1 if d % 2 == 0 else -1 for d in range(n)]
    label[0xD800:0xD802] = [2, -2]
    label[0xFFFE:] = [3, -3]
    g = RibbonGraph(range(n), [d ^ 1 for d in range(n)], label, 3)
    assert [g.dart_for_letter(x) for x in (2, -2, 3, -3)] == [0xD800, 0xD801,
                                                              0xFFFE, 0xFFFF]
    table = _letter_table(g)
    assert [table[x & 0xFF] for x in (2, -2, 3, -3)] == ["\ufffe"] * 4
    assert table[1] != "\ufffe" != table[-1 & 0xFF]
    for s in ("abAB", "b", "aBB", "abcABC", "c", "C", "cc", "aCbB", "bcbc"):
        _check_letter_table(CyclicWord.from_string(s, 3), g)


@pytest.mark.parametrize("name", ["punctured-torus", "pair-of-pants",
                                  "genus2-boundary1"])
def test_self_intersection_mean_matches_chas_lalley_constant(name):
    # Chas-Lalley (Invent. Math. 188, 2012): a uniform cyclically reduced
    # word of length L on a surface with boundary and Euler characteristic
    # chi has mean self-intersection about kappa L^2, kappa = chi/(3(2chi-1)),
    # with fluctuations of order L^(3/2).  Band: four standard errors of the
    # measured mean of N/L^2, plus 1/L for the finite-size bias (the ball's
    # mean/n^2 at n = 160 is 2.3% below kappa, about 0.4/n)
    g = surface(name)
    chi = signature(g).euler_characteristic
    kappa = chi / (3 * (2 * chi - 1))
    ratios, lengths = [], []
    for index in range(40):
        c = cyclic_reduce(_sample_word("ball", g.rank, None, 2000, 1, index))
        ratios.append(self_intersection(EdgePath.from_word(c, g)) / len(c) ** 2)
        lengths.append(len(c))
    se = statistics.stdev(ratios) / math.sqrt(len(ratios))
    band = 4 * se + 1 / min(lengths)
    assert abs(statistics.fmean(ratios) - kappa) <= band, (
        name, statistics.fmean(ratios), kappa, se)
    assert band < 0.03 * kappa  # 3%: far tighter than the gap from 1/9 to 1/7


def test_letter_with_no_dart_raises_on_every_call():
    gamma = CyclicWord.from_string("abc", 3)
    for _ in range(3):
        with pytest.raises(RibbonError, match="^no dart labeled 3$"):
            _darts_of(gamma.letters, PT)
        with pytest.raises(RibbonError, match="^no dart labeled 3$"):
            _dart_text(gamma, PT)
        with pytest.raises(RibbonError, match="^no dart labeled 3$"):
            EdgePath.from_word(gamma, PT)
        _check_letter_table(CyclicWord.from_string("ab", 3), PT)


def test_spiraling_errors_raise_on_every_call():
    # an error is never cached: a curve with no dart on PT (but darts on a
    # rank-4 surface), and a power of the core, fail on every call, also
    # right after a successful call on the same curve
    g2 = genus2_boundary1()
    abc = CyclicWord.from_string("abc", 3)
    a3 = CyclicWord.from_string("a", 3)
    for _ in range(2):
        assert spiraling(abc, a3, g2) == 0
        for _ in range(2):
            with pytest.raises(RibbonError, match="no dart"):
                spiraling(abc, a3, PT)
    for _ in range(2):
        assert spiraling(C("aa"), C("b"), PT) == 0
        for _ in range(2):
            with pytest.raises(IntersectionError, match="power"):
                spiraling(C("aa"), C("a"), PT)


def test_spiraling_longer_core():
    # ab is simple; these words wind along its axis and double back
    assert spiraling(C("BababA"), C("ab"), PT) == 1
    assert spiraling(C("baabab"), C("ab"), PT) == 2
    with pytest.raises(IntersectionError):
        spiraling(C("ba"), C("ab"), PT)  # same class up to rotation


def test_spiraling_bounded_by_run_length():
    rng = random.Random(9)
    letters = alphabet_letters(2)
    for _ in range(100):
        c = cyclic_reduce(Word(tuple(rng.choice(letters) for _ in range(rng.randrange(2, 14))), 2))
        if len(c) == 0:
            continue
        root = c.primitive_root()[0].letters
        if root in ((1,), (-1,)):
            continue
        val = spiraling(c, C("a"), PT)
        longest = 0
        w = c.letters
        run = 0
        for x in w + w:
            if abs(x) == 1:
                run += 1
                longest = max(longest, run)
            else:
                run = 0
        assert 0 <= val <= min(longest, len(c))


# --- spiraling oracle: the core translates of each lift, compared on rays ---

def _axis_side(g, ray, axf, axb, cap):
    """Side (+1/-1) of the core axis that a ray escapes toward, None if the
    ray is an end of the axis: the orientation of (axis forward, ray, axis
    backward) where the ray leaves the axis."""
    df, db = _divergence(ray, axf, cap), _divergence(ray, axb, cap)
    if df is None or db is None:
        return None
    if df >= db:
        back = g.pair[axf(df - 1)] if df > 0 else axb(0)
        return g.cyc_orient(axf(df), ray(df), back)
    return g.cyc_orient(g.pair[axb(db - 1)], ray(db), axb(db))


def _translate_ray(g, core, j, ray):
    """Reduced left product core^j * ray as a new ray (core given as darts)."""
    c, m = len(core), len(core) * j
    kappa = 0
    while kappa < m and ray(kappa) == g.pair[core[(m - 1 - kappa) % c]]:
        kappa += 1
    return lambda i: core[i % c] if i < m - kappa else ray(i - m + 2 * kappa)


def spiraling_by_translates(gamma, alpha, g):
    """Oracle for ``spiraling``: for the lift through each rotation of
    ``gamma`` whose two ends leave the core axis on one side, count the
    translates by core^j, j = 1..L+2, whose chord shares no end with the
    lift's and is linked with it; rays are compared to a fixed depth."""
    darts = tuple(g.dart_for_letter(x) for x in gamma.letters)
    core = tuple(g.dart_for_letter(x) for x in alpha.primitive_root()[0].letters)
    L = len(darts)
    j_max = L + 2
    cap = 2 * (j_max * len(core) + L) + 8
    axf = _forward_ray(core, 0)
    axb = _forward_ray(tuple(g.pair[d] for d in reversed(core)), 0)
    best = 0
    for i in range(L):
        chord = (_backward_ray(darts, g.pair, i), _forward_ray(darts, i))
        sides = {_axis_side(g, ray, axf, axb, cap) for ray in chord}
        if None in sides or len(sides) > 1:
            continue
        count = 0
        for j in range(1, j_max + 1):
            shifted = tuple(_translate_ray(g, core, j, ray) for ray in chord)
            if all(_divergence(a, b, cap) is not None
                   for a in chord for b in shifted):
                count += _linked(g, chord, shifted, cap)
        best = max(best, count)
    return best


def _planted_runs(rng, core, k_max=12):
    """Classes holding a run core^k or core^-k for each k = 1..k_max, and a
    second shorter run, joined by short random words."""
    out = []
    for k in range(1, k_max + 1):
        runs = [core.letters * k, core.letters * rng.randrange(k + 1)]
        if rng.random() < 0.5:
            runs[0] = core.inverse().letters * k
        w = cyclic_reduce(Word(uniform_reduced_word(rng, 2, 3).letters + runs[0] +
                               uniform_reduced_word(rng, 2, 2).letters + runs[1], 2))
        if len(w):
            out.append(w)
    return out


def test_spiraling_matches_translate_oracle():
    cases = [(c, C(core), g)
             for g, cores in ((PT, ("a", "b", "A", "ab", "aB")),
                              (PP, ("a", "b", "A", "ab")))
             for core in cores
             for c in cyclic_classes(7 if len(core) == 1 else 5, 2)]
    cases += [(c, CyclicWord.from_string(core, 4), genus2_boundary1())
              for core in "ac" for c in cyclic_classes(3, 4)]
    rng = random.Random(12)
    long_words = []
    while len(long_words) < 20:
        c = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(30, 61)))
        if len(c) >= 30:
            long_words.append(c)
    cases += [(c, C(core), PT) for core in ("a", "ab") for c in long_words]
    # simple cores that overlap their own rotations
    cases += [(c, C(core), PT) for core in ("aab", "aaB", "abb", "aabab")
              for c in cyclic_classes(5, 2)]
    cases += [(c, C(core), PT) for core in ("a", "b", "ab", "aab", "aaB", "abb",
                                            "aabab")
              for c in _planted_runs(rng, C(core))]
    # a run that starts inside the last root of an earlier run at its phase
    cases += [(C(s), C("aab"), PT) for s in ("Bababaaba", "BAbababaa", "BBAbababa")]
    for gamma, alpha, g in cases:
        root = alpha.primitive_root()[0]
        if gamma.primitive_root()[0] in (root, root.inverse()):
            with pytest.raises(IntersectionError):
                spiraling(gamma, alpha, g)
        else:
            assert spiraling(gamma, alpha, g) == \
                spiraling_by_translates(gamma, alpha, g), (gamma, alpha)
