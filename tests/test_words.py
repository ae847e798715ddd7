import itertools
import random
from collections import Counter

import pytest

from randcurve.intersect import EdgePath
from randcurve.ribbon import PermRep, elevations, punctured_torus
from randcurve.words import (RUN_TOKEN_CUT, BallSpec, CyclicWord, Word, WordError,
                             _classes_with_roots, alphabet_letters, ball_size,
                             conjugates_in_ball, cyclic_classes, cyclic_reduce,
                             least_rotation, primitive_class_count, reduce,
                             reduce_letters, satisfies_no_cancellation,
                             sphere_size, word)


def W(s, rank=2):
    return Word.from_string(s, rank)


def C(s, rank=2):
    return CyclicWord.from_string(s, rank)


def all_cyclic_classes(max_len, rank=2):
    letters = alphabet_letters(rank)
    seen = set()
    for L in range(1, max_len + 1):
        for tup in itertools.product(letters, repeat=L):
            if any(tup[i] == -tup[(i + 1) % L] for i in range(L)):
                continue
            k = least_rotation(tup)
            canon = tup[k:] + tup[:k]
            if canon not in seen:
                seen.add(canon)
                yield CyclicWord(canon, rank)


def _booth_least_rotation(seq):
    """Oracle for ``least_rotation``: Booth's failure-function algorithm."""
    n = len(seq)
    if n <= 1:
        return 0
    s = seq + seq
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j]
        i = f[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _period_scan_root(w):
    """Oracle for ``primitive_root``: the shortest p < n, tried in turn,
    with w = w[:p]^(n/p)."""
    n = len(w)
    for p in range(1, n):
        if n % p == 0 and w == w[:p] * (n // p):
            return w[:p], n // p
    return w, 1


def random_reduced(rng, length, rank=2):
    letters = alphabet_letters(rank)
    out = []
    for _ in range(length):
        out.append(rng.choice([x for x in letters if not out or x != -out[-1]]))
    return tuple(out)


def test_parse_format_roundtrip():
    w = W("aBcA", 3)
    assert w.letters == (1, -2, 3, -1)
    assert str(w) == "aBcA"
    with pytest.raises(WordError):
        W("a1b")
    with pytest.raises(WordError):
        W("abc", rank=2)  # letter outside alphabet
    assert word("aB") == Word((1, -2), 2)


def test_alphabet():
    assert alphabet_letters(2) == (1, 2, -1, -2)
    assert W("a").inverse().letters == (-1,)
    with pytest.raises(WordError):
        Word((), 0)
    with pytest.raises(WordError):
        Word((), 27)
    e = CyclicWord((), 2)
    assert e.inverse() is e


def test_reduce_examples():
    assert str(reduce(W("aAb"))) == "b"
    assert str(reduce(W(""))) == ""
    assert str(reduce(W("abBa"))) == "aa"
    # an empty stack cancels nothing, not even an item 0
    assert reduce_letters((0, 3)) == reduce_letters((5, -5, 0, 3)) == (0, 3)


def test_reduce_idempotent_random():
    rng = random.Random(0)
    for _ in range(300):
        w = Word(tuple(rng.choice(alphabet_letters(2)) for _ in range(rng.randrange(15))), 2)
        r = reduce(w)
        assert r.is_reduced()
        assert reduce(r).letters == r.letters


def test_cyclic_reduce_examples():
    assert str(cyclic_reduce(W("baB"))) == "a"
    assert str(cyclic_reduce(W("ab"))) == "ab"
    assert str(cyclic_reduce(W("Baab"))) == "aa"


def test_cyclic_reduce_conjugation_invariant():
    rng = random.Random(1)
    for _ in range(200):
        w = Word(tuple(rng.choice(alphabet_letters(2)) for _ in range(rng.randrange(1, 10))), 2)
        u = Word(random_reduced(rng, rng.randrange(6)), 2)
        conj = u.concat(w).concat(u.inverse())
        assert cyclic_reduce(conj).letters == cyclic_reduce(w).letters


def test_canonical_rotation_invariant():
    for c in itertools.islice(all_cyclic_classes(6), 300):
        w = c.letters
        for i in range(len(w)):
            assert cyclic_reduce(Word(w[i:] + w[:i], 2)).letters == w


def test_cyclic_word_validation():
    with pytest.raises(WordError):
        CyclicWord((1, -1), 2)  # not cyclically reduced
    with pytest.raises(WordError):
        CyclicWord((2, 1), 2)  # not least rotation


def test_public_constructor_still_rejects_rotations_that_are_not_least():
    # the library builds canonical words without re-running the
    # least-rotation test; the public constructor keeps it
    for c in cyclic_classes(5):
        w = c.letters
        for i in range(1, len(w)):
            if w[i:] + w[:i] != w:
                with pytest.raises(WordError):
                    CyclicWord(w[i:] + w[:i], 2)
        for built in (c, c.inverse(), c.primitive_root()[0],
                      cyclic_reduce(Word(w[1:] + w[:1], 2))):
            assert CyclicWord(built.letters, built.rank) == built


def test_primitive_root():
    root, k = C("abab").primitive_root()
    assert str(root) == "ab" and k == 2
    root, k = C("aab").primitive_root()
    assert k == 1
    with pytest.raises(WordError):
        CyclicWord((), 2).primitive_root()


def test_primitive_root_returns_primitive_word_itself():
    for c in (C("aab"), C("a"), C("abAB"), C("aabab")):
        root, k = c.primitive_root()
        assert root is c and k == 1
    for s, root_s, k in (("abab", "ab", 2), ("BaBaBa", "Ba", 3), ("AAAA", "A", 4),
                         ("aabaab", "aab", 2)):
        root, power = C(s).primitive_root()
        assert str(root) == root_s and power == k
        assert root.letters * power == C(s).letters


def test_least_rotation_matches_booth():
    # every rotation of every rank-2 class up to length 8 and of its square
    # and cube (proper powers, where the least index is the one asked for)
    for c in cyclic_classes(8, 2):
        for w in (c.letters, c.letters * 2, c.letters * 3):
            for i in range(len(w)):
                rot = w[i:] + w[:i]
                assert least_rotation(rot) == _booth_least_rotation(rot), rot
    rng = random.Random(4)
    for _ in range(3000):
        base = tuple(rng.randrange(rng.randrange(1, 4))
                     for _ in range(rng.randrange(13)))
        seq = base * rng.randrange(1, 4)
        assert least_rotation(seq) == _booth_least_rotation(seq), seq
    assert least_rotation(()) == 0 and least_rotation((5,)) == 0
    # lengths 60-700, on both sides of RUN_TOKEN_CUT, at a few rotations each
    for seq in _long_rotation_cases(random.Random(5)):
        for i in {0, 1, len(seq) // 3, len(seq) - 1}:
            rot = seq[i:] + seq[:i]
            assert least_rotation(rot) == _booth_least_rotation(rot), rot


def _long_rotation_cases(rng):
    """Sequences of 60 to 700 items: random letters, proper powers, the
    many-run families (ab)^k c, (aab)^k c and a^k b^k, one-letter words, and
    items outside the signed bytes, as the darts of a cover, which take the
    item scan at any length."""
    letters = alphabet_letters(3)
    for _ in range(40):
        yield tuple(rng.choice(letters) for _ in range(rng.randrange(60, 701)))
    for _ in range(40):
        u = tuple(rng.choice(letters) for _ in range(rng.randrange(1, 60)))
        yield u * rng.randrange(-(-60 // len(u)), 700 // len(u) + 1)
    for k in (30, 32, 33, 64, 65, 150, 233):
        for a, b, c in ((1, 2, 3), (-3, -1, 2)):
            yield (a, b) * k + (c,)
            yield (a, a, b) * k + (c,)
            yield (a,) * k + (b,) * k
            yield (a,) * (2 * k)
    for items in ((128, 129, 300), (0, 200, 0xD800, 0x10FFFF), (-1, 5, 130)):
        for _ in range(10):
            u = tuple(rng.choice(items) for _ in range(rng.randrange(1, 30)))
            seq = u * rng.randrange(1, 4)
            yield seq * -(-60 // len(seq)) + tuple(rng.choice(items)
                                                   for _ in range(rng.randrange(200)))


def test_class_key_of_a_long_path_on_a_cover():
    # degree-40 cover of the punctured torus: darts 0..159, paths past the cut
    rng = random.Random(9)
    pt = punctured_torus()
    phi = PermRep(40, tuple(tuple(rng.sample(range(40), 40)) for _ in range(2)))
    paths = [EdgePath(e.cover, e.darts) for _ in range(8)
             for e in elevations(cyclic_reduce(Word(random_reduced(
                 rng, rng.randrange(70, 140)), 2)), phi, pt) if len(e.darts) <= 700]
    assert len(paths) >= 8 and all(len(p) > RUN_TOKEN_CUT for p in paths)
    assert all(max(p.darts) >= 128 for p in paths)
    for path in paths:
        brute = min(d[i:] + d[:i] for d in (path.darts, path.inverse().darts)
                    for i in range(len(d)))
        assert path.class_key() == brute


def test_primitive_root_matches_period_scan():
    rng = random.Random(6)
    pt = punctured_torus()
    for _ in range(150):
        root = cyclic_reduce(Word(random_reduced(rng, rng.randrange(1, 60)), 2))
        if len(root) == 0:
            continue
        k = rng.randrange(1, 600 // len(root) + 1)
        c = CyclicWord(root.letters * k, 2)
        got, power = c.primitive_root()
        assert (got.letters, power) == _period_scan_root(c.letters), c
        path = EdgePath.from_word(c, pt)
        got, power = path.primitive_root()
        assert (got.darts, power) == _period_scan_root(path.darts), c


@pytest.mark.parametrize("max_len, rank", [(8, 2), (5, 3), (6, 1)])
def test_cyclic_classes_vs_product_scan(max_len, rank):
    got = [c.letters for c in cyclic_classes(max_len, rank)]
    assert len(got) == len(set(got))
    assert set(got) == {c.letters for c in all_cyclic_classes(max_len, rank)}
    assert got == sorted(got, key=lambda w: (len(w), w))
    for w in got:
        assert least_rotation(w) == 0
        assert all(w[i] != -w[(i + 1) % len(w)] for i in range(len(w)))


@pytest.mark.parametrize("max_len, rank", [(8, 2), (5, 3)])
def test_classes_with_roots_match_primitive_root(max_len, rank):
    pairs = list(_classes_with_roots(max_len, rank))
    assert [c for c, _ in pairs] == list(cyclic_classes(max_len, rank))
    for c, root_len in pairs:
        assert root_len == len(c.primitive_root()[0]), c


@pytest.mark.parametrize("rank, max_len", [(1, 12), (2, 9), (3, 6), (4, 5)])
def test_primitive_class_count_matches_enumeration(rank, max_len):
    # oracle: the (length, root length) tally of the necklace enumeration
    tally = Counter((len(c), root_len)
                    for c, root_len in _classes_with_roots(max_len, rank))
    for length in range(1, max_len + 1):
        for root_len in range(1, length + 1):
            if length % root_len == 0:
                assert primitive_class_count(rank, root_len) == \
                    tally[length, root_len], (rank, length, root_len)
    assert all(length % root_len == 0 for length, root_len in tally)


def test_cyclic_classes_edge_cases():
    assert list(cyclic_classes(0)) == []
    assert [str(c) for c in cyclic_classes(2, 1)] == ["A", "a", "AA", "aa"]
    with pytest.raises(WordError):
        list(cyclic_classes(3, 0))


def test_ball_and_sphere_sizes():
    assert sphere_size(BallSpec(2, 2)) == 12
    assert ball_size(BallSpec(2, 2)) == 17
    assert ball_size(BallSpec(1, 3)) == 7
    assert sphere_size(BallSpec(2, 0)) == 1
    with pytest.raises(WordError, match="radius must be nonnegative"):
        BallSpec(2, -1)
    # cross-check against direct enumeration of reduced words, rank 2
    for n in range(0, 5):
        count = 1
        for k in range(1, n + 1):
            count += sum(1 for w in itertools.product(alphabet_letters(2), repeat=k)
                         if all(w[i] != -w[i + 1] for i in range(k - 1)))
        assert ball_size(BallSpec(2, n)) == count


def test_no_cancellation_examples():
    c = C("aa")
    assert satisfies_no_cancellation(W("b"), c) is True
    assert satisfies_no_cancellation(W("A"), c) is False
    assert satisfies_no_cancellation(W("ba"), c) is False
    with pytest.raises(WordError, match="w must be reduced"):
        satisfies_no_cancellation(Word((1, -1), 2), C("a"))


def test_no_cancellation_length_formula_exhaustive():
    # spec invariant: exhaustive over |w| <= 5 and ||c|| <= 4
    words_by_len = {0: [()]}
    letters = alphabet_letters(2)
    for L in range(1, 6):
        words_by_len[L] = [w + (x,) for w in words_by_len[L - 1]
                           for x in letters if not w or x != -w[-1]]
    classes = list(all_cyclic_classes(4))
    for c in classes:
        for L, ws in words_by_len.items():
            for wl in ws:
                w = Word(wl, 2)
                full = w.concat(Word(c.letters, 2)).concat(w.inverse())
                exact = len(reduce(full)) == 2 * L + len(c)
                assert satisfies_no_cancellation(w, c) == exact, (wl, c)
    with pytest.raises(WordError):
        satisfies_no_cancellation(W("a"), CyclicWord((), 2))


def _conjugates_by_search(c: CyclicWord, n: int) -> int:
    """Oracle: the reduced words of length <= n conjugate to ``c``, enumerated
    one by one.  A breadth-first search starts at the rotations of ``c`` and
    conjugates by single letters, pruning anything longer than ``n``; every
    conjugate of length <= n is reached through conjugates no longer than
    itself, so the pruning is lossless.  Conjugating a reduced word by ``g``
    cancels only at its two ends, so the reduced conjugate is read off them."""
    if n < len(c):
        return 0
    letters = alphabet_letters(c.rank)
    seen = set(c.rotations())
    frontier = list(seen)
    while frontier:
        nxt = []
        for el in frontier:
            first, last = el[0], el[-1]
            grow = len(el) + 2 <= n
            for g in letters:
                if first == -g:
                    cand = el[1:-1] if last == g else el[1:] + (-g,)
                elif last == g:
                    cand = (g,) + el[:-1]
                elif grow:
                    cand = (g,) + el + (-g,)
                else:
                    continue
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return len(seen)


def test_conjugates_in_ball_examples():
    assert conjugates_in_ball(C("a"), 3) == 3
    assert conjugates_in_ball(C("a"), 0) == 0
    assert conjugates_in_ball(C("abab"), 6) == 6  # proper power: root ab
    assert conjugates_in_ball(C("aa", 1), 9) == 1  # rank 1: [c] = {c}
    assert conjugates_in_ball(C("aabAB"), 4) == 0  # n below |c|
    with pytest.raises(WordError):
        conjugates_in_ball(cyclic_reduce(W("")), 3)


def test_conjugates_in_ball_vs_formula():
    pairs = 0
    for rank, max_len, n_max in ((1, 6, 12), (2, 7, 13), (3, 4, 9), (4, 3, 8)):
        for c in all_cyclic_classes(max_len, rank):
            for n in range(0, n_max + 1):
                assert conjugates_in_ball(c, n) == _conjugates_by_search(c, n), (c, n)
                pairs += 1
    assert pairs == 11676


def test_conjugates_in_ball_lemma_bound_small():
    for c in all_cyclic_classes(4):
        for n in range(len(c), 9):
            bound = n * ball_size(BallSpec(2, (n - len(c)) // 2))
            assert conjugates_in_ball(c, n) <= bound
