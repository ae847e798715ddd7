import math
import random

import numpy as np
import pytest

from randcurve import fricke, verify
from randcurve.fricke import (FrickeError, FrickePoint, MinimizeResult,
                              ParabolicWordError, collar_width, distance_proxy,
                              geodesic_length, holonomy, markov_residual,
                              minimize_curve_system, minimize_length,
                              rose_minimizer)
from randcurve.stats import _sample_word
from randcurve.words import (CyclicWord, InvariantViolation, Word,
                             alphabet_letters, cyclic_reduce)


def C(s):
    return CyclicWord.from_string(s, 2)


def test_fricke_point_validation():
    p = FrickePoint(3, 3, 3)
    assert abs(markov_residual(*p.triple())) < 1e-9
    FrickePoint(3, 3, 6)
    with pytest.raises(FrickeError):
        FrickePoint(3, 3, 10)
    with pytest.raises(FrickeError):
        FrickePoint(2, 3, 3)


@pytest.mark.parametrize("triple", [(math.nan,) * 3, (3, math.nan, 3),
                                    (math.inf,) * 3, (3, 3, math.inf),
                                    (-math.inf, 3, 3)])
def test_fricke_point_rejects_nonfinite_traces(triple):
    with pytest.raises(FrickeError, match="finite"):
        FrickePoint(*triple)


def test_holonomy_traces():
    for p in (FrickePoint(3, 3, 3), FrickePoint(3, 3, 6),
              FrickePoint(2.9, 3.5, 7.3323491090214645)):
        A, B = holonomy(p)
        Am, Bm = np.array(A), np.array(B)
        assert abs(np.linalg.det(Am) - 1) < 1e-9
        assert abs(np.linalg.det(Bm) - 1) < 1e-9
        assert abs(np.trace(Am) - p.x) < 1e-9
        assert abs(np.trace(Bm) - p.y) < 1e-9
        assert abs(np.trace(Am @ Bm) - p.z) < 1e-9
        comm = Am @ Bm @ np.linalg.inv(Am) @ np.linalg.inv(Bm)
        assert abs(np.trace(comm) + 2.0) < 1e-9


def test_geodesic_length_examples():
    p = FrickePoint(3, 3, 3)
    rep = geodesic_length(C("a"), p)
    assert abs(rep.length - 2 * math.acosh(1.5)) < 1e-12
    assert abs(rep.length - 1.924847300238413) < 1e-6
    rep2 = geodesic_length(C("ab"), p)
    assert abs(rep2.length - rep.length) < 1e-12 and abs(rep2.trace - 3) < 1e-9
    with pytest.raises(ParabolicWordError):
        geodesic_length(Word.from_string("abAB", 2), p)
    with pytest.raises(FrickeError):
        geodesic_length(Word.from_string("aA", 2), p)


@pytest.mark.parametrize("call", [
    lambda: geodesic_length(CyclicWord((3,), 3), FrickePoint(3, 3, 3)),
    lambda: minimize_length(CyclicWord((1, 3), 3)),
], ids=["geodesic_length", "minimize_length"])
def test_letter_past_b_is_a_fricke_error(call):
    with pytest.raises(FrickeError, match="letter c is not a or b"):
        call()


def test_trace_identity():
    for p in (FrickePoint(3, 3, 3), FrickePoint(3, 3, 6)):
        tr_ab = geodesic_length(C("ab"), p).trace
        tr_aB = geodesic_length(C("aB"), p).trace
        assert abs(tr_ab + tr_aB - p.x * p.y) < 1e-9


def test_length_invariances():
    rng = random.Random(2)
    p = FrickePoint(3, 3, 6)
    letters = alphabet_letters(2)
    for _ in range(50):
        w = Word(tuple(rng.choice(letters) for _ in range(rng.randrange(1, 10))), 2)
        c = cyclic_reduce(w)
        if len(c) == 0:
            continue
        try:
            l0 = geodesic_length(c, p).length
        except ParabolicWordError:
            continue
        u = Word(tuple(rng.choice(letters) for _ in range(3)), 2)
        assert abs(geodesic_length(u.concat(w).concat(u.inverse()), p).length - l0) < 1e-9
        assert abs(geodesic_length(c.inverse(), p).length - l0) < 1e-9
        swapped = CyclicWord.from_string(str(c).translate(str.maketrans("abAB", "baBA")), 2)
        assert abs(geodesic_length(swapped, FrickePoint(p.y, p.x, p.z)).length - l0) < 1e-9


def test_long_word_lengths_do_not_overflow():
    p = FrickePoint(3, 3, 3)
    w = CyclicWord((1, 2) * 500, 2)
    val = geodesic_length(w, p).length
    assert 500 < val < 5000 and math.isfinite(val)


def _nested_word_trace(letters, A, B):
    """Oracle for ``_word_trace``: the running product as nested 2x2
    tuples, renormalized at the same threshold."""
    def mul(m, n):
        return ((m[0][0] * n[0][0] + m[0][1] * n[1][0],
                 m[0][0] * n[0][1] + m[0][1] * n[1][1]),
                (m[1][0] * n[0][0] + m[1][1] * n[1][0],
                 m[1][0] * n[0][1] + m[1][1] * n[1][1]))

    def inv(m):
        return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))

    mats = {1: A, 2: B, -1: inv(A), -2: inv(B)}
    cur = ((1.0, 0.0), (0.0, 1.0))
    scale = 0.0
    for x in letters:
        cur = mul(cur, mats[x])
        big = max(abs(cur[0][0]), abs(cur[0][1]), abs(cur[1][0]), abs(cur[1][1]))
        if big > 1e100:
            cur = ((cur[0][0] / big, cur[0][1] / big),
                   (cur[1][0] / big, cur[1][1] / big))
            scale += math.log(big)
    return cur[0][0] + cur[1][1], scale


# a unimodular A whose powers grow in one entry only, with the given sign
_ONE_ENTRY_GROWTH = {
    ("a", 1): ((2.0, 0.0), (0.0, 0.5)), ("a", -1): ((-2.0, 0.0), (0.0, -0.5)),
    ("b", 1): ((1.0, 1e98), (0.0, 1.0)), ("b", -1): ((1.0, -1e98), (0.0, 1.0)),
    ("c", 1): ((1.0, 0.0), (1e98, 1.0)), ("c", -1): ((1.0, 0.0), (-1e98, 1.0)),
    ("d", 1): ((0.5, 0.0), (0.0, 2.0)), ("d", -1): ((-0.5, 0.0), (0.0, -2.0)),
}


def _plain_power(A, k):
    """The entries (a, b, c, d) of A^k, multiplied out letter by letter
    with no renormalization."""
    (e, f), (g, h) = A
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for _ in range(k):
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


def test_word_trace_matches_nested_product_bit_for_bit():
    rng = random.Random(7)
    letters = alphabet_letters(2)
    # a point of the cusped locus and an off-locus triple with irrational entries
    for A, B in (holonomy(FrickePoint(3, 3, 6)), fricke._holonomy_raw(3.7, 4.1, 5.3)):
        for length in (1, 2, 5, 17, 60, 400):
            for _ in range(5):
                w = tuple(rng.choice(letters) for _ in range(length))
                assert fricke._word_trace(w, A, B) == _nested_word_trace(w, A, B)
        # long enough that the running product is renormalized
        tr, scale = fricke._word_trace((1, 2) * 200, A, B)
        assert (tr, scale) == _nested_word_trace((1, 2) * 200, A, B)
        assert scale > 0
    # each entry, above +1e100 and below -1e100, is the first and only one to
    # leave [-1e100, 1e100]: at the last letter, then before a tail of mixed
    # letters
    B = fricke._holonomy_raw(3.7, 4.1, 5.3)[1]
    for (entry, sign), A in _ONE_ENTRY_GROWTH.items():
        k = 1
        while all(abs(v) <= 1e100 for v in _plain_power(A, k)):
            k += 1
        outside = {name: v for name, v in zip("abcd", _plain_power(A, k))
                   if abs(v) > 1e100}
        assert list(outside) == [entry]
        assert math.copysign(1.0, outside[entry]) == sign
        w = (1,) * k
        assert fricke._word_trace(w[:-1], A, B)[1] == 0.0
        tr, scale = fricke._word_trace(w, A, B)
        assert (tr, scale) == _nested_word_trace(w, A, B) and scale > 0
        w += tuple(rng.choice(letters) for _ in range(300))
        assert fricke._word_trace(w, A, B) == _nested_word_trace(w, A, B)
    # walk classes of 600+ letters at a far point of the box, traces near 1e5
    # (the smaller root z of the cubic at x = 1e5, y = 3): the product is
    # renormalized every few dozen letters
    x, y = 1e5, 3.0
    z = (x * y - math.sqrt((x * y) ** 2 - 4.0 * (x * x + y * y))) / 2.0
    A, B = fricke._holonomy_raw(x, y, z)
    for index in range(5):
        c = cyclic_reduce(_sample_word("walk", 2, (0.25,) * 4, 1280, 3, index))
        assert len(c) >= 600
        tr, scale = fricke._word_trace(c.letters, A, B)
        assert (tr, scale) == _nested_word_trace(c.letters, A, B)
        assert scale > 5 * math.log(1e100)


# ``minimize_length`` of the walk class at seed 0, index 0, recorded before
# the ``_word_trace`` loop was rewritten: point and value as ``float.hex``.
# Every length evaluation at n = 1,280 renormalizes the running product;
# none at n = 320 does
_PINNED_MINIMIZATIONS = {
    320: (148, ("0x1.573469f25f085p+1", "0x1.83a6a7544fc8ep+1",
                "0x1.daad80968810ep+1"), "0x1.859878c72aa4fp+7", 20, 141),
    1280: (652, ("0x1.622a565687018p+1", "0x1.72a764065fd41p+1",
                 "0x1.f55ec10d61237p+1"), "0x1.a253163fcc49cp+9", 14, 98),
}


@pytest.mark.parametrize("n", sorted(_PINNED_MINIMIZATIONS))
def test_long_minimization_is_pinned_bit_for_bit(n):
    length, point, value, iterations, evaluations = _PINNED_MINIMIZATIONS[n]
    c = cyclic_reduce(_sample_word("walk", 2, (0.25,) * 4, n, 0, 0))
    assert len(c) == length
    res = minimize_length(c)
    assert res.status == "converged"
    assert tuple(v.hex() for v in res.point.triple()) == point
    assert res.value.hex() == value
    assert (res.iterations, res.evaluations) == (iterations, evaluations)


@pytest.mark.parametrize("power, sign", [(423, -1.0), (424, 1.0)])
def test_overflowing_trace_keeps_its_sign(power, sign):
    # aabAB has trace -9 at (3, 3, 3), so its k-th power has sign (-1)^k;
    # past exp(700) only the sign of the trace is shown
    p = FrickePoint(3, 3, 3)
    rep = geodesic_length(C("aabAB" * power), p)
    assert rep.trace == sign * math.inf
    assert math.isfinite(rep.length) and rep.length > 1000


def test_collar_width():
    assert abs(collar_width(2 * math.asinh(1.0)) - math.asinh(1.0)) < 1e-12
    assert collar_width(0.01) > collar_width(0.1)
    assert collar_width(10.0) < 0.02
    with pytest.raises(FrickeError):
        collar_width(0.0)


def test_minimize_non_filling_diverges():
    assert minimize_length(C("a")).status == "diverged"
    assert minimize_length(C("ab")).status == "diverged"
    assert minimize_length(C("aabb")).status == "diverged"  # disjoint from ab


def test_minimize_random_word_converges():
    rng = random.Random(11)
    letters = alphabet_letters(2)
    w = [rng.choice(letters)]
    for _ in range(19):
        w.append(rng.choice([x for x in letters if x != -w[-1]]))
    res = minimize_length(Word(tuple(w), 2))
    assert res.status == "converged"
    assert res.grad_norm < 1e-6
    assert abs(markov_residual(*res.point.triple())) < 1e-9
    assert min(res.point.triple()) > 2


def test_minimize_stalled_line_search_is_budget(monkeypatch):
    # with no projection every candidate is rejected; the raw steps of
    # "aab" from both seeds stay inside the box, so each seed stalls after
    # its first line search, away from the cusp shell
    calls = []
    grad = fricke._tangent_grad_norm
    monkeypatch.setattr(fricke, "_project_markov", lambda p: None)
    monkeypatch.setattr(fricke, "_tangent_grad_norm",
                        lambda words, p: calls.append(p) or grad(words, p))
    res = minimize_length(C("aab"))
    assert res.status == "budget" and res.point is None
    assert res.iterations == 2
    assert len(calls) == res.iterations


def test_minimize_counts_iterations_of_every_seed(monkeypatch):
    # seed (3, 3, 3) converges in 14 iterations and seed (3, 3, 6) then
    # diverges after 2 more; the converged result counts both seeds
    calls = []
    grad = fricke._tangent_grad_norm
    monkeypatch.setattr(fricke, "_tangent_grad_norm",
                        lambda words, p: calls.append(p) or grad(words, p))
    res = minimize_length(C("babbaabAbaBabbAbABaB"))
    assert res.status == "converged"
    assert res.iterations == len(calls) == 16


def _count_length_calls(monkeypatch, raise_at=None):
    """Wrap ``fricke._system_length`` to record every call; call number
    ``raise_at`` (from 1) raises ``ParabolicWordError`` instead."""
    calls = []
    length = fricke._system_length

    def counted(words, p):
        calls.append(p)
        if len(calls) == raise_at:
            raise ParabolicWordError("parabolic candidate")
        return length(words, p)

    monkeypatch.setattr(fricke, "_system_length", counted)
    return calls


@pytest.mark.parametrize("word, status", [
    ("babbaabAbaBabbAbABaB", "converged"),  # both seeds run
    ("aabb", "diverged"),  # non-filling
    ("ab", "diverged"),
])
def test_minimize_counts_length_evaluations_of_every_seed(monkeypatch, word, status):
    calls = _count_length_calls(monkeypatch)
    res = minimize_length(C(word))
    assert res.status == status
    assert res.evaluations == len(calls) > 6 * res.iterations


def test_minimize_counts_length_evaluations_that_stall_or_raise(monkeypatch):
    # the stalled line search of test_minimize_stalled_line_search_is_budget
    calls = _count_length_calls(monkeypatch)
    monkeypatch.setattr(fricke, "_project_markov", lambda p: None)
    res = minimize_length(C("aab"))
    assert res.status == "budget" and res.evaluations == len(calls)
    monkeypatch.undo()
    # call 8 is the first line-search candidate, after the seed's value and
    # its first gradient's six; a candidate whose length raises is rejected
    # (a gradient's call would not be caught) and still counted
    calls = _count_length_calls(monkeypatch, raise_at=8)
    res = minimize_length(C("babbaabAbaBabbAbABaB"))
    assert res.status == "converged" and res.evaluations == len(calls)


def test_symmetric_system_minimizer():
    res = minimize_curve_system([C("a"), C("b"), C("ab")])
    assert res.status == "converged"
    x, y, z = res.point.triple()
    assert abs(x - y) + abs(y - z) < 1e-4
    with pytest.raises(FrickeError, match="trivial word"):
        minimize_curve_system([CyclicWord((), 2)])


def test_rose_minimizer():
    rm = rose_minimizer()
    assert abs(rm.x - rm.y) < 1e-6
    # analytic solution of the symmetric slice: (2*sqrt(2), 2*sqrt(2), 4)
    assert abs(rm.x - 2 * math.sqrt(2)) < 1e-4
    assert abs(rm.z - 4.0) < 1e-3
    obj = (geodesic_length(C("a"), rm).length + geodesic_length(C("b"), rm).length)
    for other in (FrickePoint(3, 3, 3), FrickePoint(3, 3, 6)):
        alt = (geodesic_length(C("a"), other).length
               + geodesic_length(C("b"), other).length)
        assert obj <= alt + 1e-9


def test_distance_proxy():
    p, q = FrickePoint(3, 3, 3), FrickePoint(3, 3, 6)
    assert distance_proxy(p, p) == 0.0
    d = distance_proxy(p, q)
    assert d > 0
    assert abs(d - distance_proxy(q, p)) < 1e-12


def test_verify_fricke_reports_a_crash(monkeypatch):
    # a geodesic_length that crashes on words of three or more letters must
    # fail the suite, not be skipped like a parabolic word
    real = verify.geodesic_length

    def crashes_on_long_words(w, p):
        if len(w) > 2:
            raise TypeError("crash on a long word")
        return real(w, p)

    monkeypatch.setattr(verify, "geodesic_length", crashes_on_long_words)
    monkeypatch.setattr(verify, "SUITES", (("fricke", verify.verify_fricke),))
    ((name, passed, detail, _),) = verify.run_all(fast=True)
    assert name == "fricke" and not passed
    assert detail == "exception: TypeError('crash on a long word')"


def test_rose_minimizer_that_does_not_converge_is_a_failed_self_check(monkeypatch):
    # the rose curves a and b always have a minimizer: failing to find it is
    # a library bug, not a domain error
    monkeypatch.setattr(fricke, "minimize_curve_system",
                        lambda words: MinimizeResult("budget", None, None, None, 0, 0))
    rose_minimizer.cache_clear()
    try:
        with pytest.raises(InvariantViolation,
                           match="^rose minimization failed: budget$") as exc:
            rose_minimizer()
        assert not isinstance(exc.value, FrickeError)
    finally:
        rose_minimizer.cache_clear()
