import math
import random

import numpy as np
import pytest

from randcurve import fricke, verify
from randcurve.fricke import (FrickeError, FrickePoint, ParabolicWordError,
                              collar_width, distance_proxy, geodesic_length,
                              holonomy, markov_residual, minimize_curve_system,
                              minimize_length, rose_minimizer, systole_proxy)
from randcurve.words import CyclicWord, Word, alphabet_letters, cyclic_reduce


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


def test_symmetric_system_minimizer():
    res = minimize_curve_system([C("a"), C("b"), C("ab")])
    assert res.status == "converged"
    x, y, z = res.point.triple()
    assert abs(x - y) + abs(y - z) < 1e-4


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


def test_systole_proxy():
    p = FrickePoint(3, 3, 3)
    val = systole_proxy(p, 4)
    assert abs(val - 2 * math.acosh(1.5)) < 1e-9
    assert systole_proxy(p, 5) <= val + 1e-12
    # at an asymmetric point the proxy is realized by a coordinate curve
    x, y = 10.0, 2.5
    z = (x * y - math.sqrt(x * x * y * y - 4 * (x * x + y * y))) / 2
    q = FrickePoint(x, y, z)
    assert abs(systole_proxy(q, 3) - geodesic_length(C("b"), q).length) < 1e-9
    with pytest.raises(FrickeError):
        systole_proxy(p, 1)


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
