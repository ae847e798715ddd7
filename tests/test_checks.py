"""Property tests of the invariant checks shared by the experiment harness
and ``verify``, driven over generated cyclic classes; and, for each check,
a violating input that it must reject."""

import pytest
from hypothesis import given, settings, strategies as st

from randcurve.covers import check_degree_bounds, simple_lifting_degree
from randcurve.intersect import (EdgePath, check_invariance,
                                 check_quadratic_bound, self_intersection)
from randcurve.ribbon import pair_of_pants, punctured_torus
from randcurve.stats import _max_spiraling
from randcurve.words import (CyclicWord, Word, alphabet_letters,
                             check_conjugacy_bound, conjugates_in_ball,
                             cyclic_reduce)

PT = punctured_torus()
PP = pair_of_pants()

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=60)


def classes(max_len, rank=2):
    """Nontrivial conjugacy classes: cyclic reductions of drawn words."""
    words = st.lists(st.sampled_from(alphabet_letters(rank)), min_size=1,
                     max_size=max_len)
    return words.map(lambda w: cyclic_reduce(Word(tuple(w), rank))).filter(len)


@SETTINGS
@given(classes(12), st.sampled_from((PT, PP)))
def test_quadratic_bound_holds(c, g):
    check_quadratic_bound(self_intersection(EdgePath.from_word(c, g)), len(c))


@SETTINGS
@given(classes(12), st.sampled_from((PT, PP)), st.integers(0, 11))
def test_invariance_holds(c, g, shift):
    p = EdgePath.from_word(c, g)
    check_invariance(p, self_intersection(p), shift % len(c))


@SETTINGS
@given(classes(7))
def test_degree_bounds_hold(c):
    res = simple_lifting_degree(c, PT, d_max=4)
    check_degree_bounds(res.degree, self_intersection(EdgePath.from_word(c, PT)),
                        _max_spiraling(c, PT))


@SETTINGS
@given(st.sampled_from((2, 3)).flatmap(lambda r: classes(4, r)),
       st.integers(0, 3))
def test_conjugacy_bound_holds(c, extra):
    n = len(c) + extra
    assert check_conjugacy_bound(c, n, conjugates_in_ball(c, n)) >= 0


def test_quadratic_bound_rejects_one_over():
    check_quadratic_bound(28, 8)
    with pytest.raises(AssertionError, match="quadratic bound violated"):
        check_quadratic_bound(29, 8)


def test_invariance_rejects_wrong_count():
    p = EdgePath.from_word(CyclicWord.from_string("aabb", 2), PT)
    i = self_intersection(p)
    check_invariance(p, i, 3)
    with pytest.raises(AssertionError, match="not inversion invariant"):
        check_invariance(p, i + 1, 3)


@pytest.mark.parametrize("degree, i, spiral, message", [
    (10**6, 2, 0, "linear degree bound violated"),
    (16, 2, 0, "linear degree bound violated"),
    (2, 1, 3, "spiraling lower bound violated"),
    (2, 0, 0, "degree-1 iff simple failed"),
    (1, 1, 0, "degree-1 iff simple failed"),
])
def test_degree_bounds_reject(degree, i, spiral, message):
    with pytest.raises(AssertionError, match=message):
        check_degree_bounds(degree, i, spiral)


def test_degree_bounds_accept_the_edges():
    check_degree_bounds(15, 2, 15)
    check_degree_bounds(1, 0, 1)
    check_degree_bounds(None, 3, 7)
    check_degree_bounds(None, 0, 0)  # a simple curve searched with d_max = 0


def test_conjugacy_bound_rejects_one_over():
    c = CyclicWord.from_string("ab", 2)
    # n = 6, |c| = 2: the bound is 6 |B_2| with |B_2| = 1 + 4 + 12 = 17
    with pytest.raises(AssertionError, match="conjugacy bound violated for ab n=6"):
        check_conjugacy_bound(c, 6, 6 * 17 + 1)
    assert check_conjugacy_bound(c, 6, 6 * 17) == 0
