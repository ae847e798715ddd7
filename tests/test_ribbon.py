import itertools
import re

import pytest

from randcurve.intersect import EdgePath
from randcurve.ribbon import (PermRep, RibbonGraph, RibbonError, SurfaceSignature,
                              boundary_words, components, cover, elevations,
                              faces, genus2_boundary1, pair_of_pants,
                              perm_cycles, perm_inverse, perm_orbit_count,
                              project_elevation, punctured_torus, signature,
                              surface)
from randcurve.words import CyclicWord


def test_signatures_of_presets():
    assert signature(punctured_torus()) == SurfaceSignature(1, 1)
    assert signature(pair_of_pants()) == SurfaceSignature(0, 3)
    assert signature(genus2_boundary1()) == SurfaceSignature(2, 1)
    annulus = RibbonGraph.rose((1, -1))
    assert signature(annulus) == SurfaceSignature(0, 2)
    assert signature(punctured_torus()).euler_characteristic == -1


def test_rose_validation():
    for order in ("abA", "", ()):  # "abA" misses B; the others are empty
        with pytest.raises(RibbonError):
            RibbonGraph.rose(order)
    g = RibbonGraph.rose("abAB")
    assert g.rank == 2 and g.dart_count == 4 and g.vertex_count == 1


def test_each_preset_is_one_object():
    # so an EdgePath equals one built on the same preset, and what is cached
    # on a surface is cached once
    assert punctured_torus() is punctured_torus() is surface("punctured-torus")
    assert pair_of_pants() is surface("pair-of-pants")
    assert genus2_boundary1() is surface("genus2-boundary1")
    c = CyclicWord.from_string("aab", 2)
    assert EdgePath.from_word(c, punctured_torus()) == EdgePath.from_word(
        c, punctured_torus())


def test_boundary_word_of_punctured_torus():
    (word,) = boundary_words(punctured_torus())
    # one boundary of length 4, the commutator class up to rotation/inversion
    c = CyclicWord.from_string("abAB", 2)
    rots = [word[i:] + word[:i] for i in range(4)]
    inv = tuple(-x for x in reversed(word))
    rots += [inv[i:] + inv[:i] for i in range(4)]
    assert len(word) == 4 and c.letters in rots


def test_serialization_roundtrip():
    for g in (punctured_torus(), pair_of_pants(), genus2_boundary1()):
        h = RibbonGraph.from_text(g.to_text())
        assert h.nxt == g.nxt and h.pair == g.pair and h.label == g.label
        assert signature(h) == signature(g)


@pytest.mark.parametrize("line", [
    "edge 0 2",  # no label
    "edge 1 9 b",  # a dart past the four darts
    "edge 0 2 ab",  # a label of two letters
    "edge 0 x a",  # a dart that is not a number
    "vertex 0 1 2 4",  # a vertex dart past the four darts
    "face 0 1",  # an unknown keyword
])
def test_from_text_names_a_malformed_line(line):
    lines = punctured_torus().to_text().splitlines()
    if line.startswith("vertex"):
        lines[0] = line
    else:
        lines.append(line)
    with pytest.raises(RibbonError, match=re.escape(repr(line))):
        RibbonGraph.from_text("\n".join(lines))


def test_perm_rep_basics():
    phi = PermRep(2, ((1, 0), (0, 1)))
    assert phi.perm(1) == (1, 0)
    assert phi.perm(-1) == (1, 0)
    assert phi.act(0, 1) == 1
    assert phi.perm_of((1, 2)) == (1, 0)
    assert phi.is_transitive
    assert phi.cycle_notation(1) == "(1 2)"
    assert phi.cycle_notation(2) == "()"
    id2 = PermRep(2, ((0, 1), (0, 1)))
    assert not id2.is_transitive
    assert id2.orbit_count() == 2


def test_closed_relation():
    # S_2 is abelian, so every 4-tuple satisfies the genus-2 relation
    phi = PermRep(2, ((1, 0), (0, 1), (1, 0), (1, 0)))
    assert phi.satisfies_closed_relation(2)
    tup3 = ((1, 2, 0), (0, 1, 2), (0, 1, 2), (0, 1, 2))
    assert PermRep(3, tup3).satisfies_closed_relation(2)
    with pytest.raises(RibbonError):
        PermRep(2, ((1, 0),)).satisfies_closed_relation(2)


def test_cover_spec_example():
    # d=2, phi(a) = (1 2), phi(b) = id over the punctured torus
    pt = punctured_torus()
    phi = PermRep(2, ((1, 0), (0, 1)))
    cov = cover(pt, phi)
    sig = signature(cov)
    assert cov.vertex_count == 2 and cov.edge_count == 4
    assert (sig.genus, sig.boundary_count) == (1, 2)
    assert sig.euler_characteristic == -2


def test_identity_cover_is_copy():
    pt = punctured_torus()
    phi = PermRep(1, ((0,), (0,)))
    cov = cover(pt, phi)
    assert cov.nxt == pt.nxt and cov.pair == pt.pair and cov.label == pt.label


def test_nontransitive_cover_components():
    pt = punctured_torus()
    phi = PermRep(2, ((0, 1), (0, 1)))
    cov = cover(pt, phi)
    assert components(cov) == phi.orbit_count() == 2
    with pytest.raises(RibbonError):
        signature(cov)


def test_cover_euler_multiplicative():
    pt = punctured_torus()
    perms3 = list(itertools.permutations(range(3)))
    for pa in perms3:
        for pb in perms3:
            cov = cover(pt, PermRep(3, (pa, pb)))
            assert cov.vertex_count - cov.edge_count == 3 * (-1)


def test_cover_boundaries_are_elevations_of_base_boundary():
    pt = punctured_torus()
    base = boundary_words(pt)[0]
    rots = [base[i:] + base[:i] for i in range(len(base))]
    perms = list(itertools.permutations(range(3)))
    for pa, pb in itertools.islice(itertools.product(perms, perms), 0, None, 7):
        cov = cover(pt, PermRep(3, (pa, pb)))
        total = 0
        for f in faces(cov):
            w = tuple(cov.label[d] for d in f)
            k, rem = divmod(len(w), len(base))
            assert rem == 0
            assert any(w == r * k for r in rots)
            total += k
        assert total == 3


def test_elevations_examples():
    pt = punctured_torus()
    a = CyclicWord.from_string("a", 2)
    b = CyclicWord.from_string("b", 2)
    aab = CyclicWord.from_string("aab", 2)
    swap = PermRep(2, ((1, 0), (0, 1)))
    els = elevations(a, swap, pt)
    assert len(els) == 1 and els[0].winding == 2
    els = elevations(b, swap, pt)
    assert len(els) == 2 and all(e.winding == 1 for e in els)
    els = elevations(aab, swap, pt)  # phi(aab) = id
    assert len(els) == 2 and all(e.winding == 1 for e in els)
    assert sum(e.winding for e in els) == 2
    for e in els:
        assert project_elevation(e) == aab.letters * e.winding


def test_surface_preset_lookup():
    assert surface("punctured-torus").rank == 2
    with pytest.raises(RibbonError):
        surface("klein-bottle")


def _orbits_by_closure(n, perms):
    """Orbits as sets: grow each point's set by images and preimages under
    every permutation until it stops growing."""
    orbits = set()
    for start in range(n):
        orbit = {start}
        while True:
            grown = orbit | {p[i] for p in perms for i in orbit} | {
                i for p in perms for i in range(n) if p[i] in orbit}
            if grown == orbit:
                break
            orbit = grown
        orbits.add(frozenset(orbit))
    return orbits


def _perm_from_cycle_notation(text, d):
    p = list(range(d))
    for part in text.strip("()").split(")("):
        cyc = [int(v) - 1 for v in part.split()]
        for k, v in enumerate(cyc):
            p[v] = cyc[(k + 1) % len(cyc)]
    return tuple(p)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_permutation_helpers_vs_closure(d):
    perms = list(itertools.permutations(range(d)))
    identity = tuple(range(d))
    for p in perms:
        q = perm_inverse(p)
        assert all(q[p[i]] == i for i in range(d))
        cycles = perm_cycles(p)
        assert sorted(v for c in cycles for v in c) == list(identity)
        assert [c[0] for c in cycles] == sorted(min(c) for c in cycles)
        for c in cycles:
            assert all(p[c[k]] == c[(k + 1) % len(c)] for k in range(len(c)))
    for tup in itertools.product(perms, repeat=2):
        orbits = _orbits_by_closure(d, tup)
        rep = PermRep(d, tup)
        assert perm_orbit_count(d, tup) == rep.orbit_count() == len(orbits)
        assert rep.is_transitive == (len(orbits) == 1)
        for x in (1, 2):
            assert rep.perm_of((x, -x)) == rep.perm_of((-x, x)) == identity
            assert _perm_from_cycle_notation(rep.cycle_notation(x), d) == tup[x - 1]


def test_components_of_every_small_cover_are_orbits():
    pt = punctured_torus()
    for d in (1, 2, 3):
        perms = list(itertools.permutations(range(d)))
        for tup in itertools.product(perms, repeat=2):
            phi = PermRep(d, tup)
            assert components(cover(pt, phi)) == phi.orbit_count()
    assert components(pair_of_pants()) == components(genus2_boundary1()) == 1
