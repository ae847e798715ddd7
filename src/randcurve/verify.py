"""Invariant suites behind the ``verify`` subcommand.

Each suite checks its module against enumeration, brute force and closed
forms on seeded samples and returns its summary.  A failed check raises
``InvariantViolation`` with its message: the suite's own checks through
``require``, which holds under ``python -O``, and the invariants the
experiment harness also asserts through the modules' ``check_*`` functions.
``run_all`` reports that message as the suite's failure.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time
from collections import Counter

from .covers import (_embedded_walk, check_degree_bounds, hall_count,
                     hook_degree, mednykh_count, partitions,
                     simple_lifting_degree, subgroup_count_by_enumeration)
from .fricke import (FrickePoint, ParabolicWordError, collar_width,
                     distance_proxy, geodesic_length, holonomy, minimize_length,
                     rose_minimizer)
from .intersect import (EdgePath, brute_min_crossings, check_invariance,
                        check_quadratic_bound, intersection, linked_passages,
                        self_intersection)
from .ribbon import (PermRep, RibbonGraph, SurfaceSignature, boundary_words,
                     cover, elevations, pair_of_pants, project_elevation,
                     punctured_torus, signature)
from .stats import (ExperimentConfig, WalkDistribution, _max_spiraling,
                    drift_estimate, random_walk, run_experiment,
                    sample_ball_uniform, uniform_reduced_word)
from .words import (BallSpec, CyclicWord, InvariantViolation, Word,
                    alphabet_letters, ball_size, check_conjugacy_bound,
                    conjugates_in_ball, cyclic_classes, cyclic_reduce,
                    least_rotation, reduce, require, satisfies_no_cancellation,
                    sphere_size)


def verify_words(fast=True):
    rng = random.Random(1)
    # reduction idempotence and conjugacy invariance
    for _ in range(200):
        w = Word(tuple(rng.choice(alphabet_letters(2))
                       for _ in range(rng.randrange(12))), 2)
        r = reduce(w)
        require(reduce(r).letters == r.letters, "reduce not idempotent")
        c = cyclic_reduce(w)
        u = uniform_reduced_word(rng, 2, rng.randrange(6))
        conj = u.concat(w).concat(u.inverse())
        require(cyclic_reduce(conj).letters == c.letters,
                "cyclic_reduce not conjugation invariant")
    # rotation invariance of the canonical form
    for c in itertools.islice(cyclic_classes(5), 200):
        for rot in c.rotations():
            require(cyclic_reduce(Word(rot, 2)).letters == c.letters,
                    "canonical form not rotation invariant")
    # classes longer than RUN_TOKEN_CUT, whose least rotation scans run tokens
    long_rng = random.Random(7)
    for _ in range(20):
        length = long_rng.randrange(80, 401)
        c = cyclic_reduce(uniform_reduced_word(long_rng, 2, length))
        rots = c.rotations()
        rot = rots[long_rng.randrange(len(c))]
        u = uniform_reduced_word(long_rng, 2, long_rng.randrange(1, 20))
        conj = u.concat(Word(rot, 2)).concat(u.inverse())
        require(cyclic_reduce(Word(rot, 2)).letters == c.letters
                and cyclic_reduce(conj).letters == c.letters,
                "long canonical form not rotation or conjugation invariant")
        brute = min(range(len(rot)), key=lambda i: rot[i:] + rot[:i])
        require(c.letters == min(rots) and least_rotation(rot) == brute,
                "least rotation of a long class is not the least of its rotations")
    # sphere/ball closed forms
    require(sphere_size(BallSpec(2, 2)) == 12 and ball_size(BallSpec(2, 2)) == 17,
            "rank-2 ball sizes wrong")
    require(ball_size(BallSpec(1, 3)) == 7, "rank-1 ball size wrong")
    # no-cancellation <=> exact conjugate length
    max_w = 4 if fast else 5
    for c in cyclic_classes(3 if fast else 4):
        for lw in range(0, max_w + 1):
            for _ in range(4):
                w = uniform_reduced_word(rng, 2, lw)
                full = w.concat(Word(c.letters, 2)).concat(w.inverse())
                if satisfies_no_cancellation(w, c):
                    require(len(reduce(full)) == 2 * len(w) + len(c),
                            "no-cancellation length formula violated")
    # conjugacy-ball lemma, small grid
    n_max = 6 if fast else 8
    for c in cyclic_classes(4):
        for n in range(len(c), n_max + 1):
            check_conjugacy_bound(c, n, conjugates_in_ball(c, n))
    return "reduction, ball sizes, no-cancellation, conjugacy bound"


def verify_ribbon(fast=True):
    pt = punctured_torus()
    pp = pair_of_pants()
    require(signature(pt) == SurfaceSignature(1, 1), "punctured torus signature wrong")
    require(signature(pp) == SurfaceSignature(0, 3), "pair of pants signature wrong")
    require(signature(RibbonGraph.rose((1, -1))) == SurfaceSignature(0, 2),
            "annulus signature wrong")
    rng = random.Random(2)
    d_top = 3 if fast else 5
    perms = {d: list(itertools.permutations(range(d))) for d in range(2, d_top + 1)}
    chi_base = pt.vertex_count - pt.edge_count
    (root,) = boundary_words(pt)
    rots = [root[i:] + root[:i] for i in range(len(root))]
    for d in range(2, d_top + 1):
        for _ in range(10):
            phi = PermRep(d, (rng.choice(perms[d]), rng.choice(perms[d])))
            cov = cover(pt, phi)
            require(cov.vertex_count - cov.edge_count == d * chi_base,
                    "cover Euler characteristic not multiplicative")
            # boundary of cover = elevations of boundary of base
            for proj in boundary_words(cov):
                k = len(proj) // len(root)
                require(any(proj == r * k for r in rots),
                        "cover boundary is not an elevation of base boundary")
    # elevation winding sums and projections
    for _ in range(20):
        d = rng.choice((2, 3))
        phi = PermRep(d, (rng.choice(perms[d]), rng.choice(perms[d])))
        c = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(1, 6)))
        els = elevations(c, phi, pt)
        require(sum(e.winding for e in els) == d,
                "elevation windings do not sum to degree")
        for e in els:
            require(project_elevation(e) == c.letters * e.winding,
                    "elevation projection mismatch")
    return "signatures, covers, boundary elevations, windings"


def verify_intersect(fast=True):
    pt = punctured_torus()
    max_len = 5 if fast else 7
    rng = random.Random(3)
    for g in (pt, pair_of_pants()):
        for c in cyclic_classes(max_len):
            p = EdgePath.from_word(c, g)
            si = self_intersection(p)
            require(si == brute_min_crossings(p), f"oracle disagreement at {c}")
            check_quadratic_bound(si, len(c))
    # invariance under rotation, inversion, relabeling
    for _ in range(60):
        c = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(2, 9)))
        p = EdgePath.from_word(c, pt)
        si = self_intersection(p)
        check_invariance(p, si, rng.randrange(len(c)))
        relabeled = CyclicWord.from_string(str(c).translate(
            str.maketrans("abAB", "bABa")), 2)
        require(self_intersection(EdgePath.from_word(relabeled, pt)) == si,
                "not relabeling invariant")
    # symmetry of intersection: classes of 1-6 letters, then a class of 1-3
    # letters against one of 20-60, so that each places the other's ends
    for lu, lv in [((1, 7), (1, 7))] * 30 + [((1, 4), (20, 61))] * 20:
        u = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(*lu)))
        v = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(*lv)))
        pu, pv = EdgePath.from_word(u, pt), EdgePath.from_word(v, pt)
        if pu.class_key() != pv.class_key():  # intersection takes distinct classes
            require(intersection(pu, pv) == intersection(pv, pu),
                    "intersection not symmetric")
    # simple elevations stay simple
    for w in ("a", "ab", "aB", "aab"):
        c = CyclicWord.from_string(w, 2)
        for d in (2, 3):
            for tup in itertools.product(itertools.permutations(range(d)), repeat=2):
                phi = PermRep(d, tup)
                for e in elevations(c, phi, pt):
                    require(self_intersection(EdgePath(e.cover, e.darts)) == 0,
                            f"elevation of simple {w} not simple")
            if fast:
                break
    return "oracle agreement, invariances, simple elevations"


def verify_covers(fast=True):
    d_top = 4 if fast else 5
    for d in range(1, d_top + 1):
        require(subgroup_count_by_enumeration(2, d) == hall_count(2, d),
                f"hall mismatch at d={d}")
    # S_2 is abelian, so only d = 3 rejects tuples by the surface relation
    for d in (2, 3):
        require(subgroup_count_by_enumeration(4, d, closed_genus=2)
                == mednykh_count(2, d), f"mednykh mismatch at d={d}")
    for d in range(1, 9):
        require(sum(hook_degree(lam) ** 2 for lam in partitions(d))
                == math.factorial(d), "character degree identity failed")
    pt = punctured_torus()
    rng = random.Random(4)
    for _ in range(10 if fast else 25):
        c = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(1, 7)))
        res = simple_lifting_degree(c, pt, d_max=4)
        check_degree_bounds(res.degree, self_intersection(EdgePath.from_word(c, pt)),
                            _max_spiraling(c, pt))
        # the levels up to d_max that the search skipped hold no
        # embedded elevation, so no degree lies below the clique bound
        root, power = c.primitive_root()
        masks = linked_passages(EdgePath.from_word(root, pt))[2]
        require(all(_embedded_walk(root.letters, power, masks, 2, d) is None
                    for d in range(1, min(res.lower_bound, res.d_max + 1))),
                "clique bound skipped the degree")
        inv = simple_lifting_degree(c.inverse(), pt, d_max=4)
        require(res.degree == inv.degree, "degree not inversion invariant")
    return "hall/mednykh vs enumeration, hooks, degree invariants"


def _mul(m, n):
    """2x2 matrix product, written apart from ``fricke``'s, which it checks."""
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def verify_fricke(fast=True):
    rng = random.Random(5)
    pts = [FrickePoint(3, 3, 3), FrickePoint(3, 3, 6)]
    for p in pts:
        A, B = holonomy(p)
        (a, b), (c, d) = A
        (e, f), (g, h) = B
        require(abs(a * d - b * c - 1) <= 1e-9 and abs(e * h - f * g - 1) <= 1e-9,
                "holonomy not unimodular")
        require(abs(a + d - p.x) <= 1e-9 and abs(e + h - p.y) <= 1e-9,
                "holonomy traces wrong")
        AB = _mul(A, B)
        require(abs(AB[0][0] + AB[1][1] - p.z) <= 1e-9, "holonomy product trace wrong")
        # with det 1 the inverse is the adjugate
        comm = _mul(AB, _mul(((d, -b), (-c, a)), ((h, -f), (-g, e))))
        require(abs(comm[0][0] + comm[1][1] + 2) <= 1e-9, "commutator trace not -2")
        ab = geodesic_length(CyclicWord((1, 2), 2), p).trace
        aB = geodesic_length(CyclicWord((-2, 1), 2), p).trace
        require(abs(ab + aB - p.x * p.y) <= 1e-9, "trace identity violated")
    # conjugation/inversion invariance of length and relabeling equivariance
    for _ in range(40):
        w = uniform_reduced_word(rng, 2, rng.randrange(1, 9))
        c = cyclic_reduce(w)
        p = pts[0]
        try:
            l0 = geodesic_length(c, p).length
            u = uniform_reduced_word(rng, 2, 3)
            l1 = geodesic_length(u.concat(w).concat(u.inverse()), p).length
            l2 = geodesic_length(c.inverse(), p).length
        except ParabolicWordError:
            continue
        require(abs(l0 - l1) <= 1e-9 and abs(l0 - l2) <= 1e-9,
                "length not conjugation/inversion invariant")
        swapped = CyclicWord.from_string(str(c).translate(
            str.maketrans("abAB", "baBA")), 2)
        l3 = geodesic_length(swapped, FrickePoint(p.y, p.x, p.z)).length
        require(abs(l0 - l3) <= 1e-9, "relabeling equivariance violated")
    require(abs(collar_width(2 * math.asinh(1.0)) - math.asinh(1.0)) <= 1e-12,
            "collar formula wrong")
    require(collar_width(0.01) > collar_width(0.1) and collar_width(10) < 0.02,
            "collar monotonicity wrong")
    rm = rose_minimizer()
    require(abs(rm.x - rm.y) <= 1e-6 and abs(rm.x - 2 * math.sqrt(2)) <= 1e-3,
            "rose minimizer off the symmetric point")
    res = minimize_length(CyclicWord((1,), 2))
    require(res.status == "diverged", "simple curve minimization should diverge")
    require(distance_proxy(pts[0], pts[0]) == 0, "proxy not zero on equal points")
    d1 = distance_proxy(pts[0], pts[1])
    require(d1 > 0 and abs(d1 - distance_proxy(pts[1], pts[0])) <= 1e-12,
            "proxy asymmetric or degenerate")
    return "holonomy, trace identities, collar, rose minimizer, proxy"


def verify_stats(fast=True):
    mu = WalkDistribution.uniform(2)
    require(random_walk(mu, 50, 9).letters == random_walk(mu, 50, 9).letters,
            "walk not deterministic")
    require(len(random_walk(mu, 0, 1)) == 0, "zero-length walk not empty")
    est = drift_estimate(mu, 400 if fast else 2000, 200, 11)
    require(abs(est.mean - 0.5) <= 0.05, f"rank-2 drift {est.mean:.3f} far from 1/2")
    require(drift_estimate(mu, 1, 50, 3).mean == 1.0, "one-step drift must be 1")
    # ball length distribution matches |S_k|/|B_n| exactly in expectation
    n = 6
    trials = 2000 if fast else 20000
    counts = Counter(len(sample_ball_uniform(2, n, seed=1000 + i))
                     for i in range(trials))
    bn = ball_size(BallSpec(2, n))
    chi2 = 0.0
    for k in range(n + 1):
        exp = trials * sphere_size(BallSpec(2, k)) / bn
        chi2 += (counts[k] - exp) ** 2 / exp
    # 7 cells, well beyond the 99% quantile
    require(chi2 <= 30, f"ball length distribution chi2={chi2:.1f}")
    cfg = ExperimentConfig(experiment="self-int", n_grid=(8, 16), samples=20, seed=2)
    require(run_experiment(cfg).to_csv()
            == run_experiment(dataclasses.replace(cfg, jobs=2)).to_csv(),
            "experiment not reproducible across jobs")
    return "determinism, drift, exact ball sampling, reproducibility"


SUITES = (
    ("words", verify_words),
    ("ribbon", verify_ribbon),
    ("intersect", verify_intersect),
    ("covers", verify_covers),
    ("fricke", verify_fricke),
    ("stats", verify_stats),
)


def run_all(fast=True):
    """``(name, passed, detail, seconds)`` for each suite, in order."""
    results = []
    for name, fn in SUITES:
        t0 = time.perf_counter()
        try:
            ok, detail = True, fn(fast=fast)
        except InvariantViolation as exc:  # a check found a violation
            ok, detail = False, str(exc)
        except Exception as exc:  # a crashed suite is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail, time.perf_counter() - t0))
    return results
