"""Invariant suites behind the ``verify`` subcommand.

Each suite checks its module against enumeration, brute force and closed
forms on seeded samples and returns (passed, detail).  Invariants the
experiment harness also asserts are the modules' ``check_*`` functions; the
``AssertionError`` one raises fails its suite with the check's message.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from .covers import (_embedded_walk, check_degree_bounds, hall_count,
                     hook_degree, mednykh_count, partitions,
                     simple_lifting_degree, subgroup_count_by_enumeration)
from .fricke import (FrickePoint, ParabolicWordError, collar_width,
                     distance_proxy, geodesic_length, holonomy, minimize_length,
                     rose_minimizer)
from .intersect import (EdgePath, brute_min_crossings, check_invariance,
                        check_quadratic_bound, intersection, linked_masks,
                        self_intersection)
from .ribbon import (PermRep, RibbonGraph, boundary_words, cover, elevations,
                     pair_of_pants, project_elevation, punctured_torus,
                     signature)
from .stats import (ExperimentConfig, WalkDistribution, _max_spiraling,
                    drift_estimate, random_walk, run_experiment,
                    sample_ball_uniform, uniform_reduced_word)
from .words import (BallSpec, CyclicWord, Word, alphabet_letters, ball_size,
                    check_conjugacy_bound, conjugates_in_ball, cyclic_classes,
                    cyclic_reduce, reduce, satisfies_no_cancellation,
                    sphere_size)


def verify_words(fast=True):
    rng = random.Random(1)
    # reduction idempotence and conjugacy invariance
    for _ in range(200):
        w = Word(tuple(rng.choice(alphabet_letters(2))
                       for _ in range(rng.randrange(12))), 2)
        r = reduce(w)
        if reduce(r).letters != r.letters:
            return False, "reduce not idempotent"
        c = cyclic_reduce(w)
        u = uniform_reduced_word(rng, 2, rng.randrange(6))
        conj = u.concat(w).concat(u.inverse())
        if cyclic_reduce(conj).letters != c.letters:
            return False, "cyclic_reduce not conjugation invariant"
    # rotation invariance of the canonical form
    for c in itertools.islice(cyclic_classes(5), 200):
        for rot in c.rotations():
            if cyclic_reduce(Word(rot, 2)).letters != c.letters:
                return False, "canonical form not rotation invariant"
    # sphere/ball closed forms
    if sphere_size(BallSpec(2, 2)) != 12 or ball_size(BallSpec(2, 2)) != 17:
        return False, "rank-2 ball sizes wrong"
    if ball_size(BallSpec(1, 3)) != 7:
        return False, "rank-1 ball size wrong"
    # no-cancellation <=> exact conjugate length
    max_w = 4 if fast else 5
    for c in cyclic_classes(3 if fast else 4):
        for lw in range(0, max_w + 1):
            for _ in range(4):
                w = uniform_reduced_word(rng, 2, lw)
                full = w.concat(Word(c.letters, 2)).concat(w.inverse())
                if satisfies_no_cancellation(w, c):
                    if len(reduce(full)) != 2 * len(w) + len(c):
                        return False, "no-cancellation length formula violated"
    # conjugacy-ball lemma, small grid
    n_max = 6 if fast else 8
    for c in cyclic_classes(4):
        for n in range(len(c), n_max + 1):
            check_conjugacy_bound(c, n, conjugates_in_ball(c, n))
    return True, "reduction, ball sizes, no-cancellation, conjugacy bound"


def verify_ribbon(fast=True):
    pt = punctured_torus()
    pp = pair_of_pants()
    sig = signature(pt)
    if (sig.genus, sig.boundary_count) != (1, 1):
        return False, "punctured torus signature wrong"
    sig = signature(pp)
    if (sig.genus, sig.boundary_count) != (0, 3):
        return False, "pair of pants signature wrong"
    ann = RibbonGraph.rose((1, -1))
    sig = signature(ann)
    if (sig.genus, sig.boundary_count) != (0, 2):
        return False, "annulus signature wrong"
    rng = random.Random(2)
    perms = {d: list(itertools.permutations(range(d))) for d in (2, 3)}
    d_top = 3 if fast else 5
    chi_base = pt.vertex_count - pt.edge_count
    (root,) = boundary_words(pt)
    rots = [root[i:] + root[:i] for i in range(len(root))]
    for d in range(2, d_top + 1):
        all_perms = list(itertools.permutations(range(d)))
        for _ in range(10):
            phi = PermRep(d, (rng.choice(all_perms), rng.choice(all_perms)))
            cov = cover(pt, phi)
            if cov.vertex_count - cov.edge_count != d * chi_base:
                return False, "cover Euler characteristic not multiplicative"
            # boundary of cover = elevations of boundary of base
            for proj in boundary_words(cov):
                k = len(proj) // len(root)
                if not any(proj == r * k for r in rots):
                    return False, "cover boundary is not an elevation of base boundary"
    # elevation winding sums and projections
    for _ in range(20):
        d = rng.choice((2, 3))
        phi = PermRep(d, (rng.choice(perms[d]), rng.choice(perms[d])))
        c = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(1, 6)))
        if len(c) == 0:
            continue
        els = elevations(c, phi, pt)
        if sum(e.winding for e in els) != d:
            return False, "elevation windings do not sum to degree"
        for e in els:
            if project_elevation(e) != c.letters * e.winding:
                return False, "elevation projection mismatch"
    return True, "signatures, covers, boundary elevations, windings"


def verify_intersect(fast=True):
    pt = punctured_torus()
    pp = pair_of_pants()
    max_len = 5 if fast else 7
    rng = random.Random(3)
    for g in (pt, pp):
        for c in cyclic_classes(max_len):
            p = EdgePath.from_word(c, g)
            si = self_intersection(p)
            if si != brute_min_crossings(p):
                return False, f"oracle disagreement at {c}"
            check_quadratic_bound(si, len(c))
    # invariance under rotation, inversion, relabeling
    for _ in range(60):
        c = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(2, 9)))
        if len(c) == 0:
            continue
        p = EdgePath.from_word(c, pt)
        si = self_intersection(p)
        check_invariance(p, si, rng.randrange(len(c)))
        relabeled = CyclicWord.from_string(str(c).translate(
            str.maketrans("abAB", "bABa")), 2)
        if self_intersection(EdgePath.from_word(relabeled, pt)) != si:
            return False, "not relabeling invariant"
    # symmetry of intersection
    for _ in range(30):
        u = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(1, 7)))
        v = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(1, 7)))
        if len(u) == 0 or len(v) == 0:
            continue
        pu, pv = EdgePath.from_word(u, pt), EdgePath.from_word(v, pt)
        if pu.class_key() == pv.class_key():
            continue
        if intersection(pu, pv) != intersection(pv, pu):
            return False, "intersection not symmetric"
    # simple elevations stay simple
    perms = {d: list(itertools.permutations(range(d))) for d in (2, 3)}
    for w in ("a", "ab", "aB", "aab"):
        c = CyclicWord.from_string(w, 2)
        for d in (2, 3):
            for tup in itertools.product(perms[d], repeat=2):
                phi = PermRep(d, tup)
                for e in elevations(c, phi, pt):
                    ep = EdgePath(e.cover, e.darts)
                    if self_intersection(ep) != 0:
                        return False, f"elevation of simple {w} not simple"
            if fast:
                break
    return True, "oracle agreement, invariances, simple elevations"


def verify_covers(fast=True):
    d_top = 4 if fast else 5
    for d in range(1, d_top + 1):
        if subgroup_count_by_enumeration(2, d) != hall_count(2, d):
            return False, f"hall mismatch at d={d}"
    if subgroup_count_by_enumeration(4, 2, closed_genus=2) != mednykh_count(2, 2):
        return False, "mednykh mismatch at d=2"
    for d in range(1, 9):
        if sum(hook_degree(lam) ** 2 for lam in partitions(d)) != math.factorial(d):
            return False, "character degree identity failed"
    pt = punctured_torus()
    rng = random.Random(4)
    for _ in range(10 if fast else 25):
        c = cyclic_reduce(uniform_reduced_word(rng, 2, rng.randrange(1, 7)))
        if len(c) == 0:
            continue
        res = simple_lifting_degree(c, pt, d_max=4)
        check_degree_bounds(res.degree, self_intersection(EdgePath.from_word(c, pt)),
                            _max_spiraling(c, pt))
        # the levels up to d_max that the search skipped hold no
        # embedded elevation, so no degree lies below the clique bound
        root, power = c.primitive_root()
        masks = linked_masks(EdgePath.from_word(root, pt))
        if any(_embedded_walk(root.letters, power, masks, 2, d) is not None
               for d in range(1, min(res.lower_bound, res.d_max + 1))):
            return False, "clique bound skipped the degree"
        inv = simple_lifting_degree(c.inverse(), pt, d_max=4)
        if res.degree != inv.degree:
            return False, "degree not inversion invariant"
    return True, "hall/mednykh vs enumeration, hooks, degree invariants"


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
        if abs(a * d - b * c - 1) > 1e-9 or abs(e * h - f * g - 1) > 1e-9:
            return False, "holonomy not unimodular"
        if abs(a + d - p.x) > 1e-9 or abs(e + h - p.y) > 1e-9:
            return False, "holonomy traces wrong"
        AB = _mul(A, B)
        if abs(AB[0][0] + AB[1][1] - p.z) > 1e-9:
            return False, "holonomy product trace wrong"
        # with det 1 the inverse is the adjugate
        comm = _mul(AB, _mul(((d, -b), (-c, a)), ((h, -f), (-g, e))))
        if abs(comm[0][0] + comm[1][1] + 2) > 1e-9:
            return False, "commutator trace not -2"
        ab = geodesic_length(CyclicWord((1, 2), 2), p).trace
        aB = geodesic_length(CyclicWord((-2, 1), 2), p).trace
        if abs(ab + aB - p.x * p.y) > 1e-9:
            return False, "trace identity violated"
    # conjugation/inversion invariance of length and relabeling equivariance
    for _ in range(40):
        w = uniform_reduced_word(rng, 2, rng.randrange(1, 9))
        c = cyclic_reduce(w)
        if len(c) == 0:
            continue
        p = pts[0]
        try:
            l0 = geodesic_length(c, p).length
            u = uniform_reduced_word(rng, 2, 3)
            l1 = geodesic_length(u.concat(w).concat(u.inverse()), p).length
            l2 = geodesic_length(c.inverse(), p).length
        except ParabolicWordError:
            continue
        if abs(l0 - l1) > 1e-9 or abs(l0 - l2) > 1e-9:
            return False, "length not conjugation/inversion invariant"
        swapped = CyclicWord.from_string(str(c).translate(
            str.maketrans("abAB", "baBA")), 2)
        l3 = geodesic_length(swapped, FrickePoint(p.y, p.x, p.z)).length
        if abs(l0 - l3) > 1e-9:
            return False, "relabeling equivariance violated"
    if abs(collar_width(2 * math.asinh(1.0)) - math.asinh(1.0)) > 1e-12:
        return False, "collar formula wrong"
    if not collar_width(0.01) > collar_width(0.1) or not collar_width(10) < 0.02:
        return False, "collar monotonicity wrong"
    rm = rose_minimizer()
    if abs(rm.x - rm.y) > 1e-6 or abs(rm.x - 2 * math.sqrt(2)) > 1e-3:
        return False, "rose minimizer off the symmetric point"
    res = minimize_length(CyclicWord((1,), 2))
    if res.status != "diverged":
        return False, "simple curve minimization should diverge"
    if distance_proxy(pts[0], pts[0]) != 0:
        return False, "proxy not zero on equal points"
    d1 = distance_proxy(pts[0], pts[1])
    if d1 <= 0 or abs(d1 - distance_proxy(pts[1], pts[0])) > 1e-12:
        return False, "proxy asymmetric or degenerate"
    return True, "holonomy, trace identities, collar, rose minimizer, proxy"


def verify_stats(fast=True):
    mu = WalkDistribution.uniform(2)
    if random_walk(mu, 50, 9).letters != random_walk(mu, 50, 9).letters:
        return False, "walk not deterministic"
    if len(random_walk(mu, 0, 1)) != 0:
        return False, "zero-length walk not empty"
    est = drift_estimate(mu, 400 if fast else 2000, 200, 11)
    if abs(est.mean - 0.5) > 0.05:
        return False, f"rank-2 drift {est.mean:.3f} far from 1/2"
    if drift_estimate(mu, 1, 50, 3).mean != 1.0:
        return False, "one-step drift must be 1"
    # ball length distribution matches |S_k|/|B_n| exactly in expectation
    n = 6
    counts = {}
    trials = 2000 if fast else 20000
    for i in range(trials):
        w = sample_ball_uniform(2, n, seed=1000 + i)
        counts[len(w)] = counts.get(len(w), 0) + 1
    bn = ball_size(BallSpec(2, n))
    chi2 = 0.0
    for k in range(n + 1):
        exp = trials * sphere_size(BallSpec(2, k)) / bn
        obs = counts.get(k, 0)
        if exp > 0:
            chi2 += (obs - exp) ** 2 / exp
    if chi2 > 30:  # 7 cells, well beyond the 99% quantile
        return False, f"ball length distribution chi2={chi2:.1f}"
    cfg = ExperimentConfig(experiment="self-int", n_grid=(8, 16), samples=20, seed=2)
    t1 = run_experiment(cfg)
    t2 = run_experiment(ExperimentConfig(experiment="self-int", n_grid=(8, 16),
                                         samples=20, seed=2, jobs=2))
    if t1.to_csv() != t2.to_csv():
        return False, "experiment not reproducible across jobs"
    return True, "determinism, drift, exact ball sampling, reproducibility"


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
            ok, detail = fn(fast=fast)
        except AssertionError as exc:  # a check_* function found a violation
            ok, detail = False, str(exc)
        except Exception as exc:  # a crashed suite is a failure, not an abort
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail, time.perf_counter() - t0))
    return results
