"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``AC<k> PASS/FAIL`` line (run with ``-s`` to see
them as they complete).  Criterion 5 is split into its walk and ball
halves; the walk half fails for a documented reason (see the assertion
message) and is expected to stay red.
"""

import itertools
import math
import statistics
import time

from randcurve.covers import (hall_count, mednykh_count, simple_lifting_degree,
                              subgroup_count_by_enumeration)
from randcurve.intersect import EdgePath, brute_min_crossings, self_intersection
from randcurve.ribbon import pair_of_pants, punctured_torus
from randcurve.stats import (ExperimentConfig, WalkDistribution, _least_squares,
                             _max_spiraling, _sample_word, drift_estimate,
                             fit_log_law, fit_power_law, run_experiment)
from randcurve.words import (BallSpec, CyclicWord, alphabet_letters, ball_size,
                             conjugates_in_ball, cyclic_reduce,
                             least_rotation)

PT = punctured_torus()
PP = pair_of_pants()
SEED = 0


def report(k, ok, detail):
    print(f"\nAC{k} {'PASS' if ok else 'FAIL'}: {detail}")


def cyclic_words_up_to(max_len, rank=2):
    """All cyclically reduced letter sequences (every rotation included)."""
    letters = alphabet_letters(rank)
    for L in range(1, max_len + 1):
        for tup in itertools.product(letters, repeat=L):
            if all(tup[i] != -tup[(i + 1) % L] for i in range(L)):
                yield tup


def test_c01_counting_exactness():
    t0 = time.time()
    expected = {1: 1, 2: 3, 3: 13, 4: 71, 5: 461}
    for d in range(1, 6):
        enum = subgroup_count_by_enumeration(2, d)
        assert hall_count(2, d) == enum == expected[d], f"d={d}"
    med = mednykh_count(2, 2)
    enum_closed = subgroup_count_by_enumeration(4, 2, closed_genus=2)
    assert med == enum_closed == 15
    dt = time.time() - t0
    ok = dt < 60
    report(1, ok, f"hall(2,d)=enumeration for d<=5 (1,3,13,71,461), "
                  f"mednykh(2,2)=15=closed enumeration [{dt:.1f}s]")
    assert ok, "runtime over 1 minute"


def test_c02_oracle_equivalence():
    """self_intersection == brute_min_crossings on every cyclically reduced
    rank-2 word of length <= 7, both spines.

    The band-diagram oracle is evaluated once per cyclic class (it treats
    the input as a cyclic object, so rotations are literally the same
    computation); the linked-pair side is evaluated per word.
    """
    t0 = time.time()
    disagreements = 0
    words = 0
    for g in (PT, PP):
        cache = {}
        for tup in cyclic_words_up_to(7):
            words += 1
            k = least_rotation(tup)
            canon = tup[k:] + tup[:k]
            if canon not in cache:
                cache[canon] = brute_min_crossings(
                    EdgePath.from_word(CyclicWord(canon, 2), g))
            path = EdgePath(g, tuple(g.dart_for_letter(x) for x in tup))
            if self_intersection(path) != cache[canon]:
                disagreements += 1
    dt = time.time() - t0
    ok = disagreements == 0 and dt < 600
    report(2, ok, f"{words} words x 2 spines, {disagreements} disagreements "
                  f"[{dt:.1f}s]")
    assert disagreements == 0
    assert dt < 600, "runtime over 10 minutes"


_DEG_SAMPLES = []


def _degree_subsample():
    """Walk samples with degree search, self-intersection and spiraling
    (shared by criteria 3 and 9)."""
    if _DEG_SAMPLES:
        return _DEG_SAMPLES
    probs = WalkDistribution.uniform(2).probs
    out = []
    for idx in range(3000):
        n = 6 + (idx % 9) * 2  # 6..22
        w = _sample_word("walk", 2, probs, n, SEED + 1, idx)
        c = cyclic_reduce(w)
        if len(c) == 0:
            continue
        i = self_intersection(EdgePath.from_word(c, PT))
        res = simple_lifting_degree(c, PT, d_max=6)
        out.append((n, i, res.degree, _max_spiraling(c, PT)))
    _DEG_SAMPLES.extend(out)
    return out


def test_c03_deterministic_bounds():
    t0 = time.time()
    probs = WalkDistribution.uniform(2).probs
    quad_violations = 0
    total = 100_000
    for idx in range(total):
        n = 4 + (idx % 16) * 4  # 4..64
        sampler = "walk" if idx % 2 == 0 else "ball"
        w = _sample_word(sampler, 2, probs, n, SEED, idx)
        c = cyclic_reduce(w)
        if len(c) == 0:
            continue
        if self_intersection(EdgePath.from_word(c, PT)) > n * (n - 1) // 2:
            quad_violations += 1
    deg_violations = 0
    found = 0
    for n, i, deg, sp in _degree_subsample():
        if deg is not None:
            found += 1
            if deg > 5 * i + 5:
                deg_violations += 1
    dt = time.time() - t0
    ok = quad_violations == 0 and deg_violations == 0
    report(3, ok, f"{total} samples: i <= n(n-1)/2 violations {quad_violations}; "
                  f"deg <= 5i+5 violations {deg_violations} on {found} found "
                  f"degrees [{dt:.0f}s]")
    assert ok


def test_c04_conjugacy_ball_exhaustive():
    t0 = time.time()
    seen = set()
    violations = 0
    checked = 0
    for tup in cyclic_words_up_to(6):
        k = least_rotation(tup)
        canon = tup[k:] + tup[:k]
        if canon in seen:
            continue
        seen.add(canon)
        c = CyclicWord(canon, 2)
        for n in range(len(c), 11):
            cnt = conjugates_in_ball(c, n)
            bound = n * ball_size(BallSpec(2, (n - len(c)) // 2))
            checked += 1
            if cnt > bound:
                violations += 1
    dt = time.time() - t0
    ok = violations == 0 and dt < 300
    report(4, ok, f"{len(seen)} classes, {checked} (c,n) pairs, "
                  f"{violations} violations [{dt:.1f}s]")
    assert violations == 0
    assert dt < 300, "runtime over 5 minutes"


GRID5 = (10, 20, 40, 80, 160)


def test_c05_quadratic_self_intersection_walk():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="self-int", sampler="walk",
                           n_grid=GRID5, samples=500, seed=SEED)
    table = run_experiment(cfg)
    fit = fit_power_law(table)
    dt = time.time() - t0
    ok = 1.8 <= fit.slope <= 2.2
    # reported, not gated: the fit on the means, and mean/n^2 against the
    # Chas-Lalley limit kappa * ell^2, with kappa = 1/9 on the punctured
    # torus and ell = 1/2 the walk's drift (a class of about ell * n letters)
    mean_fit = _least_squares([math.log(r.n) for r in table.rows],
                              [math.log(r.mean) for r in table.rows])
    ratios = ", ".join(f"{r.mean / r.n ** 2:.4f}" for r in table.rows)
    diagnostic = (f"mean-based exponent {mean_fit.slope:.3f} +- "
                  f"{mean_fit.stderr:.3f}; mean/n^2 at n = {GRID5}: {ratios}, "
                  f"against kappa * ell^2 = 1/36 = {1 / 36:.4f}")
    report("5-walk", ok, f"walk exponent {fit.slope:.3f} +- {fit.stderr:.3f} "
                         f"(band [1.8, 2.2]); {diagnostic} [{dt:.0f}s]")
    assert ok, (
        f"walk-sampler exponent {fit.slope:.3f} is outside [1.8, 2.2]. "
        "This criterion is not attainable as stated: the true median "
        "self-intersection of the 10-step walk class is 1 (log 1 = 0 anchors "
        "the fit high), while consecutive-doubling ratios at the tail are "
        "2.0 +- 0.1, i.e. the law itself is quadratic. See the decisions "
        f"ledger entry on criterion 5. On the same data, {diagnostic}.")


def test_c05_quadratic_self_intersection_ball():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="self-int", sampler="ball",
                           n_grid=GRID5, samples=500, seed=SEED)
    fit = fit_power_law(run_experiment(cfg))
    dt = time.time() - t0
    ok = 1.8 <= fit.slope <= 2.2 and dt < 900
    report("5-ball", ok, f"ball exponent {fit.slope:.3f} +- {fit.stderr:.3f} "
                         f"(band [1.8, 2.2]) [{dt:.0f}s]")
    assert 1.8 <= fit.slope <= 2.2
    assert dt < 900, "runtime over 15 minutes"


def test_c06_linear_fixed_curve_intersection():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="fixed-curve-int", sampler="walk",
                           n_grid=GRID5, samples=500, seed=SEED, alpha="a")
    table = run_experiment(cfg)
    fit = fit_power_law(table)
    ratios = [r.median / r.n for r in table.rows]
    dt = time.time() - t0
    ok = 0.9 <= fit.slope <= 1.1 and all(v > 0 for v in ratios)
    report(6, ok, f"i(walk_n, a): exponent {fit.slope:.3f} +- {fit.stderr:.3f}, "
                  f"median/n in [{min(ratios):.3f}, {max(ratios):.3f}] [{dt:.0f}s]")
    assert ok


def test_c07_lifting_degree_growth():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="lifting", sampler="walk",
                           n_grid=(6, 10, 14, 18, 22), samples=200, seed=SEED,
                           d_max=6)
    table = run_experiment(cfg)
    fractions = []
    for n in cfg.n_grid:
        pn = table.metadata["per_n"][str(n)]
        total = pn["found"] + pn["not_found"]
        fractions.append(pn["deg2_or_more"] / total)
    medians = [r.median for r in table.rows]
    monotone_frac = all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))
    monotone_med = all(b >= a for a, b in zip(medians, medians[1:]))
    dt = time.time() - t0
    ok = monotone_frac and fractions[-1] >= 0.9 and monotone_med
    report(7, ok, f"P(deg>=2) = {[round(f, 3) for f in fractions]} rising to "
                  f"{fractions[-1]:.3f}; median found-degree {medians} [{dt:.0f}s]")
    assert monotone_frac, f"fractions not monotone: {fractions}"
    assert fractions[-1] >= 0.9, "fraction does not approach 1"
    assert monotone_med, f"medians not monotone: {medians}"


def test_c08_spiraling_window():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="spiral", sampler="walk",
                           n_grid=(60, 125, 250, 500, 1000), samples=2000,
                           seed=SEED)
    table = run_experiment(cfg)
    log_fit = fit_log_law(table)
    pow_fit = fit_power_law(table)
    dt = time.time() - t0
    ok = 0.5 <= log_fit.slope <= 2.0 and pow_fit.slope < 0.3
    report(8, ok, f"10^4 samples: slope vs log n = {log_fit.slope:.3f} "
                  f"(band [0.5, 2]); power exponent {pow_fit.slope:.3f} < 0.3 "
                  f"[{dt:.0f}s]")
    assert 0.5 <= log_fit.slope <= 2.0
    assert pow_fit.slope < 0.3


def test_c09_degree_dominates_spiraling():
    t0 = time.time()
    violations = 0
    found = 0
    for n, i, deg, sp in _degree_subsample():
        if deg is not None:
            found += 1
            if deg < sp:
                violations += 1
    # the lifting experiment (criterion 7 configuration) asserts the same
    # bound inside the harness for every found sample; rerun a slice of it
    cfg = ExperimentConfig(experiment="lifting", sampler="walk",
                           n_grid=(10, 18), samples=100, seed=SEED + 2, d_max=6)
    run_experiment(cfg)  # internal asserts would fail on any violation
    dt = time.time() - t0
    ok = violations == 0
    report(9, ok, f"deg >= max spiraling on {found} brute-forced samples, "
                  f"{violations} violations [{dt:.0f}s]")
    assert ok


def test_c10_minimizer_location():
    t0 = time.time()
    cfg = ExperimentConfig(experiment="minimizer", sampler="walk",
                           n_grid=(20, 40, 80), samples=50, seed=SEED,
                           retain_raw=True)
    table = run_experiment(cfg)
    div_frac = []
    p90s = []
    pairs = []
    for n in cfg.n_grid:
        pn = table.metadata["per_n"][str(n)]
        processed = pn["converged"] + pn["diverged"] + pn["budget"]
        div_frac.append((pn["diverged"] + pn["budget"]) / processed)
        raw = table.raw[n]
        assert len(raw) == pn["converged"]
        p90s.append(sorted(raw)[max(0, math.ceil(0.9 * len(raw)) - 1)])
        pairs.extend((n, v) for v in raw)
    # no upward trend of the proxy distance at 95% confidence (one-sided)
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    xbar, ybar = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    rss = sum((y - ybar - slope * (x - xbar)) ** 2 for x, y in zip(xs, ys))
    se = math.sqrt(rss / (len(xs) - 2) / sxx)
    tstat = slope / se
    no_trend = tstat < 1.645
    bounded = max(p90s) <= 3.0
    div_ok = div_frac[-1] <= div_frac[0] + 0.02 and div_frac[-1] <= 0.1
    dt = time.time() - t0
    ok = no_trend and bounded and div_ok
    report(10, ok, f"p90 proxy distances {[round(v, 3) for v in p90s]}, "
                   f"trend t={tstat:.2f} (<1.645), divergence fractions "
                   f"{[round(v, 3) for v in div_frac]} [{dt:.0f}s]")
    assert no_trend, f"upward trend significant: t={tstat:.2f}"
    assert bounded, f"p90 exceeded the constant: {p90s}"
    assert div_ok, f"divergence fraction not vanishing: {div_frac}"


def test_c11_drift():
    t0 = time.time()
    est2 = drift_estimate(WalkDistribution.uniform(2), 10_000, 1000, SEED)
    est3 = drift_estimate(WalkDistribution.uniform(3), 10_000, 1000, SEED)
    dt = time.time() - t0
    ok2 = abs(est2.mean - 0.5) <= 0.02
    ok3 = abs(est3.mean - 2 / 3) <= 0.02
    ok = ok2 and ok3 and dt < 120
    report(11, ok, f"rank-2 drift {est2.mean:.4f} (oracle 0.5), rank-3 "
                   f"{est3.mean:.4f} (oracle {2 / 3:.4f}) [{dt:.0f}s]")
    assert ok2 and ok3
    assert dt < 120, "runtime over 2 minutes"


def test_c12_reproducibility():
    t0 = time.time()
    identical = True
    for family, grid, samples in (("self-int", (8, 16), 40),
                                  ("spiral", (30, 60), 40),
                                  ("lifting", (6, 10), 25)):
        outputs = []
        for jobs in (1, 2, 3):
            cfg = ExperimentConfig(experiment=family, n_grid=grid,
                                   samples=samples, seed=SEED, jobs=jobs)
            outputs.append(run_experiment(cfg).to_csv())
        identical = identical and outputs[0] == outputs[1] == outputs[2]
    dt = time.time() - t0
    report(12, identical, f"byte-identical CSV across jobs in (1,2,3) for "
                          f"three families [{dt:.0f}s]")
    assert identical
