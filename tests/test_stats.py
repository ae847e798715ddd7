import ast
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import randcurve.covers as covers
import randcurve.intersect as intersect
import randcurve.stats as stats
from randcurve.fricke import ParabolicWordError, minimize_length
from randcurve.intersect import IntersectionError, spiraling
from randcurve.ribbon import surface
from randcurve.stats import (ConfigError, ExperimentConfig,
                             ExperimentTable, RowStats, WalkDistribution,
                             _max_spiraling, _sample_word, drift_estimate,
                             fit_log_law, fit_power_law, random_walk,
                             run_experiment, sample_ball_uniform, sample_word)
from randcurve.words import (BallSpec, CyclicWord, InvariantViolation,
                             _classes_with_roots,
                             alphabet_letters, ball_size,
                             check_conjugacy_bound, conjugates_in_ball,
                             cyclic_classes, cyclic_reduce,
                             cyclically_reduced_count, sphere_size)


def test_distribution_validation():
    WalkDistribution.uniform(2)
    with pytest.raises(ConfigError):
        WalkDistribution(2, (0.5, 0.5))  # wrong arity
    with pytest.raises(ConfigError):
        WalkDistribution(2, (0.6, 0.6, -0.1, -0.1))
    with pytest.raises(ConfigError):
        # generator 2 has no weight in either direction: not generating
        WalkDistribution(2, (0.5, 0.0, 0.5, 0.0))
    with pytest.raises(ConfigError, match="sum to 1"):
        WalkDistribution(2, (0.3,) * 4)
    mu = WalkDistribution(2, (0.4, 0.1, 0.4, 0.1))
    assert not mu.is_uniform


def test_walk_determinism_and_zero():
    mu = WalkDistribution.uniform(2)
    assert random_walk(mu, 25, 9).letters == random_walk(mu, 25, 9).letters
    assert random_walk(mu, 25, 9).letters != random_walk(mu, 25, 10).letters
    assert len(random_walk(mu, 0, 1)) == 0
    with pytest.raises(ConfigError):
        random_walk(mu, -1, 0)


def test_walk_letter_frequencies_chi2():
    # 10^6 draws, chi-squared with 3 dof; 99% quantile is 11.34
    mu = WalkDistribution.uniform(2)
    n = 10 ** 6
    w = random_walk(mu, n, seed=123)
    counts = {}
    for x in w.letters:
        counts[x] = counts.get(x, 0) + 1
    chi2 = sum((counts.get(x, 0) - n / 4) ** 2 / (n / 4) for x in (1, -1, 2, -2))
    assert chi2 < 11.34


def test_walk_word_uses_every_letter_linearly():
    # the 10^4-step walk class spells every letter at least K*n times
    from randcurve.words import cyclic_reduce

    n = 10 ** 4
    w = random_walk(WalkDistribution.uniform(2), n, seed=77)
    counts = Counter(cyclic_reduce(w).letters)
    for x in (1, -1, 2, -2):
        assert counts[x] >= 0.05 * n


# --- the walk draw against rng.choices ----------------------------------------

WALK_LENGTHS = (0, 1, 2, 3, 17, 250, 2000)


def assert_walk_matches_choices(rank, probs, n, seed):
    """``sample_word``'s walk equals ``rng.choices`` letter for letter and
    leaves the generator in the same state."""
    rng, oracle = random.Random(seed), random.Random(seed)
    got = sample_word(rng, "walk", rank, probs, n).letters
    expected = oracle.choices(alphabet_letters(rank), weights=probs, k=n)
    assert got == tuple(expected), (rank, probs, n, seed)
    assert rng.getstate() == oracle.getstate()


def random_probs(rng, rank):
    """Random weights for the 2r letters, about a fifth of them zero (at
    least one left positive), normalized so that the sum may be off 1 by
    rounding."""
    weights = [0.0 if rng.random() < 0.2 else rng.random()
               for _ in range(2 * rank)]
    weights[rng.randrange(2 * rank)] = rng.random() + 0.01
    total = sum(weights)
    return tuple(w / total for w in weights)


@pytest.mark.parametrize("rank", (1, 2, 3, 4, 5, 26))
def test_walk_draw_matches_choices(rank):
    rng = random.Random(rank)
    probs_list = [(1 / (2 * rank),) * (2 * rank)]
    probs_list += [random_probs(rng, rank) for _ in range(8)]
    for probs in probs_list:
        for n in WALK_LENGTHS:
            assert_walk_matches_choices(rank, probs, n, rng.getrandbits(64))


class ScriptedRandom(random.Random):
    """Serves given 32-bit outputs in order, read as CPython reads Mersenne
    Twister outputs: ``random()`` takes two, a and b, and returns
    ((a >> 5) * 2^26 + (b >> 6)) / 2^53; ``getrandbits(32 * m)`` takes m,
    the first as the least significant word."""

    def __init__(self, words):
        super().__init__(0)
        self.words = iter(words)

    def random(self):
        a, b = next(self.words) >> 5, next(self.words) >> 6
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def getrandbits(self, k):
        return sum(next(self.words) << 32 * i for i in range(k // 32))


def test_walk_draw_at_thresholds():
    # draws X = t - 1, t, t + 1 at every threshold t, and at the edges of
    # every top-byte bucket, with random low bits below the 53 that count;
    # thresholds on a bucket's first X (uniform rank 2), inside buckets, and
    # on the last X of bucket 127 (2^52 - 1); 0.7 + 0.1 + 0.1 + 0.1 sums to
    # 0.9999999999999999
    rng = random.Random(8)
    for rank, probs in ((2, (0.25,) * 4), (3, (1 / 6,) * 6),
                        (2, (0.7, 0.1, 0.1, 0.1)), (3, random_probs(rng, 3)),
                        (2, (0.5 - 2 ** -53, 0.5 + 2 ** -53, 0.0, 0.0))):
        _, thresholds, _ = stats._walk_draw_table(rank, probs)
        xs = [x for t in thresholds for x in (t - 1, t, t + 1)]
        xs += [x for t in range(1, 256) for x in ((t << 45) - 1, t << 45)]
        xs = [x for x in xs if 0 <= x < 1 << 53]
        words = []
        for x in xs:
            words += [(x >> 26) << 5 | rng.getrandbits(5),
                      (x & (1 << 26) - 1) << 6 | rng.getrandbits(6)]
        got = sample_word(ScriptedRandom(words), "walk", rank, probs, len(xs))
        expected = ScriptedRandom(words).choices(alphabet_letters(rank),
                                                 weights=probs, k=len(xs))
        assert got.letters == tuple(expected), (rank, probs)


@settings(derandomize=True, deadline=None, database=None, max_examples=80)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
           st.just(r),
           st.lists(st.floats(0, 1e6), min_size=2 * r, max_size=2 * r)
           .filter(lambda ws: sum(ws) > 0))),
       st.sampled_from(WALK_LENGTHS[:6]), st.integers(0, 2 ** 32))
def test_walk_draw_matches_choices_property(rank_weights, n, seed):
    rank, weights = rank_weights
    assert_walk_matches_choices(rank, tuple(weights), n, seed)


@pytest.mark.parametrize("sampler, rank, probs, n", [
    ("wlak", 2, None, 3),                    # unknown sampler
    ("walk", 2, (0.25,) * 4, -1),            # negative length
    ("ball", 2, None, -1),
    ("walk", 2, (0.5, 0.5), 3),              # one weight per letter
    ("walk", 2, None, 3),
    ("walk", 2, (0.5, 0.5, -0.25, 0.25), 3),  # negative weight
    ("walk", 2, (0.0,) * 4, 3),              # zero total
    ("walk", 2, (0.25, 0.25, math.nan, 0.25), 3),
    ("walk", 2, (0.25, 0.25, math.inf, 0.25), 3),
    ("walk", 2, ("x", 0.25, 0.25, 0.25), 3),
])
def test_sample_word_validates_before_drawing(sampler, rank, probs, n):
    rng = random.Random(4)
    state = rng.getstate()
    with pytest.raises(ConfigError):
        sample_word(rng, sampler, rank, probs, n)
    assert rng.getstate() == state


def test_ball_sampling_exact_distribution():
    with pytest.raises(ConfigError, match="rank >= 2"):
        sample_ball_uniform(1, 5, 0)
    n = 4
    bn = ball_size(BallSpec(2, n))
    trials = 4000
    length_counts = {}
    for i in range(trials):
        w = sample_ball_uniform(2, n, seed=i)
        assert len(w) <= n and w.is_reduced()
        length_counts[len(w)] = length_counts.get(len(w), 0) + 1
    chi2 = 0.0
    for k in range(n + 1):
        expected = trials * sphere_size(BallSpec(2, k)) / bn
        chi2 += (length_counts.get(k, 0) - expected) ** 2 / expected
    assert chi2 < 15.09  # 99% quantile, 5 dof


def test_ball_small_radius_uniform():
    # radius 1: five elements, each with probability 1/5
    counts = {}
    trials = 5000
    for i in range(trials):
        w = sample_ball_uniform(2, 1, seed=10_000 + i)
        counts[w.letters] = counts.get(w.letters, 0) + 1
    assert set(counts) == {(), (1,), (-1,), (2,), (-2,)}
    for v in counts.values():
        assert abs(v - trials / 5) < 5 * math.sqrt(trials * 0.2 * 0.8)


def test_ball_mass_concentrates_at_large_length():
    # exact computation: P(len >= n/2) -> 1
    fractions = []
    for n in (6, 12, 24, 48):
        bn = ball_size(BallSpec(2, n))
        small = ball_size(BallSpec(2, math.ceil(n / 2) - 1))
        fractions.append((bn - small) / bn)
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > 0.999


def test_drift_examples():
    mu2 = WalkDistribution.uniform(2)
    est = drift_estimate(mu2, 1, 200, 3)
    assert est.mean == 1.0
    est = drift_estimate(mu2, 2000, 300, 5)
    assert abs(est.mean - 0.5) < 0.02
    mu3 = WalkDistribution.uniform(3)
    est3 = drift_estimate(mu3, 2000, 300, 5)
    assert abs(est3.mean - 2 / 3) < 0.02
    with pytest.raises(ConfigError, match="need n >= 1"):
        drift_estimate(mu2, 0, 10, 0)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "self-int", "n_grid": (4,),
                                    "samples": 1, "bogus": 7})
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope", n_grid=(4,), samples=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="self-int", n_grid=(), samples=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="self-int", n_grid=(4,), samples=1,
                         sampler="teleport")
    with pytest.raises(ConfigError, match="unknown surface 'klein-bottle'"):
        ExperimentConfig(experiment="self-int", n_grid=(4,), samples=1,
                         surface="klein-bottle")
    # uniform-distribution precondition for lifting experiments
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="lifting", n_grid=(6,), samples=2,
                         probs=(0.4, 0.1, 0.4, 0.1))
    ExperimentConfig(experiment="lifting", n_grid=(6,), samples=2)


def test_from_dict_coerces_strings_by_field_type():
    cfg = ExperimentConfig.from_dict({
        "experiment": "self-int", "n_grid": "6, 12", "samples": "3",
        "seed": "7", "retain_raw": "false", "probs": "0.4 0.1,0.4, 0.1"})
    assert cfg.n_grid == (6, 12) and cfg.samples == 3 and cfg.seed == 7
    assert cfg.retain_raw is False
    assert cfg.probs == (0.4, 0.1, 0.4, 0.1)
    cfg = ExperimentConfig.from_dict({"experiment": "self-int", "n_grid": "6",
                                      "samples": "1", "probs": None})
    assert cfg.probs is None
    for word, value in (("1", True), ("YES", True), ("true", True),
                        ("0", False), ("no", False)):
        cfg = ExperimentConfig.from_dict({"experiment": "self-int", "n_grid": "6",
                                          "samples": "1", "retain_raw": word})
        assert cfg.retain_raw is value
    for key, bad in (("samples", "x"), ("n_grid", "6,x"), ("retain_raw", "maybe"),
                     ("probs", "0.5,half"), ("seed", "1.5"), ("samples", None),
                     ("seed", 1.5), ("n_grid", (6.5,))):
        d = {"experiment": "self-int", "n_grid": "6", "samples": "3", key: bad}
        with pytest.raises(ConfigError, match=f"config key {key}"):
            ExperimentConfig.from_dict(d)


def test_config_rejects_rank_not_matching_surface():
    with pytest.raises(ConfigError, match="does not match surface"):
        ExperimentConfig(experiment="self-int", n_grid=(6,), samples=2, rank=3)
    with pytest.raises(ConfigError, match="does not match surface"):
        ExperimentConfig(experiment="spiral", n_grid=(6,), samples=2,
                         surface="genus2-boundary1")
    ExperimentConfig(experiment="self-int", n_grid=(6,), samples=2, rank=4,
                     surface="genus2-boundary1")
    # conj-ball works in the free group and ignores the surface
    ExperimentConfig(experiment="conj-ball", n_grid=(3,), samples=1, rank=3)


def test_config_rejects_unparsable_alpha():
    with pytest.raises(ConfigError, match="alpha 'xyz'"):
        ExperimentConfig(experiment="fixed-curve-int", n_grid=(6,), samples=2,
                         alpha="xyz")
    with pytest.raises(ConfigError, match="alpha 'a1'"):
        ExperimentConfig(experiment="fixed-curve-int", n_grid=(6,), samples=2,
                         alpha="a1")


def test_config_rejects_trivial_alpha():
    with pytest.raises(ConfigError, match="trivial class"):
        ExperimentConfig(experiment="fixed-curve-int", n_grid=(6,), samples=2,
                         alpha="aA")
    ExperimentConfig(experiment="fixed-curve-int", n_grid=(6,), samples=2,
                     alpha="abAB")


# Output bytes of one small seeded table per sampled family: the CSV and
# the sha256 of the .meta.json at jobs=1.  A change to the harness or to a
# family's measurement must leave them exactly as they are.
SAMPLED_PINS = [
    pytest.param(
        dict(experiment="self-int", n_grid=(8, 16), samples=25, seed=4),
        "n,samples,median,q1,q3,mean,max\n"
        "8,25,2.0,1.0,3.0,2.12,6.0\n"
        "16,25,9.0,3.0,12.0,8.2,22.0\n",
        "86f3a7d9b3a7d13150c99ef681e004f9555f68d23b5c6f2f97b54296741a5f25",
        id="self-int-walk"),
    pytest.param(
        dict(experiment="self-int", sampler="ball", n_grid=(4, 12), samples=12,
             seed=3),
        "n,samples,median,q1,q3,mean,max\n"
        "4,12,0.5,0.0,1.0,0.5,1.0\n"
        "12,12,13.5,11.75,16.25,12.833333333333334,21.0\n",
        "352645595cb6f038ca10c743f2e9c3545046b80f639eefdbf5985eb2c740676b",
        id="self-int-ball"),
    pytest.param(
        dict(experiment="fixed-curve-int", n_grid=(4, 12), samples=12, seed=3,
             alpha="ab"),
        "n,samples,median,q1,q3,mean,max\n"
        "4,9,2.0,2.0,2.0,2.0,4.0\n"
        "12,11,4.0,2.0,4.0,3.4545454545454546,6.0\n",
        "56baf7fcdb46d81bbeb1d5c9cbcef42eb084fc87809f210b1d93bdc1485d909a",
        id="fixed-curve-int"),
    pytest.param(
        dict(experiment="lifting", n_grid=(6, 14), samples=12, seed=3, d_max=3),
        "n,samples,median,q1,q3,mean,max\n"
        "6,10,1.0,1.0,1.75,1.3,2.0\n"
        "14,5,1.0,1.0,2.0,1.4,2.0\n",
        "6ec8a8fd1c23c0165b7c68f937019829450d050cb994f21931a0a5dc786ec6a9",
        id="lifting"),
    pytest.param(
        dict(experiment="spiral", n_grid=(6, 20), samples=12, seed=3),
        "n,samples,median,q1,q3,mean,max\n"
        "6,11,0.0,0.0,1.0,0.45454545454545453,2.0\n"
        "20,12,2.0,0.0,3.0,1.75,4.0\n",
        "c2f11913d6e23f5a92521f418f54eab4c57717d4fb03e0f0f2904ca5997142b2",
        id="spiral"),
    pytest.param(
        dict(experiment="minimizer", n_grid=(4, 6, 10), samples=6, seed=0),
        "n,samples,median,q1,q3,mean,max\n"
        "4,0,nan,nan,nan,nan,nan\n"
        "6,3,0.4514889387026157,0.44737596107466115,0.6135009198182565,"
        "0.5567549410277398,0.7755129009338972\n"
        "10,2,0.39630549135925514,0.3365779655164548,0.45603301720205547,"
        "0.39630549135925514,0.5157605430448559\n",
        "4afacc39a8e710139a65f6e64bed6f08161d423c1d722dcdfcbc175718e9e356",
        id="minimizer"),
]


@pytest.mark.parametrize("kw, csv, meta_sha256", SAMPLED_PINS)
def test_experiment_reproducible_across_jobs(tmp_path, kw, csv, meta_sha256):
    # jobs=2 pickles the config into a process pool; only the recorded
    # "jobs" value may differ in the metadata
    metas = []
    for jobs in (1, 2):
        path = os.path.join(tmp_path, f"jobs{jobs}.csv")
        run_experiment(ExperimentConfig(**kw, jobs=jobs)).save(path)
        assert open(path, "rb").read() == csv.encode()
        metas.append(open(path + ".meta.json", "rb").read())
    assert hashlib.sha256(metas[0]).hexdigest() == meta_sha256
    assert metas[1] == metas[0].replace(b'"jobs": 1,', b'"jobs": 2,')


def test_csv_format_and_save(tmp_path):
    cfg = ExperimentConfig(experiment="self-int", n_grid=(6, 12), samples=10,
                           seed=1, retain_raw=True)
    t = run_experiment(cfg)
    csv = t.to_csv()
    assert csv.splitlines()[0] == "n,samples,median,q1,q3,mean,max"
    assert len(csv.splitlines()) == 3
    path = os.path.join(tmp_path, "out.csv")
    t.save(path)
    assert open(path).read() == csv
    meta = json.load(open(path + ".meta.json"))
    assert meta["seed"] == 1 and meta["experiment"] == "self-int"
    assert meta["version"].startswith("randcurve-")
    # raw retention consistent with summaries
    for row in t.rows:
        raw = t.raw[row.n]
        assert row.samples == len(raw)
        assert row.median == statistics.quantiles(raw, n=4, method="inclusive")[1] \
            or len(raw) < 2
        assert row.max == max(raw)


def test_fit_exactness():
    rows = [RowStats(n, 1, float(n * n), 0, 0, 0, 0) for n in (5, 10, 20, 40)]
    t = ExperimentTable(rows, {})
    fit = fit_power_law(t)
    assert abs(fit.slope - 2.0) < 1e-12 and fit.stderr < 1e-12
    rows = [RowStats(n, 1, 3.0 * n, 0, 0, 0, 0) for n in (5, 10, 20, 40)]
    assert abs(fit_power_law(ExperimentTable(rows, {})).slope - 1.0) < 1e-12
    rows = [RowStats(n, 1, 2.0 * math.log(n), 0, 0, 0, 0) for n in (5, 10, 20, 40)]
    assert abs(fit_log_law(ExperimentTable(rows, {})).slope - 2.0) < 1e-12


def test_fit_degenerate_errors():
    rows = [RowStats(n, 1, 0.0, 0, 0, 0, 0) for n in (5, 10, 20, 40)]
    with pytest.raises(ConfigError):
        fit_power_law(ExperimentTable(rows, {}))
    rows = [RowStats(5, 1, 2.0, 0, 0, 0, 0)] * 3
    with pytest.raises(ConfigError):
        fit_power_law(ExperimentTable(rows, {}))
    rows = [RowStats(5, 1, float(m), 0, 0, 0, 0) for m in (1, 2, 3, 4)]
    with pytest.raises(ConfigError, match="no spread in n"):
        fit_power_law(ExperimentTable(rows, {}))
    rows = [RowStats(n, 1, 1.0, 0, 0, 0, 0) for n in (0, 5, 10, 20)]
    with pytest.raises(ConfigError, match="row at n = 0 is not positive"):
        fit_log_law(ExperimentTable(rows, {}))


def test_empty_row_has_no_samples_and_no_fit():
    # every sample at n = 40 is a not-found degree, so the row has no value
    cfg = ExperimentConfig(experiment="lifting", n_grid=(40,), samples=10,
                           seed=0, d_max=1, retain_raw=True)
    t = run_experiment(cfg)
    assert t.raw == {40: []}
    assert t.to_csv() == ("n,samples,median,q1,q3,mean,max\n"
                          "40,0,nan,nan,nan,nan,nan\n")
    rows = [RowStats(n, 1, float(n), 0, 0, 0, 0) for n in (5, 10, 20)]
    table = ExperimentTable(rows + t.rows, {})
    for fit in (fit_power_law, fit_log_law):
        with pytest.raises(ConfigError, match="^cannot fit: the row at n = 40 "
                                              "has no samples$"):
            fit(table)


def test_row_of_one_value_has_that_value_for_every_statistic():
    cfg = ExperimentConfig(experiment="self-int", n_grid=(6,), samples=1,
                           seed=0)
    assert run_experiment(cfg).to_csv() == ("n,samples,median,q1,q3,mean,max\n"
                                            "6,1,3.0,3.0,3.0,3.0,3.0\n")


def test_conj_ball_experiment():
    cfg = ExperimentConfig(experiment="conj-ball", n_grid=(4, 6), samples=1)
    t = run_experiment(cfg)
    assert t.metadata["violations"] == 0
    assert t.metadata["classes_checked"] > 0


def test_conj_ball_counts_violations(monkeypatch):
    # a count over every bound: each (class, n) is a violation, no slack
    monkeypatch.setattr(stats, "conjugates_in_ball", lambda c, n: 10**9)
    cfg = ExperimentConfig(experiment="conj-ball", n_grid=(3, 4), samples=1,
                           retain_raw=True)
    t = run_experiment(cfg)
    assert t.metadata["violations"] == sum(
        1 for n in (3, 4) for c in cyclic_classes(4) if len(c) <= n)
    assert [(r.n, r.samples) for r in t.rows] == [(3, 0), (4, 0)]
    assert all(math.isnan(r.max) for r in t.rows)
    assert t.raw == {3: [], 4: []}


# Output bytes of the exhaustive conj-ball table.  They depend only on the
# set of classes and the ball counts, so a faster enumerator or ball count
# must leave them exactly as they are.
CONJ_BALL_PINS = [
    (2, (4, 6, 8),
     "n,samples,median,q1,q3,mean,max\n"
     "4,50,1.0,0.0,3.0,4.64,17.0\n"
     "6,234,1.0,0.0,4.0,8.598290598290598,93.0\n"
     "8,1386,0.0,0.0,1.0,9.893217893217892,397.0\n",
     "d66f01e15a58050fe9a51317ce6022068c7b6f586f041c1ff905c2fbc67733ae", 1386),
    (3, (3, 5),
     "n,samples,median,q1,q3,mean,max\n"
     "3,70,0.0,0.0,1.75,1.8857142857142857,16.0\n"
     "5,868,0.0,0.0,1.0,3.057603686635945,160.0\n",
     "caf019797f8f073c8765049975343d7c6b7855828ee15ead61cbf0de3bc72e28", 868),
]


@pytest.mark.parametrize("rank, grid, csv, meta_sha256, classes", CONJ_BALL_PINS)
def test_conj_ball_output_bytes_pinned(tmp_path, rank, grid, csv, meta_sha256,
                                       classes):
    cfg = ExperimentConfig(experiment="conj-ball", n_grid=grid, samples=1,
                           rank=rank)
    t = run_experiment(cfg)
    path = os.path.join(tmp_path, "conj.csv")
    t.save(path)
    assert open(path, "rb").read() == csv.encode()
    meta = open(path + ".meta.json", "rb").read()
    assert hashlib.sha256(meta).hexdigest() == meta_sha256
    assert t.metadata["classes_checked"] == classes
    assert t.metadata["violations"] == 0


@pytest.mark.parametrize("rank, grid", [(2, (4, 6, 8, 10)), (3, (3, 5)),
                                        (1, (3, 7)), (4, (2, 4))])
def test_conj_ball_grouped_table_matches_per_class(rank, grid):
    # oracle: count and check every (class, n) on its own
    cfg = ExperimentConfig(experiment="conj-ball", n_grid=grid, samples=1,
                           rank=rank, retain_raw=True)
    t = run_experiment(cfg)
    classes = list(cyclic_classes(max(grid), rank))
    for n in grid:
        assert t.raw[n] == sorted(
            check_conjugacy_bound(c, n, conjugates_in_ball(c, n))
            for c in classes if len(c) <= n)
    assert t.metadata["classes_checked"] == len(classes)


def test_config_rejects_repeated_radius():
    for family in ("self-int", "conj-ball"):
        with pytest.raises(ConfigError, match="repeats a radius"):
            ExperimentConfig(experiment=family, n_grid=(4, 6, 4), samples=5)
    with pytest.raises(ConfigError, match="repeats a radius"):
        ExperimentConfig.from_dict({"experiment": "self-int", "n_grid": "4,4",
                                    "samples": "5"})


def test_conj_ball_class_budget(monkeypatch):
    def count_nothing(*args):
        raise AssertionError("a refused config counted classes")

    monkeypatch.setattr(stats, "primitive_class_count", count_nothing)
    for rank, n in ((26, 40), (2, 13), (2, 10**9), (1, 10**6)):
        with pytest.raises(ConfigError, match="may enumerate more than"):
            ExperimentConfig(experiment="conj-ball", n_grid=(4, n),
                             samples=1, rank=rank)
    ExperimentConfig(experiment="conj-ball", n_grid=(12,), samples=1)
    # the bound is exactly the number of cyclically reduced words
    for rank, max_len in ((2, 6), (2, 5), (3, 4), (3, 3), (1, 5)):
        count = sum(1 for c in cyclic_classes(max_len, rank)
                    for _ in set(c.rotations()))
        monkeypatch.setattr(stats, "MAX_CONJ_BALL_CLASSES", count)
        assert not stats._exceeds_class_budget(rank, max_len)
        monkeypatch.setattr(stats, "MAX_CONJ_BALL_CLASSES", count - 1)
        assert stats._exceeds_class_budget(rank, max_len)


def test_conj_ball_raw_is_sorted():
    cfg = ExperimentConfig(experiment="conj-ball", n_grid=(5, 7), samples=1,
                           retain_raw=True)
    t = run_experiment(cfg)
    for row in t.rows:
        raw = t.raw[row.n]
        assert raw == sorted(raw) and len(raw) == row.samples
        assert row.max == raw[-1]


def test_spiral_experiment_smoke():
    cfg = ExperimentConfig(experiment="spiral", n_grid=(30, 60), samples=40, seed=6)
    t = run_experiment(cfg)
    assert all(r.median >= 0 for r in t.rows)


def test_minimizer_experiment_smoke():
    cfg = ExperimentConfig(experiment="minimizer", n_grid=(16,), samples=8, seed=6)
    t = run_experiment(cfg)
    per_n = t.metadata["per_n"]["16"]
    assert per_n["converged"] + per_n["diverged"] + per_n["budget"] <= 8


def test_minimizer_experiment_skips_parabolic_walks():
    # a walk that reduces to a power of the boundary commutator has no
    # hyperbolic length; find one among the first samples of some seed
    boundary = {CyclicWord.from_string(s, 2).letters for s in ("abAB", "baBA")}
    probs = WalkDistribution.uniform(2).probs
    hit = None
    for seed in range(100):
        for idx in range(4):
            c = cyclic_reduce(_sample_word("walk", 2, probs, 20, seed, idx))
            if len(c) and c.primitive_root()[0].letters in boundary:
                hit = seed, idx, c
                break
        if hit:
            break
    assert hit is not None
    seed, idx, c = hit
    with pytest.raises(ParabolicWordError):
        minimize_length(c)
    cfg = ExperimentConfig(experiment="minimizer", n_grid=(20,), samples=idx + 1,
                           seed=seed)
    t = run_experiment(cfg)
    assert t.metadata["extras"]["skipped"] >= 1
    assert [r.n for r in t.rows] == [20]
    assert t.to_csv().startswith("n,samples,")


def test_config_rejects_nonpositive_d_max(monkeypatch):
    monkeypatch.setattr(stats, "_measure_one", None)  # no sample may run
    for d_max in (0, -2):
        with pytest.raises(ConfigError, match="d_max must be positive"):
            run_experiment(ExperimentConfig(experiment="lifting", n_grid=(6,),
                                            samples=2, d_max=d_max))


@pytest.mark.parametrize("name, value", [
    ("n_grid", (6.5,)), ("n_grid", (6, "8")), ("samples", 2.0), ("samples", True),
    ("seed", 1.5), ("rank", 2.0), ("d_max", 2.5), ("jobs", 1.5)])
def test_config_rejects_non_integer_counts(monkeypatch, name, value):
    monkeypatch.setattr(stats, "_measure_one", None)  # no sample may run
    kwargs = dict(experiment="lifting", n_grid=(6,), samples=3) | {name: value}
    with pytest.raises(ConfigError, match=f"{name}.* must be an integer"):
        run_experiment(ExperimentConfig(**kwargs))


def test_from_dict_names_missing_keys(monkeypatch):
    monkeypatch.setattr(stats, "_measure_one", None)  # no sample may run
    with pytest.raises(ConfigError,
                       match=r"missing config keys: \['n_grid', 'samples'\]"):
        ExperimentConfig.from_dict({"experiment": "self-int"})


@pytest.mark.parametrize("probs", [(math.nan,) * 4, (0.25, 0.25, 0.25, math.nan),
                                   (math.inf, 0, 0, 0),
                                   (0.5, 0.5, math.inf, -math.inf)])
def test_config_rejects_nonfinite_walk_weights(monkeypatch, probs):
    monkeypatch.setattr(stats, "_measure_one", None)  # no sample may run
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig(experiment="self-int", n_grid=(4,), samples=2,
                         probs=probs)


@pytest.mark.parametrize("surface_name, rank", [("pair-of-pants", 2),
                                                ("genus2-boundary1", 4)])
def test_config_rejects_minimizer_off_the_punctured_torus(monkeypatch,
                                                          surface_name, rank):
    monkeypatch.setattr(stats, "_measure_one", None)  # no sample may run
    with pytest.raises(ConfigError, match="punctured torus only"):
        ExperimentConfig(experiment="minimizer", n_grid=(6,), samples=2,
                         surface=surface_name, rank=rank)


# the generator cores of each preset, written out
GENERATOR_CORES = {"punctured-torus": ("a", "b"), "pair-of-pants": ("a", "b"),
                   "genus2-boundary1": ("a", "b", "c", "d")}


@pytest.mark.parametrize("name", sorted(GENERATOR_CORES))
def test_max_spiraling_matches_largest_over_generator_cores(name):
    g = surface(name)
    cores = [CyclicWord.from_string(s, g.rank) for s in GENERATOR_CORES[name]]
    gens = "".join(GENERATOR_CORES[name])
    words = [x * k for x in gens + gens.upper() for k in (1, 2, 5)]
    words += ["ab", "aab", "abAB", "aaaBaB", "bbbbA", "aaBBaB"]
    if g.rank == 4:
        words += ["abcd", "aaaCd", "cccD", "ddddcB"]
    for w in words:
        c = CyclicWord.from_string(w, g.rank)
        values = []
        for core in cores:
            try:
                values.append(spiraling(c, core, g))
            except IntersectionError:  # c is a power of this core
                pass
        assert _max_spiraling(c, g) == max(values, default=0), (name, w)


def _max_spiraling_by_letter_set(gamma, g):
    """``_max_spiraling`` by its definition: skip generator j when the set
    of the class's letters is {j} or {-j}."""
    letters = set(gamma.letters)
    own = abs(letters.pop()) if len(letters) == 1 else 0
    return max((spiraling(gamma, CyclicWord((j,), g.rank), g)
                for j in range(1, g.rank + 1) if j != own), default=0)


def test_max_spiraling_skips_only_the_own_generator():
    pt, g2 = surface("punctured-torus"), surface("genus2-boundary1")
    # spiraling around a class's own generator raises, so it must be skipped
    for w, other in (("a" * 7, "b"), ("B" * 5, "a")):
        c = CyclicWord.from_string(w, 2)
        core = CyclicWord.from_string(other, 2)
        assert _max_spiraling(c, pt) == spiraling(c, core, pt)
    c = CyclicWord.from_string("cccc", 4)
    assert _max_spiraling(c, g2) == max(
        spiraling(c, CyclicWord((j,), 4), g2) for j in (1, 2, 4))
    probs = (0.25,) * 4
    rng = random.Random(11)
    for index in range(50):
        gamma = cyclic_reduce(_sample_word("walk", 2, probs, rng.randrange(450, 3801),
                                           11, index))
        assert 200 <= len(gamma) <= 2000
        assert _max_spiraling(gamma, pt) == _max_spiraling_by_letter_set(gamma, pt)


def test_stats_import_leaves_process_pool_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, randcurve.stats\n"
            "assert 'concurrent.futures' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


_HUGE_DEGREE_RUN = """
import randcurve.covers as covers
from randcurve.stats import ExperimentConfig, run_experiment

if __debug__:
    raise SystemExit("assert statements are live: not running under -O")
covers.simple_lifting_degree = (
    lambda gamma, g, d_max=6: covers.DegreeSearchResult(10**6, d_max))
run_experiment(ExperimentConfig(experiment="lifting", n_grid=(8,), samples=4))
"""


def test_invariant_checks_survive_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _HUGE_DEGREE_RUN],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "InvariantViolation: linear degree bound violated" in proc.stderr


def _classes(cfg):
    """The reduced class of every sample of ``cfg``, in payload order,
    drawn independently of the harness."""
    probs = cfg.distribution().probs
    return [(n, cyclic_reduce(_sample_word(cfg.sampler, cfg.rank, probs, n,
                                           cfg.seed, idx)).letters)
            for n in cfg.n_grid for idx in range(cfg.samples)]


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` to record the memo size at each call."""
    calls, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(len(stats._class_memo))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_memo_length_is_the_birthday_bound():
    # (samples * len(n_grid))^2 = 160000 >= |CR_10| = 3^10 + 3, < 3^11 + 1
    grid = ExperimentConfig(experiment="lifting", n_grid=(6, 10, 14, 18, 22),
                            samples=80, d_max=5)
    assert stats._memo_length(grid) == 10
    # 6400 < 3^8 + 3: the lifting-n40 benchmark config stops at 7
    n40 = ExperimentConfig(experiment="lifting", n_grid=(40,), samples=80)
    assert stats._memo_length(n40) == 7
    # never past the longest class the grid can draw
    tiny = ExperimentConfig(experiment="self-int", n_grid=(3,), samples=100)
    assert stats._memo_length(tiny) == 3
    genus2 = ExperimentConfig(experiment="self-int", n_grid=(20,), samples=50,
                              rank=4, surface="genus2-boundary1")
    assert stats._memo_length(genus2) == 4  # |CR_4| = 2408, |CR_5| = 16808


def test_bound_check_runs_per_sample_on_memo_hits(monkeypatch):
    cfg = ExperimentConfig(experiment="self-int", n_grid=(8, 4), samples=60)
    classes = _classes(cfg)
    assert stats._memo_length(cfg) == 8  # every class of the run is memoized
    nontrivial = [(n, c) for n, c in classes if c]
    assert len({c for _, c in nontrivial}) < len(nontrivial)
    checks = _counting(monkeypatch, stats, "check_quadratic_bound")
    measured = _counting(monkeypatch, stats, "self_intersection")
    run_experiment(cfg)
    assert len(checks) == len(nontrivial)
    assert len(measured) == len({c for _, c in nontrivial})

    # 7 is within n = 8's bound of 28 but over n = 4's bound of 6; the
    # first nontrivial n = 4 sample repeats a class measured at n = 8
    at8 = {c for n, c in nontrivial if n == 8}
    first4 = next(c for n, c in nontrivial if n == 4)
    assert first4 in at8
    monkeypatch.setattr(stats, "self_intersection", lambda path: 7)
    checks.clear()
    measured = _counting(monkeypatch, stats, "self_intersection")
    with pytest.raises(InvariantViolation, match="quadratic bound violated"):
        run_experiment(cfg)
    assert len(measured) == len(at8)  # the failing sample was a memo hit
    assert len(checks) == sum(1 for n, _ in nontrivial if n == 8) + 1


def test_class_memo_scope_on_a_lifting_run(monkeypatch):
    cfg = ExperimentConfig(experiment="lifting", n_grid=(6, 10, 14),
                           samples=40, d_max=3)
    limit = max(k for k in range(1, 15)
                if cyclically_reduced_count(2, k) <= (40 * 3) ** 2)
    assert limit == stats._memo_length(cfg) == 8
    nontrivial = [c for _, c in _classes(cfg) if c]
    short = {c for c in nontrivial if len(c) <= limit}
    long_samples = sum(1 for c in nontrivial if len(c) > limit)
    assert len(short) < sum(1 for c in nontrivial if len(c) <= limit)
    assert long_samples > 0
    calls = _counting(monkeypatch, covers, "simple_lifting_degree")
    first = run_experiment(cfg)
    assert len(calls) == len(short) + long_samples
    assert stats._class_memo == {}
    calls.clear()
    # an entry left from outside a run is never read
    stats._class_memo.update(dict.fromkeys(short, ("found", 99)))
    assert run_experiment(cfg).to_csv() == first.to_csv()
    assert len(calls) == len(short) + long_samples
    assert stats._class_memo == {}

    def fail_late(gamma, g, d_max=6):
        if len(calls) > 5:
            raise InvariantViolation("forced")
        return search(gamma, g, d_max=d_max)

    search = covers.simple_lifting_degree
    monkeypatch.setattr(covers, "simple_lifting_degree", fail_late)
    with pytest.raises(InvariantViolation, match="forced"):
        run_experiment(cfg)
    assert stats._class_memo == {}


def test_lifting_sorts_each_class_ends_once(monkeypatch):
    # the bound check's self_intersection reads the root's linked passages
    # that the degree search cached, so a measured class sorts its ends once
    cfg = ExperimentConfig(experiment="lifting", n_grid=(4, 8), samples=20,
                           seed=0, d_max=2)
    run_experiment(cfg)  # caches the generator cores that spiraling checks
    intersect.linked_passages.cache_clear()
    sorts, outcomes = [], []
    end_keys, measure = intersect._end_keys, stats._measure_class

    def counted_end_keys(g, paths):
        if len(paths) == 1:  # the one-path pass of ``linked_passages``
            sorts.append(paths)
        return end_keys(g, paths)

    def counted_measure(config, gamma):
        out = measure(config, gamma)
        outcomes.append((out[0], gamma.primitive_root()[1] > 1))
        return out

    monkeypatch.setattr(intersect, "_end_keys", counted_end_keys)
    monkeypatch.setattr(stats, "_measure_class", counted_measure)
    run_experiment(cfg)
    assert len(sorts) == len(outcomes)
    assert {("found", True), ("found", False), ("not_found", True),
            ("not_found", False)} <= set(outcomes)


def test_long_classes_bypass_the_memo(monkeypatch):
    cfg = ExperimentConfig(experiment="self-int", n_grid=(200,), samples=3)
    nontrivial = [c for _, c in _classes(cfg) if c]
    assert stats._memo_length(cfg) < min(map(len, nontrivial))
    calls = _counting(monkeypatch, stats, "self_intersection")
    run_experiment(cfg)
    assert len(calls) == len(nontrivial) == 3
    assert calls == [0, 0, 0]  # nothing stored before each measurement


# Sampler streams recorded before the samplers shared one draw: the same
# (seed, sampler, n, index) key must keep giving the same letters.
_U2, _NU2 = (0.25,) * 4, (0.4, 0.1, 0.3, 0.2)
_U3, _NU3 = (1 / 6,) * 6, (0.3, 0.1, 0.1, 0.2, 0.2, 0.1)
_KEYS = ((0, 12, 0), (7, 20, 3), (2024, 9, 11))
_SAMPLE_WORD_PINS = [
    ("walk", 2, _U2, ("AAAbBBABBaAB", "bbBbBAAAABbBbbabAbaA", "bAABAAbaB")),
    ("walk", 2, _NU2, ("AAAaBBABAaAB", "bbBbBAAAABbBababAbaA", "aAABAAbaB")),
    ("walk", 3, _U3, ("BAAcCCACBaBC", "ccCcCBAAACcCbcbcAcbB", "cBABBAcaB")),
    ("walk", 3, _NU3, ("BAAbCBACBaAB", "ccCcCBAAABcBacacAcaB", "bBABBAcaB")),
    ("ball", 2, _U2, ("abaBAbAABB", "baBabaabAABaabAbaBBA", "abAAABBBA")),
    ("ball", 3, _U3, ("CacacaCACC", "caacACbbACbbAAcbACab", "BCacBAACC")),
]


@pytest.mark.parametrize("sampler, rank, probs, expected", _SAMPLE_WORD_PINS)
def test_sample_word_stream_pinned(sampler, rank, probs, expected):
    got = tuple(str(_sample_word(sampler, rank, probs, n, seed, idx))
                for seed, n, idx in _KEYS)
    assert got == expected
    assert len(_sample_word(sampler, rank, probs, 0, 5, 0)) == 0


def test_public_sampler_streams_pinned():
    walks = [(str(random_walk(WalkDistribution.uniform(2), 15, s)),
              str(random_walk(WalkDistribution(3, _NU3), 15, s)))
             for s in (0, 1, 2)]
    assert walks == [("baBabbABaabABaa", "baBaccACaacACaa"),
                     ("BbBababbbAaAbBA", "BcBaaababAaAbBA"),
                     ("bBaabABBaabaabb", "bBaabABBaaaaabc")]
    balls = [(str(sample_ball_uniform(2, 15, s)), str(sample_ball_uniform(3, 10, s)))
             for s in (0, 1, 2)]
    assert balls == [("BaaaBABabaBAAAb", "AcbaBaBcAB"),
                     ("ABaaBAbabaBAAbA", "BACbbCBabc"),
                     ("bbaaBBAAbaBaaBA", "bcbbCABcbC")]
    assert repr(drift_estimate(WalkDistribution.uniform(2), 60, 25, 4).mean) == "0.516"
    assert (repr(drift_estimate(WalkDistribution(3, _NU3), 40, 15, 9).mean)
            == "0.7333333333333333")


def _library_nodes():
    src = Path(__file__).resolve().parents[1] / "src" / "randcurve"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_library_has_no_bare_assert():
    # ``python -O`` strips assert statements; invariant checks must raise
    hits = [f"{name}:{node.lineno}" for name, node in _library_nodes()
            if isinstance(node, ast.Assert)]
    assert hits == []


def test_library_raises_no_assertion_error():
    # a failed self-check raises InvariantViolation, through ``require``
    def raised(node):
        return node.exc.func if isinstance(node.exc, ast.Call) else node.exc

    hits = [f"{name}:{node.lineno}" for name, node in _library_nodes()
            if isinstance(node, ast.Raise)
            and getattr(raised(node), "id", None) == "AssertionError"]
    assert hits == []


def _exact_law(config: ExperimentConfig, n: int, rank: int = 2):
    """The exact law of ``_measure_class``'s value at radius ``n``, given a
    nontrivial class, as value -> ``Fraction``, and the total mass.

    The walk and the ball are radial: a reduced word of length k has chance
    P(|X_n| = k) / |S_k| for the walk, P(|X_n| = k) from the birth-death
    recursion of the length, and 1 / |B_n| for the ball.  R(2r-2)(2r-1)^(j-1)
    reduced words of length |c| + 2j reduce to a class c whose primitive
    root has R letters, and R do for j = 0; the trivial class comes from the
    empty word alone."""
    if config.sampler == "walk":
        dist = [Fraction(1)] + [Fraction(0)] * n  # P(|X_t| = k), t = 0..n
        for _ in range(n):
            step = [Fraction(0)] * (n + 1)
            step[1] += dist[0]
            for k in range(1, n):
                step[k + 1] += dist[k] * Fraction(2 * rank - 1, 2 * rank)
                step[k - 1] += dist[k] * Fraction(1, 2 * rank)
            dist = step
        weight = [p / sphere_size(BallSpec(rank, k)) for k, p in enumerate(dist)]
    else:
        weight = [Fraction(1, ball_size(BallSpec(rank, n)))] * (n + 1)
    mass, law = weight[0], Counter()
    for c, root in _classes_with_roots(n, rank):
        p = weight[len(c)] * root + sum(
            weight[len(c) + 2 * j] * root * (2 * rank - 2) * (2 * rank - 1) ** (j - 1)
            for j in range(1, (n - len(c)) // 2 + 1))
        if p:
            mass += p
            law[stats._measure_class(config, c)[1]] += p / (1 - weight[0])
    return law, mass


def assert_median_and_mean(law, median, mean):
    """``law`` has the given median and, to four decimals, mean."""
    below = 0
    for value in sorted(law):
        below += law[value]
        if 2 * below >= 1:
            break
    assert value == median and 2 * (1 - below + law[value]) >= 1
    assert abs(sum(v * p for v, p in law.items()) - Fraction(mean)) \
        <= Fraction(1, 20000)


@pytest.mark.parametrize("sampler,median,mean", [("walk", 1, "2.4159"),
                                                  ("ball", 7, "6.8155")])
def test_exact_self_int_law_at_n10(sampler, median, mean):
    # the true median at n = 10 that AC5-walk's failure message cites
    law, mass = _exact_law(ExperimentConfig(
        experiment="self-int", n_grid=(10,), samples=1, sampler=sampler), 10)
    assert mass == 1
    assert sum(law.values()) == 1
    assert_median_and_mean(law, median, mean)


@pytest.mark.parametrize("sampler,median,mean", [("walk", 0, "0.7121"),
                                                  ("ball", 1, "1.5642")])
def test_exact_spiral_law_at_n10(sampler, median, mean):
    # spiraling cuts each sample's root from its dart text's least period
    law, mass = _exact_law(ExperimentConfig(
        experiment="spiral", n_grid=(10,), samples=1, sampler=sampler), 10)
    assert mass == 1
    assert sum(law.values()) == 1
    assert_median_and_mean(law, median, mean)


def test_exact_lifting_law_at_n10():
    # the search lifts each class's primitive root; None is not found
    law, mass = _exact_law(ExperimentConfig(
        experiment="lifting", n_grid=(10,), samples=1, sampler="walk",
        d_max=6), 10)
    assert mass == 1
    assert sum(law.values()) == 1
    assert set(law) == {1, 2, 3, 4, 5, 6, None}
    assert 1 - law[1] == Fraction(92449, 128589)  # 0.71895
    assert law[None] == Fraction(217, 85726)  # 0.00253
