import ast
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import randcurve.stats as stats
from randcurve.fricke import ParabolicWordError, minimize_length
from randcurve.intersect import IntersectionError, spiraling
from randcurve.ribbon import surface
from randcurve.stats import (ConfigError, ExperimentConfig,
                             ExperimentTable, RowStats, WalkDistribution,
                             _max_spiraling, _sample_word, drift_estimate,
                             fit_log_law, fit_power_law, random_walk,
                             run_experiment, sample_ball_uniform, sample_word)
from randcurve.words import (BallSpec, CyclicWord, alphabet_letters, ball_size,
                             check_conjugacy_bound, conjugates_in_ball,
                             cyclic_classes, cyclic_reduce, sphere_size)


def test_distribution_validation():
    WalkDistribution.uniform(2)
    with pytest.raises(ConfigError):
        WalkDistribution(2, (0.5, 0.5))  # wrong arity
    with pytest.raises(ConfigError):
        WalkDistribution(2, (0.6, 0.6, -0.1, -0.1))
    with pytest.raises(ConfigError):
        # generator 2 has no weight in either direction: not generating
        WalkDistribution(2, (0.5, 0.0, 0.5, 0.0))
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
    from randcurve.words import cyclic_reduce, letter_counts

    n = 10 ** 4
    w = random_walk(WalkDistribution.uniform(2), n, seed=77)
    lc = letter_counts(cyclic_reduce(w))
    for x in (1, -1, 2, -2):
        assert lc.counts.get(x, 0) >= 0.05 * n


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
        "4,1,0.0,0.0,0.0,0.0,0.0\n"
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
    assert [(r.n, r.samples, r.max) for r in t.rows] == [(3, 1, 0.0), (4, 1, 0.0)]
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


@pytest.mark.parametrize("rank, grid", [(2, (4, 6, 8, 10)), (3, (3, 5))])
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
    def enumerate_nothing(*args):
        raise AssertionError("a refused config enumerated classes")

    monkeypatch.setattr(stats, "_classes_with_roots", enumerate_nothing)
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
    assert "AssertionError: linear degree bound violated" in proc.stderr


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


def test_library_has_no_bare_assert():
    # ``python -O`` strips assert statements; invariant checks must raise
    src = Path(__file__).resolve().parents[1] / "src" / "randcurve"
    hits = [f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)]
    assert hits == []
