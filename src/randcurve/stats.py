"""Random-walk and uniform-ball sampling, Monte Carlo experiment harness,
and scaling-law fits.

Reproducibility contract: every sample draws from its own RNG seeded by
(master seed, sampler, n, sample index), so results are bit-identical
regardless of worker count or scheduling.  A walk of n letters is drawn as
one ``getrandbits(64 * n)`` block and equals ``Random.choices(letters,
weights=probs, k=n)`` letter for letter, leaving the generator in the same
state: CPython fills the block from its least significant 32-bit word up,
one Mersenne Twister output per word, so it holds the 2n outputs that n
``random()`` calls read, in their order.  The tests hold the draw to
``Random.choices`` as its oracle, so a Python whose word order differed
would fail them rather than change the streams.

A sampled family's value is a function of the sample's conjugacy class
alone: integer counts, an exhaustive degree search and a minimizer that
starts from fixed seeds.  So one ``run_experiment`` call measures each
class short enough to repeat once and keeps its outcome and value in a
memo.  Short enough means a length L with at most (samples *
len(n_grid))^2 cyclically reduced words, which bound its classes; past that
birthday bound two draws of one class are unlikely, so a longer class is
measured per sample and never stored.  The memo is emptied when a run
starts and when it ends, an exception included; under ``jobs > 1`` each
worker keeps its own.  Checks that depend on the sample's n still run per
sample.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import math
import operator
import random
import statistics
import types
import typing
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, asdict

from . import __version__, covers, fricke
from .intersect import (EdgePath, check_quadratic_bound, intersection,
                        self_intersection, spiraling)
from .ribbon import SURFACE_PRESETS, surface
from .words import (CyclicWord, InvariantViolation, Word, WordError,
                    _ball_sizes, _unchecked, _validate_letters,
                    alphabet_letters, check_conjugacy_bound,
                    conjugates_in_ball, cyclic_reduce,
                    cyclically_reduced_count, primitive_class_count,
                    reduce_letters, require)


class ConfigError(ValueError):
    pass


def _rng(master_seed: int, *index) -> random.Random:
    key = f"{master_seed}/" + "/".join(str(i) for i in index)
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class WalkDistribution:
    """Step distribution on the symmetric alphabet; probabilities follow
    the letter order (1..r, -1..-r), pass the walk draw's checks, sum to 1
    and give every generator weight."""

    rank: int
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        _validate_letters((), self.rank)
        _walk_draw_table(self.rank, self.probs)
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ConfigError("probabilities must sum to 1")
        for i, (p, q) in enumerate(zip(self.probs, self.probs[self.rank:]), 1):
            if p == q == 0:
                raise ConfigError("support must generate: generator "
                                  f"{i} has zero weight in both directions")

    @classmethod
    def uniform(cls, rank: int) -> "WalkDistribution":
        _validate_letters((), rank)
        return cls(rank, (1.0 / (2 * rank),) * (2 * rank))

    @property
    def is_uniform(self) -> bool:
        return all(abs(p - self.probs[0]) < 1e-15 for p in self.probs)


@functools.lru_cache(maxsize=None)
def _reduced_steps(rank: int):
    """The letters of ``rank`` and, for each, the 2r-1 letters that may
    follow it in a reduced word."""
    letters = alphabet_letters(rank)
    return letters, {x: tuple(y for y in letters if y != -x) for x in letters}


def uniform_reduced_word(rng: random.Random, rank: int, length: int) -> Word:
    """Uniform reduced word of the given length: a uniform first letter, then
    at each step a uniform letter among the 2r-1 that do not cancel."""
    _validate_letters((), rank)
    if length == 0:
        return Word((), rank)
    letters, after = _reduced_steps(rank)
    word = [letters[rng.randrange(2 * rank)]]
    for _ in range(length - 1):
        word.append(after[word[-1]][rng.randrange(2 * rank - 1)])
    return _unchecked(Word, tuple(word), rank)


_X_SCALE = 1.0 / (1 << 53)  # random() returns X * _X_SCALE for its 53-bit X
_BUCKET_BITS = 45  # X >> 45 is the top byte of the first of its two outputs


@functools.lru_cache(maxsize=64)
def _walk_draw_table(rank: int, probs: tuple[float, ...]):
    """The letters of ``rank``, the thresholds and the top-byte table that
    turn a 53-bit draw X into the letter ``Random.choices`` picks with weights
    ``probs`` when ``random()`` returns X / 2^53.

    The pick is ``bisect(cum, X / 2^53 * total, 0, 2r - 1)``, nondecreasing
    in X; threshold j is the least X at which it reaches j, found by binary
    search on that same float expression (2^53 if it never does).  Entry t
    of the table is the letter of every X with top byte t, as a signed byte,
    or 0 when a threshold splits that bucket.  Raises ``ConfigError`` unless
    ``probs`` holds 2r finite nonnegative weights with a positive total; an
    error is not cached."""
    letters = alphabet_letters(rank)
    if len(probs) != len(letters):
        raise ConfigError(f"need {len(letters)} walk probabilities, "
                          f"got {len(probs)}")
    if not all(0.0 <= p < math.inf for p in probs):
        raise ConfigError("walk probabilities must be finite and nonnegative")
    cum = list(itertools.accumulate(probs))
    total = cum[-1] + 0.0
    if not 0.0 < total < math.inf:
        raise ConfigError("walk probabilities must have a positive finite total")
    hi = len(cum) - 1
    thresholds = []
    for j in range(1, hi + 1):
        lo, up = 0, 1 << 53
        while lo < up:
            mid = (lo + up) // 2
            if bisect.bisect(cum, mid * _X_SCALE * total, 0, hi) >= j:
                up = mid
            else:
                lo = mid + 1
        thresholds.append(lo)
    table = bytearray(256)
    for t in range(256):
        x0, x1 = t << _BUCKET_BITS, (t + 1) << _BUCKET_BITS
        if not any(x0 < x < x1 for x in thresholds):
            table[t] = letters[bisect.bisect(thresholds, x0)] & 0xFF
    return letters, tuple(thresholds), bytes(table)


def _walk_letters(rng: random.Random, rank: int, probs, n: int) -> tuple[int, ...]:
    """The n letters that ``Random.choices(alphabet_letters(rank),
    weights=probs, k=n)`` would return from ``rng``, drawn as one block of 2n
    32-bit outputs."""
    letters, thresholds, table = _walk_draw_table(rank, probs)
    # bytes 8k..8k+7 hold the outputs a, b that the k-th random() reads,
    # little-endian; its X is (a >> 5) * 2^26 + (b >> 6)
    raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    out = raw[3::8].translate(table)
    if 0 in table:
        out = bytearray(out)
        k = out.find(0)
        while k >= 0:
            ab = int.from_bytes(raw[8 * k:8 * k + 8], "little")
            x = (ab & 0xFFFFFFFF) >> 5 << 26 | ab >> 38
            out[k] = letters[bisect.bisect(thresholds, x)] & 0xFF
            k = out.find(0, k + 1)
    return tuple(memoryview(out).cast("b").tolist())


def sample_word(rng: random.Random, sampler: str, rank: int, probs, n: int) -> Word:
    """One word drawn from ``rng``.

    ``walk``: n i.i.d. letters with weights ``probs`` in the letter order
    (1..r, -1..-r), not reduced.  They equal ``Random.choices(
    alphabet_letters(rank), weights=probs, k=n)`` letter for letter and
    leave ``rng`` in the same state, but come from one ``getrandbits(64 *
    n)`` block: CPython fills it from the least significant 32-bit word up,
    one Mersenne Twister output each, so it holds the 2n outputs that n
    ``random()`` calls read, in their order.  Most letters are read off the
    top byte of the first output of their pair through one table; a letter
    whose byte does not decide it is read from its full 53 bits.
    ``ball``: an exactly uniform element of the radius-n ball, its length k
    drawn with probability |S_k|/|B_n|; ``probs`` is ignored.

    Raises, before any draw, ``WordError`` for a rank outside 1..26 and
    ``ConfigError`` for an unknown sampler, a negative n, or walk ``probs``
    that are not 2r finite nonnegative numbers with a positive total.
    """
    if sampler not in ("walk", "ball"):
        raise ConfigError(f"sampler must be 'walk' or 'ball', got {sampler!r}")
    if n < 0:
        raise ConfigError(f"word length must be nonnegative, got {n}")
    _validate_letters((), rank)
    if sampler == "walk":
        try:
            probs = tuple(map(float, probs))
        except (TypeError, ValueError):
            raise ConfigError(f"walk probabilities must be numbers, "
                              f"got {probs!r}") from None
        return _unchecked(Word, _walk_letters(rng, rank, probs, n), rank)
    cum = _ball_sizes(rank, n)
    k = bisect.bisect_right(cum, rng.randrange(cum[-1]))
    return uniform_reduced_word(rng, rank, k)


def random_walk(mu: WalkDistribution, n: int, seed: int) -> Word:
    """Word of n i.i.d. letters drawn from ``mu`` (not reduced)."""
    return sample_word(_rng(seed, "walk"), "walk", mu.rank, mu.probs, n)


def sample_ball_uniform(rank: int, n: int, seed: int) -> Word:
    """Exactly uniform element of the radius-n ball."""
    if rank < 2:
        raise ConfigError("ball sampling needs rank >= 2")
    return sample_word(_rng(seed, "ball"), "ball", rank, None, n)


@dataclass(frozen=True)
class DriftEstimate:
    mean: float
    stderr: float
    ci95: tuple[float, float]
    samples: int


def drift_estimate(mu: WalkDistribution, n: int, samples: int, seed: int) -> DriftEstimate:
    """Mean of |reduce(w_n)|/n with a normal-approximation interval."""
    if n < 1 or samples < 1:
        raise ConfigError("need n >= 1 and samples >= 1")
    vals = []
    for idx in range(samples):
        w = sample_word(_rng(seed, "drift", idx), "walk", mu.rank, mu.probs, n)
        vals.append(len(reduce_letters(w.letters)) / n)
    mean = statistics.fmean(vals)
    sd = statistics.pstdev(vals) if samples > 1 else 0.0
    se = sd / math.sqrt(samples)
    return DriftEstimate(mean, se, (mean - 1.96 * se, mean + 1.96 * se), samples)


# --- experiment harness ------------------------------------------------------

EXPERIMENTS = ("self-int", "fixed-curve-int", "lifting", "spiral", "minimizer",
               "conj-ball")
# most conjugacy classes a conj-ball run may check, bounded before it starts
# by the number of cyclically reduced words up to max(n_grid); it bounds the
# slack lists, which hold one entry per class and radius
MAX_CONJ_BALL_CLASSES = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n_grid: tuple[int, ...]
    samples: int
    seed: int = 0
    sampler: str = "walk"
    rank: int = 2
    surface: str = "punctured-torus"
    d_max: int = 6
    retain_raw: bool = False
    jobs: int = 1
    alpha: str = "a"
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {', '.join(EXPERIMENTS)}")
        if self.sampler not in ("walk", "ball"):
            raise ConfigError("sampler must be 'walk' or 'ball'")
        if self.surface not in SURFACE_PRESETS:
            raise ConfigError(f"unknown surface {self.surface!r}")
        if self.experiment == "minimizer" and self.surface != "punctured-torus":
            raise ConfigError("the minimizer's trace coordinates model the "
                              f"punctured torus only, not {self.surface!r}")
        for name in ("samples", "seed", "rank", "d_max", "jobs"):
            _require_int(name, getattr(self, name))
        for n in self.n_grid:
            _require_int("n_grid entry", n)
        if not self.n_grid or any(n < 0 for n in self.n_grid):
            raise ConfigError("n_grid must be nonempty and nonnegative")
        if len(set(self.n_grid)) != len(self.n_grid):
            raise ConfigError(f"n_grid repeats a radius: {self.n_grid}")
        if self.samples < 1 or self.jobs < 1 or self.d_max < 1:
            raise ConfigError("samples, jobs and d_max must be positive")
        mu = self.distribution()
        if self.experiment == "lifting" and not mu.is_uniform:
            raise ConfigError("lifting-degree experiments require the uniform "
                              "distribution (equal weight on every generator)")
        if self.experiment == "conj-ball" and _exceeds_class_budget(
                self.rank, max(self.n_grid)):
            raise ConfigError(f"conj-ball up to length {max(self.n_grid)} at "
                              f"rank {self.rank} may enumerate more than "
                              f"{MAX_CONJ_BALL_CLASSES} classes")
        # conj-ball enumerates words of the free group only: no surface
        surface_rank = surface(self.surface).rank
        if self.experiment != "conj-ball" and self.rank != surface_rank:
            raise ConfigError(f"rank {self.rank} does not match surface "
                              f"{self.surface!r} of rank {surface_rank}")
        if self.experiment == "fixed-curve-int":
            try:
                alpha = CyclicWord.from_string(self.alpha, self.rank)
            except WordError as exc:
                raise ConfigError(f"alpha {self.alpha!r}: {exc}") from None
            if len(alpha) == 0:
                raise ConfigError(f"alpha {self.alpha!r} is the trivial class")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from a mapping whose values may be strings, as a config
        file or a flag gives them; each is coerced by its field's type."""
        unknown = set(d) - set(_FIELD_TYPES)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in d]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        kwargs = {}
        for key, value in d.items():
            try:
                kwargs[key] = _coerce(_FIELD_TYPES[key], value)
            except (KeyError, TypeError, ValueError):
                raise ConfigError(f"config key {key}: cannot read {value!r}") from None
        return cls(**kwargs)

    def distribution(self) -> WalkDistribution:
        if self.probs is None:
            return WalkDistribution.uniform(self.rank)
        return WalkDistribution(self.rank, self.probs)


def _require_int(name: str, value) -> None:
    # bool is an int subclass, but True is no count, seed or rank
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _exceeds_class_budget(rank: int, max_len: int) -> bool:
    """Whether the cyclically reduced words of length 1..``max_len``, an
    upper bound on the classes, number more than ``MAX_CONJ_BALL_CLASSES``;
    the running sum stops once it passes the budget."""
    terms = (cyclically_reduced_count(rank, k) for k in range(1, max_len + 1))
    return any(total > MAX_CONJ_BALL_CLASSES
               for total in itertools.accumulate(terms))


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_BOOL_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


def _coerce(tp, value):
    """``value`` as type ``tp``: int, bool (1/true/yes, 0/false/no), str, a
    tuple of int or float (a string is split on commas and spaces), or an
    optional one of these."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is types.UnionType:
        if value is None:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _coerce(tp, value)
    if typing.get_origin(tp) is tuple:
        items = value.replace(",", " ").split() if isinstance(value, str) else value
        return tuple(_coerce(args[0], v) for v in items)
    if tp is bool:
        return _BOOL_WORDS[str(value).strip().lower()]
    if tp is int and not isinstance(value, str):
        return operator.index(value)  # refuses 1.5, which int() truncates
    return tp(value)


@dataclass(frozen=True)
class RowStats:
    n: int
    samples: int
    median: float
    q1: float
    q3: float
    mean: float
    max: float


@dataclass
class ExperimentTable:
    rows: list[RowStats]
    metadata: dict
    raw: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["n,samples,median,q1,q3,mean,max"]
        for r in self.rows:
            lines.append(f"{r.n},{r.samples},{r.median!r},{r.q1!r},{r.q3!r},"
                         f"{r.mean!r},{r.max!r}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())
        with open(path + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _table(config: ExperimentConfig, by_n: dict, meta: dict) -> ExperimentTable:
    """One row per n summarizing its values (a row without values has 0
    samples and NaN statistics), the sorted values themselves if
    ``retain_raw``, and the config and library version in the metadata,
    followed by ``meta``."""
    rows = []
    for n in config.n_grid:
        values = sorted(by_n[n])
        if not values:
            rows.append(RowStats(n, 0, *[math.nan] * 5))
            continue
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = med = q3 = float(values[0])
        rows.append(RowStats(n, len(values), float(med), float(q1), float(q3),
                             float(statistics.fmean(values)), float(values[-1])))
    raw = {n: sorted(by_n[n]) for n in config.n_grid} if config.retain_raw else {}
    meta = {**asdict(config), "version": f"randcurve-{__version__}", **meta}
    return ExperimentTable(rows, meta, raw)


def _sample_word(cfg_sampler, rank, probs, n, seed, index) -> Word:
    """The word of sample ``index`` at radius ``n``, from its own RNG stream."""
    return sample_word(_rng(seed, cfg_sampler, n, index), cfg_sampler, rank, probs, n)


def _max_spiraling(gamma: CyclicWord, g) -> int:
    """Largest spiraling of ``gamma`` around a generator other than its own
    primitive root (0 if there is none).  A cyclically reduced class is a
    power of generator j exactly when its letters are all j or all -j, that
    is, all equal to its first letter."""
    letters, own = gamma.letters, 0
    if letters and letters.count(letters[0]) == len(letters):
        own = abs(letters[0])
    return max((spiraling(gamma, _unchecked(CyclicWord, (j,), g.rank), g)
                for j in range(1, g.rank + 1) if j != own), default=0)


@functools.lru_cache(maxsize=16)
def _fixed_curve(alpha: str, rank: int, surface_name: str):
    """The path of ``alpha`` and the letters of its primitive root in both
    orientations, built once per process."""
    alpha_c = CyclicWord.from_string(alpha, rank)
    root = alpha_c.primitive_root()[0]
    return (EdgePath.from_word(alpha_c, surface(surface_name)),
            (root.letters, root.inverse().letters))


# conjugacy class letters -> (outcome, value) of ``_measure_class``: the
# classes of the current ``run_experiment`` call short enough to repeat
_class_memo: dict = {}


def _memo_length(config: ExperimentConfig) -> int:
    """Longest class length a run memoizes: the greatest L <= max(n_grid)
    with at most (samples * len(n_grid))^2 cyclically reduced words of
    length L, a count that grows with L at rank >= 2 (0 if there is none)."""
    draws = (config.samples * len(config.n_grid)) ** 2
    return sum(1 for _ in itertools.takewhile(
        lambda k: cyclically_reduced_count(config.rank, k) <= draws,
        range(1, max(config.n_grid) + 1)))


def _measure_class(config: ExperimentConfig, gamma: CyclicWord):
    """``(outcome, value)`` of the nontrivial class ``gamma`` in the family
    of ``config``: everything ``_measure_one`` does that depends on the
    class alone."""
    family = config.experiment
    g = surface(config.surface)
    if family == "self-int":
        return "ok", self_intersection(EdgePath.from_word(gamma, g))
    if family == "fixed-curve-int":
        alpha_path, alpha_roots = _fixed_curve(config.alpha, config.rank,
                                               config.surface)
        if gamma.primitive_root()[0].letters in alpha_roots:
            return "alpha-power", None
        return "ok", intersection(EdgePath.from_word(gamma, g), alpha_path)
    if family == "lifting":
        res = covers.simple_lifting_degree(gamma, g, d_max=config.d_max)
        if res.found:  # a not-found degree has no bounds to check
            # reads the root's ``linked_passages`` that the search cached
            covers.check_degree_bounds(
                res.degree, self_intersection(EdgePath.from_word(gamma, g)),
                _max_spiraling(gamma, g))
        return ("found" if res.found else "not_found"), res.degree
    if family == "spiral":
        return "ok", _max_spiraling(gamma, g)
    try:
        res = fricke.minimize_length(gamma)
    except fricke.ParabolicWordError:
        # a power of the boundary curve has no hyperbolic length
        return "parabolic", None
    if res.status != "converged":
        return res.status, None
    require(res.grad_norm < fricke.GRAD_TOL,
            f"converged minimizer has gradient norm {res.grad_norm}")
    return res.status, fricke.distance_proxy(res.point, fricke.rose_minimizer())


def _measure_one(payload):
    """One sample of a sampled family; top-level for pickling.

    ``payload`` is ``(config, probs, n, index, memo_len)``.  Draws the
    sample, reduces its class, and takes the class's outcome and value from
    ``_measure_class``, through ``_class_memo`` when the class is at most
    ``memo_len`` long; the quadratic bound of a ``self-int`` value is
    checked against the sample's own n, on a memo hit too.  Returns ``(n,
    outcome, value, length)``: ``outcome`` is ``ok``, a lifting search's
    ``found`` or ``not_found``, a minimizer status (``converged``,
    ``diverged`` or ``budget``), or a skip reason (``trivial``,
    ``alpha-power``, ``parabolic``); ``value`` is what the sample adds to
    its row (None if nothing); ``length`` is the length of its reduced
    class.
    """
    config, probs, n, index, memo_len = payload
    gamma = cyclic_reduce(_sample_word(config.sampler, config.rank, probs, n,
                                       config.seed, index))
    if len(gamma) == 0:
        return n, "trivial", None, 0
    if len(gamma) > memo_len:
        outcome, value = _measure_class(config, gamma)
    else:
        hit = _class_memo.get(gamma.letters)
        if hit is None:
            hit = _class_memo[gamma.letters] = _measure_class(config, gamma)
        outcome, value = hit
    if config.experiment == "self-int":
        check_quadratic_bound(value, n)
    return n, outcome, value, len(gamma)


def _run_conj_ball(config: ExperimentConfig) -> ExperimentTable:
    """Check of the conjugacy-ball bound over every class with ||c|| <= max
    word length in the grid and every radius n in the grid; a class over
    the bound counts in ``violations`` and adds no slack.

    Count and bound depend on a class only through its length l and root
    length R, and the (l, R) group holds P(R) = ``primitive_class_count``
    classes, so none is enumerated: each (l, R, n) is checked once, at
    (x^(R-1) y)^(l/R) for the two least letters x < y, with weight P(R)."""
    least, nxt = sorted(alphabet_letters(config.rank))[:2]
    slacks = {n: [] for n in config.n_grid}
    violations = classes = 0
    for length in range(1, max(config.n_grid) + 1):
        for root_len in (d for d in range(1, length + 1) if length % d == 0):
            size = primitive_class_count(config.rank, root_len)
            if not size:  # rank 1 has no primitive class longer than 1
                continue
            classes += size
            c = CyclicWord(((least,) * (root_len - 1) + (nxt,))
                           * (length // root_len), config.rank)
            for n in [n for n in config.n_grid if n >= length]:
                try:
                    slack = check_conjugacy_bound(c, n, conjugates_in_ball(c, n))
                except InvariantViolation:
                    violations += size
                else:
                    slacks[n] += [slack] * size
    return _table(config, slacks, {"violations": violations,
                                   "classes_checked": classes})


def run_experiment(config: ExperimentConfig) -> ExperimentTable:
    """Monte Carlo table for one experiment family.

    Each row summarizes the values of the samples at its n.  A class at
    most ``_memo_length(config)`` long is measured once per run and its
    outcome and value reused for its repeats; ``_class_memo`` is empty
    again when the call returns or raises.  The outcomes
    of ``_measure_one`` are tallied per n: ``per_n`` records ``diverged``,
    ``budget``, ``converged``, ``not_found`` and ``found``, and
    ``deg2_or_more`` (``not_found`` plus the found degrees >= 2); ``extras``
    sums ``diverged``, ``budget`` and ``not_found`` over n, with every skip
    reason as ``skipped``.  A lifting table also records the largest found
    degree over class length as ``max_degree_to_length_ratio``.
    """
    if config.experiment == "conj-ball":
        return _run_conj_ball(config)
    probs, memo_len = config.distribution().probs, _memo_length(config)
    payloads = [(config, probs, n, idx, memo_len)
                for n in config.n_grid for idx in range(config.samples)]
    # emptied before a pool forks, so each worker starts its own memo
    _class_memo.clear()
    try:
        if config.jobs > 1:
            # imported here: a process pool costs a single-job run its import
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=config.jobs) as ex:
                results = list(ex.map(_measure_one, payloads, chunksize=max(
                    1, len(payloads) // (config.jobs * 8))))
        else:
            results = [_measure_one(p) for p in payloads]
    finally:
        _class_memo.clear()
    tally = {n: Counter() for n in config.n_grid}
    by_n = {n: [] for n in config.n_grid}
    for n, outcome, value, _ in results:
        tally[n][outcome] += 1
        if value is not None:
            by_n[n].append(value)
    lifting = config.experiment == "lifting"
    total = sum(tally.values(), Counter())
    extras = {"skipped": total["trivial"] + total["alpha-power"] + total["parabolic"],
              "diverged": total["diverged"], "budget": total["budget"],
              "not_found": total["not_found"]}
    per_n = {}
    for n, c in tally.items():
        found_deg2 = sum(1 for v in by_n[n] if v >= 2) if lifting else 0
        per_n[str(n)] = {"diverged": c["diverged"], "budget": c["budget"],
                         "converged": c["converged"], "not_found": c["not_found"],
                         "found": c["found"], "deg2_or_more": c["not_found"] + found_deg2}
    meta = {"extras": extras, "per_n": per_n}
    if lifting:
        # recorded, not asserted: degree/length ratio for the linear
        # upper-bound regime
        meta["max_degree_to_length_ratio"] = max(
            (value / length for _, outcome, value, length in results
             if outcome == "found"), default=0.0)
    return _table(config, by_n, meta)


# --- fits ---------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    slope: float
    stderr: float
    intercept: float


def _least_squares(xs, ys) -> FitResult:
    m = len(xs)
    if m < 4:
        raise ConfigError("need at least 4 rows to fit")
    xbar = statistics.fmean(xs)
    ybar = statistics.fmean(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise ConfigError("degenerate data: no spread in n")
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    rss = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    se = math.sqrt(rss / (m - 2) / sxx) if m > 2 else 0.0
    return FitResult(slope, se, intercept)


def _fit_rows(table: ExperimentTable) -> list[RowStats]:
    """The rows of ``table``; raises ``ConfigError`` naming the first row
    without samples or with n <= 0."""
    for r in table.rows:
        if r.samples == 0:
            raise ConfigError(f"cannot fit: the row at n = {r.n} has no samples")
        if r.n <= 0:
            raise ConfigError(f"cannot fit: the row at n = {r.n} is not positive")
    return table.rows


def fit_power_law(table: ExperimentTable) -> FitResult:
    """Slope of log(median) against log(n): the growth exponent."""
    rows = _fit_rows(table)
    if any(r.median <= 0 for r in rows):
        raise ConfigError("power-law fit needs positive medians")
    return _least_squares([math.log(r.n) for r in rows],
                          [math.log(r.median) for r in rows])


def fit_log_law(table: ExperimentTable) -> FitResult:
    """Slope of median against log(n): logarithmic growth rate."""
    rows = _fit_rows(table)
    return _least_squares([math.log(r.n) for r in rows], [r.median for r in rows])
