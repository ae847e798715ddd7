"""Free-group words over a symmetric alphabet.

Letters are nonzero signed integers: generator ``i`` is ``+i``, its inverse
is ``-i``.  The string form uses ``a..z`` for generators and ``A..Z`` for
inverses, so ranks up to 26 are supported.

Conjugacy classes are ``CyclicWord``s in least-rotation form, found by a
minimum expression scan over the letters of a class of up to
``RUN_TOKEN_CUT`` = 64 letters and over the runs of its least letter past
that.  Their primitive roots, and those of edge paths and dart texts, come
from one least-period search, ``_period``.
``cyclic_classes`` lists every class up to a given length with the
Fredricksen-Kessler-Maiorana necklace recursion, cut at any prefix holding a
cancelling pair ``x, -x``, so only canonical representatives are ever built;
its generator ``_classes_with_roots`` also yields each class's primitive root
length, the necklace's period, which the recursion already tracks.
``conjugates_in_ball`` counts a class's elements in a Cayley-graph ball in
closed form, from the class's primitive root and the rank, and
``primitive_class_count`` the classes of a given primitive root length.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass

MAX_RANK = 26


class WordError(ValueError):
    """Raised for malformed words or domain violations."""


class InvariantViolation(AssertionError):
    """A self-check of the library failed: a bug, not a bad input."""


def require(ok, detail: str) -> None:
    """Raise ``InvariantViolation(detail)`` unless ``ok``; a call, unlike
    ``assert``, so it also holds under ``python -O``."""
    if not ok:
        raise InvariantViolation(detail)


def alphabet_letters(rank: int) -> tuple[int, ...]:
    """All 2*rank letters, generators first."""
    return tuple(range(1, rank + 1)) + tuple(-i for i in range(1, rank + 1))


def parse_letters(s: str) -> tuple[int, ...]:
    out = []
    for ch in s:
        o = ord(ch)
        if 97 <= o <= 122:
            out.append(o - 96)
        elif 65 <= o <= 90:
            out.append(-(o - 64))
        else:
            raise WordError(f"invalid word character {ch!r}")
    return tuple(out)


def format_letters(letters) -> str:
    out = []
    for x in letters:
        if x > 0:
            out.append(chr(96 + x))
        else:
            out.append(chr(64 - x))
    return "".join(out)


def _validate_letters(letters, rank: int) -> None:
    if not 1 <= rank <= MAX_RANK:
        raise WordError(f"rank must be in 1..{MAX_RANK}, got {rank}")
    for x in letters:
        if not isinstance(x, int) or x == 0 or abs(x) > rank:
            raise WordError(f"letter {x!r} outside alphabet of rank {rank}")


def reduce_letters(letters) -> tuple[int, ...]:
    """The freely reduced form of ``letters``, by one stack pass that also
    keeps the top of the stack, or None when it is empty, in a local."""
    stack: list[int] = []
    top = None
    for x in letters:
        if top == -x:
            stack.pop()
            top = stack[-1] if stack else None
        else:
            stack.append(x)
            top = x
    return tuple(stack)


# sequences longer than this take the run-token path of ``least_rotation``
RUN_TOKEN_CUT = 64
_BYTES = bytes(range(256))
# the table that maps byte b to b ^ 0x80: a signed byte to an unsigned one of
# the same order
_FLIP = _BYTES[128:] + _BYTES[:128]


def least_rotation(seq: tuple) -> int:
    """Least index of the lexicographically least rotation, by the minimum
    expression scan of Shiloach (J. Algorithms 2, 1981): candidates i and j
    agree on k items; at the first difference the larger one cannot start a
    least rotation, nor can the k positions after it, so it jumps past them.
    Linear time, one Python step per item scanned.

    Up to ``RUN_TOKEN_CUT`` items the scan runs over the items.  Past it,
    it runs over the run tokens of ``_run_tokens``, and their least index
    maps back to a position.
    """
    n = len(seq)
    runs = _run_tokens(seq) if n > RUN_TOKEN_CUT else None
    if runs is not None:
        p, r, seq = runs
        n = len(seq)
    s = seq + seq
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    t = min(i, j)
    return t if runs is None else p + t * r + sum(map(len, seq[:t]))


def _run_tokens(seq):
    """``(p, r, tokens)`` that reduce the least rotation of ``seq`` to the
    least rotation of ``tokens``: token t starts at position p + t*r plus
    the lengths of tokens 0..t-1.  None for an item outside -128..127,
    such as a dart of a cover, which the item scan takes.

    The sequence becomes an order-preserving text once, in C: its items as
    signed bytes, flipped to unsigned ones.  Let m be the least item
    and r the length of its longest cyclic run, found by substring searches
    (doubling, then bisection).  A least rotation starts with m^r, so only
    the starts of the runs m^r, each a maximal run, can win.  The text,
    rotated to the first of them, p, splits on m^r into tokens, each what
    follows a run m^r up to the next one.  Token order is the order of the
    rotations that start there: where one token is a proper prefix of
    another, the shorter is followed by m^r and the longer holds an item > m
    within r places.  So the least rotation of the tokens, and among equal
    ones the least token, is that of the items, at the least index, as no
    run starts before p.  The searches take O(n log n) time in C at worst.
    """
    n = len(seq)
    try:
        text = struct.pack(f"{n}b", *seq).translate(_FLIP)
    except struct.error:
        return None
    m = _least_byte(text)
    twice = text + text
    r = 1  # r <= longest run < 2r, then bisection
    while m * (2 * r) in twice:
        r *= 2
        if r >= n:
            return 0, 0, [m]  # one item repeated
    hi = 2 * r
    while hi - r > 1:
        mid = (r + hi) // 2
        if m * mid in twice:
            r = mid
        else:
            hi = mid
    run = m * r
    p = twice.find(run)
    return p, r, twice[p + r:p + n].split(run)


def _least_byte(text: bytes) -> bytes:
    """The least byte of a nonempty ``text``: keep only the bytes below the
    first one until none is left."""
    while rest := text.translate(None, _BYTES[text[0]:]):
        text = rest
    return text[:1]


def _period(text) -> int:
    """Primitive root length of a nonempty cyclic ``str`` or ``bytes``: the
    first place p past 0 where ``text`` occurs in itself doubled, found in C,
    so p divides its length and ``text`` is ``text[:p]`` repeated.  A path's
    darts, one character each, are code points below 0x110000: a rose's
    cover has no more darts than steps, and ``_steps`` allows no more."""
    return (text + text).find(text, 1)


@dataclass(frozen=True)
class Word:
    """A finite letter sequence, not necessarily reduced."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        _validate_letters(self.letters, self.rank)

    @classmethod
    def from_string(cls, s: str, rank: int | None = None) -> "Word":
        letters = parse_letters(s)
        if rank is None:
            rank = max((abs(x) for x in letters), default=1)
        return cls(letters, rank)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_letters(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-x for x in reversed(self.letters)), self.rank)

    def is_reduced(self) -> bool:
        return all(self.letters[i] != -self.letters[i + 1] for i in range(len(self.letters) - 1))

    def concat(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters, max(self.rank, other.rank))


@dataclass(frozen=True)
class CyclicWord:
    """A conjugacy class: cyclically reduced letters in least-rotation form."""

    letters: tuple[int, ...]
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        _validate_letters(self.letters, self.rank)
        n = len(self.letters)
        for i in range(n):
            if self.letters[i] == -self.letters[(i + 1) % n]:
                raise WordError("cyclic word is not cyclically reduced")
        if n and least_rotation(self.letters) != 0:
            raise WordError("cyclic word is not in canonical (least rotation) form")

    @classmethod
    def from_string(cls, s: str, rank: int | None = None) -> "CyclicWord":
        return cyclic_reduce(Word.from_string(s, rank))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_letters(self.letters)

    def inverse(self) -> "CyclicWord":
        inv = tuple(-x for x in reversed(self.letters))
        if not inv:
            return self
        k = least_rotation(inv)
        return _unchecked(CyclicWord, inv[k:] + inv[:k], self.rank)

    def rotations(self) -> list[tuple[int, ...]]:
        w = self.letters
        return [w[i:] + w[:i] for i in range(len(w))]

    def primitive_root(self) -> tuple["CyclicWord", int]:
        """Shortest ``u`` with ``self = u^k`` (as cyclic words), plus ``k``."""
        if not self.letters:
            raise WordError("trivial cyclic word has no primitive root")
        p = _period(struct.pack(f"{len(self)}b", *self.letters))
        if p == len(self):
            return self, 1
        # a period of a least rotation is itself a least rotation
        return _unchecked(CyclicWord, self.letters[:p], self.rank), len(self) // p


def _unchecked(cls, letters: tuple[int, ...], rank: int):
    """The ``Word`` or ``CyclicWord`` of ``letters`` that the caller drew from
    the alphabet of a checked ``rank`` or put in canonical form, without the
    checks of ``__post_init__`` (a letter scan and, for a class, the
    least-rotation test)."""
    w = object.__new__(cls)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "rank", rank)
    return w


def word(s: str, rank: int | None = None) -> Word:
    return Word.from_string(s, rank)


def cyclic(s: str, rank: int | None = None) -> CyclicWord:
    return CyclicWord.from_string(s, rank)


def reduce(w: Word) -> Word:
    """The unique freely reduced word equal to ``w``."""
    return Word(reduce_letters(w.letters), w.rank)


def cyclic_reduce(w: Word | CyclicWord) -> CyclicWord:
    """Cyclically reduced canonical form of the conjugacy class of ``w``."""
    if isinstance(w, CyclicWord):
        return w
    letters = reduce_letters(w.letters)
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    core = letters[i:j]
    if not core:
        return CyclicWord((), w.rank)
    k = least_rotation(core)
    return _unchecked(CyclicWord, core[k:] + core[:k], w.rank)


def cyclic_classes(max_len: int, rank: int = 2):
    """Every nontrivial conjugacy class of length <= ``max_len``, once, in
    (length, lexicographic) order: the classes of ``_classes_with_roots``."""
    return (c for c, _ in _classes_with_roots(max_len, rank))


def _classes_with_roots(max_len: int, rank: int):
    """Every nontrivial conjugacy class of length <= ``max_len``, once, with
    the length of its primitive root.

    Yields ``(c, R)`` for canonical ``CyclicWord``s c in (length,
    lexicographic) order.  For each length n this is the
    Fredricksen-Kessler-Maiorana necklace recursion over the sorted alphabet:
    a prefix a[1..t] with period p extends by a[t-p] (period kept) or by any
    larger letter (period t), so only prefixes of least rotations are
    visited.  Prefixes containing ``x, -x`` are cut; a full prefix is a class
    when p divides n and its last letter does not cancel its first, and then
    a[1..p] is its Lyndon root, so R = p.
    """
    _validate_letters((), rank)
    letters = sorted(alphabet_letters(rank))
    k = len(letters)
    inv = [letters.index(-x) for x in letters]
    for n in range(1, max_len + 1):
        a = [0] * (n + 1)  # a[1..t] is the current prefix, as letter indices
        per = [1] * (n + 1)  # per[t] is the period of a[1..t]
        t = 1
        a[1] = -1
        while t:
            v = a[t] + 1
            if t > 1 and v == inv[a[t - 1]]:
                v += 1
            if v >= k:
                t -= 1
                continue
            a[t] = v
            per[t] = per[t - 1] if v == a[t - per[t - 1]] else t
            if t < n:
                t += 1
                a[t] = a[t - per[t - 1]] - 1
            elif n % per[n] == 0 and v != inv[a[1]]:
                yield (_unchecked(CyclicWord, tuple(letters[i] for i in a[1:]), rank),
                       per[n])


@dataclass(frozen=True)
class BallSpec:
    """Ball of given radius in the Cayley graph of the free group."""

    rank: int
    radius: int

    def __post_init__(self):
        _validate_letters((), self.rank)
        if self.radius < 0:
            raise WordError("radius must be nonnegative")


def sphere_size(spec: BallSpec) -> int:
    """Number of elements at distance exactly ``spec.radius``."""
    r, k = spec.rank, spec.radius
    if k == 0:
        return 1
    return 2 * r * (2 * r - 1) ** (k - 1)


def cyclically_reduced_count(rank: int, k: int) -> int:
    """Number of cyclically reduced words of length ``k`` >= 1: the trace of
    the no-cancellation transfer matrix, (2r-1)^k + r + (r-1)(-1)^k."""
    return (2 * rank - 1) ** k + rank + (rank - 1) * (-1) ** k


@functools.cache
def primitive_class_count(rank: int, k: int) -> int:
    """Number P(k) of conjugacy classes whose primitive root has length
    ``k``: a primitive class of length d has d rotations, and the cyclically
    reduced words of length k number the sum of d * P(d) over d | k."""
    rest = cyclically_reduced_count(rank, k) - sum(
        d * primitive_class_count(rank, d) for d in range(1, k // 2 + 1) if k % d == 0)
    require(rest % k == 0, f"primitive words of length {k} at rank {rank} "
            f"number {rest}, not a multiple of {k}")
    return rest // k


@functools.lru_cache(maxsize=64)
def _ball_sizes(rank: int, n: int) -> tuple[int, ...]:
    """|B_k| for k = 0..n: the running sums of the sphere sizes."""
    return tuple(itertools.accumulate(sphere_size(BallSpec(rank, k))
                                      for k in range(n + 1)))


def ball_size(spec: BallSpec) -> int:
    """Number of elements at distance at most ``spec.radius``."""
    return _ball_sizes(spec.rank, spec.radius)[-1]


def check_conjugacy_bound(c: CyclicWord, n: int, count: int) -> int:
    """Slack n * |B_{(n - |c|) // 2}| - ``count`` of the conjugacy-ball lemma
    for ``count`` elements of [c] in the ball of radius ``n``; raises
    ``InvariantViolation`` when it is negative."""
    bound = n * ball_size(BallSpec(c.rank, (n - len(c)) // 2))
    require(count <= bound, f"conjugacy bound violated for {c} n={n}")
    return bound - count


def satisfies_no_cancellation(w: Word, c: CyclicWord) -> bool:
    """Whether ``w c w^-1`` is reduced as written, of length 2|w| + |c|:
    the last letter of ``w`` is neither the inverse of the first letter of
    ``c`` nor the last letter of ``c``.  (A longer suffix of ``w`` that is an
    inverted prefix or a suffix of ``c`` already ends in such a letter.)
    """
    if not w.is_reduced():
        raise WordError("w must be reduced")
    if len(c) == 0:
        raise WordError("satisfies_no_cancellation needs a nontrivial class")
    return not w.letters or w.letters[-1] not in (-c.letters[0], c.letters[-1])


def conjugates_in_ball(c: CyclicWord, n: int) -> int:
    """Exact size of [c] intersected with the ball of radius ``n``:
    R * (2r - 1)^((n - |c|) // 2) for n >= |c|, and 0 below, where R is the
    length of the primitive root of ``c`` (its number of distinct rotations).

    Every conjugate has a unique reduced normal form u p u^-1 with p a
    rotation of ``c`` and u's last letter avoiding the two letters that
    would cancel against p; summing over |u| <= (n - |c|) / 2 telescopes.
    """
    if len(c) == 0:
        raise WordError("conjugates_in_ball needs a nontrivial class")
    if n < len(c):
        return 0
    return len(c.primitive_root()[0]) * (2 * c.rank - 1) ** ((n - len(c)) // 2)
