"""Hyperbolic geometry of the once-punctured torus in trace coordinates.

A point is a trace triple (x, y, z) = (tr A, tr B, tr AB) on the cubic
x^2 + y^2 + z^2 = xyz with finite x, y, z > 2; such triples parametrize the
complete finite-area hyperbolic structures, the commutator trace is forced
to be -2 (cusp).  Geodesic lengths come from traces via
len = 2*arccosh(|tr|/2); length minimization runs projected gradient
descent directly on the cubic.  Words are over a and b only (a letter past
b raises ``FrickeError``), so the ``minimizer`` experiment family runs on the
punctured-torus preset alone.  ``_word_trace``, the minimizer's hot loop,
updates the product through temporaries and tests overflow by chained
comparisons, with the same bits as the plain product (see its docstring).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .words import CyclicWord, Word, cyclic_reduce, format_letters, require

MARKOV_TOL = 1e-9
GRAD_TOL = 1e-6
BOX_LO = 2.0 + 1e-6
BOX_HI = 1e6
PINCH_TOL = 1e-3
SEEDS = ((3.0, 3.0, 3.0), (3.0, 3.0, 6.0))
MAX_ITER = 20000
MAX_NEWTON = 60


class FrickeError(ValueError):
    pass


class ParabolicWordError(FrickeError):
    """Word is peripheral or elliptic: |trace| <= 2 has no geodesic length."""


def markov_residual(x: float, y: float, z: float) -> float:
    return x * x + y * y + z * z - x * y * z


@dataclass(frozen=True)
class FrickePoint:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(2.0 < t < math.inf for t in (self.x, self.y, self.z)):
            raise FrickeError("traces must be finite and exceed 2 on the "
                              "cusped locus")
        if abs(markov_residual(self.x, self.y, self.z)) > MARKOV_TOL:
            raise FrickeError(
                f"Markov residual {markov_residual(self.x, self.y, self.z):.3e} "
                f"exceeds {MARKOV_TOL:.1e}")

    def triple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class LengthReport:
    word: str
    length: float
    trace: float


def _holonomy_raw(x: float, y: float, z: float):
    # B = [[1, f], [g, y-1]] with f - g = z - x and f*g = y - 2 realizes the
    # trace triple for any y > 2 (discriminant (z-x)^2 + 4(y-2) > 0)
    disc = (z - x) ** 2 + 4.0 * (y - 2.0)
    f = ((z - x) + math.sqrt(max(0.0, disc))) / 2.0
    g = f - (z - x)
    A = ((x, -1.0), (1.0, 0.0))
    B = ((1.0, f), (g, y - 1.0))
    return A, B


def holonomy(p: FrickePoint):
    """A pair (A, B) of unimodular 2x2 matrices with tr A = x, tr B = y,
    tr AB = z; the commutator trace is -2 automatically on the cubic."""
    return _holonomy_raw(*p.triple())


def _word_trace(letters, A, B) -> tuple[float, float]:
    """Trace of the matrix of the word, as (mantissa trace, log scale).

    The running product is renormalized so long words cannot overflow;
    the true trace magnitude is |tr| * exp(scale).

    The loop is the hot path of the minimizer, and it gives the same bits as
    the plain per-letter product (``tests/test_fricke.py`` checks it against
    a nested-tuple oracle):
    - the overflow test is a chained comparison of each entry with
      [-1e100, 1e100], not ``max(abs(...)) > 1e100``. The entries stay
      finite (the holonomy's are, and a renormalized product times a letter
      is far from overflow), so an entry lies outside that interval exactly
      when its absolute value exceeds 1e100, and both tests renormalize at
      the same letter. ``big`` is then computed as before, by the same
      ``max``;
    - each row is updated through one temporary: ``t = a*e + b*g`` reads the
      old a and b, ``b = a*f + b*h`` still reads the old a, then ``a = t``.
      So every entry is the same float expression of the same old values as
      in a 4-tuple rebuild;
    - ``mats`` stays a dict keyed by letter. A tuple indexed by letter runs
      the loop about 10% faster, but it would read a letter past b as some
      other letter's matrix with no error.
    """
    (a1, b1), (c1, d1) = A
    (a2, b2), (c2, d2) = B
    # each matrix as its row-major 4-tuple; the inverses are unimodular
    mats = {1: (a1, b1, c1, d1), 2: (a2, b2, c2, d2),
            -1: (d1, -b1, -c1, a1), -2: (d2, -b2, -c2, a2)}
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    scale = 0.0
    for x in letters:
        e, f, g, h = mats[x]
        t = a * e + b * g
        b = a * f + b * h
        a = t
        t = c * e + d * g
        d = c * f + d * h
        c = t
        if not (-1e100 <= a <= 1e100 and -1e100 <= b <= 1e100
                and -1e100 <= c <= 1e100 and -1e100 <= d <= 1e100):
            big = max(abs(a), abs(b), abs(c), abs(d))
            a, b, c, d = a / big, b / big, c / big, d / big
            scale += math.log(big)
    return a + d, scale


def _length_from_trace(tr: float, scale: float) -> float:
    # len = 2*arccosh(|tr|/2); for huge traces use the log form
    t = abs(tr)
    if scale == 0.0 and t < 1e90:
        if t <= 2.0 + MARKOV_TOL:
            raise ParabolicWordError(f"trace {tr:.6f} is not hyperbolic")
        return 2.0 * math.acosh(t / 2.0)
    log_t = math.log(t) + scale
    # arccosh(T/2) = log T + log((1 + sqrt(1 - 4/T^2)) / 2), log T = log_t
    correction = math.log1p(math.sqrt(max(0.0, 1.0 - 4.0 * math.exp(-2.0 * log_t)))) - math.log(2.0)
    return 2.0 * (log_t + correction)


def _check_ab(c: CyclicWord) -> None:
    """Raise unless the class is spelled in a and b, the holonomy's letters."""
    for x in c.letters:
        if abs(x) > 2:
            raise FrickeError(f"letter {format_letters((x,))} is not a or b: "
                              "trace coordinates cover the punctured torus only")


def geodesic_length(w: Word | CyclicWord, p: FrickePoint) -> LengthReport:
    """Hyperbolic length of the geodesic representative of ``w`` at ``p``."""
    c = cyclic_reduce(w)
    if len(c) == 0:
        raise FrickeError("trivial word has no geodesic")
    _check_ab(c)
    A, B = holonomy(p)
    tr, scale = _word_trace(c.letters, A, B)
    length = _length_from_trace(tr, scale)
    # past exp(700) the magnitude overflows; the mantissa keeps the sign
    shown = (tr * math.exp(scale) if scale < 700
             else math.copysign(math.inf, tr))
    return LengthReport(str(c), length, shown)


def collar_width(length: float) -> float:
    """Half-width of the embedded collar of a simple geodesic:
    arcsinh(1 / sinh(len/2))."""
    if length <= 0:
        raise FrickeError("collar width needs a positive length")
    return math.asinh(1.0 / math.sinh(length / 2.0))


# --- length minimization on the cubic ----------------------------------------

@dataclass(frozen=True)
class MinimizeResult:
    status: str  # converged | diverged | budget
    point: FrickePoint | None
    value: float | None
    grad_norm: float | None
    iterations: int
    evaluations: int  # ``_system_length`` calls over every seed run


def _grad_markov(p):
    x, y, z = p
    return (2 * x - y * z, 2 * y - x * z, 2 * z - x * y)


def _project_markov(p):
    """Newton step along the cubic's gradient direction until on-surface.

    The residual tolerance is relative to the monomial scale; an absolute
    one is unreachable in floats once coordinates are large.
    """
    x, y, z = p
    g = _grad_markov(p)
    gn = math.sqrt(g[0] ** 2 + g[1] ** 2 + g[2] ** 2)
    if gn == 0:
        return None
    g = (g[0] / gn, g[1] / gn, g[2] / gn)
    s = 0.0
    for _ in range(MAX_NEWTON):
        q = (x + s * g[0], y + s * g[1], z + s * g[2])
        f = markov_residual(*q)
        scale = 1.0 + q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + abs(q[0] * q[1] * q[2])
        if abs(f) < 1e-14 * scale:
            return q
        dg = _grad_markov(q)
        deriv = dg[0] * g[0] + dg[1] * g[1] + dg[2] * g[2]
        if deriv == 0:
            return None
        s -= f / deriv
    return None


def _system_length(words, p):
    # evaluated off-surface during finite differencing; no validation
    A, B = _holonomy_raw(*p)
    total = 0.0
    for w in words:
        total += _length_from_trace(*_word_trace(w.letters, A, B))
    return total


def _fd_gradient(words, p):
    out = []
    for i in range(3):
        h = min(1e-5, (p[i] - 2.0) / 4.0)
        lo = list(p)
        hi = list(p)
        lo[i] -= h
        hi[i] += h
        out.append((_system_length(words, hi) - _system_length(words, lo)) / (2 * h))
    return tuple(out)


def _tangent_grad_norm(words, p):
    g = _fd_gradient(words, p)
    n = _grad_markov(p)
    nn = math.sqrt(sum(v * v for v in n))
    n = tuple(v / nn for v in n)
    dot = sum(a * b for a, b in zip(g, n))
    t = tuple(a - dot * b for a, b in zip(g, n))
    return t, math.sqrt(sum(v * v for v in t))


def minimize_curve_system(words) -> MinimizeResult:
    """Projected gradient descent for the total length of a word system.

    Iterates stay on the cubic (projection after every step).  Each seed in
    ``SEEDS`` ends converged when the finite-difference gradient projected to
    the tangent plane has norm below ``GRAD_TOL``; diverged by box when a step
    leaves 2 + 1e-6 < coordinate < 1e6, or by pinch when the gradient goes
    flat or the line search stalls with some trace within ``PINCH_TOL`` of 2
    (a non-filling system); budget when the line search stalls elsewhere or
    after ``MAX_ITER`` iterations.  The result is the shortest converged seed,
    else diverged if a seed diverged, else budget; ``iterations`` counts the
    iterations of every seed run, and ``evaluations`` its total length
    evaluations.
    """
    words = [cyclic_reduce(w) for w in words]
    if any(len(w) == 0 for w in words):
        raise FrickeError("trivial word in system")
    for w in words:
        _check_ab(w)
    best = None
    total_iters = evals = 0
    saw_diverged = False
    for p in SEEDS:
        value = _system_length(words, p)
        evals += 1
        step = 0.1
        status = "budget"
        prev_p = prev_t = None
        for _ in range(MAX_ITER):
            total_iters += 1
            t, tnorm = _tangent_grad_norm(words, p)
            evals += 2 * len(t)  # central differences along each coordinate
            if tnorm < GRAD_TOL:
                status = "converged"
                break
            if prev_p is not None:
                # Barzilai-Borwein spectral step, a cheap curvature estimate
                dp = tuple(p[i] - prev_p[i] for i in range(3))
                dt = tuple(t[i] - prev_t[i] for i in range(3))
                num = sum(v * v for v in dp)
                den = sum(a * b for a, b in zip(dp, dt))
                if den > 0 and num > 0:
                    step = min(max(num / den, 1e-12), 1e8)
            prev_p, prev_t = p, t
            while step > 1e-14:
                raw = tuple(p[i] - step * t[i] for i in range(3))
                cand = _project_markov(raw)
                if cand is None and min(raw) > BOX_LO:
                    step *= 0.5
                    continue
                if cand is None or min(cand) <= BOX_LO or max(cand) >= BOX_HI:
                    status = "diverged"
                    break
                evals += 1
                try:
                    cand_val = _system_length(words, cand)
                except ParabolicWordError:
                    cand_val = math.inf
                if cand_val <= value - 1e-4 * step * tnorm * tnorm:
                    p, value = cand, cand_val
                    step = min(step * 1.3, 1e8)
                    break
                step *= 0.5
            else:
                break  # stalled: budget unless pinched
            if status == "diverged":
                break
        else:
            continue  # the cap: budget
        if status != "diverged" and min(p) <= 2.0 + PINCH_TOL:
            # a pinching class flattens out before the box is reached:
            # gradient and cusp distance both decay like 1/coord^2
            status = "diverged"
        if status == "converged" and (best is None or value < best.value):
            best = MinimizeResult(status, FrickePoint(*p), value, tnorm,
                                  total_iters, evals)
        saw_diverged = saw_diverged or status == "diverged"
    if best is not None:
        return replace(best, iterations=total_iters, evaluations=evals)
    status = "diverged" if saw_diverged else "budget"
    return MinimizeResult(status, None, None, None, total_iters, evals)


def minimize_length(gamma: Word | CyclicWord) -> MinimizeResult:
    """Length-minimizing point of a single curve, or divergence for
    non-filling classes (their infimum is reached by pinching)."""
    return minimize_curve_system([gamma])


@functools.lru_cache(maxsize=None)
def rose_minimizer() -> FrickePoint:
    """The unique minimizer of len(a) + len(b), computed numerically once
    per process.

    The a/b symmetry forces x = y there; analytically the point is
    (2*sqrt(2), 2*sqrt(2), 4).
    """
    res = minimize_curve_system([CyclicWord((1,), 2), CyclicWord((2,), 2)])
    require(res.status == "converged", f"rose minimization failed: {res.status}")
    return res.point


_PROXY_FAMILY = (CyclicWord((1,), 2), CyclicWord((2,), 2),
                 CyclicWord((1, 2), 2), CyclicWord((-2, 1), 2))


def distance_proxy(p: FrickePoint, q: FrickePoint) -> float:
    """Max over the fixed curve family {a, b, ab, ab^-1} of
    |log(len_p / len_q)|; a symmetric displacement monitor."""
    worst = 0.0
    for w in _PROXY_FAMILY:
        lp = geodesic_length(w, p).length
        lq = geodesic_length(w, q).length
        worst = max(worst, abs(math.log(lp / lq)))
    return worst
