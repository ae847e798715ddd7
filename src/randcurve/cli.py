"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad word, trivial curve, ...),
2 usage error, 3 a failed self-check (``InvariantViolation``: a library
bug, reported as ``internal error: <detail>``).  ``verify`` exits 1 when a
suite fails.  All randomness is controlled by --seed; identical argv and
seed produce byte-identical output regardless of --jobs.  Each subcommand's
parser names its handler, which prints the result and returns the exit code
(None for 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .covers import hall_count, mednykh_count, simple_lifting_degree
from .fricke import distance_proxy, minimize_length, rose_minimizer
from .intersect import EdgePath, intersection, self_intersection, spiraling
from .ribbon import SURFACE_PRESETS, surface
from .stats import (ExperimentConfig, WalkDistribution, drift_estimate,
                    random_walk, run_experiment, sample_ball_uniform)
from .words import (CyclicWord, InvariantViolation, Word, cyclic_reduce,
                    format_letters, reduce)


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _curves(args, *texts) -> list:
    """The classes of ``texts`` (default ``--word``) on ``--surface``, and
    the surface."""
    g = surface(args.surface)
    return [CyclicWord.from_string(t, g.rank) for t in texts or (args.word,)] + [g]


def _cmd_reduce(args):
    w = Word.from_string(args.word, args.rank)
    print(cyclic_reduce(w) if args.cyclic else reduce(w))


def _cmd_self_int(args):
    c, g = _curves(args)
    print(self_intersection(EdgePath.from_word(c, g)))


def _cmd_int(args):
    c, c2, g = _curves(args, args.word, args.word2)
    print(intersection(EdgePath.from_word(c, g), EdgePath.from_word(c2, g)))


def _cmd_degree(args):
    c, g = _curves(args)
    res = simple_lifting_degree(c, g, d_max=args.dmax)
    if not res.found:
        print(f"not-found(dmax={args.dmax})")
        return
    perms = (f"{format_letters([i])}={res.witness.cycle_notation(i)}"
             for i in range(1, g.rank + 1))
    print(f"degree {res.degree}", *perms, f"elevation {res.elevation_index}")


def _cmd_spiral(args):
    c, alpha, g = _curves(args, args.word, args.alpha)
    print(spiraling(c, alpha, g))


def _cmd_count_subgroups(args):
    if args.dmax < 1:
        raise ValueError(f"d_max must be positive, got {args.dmax}")
    for d in range(1, args.dmax + 1):
        count = hall_count(args.rank, d) if args.free else mednykh_count(args.genus, d)
        print(f"{d},{count}")


def _cmd_minimize(args):
    res = minimize_length(CyclicWord.from_string(args.word, 2))
    if res.status != "converged":
        print(res.status)
        return
    x, y, z = res.point.triple()
    proxy = distance_proxy(res.point, rose_minimizer())
    print(f"{x!r},{y!r},{z!r},{res.value!r},{res.grad_norm!r},{proxy!r}")


def _cmd_walk(args):
    print(random_walk(WalkDistribution.uniform(args.rank), args.n, args.seed))


def _cmd_ball(args):
    print(sample_ball_uniform(args.rank, args.n, args.seed))


def _cmd_drift(args):
    est = drift_estimate(WalkDistribution.uniform(args.rank), args.n,
                         args.samples, args.seed)
    print(f"{est.mean!r},{est.stderr!r},{est.ci95[0]!r},{est.ci95[1]!r}")


def _cmd_experiment(args):
    cfg = _parse_config_file(args.config) if args.config else {}
    for alias, key in (("family", "experiment"), ("dmax", "d_max")):
        if alias in cfg:
            cfg[key] = cfg.pop(alias)
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg.update((key, val) for key, val in vars(args).items()
               if key in fields and val is not None)
    if "experiment" not in cfg or "n_grid" not in cfg or "samples" not in cfg:
        print("experiment needs --family, --n-grid and --samples "
              "(or a --config supplying them)", file=sys.stderr)
        return 2
    config = ExperimentConfig.from_dict(cfg)
    table = run_experiment(config)
    if args.out:
        table.save(args.out)
    else:
        sys.stdout.write(table.to_csv())


def _cmd_verify(args):
    from .verify import run_all

    ok = True
    for name, passed, detail, seconds in run_all(fast=args.fast):
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        print(f"time {name}: {seconds:.2f} s", file=sys.stderr)
        ok = ok and passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="randcurve",
                                 description="combinatorially random curves on surfaces")
    ap.add_argument("--version", action="version", version=f"randcurve {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    surface_choices = sorted(SURFACE_PRESETS)
    # the parents: a curve on a surface, and a seeded draw at a rank
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--word", required=True)
    curve.add_argument("--surface", default="punctured-torus",
                       choices=surface_choices)
    draw = argparse.ArgumentParser(add_help=False)
    draw.add_argument("--seed", type=int, default=0)
    draw.add_argument("--rank", type=int, default=2)

    def command(name, handler, summary, parents=()):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(handler=handler)
        return p

    p = command("reduce", _cmd_reduce, "freely reduce a word")
    p.add_argument("--word", required=True)
    p.add_argument("--cyclic", action="store_true", help="cyclically reduce")
    p.add_argument("--rank", type=int, default=None)

    command("self-int", _cmd_self_int, "self-intersection number", [curve])

    p = command("int", _cmd_int, "intersection number of two curves", [curve])
    p.add_argument("--word2", required=True)

    p = command("degree", _cmd_degree, "simple lifting degree by search", [curve])
    p.add_argument("--dmax", type=int, default=6)

    p = command("spiral", _cmd_spiral, "spiraling number around a simple core",
                [curve])
    p.add_argument("--alpha", default="a")

    p = command("count-subgroups", _cmd_count_subgroups, "index-d subgroup counts")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--free", action="store_true")
    mode.add_argument("--closed", action="store_true")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--dmax", type=int, default=3)

    p = command("minimize", _cmd_minimize, "length-minimizing point of a curve")
    p.add_argument("--word", required=True)

    p = command("walk", _cmd_walk, "sample a random walk word", [draw])
    p.add_argument("--n", type=int, required=True)

    p = command("ball", _cmd_ball, "sample uniformly from a Cayley ball", [draw])
    p.add_argument("--n", type=int, required=True)

    p = command("drift", _cmd_drift, "escape-rate estimate for the walk", [draw])
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--samples", type=int, default=1000)

    p = command("experiment", _cmd_experiment, "run a Monte Carlo experiment family")
    p.add_argument("--config", default=None, help="key=value file; flags override")
    # every dest below but config and out is an ExperimentConfig field
    p.add_argument("--family", dest="experiment", metavar="FAMILY", default=None)
    p.add_argument("--sampler", default=None, choices=("walk", "ball"))
    p.add_argument("--n-grid", default=None, help="comma-separated radii")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--surface", default=None, choices=surface_choices)
    p.add_argument("--dmax", dest="d_max", metavar="DMAX", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")

    p = command("verify", _cmd_verify, "run the module invariant suites")
    p.add_argument("--fast", action="store_true")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args) or 0
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
