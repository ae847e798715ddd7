"""Command-line front end.

Exit codes: 0 success, 1 domain error (bad word, trivial curve, ...),
2 usage error.  All randomness is controlled by --seed; identical argv and
seed produce byte-identical output regardless of --jobs.
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
from .words import CyclicWord, Word, cyclic_reduce, reduce


def _add_surface(p, default="punctured-torus"):
    p.add_argument("--surface", default=default, choices=sorted(SURFACE_PRESETS))


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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="randcurve",
                                 description="combinatorially random curves on surfaces")
    ap.add_argument("--version", action="version", version=f"randcurve {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="freely reduce a word")
    p.add_argument("--word", required=True)
    p.add_argument("--cyclic", action="store_true", help="cyclically reduce")
    p.add_argument("--rank", type=int, default=None)

    p = sub.add_parser("self-int", help="self-intersection number")
    p.add_argument("--word", required=True)
    _add_surface(p)

    p = sub.add_parser("int", help="intersection number of two curves")
    p.add_argument("--word", required=True)
    p.add_argument("--word2", required=True)
    _add_surface(p)

    p = sub.add_parser("degree", help="simple lifting degree by search")
    p.add_argument("--word", required=True)
    p.add_argument("--dmax", type=int, default=6)
    _add_surface(p)

    p = sub.add_parser("spiral", help="spiraling number around a simple core")
    p.add_argument("--word", required=True)
    p.add_argument("--alpha", default="a")
    _add_surface(p)

    p = sub.add_parser("count-subgroups", help="index-d subgroup counts")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--free", action="store_true")
    mode.add_argument("--closed", action="store_true")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--dmax", type=int, default=3)

    p = sub.add_parser("minimize", help="length-minimizing point of a curve")
    p.add_argument("--word", required=True)

    p = sub.add_parser("walk", help="sample a random walk word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank", type=int, default=2)

    p = sub.add_parser("ball", help="sample uniformly from a Cayley ball")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank", type=int, default=2)

    p = sub.add_parser("drift", help="escape-rate estimate for the walk")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank", type=int, default=2)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment family")
    p.add_argument("--config", default=None, help="key=value file; flags override")
    # every dest below but config and out is an ExperimentConfig field
    p.add_argument("--family", dest="experiment", metavar="FAMILY", default=None)
    p.add_argument("--sampler", default=None, choices=("walk", "ball"))
    p.add_argument("--n-grid", default=None, help="comma-separated radii")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    _add_surface(p, default=None)
    p.add_argument("--dmax", dest="d_max", metavar="DMAX", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--out", default=None, help="CSV path (stdout if omitted)")

    p = sub.add_parser("verify", help="run the module invariant suites")
    p.add_argument("--fast", action="store_true")

    return ap


def _cmd_experiment(args) -> int:
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
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "reduce":
        w = Word.from_string(args.word, args.rank)
        print(str(cyclic_reduce(w)) if args.cyclic else str(reduce(w)))
        return 0
    if cmd == "self-int":
        g = surface(args.surface)
        c = CyclicWord.from_string(args.word, g.rank)
        print(self_intersection(EdgePath.from_word(c, g)))
        return 0
    if cmd == "int":
        g = surface(args.surface)
        p = EdgePath.from_word(CyclicWord.from_string(args.word, g.rank), g)
        q = EdgePath.from_word(CyclicWord.from_string(args.word2, g.rank), g)
        print(intersection(p, q))
        return 0
    if cmd == "degree":
        g = surface(args.surface)
        c = CyclicWord.from_string(args.word, g.rank)
        res = simple_lifting_degree(c, g, d_max=args.dmax)
        if not res.found:
            print(f"not-found(dmax={args.dmax})")
            return 0
        parts = [f"degree {res.degree}"]
        names = "abcdefghijklmnopqrstuvwxyz"
        for i in range(g.rank):
            parts.append(f"{names[i]}={res.witness.cycle_notation(i + 1)}")
        parts.append(f"elevation {res.elevation_index}")
        print(" ".join(parts))
        return 0
    if cmd == "spiral":
        g = surface(args.surface)
        c = CyclicWord.from_string(args.word, g.rank)
        a = CyclicWord.from_string(args.alpha, g.rank)
        print(spiraling(c, a, g))
        return 0
    if cmd == "count-subgroups":
        if args.dmax < 1:
            raise ValueError(f"d_max must be positive, got {args.dmax}")
        if args.free:
            for d in range(1, args.dmax + 1):
                print(f"{d},{hall_count(args.rank, d)}")
        else:
            for d in range(1, args.dmax + 1):
                print(f"{d},{mednykh_count(args.genus, d)}")
        return 0
    if cmd == "minimize":
        c = CyclicWord.from_string(args.word, 2)
        res = minimize_length(c)
        if res.status != "converged":
            print(res.status)
            return 0
        x, y, z = res.point.triple()
        proxy = distance_proxy(res.point, rose_minimizer())
        print(f"{x!r},{y!r},{z!r},{res.value!r},{res.grad_norm!r},{proxy!r}")
        return 0
    if cmd == "walk":
        mu = WalkDistribution.uniform(args.rank)
        print(str(random_walk(mu, args.n, args.seed)))
        return 0
    if cmd == "ball":
        print(str(sample_ball_uniform(args.rank, args.n, args.seed)))
        return 0
    if cmd == "drift":
        mu = WalkDistribution.uniform(args.rank)
        est = drift_estimate(mu, args.n, args.samples, args.seed)
        print(f"{est.mean!r},{est.stderr!r},{est.ci95[0]!r},{est.ci95[1]!r}")
        return 0
    if cmd == "experiment":
        return _cmd_experiment(args)
    if cmd == "verify":
        from .verify import run_all

        ok = True
        for name, passed, detail, seconds in run_all(fast=args.fast):
            status = "PASS" if passed else "FAIL"
            print(f"{status} {name}: {detail}")
            print(f"time {name}: {seconds:.2f} s", file=sys.stderr)
            ok = ok and passed
        return 0 if ok else 1
    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    raise SystemExit(main())
