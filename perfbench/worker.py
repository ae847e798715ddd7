"""One measuring process of the benchmark; ``run.py`` starts it fresh.

It sets the library up, prints ``READY`` (``run.py`` times set-up up to
that line), runs every table of the workload at ``jobs=1`` until the time
is up, checks the output bytes, and prints one ``RESULT {json}`` line.
With ``--trace 1`` it also runs traced passes and reports per-layer metrics.

    python3 perfbench/worker.py --workload short-words --seed 0 \
        --seconds 20 --trace 0 [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference_digests.json"
MIN_PASSES = 3


def setup():
    """Everything a fresh interpreter needs before the first timed table:
    the imports (numpy included), the surfaces and the rose minimizer."""
    sys.path.insert(0, str(SRC))
    import randcurve
    from randcurve import fricke, ribbon
    from randcurve.intersect import EdgePath, self_intersection

    if not Path(randcurve.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"randcurve imported from {randcurve.__file__}, "
                          f"not from {SRC}")
    for name in ribbon.SURFACE_PRESETS:
        ribbon.surface(name)
    fricke.rose_minimizer()
    # one call through the vectorized kernel, which imports numpy lazily
    self_intersection(EdgePath.from_word(randcurve.cyclic("aabbaBBAbab"),
                                         ribbon.surface("punctured-torus")))


def table_digests(table, path: Path) -> dict:
    """sha256 of the CSV and ``.meta.json`` bytes that ``save`` writes."""
    table.save(str(path))
    return {"csv": hashlib.sha256(path.read_bytes()).hexdigest(),
            "meta": hashlib.sha256(
                Path(str(path) + ".meta.json").read_bytes()).hexdigest()}


def table_problems(cfg, table) -> list[str]:
    """Properties every correct table has, whatever the seed."""
    problems = []
    if tuple(r.n for r in table.rows) != cfg.n_grid:
        problems.append("rows do not follow n_grid")
    for r in table.rows:
        if not (r.samples >= 1 and r.q1 <= r.median <= r.q3 <= r.max
                and r.mean <= r.max):
            problems.append(f"row n={r.n} is not an ordered summary")
        if cfg.experiment == "self-int" and r.max > r.n * (r.n - 1) // 2:
            problems.append(f"row n={r.n} exceeds n(n-1)/2")
    if cfg.experiment == "conj-ball" and table.metadata["violations"]:
        problems.append("conjugacy-ball bound violated")
    return problems


def run_pass(cfgs: dict, workload: str, tracer=None):
    """Every table of one input set once.  Returns the seconds spent in
    ``run_experiment`` per config, the digests, and failures per config."""
    from randcurve import stats

    out = OUT / "tables" / workload
    out.mkdir(parents=True, exist_ok=True)
    times, digests, failures = {}, {}, {}
    for name, cfg in cfgs.items():
        t0 = time.perf_counter()
        try:
            if tracer is None:
                table = stats.run_experiment(cfg)
            else:
                table = tracer.call_root(stats.run_experiment, cfg)
        except Exception as exc:  # a failed config is data, not a crash
            times[name] = time.perf_counter() - t0
            failures[name] = f"raised {type(exc).__name__}: {exc}"
            continue
        times[name] = time.perf_counter() - t0
        digests[name] = table_digests(table, out / f"{name}.csv")
        problems = table_problems(cfg, table)
        if problems:
            failures[name] = "; ".join(problems)
    return times, digests, failures


def reference_digests(workload: str, seed: int) -> list | None:
    """Recorded digests of every input set of ``workload`` at ``seed``."""
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text())
    return ref["workloads"].get(workload, {}).get(str(seed))


class Measurement:
    """The passes of one run over the workload's input sets, and the output
    checks: every pass of an input set must give the digests of its first
    pass, and the recorded ones where the seed has a reference."""

    def __init__(self, workload: str, sets: list, reference=None):
        self.workload = workload
        self.sets = sets
        self.reference = reference
        self.first = [None] * len(sets)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, k: int = 0, tracer=None) -> float:
        """One pass over input set ``k``; returns its ``run_experiment``
        seconds."""
        cfgs = self.sets[k]
        times, digests, failures = run_pass(cfgs, self.workload, tracer)
        if self.first[k] is None:
            self.first[k] = digests
        ref = self.reference[k] if self.reference else None
        label = "traced pass" if tracer else "pass"
        for name in cfgs:
            self.attempted += 1
            why = failures.get(name)
            if why is None and ref is not None and digests[name] != ref.get(name):
                why = "digest differs from the recorded reference"
            if why is None and digests[name] != self.first[k].get(name):
                why = f"{label} digest differs from the first pass"
            if why is not None:
                self.failed += 1
                self.failures.append(f"input set {k} {name}: {why}")
        return sum(times.values())


def jobs2_speedup(cfg) -> tuple[float, bool]:
    """jobs=1 time / jobs=2 time of one config, and whether both give the
    same CSV bytes."""
    from dataclasses import replace
    from randcurve import stats

    t0 = time.perf_counter()
    one = stats.run_experiment(cfg).to_csv()
    t1 = time.perf_counter()
    two = stats.run_experiment(replace(cfg, jobs=2)).to_csv()
    t2 = time.perf_counter()
    return (t1 - t0) / (t2 - t1), one == two


def new_measurement(workload: str, seed: int) -> Measurement:
    from workloads import WORKLOADS, configs

    sets = [configs(workload, seed, k)
            for k in range(WORKLOADS[workload]["input_sets"])]
    return Measurement(workload, sets, reference_digests(workload, seed))


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Cycle over the input sets until the next cycle would overrun
    ``seconds``.  ``wall_s`` is the mean over input sets of the median time
    of one pass over the set."""
    m = new_measurement(workload, seed)
    times = [[] for _ in m.sets]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for k, t in enumerate(times):
            t.append(m.run(k))
        now = time.perf_counter()
        if sum(map(len, times)) >= MIN_PASSES \
                and now - start + (now - t0) > seconds:
            break
    return {"pass_s": times,
            "wall_s": statistics.fmean(map(statistics.median, times)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "digests": m.first, "attempted": m.attempted, "failed": m.failed,
            "failures": m.failures}


def traced_metrics(tracer, plain, traced, speedup):
    """Every per-layer metric, from the spans of the ``traced`` passes and
    the untraced ``plain`` passes of the same run."""
    import tracing

    metrics, absent = tracing.layer_metrics(tracer, len(traced))
    metrics["stats.pool.jobs2_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(
        t - p for p, t in zip(plain, traced)), "s")
    return metrics, absent


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Pairs of an untraced and a traced pass of input set 0 for
    ``seconds``, then the jobs=2 check.  Pairing the passes lets a drift in
    the machine's speed fall on both sides of the tracing overhead alike."""
    import tracing
    from workloads import WORKLOADS

    m = new_measurement(workload, seed)
    plain, traced = [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(m.run())
        tracer.install()
        try:
            traced.append(m.run(0, tracer))
        finally:
            tracer.restore()
    speedup, same_csv = jobs2_speedup(
        m.sets[0][WORKLOADS[workload]["pool_config"]])
    if not same_csv:
        m.failed += 1
        m.failures.append("jobs=2 CSV differs from jobs=1")
    metrics, absent = traced_metrics(tracer, plain, traced, speedup)
    problems = tracing.span_problems(tracer)
    if problems:
        m.failed += 1
        m.failures.append(f"spans do not nest ({len(problems)} problems), "
                          f"first: {problems[0]}")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload}.json.gz"))
    return {"pass_s": plain, "traced_pass_s": traced,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "absent": absent, "digests": m.first, "attempted": m.attempted,
            "failed": m.failed, "failures": m.failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    run = measure_traced if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
