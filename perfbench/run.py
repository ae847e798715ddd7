"""randcurve benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload short-words --seed 0 --seconds 20 \
        --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every measurement happens in a fresh interpreter started by this script
(``worker.py``), so set-up cost and peak RSS are those a user pays.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics of a traced run.  The lines
before it record the environment, the output digests and any failure.
Exits non-zero, without a result, when the library cannot be set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# fresh interpreters that only set up, half before and half after the
# measuring one, so that a burst of load on the machine meets few of them
SETUP_PROBES = 12
TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def _worker_cmd(args, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def run_worker(cmd, deadline):
    """Start a fresh worker; return (seconds until it printed READY, its
    RESULT payload or None).  The worker is always waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [],
                             max(0.0, deadline - time.monotonic()))[0]:
            raise WorkerError("worker timed out during set-up")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise WorkerError("the library could not be set up")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return setup_s, result


def environment() -> dict:
    try:
        # a checkout that is not a repository reports no sha, even when
        # it sits inside another repository
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    try:
        from importlib.metadata import version
        numpy = version("numpy")
    except ImportError:
        numpy = None
    return {"git_sha": sha or None, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m_start": os.getloadavg()[0]}


def end_to_end(res: dict, setups: list) -> dict:
    return {"wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S
    env = environment()
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups = [run_worker(_worker_cmd(args, True), deadline)[0]
                  for _ in range(probes)]
        setup_s, res = run_worker(_worker_cmd(args), deadline)
        setups.append(setup_s)
        setups += [run_worker(_worker_cmd(args, True), deadline)[0]
                   for _ in range(probes)]
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    env["loadavg_1m_end"] = os.getloadavg()[0]

    metrics = res["metrics"] if args.trace else end_to_end(res, setups)
    print("env " + json.dumps(env))
    print("digests " + json.dumps(res["digests"], sort_keys=True))
    print("pass_s " + json.dumps({k: res[k] for k in ("pass_s", "traced_pass_s")
                                  if k in res}))
    if not args.trace:
        print("setup_samples_s " + json.dumps(setups))
    for name, why in res.get("absent", {}).items():
        print(f"absent {name}: {why}")
    for why in res["failures"]:
        print(f"FAILED {why}")
    print(f"failed_ratio {res['failed'] / res['attempted']}")
    summary = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(summary, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env,
                  setup_samples_s=setups, **res)
    (OUT / f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
