"""Run the benchmark on several seeds and report how much each end-to-end
metric spreads: (q3 - q1) / median over the runs, against its bound.

    python3 perfbench/spread.py --seeds 0-9 [--workloads lifting,...] \
        [--baseline]

``--baseline`` also writes every run's full record to
``perfbench/baseline/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        records = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=300, check=True).stdout
            summary = json.loads(out.splitlines()[-1])
            ok &= summary["correct"]
            record = json.loads((HERE / "out" / f"result-{workload}-trace0"
                                 f"-seed{seed}.json").read_text())
            records.append(record)
            print(workload, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in summary["metrics"].items()}), flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in records]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{workload} {name}: median {med:.4f} spread "
                  f"{(q3 - q1) / med:.4f} (bound {bound})", flush=True)
        if args.baseline:
            (HERE / "baseline").mkdir(exist_ok=True)
            (HERE / "baseline" / f"{workload}.json").write_text(
                json.dumps(records, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
