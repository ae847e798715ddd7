"""Record the digests of every table of the given workloads (default all)
into ``reference_digests.json``, for the seeds given (default 0-9).

    python3 perfbench/record_reference.py [--seeds 0-9] [--workloads a,b]

The benchmark compares each run against these digests, so rerun this only
for a change that is meant to alter the output bytes, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import worker
from spread import seed_range
from workloads import WORKLOADS, configs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)
    worker.setup()
    doc = (json.loads(worker.REFERENCE.read_text()) if worker.REFERENCE.exists()
           else {"default_seed": 0, "workloads": {}})
    for workload in args.workloads.split(","):
        spec = WORKLOADS[workload]
        by_seed = doc["workloads"][workload] = {}
        for seed in args.seeds:
            sets = []
            for k in range(spec["input_sets"]):
                _, digests, failures = worker.run_pass(
                    configs(workload, seed, k), workload)
                if failures:
                    raise SystemExit(f"{workload} seed {seed}: {failures}")
                sets.append(digests)
            by_seed[str(seed)] = sets
            print(workload, seed, flush=True)
    worker.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
