"""Check that benchmark runs of the same workload and seed agree bit for bit.

    python3 bench/agree.py .bench_out/presets-seed7-trace0.json \
        .bench_out/presets-seed7-trace1.json [more result files ...]

Every pair of result files with the same workload and seed must carry the
same per-task output digests, and traced results the same exact per-layer
counts. Use it to compare two untraced runs, an untraced and a traced run, or
the runs of two commits that should give identical results. Exits 1 on any
disagreement.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from spans import COUNTS


def main(paths):
    groups = defaultdict(list)
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        prov = result["provenance"]
        groups[(prov["workload"], prov["seed"])].append((path, result))
    ok = True
    for (workload, seed), runs in sorted(groups.items()):
        problems = []
        base_path, base = runs[0]
        traced = [(p, r) for p, r in runs if r["provenance"]["trace"]]
        for path, result in runs[1:]:
            if result["task_digests"] != base["task_digests"]:
                problems.append(f"digests of {path} differ from {base_path}")
        for path, result in traced[1:]:
            diff = [name for name in COUNTS
                    if result["metrics"][name]["value"] != traced[0][1]["metrics"][name]["value"]]
            if diff:
                problems.append(f"counts {diff} of {path} differ from {traced[0][0]}")
        for problem in problems:
            print(f"{workload} seed {seed}: {problem}")
        print(f"{workload} seed {seed}: {len(runs)} runs, "
              f"{'DISAGREE' if problems else 'agree'}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
