"""Make the reference figures of the README anew.

    python3 benchmarks/figures.py --seeds 11-20

From the root of a source checkout.  For each workload of BENCHMARK.json,
runs run.py for `run_seconds` once per seed untraced, then twice traced
on the first seed, one process at a time.  Prints, per workload, the median and quartiles of each end-to-end
metric with its spread (interquartile range over median), the share of
failed operations, whether the traced counts repeated exactly, the
tracing overhead (median traced round minus median untraced `wall_s`),
and the per-layer medians of the first traced run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "benchmarks" / "run.py"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    rounds = json.loads((ROOT / ".bench_out" / workload / "rounds.json").read_text())
    return result, statistics.median(r["wall_s"] for r in rounds["rounds"])


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("11-20"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, s, seconds, 0)[0] for s in args.seeds]
        print(f"## {workload} ({len(results)} seeds, {seconds} s runs)")
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(
                f"| {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                f"| {(q3 - q1) / med:.3f} | {m['bound']} |"
            )
        shares = {(r["failed"], r["attempted"]) for r in results}
        print(f"\nfailed/attempted per run: {sorted(shares)}")
        print(f"correct in every run: {all(r['correct'] for r in results)}")

        (first, traced_wall), (second, _) = (
            run(workload, args.seeds[0], seconds, 1) for _ in range(2)
        )
        counts = [n for n, v in first["metrics"].items() if v["unit"] != "s"]
        same = all(first["metrics"][n] == second["metrics"][n] for n in counts)
        wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in results)
        print(f"traced counts repeat exactly: {same}")
        print(f"tracing overhead: {traced_wall - wall:.3f} s on a {wall:.3f} s round")
        print("\n| per-layer metric | value |")
        print("|---|---|")
        for name, v in first["metrics"].items():
            print(f"| {name} | {v['value']:.4g} {v['unit']} |")
        print(flush=True)


if __name__ == "__main__":
    main()
