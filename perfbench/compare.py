"""Compare a parent tree with a change tree on the benchmark.

    python3 perfbench/compare.py --parent ../parent --change . [--pairs 10]

Both trees are measured with this copy of the benchmark and the run length
from BENCHMARK.json. Runs go in pairs, one seed per pair, alternating which
side runs first. For every workload and end-to-end metric it prints each
side's median and quartiles, the share of pairs the change won (ties count
for neither) and a verdict:

- improved: at least ten pairs were run, the change won at least nine
  tenths of them, and the medians differ by more than the parent's own
  quartile distance;
- unresolved: the parent's run-to-run spread (quartile distance over median)
  exceeds the metric's bound, and not every change run beat every parent run;
- regressed: the change's median is worse than the parent's by more than
  the bound;
- no regression: otherwise;
- failed: the change had more failed operations on the workload than the
  parent, or some change run lacks the metric (an operation with no
  successful sample). No gain or "no regression" is claimed then;
- missing: some parent run lacks the metric, so there is no base.

A parent tree can be made with `git archive <commit> | tar -x -C <dir>`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
MIN_PAIRS = 10  # fewer pairs can show a regression but never claim a gain


def run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{tree} {workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    all_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    enough = len(parent) >= MIN_PAIRS
    if enough and wins >= 0.9 * len(parent) and sign * (cm - pm) > 0 and abs(cm - pm) > p3 - p1:
        return "improved", wins
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", wins
    if pm and -sign * (cm - pm) / abs(pm) > bound:
        return "regressed", wins
    return "no regression", wins


def main() -> int:
    parser = argparse.ArgumentParser(description="parent vs change, in alternating pairs")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", type=Path, help="write every run as JSON")
    args = parser.parse_args()

    seconds = SPEC["run_seconds"]
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    runs: dict = {w: {"parent": [], "change": []} for w in workloads}
    for workload in workloads:
        for index in range(args.pairs):
            seed = args.first_seed + index
            sides = [("parent", args.parent), ("change", args.change)]
            for side, tree in sides if index % 2 == 0 else reversed(sides):
                runs[workload][side].append(run(tree.resolve(), workload, seed, seconds))
                print(f"{workload} pair {index + 1}/{args.pairs} {side} done", file=sys.stderr)

    header = (f"{'workload':16} {'metric':22} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'won':>6}  verdict")
    print(header)
    for workload in workloads:
        sides = runs[workload]
        failed = {s: sum(r["failed"] for r in sides[s]) for s in sides}
        print(f"{workload:16} failed ops: parent {failed['parent']}, change {failed['change']}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = {s: [r["metrics"][name]["value"] for r in sides[s] if name in r["metrics"]]
                      for s in sides}
            parent, change = values["parent"], values["change"]
            if len(parent) < len(sides["parent"]):
                print(f"{workload:16} {name:22} missing from {len(sides['parent']) - len(parent)} parent runs")
                continue
            if len(change) < len(sides["change"]):
                print(f"{workload:16} {name:22} missing from {len(sides['change']) - len(change)} "
                      "change runs  failed")
                continue
            result, wins = verdict(parent, change, metric["better"], metric["bound"])
            if failed["change"] > failed["parent"]:
                result = "failed"
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(f"{workload:16} {name:22} {pm:12.5g} [{p1:9.5g}, {p3:9.5g}] "
                  f"{cm:12.5g} [{c1:9.5g}, {c3:9.5g}] {wins:3d}/{len(parent):<2}  {result}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
