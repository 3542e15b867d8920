"""twinaudit benchmark: one command, three workloads, every answer checked.

Run from the root of a source tree (the directory holding `src/twinaudit`):

    python3 perfbench/run.py --workload deploy-smb --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

`--trace 0` prints every end-to-end metric; `--trace 1` prints every
per-layer metric and writes a span dump and a layer table. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"


def _bootstrap() -> None:
    """Import the program from this tree's sources, or fail."""
    src = ROOT / "src"
    if not (src / "twinaudit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no twinaudit sources under {src}; run from the root of a source tree")
    sys.path[:0] = [str(src), str(HERE)]


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT.resolve():
        return "unknown"  # not a git checkout of its own
    return lines[1]


def _source_digest() -> str:
    """sha256 over the program sources, for trees that are not git checkouts."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding path, from /proc/self/mountinfo."""
    target, best, kind = str(path.resolve()), "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as info:
            for line in info:
                fields = line.split()
                mount = fields[4].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[fields.index("-") + 1]
    except OSError:
        pass
    return kind


def stamp(seed: int, workload: str, trace: bool, store: Path) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
        "store_fs": _fs_type(store),
    }


def pin_to_one_cpu() -> str:
    """Every request hands the interpreter lock between a client and a
    server thread. Left to the scheduler, those threads sometimes share a
    CPU and sometimes not, and whole runs flip between a fast and a slow
    mode; on one CPU every run hands off the same way."""
    if not hasattr(os, "sched_setaffinity"):
        return "unpinned"
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return str(cpu)


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    from workloads import run_workload

    cpu = pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        info = {**stamp(seed, workload, trace, work), "cpu": cpu}
        print(json.dumps({"stamp": info}), flush=True)
        metrics, samples, extras = run_workload(workload, seed, seconds, work, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # The host's speed over the run: the median of the probes that scale
    # every reported time (see hostspeed.py).
    info["host_probe_ms"] = extras["host_probe_ms"]
    info["write_probe_ms"] = extras["write_probe_ms"]

    for failure in samples.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    counts = {
        "create": len(samples.create_s), "audit": len(samples.audit_s),
        "report": len(samples.report_s), "rescan_noop": len(samples.noop_s),
        "rescan_change": len(samples.change_s), "read": len(samples.read_s),
    }
    print(f"samples: {json.dumps(counts)}; rounds {extras['rounds']} in {extras['measured_s']:.1f} s; "
          f"setups {', '.join(f'{s:.3f}' for s in extras['setups_s'])} s; "
          f"peak RSS {extras['setup_rss_mb']:.1f} MiB after set-up")
    shares = sorted(extras["shares"].items(), key=lambda item: -item[1])
    print("share of measured time: " + ", ".join(f"{op} {share:.1%}" for op, share in shares)
          + f", other {1 - sum(extras['shares'].values()):.1%}")

    base = results / f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        import layers

        tracer = extras.pop("tracer")
        out = layers.per_layer_metrics(tracer, extras["traced_rounds"], extras)
        tracer.dump(f"{base}-spans.jsonl")
        table = tracer.layer_table()
        lines = [f"{'span':32} {'count':>8} {'total_ms':>12} {'self_ms':>12} {'p50_ms':>10}"]
        lines += [f"{name:32} {row['count']:8d} {row['total_ms']:12.3f} {row['self_ms']:12.3f}"
                  f" {row['p50_ms']:10.4f}" for name, row in table.items()]
        lines.append(f"traced rounds {extras['traced_rounds']} of {extras['rounds']}")
        Path(f"{base}-layers.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print("\n".join(lines))
        moves = {name: moved for name, _, _, moved, _ in layers.PER_LAYER}
        for name, metric in out.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}  (moves {moves[name]})")
    else:
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
               if value is not None}
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}" if value is not None else f"{name} missing: no sample")
        print(f"unscaled, host probe {extras['host_probe_ms']:.3f} ms, "
              f"write probe {extras['write_probe_ms']:.3f} ms: " + ", ".join(
            f"{name} {value:.6g}" for name, (value, _) in extras["raw"].items() if value is not None))

    failed = len(samples.failures)
    result = {
        "correct": failed == 0,
        "attempted": max(samples.attempted, 1),
        "failed": failed,
        "metrics": out,
    }
    raw = {name: values for name, values in vars(samples).items() if name.endswith("_s")}
    raw["probes"] = extras.pop("probes")
    raw["write_probes"] = extras.pop("write_probes")
    unscaled = {name: value for name, (value, _) in extras["raw"].items()}
    Path(f"{base}.json").write_text(json.dumps({"stamp": info, "result": result, "unscaled": unscaled,
                                                "samples": raw}) + "\n", encoding="utf-8")
    print(f"failed_ratio = {failed / result['attempted']:.6g} failed/attempted")
    print(json.dumps(result), flush=True)
    return 0


def run_all(workloads: list[str], seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own process; every metric printed by name."""
    merged: dict = {}
    attempted = failed = 0
    correct = True
    for name in workloads:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _bootstrap()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
