"""One-off cross-check: create latency of `deploy-smb` against the
program's own `twinaudit bench deploy --fixture smb` on the same machine.

    python3 perfbench/crosscheck.py [--seed 1] [--iterations 400]

Run from the root of a source tree. Prints both medians and their gap.
The CLI times wall clock, so the gap is taken to the benchmark's unscaled
median; the scaled `create_ms_p50` (see hostspeed.py) is printed beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=400)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    cli = subprocess.run(
        [sys.executable, "-m", "twinaudit.cli", "bench", "deploy", "--fixture", "smb",
         "--seed", str(args.seed), "--iterations", str(args.iterations)],
        env=env, capture_output=True, text=True, timeout=900, check=True,
    )
    cli_ms = 1000 * float(re.search(r"^median: (\S+)$", cli.stdout, re.M).group(1))

    bench = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "deploy-smb", "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, check=True,
    )
    scaled_ms = json.loads(bench.stdout.strip().splitlines()[-1])["metrics"]["create_ms_p50"]["value"]
    unscaled = re.search(r"^unscaled, host probe (\S+) ms, .*\bcreate_ms_p50 ([^,]+)", bench.stdout, re.M)
    bench_ms = float(unscaled.group(2))
    print(f"twinaudit bench deploy --fixture smb: create median {cli_ms:.3f} ms "
          f"({args.iterations} iterations)")
    print(f"perfbench deploy-smb: create median {bench_ms:.3f} ms unscaled, create_ms_p50 {scaled_ms:.3f} ms "
          f"scaled (host probe {unscaled.group(1)} ms)")
    print(f"gap: {bench_ms - cli_ms:+.3f} ms ({(bench_ms - cli_ms) / cli_ms:+.1%} of the CLI median)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
