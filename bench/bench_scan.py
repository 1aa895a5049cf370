"""Time ``engine.scan`` on one or more source trees and write BENCH_scan.json.

Usage:
    python bench/bench_scan.py [--side LABEL=SRC_DIR ...] [--repeats R] [--out PATH]

Each ``--side`` names a source tree (the directory holding the ``zkerov``
package); the default is this checkout's ``src`` labelled ``change``.  Pass
two sides, for example ``--side parent=/tmp/parent/src --side change=src``,
to record a before/after pair on the same machine in one file.

Every timing is one ``scan`` call without a cache in a fresh interpreter,
so no side inherits another's imports or warm state.  Sides alternate
within each repeat, and the reported figure is the median over repeats:

* ``scan_1t_s``: single-thread ``scan(n)`` for n = 5..8;
* ``scan_2t_s``: ``scan(8, threads=2)``;
* ``ns_per_matching``: single-thread time divided by (2n-1)!! matchings.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SINGLE_NS = (5, 6, 7, 8)
PARALLEL = (8, 2)  # (n, threads)

CHILD = """
import json, sys, time
from zkerov.engine import scan
n, threads = int(sys.argv[1]), int(sys.argv[2])
t0 = time.perf_counter()
result = scan(n, threads=threads)
elapsed = time.perf_counter() - t0
print(json.dumps({"seconds": elapsed, "matchings": result.gluing_count}))
"""


def time_scan(src: Path, n: int, threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(n), str(threads)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model,
        "cpuCount": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def parse_side(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC_DIR, got {text!r}")
    src = Path(path).resolve()
    if not (src / "zkerov" / "engine.py").is_file():
        raise argparse.ArgumentTypeError(f"no zkerov package under {path!r}")
    return label, src


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", type=parse_side, default=None,
                        metavar="LABEL=SRC_DIR", help="source tree to time (repeatable)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scan.json")
    args = parser.parse_args(argv)
    sides = args.side or [("change", ROOT / "src")]
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    configs = [(n, 1) for n in SINGLE_NS] + [PARALLEL]
    samples: dict[str, dict[tuple[int, int], list[float]]] = {
        label: {c: [] for c in configs} for label, _src in sides
    }
    matchings: dict[int, int] = {}
    for rep in range(args.repeats):
        order = sides if rep % 2 == 0 else sides[::-1]
        for n, threads in configs:
            for label, src in order:
                got = time_scan(src, n, threads)
                samples[label][(n, threads)].append(got["seconds"])
                matchings[n] = got["matchings"]
                print(f"rep {rep + 1}/{args.repeats} {label} n={n} threads={threads}: "
                      f"{got['seconds']:.3f} s", file=sys.stderr)

    report: dict = {
        "benchmark": "engine.scan",
        "machine": machine_info(),
        "repeats": args.repeats,
        "statistic": "median",
        "sides": {},
    }
    for label, _src in sides:
        per = samples[label]
        single = {str(n): statistics.median(per[(n, 1)]) for n in SINGLE_NS}
        n2, t2 = PARALLEL
        report["sides"][label] = {
            "scan_1t_s": {k: round(v, 4) for k, v in single.items()},
            f"scan_{t2}t_s": {str(n2): round(statistics.median(per[PARALLEL]), 4)},
            "ns_per_matching": {
                k: round(v / matchings[int(k)] * 1e9, 1) for k, v in single.items()
            },
            "samples_s": {
                f"n{n}_t{threads}": [round(x, 4) for x in xs]
                for (n, threads), xs in per.items()
            },
        }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
