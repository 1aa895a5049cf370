"""Time ``engine.scan``, the census presets, the gluing enumerators, the
ordered-tuple closed forms and ``selftest`` on one or more source trees and
write BENCH_scan.json.

Usage:
    python bench/bench_scan.py [--side LABEL=SRC_DIR ...] [--repeats R] [--out PATH]

Each ``--side`` names a source tree (the directory holding the ``zkerov``
package); the default is this checkout's ``src`` labelled ``change``.  Pass
two sides, for example ``--side parent=/tmp/parent/src --side change=src``,
to record a before/after pair on the same machine in one file.

Every timing is one call in a fresh interpreter, so no side inherits
another's imports or warm state.  Sides alternate within each repeat, and
the reported figure is the median over repeats:

* ``scan_1t_s``: single-thread ``scan(n)`` without a cache, n = 5..8;
* ``scan_2t_s``: ``scan(n, threads=2)`` for n = 8 and 9 (``force=True``
  above the default limit);
* ``ns_per_matching``: single-thread time divided by (2n-1)!! matchings;
* ``leaves``: the matchings the scan kernel visits at n = 5..8, counted
  after the timed call: one kernel call over every branch of the orbit
  sum, or (2n-1)!! for a tree whose kernel is the full pass;
* ``census_twisted_s``: ``census --reduced --twisted --max-n 6`` and
  ``census_contrib_s``: ``census --reduced-bipartite --contributing
  --max-n 7``, each one ``cli.main`` call with its JSON discarded (the
  ranges the ``reference`` workload of ``perfbench/`` uses);
* ``enumerate_gluings_s`` (n=7) and ``enumerate_twisted_gluings_s``
  (n=6): a full pass of the enumerator with no genus requested;
* ``closedform_symmetrized_s`` and ``closedform_family_sum_s``:
  ``symmetrized_polynomial(26)`` and ``family_sum_polynomial(26)``, the two
  genus-one routes that sum over every ordered tuple (46,368 at n=26);
* ``selftest_s``: ``selftest --max-n 6 --threads 1``, one ``cli.main``
  call with its JSON discarded (every check of the registry, each n
  scanned as often as the tree's ``run_selftest`` scans it).

The ``counts`` of each side hold the class counts of the census presets,
the number of gluings enumerated, the number of terms of each closed form
and the number of selftest checks passed, so that two sides can be seen to
have done the same work.

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
PARALLEL = ((8, 2), (9, 2))  # (n, threads)
CENSUS = {
    "census_twisted_s": ("6", ["--reduced", "--twisted", "--max-n", "6"]),
    "census_contrib_s": ("7", ["--reduced-bipartite", "--contributing", "--max-n", "7"]),
}
ENUMERATE = {"enumerate_gluings_s": 7, "enumerate_twisted_gluings_s": 6}
CLOSEDFORM_N = 26
CLOSEDFORM = {
    "closedform_symmetrized_s": "symmetrized_polynomial",
    "closedform_family_sum_s": "family_sum_polynomial",
}
SELFTEST_MAX_N = "6"

CHILD = """
import contextlib, io, json, sys, time
kind, args = sys.argv[1], sys.argv[2:]
if kind == "scan":
    from zkerov import engine
    n, threads = int(args[0]), int(args[1])
    t0 = time.perf_counter()
    count = engine.scan(n, threads=threads, force=n > engine.DEFAULT_N_LIMIT).gluing_count
elif kind == "census":
    from zkerov.cli import main
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert main(["census", *args, "--format", "json"]) == 0
    count = json.loads(out.getvalue())["classCount"]
elif kind == "selftest":
    from zkerov.cli import main
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        assert main(["selftest", "--max-n", args[0], "--threads", "1",
                     "--format", "json"]) == 0
    count = sum(c["status"] == "ok" for c in json.loads(out.getvalue())["checks"])
elif kind == "closedform":
    from zkerov import closedform
    route = getattr(closedform, args[0])
    t0 = time.perf_counter()
    count = len(route(int(args[1])).terms)
else:
    from zkerov import polygon
    enumerate_fn = getattr(polygon, kind)
    t0 = time.perf_counter()
    count = sum(1 for _ in enumerate_fn(int(args[0])))
elapsed = time.perf_counter() - t0
extra = {}
if kind == "scan" and threads == 1:
    # the matchings the kernel visits, counted after the timed call
    if hasattr(engine, "_branches"):
        extra["leaves"] = engine._scan_branch((n, tuple(engine._branches(n)), 0))[0]
    else:
        extra["leaves"] = count
print(json.dumps({"seconds": elapsed, "count": count, **extra}))
"""


def run_child(src: Path, kind: str, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, kind, *args],
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

    # one entry per timed call: sample key -> (child kind, child arguments)
    jobs: dict[str, tuple[str, list[str]]] = {
        f"n{n}_t1": ("scan", [str(n), "1"]) for n in SINGLE_NS
    }
    for n, threads in PARALLEL:
        jobs[f"n{n}_t{threads}"] = ("scan", [str(n), str(threads)])
    for key, (_n, flags) in CENSUS.items():
        jobs[key] = ("census", flags)
    for kind, n in ENUMERATE.items():
        jobs[kind] = (kind.removesuffix("_s"), [str(n)])
    for key, route in CLOSEDFORM.items():
        jobs[key] = ("closedform", [route, str(CLOSEDFORM_N)])
    jobs["selftest_s"] = ("selftest", [SELFTEST_MAX_N])

    samples: dict[str, dict[str, list[float]]] = {
        label: {key: [] for key in jobs} for label, _src in sides
    }
    counts: dict[str, dict[str, int]] = {label: {} for label, _src in sides}
    leaves: dict[str, dict[str, int]] = {label: {} for label, _src in sides}
    for rep in range(args.repeats):
        order = sides if rep % 2 == 0 else sides[::-1]
        for key, (kind, child_args) in jobs.items():
            for label, src in order:
                got = run_child(src, kind, child_args)
                samples[label][key].append(got["seconds"])
                counts[label][key] = got["count"]
                if "leaves" in got:
                    leaves[label][key] = got["leaves"]
                print(f"rep {rep + 1}/{args.repeats} {label} {key}: "
                      f"{got['seconds']:.3f} s", file=sys.stderr)

    report: dict = {
        "benchmark": "engine.scan, census presets, gluing enumerators, closed forms, selftest",
        "machine": machine_info(),
        "repeats": args.repeats,
        "statistic": "median",
        "sides": {},
    }
    for label, _src in sides:
        med = {key: statistics.median(xs) for key, xs in samples[label].items()}
        report["sides"][label] = {
            "scan_1t_s": {str(n): round(med[f"n{n}_t1"], 4) for n in SINGLE_NS},
            "scan_2t_s": {str(n): round(med[f"n{n}_t{t}"], 4) for n, t in PARALLEL},
            "ns_per_matching": {
                str(n): round(med[f"n{n}_t1"] / counts[label][f"n{n}_t1"] * 1e9, 1)
                for n in SINGLE_NS
            },
            "leaves": {str(n): leaves[label][f"n{n}_t1"] for n in SINGLE_NS},
            **{key: {max_n: round(med[key], 4)} for key, (max_n, _flags) in CENSUS.items()},
            **{key: {str(n): round(med[key], 4)} for key, n in ENUMERATE.items()},
            **{key: {str(CLOSEDFORM_N): round(med[key], 4)} for key in CLOSEDFORM},
            "selftest_s": {SELFTEST_MAX_N: round(med["selftest_s"], 4)},
            "counts": {key: counts[label][key]
                       for key in [*CENSUS, *ENUMERATE, *CLOSEDFORM, "selftest_s"]},
            "samples_s": {key: [round(x, 4) for x in xs] for key, xs in samples[label].items()},
        }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
