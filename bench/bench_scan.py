"""Time ``engine.scan``, the census presets, ``glue``, the gluing
enumerators, the ordered-tuple closed forms, ``selftest`` and the CLI
shell on one or more source trees and write BENCH_scan.json.

Usage:
    python bench/bench_scan.py [--side LABEL=SRC_DIR ...] [--repeats R] [--out PATH]
                               [--rows KEY[,KEY...]]

Each ``--side`` names a source tree (the directory holding the ``zkerov``
package); the default is this checkout's ``src`` labelled ``change``.  Pass
two sides, for example ``--side parent=/tmp/parent/src --side change=src``,
to record a before/after pair on the same machine in one file.

Every timing is one call in a fresh interpreter, so no side inherits
another's imports or warm state, except ``scan_1t_s`` and ``glue_us``:
their interpreter repeats the call and reports the fastest, since one
call of 0.001-0.3 s is at the mercy of a busy host (at n = 5..7 three
scans left the median in one of two modes).  Each side's tree is
byte-compiled once (``python -m compileall``) before the repeats, so no
timing includes compiling the package.  Sides alternate within each
repeat, and the reported figure is the median over repeats:

* ``scan_1t_s``: single-thread ``scan(n)`` without a cache, n = 5..8,
  the fastest of the calls in one interpreter (three at n=8, about 200
  at n=5);
* ``scan_2t_s``: ``scan(n, threads=2)`` for n = 8, 9 and 10;
* ``ns_per_matching``: single-thread time divided by (2n-1)!! matchings,
  of which the kernel visits only a fraction;
* ``ns_per_leaf``: single-thread time divided by the ``leaves`` below;
* ``scan_rss_mb``: the peak RSS of a fresh interpreter running
  single-thread ``scan(8)`` (at least three times), ``scan(9, threads=2)``
  and ``scan(10, threads=2)``, the three timed above, read inside it after
  the timed calls: the larger of its own ``VmHWM`` (``RUSAGE_SELF`` where
  ``/proc`` is missing) and its workers' ``RUSAGE_CHILDREN``, so the
  driver's memory, which a child shares until its ``exec``, is not counted;
* ``leaves``: the matchings the scan kernel visits at n = 5..8, counted
  after the timed call: one kernel call over every branch of the orbit
  sum, or (2n-1)!! for a tree whose kernel is the full pass;
* ``task_leaves``: the leaves of each of the two tasks that
  ``scan(n, threads=2)`` deals at n = 8 and 9, counted once per side in
  its own interpreter before the timed calls (the larger task sets the
  time of a two-worker scan);
* ``task_s``: the kernel seconds of each of those tasks, one
  ``_scan_branch`` call in that interpreter, the fastest of three: a
  task's cost does not follow its leaves alone, since the kernel's
  tables are shared by all the branches of a task;
* ``census_twisted_s``: ``census --reduced --twisted --max-n 6`` and
  ``census_contrib_s``: ``census --reduced-bipartite --contributing
  --max-n 7``, each one ``cli.main`` call with its JSON discarded (the
  ranges the ``reference`` workload of ``perfbench/`` uses);
* ``glue_us``: microseconds per ``glue`` call over the dg=2 strata of
  the census presets' largest n (the twisted gluings at n=6 and the
  matchings at n=7, 23,410 gluings, enumerated before the timing), the
  fastest of five passes;
* ``enumerate_gluings_s`` (n=7) and ``enumerate_twisted_gluings_s``
  (n=6): a full pass of the enumerator with no genus requested;
* ``closedform_symmetrized_s`` and ``closedform_family_sum_s``:
  ``symmetrized_polynomial(26)`` and ``family_sum_polynomial(26)``, the two
  genus-one routes that sum over ordered tuples (46,368 at n=26);
* ``selftest_s``: ``selftest --max-n 6 --threads 1``, one ``cli.main``
  call with its JSON discarded (every check of the registry, each n
  scanned as often as the tree's ``run_selftest`` scans it);
* ``cli_import_ms``: ``import zkerov.cli`` in a fresh interpreter, timed
  inside it;
* ``query_warm_ms``: one whole ``zkerov coeff --n 7 --mu 3,3 --threads 2``
  process against a cache filled before the first repeat, timed from
  outside (interpreter start, imports, cache load, JSON);
* ``expand_cold_s``: one whole ``zkerov expand --n 8`` process at 1 and 2
  threads into a fresh, empty cache directory, timed from outside.

Whole processes run the console script's body, ``python -c "from
zkerov.cli import main; ..."``, with the side's tree on PYTHONPATH.

``--rows`` times only the named samples (``n8_t1``, ``n9_t2``,
``census_twisted_s``, ``query_warm_ms``, ``expand_2t``, ...; an unknown
name lists them all) and merges their figures into the report at
``--out``: every other row stays as it was timed.  The report's ``rows``
maps each row to the trees it was timed on, ``{side label: source}``,
where ``source`` is a hash of that side's ``zkerov`` sources, so one file
can hold rows timed against different parents and says which.  The merge
refuses to run (before timing anything) only when ``--out`` holds other
side labels or another ``--repeats``, so every row of a file is timed the
same way.  The ``task_leaves`` and ``task_s`` set-up (row ``tasks``) runs
only when a scan row is timed.  Without ``--rows`` every sample is timed.
Many repeats of a few rows, for example ``--rows
closedform_symmetrized_s,closedform_family_sum_s --repeats 10``, then cost
no n=9 or n=10 scans.

The ``counts`` of each side hold the class counts of the census presets,
the number of gluings glued and enumerated, the number of terms of each
closed form, the number of selftest checks passed, the raw count of the
warm query and the number of terms of each expansion, so that two sides
can be seen to have done the same work; ``cli_import_ms`` counts the
modules loaded, which is what an import change alters.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SINGLE_NS = (5, 6, 7, 8)
PARALLEL = ((8, 2), (9, 2), (10, 2))  # (n, threads)
TASK_NS = (8, 9)
RSS_SCANS = ("n8_t1", "n9_t2", "n10_t2")
CENSUS = {
    "census_twisted_s": ("6", ["--reduced", "--twisted", "--max-n", "6"]),
    "census_contrib_s": ("7", ["--reduced-bipartite", "--contributing", "--max-n", "7"]),
}
ENUMERATE = {"enumerate_gluings_s": 7, "enumerate_twisted_gluings_s": 6}
# the census presets' genus and largest n in each universe
GLUE_STRATA = ("2", "enumerate_twisted_gluings", "6", "enumerate_gluings", "7")
CLOSEDFORM_N = 26
CLOSEDFORM = {
    "closedform_symmetrized_s": "symmetrized_polynomial",
    "closedform_family_sum_s": "family_sum_polynomial",
}
SELFTEST_MAX_N = "6"
QUERY = ["coeff", "--n", "7", "--mu", "3,3", "--threads", "2"]
EXPAND_N, EXPAND_THREADS = "8", ("1", "2")
# the console script's body
CLI_MAIN = "import sys; from zkerov.cli import main; sys.exit(main())"

# imports only sys and time before the timed region, so that the import
# row times everything zkerov.cli pulls in
CHILD = """
import sys, time
kind, args = sys.argv[1], sys.argv[2:]


def peak_rss_mb():
    import resource
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except OSError:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


if kind == "import":
    t0 = time.perf_counter()
    import zkerov.cli
    elapsed = time.perf_counter() - t0
    print('{"seconds": %r, "count": %d}' % (elapsed, len(sys.modules)))
    sys.exit()
import contextlib, io, json
if kind == "tasks":
    from zkerov import engine
    task_leaves, task_s = {}, {}
    for n in map(int, args):
        task_leaves[str(n)], task_s[str(n)] = [], []
        for task in engine._tasks(n, 2):
            # the kernel seconds of a task: the fastest of three calls
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                leaves = engine._scan_branch(task)[0]
                times.append(time.perf_counter() - t0)
            task_leaves[str(n)].append(leaves)
            task_s[str(n)].append(min(times))
    print(json.dumps({"task_leaves": task_leaves, "task_s": task_s}))
    sys.exit()
if kind == "scan":
    from zkerov import engine
    n, threads = int(args[0]), int(args[1])
    # one thread: the fastest of at least three calls that fill about 0.2 s
    # in this interpreter; two: one call
    times = []
    while not times or threads == 1 and (len(times) < 3 or sum(times) < 0.2):
        t0 = time.perf_counter()
        count = engine.scan(n, threads=threads).gluing_count
        times.append(time.perf_counter() - t0)
elif kind == "glue":
    from zkerov import polygon
    dg, strata = int(args[0]), args[1:]
    gluings = [g for name, n in zip(strata[::2], strata[1::2])
               for g in getattr(polygon, name)(int(n), doubled_genus=dg)]
    glue, count, times = polygon.glue, len(gluings), []
    for _ in range(5):
        t0 = time.perf_counter()
        for g in gluings:
            glue(g)
        times.append(time.perf_counter() - t0)
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
elapsed = min(times) if kind in ("scan", "glue") else time.perf_counter() - t0
extra = {}
if kind == "scan":
    extra["rss_mb"] = peak_rss_mb()
    if threads == 1:
        # the matchings the kernel visits, counted after the timed call
        extra["leaves"] = engine._scan_branch((n, tuple(engine._branches(n))))[0]
print(json.dumps({"seconds": elapsed, "count": count, **extra}))
"""


def run_child(src: Path, kind: str, args: list[str]) -> dict:
    """One child's figures (its stderr goes to this one's)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, kind, *args],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout)


def run_cli(src: Path, args: list[str]) -> dict:
    """One whole CLI process with JSON output, timed from outside; the count
    is the raw count of a coeff query or the number of expansion terms."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_MAIN, *args, "--format", "json"],
        env=env, capture_output=True, text=True, check=True,
    )
    elapsed = time.perf_counter() - t0
    doc = json.loads(proc.stdout)
    if doc["command"] == "coeff":
        count = int(doc["rawCount"])
    else:
        count = sum(len(part["terms"]) for part in doc["parts"])
    return {"seconds": elapsed, "count": count}


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
        # the children then write no .pyc files of their own; each side's
        # tree is compiled once before the repeats, so none of them compiles
        "dontWriteBytecode": bool(sys.flags.dont_write_bytecode),
    }


def merge(old: dict, new: dict) -> dict:
    """``old`` with the figures of ``new`` in place, nested dicts merged key
    by key."""
    out = dict(old)
    for key, value in new.items():
        if isinstance(value, dict) and isinstance(old.get(key), dict):
            out[key] = merge(old[key], value)
        else:
            out[key] = value
    return out


def source_id(src: Path) -> str:
    """A hash of the ``zkerov`` sources under src, naming the tree a side
    timed."""
    digest = hashlib.sha256()
    for path in sorted((src / "zkerov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


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
    parser.add_argument("--rows", type=lambda text: text.split(","), default=None,
                        metavar="KEY[,KEY...]", help="time only these samples")
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
    jobs["glue_us"] = ("glue", list(GLUE_STRATA))
    for kind, n in ENUMERATE.items():
        jobs[kind] = (kind.removesuffix("_s"), [str(n)])
    for key, route in CLOSEDFORM.items():
        jobs[key] = ("closedform", [route, str(CLOSEDFORM_N)])
    jobs["selftest_s"] = ("selftest", [SELFTEST_MAX_N])
    jobs["cli_import_ms"] = ("import", [])
    # "cli" jobs are whole processes; {warm} and {cold} stand for the side's
    # filled cache and a new empty directory
    jobs["query_warm_ms"] = ("cli", [*QUERY, "--cache", "{warm}"])
    for threads in EXPAND_THREADS:
        jobs[f"expand_{threads}t"] = (
            "cli", ["expand", "--n", EXPAND_N, "--threads", threads, "--cache", "{cold}"])
    if args.rows is not None:
        unknown = [key for key in args.rows if key not in jobs]
        if unknown:
            parser.error(f"unknown rows {unknown}; choose from {list(jobs)}")
        jobs = {key: jobs[key] for key in args.rows}
    base: dict = {}
    if args.rows is not None and args.out.is_file():
        base = json.loads(args.out.read_text(encoding="utf-8"))
        found, wanted = list(base.get("sides", {})), [label for label, _src in sides]
        if found != wanted or base.get("repeats") != args.repeats:
            parser.error(f"{args.out} holds sides {found} at --repeats {base.get('repeats')}, "
                         f"not {wanted} at --repeats {args.repeats}; give another --out")
    scans = any(kind == "scan" for kind, _args in jobs.values())
    stamp = {label: source_id(src) for label, src in sides}

    samples: dict[str, dict[str, list[float]]] = {
        label: {key: [] for key in jobs} for label, _src in sides
    }
    counts: dict[str, dict[str, int]] = {label: {} for label, _src in sides}
    leaves: dict[str, dict[str, int]] = {label: {} for label, _src in sides}
    rss: dict[str, dict[str, list[float]]] = {
        label: {key: [] for key in RSS_SCANS} for label, _src in sides
    }
    with tempfile.TemporaryDirectory(prefix="bench-scan-") as tmp:
        work = Path(tmp)
        warm = {label: work / f"warm-{label}" for label, _src in sides}
        task_leaves, task_s = {}, {}
        for label, src in sides:
            # bytecode up front, so that no fresh-interpreter row compiles the
            # package (an installed package or perfbench run has its .pyc files)
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                           stdout=subprocess.DEVNULL, check=True)
            run_cli(src, [*QUERY, "--cache", str(warm[label])])
            if scans:
                tasks = run_child(src, "tasks", [str(n) for n in TASK_NS])
                task_leaves[label] = tasks["task_leaves"]
                task_s[label] = {n: [round(x, 4) for x in xs]
                                 for n, xs in tasks["task_s"].items()}
        for rep in range(args.repeats):
            order = sides if rep % 2 == 0 else sides[::-1]
            for key, (kind, child_args) in jobs.items():
                for label, src in order:
                    if kind == "cli":
                        cold = tempfile.mkdtemp(dir=work)
                        got = run_cli(src, [a.format(warm=warm[label], cold=cold)
                                            for a in child_args])
                    else:
                        got = run_child(src, kind, child_args)
                    samples[label][key].append(got["seconds"])
                    counts[label][key] = got["count"]
                    if "leaves" in got:
                        leaves[label][key] = got["leaves"]
                    if key in RSS_SCANS:
                        rss[label][key].append(got["rss_mb"])
                    print(f"rep {rep + 1}/{args.repeats} {label} {key}: "
                          f"{got['seconds']:.3f} s", file=sys.stderr)

    report: dict = {
        "benchmark": "engine.scan, census presets, gluing enumerators, closed forms, "
                     "selftest, CLI shell",
        "machine": machine_info(),
        "repeats": args.repeats,
        "statistic": "median",
        "rows": {key: stamp for key in [*(["tasks"] if scans else []), *jobs]},
        "sides": {},
    }
    for label, src in sides:
        med = {key: statistics.median(xs) for key, xs in samples[label].items()}
        single = [(str(n), f"n{n}_t1") for n in SINGLE_NS if f"n{n}_t1" in med]
        expand = {t: round(med[f"expand_{t}t"], 4)
                  for t in EXPAND_THREADS if f"expand_{t}t" in med}
        figures = {
            "scan_1t_s": {n: round(med[key], 4) for n, key in single},
            "scan_2t_s": {str(n): round(med[f"n{n}_t{t}"], 4)
                          for n, t in PARALLEL if f"n{n}_t{t}" in med},
            "ns_per_matching": {n: round(med[key] / counts[label][key] * 1e9, 1)
                                for n, key in single},
            "ns_per_leaf": {n: round(med[key] / leaves[label][key] * 1e9, 1)
                            for n, key in single},
            "scan_rss_mb": {key: round(statistics.median(xs), 1)
                            for key, xs in rss[label].items() if xs},
            "leaves": {n: leaves[label][key] for n, key in single},
            "task_leaves": task_leaves.get(label, {}),
            "task_s": task_s.get(label, {}),
            **{key: {max_n: round(med[key], 4)}
               for key, (max_n, _flags) in CENSUS.items() if key in med},
            **({"glue_us": round(med["glue_us"] / counts[label]["glue_us"] * 1e6, 2)}
               if "glue_us" in med else {}),
            **{key: {str(n): round(med[key], 4)} for key, n in ENUMERATE.items() if key in med},
            **{key: {str(CLOSEDFORM_N): round(med[key], 4)} for key in CLOSEDFORM if key in med},
            "selftest_s": {SELFTEST_MAX_N: round(med["selftest_s"], 4)}
            if "selftest_s" in med else {},
            **{key: round(med[key] * 1e3, 1)
               for key in ("cli_import_ms", "query_warm_ms") if key in med},
            "expand_cold_s": {EXPAND_N: expand} if expand else {},
            "counts": {key: counts[label][key]
                       for key in [*CENSUS, "glue_us", *ENUMERATE, *CLOSEDFORM,
                                   "selftest_s",
                                   "cli_import_ms", "query_warm_ms",
                                   *(f"expand_{t}t" for t in EXPAND_THREADS)]
                       if key in counts[label]},
            "samples_s": {key: [round(x, 4) for x in xs] for key, xs in samples[label].items()},
        }
        # a figure whose rows were not timed is left out
        report["sides"][label] = {key: value for key, value in figures.items() if value != {}}
    if base:
        report = merge(base, {"rows": report["rows"], "sides": report["sides"]})
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
