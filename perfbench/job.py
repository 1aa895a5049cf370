"""In-process calls into the zkerov package, one task per child process.

The benchmark harness (run.py) never imports zkerov itself; it starts this
script with ``PYTHONPATH=<checkout>/src`` so that every task runs in a fresh
interpreter (the engine memoizes scans per process, so a second scan in the
same process would time a dictionary lookup).  Each task prints one JSON
object on stdout.  Times are ``time.perf_counter()`` readings, which share
the system monotonic clock with the parent, so the harness can place the
reported spans inside its own timeline.

Only public names are used: scan, rescaled_coefficient_exact, write_cache /
load_cache, glue, enumerate_gluings, candidate_colorings, enumerate_q,
hall_condition, the three closed forms, census_classes and cli.main.  A name that no longer exists is reported as
``{"absent": "<module>.<name>"}`` instead of failing.

Usage: python3 perfbench/job.py <task> [--option value ...]
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

clock = time.perf_counter


class Absent(Exception):
    """A public name the task needs is gone from the package."""


def need(module: str, name: str):
    try:
        return getattr(importlib.import_module(f"zkerov.{module}"), name)
    except AttributeError:
        raise Absent(f"zkerov.{module}.{name}") from None


def span(name: str, layer: str, start: float, end: float) -> dict:
    return {"name": name, "layer": layer, "start": start, "end": end}


def terms_rows(terms: dict) -> list:
    """Closed-form terms as sorted [parts, value] rows."""
    return sorted([list(m.parts), str(v)] for m, v in terms.items())


# ---------------------------------------------------------------------------
# tasks


def task_genus1(opts: dict) -> dict:
    """Genus-one terms by the per-partition closed form."""
    partition_polynomial = need("closedform", "partition_polynomial")
    return {"terms": terms_rows(partition_polynomial(int(opts["n"])).terms)}


def task_reference(opts: dict) -> dict:
    """Cache-free in-process answers for n = 1..max-n: raw counts, exact
    coefficients and genus-one terms, against which CLI answers are checked."""
    scan = need("engine", "scan")
    rescale = need("engine", "rescaled_coefficient_exact")
    partition_polynomial = need("closedform", "partition_polynomial")
    out = []
    for n in range(1, int(opts["max-n"]) + 1):
        result = scan(n, threads=1)
        rows = []
        for mono, raw in sorted(result.tallies.items(), key=lambda kv: kv[0].parts, reverse=True):
            coeff = rescale(n, mono, raw)
            rows.append({
                "mu": list(mono.parts),
                "rawCount": str(raw),
                "coefficient": str(coeff),
                "exact": isinstance(coeff, int),
            })
        out.append({
            "n": n,
            "gluings": str(result.gluing_count),
            "tallies": rows,
            "genus1": terms_rows(partition_polynomial(n).terms),
        })
    return {"ns": out}


def task_closedforms(opts: dict) -> dict:
    """The three genus-one closed forms at one n, each timed in-process."""
    n = int(opts["n"])
    routes = {
        "partition": need("closedform", "partition_polynomial"),
        "symmetrized": need("closedform", "symmetrized_polynomial"),
        "family_sum": need("closedform", "family_sum_polynomial"),
    }
    spans, terms = [], {}
    for name, fn in routes.items():
        t0 = clock()
        result = fn(n)
        t1 = clock()
        spans.append(span(f"closedform.{name}", "closedform", t0, t1))
        terms[name] = terms_rows(result.terms)
    # ordered tuples with parts >= 2 summing to n-1, counted independently
    ways = [1] + [0] * (n - 1)
    for total in range(2, n):
        ways[total] = sum(ways[total - a] for a in range(2, total + 1))
    return {"spans": spans, "terms": terms, "tuples": ways[n - 1]}


def task_scan(opts: dict) -> dict:
    """One full scan, no cache, timed in-process."""
    scan = need("engine", "scan")
    rescale = need("engine", "rescaled_coefficient_exact")
    n, threads = int(opts["n"]), int(opts["threads"])
    t0 = clock()
    result = scan(n, threads=threads)
    t1 = clock()
    inexact = sum(1 for m, c in result.tallies.items() if not isinstance(rescale(n, m, c), int))
    return {
        "spans": [span(f"engine.scan_{threads}t", "engine", t0, t1)],
        "matchings": result.gluing_count,
        "monomials": len(result.tallies),
        "inexact": inexact,
    }


def task_cache(opts: dict) -> dict:
    """Cache write and load of one n, and the per-monomial rescale."""
    scan = need("engine", "scan")
    write_cache = need("engine", "write_cache")
    load_cache = need("engine", "load_cache")
    rescale = need("engine", "rescaled_coefficient_exact")
    n, reps = int(opts["n"]), int(opts["reps"])
    result = scan(n, threads=1)
    writes, loads = [], []
    with tempfile.TemporaryDirectory(dir=opts["dir"]) as tmp:
        for _ in range(reps):
            t0 = clock()
            write_cache(tmp, result)
            writes.append(clock() - t0)
            t0 = clock()
            loaded = load_cache(tmp, n)
            loads.append(clock() - t0)
    items = list(result.tallies.items())
    rounds = 200
    t0 = clock()
    for _ in range(rounds):
        for mono, raw in items:
            rescale(n, mono, raw)
    rescale_s = (clock() - t0) / (rounds * len(items))
    return {
        "write_s": statistics.median(writes),
        "load_s": statistics.median(loads),
        "rescale_s": rescale_s,
        "roundtrip_ok": loaded is not None and loaded.tallies == result.tallies,
    }


def task_gluings(opts: dict) -> dict:
    """Every gluing of one n through glue(), classified the way the engine's
    leaves are (w<b, b==1, Hall), with every candidate coloring of the Hall
    class put through hall_condition."""
    enumerate_gluings = need("polygon", "enumerate_gluings")
    glue = need("polygon", "glue")
    candidate_colorings = need("admissibility", "candidate_colorings")
    hall_condition = need("admissibility", "hall_condition")
    n = int(opts["n"])
    t0 = clock()
    gluings = list(enumerate_gluings(n))
    t1 = clock()
    maps = [glue(g) for g in gluings]
    t2 = clock()
    b1 = w_lt_b = hall = candidates = admissible = 0
    hall_s = 0.0
    for m in maps:
        b, w = len(m.black_vertices), len(m.white_vertices)
        if w < b:
            w_lt_b += 1
            continue
        if b == 1:
            b1 += 1
            continue
        hall += 1
        for q in candidate_colorings(m):
            candidates += 1
            h0 = clock()
            ok = hall_condition(m, q)
            hall_s += clock() - h0
            admissible += ok
    t3 = clock()
    return {
        "spans": [
            span("polygon.enumerate_gluings", "polygon", t0, t1),
            span("polygon.glue", "polygon", t1, t2),
            span("admissibility.classify", "admissibility", t2, t3),
        ],
        "gluings": len(gluings),
        "glue_s": (t2 - t1) / len(gluings),
        "leaves_b1": b1,
        "leaves_w_lt_b": w_lt_b,
        "leaves_hall": hall,
        "candidates": candidates,
        "admissible": admissible,
        "hall_s": hall_s / max(candidates, 1),
    }


def task_census(opts: dict) -> dict:
    """Both census presets, with glue() and enumerate_q() wrapped by timers
    where the census module looks them up."""
    census = importlib.import_module("zkerov.census")
    census_classes = need("census", "census_classes")
    busy = {"glue": 0.0, "enumerate_q": 0.0}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - t0
        return wrapper

    def timed_iter(name, fn):
        # times each step of the generator, so a caller that stops after the
        # first item is charged for that item only, as it is without the wrapper
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    busy[name] += clock() - t0
                yield item
        return wrapper

    census.glue = timed("glue", need("census", "glue"))
    census.enumerate_q = timed_iter("enumerate_q", need("census", "enumerate_q"))
    presets = {
        "twisted": dict(ns=range(1, int(opts["twisted-max-n"]) + 1), universe="twisted",
                        doubled_genus=2, reduced_only=True,
                        convention=getattr(census, "DIHEDRAL", "dihedral")),
        "contrib": dict(ns=range(1, int(opts["contrib-max-n"]) + 1), doubled_genus=2,
                        reduced_bipartite_only=True, contributing_only=True,
                        convention=getattr(census, "CYCLIC", "cyclic")),
    }
    out: dict = {"spans": []}
    for name, kwargs in presets.items():
        busy.update(glue=0.0, enumerate_q=0.0)
        ns = kwargs.pop("ns")
        t0 = clock()
        classes = census_classes(ns, **kwargs)
        t1 = clock()
        out["spans"].append(span(f"census.{name}", "census", t0, t1))
        out[name] = {
            "classes": len(classes),
            "glue_s": busy["glue"],
            "enumerate_q_s": busy["enumerate_q"],
            "rows": [{"orbitSize": c.orbit_size, "stabilizerOrder": c.stabilizer_order,
                      "groupOrder": c.group_order} for c in classes],
        }
    return out


def task_import(opts: dict) -> dict:
    """Time the first import of the CLI module in a fresh interpreter."""
    t0 = clock()
    importlib.import_module("zkerov.cli")
    return {"import_s": clock() - t0}


def task_coeff_inproc(opts: dict) -> dict:
    """cli.main for one coeff query against a warm cache, in-process."""
    main = need("cli", "main")
    argv = ["coeff", "--n", opts["n"], "--mu", opts["mu"], "--threads", "1",
            "--cache", opts["dir"], "--format", "json"]
    sink = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(sink):
        code = main(argv)
    t1 = clock()
    return {"spans": [span("cli.main", "cli", t0, t1)], "code": code,
            "answer": json.loads(sink.getvalue())}


TASKS = {
    "genus1": task_genus1,
    "reference": task_reference,
    "closedforms": task_closedforms,
    "scan": task_scan,
    "cache": task_cache,
    "gluings": task_gluings,
    "census": task_census,
    "import": task_import,
    "coeff-inproc": task_coeff_inproc,
}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in TASKS or len(argv) % 2 != 1:
        print(f"usage: job.py {{{'|'.join(TASKS)}}} [--option value ...]", file=sys.stderr)
        return 1
    opts = {k.removeprefix("--"): v for k, v in zip(argv[1::2], argv[2::2])}
    if "dir" in opts:
        Path(opts["dir"]).mkdir(parents=True, exist_ok=True)
    try:
        doc = TASKS[argv[0]](opts)
    except Absent as exc:
        doc = {"absent": str(exc)}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
