#!/usr/bin/env python3
"""zkerov benchmark: three workloads against the package's CLI and its
public functions, every answer checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload expand-cold|query-warm|reference \
        --seed N --seconds S --trace 0|1

* expand-cold  ``zkerov expand --n 8`` twice per iteration: ``--threads 2``
               into a fresh empty cache, then ``--threads 1`` without one.
* query-warm   closed loop, one client, one process per query: ``coeff``
               for each of the 44 monomials of n=1..7 plus ``expand`` and
               ``genus1 --verify`` for n=1..7 against a warm cache, in an
               order shuffled by the seed; at least two passes.
* reference    both census presets through the CLI and the three genus-one
               closed forms at n=26 in-process.

perfbench/README.md gives the reasons behind each workload and metric.

The CLI runs from ``src/`` of the checkout (``PYTHONPATH``) the way the
installed ``zkerov`` console script runs it (``zkerov.cli:main``); the
in-process calls run in ``job.py``, one fresh process each.  All load
comes from this one process with at most two worker processes below it,
and ``--threads`` is always passed explicitly.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
loop with a span around every call, then probes each module through its
public functions and reports the per-layer metrics; the spans go to
``.bench_work/trace-<workload>.json``.  The last line of stdout is the
result; the line before it is a report with the machine, the load, the
workload's own figures and the first failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib.util import find_spec
from pathlib import Path

clock = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
JOB = Path(__file__).resolve().parent / "job.py"
WORK = ROOT / ".bench_work"
# metric name -> unit, from the benchmark's definition at the checkout root
UNITS = {m["name"]: m["unit"]
         for key in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}

# the console script's body: ``zkerov ARGS`` == ``python3 -c CLI_MAIN ARGS``
CLI_MAIN = "import sys; from zkerov.cli import main; sys.exit(main())"

OP_TIMEOUT_S = 90        # one process; expand --n 8 --threads 1 takes ~8 s on an idle core
RUN_BUDGET_S = 120       # no iteration starts later than this; a run must end by 180 s
SETUP_REPEATS = 5        # at least this many set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 1.0
THREADS = 2              # the machine's cores; never the default cpu_count()

EXPAND_N = 8
QUERY_NS = range(1, 8)
CLOSED_FORM_N = 26
CENSUS_TWISTED_MAX_N = 6
CENSUS_CONTRIB_MAX_N = 7
# recorded at the commit that defined this benchmark
CENSUS_TWISTED_CLASSES = 5
CENSUS_CONTRIB_CLASSES = 7
N7_COUNTS = {"gluings": 135135, "leaves_b1": 46080, "leaves_w_lt_b": 45662,
             "leaves_hall": 43393, "candidates": 62580, "admissible": 7623}


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def median(values):
    return statistics.median(values) if values else None


def percentile(values, p):
    """Nearest-rank percentile, None for no values."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)] if ordered else None


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans (id, name, layer, parent, root, start, end) kept in memory; a
    no-op when disabled.  A span's root is the top-level span above it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str, start: float) -> dict:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "layer": layer, "parent": parent,
               "root": sid if parent is None else self.spans[parent]["root"],
               "start": start, "end": None}
        self.spans.append(rec)
        return rec

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield None
            return
        rec = self._open(name, layer, clock())
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float) -> None:
        """A span timed elsewhere (in a child process), under the open one."""
        if self.enabled:
            self._open(name, layer, start)["end"] = end

    def self_times(self) -> dict[int, float]:
        """Span id -> its duration minus the time its children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for sid, secs in self.self_times().items():
            layer = self.spans[sid]["layer"]
            out[layer] = out.get(layer, 0.0) + secs
        return out


def span_cost_s(reps: int = 20000) -> float:
    """Cost of recording one span, measured on a throwaway tracer."""
    tracer = Tracer(True)
    t0 = clock()
    for _ in range(reps):
        with tracer.span("x", "bench"):
            pass
    return (clock() - t0) / reps


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    name: str
    kind: str                # processes of one kind repeat the same work
    phase: str
    code: int
    out: str
    err: str
    secs: float
    cpu_s: float
    rss_mb: float
    doc: dict = field(default_factory=dict)  # a job's parsed answer


@dataclass
class Bench:
    run_dir: Path
    tracer: Tracer
    phase: str = "setup"
    procs: list[Proc] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    others_runnable: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def launch(self, argv: list[str], name: str, layer: str, kind: str | None = None) -> Proc:
        """Run one process to completion.  Wall time, CPU time and peak RSS
        come from wait4 and cover the pool workers it started and reaped."""
        self.sample_runnable()
        with self.tracer.span(name, layer):
            t0 = clock()
            # an own process group, so that a timeout or an interrupt also
            # stops the pool workers below the process
            p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 cwd=ROOT, env=self.env, process_group=0)
            try:
                out, err = drain(p, t0 + OP_TIMEOUT_S)
                _pid, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(p.pid, signal.SIGKILL)
                p.wait()
                raise
            secs = clock() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
            with contextlib.suppress(ProcessLookupError):
                os.killpg(p.pid, signal.SIGKILL)  # workers it left behind, if any
            proc = Proc(name, kind or name, self.phase, p.returncode, out.decode(),
                        err.decode(), secs, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024)
            if layer == "job" and proc.code == 0:
                with contextlib.suppress(ValueError):
                    proc.doc = json.loads(proc.out)
                for s in proc.doc.get("spans", []):
                    self.tracer.add(s["name"], s["layer"], s["start"], s["end"])
        self.procs.append(proc)
        return proc

    def cli(self, name: str, *args: str, kind: str | None = None) -> Proc:
        return self.launch([sys.executable, "-c", CLI_MAIN, *args], name, "cli", kind)

    def job(self, task: str, *args: str) -> Proc:
        return self.launch([sys.executable, str(JOB), task, *args], f"job.{task}", "job")

    def verdict(self, what: str, check) -> None:
        """Count one attempted operation.  ``check()`` returns the problems
        found; it fails if there is any, or if the answer has the wrong shape."""
        try:
            problems = check()
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            problems = [f"malformed answer ({type(exc).__name__}: {exc})"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])

    def timed(self, name: str | None = None) -> list[Proc]:
        return [p for p in self.procs if p.phase == "timed" and name in (None, p.name)]

    def sample_runnable(self) -> None:
        # runnable tasks besides this one, read while no child of ours runs
        with contextlib.suppress(OSError, ValueError, IndexError):
            running = int(Path("/proc/loadavg").read_text().split()[3].split("/")[0])
            self.others_runnable.append(running - 1)


def drain(p: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    """Read stdout and stderr to their end; past the deadline, kill the
    process group and return what was read."""
    chunks: dict[int, list[bytes]] = {p.stdout.fileno(): [], p.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        for f in (p.stdout, p.stderr):
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, deadline - clock()))
            if not ready:
                os.killpg(p.pid, signal.SIGKILL)
                break
            for key, _events in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    p.stdout.close()
    p.stderr.close()
    out, err = (b"".join(c) for c in chunks.values())
    return out, err


def exit_problems(proc: Proc, expected: int = 0) -> list[str]:
    if proc.code == expected:
        return []
    tail = proc.err.strip().splitlines()[-1:] or [""]
    return [f"exit {proc.code}, expected {expected} ({tail[0][:200]})"]


def answer_problems(proc: Proc, check) -> list[str]:
    """Exit code 0, then ``check(parsed stdout)``."""
    return exit_problems(proc) or check(json.loads(proc.out))


def job_problems(proc: Proc, check=lambda doc: []) -> list[str]:
    """A job that ran and answered, then ``check(answer)``."""
    problems = exit_problems(proc)
    if problems or not proc.doc:
        return problems or ["no JSON answer"]
    if "absent" in proc.doc:
        return [f"{proc.doc['absent']} is gone"]
    return check(proc.doc)


# ---------------------------------------------------------------------------
# workloads


class ExpandCold:
    """A first query that misses the cache, and the single-thread baseline."""

    name = "expand-cold"
    seed_used = False
    min_iterations = 1

    def setup(self, bench: Bench) -> None:
        # time to a first answer on the smallest instance of the command
        proc = bench.cli("expand_n1", "expand", "--n", "1", "--threads", "1", "--format", "json")
        bench.verdict("setup expand --n 1", lambda: answer_problems(
            proc, lambda doc: [] if doc["gluings"] == "1" else ["not 1 gluing"]))

    def oracle(self, bench: Bench) -> None:
        proc = bench.job("genus1", "--n", str(EXPAND_N))
        bench.verdict("oracle genus1", lambda: job_problems(proc))
        # in genus one the raw count equals the coefficient
        self.genus1 = sorted([mu, value, value] for mu, value in proc.doc.get("terms", []))

    def iterate(self, bench: Bench, rng: random.Random, index: int) -> None:
        n = str(EXPAND_N)
        cache = bench.run_dir / f"cold-cache-{index}"
        cache.mkdir()
        par = bench.cli("expand_2t", "expand", "--n", n, "--threads", str(THREADS),
                        "--cache", str(cache), "--format", "json")

        def check_par(doc: dict) -> list[str]:
            problems = []
            if doc["gluings"] != str(double_factorial(2 * EXPAND_N - 1)):
                problems.append(f"gluings {doc['gluings']} != (2n-1)!!")
            got = sorted([t["mu"], t["rawCount"], t["coefficient"]]
                         for p in doc["parts"] if p["doubledGenus"] == 2 for t in p["terms"])
            if got != self.genus1:
                problems.append("doubledGenus=2 stratum != partition_polynomial(8)")
            if not any(cache.iterdir()):
                problems.append("no cache file written")
            return problems

        bench.verdict("expand --threads 2 (cold cache)", lambda: answer_problems(par, check_par))
        shutil.rmtree(cache)
        serial = bench.cli("expand_1t", "expand", "--n", n, "--threads", "1", "--format", "json")
        bench.verdict("expand --threads 1", lambda: exit_problems(serial) or (
            [] if serial.out == par.out else ["JSON differs from --threads 2"]))

    def figures(self, bench: Bench) -> dict:
        return {"expand_2t_s": (median([p.secs for p in bench.timed("expand_2t")]), "s"),
                "expand_1t_s": (median([p.secs for p in bench.timed("expand_1t")]), "s")}


class QueryWarm:
    """Many short queries answered from a warm cache."""

    name = "query-warm"
    seed_used = True
    min_iterations = 2

    def setup(self, bench: Bench) -> None:
        self.cache = bench.run_dir / f"warm-cache-{len(bench.procs)}"
        for k in QUERY_NS:
            proc = bench.cli("fill", "expand", "--n", str(k), "--threads", str(THREADS),
                             "--cache", str(self.cache), "--format", "json")
            bench.verdict(f"setup cache fill n={k}", lambda: exit_problems(proc))

    def oracle(self, bench: Bench) -> None:
        """Cache-free in-process answers; each becomes one query, plus an
        expand and a genus1 query per n."""
        proc = bench.job("reference", "--max-n", str(max(QUERY_NS)))
        bench.verdict("oracle reference", lambda: job_problems(proc))
        self.ref = {entry["n"]: entry for entry in proc.doc.get("ns", [])}
        self.queries = []
        for k, entry in self.ref.items():
            self.queries += [("coeff", k, row) for row in entry["tallies"]]
            self.queries += [("expand", k, None), ("genus1", k, None)]

    def iterate(self, bench: Bench, rng: random.Random, index: int) -> None:
        order = list(self.queries)
        rng.shuffle(order)
        for command, k, row in order:
            args = [command, "--n", str(k), "--threads", str(THREADS),
                    "--cache", str(self.cache), "--format", "json"]
            if command == "coeff":
                args += ["--mu", ",".join(map(str, row["mu"]))]
            if command == "genus1":
                args.append("--verify")
            label = f"{command} --n {k}" + (f" --mu {args[-1]}" if command == "coeff" else "")
            proc = bench.cli("query", *args, kind=label)
            bench.verdict(label, lambda: self.check(command, k, row, proc))

    def check(self, command: str, k: int, row: dict | None, proc: Proc) -> list[str]:
        if command == "coeff" and not row["exact"]:
            # an inexact power-of-two division (criterion 9) exits 3 by design
            return exit_problems(proc, 3)
        return answer_problems(proc, lambda doc: self.compare(command, k, row, doc))

    def compare(self, command: str, k: int, row: dict | None, doc: dict) -> list[str]:
        ref = self.ref[k]
        if command == "coeff":
            want = [k, row["mu"], row["rawCount"], row["coefficient"]]
            got = [doc["n"], doc["mu"], doc["rawCount"], doc["coefficient"]]
            return [] if got == want else [f"answer {got} != in-process {want}"]
        if command == "expand":
            want = sorted([k + 1 - sum(r["mu"]), r["mu"], r["rawCount"], r["coefficient"]]
                          for r in ref["tallies"])
            got = sorted([p["doubledGenus"], t["mu"], t["rawCount"], t["coefficient"]]
                         for p in doc["parts"] for t in p["terms"])
            ok = doc["gluings"] == ref["gluings"] and got == want
            return [] if ok else ["expansion != in-process scan"]
        if sorted([t["mu"], t["coefficient"]] for t in doc["terms"]) != sorted(ref["genus1"]):
            return ["genus1 terms != in-process closed form"]
        return [] if doc["verification"]["status"] == "ok" else ["genus1 --verify not ok"]

    def figures(self, bench: Bench) -> dict:
        lat = [p.secs * 1e3 for p in bench.timed("query")]
        exit3 = sum(1 for c, _k, row in self.queries if c == "coeff" and not row["exact"])
        return {"query_p50_ms": (median(lat), "ms"), "query_p90_ms": (percentile(lat, 90), "ms"),
                "query_samples": (len(lat), "count"),
                "queries_per_pass": (len(self.queries), "count"),
                "coeff_exit3_per_pass": (exit3, "count")}


class Reference:
    """The routes that share no model with the enumeration."""

    name = "reference"
    seed_used = False
    min_iterations = 1

    def setup(self, bench: Bench) -> None:
        proc = bench.cli("census_n2", "census", "--n", "2", "--format", "json")
        bench.verdict("setup census --n 2", lambda: answer_problems(
            proc, lambda doc: [] if doc["classCount"] >= 1 else ["no classes"]))

    def oracle(self, bench: Bench) -> None:
        pass  # the routes are checked against each other and recorded counts

    def iterate(self, bench: Bench, rng: random.Random, index: int) -> None:
        for name, flags, max_n, classes in (
            ("census_twisted", ["--reduced", "--twisted"], CENSUS_TWISTED_MAX_N,
             CENSUS_TWISTED_CLASSES),
            ("census_contrib", ["--reduced-bipartite", "--contributing"], CENSUS_CONTRIB_MAX_N,
             CENSUS_CONTRIB_CLASSES),
        ):
            proc = bench.cli(name, "census", *flags, "--max-n", str(max_n),
                             "--threads", str(THREADS), "--format", "json")
            bench.verdict(name, lambda: answer_problems(
                proc, lambda doc: census_problems(doc["classCount"], doc["classes"], classes)))
        proc = bench.job("closedforms", "--n", str(CLOSED_FORM_N))
        bench.verdict("closed forms", lambda: job_problems(proc, closed_form_problems))

    def figures(self, bench: Bench) -> dict:
        inproc = [sum(s["end"] - s["start"] for s in p.doc.get("spans", []))
                  for p in bench.timed("job.closedforms")]
        return {"census_twisted_s": (median([p.secs for p in bench.timed("census_twisted")]), "s"),
                "census_contrib_s": (median([p.secs for p in bench.timed("census_contrib")]), "s"),
                "closedform_s": (median(inproc), "s")}


def census_problems(count: int, rows: list[dict], recorded: int) -> list[str]:
    problems = []
    if count != recorded or len(rows) != recorded:
        problems.append(f"{count} classes, recorded {recorded}")
    if any(c["orbitSize"] * c["stabilizerOrder"] != c["groupOrder"] for c in rows):
        problems.append("orbit size * stabilizer order != group order")
    return problems


def closed_form_problems(doc: dict) -> list[str]:
    t = doc["terms"]
    if t["partition"] and t["partition"] == t["symmetrized"] == t["family_sum"]:
        return []
    return ["the three closed forms disagree term by term"]


WORKLOADS = {w.name: w for w in (ExpandCold, QueryWarm, Reference)}


def typical(procs: list[Proc], attr: str) -> float:
    """One iteration's typical cost: the median of each kind of process,
    summed.  Medians per kind keep short bursts of load on the host out."""
    by_kind: dict[str, list[float]] = {}
    for p in procs:
        by_kind.setdefault(p.kind, []).append(getattr(p, attr))
    return sum(statistics.median(v) for v in by_kind.values())


# ---------------------------------------------------------------------------
# per-layer probes (traced run only)


def probe_layers(bench: Bench) -> tuple[dict, list[str]]:
    """Per-layer metrics, each from one module's public functions called in
    a fresh process.  A probe whose function has gone is listed as absent
    and its metrics are left out; the run goes on."""
    metrics: dict[str, float] = {}
    absent: list[str] = []

    def probe(what: str, task: str, *args: str, check=lambda doc: []) -> dict | None:
        proc = bench.job(task, *args)
        if "absent" in proc.doc:
            absent.append(f"{what} ({proc.doc['absent']})")
            return None
        bench.verdict(what, lambda: job_problems(proc, check))
        return proc.doc or None

    def took(doc: dict, index: int = 0) -> float:
        return doc["spans"][index]["end"] - doc["spans"][index]["start"]

    expect_matchings = double_factorial(2 * EXPAND_N - 1)
    with bench.tracer.span("probe.engine", "bench"):
        s1 = probe("engine scan 1t", "scan", "--n", str(EXPAND_N), "--threads", "1",
                   check=lambda d: [] if d["matchings"] == expect_matchings else ["matchings"])
        s2 = probe("engine scan 2t", "scan", "--n", str(EXPAND_N), "--threads", str(THREADS),
                   check=lambda d: [] if d["matchings"] == expect_matchings else ["matchings"])
        if s1 and s2:
            metrics.update({
                "engine.scan_1t_s": took(s1), "engine.scan_2t_s": took(s2),
                "engine.ns_per_matching": took(s1) / s1["matchings"] * 1e9,
                "engine.scaling_eff": took(s1) / (THREADS * took(s2)),
                "engine.matchings": s1["matchings"], "engine.monomials": s1["monomials"],
                "engine.inexact_monomials": s1["inexact"],
            })
        # pool start-up and tear-down: a trivial scan with and without workers
        pool, plain = [], []
        for _ in range(3):
            a = probe("engine pool", "scan", "--n", "2", "--threads", str(THREADS))
            b = probe("engine no pool", "scan", "--n", "2", "--threads", "1")
            if a and b:
                pool.append(took(a))
                plain.append(took(b))
        if pool:
            metrics["engine.pool_overhead_s"] = median(pool) - median(plain)
        c = probe("engine cache", "cache", "--n", "7", "--reps", "10",
                  "--dir", str(bench.run_dir / "probe-cache"),
                  check=lambda d: [] if d["roundtrip_ok"] else ["cache round trip differs"])
        if c:
            metrics.update({"engine.cache_write_ms": c["write_s"] * 1e3,
                            "engine.cache_load_ms": c["load_s"] * 1e3,
                            "engine.rescale_us": c["rescale_s"] * 1e6})

    with bench.tracer.span("probe.polygon", "bench"):
        def n7_problems(doc: dict) -> list[str]:
            got = {k: doc[k] for k in N7_COUNTS}
            return [] if got == N7_COUNTS else [f"{got} != {N7_COUNTS}"]

        g = probe("n=7 leaf and coloring counts", "gluings", "--n", "7", check=n7_problems)
        if g:
            metrics.update({
                "polygon.glue_us": g["glue_s"] * 1e6,
                "polygon.enumerate_gluings_s": took(g),
                "polygon.gluings": g["gluings"],
                "admissibility.admissible_ratio": g["admissible"] / g["candidates"],
                "admissibility.hall_us": g["hall_s"] * 1e6,
            })
            metrics.update({f"admissibility.{k}": g[k] for k in N7_COUNTS if k != "gluings"})

    with bench.tracer.span("probe.closedform", "bench"):
        cf = probe("closed forms n=26", "closedforms", "--n", str(CLOSED_FORM_N),
                   check=closed_form_problems)
        if cf:
            metrics.update({"closedform.partition_s": took(cf, 0),
                            "closedform.symmetrized_s": took(cf, 1),
                            "closedform.family_sum_s": took(cf, 2),
                            "closedform.tuples": cf["tuples"]})

    with bench.tracer.span("probe.census", "bench"):
        cs = probe("census presets", "census", "--twisted-max-n", str(CENSUS_TWISTED_MAX_N),
                   "--contrib-max-n", str(CENSUS_CONTRIB_MAX_N), check=lambda d: (
                       census_problems(d["twisted"]["classes"], d["twisted"]["rows"],
                                       CENSUS_TWISTED_CLASSES)
                       + census_problems(d["contrib"]["classes"], d["contrib"]["rows"],
                                         CENSUS_CONTRIB_CLASSES)))
        if cs:
            tw, co = cs["twisted"], cs["contrib"]
            total = took(cs, 0) + took(cs, 1)
            metrics.update({
                "census.twisted_s": took(cs, 0), "census.contrib_s": took(cs, 1),
                "census.classes_twisted": tw["classes"], "census.classes_contrib": co["classes"],
                "census.glue_share": (tw["glue_s"] + co["glue_s"]) / total,
                "census.enumerate_q_share": (tw["enumerate_q_s"] + co["enumerate_q_s"]) / total,
            })

    with bench.tracer.span("probe.cli", "bench"):
        cache = str(bench.run_dir / "probe-warm")
        fill = bench.cli("fill", "expand", "--n", "7", "--threads", str(THREADS),
                         "--cache", cache, "--format", "json")
        bench.verdict("probe cache fill", lambda: exit_problems(fill))
        coeff = ["--n", "7", "--mu", "3,3"]
        start, imports, inproc, whole, answers = [], [], [], [], []
        for _ in range(5):
            start.append(bench.launch([sys.executable, "-c", "pass"], "interp", "bench").secs)
            doc = probe("cli import", "import")
            if doc:
                imports.append(doc["import_s"])
            doc = probe("cli.main in-process", "coeff-inproc", *coeff, "--dir", cache,
                        check=lambda d: [] if d["code"] == 0 else ["cli.main did not return 0"])
            if doc:
                inproc.append(took(doc))
                answers.append(doc["answer"])
            p = bench.cli("coeff_process", "coeff", *coeff, "--threads", "1",
                          "--cache", cache, "--format", "json")
            bench.verdict("coeff process", lambda: exit_problems(p))
            if p.code == 0:
                whole.append(p.secs)
                with contextlib.suppress(ValueError):
                    answers.append(json.loads(p.out))
        bench.verdict("coeff answers agree", lambda: [] if answers and all(
            a == answers[0] for a in answers) else ["in-process and process answers differ"])
        metrics["cli.interp_start_ms"] = median(start) * 1e3
        if imports:
            metrics["cli.import_ms"] = median(imports) * 1e3
        if inproc:
            metrics["cli.coeff_inproc_ms"] = median(inproc) * 1e3
        if inproc and whole:
            metrics["cli.process_overhead_ms"] = (median(whole) - median(inproc)) * 1e3
    return metrics, absent


# ---------------------------------------------------------------------------
# one run


def machine_info() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": sys.version.split()[0],
            "numpy_importable": find_spec("numpy") is not None}


def loadavg() -> list[float] | None:
    with contextlib.suppress(OSError):
        return list(os.getloadavg())
    return None


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[workload_name]()
    WORK.mkdir(exist_ok=True)
    bench = Bench(Path(tempfile.mkdtemp(prefix="run-", dir=WORK)), Tracer(trace))
    tracer = bench.tracer
    load_before = loadavg()
    walls: list[float] = []
    try:
        # bytecode for the package up front, so that no set-up compiles it
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], cwd=ROOT,
                       env=bench.env, stdout=subprocess.DEVNULL, check=False)
        setups: list[float] = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            t0 = clock()
            workload.setup(bench)
            setups.append(clock() - t0)
        bench.phase = "oracle"
        t0 = clock()
        workload.oracle(bench)
        oracle_s = clock() - t0

        bench.phase = "timed"
        rng = random.Random(seed)
        iteration_spans: list[int] = []
        run_start = clock()
        ready = bench.failed == 0  # no timed phase after a failed set-up or oracle
        while ready and (len(walls) < workload.min_iterations or clock() - run_start < seconds):
            if clock() - run_start > RUN_BUDGET_S:
                break
            t0 = clock()
            with tracer.span(f"{workload.name}.iteration", "bench") as rec:
                workload.iterate(bench, rng, len(walls))
            walls.append(clock() - t0)
            if rec is not None:
                iteration_spans.append(rec["id"])
        loop_s = clock() - run_start
        load_after = loadavg()
        timed = bench.timed()
        report: dict = {}
        if not trace:
            metrics = {"setup_s": median(setups)}
            if timed:
                metrics.update({"wall_s": typical(timed, "secs"),
                                "cpu_s": typical(timed, "cpu_s"),
                                "peak_rss_mb": max(p.rss_mb for p in timed)})
        else:
            own = tracer.self_times()
            loop_spans = sum(1 for s in tracer.spans if s["root"] in set(iteration_spans))
            cost = span_cost_s()
            metrics, report["absent"] = probe_layers(bench)
            metrics["trace.span_cost_us"] = cost * 1e6
            if iteration_spans:
                metrics["trace.overhead_ratio"] = loop_spans * cost / loop_s
                metrics["trace.harness_self_ms"] = median(
                    [own[i] for i in iteration_spans]) * 1e3
            report["self_s_by_layer"] = tracer.self_by_layer()
        runnable = bench.others_runnable
        figures = {**workload.figures(bench),
                   "fail_ratio": (bench.failed / max(bench.attempted, 1), "ratio")}
        report.update({
            "workload": workload.name, "seed": seed, "seed_used": workload.seed_used,
            "seconds": seconds, "trace": trace, "machine": machine_info(),
            "load": {"loadavg_before": load_before, "loadavg_after": load_after,
                     "other_runnable_median": median(runnable),
                     "contended": bool(runnable) and median(runnable) >= 1},
            "iterations": len(walls), "iteration_s": walls,
            "setup_samples_s": setups, "oracle_s": oracle_s,
            "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
            "problems": bench.problems[:20],
        })
        if trace:
            trace_path = WORK / f"trace-{workload.name}.json"
            trace_path.write_text(json.dumps({"report": report, "spans": tracer.spans}))
            report["trace_file"] = str(trace_path.relative_to(ROOT))
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)

    result = {
        "correct": bench.failed == 0 and len(walls) > 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items() if k in UNITS},
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zkerov" / "cli.py").is_file():
        print(f"perfbench: no zkerov sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # a terminated run unwinds, so that its processes are stopped and reaped
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
