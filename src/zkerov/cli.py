"""Batch command-line interface.

Subcommands: coeff, expand, genus1, census, selftest.  Exit codes:
0 success, 1 usage error, 2 verification mismatch, 3 internal
consistency failure.

JSON output is schema-stable: object keys are emitted in a fixed order,
partition parts descend, and unbounded counts (raw counts, coefficients,
gluing totals) are rendered as decimal strings so consumers never face
integer-precision surprises.  Identical inputs produce byte-identical
JSON regardless of --threads.

Each subcommand imports what it runs: ``census`` and ``selftest`` load
their modules when they are chosen, so a query answered from the cache
pays for neither, and the engine forks its scan workers directly, without
loading ``concurrent.futures`` or ``multiprocessing``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from .admissibility import Monomial
from .closedform import genus1_mismatches, partition_polynomial
from .engine import (
    InternalConsistencyError,
    WorkerDiedError,
    check_limit,
    rescaled_coefficient,
    scan,
    strata,
)
from .polygon import double_factorial, one_face_counts, twisted_gluing_counts

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3

# the closed form grows about 4x in time and memory per 10 n: n=60 takes
# 3.6-4.7 s and 280 MB, so some n in the 80s would be killed instead
_GENUS1_MAX_N = 60
# the most gluings a census yields at one n: n=8's matchings (45 s, 1.9 GB
# peak for JSON); n=9 was killed by SIGKILL on an 8 GB host
_CENSUS_UNIVERSE_LIMIT = double_factorial(15)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for
    # verification mismatches
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_mu(text: str) -> Monomial:
    try:
        return Monomial(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        raise ValueError(f"--mu expects comma-separated integers >= 2, got {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="zkerov", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, *, n: bool = True, n_required: bool = False,
                   threads_help: str = "worker processes for the enumeration pass",
                   cache: bool = True) -> None:
        if n:
            p.add_argument("--n", type=int, required=n_required, help="number of map edges")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1, help=threads_help)
        p.add_argument("--format", choices=("json", "table"), default="table")
        if cache:
            p.add_argument("--cache", dest="cache_dir", metavar="DIR", default=None,
                           help="directory for per-n tally cache files")

    p = sub.add_parser("coeff", help="one monomial coefficient by exhaustive enumeration")
    add_common(p, n_required=True)
    p.add_argument("--mu", required=True, help="partition, e.g. 3,2")

    p = sub.add_parser("expand", help="genus-stratified expansion by exhaustive enumeration")
    add_common(p, n_required=True)
    p.add_argument("--genus-doubled", type=int, default=None, help="restrict to one stratum")

    p = sub.add_parser("genus1", help="genus-one closed form (optionally verified)")
    add_common(p, n_required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check all three closed forms against enumeration")

    p = sub.add_parser("census", help="symmetry classes of gluings")
    # census keeps no tallies, so it takes no --cache
    add_common(p, threads_help="accepted and ignored: census runs in one process", cache=False)
    p.add_argument("--genus-doubled", type=int, default=None)
    p.add_argument("--reduced", action="store_true", help="min degree 3 and bridgeless")
    p.add_argument("--reduced-bipartite", action="store_true")
    p.add_argument("--contributing", action="store_true",
                   help="admits at least one admissible q-coloring")
    p.add_argument("--twisted", action="store_true", help="use the twisted gluing universe")
    p.add_argument("--dihedral", action="store_true",
                   help="identify classes under the full dihedral group")
    p.add_argument("--max-n", type=int, default=None,
                   help="pool n=1..max-n for a preset; not with --n")

    p = sub.add_parser("selftest", help="run the verification battery")
    # selftest checks the kernel at n=1..max-n, never the cache
    add_common(p, n=False, cache=False)
    p.add_argument("--max-n", type=int, default=6)

    return parser


def _validate(args: argparse.Namespace) -> None:
    """Usage checks argparse cannot express; replaces --mu by its Monomial."""
    for name, least in (("n", 1), ("threads", 1), ("max_n", 1), ("genus_doubled", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")
    if getattr(args, "mu", None) is not None:
        args.mu = _parse_mu(args.mu)
        # |mu| counts a map's vertices, and a one-face map with n edges has
        # at most n + 1 (doubled genus n + 1 - |mu| >= 0)
        if args.mu.vertex_count > args.n + 1:
            raise ValueError(f"--mu has {args.mu.vertex_count} vertices, but a map with "
                             f"n={args.n} edges has at most {args.n + 1}")


# ---------------------------------------------------------------------------
# rendering


def _emit(doc: dict[str, Any], args: argparse.Namespace, table: str) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(table if table.endswith("\n") else table + "\n")


def _camel(name: str) -> str:
    first, *rest = name.split("_")
    return first + "".join(word.title() for word in rest)


def _term_rows(poly_terms: dict[Monomial, int], raw: dict[Monomial, int] | None = None):
    for mono in sorted(poly_terms, key=lambda m: m.parts, reverse=True):
        row = {"mu": list(mono.parts)}
        if raw is not None:
            row["rawCount"] = str(raw[mono])
        row["coefficient"] = str(poly_terms[mono])
        yield mono, row


# ---------------------------------------------------------------------------
# subcommands


def cmd_coeff(args: argparse.Namespace) -> int:
    mono = args.mu
    result = scan(args.n, threads=args.threads, cache_dir=args.cache_dir)
    raw = result.tallies.get(mono, 0)
    coeff = rescaled_coefficient(args.n, mono, raw)
    v = mono.vertex_count
    doc = {
        "command": "coeff",
        "n": args.n,
        "mu": list(mono.parts),
        "vertexCount": v,
        "doubledGenus": args.n + 1 - v,
        "rawCount": str(raw),
        "coefficient": str(coeff),
    }
    table = (
        f"n={args.n} mu={mono.label()} vertices={v} doubledGenus={args.n + 1 - v}\n"
        f"rawCount={raw} coefficient={coeff}"
    )
    _emit(doc, args, table)
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    result = scan(args.n, threads=args.threads, cache_dir=args.cache_dir)
    parts = [p for p in strata(result, args.genus_doubled) if p.terms]
    doc_parts = []
    lines = [f"n={args.n} gluings={result.gluing_count}"]
    for p in parts:
        rows = []
        lines.append(f"doubledGenus={p.doubled_genus}:")
        for mono, row in _term_rows(p.terms, p.raw_counts):
            rows.append(row)
            lines.append(
                f"  {mono.label():<20} raw={p.raw_counts[mono]:<12} coeff={p.terms[mono]}"
            )
        doc_parts.append({"doubledGenus": p.doubled_genus, "terms": rows})
    doc = {
        "command": "expand",
        "n": args.n,
        "gluings": str(result.gluing_count),
        "parts": doc_parts,
    }
    _emit(doc, args, "\n".join(lines))
    return EXIT_OK


def cmd_genus1(args: argparse.Namespace) -> int:
    if args.n > _GENUS1_MAX_N:
        raise ValueError(f"n={args.n} exceeds the genus1 limit {_GENUS1_MAX_N}")
    if args.verify:
        check_limit(args.n)
    closed = partition_polynomial(args.n)
    rows = [row for _m, row in _term_rows(closed.terms)]
    lines = [f"n={args.n} genus-one closed form:"]
    for mono, _row in _term_rows(closed.terms):
        lines.append(f"  {mono.label():<20} {closed.terms[mono]}")
    if not closed.terms:
        lines.append("  (empty)")
    doc: dict[str, Any] = {"command": "genus1", "n": args.n, "terms": rows}

    code = EXIT_OK
    if args.verify:
        result = scan(args.n, threads=args.threads, cache_dir=args.cache_dir)
        mismatches = genus1_mismatches(args.n, result)
        doc["verification"] = {
            "status": "ok" if not mismatches else "mismatch",
            "routes": ["per-partition", "tuple-family sum", "symmetrized sum", "enumeration"],
            "mismatches": mismatches,
        }
        lines.append("verified: per-partition == tuple-family == symmetrized == enumeration"
                      if not mismatches else "VERIFICATION FAILED:")
        lines.extend(f"  {m}" for m in mismatches)
        if mismatches:
            code = EXIT_VERIFY
    _emit(doc, args, "\n".join(lines))
    return code


def cmd_census(args: argparse.Namespace) -> int:
    from . import census as census_mod

    # the options given on the command line; a preset fills in the rest
    options = {
        "universe": "twisted" if args.twisted else "matchings",
        "reduced_only": args.reduced,
        "reduced_bipartite_only": args.reduced_bipartite,
        "contributing_only": args.contributing,
    }
    if args.genus_doubled is not None:
        options["doubled_genus"] = args.genus_doubled
    if args.dihedral:
        options["convention"] = census_mod.DIHEDRAL
    if args.n is not None:
        if args.max_n is not None:
            raise ValueError("census takes --n or --max-n, not both")
        ns: Sequence[int] = [args.n]
    else:
        if args.twisted and args.reduced:
            name = "reduced"
        elif args.reduced_bipartite and args.contributing:
            name = "contributing"
        else:
            raise ValueError("census needs --n, or one of the presets "
                             "(--twisted --reduced | --reduced-bipartite --contributing)")
        default_max_n, defaults = census_mod.PRESETS[name]
        ns = range(1, (default_max_n if args.max_n is None else args.max_n) + 1)
        options = {**defaults, **options}
    n = max(ns)
    check_limit(n)
    doubled_genus = options.get("doubled_genus")
    # the gluings the census yields at its largest n, where its stratum is
    # largest.  A genus that a preset supplies is not sized: each preset's
    # reduced filter keeps no class past a small n, so it holds little at
    # any --max-n.
    twisted = options["universe"] == "twisted"
    if doubled_genus is None:
        walked = sum(twisted_gluing_counts(n)) if twisted else double_factorial(2 * n - 1)
    elif args.genus_doubled is not None:
        if twisted:
            counts = twisted_gluing_counts(n)
            walked = counts[doubled_genus] if doubled_genus <= n else 0
        else:
            # a map of b black and w white vertices has V = b + w
            walked = sum(count for (b, w), count in one_face_counts(n).items()
                         if b + w == n + 1 - doubled_genus)
    else:
        walked = 0
    if walked > _CENSUS_UNIVERSE_LIMIT:
        stratum = ("without --genus-doubled" if doubled_genus is None
                   else f"of doubled genus {doubled_genus}")
        raise ValueError(f"a census at n={n} {stratum} walks {walked:,} gluings, "
                         f"more than the limit {_CENSUS_UNIVERSE_LIMIT:,}")
    convention = options.setdefault("convention", census_mod.CYCLIC)

    classes = census_mod.census_classes(ns, **options)
    rows = []
    lines = [
        f"universe={options['universe']} convention={convention} "
        f"ns={list(ns)} classes={len(classes)}"
    ]
    for c in classes:
        # a row is the class record; json writes its tuples as lists
        row = {_camel(field): value for field, value in c._asdict().items()}
        row["representative"] = c.representative._asdict()
        rows.append(row)
        lines.append(
            f"  n={c.n} orbit={c.orbit_size} stab={c.stabilizer_order} "
            f"degrees={list(c.degree_sequence)} rep={c.representative.pairing}"
            + (f" twists={''.join('T' if t else 'S' for t in c.representative.twists)}"
               if c.representative.twists else "")
        )
    doc = {
        "command": "census",
        "universe": options["universe"],
        "convention": convention,
        "ns": list(ns),
        "filters": {
            "doubledGenus": doubled_genus,
            "reduced": args.reduced,
            "reducedBipartite": args.reduced_bipartite,
            "contributing": args.contributing,
        },
        "classCount": len(classes),
        "classes": rows,
    }
    _emit(doc, args, "\n".join(lines))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest as selftest_mod

    checks = selftest_mod.run_selftest(max_n=args.max_n, threads=args.threads)
    ok = all(c.passed for c in checks)
    rows = [{"name": c.name, "status": "ok" if c.passed else "fail", "detail": c.detail}
            for c in checks]
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]
    lines.append(f"selftest: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    doc = {
        "command": "selftest",
        "maxN": args.max_n,
        "status": "ok" if ok else "fail",
        "checks": rows,
    }
    _emit(doc, args, "\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY


_COMMANDS = {
    "coeff": cmd_coeff,
    "expand": cmd_expand,
    "genus1": cmd_genus1,
    "census": cmd_census,
    "selftest": cmd_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        return _COMMANDS[args.subcommand](args)
    except InternalConsistencyError as exc:
        print(f"zkerov: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except WorkerDiedError as exc:
        print(f"zkerov: internal failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"zkerov: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
