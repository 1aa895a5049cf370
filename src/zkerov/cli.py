"""Batch command-line interface.

Subcommands: coeff, expand, genus1, census, selftest.  Exit codes:
0 success, 1 usage error, 2 verification mismatch, 3 internal
consistency failure.

JSON output is schema-stable: object keys are emitted in a fixed order,
partition parts descend, and unbounded counts (raw counts, coefficients,
gluing totals) are rendered as decimal strings so consumers never face
integer-precision surprises.  Identical inputs produce byte-identical
JSON regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Sequence

from . import census as census_mod
from . import selftest as selftest_mod
from .admissibility import Monomial
from .closedform import partition_polynomial
from .engine import (
    DEFAULT_N_LIMIT,
    FORCE_N_LIMIT,
    InternalConsistencyError,
    check_limit,
    rescaled_coefficient,
    scan,
    strata,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for
    # verification mismatches
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_mu(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--mu expects comma-separated integers, got {text!r}") from exc
    if not parts or any(p < 2 for p in parts):
        raise UsageError(f"--mu parts must all be >= 2, got {text!r}")
    return tuple(sorted(parts, reverse=True))


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
        p.add_argument("--force", action="store_true",
                       help=f"allow n up to {FORCE_N_LIMIT} (default limit {DEFAULT_N_LIMIT})")

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
    p.add_argument("--bipartite", action="store_true", help="matching universe filter")
    p.add_argument("--reduced", action="store_true", help="min degree 3 and bridgeless")
    p.add_argument("--reduced-bipartite", action="store_true")
    p.add_argument("--contributing", action="store_true",
                   help="admits at least one admissible q-coloring")
    p.add_argument("--twisted", action="store_true", help="use the twisted gluing universe")
    p.add_argument("--dihedral", action="store_true",
                   help="identify classes under the full dihedral group")
    p.add_argument("--max-n", type=int, default=None,
                   help="pool n=1..max-n when --n is not given")

    p = sub.add_parser("selftest", help="run the verification battery")
    # selftest checks the kernel at n=1..max-n, never the cache
    add_common(p, n=False, cache=False)
    p.add_argument("--max-n", type=int, default=6)

    return parser


def _validate(args: argparse.Namespace) -> None:
    """Usage checks argparse cannot express; replaces --mu by its parts."""
    if getattr(args, "mu", None) is not None:
        args.mu = _parse_mu(args.mu)
    for name, least in (("n", 1), ("threads", 1), ("max_n", 1), ("genus_doubled", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise UsageError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")


# ---------------------------------------------------------------------------
# rendering


def _emit(doc: dict[str, Any], args: argparse.Namespace, table: str) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(table if table.endswith("\n") else table + "\n")


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
    mono = Monomial(args.mu)
    result = scan(args.n, threads=args.threads, cache_dir=args.cache_dir, force=args.force)
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
    result = scan(args.n, threads=args.threads, cache_dir=args.cache_dir, force=args.force)
    parts = strata(result)
    if args.genus_doubled is not None:
        parts = [p for p in parts if p.doubled_genus == args.genus_doubled]
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
        doc_parts.append({
            "doubledGenus": p.doubled_genus,
            "terms": rows,
            # every coefficient is an integer; the key stays for schema stability
            "inexactCoefficients": [],
        })
    doc = {
        "command": "expand",
        "n": args.n,
        "gluings": str(result.gluing_count),
        "parts": doc_parts,
    }
    _emit(doc, args, "\n".join(lines))
    return EXIT_OK


def cmd_genus1(args: argparse.Namespace) -> int:
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
        result = scan(args.n, threads=args.threads, cache_dir=args.cache_dir, force=args.force)
        mismatches = selftest_mod.genus1_mismatches(args.n, result)
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
    convention = census_mod.DIHEDRAL if args.dihedral else census_mod.CYCLIC
    doubled_genus = args.genus_doubled
    if args.n is not None:
        ns: Sequence[int] = [args.n]
    elif args.twisted and args.reduced:
        # the pinned reduced-census preset: pooled small n, dihedral identity
        ns = range(1, (3 if args.max_n is None else args.max_n) + 1)
        convention = census_mod.DIHEDRAL
        if doubled_genus is None:
            doubled_genus = 2
    elif args.reduced_bipartite and args.contributing:
        ns = range(1, (6 if args.max_n is None else args.max_n) + 1)
        if doubled_genus is None:
            doubled_genus = 2
    else:
        raise UsageError("census needs --n, or one of the presets "
                         "(--twisted --reduced | --reduced-bipartite --contributing)")
    check_limit(max(ns), args.force)

    classes = census_mod.census_classes(
        ns,
        universe="twisted" if args.twisted else "matchings",
        doubled_genus=doubled_genus,
        reduced_only=args.reduced,
        reduced_bipartite_only=args.reduced_bipartite,
        bipartite_only=args.bipartite,
        contributing_only=args.contributing,
        convention=convention,
    )
    rows = []
    lines = [
        f"universe={'twisted' if args.twisted else 'matchings'} convention={convention} "
        f"ns={list(ns)} classes={len(classes)}"
    ]
    for c in classes:
        rows.append({
            "n": c.n,
            "representative": {
                "pairing": list(c.representative.pairing),
                "twists": list(c.representative.twists) if c.representative.twists else None,
            },
            "orbitSize": c.orbit_size,
            "stabilizerOrder": c.stabilizer_order,
            "groupOrder": c.group_order,
            "degreeSequence": list(c.degree_sequence),
            "bipartite": c.bipartite,
            "blackDegrees": list(c.black_degrees) if c.black_degrees is not None else None,
            "bridgeless": c.bridgeless,
            "doubledGenus": c.doubled_genus,
            "reduced": c.reduced,
            "reducedBipartite": c.reduced_bipartite,
            "contributing": c.contributing,
        })
        lines.append(
            f"  n={c.n} orbit={c.orbit_size} stab={c.stabilizer_order} "
            f"degrees={list(c.degree_sequence)} rep={c.representative.pairing}"
            + (f" twists={''.join('T' if t else 'S' for t in c.representative.twists)}"
               if c.representative.twists else "")
        )
    doc = {
        "command": "census",
        "universe": "twisted" if args.twisted else "matchings",
        "convention": convention,
        "ns": list(ns),
        "filters": {
            "doubledGenus": doubled_genus,
            "bipartite": args.bipartite,
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
    checks = selftest_mod.run_selftest(max_n=args.max_n, threads=args.threads, force=args.force)
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
    except UsageError as exc:
        print(f"zkerov: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalConsistencyError as exc:
        print(f"zkerov: internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenProcessPool as exc:
        print(f"zkerov: internal failure: a worker process died ({exc})", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"zkerov: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
