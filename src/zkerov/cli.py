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
from dataclasses import dataclass
from typing import Any, Sequence

from . import census as census_mod
from . import selftest as selftest_mod
from .admissibility import Monomial
from .closedform import partition_polynomial, family_sum_polynomial, symmetrized_polynomial
from .engine import (
    DEFAULT_N_LIMIT,
    FORCE_N_LIMIT,
    InternalConsistencyError,
    coefficient,
    genus_part,
    scan,
    strata,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    subcommand: str
    n: int | None = None
    mu: tuple[int, ...] | None = None
    doubled_genus: int | None = None
    threads: int = 1
    format: str = "table"
    cache_dir: str | None = None
    verify: bool = False
    max_n: int | None = None
    force: bool = False
    # census-only switches
    bipartite: bool = False
    reduced: bool = False
    reduced_bipartite: bool = False
    contributing: bool = False
    twisted: bool = False
    dihedral: bool = False


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

    def add_common(p: argparse.ArgumentParser, *, n_required: bool = False) -> None:
        p.add_argument("--n", type=int, required=n_required, help="number of map edges")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker processes for the enumeration pass")
        p.add_argument("--format", choices=("json", "table"), default="table")
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
    add_common(p)
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
    add_common(p)
    p.add_argument("--max-n", type=int, default=6)

    return parser


def _config(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=ns.subcommand)
    for name in ("n", "threads", "format", "cache_dir", "force"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if getattr(ns, "mu", None) is not None:
        cfg.mu = _parse_mu(ns.mu)
    if getattr(ns, "genus_doubled", None) is not None:
        cfg.doubled_genus = ns.genus_doubled
    cfg.verify = getattr(ns, "verify", False)
    if getattr(ns, "max_n", None) is not None:
        cfg.max_n = ns.max_n
    for name in ("bipartite", "reduced", "contributing", "twisted", "dihedral"):
        setattr(cfg, name, getattr(ns, name, False))
    cfg.reduced_bipartite = getattr(ns, "reduced_bipartite", False)
    if cfg.n is not None and cfg.n < 1:
        raise UsageError(f"--n must be >= 1, got {cfg.n}")
    if cfg.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {cfg.threads}")
    return cfg


# ---------------------------------------------------------------------------
# rendering


def _emit(doc: dict[str, Any], cfg: RunConfig, table: str) -> None:
    if cfg.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(table if table.endswith("\n") else table + "\n")


def _mu_json(parts: tuple[int, ...]) -> list[int]:
    return list(parts)


def _term_rows(poly_terms: dict[Monomial, int], raw: dict[Monomial, int] | None = None):
    for mono in sorted(poly_terms, key=lambda m: m.parts, reverse=True):
        row = {"mu": _mu_json(mono.parts)}
        if raw is not None:
            row["rawCount"] = str(raw[mono])
        row["coefficient"] = str(poly_terms[mono])
        yield mono, row


# ---------------------------------------------------------------------------
# subcommands


def cmd_coeff(cfg: RunConfig) -> int:
    mono = Monomial(cfg.mu)
    raw, coeff = coefficient(
        cfg.n, mono, threads=cfg.threads, cache_dir=cfg.cache_dir, force=cfg.force
    )
    v = mono.vertex_count
    doc = {
        "command": "coeff",
        "n": cfg.n,
        "mu": _mu_json(mono.parts),
        "vertexCount": v,
        "doubledGenus": cfg.n + 1 - v,
        "rawCount": str(raw),
        "coefficient": str(coeff),
    }
    table = (
        f"n={cfg.n} mu={mono.label()} vertices={v} doubledGenus={cfg.n + 1 - v}\n"
        f"rawCount={raw} coefficient={coeff}"
    )
    _emit(doc, cfg, table)
    return EXIT_OK


def cmd_expand(cfg: RunConfig) -> int:
    result = scan(cfg.n, threads=cfg.threads, cache_dir=cfg.cache_dir, force=cfg.force)
    parts = strata(result)
    if cfg.doubled_genus is not None:
        parts = [p for p in parts if p.doubled_genus == cfg.doubled_genus]
    doc_parts = []
    lines = [f"n={cfg.n} gluings={result.gluing_count}"]
    for p in parts:
        rows = []
        lines.append(f"doubledGenus={p.doubled_genus}:")
        for mono, row in _term_rows(p.terms, p.raw_counts):
            rows.append(row)
            note = "" if "/" not in row["coefficient"] else "  (inexact halving)"
            lines.append(
                f"  {mono.label():<20} raw={p.raw_counts[mono]:<12} coeff={p.terms[mono]}{note}"
            )
        doc_parts.append({
            "doubledGenus": p.doubled_genus,
            "terms": rows,
            "inexactCoefficients": [_mu_json(m.parts) for m in p.inexact_monomials()],
        })
    doc = {
        "command": "expand",
        "n": cfg.n,
        "gluings": str(result.gluing_count),
        "parts": doc_parts,
    }
    _emit(doc, cfg, "\n".join(lines))
    return EXIT_OK


def cmd_genus1(cfg: RunConfig) -> int:
    closed = partition_polynomial(cfg.n)
    rows = [row for _m, row in _term_rows(closed.terms)]
    lines = [f"n={cfg.n} genus-one closed form:"]
    for mono, _row in _term_rows(closed.terms):
        lines.append(f"  {mono.label():<20} {closed.terms[mono]}")
    if not closed.terms:
        lines.append("  (empty)")
    doc: dict[str, Any] = {"command": "genus1", "n": cfg.n, "terms": rows}

    code = EXIT_OK
    if cfg.verify:
        mismatches: list[str] = []
        reference = {m.parts: v for m, v in closed.terms.items()}
        for name, other in (
            ("tuple-family sum", family_sum_polynomial(cfg.n)),
            ("symmetrized sum", symmetrized_polynomial(cfg.n)),
        ):
            got = {m.parts: v for m, v in other.terms.items()}
            if got != reference:
                mismatches.append(f"{name} disagrees: {got} != {reference}")
        enum_part = genus_part(
            cfg.n, 2, threads=cfg.threads, cache_dir=cfg.cache_dir, force=cfg.force
        )
        enum_terms = {m.parts: v for m, v in enum_part.terms.items()}
        enum_raw = {m.parts: v for m, v in enum_part.raw_counts.items()}
        if enum_terms != reference:
            mismatches.append(f"enumeration disagrees: {enum_terms} != {reference}")
        if enum_raw != enum_terms:
            mismatches.append("genus-one rescale factor is not 1")
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
    _emit(doc, cfg, "\n".join(lines))
    return code


def cmd_census(cfg: RunConfig) -> int:
    convention = census_mod.DIHEDRAL if cfg.dihedral else census_mod.CYCLIC
    doubled_genus = cfg.doubled_genus
    if cfg.n is not None:
        ns: Sequence[int] = [cfg.n]
    elif cfg.twisted and cfg.reduced:
        # the pinned reduced-census preset: pooled small n, dihedral identity
        ns = range(1, (cfg.max_n if cfg.max_n else 3) + 1)
        convention = census_mod.DIHEDRAL
        if doubled_genus is None:
            doubled_genus = 2
    elif cfg.reduced_bipartite and cfg.contributing:
        ns = range(1, (cfg.max_n if cfg.max_n else 6) + 1)
        if doubled_genus is None:
            doubled_genus = 2
    else:
        raise UsageError("census needs --n, or one of the presets "
                         "(--twisted --reduced | --reduced-bipartite --contributing)")

    classes = census_mod.census_classes(
        ns,
        universe="twisted" if cfg.twisted else "matchings",
        doubled_genus=doubled_genus,
        reduced_only=cfg.reduced,
        reduced_bipartite_only=cfg.reduced_bipartite,
        bipartite_only=cfg.bipartite,
        contributing_only=cfg.contributing,
        convention=convention,
    )
    rows = []
    lines = [
        f"universe={'twisted' if cfg.twisted else 'matchings'} convention={convention} "
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
        "universe": "twisted" if cfg.twisted else "matchings",
        "convention": convention,
        "ns": list(ns),
        "filters": {
            "doubledGenus": doubled_genus,
            "bipartite": cfg.bipartite,
            "reduced": cfg.reduced,
            "reducedBipartite": cfg.reduced_bipartite,
            "contributing": cfg.contributing,
        },
        "classCount": len(classes),
        "classes": rows,
    }
    _emit(doc, cfg, "\n".join(lines))
    return EXIT_OK


def cmd_selftest(cfg: RunConfig) -> int:
    checks = selftest_mod.run_selftest(max_n=cfg.max_n, threads=cfg.threads)
    ok = all(c.passed for c in checks)
    rows = [{"name": c.name, "status": "ok" if c.passed else "fail", "detail": c.detail}
            for c in checks]
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in checks]
    lines.append(f"selftest: {'all checks passed' if ok else 'FAILURES PRESENT'}")
    doc = {
        "command": "selftest",
        "maxN": cfg.max_n,
        "status": "ok" if ok else "fail",
        "checks": rows,
    }
    _emit(doc, cfg, "\n".join(lines))
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
    ns = parser.parse_args(argv)
    try:
        cfg = _config(ns)
        return _COMMANDS[cfg.subcommand](cfg)
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
