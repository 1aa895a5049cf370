"""Exact coefficient computation by a weighted orbit sum over gluings.

The scan tallies, for every matching of the 2n-gon's sides, every
admissible q-coloring into a per-monomial raw count.  The coefficient of
R_mu in the zonal Kerov polynomial K_n = R_(n+1) + ... is the signed raw
count (-1)^(n+1+V) * raw, with V = |mu| the monomial's vertex count; no
other factor enters, so every coefficient is an integer.  The tests check
this against an algebraic oracle (Jack characters and anisotropic free
cumulants at alpha=2) that shares no model with the enumeration.

The scan does not visit all (2n-1)!! matchings.  The color-preserving
dihedral group G of the polygon, of order 2n, consists of the rotations
s -> s+2k and the reflections of corners c -> 2k-c (on sides s -> 2k-1-s).
Both keep corner colors and map the identification rule of a side pair
to the rule of its image, so a matching and its image glue isomorphic
colored maps with the same admissible-coloring monomials.  The unordered
side pairs fall into G-orbits, the pair types (12 at n=8), numbered by
orbit size, largest first, then by representative {0, j}.  Every matching
M has a first type tau it contains; summing over the |O_tau| pairs of that
type and moving each onto the representative by an element of G gives

    sum over all M of f(M) = sum over tau of |O_tau| * sum of f(M)/c_tau(M)
                             over the M that contain the representative of
                             tau and no pair of an earlier type,

where c_tau(M) is the number of M's pairs of type tau.  The kernel
enumerates only those matchings (213,923 leaves instead of 2,027,025 at
n=8), pruning pairs of earlier types inside the recursion with a
precomputed type table, and adds the weight L*|O_tau|/c_tau(M) with
L = lcm(1..n), an integer since c_tau(M) <= n.  ``scan`` checks that the
weights sum to L*(2n-1)!! and divides every tally by L, raising
InternalConsistencyError on a remainder; both checks run on every scan.
A statistic kept beside the monomial (a future per-map key) must be
G-invariant for the same sum to hold; orientability is.

The scan kernel (_scan_branch) recurses over the tuple of still-free sides
and keeps a union-find incrementally along the recursion (undo on
backtrack) instead of re-gluing every matching from scratch.  Each side
pair merges at most one black and one white corner class, so the kernel
also keeps the number of live classes per colour; a leaf reads b and w in
O(1), and the leaves with w < b or b == 1 never touch the union-find.
Only the remaining leaves build their black/white adjacency masks, and the
Hall check on them is memoized per kernel call by (w, masks).  Tests
cross-validate the kernel against the straightforward glue()/enumerate_q()
path over every matching.

Small n runs in-process.  Otherwise the sum is split into one task per
(type, partner of the lowest side its representative leaves free), 76
tasks at n=8, handed to a process pool largest types first, and the
weighted tallies are merged by plain addition, so results are independent
of the worker count.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .admissibility import Monomial
from .partitions import compositions
from .polygon import double_factorial

DEFAULT_N_LIMIT = 8
FORCE_N_LIMIT = 10

CACHE_SCHEMA_VERSION = 1

# Smallest n whose scan goes to a process pool; below it pool start-up
# costs more than it saves.  Medians of 10 alternated pairs, fresh
# interpreters, 2-vCPU Intel Xeon, CPython 3.11.7, in-process vs 2 workers:
# n=5 2.4 vs 22 ms, n=6 11 vs 35 ms, n=7 104 vs 89 ms (pool faster in 10
# of 10 pairs), n=8 1.25 vs 0.72 s.
POOL_MIN_N = 7


class InternalConsistencyError(RuntimeError):
    """A quantity that must be exact (a matching total, an integral
    rational sum) came out wrong; signals an implementation bug."""


def rescaled_coefficient(n: int, mono: Monomial, raw_count: int) -> int:
    """Coefficient of R_mu in the zonal Kerov polynomial K_n from its raw
    (M,q) pair count: (-1)^(n+1+V) * raw_count with V = |mu|.

    In this normalization (Lassalle 2009, Feray-Sniady 2011) K_n begins
    with R_(n+1) and every coefficient is an integer; at n=6, for example,
    R_4 has -701 and R_2 -1348.
    """
    return -raw_count if (n + 1 + mono.vertex_count) % 2 else raw_count


# the same function under the name perfbench/job.py calls
rescaled_coefficient_exact = rescaled_coefficient


@dataclass(frozen=True)
class GenusPolynomial:
    """Terms of one genus stratum: monomial -> coefficient, plus the
    unsigned (M,q) pair counts."""

    n: int
    doubled_genus: int
    raw_counts: dict[Monomial, int]
    terms: dict[Monomial, int]


@dataclass(frozen=True)
class ScanResult:
    """Tallies over every matching of the 2n-gon."""

    n: int
    gluing_count: int
    tallies: dict[Monomial, int]  # monomial -> number of admissible (M,q) pairs


def check_limit(n: int, force: bool) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > FORCE_N_LIMIT:
        raise ValueError(f"n={n} exceeds the hard limit {FORCE_N_LIMIT}")
    if n > DEFAULT_N_LIMIT and not force:
        raise ValueError(
            f"n={n} exceeds the default limit {DEFAULT_N_LIMIT}; pass force=True (--force)"
        )


def _pair_types(n: int) -> tuple[list[list[int]], list[tuple[int, int]], list[int]]:
    """The G-orbits of unordered side pairs: (type table, representatives,
    orbit sizes).

    Types are numbered by orbit size, largest first, then by representative
    {0, j} with j smallest; ``table[a][b]`` is the type of {a, b} (-1 on the
    diagonal).
    """
    m = 2 * n
    images = [lambda s, t=t: (s + t) % m for t in range(0, m, 2)]
    images += [lambda s, t=t: (t - s) % m for t in range(1, m, 2)]
    orbits = []
    seen: set[tuple[int, int]] = set()
    for a in range(m):
        for b in range(a + 1, m):
            if (a, b) not in seen:
                orbit = {tuple(sorted((g(a), g(b)))) for g in images}
                seen |= orbit
                orbits.append((-len(orbit), min(orbit), orbit))
    orbits.sort()
    table = [[-1] * m for _ in range(m)]
    for tau, (_size, _rep, orbit) in enumerate(orbits):
        for a, b in orbit:
            table[a][b] = table[b][a] = tau
    return table, [rep for _size, rep, _orbit in orbits], [-size for size, _rep, _orbit in orbits]


def _branches(n: int) -> list[tuple[int, int | None]]:
    """Every (type, partner of the lowest side left free by the type's
    representative) the orbit sum visits, largest types first: the pool's
    tasks, 76 at n=8.  The partner is None at n=1, where nothing is left."""
    table, reps, _sizes = _pair_types(n)
    out: list[tuple[int, int | None]] = []
    for tau, rep in enumerate(reps):
        free = [s for s in range(2 * n) if s not in rep]
        if not free:
            out.append((tau, None))
        out.extend((tau, k) for k in free[1:] if table[free[0]][k] >= tau)
    return out


def _weight_denominator(n: int) -> int:
    """L = lcm(1..n): every orbit weight |O|/c with c <= n is an integer
    multiple of 1/L."""
    return math.lcm(*range(1, n + 1))


def _scan_branch(
    task: tuple[int, tuple[tuple[int, int | None], ...], int],
) -> tuple[int, int, dict[tuple[int, ...], int]]:
    """Weighted tallies of the matchings on the given branches.

    ``task`` is ``(n, branches, black_parity)`` with branches from
    ``_branches(n)``; a branch (tau, k) covers the matchings that contain
    the representative of type tau and the pair (lowest free side, k), and
    no pair of an earlier type.  Each such matching M counts with weight
    L*|O_tau|/c_tau(M) (module docstring).

    Returns (leaves, weighted matching total, {monomial parts: weighted
    raw count}); ``_exact_tallies`` divides the totals of all branches by L.
    """
    n, branches, black_parity = task
    m = 2 * n
    white_parity = 1 - black_parity
    table, reps, sizes = _pair_types(n)
    denominator = _weight_denominator(n)
    tally: dict[tuple[int, ...], int] = {}
    singles = [0] * (m + 1)  # weighted b == 1 leaves, by white count
    leaves = 0
    total = 0
    # per branch: step[a][b] is -1 for a pair of an earlier type, else the
    # number of type-tau pairs it adds; weights[c] the weight at c of them
    step: list[list[int]] = []
    weights: list[int] = []

    nxt = [c + 1 for c in range(m - 1)] + [0]
    parent = list(range(m))
    size = [1] * m
    live = [n, n]  # number of corner classes per corner parity
    hall_memo: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}

    def apply_pair(i: int, j: int) -> list[int]:
        # the color-preserving rule merges one class pair of each parity
        i1 = nxt[i]
        j1 = nxt[j]
        if (i ^ j) & 1:
            a, b, c, d = i, j1, i1, j
        else:
            a, b, c, d = i, j, i1, j1
        ops: list[int] = []
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            live[b & 1] -= 1
            ops.append(b)
        while parent[c] != c:
            c = parent[c]
        while parent[d] != d:
            d = parent[d]
        if c != d:
            if size[c] < size[d]:
                c, d = d, c
            parent[d] = c
            size[c] += size[d]
            live[d & 1] -= 1
            ops.append(d)
        return ops

    def undo(ops: list[int]) -> None:
        # the two merges touch classes of different parity, so any order works
        for rb in ops:
            size[parent[rb]] -= size[rb]
            parent[rb] = rb
            live[rb & 1] += 1

    def hall_keys(w: int, masks: list[int]) -> list[tuple[int, ...]]:
        # monomials of the admissible colorings of one black/white adjacency
        b = len(masks)
        full = 1 << b
        nbr_count = [0] * full
        nbr = [0] * full
        for a in range(1, full):
            low = a & -a
            nbr[a] = nbr[a ^ low] | masks[low.bit_length() - 1]
            nbr_count[a] = nbr[a].bit_count()
        need = [0] * full
        keys = []
        for comp in compositions(w, b, 1):
            ok = True
            for a in range(1, full - 1):
                low = a & -a
                req = need[a] = need[a ^ low] + comp[low.bit_length() - 1]
                if nbr_count[a] <= req:
                    ok = False
                    break
            if ok:
                keys.append(tuple(sorted((x + 1 for x in comp), reverse=True)))
        return keys

    def leaf(same: int) -> None:
        nonlocal leaves, total
        weight = weights[same]
        leaves += 1
        total += weight
        b = live[black_parity]
        w = live[white_parity]
        if w < b:
            return
        if b == 1:
            singles[w] += weight
            return
        root_of = []
        for c in range(m):
            while parent[c] != c:
                c = parent[c]
            root_of.append(c)
        black_index: dict[int, int] = {}
        white_bit: dict[int, int] = {}
        for c in range(black_parity, m, 2):
            if root_of[c] not in black_index:
                black_index[root_of[c]] = len(black_index)
        for c in range(white_parity, m, 2):
            if root_of[c] not in white_bit:
                white_bit[root_of[c]] = 1 << len(white_bit)
        # the two sides at each black corner cover every side once
        masks = [0] * b
        for c in range(black_parity, m, 2):
            masks[black_index[root_of[c]]] |= white_bit[root_of[c - 1]] | white_bit[root_of[nxt[c]]]
        key = (w, tuple(masks))
        keys = hall_memo.get(key)
        if keys is None:
            keys = hall_memo[key] = hall_keys(w, masks)
        for k in keys:
            tally[k] = tally.get(k, 0) + weight

    def rec(free: tuple[int, ...], same: int) -> None:
        # same: the number of type-tau pairs placed so far
        i = free[0]
        row = step[i]
        if len(free) == 2:
            d = row[free[1]]
            if d >= 0:
                ops = apply_pair(i, free[1])
                leaf(same + d)
                undo(ops)
            return
        for k in range(1, len(free)):
            d = row[free[k]]
            if d < 0:
                continue
            ops = apply_pair(i, free[k])
            rec(free[1:k] + free[k + 1:], same + d)
            undo(ops)

    for tau, k in branches:
        step = [[-1 if t < tau else int(t == tau) for t in row] for row in table]
        weights = [0] + [sizes[tau] * denominator // c for c in range(1, n + 1)]
        a, b = reps[tau]
        placed = [apply_pair(a, b)]
        free = tuple(s for s in range(m) if s != a and s != b)
        if k is None:
            leaf(1)
        else:
            same = 1 + step[free[0]][k]
            placed.append(apply_pair(free[0], k))
            free = tuple(s for s in free[1:] if s != k)
            if free:
                rec(free, same)
            else:
                leaf(same)
        for ops in reversed(placed):
            undo(ops)

    for w, c in enumerate(singles):
        if c:
            tally[(w + 1,)] = tally.get((w + 1,), 0) + c
    return leaves, total, tally


def _exact_tallies(
    n: int, results: list[tuple[int, int, dict[tuple[int, ...], int]]],
) -> dict[tuple[int, ...], int]:
    """Merge the weighted branch results of n and divide by L exactly.

    The weighted matching total must be L*(2n-1)!! and every weighted
    tally a multiple of L; anything else is an InternalConsistencyError.
    """
    denominator = _weight_denominator(n)
    total = 0
    merged: dict[tuple[int, ...], int] = {}
    for _leaves, weighted, tal in results:
        total += weighted
        for key, c in tal.items():
            merged[key] = merged.get(key, 0) + c
    expected = denominator * double_factorial(2 * n - 1)
    if total != expected:
        raise InternalConsistencyError(
            f"weighted matching total {total} at n={n}, expected {expected}"
        )
    tallies = {}
    for key, c in merged.items():
        q, r = divmod(c, denominator)
        if r:
            raise InternalConsistencyError(
                f"weighted count {c} of mu={key} at n={n} is not a multiple of {denominator}"
            )
        tallies[key] = q
    return tallies


def scan(
    n: int,
    *,
    threads: int = 1,
    cache_dir: str | Path | None = None,
    force: bool = False,
) -> ScanResult:
    """Tallies over every matching of the 2n-gon by the weighted orbit sum,
    or from the cache when ``cache_dir`` holds a valid file for n."""
    check_limit(n, force)
    if cache_dir is not None:
        cached = load_cache(cache_dir, n)
        if cached is not None:
            return cached

    branches = _branches(n)
    if threads == 1 or n < POOL_MIN_N:
        raw_results = [_scan_branch((n, tuple(branches), 0))]
    else:
        tasks = [(n, (branch,), 0) for branch in branches]
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            raw_results = list(pool.map(_scan_branch, tasks))

    tallies = _exact_tallies(n, raw_results)
    result = ScanResult(
        n=n,
        gluing_count=double_factorial(2 * n - 1),
        tallies={Monomial(parts): c for parts, c in tallies.items()},
    )
    if cache_dir is not None:
        write_cache(cache_dir, result)
    return result


def strata(result: ScanResult, doubled_genus: int | None = None) -> list[GenusPolynomial]:
    """The genus strata of one scan, doubledGenus ascending; with
    ``doubled_genus``, just that stratum, empty when no term has it."""
    n = result.n
    by_genus: dict[int, dict[Monomial, int]] = {} if doubled_genus is None else {doubled_genus: {}}
    for m, c in result.tallies.items():
        dg = n + 1 - m.vertex_count
        if doubled_genus in (None, dg):
            by_genus.setdefault(dg, {})[m] = c
    return [
        GenusPolynomial(
            n=n,
            doubled_genus=dg,
            raw_counts=raw,
            terms={m: rescaled_coefficient(n, m, c) for m, c in raw.items()},
        )
        for dg, raw in sorted(by_genus.items())
    ]


# a file where a directory belongs, or the reverse: a usage error, not a miss
_UNUSABLE_PATH = (FileExistsError, NotADirectoryError, IsADirectoryError)


def cache_path(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / f"zkerov-cache-v{CACHE_SCHEMA_VERSION}-n{n}.json"


def write_cache(cache_dir: str | Path, result: ScanResult) -> Path:
    """Write the tallies of one n; a temporary file in the same directory is
    renamed over the target, so readers never see a partial file."""
    path = cache_path(cache_dir, result.n)
    doc = {
        "schemaVersion": CACHE_SCHEMA_VERSION,
        "n": result.n,
        "gluings": str(result.gluing_count),
        "tallies": [
            {"mu": list(m.parts), "rawCount": str(result.tallies[m])}
            for m in sorted(result.tallies, key=lambda m: m.parts, reverse=True)
        ],
    }
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=2) + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except _UNUSABLE_PATH as exc:
        raise ValueError(f"unusable cache path {path}: {exc.strerror}") from exc
    return path


def _decimal(value: Any, what: str) -> int:
    # write_cache renders every count as a string of ASCII digits
    if not (isinstance(value, str) and value.isascii() and value.isdecimal()):
        raise ValueError(f"{what} is {value!r}, expected a decimal string")
    return int(value)


def _parse_cache(doc: Any, n: int) -> ScanResult:
    # imported here: closedform imports this module
    from .closedform import partition_polynomial

    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    if doc.get("schemaVersion") != CACHE_SCHEMA_VERSION:
        raise ValueError(f"schemaVersion is {doc.get('schemaVersion')!r}")
    if doc.get("n") != n:
        raise ValueError(f"n is {doc.get('n')!r}, expected {n}")
    gluings = _decimal(doc["gluings"], "gluings")
    if gluings != double_factorial(2 * n - 1):
        raise ValueError(f"gluings is {gluings}, expected {double_factorial(2 * n - 1)}")
    tallies: dict[Monomial, int] = {}
    for entry in doc["tallies"]:
        if not entry["mu"] or any(type(a) is not int for a in entry["mu"]):
            raise ValueError(f"mu is {entry['mu']!r}, expected a nonempty list of integers")
        mono = Monomial(tuple(entry["mu"]))
        raw = _decimal(entry["rawCount"], "rawCount")
        if mono.vertex_count > n + 1 or raw < 1 or mono in tallies:
            raise ValueError(f"impossible entry mu={entry['mu']} rawCount={raw}")
        tallies[mono] = raw
    genus_one = {
        m: rescaled_coefficient(n, m, c)
        for m, c in tallies.items()
        if m.vertex_count == n - 1
    }
    if genus_one != partition_polynomial(n).terms:
        raise ValueError("genus-one stratum disagrees with the closed form")
    return ScanResult(n=n, gluing_count=gluings, tallies=tallies)


def load_cache(cache_dir: str | Path, n: int) -> ScanResult | None:
    """Tallies of one n from the cache, or None on a miss.

    A file that does not parse or fails validation (schema, n, gluing total,
    part and vertex bounds, genus-one stratum against the closed form) is a
    miss too, reported on stderr.  A path that cannot hold the file raises
    ValueError.
    """
    path = cache_path(cache_dir, n)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    except _UNUSABLE_PATH as exc:
        raise ValueError(f"unusable cache path {path}: {exc.strerror}") from exc
    try:
        return _parse_cache(json.loads(data.decode("utf-8")), n)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"zkerov: warning: ignoring invalid cache file {path}: {exc}", file=sys.stderr)
        return None
