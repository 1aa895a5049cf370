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
enumerates only those matchings, pruning pairs of earlier types inside
the recursion with a precomputed type table, and adds the weight
L*|O_tau|/c_tau(M) with L = lcm(1..n), an integer since c_tau(M) <= n.

The kernel also never places a pair of ``polygon.black_leaf_pairs``
(``_type_table``), whose docstring shows f(M) = 0 for a matching that
holds one.  The n banned pairs are disjoint and form one whole G-orbit,
the last pair type, so the matchings without one form a G-invariant
universe and the orbit sum over it keeps its weights.  At n=8 the
kernel visits 128,733 leaves (213,923 without the ban, 2,027,025
matchings in all).
A statistic kept beside the monomial must be G-invariant for the same
sum to hold; the map's numbers b and w of black and white vertices are,
and so is orientability (a future per-map key).  The kernel adds each
leaf's weight to the (b, w) cell of its map as well, a count over
matchings rather than admissible colorings, so ``scan`` checks every
cell against L times the number of matchings in it with no banned pair
(``polygon.unbanned_cells``, from the one-face formula
``polygon.one_face_counts``; 26 cells at n=8, 40 at n=10), and divides
every tally by L, raising InternalConsistencyError on a wrong cell or a
remainder; both checks run on every scan.

The scan kernel (_scan_branch) recurses over the tuple of still-free
sides.  A side pair merges one pair of black and one pair of white corners,
and each colour's corner classes, a set partition of its n corners, are a
state of an automaton built per kernel call on first use (``_Partitions``).
The recursion passes (black state, white state) down, so a merge is two
table lookups and nothing is undone on backtrack: at n=8 about 217k merges
meet 2,732 states and 12,875 distinct transitions.

A matching's last pair never merges two classes.  Once the other n-1 pairs
are glued, the polygon is a surface whose boundary is the two free sides s
and t.  A side's two ends have different colours, so no side closes a
boundary circle on its own: s and t form one circle and already share the
class of their black ends and that of their white ends, which are exactly
the corners the last pair identifies.  So no leaf merges anything: the
blocks of the two states before the last pair are the map's b black and w
white vertices.  The frame of the recursion with eight or fewer free
sides places the rest from a plan, built on first use and kept while the
branches of one type run, since which pairs the type table allows depends
only on the type and the free sides.  The plan of eight or six sides holds
each partner of the first side that the table allows, with its black and
white merge codes and its count of type-tau pairs, and under it the plan
of the other sides when that is not empty; the plan of four or fewer holds
the completions whose pairs the table allows, with the merge codes of their
first pair (code 0, which merges element 0 with itself, when there is
none) and their count of type-tau pairs.  The frame runs three levels
inline and tests no pair.  For n >= 6 it always starts at eight sides;
for n <= 5 a branch leaves fewer, and the frame puts one level (six
sides) or two (four or fewer) that merge nothing above their plan.  At
n=8 it is entered 3,309 times and builds 995 plans of eight sides, 1,453
of six and 967 of four (42,317, 2,925, 2,786 and 1,355 at n=9).  A leaf
only adds its weight to a table keyed by (black state, white state),
inline in that frame and kept across branches and types.  After a branch
that leaves it with more than TABLE_BOUND pairs, and at the end of the
call, one pass reads each state pair once and empties the table.  It
adds each pair's weight to its (b, w) cell.  One black vertex has the one
monomial (w+1), read off the (1, w) cell at the end of the call, and
w < b has none; any other pair's weight also goes to the call's weight of
(w, black/white adjacency masks), read off the two states, with the white
blocks next to each black element read once per white state until the
table empties.  At the end Hall's condition runs once per distinct
(w, masks) and gives that weight to each admissible monomial.  At n=8 the
128,733 leaves give 15,051 state pairs in two passes, 4,453 of them with
one black vertex or w < b, 2,361 white-bit lists and 577 distinct (w,
masks); a pass after every branch read 23,789 pairs and built 5,207 lists
(n=9: 174,302 pairs in 18 passes against 206,854).  The bound, 2^13, keeps
the peak RSS where a pass after every branch kept it: 55.1 against 55.0 MB
for ``scan(10, threads=2)``, 17.2 against 16.7 MB for three one-thread
``scan(8)`` calls (2^14: 56.1 and 18.1 MB; 2^16: 60.5 MB at n=10).
Tests cross-validate the kernel against the glue()/enumerate_q() path
over every matching and over its image under the color swap, the side
shift by one (``polygon.shift_gluing``).

A branch of the sum is the tuple of side pairs it places first: a type's
representative and a partner of the lowest side that leaves free, when
neither is banned (66 branches at n=8; at n=1 the representative alone).
The kernel enters each branch the same way: it merges the branch's pairs
and recurses on the sides left free.  Small n runs in-process.
Otherwise the branches, largest types first, are dealt into one task per
worker in boustrophedon order (0, 1, ..., k-1, k-1, ..., 0, 0, 1, ...),
which at n=8 gives the two tasks 64,751 and 63,982 leaves.  The weighted
tallies are merged by plain addition, so results are independent of the
worker count.  A task builds its automaton and its tables once for all
its branches, which one task per branch would repeat.

Each task runs in a child forked for it (``_fork_map``), which sends its
marshalled result back through a pipe and leaves by ``os._exit``.  A child
that exits non-zero, is killed or sends a short result, or whose kernel
raises, makes ``scan`` raise WorkerDiedError, which ``cli.main`` reports as
an internal failure (exit 3); the other children are then killed, and
every child is reaped.  Child k runs on the k-th of the CPUs the scan may
use, in turn (``os.sched_setaffinity``, skipped where the platform lacks
it).  Left to the scheduler, the two children of ``scan(8, threads=2)``
often shared one vCPU of a 2-vCPU Xeon: over 20 fresh interpreters the
call took 0.23 s in the median and 0.25 s at p90, against 0.12 and 0.13 s
pinned.  Where ``os.fork`` is missing the scan runs in-process.  A fork
copies only the calling thread, so a caller that runs threads of its own
should scan with threads=1; the CLI starts none.  No
scan loads ``concurrent.futures`` or ``multiprocessing``, and ``tempfile``
is imported only when a cache file is written, so a query answered from
the cache loads neither.
"""

from __future__ import annotations

import contextlib
import json
import marshal
import math
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, BinaryIO, Callable, NamedTuple, NoReturn

from .admissibility import Monomial
from .partitions import InternalConsistencyError, compositions, exact_quotient
from .polygon import black_leaf_pairs, double_factorial, one_face_counts, unbanned_cells

N_LIMIT = 10

CACHE_SCHEMA_VERSION = 1

# Smallest n whose scan goes to forked workers; below it forking costs more
# than it saves.  10 alternated pairs, fresh interpreters (imports included),
# 2-vCPU Intel Xeon, CPython 3.11.7, in-process vs 2 forked children: at n=7
# the children were faster in 0, 9 and 0 of 10 in three runs (medians 35-37
# vs 30-47 ms); at n=8 in 4, 10 and 7 of 10 (medians 0.26-0.27 vs
# 0.16-0.28 s), varying with the host's load, so n=8 stays on the workers.
# With pinned workers and one state-pair table per kernel call, scan(7,
# threads=2) timed inside 20 alternated fresh interpreters: forked faster
# in 2 of 20, twice (medians 20.0 vs 17.9 ms, then 13.8 vs 10.6 ms).
POOL_MIN_N = 8

# A kernel call's (black state, white state) table moves into its (w,
# masks) weights after a branch only when it holds more than this many
# pairs, and at the end of the call (module docstring).
TABLE_BOUND = 1 << 13


class WorkerDiedError(RuntimeError):
    """A worker process of the scan died, or its kernel raised, before it
    returned its tallies."""


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


class GenusPolynomial(NamedTuple):
    """Terms of one genus stratum: monomial -> coefficient, plus the
    unsigned (M,q) pair counts."""

    doubled_genus: int
    raw_counts: dict[Monomial, int]
    terms: dict[Monomial, int]


class ScanResult(NamedTuple):
    """Tallies over every matching of the 2n-gon."""

    n: int
    gluing_count: int
    tallies: dict[Monomial, int]  # monomial -> number of admissible (M,q) pairs


def check_limit(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > N_LIMIT:
        raise ValueError(f"n={n} exceeds the hard limit {N_LIMIT}")


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


def _type_table(n: int) -> tuple[list[list[int]], list[tuple[int, int]], list[int]]:
    """``_pair_types`` with the ban applied: ``table[a][b]`` is -1 for each
    pair of ``polygon.black_leaf_pairs(n)`` (none at n = 1)."""
    table, reps, sizes = _pair_types(n)
    for a, b in black_leaf_pairs(n):
        table[a][b] = table[b][a] = -1
    return table, reps, sizes


def _branches(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The branches the orbit sum visits, largest types first: each is the
    tuple of side pairs it places first, the representative of its type
    and, unless that is the whole matching (n = 1), the pair of the lowest
    side it leaves free.  66 branches at n=8, dealt by ``scan`` into one
    pool task per worker.  Branches that would place a banned pair
    (``_type_table``) are left out, the banned type among them, so no
    branch is empty."""
    table, reps, _sizes = _type_table(n)
    out: list[tuple[tuple[int, int], ...]] = []
    for tau, (a, b) in enumerate(reps):
        if table[a][b] < 0:
            continue
        free = [s for s in range(2 * n) if s != a and s != b]
        if not free:
            out.append(((a, b),))
        out.extend(((a, b), (free[0], k)) for k in free[1:] if table[free[0]][k] >= tau)
    return out


def _weight_denominator(n: int) -> int:
    """L = lcm(1..n): every orbit weight |O|/c with c <= n is an integer
    multiple of 1/L."""
    return math.lcm(*range(1, n + 1))


class _Partitions:
    """Set partitions of range(n) as state ids, built on first use.

    State s is the restricted-growth string ``strings[s]``, one byte per
    element: element e lies in block ``strings[s][e]``, blocks numbered by
    their first element, and there are ``blocks[s]`` of them; state 0 has
    every element alone.  ``trans[s][code(u, v)]`` is the state after
    merging the blocks of u and v, or -1 until ``merge`` first builds it."""

    def __init__(self, n: int) -> None:
        self.pairs = [(u, v) for v in range(n) for u in range(v + 1)]
        self.strings = [bytes(range(n))]
        self.blocks = [n]
        self.trans = [[-1] * len(self.pairs)]
        self.ids = {self.strings[0]: 0}
        # relabel[keep][drop] moves block drop into block keep < drop and
        # the blocks after drop down by one: the merged block keeps the
        # lower label, whose first element comes first
        labels = self.strings[0]
        self.relabel = [
            [bytes.maketrans(labels, bytes(keep if x == drop else x - (x > drop) for x in labels))
             for drop in range(n)]
            for keep in range(n)
        ]

    @staticmethod
    def code(u: int, v: int) -> int:
        u, v = sorted((u, v))
        return v * (v + 1) // 2 + u

    def merge(self, state: int, code: int) -> int:
        target = self.trans[state][code]
        if target < 0:
            u, v = self.pairs[code]
            rgs = self.strings[state]
            keep, drop = rgs[u], rgs[v]
            if keep == drop:
                target = state
            else:
                if keep > drop:
                    keep, drop = drop, keep
                rgs = rgs.translate(self.relabel[keep][drop])
                target = self.ids.get(rgs)
                if target is None:
                    target = self.ids[rgs] = len(self.strings)
                    self.strings.append(rgs)
                    self.blocks.append(self.blocks[state] - 1)
                    self.trans.append([-1] * len(self.pairs))
            self.trans[state][code] = target
        return target


def _hall_keys(w: int, masks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Monomials of the admissible colorings of a map with w white vertices
    and black vertex i next to the whites of bitmask ``masks[i]``: one per
    composition of w that passes Hall's condition, none when w < b."""
    b = len(masks)
    full = 1 << b
    nbr = [0] * full
    for a in range(1, full):
        low = a & -a
        nbr[a] = nbr[a ^ low] | masks[low.bit_length() - 1]
    need = [0] * full
    keys = []
    for comp in compositions(w, b, 1):
        for a in range(1, full - 1):
            low = a & -a
            req = need[a] = need[a ^ low] + comp[low.bit_length() - 1]
            if nbr[a].bit_count() <= req:
                break
        else:
            keys.append(tuple(sorted((x + 1 for x in comp), reverse=True)))
    return keys


# the last pairs on eight or fewer free sides (``_scan_branch``): on six
# or more, (black code, white code, d, plan of the rest) per first pair; on
# four or fewer, (black code, white code, e + f) per completion
_Plan = list[tuple[Any, ...]]


def _scan_branch(
    task: tuple[int, tuple[tuple[tuple[int, int], ...], ...]],
) -> tuple[int, dict[tuple[int, int], int], dict[tuple[int, ...], int]]:
    """Weighted tallies of the matchings on the given branches.

    ``task`` is ``(n, branches)`` with branches from ``_branches(n)``; a
    branch covers the matchings that contain its pairs, the first the
    representative of a type tau, and neither a pair of an earlier type
    nor a banned pair.  Each such matching M counts with weight
    L*|O_tau|/c_tau(M) (module docstring).

    A leaf adds its weight to ``agg[black state][white state]``, a table
    kept across branches; a pass moves each pair's weight to its (b, w)
    cell, ``grid[b][w]``, and, unless b = 1 or w < b, to
    ``graphs[(w, masks)]``, which ``_hall_keys`` classifies once per call.
    The single-part tallies are the (1, w) cells (module docstring).

    Returns (leaves, {(b, w): weighted matching count}, {monomial parts:
    weighted raw count}); ``_exact_tallies`` checks the cells of all
    branches and divides their tallies by L.
    """
    n, branches = task
    m = 2 * n
    table, _reps, sizes = _type_table(n)
    denominator = _weight_denominator(n)
    leaves = 0
    # per type tau: step[a][b] is -1 for a banned pair or one of an earlier
    # type, else the number of type-tau pairs it adds; weights[c] the
    # weight at c of them; agg[bs][ws] the weight of the leaves at (bs, ws)
    # since the table last moved
    step: list[list[int]] = []
    weights: list[int] = []
    agg: defaultdict[int, dict[int, int]] = defaultdict(dict)

    automaton = _Partitions(n)
    merge, trans = automaton.merge, automaton.trans
    blocks, strings = automaton.blocks, automaton.strings

    def code(i: int, j: int, parity: int) -> int:
        # {i, j} merges corners i, j+1 and i+1, j when i and j differ in parity,
        # else i, j and i+1, j+1: the merge of this parity's two, c as c // 2
        flip = (i ^ parity) & 1
        return automaton.code((i + flip) % m // 2, (j + ((i ^ j) & 1 ^ flip)) % m // 2)

    black = [[code(i, j, 0) for j in range(m)] for i in range(m)]
    white = [[code(i, j, 1) for j in range(m)] for i in range(m)]
    # the white elements next to each black element
    around = [(((c - 1) % m) // 2, (c + 1) % m // 2) for c in range(0, m, 2)]
    # over all branches: weight by (b, w) cell, as grid[b][w], and by
    # (w, masks)
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    graphs: dict[tuple[int, tuple[int, ...]], int] = {}
    # the plan of each eight or fewer free sides (``plan_of``), kept while
    # the branches of one type run; emptied with agg: the white-block bits
    # next to each black element, per white state
    plans: dict[tuple[int, ...], _Plan] = {}
    white_bits: dict[int, list[int]] = {}

    def rec(free: tuple[int, ...], same: int, bs: int, ws: int) -> None:
        # same: the type-tau pairs placed so far; bs, ws: black and white
        # states; the frame with eight or fewer free sides places the rest
        # from the type's plan for them, under one or two levels that merge
        # nothing when fewer than eight are free (module docstring)
        nonlocal leaves
        black_trans, white_trans = trans[bs], trans[ws]
        if len(free) > 8:
            i = free[0]
            row, black_row, white_row = step[i], black[i], white[i]
            for k in range(1, len(free)):
                x = free[k]
                d = row[x]
                if d < 0:
                    continue
                b = black_trans[black_row[x]]
                if b < 0:
                    b = merge(bs, black_row[x])
                w = white_trans[white_row[x]]
                if w < 0:
                    w = merge(ws, white_row[x])
                rec(free[1:k] + free[k + 1:], same + d, b, w)
            return
        plan = plans.get(free)
        if plan is None:
            plan = plans[free] = plan_of(free)
        for _ in range(min(2, 4 - len(free) // 2)):
            plan = [(0, 0, 0, plan)]
        for black_code, white_code, d, six in plan:
            b = black_trans[black_code]
            if b < 0:
                b = merge(bs, black_code)
            w = white_trans[white_code]
            if w < 0:
                w = merge(ws, white_code)
            black_six, white_six = trans[b], trans[w]
            same_d = same + d
            for black_code2, white_code2, d2, completions in six:
                b2 = black_six[black_code2]
                if b2 < 0:
                    b2 = merge(b, black_code2)
                w2 = white_six[white_code2]
                if w2 < 0:
                    w2 = merge(w, white_code2)
                # only a completion's first pair is merged: the last merges nothing
                black_next, white_next = trans[b2], trans[w2]
                same_d2 = same_d + d2
                leaves += len(completions)
                for black_code3, white_code3, ef in completions:
                    b3 = black_next[black_code3]
                    if b3 < 0:
                        b3 = merge(b2, black_code3)
                    w3 = white_next[white_code3]
                    if w3 < 0:
                        w3 = merge(w2, white_code3)
                    cell = agg[b3]
                    cell[w3] = cell.get(w3, 0) + weights[same_d2 + ef]

    def plan_of(free: tuple[int, ...]) -> _Plan:
        # the last pairs on the free sides under this type's step.  On four
        # or fewer: the completions whose pairs step allows, as (black code,
        # white code, e + f) of their first pair, code 0 where there is none.
        # On six or eight: for each partner x of free[0] that step allows,
        # the merge codes and d of (free[0], x), and, when it is not empty,
        # the plan of the other sides
        if len(free) < 4:
            d = step[free[0]][free[1]] if free else 0
            return [(0, 0, d)] if d >= 0 else []
        if len(free) == 4:
            j, p, q, r = free
            return [
                (black[j][y], white[j][y], step[j][y] + step[u][v])
                for y, u, v in ((p, q, r), (q, p, r), (r, p, q))
                if step[j][y] >= 0 and step[u][v] >= 0
            ]
        i = free[0]
        plan = []
        for k in range(1, len(free)):
            x = free[k]
            d = step[i][x]
            if d < 0:
                continue
            rest = free[1:k] + free[k + 1:]
            after = plans.get(rest)
            if after is None:
                after = plans[rest] = plan_of(rest)
            if after:
                plan.append((black[i][x], white[i][x], d, after))
        return plan

    def move() -> None:
        # the pass over agg, which it empties (module docstring)
        for bs, row in agg.items():
            b = blocks[bs]
            black_labels, cell_row = strings[bs], grid[b]
            for ws, weight in row.items():
                w = blocks[ws]
                cell_row[w] += weight
                if b == 1 or w < b:
                    continue
                bits = white_bits.get(ws)
                if bits is None:
                    labels = strings[ws]
                    bits = white_bits[ws] = [1 << labels[x] | 1 << labels[y] for x, y in around]
                masks = [0] * b
                for label, bit in zip(black_labels, bits):
                    masks[label] |= bit
                key = (w, tuple(masks))
                graphs[key] = graphs.get(key, 0) + weight
        agg.clear()
        white_bits.clear()

    tau = -1
    for branch in branches:
        a, b = branch[0]
        if table[a][b] != tau:
            # the first branch of a type: a plan depends only on the type
            # and the free sides, so the last type's plans go
            tau = table[a][b]
            step = [[-1 if t < tau else int(t == tau) for t in row] for row in table]
            weights = [0] + [sizes[tau] * denominator // c for c in range(1, n + 1)]
            plans.clear()
        # _branches emits only pairs that step allows
        same = bs = ws = 0
        for i, j in branch:
            same += step[i][j]
            bs, ws = merge(bs, black[i][j]), merge(ws, white[i][j])
        rec(tuple(s for s in range(m) if all(s not in pair for pair in branch)), same, bs, ws)
        if sum(map(len, agg.values())) > TABLE_BOUND:
            move()
    move()

    del rec, plan_of  # they refer to themselves: free the tables now, not at the next gc
    cells = {(b, w): weight for b, row in enumerate(grid) for w, weight in enumerate(row) if weight}
    # one black vertex has the one monomial (w+1)
    tally = {(w + 1,): weight for w, weight in enumerate(grid[1]) if weight}
    for (w, masks), weight in graphs.items():
        for parts in _hall_keys(w, masks):
            tally[parts] = tally.get(parts, 0) + weight
    return leaves, cells, tally


def _tasks(n: int, count: int) -> list[tuple[int, tuple[tuple[tuple[int, int], ...], ...]]]:
    """The branches of n dealt into min(count, branches) kernel tasks in
    boustrophedon order, 0, 1, ..., k-1, k-1, ..., 0 and again, so that no
    task always draws the larger of two neighbouring branches: the two
    tasks at n=8 hold 64,751 and 63,982 leaves."""
    branches = _branches(n)
    period = 2 * min(count, len(branches))
    return [
        (n, tuple(br for p, br in enumerate(branches) if p % period in (k, period - 1 - k)))
        for k in range(period // 2)
    ]


def _fork_map(fn: Callable[[Any], Any], tasks: list[Any]) -> list[Any]:
    """``[fn(task) for task in tasks]``, each call in a forked child that
    sends its result, marshalled, through a pipe.

    A child that exits non-zero, is killed or sends a short result raises
    WorkerDiedError, and so does an exception in ``fn``, whose type and
    text the child sends instead.  On any failure the children still
    running are killed; every child is reaped before this returns.  Child
    k runs on the k-th of the CPUs this process may use, in turn, where
    the platform lets a process choose (module docstring)."""
    import signal  # here, so that a query answered from the cache skips it

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else [None]
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe
    try:
        for k, task in enumerate(tasks):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(fn, task, w, cpus[k % len(cpus)])
            # closed before the next fork, so that only this child holds it
            os.close(w)
            children[pid] = open(r, "rb")
        results = []
        for pid in list(children):
            with children[pid] as reader:
                data = reader.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code:
                how = f"exit code {code}" if code > 0 else f"killed by signal {-code}"
                raise WorkerDiedError(f"a worker process died ({how})")
            try:
                result, error = marshal.loads(data)
            except (EOFError, ValueError, TypeError):
                raise WorkerDiedError(
                    f"a worker process died (short result of {len(data)} bytes)"
                ) from None
            if error is not None:
                raise WorkerDiedError(f"a worker process raised {error}")
            results.append(result)
        return results
    finally:
        for pid, reader in children.items():
            reader.close()
            # a child reaped above but not yet dropped from the dict is gone
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(fn: Callable[[Any], Any], task: Any, w: int, cpu: int | None) -> NoReturn:
    # a forked child of _fork_map: it leaves by os._exit, so none of the
    # parent's cleanup (finally blocks, atexit, buffered output) runs twice
    status = 1
    try:
        if cpu is not None:
            # a CPU taken away since the parent read its set leaves the
            # child where the scheduler puts it
            with contextlib.suppress(OSError):
                os.sched_setaffinity(0, {cpu})
        try:
            message = (fn(task), None)
        except Exception as exc:
            message = (None, f"{type(exc).__name__}: {exc}")
        with open(w, "wb") as out:
            out.write(marshal.dumps(message))
        status = 0
    finally:
        os._exit(status)


def _exact_tallies(
    n: int, results: list[tuple[int, dict[tuple[int, int], int], dict[tuple[int, ...], int]]],
) -> dict[tuple[int, ...], int]:
    """Merge the weighted branch results of n and divide by L exactly.

    Each weighted (b, w) cell must be L times the number of matchings with
    no banned pair and b black and w white vertices
    (``polygon.unbanned_cells``), and every weighted tally a multiple of L;
    anything else is an InternalConsistencyError.
    """
    denominator = _weight_denominator(n)
    cells: Counter[tuple[int, int]] = Counter()
    merged: Counter[tuple[int, ...]] = Counter()
    for _leaves, branch_cells, branch_tally in results:
        cells.update(branch_cells)
        merged.update(branch_tally)
    expected = Counter({cell: denominator * c for cell, c in unbanned_cells(n).items()})
    for cell in sorted(cells.keys() | expected.keys()):
        if cells[cell] != expected[cell]:
            raise InternalConsistencyError(
                f"weighted count {cells[cell]} of the (b, w) = {cell} cell at n={n}, "
                f"expected {expected[cell]}"
            )
    return {
        key: exact_quotient(c, denominator, f"raw count of mu={key} at n={n}")
        for key, c in merged.items()
    }


def scan(
    n: int,
    *,
    threads: int = 1,
    cache_dir: str | Path | None = None,
) -> ScanResult:
    """Tallies over every matching of the 2n-gon by the weighted orbit sum,
    or from the cache when ``cache_dir`` holds a valid file for n."""
    check_limit(n)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if cache_dir is not None:
        cached = load_cache(cache_dir, n)
        if cached is not None:
            return cached

    if threads == 1 or n < POOL_MIN_N or not hasattr(os, "fork"):
        raw_results = [_scan_branch((n, tuple(_branches(n))))]
    else:
        raw_results = _fork_map(_scan_branch, _tasks(n, threads))

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
            doubled_genus=dg,
            raw_counts=raw,
            terms={m: rescaled_coefficient(n, m, c) for m, c in raw.items()},
        )
        for dg, raw in sorted(by_genus.items())
    ]


def _unusable(path: Path, exc: OSError) -> ValueError:
    # a file where a directory belongs, a denied permission, a full disk:
    # a usage error naming the path, not a cache miss
    return ValueError(f"unusable cache path {path}: {exc.strerror or exc}")


def cache_path(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / f"zkerov-cache-v{CACHE_SCHEMA_VERSION}-n{n}.json"


def write_cache(cache_dir: str | Path, result: ScanResult) -> Path:
    """Write the tallies of one n; a temporary file in the same directory is
    renamed over the target, so readers never see a partial file.  An
    OSError removes the temporary file and raises ValueError."""
    import tempfile

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
    except OSError as exc:
        raise _unusable(path, exc) from exc
    return path


def _decimal(value: Any, what: str) -> int:
    # write_cache renders every count as a string of ASCII digits
    if not (isinstance(value, str) and value.isascii() and value.isdecimal()):
        raise ValueError(f"{what} is {value!r}, expected a decimal string")
    return int(value)


def _parse_cache(doc: Any, n: int) -> ScanResult:
    # imported here: closedform imports this module
    from .closedform import genus1_mismatches

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
    # R_(w+1) counts the matchings with one black vertex and w white ones
    single = {mono.parts[0] - 1: raw for mono, raw in tallies.items() if len(mono.parts) == 1}
    if single != {w: c for (b, w), c in one_face_counts(n).items() if b == 1}:
        raise ValueError("a single-part raw count disagrees with the one-face counts")
    result = ScanResult(n=n, gluing_count=gluings, tallies=tallies)
    if genus1_mismatches(n, result):
        raise ValueError("genus-one stratum disagrees with the closed form")
    return result


def load_cache(cache_dir: str | Path, n: int) -> ScanResult | None:
    """Tallies of one n from the cache, or None on a miss.

    A file that does not parse or fails validation (schema, n, gluing total,
    part and vertex bounds, single-part counts by the b = 1 cells of
    ``polygon.one_face_counts``, genus-one stratum by ``genus1_mismatches``)
    is a miss too, reported on stderr.  Any other OSError reading the file (a
    path that cannot hold it, a denied permission) raises ValueError.
    """
    path = cache_path(cache_dir, n)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise _unusable(path, exc) from exc
    try:
        return _parse_cache(json.loads(data.decode("utf-8")), n)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        print(f"zkerov: warning: ignoring invalid cache file {path}: {exc}", file=sys.stderr)
        return None
