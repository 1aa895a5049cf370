import contextlib
import copy
import io
import json
import marshal
import os
import re
import tempfile
import time
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import zkerov.engine as engine
from zkerov.admissibility import (
    BipartiteGraph,
    Monomial,
    candidate_colorings,
    enumerate_q,
    hall_condition,
)
from zkerov.cli import main
from zkerov.engine import (
    InternalConsistencyError,
    cache_path,
    load_cache,
    rescaled_coefficient,
    scan,
    strata,
    write_cache,
)
from zkerov.polygon import (
    black_leaf_pairs,
    double_factorial,
    enumerate_gluings,
    glue,
    reflect_gluing,
    rotate_gluing,
    shift_gluing,
)


class TestRescaling:
    def test_genus_one_factor_is_one(self):
        assert rescaled_coefficient(3, Monomial((2,)), 4) == 4
        assert rescaled_coefficient(6, Monomial((3, 2)), 143) == 143

    def test_sign_and_power(self):
        # zonal K_2 = R_3 - R_2: the sign is the whole rescale, no power of two
        # V=3 at n=2: positive sign
        assert rescaled_coefficient(2, Monomial((3,)), 1) == 1
        # V=2 at n=2: negative sign
        assert rescaled_coefficient(2, Monomial((2,)), 1) == -1

    def test_r4_of_zonal_k6_is_the_signed_raw_count(self):
        # R_4 in zonal K_6 is -701: the raw count with the sign, nothing divided
        assert rescaled_coefficient(6, Monomial((4,)), 701) == -701

    def test_coefficient_is_an_int_under_both_names(self):
        # the zonal coefficient is the signed raw count, an int, not -701/2;
        # perfbench/job.py calls the function as rescaled_coefficient_exact
        value = rescaled_coefficient(6, Monomial((4,)), 701)
        assert value == -701 and type(value) is int
        assert rescaled_coefficient(6, Monomial((3, 2)), 143) == 143
        assert engine.rescaled_coefficient_exact is engine.rescaled_coefficient


class TestScanAgainstBruteForce:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tallies_match_independent_oracle(self, n):
        expected_total, expected_tallies = oracle.tally(n)
        result = scan(n)
        assert result.gluing_count == expected_total
        assert {m.parts: c for m, c in result.tallies.items()} == expected_tallies

    def test_worker_count_does_not_change_results(self):
        serial = scan(5, threads=1)
        parallel = scan(5, threads=3)
        assert serial.gluing_count == parallel.gluing_count
        assert serial.tallies == parallel.tallies


def merged(results):
    total = 0
    tally: dict[tuple[int, ...], int] = {}
    for _leaves, weighted, part in results:
        total += weighted
        for key, c in part.items():
            tally[key] = tally.get(key, 0) + c
    return total, tally


def monomial_multiset(g):
    return Counter(mono.parts for _q, mono in enumerate_q(glue(g)))


class TestOrbitSymmetry:
    """The orbit sum relies on every element of the color-preserving
    dihedral group G keeping a gluing's admissible-coloring monomials; the
    check runs on glue()/enumerate_q(), which share no code with the kernel,
    for every matching.  That covers the color swaps too: the odd side shift
    permutes the matchings and conjugates G onto itself (a reflection
    c -> k - c becomes c -> k + 2 - c), so checking the swapped maps would
    test the same (matching, image) pairs again."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rotations_and_color_preserving_reflections_keep_monomials(self, n):
        counts = {g.pairing: monomial_multiset(g) for g in enumerate_gluings(n)}
        for g in enumerate_gluings(n):
            images = [rotate_gluing(g, r) for r in range(n)]
            images += [reflect_gluing(g, k) for k in range(0, 2 * n, 2)]
            for image in images:
                assert counts[image.pairing] == counts[g.pairing], (g, image)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_pair_types_partition_the_pairs_into_orbits(self, n):
        table, reps, sizes = engine._pair_types(n)
        m = 2 * n
        assert sum(sizes) == n * (2 * n - 1)
        assert sizes == sorted(sizes, reverse=True)
        for tau, (a, b) in enumerate(reps):
            assert a == 0 and table[a][b] == tau
            assert sum(row.count(tau) for row in table) == 2 * sizes[tau]
        for a in range(m):
            for b in range(a + 1, m):
                t = table[a][b]
                assert table[(a + 2) % m][(b + 2) % m] == t
                assert table[(1 - a) % m][(1 - b) % m] == t

    def test_twelve_types_and_66_tasks_at_eight(self):
        # 76 tasks before the ban; its type and the banned partners drop out
        assert len(engine._pair_types(8)[1]) == 12
        assert len(engine._branches(8)) == 66

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_a_branch_is_a_representative_and_a_partner_of_the_lowest_free_side(self, n):
        table, reps, _sizes = engine._type_table(n)
        taus = []
        for (a, b), (i, k) in engine._branches(n):
            tau = table[a][b]
            assert tau >= 0 and (a, b) == reps[tau]
            assert i == min(set(range(2 * n)) - {a, b}) and table[i][k] >= tau
            taus.append(tau)
        assert taus == sorted(taus)


def banned_pairs(n, parity):
    """The side pairs {c-1, c} around the corners c of the given parity
    (0: the black corners); side s joins corners s and s+1."""
    m = 2 * n
    return {tuple(sorted(((c - 1) % m, c))) for c in range(parity, m, 2)}


class TestBan:
    """The kernel never places a pair around a black corner (n >= 2).  The
    premise is checked on glue()/enumerate_q(), which share no code with
    the kernel, over every matching that holds such a pair.  The color
    swaps need no run of their own: the odd side shift maps the matchings
    with a pair around an odd corner one to one onto those with a pair
    around a black corner, so their swapped maps are the maps checked
    here."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gluings_with_a_banned_pair_have_no_admissible_coloring(self, n):
        banned = banned_pairs(n, 0)
        held = 0
        for g in enumerate_gluings(n):
            if banned.isdisjoint(g.pairs()):
                continue
            held += 1
            assert next(enumerate_q(glue(g)), None) is None, g
        assert held == double_factorial(2 * n - 1) - engine._unbanned_matchings(n)

    @pytest.mark.parametrize("shift", [0, 1])
    def test_lone_matching_at_one_is_not_banned(self, shift):
        [g] = enumerate_gluings(1)
        assert g.pairs() == [(0, 1)] and banned_pairs(1, shift) == {(0, 1)}
        assert [mono.parts for _q, mono in enumerate_q(glue(shift_gluing(g, shift)))] == [(2,)]
        assert engine._type_table(1)[0][0][1] == 0
        assert engine._branches(1) == [((0, 1),)]

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_the_banned_pairs_are_one_whole_type(self, n, shift):
        """The kernel's banned pairs are the last type; moved by the color
        swap they are the pairs around the odd corners, again one whole
        type, since the side shift by one maps G-orbits onto G-orbits."""
        table = engine._type_table(n)[0]
        m = 2 * n
        got = {(a, b) for a in range(m) for b in range(a + 1, m) if table[a][b] < 0}
        moved = {tuple(sorted(((a + shift) % m, (b + shift) % m))) for a, b in got}
        assert moved == banned_pairs(n, shift)
        types, _reps, sizes = engine._pair_types(n)
        [tau] = {types[a][b] for a, b in moved}
        assert sizes[tau] == n
        if shift == 0:
            assert tau == len(sizes) - 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_type_table_bans_exactly_the_black_leaf_pairs(self, n):
        table = engine._type_table(n)[0]
        m = 2 * n
        got = {(a, b) for a in range(m) for b in range(a + 1, m) if table[a][b] < 0}
        assert got == set(black_leaf_pairs(n))

    def test_unbanned_matchings_equal_a_brute_count(self):
        for n in range(1, 8):
            banned = banned_pairs(n, 0) if n >= 2 else set()
            brute = sum(1 for g in enumerate_gluings(n) if banned.isdisjoint(g.pairs()))
            assert engine._unbanned_matchings(n) == brute, n

    def test_unbanned_matchings_are_pinned(self):
        # OEIS A053871 from n=2 on
        assert [engine._unbanned_matchings(n) for n in range(1, 9)] == [
            1, 2, 8, 60, 544, 6040, 79008, 1190672,
        ]


class TestScanKernel:
    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_glue_enumerate_q_reference(self, n, shift):
        """The kernel's one coloring against every matching's map, or
        (shift 1) against the color swap of every matching's map."""
        expected: dict[tuple[int, ...], int] = {}
        for g in enumerate_gluings(n):
            for _q, mono in enumerate_q(glue(shift_gluing(g, shift))):
                expected[mono.parts] = expected.get(mono.parts, 0) + 1
        result = engine._scan_branch((n, tuple(engine._branches(n))))
        assert engine._exact_tallies(n, [result]) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_last_pair_merges_nothing(self, n):
        """The kernel's leaves read b and w before the last pair: gluing
        every pair but any one already gives glue()'s vertex classes."""
        m = 2 * n
        for g in enumerate_gluings(n):
            vertices = len(glue(g).degree)
            for last in g.pairs():
                root = list(range(m))

                def find(x):
                    while root[x] != x:
                        x = root[x]
                    return x

                for i, j in g.pairs():
                    if (i, j) == last:
                        continue
                    i1, j1 = (i + 1) % m, (j + 1) % m
                    for a, b in [(i, j1), (i1, j)] if (i ^ j) & 1 else [(i, j), (i1, j1)]:
                        root[find(a)] = find(b)
                assert sum(root[c] == c for c in range(m)) == vertices, (g, last)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24),
    )))
    def test_partition_automaton_follows_a_union_find(self, case):
        """Each merge gives the union-find's partition in first-occurrence
        labels, built on the first pass and looked up on the replay."""
        n, merges = case
        automaton = engine._Partitions(n)
        root = list(range(n))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        states = []
        state = 0
        for u, v in merges:
            root[find(u)] = find(v)
            state = automaton.merge(state, automaton.code(u, v))
            states.append(state)
            labels: dict[int, int] = {}
            expected = tuple(labels.setdefault(find(e), len(labels)) for e in range(n))
            assert automaton.strings[state] == bytes(expected)
            assert automaton.blocks[state] == len(labels)
        built = len(automaton.strings)
        state = 0
        for (u, v), expected_state in zip(merges, states):
            state = automaton.merge(state, automaton.code(v, u))
            assert state == expected_state
        assert len(automaton.strings) == built

    def test_task_splits_merge_to_the_single_pass(self):
        n = 6
        branches = engine._branches(n)
        single = engine._scan_branch((n, tuple(branches)))
        by_branch = merged(engine._scan_branch((n, (branch,))) for branch in branches)
        by_thirds = merged(engine._scan_branch((n, tuple(branches[k::3]))) for k in range(3))
        assert by_branch == single[1:]
        assert by_thirds == single[1:]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_pool_tasks_cover_every_branch_once(self, monkeypatch, threads):
        n = 7
        tasks = []

        def recording_map(fn, items):
            """Runs the fork map's calls in this process and records its tasks."""
            assert fn is engine._scan_branch
            tasks.extend(items)
            return [fn(task) for task in items]

        monkeypatch.setattr(engine, "POOL_MIN_N", n)
        monkeypatch.setattr(engine, "_fork_map", recording_map)
        got = scan(n, threads=threads)
        dealt = [branch for _n, branches in tasks for branch in branches]
        assert sorted(dealt) == sorted(engine._branches(n))
        assert len(tasks) == min(threads, len(engine._branches(n)))
        assert got.tallies == scan(n, threads=1).tallies

    def test_tasks_are_dealt_boustrophedon(self):
        # 0, 1, 1, 0, 0, 1, ...: the larger task at n=8 holds 64,751 leaves,
        # where dealing round-robin gave 67,481 and 61,252
        tasks = engine._tasks(8, 2)
        branches = engine._branches(8)
        assert tasks[0][1][:3] == (branches[0], branches[3], branches[4])
        assert [engine._scan_branch(task)[0] for task in tasks] == [64751, 63982]

    def test_visited_matchings_are_pinned(self):
        # about one in thirteen of the (2n-1)!! matchings at n=7, one in
        # sixteen at n=8
        leaves = [engine._scan_branch((n, tuple(engine._branches(n))))[0] for n in range(1, 9)]
        assert leaves == [1, 2, 4, 19, 109, 938, 10026, 128733]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_each_branch_matches_a_brute_force_sum(self, n):
        """Each branch against its own matchings, glued and colored by
        glue()/enumerate_q(): those with the branch's pairs and neither a
        banned pair nor one of an earlier type, each counted with weight
        L*|O_tau|/c_tau.  A branch's share is read as the difference of two
        kernel calls over the branches up to it and up to the one before,
        so it runs after every earlier branch in one call, as in a scan: a
        kernel table wrongly kept from an earlier branch shows there, where
        the summed totals of a whole scan could hide it.  n = 1..6 leave
        0, 2, 4, 6 and 8 sides to the kernel's plans after a branch."""
        types, _reps, sizes = engine._pair_types(n)
        banned = banned_pairs(n, 0) if n >= 2 else set()
        denominator = engine._weight_denominator(n)
        colorings = {g: Counter(mono.parts for _q, mono in enumerate_q(glue(g)))
                     for g in enumerate_gluings(n)}
        branches = engine._branches(n)
        before = (0, 0, Counter())
        for k, branch in enumerate(branches):
            tau = types[branch[0][0]][branch[0][1]]
            leaves = total = 0
            tally: Counter[tuple[int, ...]] = Counter()
            for g, parts in colorings.items():
                pairs = set(g.pairs())
                if not pairs >= set(branch) or pairs & banned:
                    continue
                if any(types[a][b] < tau for a, b in pairs):
                    continue
                weight = sizes[tau] * denominator // sum(types[a][b] == tau for a, b in pairs)
                leaves += 1
                total += weight
                for key, count in parts.items():
                    tally[key] += weight * count
            got_leaves, got_total, got_tally = engine._scan_branch((n, tuple(branches[:k + 1])))
            after = (got_leaves, got_total, Counter(got_tally))
            share = (after[0] - before[0], after[1] - before[1], after[2] - before[2])
            assert share == (leaves, total, tally), branch
            before = after

    @pytest.mark.parametrize("bound", [0, 1 << 30])
    @pytest.mark.parametrize("n", [6, 7])
    def test_the_table_bound_does_not_change_results(self, monkeypatch, n, bound):
        """The state-pair table moved after every branch (bound 0) or only
        at the end of the call gives what the default bound gives."""
        task = (n, tuple(engine._branches(n)))
        expected = engine._scan_branch(task)
        monkeypatch.setattr(engine, "TABLE_BOUND", bound)
        assert engine._scan_branch(task) == expected

    # the two facts the kernel's pass relies on when it gives a state pair
    # with one black vertex the monomial (w+1), and one with w < b nothing,
    # without calling _hall_keys
    @pytest.mark.parametrize("w", range(1, 7))
    def test_one_black_vertex_has_the_one_monomial_w_plus_one(self, w):
        for mask in range(1 << w):
            assert engine._hall_keys(w, (mask,)) == [(w + 1,)], mask

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.integers(0, (1 << w) - 1), min_size=w + 1, max_size=w + 3),
    )))
    def test_fewer_whites_than_blacks_have_no_monomial(self, case):
        w, masks = case
        assert engine._hall_keys(w, tuple(masks)) == []

    def test_small_n_runs_in_process(self, monkeypatch):
        serial = {n: scan(n, threads=1) for n in range(1, engine.POOL_MIN_N)}

        def no_fork():
            raise AssertionError("a child process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        for n, expected in serial.items():
            got = scan(n, threads=2)
            assert got.tallies == expected.tallies

    def test_without_fork_the_scan_runs_in_process(self, monkeypatch):
        expected = scan(engine.POOL_MIN_N, threads=1).tallies
        monkeypatch.delattr(os, "fork")
        assert scan(engine.POOL_MIN_N, threads=2).tallies == expected

    @pytest.mark.parametrize("n, threads", [(7, 0), (8, 0), (8, -2)])
    def test_threads_below_one_are_rejected_before_any_work(self, monkeypatch, n, threads):
        def no_work(*_args, **_kwargs):
            raise AssertionError("the scan started")

        monkeypatch.setattr(os, "fork", no_work)
        monkeypatch.setattr(engine, "_scan_branch", no_work)
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            scan(n, threads=threads)
        assert main(["expand", "--n", str(n), "--threads", str(threads)]) == 1


class TestForkMap:
    """The scan's workers: one forked child per task, each reaped."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_results_come_back_in_task_order(self):
        results = engine._fork_map(lambda k: (k, os.getpid(), {(k,): k * k}), [3, 1, 2])
        assert [(k, tally) for k, _pid, tally in results] == [(3, {(3,): 9}), (1, {(1,): 1}),
                                                             (2, {(2,): 4})]
        assert os.getpid() not in {pid for _k, pid, _tally in results}
        self.assert_no_child_left()

    def test_a_dead_child_kills_and_reaps_the_others(self):
        def work(task):
            if task == "die":
                os._exit(1)
            time.sleep(60)

        t0 = time.monotonic()
        with pytest.raises(engine.WorkerDiedError, match=r"died \(exit code 1\)"):
            engine._fork_map(work, ["die", "sleep"])
        assert time.monotonic() - t0 < 30
        self.assert_no_child_left()

    def test_a_failure_while_reading_kills_and_reaps_the_others(self, monkeypatch):
        def work(task):
            if task == "sleep":
                time.sleep(60)
            return task

        def unreadable(_data):
            raise OSError("read failed")

        fake = types.SimpleNamespace(dumps=marshal.dumps, loads=unreadable)
        monkeypatch.setattr(engine, "marshal", fake)
        t0 = time.monotonic()
        with pytest.raises(OSError, match="read failed"):
            engine._fork_map(work, ["answer", "sleep"])
        assert time.monotonic() - t0 < 30
        self.assert_no_child_left()

    def test_an_exception_in_a_child_is_raised_with_its_type_and_text(self):
        def work(task):
            return 1 // task

        with pytest.raises(engine.WorkerDiedError) as exc:
            engine._fork_map(work, [1, 0])
        assert str(exc.value) == (
            "a worker process raised ZeroDivisionError: integer division or modulo by zero"
        )
        self.assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_each_child_runs_on_its_own_cpu_in_turn(self):
        cpus = sorted(os.sched_getaffinity(0))
        got = engine._fork_map(lambda _task: sorted(os.sched_getaffinity(0)), [0, 1, 2])
        assert got == [[cpus[k % len(cpus)]] for k in range(3)]
        assert sorted(os.sched_getaffinity(0)) == cpus
        self.assert_no_child_left()


    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda b: st.integers(1, 6).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.integers(0, (1 << w) - 1), min_size=b, max_size=b),
    ))))
    def test_hall_keys_match_the_admissibility_oracle(self, case):
        """Every leaf of the kernel, a single black or fewer whites than
        blacks included, is classified by ``_hall_keys``; each composition
        is its own coloring, so the two sides are compared as multisets."""
        w, masks = case
        b = len(masks)
        edges = tuple((i, b + x) for i, mask in enumerate(masks) for x in range(w) if mask >> x & 1)
        graph = BipartiteGraph(tuple(range(b)), tuple(range(b, b + w)), edges)
        expected = Counter(
            tuple(sorted(q.values(), reverse=True))
            for q in candidate_colorings(graph) if hall_condition(graph, q)
        )
        assert Counter(engine._hall_keys(w, tuple(masks))) == expected


def coefficient(n, parts):
    """(raw count, coefficient) of R_parts in K_n."""
    mono = Monomial(parts)
    raw = scan(n).tallies.get(mono, 0)
    return raw, rescaled_coefficient(n, mono, raw)


class TestCoefficient:
    def test_hexagon_r2(self):
        assert coefficient(3, (2,)) == (4, 4)

    def test_square_r3(self):
        # leading term of zonal K_2 = R_3 - R_2 (the old factor 4 made it 4*R_3)
        assert coefficient(2, (3,)) == (1, 1)

    def test_square_r2_negative(self):
        # zonal K_2 = R_3 - R_2 (the old factor 2 made it -2*R_2)
        assert coefficient(2, (2,)) == (1, -1)

    def test_absent_monomial(self):
        assert coefficient(3, (7,)) == (0, 0)


class TestGenusPart:
    def test_hexagon_torus_part(self):
        [part] = strata(scan(3), 2)
        assert {m.parts: c for m, c in part.terms.items()} == {(2,): 4}
        assert part.raw_counts == part.terms

    def test_square_has_no_torus_part(self):
        [part] = strata(scan(2), 2)
        assert part.terms == {} and part.raw_counts == {}

    def test_octagon_torus_part(self):
        [part] = strata(scan(4), 2)
        assert {m.parts: c for m, c in part.terms.items()} == {(3,): 21}


class TestFullExpansion:
    def test_digon(self):
        parts = strata(scan(1))
        assert len(parts) == 1
        assert parts[0].doubled_genus == 0
        # zonal K_1 = R_2 (the old factor 4 made it 4*R_2)
        assert {m.parts: c for m, c in parts[0].terms.items()} == {(2,): 1}

    def test_square(self):
        parts = strata(scan(2))
        # zonal K_2 = R_3 - R_2: signed raw counts, no power of two
        assert [(p.doubled_genus, {m.parts: c for m, c in p.terms.items()}) for p in parts] == [
            (0, {(3,): 1}),
            (1, {(2,): -1}),
        ]

    def test_stratification_and_total(self):
        for n in range(1, 6):
            result = scan(n)
            parts = strata(result)
            total = 0
            for p in parts:
                for mono, raw in p.raw_counts.items():
                    assert mono.vertex_count == n + 1 - p.doubled_genus
                    assert mono.vertex_count <= n + 1
                    total += raw
                if p.doubled_genus == 0:
                    assert all(c > 0 for c in p.terms.values())
            assert total == sum(result.tallies.values())

    def test_exact_integers_below_six(self):
        for n in range(1, 6):
            for p in strata(scan(n)):
                assert all(type(c) is int for c in p.terms.values())

    def test_r4_and_r2_at_six_are_integers(self):
        # the integers -701 and -1348 of zonal K_6 (tests/test_kerov_oracle.py)
        terms = {m.parts: c for p in strata(scan(6)) for m, c in p.terms.items()}
        assert all(type(c) is int for c in terms.values())
        assert (terms[(4,)], terms[(2,)]) == (-701, -1348)

    def test_one_hard_limit(self):
        # n = 9 and 10 pass the limit; they are not scanned here
        assert engine.check_limit(9) is None and engine.check_limit(10) is None
        with pytest.raises(ValueError, match="^n=11 exceeds the hard limit 10$"):
            scan(11)
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            scan(0)
        with pytest.raises(TypeError, match="force"):
            scan(2, force=True)

    def test_result_is_immutable(self):
        result = scan(2)
        with pytest.raises(AttributeError):
            result.tallies = {}
        with pytest.raises(AttributeError):
            result.extra = 1


class TestExactnessGuard:
    def test_remainder_raises(self):
        denominator = engine._weight_denominator(3)
        assert denominator == 6
        total = denominator * 8  # A_3: the 15 matchings less the 7 with a banned pair
        assert engine._exact_tallies(3, [(0, total, {(2,): 4 * denominator})]) == {(2,): 4}
        with pytest.raises(InternalConsistencyError, match="not a multiple of 6"):
            engine._exact_tallies(3, [(0, total, {(2,): 4 * denominator + 1})])

    def test_wrong_weighted_total_raises(self):
        with pytest.raises(InternalConsistencyError, match="weighted matching total 89"):
            engine._exact_tallies(3, [(0, 89, {})])
        # the total over every matching, banned ones included, is wrong too
        with pytest.raises(InternalConsistencyError, match="total 90 at n=3, expected 48"):
            engine._exact_tallies(3, [(0, 6 * 15, {})])

    def test_cli_maps_the_error_to_exit_3(self, monkeypatch, capsys):
        real = engine._scan_branch

        def off_by_one(task):
            leaves, total, tally = real(task)
            return leaves, total, {key: c + 1 for key, c in tally.items()}

        monkeypatch.setattr(engine, "_scan_branch", off_by_one)
        assert main(["expand", "--n", "3", "--threads", "1"]) == 3
        assert "internal consistency failure" in capsys.readouterr().err


class TestCache:
    def test_round_trip(self, tmp_path):
        result = scan(3, cache_dir=tmp_path)
        path = cache_path(tmp_path, 3)
        assert path.exists()
        text = path.read_text()
        assert '"schemaVersion": 1' in text
        assert '"gluings": "15"' in text
        loaded = load_cache(tmp_path, 3)
        assert loaded is not None
        assert loaded.gluing_count == result.gluing_count
        assert loaded.tallies == result.tallies

    def test_cache_is_used_on_reload(self, tmp_path):
        scan(3, cache_dir=tmp_path)
        # corrupt a tally that validation cannot check (R3 lies outside the
        # genus-one stratum); the loaded (not recomputed) value must surface
        path = cache_path(tmp_path, 3)
        path.write_text(path.read_text().replace('"rawCount": "3"', '"rawCount": "31"'))
        reloaded = scan(3, cache_dir=tmp_path)
        assert reloaded.tallies[Monomial((3,))] == 31

    def test_missing_cache_returns_none(self, tmp_path):
        assert load_cache(tmp_path, 5) is None

    def test_write_leaves_no_temporary_file(self, tmp_path):
        write_cache(tmp_path, scan(4))
        assert [p.name for p in tmp_path.iterdir()] == [cache_path(tmp_path, 4).name]

    def test_tampered_count_is_rescanned(self, tmp_path, capsys):
        scan(5, cache_dir=tmp_path)
        path = cache_path(tmp_path, 5)
        doc = json.loads(path.read_text())
        entry = next(e for e in doc["tallies"] if e["mu"] == [4])
        assert entry["rawCount"] == "65"
        entry["rawCount"] = "66"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        capsys.readouterr()
        assert scan(5, cache_dir=tmp_path).tallies[Monomial((4,))] == 65
        assert "invalid cache file" in capsys.readouterr().err
        assert '"rawCount": "66"' not in path.read_text()

    @pytest.mark.parametrize("tamper", [
        pytest.param(lambda d: d.update(schemaVersion=2), id="schema"),
        pytest.param(lambda d: d.update(n=5), id="n"),
        pytest.param(lambda d: d.update(gluings="104"), id="gluings"),
        pytest.param(lambda d: d.update(tallies="none"), id="tallies-type"),
        pytest.param(lambda d: d["tallies"].append({"mu": [1], "rawCount": "1"}), id="part-1"),
        pytest.param(lambda d: d["tallies"].append({"mu": [6], "rawCount": "1"}), id="V>n+1"),
        pytest.param(lambda d: d["tallies"].append({"mu": [2, 2], "rawCount": "0"}), id="zero"),
        pytest.param(lambda d: d["tallies"].append(dict(d["tallies"][0])), id="duplicate"),
        pytest.param(lambda d: d.update(tallies=[e for e in d["tallies"] if e["mu"] != [3]]),
                     id="genus-one"),
        pytest.param(lambda d: d.update(gluings=105), id="gluings-number"),
        pytest.param(lambda d: d["tallies"][0].update(rawCount=1), id="rawCount-number"),
        pytest.param(lambda d: d["tallies"][0].update(mu=[5.0]), id="mu-float"),
        pytest.param(lambda d: d["tallies"].append({"mu": [], "rawCount": "1"}), id="mu-empty"),
    ])
    def test_invalid_documents_are_misses(self, tmp_path, capsys, tamper):
        path = write_cache(tmp_path, scan(4))
        doc = json.loads(path.read_text())
        tamper(doc)
        path.write_text(json.dumps(doc))
        assert load_cache(tmp_path, 4) is None
        assert "invalid cache file" in capsys.readouterr().err

    @pytest.mark.parametrize("blocker", [
        pytest.param(lambda d: d.write_text(""), id="file-as-dir"),
        pytest.param(lambda d: cache_path(d, 3).mkdir(parents=True), id="dir-as-file"),
    ])
    def test_unusable_path_is_an_error(self, tmp_path, blocker):
        cache_dir = tmp_path / "cache"
        blocker(cache_dir)
        message = re.escape(f"unusable cache path {cache_path(cache_dir, 3)}")
        with pytest.raises(ValueError, match=message):
            load_cache(cache_dir, 3)
        with pytest.raises(ValueError, match=message):
            write_cache(cache_dir, scan(3))

    def test_truncated_file_is_a_miss(self, tmp_path, capsys):
        path = write_cache(tmp_path, scan(4))
        path.write_text(path.read_text()[:40])
        assert load_cache(tmp_path, 4) is None
        assert "invalid cache file" in capsys.readouterr().err

    def test_too_deeply_nested_file_is_a_miss(self, tmp_path, capsys):
        # deeper than the JSON decoder's recursion limit: a RecursionError
        path = cache_path(tmp_path, 3)
        path.write_text("[" * 10000 + "]" * 10000)
        assert load_cache(tmp_path, 3) is None
        assert "invalid cache file" in capsys.readouterr().err
        # rescanned and rewritten
        assert scan(3, cache_dir=tmp_path).tallies == scan(3).tallies
        assert load_cache(tmp_path, 3) is not None


N3_DOC = {
    "schemaVersion": 1,
    "n": 3,
    "gluings": "15",
    "tallies": [
        {"mu": [4], "rawCount": "1"},
        {"mu": [3], "rawCount": "3"},
        {"mu": [2], "rawCount": "4"},
    ],
}
N3_FIELDS = [
    ("schemaVersion",), ("n",), ("gluings",), ("tallies",), ("tallies", 0),
    ("tallies", 2, "mu"), ("tallies", 2, "mu", 0), ("tallies", 1, "rawCount"),
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def with_field(path, value):
    """N3_DOC with the entry at ``path`` replaced by ``value``."""
    doc = copy.deepcopy(N3_DOC)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(json_values | st.builds(with_field, st.sampled_from(N3_FIELDS), json_values))
def test_load_cache_returns_a_valid_result_or_none(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cache_path(tmp, 3).write_text(json.dumps(doc))
        with contextlib.redirect_stderr(io.StringIO()):
            loaded = load_cache(tmp, 3)
    assert loaded is None or (loaded.n == 3 and loaded.gluing_count == 15)
