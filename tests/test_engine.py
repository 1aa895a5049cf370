import contextlib
import copy
import io
import json
import re
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import zkerov.engine as engine
from zkerov.admissibility import Monomial, enumerate_q
from zkerov.cli import main
from zkerov.engine import (
    InternalConsistencyError,
    cache_path,
    load_cache,
    rescaled_coefficient,
    rescaled_coefficient_exact,
    scan,
    strata,
    write_cache,
)
from zkerov.polygon import enumerate_gluings, glue, reflect_gluing, rotate_gluing


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

    def test_inexact_division_raises(self):
        # nothing is divided, so nothing raises: R_4 in zonal K_6 is -701
        assert rescaled_coefficient(6, Monomial((4,)), 701) == -701

    def test_exact_variant_returns_dyadic(self):
        # the zonal coefficient is the signed raw count, an int, not -701/2
        value = rescaled_coefficient_exact(6, Monomial((4,)), 701)
        assert value == -701 and type(value) is int
        assert rescaled_coefficient_exact(6, Monomial((3, 2)), 143) == 143


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


def monomial_multiset(g, black_parity):
    return Counter(mono.parts for _q, mono in enumerate_q(glue(g, black_parity)))


class TestOrbitSymmetry:
    """The orbit sum relies on every element of the color-preserving
    dihedral group keeping a gluing's admissible-coloring monomials; the
    check runs on glue()/enumerate_q(), which share no code with the kernel."""

    @pytest.mark.parametrize("black_parity", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rotations_and_color_preserving_reflections_keep_monomials(self, n, black_parity):
        counts = {g.pairing: monomial_multiset(g, black_parity) for g in enumerate_gluings(n)}
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

    def test_twelve_types_and_76_tasks_at_eight(self):
        assert len(engine._pair_types(8)[1]) == 12
        assert len(engine._branches(8)) == 76


class TestScanKernel:
    @pytest.mark.parametrize("black_parity", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_glue_enumerate_q_reference(self, n, black_parity):
        expected: dict[tuple[int, ...], int] = {}
        for g in enumerate_gluings(n):
            for _q, mono in enumerate_q(glue(g, black_parity)):
                expected[mono.parts] = expected.get(mono.parts, 0) + 1
        result = engine._scan_branch((n, tuple(engine._branches(n)), black_parity))
        assert engine._exact_tallies(n, [result]) == expected

    def test_task_splits_merge_to_the_single_pass(self):
        n = 6
        branches = engine._branches(n)
        single = engine._scan_branch((n, tuple(branches), 0))
        by_branch = merged(engine._scan_branch((n, (branch,), 0)) for branch in branches)
        by_thirds = merged(engine._scan_branch((n, tuple(branches[k::3]), 0)) for k in range(3))
        assert by_branch == single[1:]
        assert by_thirds == single[1:]

    def test_visited_matchings_are_pinned(self):
        # about one in ten of the (2n-1)!! matchings at n=7
        leaves = [engine._scan_branch((n, tuple(engine._branches(n)), 0))[0] for n in range(1, 8)]
        assert leaves == [1, 3, 7, 31, 186, 1575, 16765]

    def test_small_n_runs_in_process(self, monkeypatch):
        serial = {n: scan(n, threads=1) for n in range(1, engine.POOL_MIN_N)}

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        for n, expected in serial.items():
            got = scan(n, threads=2)
            assert got.tallies == expected.tallies


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

    def test_known_inexact_terms_at_six(self):
        # the two terms a power-of-two rescale made half-integers are the
        # integers -701 and -1348 of zonal K_6 (tests/test_kerov_oracle.py)
        terms = {m.parts: c for p in strata(scan(6)) for m, c in p.terms.items()}
        assert all(type(c) is int for c in terms.values())
        assert (terms[(4,)], terms[(2,)]) == (-701, -1348)

    def test_limit_advice(self):
        with pytest.raises(ValueError, match="force"):
            scan(9)
        with pytest.raises(ValueError):
            scan(11, force=True)


class TestExactnessGuard:
    def test_remainder_raises(self):
        denominator = engine._weight_denominator(3)
        assert denominator == 6
        total = denominator * 15
        assert engine._exact_tallies(3, [(0, total, {(2,): 4 * denominator})]) == {(2,): 4}
        with pytest.raises(InternalConsistencyError, match="not a multiple of 6"):
            engine._exact_tallies(3, [(0, total, {(2,): 4 * denominator + 1})])

    def test_wrong_weighted_total_raises(self):
        with pytest.raises(InternalConsistencyError, match="weighted matching total 89"):
            engine._exact_tallies(3, [(0, 89, {})])

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
