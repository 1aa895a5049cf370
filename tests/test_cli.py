import contextlib
import io
import json
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zkerov.cli as cli
import zkerov.engine as engine
from zkerov.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args, "--format", "json")
    return code, json.loads(out), err


class TestCoeff:
    def test_hexagon_value(self, capsys):
        code, doc, _ = run_json(capsys, "coeff", "--n", "3", "--mu", "2")
        assert code == 0
        assert doc == {
            "command": "coeff",
            "n": 3,
            "mu": [2],
            "vertexCount": 2,
            "doubledGenus": 2,
            "rawCount": "4",
            "coefficient": "4",
        }

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "coeff", "--n", "6", "--mu", "3,2")
        assert code == 0
        assert "coefficient=143" in out

    def test_bad_mu_part_exits_one(self, capsys):
        code, _out, err = run(capsys, "coeff", "--n", "3", "--mu", "1,2")
        assert code == 1
        assert "error" in err

    def test_missing_mu_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coeff", "--n", "3"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("gluings", ["1e400", "15.7"])
    def test_non_string_gluings_in_cache_are_rescanned(self, capsys, tmp_path, gluings):
        code, doc, _ = run_json(capsys, "coeff", "--n", "3", "--mu", "2", "--cache", str(tmp_path))
        assert code == 0
        cache_file = tmp_path / "zkerov-cache-v1-n3.json"
        text = cache_file.read_text()
        cache_file.write_text(text.replace('"gluings": "15"', f'"gluings": {gluings}'))
        code2, doc2, err = run_json(capsys, "coeff", "--n", "3", "--mu", "2", "--cache", str(tmp_path))
        assert code2 == 0 and doc2 == doc
        assert "invalid cache file" in err
        assert cache_file.read_text() == text

    def test_inexact_halving_exits_three(self, capsys):
        # no halving: R_4 in zonal K_6 is the integer -701, so coeff answers
        code, doc, err = run_json(capsys, "coeff", "--n", "6", "--mu", "4")
        assert code == 0 and err == ""
        assert (doc["rawCount"], doc["coefficient"]) == ("701", "-701")


def quiet_main(*args):
    """main() with stdout and stderr captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(args))
    return code, out.getvalue()


def is_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


class TestMuParsing:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=2), min_size=1, max_size=6))
    def test_parts_of_two_or_more_are_accepted_and_sorted(self, parts):
        mu = ",".join(map(str, parts))
        code, out = quiet_main("coeff", "--n", "3", "--mu", mu, "--threads", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["mu"] == sorted(parts, reverse=True)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=6).filter(lambda ps: min(ps) < 2))
    def test_a_part_below_two_exits_one(self, parts):
        mu = ",".join(map(str, parts))
        assert quiet_main("coeff", "--n", "3", f"--mu={mu}", "--threads", "1") == (1, "")

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=12).filter(lambda t: not all(is_int(p) for p in t.split(","))))
    def test_text_that_is_not_integers_exits_one(self, text):
        assert quiet_main("coeff", "--n", "3", f"--mu={text}", "--threads", "1") == (1, "")


class TestExpand:
    def test_square_strata(self, capsys):
        code, doc, _ = run_json(capsys, "expand", "--n", "2")
        assert code == 0
        assert doc["gluings"] == "3"
        assert doc["parts"] == [
            # zonal K_2 = R_3 - R_2: signed raw counts, no power of two
            {
                "doubledGenus": 0,
                "terms": [{"mu": [3], "rawCount": "1", "coefficient": "1"}],
                "inexactCoefficients": [],
            },
            {
                "doubledGenus": 1,
                "terms": [{"mu": [2], "rawCount": "1", "coefficient": "-1"}],
                "inexactCoefficients": [],
            },
        ]

    def test_genus_filter(self, capsys):
        code, doc, _ = run_json(capsys, "expand", "--n", "3", "--genus-doubled", "2")
        assert code == 0
        assert len(doc["parts"]) == 1
        assert doc["parts"][0]["terms"] == [
            {"mu": [2], "rawCount": "4", "coefficient": "4"}
        ]

    def test_empty_stratum_filter_gives_no_parts(self, capsys):
        # the square has no genus-one term: the filter drops every stratum
        code, doc, _ = run_json(capsys, "expand", "--n", "2", "--genus-doubled", "2")
        assert code == 0
        assert doc["parts"] == []

    def test_digon_has_single_stratum(self, capsys):
        code, doc, _ = run_json(capsys, "expand", "--n", "1")
        assert code == 0
        assert [p["doubledGenus"] for p in doc["parts"]] == [0]

    def test_negative_genus_filter_exits_one(self, capsys):
        code, out, err = run(capsys, "expand", "--n", "3", "--genus-doubled", "-1")
        assert code == 1 and out == ""
        assert "--genus-doubled must be >= 0" in err

    def test_limit_requires_force(self, capsys):
        code, _out, err = run(capsys, "expand", "--n", "9")
        assert code == 1
        assert "force" in err

    def test_threads_do_not_change_bytes(self, capsys):
        code1, out1, _ = run(capsys, "expand", "--n", "4", "--threads", "1", "--format", "json")
        code2, out2, _ = run(capsys, "expand", "--n", "4", "--threads", "3", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_threads_do_not_change_bytes_through_the_pool(self, capsys):
        assert 7 >= engine.POOL_MIN_N
        code1, out1, _ = run(capsys, "expand", "--n", "7", "--threads", "1", "--format", "json")
        code2, out2, _ = run(capsys, "expand", "--n", "7", "--threads", "2", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_scans_once(self, capsys, monkeypatch):
        calls = []
        real_scan = engine.scan

        def counting_scan(*args, **kwargs):
            calls.append(args)
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(engine, "scan", counting_scan)
        monkeypatch.setattr(cli, "scan", counting_scan)
        code, _doc, _ = run_json(capsys, "expand", "--n", "4", "--threads", "1")
        assert code == 0
        assert len(calls) == 1

    def test_worker_crash_exits_three(self, capsys, monkeypatch):
        class BrokenPool:
            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", BrokenPool)
        code, out, err = run(capsys, "expand", "--n", str(engine.POOL_MIN_N), "--threads", "2")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "worker process died" in err

    def test_truncated_cache_is_rescanned(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "expand", "--n", "5", "--cache", str(tmp_path))
        assert code == 0
        cache_file = tmp_path / "zkerov-cache-v1-n5.json"
        cache_file.write_text(cache_file.read_text()[:100])
        code2, doc2, err = run_json(capsys, "expand", "--n", "5", "--cache", str(tmp_path))
        assert code2 == 0 and doc2 == doc
        assert "invalid cache file" in err
        json.loads(cache_file.read_text())

    def test_unusable_cache_path_exits_one(self, capsys, tmp_path):
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        code, out, err = run(capsys, "expand", "--n", "3", "--cache", str(not_a_dir))
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("zkerov: error: unusable cache path ") and str(not_a_dir) in err

    def test_cache_file_is_written_and_reused(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "expand", "--n", "3", "--cache", str(tmp_path))
        assert code == 0
        cache_file = tmp_path / "zkerov-cache-v1-n3.json"
        assert cache_file.exists()
        payload = json.loads(cache_file.read_text())
        assert payload["schemaVersion"] == 1
        assert payload["n"] == 3
        assert payload["gluings"] == "15"
        assert {"mu": [2], "rawCount": "4"} in payload["tallies"]
        code2, doc2, _ = run_json(capsys, "expand", "--n", "3", "--cache", str(tmp_path))
        assert code2 == 0 and doc2 == doc


class TestGenus1:
    def test_closed_form_n4(self, capsys):
        code, doc, _ = run_json(capsys, "genus1", "--n", "4")
        assert code == 0
        assert doc["terms"] == [{"mu": [3], "coefficient": "21"}]

    def test_empty_at_n2(self, capsys):
        code, doc, _ = run_json(capsys, "genus1", "--n", "2")
        assert code == 0
        assert doc["terms"] == []

    def test_verify_passes(self, capsys):
        code, doc, _ = run_json(capsys, "genus1", "--n", "5", "--verify")
        assert code == 0
        assert doc["verification"]["status"] == "ok"
        assert doc["verification"]["mismatches"] == []


class TestCensus:
    def test_hexagon_bipartite_classes(self, capsys):
        code, doc, _ = run_json(
            capsys, "census", "--n", "3", "--genus-doubled", "2", "--bipartite"
        )
        assert code == 0
        assert doc["classCount"] == 2
        assert sorted((c["orbitSize"], c["stabilizerOrder"]) for c in doc["classes"]) == [
            (1, 3), (3, 1),
        ]

    def test_reduced_twisted_preset_is_five(self, capsys):
        code, doc, _ = run_json(capsys, "census", "--reduced", "--twisted")
        assert code == 0
        assert doc["ns"] == [1, 2, 3]
        assert doc["classCount"] == 5
        assert doc["convention"] == "dihedral"

    def test_contributing_preset_is_seven(self, capsys):
        code, doc, _ = run_json(capsys, "census", "--reduced-bipartite", "--contributing")
        assert code == 0
        assert doc["classCount"] == 7
        assert doc["convention"] == "cyclic"

    @pytest.mark.parametrize("max_n", ["0", "-2"])
    def test_max_n_below_one_exits_one(self, capsys, max_n):
        code, out, err = run(capsys, "census", "--reduced", "--twisted", "--max-n", max_n)
        assert code == 1 and out == ""
        assert "--max-n must be >= 1" in err

    def test_without_n_or_preset_exits_one(self, capsys):
        code, _out, err = run(capsys, "census")
        assert code == 1
        assert "census" in err

    def test_n_above_default_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "census", "--n", "9")
        assert code == 1 and out == ""
        assert "default limit 8" in err and "--force" in err

    def test_n_above_hard_limit_exits_one_with_force(self, capsys):
        code, out, err = run(capsys, "census", "--n", "11", "--force")
        assert code == 1 and out == ""
        assert "hard limit 10" in err

    def test_preset_max_n_above_default_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "census", "--reduced", "--twisted", "--max-n", "9")
        assert code == 1 and out == ""
        assert "n=9 exceeds the default limit" in err

    def test_cache_is_rejected(self, capsys, tmp_path):
        # census keeps no tallies; --cache, even with a path no cache could
        # use, is a usage error rather than silently ignored
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "2", "--force", "--cache", str(not_a_dir / "sub")])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == "" and "unrecognized arguments: --cache" in out.err


class TestSelftest:
    def test_green_at_small_scale(self, capsys):
        code, doc, _ = run_json(capsys, "selftest", "--max-n", "4")
        assert code == 0
        assert doc["status"] == "ok"
        assert all(c["status"] == "ok" for c in doc["checks"])

    def test_green_at_six(self, capsys):
        # the zonal coefficients at n=6 are integers, so every check holds
        code, doc, _ = run_json(capsys, "selftest", "--max-n", "6")
        assert code == 0
        failing = [c["name"] for c in doc["checks"] if c["status"] == "fail"]
        assert failing == []

    def test_max_n_above_default_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "selftest", "--max-n", "9")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "zkerov: error: n=9 exceeds the default limit 8; pass force=True (--force)"
        ]

    def test_max_n_above_hard_limit_exits_one_with_force(self, capsys):
        code, out, err = run(capsys, "selftest", "--max-n", "11", "--force")
        assert code == 1 and out == ""
        assert err.splitlines() == ["zkerov: error: n=11 exceeds the hard limit 10"]

    @pytest.mark.parametrize("flag,value", [("--n", "3"), ("--cache", "DIR")])
    def test_n_and_cache_are_rejected(self, capsys, tmp_path, flag, value):
        # selftest checks the kernel at n=1..max-n and never reads a cache
        if flag == "--cache":
            not_a_dir = tmp_path / "cache"
            not_a_dir.write_text("")
            value = str(not_a_dir / "sub")
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--max-n", "2", flag, value])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == "" and f"unrecognized arguments: {flag}" in out.err
