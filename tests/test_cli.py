import contextlib
import errno
import io
import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zkerov.census as census
import zkerov.cli as cli
import zkerov.engine as engine
from zkerov.cli import main
from zkerov.closedform import ClosedFormResult

GOLDEN = pathlib.Path(__file__).parent / "golden"
# the directory that holds the zkerov package
SRC = pathlib.Path(cli.__file__).resolve().parents[1]


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args, "--format", "json")
    return code, json.loads(out), err


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports zkerov from SRC and
    skips the site module, whose .pth files may import modules of their own."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )


def die_in_worker(_task):
    os._exit(1)


def kill_in_worker(_task):
    os.kill(os.getpid(), signal.SIGKILL)


def vanish_in_worker(_task):
    # exits cleanly without sending a result
    os._exit(0)


def raise_in_worker(_task):
    raise ZeroDivisionError("no tallies here")


def refuse(*args, **kwargs):
    raise AssertionError("ran past a limit")


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

    @pytest.mark.parametrize("mu,vertices", [("5", 5), ("9,9", 18)])
    def test_mu_with_more_than_n_plus_one_vertices_exits_one(self, capsys, tmp_path, mu, vertices):
        # a map with 3 edges has at most 4 vertices: rejected before any scan
        code, out, err = run(capsys, "coeff", "--n", "3", "--mu", mu, "--cache", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == (f"zkerov: error: --mu has {vertices} vertices, "
                       "but a map with n=3 edges has at most 4\n")
        assert list(tmp_path.iterdir()) == []

    def test_mu_with_n_plus_one_vertices_is_planar(self, capsys):
        code, doc, _ = run_json(capsys, "coeff", "--n", "3", "--mu", "4")
        assert code == 0
        assert (doc["doubledGenus"], doc["rawCount"], doc["coefficient"]) == (0, "1", "1")

    def test_r4_at_n6_is_the_integer_minus_701(self, capsys):
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
        assert cli._parse_mu(mu).parts == tuple(sorted(parts, reverse=True))
        code, out = quiet_main("coeff", "--n", "3", "--mu", mu, "--threads", "1", "--format", "json")
        # at n=3 a monomial has at most n + 1 = 4 vertices
        if sum(parts) > 4:
            assert (code, out) == (1, "")
        else:
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
            {"doubledGenus": 0, "terms": [{"mu": [3], "rawCount": "1", "coefficient": "1"}]},
            {"doubledGenus": 1, "terms": [{"mu": [2], "rawCount": "1", "coefficient": "-1"}]},
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

    def test_n_above_hard_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "expand", "--n", "11")
        assert code == 1 and out == ""
        assert err == "zkerov: error: n=11 exceeds the hard limit 10\n"

    def test_threads_do_not_change_bytes(self, capsys):
        code1, out1, _ = run(capsys, "expand", "--n", "4", "--threads", "1", "--format", "json")
        code2, out2, _ = run(capsys, "expand", "--n", "4", "--threads", "3", "--format", "json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_threads_do_not_change_bytes_through_the_pool(self, capsys):
        n = str(engine.POOL_MIN_N)
        code1, out1, _ = run(capsys, "expand", "--n", n, "--threads", "1", "--format", "json")
        code2, out2, _ = run(capsys, "expand", "--n", n, "--threads", "2", "--format", "json")
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

    @pytest.mark.parametrize("crash, how", [
        (kill_in_worker, "killed by signal 9"),
        (vanish_in_worker, "short result of 0 bytes"),
    ])
    def test_worker_crash_exits_three(self, capsys, monkeypatch, crash, how):
        monkeypatch.setattr(engine, "_scan_branch", crash)
        code, out, err = run(capsys, "expand", "--n", str(engine.POOL_MIN_N), "--threads", "2")
        assert code == 3
        assert out == ""
        assert err == f"zkerov: internal failure: a worker process died ({how})\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every worker was reaped

    def test_real_worker_death_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "_scan_branch", die_in_worker)
        code, out, err = run(capsys, "expand", "--n", str(engine.POOL_MIN_N), "--threads", "2")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "worker process died (exit code 1)" in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every worker was reaped

    def test_worker_exception_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(engine, "_scan_branch", raise_in_worker)
        code, out, err = run(capsys, "expand", "--n", str(engine.POOL_MIN_N), "--threads", "2")
        assert code == 3
        assert out == ""
        assert err == (
            "zkerov: internal failure: a worker process raised "
            "ZeroDivisionError: no tallies here\n"
        )

    def test_cache_read_error_exits_one(self, capsys, monkeypatch, tmp_path):
        def denied(self):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))

        monkeypatch.setattr(pathlib.Path, "read_bytes", denied)
        code, out, err = run(capsys, "coeff", "--n", "3", "--mu", "2", "--cache", str(tmp_path))
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("zkerov: error: unusable cache path ")
        assert str(engine.cache_path(tmp_path, 3)) in err and "Permission denied" in err

    def test_cache_write_error_exits_one(self, capsys, monkeypatch, tmp_path):
        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(engine.os, "replace", disk_full)
        code, out, err = run(capsys, "expand", "--n", "3", "--cache", str(tmp_path))
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("zkerov: error: unusable cache path ")
        assert str(engine.cache_path(tmp_path, 3)) in err and "No space left on device" in err
        assert list(tmp_path.iterdir()) == []  # the temporary file is gone

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

    def test_closed_form_needs_no_limit(self, capsys):
        # only the scan holds n to at most 10; the closed form runs past it
        code, doc, _ = run_json(capsys, "genus1", "--n", "12")
        assert code == 0
        assert len(doc["terms"]) == 14
        assert "verification" not in doc

    def test_verify_past_the_limit_is_a_usage_error(self, capsys):
        assert main(["genus1", "--n", "12", "--verify", "--threads", "1"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "zkerov: error: n=12 exceeds the hard limit 10\n"

    def test_n_above_the_closed_form_limit_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "partition_polynomial", refuse)
        code, out, err = run(capsys, "genus1", "--n", "61")
        assert code == 1 and out == ""
        assert err == "zkerov: error: n=61 exceeds the genus1 limit 60\n"

    def test_n_at_the_closed_form_limit_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "partition_polynomial", lambda n: ClosedFormResult(terms={}))
        code, doc, _ = run_json(capsys, "genus1", "--n", "60")
        assert code == 0 and doc["terms"] == []

    def test_verify_past_the_scan_limit_exits_before_the_closed_form(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "partition_polynomial", refuse)
        code, out, err = run(capsys, "genus1", "--n", "11", "--verify", "--threads", "1")
        assert code == 1 and out == ""
        assert err == "zkerov: error: n=11 exceeds the hard limit 10\n"


class TestCensus:
    def test_hexagon_bipartite_classes(self, capsys):
        # every matching glues to a bipartite map: no filter is needed
        code, doc, _ = run_json(capsys, "census", "--n", "3", "--genus-doubled", "2")
        assert code == 0
        assert doc["classCount"] == 2
        assert sorted((c["orbitSize"], c["stabilizerOrder"]) for c in doc["classes"]) == [
            (1, 3), (3, 1),
        ]
        assert all(c["bipartite"] for c in doc["classes"])
        assert "bipartite" not in doc["filters"]

    def test_twisted_bipartite_keeps_the_matchings_with_their_flags(self, capsys):
        code, doc, _ = run_json(capsys, "census", "--n", "3", "--twisted")
        assert code == 0
        bipartite = [c for c in doc["classes"] if c["bipartite"]]
        assert len(bipartite) == 7
        assert sum(c["orbitSize"] for c in bipartite) == 15
        for c in bipartite:
            rep = c["representative"]
            assert rep["twists"] == [bool((i ^ j) & 1) for i, j in enumerate(rep["pairing"])]

    def test_bipartite_is_a_usage_error(self, capsys):
        # the bipartite gluings are the matchings, which census --n N lists
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "2", "--bipartite"])
        assert exc.value.code == 1
        out = capsys.readouterr()
        assert out.out == "" and "unrecognized arguments: --bipartite" in out.err

    def test_twisted_universe_unfiltered(self, capsys):
        code, doc, _ = run_json(capsys, "census", "--n", "3", "--twisted")
        assert code == 0 and doc["classCount"] == 44
        assert sum(c["orbitSize"] for c in doc["classes"]) == 15 * 2**3

    @pytest.mark.parametrize("n,classes", [(3, 5), (4, 17)])
    def test_dihedral_convention(self, capsys, n, classes):
        code, doc, _ = run_json(capsys, "census", "--n", str(n), "--dihedral")
        assert code == 0
        assert (doc["convention"], doc["classCount"]) == ("dihedral", classes)
        assert all(c["groupOrder"] == 4 * n for c in doc["classes"])

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

    def test_n_with_max_n_exits_one(self, capsys):
        # --max-n sets a preset's range, which --n replaces
        code, out, err = run(capsys, "census", "--n", "3", "--max-n", "5")
        assert code == 1 and out == ""
        assert err == "zkerov: error: census takes --n or --max-n, not both\n"

    def test_n_zero_exits_one(self, capsys):
        code, out, err = run(capsys, "census", "--n", "0")
        assert code == 1 and out == ""
        assert err == "zkerov: error: --n must be >= 1, got 0\n"

    def test_n_above_hard_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "census", "--n", "11")
        assert code == 1 and out == ""
        assert err == "zkerov: error: n=11 exceeds the hard limit 10\n"

    def test_preset_max_n_above_hard_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "census", "--reduced", "--twisted", "--max-n", "11")
        assert code == 1 and out == ""
        assert err == "zkerov: error: n=11 exceeds the hard limit 10\n"

    @pytest.mark.parametrize("n,flags,gluings", [
        ("9", [], "34,459,425"),
        ("7", ["--twisted"], "17,297,280"),
    ])
    def test_unfiltered_universe_past_n8s_matchings_exits_one(self, capsys, monkeypatch,
                                                                 n, flags, gluings):
        monkeypatch.setattr(census, "census_classes", refuse)
        code, out, err = run(capsys, "census", "--n", n, *flags)
        assert code == 1 and out == ""
        assert err == (f"zkerov: error: a census at n={n} without --genus-doubled walks "
                       f"{gluings} gluings, more than the limit 2,027,025\n")

    @pytest.mark.parametrize("argv", [
        ["--n", "8"],
        ["--n", "6", "--twisted"],
        ["--n", "10", "--genus-doubled", "2"],
        ["--n", "9", "--twisted", "--genus-doubled", "0"],
        ["--reduced", "--twisted", "--max-n", "10"],
        ["--reduced-bipartite", "--contributing", "--max-n", "10"],
    ])
    def test_universe_limit_keeps_n8_matchings_and_genus_filters(self, capsys, monkeypatch,
                                                                  argv):
        monkeypatch.setattr(census, "census_classes", lambda ns, **options: [])
        code, doc, _ = run_json(capsys, "census", *argv)
        assert code == 0 and doc["classCount"] == 0

    def test_cache_is_rejected(self, capsys, tmp_path):
        # census keeps no tallies; --cache, even with a path no cache could
        # use, is a usage error rather than silently ignored
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", "2", "--cache", str(not_a_dir / "sub")])
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

    def test_max_n_zero_exits_one(self, capsys):
        code, out, err = run(capsys, "selftest", "--max-n", "0")
        assert code == 1 and out == ""
        assert err.splitlines() == ["zkerov: error: --max-n must be >= 1, got 0"]

    def test_max_n_above_hard_limit_exits_one(self, capsys):
        code, out, err = run(capsys, "selftest", "--max-n", "11")
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


@pytest.mark.parametrize("argv", [
    ["coeff", "--n", "2", "--mu", "2"],
    ["expand", "--n", "2"],
    ["genus1", "--n", "2"],
    ["census", "--n", "2"],
    ["selftest", "--max-n", "2"],
])
def test_force_is_a_usage_error(capsys, argv):
    # n <= 10 is the one limit, and no flag lifts it
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--force"])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --force" in out.err


# runs each argv through cli.main, output discarded, then prints the
# names of the loaded modules
LOADED_MODULES = """
import contextlib, io, json, sys
import zkerov.cli as cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""

# what the console script runs
CLI_MAIN = "import sys; from zkerov.cli import main; sys.exit(main())"


class TestImports:
    """Each subcommand imports only what it runs: a query answered from the
    cache loads neither the process pool nor the census or selftest."""

    POOL_AND_WRITE = ("concurrent.futures", "multiprocessing", "signal", "tempfile", "fractions")
    CHECKS = ("zkerov.census", "zkerov.selftest")

    @staticmethod
    def loaded(*argvs):
        proc = fresh_python(LOADED_MODULES, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout))

    @staticmethod
    def among(names, modules):
        return sorted(m for m in modules if any(m == x or m.startswith(x + ".") for x in names))

    @pytest.fixture(scope="class")
    def warm_cache(self, tmp_path_factory):
        # n = POOL_MIN_N, so an uncached query at the same n would load the pool
        n = str(engine.POOL_MIN_N)
        cache = str(tmp_path_factory.mktemp("warm"))
        assert quiet_main("expand", "--n", n, "--threads", "1", "--cache", cache)[0] == 0
        return n, cache

    def test_warm_queries_load_no_pool_census_or_selftest(self, warm_cache):
        n, cache = warm_cache
        modules = self.loaded(
            ["coeff", "--n", n, "--mu", "3,3", "--threads", "2", "--cache", cache],
            ["expand", "--n", n, "--threads", "2", "--cache", cache, "--format", "json"],
        )
        assert "zkerov.cli" in modules
        assert self.among(self.POOL_AND_WRITE + self.CHECKS, modules) == []

    def test_genus1_verify_loads_no_census_or_selftest(self, warm_cache):
        n, cache = warm_cache
        modules = self.loaded(["genus1", "--n", n, "--verify", "--threads", "2", "--cache", cache])
        assert self.among(self.CHECKS, modules) == []

    def test_warm_queries_load_no_dataclasses_or_inspect(self, warm_cache):
        # together about 10 ms of every query's start-up
        n, cache = warm_cache
        modules = self.loaded(
            ["coeff", "--n", n, "--mu", "3,3", "--threads", "2", "--cache", cache],
            ["expand", "--n", n, "--threads", "2", "--cache", cache, "--format", "json"],
            ["genus1", "--n", n, "--verify", "--threads", "2", "--cache", cache],
        )
        assert self.among(("dataclasses", "inspect"), modules) == []

    def test_uncached_scan_on_workers_loads_no_pool_module(self):
        # the workers are forked directly, without concurrent.futures
        modules = self.loaded(["expand", "--n", str(engine.POOL_MIN_N), "--threads", "2"])
        assert self.among(("concurrent.futures", "multiprocessing"), modules) == []

    def test_pool_path_matches_golden(self):
        n = engine.POOL_MIN_N
        proc = fresh_python(CLI_MAIN, "expand", "--n", str(n), "--threads", "2", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.encode() == (GOLDEN / f"expand-n{n}.json").read_bytes()

    def test_census_runs_in_a_fresh_process(self, capsys):
        argv = ["census", "--n", "3", "--format", "json"]
        proc = fresh_python(CLI_MAIN, *argv)
        assert proc.returncode == 0, proc.stderr
        code, expected, _err = run(capsys, *argv)
        assert code == 0 and proc.stdout == expected
        assert json.loads(proc.stdout)["classCount"] > 0
