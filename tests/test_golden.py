"""CLI outputs compared byte for byte with the recorded files in golden/.

A refactor that promises identical output is held to it here.  When an
output change is intended, rewrite the file from the command's stdout.
"""

from pathlib import Path

import pytest

from zkerov.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("expand-n6", ["expand", "--n", "6"], 0),
    # recorded from the full pass over every matching, before the orbit sum
    ("expand-n7", ["expand", "--n", "7"], 0),
    ("expand-n8", ["expand", "--n", "8"], 0),
    ("genus1-n7-verify", ["genus1", "--n", "7", "--verify"], 0),
    ("census-reduced-twisted", ["census", "--reduced", "--twisted"], 0),
    ("census-reduced-bipartite-contributing-max-n5",
     ["census", "--reduced-bipartite", "--contributing", "--max-n", "5"], 0),
    # the ranges of the benchmark's reference workload
    ("census-reduced-twisted-max-n6", ["census", "--reduced", "--twisted", "--max-n", "6"], 0),
    ("census-reduced-bipartite-contributing-max-n7",
     ["census", "--reduced-bipartite", "--contributing", "--max-n", "7"], 0),
    ("selftest-max-n5", ["selftest", "--max-n", "5"], 0),
    # exit 0: the zonal coefficients at n=6 are integers (test_kerov_oracle.py)
    ("selftest-max-n6", ["selftest", "--max-n", "6"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_json_output_matches_golden(capsys, name, argv, code):
    assert main([*argv, "--threads", "2", "--format", "json"]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()
