"""The command line front end on the fixtures.

`analyze` and `associate` reach every walk analysis: circularity, single
path, the visiting pair sets with their variation, kappa and the
associated pair.  These tests pin what they print with --json and the
exit code and message of a refusal.
"""

import json
from pathlib import Path

import pytest

from ttdef.cli import main
from ttdef.model import render_spec

import fixtures


def spec_file(tmp_path, att):
    path = tmp_path / ("%s.att" % att.name.lower())
    path.write_text(render_spec(att))
    return str(path)


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def rows(*entries):
    return [{"pairs": [list(p) for p in pairs], "bounded": kappa is not None,
             "kappa": kappa} for pairs, kappa in entries]


ANALYZE = {
    "a1": {
        "circular": False, "single_path": False,
        "single_path_witness": {"input": "f(e,e)", "addresses": [[1], [2]]},
        "visiting_pair_sets": rows(([("b", "a")], None)),
        "kappa": 0,
    },
    "a2": {
        "circular": False, "single_path": True,
        "visiting_pair_sets": rows(
            ([], 0),
            ([("b_d", "a")], 1),
            ([("b_d", "a"), ("lit<d>", "a_d")], None),
            ([("b_d", "a"), ("lit<e>", "a_d")], None),
            ([("b_e", "a")], 1),
            ([("b_e", "a"), ("lit<d>", "a_e")], None),
            ([("b_e", "a"), ("lit<e>", "a_e")], None)),
        "kappa": 1,
    },
    "rev": {
        "circular": False, "single_path": True,
        "visiting_pair_sets": rows(([("b", "a")], None)),
        "kappa": 0,
    },
}


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_analyze_json(name, tmp_path, capsys):
    att = getattr(fixtures, name)()
    got = run_json(capsys, ["analyze", "--json", spec_file(tmp_path, att)])
    assert got == dict(ANALYZE[name], schema=1, att=att.name, monadic=True)


@pytest.mark.parametrize("name, kappa, basename", [
    ("a1", 0, "associated-cbdfcd32638f.att"),
    ("a2", 1, "associated-5656e545cf70.att"),
    ("rev", 0, "associated-c364350820fb.att"),
])
def test_associate_json(name, kappa, basename, tmp_path, capsys):
    att = getattr(fixtures, name)()
    out = tmp_path / "out"
    got = run_json(capsys, ["associate", "--json", "--out", str(out),
                            spec_file(tmp_path, att)])
    assert got == {"schema": 1, "pair": att.name + "_assoc", "kappa": kappa,
                   "spec": str(out / basename)}
    assert Path(got["spec"]).is_file()


def test_analyze_reports_a_circular_spec(tmp_path, capsys):
    got = run_json(capsys, ["analyze", "--json",
                            spec_file(tmp_path, fixtures.c0())])
    assert got == {"schema": 1, "att": "C0", "monadic": True,
                   "circular": True}


@pytest.mark.parametrize("command", ["associate", "decide"])
def test_a_circular_spec_is_refused(command, tmp_path, capsys):
    argv = [command, "--json", "--out", str(tmp_path / "out"),
            spec_file(tmp_path, fixtures.c0())]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ttdef: error: ")
    assert "circular" in captured.err
    assert not (tmp_path / "out").exists()
