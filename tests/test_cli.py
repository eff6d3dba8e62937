"""The command line front end on the fixtures.

`analyze` and `associate` reach every walk analysis: circularity, single
path, the visiting pair sets with their variation, kappa and the
associated pair.  These tests pin what they print with --json and the
exit code and message of a refusal.  `functional` is pinned on one att
per verdict: two outputs, a productive cycle, and functional with and
without a silent cycle.  The pump certificate `decide` writes replays
through `definable --replay`.
"""

import json
from pathlib import Path

import pytest

from ttdef import analysis
from ttdef.cli import main
from ttdef.model import render_spec

import fixtures
from test_walk_table import NONMONADIC_TEXT


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


def test_analyze_reads_the_one_walk_analysis(tmp_path, capsys, monkeypatch):
    """Every variation row comes from the pass single_path and kappa
    share: one growth system for A2's seven visiting pair sets."""
    growths = []

    class Counted(analysis._Growth):
        def __init__(self, *args):
            growths.append(args[0].name)
            super().__init__(*args)

    monkeypatch.setattr(analysis, "_Growth", Counted)
    got = run_json(capsys, ["analyze", "--json",
                            spec_file(tmp_path, fixtures.a2())])
    assert len(got["visiting_pair_sets"]) == 7
    assert growths == ["A2"]


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


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_eval_refuses_a_step_budget_that_is_not_positive(steps, tmp_path,
                                                         capsys):
    """As decide does: not the default budget, and no traceback."""
    argv = ["eval", "--max-steps", steps,
            spec_file(tmp_path, fixtures.a2()), "f(e,e)"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ttdef: error: config max_steps must be a "
                            "positive integer, got %s\n" % steps)


ND_DT = """\
dt ND
input g:1 e:0
output g:1 e:0
init q
rule q g: q(g(x1)) -> g(q(x1))
rule q e: q(e) -> e
rule q e: q(e) -> g(e)
"""


def test_eval_prints_every_output_of_a_nondeterministic_dt(tmp_path,
                                                          capsys):
    spec = tmp_path / "nd.dt"
    spec.write_text(ND_DT)
    assert main(["eval", str(spec), "g(e)"]) == 0
    assert capsys.readouterr().out == "g(e)\ng(g(e))\n"
    got = run_json(capsys, ["eval", "--json", str(spec), "g(e)"])
    assert got == {"schema": 1, "outputs": ["g(e)", "g(g(e))"],
                   "exhaustive": True}


def test_eval_refuses_a_nonmonadic_att(tmp_path, capsys):
    spec = tmp_path / "nm.att"
    spec.write_text(NONMONADIC_TEXT)
    assert main(["eval", str(spec), "f(e)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ttdef: error: nonmonadic\n"


@pytest.mark.parametrize("command, flag", [
    ("definable", "--depth"), ("definable", "--max-steps"),
    ("functional", "--verify-length"), ("functional", "--state-bound")])
def test_a_budget_flag_the_command_does_not_read_is_refused(command, flag,
                                                           tmp_path, capsys):
    argv = [command, spec_file(tmp_path, fixtures.a2()), flag, "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ttdef: error: unrecognized arguments: %s 1\n" % flag \
        in captured.err


def test_the_budget_flags_a_command_reads_take_effect(tmp_path, capsys):
    spec = spec_file(tmp_path, fixtures.a2())
    got = run_json(capsys, ["definable", "--json", "--verify-length", "3",
                            "--state-bound", "16", spec])
    assert (got["verdict"], got["verified_length"]) == ("definable", 3)
    got = run_json(capsys, ["functional", "--json", "--depth", "2",
                            "--max-steps", "100", spec])
    assert got == {"schema": 1, "verdict": "functional", "depth": 2}


FUNCTIONAL = {
    "n1": {"verdict": "not-functional", "input": "e",
           "outputs": ["e", "g(e)"]},
    "p0": {"verdict": "productive-cycle", "input": "e",
           "trace": ["a(1)", "g(b(1))", "g(a(1))", "g(g(b(1)))"]},
    "a1": {"verdict": "functional", "depth": 4},
    "c0": {"verdict": "functional", "depth": 4},
}


@pytest.mark.parametrize("name", sorted(FUNCTIONAL))
def test_functional_json(name, tmp_path, capsys):
    att = getattr(fixtures, name)()
    got = run_json(capsys, ["functional", "--json", spec_file(tmp_path, att)])
    assert got == dict(FUNCTIONAL[name], schema=1)


@pytest.fixture
def rev_certificate(tmp_path, capsys):
    """The REV spec file and the pump certificate `decide` writes for it."""
    spec = spec_file(tmp_path, fixtures.rev())
    report = run_json(capsys, ["decide", "--json", "--out",
                               str(tmp_path / "out"), spec])
    assert report["answer"]["reason"] == "not-definable"
    return spec, Path(report["answer"]["witness"])


def test_the_decided_pump_certificate_replays(rev_certificate, capsys):
    spec, cert = rev_certificate
    got = run_json(capsys, ["definable", "--json", "--replay", str(cert),
                            spec])
    assert got == {"schema": 1, "replayed": True}


def without_loop(text):
    data = json.loads(text)
    del data["certificate"]["loop"]
    return json.dumps(data)


@pytest.mark.parametrize("damage", [without_loop, lambda text: text[:-2],
                                    lambda text: "[3]"],
                         ids=["no-loop", "cut-short", "not-an-object"])
def test_a_damaged_certificate_is_refused(damage, rev_certificate, capsys):
    spec, cert = rev_certificate
    cert.write_text(damage(cert.read_text()))
    assert main(["definable", "--json", "--replay", str(cert), spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ttdef: error: ")
