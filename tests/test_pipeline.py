"""End-to-end decisions on the fixtures, pinned stage by stage.

Each case pins the answer, every stage verdict, the artifact basenames
(content hashes) and the report hash.  A refactor that keeps behaviour
keeps all of them; a change to any of them is a change in what the
pipeline decides or writes.
"""

from pathlib import Path

import pytest

from ttdef.pipeline import decide_dtR, report_to_json

import fixtures

PREFIX = [
    ("validate", "att", None),
    ("check_monadic", "monadic output", None),
    ("is_circular", "noncircular", None),
    ("normalize_ground_rhs", "no ground right-hand sides", None),
]

A2_CFG = {"equivalence_depth": 4, "verify_word_length": 5}


def stages_of(report):
    return [(s.name, s.verdict, s.artifact and Path(s.artifact).name)
            for s in report.stages]


def check_pinned(report, outdir, kind, stages, digest):
    got = report_to_json(report)
    assert got["answer"]["kind"] == kind
    assert stages_of(report) == PREFIX + stages
    for s in report.stages:
        if s.artifact:
            assert Path(s.artifact).parent == Path(outdir)
            assert Path(s.artifact).is_file()
    assert got["hash"] == digest


@pytest.fixture(scope="module")
def a2_twice(tmp_path_factory):
    """A2 decided into two different directories."""
    out = []
    for name in ("first", "second"):
        outdir = tmp_path_factory.mktemp(name)
        out.append((decide_dtR(fixtures.a2(), A2_CFG, outdir=outdir), outdir))
    return out


def test_a1_is_no_by_single_path(tmp_path):
    report = decide_dtR(fixtures.a1(), outdir=tmp_path)
    check_pinned(report, tmp_path, "no", [
        ("single_path", "no: unbounded variation at 1 and 2 off one path",
         "single-path-witness-becbed6a2c09.json"),
    ], "bfe9d7e56e73c66e64e90e023c7ada91531946db290b15d5ae68cead0699835a")
    assert report.answer.reason == "single-path-fails"


def test_rev_is_no_by_pump_certificate(tmp_path):
    report = decide_dtR(fixtures.rev(), outdir=tmp_path)
    check_pinned(report, tmp_path, "no", [
        ("single_path", "yes", None),
        ("associate", "word-shaped att behind a relabeling, kappa = 0",
         "associated-c364350820fb.att"),
        ("build_two_way", "two-way word machine 'REV_assoc_walk'",
         "two-way-9f77202913f9.att"),
        ("one_way_definability", "not definable, pump certificate written",
         "pump-certificate-eb4a35e9b662.json"),
    ], "0043db3e2773ddc61d586a4fdd4fc1aeae3c974adab4ab8d44f24cacc95c7f8e")
    assert report.answer.reason == "not-definable"


def test_a2_is_yes(a2_twice):
    report, outdir = a2_twice[0]
    check_pinned(report, outdir, "yes", [
        ("single_path", "yes", None),
        ("associate", "word-shaped att behind a relabeling, kappa = 1",
         "associated-5656e545cf70.att"),
        ("build_two_way", "two-way word machine 'A2_assoc_walk'",
         "two-way-34118a81f015.att"),
        ("one_way_definability",
         "definable; matched every accepted word up to length 5", None),
        ("back_convert", "tree-level transducer 'A2_assoc_walk_1way_trees'",
         None),
        ("uniformize", "deterministic candidate 'A2_dtr_det'",
         "dtr-29392332c3fc.att"),
        ("bounded_equivalence",
         "reloaded candidate equal on all inputs up to depth 4", None),
    ], "35233026b926bcdd1821aec24fccab0e0f9e1a0c7decc5a041ac41cede75f62b")
    assert Path(report.answer.spec_path).name == "dtr-29392332c3fc.att"


def test_report_hash_ignores_the_artifact_directory(a2_twice):
    (first, dir1), (second, dir2) = a2_twice
    j1, j2 = report_to_json(first), report_to_json(second)
    assert j1["hash"] == j2["hash"]
    # the report itself still points into its own directory
    assert Path(j1["answer"]["spec"]).parent == Path(dir1)
    assert Path(j2["answer"]["spec"]).parent == Path(dir2)
