"""End-to-end decisions on the fixtures, pinned stage by stage.

Each case pins the answer, every stage verdict, the artifact basenames
(content hashes) and the report hash.  A refactor that keeps behaviour
keeps all of them; a change to any of them is a change in what the
pipeline decides or writes.
"""

import gc
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from ttdef import pipeline
from ttdef.cli import main
from ttdef.constructions import associate
from ttdef.errors import NotApplicable
from ttdef.model import PairedSpec, parse_all
from ttdef.pipeline import No, Yes, decide_dtR, report_to_json
from ttdef.semantics import evaluate
from ttdef.trees import Tree, parse_tree
from ttdef.word_transducers import one_way_definability

import fixtures
from fixtures import parse_spec
from test_word_cache import IDW_TEXT
from test_word_transducers import COPY_TEXT, HALF_TEXT

PREFIX = [
    ("validate", "att", None),
    ("check_monadic", "monadic output", None),
    ("is_circular", "noncircular", None),
    ("normalize_ground_rhs", "no ground right-hand sides", None),
]

A2_CFG = {"equivalence_depth": 4, "verify_word_length": 5}

# A1 with a second a-rule at e that asks for the inherited c, which no
# rule defines: that walk gets stuck, so S1 stays a function of A1's
# outputs while no longer being deterministic
S1_TEXT = (fixtures.A1_TEXT.replace("att A1", "att S1")
           .replace("inh b\n", "inh b c\n") + "rule e: a(pi) -> c(pi)\n")


def stages_of(report):
    return [(s.name, s.verdict, s.artifact and Path(s.artifact).name)
            for s in report.stages]


def check_pinned(report, outdir, kind, stages, digest, prefix=PREFIX):
    got = report_to_json(report)
    assert got["answer"]["kind"] == kind
    assert stages_of(report) == prefix + stages
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


def test_a_rule_repeated_verbatim_decides_like_one(tmp_path):
    """A1 built in memory with its e rule twice walks on its table and
    decides exactly like A1."""
    a1 = fixtures.a1()
    rules = dict(a1.rules)
    rules["e"] += rules["e"]
    doubled = replace(a1, rules=rules)
    assert doubled.deterministic and doubled.walks_on_table
    want = decide_dtR(a1, outdir=tmp_path / "a1")
    got = decide_dtR(doubled, outdir=tmp_path / "doubled")
    assert got.answer.reason == want.answer.reason == "single-path-fails"
    assert stages_of(got) == stages_of(want)


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


def test_a_step_budget_that_bites_is_unknown_at_bounded_equivalence(
        tmp_path):
    """max_steps binds the final check too: with 5 steps, A2's walk runs
    out on f(d,d), the first tree past d and e, so the dtR is not
    vouched for."""
    report = decide_dtR(fixtures.a2(), dict(A2_CFG, max_steps=5),
                        outdir=tmp_path)
    assert report.answer.stage == "bounded_equivalence"
    assert report.answer.reason == (
        "the step budget ran out on f(d,d) (max_steps = 5, "
        "max_enumeration = 10000)")
    assert stages_of(report)[-1] == (
        "bounded_equivalence", "step budget ran out on f(d,d)", None)


def test_lookaround_pair_is_unknown_at_bounded_equivalence(tmp_path):
    """A2 behind the leftmost-e look-around, as the benchmark's
    lookaround-lme workload runs it.  The composed candidate disagrees
    with the pair, so the answer is Unknown (ROADMAP item 9)."""
    pair = PairedSpec("attU", "LME", fixtures.leftmost_e_lookaround(),
                      fixtures.a2())
    report = decide_dtR(pair, {"equivalence_depth": 4,
                               "verify_word_length": 2}, outdir=tmp_path)
    check_pinned(report, tmp_path, "unknown", [
        ("validate", "att with look-around", None),
        ("check_monadic", "monadic output", None),
        ("is_circular", "noncircular", None),
        ("normalize_domain_into_range",
         "domain check folded into 'A2_checked' over 6 annotated symbols",
         "ranged-9c75b5ab109f.att"),
        ("normalize_ground_rhs", "no ground right-hand sides", None),
        ("single_path", "yes", None),
        ("associate", "word-shaped att behind a relabeling, kappa = 1",
         "associated-dcc1c4a13aa0.att"),
        ("build_two_way", "two-way word machine 'A2_checked_assoc_walk'",
         "two-way-f1b797b86a5f.att"),
        ("one_way_definability",
         "definable; matched every accepted word up to length 2", None),
        ("back_convert",
         "tree-level transducer 'A2_checked_assoc_walk_1way_trees'", None),
        ("uniformize", "deterministic candidate 'LME_dtr_det'", None),
        ("compose", "look-around composed in: 'lme_ranged_LME_dtr_det'",
         "dtr-2a468979e191.att"),
        ("bounded_equivalence",
         "candidate disagrees with the att on f(f(e,d),d)", None),
    ], "c9d14243e9712b749d89d24cf2560b3486fe60861be442a815fa11d0a757315c",
        prefix=[])
    assert report.answer.stage == "bounded_equivalence"


def test_a_nonfunctional_att_is_refused_at_the_functional_stage(tmp_path):
    with pytest.raises(NotApplicable) as err:
        decide_dtR(fixtures.n1(), outdir=tmp_path)
    assert str(err.value) == (
        "stage 'functional': 'A1' maps e to two different outputs; no "
        "deterministic transducer computes it")


def test_a_functional_nondeterministic_att_stops_at_determinize(tmp_path):
    s1 = parse_spec(S1_TEXT)
    assert not s1.deterministic
    report = decide_dtR(s1, outdir=tmp_path)
    check_pinned(report, tmp_path, "unknown", [
        ("functional", "functional up to depth 4", None),
        ("determinize", "not attempted", None),
    ], "8b2368e31f26e20a91da6222f1c4577a266d5db23eefc143c1d8c1a22814cba2",
        prefix=PREFIX[:3])
    assert report.answer.stage == "determinize"


def test_the_functional_stage_rewrites_no_string_form(tmp_path, monkeypatch):
    """The functional stage, on S1 and on the refused N1, derives on rule
    chains: it rewrites no form with Tree.replace_at and parses no
    occurrence label.  The string-form derivation took 603 rewrites and
    1 180 parsed labels on S1."""
    counts = {"replace_at": 0, "occ_node_info": 0}

    def counted(name, real):
        def run(*args):
            counts[name] += 1
            return real(*args)
        return run

    monkeypatch.setattr(Tree, "replace_at",
                        counted("replace_at", Tree.replace_at))
    for name, module in list(sys.modules.items()):
        if name.startswith("ttdef.") and hasattr(module, "occ_node_info"):
            monkeypatch.setattr(module, "occ_node_info", counted(
                "occ_node_info", module.occ_node_info))
    report = decide_dtR(parse_spec(S1_TEXT), outdir=tmp_path)
    assert report.answer.stage == "determinize"
    with pytest.raises(NotApplicable, match="two different outputs"):
        decide_dtR(fixtures.n1(), outdir=tmp_path)
    assert counts == {"replace_at": 0, "occ_node_info": 0}


def test_report_hash_ignores_the_artifact_directory(a2_twice):
    (first, dir1), (second, dir2) = a2_twice
    j1, j2 = report_to_json(first), report_to_json(second)
    assert j1["hash"] == j2["hash"]
    # the report itself still points into its own directory
    assert Path(j1["answer"]["spec"]).parent == Path(dir1)
    assert Path(j2["answer"]["spec"]).parent == Path(dir2)


def test_reserved_output_names_stop_before_any_artifact(tmp_path, capsys):
    """An att whose output symbol is named like a dt variable is refused
    when its text is parsed, not after the pipeline has written a dtR
    that cannot be read back."""
    spec = tmp_path / "x.att"
    spec.write_text(fixtures.X0_TEXT)
    assert main(["decide", "--out", str(tmp_path / "out"), str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ttdef: error: output symbol name 'x0' is reserved")
    assert not (tmp_path / "out").exists()


def test_the_reduced_att_is_freed_before_the_oracle(tmp_path, monkeypatch):
    """After build_two_way the decision keeps only the relabeling of the
    associated att for uniformize, and rendering an artifact keeps no
    declaration it rendered: the reduced att, with its compiled rule
    table, is freed by reference counting before the oracle runs."""
    reduced, alive = [], []

    def watched_associate(att):
        h = associate(att)
        reduced.append(weakref.ref(h.att))
        return h

    def watched_oracle(tw, budget):
        alive.append(reduced[0]() is not None)
        return one_way_definability(tw, budget)

    monkeypatch.setattr(pipeline, "associate", watched_associate)
    monkeypatch.setattr(pipeline, "one_way_definability", watched_oracle)
    gc.collect()
    gc.disable()
    try:
        report = decide_dtR(fixtures.a2(), A2_CFG, outdir=tmp_path)
    finally:
        gc.enable()
    assert alive == [False]
    assert Path(report.answer.spec_path).name == "dtr-29392332c3fc.att"


# Known wrong answers on definable atts, pinned as strict xfails: each
# must fail today, and passes once the defect it names is fixed.  A
# sampled pump certificate says No on W107, fooled by a transient, and
# on T2 at length 10 (ROADMAP item 2).
WRONG_NO = {("W107", 6, 1), ("W107", 6, 2), ("W107", 6, 4),
            ("W107", 10, 1), ("W107", 10, 2), ("W107", 10, 4),
            ("T2", 10, 1), ("T2", 10, 2), ("T2", 10, 4)}


@pytest.mark.parametrize("name,length,bound", [
    pytest.param(name, length, bound, marks=[pytest.mark.xfail(
        strict=True, reason="a sampled pump certificate says No")]
        if (name, length, bound) in WRONG_NO else [])
    for name in ("W107", "T2") for length in (6, 10)
    for bound in (1, 2, 4, 16)])
def test_a_definable_att_never_answers_no(name, length, bound, tmp_path):
    a = parse_spec(getattr(fixtures, name + "_TEXT"))
    report = decide_dtR(a, {"verify_word_length": length,
                            "synth_state_bound": bound}, outdir=tmp_path)
    assert not isinstance(report.answer, No)


# Known wrong answers on atts with no dtR: reversal and copying of a
# monadic word answer Yes, and each wrong dtR first differs from its att
# on a path one letter longer than the verified length (ROADMAP item 4).
WRONG_YES = {("REV", 4), ("REV", 5),
             ("COPY", 4), ("COPY", 5), ("COPY", 6), ("COPY", 10)}


@pytest.mark.parametrize("name,length", [
    pytest.param(name, length, marks=[pytest.mark.xfail(
        strict=True, reason="a wrong Yes: the dtR differs one letter past "
        "the verified length")] if (name, length) in WRONG_YES else [])
    for name in ("REV", "COPY") for length in (4, 5, 6, 10)])
def test_a_non_definable_att_never_answers_yes(name, length, tmp_path):
    a = parse_spec(fixtures.REV_TEXT if name == "REV" else COPY_TEXT)
    report = decide_dtR(a, {"equivalence_depth": 4,
                            "verify_word_length": length}, outdir=tmp_path)
    assert not isinstance(report.answer, Yes)


def yes_agrees_with_the_att(text, tree, tmp_path):
    """The att of text answers Yes at verify_word_length 6, and its
    reloaded dtR agrees with it on tree."""
    a = parse_spec(text)
    report = decide_dtR(a, {"verify_word_length": 6}, outdir=tmp_path)
    assert isinstance(report.answer, Yes)
    dtr = parse_all(Path(report.answer.spec_path).read_text())[-1]
    s = parse_tree(tree)
    assert evaluate(dtr, s) == evaluate(a, s)


@pytest.mark.xfail(strict=True, reason="a wrong Yes: the dtR differs one "
                   "letter past the verified length")
def test_a_yes_on_d65_agrees_with_the_att(tmp_path):
    yes_agrees_with_the_att(fixtures.D65_TEXT,
                            "f(e,f(e,f(e,f(e,f(e,g(e))))))", tmp_path)


# T2 gives h(h(h(c))) on its tree and its dtR h(h(h(h(c)))); T2B gives
# h(k(h(k(c)))) and its dtR h(k(h(k(h(k(c)))))) (ROADMAP item 4)
@pytest.mark.xfail(strict=True, reason="a wrong Yes: the dtR differs on a "
                   "longer path")
@pytest.mark.parametrize("name, tree", [
    ("T2", "g(g(g(g(g(g(e))))))"),
    ("T2B", "f(g(g(g(f(g(e),g(e))))),e)")])
def test_a_yes_on_a_syn_only_att_agrees_with_the_att(name, tree, tmp_path):
    yes_agrees_with_the_att(getattr(fixtures, name + "_TEXT"), tree,
                            tmp_path)


ROUTE_FIXTURES = {name: getattr(fixtures, name + "_TEXT")
                  for name in ("A1", "A2", "REV", "W107", "T2", "T2B", "D65")}
ROUTE_FIXTURES.update(COPY=COPY_TEXT, HALF=HALF_TEXT, IDW=IDW_TEXT)


@pytest.mark.parametrize("length", [4, 6])
def test_the_identity_lookaround_never_flips_the_answer(length, tmp_path):
    """Metamorphic (ROADMAP item 4): an att and the att behind the
    identity look-around translate alike, so their answers never differ
    as Yes against No.  An Unknown on one route is allowed: T2 at length
    6 is Yes bare and Unknown behind the look-around."""
    cfg = {"equivalence_depth": 3, "verify_word_length": length}
    for name, text in ROUTE_FIXTURES.items():
        a = parse_spec(text)
        kinds = {type(decide_dtR(d, cfg, outdir=tmp_path / route).answer)
                 for route, d in (
                     ("bare", a),
                     ("behind", PairedSpec(
                         "attU", name + "_U",
                         fixtures.identity_lookaround(a.input), a)))}
        assert kinds != {Yes, No}, (name, length)
