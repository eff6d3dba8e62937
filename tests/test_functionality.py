"""Root-rule normalization, productive cycles, the annotated rule-choice
pair, bounded equivalence, and the functionality verdict."""

from dataclasses import replace

import pytest

from ttdef.analysis import is_circular
from ttdef.errors import AlphabetMismatch, NotApplicable, SpecSyntaxError
from ttdef.functionality import (AnnotatedAlphabet, Equal, FunctionalUpTo,
                                 FunctionalityBudget, NotFunctional,
                                 ProductiveCycle, Witness,
                                 bounded_equivalence, build_annotated_pair,
                                 detect_productive_cycle, is_functional,
                                 normalize_root_rules, replay_cycle)
from ttdef.model import ROOT, PairedSpec
from ttdef.semantics import (Output, StepBudget, derive_step,
                             enumerate_outputs, evaluate)
from ttdef.trees import parse_tree, trees_up_to_height

import fixtures
from fixtures import parse_spec

# root rules give the inherited b two choices, both ground
SPLIT_TEXT = """\
att split
input e:0
output g:1 e:0
syn a
inh b
init a
rule e: a(pi) -> b(pi)
rule #: b(pi 1) -> e
rule #: b(pi 1) -> g(e)
"""

# one root choice continues into the synthesized a, so pushing it down
# has to inline a's own rules
CONT_TEXT = """\
att cont
input f:1 e:0
output g:1 e:0
syn c a
inh b
init c
rule f: c(pi) -> c(pi 1)
rule f: b(pi 1) -> b(pi)
rule f: a(pi) -> g(a(pi 1))
rule e: c(pi) -> b(pi)
rule e: a(pi) -> e
rule #: b(pi 1) -> e
rule #: b(pi 1) -> a(pi 1)
"""

# the productive cycle can also escape, so two outputs exist
ESCAPE_TEXT = """\
att escape
input e:0
output g:1 e:0
syn a
inh b
init a
rule e: a(pi) -> g(b(pi))
rule e: a(pi) -> e
rule #: b(pi 1) -> a(pi 1)
"""

WIDE_TEXT = """\
att wide
input e:0
output f:2 e:0
syn a
init a
rule e: a(pi) -> f(e, e)
"""


def lifted_a1():
    """A1 over A2's input alphabet; the extra symbol d has no rules."""
    return replace(fixtures.a1(), name="A1_fed", input=fixtures.a2().input)


def translation(d, s):
    outs, exhaustive = enumerate_outputs(d, s)
    assert exhaustive
    return {t.render() for t in outs}


# ---------------------------------------------------------------------------
# normalize_root_rules


def test_normalize_splits_root_choices():
    n = normalize_root_rules(parse_spec(SPLIT_TEXT))
    assert n.name == "split_rootdet"
    assert n.syn == ("a", "a_<b>")
    assert [r.render(ROOT) for r in n.rules_at(ROOT)] == \
        ["rule #: b(pi 1) -> a_<b>(pi 1)"]
    assert [r.render("e") for r in n.rules_at("e")] == [
        "rule e: a(pi) -> b(pi)",
        "rule e: a_<b>(pi) -> e",
        "rule e: a_<b>(pi) -> g(e)",
    ]
    assert n.deterministic is False  # the choice moved, it did not vanish


def test_normalize_inlines_continuations():
    n = normalize_root_rules(parse_spec(CONT_TEXT))
    assert [r.render("f") for r in n.rules_at("f")] == [
        "rule f: c(pi) -> c(pi 1)",
        "rule f: b(pi 1) -> b(pi)",
        "rule f: a(pi) -> g(a(pi 1))",
        "rule f: a_<b>(pi) -> e",
        "rule f: a_<b>(pi) -> g(a(pi 1))",
    ]
    # at e both root choices collapse to the same ground rule
    assert [r.render("e") for r in n.rules_at("e")] == [
        "rule e: c(pi) -> b(pi)",
        "rule e: a(pi) -> e",
        "rule e: a_<b>(pi) -> e",
    ]


@pytest.mark.parametrize("text", [SPLIT_TEXT, CONT_TEXT])
def test_normalize_preserves_translation_sets(text):
    a = parse_spec(text)
    n = normalize_root_rules(a)
    for s in trees_up_to_height(a.input, 3):
        assert translation(a, s) == translation(n, s)


def test_normalize_keeps_deterministic_roots_untouched():
    a = fixtures.a1()
    assert normalize_root_rules(a) is a
    p = fixtures.p0()
    assert normalize_root_rules(p) is p


def test_normalize_keeps_circularity_status():
    a = parse_spec(CONT_TEXT)
    assert is_circular(a)[0] is False
    assert is_circular(normalize_root_rules(a))[0] is False


# ---------------------------------------------------------------------------
# productive cycles


def test_cycle_trace_golden():
    cert = detect_productive_cycle(fixtures.p0())
    assert cert.input == parse_tree("e")
    assert [t.render() for t in cert.trace] == \
        ["a(1)", "g(b(1))", "g(a(1))", "g(g(b(1)))"]


def test_cycle_trace_replays_step_by_step():
    p0 = fixtures.p0()
    cert = detect_productive_cycle(p0)
    for cur, nxt in zip(cert.trace, cert.trace[1:]):
        assert nxt in derive_step(p0, cert.input, cur)
    assert replay_cycle(p0, cert)


def test_cycle_replay_rejects_tampering():
    p0 = fixtures.p0()
    cert = detect_productive_cycle(p0)
    assert not replay_cycle(p0, replace(cert, trace=cert.trace[:3]))
    assert not replay_cycle(p0, replace(cert, trace=cert.trace[::-1]))
    assert not replay_cycle(p0, replace(cert, input=parse_tree("g(e)")))


def test_no_cycle_when_nothing_grows():
    assert detect_productive_cycle(fixtures.c0()) is None


def test_no_cycle_without_circularity():
    assert detect_productive_cycle(fixtures.a1()) is None
    assert detect_productive_cycle(fixtures.a2()) is None


def test_cycle_positives_are_circular():
    p0, c0 = fixtures.p0(), fixtures.c0()
    assert detect_productive_cycle(p0) is not None
    assert is_circular(p0)[0] is True
    # circularity alone is not enough
    assert is_circular(c0)[0] is True
    assert detect_productive_cycle(c0) is None


# ---------------------------------------------------------------------------
# the annotated pair


def test_annotated_choice_counts():
    alphabet = AnnotatedAlphabet(fixtures.a1())
    assert len(alphabet.choices("f")) == 8
    assert len(alphabet.choices("e")) == 2
    assert sum(len(alphabet.choices(sym)) ** 2
               for sym, _ in alphabet.att.input.items()) == 68


def test_annotated_choices_never_share_a_lhs():
    n1 = fixtures.n1()
    alphabet = AnnotatedAlphabet(n1)
    # the two e-rules of N1 share their left-hand side, so they are
    # never picked together
    assert alphabet.choices("e") == [(), (0,), (1,)]
    for picks in alphabet.choices("f"):
        rules = [n1.rules_at("f")[i] for i in picks]
        assert len({(r.attr, r.pos) for r in rules}) == len(rules)


def test_annotated_symbols_without_rules():
    alphabet = AnnotatedAlphabet(lifted_a1())
    assert alphabet.choices("d") == [()]


def test_annotated_name_round_trip():
    alphabet = AnnotatedAlphabet(fixtures.a1())
    assert alphabet.name_of("f", (0, 2), (1,)) == "f_<0+2>_<1>"
    assert alphabet.decode("f_<0+2>_<1>") == ("f", (0, 2), (1,))
    for p1 in alphabet.choices("f"):
        for p2 in alphabet.choices("f"):
            assert alphabet.decode(alphabet.name_of("f", p1, p2)) == \
                ("f", p1, p2)


def test_annotated_decode_rejects_foreign_labels():
    alphabet = AnnotatedAlphabet(fixtures.a1())
    with pytest.raises(SpecSyntaxError):
        alphabet.decode("f")
    with pytest.raises(SpecSyntaxError):
        alphabet.decode("f_<0>")  # only one annotation layer
    with pytest.raises(SpecSyntaxError):
        alphabet.decode("z_<->_<->")  # no such base symbol
    with pytest.raises(SpecSyntaxError):
        alphabet.decode("f_<a+b>_<->")


def test_copies_follow_their_annotations():
    c1, c2 = build_annotated_pair(fixtures.n1())
    alphabet = c1.alphabet
    stilde = alphabet.annotate(parse_tree("e"), {(1,): {1}}, {(1,): {0}})
    assert stilde.label == "e_<1>_<0>"
    assert c1.evaluate(stilde) == parse_tree("e")
    assert c2.evaluate(stilde) == parse_tree("g(e)")
    assert alphabet.project(stilde) == parse_tree("e")


def test_copies_stick_without_allowed_rules():
    c1, c2 = build_annotated_pair(fixtures.n1())
    stilde = c1.alphabet.annotate(parse_tree("e"), {}, {})
    assert c1.evaluate(stilde) is None
    assert c2.evaluate(stilde) is None


def test_copies_translate_like_the_source_when_everything_is_allowed():
    a1 = fixtures.a1()
    c1, c2 = build_annotated_pair(a1)

    def full(att, s):
        return {(1,) + addr: set(range(len(att.rules_at(node.label))))
                for addr, node in s.addresses()}

    for s in trees_up_to_height(a1.input, 3):
        stilde = c1.alphabet.annotate(s, full(c1.att, s), full(c1.att, s))
        got = evaluate(a1, s)
        want = got.tree if isinstance(got, Output) else None
        assert c1.evaluate(stilde) == want
        assert c2.evaluate(stilde) == want


def test_copies_reject_malformed_annotations():
    n1 = fixtures.n1()
    c1, _ = build_annotated_pair(n1)
    out_of_range = c1.alphabet.annotate(parse_tree("e"), {(1,): {9}}, {})
    with pytest.raises(SpecSyntaxError):
        c1.evaluate(out_of_range)
    shared_lhs = c1.alphabet.annotate(parse_tree("e"), {(1,): {0, 1}}, {})
    with pytest.raises(SpecSyntaxError):
        c1.evaluate(shared_lhs)


def test_pair_witness_projects_to_two_source_outputs():
    n1 = fixtures.n1()
    c1, c2 = build_annotated_pair(n1)
    got = bounded_equivalence(c1, c2, 2)
    assert isinstance(got, Witness)
    assert c1.evaluate(got.input) == got.out1
    assert c2.evaluate(got.input) == got.out2
    s = c1.alphabet.project(got.input)
    outs, exhaustive = enumerate_outputs(n1, s)
    assert exhaustive and {got.out1, got.out2} <= outs


# ---------------------------------------------------------------------------
# bounded equivalence


def test_equivalence_is_reflexive():
    assert bounded_equivalence(fixtures.a1(), fixtures.a1(), 4) == Equal(4)


def test_equivalence_reports_first_difference_in_canonical_order():
    # A1 has no rules at d while A2 copies the leaf symbol, so the
    # smallest tree d already separates them
    got = bounded_equivalence(lifted_a1(), fixtures.a2(), 3)
    assert got == Witness(parse_tree("d"), None, parse_tree("d"))


def test_equivalence_needs_a_common_alphabet():
    with pytest.raises(AlphabetMismatch):
        bounded_equivalence(fixtures.a1(), fixtures.a2(), 2)


def test_equivalence_compares_across_spec_kinds():
    relab = fixtures.identity_relabeling(fixtures.a1().input, "idfe")
    got = bounded_equivalence(relab, fixtures.a1(), 2)
    assert got == Witness(parse_tree("e"), parse_tree("e"), parse_tree("g(e)"))


# ---------------------------------------------------------------------------
# the verdict


def test_functional_deterministic_atts():
    assert is_functional(fixtures.a1()) == FunctionalUpTo(4)
    assert is_functional(fixtures.a2()) == FunctionalUpTo(4)


def test_functional_finds_two_outputs():
    n1 = fixtures.n1()
    verdict = is_functional(n1)
    assert verdict == NotFunctional(parse_tree("e"), parse_tree("e"),
                                    parse_tree("g(e)"))
    outs, exhaustive = enumerate_outputs(n1, verdict.input)
    assert exhaustive and {verdict.out1, verdict.out2} <= outs
    assert is_functional(n1) == verdict


def test_functional_reports_unfinishable_cycles():
    p0 = fixtures.p0()
    verdict = is_functional(p0)
    assert isinstance(verdict, ProductiveCycle)
    assert verdict == detect_productive_cycle(p0)
    assert replay_cycle(p0, verdict)


def test_functional_upgrades_completable_cycles():
    a = parse_spec(ESCAPE_TEXT)
    verdict = is_functional(a)
    assert verdict == NotFunctional(parse_tree("e"), parse_tree("e"),
                                    parse_tree("g(e)"))
    # full enumeration would chase the pumped outputs forever, so the
    # replay uses a small budget; the claimed pair shows up immediately
    outs, _ = enumerate_outputs(a, verdict.input, StepBudget(max_steps=200))
    assert {verdict.out1, verdict.out2} <= outs


def test_functional_accepts_unproductive_cycles():
    assert is_functional(fixtures.c0()) == FunctionalUpTo(4)


def test_functional_with_look_around():
    a2 = fixtures.a2()
    pair = PairedSpec(kind="attU", name="a2_u",
                      first=fixtures.identity_lookaround(a2.input, "idfed"),
                      second=a2)
    assert is_functional(pair, 3) == FunctionalUpTo(3)


def test_functional_with_look_around_finds_two_outputs():
    n1 = fixtures.n1()
    pair = PairedSpec(kind="attU", name="n1_u",
                      first=fixtures.identity_lookaround(n1.input, "idfe"),
                      second=n1)
    verdict = is_functional(pair, 3)
    assert verdict == NotFunctional(parse_tree("e"), parse_tree("e"),
                                    parse_tree("g(e)"))
    outs, exhaustive = enumerate_outputs(pair, verdict.input)
    assert exhaustive and {verdict.out1, verdict.out2} <= outs


def test_functional_with_look_around_reports_cycles():
    p0 = fixtures.p0()
    pair = PairedSpec(kind="attU", name="p0_u",
                      first=fixtures.identity_lookaround(p0.input, "ide"),
                      second=p0)
    verdict = is_functional(pair, 2)
    assert isinstance(verdict, ProductiveCycle)
    # the cycle witness names the relabeled tree and replays against the
    # att side of the pair
    assert replay_cycle(p0, verdict)


def test_functional_rejects_other_pair_kinds():
    look = fixtures.identity_lookaround(fixtures.a1().input, "idfe")
    with pytest.raises(NotApplicable):
        is_functional(look)


def test_functional_needs_word_output():
    with pytest.raises(NotApplicable):
        is_functional(parse_spec(WIDE_TEXT))


def test_budget_coercion():
    assert FunctionalityBudget.coerce(None) == FunctionalityBudget()
    assert FunctionalityBudget.coerce(2).depth == 2
    budget = FunctionalityBudget(depth=3, max_steps=10)
    assert FunctionalityBudget.coerce(budget) is budget
    with pytest.raises(SpecSyntaxError):
        FunctionalityBudget.coerce("plenty")
