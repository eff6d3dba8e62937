"""Prefix-encoding words, the walking word machine, and the one-way
definability check with its certificates."""

from collections import Counter

import pytest

from ttdef.constructions import AssociatedAttR, associate
from ttdef.errors import NoSuchNode, NotApplicable, SpecSyntaxError
from ttdef.model import (ROOT, PairedSpec, RelabelingRule, RelabelingSpec,
                         TdttRule, TdttSpec, call_label, check_monadic,
                         mangle_child, render_spec)
from ttdef.one_way import restrict_to_language, verify
from ttdef.semantics import Output, Reject, evaluate, run_relabeling
from ttdef.trees import (RankedAlphabet, Tree, format_address, parse_tree,
                         trees_up_to_height)
from ttdef.word_transducers import (Definable, DefinabilityBudget,
                                    NotDefinable, TwoWayWord, Unknown,
                                    accepted_counts, accepted_words,
                                    back_convert,
                                    build_correspondence_automaton,
                                    build_two_way, certificate_from_json,
                                    certificate_to_json,
                                    encoding_alphabet, one_way_definability,
                                    range_automaton, replay_certificate,
                                    tree_of, word_of)

import fixtures
from fixtures import parse_spec
from string_forms import rules_for

FED = RankedAlphabet({"f": 2, "e": 0, "d": 0})

# words frozen from the walk over relabeled trees: the second letter
# of f_<r0,r1> holds a d-subtree, the first an e-subtree
INSIDE = ("f_<r0,r1>@2", "d")
OUTSIDE = ("f_<r0,r1>@1", "d")


def encode_prefix(s, path):
    """Word for the root-to-leaf walk of s along the given address.

    Each step into child i of a sym node contributes the letter sym@i;
    the addressed node must be a leaf and ends the word.  Subtrees off
    the path are forgotten (they become the holes of the decoded
    prefix).
    """
    labels = []
    node = s
    for depth, i in enumerate(path):
        if not 1 <= i <= len(node.children):
            raise NoSuchNode("no child %d at address %s"
                             % (i, format_address(tuple(path[:depth]))))
        labels.append(mangle_child(node.label, i))
        node = node.children[i - 1]
    if node.children:
        raise NoSuchNode("the path stops at inner node %r; prefix words "
                         "end at a leaf" % node.label)
    word = Tree(node.label)
    for lab in reversed(labels):
        word = Tree(lab, [word])
    return word


def same_outcome(x, y):
    if isinstance(x, Output) != isinstance(y, Output):
        return False
    return not isinstance(x, Output) or x.tree == y.tree


def accepts(aut, word):
    got = run_relabeling(aut, tree_of(word))
    return not isinstance(got, Reject) and got[0] in aut.final


def full_universe(enc, max_length):
    """Every word over the encoding letters, accepted or not."""
    inner = sorted(s for s, k in enc.items() if k == 1)
    leaves = sorted(s for s, k in enc.items() if k == 0)
    words = []
    level = [()]
    for _ in range(max_length):
        words.extend(p + (l,) for p in level for l in leaves)
        level = [p + (c,) for p in level for c in inner]
    return words


def accept_all(att):
    """One-state correspondence automaton for a word-shaped att."""
    rules = tuple(RelabelingRule(s, ("ok",) * k, "ok", s)
                  for s, k in att.input.items())
    return RelabelingSpec(att.name + "_corr", att.input, att.input,
                          ("ok",), rules)


@pytest.fixture(scope="module")
def assoc2():
    return associate(fixtures.a2())


@pytest.fixture(scope="module")
def tw2(assoc2):
    return build_two_way(assoc2)


@pytest.fixture(scope="module")
def verdict2(tw2):
    return one_way_definability(
        tw2, DefinabilityBudget(verify_length=5, max_words=12000))


@pytest.fixture(scope="module")
def rev_tw():
    r = fixtures.rev()
    return TwoWayWord("rev_w", r, accept_all(r))


@pytest.fixture(scope="module")
def rev_verdict(rev_tw):
    return one_way_definability(rev_tw)


# ---------------------------------------------------------------------------
# prefix encoding

def test_encoding_alphabet_splits_each_child():
    enc = encoding_alphabet(FED)
    assert dict(enc.items()) == {"f@1": 1, "f@2": 1, "e": 0, "d": 0}


def test_encode_prefix_follows_the_path():
    s = parse_tree("f(d, f(f(e, d), d))")
    assert word_of(encode_prefix(s, (2, 1, 1))) == ("f@2", "f@1", "f@1", "e")
    assert word_of(encode_prefix(Tree("e"), ())) == ("e",)


def test_encode_prefix_needs_a_leaf_at_the_end():
    s = parse_tree("f(d, e)")
    with pytest.raises(NoSuchNode):
        encode_prefix(s, (3,))
    with pytest.raises(NoSuchNode):
        encode_prefix(parse_tree("f(f(e, e), d)"), (1,))


def test_word_of_is_inverse_to_tree_of():
    w = ("f@2", "f@1", "e")
    assert word_of(tree_of(w)) == w
    with pytest.raises(SpecSyntaxError):
        word_of(parse_tree("f(e, d)"))


# ---------------------------------------------------------------------------
# range and correspondence automata

def test_range_automaton_accepts_exactly_the_images(assoc2):
    aut = range_automaton(assoc2.relabeling)
    assert len(aut.rules) == 18
    assert fixtures.is_automaton(aut)
    assert aut.final == ("r0", "r1", "r2", "r3")
    for s in trees_up_to_height(FED, 3):
        state, image = run_relabeling(assoc2.relabeling, s)
        got = run_relabeling(aut, image)
        assert not isinstance(got, Reject)
        assert got[0] == state and got[1] == image
    bad = Tree("f_<r0,r0>", [Tree("d"), Tree("e")])
    assert isinstance(run_relabeling(aut, bad), Reject)


def test_range_automaton_rejects_output_collisions():
    alpha = RankedAlphabet({"u": 0, "v": 0})
    out = RankedAlphabet({"o": 0})
    b = RelabelingSpec("clash", alpha, out, ("p", "q"),
                       (RelabelingRule("u", (), "p", "o"),
                        RelabelingRule("v", (), "q", "o")))
    with pytest.raises(NotApplicable):
        range_automaton(b)


def test_correspondence_automaton_lifts_each_child(assoc2, tw2):
    corr = tw2.correspondence
    assert len(corr.rules) == 34
    assert fixtures.is_automaton(corr)
    assert corr.rule_for("e", ()).state == "r0"
    assert corr.rule_for("d", ()).state == "r1"
    assert corr.rule_for("f_<r0,r1>@1", ("r0",)).state == "r3"
    assert corr.rule_for("f_<r0,r1>@2", ("r1",)).state == "r3"
    assert corr.final == ("r0", "r1", "r2", "r3")


def test_correspondence_drops_uninhabited_branches():
    alpha = RankedAlphabet({"f": 2, "e": 0})
    aut = RelabelingSpec("gappy", alpha, alpha, ("p",),
                         (RelabelingRule("e", (), "s", "e"),
                          RelabelingRule("f", ("s", "x"), "p", "f")))
    corr = build_correspondence_automaton(aut)
    assert [r.symbol for r in corr.rules] == ["e"]


def test_correspondence_rejects_ambiguous_lifts():
    alpha = RankedAlphabet({"f": 2, "e": 0, "d": 0, "c": 0})
    aut = RelabelingSpec("amb", alpha, alpha, ("p", "q"),
                         (RelabelingRule("e", (), "s", "e"),
                          RelabelingRule("d", (), "t", "d"),
                          RelabelingRule("c", (), "u", "c"),
                          RelabelingRule("f", ("s", "t"), "p", "f"),
                          RelabelingRule("f", ("s", "u"), "q", "f")))
    with pytest.raises(NotApplicable):
        build_correspondence_automaton(aut)


def test_corresponds_on_the_frozen_words(tw2):
    assert accepts(tw2.correspondence, INSIDE)
    assert not accepts(tw2.correspondence, OUTSIDE)


def test_every_image_path_corresponds(assoc2, tw2):
    for s in trees_up_to_height(FED, 3):
        _, image = run_relabeling(assoc2.relabeling, s)
        for addr, _ in image.leaves():
            assert accepts(tw2.correspondence, word_of(encode_prefix(image, addr)))


def test_accepted_words_and_counts_agree(tw2):
    corr = tw2.correspondence
    assert accepted_counts(corr, 4) == [0, 2, 16, 128, 1024]
    got = list(accepted_words(corr, 3))
    assert [w for w, _ in got[:2]] == [("d",), ("e",)]
    assert got == sorted(got, key=lambda p: (len(p[0]), p[0]))
    assert {w for w, _ in got} == {w for w in full_universe(corr.input, 3)
                                  if accepts(corr, w)}
    for w, state in got:
        assert run_relabeling(corr, tree_of(w))[0] == state


# ---------------------------------------------------------------------------
# the two-way machine

def test_two_way_walks_down_then_climbs(tw2):
    a = tw2.att
    assert a.init == "dn"
    assert a.syn == ("a", "a_e", "a_d", "dn")
    assert a.inh == ("b_e", "b_d", "lit<e>", "lit<d>",
                     "up_<r0>", "up_<r1>", "up_<r2>", "up_<r3>")
    assert rules_for(a, "e", "dn", 0)[0].rhs == Tree("up_<r0>(pi)")
    assert rules_for(a, "d", "dn", 0)[0].rhs == Tree("up_<r1>(pi)")
    roots = {r.render(ROOT) for r in a.rules_at(ROOT)}
    assert {"rule #: up_<%s>(pi 1) -> a(pi 1)" % l
            for l in ("r0", "r1", "r2", "r3")} <= roots
    assert len(roots) == 8


def test_two_way_projects_rules_onto_the_retained_child(tw2):
    letter = "f_<r0,r1>@2"
    got = {r.render(letter) for r in tw2.att.rules_at(letter)}
    assert got == {
        "rule f_<r0,r1>@2: a_d(pi) -> f(lit<e>(pi))",
        "rule f_<r0,r1>@2: b_d(pi 1) -> b_d(pi)",
        "rule f_<r0,r1>@2: a_e(pi) -> g(lit<e>(pi))",
        "rule f_<r0,r1>@2: b_e(pi 1) -> b_e(pi)",
        "rule f_<r0,r1>@2: a(pi) -> b_d(pi)",
        "rule f_<r0,r1>@2: dn(pi) -> dn(pi 1)",
        "rule f_<r0,r1>@2: up_<r1>(pi 1) -> up_<r3>(pi)",
    }


def test_two_way_evaluates_along_the_encoded_path(tw2):
    got = evaluate(tw2.att, tree_of(INSIDE))
    assert isinstance(got, Output) and got.tree == parse_tree("f(e)")
    assert not isinstance(evaluate(tw2.att, tree_of(OUTSIDE)), Output)


def test_two_way_is_a_deterministic_word_att(tw2):
    assert tw2.att.deterministic
    assert check_monadic(tw2.att)
    assert all(k <= 1 for _, k in tw2.att.input.items())
    assert parse_spec(render_spec(tw2.att)) == tw2.att


def test_two_way_domain_stays_inside_the_correspondence(tw2):
    corr = tw2.correspondence
    defined = accepted = 0
    for w in full_universe(corr.input, 3):
        ok = accepts(corr, w)
        accepted += ok
        if isinstance(evaluate(tw2.att, tree_of(w)), Output):
            defined += 1
            assert ok, w
    assert accepted == 146
    assert defined == 94


def test_two_way_agrees_with_the_att_it_walks_for(assoc2, tw2):
    """On every path encoding of an accepted image, a defined walk output
    must equal the reduced att's value on that image; and wherever the
    att is defined some path witnesses it."""
    for s in trees_up_to_height(FED, 3):
        _, image = run_relabeling(assoc2.relabeling, s)
        want = evaluate(assoc2.att, image)
        witnessed = False
        for addr, _ in image.leaves():
            got = evaluate(tw2.att, encode_prefix(image, addr))
            if isinstance(got, Output):
                assert isinstance(want, Output) and got.tree == want.tree
                witnessed = True
        if isinstance(want, Output):
            assert witnessed, image.render()


def test_two_way_needs_word_output():
    wide = parse_spec("""\
att NM
input e:0
output f:2 e:0
syn a
inh b
init a
rule e: a(pi) -> f(e, e)
rule #: b(pi 1) -> e
""")
    alpha = RankedAlphabet({"e": 0})
    ident = RelabelingSpec("ide", alpha, alpha, ("s",),
                           (RelabelingRule("e", (), "s", "e"),))
    h = AssociatedAttR("nm", ident, wide, {}, {}, 0)
    with pytest.raises(NotApplicable):
        build_two_way(h)


# ---------------------------------------------------------------------------
# one-way definability

def test_oracle_finds_a_one_way_equivalent(verdict2):
    assert isinstance(verdict2, Definable)
    assert verdict2.verified_length == 5
    cand = verdict2.transducer
    assert cand.deterministic
    assert len(cand.states) <= 16
    assert set(verdict2.report) == {"budget", "words", "summaries",
                                    "plans", "cache_length", "folded_length",
                                    "folded_words", "classes", "pairs"}
    assert verdict2.report["cache_length"] == 5
    assert (verdict2.report["folded_length"],
            verdict2.report["folded_words"]) == (4, 1170)


def test_oracle_candidate_matches_the_walk(tw2, verdict2):
    cand = verdict2.transducer
    for w, _ in accepted_words(tw2.correspondence, 4):
        s = tree_of(w)
        assert same_outcome(evaluate(cand, s), evaluate(tw2.att, s)), w


def test_oracle_candidate_rejects_stray_words(tw2, verdict2):
    cand = verdict2.transducer
    corr = tw2.correspondence
    for w in full_universe(corr.input, 3):
        if not accepts(corr, w):
            assert not isinstance(evaluate(cand, tree_of(w)), Output), w


def test_verify_names_a_shortest_stray_word():
    """A candidate that accepts d after g, and after h h, outside a
    language of words ending in e: verify names g d, and restricting
    the candidate to the language leaves no stray."""
    letters = RankedAlphabet({"g": 1, "h": 1, "e": 0, "d": 0})
    words = RelabelingSpec("ends_in_e", letters, letters, ("p",), (
        RelabelingRule("e", (), "p", "e"),
        RelabelingRule("g", ("p",), "p", "g"),
        RelabelingRule("h", ("p",), "p", "h")))
    cand = parse_spec("""\
dt C
input g:1 h:1 e:0 d:0
output c:0
init s0
rule s0 g: s0(g(x1)) -> s1(x1)
rule s0 h: s0(h(x1)) -> s2(x1)
rule s1 d: s1(d) -> c
rule s2 h: s2(h(x1)) -> s3(x1)
rule s3 d: s3(d) -> c
""")
    assert verify(cand, None, words, 0, Counter())["word"] == ["g", "d"]
    assert verify(restrict_to_language(cand, words), None, words, 0,
                  Counter()) is None


@pytest.mark.parametrize("rules, why", [
    (["s0(g(x1)) -> k(s0(x1))", "s0(e) -> c"], None),
    (["s0(g(x1)) -> m(s0(x1),c)", "s0(e) -> c"],
     "rule for s0/g is not word shaped"),
    (["s0(g(x1)) -> k(s0(x1))", "s0(e) -> m(c,c)"],
     "rule for s0/e is not word shaped"),
    (["s0(g(x1)) -> k(s0(x1))", "s0(g(x1)) -> s0(x1)", "s0(e) -> c"],
     "one-way machine has two rules for one left-hand side")])
def test_verify_refuses_what_is_no_one_way_machine(rules, why):
    """A rule that branches, or a second rule for a left-hand side, makes
    a candidate no one-way machine."""
    letters = RankedAlphabet({"g": 1, "e": 0})
    words = RelabelingSpec("all", letters, letters, ("p",), (
        RelabelingRule("e", (), "p", "e"),
        RelabelingRule("g", ("p",), "p", "g")))
    cand = parse_spec("dt C\ninput g:1 e:0\noutput k:1 m:2 c:0\ninit s0\n"
                      + "".join("rule s0 %s: %s\n" % (r[3], r) for r in rules))
    got = verify(cand, None, words, 0, Counter())
    assert (got and got["reason"]) == why


def test_oracle_is_a_pure_function_of_machine_and_budget(tw2, verdict2):
    again = one_way_definability(
        tw2, DefinabilityBudget(verify_length=5, max_words=12000))
    assert isinstance(again, Definable)
    assert again.verified_length == verdict2.verified_length
    assert again.transducer == verdict2.transducer


def test_oracle_on_the_identity_finds_a_relabeling():
    idw = parse_spec("""\
att IDW
input g:1 e:0
output g:1 e:0
syn a
init a
rule g: a(pi) -> g(a(pi 1))
rule e: a(pi) -> e
""")
    got = one_way_definability(TwoWayWord("id_w", idw, accept_all(idw)))
    assert isinstance(got, Definable)
    assert got.verified_length == 10
    assert len(got.transducer.states) == 1
    assert got.transducer.relabeling


def test_oracle_without_budget_is_unknown(tw2):
    got = one_way_definability(tw2, DefinabilityBudget(verify_length=0))
    assert isinstance(got, Unknown)
    assert got.report["reason"] == "no word budget"
    b = DefinabilityBudget(verify_length=5)
    assert DefinabilityBudget.coerce(b) is b
    for value in ("plenty", 5):
        with pytest.raises(SpecSyntaxError):
            DefinabilityBudget.coerce(value)


HALF_TEXT = """\
att HALF
input g:1 e:0
output g:1 e:0
syn a0 a1
init a0
rule g: a0(pi) -> a1(pi 1)
rule g: a1(pi) -> g(a0(pi 1))
rule e: a0(pi) -> e
rule e: a1(pi) -> e
"""


def test_oracle_never_refutes_an_every_other_letter_machine():
    """Emitting one letter per pair of letters misaligns single pumps;
    that alone must not count as a refutation."""
    half = parse_spec(HALF_TEXT)
    tw = TwoWayWord("half_w", half, accept_all(half))
    got = one_way_definability(tw)
    assert isinstance(got, Definable) and got.verified_length == 10
    tight = one_way_definability(tw, DefinabilityBudget(state_bound=1))
    assert isinstance(tight, Unknown)
    assert "no candidate" in tight.report["reason"]


def test_oracle_refutes_reversal(rev_tw, rev_verdict):
    assert isinstance(rev_verdict, NotDefinable)
    cert = rev_verdict.certificate
    assert cert.kind == "shared_prefix"
    assert cert.loop == ("g",)
    assert len(cert.suffixes) == 2 and len(cert.outputs) == 2
    assert replay_certificate(rev_tw, cert)


COPY_TEXT = """\
att COPY
input g:1 e:0
output g:1 h:1 e:0
syn a
inh b
init a
rule g: a(pi) -> g(a(pi 1))
rule g: b(pi 1) -> g(b(pi))
rule e: a(pi) -> h(b(pi))
rule #: b(pi 1) -> e
"""


def test_oracle_refutes_copying_once_chains_are_ruled_out():
    """With one word per length the sample is thin enough for a chain of
    per-length states to pass bounded verification; capping the states
    below the chain forces the pump argument, which is conclusive."""
    copy = parse_spec(COPY_TEXT)
    tw = TwoWayWord("copy_w", copy, accept_all(copy))
    lax = one_way_definability(tw)
    assert isinstance(lax, Definable) and lax.verified_length == 10
    got = one_way_definability(tw, DefinabilityBudget(state_bound=8))
    assert isinstance(got, NotDefinable)
    cert = got.certificate
    assert cert.kind == "affine"
    assert (cert.prefix, cert.loop, cert.suffixes) == ((), ("g",), (("e",),))
    assert replay_certificate(tw, cert)


def test_certificates_round_trip_as_json(rev_tw, rev_verdict):
    cert = rev_verdict.certificate
    back = certificate_from_json(certificate_to_json(cert))
    assert back == cert
    assert replay_certificate(rev_tw, back)
    with pytest.raises(SpecSyntaxError):
        certificate_from_json({"kind": "affine"})


def test_oracle_requires_functional_input():
    branchy = parse_spec("""\
att NW
input g:1 e:0
output e:0 d:0
syn a
inh b
init a
rule g: a(pi) -> a(pi 1)
rule e: a(pi) -> e
rule e: a(pi) -> d
rule #: b(pi 1) -> e
""")
    tw = TwoWayWord("nw", branchy, accept_all(branchy))
    with pytest.raises(NotApplicable):
        one_way_definability(tw)


# ---------------------------------------------------------------------------
# back conversion to trees

def test_back_convert_redirects_each_call():
    base = RankedAlphabet({"f": 2, "e": 0})
    enc = encoding_alphabet(base)
    out = RankedAlphabet({"g": 1, "e": 0})
    to = TdttSpec("w", enc, out, "q", (
        TdttRule("q", "f@2", Tree("g", [Tree(call_label("q2", 1))])),
        TdttRule("q2", "f@1", Tree(call_label("q2", 1))),
        TdttRule("q2", "e", Tree("e")),
    ))
    back = back_convert(to, base)
    assert back.name == "w_trees"
    assert tuple(back.input.items()) == (("f", 2), ("e", 0))
    assert back.rules == (
        TdttRule("q", "f", Tree("g", [Tree(call_label("q2", 2))])),
        TdttRule("q2", "f", Tree(call_label("q2", 1))),
        TdttRule("q2", "e", Tree("e")),
    )
    crooked = TdttSpec("w2", enc, out, "q", (
        TdttRule("q", "f@1", Tree(call_label("q", 2))),))
    with pytest.raises(SpecSyntaxError):
        back_convert(crooked, base)


def test_back_converted_candidate_replays_the_att(assoc2, verdict2,
                                                  monkeypatch):
    """The back-converted candidate is nondeterministic, and its run on
    the rule table rewrites no string form."""
    trees = back_convert(verdict2.transducer, assoc2.relabeling.output)
    assert not trees.deterministic
    pair = PairedSpec("dtR", "a2_again", assoc2.relabeling, trees)
    a = fixtures.a2()
    calls = []
    rewrite = Tree.replace_at
    monkeypatch.setattr(Tree, "replace_at",
                        lambda *args: calls.append(args) or rewrite(*args))
    for s in trees_up_to_height(FED, 3):
        assert same_outcome(evaluate(pair, s), evaluate(a, s)), s.render()
    assert calls == []
