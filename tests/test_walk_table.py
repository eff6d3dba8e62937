"""The compiled walk against the string-form derivation it replaces.

evaluate and enumerate_outputs run deterministic atts with monadic output
on the spec's rule table; _run_att and _enumerate_att rewrite sentential
forms and stay the reference.  local_run reads the same table and is
checked against its rules_for form, kept here as the reference.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ttdef.analysis import HALT_DEAD, HALT_OK, LocalResult, local_run
from ttdef.constructions import associate
from ttdef.errors import NotApplicable
from ttdef.model import (ROOT, AttRule, AttSpec, occ_pattern,
                         occ_pattern_info, parse_spec)
from ttdef import semantics
from ttdef.semantics import (LSI_VIOLATIONS, NoOutput, StepBudget,
                             _enumerate_att, _run_att, _walk_table,
                             enumerate_outputs, evaluate)
from ttdef.trees import RankedAlphabet, Tree, trees_up_to_height
from ttdef.word_transducers import accepted_words, build_two_way, tree_of

import fixtures

IN = RankedAlphabet({"f": 2, "g": 1, "e": 0})
OUT = RankedAlphabet({"h": 1, "k": 1, "c": 0})

SMALL_BUDGETS = [StepBudget(max_steps=m, max_enumeration=e)
                 for m in range(1, 9) for e in range(1, 7)]
SMALL_BUDGETS.append(StepBudget(max_steps=60, max_enumeration=40))


def same_as_reference(a, s, budget):
    """Compiled evaluate and enumeration agree with the derivation,
    including the linear-size-increase check on every output."""
    assert a.walks_on_table
    mark = len(LSI_VIOLATIONS)
    try:
        got = evaluate(a, s, budget)
        got_lsi = LSI_VIOLATIONS[mark:]
        del LSI_VIOLATIONS[mark:]
        ref, _ = _run_att(a, s, budget, False)
        assert got == ref, s.render()
        assert LSI_VIOLATIONS[mark:] == got_lsi
    finally:
        del LSI_VIOLATIONS[mark:]
    assert enumerate_outputs(a, s, budget) == _enumerate_att(a, s, budget), \
        s.render()


# ---------------------------------------------------------------------------
# random small atts

@st.composite
def rhs_at(draw, syn, inh, k, quiet):
    """A chain of rank-1 labels ending in an occurrence or a leaf:
    synthesized at a child, inherited at the node itself.  A quiet chain
    emits nothing."""
    tips = [Tree("c")]
    tips += [Tree(occ_pattern(a, j)) for a in syn for j in range(1, k + 1)]
    tips += [Tree(occ_pattern(b, 0)) for b in inh]
    t = draw(st.sampled_from(tips))
    if not quiet:
        for label in draw(st.sampled_from([(), ("h",), ("k", "h")])):
            t = Tree(label, [t])
    return t


@st.composite
def atts(draw):
    """Deterministic atts with monadic output over IN.  Rules go missing
    at random, including the root-marker rules of inherited attributes.
    Cycles through the root marker come up often; in quiet atts, which
    emit only at the leaves of their outputs, they are silent."""
    syn = tuple("a%d" % i for i in range(draw(st.integers(1, 2))))
    inh = tuple("b%d" % i for i in range(draw(st.integers(0, 2))))
    quiet = draw(st.booleans())
    rules = {}
    for sym, k in list(IN.items()) + [(ROOT, 1)]:
        lhs = [(b, j) for b in inh for j in range(1, k + 1)]
        if sym != ROOT:
            lhs = [(a, 0) for a in syn] + lhs
        rules[sym] = tuple(
            AttRule(attr, pos, draw(rhs_at(syn, inh, k, quiet)))
            for attr, pos in lhs if draw(st.integers(0, 3)))
    return AttSpec(name="R", input=IN, output=OUT, syn=syn, inh=inh,
                   init=draw(st.sampled_from(syn)), rules=rules)


def trees(height):
    leaf = st.just(Tree("e"))
    if height == 1:
        return leaf
    sub = trees(height - 1)
    return st.one_of(leaf, st.builds(lambda c: Tree("g", [c]), sub),
                     st.builds(lambda l, r: Tree("f", [l, r]), sub, sub))


# half the runs get room to finish or to meet a cycle
budgets = st.just(StepBudget(max_steps=60, max_enumeration=40)) | st.builds(
    StepBudget, max_steps=st.integers(1, 8), max_enumeration=st.integers(1, 6))


@settings(max_examples=500, deadline=None)
@given(atts(), trees(4), budgets)
def test_compiled_walk_matches_derivation_on_random_atts(a, s, budget):
    same_as_reference(a, s, budget)


# ---------------------------------------------------------------------------
# the fixtures, every way a walk can end

def test_compiled_walk_matches_derivation_on_fixtures():
    # REV without its root-marker rule sticks at the root
    rev_stuck = parse_spec(fixtures.REV_TEXT.replace("rule #: b(pi 1) -> e\n",
                                                     ""))
    kinds = set()
    for a in (fixtures.a1(), fixtures.a2(), fixtures.rev(), fixtures.c0(),
              fixtures.p0(), rev_stuck):
        for s in trees_up_to_height(a.input, 3):
            for budget in SMALL_BUDGETS:
                same_as_reference(a, s, budget)
                kinds.add(_walk_table(a, s, budget.max_steps,
                                      budget.max_enumeration)[0])
    assert kinds == {"output", "stuck", "silent", "productive", "steps",
                     "enumeration"}


def test_compiled_walk_matches_derivation_off_spec():
    """A spec that validation refuses: a synthesized occurrence at the
    root marker, with a rule there to apply, and one past the children
    of g.  Both walks stick on them."""
    a = AttSpec(name="OFF", input=IN, output=OUT, syn=("a",), inh=("b",),
                init="a", rules={
                    "e": (AttRule("a", 0, Tree(occ_pattern("b", 0))),),
                    "g": (AttRule("a", 0, Tree(occ_pattern("a", 2))),),
                    ROOT: (AttRule("b", 1, Tree("h", [Tree(occ_pattern("a", 0))])),
                           AttRule("a", 0, Tree("c")))})
    assert a.walks_on_table
    for s in (Tree("e"), Tree("g", [Tree("e")])):
        for budget in SMALL_BUDGETS:
            same_as_reference(a, s, budget)
        assert evaluate(a, s) == NoOutput()


def test_compiled_outputs_get_the_size_check(monkeypatch):
    checked = []
    monkeypatch.setattr(semantics, "_check_lsi",
                        lambda a, s, out: checked.append(out))
    got = evaluate(fixtures.a2(), Tree("f", [Tree("e"), Tree("d")]))
    assert checked == [got.tree]


@pytest.mark.parametrize("make", [fixtures.a2, fixtures.rev])
def test_compiled_walk_matches_derivation_on_words(make):
    """The oracle's walks: accepted words of the two-way machine, and
    random words over its letters, most of them undefined."""
    tw = build_two_way(associate(make()))
    words = [w for w, _ in accepted_words(tw.correspondence, 4)]
    rng = random.Random(7)
    letters = sorted(tw.att.input.symbols(1))
    ends = sorted(tw.att.input.symbols(0))
    words += [tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
              + (rng.choice(ends),) for _ in range(300)]
    for w in words:
        same_as_reference(tw.att, tree_of(w), StepBudget())


def test_walks_off_the_table_keep_the_derivation():
    n1 = fixtures.n1()
    assert not n1.walks_on_table
    s = Tree("e")
    assert enumerate_outputs(n1, s) == _enumerate_att(n1, s, StepBudget())
    wide = parse_spec(NONMONADIC_TEXT)
    assert not wide.walks_on_table
    got = evaluate(wide, Tree("f", [Tree("e")]))
    assert got.tree.render() == "m(e,e)"


# ---------------------------------------------------------------------------
# local_run against its rules_for form

def reference_chain(rhs):
    labels = []
    t = rhs
    while t.children:
        if len(t.children) != 1:
            raise NotApplicable("nonmonadic")
        labels.append(t.label)
        t = t.children[0]
    tip = occ_pattern_info(t.label)
    if tip is None:
        return labels, None, t.label
    return labels, tip, None


def reference_local_run(att, sigma, taus, chi, start, boundary=None):
    attr, pos = start
    emit = 0
    visits = []
    trace = []
    seen = set()

    def apply_rule(rule):
        nonlocal emit
        labels, tip, leaf = reference_chain(rule.rhs)
        emit += len(labels)
        trace.extend(("emit", lab) for lab in labels)
        if tip is None:
            trace.append(("leaf", leaf))
        return tip

    def done(kind, a=None):
        return LocalResult(kind, attr=a, emit=emit,
                           visits=tuple(visits), trace=tuple(trace))

    while True:
        if (attr, pos) in seen:
            return done("dead")
        seen.add((attr, pos))
        if att.is_syn(attr):
            if pos == 0:
                rules = att.rules_for(sigma, attr, 0)
                if not rules:
                    return done("dead")
                tip = apply_rule(rules[0])
                if tip is None:
                    return done("ground")
                attr, pos = tip
            elif pos == boundary:
                return done("enter", attr)
            else:
                out = taus[pos - 1].get(attr)
                if out is None:
                    return done("dead")
                visits.append((pos, attr))
                trace.append(("dive", pos, attr))
                if out[0] == "ground":
                    return done("ground")
                attr = out[1]
        else:
            if pos == 0:
                if chi is None:
                    return done("up", attr)
                ans = chi.get(attr, HALT_DEAD)
                if ans == HALT_DEAD:
                    return done("dead")
                if ans == HALT_OK:
                    return done("halt_ok")
                attr = ans
            else:
                rules = att.rules_for(sigma, attr, pos)
                if not rules:
                    return done("dead")
                tip = apply_rule(rules[0])
                if tip is None:
                    return done("ground")
                attr, pos = tip


def outcome(run, *args):
    try:
        return run(*args)
    except NotApplicable as e:
        return "raised %s" % e


def tau_choices(att):
    out = [{}, {a: ("ground",) for a in att.syn}]
    out += [{a: ("up", b) for a in att.syn} for b in att.inh]
    out.append({a: ("up", att.inh[0]) if i % 2 and att.inh else ("ground",)
                for i, a in enumerate(att.syn)})
    return out


def chi_choices(att):
    out = [None, {}, {b: HALT_OK for b in att.inh}]
    out += [{b: a for b in att.inh} for a in att.syn]
    return out


NONMONADIC_TEXT = """\
att NM
input f:1 e:0
output m:2 g:1 e:0
syn a c
init a
rule f: a(pi) -> m(c(pi 1), c(pi 1))
rule f: c(pi) -> g(c(pi 1))
rule e: c(pi) -> e
"""


@pytest.mark.parametrize("make", [
    fixtures.a1, fixtures.a2, fixtures.rev, fixtures.c0,
    lambda: associate(fixtures.a2()).att,
    lambda: parse_spec(NONMONADIC_TEXT),
])
def test_local_run_matches_rules_for_form(make):
    att = make()
    raised = 0
    for sigma, k in att.input.items():
        starts = [(attr, pos) for attr in att.attributes
                  for pos in range(k + 1)]
        for taus in itertools.product(tau_choices(att), repeat=k):
            for chi, start, boundary in itertools.product(
                    chi_choices(att), starts, [None] + list(range(1, k + 1))):
                args = (att, sigma, list(taus), chi, start, boundary)
                got = outcome(local_run, *args)
                assert got == outcome(reference_local_run, *args)
                raised += isinstance(got, str)
    # only a walk that applies the non-chain rule raises
    assert bool(raised) == (att.name == "NM")
