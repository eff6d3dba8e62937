"""The compiled walk against the string-form derivation it replaces.

evaluate, enumerate_outputs and nf run deterministic atts with monadic
output on the spec's rule table; run_att and enumerate_att of
string_forms rewrite sentential forms and stay the reference, and so
does reference_nf, kept here.  An att whose output is not monadic is
refused.  derivation_forms rebuilds the forms of a derivation with
string_forms.derive_step for tests that inspect them.  The random atts
may be forced to emit on a loop through a child, so that their walk
analysis meets unbounded variation.  Top-down transducers, deterministic or not, run
on their own table in run_tdtt and enumerate_outputs, whatever the shape
of their right-hand sides.  A deterministic one is checked against
rewrite_tdtt and search_tdtt of string_forms under every budget, and
any one against search_tdtt under the default budget, where both find
every output: the two count budgets differently once a left-hand side
has two rules.  Pairs run stage by stage, checked against the same
references composed.
The walk analysis reads its node walks off Crossings.walk: local_run
gives the chi-free segment of one, and stitch chains segments through
a context answer.  reference_local_run, the node walk on the rules_for
form kept here, is the reference for both: with no context answer for
local_run, over children's tail maps and a child the walk stops at,
and with each context answer for stitch.
enumerate_shared, which shares work across the trees it is called on,
is checked against the same references on each tree.  The word runs
behind it (semantics._shared) are checked against enumerate_outputs:
on atts, and on chain transducers against the same rules over WIDE,
whose rank-2 m makes them run on trees.
"""

import itertools
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ttdef import analysis
from ttdef.analysis import (HALT_DEAD, HALT_OK, local_run, single_path,
                            stitch)
from ttdef.constructions import (associate, normalize_domain_into_range,
                                 normalize_ground_rhs)
from ttdef.errors import NotApplicable
from ttdef import functionality
from ttdef.functionality import Equal, bounded_equivalence
from ttdef.model import (ROOT, AttRule, AttSpec, PairedSpec,
                         RelabelingSpec, TdttRule, TdttSpec, call_label,
                         check_monadic, occ_node, occ_node_info, occ_pattern,
                         occ_pattern_info, parse_all)
from ttdef.pipeline import decide_dtR
from ttdef import semantics
from ttdef.errors import NotFunctionalInput
from ttdef.semantics import (LSI_VIOLATIONS, BudgetExhausted, Crossings,
                             Diverges, NoOutput, Output, Reject, StepBudget,
                             _chain_tree, _walk_table, enumerate_outputs,
                             enumerate_shared, evaluate, nf, run_relabeling,
                             run_tdtt)
from ttdef.trees import RankedAlphabet, Tree, trees_up_to_height
from ttdef.word_transducers import accepted_words, build_two_way, tree_of

import fixtures
from fixtures import parse_spec
from string_forms import (bare_lookup, derive_step, enumerate_att, expansions,
                          occurrences, rewrite_tdtt, rules_for, run_att,
                          search_tdtt)

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
        ref = run_att(a, s, budget)
        assert got == ref, s.render()
        assert LSI_VIOLATIONS[mark:] == got_lsi
    finally:
        del LSI_VIOLATIONS[mark:]
    assert enumerate_outputs(a, s, budget) == enumerate_att(a, s, budget), \
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
    emit only at the leaves of their outputs, they are silent.  Half the
    atts with an inherited attribute b are forced to emit h on a loop
    through a child: a descends through g, turns into b at e, b climbs
    back through g and ends the output at the root marker, and it may
    also visit both children of f, as in A1.  So the output chunk of the
    visiting pair (b, a) grows with the number of g below a node, and on
    random atts too the walk analysis builds pump witnesses and answers
    No by single path."""
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
    if inh and draw(st.booleans()):
        a, b = syn[0], inh[0]
        forced = {"g": [AttRule(a, 0, Tree("h", [Tree(occ_pattern(a, 1))])),
                        AttRule(b, 1, Tree(occ_pattern(b, 0)))],
                  "e": [AttRule(a, 0, Tree(occ_pattern(b, 0)))],
                  ROOT: [AttRule(b, 1, Tree("c"))]}
        if draw(st.booleans()):
            forced["f"] = [AttRule(a, 0, Tree(occ_pattern(a, 1))),
                           AttRule(b, 1, Tree(occ_pattern(a, 2))),
                           AttRule(b, 2, Tree(occ_pattern(b, 0)))]
        for sym, add in forced.items():
            rules[sym] = tuple(add) + tuple(
                r for r in rules[sym]
                if all((r.attr, r.pos) != (f.attr, f.pos) for f in add))
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


def off_spec():
    """A spec that validation refuses: a synthesized occurrence at the
    root marker, with a rule there to apply, and one past the children
    of g."""
    return AttSpec(name="OFF", input=IN, output=OUT, syn=("a",), inh=("b",),
                   init="a", rules={
                       "e": (AttRule("a", 0, Tree(occ_pattern("b", 0))),),
                       "g": (AttRule("a", 0, Tree(occ_pattern("a", 2))),),
                       ROOT: (AttRule("b", 1, Tree("h", [Tree(occ_pattern("a", 0))])),
                              AttRule("a", 0, Tree("c")))})


def test_compiled_walk_matches_derivation_off_spec():
    """Both walks stick on the occurrences validation refuses."""
    a = off_spec()
    assert a.walks_on_table
    for s in (Tree("e"), Tree("g", [Tree("e")])):
        for budget in SMALL_BUDGETS:
            same_as_reference(a, s, budget)
        assert evaluate(a, s) == NoOutput()


def test_a_walk_flattens_once_and_names_only_where_it_sticks(monkeypatch):
    """One evaluate flattens its tree once, and a walk that ends in an
    output rebuilds no occurrence's address; nf names the occurrence it
    sticks at, once."""
    calls = Counter()
    flatten, steps = semantics._flatten, semantics._occurrence_steps

    def counted_flatten(*args):
        calls["flatten"] += 1
        return flatten(*args)

    def counted_steps(*args):
        occurrence, rules, locate, address = steps(*args)

        def counted_address(occ):
            calls["address"] += 1
            return address(occ)
        return occurrence, rules, locate, counted_address

    monkeypatch.setattr(semantics, "_flatten", counted_flatten)
    monkeypatch.setattr(semantics, "_occurrence_steps", counted_steps)
    s = Tree("f", [Tree("e"), Tree("d")])
    assert isinstance(evaluate(fixtures.a2(), s), Output)
    assert calls == {"flatten": 1}
    tip = Tree(occ_node("b", ()))
    assert nf(fixtures.rev(), Tree("g", [Tree("e")]), tip) == tip
    assert calls == {"flatten": 2, "address": 1}


def test_compiled_outputs_get_the_size_check(monkeypatch):
    checked = []
    monkeypatch.setattr(semantics, "_check_lsi",
                        lambda a, n, size, render: checked.append((n, size)))
    s = Tree("f", [Tree("e"), Tree("d")])
    got = evaluate(fixtures.a2(), s)
    assert checked == [(s.size, got.tree.size)]


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


def test_walks_off_the_table_keep_the_derivation():
    """A nondeterministic att enumerates its chain forms, as the string
    forms do; an att without monadic output is refused."""
    n1 = fixtures.n1()
    assert not n1.walks_on_table
    s = Tree("e")
    assert enumerate_outputs(n1, s) == enumerate_att(n1, s, StepBudget())
    wide = parse_spec(NONMONADIC_TEXT)
    assert not wide.walks_on_table
    with pytest.raises(NotApplicable) as err:
        evaluate(wide, Tree("f", [Tree("e")]))
    assert str(err.value) == "nonmonadic"


@pytest.mark.parametrize("run", [
    lambda a, s: evaluate(a, s),
    lambda a, s: enumerate_outputs(a, s),
    lambda a, s: semantics._occurrence_steps(a, s, ROOT),
    lambda a, s: functionality._productive_cycle(a, [s]),
], ids=["evaluate", "enumerate_outputs", "occurrence_steps",
        "productive_cycle"])
def test_a_nonmonadic_att_is_refused(run):
    """Every att derivation runs on rule chains, so an att whose output
    is not monadic is refused, as the walk analysis refuses it."""
    with pytest.raises(NotApplicable) as err:
        run(parse_spec(NONMONADIC_TEXT), Tree("f", [Tree("e")]))
    assert str(err.value) == "nonmonadic"


# ---------------------------------------------------------------------------
# nf on the table against nf on string forms

def reference_nf(a, s, start, budget=None):
    """Normal form of the start form under the derivation over the bare
    tree s, on string forms: the first occurrence with a rule is
    rewritten, stuck ones stay as tips, and a consumed occurrence met
    again, or a step past the budget, gives Diverges."""
    budget = budget or StepBudget()
    sym_at = bare_lookup(s)
    track_cycles = check_monadic(a)
    consumed = set()
    form = start
    steps = 0
    while True:
        progressed = False
        for faddr, attr, naddr in occurrences(form):
            exps = expansions(a, sym_at, attr, naddr)
            if not exps:
                continue  # stuck occurrences stay as tips of the normal form
            _, replacement = exps[0]
            if track_cycles:
                if (attr, naddr) in consumed:
                    return Diverges()
                consumed.add((attr, naddr))
            steps += 1
            if steps > budget.max_steps:
                return Diverges()
            form = form.replace_at(faddr, replacement)
            progressed = True
            break
        if not progressed:
            return form


def derivation_forms(a, s):
    """The forms a deterministic att with monadic output derives over
    #(s), one derive_step at a time: from the initial form until it is
    ground or stuck, or its occurrence was expanded before."""
    form = Tree(occ_node(a.init, (1,)))
    forms, consumed = [form], set()
    while True:
        occs = {(attr, v) for _, attr, v in occurrences(form)}
        succ = derive_step(a, s, form)
        if not succ or occs & consumed:
            return forms
        consumed |= occs
        form = succ[0]
        forms.append(form)


def nf_kind(form):
    """What a normal form shows: "diverges", "ground", or where its tip
    sticks, "stuck at the root" or "stuck below"."""
    if form == Diverges():
        return "diverges"
    tip = form
    while tip.children:
        tip = tip.children[0]
    info = occ_node_info(tip.label)
    if info is None:
        return "ground"
    return "stuck at the root" if info[1] == () else "stuck below"


def same_nf_as_reference(a, s, budget):
    """nf against reference_nf from every attribute at every node of s,
    and at the root of every subtree; the kinds of normal form met."""
    kinds = set()
    for v, sub in s.addresses():
        for attr in a.attributes:
            for tree, start in ((s, Tree(occ_node(attr, v))),
                                (sub, Tree("h", [Tree(occ_node(attr, ()))]))):
                got = nf(a, tree, start, budget)
                assert got == reference_nf(a, tree, start, budget), \
                    (tree.render(), start.render())
                kinds.add(nf_kind(got))
    return kinds


@settings(max_examples=300, deadline=None)
@given(atts(), trees(4), st.integers(1, 8) | st.just(60))
def test_table_nf_matches_string_nf_on_random_atts(a, s, max_steps):
    same_nf_as_reference(a, s, StepBudget(max_steps=max_steps))


def test_table_nf_matches_string_nf_on_fixtures():
    """Every kind of normal form, on the fixtures, on A1 with a leaf
    symbol that has no rules and on A1 ending in a ground leaf rule;
    budgets down to 1 step."""
    stuck = parse_spec(fixtures.A1_TEXT.replace("input f:2 e:0",
                                                "input f:2 e:0 d:0"))
    ground = parse_spec(fixtures.A1_TEXT.replace("a(pi) -> g(b(pi))",
                                                 "a(pi) -> e"))
    kinds = set()
    for a in (fixtures.a1(), fixtures.a2(), fixtures.rev(), fixtures.c0(),
              fixtures.p0(), stuck, ground):
        for s in trees_up_to_height(a.input, 3):
            for max_steps in (1, 2, 3, 5, 8, 1_000_000):
                kinds |= same_nf_as_reference(a, s,
                                              StepBudget(max_steps=max_steps))
    assert kinds == {"diverges", "ground", "stuck at the root", "stuck below"}
    tower = Tree("g", [Tree("e")])
    assert nf(fixtures.a1(), Tree("e"), tower) == tower


def test_associate_reads_crossing_summaries(monkeypatch):
    """associate on the A2 behind the leftmost-e look-around, as the
    pipeline hands it over, reads no string forms and runs no normal
    form: each state's finished walks come from one crossing summary,
    joined from compiled plans, one per (symbol, children's ends).  Run
    on whole representative trees, nf took 5 226 calls."""
    att = normalize_ground_rhs(normalize_domain_into_range(
        fixtures.leftmost_e_lookaround(), fixtures.a2()).second)
    calls = Counter()
    made = []

    def counted(name, real):
        def run(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return run

    class Counted(semantics.Crossings):
        def __init__(self, a):
            super().__init__(a)
            made.append(self)

    for name in ("_occurrence_steps", "nf", "_walk_table"):
        monkeypatch.setattr(semantics, name,
                            counted(name, getattr(semantics, name)))
    monkeypatch.setattr("ttdef.constructions.nf", semantics.nf)
    monkeypatch.setattr("ttdef.constructions.Crossings", Counted)
    associate(att)
    assert (calls["_occurrence_steps"], calls["nf"],
            calls["_walk_table"]) == (0, 0, 0)
    assert [len(c.plans) for c in made] == [402]


# ---------------------------------------------------------------------------
# top-down transducers on their table

def same_tdtt_as_reference(t, s, budget):
    """On a deterministic transducer, run_tdtt and enumerate_outputs
    against the string-form references under the budget."""
    assert t.deterministic
    assert run_tdtt(t, s, budget) == rewrite_tdtt(t, s, budget), \
        s.render()
    assert enumerate_outputs(t, s, budget) == search_tdtt(t, s, budget), \
        s.render()


def same_tdtt_outputs_as_search(t, s):
    """On any transducer, under the default budget: where the string-form
    search finds every output, enumerate_outputs finds the same ones,
    and run_tdtt refuses the tree exactly where there are two or more.
    Copies choose independently, so the search can run out of forms on
    a copying transducer where the run on the table does not; the run's
    outputs must then include the ones the search found.  Returns
    whether the search found every output."""
    budget = StepBudget()
    want, done = search_tdtt(t, s, budget)
    got, exhaustive = enumerate_outputs(t, s, budget)
    if not done:
        assert not exhaustive or want <= got, s.render()
        return False
    assert (got, exhaustive) == (want, True), s.render()
    try:
        one = run_tdtt(t, s, budget)
    except NotFunctionalInput:
        assert len(want) > 1, s.render()
    else:
        assert len(want) < 2, s.render()
        assert one == (Output(*want) if want else NoOutput()), s.render()
    return True


WIDE = RankedAlphabet({"h": 1, "k": 1, "m": 2, "c": 0})


@st.composite
def tdtt_rhs(draw, tips, depth):
    """A chain of rank-1 labels over a tip, or, depth permitting, m over
    two right-hand sides that branch or copy one."""
    shape = draw(st.integers(0, 3)) if depth else 2
    if shape == 0:
        sub = draw(tdtt_rhs(tips, depth - 1))
        return Tree("m", [sub, sub])
    if shape == 1:
        return Tree("m", [draw(tdtt_rhs(tips, depth - 1)),
                          draw(tdtt_rhs(tips, depth - 1))])
    t = draw(st.sampled_from(tips))
    for label in draw(st.sampled_from([(), ("h",), ("k", "h")])):
        t = Tree(label, [t])
    return t


# Draws of tdtts with two outputs or more on the tree drawn, of 300.
# Sixteen seeded runs found 41 to 115; before tdtts drew total
# transducers, five found 0 to 5.
MANY_OUTPUTS = 20


@st.composite
def tdtts(draw):
    """Top-down transducers over IN whose right-hand sides are chains, or
    branch and copy under the rank-2 m.  Half of them are total: every
    (state, symbol) has one or two rules, whose calls name children the
    symbol has, and m nests one deep, since copies choose on their own
    and the string-form search soon runs out of forms.  In the others
    rules go missing at random, calls may name a child the symbol does
    not have (x0, x2 under g, any under e), and in half of them each
    left-hand side has one or two rules, in the others one.  Sometimes a
    rule comes again, verbatim."""
    states = tuple("q%d" % i for i in range(draw(st.integers(1, 3))))
    total = draw(st.booleans())
    most = 2 if total else draw(st.integers(1, 2))
    rules = []
    for q in states:
        for sym in IN.symbols():
            children = range(1, IN.rank(sym) + 1) if total else range(3)
            tips = [Tree("c")] + [Tree(call_label(p, i)) for p in states
                                  for i in children]
            if total or draw(st.integers(0, 4)):
                more = [TdttRule(q, sym, draw(tdtt_rhs(tips, 2 - total)))
                        for _ in range(draw(st.integers(1, most)))]
                if draw(st.integers(0, 3)) == 0:
                    more.insert(draw(st.integers(0, len(more))),
                                draw(st.sampled_from(more)))
                rules.extend(more)
    return TdttSpec(name="T", input=IN, output=WIDE,
                    init=draw(st.sampled_from(states)), rules=tuple(rules))


def test_table_walk_matches_rewriting_on_random_tdtts():
    """A deterministic draw against the string-form run and search under
    the budget drawn, any draw against the search under the default
    budget; on enough draws with two outputs or more that run_tdtt's
    refusal is checked on random transducers too."""
    counts = Counter()

    @settings(max_examples=300, deadline=None)
    @given(tdtts(), trees(4), budgets)
    def check(t, s, budget):
        if t.deterministic:
            same_tdtt_as_reference(t, s, budget)
        same_tdtt_outputs_as_search(t, s)
        counts["many"] += len(enumerate_outputs(t, s)[0]) > 1

    check()
    assert counts["many"] >= MANY_OUTPUTS, counts


def test_table_walk_matches_rewriting_on_branching_tdtts():
    """Every way a walk ends, on right-hand sides that branch, copy, call
    into a child g lacks, and call a state with no rule for f."""
    q1, q2 = Tree(call_label("q", 1)), Tree(call_label("q", 2))
    t = TdttSpec(name="W", input=IN, output=WIDE, init="q", rules=(
        TdttRule("q", "f", Tree("m", [Tree("h", [q2]),
                                      Tree(call_label("p", 1))])),
        TdttRule("q", "g", Tree("m", [q1, Tree("k", [q1])])),
        TdttRule("q", "e", Tree("c")),
        TdttRule("p", "g", Tree("m", [Tree("c"), q2])),
        TdttRule("p", "e", Tree("c"))))
    kinds = set()
    for s in trees_up_to_height(IN, 3):
        for budget in SMALL_BUDGETS:
            same_tdtt_as_reference(t, s, budget)
            got = run_tdtt(t, s, budget)
            _, exhaustive = enumerate_outputs(t, s, budget)
            # a run only max_enumeration cuts short still ends in run_tdtt
            cut = not exhaustive and not isinstance(got, BudgetExhausted)
            kinds.add("enumeration" if cut else type(got).__name__)
    assert kinds == {"Output", "NoOutput", "BudgetExhausted", "enumeration"}


def test_a_copying_nondeterministic_tdtt_matches_the_search():
    """Two rules for one left-hand side under a rule that copies a call:
    each copy chooses on its own, as the string-form search rewrites
    them, on every tree up to height 3."""
    q1, p2 = Tree(call_label("q", 1)), Tree(call_label("p", 2))
    t = TdttSpec(name="C", input=IN, output=WIDE, init="q", rules=(
        TdttRule("q", "g", Tree("m", [q1, q1])),
        TdttRule("q", "g", Tree("h", [q1])),
        TdttRule("q", "f", Tree("m", [q1, p2])),
        TdttRule("q", "e", Tree("c")),
        TdttRule("q", "e", Tree("k", [Tree("c")])),
        TdttRule("p", "e", Tree("c")),
        TdttRule("p", "g", Tree("h", [Tree(call_label("q", 1))]))))
    assert not t.deterministic
    many = 0
    for s in trees_up_to_height(IN, 3):
        assert same_tdtt_outputs_as_search(t, s), s.render()
        many += len(enumerate_outputs(t, s)[0]) > 1
    assert many
    got, _ = enumerate_outputs(t, Tree("g", [Tree("e")]))
    assert Tree("m", [Tree("c"), Tree("k", [Tree("c")])]) in got
    assert len(got) == 6


def reference_outputs(d, s, budget, walk=False):
    """enumerate_outputs composed from the references stage by stage:
    run_relabeling, search_tdtt and enumerate_att.  Given walk, an att
    that walks its table is walked on s alone (_walk_table, which
    same_as_reference checks against enumerate_att): the search a
    productive cycle sends to the default budget takes minutes."""
    if isinstance(d, RelabelingSpec):
        got = run_relabeling(d, s)
        ok = not isinstance(got, Reject) and got[0] in d.final
        return ({got[1]} if ok else set()), True
    if isinstance(d, TdttSpec):
        return search_tdtt(d, s, budget)
    if isinstance(d, AttSpec):
        if not (walk and d.walks_on_table):
            return enumerate_att(d, s, budget)
        kind, labels, leaf = _walk_table(d, s, budget.max_steps,
                                         budget.max_enumeration)
        if kind == "output":
            tree = Tree(leaf)
            for label in reversed(labels):
                tree = Tree(label, [tree])
            return {tree}, True
        return set(), kind in ("stuck", "silent")
    firsts, exhaustive = reference_outputs(d.first, s, budget, walk)
    outs = set()
    for first in firsts:
        got, done = reference_outputs(d.second, first, budget, walk)
        outs |= got
        exhaustive = exhaustive and done
    return outs, exhaustive


def reference_run(d, s, budget):
    """evaluate composed from the references stage by stage:
    run_relabeling, rewrite_tdtt and run_att."""
    if isinstance(d, RelabelingSpec):
        got = run_relabeling(d, s)
        ok = not isinstance(got, Reject) and got[0] in d.final
        return Output(got[1]) if ok else NoOutput()
    if isinstance(d, TdttSpec):
        return rewrite_tdtt(d, s, budget)
    if isinstance(d, AttSpec):
        return run_att(d, s, budget)
    first = reference_run(d.first, s, budget)
    if not isinstance(first, Output):
        return first
    return reference_run(d.second, first.tree, budget)


PAIR_BUDGETS = [StepBudget(max_steps=m, max_enumeration=e)
                for m, e in ((1, 1), (3, 8), (9, 4), (9, 30), (30, 9))]
PAIR_BUDGETS.append(StepBudget())


@pytest.mark.parametrize("make", [
    fixtures.leftmost_e_lookaround,
    lambda: fixtures.identity_lookaround(fixtures.a2().input),
    lambda: PairedSpec("attU", "LME", fixtures.leftmost_e_lookaround(),
                       fixtures.a2())],
    ids=["leftmost_e", "identity", "attU"])
def test_pairs_run_stage_by_stage(make):
    d = make()
    kinds = set()
    for s in trees_up_to_height(d.input_alphabet, 4):
        for budget in PAIR_BUDGETS:
            got = evaluate(d, s, budget)
            assert got == reference_run(d, s, budget), s.render()
            assert enumerate_outputs(d, s, budget) == \
                reference_outputs(d, s, budget), s.render()
            kinds.add(type(got).__name__)
    # the identity look-around accepts every tree
    rejects = {"NoOutput"} if d.name != "ident_u" else set()
    assert kinds == {"Output", "BudgetExhausted"} | rejects


def test_the_budget_binds_the_top_stage_of_a_lookaround():
    """The top stage of a look-around runs under the caller's budget,
    alone or as the first stage of an att with look-around."""
    lme = fixtures.leftmost_e_lookaround()
    s = Tree("f", [Tree("f", [Tree("e"), Tree("d")]),
                   Tree("f", [Tree("d"), Tree("e")])])
    one = StepBudget(max_steps=1)
    state, relabeled = run_relabeling(lme.first, s)
    assert state in lme.first.final
    assert run_tdtt(lme.second, relabeled, one) == BudgetExhausted()
    assert evaluate(lme, s, one) == BudgetExhausted()
    assert enumerate_outputs(lme, s, one) == (set(), False)
    assert evaluate(lme, s) == Output(s)
    att_u = PairedSpec("attU", "LME", lme, fixtures.a2())
    assert evaluate(att_u, s, one) == BudgetExhausted()
    assert enumerate_outputs(att_u, s, one) == (set(), False)


def test_att_with_lookaround_enumerates_off_string_forms(monkeypatch):
    """Enumerating A2 behind the leftmost-e look-around over its depth-4
    inputs rewrites no string form."""
    calls = []
    rewrite = Tree.replace_at
    monkeypatch.setattr(Tree, "replace_at",
                        lambda *args: calls.append(args) or rewrite(*args))
    d = PairedSpec("attU", "LME", fixtures.leftmost_e_lookaround(),
                   fixtures.a2())
    outputs = 0
    for s in trees_up_to_height(d.input_alphabet, 4):
        got, exhaustive = enumerate_outputs(d, s)
        assert exhaustive
        outputs += len(got)
    assert outputs and calls == []


@pytest.fixture(scope="module")
def a2_dtr(tmp_path_factory):
    """A2's dtR as the pipeline writes it, reloaded from disk."""
    outdir = tmp_path_factory.mktemp("a2")
    report = decide_dtR(fixtures.a2(), {"equivalence_depth": 4,
                                        "verify_word_length": 5},
                        outdir=outdir)
    path = Path(report.answer.spec_path)
    return parse_all(path.read_text())[-1]


def test_table_walk_matches_rewriting_on_the_a2_dtr(a2_dtr):
    t = a2_dtr.second
    budgets = [StepBudget(max_steps=m, max_enumeration=e)
               for m in range(1, 7) for e in range(1, 7)] + [StepBudget()]
    kinds = set()
    for s in trees_up_to_height(a2_dtr.input_alphabet, 3):
        got = run_relabeling(a2_dtr.first, s)
        assert not isinstance(got, Reject)
        for budget in budgets:
            same_tdtt_as_reference(t, got[1], budget)
            kinds.add(type(run_tdtt(t, got[1], budget)).__name__)
            assert evaluate(a2_dtr, s, budget) == \
                reference_run(a2_dtr, s, budget)
    assert kinds == {"Output", "BudgetExhausted"}


def test_bounded_equivalence_walks_the_dtr_on_its_table(a2_dtr, monkeypatch):
    """Both machines have a class step, so the check runs on behaviour
    classes and builds no tree: no input tree is listed, each class step
    makes one att summary, and each root combination is read once, with
    no walk from scratch or string form on either side."""
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)

    a2 = fixtures.a2()
    count(semantics, "_walk_table")
    count(semantics.Crossings, "summary")
    count(semantics.Crossings, "read")
    count(functionality, "trees_up_to_height")
    count(Tree, "__init__")
    count(Tree, "replace_at")
    assert bounded_equivalence(a2, a2_dtr, 4) == Equal(4)
    # The trees up to height 3 fall into 2 joint classes at height 1, 6
    # up to height 2 and 22 up to height 3.  The class steps are the 2
    # leaves, the 2 * 2 pairs under f, and the 6 * 6 - 2 * 2 pairs with
    # a class new at height 2: 38.  The root combinations are the 2
    # leaves and the 22 * 22 pairs under f: 486, where the scan reads
    # each of the 1 446 trees up to height 4.
    assert (calls["summary"], calls["read"]) == (38, 486)
    assert (calls["trees_up_to_height"], calls["__init__"]) == (0, 0)
    assert (calls["replace_at"], calls["_walk_table"]) == (0, 0)


def test_bounded_equivalence_compares_words(a2_dtr, monkeypatch):
    """A2 and its dtR both have monadic output, so an Equal run compares
    words and builds no output tree: no chain tree of the att's labels
    and no tree filled in from a top-down right-hand side."""
    calls = Counter()
    for name in ("_chain_tree", "_fill"):
        fn = getattr(semantics, name)
        monkeypatch.setattr(semantics, name, lambda *args, fn=fn, name=name:
                            calls.update([name]) or fn(*args))
    assert bounded_equivalence(fixtures.a2(), a2_dtr, 4) == Equal(4)
    assert (calls["_chain_tree"], calls["_fill"]) == (0, 0)


# ---------------------------------------------------------------------------
# work shared across trees against enumeration tree by tree

SHARED_BUDGETS = SMALL_BUDGETS + [StepBudget()]


def same_as_enumeration(d, trees, budget):
    """enumerate_shared, kept across the trees in the order given, gives
    what the references give on each tree alone (reference_outputs, an
    att walked alone).
    Returns how many trees an att stage walked on its own (_walk_table)
    and how many enumerations the budget cut short."""
    alone = []
    walk = semantics._walk_table
    run = enumerate_shared(d, budget)
    cut = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_walk_table",
                   lambda *args: alone.append(args) or walk(*args))
        for s in trees:
            got = run(s)
            assert got == reference_outputs(d, s, budget, walk=True), \
                s.render()
            cut += not got[1]
    return len(alone), cut


@settings(max_examples=150, deadline=None)
@given(atts(), st.sampled_from(SHARED_BUDGETS))
def test_shared_atts_match_enumeration_on_random_atts(a, budget):
    same_as_enumeration(a, trees_up_to_height(IN, 4), budget)


@settings(max_examples=150, deadline=None)
@given(tdtts(), st.sampled_from(SHARED_BUDGETS))
def test_shared_tdtts_match_enumeration_on_random_tdtts(t, budget):
    """A nondeterministic draw, whose budgets the string-form search
    counts differently, against enumerate_outputs tree by tree, which
    same_tdtt_outputs_as_search checks against the search; on trees up
    to height 3, where a copying draw has fewer outputs to build."""
    if t.deterministic:
        same_as_enumeration(t, trees_up_to_height(IN, 4), budget)
        return
    run = enumerate_shared(t, budget)
    for s in trees_up_to_height(IN, 3):
        assert run(s) == enumerate_outputs(t, s, budget), s.render()


def test_shared_atts_match_enumeration_on_fixtures():
    """Every way a walk ends, and budgets on both sides of the size
    bound: trees it covers are read off summaries, the others walked
    alone, and the default budget covers them all."""
    rev_stuck = parse_spec(fixtures.REV_TEXT.replace("rule #: b(pi 1) -> e\n",
                                                     ""))
    alone = runs = 0
    for a in (fixtures.a1(), fixtures.a2(), fixtures.rev(), fixtures.c0(),
              fixtures.p0(), rev_stuck, off_spec()):
        trees = trees_up_to_height(a.input, 3)
        for budget in SMALL_BUDGETS:
            alone += same_as_enumeration(a, trees, budget)[0]
            runs += len(trees)
        assert same_as_enumeration(a, trees, StepBudget())[0] == 0
    assert 0 < alone < runs


@pytest.mark.parametrize("make", [
    lambda: fixtures.identity_lookaround(fixtures.a2().input),
    fixtures.leftmost_e_lookaround,
    lambda: PairedSpec("attU", "LME", fixtures.leftmost_e_lookaround(),
                       fixtures.a2()),
    None],
    ids=["identity", "leftmost_e", "attU", "a2_dtr"])
def test_shared_pairs_match_enumeration(make, a2_dtr):
    """Pairs stage by stage, on trees up to height 3 under every budget,
    smallest first and largest first, and up to height 4 under the
    default budget.  The small budgets cut some enumerations short, the
    default budget none, and no att stage walks a tree on its own
    there."""
    d = a2_dtr if make is None else make()
    trees = trees_up_to_height(d.input_alphabet, 3)
    cut = 0
    for budget in SMALL_BUDGETS:
        cut += same_as_enumeration(d, trees, budget)[1]
        cut += same_as_enumeration(d, trees[::-1], budget)[1]
    assert cut
    assert same_as_enumeration(d, trees_up_to_height(d.input_alphabet, 4),
                               StepBudget()) == (0, 0)


# ---------------------------------------------------------------------------
# word runs against the trees enumerate_outputs gives

def words_match(d, trees, budget, want):
    """The word run of d (semantics._shared), kept across the trees in
    the order given, gives on each tree s the outputs of want(s), each
    word wrapped by _chain_tree, with the same exhaustive flag."""
    assert semantics._word_output(d)
    run = semantics._shared(d, budget)
    for s in trees:
        words, exhaustive = run(s)
        got = {_chain_tree(w[:-1], w[-1]) for w in words}
        assert (got, exhaustive) == want(s), s.render()


@st.composite
def any_atts(draw):
    """atts, and, half the time, one of them made nondeterministic: a
    rule is held twice, the copy emitting k above its right-hand side."""
    a = draw(atts())
    held = [sym for sym in a.rules if a.rules[sym]]
    if not held or draw(st.booleans()):
        return a
    sym = draw(st.sampled_from(held))
    r = draw(st.sampled_from(a.rules[sym]))
    rules = dict(a.rules)
    rules[sym] += (AttRule(r.attr, r.pos, Tree("k", [r.rhs])),)
    return replace(a, rules=rules)


@settings(max_examples=150, deadline=None)
@given(any_atts(), st.sampled_from(SMALL_BUDGETS))
def test_att_words_match_enumeration_on_random_atts(a, budget):
    """Against enumerate_outputs and against the references: the walk
    of a deterministic draw on each tree alone, the string-form search
    of a nondeterministic one."""
    def want(s):
        got = enumerate_outputs(a, s, budget)
        assert got == reference_outputs(a, s, budget, walk=True), s.render()
        return got
    words_match(a, trees_up_to_height(IN, 3), budget, want)


def chains_only(t):
    """The transducer t with m cut out of every right-hand side, each m
    giving way to its first child, so that every right-hand side is a
    chain over OUT: its runs give words."""
    rules = []
    for r in t.rules:
        rhs = r.rhs
        while rhs.label == "m":
            rhs = rhs.children[0]
        rules.append(TdttRule(r.state, r.symbol, rhs))
    return replace(t, output=OUT, rules=tuple(rules))


@settings(max_examples=150, deadline=None)
@given(tdtts(), st.sampled_from(SHARED_BUDGETS))
def test_tdtt_words_match_enumeration_on_random_tdtts(t, budget):
    """The word run of a chain transducer against enumerate_outputs of
    the same rules over WIDE, which fills trees in from the right-hand
    sides, deterministic and nondeterministic draws alike; a
    deterministic one also against the string-form references."""
    chains = chains_only(t)
    wide = replace(chains, output=WIDE)
    assert not semantics._word_output(wide)
    words_match(chains, trees_up_to_height(IN, 4), budget,
                lambda s: enumerate_outputs(wide, s, budget))
    if chains.deterministic:
        for s in trees_up_to_height(IN, 3):
            same_tdtt_as_reference(chains, s, budget)


def test_two_rules_for_one_lhs_walk_the_table(monkeypatch):
    """A right-hand side with two calls, and a state with two rules for
    one symbol, both run on the table and rewrite no string form."""
    calls = []
    rewrite = Tree.replace_at
    monkeypatch.setattr(Tree, "replace_at",
                        lambda *args: calls.append(args) or rewrite(*args))
    pair = TdttSpec(name="P", input=IN, output=RankedAlphabet({"m": 2, "c": 0}),
                    init="q", rules=(
                        TdttRule("q", "g", Tree("m", [Tree(call_label("q", 1)),
                                                      Tree(call_label("q", 1))])),
                        TdttRule("q", "e", Tree("c"))))
    assert pair.deterministic
    assert run_tdtt(pair, Tree("g", [Tree("e")])) == \
        Output(Tree("m", [Tree("c"), Tree("c")]))
    both = TdttSpec(name="B", input=IN, output=OUT, init="q", rules=(
        TdttRule("q", "e", Tree("c")),
        TdttRule("q", "e", Tree("h", [Tree("c")]))))
    assert not both.deterministic
    assert enumerate_outputs(both, Tree("e")) == (
        {Tree("c"), Tree("h", [Tree("c")])}, True)
    with pytest.raises(NotFunctionalInput):
        run_tdtt(both, Tree("e"))
    assert calls == []


# ---------------------------------------------------------------------------
# local_run and stitch against the rules_for form of the node walk

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
    """The walk at a sigma-node from start=(attr, pos) on the rules_for
    form, as (kind, attr, emit, visits).  taus[i - 1] is the tail map of
    child i, except at the boundary child, where the walk stops with kind
    "enter" and the entering attribute.  chi answers the exits at the
    node itself: None reports the exit as kind "up", otherwise a map from
    inherited attribute to a synthesized re-entry attribute, HALT_OK or
    HALT_DEAD.  emit counts the labels of the node's own rules, and
    visits are the child visits, in order, as (child, attr)."""
    attr, pos = start
    emit = 0
    visits = []
    seen = set()

    def apply_rule(rule):
        nonlocal emit
        labels, tip, _ = reference_chain(rule.rhs)
        emit += len(labels)
        return tip

    def done(kind, a=None):
        return kind, a, emit, tuple(visits)

    while True:
        if (attr, pos) in seen:
            return done("dead")
        seen.add((attr, pos))
        if att.is_syn(attr):
            if pos == 0:
                rules = rules_for(att, sigma, attr, 0)
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
                rules = rules_for(att, sigma, attr, pos)
                if not rules:
                    return done("dead")
                tip = apply_rule(rules[0])
                if tip is None:
                    return done("ground")
                attr, pos = tip


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


def child_ends(att, taus, boundary):
    """The ends local_run reads for children with tail maps taus, the
    boundary child stopping the walk (see Crossings)."""
    below = []
    for i, tau in enumerate(taus, start=1):
        if i == boundary:
            below.append(tuple(("enter", a, False) for a in att.syn))
            continue
        ends = []
        for a in att.syn:
            out = tau.get(a, ("stuck", None))
            ends.append(("leaf", None, True) if out[0] == "ground"
                        else out + (True,))
        below.append(tuple(ends))
    return below


def node_walks(att, chis):
    """(sigma, taus, chi, start, boundary) for every symbol of att, every
    combination of children's tail maps from tau_choices, and every
    context answer in chis, start and boundary child."""
    for sigma, k in att.input.items():
        starts = [(attr, pos) for attr in att.attributes
                  for pos in range(k + 1)]
        for taus in itertools.product(tau_choices(att), repeat=k):
            for chi, start, boundary in itertools.product(
                    chis, starts, [None] + list(range(1, k + 1))):
                yield sigma, list(taus), chi, start, boundary


def reference_outcome(*args):
    """reference_local_run's walk, or "nonmonadic" where it applies a
    rule whose right-hand side is not a chain."""
    try:
        return reference_local_run(*args)
    except NotApplicable as e:
        return str(e)


def same_walk(got, want):
    """Whether a segment or stitched walk ends as the reference does; a
    dead walk's emit and visits are not compared, since the reference
    stops at the first revisited (attr, pos) and Crossings.walk at the
    first revisited rule occurrence, after the child visit before it.
    Where the reference meets a non-chain rule the walk is dead: the
    rule table keeps no such rule, so Crossings.walk is stuck there (the
    walk analysis refuses a non-monadic att before it walks)."""
    if want == "nonmonadic":
        return got[0] == "dead"
    return got[:2] == want[:2] and (want[0] == "dead" or got == want)


def segments_match_reference(att):
    """local_run over Crossings.walk against the reference with chi
    None; returns how many of the walks meet a non-chain rule."""
    crossings = Crossings(att)
    refused = 0
    for sigma, taus, _, start, boundary in node_walks(att, [None]):
        got = local_run(crossings, sigma, child_ends(att, taus, boundary),
                        start)
        want = reference_outcome(att, sigma, taus, None, start, boundary)
        assert same_walk(got, want), (sigma, taus, start, boundary)
        refused += want == "nonmonadic"
    return refused


def stitched_match_reference(att):
    """stitch over local_run's segments against the reference with each
    context answer; returns how many of the walks were dead, not
    counting those that meet a non-chain rule."""
    crossings = Crossings(att)
    dead = 0
    for sigma, taus, chi, start, boundary in node_walks(
            att, chi_choices(att)[1:]):
        below = child_ends(att, taus, boundary)
        got = stitch(lambda st: local_run(crossings, sigma, below, st),
                     chi, start)
        want = reference_outcome(att, sigma, taus, chi, start, boundary)
        assert same_walk(got, want), (sigma, taus, chi, start, boundary)
        dead += want[0] == "dead"
    return dead


@pytest.mark.parametrize("make", [
    fixtures.a1, fixtures.a2, fixtures.rev, fixtures.c0,
    lambda: associate(fixtures.a2()).att,
    lambda: parse_spec(NONMONADIC_TEXT),
])
def test_local_run_matches_rules_for_form(make):
    att = make()
    # only a walk that applies the non-chain rule meets one
    assert bool(segments_match_reference(att)) == (att.name == "NM")


@pytest.mark.parametrize("make", [
    fixtures.a1, fixtures.a2, fixtures.rev, fixtures.c0,
    lambda: associate(fixtures.a2()).att,
    lambda: parse_spec(NONMONADIC_TEXT),
])
def test_stitched_segments_match_local_run(make):
    """Every walk with a context answer, chained from chi-free segments,
    ends as the reference walk with that answer does; emit and visits
    agree unless it is dead.  A segment that stops at a child reads
    only that child's entering ends, never its tail map, which is what
    lets the analysis share it across the child's shapes."""
    assert stitched_match_reference(make())


@settings(max_examples=60, deadline=None)
@given(atts())
def test_node_walks_match_rules_for_form_on_random_atts(a):
    assert not segments_match_reference(a)
    stitched_match_reference(a)


def test_the_lookaround_analysis_shares_its_segments(monkeypatch):
    """One single_path pass over the att the pipeline analyses for A2
    behind the leftmost-e look-around walks few segments: each boundary
    segment once, whatever the shape of the child it stops at, and each
    production's own segments once, in the shape build.  Walking every
    configuration afresh took 104 384 local_run calls."""
    att = normalize_ground_rhs(normalize_domain_into_range(
        fixtures.leftmost_e_lookaround(), fixtures.a2()).second)
    calls = []
    walk = analysis.local_run

    def counted(*args):
        calls.append(args[1])
        return walk(*args)

    monkeypatch.setattr(analysis, "local_run", counted)
    assert single_path(att).yes
    assert len(calls) <= 25000
