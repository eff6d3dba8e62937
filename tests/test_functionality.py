"""Productive cycles, bounded equivalence, and the functionality verdict.

Functionality is checked as at most one output per input tree up to the
depth.  Once no tree up to the depth has a productive cycle, every
derivation search settles, so enumerating the outputs of each tree
finds the first one with two; a cycle stands as the verdict unless a
shallow probe on its tree finds two outputs.  The random tests check
each verdict against the string-form references of string_forms: the
productive cycle that detect_productive_cycle finds there and replays
with replay_cycle, or the outputs in the closure of derive_step, on the
bare att and behind an identity look-around.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ttdef import functionality, semantics
from ttdef.analysis import is_circular
from ttdef.errors import AlphabetMismatch, NotApplicable, SpecSyntaxError
from ttdef.functionality import (Equal, FunctionalUpTo, FunctionalityBudget,
                                 NotFunctional, ProductiveCycle, Witness,
                                 bounded_equivalence, is_functional)
from ttdef.model import (ROOT, AttRule, AttSpec, PairedSpec, occ_node,
                         occ_node_info, rhs_chain)
from ttdef.semantics import (StepBudget, _chain_tree, _occurrence_steps,
                             enumerate_outputs)
from ttdef.trees import Tree, canonical_key, parse_tree, trees_up_to_height

import fixtures
from fixtures import parse_spec
import string_forms
from string_forms import derive_step, replay_cycle
from test_walk_table import IN, OUT, SMALL_BUDGETS, rhs_at, trees

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


# ---------------------------------------------------------------------------
# productive cycles


def productive_cycle(a, depth=4):
    """The productive cycle is_functional looks for first, over a's input
    trees up to the depth, or None."""
    return functionality._productive_cycle(*functionality._inputs(
        a, FunctionalityBudget(depth=depth)))


def test_cycle_trace_golden():
    cert = productive_cycle(fixtures.p0())
    assert cert.input == parse_tree("e")
    assert [t.render() for t in cert.trace] == \
        ["a(1)", "g(b(1))", "g(a(1))", "g(g(b(1)))"]
    assert cert == string_forms.detect_productive_cycle(fixtures.p0())


def test_cycle_trace_replays_step_by_step():
    p0 = fixtures.p0()
    cert = productive_cycle(p0)
    for cur, nxt in zip(cert.trace, cert.trace[1:]):
        assert nxt in derive_step(p0, cert.input, cur)
    assert replay_cycle(p0, cert)


def test_cycle_replay_rejects_tampering():
    p0 = fixtures.p0()
    cert = productive_cycle(p0)
    assert not replay_cycle(p0, replace(cert, trace=cert.trace[:3]))
    # a form that is not a chain is no step of a monadic att
    fork = Tree("g", [Tree(occ_node("b", (1,))), Tree(occ_node("b", (1,)))])
    for i in (1, len(cert.trace) - 1):
        trace = cert.trace[:i] + (fork,) + cert.trace[i + 1:]
        assert not replay_cycle(p0, replace(cert, trace=trace))
    assert not replay_cycle(p0, replace(cert, trace=cert.trace[::-1]))
    assert not replay_cycle(p0, replace(cert, input=parse_tree("g(e)")))


def test_no_cycle_when_nothing_grows():
    assert productive_cycle(fixtures.c0()) is None


def test_no_cycle_without_circularity():
    assert productive_cycle(fixtures.a1()) is None
    assert productive_cycle(fixtures.a2()) is None


def test_cycle_positives_are_circular():
    p0, c0 = fixtures.p0(), fixtures.c0()
    assert productive_cycle(p0) is not None
    assert is_circular(p0)[0] is True
    # circularity alone is not enough
    assert is_circular(c0)[0] is True
    assert productive_cycle(c0) is None


@pytest.mark.parametrize("make", [fixtures.n1, fixtures.p0])
def test_the_cycle_search_reaches_twice_per_tree(make, monkeypatch):
    """One pass of strongly connected components finds the cycle edge:
    a breadth-first reach from the initial occurrence, and one more
    from the edge's target for the way back.  A reach from the target
    of every positive edge took 157 on N1."""
    a = make()
    calls = []
    reach = functionality._reach
    monkeypatch.setattr(functionality, "_reach",
                        lambda *args: calls.append(args) or reach(*args))
    trees = trees_up_to_height(a.input, 4)
    is_functional(a)
    assert 0 < len(calls) <= 2 * len(trees)


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
    assert verdict == productive_cycle(p0)
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


@pytest.mark.parametrize("make", [fixtures.a2, fixtures.n1, fixtures.p0])
@pytest.mark.parametrize("paired", [False, True], ids=["att", "look-around"])
def test_functional_lists_its_inputs_once(make, paired, monkeypatch):
    """The productive-cycle pass and the enumeration read one list of
    trees: on the look-around route each input is relabeled once, all
    of them through one enumerate_shared, and the enumeration, which
    P0's productive cycle stops first, runs through one more."""
    a = make()
    if paired:
        a = PairedSpec(kind="attU", name="u", second=a,
                       first=fixtures.identity_lookaround(a.input, "id"))
    calls = {"_inputs": 0, "enumerate_shared": 0}

    def counted(fn):
        def run(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return run

    for name in calls:
        monkeypatch.setattr(functionality, name,
                            counted(getattr(functionality, name)))
    is_functional(a, 3)
    enumerates = make is not fixtures.p0
    assert calls == {"_inputs": 1,
                     "enumerate_shared": int(paired) + enumerates}


def test_functional_compiles_each_plan_once(monkeypatch):
    """The enumeration keeps one Crossings across the listed trees, so
    each walk plan is compiled once: A2 behind an identity look-around
    at depth 3 compiles 44, where a Crossings per tree made 38 of them
    and compiled 184 plans."""
    made = []

    class Counted(semantics.Crossings):
        def __init__(self, att):
            super().__init__(att)
            made.append(self)

    monkeypatch.setattr(semantics, "Crossings", Counted)
    a2 = fixtures.a2()
    a = PairedSpec(kind="attU", name="u", second=a2,
                   first=fixtures.identity_lookaround(a2.input, "id"))
    assert is_functional(a, 3) == FunctionalUpTo(3)
    assert [len(c.plans) for c in made] == [44]


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


@pytest.mark.parametrize("make", [
    lambda: FunctionalityBudget(depth=0),
    lambda: FunctionalityBudget(depth=-3),
    lambda: FunctionalityBudget(depth=True),
    lambda: FunctionalityBudget(depth=2.5),
    lambda: FunctionalityBudget(max_steps=0),
    lambda: FunctionalityBudget(max_steps=False),
    lambda: FunctionalityBudget.coerce(True),
    lambda: FunctionalityBudget.coerce(0),
    lambda: is_functional(fixtures.a1(), -3),
], ids=["depth-0", "depth-negative", "depth-bool", "depth-float",
        "steps-0", "steps-bool", "coerce-bool", "coerce-0",
        "is-functional-negative"])
def test_budget_must_be_positive_integers(make):
    with pytest.raises(SpecSyntaxError):
        make()


def test_functional_respects_the_step_budget():
    """A2's walk on d, the first tree, takes four steps, so three cannot
    finish it."""
    with pytest.raises(NotApplicable, match="on d "):
        is_functional(fixtures.a2(), FunctionalityBudget(depth=4,
                                                         max_steps=3))


# ---------------------------------------------------------------------------
# random nondeterministic atts


@st.composite
def nondeterministic_atts(draw, repeat=False):
    """Monadic atts over IN with zero to three rules per left-hand side,
    root-marker rules included; each rule is quiet or emits at random.
    Identical rules collapse, as they do when a spec is parsed; given
    repeat, one rule is then held twice, as a spec built in memory may
    hold it, the copy at a random place among its symbol's rules."""
    syn = tuple("a%d" % i for i in range(draw(st.integers(1, 2))))
    inh = tuple("b%d" % i for i in range(draw(st.integers(0, 2))))
    rules = {}
    for sym, k in list(IN.items()) + [(ROOT, 1)]:
        lhs = [(b, j) for b in inh for j in range(1, k + 1)]
        if sym != ROOT:
            lhs = [(a, 0) for a in syn] + lhs
        rules[sym] = tuple(dict.fromkeys(
            AttRule(attr, pos,
                    draw(rhs_at(syn, inh, k, draw(st.booleans()))))
            for attr, pos in lhs for _ in range(draw(st.integers(0, 3)))))
    held = [sym for sym in rules if rules[sym]]
    if repeat and held:
        sym = draw(st.sampled_from(held))
        rule = draw(st.sampled_from(rules[sym]))
        i = draw(st.integers(0, len(rules[sym])))
        rules[sym] = rules[sym][:i] + (rule,) + rules[sym][i:]
    return AttSpec(name="R", input=IN, output=OUT, syn=syn, inh=inh,
                   init=draw(st.sampled_from(syn)), rules=rules)


def ground_forms(a, s):
    """Every output of a over #(s): the ground forms in the closure of
    derive_step from the initial form.  Finite when no productive cycle
    exists on s."""
    start = Tree(occ_node(a.init, (1,)))
    seen, stack = {start}, [start]
    while stack:
        for nxt in derive_step(a, s, stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return {f for f in seen if not string_forms.occurrences(f)}


def check_verdict(subject, a, depth):
    """The verdict on subject (a itself or a behind an identity
    look-around, which shows each tree as itself) against ground_forms.
    A cycle found first decides the verdict; otherwise it names the
    first tree with two outputs, or there is none."""
    verdict = is_functional(subject, depth)
    cycle = string_forms.detect_productive_cycle(a, depth)
    if cycle is not None:
        if isinstance(verdict, ProductiveCycle):
            assert verdict == cycle and replay_cycle(a, verdict)
            return verdict
        assert verdict.input == cycle.input
        probe = StepBudget(max_steps=400)
        outs, _ = enumerate_outputs(subject, verdict.input, probe)
        assert verdict.out1 != verdict.out2
        assert {verdict.out1, verdict.out2} <= outs
        return verdict
    for s in trees_up_to_height(a.input, depth):
        outs = ground_forms(a, s)
        if len(outs) > 1:
            out1, out2 = sorted(outs, key=canonical_key)[:2]
            assert verdict == NotFunctional(s, out1, out2)
            got, exhaustive = enumerate_outputs(subject, s)
            assert exhaustive and {out1, out2} <= got
            return verdict
    assert verdict == FunctionalUpTo(depth)
    return verdict


@settings(max_examples=200, deadline=None)
@given(nondeterministic_atts(), st.integers(2, 3))
def test_verdicts_on_random_nondeterministic_atts(a, depth):
    check_verdict(a, a, depth)


@settings(max_examples=80, deadline=None)
@given(nondeterministic_atts(), st.integers(2, 3))
def test_verdicts_behind_an_identity_lookaround(a, depth):
    pair = PairedSpec(kind="attU", name="r_u",
                      first=fixtures.identity_lookaround(IN, "idr"), second=a)
    assert check_verdict(pair, a, depth) == is_functional(a, depth)


# ---------------------------------------------------------------------------
# rule chains against string forms, on random nondeterministic atts


def reachable_forms(a, s, limit=200):
    """The first forms, at most limit of them, of the string-form
    derivation over #(s), breadth first from the initial form."""
    order = [Tree(occ_node(a.init, (1,)))]
    seen = set(order)
    i = 0
    while i < len(order) and len(order) < limit:
        for nxt in derive_step(a, s, order[i]):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
        i += 1
    return order


def chain_step(a, s, form):
    """The forms one step from a chain form over #(s), stepped on the
    rule chains that enumerate_outputs and the cycle search step on
    (semantics._occurrence_steps), in rule order with repeats dropped."""
    labels, tip, _ = rhs_chain(form, occ_node_info)
    out = []
    if tip is not None:
        for more, nxt, leaf in _occurrence_steps(a, s)(*tip):
            step = _chain_tree(labels + more,
                               leaf if nxt is None else occ_node(*nxt))
            if step not in out:
                out.append(step)
    return out


@settings(max_examples=200, deadline=None)
@given(nondeterministic_atts(repeat=True), trees(3), st.integers(2, 3))
def test_chains_match_string_forms_on_random_atts(a, s, depth):
    """enumerate_outputs under every small budget, a step on the rule
    chains from every reachable form, and the productive cycle with its
    trace give what the string-form references give; the cycle
    replays.  A draw whose
    rules are all one per left-hand side, up to the copy, is
    deterministic and walks its table instead of searching: its
    enumeration is checked in test_walk_table, on atts without copies,
    since the string-form search counts a copy as a second step."""
    for budget in SMALL_BUDGETS if not a.deterministic else ():
        assert enumerate_outputs(a, s, budget) == \
            string_forms.enumerate_att(a, s, budget)
    for form in reachable_forms(a, s):
        assert chain_step(a, s, form) == derive_step(a, s, form)
    cycle = productive_cycle(a, depth)
    assert cycle == string_forms.detect_productive_cycle(a, depth)
    assert cycle is None or replay_cycle(a, cycle)
