import pytest

from ttdef.errors import DuplicateLhsInDeterministic
from ttdef.model import occ_node
from ttdef.semantics import (LSI_VIOLATIONS, BudgetExhausted, Diverges,
                             NoOutput, Output, Reject, StepBudget,
                             enumerate_outputs, evaluate, nf, run_relabeling,
                             run_tdtt)
from ttdef.trees import RankedAlphabet, Tree, parse_tree, trees_up_to_height

import fixtures
from fixtures import parse_spec
from string_forms import derive_step
from test_walk_table import derivation_forms

FED = RankedAlphabet({"f": 2, "e": 0, "d": 0})
FE = RankedAlphabet({"f": 2, "e": 0})


def T(text):
    return parse_tree(text)


def occ(attr, *addr):
    return Tree(occ_node(attr, tuple(addr)))


def g_tower(n, base="e"):
    t = Tree(base)
    for _ in range(n):
        t = Tree("g", [t])
    return t


# ---------------------------------------------------------------------------
# derive_step, the string-form step that cycle certificates replay under

def test_derive_step_descends_first_child():
    a1 = fixtures.a1()
    s = T("f(f(e,e),f(e,e))")
    assert derive_step(a1, s, occ("a", 1)) == [occ("a", 1, 1)]


def test_derive_step_root_rule_finishes():
    a1 = fixtures.a1()
    s = T("f(f(e,e),f(e,e))")
    deep = Tree("g", [Tree("g", [Tree("g", [Tree("g", [occ("b", 1)])])])])
    assert derive_step(a1, s, deep) == [g_tower(4)]


def test_derive_step_ground_form_has_no_successors():
    a1 = fixtures.a1()
    assert derive_step(a1, T("f(e,e)"), g_tower(2)) == []


def test_derive_step_stuck_inherited_at_root_marker():
    a1 = fixtures.a1()
    assert derive_step(a1, T("e"), occ("b")) == []


def test_derive_step_nondeterministic_branches():
    n1 = fixtures.n1()
    succ = derive_step(n1, T("e"), occ("a", 1))
    assert set(succ) == {Tree("g", [occ("b", 1)]), Tree("e")}


# ---------------------------------------------------------------------------
# evaluate

def test_a1_paper_output():
    assert evaluate(fixtures.a1(), T("f(f(e,e),f(e,e))")) == Output(g_tower(4))


def test_a1_counts_leaves():
    a1 = fixtures.a1()
    for s in trees_up_to_height(FE, 4):
        leaves = sum(1 for _ in s.leaves())
        assert evaluate(a1, s) == Output(g_tower(leaves))


def a2_expected(s):
    """Independent reading of the translation: walk the leftmost path; a
    non-leaf level emits g iff the rightmost leaf of its subtree is e,
    else f; the final leaf keeps its label."""
    labels = []
    node = s
    while node.children:
        r = node
        while r.children:
            r = r.children[-1]
        labels.append("g" if r.label == "e" else "f")
        node = node.children[0]
    t = Tree(node.label)
    for lab in reversed(labels):
        t = Tree(lab, [t])
    return t


def test_a2_paper_output():
    s = T("f(f(f(d,d),d),f(d,e))")
    assert evaluate(fixtures.a2(), s) == Output(T("g(f(f(d)))"))


def test_a2_matches_independent_description():
    a2 = fixtures.a2()
    for s in trees_up_to_height(FED, 3):
        assert evaluate(a2, s) == Output(a2_expected(s))


def test_circular_c0_no_output():
    assert evaluate(fixtures.c0(), T("e")) == NoOutput()


def test_productive_cycle_p0_no_output():
    assert evaluate(fixtures.p0(), T("e")) == NoOutput()


def test_stuck_symbol_no_output():
    a = parse_spec(fixtures.A1_TEXT.replace("input f:2 e:0", "input f:2 e:0 d:0"))
    assert evaluate(a, T("d")) == NoOutput()
    assert evaluate(a, T("f(e,d)")) == NoOutput()
    assert enumerate_outputs(a, T("d")) == (set(), True)


def test_budget_exhaustion_reported():
    out = evaluate(fixtures.a1(), T("f(f(e,e),f(e,e))"), StepBudget(max_steps=3))
    assert out == BudgetExhausted()


def test_evaluate_rejects_nondeterministic():
    with pytest.raises(DuplicateLhsInDeterministic):
        evaluate(fixtures.n1(), T("e"))


def test_trace_records_figure_style_steps():
    assert evaluate(fixtures.a1(), T("f(e,e)")) == Output(g_tower(2))
    forms = derivation_forms(fixtures.a1(), T("f(e,e)"))
    assert forms[0] == occ("a", 1)
    assert forms[1] == occ("a", 1, 1)
    assert forms[-1] == g_tower(2)
    assert len(forms) == 7


# ---------------------------------------------------------------------------
# enumerate_outputs

def test_n1_multiple_outputs():
    outs, exhaustive = enumerate_outputs(fixtures.n1(), T("f(e,e)"))
    assert exhaustive
    assert outs == {T("e"), g_tower(1), g_tower(2)}


def test_deterministic_enumeration_is_singleton():
    a2 = fixtures.a2()
    for s in trees_up_to_height(FED, 2):
        outs, exhaustive = enumerate_outputs(a2, s)
        assert exhaustive and len(outs) == 1
        assert evaluate(a2, s) == Output(next(iter(outs)))


def test_enumeration_closes_on_unproductive_cycle():
    outs, exhaustive = enumerate_outputs(fixtures.c0(), T("e"))
    assert outs == set() and exhaustive


def test_enumeration_truncates_on_productive_cycle():
    outs, exhaustive = enumerate_outputs(fixtures.p0(), T("e"),
                                         StepBudget(max_enumeration=50))
    assert outs == set() and not exhaustive


# ---------------------------------------------------------------------------
# nf

def test_nf_examples():
    a1 = fixtures.a1()
    assert nf(a1, T("e"), occ("a")) == Tree("g", [occ("b")])
    assert nf(a1, T("e"), g_tower(2)) == g_tower(2)
    assert nf(fixtures.c0(), T("e"), occ("a")) == occ("b")
    # away from the root marker the unproductive root-level cycle is invisible:
    # the walk just parks on the inherited tip
    assert nf(fixtures.p0(), T("e"), occ("a")) == Tree("g", [occ("b")])


CHILD_CYCLE = """\
att D0
input f:2 e:0
output e:0
syn a
inh b
init a
rule f: a(pi) -> a(pi 1)
rule f: b(pi 1) -> a(pi 1)
rule e: a(pi) -> b(pi)
rule #: b(pi 1) -> e
"""


def test_nf_diverges_on_child_cycle():
    d0 = parse_spec(CHILD_CYCLE)
    assert nf(d0, T("f(e,e)"), occ("a")) == Diverges()
    assert evaluate(d0, T("f(e,e)")) == NoOutput()


def test_nf_runs_to_inherited_tip_on_subtree():
    # on the bare subtree f(e,e) the walk returns to b at the root and stops
    a1 = fixtures.a1()
    assert nf(a1, T("f(e,e)"), occ("a")) == g_tower(2, base=occ("b").label)


# ---------------------------------------------------------------------------
# relabelings and top-down transducers

RIGHTMOST = """\
relabeling R
input f:2 e:0 d:0
output f:2 e:0 d:0
final pe
rule e -> pe:e
rule d -> pd:d
rule f(pe,pe) -> pe:f
rule f(pe,pd) -> pd:f
rule f(pd,pe) -> pe:f
rule f(pd,pd) -> pd:f
"""

PARTIAL = """\
relabeling P
input f:2 e:0
output f:2 e:0
final p
rule e -> p:e
"""

ID_DT = """\
dt Id
input f:2 e:0
output f:2 e:0
init q
rule q f: q(f(x1,x2)) -> f(q(x1),q(x2))
rule q e: q(e) -> e
"""


def test_run_relabeling_tracks_rightmost_leaf():
    r = parse_spec(RIGHTMOST)
    assert run_relabeling(r, T("d")) == ("pd", T("d"))
    assert run_relabeling(r, T("f(d,e)")) == ("pe", T("f(d,e)"))
    assert run_relabeling(r, T("f(e,d)")) == ("pd", T("f(e,d)"))
    for s in trees_up_to_height(FED, 3):
        state, out = run_relabeling(r, s)
        rightmost = s
        while rightmost.children:
            rightmost = rightmost.children[-1]
        assert out == s
        assert state == ("pe" if rightmost.label == "e" else "pd")


def test_run_relabeling_rejects_without_rule():
    p = parse_spec(PARTIAL)
    assert run_relabeling(p, T("e")) == ("p", T("e"))
    assert run_relabeling(p, T("f(e,e)")) == Reject()


def test_identity_tdtt():
    d = parse_spec(ID_DT)
    assert d.relabeling
    for s in trees_up_to_height(FE, 3):
        assert run_tdtt(d, s) == Output(s)


def test_tdtt_partiality():
    d = parse_spec(ID_DT.replace("rule q e: q(e) -> e\n", ""))
    assert run_tdtt(d, T("e")) == NoOutput()
    assert run_tdtt(d, T("f(e,e)")) == NoOutput()


def test_pair_factorization():
    text = RIGHTMOST + "\n" + fixtures.A2_TEXT.replace("att A2", "att A2x") \
        + "\npair attR H = R ; A2x\n"
    h = parse_spec(text)
    a2 = fixtures.a2()
    for s in trees_up_to_height(FED, 3):
        got = evaluate(h, s)
        state, relabeled = run_relabeling(h.first, s)
        if state == "pe":
            assert got == evaluate(a2, relabeled)
        else:
            assert got == NoOutput()


FED_DT = """\
dt L
input f:2 e:0 d:0
output f:2 e:0 d:0
init q
rule q f: q(f(x1,x2)) -> f(q(x1),q(x2))
rule q e: q(e) -> e
rule q d: q(d) -> d
"""


def test_lookaround_pair_end_to_end():
    text = RIGHTMOST + "\n" + FED_DT + "\npair lookaround U = R ; L\n"
    u = parse_spec(text)
    assert evaluate(u, T("f(d,e)")) == Output(T("f(d,e)"))
    assert evaluate(u, T("d")) == NoOutput()  # root state pd not final


def test_no_lsi_violations_recorded():
    assert LSI_VIOLATIONS == []
