import pytest

from ttdef.errors import (AlphabetMismatch, ArityMismatch,
                          DuplicateLhsInDeterministic, RootMarkerSynRule,
                          SpecSyntaxError, UnknownAttribute, UnknownSymbol)
from ttdef.model import (AttRule, AttSpec, PairedSpec, RelabelingSpec,
                         TdttSpec, call_info, call_label, check_monadic,
                         is_occurrence, line_of_offset, mangle_child,
                         mangle_literal, mangle_parts, occ_node,
                         occ_node_info, occ_pattern, occ_pattern_info,
                         parse_all, parse_spec, render_spec,
                         split_mangled_child, split_mangled_parts)
from ttdef.trees import Tree, parse_tree

import fixtures


def test_a1_parses_as_expected():
    a = fixtures.a1()
    assert isinstance(a, AttSpec)
    assert a.name == "A1"
    assert a.syn == ("a",) and a.inh == ("b",) and a.init == "a"
    assert a.input.rank("f") == 2 and a.output.rank("g") == 1
    assert a.deterministic
    assert len(a.rules_at("f")) == 3
    assert a.rules_for("f", "b", 1)[0].rhs == Tree(occ_pattern("a", 2))
    assert a.rules_for("#", "b", 1)[0].rhs == Tree("e")
    assert a.rules_for("e", "a", 0)[0].rhs == Tree("g", [Tree(occ_pattern("b", 0))])


def test_a2_parses_and_is_deterministic():
    a = fixtures.a2()
    assert set(a.syn) == {"a", "a_e", "a_d"}
    assert set(a.inh) == {"b_e", "b_d", "lit<e>", "lit<d>"}
    assert a.deterministic
    assert len(a.rules_at("f")) == 9
    assert len(a.rules_at("#")) == 4


def test_n1_not_deterministic():
    n = fixtures.n1()
    assert not n.deterministic
    assert len(n.rules_for("e", "a", 0)) == 2


def test_root_marker_syn_rule_rejected():
    with pytest.raises(RootMarkerSynRule):
        parse_spec(fixtures.A1_TEXT + "rule #: a(pi) -> e\n")


def test_undeclared_attribute_rejected():
    with pytest.raises(UnknownAttribute):
        parse_spec(fixtures.A1_TEXT + "rule e: c(pi) -> e\n")
    with pytest.raises(UnknownAttribute):
        parse_spec(fixtures.A1_TEXT + "rule e: b(pi) -> e\n")  # inh needs position
    with pytest.raises(UnknownAttribute):
        parse_spec(fixtures.A1_TEXT + "rule f: a(pi 1) -> e\n")  # syn takes none


def test_position_range_checked():
    with pytest.raises(ArityMismatch):
        parse_spec(fixtures.A1_TEXT + "rule f: b(pi 3) -> e\n")
    with pytest.raises(ArityMismatch):
        parse_spec(fixtures.A1_TEXT + "rule f: a(pi) -> a(pi 3)\n")
    with pytest.raises(ArityMismatch):
        parse_spec(fixtures.A1_TEXT + "rule f: a(pi) -> g(e,e)\n")


def test_unknown_symbols_rejected_with_line_numbers():
    bad = fixtures.A1_TEXT + "rule q: a(pi) -> e\n"
    with pytest.raises(UnknownSymbol) as ei:
        parse_spec(bad)
    assert line_of_offset(bad, ei.value.offset) == 12
    with pytest.raises(UnknownSymbol):
        parse_spec(fixtures.A1_TEXT + "rule e: a(pi) -> h(b(pi))\n")


def test_init_must_be_synthesized():
    text = fixtures.A1_TEXT.replace("init a", "init b")
    with pytest.raises(UnknownAttribute):
        parse_spec(text)


def test_attribute_output_collision_rejected():
    text = fixtures.A1_TEXT.replace("syn a", "syn g")
    with pytest.raises(SpecSyntaxError):
        parse_spec(text)


def test_att_roundtrip():
    for fx in (fixtures.a1, fixtures.a2, fixtures.n1, fixtures.c0,
               fixtures.p0, fixtures.rev):
        spec = fx()
        assert parse_spec(render_spec(spec)) == spec


def test_built_spec_with_duplicate_lhs_is_not_deterministic():
    """The properties computed once per spec still see every rule of a
    spec built without the parser."""
    a1 = fixtures.a1()
    rules = dict(a1.rules)
    rules["e"] += (AttRule("a", 0, Tree("e")),)
    a = AttSpec(name="A1_dup", input=a1.input, output=a1.output, syn=a1.syn,
                inh=a1.inh, init=a1.init, rules=rules)
    assert a1.deterministic and a1.walks_on_table
    assert not a.deterministic
    assert not a.walks_on_table
    # the rule table keeps the first rule of each left-hand side
    assert a.rule_table["e", "a", 0] == (("g",), ("b", 0), None)
    assert a.max_rhs_size == 2


def test_duplicate_identical_rule_collapses():
    a = parse_spec(fixtures.A1_TEXT + "rule e: a(pi) -> g(b(pi))\n")
    assert a == fixtures.a1()
    assert a.deterministic


DT_TEXT = """\
dt D1
input f:2 e:0
output g:1 e:0
init q0
rule q0 f: q0(f(x1,x2)) -> g(q1(x2))
rule q0 e: q0(e) -> e
rule q1 f: q1(f(x1,x2)) -> q1(x1)
rule q1 e: q1(e) -> g(e)
"""


def test_dt_parses_and_roundtrips():
    d = parse_spec(DT_TEXT)
    assert isinstance(d, TdttSpec)
    assert d.init == "q0"
    assert d.states == ("q0", "q1")
    assert d.deterministic
    assert not d.relabeling
    assert d.rules_for("q0", "f")[0].rhs == Tree("g", [Tree(call_label("q1", 2))])
    assert parse_spec(render_spec(d)) == d


def test_dt_lhs_shape_checked():
    with pytest.raises(SpecSyntaxError):
        parse_spec(DT_TEXT + "rule q1 f: q1(f(x2,x1)) -> e\n")
    with pytest.raises(ArityMismatch):
        parse_spec(DT_TEXT + "rule q1 e: q1(e) -> q1(x1)\n")


def test_dt_nondeterministic_allowed():
    d = parse_spec(DT_TEXT + "rule q0 e: q0(e) -> g(e)\n")
    assert not d.deterministic
    assert len(d.rules_for("q0", "e")) == 2


RELABEL_TEXT = """\
relabeling B0
input f:2 e:0 d:0
output f_<p,p>:2 f_<p,q>:2 e:0 d:0
final p
rule e -> p:e
rule d -> q:d
rule f(p,p) -> p:f_<p,p>
rule f(p,q) -> p:f_<p,q>
"""


def test_relabeling_parses_and_roundtrips():
    b = parse_spec(RELABEL_TEXT)
    assert isinstance(b, RelabelingSpec)
    assert b.states == ("p", "q")
    assert b.final == ("p",)
    assert not b.automaton
    assert b.rule_for("f", ("p", "p")).out_symbol == "f_<p,p>"
    assert b.rule_for("f", ("q", "q")) is None
    assert parse_spec(render_spec(b)) == b


def test_relabeling_duplicate_lhs_rejected():
    with pytest.raises(DuplicateLhsInDeterministic):
        parse_spec(RELABEL_TEXT + "rule e -> q:e\n")


def test_relabeling_rank_preservation_checked():
    with pytest.raises(ArityMismatch):
        parse_spec(RELABEL_TEXT + "rule f(q,q) -> q:e\n")


def test_automaton_flag():
    text = """\
relabeling Acc
input f:2 e:0
output f:2 e:0
final p
rule e -> p:e
rule f(p,p) -> p:f
"""
    assert parse_spec(text).automaton


PAIR_TEXT = RELABEL_TEXT + """
att Consumer
input f_<p,p>:2 f_<p,q>:2 e:0 d:0
output g:1 e:0
syn a
inh b
init a
rule e: a(pi) -> g(b(pi))
rule #: b(pi 1) -> e

pair attR H = B0 ; Consumer
"""


def test_pair_parses_and_roundtrips():
    h = parse_spec(PAIR_TEXT)
    assert isinstance(h, PairedSpec)
    assert h.kind == "attR"
    assert h.first.name == "B0" and h.second.name == "Consumer"
    assert h.input_alphabet == h.first.input
    assert parse_spec(render_spec(h)) == h
    assert len(parse_all(PAIR_TEXT)) == 3


def test_pair_alphabet_mismatch_rejected():
    text = RELABEL_TEXT + "\n" + fixtures.A1_TEXT + "\npair attR H = B0 ; A1\n"
    with pytest.raises(AlphabetMismatch):
        parse_spec(text)


def test_pair_unknown_reference_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_spec(RELABEL_TEXT + "pair attR H = B0 ; Nope\n")


def test_duplicate_declaration_name_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_all(fixtures.A1_TEXT + "\n" + fixtures.A1_TEXT)


def test_parse_spec_returns_last():
    text = fixtures.A1_TEXT + "\n" + fixtures.C0_TEXT
    assert parse_spec(text).name == "C0"
    assert [d.name for d in parse_all(text)] == ["A1", "C0"]


def test_missing_lines_diagnosed():
    with pytest.raises(SpecSyntaxError):
        parse_spec("att X\ninput e:0\noutput e:0\nsyn a\ninit a\n"
                   .replace("output e:0\n", ""))
    with pytest.raises(SpecSyntaxError):
        parse_spec("rule e: a(pi) -> e\n")
    with pytest.raises(SpecSyntaxError):
        parse_spec("")


def test_check_monadic():
    assert check_monadic(fixtures.a1()).verdict
    assert check_monadic(fixtures.a2()).verdict
    wide = fixtures.A1_TEXT.replace("output g:1 e:0", "output g:1 h:2 e:0")
    assert not check_monadic(parse_spec(wide)).verdict


def test_occurrence_labels():
    assert occ_pattern("a", 0) == "a(pi)"
    assert occ_pattern("b_e", 2) == "b_e(pi 2)"
    assert occ_pattern_info("a(pi)") == ("a", 0)
    assert occ_pattern_info("b_e(pi 2)") == ("b_e", 2)
    assert occ_pattern_info("lit<g(e)>(pi 1)") == ("lit<g(e)>", 1)
    assert occ_pattern_info("g") is None and occ_pattern_info("a(eps)") is None
    assert occ_node("a", ()) == "a(eps)"
    assert occ_node("a", (1, 2)) == "a(1.2)"
    assert occ_node_info("a(eps)") == ("a", ())
    assert occ_node_info("lit<e>(2.1)") == ("lit<e>", (2, 1))
    assert occ_node_info("a(pi)") is None
    assert is_occurrence("a(pi 1)") and not is_occurrence("lit<g(e)>")
    assert call_info(call_label("q_1", 3)) == ("q_1", 3)
    assert call_info("q") is None


def test_mangling_helpers():
    assert mangle_parts("f", ["r1", "r2"]) == "f_<r1,r2>"
    assert split_mangled_parts("f_<r1,r2>") == ("f", "r1,r2")
    assert split_mangled_parts("f_<<0,2>,<1>>") == ("f", "<0,2>,<1>")
    assert split_mangled_parts("plain") is None
    assert mangle_child("f_<r1,r2>", 2) == "f_<r1,r2>@2"
    assert split_mangled_child("f_<r1,r2>@2") == ("f_<r1,r2>", 2)
    assert split_mangled_child("f") is None
    assert mangle_literal(parse_tree("g(e)")) == "lit<g(e)>"


def test_comments_and_blank_lines_ignored():
    text = "% a machine\n\n" + fixtures.A1_TEXT.replace(
        "rule e:", "% emit\nrule e:")
    assert parse_spec(text) == fixtures.a1()
