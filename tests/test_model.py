import random
from dataclasses import replace

import pytest
from hypothesis import given, seed, settings

from ttdef.errors import (AlphabetMismatch, ArityMismatch,
                          DuplicateLhsInDeterministic, RootMarkerSynRule,
                          SpecSyntaxError, TtdefError, UnknownAttribute,
                          UnknownSymbol)
from ttdef.model import (AttRule, AttSpec, PairedSpec, RelabelingRule,
                         RelabelingSpec, TdttRule, TdttSpec, call_info,
                         call_label, check_monadic,
                         is_occurrence, mangle_child, mangle_literal,
                         mangle_parts, occ_node, occ_node_info, occ_pattern,
                         occ_pattern_info, parse_all, render_spec,
                         split_mangled_child)
from ttdef.trees import Tree, parse_tree

import fixtures
from fixtures import parse_spec
from string_forms import rules_for
from test_walk_table import atts, tdtts


def test_a1_parses_as_expected():
    a = fixtures.a1()
    assert isinstance(a, AttSpec)
    assert a.name == "A1"
    assert a.syn == ("a",) and a.inh == ("b",) and a.init == "a"
    assert a.input.rank("f") == 2 and a.output.rank("g") == 1
    assert a.deterministic
    assert len(a.rules_at("f")) == 3
    assert rules_for(a, "f", "b", 1)[0].rhs == Tree(occ_pattern("a", 2))
    assert rules_for(a, "#", "b", 1)[0].rhs == Tree("e")
    assert rules_for(a, "e", "a", 0)[0].rhs == Tree("g", [Tree(occ_pattern("b", 0))])


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
    assert len(rules_for(n, "e", "a", 0)) == 2


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
    assert bad.count("\n", 0, ei.value.offset) + 1 == 12
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


@pytest.mark.parametrize("name", ["x0", "x12", "pi"])
def test_reserved_output_names_rejected(name):
    """A dt names its variables x1, x2, ...; the dtR built for an att
    carries the att's output symbols, so they may not look like one."""
    with pytest.raises(SpecSyntaxError, match="%r is reserved" % name):
        parse_spec(fixtures.X0_TEXT.replace("x0", name))
    parse_spec(fixtures.X0_TEXT.replace("x0", "x0y"))


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
    # the rule table keeps every rule of each left-hand side, in order
    assert a.rule_table["e", "a", 0] == ((("g",), ("b", 0), None),
                                         ((), None, "e"))
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
    assert [r.rhs for r in d.rules if (r.state, r.symbol) == ("q0", "f")] \
        == [Tree("g", [Tree(call_label("q1", 2))])]
    assert parse_spec(render_spec(d)) == d


def test_dt_lhs_shape_checked():
    with pytest.raises(SpecSyntaxError):
        parse_spec(DT_TEXT + "rule q1 f: q1(f(x2,x1)) -> e\n")
    with pytest.raises(ArityMismatch):
        parse_spec(DT_TEXT + "rule q1 e: q1(e) -> q1(x1)\n")


def test_dt_nondeterministic_allowed():
    d = parse_spec(DT_TEXT + "rule q0 e: q0(e) -> g(e)\n")
    assert not d.deterministic
    assert len([r for r in d.rules if (r.state, r.symbol) == ("q0", "e")]) == 2


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
    assert not fixtures.is_automaton(b)
    assert b.rule_for("f", ("p", "p")).out_symbol == "f_<p,p>"
    assert b.rule_for("f", ("q", "q")) is None
    assert parse_spec(render_spec(b)) == b


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def test_relabeling_duplicate_lhs_rejected():
    """Two rules for one symbol and child states that differ in the state
    or the output symbol are refused, at the line of the second."""
    for extra in ("rule e -> q:e\n", "rule e -> p:d\n"):
        text = RELABEL_TEXT + "rule d -> q:d\n" + extra
        with pytest.raises(DuplicateLhsInDeterministic) as ei:
            parse_spec(text)
        assert line_of(text, ei.value.offset) == 10


def test_relabeling_rule_repeated_verbatim_is_kept_once():
    text = RELABEL_TEXT.replace("rule e -> p:e\n",
                                "rule e -> p:e\nrule e -> p:e\n")
    assert parse_spec(text) == parse_spec(RELABEL_TEXT)


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
    assert fixtures.is_automaton(parse_spec(text))


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
    assert check_monadic(fixtures.a1())
    assert check_monadic(fixtures.a2())
    wide = fixtures.A1_TEXT.replace("output g:1 e:0", "output g:1 h:2 e:0")
    assert not check_monadic(parse_spec(wide))


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
    assert mangle_child("f_<r1,r2>", 2) == "f_<r1,r2>@2"
    assert split_mangled_child("f_<r1,r2>@2") == ("f_<r1,r2>", 2)
    assert split_mangled_child("f") is None
    assert mangle_literal(parse_tree("g(e)")) == "lit<g(e)>"


def test_comments_and_blank_lines_ignored():
    text = "% a machine\n\n" + fixtures.A1_TEXT.replace(
        "rule e:", "% emit\nrule e:")
    assert parse_spec(text) == fixtures.a1()


def written_twice(text):
    """text with every rule line repeated: once right after itself, and
    all of them once more at the end of its declaration."""
    out, rules = [], []
    for line in text.splitlines() + [""]:
        words = line.split()
        if not words or words[0] in ("att", "dt", "relabeling", "pair"):
            out += rules
            rules = []
        out.append(line)
        if words[:1] == ["rule"]:
            out.append(line)
            rules.append(line)
    return "\n".join(out) + "\n"


def a2_dtr_text(tmp_path):
    """The text of the dtR the decision builds for A2 at word length 5:
    its look-ahead, its top-down stage and the pair, 88 rules in all."""
    from ttdef.pipeline import Yes, decide_dtR
    report = decide_dtR(fixtures.a2(), {"equivalence_depth": 4,
                                        "verify_word_length": 5},
                        outdir=tmp_path)
    assert isinstance(report.answer, Yes)
    with open(report.answer.spec_path) as f:
        return f.read()


def test_repeated_rules_parse_as_written_once(tmp_path):
    """The parser keeps each rule once, at its first line: every fixture,
    and A2's dtR, parse with each rule line repeated into the specs they
    parse into without."""
    texts = [fixtures.A1_TEXT, fixtures.A2_TEXT, fixtures.N1_TEXT,
             fixtures.C0_TEXT, fixtures.P0_TEXT, fixtures.REV_TEXT,
             fixtures.W107_TEXT, fixtures.T2_TEXT,
             fixtures.D65_TEXT, DT_TEXT, a2_dtr_text(tmp_path)]
    for text in texts:
        assert parse_all(written_twice(text)) == parse_all(text)
    for make in (fixtures.a1, fixtures.a2, fixtures.rev,
                 fixtures.leftmost_e_lookaround):
        spec = make()
        assert parse_all(written_twice(render_spec(spec)))[-1] == spec


def test_parsing_compares_no_rules(monkeypatch, tmp_path):
    """Rules seen are kept in a dict, not looked up in a list: parsing A2
    and its dtR compares no two rules (2 415 TdttRule comparisons per
    parse of the dtR's 70 top-down rules when each was looked up in the
    list of those before it)."""
    text = a2_dtr_text(tmp_path)
    compared = []
    for cls in (AttRule, TdttRule, RelabelingRule):
        eq = cls.__eq__

        def counted(self, other, eq=eq):
            compared.append(type(self).__name__)
            return eq(self, other)
        monkeypatch.setattr(cls, "__eq__", counted)
    dtr = parse_spec(text)
    a2 = parse_spec(fixtures.A2_TEXT)
    assert len(dtr.second.rules) == 70 and len(a2.rules["f"]) > 1
    assert compared == []


# ---------------------------------------------------------------------------
# the contract of the text layer


def test_rendered_random_atts_parse_back_to_their_text():
    """Text, not specs, is compared: a drawn att may keep an empty rule
    tuple for a symbol, which parsing leaves out."""
    @seed(1)
    @settings(max_examples=400, deadline=None, database=None)
    @given(atts())
    def check(a):
        text = render_spec(a)
        assert render_spec(parse_all(text)[-1]) == text

    check()


def test_rendered_random_tdtts_parse_back_to_their_text():
    """A drawn tdtt may call a child its symbol lacks, which the parser
    refuses, and may hold a rule twice, which it keeps once."""
    counts = {"accepted": 0, "repeats": 0}

    @seed(1)
    @settings(max_examples=400, deadline=None, database=None)
    @given(tdtts())
    def check(t):
        text = render_spec(t)
        try:
            parsed = parse_all(text)[-1]
        except TtdefError:
            return
        once = replace(t, rules=tuple(dict.fromkeys(t.rules)))
        assert render_spec(parsed) == render_spec(once)
        counts["accepted"] += 1
        counts["repeats"] += once.rules != t.rules

    check()
    assert counts["accepted"] >= 100 and counts["repeats"] >= 50, counts


# the lexer's punctuation, digits ASCII and not, names, and a letter that
# is not ASCII
FUZZ_CHARS = "<>()%#@:;=,- \t0123456789\u00b2\u0663abeipx_\u00e9"


def mutated(text, rng):
    """text with one to three of its lines edited: a character put in,
    taken out or replaced, or a whole line written again elsewhere."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        line, i = lines[k], rng.randint(0, len(lines[k]))
        op = rng.randrange(4)
        if op == 3:
            lines.insert(rng.randrange(len(lines) + 1), line)
        else:
            put = rng.choice(FUZZ_CHARS) if op != 1 else ""
            lines[k] = line[:i] + put + line[i + (op != 0):]
    return "\n".join(lines)


def test_malformed_text_raises_a_ttdef_error_inside_it():
    """Every malformed text is refused with a TtdefError whose offset
    lies in the text; nothing else escapes parse_all."""
    rng = random.Random(1)
    texts = [fixtures.A1_TEXT, fixtures.A2_TEXT, fixtures.REV_TEXT,
             DT_TEXT, PAIR_TEXT]
    refused = 0
    for _ in range(3000):
        text = mutated(rng.choice(texts), rng)
        try:
            parse_all(text)
        except TtdefError as err:
            refused += 1
            assert err.offset is not None and 0 <= err.offset <= len(text), \
                (text, err)
    assert refused > 2000


@pytest.mark.parametrize("rhs, error, message", [
    ("", SpecSyntaxError, "expected a tree term, found end of input"),
    (", e", SpecSyntaxError, "expected a symbol name, found ','"),
    ("g(a(pi 1", SpecSyntaxError, "expected ')' closing the occurrence"),
    ("g(a(pi 1 2))", SpecSyntaxError, "expected ')' closing the occurrence"),
    ("g(a(pi 1)", SpecSyntaxError, "unterminated subtree list"),
    ("g(a(pi 1); e)", SpecSyntaxError, "expected ',' or ')'"),
    ("g(a(pi 1) e)", SpecSyntaxError, "expected ',' or ')'"),
    ("g(a(pi 3))", ArityMismatch, "occurrence 'a(pi 3)' points past the 2 "
                                  "children"),
])
def test_a_malformed_rhs_is_refused_at_its_line(rhs, error, message):
    text = fixtures.A1_TEXT.replace("rule e:", "rule f: a(pi) -> %s\nrule e:"
                                    % rhs)
    with pytest.raises(error) as ei:
        parse_spec(text)
    assert ei.value.message == message
    assert line_of(text, ei.value.offset) == 10


def test_a_duplicate_declaration_is_refused_at_its_header():
    text = fixtures.A1_TEXT + "\n" + fixtures.A1_TEXT
    with pytest.raises(SpecSyntaxError) as ei:
        parse_all(text)
    assert line_of(text, ei.value.offset) == 13


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_only_ascii_digits_make_a_number(digit):
    """int() reads some digits that are not ASCII and refuses others, so
    the lexer takes only ASCII digits for a number."""
    text = fixtures.A1_TEXT.replace("e:0", "e:" + digit, 1)
    with pytest.raises(SpecSyntaxError) as ei:
        parse_spec(text)
    assert ei.value.offset == text.index(digit)
