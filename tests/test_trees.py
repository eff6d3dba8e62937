import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ttdef.errors import ArityMismatch, NoSuchNode, SpecSyntaxError, UnknownSymbol
from ttdef.trees import (
    RankedAlphabet, Tree, breadth_first, canonical_key, explore_bottom_up,
    fill_holes, format_address, hole_addresses, leaf, parse_tree, path_to,
    tokenize, trees_up_to_height,
)

FED = RankedAlphabet({"f": 2, "e": 0, "d": 0})
FE = RankedAlphabet({"f": 2, "e": 0})
MON = RankedAlphabet({"g": 1, "h": 1, "e": 0})


def T(text, **kw):
    return parse_tree(text, **kw)


def test_parse_render_roundtrip_basic():
    for text in ["e", "f(e,d)", "f(f(e,e),d)", "g(g(e))", "f(a,f(a,b))"]:
        assert T(text).render() == text


def test_explicit_empty_parens_accepted():
    assert T("e()") == T("e")
    assert T("f(e(),d())").render() == "f(e,d)"


def test_size_and_height():
    t = T("f(a,f(a,b))")
    assert t.size == 5
    assert t.height == 3
    assert leaf("e").size == 1
    assert leaf("e").height == 1


def test_subtree_and_replace():
    t = T("f(a,f(a,b))")
    assert t.subtree_at((2,)) == T("f(a,b)")
    assert t.subtree_at(()) is t
    assert t.replace_at((1,), leaf("b")) == T("f(b,f(a,b))")
    assert t.replace_at((2, 2), T("f(a,b)")) == T("f(a,f(a,f(a,b)))")


def test_bad_addresses_raise():
    t = T("f(a,b)")
    with pytest.raises(NoSuchNode):
        t.subtree_at((3,))
    with pytest.raises(NoSuchNode):
        t.subtree_at((1, 1))
    with pytest.raises(NoSuchNode):
        t.replace_at((2, 5), leaf("e"))


def test_address_formatting_roundtrip():
    assert format_address(()) == "eps"
    assert format_address((2, 1)) == "2.1"


def test_alphabet_checked_parse():
    assert T("f(e,d)", alphabet=FED) == T("f(e,d)")
    with pytest.raises(UnknownSymbol) as ei:
        T("f(e,q)", alphabet=FED)
    assert ei.value.offset == 4
    with pytest.raises(ArityMismatch):
        T("f(e)", alphabet=FED)
    with pytest.raises(ArityMismatch):
        T("e(d)", alphabet=FED)


def test_holes_only_when_allowed():
    p = T("f(_,e)", alphabet=FED, allow_hole=True)
    assert hole_addresses(p) == [(1,)]
    with pytest.raises(UnknownSymbol):
        T("f(_,e)", alphabet=FED)


def test_syntax_errors_carry_offsets():
    with pytest.raises(SpecSyntaxError) as ei:
        T("f(e,")
    assert ei.value.offset is not None
    with pytest.raises(SpecSyntaxError):
        T("f(e,d) e")
    with pytest.raises(SpecSyntaxError):
        T("(e)")
    with pytest.raises(SpecSyntaxError):
        T("")


def test_angle_groups_lex_as_single_names():
    toks = tokenize("f_<r1,r2>(x) lit<g(e)> f@2")
    names = [v for k, v, _ in toks if k == "name"]
    assert names == ["f_<r1,r2>", "x", "lit<g(e)>", "f@2"]
    t = T("f_<r1,r2>(lit<g(e)>,e)")
    assert t.label == "f_<r1,r2>"
    assert t.children[0].label == "lit<g(e)>"
    assert t.render() == "f_<r1,r2>(lit<g(e)>,e)"


def test_unbalanced_angle_raises():
    with pytest.raises(SpecSyntaxError):
        tokenize("lit<g(e")


def test_comments_skipped():
    toks = tokenize("f(e) % trailing words < unbalanced is fine here\n")
    assert [k for k, _, _ in toks] == ["name", "lpar", "name", "rpar"]


def test_fill_holes_preorder():
    p = T("f(_,f(_,e))", allow_hole=True)
    t = fill_holes(p, [leaf("a"), leaf("b")])
    assert t == T("f(a,f(b,e))")
    with pytest.raises(NoSuchNode):
        fill_holes(p, [leaf("a")])


@st.composite
def fed_trees(draw, max_depth=4):
    if max_depth <= 1 or draw(st.booleans()):
        return leaf(draw(st.sampled_from(["e", "d"])))
    l = draw(fed_trees(max_depth=max_depth - 1))
    r = draw(fed_trees(max_depth=max_depth - 1))
    return Tree("f", (l, r))


@given(fed_trees())
def test_parse_inverts_render(t):
    assert parse_tree(t.render(), alphabet=FED) == t


@given(fed_trees(), fed_trees())
def test_eq_agrees_with_render(a, b):
    assert (a == b) == (a.render() == b.render())
    if a == b:
        assert hash(a) == hash(b)


def test_deep_chain_no_recursion_blowup():
    t = leaf("e")
    for _ in range(5000):
        t = Tree("g", (t,))
    assert t.size == 5001
    assert t.height == 5001
    assert t == parse_tree(t.render(), alphabet=MON)
    assert t.replace_at((1,) * 5000, leaf("e")) == t


def test_enumeration_counts_by_height():
    assert [len(trees_up_to_height(FED, h)) for h in (1, 2, 3, 4)] == [2, 6, 38, 1446]
    assert len(trees_up_to_height(FE, 4)) == 26


@pytest.mark.parametrize("alphabet", [FED, FE], ids=["FED", "FE"])
def test_enumeration_is_canonical_without_rendering(alphabet, monkeypatch):
    """Each tree's text is built with the tree, so the sort renders no
    tree."""
    rendered = []
    render = Tree.render
    monkeypatch.setattr(Tree, "render",
                        lambda t: rendered.append(t) or render(t))
    got = [trees_up_to_height(alphabet, h) for h in (1, 2, 3, 4)]
    assert rendered == []
    monkeypatch.undo()
    for trees in got:
        assert trees == sorted(trees, key=canonical_key)


def test_canonical_key_orders_by_size_then_text():
    ts = [T("f(e,e)"), T("e"), T("d"), T("f(d,e)")]
    assert [t.render() for t in sorted(ts, key=canonical_key)] == [
        "d", "e", "f(d,e)", "f(e,e)"]


def test_alphabet_rejects_root_marker_and_conflicts():
    with pytest.raises(UnknownSymbol):
        RankedAlphabet({"#": 1})
    with pytest.raises(ArityMismatch):
        RankedAlphabet([("f", 2), ("f", 1)])
    assert RankedAlphabet([("f", 2), ("f", 2)]).rank("f") == 2


# ---------------------------------------------------------------------------
# reachable states bottom-up

def rescan_reference(alphabet, step):
    """The rescanning worklist explore_bottom_up replaced, verbatim: each
    round goes over every tuple of the states known when it began and
    skips those already seen."""
    states = {}
    order = []
    seen = set()
    changed = True
    while changed:
        changed = False
        pool = list(order)
        for sym, k in alphabet.items():
            for combo in itertools.product(pool, repeat=k):
                if (sym, combo) in seen:
                    continue
                seen.add((sym, combo))
                key = step(sym, combo)
                if key is None:
                    continue
                if key not in states:
                    states[key] = len(states)
                    order.append(key)
                    changed = True
    return order


def table_step(seed, n_states, none_share):
    """A fixed table from (symbol, child states) to a state below n_states
    or None, drawn from seed, and the list of calls made on it."""
    calls = []

    def step(sym, combo):
        calls.append((sym, combo))
        rng = random.Random(repr((seed, sym, combo)))
        return None if rng.random() < none_share else rng.randrange(n_states)
    return step, calls


ranked_alphabets = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(
    lambda ranks: RankedAlphabet([("s%d" % i, k) for i, k in enumerate(ranks)]))


@settings(max_examples=300, deadline=None)
@given(ranked_alphabets, st.integers(0, 2 ** 32), st.integers(1, 6),
       st.sampled_from([0.0, 0.3, 0.6]))
def test_explore_bottom_up_matches_the_rescan(alpha, seed, n_states,
                                              none_share):
    step, calls = table_step(seed, n_states, none_share)
    ref_step, ref_calls = table_step(seed, n_states, none_share)
    assert explore_bottom_up(alpha, step) == rescan_reference(alpha, ref_step)
    assert calls == ref_calls


def test_explore_bottom_up_counts_tree_heights():
    """States are heights of trees over f/2, g/1, e/0 capped at 3; None
    (height past the cap) is not a state."""
    alpha = RankedAlphabet([("f", 2), ("g", 1), ("e", 0)])
    calls = []

    def step(sym, combo):
        calls.append((sym, combo))
        height = 1 + max(combo, default=0)
        return height if height <= 3 else None

    assert explore_bottom_up(alpha, step) == [1, 2, 3]
    # round two only pairs up height 2, round three only height 3
    assert calls == [("e", ()),
                     ("f", (1, 1)), ("g", (1,)),
                     ("f", (1, 2)), ("f", (2, 1)), ("f", (2, 2)), ("g", (2,)),
                     ("f", (1, 3)), ("f", (2, 3)), ("f", (3, 1)),
                     ("f", (3, 2)), ("f", (3, 3)), ("g", (3,))]


# ---------------------------------------------------------------------------
# reachable nodes breadth first

# node -> [(edge, next node)]; b reaches c straight and a reaches it too,
# and x is reachable from no root
GRAPH = {"a": [("ab", "b"), ("ac", "c")],
         "b": [("bd", "d"), ("bc", "c")],
         "c": [("cd", "d"), ("ca", "a")],
         "d": [("de", "e")],
         "e": [],
         "x": [("xa", "a")]}


def counted_successors(graph):
    calls = []

    def successors(node):
        calls.append(node)
        return graph[node]
    return successors, calls


def test_breadth_first_puts_each_root_first_once():
    successors, _ = counted_successors(GRAPH)
    parent = breadth_first(["b", "a", "b"], successors)
    assert list(parent)[:2] == ["b", "a"]
    assert parent["b"] is None and parent["a"] is None


def test_breadth_first_finds_in_order_and_keeps_the_first_edge():
    """c is found from the root b before the root a is expanded, so the
    cross edge ac comes too late; d, found from b, is expanded before c."""
    successors, calls = counted_successors(GRAPH)
    parent = breadth_first(["b", "a"], successors)
    assert parent == {"b": None, "a": None, "d": ("b", "bd"),
                      "c": ("b", "bc"), "e": ("d", "de")}
    assert list(parent) == ["b", "a", "d", "c", "e"]
    assert calls == list(parent)


def test_path_to_gives_the_edges_from_a_root():
    successors, _ = counted_successors(GRAPH)
    parent = breadth_first(["a"], successors)
    assert path_to(parent, "a") == []
    assert path_to(parent, "c") == ["ac"]
    assert path_to(parent, "e") == ["ab", "bd", "de"]
    assert "x" not in parent


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), max_size=3), min_size=8,
                max_size=8),
       st.lists(st.integers(0, 7), min_size=1, max_size=3))
def test_breadth_first_paths_are_shortest(succ, roots):
    """On random graphs over 0..7 each node's path is a walk from a root
    along the graph's edges, as short as any, and a node is in the map
    exactly when some root reaches it."""
    graph = {u: [((u, k), v) for k, v in enumerate(vs)]
             for u, vs in enumerate(succ)}
    successors, calls = counted_successors(graph)
    parent = breadth_first(roots, successors)
    dist, layer, d = {}, set(roots), 0
    while layer:
        dist.update(dict.fromkeys(layer, d))
        layer = {v for u in layer for v in succ[u] if v not in dist}
        d += 1
    assert set(parent) == set(dist)
    assert calls == list(parent)
    for node in parent:
        path = path_to(parent, node)
        assert len(path) == dist[node]
        at = path[0][0] if path else node
        assert at in roots
        for u, k in path:
            assert u == at
            at = succ[u][k]
        assert at == node
