"""Crossing summaries replayed from compiled plans, against the walk
they replace.

semantics.Crossings runs the walks at a node once per (label, ends of
the children's summaries) and keeps them as plans; summary and read
join a plan's pieces over the children's chunks, read through the root
marker's plan composed with the node's.  reference_cross,
kept here, walks over the children's chunks themselves at every node
and stays the reference: a reference summary maps each synthesized
attribute to (chunk, end, name).

Crossings.walk memoizes each walk on what it reads of the children's
ends.  reference_walk, the walk as it ran before the memo and kept here,
is its reference over random atts and random children's ends of every
kind, the "enter" ends the walk analysis and associate pass included.
analysis.local_run keeps the segment of each walk outcome on the
Crossings; each must be the segment of the walk without the memo.
"""

from hypothesis import given, settings, strategies as st

from ttdef.analysis import _segment, local_run
from ttdef.model import ROOT, AttRule, AttSpec, occ_pattern
from ttdef.semantics import Crossings
from ttdef.trees import RankedAlphabet, Tree, trees_up_to_height

from test_walk_table import IN, OUT, atts
from test_word_cache import LETTERS, word_machines


def reference_cross(att, label, below, tip):
    """(chunk, end, name) of the walk from tip at a node labelled label:
    ROOT for the root marker, which has no parent, else a symbol, below
    the reference summaries of its children.  tip is an (attr, pos) as
    rule_table gives it, read at this node; (a, 0) enters a synthesized
    a."""
    table, syn, inh = att.rule_table, frozenset(att.syn), frozenset(att.inh)
    root = label == ROOT
    out = []
    seen = {}       # occurrence -> output length when it was reached
    while True:
        attr, pos = tip
        occ = None      # the occurrence the walk goes on at, if any
        if attr in syn:
            if pos == 0:
                if not root:
                    occ = tip
            elif pos <= len(below):
                chunk, end, name = below[pos - 1][attr]
                out.extend(chunk)
                if end != "up":
                    return tuple(out), end, name
                occ = (name, pos)
        elif attr in inh:
            if pos:
                occ = tip
            elif not root:
                return tuple(out), "up", attr
        if occ is None:
            return tuple(out), "stuck", None
        if occ in seen:
            return (tuple(out),
                    "silent" if seen[occ] == len(out) else "productive",
                    None)
        seen[occ] = len(out)
        chains = table.get((label,) + occ)
        if chains is None:
            return tuple(out), "stuck", None
        emitted, tip, leaf = chains[0]
        out.extend(emitted)
        if tip is None:
            return tuple(out), "leaf", leaf


def reference_walk(crossings, label, below, tip):
    """Crossings.walk without the memo: (pieces, end, name) of the walk
    from tip at a node labelled label over children with the ends
    below."""
    root = label == ROOT
    pieces = []
    seen = {}       # occurrence -> pieces emitted when it was reached
    while True:
        attr, pos = tip
        occ = None      # the occurrence the walk goes on at, if any
        k = crossings.index.get(attr)
        if k is not None:
            if pos == 0:
                if not root:
                    occ = tip
            elif pos <= len(below):
                end, name, full = below[pos - 1][k]
                if full:
                    pieces.append((pos - 1, k))
                if end != "up":
                    return pieces, end, name
                occ = (name, pos)
        elif attr in crossings.inh_set:
            if pos:
                occ = tip
            elif not root:
                return pieces, "up", attr
        if occ is None:
            return pieces, "stuck", None
        if occ in seen:
            return (pieces,
                    "silent" if seen[occ] == len(pieces) else "productive",
                    None)
        seen[occ] = len(pieces)
        chains = crossings.table.get((label,) + occ)
        if chains is None:
            return pieces, "stuck", None
        emitted, tip, leaf = chains[0]
        if emitted:
            pieces.append((None, emitted))
        if tip is None:
            return pieces, "leaf", leaf


@st.composite
def child_ends(draw, att):
    """One child's ends, one per synthesized attribute, of any kind a
    walk meets: "up" into an inherited attribute, a leaf, stuck, a
    cycle, or "enter" as the walk analysis and associate name it."""
    kinds = [st.tuples(st.just("up"), st.sampled_from(att.inh), st.booleans())
             ] if att.inh else []
    kinds += [st.tuples(st.just("leaf"), st.just("c"), st.booleans()),
              st.tuples(st.sampled_from(["stuck", "silent", "productive"]),
                        st.none(), st.booleans()),
              st.tuples(st.just("enter"), st.sampled_from(att.syn),
                        st.just(False)),
              st.tuples(st.just("enter"), st.tuples(
                  st.sampled_from(att.syn), st.integers(1, 2)),
                  st.just(False))]
    return tuple(draw(st.one_of(kinds)) for _ in att.syn)


@st.composite
def walks(draw):
    """A random att and a list of walks on it: (label, below, tip), with
    below of any length from nothing to three children, so that some
    walks read past their children.  The walks start at a few (label,
    tip) pairs over a few distinct children's ends, so that many of them
    share some of what they read."""
    att = draw(atts())
    pool = draw(st.lists(child_ends(att), min_size=1, max_size=4))
    tips = [(a, 0) for a in att.syn] + [
        (b, j) for b in att.inh for j in range(3)] + [
        (a, j) for a in att.syn for j in (1, 2, 3)]
    starts = draw(st.lists(st.tuples(st.sampled_from(list(IN) + [ROOT]),
                                     st.sampled_from(tips)),
                           min_size=1, max_size=3))
    queries = draw(st.lists(st.tuples(
        st.sampled_from(starts),
        st.lists(st.sampled_from(pool), max_size=3).map(tuple)),
        min_size=1, max_size=40))
    return att, [(label, below, tip) for (label, tip), below in queries]


@settings(max_examples=300, deadline=None)
@given(walks())
def test_the_memoized_walk_matches_the_walk_it_replaced(case):
    """One Crossings answers every walk of the list, in order, as the
    walk without the memo does, whatever was asked before."""
    att, queries = case
    crossings = Crossings(att)
    for label, below, tip in queries:
        pieces, end, name = reference_walk(crossings, label, below, tip)
        assert crossings.walk(label, below, tip) == \
            (tuple(pieces), end, name), (label, below, tip)


@settings(max_examples=300, deadline=None)
@given(walks())
def test_a_segment_from_the_memo_is_the_segment_of_its_walk(case):
    """One Crossings serves every segment of the list, in order, as
    _segment builds it from the walk without the memo, whatever was
    asked before."""
    att, queries = case
    crossings = Crossings(att)
    for label, below, tip in queries:
        pieces, end, name = reference_walk(crossings, label, below, tip)
        assert local_run(crossings, label, below, tip) == \
            _segment(att.syn, (tuple(pieces), end, name)), (label, below, tip)


def plans_match_the_walk(att, trees):
    """summary and read agree with reference_cross on every
    subtree of the trees, in the order given, with one Crossings kept
    across them.  Returns the ends every root summary ended in."""
    crossings = Crossings(att)
    new, ref = {}, {}
    kinds = set()

    def visit(t):
        if t in new:
            return
        for c in t.children:
            visit(c)
        below = tuple(new[c] for c in t.children)
        ref_below = tuple(ref[c] for c in t.children)
        ends, chunks = new[t] = crossings.summary(t.label, below)
        ref[t] = {a: reference_cross(att, t.label, ref_below, (a, 0))
                  for a in att.syn}
        assert ends == tuple((ref[t][a][1], ref[t][a][2], bool(ref[t][a][0]))
                             for a in att.syn), t.render()
        assert chunks == tuple(ref[t][a][0] for a in att.syn), t.render()
        want = reference_cross(att, ROOT, (ref[t],), (att.init, 1))
        assert crossings.read(t.label, below) == want, t.render()
        kinds.add(want[1])

    for s in trees:
        visit(s)
    return kinds


@settings(max_examples=150, deadline=None)
@given(atts())
def test_plans_match_the_walk_on_random_atts(a):
    assert a.walks_on_table
    plans_match_the_walk(a, trees_up_to_height(IN, 4))


@settings(max_examples=150, deadline=None)
@given(word_machines())
def test_plans_match_the_walk_on_random_word_machines(tw):
    plans_match_the_walk(tw.att, trees_up_to_height(LETTERS, 5))


def test_one_end_comes_with_an_empty_and_a_full_chunk():
    """The walk from a ends up in b over e with no output and over h(e)
    with some, so the root marker's walk, which enters a again from b,
    is silent over e and productive over h(e): the same end and name,
    told apart only by whether the chunk is empty."""
    a = AttSpec(name="FLAG", input=RankedAlphabet({"g": 1, "h": 1, "e": 0}),
                output=OUT, syn=("a",), inh=("b",), init="a", rules={
                    "e": (AttRule("a", 0, Tree(occ_pattern("b", 0))),),
                    "g": (AttRule("a", 0, Tree(occ_pattern("a", 1))),
                          AttRule("b", 1, Tree(occ_pattern("b", 0)))),
                    "h": (AttRule("a", 0, Tree("h", [Tree(occ_pattern("a", 1))])),
                          AttRule("b", 1, Tree(occ_pattern("b", 0)))),
                    ROOT: (AttRule("b", 1, Tree(occ_pattern("a", 1))),)})
    assert a.walks_on_table
    kinds = plans_match_the_walk(a, trees_up_to_height(a.input, 4))
    assert kinds == {"silent", "productive"}
    crossings = Crossings(a)
    e = crossings.summary("e", ())
    he = crossings.summary("h", (e,))
    assert (e[0], he[0]) == ((("up", "b", False),), (("up", "b", True),))
    assert crossings.read("e", ()) == ((), "silent", None)
    assert crossings.read("h", (e,)) == (("h", "h"), "productive", None)
