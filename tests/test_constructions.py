import hashlib
import itertools

import pytest

from ttdef.constructions import (associate, compose_dtR,
                                 normalize_domain_into_range,
                                 normalize_ground_rhs, uniformize)
from ttdef.errors import AlphabetMismatch, NotApplicable, SpecSyntaxError
from ttdef.model import (ROOT, AttRule, PairedSpec, TdttRule, TdttSpec,
                         call_label, is_occurrence, occ_node_info, occ_pattern,
                         render_spec)
from ttdef.semantics import (NoOutput, Output, Reject, enumerate_outputs,
                             evaluate, run_relabeling)
from ttdef.trees import RankedAlphabet, Tree, parse_tree, trees_up_to_height

import fixtures
from fixtures import parse_spec
from test_walk_table import derivation_forms

FE = RankedAlphabet({"f": 2, "e": 0})
FED = RankedAlphabet({"f": 2, "e": 0, "d": 0})


def same_outcome(x, y):
    if isinstance(x, Output) != isinstance(y, Output):
        return False
    return not isinstance(x, Output) or x.tree == y.tree


def assert_equivalent(m1, m2, alpha, depth):
    """Outcome-for-outcome agreement on every input up to the height cap."""
    for s in trees_up_to_height(alpha, depth):
        x, y = evaluate(m1, s), evaluate(m2, s)
        assert same_outcome(x, y), (s.render(), x, y)


@pytest.fixture(scope="module")
def assoc2():
    return associate(fixtures.a2())


@pytest.fixture(scope="module")
def ranged_id():
    return normalize_domain_into_range(fixtures.identity_lookaround(FED),
                                       fixtures.a2())


# ---------------------------------------------------------------------------
# ground right-hand sides

GROUND_TEXT = """\
att G2
input g:1 e:0 d:0
output e:0 d:0
syn a
init a
rule g: a(pi) -> a(pi 1)
rule e: a(pi) -> e
rule d: a(pi) -> d
"""

COLLIDING_TEXT = """\
att G3
input e:0
output e:0 lit<e>:0
syn a
init a
rule e: a(pi) -> e
"""


def test_ground_rhs_leaves_clean_machines_alone():
    # ground right-hand sides at the root marker are already in place
    a1, a2 = fixtures.a1(), fixtures.a2()
    assert normalize_ground_rhs(a1) is a1
    assert normalize_ground_rhs(a2) is a2


def test_ground_rhs_rewrite_shape():
    g2 = parse_spec(GROUND_TEXT)
    n = normalize_ground_rhs(g2)
    assert n.name == "G2_rooted"
    assert n.inh == ("lit<e>", "lit<d>")
    assert n.rules_at("e") == (AttRule("a", 0, Tree(occ_pattern("lit<e>", 0))),)
    assert n.rules_at("d") == (AttRule("a", 0, Tree(occ_pattern("lit<d>", 0))),)
    assert AttRule("lit<e>", 1, Tree("e")) in n.rules_at(ROOT)
    assert AttRule("lit<d>", 1, Tree("d")) in n.rules_at(ROOT)
    for name in ("lit<e>", "lit<d>"):
        assert AttRule(name, 1, Tree(occ_pattern(name, 0))) in n.rules_at("g")
    assert_equivalent(g2, n, g2.input, 4)
    assert normalize_ground_rhs(n) is n


def test_ground_rhs_fresh_name_avoids_output_symbol():
    g3 = parse_spec(COLLIDING_TEXT)
    n = normalize_ground_rhs(g3)
    assert "lit<e>2" in n.inh
    got = evaluate(n, Tree("e"))
    assert isinstance(got, Output) and got.tree == Tree("e")


# ---------------------------------------------------------------------------
# precomputing relabeling + reduced att

def test_associate_a2_states(assoc2):
    assert assoc2.kappa == 1
    view = {name: ({(attr, form.render()) for attr, form in st.pairs},
                   assoc2.representatives[name].render())
            for name, st in assoc2.states.items()}
    assert view == {
        "r0": ({("a", "b_e(eps)"), ("a_e", "lit<e>(eps)")}, "e"),
        "r1": ({("a", "b_d(eps)"), ("a_d", "lit<d>(eps)")}, "d"),
        "r2": ({("a", "b_e(eps)")}, "f(d,e)"),
        "r3": ({("a", "b_d(eps)")}, "f(d,d)"),
    }


def test_associate_a2_relabeling(assoc2):
    b = assoc2.relabeling
    assert len(b.rules) == 18
    assert set(b.final) == {"r0", "r1", "r2", "r3"}
    assert b.rule_for("e", ()).state == "r0"
    assert b.rule_for("d", ()).state == "r1"
    for c1, c2 in itertools.product(("r0", "r1", "r2", "r3"), repeat=2):
        r = b.rule_for("f", (c1, c2))
        # the rightmost leaf of the whole tree is the rightmost leaf of
        # the right subtree, so only c2 decides the state
        assert r.state == ("r2" if c2 in ("r0", "r2") else "r3")
        assert r.out_symbol == "f_<%s,%s>" % (c1, c2)
    assert b.output == assoc2.att.input
    assert len(list(assoc2.att.input.items())) == 18


def test_associate_a2_reduced_rules(assoc2):
    red = assoc2.att
    assert red.rules_at(ROOT) == fixtures.a2().rules_at(ROOT)
    got = {(r.attr, r.pos, r.rhs.render()) for r in red.rules_at("f_<r0,r1>")}
    # child 1 is the leaf e, child 2 the leaf d; every walk into a child
    # has been replaced by its precomputed remainder
    assert got == {
        ("a", 0, "b_d(pi)"),
        ("a_e", 0, "g(lit<e>(pi))"),
        ("a_d", 0, "f(lit<e>(pi))"),
        ("b_e", 1, "lit<e>(pi)"),
        ("b_e", 2, "b_e(pi)"),
        ("b_d", 1, "a_d(pi 1)"),
        ("b_d", 2, "b_d(pi)"),
        ("lit<e>", 1, "lit<e>(pi)"),
        ("lit<d>", 1, "lit<d>(pi)"),
    }


def test_associate_a2_equivalence(assoc2):
    a2 = fixtures.a2()
    pair = assoc2.pair
    count = 0
    for s in trees_up_to_height(FED, 4):
        count += 1
        x, y = evaluate(a2, s), evaluate(pair, s)
        assert isinstance(x, Output) and same_outcome(x, y), s.render()
    assert count == 1446


def test_associate_a1_degenerate():
    h = associate(fixtures.a1())
    assert h.kappa == 0
    (name, st), = h.states.items()
    assert st.pairs == frozenset()
    assert h.representatives[name] == Tree("e")
    assert_equivalent(fixtures.a1(), h.pair, FE, 3)


# ---------------------------------------------------------------------------
# string-likeness of a precomputing pair

def _off_path(nodes):
    seq = sorted(nodes, key=lambda v: (len(v), v))
    for i, u in enumerate(seq):
        for v in seq[i + 1:]:
            if v[:len(u)] != u:
                return u, v
    return None


def string_like_check(h, depth):
    """Whether the reduced att only processes nodes of one root-to-leaf
    path, simulated on every input of height at most depth.

    Returns (ok, violations); a violation is (input tree, address,
    address) with two processed addresses that are prefix-incomparable.
    """
    violations = []
    for s in trees_up_to_height(h.relabeling.input, depth):
        got = run_relabeling(h.relabeling, s)
        if isinstance(got, Reject) or got[0] not in h.relabeling.final:
            continue
        nodes = set()
        for form in derivation_forms(h.att, got[1]):
            for _, node in form.addresses():
                if node.children or not is_occurrence(node.label):
                    continue
                info = occ_node_info(node.label)
                if info is not None and info[1][:1] == (1,):
                    nodes.add(info[1][1:])
        bad = _off_path(nodes)
        if bad is not None:
            violations.append((s, bad[0], bad[1]))
    return not violations, violations


def test_string_like_a2(assoc2):
    assert string_like_check(assoc2, 4) == (True, [])


def test_string_like_a1_counterexample():
    ok, violations = string_like_check(associate(fixtures.a1()), 3)
    assert not ok
    s, u, v = violations[0]
    # A1 walks into both children of the root f, so two sibling subtrees
    # each see a synthesized visit
    assert s == parse_tree("f(e,e)") and (u, v) == ((1,), (2,))


def test_string_like_trivial_depth(assoc2):
    assert string_like_check(assoc2, 0) == (True, [])


# ---------------------------------------------------------------------------
# pushing a look-around domain into an att

def test_range_normalization_identity_shape(ranged_id):
    a2 = fixtures.a2()
    assert ranged_id.kind == "attU" and ranged_id.first.kind == "lookaround"
    checked = ranged_id.second
    assert dict(checked.input.items()) == {"e_<p0>": 0, "d_<p0>": 0,
                                           "f_<p0,p0,p0>": 2}
    assert set(checked.syn) - set(a2.syn) == {"walk0", "walk",
                                              "chk<2,1>", "chk<2,2>"}
    assert set(checked.inh) - set(a2.inh) == {"back", "check"}
    assert checked.init == "walk0"


def test_range_normalization_identity_equivalence(ranged_id):
    assert_equivalent(fixtures.a2(), ranged_id, FED, 3)


def test_range_normalization_restricted_domain():
    a2 = fixtures.a2()
    u = fixtures.leftmost_e_lookaround()
    res = normalize_domain_into_range(u, a2)
    images = set()
    for s in trees_up_to_height(FED, 3):
        keep = evaluate(u, s)
        annotated = evaluate(res.first, s)
        got = evaluate(res, s)
        assert isinstance(keep, Output) == isinstance(annotated, Output)
        if isinstance(keep, Output):
            images.add(annotated.tree)
            assert same_outcome(evaluate(a2, s), got), s.render()
        else:
            assert isinstance(got, NoOutput), s.render()
    # the checking attributes make the att stage reject, on its own,
    # exactly the annotated trees the look-around can produce
    accepted = {t for t in trees_up_to_height(res.second.input, 3)
                if isinstance(evaluate(res.second, t), Output)}
    assert len(images) == 19 and images == accepted


def test_range_normalization_empty_domain():
    stuck = parse_spec("att STUCK\ninput e:0\noutput e:0\nsyn a\ninit a\n")
    res = normalize_domain_into_range(
        fixtures.identity_lookaround(stuck.input), stuck)
    assert isinstance(evaluate(res, Tree("e")), NoOutput)
    assert isinstance(evaluate(res.second, Tree("e_<p0>")), NoOutput)


def test_range_normalization_rejects_bad_inputs():
    a2 = fixtures.a2()
    with pytest.raises(SpecSyntaxError):
        normalize_domain_into_range(fixtures.identity_dtR(FED), a2)
    with pytest.raises(AlphabetMismatch):
        normalize_domain_into_range(fixtures.identity_lookaround(FE), a2)
    c0 = fixtures.c0()
    with pytest.raises(NotApplicable, match="circular"):
        normalize_domain_into_range(
            fixtures.identity_lookaround(c0.input), c0)


# ---------------------------------------------------------------------------
# composition of dt^R machines

def test_compose_mirror_is_involution():
    mirror = fixtures.mirror_dtR(FED)
    c = compose_dtR(mirror, mirror)
    for s in trees_up_to_height(FED, 3):
        got = evaluate(c, s)
        assert isinstance(got, Output) and got.tree == s, s.render()


def test_compose_identity_neutral():
    mirror = fixtures.mirror_dtR(FED)
    ident = fixtures.identity_dtR(FED)
    assert_equivalent(compose_dtR(ident, mirror), mirror, FED, 3)
    assert_equivalent(compose_dtR(mirror, ident), mirror, FED, 3)


def test_compose_relabelings_stay_relabelings():
    ident = fixtures.identity_dtR(FED)
    c = compose_dtR(ident, ident)
    assert c.kind == "dtR" and c.second.relabeling


def partial_pair():
    """The identity on trees without d, undefined on trees containing d."""
    top = TdttSpec(name="pt_td", input=FED, output=FED, init="q",
                   rules=(TdttRule("q", "f",
                                   Tree("f", [Tree(call_label("q", 1)),
                                              Tree(call_label("q", 2))])),
                          TdttRule("q", "e", Tree("e"))))
    return PairedSpec("dtR", "pt", fixtures.identity_relabeling(FED, "pt_la"),
                      top)


def test_compose_propagates_partiality():
    partial = partial_pair()
    mirror = fixtures.mirror_dtR(FED)
    c = compose_dtR(mirror, partial)
    for s in trees_up_to_height(FED, 3):
        step = evaluate(mirror, s)
        manual = evaluate(partial, step.tree)
        got = evaluate(c, s)
        assert same_outcome(manual, got), s.render()
        has_d = any(sub.label == "d" for _, sub in s.addresses())
        assert isinstance(got, Output) == (not has_d), s.render()


def test_compose_rejects_bad_inputs(assoc2):
    mirror = fixtures.mirror_dtR(FED)
    with pytest.raises(AlphabetMismatch):
        compose_dtR(mirror, fixtures.identity_dtR(fixtures.rev().input))
    with pytest.raises(SpecSyntaxError):
        compose_dtR(assoc2.pair, mirror)


# ---------------------------------------------------------------------------
# uniformization

def nondet_pair():
    """Copies either the left or the right child twice; no rule for d, so
    at an f over a d-containing subtree only one choice survives."""
    rules = (TdttRule("q", "f", Tree("f", [Tree(call_label("q", 1)),
                                           Tree(call_label("q", 1))])),
             TdttRule("q", "f", Tree("f", [Tree(call_label("q", 2)),
                                           Tree(call_label("q", 2))])),
             TdttRule("q", "e", Tree("e")))
    top = TdttSpec(name="nd_td", input=FED, output=FED, init="q", rules=rules)
    return PairedSpec("dtR", "nd",
                      fixtures.identity_relabeling(FED, "nd_la"), top)


def test_uniformize_keeps_deterministic_behaviour():
    mirror = fixtures.mirror_dtR(FED)
    u = uniformize(mirror)
    assert u.second.deterministic
    assert_equivalent(mirror, u, FED, 3)


def doubled_mirror():
    """The mirror with its last rule repeated verbatim."""
    mirror = fixtures.mirror_dtR(FED)
    return PairedSpec("dtR", "red", mirror.first,
                      TdttSpec(name="red_td", input=FED, output=FED, init="q",
                               rules=mirror.second.rules
                               + mirror.second.rules[-1:]))


def test_uniformize_collapses_duplicate_rules():
    mirror = fixtures.mirror_dtR(FED)
    doubled = doubled_mirror()
    # a rule repeated verbatim counts once
    assert doubled.second.deterministic
    u = uniformize(doubled)
    assert u.second.deterministic
    assert len(set(u.second.rules)) == len(u.second.rules)
    assert_equivalent(mirror, u, FED, 3)


def test_uniformize_picks_one_branch_per_lookahead_class():
    nd = nondet_pair()
    und = uniformize(nd)
    assert und.second.deterministic
    s = parse_tree("f(e,f(d,e))")
    outs, exhaustive = enumerate_outputs(nd, s)
    assert exhaustive
    assert {t.render() for t in outs} == {"f(e,e)", "f(f(e,e),f(e,e))"}
    got = evaluate(und, s)
    assert isinstance(got, Output) and got.tree in outs


def test_uniformize_selection_is_sound_and_domain_exact():
    nd = nondet_pair()
    und = uniformize(nd)
    for s in trees_up_to_height(FED, 3):
        outs, exhaustive = enumerate_outputs(nd, s)
        assert exhaustive
        got = evaluate(und, s)
        if outs:
            assert isinstance(got, Output) and got.tree in outs, s.render()
        else:
            assert isinstance(got, NoOutput), s.render()


def test_uniformize_rejects_other_pair_kinds(assoc2):
    with pytest.raises(SpecSyntaxError):
        uniformize(assoc2.pair)


# ---------------------------------------------------------------------------
# every constructed machine survives a text round-trip

def test_constructed_machines_round_trip(assoc2, ranged_id):
    mirror = fixtures.mirror_dtR(FED)
    machines = [
        normalize_ground_rhs(parse_spec(GROUND_TEXT)),
        assoc2.pair,
        ranged_id,
        compose_dtR(mirror, mirror),
        uniformize(nondet_pair()),
    ]
    for m in machines:
        assert parse_spec(render_spec(m)) == m, m.name


# ---------------------------------------------------------------------------
# the look-ahead refinements render byte for byte as they did when pinned

REFINED = {
    "compose mirror mirror": (
        lambda: compose_dtR(fixtures.mirror_dtR(FED),
                            fixtures.mirror_dtR(FED)),
        "8aa68d90b3b0e05f164c04cc8301be74fa7e9c87383e962ea13de90316f8eff0"),
    "compose ident mirror": (
        lambda: compose_dtR(fixtures.identity_dtR(FED),
                            fixtures.mirror_dtR(FED)),
        "a0770ef7c7b592b03cfd91d068528b99f33203b3b2c83ae4ae12e6a258d91460"),
    "compose mirror partial": (
        lambda: compose_dtR(fixtures.mirror_dtR(FED), partial_pair()),
        "c36a7e7f2cc4a8ca98302b215ec9097f8aa062e7838ad31bc87aa393d895bcef"),
    "uniformize nondet": (
        lambda: uniformize(nondet_pair()),
        "0e29494155930d4a8a55a00ee5da6fd29dadf7b796bb1c96acd53ec0f81d204d"),
    "uniformize doubled mirror": (
        lambda: uniformize(doubled_mirror()),
        "3d400ef4c8aa066c4d32f9d6b57923505cb82c488a333d2eb5ebd80e2489aa1f"),
    "ranged identity": (
        lambda: normalize_domain_into_range(fixtures.identity_lookaround(FED),
                                            fixtures.a2()),
        "084259cb05eb3e01c899c24f8f4dfa961e3a8e123aebc2949ef6c68c9acc78d7"),
}


@pytest.mark.parametrize("name", sorted(REFINED))
def test_refined_machines_keep_their_text(name):
    """State names, annotation names, rule order and final order of each
    construction on a look-ahead refinement, pinned as the sha256 of its
    rendered spec: a change to any of them changes the artifacts and the
    report hashes built on them."""
    build, digest = REFINED[name]
    text = render_spec(build())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
