import gc
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ttdef import analysis
from ttdef.analysis import (HALT_DEAD, HALT_OK, Shapes, TopDown,
                            _allok_configs, _family, _Growth, _isd_of_tau,
                            _key_of_runs, _require_walkable, _root_configs,
                            _segment, _theta_step, _tip_edges,
                            _variation_core, all_isds, is_circular, kappa,
                            single_path)
from ttdef.constructions import normalize_domain_into_range, normalize_ground_rhs
from ttdef.errors import NotApplicable, UnknownAttribute
from ttdef.model import PairedSpec, occ_node, occ_node_info, occ_pattern_info
from ttdef.pipeline import decide_dtR
from ttdef.semantics import Crossings, NoOutput, Output, evaluate, nf
from ttdef.trees import RankedAlphabet, Tree, parse_tree, trees_up_to_height

import fixtures
from fixtures import parse_spec
from string_forms import rules_for
from test_walk_table import NONMONADIC_TEXT, atts, derivation_forms, trees

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"
FE = RankedAlphabet({"f": 2, "e": 0})
FED = RankedAlphabet({"f": 2, "e": 0, "d": 0})

# Least numbers of the 300 non-circular random atts each random-att test
# below checks that have a visiting pair set with unbounded variation, and
# that the single-path check answers No.  Eight unseeded runs found 51 to
# 111 of the first (68 to 128 with an unbounded target once every
# is-dependency joins the family) and 30 to 81 of the second.
PUMPED = 20
SINGLE_PATH_NO = 10

PSI_A1 = frozenset({("b", "a")})
PSI_E = frozenset({("b_e", "a")})
PSI_D = frozenset({("b_d", "a")})


def T(text):
    return parse_tree(text)


# ---------------------------------------------------------------------------
# variation and visiting pair sets each on their own, the reference for
# the one pass that analysis.variations, kappa and single_path share

def variation(a, psi):
    """Boundedness of the output chunks attributable to one visiting pair
    set, with the exact height cap when bounded and a pump witness when
    not."""
    _require_walkable(a)
    for b, a_ in psi:
        if not a.is_inh(b):
            raise UnknownAttribute("not an inherited attribute: %r" % (b,))
        if not a.is_syn(a_):
            raise UnknownAttribute("not a synthesized attribute: %r" % (a_,))
    shapes = Shapes(a)
    psi = frozenset(psi)
    return _variation_core(_Growth(a, shapes, {psi}), psi)


def visiting_pair_sets(a):
    """The family of visiting pair sets realized at some node of some input
    in the domain."""
    _require_walkable(a)
    shapes = Shapes(a)
    return _family(TopDown(a, shapes, _root_configs(a, shapes)))


# ---------------------------------------------------------------------------
# brute-force oracles, driven purely by the derivation semantics

def compute_isd(a, s):
    """All pairs (b, a') such that, from a'(eps) on the bare tree s, some
    derivation reaches a form containing b(eps): the theta maps that
    all_isds closes over, composed along s."""
    edges = _tip_edges(a)

    def theta_of(t):
        children = [theta_of(c) for c in t.children]
        return _theta_step(a, edges.get(t.label, {}), children)

    theta = theta_of(s)
    return frozenset((b, syn) for syn, bs in theta.items() for b in bs)


def brute_isd(att, s):
    """Pairs (b, a): from a(eps) on bare s some derivation branch reaches a
    form containing b(eps)."""
    pairs = set()
    for a in att.syn:
        stack = [(a, ())]
        seen = set()
        while stack:
            attr, v = stack.pop()
            if (attr, v) in seen:
                continue
            seen.add((attr, v))
            if att.is_inh(attr) and v == ():
                pairs.add((attr, a))
                continue
            if att.is_syn(attr):
                sym, pos = s.subtree_at(v).label, 0
            else:
                sym, pos = s.subtree_at(v[:-1]).label, v[-1]
            base = v if att.is_syn(attr) else v[:-1]
            for rule in rules_for(att, sym, attr, pos):
                for _, sub in rule.rhs.addresses():
                    tip = occ_pattern_info(sub.label)
                    if tip is None:
                        continue
                    attr2, p = tip
                    stack.append((attr2, base if p == 0 else base + (p,)))
    return frozenset(pairs)


def observed_psi(att, s):
    """Visiting pair set per node of s, read off every form of a full
    run."""
    assert isinstance(evaluate(att, s), Output)
    processed = {}
    for form in derivation_forms(att, s):
        for _, sub in form.addresses():
            info = occ_node_info(sub.label)
            if info is not None:
                attr, addr = info
                if att.is_syn(attr) and addr and addr[0] == 1:
                    processed.setdefault(addr[1:], set()).add(attr)
    result = {}
    for v, _ in s.addresses():
        isd = compute_isd(att, s.subtree_at(v))
        attrs = processed.get(v, set())
        result[v] = frozenset((b, a) for b, a in isd if a in attrs)
    return result


# ---------------------------------------------------------------------------
# is-dependencies

def test_isd_examples():
    a1 = fixtures.a1()
    assert compute_isd(a1, T("e")) == PSI_A1
    assert compute_isd(a1, T("f(e,e)")) == PSI_A1


def test_isd_no_rules():
    a = parse_spec("att Empty\ninput e:0\noutput x:0\nsyn a\ninit a\n")
    assert compute_isd(a, T("e")) == frozenset()
    assert all_isds(a) == {frozenset()}


def test_isd_matches_brute_force():
    for make in (fixtures.a1, fixtures.n1):
        att = make()
        for s in trees_up_to_height(FE, 3):
            assert compute_isd(att, s) == brute_isd(att, s)
    a2 = fixtures.a2()
    for s in trees_up_to_height(FED, 3):
        assert compute_isd(a2, s) == brute_isd(a2, s)


def test_all_isds_closure():
    a1 = fixtures.a1()
    assert all_isds(a1) == {PSI_A1}
    a2 = fixtures.a2()
    family = all_isds(a2)
    assert family == {compute_isd(a2, s) for s in trees_up_to_height(FED, 4)}
    assert any(isd >= PSI_E for isd in family)
    assert any(isd >= PSI_D for isd in family)


# ---------------------------------------------------------------------------
# circularity

def test_noncircular_examples():
    for make in (fixtures.a1, fixtures.a2, fixtures.rev):
        circ, witness = is_circular(make())
        assert not circ and witness is None


def test_circular_at_root_rules():
    circ, witness = is_circular(fixtures.c0())
    assert circ
    assert witness.symbol == "#"
    assert set(witness.cycle) == {("a", 1), ("b", 1)}
    circ, witness = is_circular(fixtures.p0())
    assert circ and witness.symbol == "#"


def test_circular_inside_tree():
    d0 = parse_spec("""\
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
""")
    circ, witness = is_circular(d0)
    assert circ and witness.symbol == "f"


# ---------------------------------------------------------------------------
# visiting pair sets

def test_visiting_family_a1():
    assert visiting_pair_sets(fixtures.a1()) == {PSI_A1}


def test_visiting_family_a2():
    family = visiting_pair_sets(fixtures.a2())
    assert PSI_E in family
    assert PSI_D in family
    assert frozenset() in family
    assert any(("lit<e>", "a_e") in psi for psi in family)


def test_visiting_family_matches_simulation():
    a1 = fixtures.a1()
    family = visiting_pair_sets(a1)
    for s in trees_up_to_height(FE, 3):
        for v, psi in observed_psi(a1, s).items():
            assert psi in family
    a2 = fixtures.a2()
    family = visiting_pair_sets(a2)
    for s in trees_up_to_height(FED, 3):
        for v, psi in observed_psi(a2, s).items():
            assert psi in family


def test_analyses_reject_unsuitable_input():
    with pytest.raises(NotApplicable, match="nonmonadic"):
        single_path(parse_spec(NONMONADIC_TEXT))
    with pytest.raises(NotApplicable, match="nondeterministic"):
        visiting_pair_sets(fixtures.n1())
    with pytest.raises(NotApplicable, match="circular"):
        visiting_pair_sets(fixtures.c0())
    with pytest.raises(NotApplicable, match="circular"):
        kappa(fixtures.p0())
    with pytest.raises(UnknownAttribute):
        variation(fixtures.a1(), {("nope", "a")})


# ---------------------------------------------------------------------------
# variation

def test_variation_a1_unbounded_with_replayable_pump():
    a1 = fixtures.a1()
    verdict = variation(a1, PSI_A1)
    assert not verdict.bounded
    w = verdict.witness
    sizes = []
    for n in range(3):
        t = w.tree(n)
        assert compute_isd(a1, t) >= PSI_A1
        form = nf(a1, t, Tree(occ_node(w.attr, ())))
        assert isinstance(form, Tree)
        sizes.append(form.size)
    assert sizes[0] < sizes[1] < sizes[2]
    assert tuple(sizes) == w.lengths


def test_variation_a2_bounded():
    a2 = fixtures.a2()
    for psi in (PSI_E, PSI_D):
        verdict = variation(a2, psi)
        assert verdict.bounded and verdict.kappa_psi == 1


def test_variation_a2_bounded_cross_check():
    a2 = fixtures.a2()
    for psi in (PSI_E, PSI_D):
        cap = variation(a2, psi).kappa_psi
        entries = {a for _, a in psi}
        for s in trees_up_to_height(FED, 4):
            if compute_isd(a2, s) >= psi:
                for a in entries:
                    form = nf(a2, s, Tree(occ_node(a, ())))
                    assert isinstance(form, Tree)
                    assert form.height <= cap


def test_variation_a2_spine_set_unbounded():
    a2 = fixtures.a2()
    psi = frozenset({("b_e", "a"), ("lit<e>", "a_e")})
    verdict = variation(a2, psi)
    assert not verdict.bounded
    w = verdict.witness
    sizes = [nf(a2, w.tree(n), Tree(occ_node(w.attr, ()))).size
             for n in range(3)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_variation_empty_set():
    verdict = variation(fixtures.a2(), frozenset())
    assert verdict.bounded and verdict.kappa_psi == 0


# ---------------------------------------------------------------------------
# kappa

def test_kappa_values():
    assert kappa(fixtures.a2()) == 1
    assert kappa(fixtures.a1()) == 0


def test_kappa_immediate_ground():
    a = parse_spec("""\
att G0
input f:2 e:0
output x:0
syn a
init a
rule f: a(pi) -> x
rule e: a(pi) -> x
""")
    assert kappa(a) == 0
    assert visiting_pair_sets(a) == {frozenset()}


# ---------------------------------------------------------------------------
# single path property

def test_single_path_a1_fails_with_witness():
    a1 = fixtures.a1()
    verdict = single_path(a1)
    assert not verdict.yes
    s, v1, v2 = verdict.witness
    assert evaluate(a1, s) != NoOutput()
    assert not _prefix(v1, v2) and not _prefix(v2, v1)
    observed = observed_psi(a1, s)
    for v in (v1, v2):
        assert not variation(a1, observed[v]).bounded


def test_single_path_a2_holds():
    assert single_path(fixtures.a2()).yes


def test_single_path_trivial_when_all_bounded():
    a = parse_spec("""\
att G0
input f:2 e:0
output x:0
syn a
init a
rule f: a(pi) -> x
rule e: a(pi) -> x
""")
    assert single_path(a).yes


def _prefix(u, v):
    return len(u) <= len(v) and v[:len(u)] == u


# ---------------------------------------------------------------------------
# single_path and kappa from one cached pass, against the separate routes

def lookaround_att():
    """The att the pipeline analyses for A2 behind the leftmost-e
    look-around."""
    fused = normalize_domain_into_range(fixtures.leftmost_e_lookaround(),
                                        fixtures.a2())
    return normalize_ground_rhs(fused.second)


def check_one_pass(a):
    """kappa is the largest cap of a bounded visiting pair set, as variation
    finds it over its own shapes; single_path agrees with a fresh pass;
    both are computed once per spec.  Returns the variation verdicts."""
    caps = [variation(a, psi) for psi in visiting_pair_sets(a)]
    assert kappa(a) == max((v.kappa_psi for v in caps if v.bounded),
                           default=0)
    assert single_path(a) == analysis._single_path_and_kappa(a)[0]
    assert single_path(a) is single_path(a)
    assert is_circular(a) is is_circular(a)
    return caps


@pytest.mark.parametrize("make", [fixtures.a1, fixtures.a2, fixtures.rev,
                                  lookaround_att])
def test_one_pass_matches_separate_routes(make):
    check_one_pass(make())


def test_one_pass_matches_separate_routes_on_random_atts():
    """On random atts too, and on enough of them that some visiting pair
    set has unbounded variation, with a pump witness, and the single-path
    check answers No; atts' draw that forces an emitting loop through g
    gives most of them."""
    counts = Counter()

    @settings(max_examples=300, deadline=None)
    @given(atts())
    def check(a):
        assume(not is_circular(a)[0])
        caps = check_one_pass(a)
        counts["pump"] += any(not v.bounded for v in caps)
        counts["no"] += not single_path(a).yes

    check()
    assert counts["pump"] >= PUMPED and counts["no"] >= SINGLE_PATH_NO, counts


# ---------------------------------------------------------------------------
# the growth system rooted at the targets, against one rooted everywhere

class AllRootsGrowth(_Growth):
    """The growth system rooted at every bare-walk configuration, each a
    target that _variation_core filters by psi, as _Growth built it
    before it was rooted at the targets of a family."""

    def __init__(self, att, shapes):
        self.att = att
        self.shapes = shapes
        self.targets = _allok_configs(att, shapes)
        self.sys = TopDown(att, shapes, self.targets)
        self._positives()
        self._edges()
        self._unbounded()
        self._values()


def check_growth_on_targets(a, same_witnesses, every_isd=False):
    """Rooting the growth system at the targets of the family explores a
    part of the all-roots system, and every configuration it explores
    gets the same positivity, unboundedness and value there; so every
    visiting pair set gets the same verdict and cap, and on the fixtures
    the same pump witness.  every_isd adds to the family every
    is-dependency of a shape and each of its pairs, so that small atts,
    whose family is often only the empty set, have targets too."""
    shapes = Shapes(a)
    family = _family(TopDown(a, shapes, _root_configs(a, shapes)))
    if every_isd:
        isds = {_isd_of_tau(key) for key in shapes.keys}
        family |= isds | {frozenset([p]) for isd in isds for p in isd}
    got = _Growth(a, shapes, family)
    ref = AllRootsGrowth(a, shapes)
    assert got.targets == [cfg for cfg in ref.targets if cfg in got.targets]
    assert set(got.sys.configs) <= set(ref.sys.configs)
    for cfg in got.sys.configs:
        assert (cfg in got.pos) == (cfg in ref.pos)
        assert (cfg in got.unb) == (cfg in ref.unb)
        assert got.value.get(cfg) == ref.value.get(cfg)
    for psi in family:
        v, r = _variation_core(got, psi), _variation_core(ref, psi)
        assert (v.bounded, v.kappa_psi) == (r.bounded, r.kappa_psi)
        if same_witnesses:
            assert v.witness == r.witness
    return got, ref


@pytest.mark.parametrize("make", [fixtures.a1, fixtures.a2, fixtures.rev,
                                  lookaround_att])
def test_growth_on_targets_matches_all_roots(make):
    got, ref = check_growth_on_targets(make(), True)
    assert got.targets
    if make is lookaround_att:
        assert (len(got.sys.configs), len(ref.sys.configs)) == (99, 265)


def test_growth_on_targets_matches_all_roots_on_random_atts():
    """On random atts too, enough of which have an unbounded target."""
    counts = Counter()

    @settings(max_examples=300, deadline=None)
    @given(atts())
    def check(a):
        assume(not is_circular(a)[0])
        got, _ = check_growth_on_targets(a, False, every_isd=True)
        counts["unbounded"] += any(cfg in got.unb for cfg in got.targets)

    check()
    assert counts["unbounded"] >= PUMPED, counts


# ---------------------------------------------------------------------------
# configuration validity: stitch over one production's segments, against
# the visit chain over the shape's tail map that it replaced

def _chain(tau, entry, chi_map):
    """Visit chain at a node: entering attributes in order and the visiting
    pairs they realize, or None if the run would die here."""
    attrs = []
    pairs = []
    a = entry
    seen = set()
    while True:
        if a in seen:
            return None
        seen.add(a)
        attrs.append(a)
        out = tau.get(a)
        if out is None:
            return None
        if out[0] == "ground":
            return tuple(attrs), frozenset(pairs)
        b = out[1]
        pairs.append((b, a))
        ans = chi_map.get(b, HALT_DEAD)
        if ans == HALT_DEAD:
            return None
        if ans == HALT_OK:
            return tuple(attrs), frozenset(pairs)
        a = ans


class MetTopDown(TopDown):
    """TopDown recording every configuration it checks: its roots and
    every child configuration of an expansion."""

    def __init__(self, *args):
        self.met = {}
        super().__init__(*args)

    def _valid(self, cfg):
        self.met[cfg] = None
        return super()._valid(cfg)


def valid_as_chain(a):
    """Every configuration the root system and the bare-walk system of a
    meet is valid exactly when _chain completes over its shape's tail
    map (its key, as a dict), and then has _chain's visiting pairs.
    Returns the counts of valid and invalid configurations, and of
    valid ones with some visiting pair."""
    shapes = Shapes(a)
    counts = Counter()
    for roots in (_root_configs(a, shapes), _allok_configs(a, shapes)):
        sys = MetTopDown(a, shapes, roots)
        for cfg in sys.met:
            want = _chain(dict(shapes.keys[cfg.key]), cfg.entry,
                          shapes.chis[cfg.chi])
            assert (cfg in sys.psi) == (want is not None), cfg
            if want is not None:
                assert sys.psi[cfg] == want[1], cfg
            counts["valid" if want else "invalid"] += 1
            counts["pairs"] += bool(want and want[1])
    return counts


def bench_att(name):
    """The att the pipeline analyses for a spec of the benchmark."""
    spec = parse_spec((SPECS / ("%s.att" % name)).read_text())
    if isinstance(spec, PairedSpec):
        spec = normalize_domain_into_range(spec.first, spec.second).second
    return normalize_ground_rhs(spec)


@pytest.mark.parametrize("name", ["a2", "lme", "rev", "copy", "half", "idw",
                                  "a1"])
def test_valid_configurations_match_the_chain_on_the_bench_specs(name):
    counts = valid_as_chain(bench_att(name))
    assert counts["valid"] and counts["pairs"], counts
    if name == "lme":
        assert counts["invalid"], counts


def test_valid_configurations_match_the_chain_on_random_atts():
    counts = Counter()

    @settings(max_examples=200, deadline=None)
    @given(atts())
    def check(a):
        assume(not is_circular(a)[0])
        counts.update(valid_as_chain(a))
        counts["atts"] += 1

    check()
    assert counts["atts"] >= 200 and counts["invalid"] and counts["pairs"], \
        counts


# ---------------------------------------------------------------------------
# what Shapes keep: each production under its symbol and child shapes,
# each shape's is-dependency, and the shapes numbered, in key order too

def walked_key(shapes, s):
    """The shape key of s from segments walked afresh at every node, on
    a new Crossings, with no memo."""
    crossings = Crossings(shapes.att)
    below = [shapes.ends[shapes.keys.index(walked_key(shapes, c))]
             for c in s.children]
    return _key_of_runs({a: _segment(shapes.att.syn, crossings._walk(
        s.label, below, (a, 0))[1]) for a in shapes.att.syn})


def keys_and_isds_match_the_walks(a, ts):
    shapes = Shapes(a)
    assert len(set(shapes.keys)) == len(shapes.keys) == len(shapes.ends)
    assert [shapes.keys[n] for n in shapes.order] == sorted(shapes.keys)
    assert shapes.isd == {n: _isd_of_tau(key)
                          for n, key in enumerate(shapes.keys)}
    for t in ts:
        assert shapes.keys[shapes.key_of(t)] == walked_key(shapes, t), \
            t.render()


@settings(max_examples=200, deadline=None)
@given(atts(), st.lists(trees(5), min_size=1, max_size=4))
def test_shapes_keys_and_isds_match_the_walks_on_random_atts(a, ts):
    keys_and_isds_match_the_walks(a, ts)


@pytest.mark.parametrize("make", [fixtures.a1, fixtures.a2, fixtures.rev])
def test_shapes_keys_and_isds_match_the_walks_on_fixtures(make):
    a = make()
    keys_and_isds_match_the_walks(a, trees_up_to_height(a.input, 3))


@pytest.mark.parametrize("make, yes", [(fixtures.a1, False),
                                       (fixtures.a2, True),
                                       (lookaround_att, True)])
def test_the_pass_frees_its_shapes_on_return(make, yes, monkeypatch):
    """The shapes of a pass, with their memos and productions, are freed
    by reference counting as soon as the pass returns, also after a
    single-path No, whose witness is built by a recursive walk down the
    flag pointers: nothing they hold refers back to itself.  The pass
    reads circularity off the same shapes, so it builds one."""
    a = make()
    made = []

    class Watched(analysis.Shapes):
        def __init__(self, att):
            super().__init__(att)
            made.append(weakref.ref(self))

    monkeypatch.setattr(analysis, "Shapes", Watched)
    gc.collect()
    gc.disable()
    try:
        verdict = single_path(a)
        assert [ref() for ref in made] == [None]
    finally:
        gc.enable()
    assert verdict.yes == yes


@pytest.mark.parametrize("make", [fixtures.a2, fixtures.rev])
def test_a_bare_decision_builds_one_shapes(make, tmp_path, monkeypatch):
    """A bare decision reads circularity off one Shapes in its
    is_circular stage, and single_path runs the walk analysis on the
    same Shapes, which the att keeps until then: a work guard (two
    Shapes when the walk analysis built its own).  The Shapes are freed
    once the walk analysis has them."""
    a = make()
    made = []

    class Watched(analysis.Shapes):
        def __init__(self, att):
            super().__init__(att)
            made.append(weakref.ref(self))

    monkeypatch.setattr(analysis, "Shapes", Watched)
    decide_dtR(a, {"equivalence_depth": 3, "verify_word_length": 4},
               outdir=tmp_path)
    assert len(made) == 1
    assert "_walk_shapes" not in vars(a)
    gc.collect()
    assert made[0]() is None


def test_one_decision_analyses_each_att_once(tmp_path, monkeypatch):
    """The look-around decision builds the growth system once and checks
    circularity once for each att it analyses: the plain A2 and the A2
    with the domain check folded in."""
    growths = []
    circular = []

    class Counted(analysis._Growth):
        def __init__(self, *args):
            growths.append(args[0].name)
            super().__init__(*args)

    def counted(a, real=analysis._circularity):
        circular.append(a)
        return real(a)

    monkeypatch.setattr(analysis, "_Growth", Counted)
    monkeypatch.setattr(analysis, "_circularity", counted)
    pair = PairedSpec("attU", "LME", fixtures.leftmost_e_lookaround(),
                      fixtures.a2())
    decide_dtR(pair, {"equivalence_depth": 4, "verify_word_length": 2},
               outdir=tmp_path)
    assert growths == ["A2_checked"]
    assert [a.name for a in circular] == ["A2", "A2_checked"]
    assert circular[0] is not circular[1]
