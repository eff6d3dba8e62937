"""Machine-to-machine constructions.

Every function here rewrites one machine into another with the same
translation, checked in the tests by bounded enumeration: rooting ground
right-hand sides, splitting an att into a precomputing relabeling plus a
reduced att, rewriting a look-around pair so the att stage on its own
rejects trees the look-around could not have produced, composing two
top-down transducers with look-ahead, and extracting a deterministic
transducer from a functional nondeterministic one.

The last three are the classic refinements of a look-ahead (Engelfriet,
Top-down tree transducers with regular look-ahead, 1977): the fused
look-around, compose_dtR and uniformize each pair the look-ahead's state
with a table of what the next stage reads below, and relabel each node
with its table's key.  They share one bottom-up builder, _refine, and
keep only their table, their key and how they read it.
"""

from dataclasses import dataclass

from .analysis import _require_walkable, is_circular, kappa
from .errors import AlphabetMismatch, NotApplicable, SpecSyntaxError
from .model import (ROOT, AttRule, AttSpec, PairedSpec, RelabelingRule,
                    RelabelingSpec, TdttRule, TdttSpec, call_info, call_label,
                    fresh_name, is_occurrence, mangle_literal, mangle_parts,
                    occ_node, occ_pattern)
from . import semantics
from .semantics import Crossings, _chain_tree, _join
from .trees import (RankedAlphabet, Tree, breadth_first, explore_bottom_up,
                    settle_representatives)

# bench/spans.py traces calls through this name.
nf = semantics.nf


# ---------------------------------------------------------------------------
# rooting ground right-hand sides

def _is_ground(t):
    return all(not is_occurrence(node.label) for _, node in t.addresses())


def normalize_ground_rhs(a):
    """Confine ground right-hand sides to root-marker rules.

    Each distinct ground tree xi appearing as the right-hand side of a
    non-root rule becomes an inherited attribute: the root marker assigns
    it the value xi, every input symbol passes it down unchanged, and the
    offending rules emit the attribute instead of the tree. The result
    computes the same translation. Returns the input unchanged when there
    is nothing to rewrite, so applying the pass twice is a no-op.  Rules
    often share one right-hand side object, and each object is checked
    once, under its id, which stays valid while a.rules holds it.
    """
    ground = {}     # id of a right-hand side object -> whether it is ground

    def is_ground(rhs):
        if id(rhs) not in ground:
            ground[id(rhs)] = _is_ground(rhs)
        return ground[id(rhs)]

    grounds = {}    # the ground trees, in the order first met
    for sym, rules in a.rules.items():
        if sym == ROOT:
            continue
        for r in rules:
            if is_ground(r.rhs):
                grounds[r.rhs] = None
    if not grounds:
        return a
    taken = set(a.attributes) | set(a.output) | set(a.input)
    names = {xi: fresh_name(mangle_literal(xi), taken) for xi in grounds}
    rules = {}
    for sym, old in a.rules.items():
        bucket = []
        for r in old:
            if sym != ROOT and is_ground(r.rhs):
                bucket.append(AttRule(r.attr, r.pos,
                                      Tree(occ_pattern(names[r.rhs], 0))))
            else:
                bucket.append(r)
        rules[sym] = bucket
    root = rules.setdefault(ROOT, [])
    for xi in grounds:
        root.append(AttRule(names[xi], 1, xi))
    for sym, k in a.input.items():
        bucket = rules.setdefault(sym, [])
        for j in range(1, k + 1):
            for xi in grounds:
                bucket.append(AttRule(names[xi], j,
                                      Tree(occ_pattern(names[xi], 0))))
    out = {sym: tuple(dict.fromkeys(bucket)) for sym, bucket in rules.items()}
    return AttSpec(name=a.name + "_rooted", input=a.input, output=a.output,
                   syn=a.syn, inh=a.inh + tuple(names[xi] for xi in grounds),
                   init=a.init, rules=out)


# ---------------------------------------------------------------------------
# precomputing relabeling + reduced att

@dataclass(frozen=True)
class PrecomputeState:
    """One look-ahead state: the walks an att finishes early on a subtree.

    pairs holds (synthesized attribute, form) for every attribute whose
    walk of the subtree settles, within the height cap, into a form whose
    only unresolved leaves are inherited attributes at the subtree root.
    Attributes missing from pairs either get stuck inside the subtree or
    produce output above the cap and are left to the reduced att."""
    pairs: frozenset


@dataclass
class AssociatedAttR:
    """A precomputing relabeling feeding a reduced att; together they
    behave exactly like the att they were built from."""
    name: str
    relabeling: RelabelingSpec
    att: AttSpec
    states: dict            # state name -> PrecomputeState
    representatives: dict   # state name -> smallest input tree in the state
    kappa: int

    @property
    def pair(self):
        return PairedSpec("attR", self.name, self.relabeling, self.att)


def associate(a):
    """Split an att into a precomputing bottom-up relabeling plus an att
    over the annotated alphabet, jointly equivalent to the input.

    The relabeling's states are the reachable PrecomputeStates with the
    height cap kappa(a); each symbol of positive rank is annotated with
    its children's states, and the att's rules are reduced against those
    states so that precomputed output is emitted in place instead of
    being fetched by walking the child.

    A state's pairs come from the crossing summary (semantics.Crossings)
    of the first tree found in it, joined from its children's; then the
    representatives settle on the smallest trees (ties broken by rendered
    text).  The outcome depends on neither choice.  Summaries are exact;
    nf under the default StepBudget of 1 000 000 steps agrees with them
    except on a first tree of more than 1e6 / width nodes (width as in
    Crossings), where the budget drops a pair that is precomputed here.

    A rule is reduced by the node walk from its left-hand side
    (Crossings.walk), over its children's states as ends: a finished walk
    as its first tree's summary gives it, any other synthesized b of
    child i as ("enter", (b, i), False), where the reduced att takes over
    and walks the child.  The pieces, joined, are the right-hand side.  A
    walk stuck at a node with no applicable rule drops the rule: the
    translation is undefined whenever it fires.
    """
    _require_walkable(a)
    cap = kappa(a)
    crossings = Crossings(a)
    names = {}      # frozenset of finished walks -> state name
    reps = {}       # state name -> representative tree
    firsts = {}     # state name -> (first tree's summary, finished walks)
    out_rule = {}   # (symbol, child state names) -> (state name, out symbol)

    def step(sym, combo):
        ends, chunks = crossings.summary(sym, [firsts[c][0] for c in combo])
        table = {attr: (chunk, end, name) for attr, (end, name, _), chunk
                 in zip(a.syn, ends, chunks)
                 if end in ("leaf", "up") and len(chunk) < cap}
        key = frozenset(table.items())
        if key not in names:
            name = names[key] = "r%d" % len(names)
            reps[name] = Tree(sym, [reps[c] for c in combo])
            firsts[name] = (ends, chunks), table
        out = sym if not combo else mangle_parts(sym, combo)
        out_rule[(sym, combo)] = (names[key], out)
        return names[key]

    order = explore_bottom_up(a.input, step)
    settle_representatives([(sym, combo, res) for (sym, combo), (res, _)
                            in out_rule.items()], reps)

    alpha2 = [(sym, 0) for sym, k in a.input.items() if k == 0]
    rules2 = {sym: tuple(a.rules_at(sym)) for sym, _ in alpha2}
    rules2[ROOT] = tuple(a.rules_at(ROOT))
    brules = []
    built = {}
    for (sym, combo), (res, out) in out_rule.items():
        brules.append(RelabelingRule(sym, combo, res, out))
        if a.input.rank(sym) == 0:
            continue
        alpha2.append((out, a.input.rank(sym)))
        summaries = [firsts[c][0] for c in combo]
        below = [tuple(e if attr in firsts[c][1] else
                       ("enter", (attr, i), False)
                       for attr, e in zip(a.syn, firsts[c][0][0]))
                 for i, c in enumerate(combo, start=1)]
        bucket = []
        for r in a.rules_at(sym):
            pieces, end, x = crossings.walk(sym, below, (r.attr, r.pos))
            assert end not in ("silent", "productive"), \
                "reduction revisits an occurrence at %s" % sym
            if end == "stuck":
                continue
            key = _join(pieces, summaries), end, x
            if key not in built:
                built[key] = _chain_tree(key[0], x if end == "leaf" else
                                         occ_pattern(*x) if end == "enter"
                                         else occ_pattern(x, 0))
            bucket.append(AttRule(r.attr, r.pos, built[key]))
        rules2[out] = tuple(bucket)
    annotated = RankedAlphabet(alpha2)
    relab = RelabelingSpec(name=a.name + "_pre", input=a.input,
                           output=annotated, final=tuple(order),
                           rules=tuple(brules))
    reduced = AttSpec(name=a.name + "_main", input=annotated, output=a.output,
                      syn=a.syn, inh=a.inh, init=a.init, rules=rules2)
    return AssociatedAttR(name=a.name + "_assoc", relabeling=relab, att=reduced,
                          states={name: PrecomputeState(frozenset(
                              (attr, _chain_tree(chunk, occ_node(x, ())
                                                 if end == "up" else x))
                              for attr, (chunk, end, x) in table.items()))
                              for name, (_, table) in firsts.items()},
                          representatives=reps, kappa=cap)


# ---------------------------------------------------------------------------
# refining a look-ahead

def _first_rhs(td):
    """(state, symbol) -> the right-hand side of the first rule of the
    top-down stage td with that left-hand side."""
    return {(r.state, r.symbol): r.rhs for r in reversed(td.rules)}


def _refine(rel, name, track, annotate, prefixes, accept=lambda table: True):
    """A bottom-up relabeling that refines rel's look-ahead by a table,
    and the map from annotation key to annotated symbol, in the order
    found.

    Its states are the pairs (rel's state, track(mid, child tables)) at a
    node rel relabels to mid, named prefixes[0] and a number in the order
    explore_bottom_up finds them; such a state is final when rel's state
    is and accept(table) holds.  A node is relabeled to the symbol of its
    key annotate(sym, mid, child tables): the key's first item, mangled
    with prefixes[1] and a number in the order the keys are found.  The
    relabeling is named name + "_la"."""
    states = {}     # (rel state, table) -> name
    anns = {}       # annotation key -> annotated symbol
    ranked = []     # (annotated symbol, rank)
    rules = []

    def step(sym, combo):
        rr = rel.rule_for(sym, tuple(p for p, _ in combo))
        if rr is None:
            return None
        tables = tuple(table for _, table in combo)
        key = (rr.state, track(rr.out_symbol, tables))
        state = states.setdefault(key, prefixes[0] + str(len(states)))
        akey = annotate(sym, rr.out_symbol, tables)
        ann = anns.get(akey)
        if ann is None:
            tag = prefixes[1] + str(len(anns))
            ann = anns[akey] = mangle_parts(akey[0], (tag,))
            ranked.append((ann, len(combo)))
        rules.append(RelabelingRule(sym, tuple(states[c] for c in combo),
                                    state, ann))
        return key

    order = explore_bottom_up(rel.input, step)
    refined = RelabelingSpec(name=name + "_la", input=rel.input,
                             output=RankedAlphabet(ranked),
                             final=tuple(states[key] for key in order
                                         if key[0] in rel.final
                                         and accept(key[1])),
                             rules=tuple(rules))
    return refined, anns


# ---------------------------------------------------------------------------
# pushing a look-around's range into the att stage's own domain

def _relabel_out(rhs):
    """(produced symbol, child state tuple) of a top-down relabeling
    rule's right-hand side."""
    return rhs.label, tuple(call_info(c.label)[0] for c in rhs.children)


def _range_automaton(u):
    """Deterministic bottom-up automaton accepting exactly the trees the
    look-around can emit.

    States are reachable sets of (bottom state, top state) pairs: a pair
    (p, q) is in the set for an output subtree t when some source subtree
    reaches p bottom-up while its relabeling from top state q is t."""
    rel, top = u.first, u.second
    by_out = {}
    for r in top.rules:
        out, qs = _relabel_out(r.rhs)
        by_out.setdefault(out, []).append((r.state, r.symbol, qs))
    alpha = top.output
    names = {}      # frozenset of pairs -> name
    sets = {}       # name -> frozenset
    trans = {}      # (symbol, child names) -> name

    def step(sym, combo):
        k = len(combo)
        pairs = set()
        for q, mid, qs in by_out.get(sym, ()):
            for br in rel.rules:
                if br.out_symbol != mid or len(br.child_states) != k:
                    continue
                if all((br.child_states[i], qs[i]) in sets[combo[i]]
                       for i in range(k)):
                    pairs.add((br.state, q))
        if not pairs:
            return None
        fs = frozenset(pairs)
        if fs not in names:
            names[fs] = "p%d" % len(names)
            sets[names[fs]] = fs
        trans[(sym, combo)] = names[fs]
        return names[fs]

    order = explore_bottom_up(alpha, step)
    final = tuple(name for name in order
                  if any(p in rel.final and q == top.init
                         for p, q in sets[name]))
    rules = tuple(RelabelingRule(sym, combo, res, sym)
                  for (sym, combo), res in trans.items())
    return RelabelingSpec(name=u.name + "_range", input=alpha, output=alpha,
                          final=final, rules=rules)


def _fuse_lookaround(u, annot):
    """One look-around equivalent to running u and then the bottom-up
    relabeling annot on u's output.

    The shared refinement (_refine) pairs u's bottom state with a table
    sending each top state q to the state annot reaches on the subtree u
    would emit from q (None when u or annot is undefined there), states
    l0, l1, ...; each node is annotated w0, w1, ... by its source symbol,
    u's symbol and its children's tables, so the fused top stage has
    everything it needs to emit annot's symbols directly.
    """
    rel, top = u.first, u.second
    qtop = list(top.states)
    qindex = {q: i for i, q in enumerate(qtop)}
    tops = {key: _relabel_out(rhs) for key, rhs in _first_rhs(top).items()}

    def annotated(q, mid, phis):
        """(annot's rule at what u emits from q over mid, or None; u's
        calls)."""
        out, qs = tops.get((q, mid), (None, ()))
        bs = tuple(phis[i][qindex[qc]] for i, qc in enumerate(qs))
        ar = None if out is None or None in bs else annot.rule_for(out, bs)
        return ar, qs

    def track(mid, phis):
        return tuple(None if ar is None else ar.state
                     for ar, _ in (annotated(q, mid, phis) for q in qtop))

    name = u.name + "_ranged"
    fused_rel, anns = _refine(rel, name, track, lambda *key: key, ("l", "w"))
    trules = []
    for (sym, mid, phis), ann in anns.items():
        for q in qtop:
            ar, qs = annotated(q, mid, phis)
            if ar is not None:
                trules.append(TdttRule(q, ann, Tree(ar.out_symbol, [
                    Tree(call_label(qc, i)) for i, qc in enumerate(qs, 1)])))
    fused_top = TdttSpec(name=name + "_td", input=fused_rel.output,
                         output=annot.output, init=top.init,
                         rules=tuple(trules))
    return PairedSpec("lookaround", name, fused_rel, fused_top)


def normalize_domain_into_range(u, a):
    """Rewrite a look-around/att pair so the att stage by itself rejects
    any tree the look-around could not have produced.

    The look-around is fused with the automaton for its range, so each
    emitted symbol carries the automaton rule applied at that node. The
    att gains fresh traversal attributes that, before any output is
    produced, walk the annotated input in pre-order and check that the
    annotations form an accepting run; then the original rules take over.
    The pair as a whole keeps its translation.
    """
    if not isinstance(u, PairedSpec) or u.kind != "lookaround":
        raise SpecSyntaxError(
            "normalize_domain_into_range needs a lookaround pair, got %r"
            % getattr(u, "kind", type(u).__name__))
    if a.input != u.second.output:
        raise AlphabetMismatch(
            "att %r does not read the look-around's output alphabet" % a.name)
    circ, _ = is_circular(a)
    if circ:
        raise NotApplicable("circular")
    aut = _range_automaton(u)
    final_set = set(aut.final)
    sym2 = [mangle_parts(r.symbol, r.child_states + (r.state,))
            for r in aut.rules]
    alpha2 = RankedAlphabet([(sym2[i], len(r.child_states))
                             for i, r in enumerate(aut.rules)])
    taken = set(a.attributes) | set(a.output)
    t0 = fresh_name("walk0", taken)
    tv = fresh_name("walk", taken)
    tb = fresh_name("back", taken)
    tc = fresh_name("check", taken)
    chk = {}
    for idx, r in enumerate(aut.rules):
        for j in range(1, len(r.child_states) + 1):
            chk[(idx, j)] = fresh_name("chk<%d,%d>" % (idx, j), taken)
    rules2 = {ROOT: tuple(a.rules_at(ROOT))
              + (AttRule(tb, 1, Tree(occ_pattern(a.init, 1))),)}
    for idx, r in enumerate(aut.rules):
        k = len(r.child_states)
        bucket = list(a.rules_at(r.symbol))
        if k > 0:
            descend = Tree(occ_pattern(chk[(idx, 1)], 1))
            bucket.append(AttRule(tv, 0, descend))
            if r.state in final_set:
                bucket.append(AttRule(t0, 0, descend))
            for i in range(1, k):
                bucket.append(AttRule(tc, i,
                                      Tree(occ_pattern(chk[(idx, i + 1)], i + 1))))
            bucket.append(AttRule(tc, k, Tree(occ_pattern(tv, 1))))
            for i in range(1, k):
                bucket.append(AttRule(tb, i, Tree(occ_pattern(tv, i + 1))))
            bucket.append(AttRule(tb, k, Tree(occ_pattern(tb, 0))))
        else:
            bucket.append(AttRule(tv, 0, Tree(occ_pattern(tb, 0))))
            if r.state in final_set:
                bucket.append(AttRule(t0, 0, Tree(occ_pattern(tb, 0))))
        for idx2, r2 in enumerate(aut.rules):
            for j in range(1, len(r2.child_states) + 1):
                if r2.child_states[j - 1] == r.state:
                    bucket.append(AttRule(chk[(idx2, j)], 0,
                                          Tree(occ_pattern(tc, 0))))
        rules2[sym2[idx]] = tuple(bucket)
    checked = AttSpec(name=a.name + "_checked", input=alpha2, output=a.output,
                      syn=a.syn + (t0, tv) + tuple(chk.values()),
                      inh=a.inh + (tb, tc), init=t0, rules=rules2)
    annot = RelabelingSpec(name=u.name + "_annot", input=aut.input,
                           output=alpha2, final=tuple(aut.final),
                           rules=tuple(RelabelingRule(r.symbol, r.child_states,
                                                      r.state, sym2[i])
                                       for i, r in enumerate(aut.rules)))
    fused = _fuse_lookaround(u, annot)
    return PairedSpec("attU", a.name + "_ranged", fused, checked)


# ---------------------------------------------------------------------------
# composition of two transducers with look-ahead

class _Dead(Exception):
    pass


def _rhs_state(t, child_lams, qindex, rel):
    """State rel reaches on the tree a top-down right-hand side produces,
    with call leaves resolved through the children's tables; None when
    anything along the way is undefined."""
    info = call_info(t.label)
    if info is not None and not t.children:
        q, i = info
        return child_lams[i - 1][qindex[q]]
    sts = []
    for c in t.children:
        v = _rhs_state(c, child_lams, qindex, rel)
        if v is None:
            return None
        sts.append(v)
    rr = rel.rule_for(t.label, tuple(sts))
    return None if rr is None else rr.state


def _pair_state(q1, q2):
    return mangle_parts("c", (q1, q2))


def compose_dtR(t1, t2):
    """One transducer with look-ahead computing t2 after t1, undefined
    exactly where either stage is.

    The shared refinement (_refine) pairs t1's look-ahead state with a
    table sending each state of t1's top stage to the state t2's
    look-ahead reaches on the output produced from there, states m0, m1,
    ...; each node is annotated k0, k1, ... by its source symbol, t1's
    symbol and its children's tables, and a state is final only when t2's
    look-ahead accepts what t1 emits from its initial state.  The fused
    top stage runs the pairs of states that breadth_first reaches from
    the initial pair, symbolically pushing t2's rules through t1's
    right-hand sides; a combination with no complete continuation yields
    no rule.  Each stage's first rule at a (state, symbol) is the one
    read.
    """
    for t in (t1, t2):
        if not isinstance(t, PairedSpec) or t.kind not in ("dtR", "lookaround"):
            raise SpecSyntaxError(
                "compose_dtR needs relabeling + top-down pairs, got %r"
                % getattr(t, "kind", type(t).__name__))
    if t1.second.output != t2.first.input:
        raise AlphabetMismatch(
            "output alphabet of %r differs from input alphabet of %r"
            % (t1.name, t2.name))
    r1, d1 = t1.first, t1.second
    r2, d2 = t2.first, t2.second
    first1, first2 = _first_rhs(d1), _first_rhs(d2)
    qt1 = list(d1.states)
    q1index = {q: i for i, q in enumerate(qt1)}

    def track(mid, lams):
        rhss = (first1.get((q, mid)) for q in qt1)
        return tuple(None if rhs is None else
                     _rhs_state(rhs, lams, q1index, r2) for rhs in rhss)

    init_i = q1index[d1.init]
    name = t1.name + "_" + t2.name
    fused_rel, anns = _refine(r1, name, track, lambda *key: key, ("m", "k"),
                              lambda lam: lam[init_i] in r2.final)

    def build(t, q2, lams, needed):
        info = call_info(t.label)
        if info is not None and not t.children:
            q1b, i = info
            needed.append((q1b, q2))
            return Tree(call_label(_pair_state(q1b, q2), i))
        sts = []
        for c in t.children:
            v = _rhs_state(c, lams, q1index, r2)
            if v is None:
                raise _Dead
            sts.append(v)
        rr2 = r2.rule_for(t.label, tuple(sts))
        if rr2 is None:
            raise _Dead
        rhs2 = first2.get((q2, rr2.out_symbol))
        if rhs2 is None:
            raise _Dead
        return subst(rhs2, t, lams, needed)

    def subst(rhs2, t, lams, needed):
        info = call_info(rhs2.label)
        if info is not None and not rhs2.children:
            q2b, j = info
            return build(t.children[j - 1], q2b, lams, needed)
        return Tree(rhs2.label, [subst(c, t, lams, needed)
                                 for c in rhs2.children])

    trules = []

    def fuse(pair):
        q1, q2 = pair
        for (_, mid, lams), ann in anns.items():
            rhs1 = first1.get((q1, mid))
            if rhs1 is None:
                continue
            needed = []
            try:
                rhs = build(rhs1, q2, lams, needed)
            except _Dead:
                continue
            trules.append(TdttRule(_pair_state(q1, q2), ann, rhs))
            for called in needed:
                yield None, called

    breadth_first([(d1.init, d2.init)], fuse)
    fused_top = TdttSpec(name=name + "_td", input=fused_rel.output,
                         output=d2.output, init=_pair_state(d1.init, d2.init),
                         rules=tuple(trules))
    return PairedSpec("dtR", name, fused_rel, fused_top)


# ---------------------------------------------------------------------------
# deterministic extraction from a functional transducer

def _calls(rhs):
    return [info for _, leaf in rhs.leaves()
            if (info := call_info(leaf.label)) is not None]


def uniformize(n):
    """A deterministic transducer with the same translation as a
    functional nondeterministic one with look-ahead.

    The shared refinement (_refine) pairs the look-ahead's state with the
    set of top-stage states from which a complete output exists on the
    subtree, states n0, n1, ...; each node is annotated u0, u1, ... by
    the look-ahead's symbol and its children's sets.  At each node only
    rules all of whose calls stay completable survive, and the first
    survivor in right-hand-side text order is kept. Functionality is the
    caller's promise; under it any consistent choice of survivors
    computes the one translation, and the choice made here is fixed so
    the artifact is reproducible.
    """
    if not isinstance(n, PairedSpec) or n.kind not in ("dtR", "lookaround"):
        raise SpecSyntaxError(
            "uniformize needs a relabeling + top-down pair, got %r"
            % getattr(n, "kind", type(n).__name__))
    rel, td = n.first, n.second
    by_symbol = {}
    for r in td.rules:
        by_symbol.setdefault(r.symbol, []).append(r)
    alive = {}      # (mid symbol, child done sets) -> the completable rules

    def done(mid, ds):
        rules = alive.get((mid, ds))
        if rules is None:
            rules = alive[mid, ds] = [
                r for r in by_symbol.get(mid, ())
                if all(st in ds[i - 1] for st, i in _calls(r.rhs))]
        return frozenset(r.state for r in rules)

    name = n.name + "_det"
    det_rel, anns = _refine(rel, name, done, lambda _, *key: key, ("n", "u"))
    trules = []
    for key, ann in anns.items():
        for q in td.states:
            survivors = [r for r in alive[key] if r.state == q]
            if survivors:
                chosen = min(survivors, key=lambda r: r.rhs.render())
                trules.append(TdttRule(q, ann, chosen.rhs))
    det_top = TdttSpec(name=name + "_td", input=det_rel.output,
                       output=td.output, init=td.init, rules=tuple(trules))
    return PairedSpec("dtR", name, det_rel, det_top)
