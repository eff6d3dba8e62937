"""Machine-to-machine constructions.

Every function here rewrites one machine into another with the same
translation, checked in the tests by bounded enumeration: rooting ground
right-hand sides, splitting an att into a precomputing relabeling plus a
reduced att, rewriting a look-around pair so the att stage on its own
rejects trees the look-around could not have produced, composing two
top-down transducers with look-ahead, and extracting a deterministic
transducer from a functional nondeterministic one.
"""

from dataclasses import dataclass

from .analysis import _require_walkable, is_circular, kappa
from .errors import AlphabetMismatch, NotApplicable, NotTrimmable, SpecSyntaxError
from .model import (ROOT, AttRule, AttSpec, PairedSpec, RelabelingRule,
                    RelabelingSpec, TdttRule, TdttSpec, call_info, call_label,
                    fresh_name, is_occurrence, mangle_literal, mangle_parts,
                    occ_node, occ_pattern)
from . import semantics
from .semantics import Crossings, _chain_tree
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
    is nothing to rewrite, so applying the pass twice is a no-op.
    """
    grounds = []
    for sym, rules in a.rules.items():
        if sym == ROOT:
            continue
        for r in rules:
            if _is_ground(r.rhs) and r.rhs not in grounds:
                grounds.append(r.rhs)
    if not grounds:
        return a
    taken = set(a.attributes) | set(a.output) | set(a.input)
    names = {xi: fresh_name(mangle_literal(xi), taken) for xi in grounds}
    rules = {}
    for sym, old in a.rules.items():
        bucket = []
        for r in old:
            if sym != ROOT and _is_ground(r.rhs):
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


def _reduce(a, sym, tables, chain, built):
    """The rule chain with every precomputed child walk inlined, as a
    right-hand side built once per result, or None when the walk strands
    at a child with no applicable rule (then the translation is undefined
    whenever the rule fires, and dropping it reproduces exactly that).
    tables[i - 1] maps the attributes child i finishes to (chunk, end,
    name)."""
    labels, tip, leaf = chain
    labels = list(labels)
    path = set()
    while tip is not None and tip[1] >= 1:
        attr, pos = tip
        if a.is_syn(attr):
            got = tables[pos - 1].get(attr)
            if got is None:
                break       # not precomputed; the reduced att walks the child
            chunk, end, name = got
            tip, leaf = ((name, pos), None) if end == "up" else (None, name)
        else:
            chains = a.rule_table.get((sym, attr, pos))
            if chains is None:
                return None
            chunk, tip, leaf = chains[0]
        assert (attr, pos) not in path, "reduction revisits %s" % (attr, pos)
        path.add((attr, pos))
        labels.extend(chunk)
    key = tuple(labels), tip, leaf
    if key not in built:
        built[key] = _chain_tree(labels, leaf if tip is None else
                                 occ_pattern(*tip))
    return built[key]


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
        child_tables = [firsts[c][1] for c in combo]
        bucket = []
        for r in a.rules_at(sym):
            eta = _reduce(a, sym, child_tables,
                          a.rule_table[sym, r.attr, r.pos][0], built)
            if eta is not None:
                bucket.append(AttRule(r.attr, r.pos, eta))
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
# pushing a look-around's range into the att stage's own domain

def _relabel_out(rule):
    """(produced symbol, child state tuple) of a top-down relabeling rule."""
    return rule.rhs.label, tuple(call_info(c.label)[0]
                                 for c in rule.rhs.children)


def _range_automaton(u):
    """Deterministic bottom-up automaton accepting exactly the trees the
    look-around can emit.

    States are reachable sets of (bottom state, top state) pairs: a pair
    (p, q) is in the set for an output subtree t when some source subtree
    reaches p bottom-up while its relabeling from top state q is t."""
    rel, top = u.first, u.second
    by_out = {}
    for r in top.rules:
        out, qs = _relabel_out(r)
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

    The fused look-ahead tracks, besides u's bottom state, a table sending
    each top state q to the state annot reaches on the subtree u would
    emit from q (None when u or annot is undefined there); the fused top
    stage then has everything it needs to emit annot's symbols directly.
    """
    rel, top = u.first, u.second
    qtop = list(top.states)
    qindex = {q: i for i, q in enumerate(qtop)}
    # the first rule of each (state, symbol) wins
    tops = {(r.state, r.symbol): _relabel_out(r) for r in reversed(top.rules)}
    states = {}     # (bottom state, phi table) -> name
    anns = {}       # (source symbol, mid symbol, child phi tables) -> name
    rrules = []

    def annotated(q, mid, phis):
        """(annot's rule at what u emits from q over mid, or None; u's
        calls)."""
        out, qs = tops.get((q, mid), (None, ()))
        bs = tuple(phis[i][qindex[qc]] for i, qc in enumerate(qs))
        ar = None if out is None or None in bs else annot.rule_for(out, bs)
        return ar, qs

    def step(sym, combo):
        rr = rel.rule_for(sym, tuple(p for p, _ in combo))
        if rr is None:
            return None
        mid = rr.out_symbol
        phis = tuple(phi for _, phi in combo)
        phi = []
        for q in qtop:
            ar, _ = annotated(q, mid, phis)
            phi.append(None if ar is None else ar.state)
        key = (rr.state, tuple(phi))
        states.setdefault(key, "l%d" % len(states))
        akey = (sym, mid, phis)
        if akey not in anns:
            anns[akey] = mangle_parts(sym, ("w%d" % len(anns),))
        rrules.append(RelabelingRule(
            sym, tuple(states[c] for c in combo), states[key], anns[akey]))
        return key

    order = explore_bottom_up(rel.input, step)
    ann_alpha = RankedAlphabet([(name, rel.input.rank(sym))
                                for (sym, _, _), name in anns.items()])
    trules = []
    for (sym, mid, phis), ann in anns.items():
        for q in qtop:
            ar, qs = annotated(q, mid, phis)
            if ar is not None:
                trules.append(TdttRule(q, ann, Tree(ar.out_symbol, [
                    Tree(call_label(qc, i)) for i, qc in enumerate(qs, 1)])))
    name = u.name + "_ranged"
    fused_rel = RelabelingSpec(name=name + "_la", input=rel.input,
                               output=ann_alpha,
                               final=tuple(states[key] for key in order
                                           if key[0] in rel.final),
                               rules=tuple(rrules))
    fused_top = TdttSpec(name=name + "_td", input=ann_alpha,
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

    The fused look-ahead pairs t1's look-ahead state with a table sending
    each state of t1's top stage to the state t2's look-ahead reaches on
    the output produced from there. The fused top stage runs the pairs of
    states that breadth_first reaches from the initial pair, symbolically
    pushing t2's rules through t1's right-hand sides; a combination with
    no complete continuation yields no rule.
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
    qt1 = list(d1.states)
    q1index = {q: i for i, q in enumerate(qt1)}
    states = {}     # (r1 state, lambda table) -> name
    anns = {}       # (source symbol, mid symbol, child tables) -> name
    ann_info = []   # (name, source symbol, mid symbol, child tables)
    rrules = []

    def step(sym, combo):
        rr = r1.rule_for(sym, tuple(p for p, _ in combo))
        if rr is None:
            return None
        mid = rr.out_symbol
        lams = tuple(lam for _, lam in combo)
        lam = []
        for q in qt1:
            rules = d1.rules_for(q, mid)
            lam.append(None if not rules else
                       _rhs_state(rules[0].rhs, lams, q1index, r2))
        key = (rr.state, tuple(lam))
        states.setdefault(key, "m%d" % len(states))
        akey = (sym, mid, lams)
        if akey not in anns:
            anns[akey] = mangle_parts(sym, ("k%d" % len(anns),))
            ann_info.append((anns[akey], sym, mid, lams))
        rrules.append(RelabelingRule(
            sym, tuple(states[c] for c in combo), states[key], anns[akey]))
        return key

    order = explore_bottom_up(r1.input, step)
    ann_alpha = RankedAlphabet([(name, r1.input.rank(sym))
                                for name, sym, _, _ in ann_info])

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
        rules2 = d2.rules_for(q2, rr2.out_symbol)
        if not rules2:
            raise _Dead
        return subst(rules2[0].rhs, t, lams, needed)

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
        for ann, _, mid, lams in ann_info:
            rules1 = d1.rules_for(q1, mid)
            if not rules1:
                continue
            needed = []
            try:
                rhs = build(rules1[0].rhs, q2, lams, needed)
            except _Dead:
                continue
            trules.append(TdttRule(_pair_state(q1, q2), ann, rhs))
            for called in needed:
                yield None, called

    breadth_first([(d1.init, d2.init)], fuse)
    init_i = q1index[d1.init]
    final = tuple(states[key] for key in order
                  if key[0] in r1.final and key[1][init_i] is not None
                  and key[1][init_i] in r2.final)
    name = t1.name + "_" + t2.name
    fused_rel = RelabelingSpec(name=name + "_la", input=r1.input,
                               output=ann_alpha, final=final,
                               rules=tuple(rrules))
    fused_top = TdttSpec(name=name + "_td", input=ann_alpha, output=d2.output,
                         init=_pair_state(d1.init, d2.init),
                         rules=tuple(trules))
    return PairedSpec("dtR", name, fused_rel, fused_top)


# ---------------------------------------------------------------------------
# deterministic extraction from a functional transducer

def _calls(rhs):
    return [call_info(leaf.label) for _, leaf in rhs.leaves()
            if call_info(leaf.label) is not None]


def uniformize(n):
    """A deterministic transducer with the same translation as a
    functional nondeterministic one with look-ahead.

    The look-ahead is refined to track, per top-stage state, whether a
    complete output exists from that state on the subtree. At each node
    only rules all of whose calls stay completable survive, and the first
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

    def derive(mid, ds):
        out = set()
        for r in by_symbol.get(mid, ()):
            if all(st in ds[i - 1] for st, i in _calls(r.rhs)):
                out.add(r.state)
        return frozenset(out)

    states = {}     # (rel state, done set) -> name
    anns = {}       # (mid symbol, child done sets) -> name
    ann_info = []
    rrules = []

    def step(sym, combo):
        rr = rel.rule_for(sym, tuple(p for p, _ in combo))
        if rr is None:
            return None
        mid = rr.out_symbol
        ds = tuple(d for _, d in combo)
        key = (rr.state, derive(mid, ds))
        states.setdefault(key, "n%d" % len(states))
        akey = (mid, ds)
        if akey not in anns:
            anns[akey] = mangle_parts(mid, ("u%d" % len(anns),))
            ann_info.append((anns[akey], mid, ds))
        rrules.append(RelabelingRule(
            sym, tuple(states[c] for c in combo), states[key], anns[akey]))
        return key

    order = explore_bottom_up(rel.input, step)
    ann_alpha = RankedAlphabet([(name, td.input.rank(mid))
                                for name, mid, _ in ann_info])
    trules = []
    for ann, mid, ds in ann_info:
        derived = derive(mid, ds)
        for q in td.states:
            survivors = [r for r in by_symbol.get(mid, ()) if r.state == q
                         and all(st in ds[i - 1] for st, i in _calls(r.rhs))]
            if not survivors:
                if q in derived:
                    raise NotTrimmable(
                        "state %r at %r is completable but no rule survives"
                        % (q, ann))
                continue
            chosen = min(survivors, key=lambda r: r.rhs.render())
            trules.append(TdttRule(q, ann, chosen.rhs))
    name = n.name + "_det"
    det_rel = RelabelingSpec(name=name + "_la", input=rel.input,
                             output=ann_alpha,
                             final=tuple(states[key] for key in order
                                         if key[0] in rel.final),
                             rules=tuple(rrules))
    det_top = TdttSpec(name=name + "_td", input=ann_alpha, output=td.output,
                       init=td.init, rules=tuple(trules))
    return PairedSpec("dtR", name, det_rel, det_top)
