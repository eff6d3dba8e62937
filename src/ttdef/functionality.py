"""Deciding whether a nondeterministic att still computes a function.

Nondeterminism breaks a translation in two observable ways.  A
derivation can revisit an attribute occurrence with strictly more output
than the form had at the first visit, so it can never settle.  Or two
derivations over one input can finish with different outputs.  The
second kind is found by splitting the att into two copies over inputs
annotated with the rules each copy may use: every annotation makes both
copies deterministic, and they agree on all annotated inputs (where both
are defined) exactly when the att maps each input to at most one output.
A disagreement projects back, by dropping the annotations, to two
concrete outputs on the underlying input.

All comparisons here are exhaustive up to a depth, and every verdict
carries something replayable: a two-output witness checks against
enumerate_outputs, a cycle trace checks against derive_step.
"""

import itertools
from dataclasses import dataclass

from .errors import (AlphabetMismatch, DuplicateLhsInDeterministic,
                     NotApplicable, SpecSyntaxError)
from .model import (ROOT, AttRule, AttSpec, PairedSpec, check_monadic,
                    fresh_name, input_alphabet, is_occurrence, mangle_parts,
                    occ_node, occ_pattern, occ_pattern_info,
                    split_mangled_parts)
from .semantics import (StepBudget, _expansions, _symbol_lookup, derive_step,
                        enumerate_outputs, occurrences)
from .trees import Tree, canonical_key, trees_up_to_height


@dataclass(frozen=True)
class FunctionalityBudget:
    """Bounds for the functionality check: input trees are enumerated up
    to `depth`, and any single derivation search gives up after
    `max_steps` rule applications."""
    depth: int = 4
    max_steps: int = 1000000

    @classmethod
    def coerce(cls, value):
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls(depth=value)
        raise SpecSyntaxError("not a functionality budget: %r" % (value,))


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class NotFunctional:
    """Two distinct outputs over one input; replays under
    enumerate_outputs on that input."""
    input: Tree
    out1: Tree
    out2: Tree


@dataclass(frozen=True)
class ProductiveCycle:
    """A derivation whose trace revisits an attribute occurrence with the
    sentential form strictly grown in between, so it can never settle.
    The trace starts at the initial form and replays under derive_step."""
    input: Tree
    trace: tuple


@dataclass(frozen=True)
class FunctionalUpTo:
    """At most one output per input, verified exhaustively for all input
    trees up to the depth."""
    depth: int


@dataclass(frozen=True)
class Equal:
    """The compared machines agree on every input up to the depth."""
    depth: int


@dataclass(frozen=True)
class Witness:
    """First input in canonical order where the compared machines
    disagree; None marks a side with no output there."""
    input: Tree
    out1: object
    out2: object


# ---------------------------------------------------------------------------
# root-rule normalization

def normalize_root_rules(a):
    """Push root-marker nondeterminism one level down.

    Every inherited attribute b with several root rules gets a fresh
    synthesized stand-in: the root rules collapse to the single rule
    b(pi 1) -> a_<b>(pi 1), and at each input symbol a_<b> either emits a
    ground root right-hand side directly or continues a right-hand side
    with the synthesized occurrence it mentioned inlined, one rule per
    way the occurrence's own rules could fire.  The translation is
    unchanged; root rules now have pairwise distinct left-hand sides.
    Returns the input att itself when they already do.
    """
    root = a.rules_at(ROOT)
    by_lhs = {}
    for r in root:
        by_lhs.setdefault((r.attr, r.pos), []).append(r)
    multi = sorted({attr for (attr, _), rs in by_lhs.items() if len(rs) > 1})
    if not multi:
        return a
    taken = set(a.attributes) | set(a.input) | set(a.output)
    names = {b: fresh_name(mangle_parts("a", (b,)), taken) for b in multi}
    new_root = tuple(r for r in root if r.attr not in multi) + tuple(
        AttRule(b, 1, Tree(occ_pattern(names[b], 1))) for b in multi)
    rules = {ROOT: new_root}
    for sym, _k in a.input.items():
        bucket = list(a.rules_at(sym))
        for b in multi:
            for r in root:
                if r.attr != b:
                    continue
                for rhs in _pushed_down(a, sym, r.rhs):
                    bucket.append(AttRule(names[b], 0, rhs))
        seen = set()
        kept = []
        for r in bucket:
            if r not in seen:
                seen.add(r)
                kept.append(r)
        rules[sym] = tuple(kept)
    return AttSpec(name=a.name + "_rootdet", input=a.input, output=a.output,
                   syn=a.syn + tuple(names[b] for b in multi), inh=a.inh,
                   init=a.init, rules=rules)


def _pushed_down(a, sym, xi):
    """Right-hand sides a stand-in attribute gets at sym from the root
    rule right-hand side xi: xi itself when ground, else xi with its
    synthesized occurrence inlined per applicable rule at sym."""
    spots = [(addr, occ_pattern_info(node.label))
             for addr, node in xi.addresses()
             if not node.children and is_occurrence(node.label)]
    if not spots:
        return [xi]
    if len(spots) == 1:
        (addr, (attr, j)), = spots
        if j != 1:
            return []  # refers to the root marker itself: permanently stuck
        if a.is_syn(attr):
            return [xi.replace_at(addr, psi.rhs)
                    for psi in a.rules_for(sym, attr, 0)]
        # an inherited occurrence at the root's child is, seen from the
        # stand-in living there, the same occurrence at the node itself
        return [xi.replace_at(addr, Tree(occ_pattern(attr, 0)))]
    out = xi
    for addr, (attr, j) in spots:
        if j != 1:
            return []
        out = out.replace_at(addr, Tree(occ_pattern(attr, 0)))
    return [out]


# ---------------------------------------------------------------------------
# productive cycles

def detect_productive_cycle(a, budget=None):
    """A derivation over some input tree within the budget depth that
    revisits an attribute occurrence with the form strictly grown, or
    None.

    Per input tree, the occurrences reachable from the initial one form
    a graph whose edges are rule applications weighted by how much the
    form grows; any reachable cycle through a positive edge is
    productive.  The trace is rebuilt by walking to the cycle and around
    it until an occurrence repeats with a bigger form."""
    budget = FunctionalityBudget.coerce(budget)
    for s in trees_up_to_height(a.input, budget.depth):
        trace = _cycle_on(a, s)
        if trace is not None:
            return ProductiveCycle(input=s, trace=tuple(trace))
    return None


def replay_cycle(a, cert):
    """True iff the certificate's trace is a real derivation over its
    input that revisits an occurrence with the form strictly grown."""
    forms = list(cert.trace)
    if not forms or forms[0] != Tree(occ_node(a.init, (1,))):
        return False
    for cur, nxt in zip(forms, forms[1:]):
        if nxt not in derive_step(a, cert.input, cur):
            return False
    spots = {}
    for idx, form in enumerate(forms[1:], start=1):
        for _, attr, naddr in occurrences(form):
            spots.setdefault((attr, naddr), []).append(idx)
    return any(forms[ixs[0]] != forms[ixs[-1]] for ixs in spots.values())


def _cycle_on(a, s):
    """Trace of a productive cycle of a over #(s), or None."""
    sym_at = _symbol_lookup(s, rooted=True)
    start = (a.init, (1,))
    edges = {}
    order = [start]
    seen = {start}
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        out = []
        for rule, repl in _expansions(a, sym_at, u[0], u[1]):
            tgts = [(attr, naddr) for _, attr, naddr in occurrences(repl)]
            out.append((repl, repl.size - 1, tuple(tgts)))
            for v in tgts:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
        edges[u] = tuple(out)
    for u in order:
        for repl, w, tgts in edges[u]:
            if w <= 0:
                continue
            for v in tgts:
                if _reaches(edges, v, u):
                    path = _route(edges, start, u)
                    loop = [(u, repl, v)] + _route(edges, v, u)
                    return _walk_trace(a, start, path + loop * 3)
    return None


def _reaches(edges, src, dst):
    stack, seen = [src], {src}
    while stack:
        x = stack.pop()
        if x == dst:
            return True
        for _, _, tgts in edges.get(x, ()):
            for y in tgts:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return False


def _route(edges, src, dst):
    """Steps (occurrence, replacement, next occurrence) from src to dst
    along first-discovered edges; [] when src is dst."""
    if src == dst:
        return []
    parent = {src: None}
    queue = [src]
    i = 0
    while i < len(queue):
        x = queue[i]
        i += 1
        for repl, _, tgts in edges.get(x, ()):
            for y in tgts:
                if y not in parent:
                    parent[y] = (x, repl, y)
                    if y == dst:
                        steps = []
                        while parent[y] is not None:
                            steps.append(parent[y])
                            y = parent[y][0]
                        return steps[::-1]
                    queue.append(y)
    return []


def _walk_trace(a, start, steps):
    """Forms along the steps, cut at the first occurrence revisited with
    the form grown; the initial form itself does not count as a visit."""
    form = Tree(occ_node(start[0], start[1]))
    forms = [form]
    first_at = {}
    for x, repl, y in steps:
        label = occ_node(x[0], x[1])
        faddr = next((addr for addr, node in form.addresses()
                      if not node.children and node.label == label), None)
        if faddr is None:
            return None
        form = form.replace_at(faddr, repl)
        forms.append(form)
        here = len(forms) - 1
        if y in first_at and forms[first_at[y]] != form:
            return forms
        first_at.setdefault(y, here)
    return None


# ---------------------------------------------------------------------------
# the annotated pair

def _choice_groups(rules):
    groups = {}
    for i, r in enumerate(rules):
        groups.setdefault((r.attr, r.pos), []).append(i)
    return list(groups.values())


def _render_picks(picks):
    return "+".join(str(i) for i in picks) if picks else "-"


def _parse_picks(text):
    if text == "-":
        return ()
    try:
        return tuple(int(p) for p in text.split("+"))
    except ValueError:
        raise SpecSyntaxError("malformed rule picks: %r" % text)


@dataclass(frozen=True)
class AnnotatedAlphabet:
    """Input symbols of an att annotated with two rule choices, one per
    copy.  A choice picks at most one rule per left-hand side among the
    rules at the symbol, which is what makes each copy deterministic on
    annotated trees; the annotated symbol keeps the base symbol's rank.
    Node addresses in pick maps are rooted: the top node is (1,)."""
    att: AttSpec

    def choices(self, symbol):
        """All valid picks at the symbol, as sorted tuples of rule
        indices; the empty pick is always among them."""
        groups = _choice_groups(self.att.rules_at(symbol))
        return [tuple(sorted(i for i in combo if i is not None))
                for combo in itertools.product(*[[None] + g for g in groups])]

    def name_of(self, symbol, picks1, picks2):
        return mangle_parts(mangle_parts(symbol, (_render_picks(picks1),)),
                            (_render_picks(picks2),))

    def decode(self, label):
        """(base symbol, picks for copy 1, picks for copy 2)."""
        outer = split_mangled_parts(label)
        inner = split_mangled_parts(outer[0]) if outer else None
        if inner is None:
            raise SpecSyntaxError("not an annotated symbol: %r" % label)
        sym = inner[0]
        if sym not in self.att.input:
            raise SpecSyntaxError("annotated symbol %r has no base in the "
                                  "input alphabet of %r" % (label, self.att.name))
        return sym, _parse_picks(inner[1]), _parse_picks(outer[1])

    def project(self, stilde):
        """The base tree, with all annotations dropped."""
        return Tree(self.decode(stilde.label)[0],
                    [self.project(c) for c in stilde.children])

    def annotate(self, s, picks1, picks2):
        """Annotated copy of s.  picks1/picks2 map rooted node addresses
        to rule-index collections; a missing address allows no rules."""
        def build(t, addr):
            p1 = tuple(sorted(picks1.get(addr, ())))
            p2 = tuple(sorted(picks2.get(addr, ())))
            return Tree(self.name_of(t.label, p1, p2),
                        [build(c, addr + (i,))
                         for i, c in enumerate(t.children, start=1)])
        return build(s, (1,))


@dataclass(frozen=True)
class AnnotatedCopy:
    """One of the two rule-restricted projections of an att: on a tree
    annotated with rule choices it applies only the rules its side
    picked, plus the (deterministic) root-marker rules.  The two copies
    agree wherever both are defined exactly when the att is functional;
    "both defined" plays the look-ahead's role for the pair."""
    alphabet: AnnotatedAlphabet
    side: int

    @property
    def att(self):
        return self.alphabet.att

    def evaluate(self, stilde):
        """Output tree over the annotated input, or None when this
        copy's walk sticks or cycles."""
        a = self.att
        allowed = {}
        base = self._decode_into(stilde, allowed)
        sym_at = _symbol_lookup(base, rooted=True)
        form = Tree(occ_node(a.init, (1,)))
        consumed = set()
        while True:
            occs = occurrences(form)
            if not occs:
                return form
            faddr, attr, naddr = occs[0]
            if (attr, naddr) in consumed:
                return None
            consumed.add((attr, naddr))
            here = naddr if a.is_syn(attr) else naddr[:-1]
            exps = [(r, repl)
                    for r, repl in _expansions(a, sym_at, attr, naddr)
                    if not here or r in allowed.get(here, ())]
            if not exps:
                return None
            if len(exps) > 1:
                raise DuplicateLhsInDeterministic(
                    "copy %d of %r has several rules for %s" %
                    (self.side, a.name, occ_node(attr, naddr)))
            form = form.replace_at(faddr, exps[0][1])

    def _decode_into(self, stilde, allowed):
        a = self.att

        def build(t, rooted):
            sym, p1, p2 = self.alphabet.decode(t.label)
            rules = a.rules_at(sym)
            picks = p1 if self.side == 1 else p2
            chosen = []
            for i in picks:
                if not 0 <= i < len(rules):
                    raise SpecSyntaxError("rule pick %d out of range in %r"
                                          % (i, t.label))
                chosen.append(rules[i])
            if len({(r.attr, r.pos) for r in chosen}) < len(chosen):
                raise SpecSyntaxError("picked rules in %r share a "
                                      "left-hand side" % t.label)
            allowed[rooted] = tuple(chosen)
            return Tree(sym, [build(c, rooted + (i,))
                              for i, c in enumerate(t.children, start=1)])
        return build(stilde, (1,))


def build_annotated_pair(a):
    """The two deterministic rule-choice projections of a over its
    annotated input alphabet.  Root rules are normalized first, so both
    copies resolve the root marker the same way; every remaining
    nondeterministic choice is fixed by the annotations.  The annotated
    alphabet is kept implicit (it is exponential in the rule count);
    annotated trees are built on demand from actual derivations."""
    a = normalize_root_rules(a)
    alphabet = AnnotatedAlphabet(a)
    return AnnotatedCopy(alphabet, 1), AnnotatedCopy(alphabet, 2)


# ---------------------------------------------------------------------------
# bounded equivalence

def _rule_indexer(a):
    index = {}

    def rule_index(sym, rule):
        if sym not in index:
            index[sym] = {r: i for i, r in enumerate(a.rules_at(sym))}
        return index[sym][rule]
    return rule_index


def _runs(a, s, max_steps=1000000):
    """Distinct (output, uses) pairs of complete derivations over #(s),
    where uses maps each rooted node address to the set of rule indices
    applied there (root-marker applications are not recorded).  Branches
    that revisit an occurrence are dropped: without productive cycles
    every output is also reached by a revisit-free derivation.  Results
    come sorted by output, then by uses."""
    sym_at = _symbol_lookup(s, rooted=True)
    rule_index = _rule_indexer(a)
    start = Tree(occ_node(a.init, (1,)))
    stack = [(start, frozenset(), ())]
    found = {}
    steps = 0
    while stack:
        form, consumed, used = stack.pop()
        occs = occurrences(form)
        if not occs:
            uses = {}
            for addr, i in used:
                uses.setdefault(addr, set()).add(i)
            key = (canonical_key(form),
                   tuple(sorted((addr, tuple(sorted(ix)))
                                for addr, ix in uses.items())))
            if key not in found:
                found[key] = (form, {addr: frozenset(ix)
                                     for addr, ix in uses.items()})
            continue
        faddr, attr, naddr = occs[0]
        if (attr, naddr) in consumed:
            continue
        steps += 1
        if steps > max_steps:
            raise NotApplicable("derivation search over %r stopped after "
                                "%d steps" % (a.name, max_steps))
        here = naddr if a.is_syn(attr) else naddr[:-1]
        for rule, repl in _expansions(a, sym_at, attr, naddr):
            u2 = used if not here else \
                used + ((here, rule_index(sym_at(here), rule)),)
            stack.append((form.replace_at(faddr, repl),
                          consumed | {(attr, naddr)}, u2))
    return [found[k] for k in sorted(found)]


def _annotated_equivalence(c1, c2, depth, inputs=None):
    """Compare the two copies over annotated trees built reachably: for
    each base input, the rule sets distinct derivations actually used.
    Both copies are defined on every tree built this way."""
    a = c1.att
    alphabet = c1.alphabet
    if inputs is None:
        inputs = trees_up_to_height(a.input, depth)
    for s in inputs:
        distinct = []
        outs = set()
        for out, uses in _runs(a, s):
            k = canonical_key(out)
            if k not in outs:
                outs.add(k)
                distinct.append((out, uses))
            if len(distinct) == 2:
                break
        if len(distinct) < 2:
            continue
        (o1, u1), (o2, u2) = distinct
        stilde = alphabet.annotate(s, u1, u2)
        assert c1.evaluate(stilde) == o1 and c2.evaluate(stilde) == o2
        return Witness(stilde, o1, o2)
    return Equal(depth)


def _smallest_difference(mine, theirs):
    extra = sorted(mine - theirs, key=canonical_key)
    if extra:
        return extra[0]
    return min(mine, key=canonical_key) if mine else None


def bounded_equivalence(d1, d2, depth):
    """Equal when the two machines agree on every input tree up to the
    depth, else the first differing input in canonical order.

    Two annotated copies of one att are compared over annotated inputs
    generated reachably from its derivations, where both are defined.
    Anything else evaluable is compared output set against output set
    over the common input alphabet; a side with no output at the
    differing input is reported as None."""
    if isinstance(d1, AnnotatedCopy) and isinstance(d2, AnnotatedCopy) \
            and d1.att == d2.att:
        return _annotated_equivalence(d1, d2, depth)
    in1, in2 = input_alphabet(d1), input_alphabet(d2)
    if in1 != in2:
        raise AlphabetMismatch("cannot compare %r and %r over different "
                               "input alphabets" % (d1.name, d2.name))
    for s in trees_up_to_height(in1, depth):
        got1, done1 = enumerate_outputs(d1, s)
        got2, done2 = enumerate_outputs(d2, s)
        if not (done1 and done2):
            raise NotApplicable("enumeration budget exhausted on %s"
                                % s.render())
        if got1 != got2:
            return Witness(s, _smallest_difference(got1, got2),
                           _smallest_difference(got2, got1))
    return Equal(depth)


# ---------------------------------------------------------------------------
# the verdict

def _two_outputs(d, s, budget):
    # A shallow probe: with a productive cycle present, full enumeration
    # would chase ever-growing forms, so give up early.  Finding fewer
    # than two outputs here just leaves the cycle verdict standing.
    probe = StepBudget(max_steps=min(budget.max_steps, 400))
    outs, _ = enumerate_outputs(d, s, probe)
    if len(outs) < 2:
        return None
    ordered = sorted(outs, key=canonical_key)
    return ordered[0], ordered[1]


def is_functional(a, budget=None):
    """Functionality verdict for an att, or an att behind look-around,
    with word-shaped output.

    A productive cycle is looked for first; it upgrades to a two-output
    NotFunctional witness whenever some derivation over the same input
    actually finishes twice, and stands as the verdict otherwise (the
    pair comparison below assumes cycle-freeness).  Then the two
    annotated copies are compared on all inputs up to the budget depth;
    a disagreement projects to two outputs of a on the underlying input.
    Exhausting both checks yields FunctionalUpTo(depth)."""
    budget = FunctionalityBudget.coerce(budget)
    if isinstance(a, PairedSpec):
        return _pair_functional(a, budget)
    if not check_monadic(a):
        raise NotApplicable("output of %r is not monadic; the functionality "
                            "check needs word output" % a.name)
    cyc = detect_productive_cycle(a, budget)
    if cyc is not None:
        two = _two_outputs(a, cyc.input, budget)
        if two is not None:
            return NotFunctional(cyc.input, two[0], two[1])
        return cyc
    c1, c2 = build_annotated_pair(a)
    got = _annotated_equivalence(c1, c2, budget.depth)
    if isinstance(got, Witness):
        return NotFunctional(c1.alphabet.project(got.input),
                             got.out1, got.out2)
    return FunctionalUpTo(budget.depth)


def _pair_functional(a, budget):
    """The look-around case: the att is checked over the relabeled forms
    of the inputs the look-around accepts.  A cycle witness names the
    relabeled tree (its trace replays against the att side); a
    NotFunctional witness names the original input."""
    if a.kind != "attU":
        raise NotApplicable("is_functional expects an att or an att with "
                            "look-around, not %r" % a.kind)
    att = a.second
    if not check_monadic(att):
        raise NotApplicable("output of %r is not monadic; the functionality "
                            "check needs word output" % att.name)
    back = {}
    inputs = []
    for s in trees_up_to_height(a.input_alphabet, budget.depth):
        got, _ = enumerate_outputs(a.first, s)
        for relabeled in got:
            if relabeled not in back:
                back[relabeled] = s
                inputs.append(relabeled)
    for r in inputs:
        trace = _cycle_on(att, r)
        if trace is not None:
            two = _two_outputs(a, back[r], budget)
            if two is not None:
                return NotFunctional(back[r], two[0], two[1])
            return ProductiveCycle(input=r, trace=tuple(trace))
    c1, c2 = build_annotated_pair(att)
    got = _annotated_equivalence(c1, c2, budget.depth, inputs=inputs)
    if isinstance(got, Witness):
        return NotFunctional(back[c1.alphabet.project(got.input)],
                             got.out1, got.out2)
    return FunctionalUpTo(budget.depth)
