"""Word transducers over the monadic prefix encoding.

A tree whose symbols all have rank at most one is a word, read from the
root to the leaf.  Prefixes of ranked trees become such words: the
letter sym@i says "this node is sym, continue in child i", and a rank-0
letter ends the word.  On these words a reduced att behaves like a
two-way transducer.  This module builds that machine, decides at desk
scale whether an equivalent one-way (single left-to-right pass) machine
exists, and converts a one-way machine back into a top-down tree
transducer over the original alphabet.
"""

from dataclasses import asdict, dataclass, field

from .constructions import normalize_ground_rhs
from .errors import (NoSuchNode, NotApplicable, NotFunctionalInput,
                     SpecSyntaxError)
from .model import (ROOT, AttRule, AttSpec, RelabelingRule, RelabelingSpec,
                    TdttRule, TdttSpec, call_info, call_label, check_monadic,
                    fresh_name, mangle_child, mangle_parts, occ_pattern,
                    occ_pattern_info, split_mangled_child)
from .semantics import (BudgetExhausted, Output, Reject, StepBudget,
                        enumerate_outputs, evaluate, run_relabeling)
from .trees import HOLE, RankedAlphabet, Tree, format_address


# ---------------------------------------------------------------------------
# prefix encoding

def encoding_alphabet(base):
    """Rank-1 letters sym@i for every rank-k >= 1 symbol and child i, plus
    the rank-0 symbols unchanged."""
    pairs = []
    for sym, k in base.items():
        if k == 0:
            pairs.append((sym, 0))
        else:
            pairs.extend((mangle_child(sym, i), 1) for i in range(1, k + 1))
    return RankedAlphabet(pairs)


def base_of_encoding(enc):
    """The ranked alphabet a monadic encoding alphabet was built from."""
    ranks = {}
    order = []
    for sym, k in enc.items():
        if k == 0:
            base, i = sym, 0
        else:
            info = split_mangled_child(sym)
            if info is None or info[1] < 1:
                raise SpecSyntaxError(
                    "letter %r does not name a symbol and child" % sym)
            base, i = info
        if base not in ranks:
            ranks[base] = i
            order.append(base)
        elif (ranks[base] == 0) != (i == 0):
            raise SpecSyntaxError("symbol %r is both a leaf and ranked" % base)
        else:
            ranks[base] = max(ranks[base], i)
    for base, k in ranks.items():
        for i in range(1, k + 1):
            if mangle_child(base, i) not in enc:
                raise SpecSyntaxError(
                    "letter %s is missing from the encoding" % mangle_child(base, i))
    return RankedAlphabet([(b, ranks[b]) for b in order])


def encode_prefix(s, path):
    """Word for the root-to-leaf walk of s along the given address.

    Each step into child i of a sym node contributes the letter sym@i;
    the addressed node must be a leaf and ends the word.  Subtrees off
    the path are forgotten (they become the holes of the decoded
    prefix).
    """
    labels = []
    node = s
    for depth, i in enumerate(path):
        if not 1 <= i <= len(node.children):
            raise NoSuchNode("no child %d at address %s"
                             % (i, format_address(tuple(path[:depth]))))
        labels.append(mangle_child(node.label, i))
        node = node.children[i - 1]
    if node.children:
        raise NoSuchNode("the path stops at inner node %r; prefix words "
                         "end at a leaf" % node.label)
    word = Tree(node.label)
    for lab in reversed(labels):
        word = Tree(lab, [word])
    return word


def decode_prefix(stilde, base):
    """Prefix tree the word encodes: the retained child per letter, hole
    leaves everywhere else."""
    word = word_of(stilde)
    if word[-1] not in base or base.rank(word[-1]) != 0:
        raise SpecSyntaxError("word ends in %r, which is not a leaf symbol"
                              % word[-1])
    t = Tree(word[-1])
    for letter in reversed(word[:-1]):
        info = split_mangled_child(letter)
        if info is None:
            raise SpecSyntaxError(
                "letter %r does not name a symbol and child" % letter)
        sym, i = info
        k = base.rank(sym)
        if not 1 <= i <= k:
            raise NoSuchNode("symbol %r has no child %d" % (sym, i))
        t = Tree(sym, [t if j == i else Tree(HOLE) for j in range(1, k + 1)])
    return t


def word_of(t):
    """Labels of a monadic tree, root to leaf."""
    labels = []
    node = t
    while True:
        labels.append(node.label)
        if not node.children:
            return tuple(labels)
        if len(node.children) != 1:
            raise SpecSyntaxError("node %r branches; not a word" % node.label)
        node = node.children[0]


def tree_of(word):
    t = Tree(word[-1])
    for lab in reversed(word[:-1]):
        t = Tree(lab, [t])
    return t


# ---------------------------------------------------------------------------
# range and correspondence automata

def range_automaton(b):
    """Bottom-up automaton over b's output alphabet accepting exactly its
    relabeled images; the rule writing sym from child states l1..lk keeps
    the same target state."""
    rules = []
    seen = {}
    for r in b.rules:
        key = (r.out_symbol, r.child_states)
        if key in seen:
            if seen[key] != r.state:
                raise NotApplicable(
                    "two relabeling rules write %s from the same child states "
                    "into different states; the range automaton would be "
                    "nondeterministic" % r.out_symbol)
            continue
        seen[key] = r.state
        rules.append(RelabelingRule(r.out_symbol, r.child_states, r.state,
                                    r.out_symbol))
    return RelabelingSpec(name=b.name + "_range", input=b.output,
                          output=b.output, final=b.final, rules=tuple(rules))


def _trimmed(aut):
    """Drop states whose language is empty, and every rule touching them."""
    alive = set()
    changed = True
    while changed:
        changed = False
        for r in aut.rules:
            if r.state not in alive and all(c in alive for c in r.child_states):
                alive.add(r.state)
                changed = True
    rules = tuple(r for r in aut.rules
                  if r.state in alive and all(c in alive for c in r.child_states))
    final = tuple(l for l in aut.final if l in alive)
    if len(rules) == len(aut.rules) and len(final) == len(aut.final):
        return aut
    return RelabelingSpec(name=aut.name, input=aut.input, output=aut.output,
                          final=final, rules=rules)


def build_correspondence_automaton(range_aut):
    """Word automaton with one letter per (symbol, retained child).

    The tree rule sym(l1..lk) -> l lifts to sym@i(li) -> l for each child
    index i; leaf rules carry over.  Run leaf to root on a word, it
    accepts exactly the encodings of prefixes of accepted trees, because
    the dropped sibling states all have inhabitants after trimming.
    """
    aut = _trimmed(range_aut)
    enc = encoding_alphabet(aut.input)
    rules = []
    trans = {}
    for r in aut.rules:
        if not r.child_states:
            rules.append(RelabelingRule(r.symbol, (), r.state, r.symbol))
            continue
        for i, li in enumerate(r.child_states, start=1):
            letter = mangle_child(r.symbol, i)
            prev = trans.get((letter, li))
            if prev is None:
                trans[(letter, li)] = r.state
                rules.append(RelabelingRule(letter, (li,), r.state, letter))
            elif prev != r.state:
                raise NotApplicable(
                    "lifting %s to words is nondeterministic: child state %s "
                    "may climb to %s or %s" % (range_aut.name, li, prev, r.state))
    return RelabelingSpec(name=range_aut.name + "_words", input=enc,
                          output=enc, final=aut.final, rules=tuple(rules))


def corresponds(stilde, range_aut):
    """Does the word encode a prefix of some tree the automaton accepts?"""
    words = build_correspondence_automaton(range_aut)
    got = run_relabeling(words, stilde)
    return not isinstance(got, Reject) and got[0] in words.final


def accepted_counts(aut, max_length):
    """counts[k] = number of accepted words of length k, for k <= max_length."""
    up = {}
    for r in aut.rules:
        if len(r.child_states) == 1:
            up.setdefault(r.child_states[0], []).append(r.state)
    state_counts = {}
    for r in aut.rules:
        if not r.child_states:
            state_counts[r.state] = state_counts.get(r.state, 0) + 1
    counts = [0] * (max_length + 1)
    for k in range(1, max_length + 1):
        counts[k] = sum(c for l, c in state_counts.items() if l in aut.final)
        nxt = {}
        for l, c in state_counts.items():
            for l2 in up.get(l, ()):
                nxt[l2] = nxt.get(l2, 0) + c
        state_counts = nxt
    return counts


def accepted_words(aut, max_length):
    """(word, root state) for every accepted word up to the length bound,
    shortest first, lexicographic within a length."""
    up = {}
    for r in aut.rules:
        if len(r.child_states) == 1:
            up[(r.symbol, r.child_states[0])] = r.state
    letters = sorted({c for c, _ in up})
    level = sorted(((r.symbol,), r.state)
                   for r in aut.rules if not r.child_states)
    length = 1
    while length <= max_length and level:
        for w, state in level:
            if state in aut.final:
                yield w, state
        nxt = []
        for c in letters:
            for w, state in level:
                state2 = up.get((c, state))
                if state2 is not None:
                    nxt.append(((c,) + w, state2))
        nxt.sort()
        level = nxt
        length += 1


# ---------------------------------------------------------------------------
# the two-way machine

@dataclass
class TwoWayWord:
    """Two-way word machine: an att over a monadic encoding alphabet.

    correspondence runs leaf to root over the same letters and accepts
    the words encoding prefixes of relabeled trees; the machine is
    undefined outside that language.  base is the relabeled tree
    alphabet, fillers maps each automaton state to one relabeled tree in
    it (used to complete decoded prefixes).  Hand-built machines may
    leave base, range_aut and fillers unset.
    """
    name: str
    att: AttSpec
    correspondence: RelabelingSpec
    base: RankedAlphabet = None
    range_aut: RelabelingSpec = None
    fillers: dict = None


def _child_refs(rule):
    refs = set()
    if rule.pos:
        refs.add(rule.pos)
    for _, leaf in rule.rhs.leaves():
        info = occ_pattern_info(leaf.label)
        if info and info[1]:
            refs.add(info[1])
    return refs


def _shift(rule, i):
    """The rule with every reference to child i turned into child 1."""
    def sub(t):
        info = occ_pattern_info(t.label)
        if info and info[1] == i:
            return Tree(occ_pattern(info[0], 1))
        return Tree(t.label, [sub(c) for c in t.children])
    return AttRule(rule.attr, 1 if rule.pos == i else rule.pos, sub(rule.rhs))


def build_two_way(h):
    """Two-way word machine running the associated att along encoded paths.

    Three attribute phases share the word.  A fresh synthesized
    attribute descends from the root to the leaf letter.  There it turns
    into the leaf's automaton state, and the states climb back up as
    inherited attributes, replaying the correspondence automaton.  When
    a final state reaches the root marker it hands over to the att's
    initial attribute; the att rules are projected per letter, keeping a
    rule under sym@i only if child i is the only child it mentions and
    redirecting that child to the single successor.  Words the
    correspondence automaton rejects strand the climb, so the machine's
    domain stays inside the correspondence language.
    """
    a = normalize_ground_rhs(h.att)
    if not check_monadic(a):
        raise NotApplicable("output of %r is not monadic; a word machine "
                            "needs word output" % a.name)
    bbar = _trimmed(range_automaton(h.relabeling))
    words = build_correspondence_automaton(bbar)
    taken = set(a.attributes)
    dn = fresh_name("dn", taken)
    up = {l: fresh_name(mangle_parts("up", (l,)), taken) for l in bbar.states}
    rules = {}
    for sym, k in h.relabeling.output.items():
        if k == 0:
            bucket = list(a.rules_at(sym))
            lr = words.rule_for(sym, ())
            if lr is not None:
                bucket.append(AttRule(dn, 0, Tree(occ_pattern(up[lr.state], 0))))
            if bucket:
                rules[sym] = tuple(bucket)
            continue
        for i in range(1, k + 1):
            letter = mangle_child(sym, i)
            bucket = [_shift(r, i) for r in a.rules_at(sym)
                      if _child_refs(r) <= {i}]
            bucket.append(AttRule(dn, 0, Tree(occ_pattern(dn, 1))))
            for l in bbar.states:
                wr = words.rule_for(letter, (l,))
                if wr is not None:
                    bucket.append(AttRule(up[l], 1,
                                          Tree(occ_pattern(up[wr.state], 0))))
            rules[letter] = tuple(bucket)
    root = list(a.rules_at(ROOT))
    for l in bbar.final:
        root.append(AttRule(up[l], 1, Tree(occ_pattern(a.init, 1))))
    rules[ROOT] = tuple(root)
    att = AttSpec(name=h.name + "_walk", input=words.input, output=a.output,
                  syn=a.syn + (dn,),
                  inh=a.inh + tuple(up[l] for l in bbar.states),
                  init=dn, rules=rules)
    fillers = {}
    for state, rep in h.representatives.items():
        got = run_relabeling(h.relabeling, rep)
        if not isinstance(got, Reject):
            fillers[state] = got[1]
    return TwoWayWord(name=h.name + "_walk", att=att, correspondence=words,
                      base=h.relabeling.output, range_aut=bbar, fillers=fillers)


def some_corresponding(tw, stilde):
    """One accepted tree whose encoding along some path is the word, with
    off-path branches taken from the stored fillers; None when the word
    corresponds to nothing."""
    if tw.range_aut is None or tw.fillers is None:
        raise NotApplicable("machine %r carries no range automaton" % tw.name)
    word = word_of(stilde)
    lr = tw.range_aut.rule_for(word[-1], ())
    if lr is None:
        return None
    t = Tree(word[-1])
    state = lr.state
    by_symbol = {}
    for r in tw.range_aut.rules:
        by_symbol.setdefault(r.symbol, []).append(r)
    for letter in reversed(word[:-1]):
        info = split_mangled_child(letter)
        if info is None:
            raise SpecSyntaxError(
                "letter %r does not name a symbol and child" % letter)
        sym, i = info
        pick = None
        for r in sorted(by_symbol.get(sym, ()), key=lambda r: r.child_states):
            if len(r.child_states) >= i and r.child_states[i - 1] == state \
                    and all(c in tw.fillers for j, c in enumerate(r.child_states)
                            if j != i - 1):
                pick = r
                break
        if pick is None:
            return None
        t = Tree(sym, [t if j == i - 1 else tw.fillers[c]
                       for j, c in enumerate(pick.child_states)])
        state = pick.state
    return t if state in tw.range_aut.final else None


# ---------------------------------------------------------------------------
# one-way definability

@dataclass(frozen=True)
class DefinabilityBudget:
    sample_length: int = 8
    verify_length: int = 10
    state_bound: int = 16
    max_words: int = 150000
    max_steps: int = 10000
    pump_counts: tuple = (1, 2, 3, 4)
    pump_suffix_length: int = 3
    max_pump_candidates: int = 20000

    @classmethod
    def coerce(cls, budget):
        if budget is None:
            return cls()
        if isinstance(budget, cls):
            return budget
        if isinstance(budget, int):
            return cls(sample_length=budget, verify_length=budget)
        raise SpecSyntaxError("budget must be a DefinabilityBudget or an int")


@dataclass
class Definable:
    transducer: TdttSpec
    verified_length: int
    report: dict = field(default_factory=dict)


@dataclass
class NotDefinable:
    certificate: "PumpCertificate"


@dataclass
class Unknown:
    report: dict


@dataclass(frozen=True)
class PumpCertificate:
    """Replayable refutation of one-way realizability.

    A one-way machine on u a^n v emits a fixed prefix p, then a loop
    output x per iteration, then a suffix part that depends on v alone,
    so the outputs must take the shape p x^n s_v with p and x shared
    across suffixes.  kind "affine" exhibits one suffix whose sampled
    outputs admit no such split at all; kind "shared_prefix" exhibits
    two suffixes whose outputs grow while their common prefix stays
    fixed, leaving no room for a shared p x^n.
    """
    kind: str
    prefix: tuple
    loop: tuple
    suffixes: tuple
    counts: tuple
    outputs: tuple


_EXHAUSTED = object()


def _eval_word(tw, word, budget=None):
    """Output labels of the machine on the word, None when undefined."""
    s = tree_of(word)
    if tw.att.deterministic:
        got = evaluate(tw.att, s, budget)
        if isinstance(got, Output):
            return word_of(got.tree)
        return _EXHAUSTED if isinstance(got, BudgetExhausted) else None
    outs, exhaustive = enumerate_outputs(tw.att, s, budget)
    if len(outs) > 1:
        raise NotFunctionalInput("machine %r yields %d outputs on %s"
                                 % (tw.name, len(outs), s.render()))
    if outs:
        return word_of(outs.pop())
    return None if exhaustive else _EXHAUSTED


def _lcp(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return a[:n]


def _chain(labels, tail):
    t = tail
    for lab in reversed(labels):
        t = Tree(lab, [t])
    return t


def _onward_prefixes(sample):
    """For each proper prefix of a sampled word, the longest output
    prefix shared by everything below it, clamped so that every word's
    final rule keeps at least its last output letter."""
    lcp = {}
    clamp = {}
    for w, o in sample.items():
        for j in range(len(w)):
            p = w[:j]
            lcp[p] = o if p not in lcp else _lcp(lcp[p], o)
            clamp[p] = min(clamp.get(p, len(o) - 1), len(o) - 1)
    return {p: v[:clamp[p]] for p, v in lcp.items()}


_REJECT = object()
_ABSENT = object()


def _synthesize(sample, enc, out_alpha, name, bound):
    """Deterministic one-way machine folded from the sample.

    sample maps words to output tuples, or to None for words the
    machine must reject.  Prefix-tree nodes merge into the first
    earlier state they never contradict: output chunks must agree per
    shared letter, and an output can never meet a rejection.  Edges no
    defined word crosses carry no output evidence; they are left out of
    the machine, which rejects by omission.  Returns (machine, None) or
    (None, reason) when the fold needs more than bound states.
    """
    if not sample:
        return TdttSpec(name=name, input=enc, output=out_alpha, init="s0",
                        rules=()), None
    positives = {w: o for w, o in sample.items() if o is not None}
    out = _onward_prefixes(positives)
    prefixes = {w[:j] for w in sample for j in range(len(w))}
    prefixes = sorted(prefixes, key=lambda p: (len(p), p))
    index = {p: i for i, p in enumerate(prefixes)}
    edges = [dict() for _ in prefixes]
    terms = [dict() for _ in prefixes]
    for p, i in index.items():
        if p:
            chunk = out[p][len(out[p[:-1]]):] if p in out else None
            edges[index[p[:-1]]][p[-1]] = (chunk, i)
    for w, o in sample.items():
        p = w[:-1]
        terms[index[p]][w[-1]] = _REJECT if o is None else o[len(out[p]):]
    leader = list(range(len(prefixes)))

    def find(n):
        while leader[n] != n:
            n = leader[n]
        return n

    def fold(a, b):
        log = []
        stack = [(a, b)]
        ok = True
        while stack and ok:
            x, y = find(stack[-1][0]), find(stack.pop()[1])
            if x == y:
                continue
            log.append(("leader", y, None))
            leader[y] = x
            for leaf, chunk in terms[y].items():
                have = terms[x].get(leaf, _ABSENT)
                if have is _ABSENT:
                    log.append(("term", x, leaf))
                    terms[x][leaf] = chunk
                elif have != chunk:
                    ok = False
                    break
            if not ok:
                break
            for letter, (chunk, child) in edges[y].items():
                have = edges[x].get(letter)
                if have is None:
                    log.append(("edge", x, letter))
                    edges[x][letter] = (chunk, child)
                    continue
                if have[0] is None and chunk is not None:
                    log.append(("edgeval", x, letter, have))
                    edges[x][letter] = (chunk, have[1])
                elif chunk is not None and have[0] != chunk:
                    ok = False
                    break
                stack.append((have[1], child))
        if ok:
            return True
        for entry in reversed(log):
            if entry[0] == "leader":
                leader[entry[1]] = entry[1]
            elif entry[0] == "term":
                del terms[entry[1]][entry[2]]
            elif entry[0] == "edgeval":
                edges[entry[1]][entry[2]] = entry[3]
            else:
                del edges[entry[1]][entry[2]]
        return False

    reps = []
    for n in range(len(prefixes)):
        if find(n) != n:
            continue
        for r in reps:
            if fold(r, n):
                break
        else:
            reps.append(n)
            if len(reps) > bound:
                return None, "the fold needs more than %d states" % bound
    state_name = {r: "s%d" % k for k, r in enumerate(reps)}
    rules = []
    for r in reps:
        for letter in sorted(edges[r]):
            chunk, child = edges[r][letter]
            if chunk is None:
                continue
            rhs = _chain(chunk, Tree(call_label(state_name[find(child)], 1)))
            rules.append(TdttRule(state_name[r], letter, rhs))
        for leaf in sorted(terms[r]):
            chunk = terms[r][leaf]
            if chunk is _REJECT:
                continue
            rules.append(TdttRule(state_name[r], leaf,
                                  _chain(chunk[:-1], Tree(chunk[-1]))))
    return TdttSpec(name=name, input=enc, output=out_alpha,
                    init=state_name[find(0)], rules=tuple(rules)), None


def _restrict_to_language(cand, aut):
    """Product of the candidate with the word language: a leaf rule
    survives only where the automaton accepts, and states that cannot
    reach an accepting leaf are dropped, so the machine rejects by
    omission everywhere outside the language."""
    table, leaf_table = _one_way_tables(cand)
    up = {}
    leafst = {}
    for r in aut.rules:
        if r.child_states:
            up[(r.symbol, r.child_states[0])] = r.state
        else:
            leafst[r.symbol] = r.state
    states = aut.states
    moves = {}
    ends = {}
    for (q, letter), (chunk, q2) in table.items():
        moves.setdefault(q, []).append((letter, chunk, q2))
    for (q, leaf), chunk in leaf_table.items():
        ends.setdefault(q, []).append((leaf, chunk))
    start = (cand.init, frozenset(aut.final))
    order = [start]
    seen = {start}
    arrows = []
    accepts = {}
    pos = 0
    while pos < len(order):
        q, down = order[pos]
        pos += 1
        accepts[(q, down)] = [(leaf, chunk) for leaf, chunk in
                              sorted(ends.get(q, ()))
                              if leafst.get(leaf) in down]
        for letter, chunk, q2 in sorted(moves.get(q, ())):
            down2 = frozenset(l for l in states if up.get((letter, l)) in down)
            key = (q2, down2)
            if key not in seen:
                seen.add(key)
                order.append(key)
            arrows.append(((q, down), letter, chunk, key))
    alive = {node for node, acc in accepts.items() if acc}
    changed = True
    while changed:
        changed = False
        for src, _, _, dst in arrows:
            if dst in alive and src not in alive:
                alive.add(src)
                changed = True
    if start not in alive:
        return TdttSpec(name=cand.name, input=cand.input, output=cand.output,
                        init="t0", rules=())
    name_of = {}
    for node in order:
        if node in alive:
            name_of[node] = "t%d" % len(name_of)
    rules = []
    for node in order:
        if node not in alive:
            continue
        for leaf, chunk in accepts[node]:
            rules.append(TdttRule(name_of[node], leaf,
                                  _chain(chunk[:-1], Tree(chunk[-1]))))
    for src, letter, chunk, dst in arrows:
        if src in alive and dst in alive:
            rules.append(TdttRule(name_of[src], letter,
                                  _chain(chunk, Tree(call_label(name_of[dst], 1)))))
    return TdttSpec(name=cand.name, input=cand.input, output=cand.output,
                    init=name_of[start], rules=tuple(rules))


def _one_way_tables(t):
    """Rule tables (state, letter) -> (chunk, next state) and
    (state, leaf) -> chunk of a deterministic one-way machine."""
    table = {}
    leaf_table = {}
    for r in t.rules:
        labels = []
        node = r.rhs
        call = None
        while True:
            info = call_info(node.label)
            if info is not None and not node.children:
                call = info
                break
            labels.append(node.label)
            if not node.children:
                break
            if len(node.children) != 1:
                raise NotApplicable("rule for %s/%s is not word shaped"
                                    % (r.state, r.symbol))
            node = node.children[0]
        key = (r.state, r.symbol)
        if key in table or key in leaf_table:
            raise NotApplicable("one-way machine has two rules for %s/%s"
                                % key)
        if call is None:
            leaf_table[key] = tuple(labels)
        else:
            if call[1] != 1:
                raise NotApplicable("call into child %d on a word" % call[1])
            table[key] = (tuple(labels), call[0])
    return table, leaf_table


def _run_one_way(table, leaf_table, init, word):
    q = init
    out = []
    for letter in word[:-1]:
        got = table.get((q, letter))
        if got is None:
            return None
        chunk, q = got
        out.extend(chunk)
    got = leaf_table.get((q, word[-1]))
    if got is None:
        return None
    out.extend(got)
    return tuple(out)


def _dom_within(cand, aut, table, leaf_table):
    """A word the candidate accepts outside the automaton's language, or
    None.  Exact for all lengths: the search runs the candidate forward
    against the sets of automaton states that still climb to a final."""
    up = {}
    leafst = {}
    for r in aut.rules:
        if r.child_states:
            up[(r.symbol, r.child_states[0])] = r.state
        else:
            leafst[r.symbol] = r.state
    states = aut.states
    moves = {}
    ends = {}
    for (q, letter), (_, q2) in table.items():
        moves.setdefault(q, []).append((letter, q2))
    for q, leaf in leaf_table:
        ends.setdefault(q, []).append(leaf)
    start = (cand.init, frozenset(aut.final))
    seen = {start}
    stack = [(start, ())]
    while stack:
        (q, down), path = stack.pop()
        for leaf in sorted(ends.get(q, ())):
            if leafst.get(leaf) not in down:
                return path + (leaf,)
        for letter, q2 in sorted(moves.get(q, ())):
            down2 = frozenset(l for l in states if up.get((letter, l)) in down)
            key = (q2, down2)
            if key not in seen:
                seen.add(key)
                stack.append((key, path + (letter,)))
    return None


def _verify(cand, cache, aut):
    """None when the candidate matches the cached machine behavior on
    every accepted word and never accepts outside the correspondence
    language; otherwise a failure report."""
    try:
        table, leaf_table = _one_way_tables(cand)
    except NotApplicable as err:
        return {"reason": str(err)}
    stray = _dom_within(cand, aut, table, leaf_table)
    if stray is not None:
        return {"reason": "candidate accepts a word outside the "
                          "correspondence language", "word": list(stray)}
    for w in sorted(cache):
        want = cache[w]
        got = _run_one_way(table, leaf_table, cand.init, w)
        if got != want:
            return {"reason": "candidate disagrees with the machine",
                    "word": list(w),
                    "machine": None if want is None else list(want),
                    "candidate": None if got is None else list(got)}
    return None


def _affine_ok(outs, counts=(1, 2, 3, 4)):
    """Can the outputs for the pump counts be written p x^n s?"""
    base = outs[0]
    n0 = counts[0]
    span = counts[1] - n0
    d, r = divmod(len(outs[1]) - len(base), span)
    if r or d < 0:
        return False
    for m in range(1, len(outs)):
        if len(outs[m]) - len(base) != d * (counts[m] - n0):
            return False
    if d == 0:
        return all(o == base for o in outs)
    for j in range(len(base) - d * n0 + 1):
        p, x, s = base[:j], base[j:j + d], base[j + d * n0:]
        if base != p + x * n0 + s:
            continue
        if all(outs[m] == p + x * counts[m] + s for m in range(1, len(outs))):
            return True
    return False


def _inserts_block(o1, o2):
    """Can o2 be read as o1 with one block spliced in at some position?"""
    d = len(o2) - len(o1)
    if d < 0:
        return False
    if d == 0:
        return o1 == o2
    return any(o2 == o1[:j] + o2[j:j + d] + o1[j:] for j in range(len(o1) + 1))


def _affine_family_ok(outs, counts=(1, 2, 3, 4)):
    """Affine alignment, also accepting loops a one-way machine traverses
    with period two (emitting per pair of letters).  Periods above two
    can still slip through at desk scale; the verdict stays a
    certificate about these sampled outputs."""
    if _affine_ok(outs, counts):
        return True
    if len(outs) < 4:
        return False
    d1 = len(outs[2]) - len(outs[0])
    d2 = len(outs[3]) - len(outs[1])
    return d1 == d2 and _inserts_block(outs[0], outs[2]) \
        and _inserts_block(outs[1], outs[3])


def _drifts_apart(row1, row2):
    """True when both output families grow with the pump count while
    their common prefix stays fixed; no shared p x^n can front both."""
    lcps = [len(_lcp(a, b)) for a, b in zip(row1, row2)]
    if len(set(lcps)) != 1:
        return False
    for row in (row1, row2):
        slack = [len(o) - lcps[0] for o in row]
        if any(b <= a for a, b in zip(slack, slack[1:])):
            return False
    return True


def _pump_search(cache, budget):
    """A pump certificate refuting one-way realizability from the cached
    outputs, or None.  Deterministic: loops, prefixes and suffixes are
    scanned in sorted order."""
    counts = budget.pump_counts
    defined = {w: o for w, o in cache.items() if o is not None}
    if not defined:
        return None
    letters = sorted({c for w in cache for c in w[:-1]})
    suffixes = sorted({w[-j:] for w in defined
                       for j in range(1, min(len(w), budget.pump_suffix_length) + 1)})
    examined = 0
    for u in [()] + [(c,) for c in letters]:
        for a in letters:
            loop = (a,)
            rows = {}
            for v in suffixes:
                examined += 1
                if examined > budget.max_pump_candidates:
                    return None
                outs = [defined.get(u + loop * n + v) for n in counts]
                if any(o is None for o in outs):
                    continue
                if not _affine_family_ok(tuple(outs), counts):
                    return PumpCertificate("affine", u, loop, (v,), counts,
                                           (tuple(outs),))
                rows[v] = tuple(outs)
            vs = sorted(rows)
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    examined += 1
                    if examined > budget.max_pump_candidates:
                        return None
                    if _drifts_apart(rows[vs[i]], rows[vs[j]]):
                        return PumpCertificate("shared_prefix", u, loop,
                                               (vs[i], vs[j]), counts,
                                               (rows[vs[i]], rows[vs[j]]))
    return None


def one_way_definability(tw, budget=None):
    """Decide at desk scale whether the two-way machine has a one-way
    equivalent.

    All accepted words up to a length the word budget affords are
    evaluated once.  A candidate folded from the defined words must then
    match that cache exactly and must never accept outside the
    correspondence language (checked against the automaton, all
    lengths); success is Definable with the exhausted length.  Failing
    that, a replayable pump certificate gives NotDefinable.  Everything
    else is Unknown with a report.  The result is a pure function of the
    machine and the budget.
    """
    budget = DefinabilityBudget.coerce(budget)
    report = {"budget": asdict(budget)}
    if budget.sample_length <= 0 or budget.max_words <= 0:
        report["reason"] = "no word budget"
        return Unknown(report)
    aut = tw.correspondence
    horizon = max(budget.sample_length, budget.verify_length)
    counts = accepted_counts(aut, horizon)
    cumulative = 0
    cache_length = 0
    for k in range(1, horizon + 1):
        if cumulative + counts[k] > budget.max_words:
            break
        cumulative += counts[k]
        cache_length = k
    cache_length = min(cache_length, budget.verify_length)
    if cache_length == 0:
        report["reason"] = "word budget too small for any length"
        return Unknown(report)
    step_budget = StepBudget(max_steps=budget.max_steps)
    cache = {}
    exhausted = 0
    for w, _ in accepted_words(aut, cache_length):
        got = _eval_word(tw, w, step_budget)
        if got is _EXHAUSTED:
            exhausted += 1
            got = None
        cache[w] = got
    report["words"] = len(cache)
    report["cache_length"] = cache_length
    if exhausted:
        report["budget_exhausted_words"] = exhausted
    failures = []
    sample_lengths = sorted({min(budget.sample_length, cache_length),
                             cache_length})
    for length in sample_lengths:
        sample = {w: o for w, o in cache.items() if len(w) <= length}
        cand, why = _synthesize(sample, aut.input, tw.att.output,
                                tw.name + "_1way", budget.state_bound)
        if cand is None:
            failures.append({"sample_length": length, "reason": why})
            continue
        cand = _restrict_to_language(cand, aut)
        failure = _verify(cand, cache, aut)
        if failure is None:
            if exhausted:
                report["reason"] = "evaluation budget ran out on some words"
                return Unknown(report)
            return Definable(cand, cache_length, report)
        failure["sample_length"] = length
        failures.append(failure)
    report["synthesis"] = failures
    cert = _pump_search(cache, budget)
    if cert is not None:
        return NotDefinable(cert)
    report["reason"] = "no candidate verified and no pump refutation found"
    return Unknown(report)


def replay_certificate(tw, cert):
    """Recompute every pumped output and re-run the violated check; True
    iff the certificate still refutes one-way realizability."""
    rows = []
    for v in cert.suffixes:
        row = []
        for n in cert.counts:
            got = _eval_word(tw, tuple(cert.prefix) + tuple(cert.loop) * n
                             + tuple(v))
            if got is None or got is _EXHAUSTED:
                return False
            row.append(got)
        rows.append(tuple(row))
    if tuple(rows) != tuple(cert.outputs):
        return False
    if cert.kind == "affine":
        return not _affine_family_ok(rows[0], tuple(cert.counts))
    if cert.kind == "shared_prefix":
        return len(rows) == 2 and _drifts_apart(rows[0], rows[1])
    return False


def certificate_to_json(cert):
    return {"kind": cert.kind,
            "prefix": list(cert.prefix),
            "loop": list(cert.loop),
            "suffixes": [list(v) for v in cert.suffixes],
            "counts": list(cert.counts),
            "outputs": [[list(o) for o in row] for row in cert.outputs]}


def certificate_from_json(data):
    try:
        return PumpCertificate(
            kind=data["kind"],
            prefix=tuple(data["prefix"]),
            loop=tuple(data["loop"]),
            suffixes=tuple(tuple(v) for v in data["suffixes"]),
            counts=tuple(data["counts"]),
            outputs=tuple(tuple(tuple(o) for o in row)
                          for row in data["outputs"]))
    except (KeyError, TypeError) as err:
        raise SpecSyntaxError("malformed certificate: %s" % err)


# ---------------------------------------------------------------------------
# back to trees

def back_convert(to):
    """Top-down tree transducer induced on the original alphabet: a rule
    reading sym@i becomes a rule reading sym that sends its single call
    into child i; leaf rules carry over verbatim.  Distinct letters of
    one symbol may leave rules with equal left-hand sides, so the result
    can be nondeterministic."""
    base = base_of_encoding(to.input)
    rules = []
    for r in to.rules:
        if to.input.rank(r.symbol) == 0:
            rules.append(r)
            continue
        sym, i = split_mangled_child(r.symbol)
        rules.append(TdttRule(r.state, sym, _redirect(r.rhs, i)))
    return TdttSpec(name=to.name + "_trees", input=base, output=to.output,
                    init=to.init, rules=tuple(rules))


def _redirect(rhs, i):
    info = call_info(rhs.label)
    if info is not None and not rhs.children:
        if info[1] != 1:
            raise SpecSyntaxError("call into child %d on a word" % info[1])
        return Tree(call_label(info[0], i))
    return Tree(rhs.label, [_redirect(c, i) for c in rhs.children])
