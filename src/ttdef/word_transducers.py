"""Word transducers over the monadic prefix encoding.

A tree whose symbols all have rank at most one is a word, read from the
root to the leaf.  Prefixes of ranked trees become such words: the
letter sym@i says "this node is sym, continue in child i", and a rank-0
letter ends the word.  On these words a reduced att behaves like a
two-way transducer.  This module builds that machine, decides at desk
scale whether an equivalent one-way (single left-to-right pass) machine
exists, with the fold and the pump certificates of one_way, and converts
a one-way machine back into a top-down tree transducer over the original
alphabet.
"""

from dataclasses import asdict, dataclass, field
from itertools import islice

from .constructions import normalize_ground_rhs
from .errors import NotApplicable, NotFunctionalInput, SpecSyntaxError
from .model import (ROOT, AttRule, AttSpec, RelabelingRule, RelabelingSpec,
                    TdttRule, TdttSpec, call_info, call_label, fresh_name,
                    mangle_child, mangle_parts, occ_pattern,
                    split_mangled_child)
from .one_way import (PumpCertificate, affine_family_ok, drifts_apart,
                      pump_search, restrict_to_language, synthesize, verify)
from .semantics import (Crossings, Output, _chain_tree, _check_lsi,
                        enumerate_outputs, evaluate, tree_of)
from .trees import RankedAlphabet, Tree


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
    shortest first, lexicographic within a length.  A level is built
    only once every word of the level before it has been taken."""
    moves = {}
    for r in aut.rules:
        if len(r.child_states) == 1:
            moves.setdefault(r.symbol, {})[r.child_states[0]] = r.state
    moves = sorted(moves.items())
    final = frozenset(aut.final)
    level = sorted(((r.symbol,), r.state)
                   for r in aut.rules if not r.child_states)
    for length in range(1, max_length + 1):
        if length > 1:
            # words are unique per level (the automaton is deterministic)
            # and the level is sorted, so letter by letter stays sorted
            level = [((c,) + w, up[state]) for c, up in moves
                     for w, state in level if state in up]
        if not level:
            return
        for w, state in level:
            if state in final:
                yield w, state


# ---------------------------------------------------------------------------
# the two-way machine

@dataclass
class TwoWayWord:
    """Two-way word machine: an att over a monadic encoding alphabet.

    correspondence runs leaf to root over the same letters and accepts
    the words encoding prefixes of relabeled trees; the machine is
    undefined outside that language.
    """
    name: str
    att: AttSpec
    correspondence: RelabelingSpec


def build_two_way(h):
    """Two-way word machine running the associated att along encoded paths.

    Three attribute phases share the word.  A fresh synthesized
    attribute descends from the root to the leaf letter.  There it turns
    into the leaf's automaton state, and the states climb back up as
    inherited attributes, replaying the correspondence automaton.  When
    a final state reaches the root marker it hands over to the att's
    initial attribute; the att rules' chains are projected per letter,
    keeping a rule under sym@i only if child i is the only child it
    mentions and redirecting that child to the single successor.  Words the
    correspondence automaton rejects strand the climb, so the machine's
    domain stays inside the correspondence language.
    """
    a = normalize_ground_rhs(h.att)
    if not a.walks_on_table:
        raise NotApplicable("%r is not deterministic with monadic output; "
                            "a word machine needs both" % a.name)
    bbar = _trimmed(range_automaton(h.relabeling))
    words = build_correspondence_automaton(bbar)
    taken = set(a.attributes)
    dn = fresh_name("dn", taken)
    states = bbar.states
    up = {l: fresh_name(mangle_parts("up", (l,)), taken) for l in states}
    # one right-hand side object per distinct value, so that the word
    # machine's rule_table looks each up by value once, and one rule per
    # distinct projection and climb
    down = AttRule(dn, 0, Tree(occ_pattern(dn, 1)))
    climb = {l: Tree(occ_pattern(up[l], 0)) for l in states}
    moves = {}      # letter -> {child states: the word rule's state}
    for wr in words.rules:
        moves.setdefault(wr.symbol, {})[wr.child_states] = wr.state
    chains = {}
    projected = {}  # (attr, pos, chain, child index) -> AttRule or None
    climbs = {}     # (child state, state) -> AttRule
    rules = {}
    for sym, k in h.relabeling.output.items():
        if k == 0:
            bucket = list(a.rules_at(sym))
            state = moves.get(sym, {}).get(())
            if state is not None:
                bucket.append(AttRule(dn, 0, climb[state]))
            if bucket:
                rules[sym] = tuple(bucket)
            continue
        for i in range(1, k + 1):
            letter = mangle_child(sym, i)
            bucket = []
            for r in a.rules_at(sym):
                chain = a.rule_table[sym, r.attr, r.pos][0]
                key = r.attr, r.pos, chain, i
                if key not in projected:
                    projected[key] = _project(r, chain, i, chains)
                if projected[key] is not None:
                    bucket.append(projected[key])
            bucket.append(down)
            step = moves.get(letter, {})
            for l in states:
                state = step.get((l,))
                if state is not None:
                    if (l, state) not in climbs:
                        climbs[l, state] = AttRule(up[l], 1, climb[state])
                    bucket.append(climbs[l, state])
            rules[letter] = tuple(bucket)
    root = list(a.rules_at(ROOT))
    start = Tree(occ_pattern(a.init, 1))
    for l in bbar.final:
        root.append(AttRule(up[l], 1, start))
    rules[ROOT] = tuple(root)
    att = AttSpec(name=h.name + "_walk", input=words.input, output=a.output,
                  syn=a.syn + (dn,),
                  inh=a.inh + tuple(up[l] for l in states),
                  init=dn, rules=rules)
    return TwoWayWord(name=h.name + "_walk", att=att, correspondence=words)


def _project(r, chain, i, chains):
    """The rule r, whose right-hand side is chain, on letter sym@i: kept
    only if child i is the only child it mentions, that child becoming
    the letter's single successor; None otherwise.  chains keeps one
    right-hand side object per (labels, end)."""
    labels, tip, leaf = chain
    if r.pos not in (0, i) or (tip is not None and tip[1] not in (0, i)):
        return None
    end = leaf if tip is None else occ_pattern(tip[0], min(tip[1], 1))
    if (labels, end) not in chains:
        chains[labels, end] = _chain_tree(labels, end)
    return AttRule(r.attr, min(r.pos, 1), chains[labels, end])


# ---------------------------------------------------------------------------
# one-way definability

@dataclass(frozen=True)
class DefinabilityBudget:
    """Bounds for one_way_definability.  The candidate is verified on
    every accepted word up to verify_length, and at most max_words of
    them.  The fold's first sample is the shortest of those words, a
    quarter of them at most, and all of them are folded only when that
    sample fails; either fold stops past state_bound states.  Words are
    read over crossing summaries, which settle every walk however long,
    so no step budget binds."""
    verify_length: int = 10
    state_bound: int = 16
    max_words: int = 150000

    @classmethod
    def coerce(cls, budget):
        if budget is None:
            return cls()
        if isinstance(budget, cls):
            return budget
        raise SpecSyntaxError("budget must be a DefinabilityBudget")


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


def _eval_word(tw, word):
    """Output labels of the machine on the word, walked from scratch;
    None when undefined or when the default step budget runs out."""
    s = tree_of(word)
    if tw.att.deterministic:
        got = evaluate(tw.att, s)
        return word_of(got.tree) if isinstance(got, Output) else None
    outs, _ = enumerate_outputs(tw.att, s)
    if len(outs) > 1:
        raise NotFunctionalInput("machine %r yields %d outputs on %s"
                                 % (tw.name, len(outs), s.render()))
    return word_of(outs.pop()) if outs else None


class _SuffixSummaries(Crossings):
    """Crossing summaries (semantics.Crossings) of the suffixes of a
    machine's words, kept by suffix.

    A word is a tree whose letters have one child and whose last letter
    has none, so the output on c.w is read at c over the summary of w,
    and that summary is joined at the first letter of w over the summary
    of the rest, once: a word costs one read, and only the suffixes of
    longer words are summarized.

    A suffix no caller asked for, because the automaton does not accept
    it, is summarized on demand.  built counts the summaries kept.
    """

    def __init__(self, att):
        super().__init__(att)
        self.att = att
        self.kept = {}
        self.built = 0

    def word(self, w):
        """Output labels of the machine on the word, None when undefined:
        read over the summary of w[1:], made from the longest suffix of
        it that has one, letter by letter."""
        i = 1
        while i < len(w) and w[i:] not in self.kept:
            i += 1
        got = self.kept.get(w[i:])
        for j in range(i - 1, 0, -1):
            got = self.kept[w[j:]] = self.summary(
                w[j], () if got is None else (got,))
            self.built += 1
        return self.output(w[0], () if got is None else (got,), w)

    def output(self, letter, below, word):
        """Output labels of the machine on the word, the letter over a
        suffix whose summary is below (() for none), None when undefined.
        An output past the linear bound is recorded (_check_lsi)."""
        chunk, end, name = self.read(letter, below)
        if end != "leaf":
            return None
        got = chunk + (name,)
        _check_lsi(self.att, len(word), len(got),
                   lambda: tree_of(word).render())
        return got


def _fold_lengths(counts, cache_length):
    """The word lengths the oracle folds up to, in order: the longest run
    of lengths from 1 up whose words are at most a quarter of those up
    to cache_length, then all of them.  counts[k] counts the accepted
    words of length k."""
    total = sum(counts[1:cache_length + 1])
    first = taken = 0
    for k in range(1, cache_length + 1):
        taken += counts[k]
        if 4 * taken > total:
            break
        first = k
    return sorted({first, cache_length} - {0})


def one_way_definability(tw, budget=None):
    """Decide at desk scale whether the two-way machine has a one-way
    equivalent.

    The fold (synthesize) first reads a sample: the shortest accepted
    words, a quarter at most of those up to the length the word budget
    affords, and at most verify_length (_fold_lengths).  Words are read
    one by one over suffix summaries (_SuffixSummaries), from one
    accepted_words generator taken no further than a fold needs.  A
    candidate must never accept outside the correspondence language (all
    lengths), and must match the machine on every accepted word up to
    the length: verify checks this exactly on joint suffix classes, with
    no word built.  Success is Definable with verify_length, or Unknown
    naming the length reached when the word budget stopped short of it.
    Only when the sample's fold or candidate fails is the rest of the
    words read, each once, for the fold of all of them and then for
    pump_search; a replayable pump certificate gives NotDefinable.
    Everything else is Unknown with a report.

    The report counts the accepted words (words), the summaries kept
    (summaries), the plans and reads compiled (plans), and the classes
    walked and pairs checked by verify (classes, pairs).  It names the
    sample the candidate was folded from (folded_length, folded_words)
    and the failed folds (synthesis).  The result is a pure function of
    the machine and the budget.  A machine that does not walk on its
    rule table has no summaries and is refused (NotApplicable).
    """
    if not tw.att.walks_on_table:
        raise NotApplicable("%r is not deterministic with monadic output; "
                            "the oracle reads its words over crossing "
                            "summaries" % tw.name)
    budget = DefinabilityBudget.coerce(budget)
    report = {"budget": asdict(budget)}
    if budget.verify_length <= 0 or budget.max_words <= 0:
        report["reason"] = "no word budget"
        return Unknown(report)
    aut = tw.correspondence
    counts = accepted_counts(aut, budget.verify_length)
    cumulative = 0
    cache_length = 0
    for k in range(1, budget.verify_length + 1):
        if cumulative + counts[k] > budget.max_words:
            break
        cumulative += counts[k]
        cache_length = k
    if cache_length == 0:
        report["reason"] = "word budget too small for any length"
        return Unknown(report)
    report["words"] = cumulative
    report["cache_length"] = cache_length
    summaries = _SuffixSummaries(tw.att)
    words = accepted_words(aut, cache_length)
    cache = {}      # the words read so far, shortest first
    report.update(classes=0, pairs=0)

    def done(verdict):
        report["summaries"] = summaries.built
        report["plans"] = len(summaries.plans) + len(summaries.reads)
        return verdict
    failures = []
    for length in _fold_lengths(counts, cache_length):
        folded = sum(counts[1:length + 1])
        for w, _ in islice(words, folded - len(cache)):
            cache[w] = summaries.word(w)
        sampled = {"folded_length": length, "folded_words": folded}
        cand, why = synthesize(cache, aut.input, tw.att.output,
                               tw.name + "_1way", budget.state_bound)
        if cand is None:
            failures.append(dict(sampled, reason=why))
            continue
        cand = restrict_to_language(cand, aut)
        failure = verify(cand, summaries, aut, cache_length, report)
        if failure is None:
            report.update(sampled)
            if failures:
                report["synthesis"] = failures
            if cache_length < budget.verify_length:
                report["reason"] = ("word budget reached length %d of the "
                                    "requested %d" % (cache_length,
                                                      budget.verify_length))
                return done(Unknown(report))
            return done(Definable(cand, cache_length, report))
        failures.append(dict(failure, **sampled))
    report["synthesis"] = failures
    for w, _ in words:
        cache[w] = summaries.word(w)
    cert = pump_search(cache)
    if cert is not None:
        return NotDefinable(cert)
    report["reason"] = "no candidate verified and no pump refutation found"
    return done(Unknown(report))


def replay_certificate(tw, cert):
    """Recompute every pumped output and re-run the violated check; True
    iff the certificate still refutes one-way realizability."""
    rows = []
    for v in cert.suffixes:
        row = []
        for n in cert.counts:
            got = _eval_word(tw, tuple(cert.prefix) + tuple(cert.loop) * n
                             + tuple(v))
            if got is None:
                return False
            row.append(got)
        rows.append(tuple(row))
    if tuple(rows) != tuple(cert.outputs):
        return False
    if cert.kind == "affine":
        return not affine_family_ok(rows[0], tuple(cert.counts))
    if cert.kind == "shared_prefix":
        return len(rows) == 2 and drifts_apart(rows[0], rows[1])
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

def back_convert(to, base):
    """Top-down tree transducer induced on base, the ranked alphabet
    to's letters encode (encoding_alphabet): a rule reading sym@i becomes
    a rule reading sym that sends its single call into child i; leaf
    rules carry over verbatim.  Distinct letters of one symbol may leave
    rules with equal left-hand sides, so the result can be
    nondeterministic."""
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
