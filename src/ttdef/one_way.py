"""One-way word transducers folded from samples, and pump certificates.

The oracle in word_transducers decides on the accepted words up to a
length.  synthesize folds a sample of the two-way machine's outputs on
them into a deterministic one-way machine, in the style of OSTIA
(Oncina, Garcia and Vidal 1993): first the shortest words, a quarter of
them at most, and all of them only when that fold or its candidate
fails.  restrict_to_language cuts the candidate down to the
correspondence language.  verify checks it against the language and
against the machine on every accepted word up to the length, exactly
and with no word built: it walks joint classes of suffixes, keyed by
automaton state, crossing summary (semantics.Crossings) and candidate
outputs.  When no candidate fits, pump_search looks for a pump
certificate: a loop whose pumped outputs no one-way machine produces.
"""

from dataclasses import dataclass

from .model import TdttRule, TdttSpec, call_label
from .semantics import _chain_tree
from .trees import breadth_first, path_to


@dataclass(frozen=True)
class PumpCertificate:
    """Sampled evidence against one-way realizability, which replays.

    The certificate tests the outputs on u a^n v at the sampled counts
    (1 to 4) against the shape p x^n s_v, p and x shared across the
    suffixes v.  kind "affine" exhibits one suffix whose sampled outputs
    admit no such split; kind "shared_prefix" exhibits two suffixes
    whose outputs grow while their common prefix stays fixed, leaving
    no room for a shared p x^n.  That shape is not forced from n = 1:
    a one-way machine may run a transient through its first
    iterations, and only from some count on does each iteration repeat
    one state's loop output.  Sampled counts inside that transient can
    break the shape, so a certificate is evidence, not a proof: the
    definable att W107 of the tests gets an "affine" certificate this
    way, its outputs hkc, hkhkc, hkhkc, hkhkc at counts 1 to 4.
    """
    kind: str
    prefix: tuple
    loop: tuple
    suffixes: tuple
    counts: tuple
    outputs: tuple


def _lcp(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return a[:n]


def _onward_prefixes(sample):
    """(prefixes, out): the proper prefixes of the sampled words, shortest
    first and in order within a length, and for each one below a defined
    word the longest output prefix shared by the defined words below it,
    clamped so that every word's final rule keeps at least its last
    output letter.  The empty prefix gets the empty output, since a
    one-way machine emits nothing before its first letter.  Words and
    prefixes merge into their parents one length at a time, each once; a
    rejected word only adds its prefixes, and each length's prefixes are
    sorted once."""
    words = {}
    for w, o in sample.items():
        words.setdefault(len(w), []).append(
            (w, None if o is None else (o, len(o) - 1)))
    out, up, levels = {}, {}, []
    for n in range(max(words, default=0), 0, -1):
        level, up = up, {}
        for p, got in words.get(n, []) + list(level.items()):
            parent = p[:-1]
            have = up.get(parent)
            if have is None or got is None:
                up[parent] = have or got
            else:
                up[parent] = _lcp(have[0], got[0]), min(have[1], got[1])
        out.update((p, got[0][:got[1]] if p else ()) for p, got in up.items()
                   if got is not None)
        levels.append(sorted(up))
    return [p for level in reversed(levels) for p in level], out


_REJECT = object()
_ABSENT = object()


def synthesize(sample, enc, out_alpha, name, bound):
    """Deterministic one-way machine folded from the sample.

    sample maps words to output tuples, or to None for words the
    machine must reject.  The oracle passes its shortest accepted
    words, a quarter of them at most, and all of them only when the
    candidate folded from that sample fails verify.  Prefix-tree nodes
    merge into the first earlier state they never contradict: output
    chunks must agree per shared letter, and an output can never meet a
    rejection.  Edges no defined word crosses carry no output evidence;
    they are left out of the machine, which rejects by omission.
    Returns (machine, None) or (None, reason) when the fold needs more
    than bound states.
    """
    if not sample:
        return TdttSpec(name=name, input=enc, output=out_alpha, init="s0",
                        rules=()), None
    prefixes, out = _onward_prefixes(sample)
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
            rhs = _chain_tree(chunk, call_label(state_name[find(child)], 1))
            rules.append(TdttRule(state_name[r], letter, rhs))
        for leaf in sorted(terms[r]):
            chunk = terms[r][leaf]
            if chunk is _REJECT:
                continue
            rules.append(TdttRule(state_name[r], leaf,
                                  _chain_tree(chunk[:-1], chunk[-1])))
    return TdttSpec(name=name, input=enc, output=out_alpha,
                    init=state_name[find(0)], rules=tuple(rules)), None


def _word_steps(cand):
    """The rule table of a one-way machine read letter by letter:
    (state, letter) -> (output chunk, next state), the next state None
    for a rule that ends the word."""
    steps = {}
    for key, (rhs,) in cand.rule_table.items():
        label, last = rhs[-1]
        chunk = tuple(l for l, _ in rhs[:-1])
        steps[key] = (chunk, last[0]) if label is None \
            else (chunk + (label,), None)
    return steps


def _not_word_shaped(cand):
    """Why the candidate is no deterministic one-way machine, or None:
    every right-hand side must be a chain that ends in an output leaf or
    in a call into child 1."""
    if not cand.deterministic:
        return "one-way machine has two rules for one left-hand side"
    for (q, letter), (rhs,) in cand.rule_table.items():
        label, last = rhs[-1]
        ends = last == 0 if label is not None else last[1] == 1
        if not ends or any(rank != 1 for _, rank in rhs[:-1]):
            return "rule for %s/%s is not word shaped" % (q, letter)
    return None


def _language_product(init, steps, aut):
    """The product of a one-way machine with the word language, searched
    by breadth_first over pairs (machine state, set of automaton states
    that still climb to a final): a letter moves the machine by its
    steps and the set to the states that climb into it.  Starts from
    (init, final states).  Returns the leaf states of the automaton, the
    breadth_first map of the pairs with letters for edges, so that
    path_to gives a shortest word to each, and the arrows (pair, letter,
    pair) in the order found."""
    up = {}
    leafst = {}
    for r in aut.rules:
        if r.child_states:
            up[(r.symbol, r.child_states[0])] = r.state
        else:
            leafst[r.symbol] = r.state
    moves = {}
    for (q, letter), (_, q2) in steps.items():
        if q2 is not None:
            moves.setdefault(q, []).append((letter, q2))
    states = aut.states
    arrows = []

    def successors(node):
        q, down = node
        for letter, q2 in sorted(moves.get(q, ())):
            key = (q2, frozenset(l for l in states
                                 if up.get((letter, l)) in down))
            arrows.append((node, letter, key))
            yield letter, key
    parent = breadth_first([(init, frozenset(aut.final))], successors)
    return leafst, parent, arrows


def restrict_to_language(cand, aut):
    """Product of the candidate with the word language: a leaf rule
    survives only where the automaton accepts, and states that cannot
    reach an accepting leaf are dropped, so the machine rejects by
    omission everywhere outside the language.  The states kept are those
    a breadth_first search back over the arrows reaches from the
    accepting pairs, named t0, t1, ... in the order the product found
    them."""
    steps = _word_steps(cand)
    leafst, pairs, arrows = _language_product(cand.init, steps, aut)
    ends = {}
    for (q, leaf), (chunk, q2) in steps.items():
        if q2 is None:
            ends.setdefault(q, []).append((leaf, chunk))
    accepts = {(q, down): [(leaf, chunk) for leaf, chunk in
                           sorted(ends.get(q, ()))
                           if leafst.get(leaf) in down]
               for q, down in pairs}
    back = {}
    for src, letter, dst in arrows:
        back.setdefault(dst, []).append((letter, src))
    alive = breadth_first([node for node, acc in accepts.items() if acc],
                          lambda node: back.get(node, ()))
    start = (cand.init, frozenset(aut.final))
    if start not in alive:
        return TdttSpec(name=cand.name, input=cand.input, output=cand.output,
                        init="t0", rules=())
    name_of = {}
    for node in pairs:
        if node in alive:
            name_of[node] = "t%d" % len(name_of)
    rules = []
    for node in name_of:
        for leaf, chunk in accepts[node]:
            rules.append(TdttRule(name_of[node], leaf,
                                  _chain_tree(chunk[:-1], chunk[-1])))
    for src, letter, dst in arrows:
        if src in alive and dst in alive:
            rhs = _chain_tree(steps[src[0], letter][0],
                              call_label(name_of[dst], 1))
            rules.append(TdttRule(name_of[src], letter, rhs))
    return TdttSpec(name=cand.name, input=cand.input, output=cand.output,
                    init=name_of[start], rules=tuple(rules))


def _dom_within(cand, aut, steps):
    """A shortest word the candidate accepts outside the automaton's
    language, or None.  Exact for all lengths: the product search covers
    every pair the candidate and the language can reach together."""
    leafst, pairs, _ = _language_product(cand.init, steps, aut)
    for q, down in pairs:
        for leaf in sorted(l for (p, l), (_, q2) in steps.items()
                           if p == q and q2 is None):
            if leafst.get(leaf) not in down:
                return tuple(path_to(pairs, (q, down))) + (leaf,)
    return None


def verify(cand, machine, aut, length, work):
    """None when the candidate matches the machine on every accepted
    word up to the length and never accepts outside the correspondence
    language; otherwise a failure report, naming the first failing word
    in sorted order.

    machine holds the two-way machine's crossing summaries
    (semantics.Crossings): summary(c, below) is the summary of c.w over
    below, the summary of w or () for the empty w, and output(c, below,
    word) the machine's output on word = c.w.  The accepted words are
    walked as joint classes of suffixes, one length at a time.  The key
    of a suffix w is the automaton's state on w, the summary of w and
    the candidate's output from each of its states on w.  The key of
    c.w is a function of c and the key of w, and so are the machine's
    output on c.w and the candidate's (the chunk of its step on c, then
    its output on w from the state it steps to).  So one check per
    (letter, class) pair covers every word of the pair exactly, whatever
    the length, and the least of them is c followed by the least word of
    the class.  work counts the classes walked and the pairs checked."""
    why = _not_word_shaped(cand)
    if why is not None:
        return {"reason": why}
    steps = _word_steps(cand)
    stray = _dom_within(cand, aut, steps)
    if stray is not None:
        return {"reason": "candidate accepts a word outside the "
                          "correspondence language", "word": list(stray)}
    moves = {}      # state below (None for none) -> [(letter, state)]
    for r in aut.rules:
        moves.setdefault(r.child_states[0] if r.child_states else None,
                         []).append((r.symbol, r.state))
    final = frozenset(aut.final)
    states = sorted({q for q, _ in steps}
                    | {q for _, q in steps.values() if q is not None})
    at = {q: i for i, q in enumerate(states)}

    def run(got, outs):
        """The candidate's output on c.w from a state whose step on c is
        got, where outs are its outputs on w, None for the empty w."""
        if got is None:
            return None
        chunk, q = got
        if q is None or outs is None:
            # a rule that ends the word fits only the empty w
            return chunk if q is None and outs is None else None
        rest = outs[at[q]]
        return None if rest is None else chunk + rest

    first = None    # (word, machine output, candidate output)
    level = {(None, (), None): ()}      # key -> least word of the class
    for n in range(1, length + 1):
        later = {}
        for (state, below, outs), least in level.items():
            for c, up in moves.get(state, ()):
                word = (c,) + least
                if up in final:
                    work["pairs"] += 1
                    want = machine.output(c, below, word)
                    got = run(steps.get((cand.init, c)), outs)
                    if got != want and (first is None or word < first[0]):
                        first = word, want, got
                if n < length:
                    key = (up, (machine.summary(c, below),),
                           tuple(run(steps.get((q, c)), outs)
                                 for q in states))
                    if key not in later or word < later[key]:
                        later[key] = word
        work["classes"] += len(later)
        level = later
    if first is None:
        return None
    word, want, got = first
    return {"reason": "candidate disagrees with the machine",
            "word": list(word),
            "machine": None if want is None else list(want),
            "candidate": None if got is None else list(got)}


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


def affine_family_ok(outs, counts=(1, 2, 3, 4)):
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


def drifts_apart(row1, row2):
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


# pump_search pumps a loop these many times, tries suffixes up to this
# length, and gives up past this many candidates
PUMP_COUNTS = (1, 2, 3, 4)
PUMP_SUFFIX_LENGTH = 3
MAX_PUMP_CANDIDATES = 20000


def pump_search(cache):
    """A pump certificate refuting one-way realizability from the cached
    outputs, or None.  Deterministic: loops, prefixes and suffixes are
    scanned in sorted order."""
    defined = {w: o for w, o in cache.items() if o is not None}
    if not defined:
        return None
    letters = sorted({c for w in cache for c in w[:-1]})
    suffixes = sorted({w[-j:] for w in defined
                       for j in range(1, min(len(w), PUMP_SUFFIX_LENGTH) + 1)})
    examined = 0
    for u in [()] + [(c,) for c in letters]:
        for a in letters:
            loop = (a,)
            rows = {}
            for v in suffixes:
                examined += 1
                if examined > MAX_PUMP_CANDIDATES:
                    return None
                outs = [defined.get(u + loop * n + v) for n in PUMP_COUNTS]
                if any(o is None for o in outs):
                    continue
                if not affine_family_ok(tuple(outs), PUMP_COUNTS):
                    return PumpCertificate("affine", u, loop, (v,),
                                           PUMP_COUNTS, (tuple(outs),))
                rows[v] = tuple(outs)
            vs = sorted(rows)
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    examined += 1
                    if examined > MAX_PUMP_CANDIDATES:
                        return None
                    if drifts_apart(rows[vs[i]], rows[vs[j]]):
                        return PumpCertificate("shared_prefix", u, loop,
                                               (vs[i], vs[j]), PUMP_COUNTS,
                                               (rows[vs[i]], rows[vs[j]]))
    return None
