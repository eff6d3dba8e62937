"""The derivation relation, evaluation of every machine kind, and bounded
enumeration for nondeterministic ones.

Attribute derivations run over the root-marked tree #(s); node addresses in
sentential forms therefore start at 1 for the root of s, and the initial
form is a0(1). Normal forms (nf) instead run over the bare tree, so an
inherited occurrence at eps is simply stuck there and becomes a tip.

Every att derivation runs on the spec's rule table, compiled once per
spec (AttSpec.rule_table), through one step over the tree
(_occurrence_steps).  Atts have monadic output here, and an att whose
output is not monadic is refused as NotApplicable("nonmonadic"): every
right-hand side is then a chain of labels above one occurrence or an
output leaf, and so is every form, kept as its labels and its tip.  The
step numbers the nodes of the tree under its top node and keeps an
occurrence as (attr, node, pos), a synthesized attribute at its own node
and an inherited one at its parent's child slot, so that equal
occurrences are equal tuples; it gives the chains of the rules that
apply there.  A deterministic att (AttSpec.walks_on_table) takes the
first chain of each step (_walk_table): evaluate and nf keep the labels
as a list and build the output tree once at the end.  Revisiting an
occurrence certifies a cycle, which evaluate reports as NoOutput and nf
as Diverges.  nf walks the bare tree under a top node without rules,
from a given start occurrence.  A nondeterministic att takes every
chain: enumerate_outputs searches the forms (labels, tip, leaf) this
reaches, and the productive-cycle search of functionality builds its
occurrence graph from it.  An occurrence is named by its address only
where a form is written out: the tip nf sticks at, and the trace of a
productive cycle.

Every top-down transducer runs on its own table (TdttSpec.rule_table),
deterministic or not, whatever the shape of its right-hand sides: the
outputs and the rule count of each (state, subtree) are found once, so a
copying transducer does each call once, and the budgets are read off the
count of the whole run and the number of its outputs.  Labels are parsed
only when a table is built.  A pair runs its first stage and then its
second, each under the caller's budget; the top stage of a look-around
is an ordinary top-down run.

enumerate_outputs is enumerate_shared on one tree; over many trees,
enumerate_shared evaluates each distinct subtree once for as long as
its caller keeps it.  An att that walks its table keeps one crossing
summary per subtree (Crossings, Shepherdson 1959): how the walk entering
at each synthesized attribute ends inside the subtree and what it emits
there.  The walks at a node run once per label and ends of the
children's walks, as a plan that joins their chunks; the root of each
tree is read through the root marker's plan composed with its own
(Crossings.read), and so is each word of the oracle's word cache, over
the summaries of its suffixes.
A tree on which a budget could bind the att walk is walked on its own.
A relabeling keeps its run per subtree, a top-down transducer its
outputs and rule count per (state, subtree), and a pair composes its
stages.  Of a tree whose subtrees are all kept only the root is stepped.
A machine with monadic output (an att, a top-down transducer whose
output symbols all have rank <= 1, or a pair whose second stage is one
of these) gives each output as a word, the tuple of its labels with the
leaf last: a monadic top-down rule joins its labels with its call's
word.  Relabelings and other top-down transducers give trees, and a pair
hands trees from its first stage to its second.  enumerate_shared,
enumerate_outputs and run_tdtt still return trees, each built once at
that boundary; functionality.bounded_equivalence compares the words.
It first tries behaviour classes with no tree at all (_class_step): an
att's class is its crossing summary, a relabeling followed by a
deterministic monadic top-down transducer has for class its look-ahead
state with each top-down state's word and rule count, and each root
combination of classes is checked once.  It scans trees through
_shared when a machine has no class step or a combination disagrees.

No derivation here rewrites string sentential forms.  The derivations
on string forms, of atts and of top-down transducers, are kept with the
tests (tests/string_forms.py) as the references for the chain walks and
the top-down run.  On an att both give the same outcomes, budgets
included, and so they do on a deterministic top-down transducer; on a
nondeterministic one they give the same outputs when neither runs out.
"""

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import (DuplicateLhsInDeterministic, NotApplicable,
                     NotFunctionalInput)
from .model import (ROOT, AttSpec, PairedSpec, RelabelingSpec, TdttSpec,
                    check_monadic, occ_node, occ_node_info, rhs_chain)
from .trees import Tree


@dataclass(frozen=True)
class StepBudget:
    max_steps: int = 1_000_000
    max_enumeration: int = 10_000

    def __post_init__(self):
        if self.max_steps < 1 or self.max_enumeration < 1:
            raise ValueError("step budgets must be positive")


@dataclass(frozen=True)
class Output:
    tree: Tree


@dataclass(frozen=True)
class NoOutput:
    pass


@dataclass(frozen=True)
class BudgetExhausted:
    pass


@dataclass(frozen=True)
class Diverges:
    pass


@dataclass(frozen=True)
class Reject:
    pass


# Linear-size-increase violations observed by evaluate, collected so the
# test suite can assert there were none.
LSI_VIOLATIONS = []


def _check_lsi(a, input_size, output_size, render_input):
    """Record an output larger than the linear bound; render_input()
    gives the input's text, asked for only then."""
    bound = a.max_rhs_size * len(a.attributes) * input_size
    if output_size > bound:
        LSI_VIOLATIONS.append({"att": a.name, "input": render_input(),
                               "output_size": output_size, "bound": bound})


def _require_monadic(a):
    if not check_monadic(a):
        raise NotApplicable("nonmonadic")


# ---------------------------------------------------------------------------
# the occurrence step: atts with monadic output over one tree

def _flatten(s, top):
    """Nodes of top(s) as integers, 0 the top node and 1 the root of s:
    (labels, (parent, child index) per node, child nodes per node)."""
    labels, up, kids = [top], [None], [[None]]
    stack = [(s, 0, 1)]
    while stack:
        t, parent, i = stack.pop()
        n = len(labels)
        labels.append(t.label)
        up.append((parent, i))
        kids[parent][i - 1] = n
        kids.append([None] * len(t.children))
        stack.extend((c, n, j) for j, c in enumerate(t.children, start=1))
    return labels, up, kids


def _occurrence_steps(a, s, top):
    """The derivation step of the monadic att a over s under a top node
    labelled top: ROOT for #(s), None for the bare tree s, whose top has
    no rules.  Nodes are _flatten's integers, and an occurrence is the
    tuple (attr, node, pos): a synthesized attribute sits at its own
    node with pos 0, an inherited one at its parent's child slot pos, so
    a rule applies at (label of node, attr, pos) and equal occurrences
    are equal tuples.  One that top(s) has no place for, a synthesized
    attribute at the top node or at a child that does not exist, an
    inherited one at the top node, or an undeclared attribute, keeps the
    node and the slot j it was asked at as (attr, node, ~j), where no
    rule applies.  An inherited attribute at the root of the bare tree
    sits at the top's slot, and is stuck there too.

    Returns (occurrence, rules, locate, address):
    - occurrence(attr, v), the occurrence of attr at the node at address
      v of top(s), the top node at () and the root of s at (1,);
    - rules(occ), the (labels, tip, leaf) of each rule that applies at
      occ, in rule_table order: its labels, and its tip (attr, j)
      relative to occ's node or None and the output leaf; () when occ is
      stuck;
    - locate(attr, node, j), the occurrence attr(node.j), node.0 = node,
      so a tip (attr, j) of a rule at occ ends in locate(attr, occ[1], j);
    - address(occ), (attr, v) for the occurrence of attr at the node
      at address v of top(s), as occurrence(attr, v) gives it."""
    _require_monadic(a)
    table = a.rule_table
    syn, inh = frozenset(a.syn), frozenset(a.inh)
    labels, up, kids = _flatten(s, top)

    def occurrence(attr, v):
        node = 0
        for i in v:
            node = kids[node][i - 1]
        return locate(attr, node, 0)

    def rules(occ):
        return table.get((labels[occ[1]], occ[0], occ[2]), ())

    def locate(attr, node, j):
        if attr in syn:
            if j == 0:
                return (attr, node, 0) if node else (attr, 0, ~0)
            row = kids[node]
            return (attr, row[j - 1], 0) if j <= len(row) else \
                (attr, node, ~j)
        if attr in inh:
            if j:
                return attr, node, j
            return (attr,) + up[node] if node else (attr, 0, ~0)
        return attr, node, ~j

    def address(occ):
        attr, node, pos = occ
        j = pos if pos >= 0 else ~pos
        path = [j] if j else []
        while node:
            node, i = up[node]
            path.append(i)
        return attr, tuple(reversed(path))
    return occurrence, rules, locate, address


def _walk_table(a, s, max_steps, max_enumeration=None, start=None):
    """Run a on the first rule of each step (_occurrence_steps): over
    #(s) from a.init at the root of s, or, given start as (attr, address
    in s), over the bare tree s from that occurrence, under a top node
    without rules.

    Returns (kind, labels, end) with the labels emitted so far, kind one of
    "output" (end the rank-0 leaf), "stuck" (end the occurrence label
    attr(address in s) of the occurrence with no rule to apply), "silent"
    and "productive" (an occurrence came back, with no output in between
    or with some), "steps", and "enumeration" (more forms than
    max_enumeration; checked only when it is given)."""
    occurrence, rules, locate, address = _occurrence_steps(
        a, s, ROOT if start is None else None)
    occ = occurrence(a.init, (1,)) if start is None else \
        occurrence(start[0], (1,) + start[1])
    out = []
    seen = {occ: 0}    # occurrence -> output length when it was reached
    steps = 0
    while True:
        chains = rules(occ)
        if not chains:
            attr, v = address(occ)
            return "stuck", out, occ_node(attr, v[1:])
        steps += 1
        if steps > max_steps:
            return "steps", out, None
        emitted, tip, leaf = chains[0]
        out.extend(emitted)
        if tip is not None:
            occ = locate(tip[0], occ[1], tip[1])
            if occ in seen:
                return ("silent" if seen[occ] == len(out) else "productive",
                        out, None)
        if max_enumeration is not None and steps >= max_enumeration:
            return "enumeration", out, None
        if tip is None:
            return "output", out, leaf
        seen[occ] = len(out)


def _chain_tree(labels, leaf):
    """The monadic tree labels[0](labels[1](... leaf))."""
    tree = Tree(leaf)
    for label in reversed(labels):
        tree = Tree(label, (tree,))
    return tree


def tree_of(word):
    """The monadic tree of a word, its labels with the leaf last."""
    return _chain_tree(word[:-1], word[-1])


def _word_output(d):
    """Whether d has monadic output: an att, a top-down transducer whose
    output symbols all have rank <= 1, or a pair whose second stage is
    one of these.  The runs of _shared give each output of such a
    machine as a word, the tuple of its labels with the leaf last."""
    if isinstance(d, PairedSpec):
        return _word_output(d.second)
    return isinstance(d, AttSpec) or \
        isinstance(d, TdttSpec) and check_monadic(d)


def _top_down_rules(t):
    """t's rule table, each right-hand side as (calls, build): its calls
    (state, child) in preorder, and the function that gives its output
    from one output per call.  With monadic output (_word_output) a
    right-hand side is a chain, and build joins its labels with the one
    call's word or ends them in its leaf; otherwise build fills the
    right-hand side's tree (_fill)."""
    words = check_monadic(t)
    rules = {}
    for lhs, rhss in t.rule_table.items():
        compiled = []
        for rhs in rhss:
            calls = tuple(what for label, what in rhs if label is None)
            if not words:
                build = lambda choice, rhs=rhs: _fill(rhs, list(choice))
            elif calls:
                labels = tuple(label for label, _ in rhs[:-1])
                build = lambda choice, labels=labels: labels + choice[0]
            else:
                word = tuple(label for label, _ in rhs)
                build = lambda choice, word=word: word
            compiled.append((calls, build))
        rules[lhs] = tuple(compiled)
    return rules


def _top_down(rules, state, s, memo, cap):
    """(outputs, rules applied) of the runs from state on s, on the rules
    of a top-down transducer as _top_down_rules compiles them.  The
    outputs are the union, over the rules for state and the label of s,
    of every choice of one output per call of the rule, at most cap of
    them, in rule order and then in the order of the calls' outputs;
    words where the transducer has monadic output, trees otherwise.  A
    rule that gets stuck (a call with no output, or into a child s
    lacks) gives none and counts the rules applied before it, in the
    preorder the string-form run rewrites calls in; the count adds up
    the rules.  Outputs from a state on a subtree do not depend on the
    context, and copies of a call choose independently, so memo keeps
    both per (state, subtree), for one cap: an output shares the outputs
    of its calls, and a copying transducer does each call once.  On a
    deterministic table there is at most one output, and the count is
    that of its one run.  The calls not kept yet are run first, off an
    explicit stack; when all are kept, (state, s) is stepped at once."""
    key = state, s
    if key not in memo:
        stack = _unkept(rules, key, memo)
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
                continue
            todo = _unkept(rules, top, memo)
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            memo[top] = _top_down_step(rules, top, memo, cap)
        memo[key] = _top_down_step(rules, key, memo, cap)
    return memo[key]


def _unkept(rules, key, memo):
    """The calls (state, child) of the rules at key that memo lacks."""
    state, s = key
    kids = s.children
    return [(q, kids[i - 1]) for calls, _ in rules.get((state, s.label), ())
            for q, i in calls
            if 1 <= i <= len(kids) and (q, kids[i - 1]) not in memo]


def _top_down_step(rules, key, memo, cap):
    """_top_down at key, over the kept outputs of its calls.  A rule
    whose calls have one output each builds one output, without
    itertools.product."""
    state, s = key
    kids = s.children
    outs, count = {}, 0
    for calls, build in rules.get((state, s.label), ()):
        count += 1
        parts = []
        for q, i in calls:
            got, n = memo[q, kids[i - 1]] if 1 <= i <= len(kids) \
                else ((), 0)
            count += n
            if not got:
                break
            parts.append(got)
        else:
            if all(len(got) == 1 for got in parts):
                choices = [[got[0] for got in parts]]
            else:
                choices = itertools.product(*parts)
            for choice in choices:
                if len(outs) == cap:
                    break
                outs[build(choice)] = None
    return tuple(outs), count


def _fill(rhs, parts):
    """The tree of a compiled top-down right-hand side with its calls, in
    preorder, replaced by parts."""
    built = []
    for label, what in reversed(rhs):
        built.append(parts.pop() if label is None else
                     Tree(label, [built.pop() for _ in range(what)]))
    return built[0]


def nf(a, s, start, budget=None):
    """Normal form of the start form under the derivation over the bare
    tree s (no root marker), walked on a's rule table.  start is a chain
    whose tip, if it is an occurrence, sits at a node of s.  An occurrence
    with no rule to apply, the inherited one at the root of s included,
    stays as the tip of the normal form; Diverges on a detected cycle or
    past budget.max_steps."""
    budget = budget or StepBudget()
    if not a.walks_on_table:
        raise NotApplicable("att %r is not deterministic with monadic "
                            "output; nf is undefined" % a.name)
    chain = rhs_chain(start, occ_node_info)
    if chain is None:
        raise NotApplicable("the start form of nf branches")
    prefix, tip, _ = chain
    if tip is None:
        return start
    kind, labels, end = _walk_table(a, s, budget.max_steps, start=tip)
    if kind in ("output", "stuck"):
        return _chain_tree(prefix + tuple(labels), end)
    return Diverges()


def _bottom_up(s, memo, step):
    """memo[s], once memo[t] = step(t, [memo[c] for c in t.children]) is
    filled in, children first, for every subtree t of s it lacks.  The
    children not kept yet are done first, off an explicit stack; when all
    are kept, s is stepped at once."""
    if s not in memo:
        stack = [c for c in s.children if c not in memo]
        while stack:
            t = stack[-1]
            if t in memo:
                stack.pop()
                continue
            todo = [c for c in t.children if c not in memo]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            memo[t] = step(t, [memo[c] for c in t.children])
        memo[s] = step(s, [memo[c] for c in s.children])
    return memo[s]


def _relabel(b, s, memo):
    """(root state, relabeled tree) of b's run on s, or None when some
    node has no applicable rule; memo keeps that pair per subtree, so
    relabeled trees share their relabeled subtrees."""
    def step(t, below):
        if any(r is None for r in below):
            return None
        rule = b.rule_for(t.label, tuple(p for p, _ in below))
        return None if rule is None else \
            (rule.state, Tree(rule.out_symbol, [u for _, u in below]))
    return _bottom_up(s, memo, step)


def run_relabeling(b, s):
    """Deterministic bottom-up run; (root state, relabeled tree) or Reject
    when some node has no applicable rule. Final states play no role here;
    acceptance is the pairing's concern."""
    got = _relabel(b, s, {})
    return Reject() if got is None else got


def run_tdtt(t, s, budget=None):
    """The top-down run on the table (_top_down).  A nondeterministic
    machine is tolerated only while its answer on s is unambiguous, so
    two outputs are as many as the run needs."""
    budget = budget or StepBudget()
    outs, count = _top_down(_top_down_rules(t), t.init, s, {}, 2)
    if len(outs) > 1:
        raise NotFunctionalInput(
            "nondeterministic transducer %r has more than one output on %s"
            % (t.name, s.render()))
    if count > budget.max_steps:
        return BudgetExhausted()
    if not outs:
        return NoOutput()
    return Output(tree_of(outs[0]) if check_monadic(t) else outs[0])


def evaluate(d, s, budget=None):
    """Outcome of the deterministic machine d on s: Output, NoOutput, or
    BudgetExhausted.  A pair runs its first stage and then its second on
    what the first gave, each under the budget.  Nondeterministic
    machines belong to enumerate_outputs."""
    budget = budget or StepBudget()
    if isinstance(d, AttSpec):
        if not d.deterministic:
            _require_monadic(d)    # the walk's step refuses the others
            raise DuplicateLhsInDeterministic(
                "att %r is nondeterministic; use enumerate_outputs" % d.name)
        kind, labels, leaf = _walk_table(d, s, budget.max_steps)
        if kind == "output":
            tree = _chain_tree(labels, leaf)
            _check_lsi(d, s.size, tree.size, s.render)
            return Output(tree)
        return BudgetExhausted() if kind == "steps" else NoOutput()
    if isinstance(d, TdttSpec):
        return run_tdtt(d, s, budget)
    if isinstance(d, RelabelingSpec):
        got = run_relabeling(d, s)
        ok = not isinstance(got, Reject) and got[0] in d.final
        return Output(got[1]) if ok else NoOutput()
    if isinstance(d, PairedSpec):
        first = evaluate(d.first, s, budget)
        if not isinstance(first, Output):
            return first
        return evaluate(d.second, first.tree, budget)
    raise TypeError("cannot evaluate %r" % type(d).__name__)


def _search(start, successors, budget):
    seen = {start}
    stack = [start]
    outputs = set()
    steps = 0
    while stack:
        form = stack.pop()
        succ = successors(form)
        if succ is None:
            outputs.add(form)
            continue
        for nxt in succ:
            steps += 1
            if steps > budget.max_steps:
                return outputs, False
            if nxt in seen:
                continue
            if len(seen) >= budget.max_enumeration:
                return outputs, False
            seen.add(nxt)
            stack.append(nxt)
    return outputs, True


def enumerate_outputs(d, s, budget=None):
    """(all ground outputs reachable within budget, exhaustive flag):
    enumerate_shared(d, budget) on the one tree s."""
    return enumerate_shared(d, budget)(s)


def enumerate_shared(d, budget=None):
    """A function that gives, for each tree s it is called on, (all ground
    outputs of d on s reachable within budget, exhaustive flag), sharing
    work across the trees for as long as the function is kept.  The runs
    are those of _shared; where they give words, each output becomes its
    tree here, once."""
    run = _shared(d, budget or StepBudget())
    if not _word_output(d):
        return run

    def trees(s):
        words, exhaustive = run(s)
        return {tree_of(w) for w in words}, exhaustive
    return trees


def _shared(d, budget):
    """enumerate_shared's run of d, which gives each output as a word
    where d has monadic output (_word_output) and as a tree otherwise:
    - an att that walks its rule table keeps a Crossings summary per
      distinct subtree, on a tree where width * (size + 1) is at most
      max_steps and below max_enumeration, so no budget can bind, and
      reads the root through Crossings.read; any other tree is walked on
      its own (_walk_table);
    - a relabeling keeps its run per subtree, and gives trees;
    - a top-down transducer keeps its outputs and rule count per
      (state, subtree) (_top_down); a run is cut short when the count of
      the whole run is above max_steps or reaches max_enumeration, where
      the rule-by-rule run of a deterministic one would stop, or when it
      has more than max_enumeration outputs;
    - a pair runs its second stage on each tree its first gives, each
      under the budget.
    A nondeterministic att searches its chain forms (_enumerate_att),
    tree by tree; an att without monadic output is refused.  Trees may
    come in any order: of a tree whose subtrees are all kept, only the
    root is stepped.  bounded_equivalence scans trees with these runs
    only where its class route (_class_step) cannot answer: a machine
    without a class step, a budget that could bind an att's walk on the
    largest tree, or a root combination of classes that disagrees or
    does not finish; the scan then names the first such tree."""
    if isinstance(d, PairedSpec):
        first = enumerate_shared(d.first, budget)
        second = _shared(d.second, budget)

        def run(s):
            firsts, exhaustive = first(s)
            if len(firsts) == 1:
                (t,) = firsts
                got, done = second(t)
                return got, exhaustive and done
            outs = set()
            for t in firsts:
                got, done = second(t)
                outs |= got
                exhaustive = exhaustive and done
            return outs, exhaustive
        return run
    memo = {}
    if isinstance(d, RelabelingSpec):
        def run(s):
            got = _relabel(d, s, memo)
            ok = got is not None and got[0] in d.final
            return ({got[1]} if ok else set()), True
        return run
    if isinstance(d, AttSpec):
        _require_monadic(d)
        if not d.deterministic:
            return lambda s: _enumerate_att(d, s, budget)
        crossings = Crossings(d)

        def summarize(t, below):
            return crossings.summary(t.label, below)

        def run(s):
            if _fits(crossings, s.size, budget):
                return _read_outputs(crossings, s.label,
                                     [_bottom_up(c, memo, summarize)
                                      for c in s.children])
            kind, chunk, leaf = _walk_table(d, s, budget.max_steps,
                                            budget.max_enumeration)
            if kind == "output":
                return {tuple(chunk) + (leaf,)}, True
            return set(), kind in ("stuck", "silent")
        return run
    if isinstance(d, TdttSpec):
        rules = _top_down_rules(d)
        cap = budget.max_enumeration + 1

        def run(s):
            outs, count = _top_down(rules, d.init, s, memo, cap)
            if count > budget.max_steps or count >= budget.max_enumeration \
                    or len(outs) == cap:
                return set(), False
            return set(outs), True
        return run
    raise TypeError("cannot enumerate %r" % type(d).__name__)


def _fits(crossings, size, budget):
    """Whether no budget can bind the att's walk over a tree of size
    nodes: it takes at most width * (size + 1) steps (Crossings)."""
    bound = crossings.width * (size + 1)
    return bound <= budget.max_steps and bound < budget.max_enumeration


def _read_outputs(crossings, label, below):
    """(outputs as words, exhaustive flag) of the att's walk over a tree
    with the root label over children whose summaries are below."""
    chunk, end, leaf = crossings.read(label, below)
    if end == "leaf":
        return {chunk + (leaf,)}, True
    return set(), end in ("stuck", "silent")


def _class_step(d, budget, size):
    """(step, root) of d on behaviour classes, or None where d has none.

    A class stands for the subtrees it is the class of: step(label,
    below) gives the class of a node over its children's classes, and
    root(label, below) what _shared's run of d gives, under the budget,
    on every tree with that root over subtrees of those classes.  So
    one root check answers for all of them
    (functionality.bounded_equivalence).
    - An att that walks its rule table: the class of a subtree is its
      Crossings summary, and root reads it through the root marker
      (Crossings.read).  Only where no tree of up to size nodes lets a
      budget bind the walk (_fits), as _shared only then reads summaries.
    - A pair of a relabeling and a deterministic top-down transducer
      with monadic output: the class is the relabeling's state, None once
      it is stuck, and per top-down state the word it outputs on the
      relabeled subtree, None for none, and the rules applied, so that
      root reads the step budget off the initial state's count as
      _top_down's count would give it.
    A relabeling on its own, a nondeterministic att and a look-around
    pair have no class step."""
    if isinstance(d, AttSpec):
        if not d.walks_on_table:
            return None
        crossings = Crossings(d)
        if not _fits(crossings, size, budget):
            return None
        return crossings.summary, functools.partial(_read_outputs, crossings)
    if not (isinstance(d, PairedSpec) and isinstance(d.first, RelabelingSpec)
            and isinstance(d.second, TdttSpec) and d.second.deterministic
            and check_monadic(d.second)):
        return None
    rel, t = d.first, d.second
    rules = _top_down_rules(t)
    index = {q: k for k, q in enumerate(t.states)}

    def relabel(label, below):
        if None in below:
            return None
        return rel.rule_for(label, tuple([c[0] for c in below]))

    def output(q, label, below):
        """(word or None, rules applied) of state q at a node with the
        relabeled label over children of the classes below: the one rule
        for (q, label) and its call, counted as _top_down_step counts."""
        if (q, label) not in rules:
            return None, 0
        ((calls, build),) = rules[q, label]
        count, parts = 1, []
        for p, i in calls:
            got, n = below[i - 1][1][index[p]] \
                if 1 <= i <= len(below) else (None, 0)
            count += n
            if got is None:
                return None, count
            parts.append(got)
        return build(parts), count

    def step(label, below):
        rule = relabel(label, below)
        if rule is None:
            return None
        return rule.state, tuple([output(q, rule.out_symbol, below)
                                  for q in t.states])

    def root(label, below):
        rule = relabel(label, below)
        if rule is None or rule.state not in rel.final:
            return set(), True
        word, count = output(t.init, rule.out_symbol, below)
        if count > budget.max_steps or count >= budget.max_enumeration:
            return set(), False
        return ({word} if word is not None else set()), True
    return step, root


def _enumerate_att(a, s, budget):
    """_search over the forms of the monadic att a over #(s), each kept
    as (labels, tip, leaf): the labels emitted, the occurrence of
    _occurrence_steps it ends in, or None and the output leaf.  A form
    is ground when its tip is None, and gives the word labels + (leaf,).
    Rewriting the one occurrence of a form is the whole step."""
    occurrence, rules, locate, _ = _occurrence_steps(a, s, ROOT)

    def successors(state):
        labels, tip, _ = state
        if tip is None:
            return None
        return [(labels + more,
                 None if nxt is None else locate(nxt[0], tip[1], nxt[1]),
                 leaf) for more, nxt, leaf in rules(tip)]
    start = ((), occurrence(a.init, (1,)), None)
    outs, exhaustive = _search(start, successors, budget)
    return {labels + (leaf,) for labels, _, leaf in outs}, exhaustive


# ---------------------------------------------------------------------------
# work shared across trees

class Crossings:
    """Crossing behaviour of an att that walks its rule table, one node
    at a time (Shepherdson 1959).

    A walk enters the subtree at a node only as a synthesized attribute
    of that node, and leaves it only as an inherited attribute of that
    node, whose rule sits at the parent.  The summary of a subtree is
    (ends, chunks), per synthesized attribute: the labels its walk emits
    inside the subtree, and (end, name, full), full when there are some,
    with end "up" into the inherited attribute name, "leaf" with the
    output leaf name, "stuck", or "silent" and "productive" (an
    occurrence came back, with no output in between or with some).  The
    walks at a node depend on the ends below it, never on the chunks, so
    they run once per label and children's ends, kept as a plan: per
    attribute its end and its chunk's pieces, labels or child i's chunk
    of attribute k.  summary joins a node's plan, and read the root
    marker's composed through the node's below it.
    A word is the monadic case: a letter has one child, the last none.

    walk runs one walk at a node over any ends of its children, and the
    walk analysis (analysis.local_run) and constructions.associate read
    it over more kinds of ends.  A tail map gives, per synthesized
    attribute, ("up", b, True), ("leaf", None, True) or ("stuck", None,
    True), so that every child visit is a piece.  A child the walk must
    stop at gives ("enter", name, False) for each synthesized a: only
    "up" goes on through a child, so the walk ends there, with end
    "enter" and the name passed through; the analysis names the entering
    attribute a, and associate the occurrence (a, i) where its reduced
    att takes over.  walk is memoized on the children's ends it reads
    (see walk), so the walks the walk analysis, associate's reductions
    and the plans repeat each run once per Crossings; segments keeps the
    walk analysis's reading of each outcome, built once (local_run).

    width is the largest number of rules of one symbol.  A walk applies a
    rule at most once per node, so over #(s) it takes at most width *
    (size of s + 1) steps; within budgets above that it never runs out,
    and its outcome is the one the summaries give."""

    def __init__(self, att):
        self.table = att.rule_table
        self.syn = att.syn
        self.index = {a: k for k, a in enumerate(att.syn)}
        self.inh_set = frozenset(att.inh)
        self.init = att.init
        self.width = max(Counter(sym for sym, _, _ in self.table).values(),
                         default=0)
        self.plans = {}     # (label, children's ends) -> (ends, pieces)
        self.reads = {}     # (label, children's ends) -> (end, name, pieces)
        self.walks = {}     # (label, tip, number of children) -> trie (walk)
        self.segments = {}  # id of a walk outcome -> its analysis.local_run

    def summary(self, label, below):
        """The summary of a node labelled label over its children's."""
        ends, pieces = self._plan(label, tuple([b[0] for b in below]))
        return ends, tuple(_join(p, below) for p in pieces)

    def read(self, label, below):
        """(chunk, end, name) of the whole walk over #(s), where s has the
        label and its children the summaries below: the root marker's
        plan composed through the node's, kept as one plan."""
        key = label, tuple([b[0] for b in below])
        if key not in self.reads:
            ends, node = self._plan(*key)
            ((end, name, _),), (pieces,) = self._plan(ROOT, (ends,))
            self.reads[key] = end, name, tuple(
                q for i, x in pieces
                for q in ([(i, x)] if i is None else node[x]))
        end, name, pieces = self.reads[key]
        return _join(pieces, below), end, name

    def _plan(self, label, below):
        """(ends, pieces) of the walks at a node labelled label over
        children whose summaries have the ends below; the root marker
        ROOT walks once, from the initial attribute at its child."""
        key = label, below
        if key not in self.plans:
            walks = [self.walk(label, below, tip) for tip in
                     ([(self.init, 1)] if label == ROOT else
                      [(a, 0) for a in self.syn])]
            self.plans[key] = (tuple((e, n, bool(p)) for p, e, n in walks),
                               tuple(tuple(p) for p, _, _ in walks))
        return self.plans[key]

    def walk(self, label, below, tip):
        """(pieces, end, name) of the walk from tip, an (attr, pos) as
        rule_table gives it, read at this node; (a, 0) enters a
        synthesized a.  A piece is (None, labels) or (i, k), never empty:
        a child's empty chunk is left out.

        A walk reads below only at the child ends it passes, entry
        below[i][k] at a time, and the number of children; so the walks
        from tip at a label are kept in one trie under (label, tip,
        len(below)), which branches on the value of each entry read, in
        the order read, down to the outcome.  Two walks that read the same
        values take the same steps, and the trie answers the second."""
        slot, at = self.walks, (label, tip, len(below))
        depth = 0
        node = slot.get(at)
        while node is not None:
            if node.__class__ is not list:
                return node
            i, k, slot = node
            at = below[i][k]
            node = slot.get(at)
            depth += 1
        reads, outcome = self._walk(label, below, tip)
        for i, k in reads[depth:]:
            node = [i, k, {}]
            slot[at] = node
            slot, at = node[2], below[i][k]
        slot[at] = outcome
        return outcome

    def _walk(self, label, below, tip):
        """The entries (i, k) of below that the walk from tip reads, in
        order, and its (pieces, end, name)."""
        root = label == ROOT
        pieces = []
        reads = []
        seen = {}       # occurrence -> pieces emitted when it was reached
        while True:
            attr, pos = tip
            occ = None      # the occurrence the walk goes on at, if any
            k = self.index.get(attr)
            if k is not None:
                if pos == 0:
                    if not root:
                        occ = tip
                elif pos <= len(below):
                    reads.append((pos - 1, k))
                    end, name, full = below[pos - 1][k]
                    if full:
                        pieces.append((pos - 1, k))
                    if end != "up":
                        return reads, (tuple(pieces), end, name)
                    occ = (name, pos)
            elif attr in self.inh_set:
                if pos:
                    occ = tip
                elif not root:
                    return reads, (tuple(pieces), "up", attr)
            if occ is None:
                return reads, (tuple(pieces), "stuck", None)
            if occ in seen:
                return reads, (tuple(pieces),
                               "silent" if seen[occ] == len(pieces)
                               else "productive", None)
            seen[occ] = len(pieces)
            chains = self.table.get((label,) + occ)
            if chains is None:
                return reads, (tuple(pieces), "stuck", None)
            emitted, tip, leaf = chains[0]
            if emitted:
                pieces.append((None, emitted))
            if tip is None:
                return reads, (tuple(pieces), "leaf", leaf)


def _join(pieces, below):
    """The chunk the pieces give over the children's summaries."""
    out = ()
    for i, x in pieces:
        out += x if i is None else below[i][1][x]
    return out
