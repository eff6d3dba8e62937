"""Deciding whether a nondeterministic att still computes a function.

Nondeterminism breaks a translation in two observable ways.  A
derivation can revisit an attribute occurrence with strictly more output
than the form had at the first visit, so it can never settle.  Or two
derivations over one input can finish with different outputs.  Once no
input tree up to the depth has a productive cycle, every derivation
search settles, so the second kind is found by enumerating all outputs
of each tree up to the depth: the att is functional there when no tree
has more than one.

All comparisons here are exhaustive up to a depth, and every verdict
carries something replayable: a two-output witness checks against
enumerate_outputs, a cycle trace step by step against the att's rules
(the tests replay it on string forms).  Both searches run on the att's
rule chains: a form is a chain of labels above one occurrence, and the
cycle search's graph has the occurrences (attr, address in #(s)) for
nodes and each rule's chain for an edge (semantics._occurrence_steps).
One pass of strongly connected components over that graph finds the
cycle.  An att whose output is not monadic is refused.
"""

from dataclasses import dataclass, fields

from .errors import AlphabetMismatch, NotApplicable, SpecSyntaxError
from .analysis import _components
from .model import PairedSpec, check_monadic, input_alphabet, occ_node
from .semantics import (StepBudget, _chain_tree, _occurrence_steps,
                        enumerate_outputs, enumerate_shared)
from .trees import (Tree, breadth_first, canonical_key, path_to,
                    trees_up_to_height)


@dataclass(frozen=True)
class FunctionalityBudget:
    """Bounds for the functionality check: input trees are enumerated up
    to `depth`, and any single derivation search gives up after
    `max_steps` rule applications."""
    depth: int = 4
    max_steps: int = 1000000

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise SpecSyntaxError(
                    "functionality %s must be a positive integer, got %r"
                    % (f.name, v))

    @classmethod
    def coerce(cls, value):
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
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
    The trace starts at the initial form, and each form is one
    derivation step from the one before it."""
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
class Unfinished:
    """The step budget ran out on this input, the first in canonical
    order whose outputs either machine could not all enumerate; the
    machines agree on every input before it."""
    input: Tree


@dataclass(frozen=True)
class Witness:
    """First input in canonical order where the compared machines
    disagree; None marks a side with no output there."""
    input: Tree
    out1: object
    out2: object


# ---------------------------------------------------------------------------
# productive cycles

def _productive_cycle(att, shown):
    """The first tree of shown, in its order, with a derivation that
    revisits an attribute occurrence with the form strictly grown, as a
    ProductiveCycle, or None; shown is what _inputs gives for att."""
    for s in shown:
        trace = _cycle_on(att, s)
        if trace is not None:
            return ProductiveCycle(input=s, trace=tuple(trace))
    return None


def _cycle_on(a, s):
    """Trace of a productive cycle of a over #(s), or None.  The graph's
    nodes are occurrences (attr, address in #(s)), and its edges per node
    the (labels, tip, leaf) of each rule there (_occurrence_steps),
    weighted by the labels.  The first positive edge, breadth first from
    the initial occurrence, that leads back to its own node closes the
    cycle: the first whose two ends share a strongly connected component.
    The trace walks to it and around the cycle until an occurrence
    repeats with a bigger form."""
    step = _occurrence_steps(a, s)
    edges = {}

    def out(u):
        if u not in edges:
            edges[u] = step(*u)
        return edges[u]

    start = (a.init, (1,))
    reach = _reach(out, start)
    comp = _components([start], lambda u: [v for _, v, _ in edges[u]
                                           if v is not None])
    for u in reach:
        for labels, v, _ in edges[u]:
            if labels and v is not None and comp[u] == comp[v]:
                loop = [(u, labels, v)] + path_to(_reach(out, v), u)
                return _walk_trace(start, path_to(reach, u) + loop * 3)
    return None


def _reach(out, src):
    """The breadth_first map of the occurrences reachable from src, each
    edge a step (occurrence, labels, next occurrence)."""
    return breadth_first([src], lambda x: [((x, labels, y), y)
                                           for labels, y, _ in out(x)
                                           if y is not None])


def _walk_trace(start, steps):
    """Forms along the steps, cut at the first occurrence revisited with
    the form grown; the initial form itself does not count as a visit."""
    forms = [((), start)]
    first_at = {}
    for _, more, y in steps:
        forms.append((forms[-1][0] + more, y))
        if y in first_at and forms[first_at[y]] != forms[-1]:
            break
        first_at.setdefault(y, len(forms) - 1)
    return [_chain_tree(labels, occ_node(*tip)) for labels, tip in forms]


# ---------------------------------------------------------------------------
# bounded equivalence

def _smallest_difference(mine, theirs):
    extra = sorted(mine - theirs, key=canonical_key)
    if extra:
        return extra[0]
    return min(mine, key=canonical_key) if mine else None


def bounded_equivalence(d1, d2, depth, budget=None):
    """Equal when the two machines agree on every input tree up to the
    depth, else the first differing input in canonical order, or
    Unfinished on the first input where the budget stops either
    enumeration.

    The machines are compared output set against output set over their
    common input alphabet; a side with no output at the differing input
    is reported as None.  Each machine's outputs are enumerated as
    enumerate_outputs does under the budget, but with work shared across
    the trees (enumerate_shared): each distinct subtree is summarized,
    relabeled or transduced once for the whole call."""
    budget = budget or StepBudget()
    in1, in2 = input_alphabet(d1), input_alphabet(d2)
    if in1 != in2:
        raise AlphabetMismatch("cannot compare %r and %r over different "
                               "input alphabets" % (d1.name, d2.name))
    run1, run2 = enumerate_shared(d1, budget), enumerate_shared(d2, budget)
    for s in trees_up_to_height(in1, depth):
        got1, done1 = run1(s)
        got2, done2 = run2(s)
        if not (done1 and done2):
            return Unfinished(s)
        if got1 != got2:
            return Witness(s, _smallest_difference(got1, got2),
                           _smallest_difference(got2, got1))
    return Equal(depth)


# ---------------------------------------------------------------------------
# the verdict

def _inputs(a, budget):
    """(att, shown): the att whose derivations are checked, and the trees
    it runs on in canonical order, each mapped to the input a verdict
    names.  For an att these are its own trees up to the depth; for an
    att with look-around, the relabeled forms of the inputs the
    look-around accepts, each mapped to the first input relabeled to
    it."""
    if not isinstance(a, PairedSpec):
        return a, {s: s for s in trees_up_to_height(a.input, budget.depth)}
    if a.kind != "attU":
        raise NotApplicable("is_functional expects an att or an att with "
                            "look-around, not %r" % a.kind)
    shown = {}
    relabel = enumerate_shared(a.first)
    for s in trees_up_to_height(a.input_alphabet, budget.depth):
        got, _ = relabel(s)
        for relabeled in got:
            shown.setdefault(relabeled, s)
    return a.second, shown


def _two_smallest(outs):
    if len(outs) < 2:
        return None
    return tuple(sorted(outs, key=canonical_key)[:2])


def is_functional(a, budget=None):
    """Functionality verdict for an att, or an att with look-around,
    with word-shaped output.

    A productive cycle is looked for first; it upgrades to a two-output
    NotFunctional witness whenever some derivation over the same input
    actually finishes twice, and stands as the verdict otherwise.
    Without one every derivation search settles, so the outputs of each
    tree up to the budget depth are enumerated in canonical order,
    through one enumerate_shared: the first tree with two or more gives
    NotFunctional with its two smallest outputs, and a search the step
    budget cuts short raises NotApplicable.  Exhausting both checks
    yields FunctionalUpTo(depth)."""
    budget = FunctionalityBudget.coerce(budget)
    att, shown = _inputs(a, budget)
    if not check_monadic(att):
        raise NotApplicable("output of %r is not monadic; the functionality "
                            "check needs word output" % att.name)
    cyc = _productive_cycle(att, shown)
    if cyc is not None:
        # A shallow probe: with a productive cycle present, full
        # enumeration would chase ever-growing forms, so give up early.
        # Finding fewer than two outputs here just leaves the cycle
        # verdict standing.
        probe = StepBudget(max_steps=min(budget.max_steps, 400))
        two = _two_smallest(enumerate_outputs(att, cyc.input, probe)[0])
        return cyc if two is None else NotFunctional(shown[cyc.input], *two)
    run = enumerate_shared(att, StepBudget(max_steps=budget.max_steps))
    for s, input_tree in shown.items():
        outs, exhaustive = run(s)
        if not exhaustive:
            raise NotApplicable("derivation search over %r on %s stopped "
                                "within %d steps"
                                % (att.name, input_tree.render(),
                                   budget.max_steps))
        two = _two_smallest(outs)
        if two is not None:
            return NotFunctional(input_tree, *two)
    return FunctionalUpTo(budget.depth)
