"""The derivation relation, evaluation of every machine kind, and bounded
enumeration for nondeterministic ones.

Attribute derivations run over the root-marked tree #(s); node addresses in
sentential forms therefore start at 1 for the root of s, and the initial
form is a0(1). Normal forms (nf) instead run over the bare tree, so an
inherited occurrence at eps is simply stuck there and becomes a tip.

Deterministic monadic-output derivations have a single active occurrence
per form; revisiting a consumed occurrence certifies a cycle, which
evaluate reports as NoOutput and nf as Diverges.

Two engines run atts.  When the att is deterministic with monadic output
(AttSpec.walks_on_table), evaluate without a trace and enumerate_outputs
walk the spec's rule table, compiled once per spec: the form is then a
chain of emitted labels above one occurrence, so the walk keeps the
occurrence as (attr, node) and the labels as a list, and builds the
output tree once at the end.  Occurrence labels are parsed only when the
table is built.  Every other run rewrites string sentential forms:
traces (they record each form), non-monadic outputs (a form holds
several occurrences), nondeterministic enumeration (it searches a set of
forms), and nf (its start form is arbitrary and it runs over the bare
tree).  _run_att and _enumerate_att are also the reference the compiled
walk is tested against; both engines give the same outcomes, budgets
included.
"""

from dataclasses import dataclass

from .errors import DuplicateLhsInDeterministic, NotFunctionalInput
from .model import (ROOT, AttSpec, PairedSpec, RelabelingSpec, TdttSpec,
                    call_info, check_monadic, is_occurrence, occ_node,
                    occ_node_info, occ_pattern_info)
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


@dataclass(frozen=True)
class TraceEntry:
    form: Tree
    rule: object   # rule that produced this form; None for the initial form
    node: tuple
    symbol: str


@dataclass
class DerivationTrace:
    entries: list


# Linear-size-increase violations observed by evaluate, collected so the
# test suite can assert there were none.
LSI_VIOLATIONS = []


def _check_lsi(a, s, out):
    bound = a.max_rhs_size * len(a.attributes) * s.size
    if out.size > bound:
        LSI_VIOLATIONS.append({"att": a.name, "input": s.render(),
                               "output_size": out.size, "bound": bound})


def occurrences(form):
    """Preorder (address-in-form, attribute, node-address) of all
    occurrence leaves."""
    out = []
    for addr, node in form.addresses():
        if not node.children and is_occurrence(node.label):
            info = occ_node_info(node.label)
            if info is not None:
                out.append((addr, info[0], info[1]))
    return out


def instantiate(rhs, v):
    """Ground a rule right-hand side at node v: beta(pi j) becomes
    beta(v.j), with v.0 = v."""
    def build(t):
        if not t.children and is_occurrence(t.label):
            attr, j = occ_pattern_info(t.label)
            return Tree(occ_node(attr, v if j == 0 else v + (j,)))
        return Tree(t.label, [build(c) for c in t.children])
    return build(rhs)


def _symbol_lookup(s, rooted):
    def sym_at(v):
        t = s
        if rooted:
            if not v:
                return ROOT
            if v[0] != 1:
                return None
            v = v[1:]
        for i in v:
            if not 1 <= i <= len(t.children):
                return None
            t = t.children[i - 1]
        return t.label
    return sym_at


def _expansions(a, sym_at, attr, naddr):
    """(rule, replacement) pairs for one occurrence; [] when stuck."""
    if a.is_syn(attr):
        sym = sym_at(naddr)
        if sym is None or sym == ROOT:
            return []  # no synthesized rules exist at the root marker
        base, pos = naddr, 0
    elif a.is_inh(attr):
        if not naddr:
            return []  # inherited at the root: no parent, permanently stuck
        base, pos = naddr[:-1], naddr[-1]
        sym = sym_at(base)
        if sym is None:
            return []
    else:
        return []
    return [(r, instantiate(r.rhs, base)) for r in a.rules_for(sym, attr, pos)]


def derive_step(a, s, form):
    """All forms reachable in one derivation step over #(s). Empty iff the
    form is ground or every occurrence is stuck."""
    sym_at = _symbol_lookup(s, rooted=True)
    out = []
    seen = set()
    for faddr, attr, naddr in occurrences(form):
        for _, replacement in _expansions(a, sym_at, attr, naddr):
            nxt = form.replace_at(faddr, replacement)
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
    return out


def _run_att(a, s, budget, want_trace):
    if not a.deterministic:
        raise DuplicateLhsInDeterministic(
            "att %r is nondeterministic; use enumerate_outputs" % a.name)
    sym_at = _symbol_lookup(s, rooted=True)
    form = Tree(occ_node(a.init, (1,)))
    trace = [TraceEntry(form, None, None, None)] if want_trace else None
    track_cycles = check_monadic(a).verdict
    consumed = set()
    steps = 0
    while True:
        occs = occurrences(form)
        if not occs:
            _check_lsi(a, s, form)
            return Output(form), trace
        expanded = [(o, _expansions(a, sym_at, o[1], o[2])) for o in occs]
        if any(not exps for _, exps in expanded):
            return NoOutput(), trace  # a stuck occurrence never recovers
        (faddr, attr, naddr), exps = expanded[0]
        rule, replacement = exps[0]
        if track_cycles:
            if (attr, naddr) in consumed:
                return NoOutput(), trace
            consumed.add((attr, naddr))
        steps += 1
        if steps > budget.max_steps:
            return BudgetExhausted(), trace
        form = form.replace_at(faddr, replacement)
        if want_trace:
            trace.append(TraceEntry(form, rule, naddr, sym_at(
                naddr if a.is_syn(attr) else naddr[:-1])))


# ---------------------------------------------------------------------------
# the compiled walk: deterministic atts with monadic output

def _flatten(s):
    """Nodes of #(s) as integers, 0 the root marker and 1 the root of s:
    (labels, (parent, child index) per node, child nodes per node)."""
    labels, up, kids = [ROOT], [None], [[None]]
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


def _walk_table(a, s, max_steps, max_enumeration=None):
    """Run a over #(s) on its rule table, one (attr, node) at a time.

    The only occurrence of the form is kept as (attr, base, pos): attr at
    node base when pos is 0, attr at child pos of base otherwise, so a
    rule applies at (label of base, attr, pos) and instantiates at base.
    Returns (kind, output tree or None), kind one of "output", "stuck",
    "silent" and "productive" (an occurrence came back, with no output
    in between or with some), "steps", and "enumeration" (more forms than
    max_enumeration; checked only when it is given)."""
    table = a.rule_table
    syn, inh = frozenset(a.syn), frozenset(a.inh)
    labels, up, kids = _flatten(s)

    def locate(attr, base, j):
        """The occurrence attr(base.j), with base.0 = base; None if stuck."""
        if attr in syn:
            if j == 0:
                return None if base == 0 else (attr, base, 0)
            row = kids[base]
            return (attr, row[j - 1], 0) if j <= len(row) else None
        if attr in inh:
            if j:
                return attr, base, j
            return None if base == 0 else (attr,) + up[base]
        return None

    out = []
    occ = locate(a.init, 0, 1)
    seen = {occ: 0}    # occurrence -> output length when it was reached
    steps = 0
    while True:
        if occ is None:
            return "stuck", None
        attr, base, pos = occ
        chain = table.get((labels[base], attr, pos))
        if chain is None:
            return "stuck", None
        steps += 1
        if steps > max_steps:
            return "steps", None
        emitted, tip, leaf = chain
        out.extend(emitted)
        if tip is not None:
            occ = locate(tip[0], base, tip[1])
            if occ in seen:
                return ("silent" if seen[occ] == len(out) else "productive",
                        None)
        if max_enumeration is not None and steps >= max_enumeration:
            return "enumeration", None
        if tip is None:
            tree = Tree(leaf)
            for label in reversed(out):
                tree = Tree(label, (tree,))
            return "output", tree
        seen[occ] = len(out)


def nf(a, s, start, budget=None):
    """Normal form of the start form under the derivation over the bare
    tree s (no root marker); Diverges on a detected cycle."""
    budget = budget or StepBudget()
    if not a.deterministic:
        raise DuplicateLhsInDeterministic(
            "att %r is nondeterministic; nf is undefined" % a.name)
    sym_at = _symbol_lookup(s, rooted=False)
    track_cycles = check_monadic(a).verdict
    consumed = set()
    form = start
    steps = 0
    while True:
        progressed = False
        for faddr, attr, naddr in occurrences(form):
            exps = _expansions(a, sym_at, attr, naddr)
            if not exps:
                continue  # stuck occurrences stay as tips of the normal form
            _, replacement = exps[0]
            if track_cycles:
                if (attr, naddr) in consumed:
                    return Diverges()
                consumed.add((attr, naddr))
            steps += 1
            if steps > budget.max_steps:
                return Diverges()
            form = form.replace_at(faddr, replacement)
            progressed = True
            break
        if not progressed:
            return form


def run_relabeling(b, s):
    """Deterministic bottom-up run; (root state, relabeled tree) or Reject
    when some node has no applicable rule. Final states play no role here;
    acceptance is the pairing's concern."""
    results = {}
    stack = [(s, (), False)]
    while stack:
        t, addr, ready = stack.pop()
        if not ready:
            stack.append((t, addr, True))
            for i, c in enumerate(t.children, start=1):
                stack.append((c, addr + (i,), False))
            continue
        child_results = [results.pop(addr + (i,))
                         for i in range(1, len(t.children) + 1)]
        if any(r is None for r in child_results):
            results[addr] = None
            continue
        rule = b.rule_for(t.label, tuple(p for p, _ in child_results))
        results[addr] = None if rule is None else \
            (rule.state, Tree(rule.out_symbol, [u for _, u in child_results]))
    got = results[()]
    return Reject() if got is None else got


def _accepts(b, state):
    return state in b.final


def _tdtt_successors(t, s, form):
    """First state-call leaf of the form with its grounded rewrites, or
    (None, None) when the form is ground."""
    sym_at = _symbol_lookup(s, rooted=False)
    for faddr, node in form.addresses():
        if node.children or not is_occurrence(node.label):
            continue
        state, v = occ_node_info(node.label)
        sym = sym_at(v)
        if sym is None:
            return faddr, []
        return faddr, [(r, _ground_calls(r.rhs, v))
                       for r in t.rules_for(state, sym)]
    return None, None


def _ground_calls(rhs, v):
    def build(t):
        info = call_info(t.label)
        if info is not None and not t.children:
            return Tree(occ_node(info[0], v + (info[1],)))
        return Tree(t.label, [build(c) for c in t.children])
    return build(rhs)


def run_tdtt(t, s, budget=None, want_trace=False):
    """Top-down rewriting; for a dt^R pair the relabeling runs first. A
    nondeterministic machine is tolerated only while its answer on s is
    unambiguous."""
    budget = budget or StepBudget()
    if isinstance(t, PairedSpec):
        if t.kind != "dtR":
            raise DuplicateLhsInDeterministic(
                "run_tdtt expects a dt or a dtR pair, got %r" % t.kind)
        got = run_relabeling(t.first, s)
        if isinstance(got, Reject) or not _accepts(t.first, got[0]):
            return (NoOutput(), None) if want_trace else NoOutput()
        t, s = t.second, got[1]
    if not t.deterministic:
        outs, exhaustive = _enumerate_tdtt(t, s, budget)
        if len(outs) > 1:
            raise NotFunctionalInput(
                "nondeterministic transducer %r has %d outputs on %s"
                % (t.name, len(outs), s.render()))
        if outs:
            result = Output(next(iter(outs)))
        else:
            result = NoOutput() if exhaustive else BudgetExhausted()
        return (result, None) if want_trace else result
    form = Tree(occ_node(t.init, ()))
    trace = [TraceEntry(form, None, None, None)] if want_trace else None
    steps = 0
    while True:
        faddr, grounded = _tdtt_successors(t, s, form)
        if faddr is None:
            result = Output(form)
            break
        if not grounded:
            result = NoOutput()
            break
        steps += 1
        if steps > budget.max_steps:
            result = BudgetExhausted()
            break
        rule, replacement = grounded[0]
        form = form.replace_at(faddr, replacement)
        if want_trace:
            trace.append(TraceEntry(form, rule, None, rule.symbol))
    return (result, trace) if want_trace else result


def _apply_lookaround(u, s):
    """Both relabeling phases of a lookaround pair; None when rejected."""
    got = run_relabeling(u.first, s)
    if isinstance(got, Reject) or not _accepts(u.first, got[0]):
        return None
    out = run_tdtt(u.second, got[1])
    return out.tree if isinstance(out, Output) else None


def _pre_stage(d, s):
    """Run the relabeling stage of a paired spec. Returns (consumer,
    relabeled input) or None when the stage rejects."""
    if d.kind in ("attR", "dtR"):
        got = run_relabeling(d.first, s)
        if isinstance(got, Reject) or not _accepts(d.first, got[0]):
            return None
        return d.second, got[1]
    if d.kind == "attU":
        relabeled = _apply_lookaround(d.first, s)
        if relabeled is None:
            return None
        return d.second, relabeled
    return None


def evaluate(d, s, budget=None, want_trace=False):
    """Outcome of the deterministic machine d on s: Output, NoOutput, or
    BudgetExhausted. Nondeterministic machines belong to
    enumerate_outputs."""
    budget = budget or StepBudget()
    if isinstance(d, AttSpec):
        if not want_trace and d.walks_on_table:
            kind, tree = _walk_table(d, s, budget.max_steps)
            if kind == "output":
                _check_lsi(d, s, tree)
                return Output(tree)
            return BudgetExhausted() if kind == "steps" else NoOutput()
        outcome, trace = _run_att(d, s, budget, want_trace)
        return (outcome, DerivationTrace(trace)) if want_trace else outcome
    if isinstance(d, TdttSpec):
        got = run_tdtt(d, s, budget, want_trace)
        if want_trace:
            outcome, trace = got
            return outcome, DerivationTrace(trace or [])
        return got
    if isinstance(d, RelabelingSpec):
        got = run_relabeling(d, s)
        ok = not isinstance(got, Reject) and _accepts(d, got[0])
        outcome = Output(got[1]) if ok else NoOutput()
        return (outcome, DerivationTrace([])) if want_trace else outcome
    if isinstance(d, PairedSpec):
        if d.kind == "dtR":
            got = run_tdtt(d, s, budget, want_trace)
            if want_trace:
                outcome, trace = got
                return outcome, DerivationTrace(trace or [])
            return got
        if d.kind == "lookaround":
            relabeled = _apply_lookaround(d, s)
            outcome = NoOutput() if relabeled is None else Output(relabeled)
            return (outcome, DerivationTrace([])) if want_trace else outcome
        staged = _pre_stage(d, s)
        if staged is None:
            return (NoOutput(), DerivationTrace([])) if want_trace else NoOutput()
        consumer, relabeled = staged
        return evaluate(consumer, relabeled, budget, want_trace)
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
    """(all ground outputs reachable within budget, exhaustive flag)."""
    budget = budget or StepBudget()
    if isinstance(d, PairedSpec):
        if d.kind == "lookaround":
            relabeled = _apply_lookaround(d, s)
            return (set() if relabeled is None else {relabeled}), True
        staged = _pre_stage(d, s)
        if staged is None:
            return set(), True
        d, s = staged
    if isinstance(d, RelabelingSpec):
        got = run_relabeling(d, s)
        ok = not isinstance(got, Reject) and _accepts(d, got[0])
        return ({got[1]} if ok else set()), True
    if isinstance(d, AttSpec):
        if d.walks_on_table:
            kind, tree = _walk_table(d, s, budget.max_steps,
                                     budget.max_enumeration)
            if kind == "output":
                return {tree}, True
            return set(), kind in ("stuck", "silent")
        return _enumerate_att(d, s, budget)
    if isinstance(d, TdttSpec):
        return _enumerate_tdtt(d, s, budget)
    raise TypeError("cannot enumerate %r" % type(d).__name__)


def _enumerate_att(a, s, budget):
    sym_at = _symbol_lookup(s, rooted=True)

    def successors(form):
        # Rewriting the first occurrence only is complete: rule choice
        # at one occurrence commutes with choice at any other.
        occs = occurrences(form)
        if not occs:
            return None
        faddr, attr, naddr = occs[0]
        return [form.replace_at(faddr, repl)
                for _, repl in _expansions(a, sym_at, attr, naddr)]
    start = Tree(occ_node(a.init, (1,)))
    return _search(start, successors, budget)


def _enumerate_tdtt(t, s, budget):
    def successors(form):
        faddr, grounded = _tdtt_successors(t, s, form)
        if faddr is None:
            return None
        return [form.replace_at(faddr, replacement) for _, replacement in grounded]
    start = Tree(occ_node(t.init, ()))
    return _search(start, successors, budget)
