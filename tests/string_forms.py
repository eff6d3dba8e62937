"""Derivations on string sentential forms, kept as the references for
the compiled rule chains that run every att derivation of the package,
and for the top-down run on a transducer's rule table.

A form is a tree over the output alphabet whose leaves may be
occurrences attr(address in #(s)); a step rewrites one occurrence by the
right-hand side of a rule, instantiated at the occurrence's node.  These
work on any att, monadic or not: run_att is evaluate, enumerate_att is
enumerate_outputs on an att, and cycle_on is the productive-cycle search
of functionality, each on string forms.  derive_step gives the forms one
step away, and replay_cycle checks a productive-cycle certificate step
by step against it.  rules_for(a, symbol, attr, pos) gives the rules of
one left-hand side, in the order of the spec.

A top-down transducer's form has calls state(address in s) for leaves,
and a step rewrites the first of them, in preorder, by a rule for its
state and the symbol there: rewrite_tdtt is run_tdtt on a deterministic
transducer, applying the first rule, and search_tdtt is
enumerate_outputs on any transducer, searching every choice.
"""

from ttdef.errors import DuplicateLhsInDeterministic
from ttdef.functionality import ProductiveCycle
from ttdef.model import (ROOT, call_info, check_monadic, is_occurrence,
                         occ_node, occ_node_info, occ_pattern_info)
from ttdef.semantics import (BudgetExhausted, NoOutput, Output, _check_lsi,
                             _search)
from ttdef.trees import Tree, trees_up_to_height


def _symbol_lookup(s):
    """The label at an address of #(s), or None where #(s) has no node."""
    def sym_at(v):
        if not v:
            return ROOT
        if v[0] != 1:
            return None
        t = s
        for i in v[1:]:
            if not 1 <= i <= len(t.children):
                return None
            t = t.children[i - 1]
        return t.label
    return sym_at


def rules_for(a, symbol, attr, pos):
    return tuple(r for r in a.rules_at(symbol)
                 if r.attr == attr and r.pos == pos)


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


def expansions(a, sym_at, attr, naddr):
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
    return [(r, instantiate(r.rhs, base)) for r in rules_for(a, sym, attr, pos)]


def bare_lookup(s):
    """The label at an address of s itself, with no root marker, or None
    where s has no node: the root of s is at 1 in #(s)."""
    rooted = _symbol_lookup(s)
    return lambda v: rooted((1,) + v)


def derive_step(a, s, form):
    """All forms reachable in one derivation step over #(s), in the order
    of the occurrences and then of the rules, with repeats dropped.
    Empty iff the form is ground or every occurrence is stuck."""
    sym_at = _symbol_lookup(s)
    out = []
    seen = set()
    for faddr, attr, naddr in occurrences(form):
        for _, replacement in expansions(a, sym_at, attr, naddr):
            nxt = form.replace_at(faddr, replacement)
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
    return out


def run_att(a, s, budget):
    """evaluate on a deterministic att: the first occurrence of the form
    is rewritten until none is left; a stuck one gives NoOutput, and so
    does, on monadic output, an occurrence rewritten before."""
    if not a.deterministic:
        raise DuplicateLhsInDeterministic(
            "att %r is nondeterministic; use enumerate_outputs" % a.name)
    sym_at = _symbol_lookup(s)
    form = Tree(occ_node(a.init, (1,)))
    track_cycles = check_monadic(a)
    consumed = set()
    steps = 0
    while True:
        occs = occurrences(form)
        if not occs:
            _check_lsi(a, s.size, form.size, s.render)
            return Output(form)
        expanded = [(o, expansions(a, sym_at, o[1], o[2])) for o in occs]
        if any(not exps for _, exps in expanded):
            return NoOutput()  # a stuck occurrence never recovers
        (faddr, attr, naddr), exps = expanded[0]
        _, replacement = exps[0]
        if track_cycles:
            if (attr, naddr) in consumed:
                return NoOutput()
            consumed.add((attr, naddr))
        steps += 1
        if steps > budget.max_steps:
            return BudgetExhausted()
        form = form.replace_at(faddr, replacement)


def enumerate_att(a, s, budget):
    """enumerate_outputs on an att, searching string forms."""
    sym_at = _symbol_lookup(s)

    def successors(form):
        # Rewriting the first occurrence only is complete: rule choice
        # at one occurrence commutes with choice at any other.
        occs = occurrences(form)
        if not occs:
            return None
        faddr, attr, naddr = occs[0]
        return [form.replace_at(faddr, repl)
                for _, repl in expansions(a, sym_at, attr, naddr)]
    start = Tree(occ_node(a.init, (1,)))
    return _search(start, successors, budget)


# ---------------------------------------------------------------------------
# productive cycles

def cycle_on(a, s):
    """Trace of a productive cycle of a over #(s), or None: the first
    occurrence, breadth first from the initial one, with a rule whose
    replacement grows the form and leads back to it; the trace walks
    there and around the cycle until an occurrence repeats with a
    bigger form."""
    sym_at = _symbol_lookup(s)
    start = (a.init, (1,))
    edges = {}
    order = [start]
    seen = {start}
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        out = []
        for _, repl in expansions(a, sym_at, u[0], u[1]):
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
                    return _walk_trace(start, path + loop * 3)
    return None


def detect_productive_cycle(a, depth=4):
    """The first productive cycle over a's input trees up to the depth,
    in canonical order, as the ProductiveCycle is_functional reports, or
    None."""
    for s in trees_up_to_height(a.input, depth):
        trace = cycle_on(a, s)
        if trace is not None:
            return ProductiveCycle(input=s, trace=tuple(trace))
    return None


def replay_cycle(a, cert):
    """True iff the certificate's trace is a derivation over its input
    from the initial form, one derive_step at a time, that revisits an
    occurrence with the form strictly grown."""
    forms = list(cert.trace)
    if not forms or forms[0] != Tree(occ_node(a.init, (1,))):
        return False
    for cur, nxt in zip(forms, forms[1:]):
        if nxt not in derive_step(a, cert.input, cur):
            return False
    spots = {}
    for idx, form in enumerate(forms[1:], start=1):
        for _, attr, v in occurrences(form):
            spots.setdefault((attr, v), []).append(idx)
    return any(forms[ixs[0]] != forms[ixs[-1]] for ixs in spots.values())


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


def _walk_trace(start, steps):
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
# top-down transducers

def tdtt_successors(t, s, form):
    """The address of the first call leaf of the form, in preorder, with
    its rewrites, one per rule for its state and the symbol there, in
    the order of the spec and a rule repeated verbatim once; [] when s
    has no node there, and (None, None) when the form is ground."""
    sym_at = bare_lookup(s)
    for faddr, node in form.addresses():
        if node.children or not is_occurrence(node.label):
            continue
        state, v = occ_node_info(node.label)
        sym = sym_at(v)
        if sym is None:
            return faddr, []
        return faddr, [ground_calls(rhs, v) for rhs in
                       dict.fromkeys(r.rhs for r in t.rules
                                     if (r.state, r.symbol) == (state, sym))]
    return None, None


def ground_calls(rhs, v):
    """The right-hand side at node v: each call q(xi) becomes q(v.i)."""
    def build(t):
        info = call_info(t.label)
        if info is not None and not t.children:
            return Tree(occ_node(info[0], v + (info[1],)))
        return Tree(t.label, [build(c) for c in t.children])
    return build(rhs)


def rewrite_tdtt(t, s, budget):
    """run_tdtt on a deterministic transducer: the first call in
    preorder is rewritten by its first rule; stuck when it has none or
    names a child s lacks."""
    form = Tree(occ_node(t.init, ()))
    steps = 0
    while True:
        faddr, grounded = tdtt_successors(t, s, form)
        if faddr is None:
            return Output(form)
        if not grounded:
            return NoOutput()
        steps += 1
        if steps > budget.max_steps:
            return BudgetExhausted()
        form = form.replace_at(faddr, grounded[0])


def search_tdtt(t, s, budget):
    """enumerate_outputs on a top-down transducer, searching string
    forms: rewriting the first call only is complete, since the choice
    at one call commutes with the choice at any other."""
    def successors(form):
        faddr, grounded = tdtt_successors(t, s, form)
        if faddr is None:
            return None
        return [form.replace_at(faddr, repl) for repl in grounded]
    return _search(Tree(occ_node(t.init, ())), successors, budget)
