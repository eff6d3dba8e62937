"""Static analyses for attributed specs with monadic output.

Running such a spec is a single walk: the one occurrence in the form moves
around the input tree while emitting a chain of rank-1 output symbols.  All
analyses here rest on two finite summaries of that walk:

- a tail map for a subtree records, per synthesized attribute a, where the
  walk started at a on the bare subtree ends up: back above the root at some
  inherited b ("up b"), finished with ground output, or nowhere (stuck or
  cycling).  Tail maps compose bottom-up, so the finitely many reachable
  maps, each with a smallest representative tree, are a fixpoint.
- a node configuration records how a node is used on a full run: the shape
  of its subtree, the attribute that first enters it, and a context answer
  chi telling, for each inherited attribute the walk might exit with, how
  the surroundings continue (re-enter with some synthesized attribute, end
  the run successfully elsewhere, or fail).  Configurations propagate
  top-down from the root rules, again into a finite set.

On top of these the module decides is-dependencies, circularity, the family
of visiting pair sets, boundedness of output variation per visiting pair set
(with replayable pump witnesses when unbounded), the overall output-height
cap kappa, and the single path property.
"""

import itertools
from dataclasses import dataclass

from .errors import NotApplicable, UnknownAttribute
from .model import ROOT, check_monadic, occ_pattern_info
from .trees import HOLE, Tree, canonical_key, fill_holes

HALT_OK = "halt_ok"
HALT_DEAD = "halt_dead"


# ---------------------------------------------------------------------------
# the node-level walk engine

@dataclass
class LocalResult:
    """Outcome of walking one node with children summarized by tail maps.

    kind: "up" (exited at an inherited attribute, chi is None),
    "ground"/"halt_ok" (run finished), "dead" (stuck or cycling),
    "enter" (reached the boundary child; attr is the entering attribute).
    emit counts rank-1 symbols emitted by this node's own rules; child
    contributions are represented by visits, in order, as (child, attr).
    trace interleaves ("emit", label), ("dive", child, attr) and a final
    ("leaf", label) for exact output reconstruction."""
    kind: str
    attr: str = None
    emit: int = 0
    visits: tuple = ()
    trace: tuple = ()


def local_run(att, sigma, taus, chi, start, boundary=None):
    """Walk the rules of one sigma-node from start=(attr, pos).

    Positions: 0 is the node itself, 1..k its children. taus[i-1] is the
    tail map summarizing child i (ignored for the boundary child, where the
    walk stops and reports the entering attribute instead). chi answers
    exits at position 0: None means "report the exit as the result" (bare
    subtree mode), otherwise a map from inherited attribute to a
    synthesized re-entry attribute, HALT_OK or HALT_DEAD."""
    attr, pos = start
    table = att.rule_table
    emit = 0
    visits = []
    trace = []
    seen = set()

    def done(kind, a=None):
        return LocalResult(kind, attr=a, emit=emit,
                           visits=tuple(visits), trace=tuple(trace))

    while True:
        if (attr, pos) in seen:
            return done("dead")
        seen.add((attr, pos))
        syn = att.is_syn(attr)
        if syn == (pos == 0):
            # a rule of this node: a(pi) for synthesized a, b(pi i) for
            # inherited b
            key = (sigma, attr, pos)
            if key not in table:
                return done("dead")
            chain = table[key]
            if chain is None:
                raise NotApplicable("nonmonadic")
            labels, tip, leaf = chain
            emit += len(labels)
            trace.extend(("emit", lab) for lab in labels)
            if tip is None:
                trace.append(("leaf", leaf))
                return done("ground")
            attr, pos = tip
        elif syn:
            if pos == boundary:
                return done("enter", attr)
            out = taus[pos - 1].get(attr)
            if out is None:
                return done("dead")
            visits.append((pos, attr))
            trace.append(("dive", pos, attr))
            if out[0] == "ground":
                return done("ground")
            attr = out[1]
        else:
            if chi is None:
                return done("up", attr)
            ans = chi.get(attr, HALT_DEAD)
            if ans == HALT_DEAD:
                return done("dead")
            if ans == HALT_OK:
                return done("halt_ok")
            attr = ans


# ---------------------------------------------------------------------------
# is-dependencies (works for nondeterministic and non-monadic specs too)

def _theta_step(att, sigma, child_thetas):
    """Per synthesized attribute, the inherited attributes reachable at the
    node's own root when started there, with children summarized by their
    theta maps (synthesized -> set of inherited)."""
    result = {}
    for a in att.syn:
        reached = set()
        stack = [(a, 0)]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            attr, pos = cur
            if att.is_inh(attr) and pos == 0:
                reached.add(attr)
                continue
            if att.is_syn(attr) and pos >= 1:
                for b in child_thetas[pos - 1].get(attr, ()):
                    stack.append((b, pos))
                continue
            for rule in att.rules_for(sigma, attr, pos):
                for _, sub in rule.rhs.addresses():
                    tip = occ_pattern_info(sub.label)
                    if tip is not None:
                        stack.append(tip)
        result[a] = frozenset(reached)
    return result


def _theta_key(theta):
    return tuple(sorted((a, tuple(sorted(bs))) for a, bs in theta.items() if bs))


def compute_isd(a, s):
    """All pairs (b, a') such that, from a'(eps) on the bare tree s, some
    derivation reaches a form containing b(eps)."""
    def theta_of(t):
        children = [theta_of(c) for c in t.children]
        return _theta_step(a, t.label, children)

    theta = theta_of(s)
    return frozenset((b, syn) for syn, bs in theta.items() for b in bs)


def all_isds(a):
    """Every is-dependency realized by some input tree, as a set of
    frozensets of (inherited, synthesized) pairs."""
    thetas = {}
    changed = True
    while changed:
        changed = False
        for sym, k in a.input.items():
            for combo in itertools.product(list(thetas.values()), repeat=k):
                theta = _theta_step(a, sym, list(combo))
                key = _theta_key(theta)
                if key not in thetas:
                    thetas[key] = theta
                    changed = True
    return {frozenset((b, syn) for syn, bs in theta.items() for b in bs)
            for theta in thetas.values()}


@dataclass
class CircularityWitness:
    symbol: str
    is_tuple: tuple   # one is-dependency set per child
    cycle: tuple      # (attr, position) nodes closing the cycle


def _cycle_in(edges, nodes):
    """First cycle found in the directed graph, as a node tuple, or None."""
    color = {}
    for root in nodes:
        if root in color:
            continue
        stack = [(root, iter(edges.get(root, ())))]
        color[root] = 1
        path = [root]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt) == 1:
                    i = path.index(nxt)
                    return tuple(path[i:])
                if nxt not in color:
                    color[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                path.pop()
                stack.pop()
    return None


def is_circular(a):
    """Whether some symbol and combination of realizable child
    is-dependencies lets the walk revisit an attribute occurrence."""
    isds = sorted(all_isds(a), key=lambda s: sorted(s))
    symbols = [(sym, k) for sym, k in a.input.items()] + [(ROOT, 1)]
    for sym, k in symbols:
        for combo in itertools.product(isds, repeat=k):
            edges = {}
            nodes = set()
            for rule in a.rules_at(sym):
                src = (rule.attr, rule.pos)
                nodes.add(src)
                for _, sub in rule.rhs.addresses():
                    tip = occ_pattern_info(sub.label)
                    if tip is not None:
                        edges.setdefault(src, []).append(tip)
                        nodes.add(tip)
            for j in range(1, k + 1):
                for b, syn in combo[j - 1]:
                    edges.setdefault((syn, j), []).append((b, j))
                    nodes.add((syn, j))
                    nodes.add((b, j))
            cycle = _cycle_in(edges, sorted(nodes))
            if cycle is not None:
                return True, CircularityWitness(sym, combo, cycle)
    return False, None


# ---------------------------------------------------------------------------
# deterministic layer: shapes (tail maps with representatives)

def _require_walkable(att):
    if not check_monadic(att).verdict:
        raise NotApplicable("nonmonadic")
    if not att.deterministic:
        raise NotApplicable("nondeterministic")
    circ, _ = is_circular(att)
    if circ:
        raise NotApplicable("circular")


def _tau_key(tau):
    return tuple(sorted(tau.items()))


def _isd_of_tau(tau):
    return frozenset((out[1], a) for a, out in tau.items() if out[0] == "up")


@dataclass
class Prod:
    """One way to build a shape: sigma applied to child shapes."""
    sigma: str
    child_keys: tuple
    out_key: tuple


class Shapes:
    """All reachable tail maps, with smallest representative trees and the
    productions connecting them."""

    def __init__(self, att):
        self.att = att
        self.tau = {}        # key -> tail map dict
        self.rep = {}        # key -> representative Tree
        self.prods = []
        self.by_out = {}     # key -> [Prod]
        self._walks = {}     # (prod id, attr) -> LocalResult
        self._build()

    def _step(self, sym, child_keys):
        taus = [self.tau[k] for k in child_keys]
        tau = {}
        for a in self.att.syn:
            res = local_run(self.att, sym, taus, None, (a, 0))
            if res.kind == "up":
                tau[a] = ("up", res.attr)
            elif res.kind == "ground":
                tau[a] = ("ground",)
        return tau

    def _build(self):
        done = set()
        changed = True
        while changed:
            changed = False
            keys = list(self.tau)
            for sym, k in self.att.input.items():
                for combo in itertools.product(keys, repeat=k):
                    if (sym, combo) in done:
                        continue
                    done.add((sym, combo))
                    tau = self._step(sym, combo)
                    key = _tau_key(tau)
                    prod = Prod(sym, combo, key)
                    self.prods.append(prod)
                    self.by_out.setdefault(key, []).append(prod)
                    if key not in self.tau:
                        self.tau[key] = tau
                        self.rep[key] = Tree(sym, [self.rep[c] for c in combo])
                        changed = True
        # settle representatives to the (size, render) minimum
        changed = True
        while changed:
            changed = False
            for p in self.prods:
                cand = Tree(p.sigma, [self.rep[c] for c in p.child_keys])
                if canonical_key(cand) < canonical_key(self.rep[p.out_key]):
                    self.rep[p.out_key] = cand
                    changed = True

    def walk(self, prod, attr):
        """Memoized node walk for entry attr over prod, bare-subtree mode."""
        k = (id(prod), attr)
        if k not in self._walks:
            taus = [self.tau[c] for c in prod.child_keys]
            self._walks[k] = local_run(self.att, prod.sigma, taus, None,
                                       (attr, 0))
        return self._walks[k]

    def key_of(self, s):
        child_keys = tuple(self.key_of(c) for c in s.children)
        return _tau_key(self._step(s.label, child_keys))


# ---------------------------------------------------------------------------
# node configurations

@dataclass(frozen=True)
class Config:
    key: tuple        # subtree shape
    entry: str        # first synthesized attribute entering the node
    chi: tuple        # sorted (inherited attr, answer) pairs

    def chi_map(self):
        return dict(self.chi)


def _chain(tau, entry, chi_map):
    """Visit chain at a node: entering attributes in order and the visiting
    pairs they realize, or None if the run would die here."""
    attrs = []
    pairs = []
    a = entry
    seen = set()
    while True:
        if a in seen:
            return None
        seen.add(a)
        attrs.append(a)
        out = tau.get(a)
        if out is None:
            return None
        if out[0] == "ground":
            return tuple(attrs), frozenset(pairs)
        b = out[1]
        pairs.append((b, a))
        ans = chi_map.get(b, HALT_DEAD)
        if ans == HALT_DEAD:
            return None
        if ans == HALT_OK:
            return tuple(attrs), frozenset(pairs)
        a = ans


class TopDown:
    """Reachable valid configurations from a given set of roots, with the
    production-indexed child configurations and discovery parents."""

    def __init__(self, att, shapes, roots):
        self.att = att
        self.shapes = shapes
        self.configs = []
        self.psi = {}         # config -> frozenset of visiting pairs
        self.expansions = {}  # config -> [(prod, {child index: config})]
        self.parent = {}      # config -> (config, prod, child index)
        self.has_unvisited = False
        queue = []
        for cfg in roots:
            if self._admit(cfg):
                queue.append(cfg)
        while queue:
            cfg = queue.pop(0)
            for prod, children in self._expand(cfg):
                self.expansions[cfg].append((prod, children))
                for i, child in children.items():
                    if child not in self.psi and self._admit(child):
                        self.parent[child] = (cfg, prod, i)
                        queue.append(child)

    def _admit(self, cfg):
        if cfg in self.psi:
            return False
        got = _chain(self.shapes.tau[cfg.key], cfg.entry, cfg.chi_map())
        if got is None:
            return False
        self.configs.append(cfg)
        self.psi[cfg] = got[1]
        self.expansions[cfg] = []
        return True

    def _expand(self, cfg):
        out = []
        chi = cfg.chi_map()
        for prod in self.shapes.by_out.get(cfg.key, []):
            taus = [self.shapes.tau[c] for c in prod.child_keys]
            res = local_run(self.att, prod.sigma, taus, chi, (cfg.entry, 0))
            if res.kind not in ("ground", "halt_ok"):
                continue
            first_entry = {}
            for i, a in res.visits:
                first_entry.setdefault(i, a)
            if len(first_entry) < len(prod.child_keys):
                self.has_unvisited = True
            children = {}
            for i, a in first_entry.items():
                chi_i = {}
                for b in self.att.inh:
                    r = local_run(self.att, prod.sigma, taus, chi, (b, i),
                                  boundary=i)
                    if r.kind == "enter":
                        chi_i[b] = r.attr
                    elif r.kind in ("ground", "halt_ok"):
                        chi_i[b] = HALT_OK
                    else:
                        chi_i[b] = HALT_DEAD
                children[i] = Config(prod.child_keys[i - 1], a,
                                     tuple(sorted(chi_i.items())))
            out.append((prod, children))
        return out


def _root_configs(att, shapes):
    """Valid whole-input configurations: entry is the initial attribute and
    chi reflects the root rules."""
    roots = []
    for key in sorted(shapes.tau):
        tau = shapes.tau[key]
        chi = {}
        for b in att.inh:
            res = local_run(att, ROOT, [tau], {}, (b, 1), boundary=1)
            if res.kind == "enter":
                chi[b] = res.attr
            elif res.kind == "ground":
                chi[b] = HALT_OK
            else:
                chi[b] = HALT_DEAD
        roots.append(Config(key, att.init, tuple(sorted(chi.items()))))
    return roots


def _allok_configs(att, shapes):
    """Bare-subtree configurations: one per shape and synthesized attribute
    with a defined tail, any exit ending the walk."""
    chi = tuple(sorted((b, HALT_OK) for b in att.inh))
    roots = []
    for key in sorted(shapes.tau):
        for a in att.syn:
            if a in shapes.tau[key]:
                roots.append(Config(key, a, chi))
    return roots


# ---------------------------------------------------------------------------
# variation: growth analysis over the bare-walk configuration system

class _Growth:
    """Per configuration of the bare-walk system: can the emitted output be
    positive, and is it unbounded over all trees of the configuration's
    shape? Carries witness material for pump construction."""

    def __init__(self, att, shapes):
        self.att = att
        self.shapes = shapes
        self.sys = TopDown(att, shapes, _allok_configs(att, shapes))
        self._weights()
        self._positives()
        self._edges()
        self._unbounded()
        self._values()

    def _weights(self):
        self.w0 = {}
        for cfg, exps in self.sys.expansions.items():
            chi = cfg.chi_map()
            for prod, _ in exps:
                taus = [self.shapes.tau[c] for c in prod.child_keys]
                res = local_run(self.att, prod.sigma, taus, chi,
                                (cfg.entry, 0))
                self.w0[(cfg, id(prod))] = res.emit

    def _positives(self):
        self.pos = {}
        changed = True
        while changed:
            changed = False
            for cfg, exps in self.sys.expansions.items():
                if cfg in self.pos:
                    continue
                for prod, children in exps:
                    tree = None
                    if self.w0[(cfg, id(prod))] > 0:
                        tree = self._fill(prod, {})
                    else:
                        for i, child in children.items():
                            if child in self.pos:
                                tree = self._fill(prod, {i: self.pos[child]})
                                break
                    if tree is not None:
                        self.pos[cfg] = tree
                        changed = True
                        break

    def _fill(self, prod, override):
        subs = []
        for i, key in enumerate(prod.child_keys, start=1):
            if i in override:
                subs.append(override[i])
            else:
                subs.append(self.shapes.rep[key])
        return Tree(prod.sigma, subs)

    def _edges(self):
        self.edges = {}   # cfg -> [(child cfg, prod, hole index, positivity)]
        for cfg, exps in self.sys.expansions.items():
            lst = []
            for prod, children in exps:
                for i, child in children.items():
                    why = None
                    if self.w0[(cfg, id(prod))] > 0:
                        why = "emits"
                    else:
                        for j, other in children.items():
                            if j != i and other in self.pos:
                                why = ("side", j, other)
                                break
                    lst.append((child, prod, i, children, why))
            self.edges[cfg] = lst

    def _unbounded(self):
        # strongly connected components over configuration edges
        index = {}
        low = {}
        comp = {}
        counter = itertools.count()
        ncomp = itertools.count()
        stack = []
        on_stack = set()

        def strongconnect(root):
            work = [(root, iter(self.edges.get(root, ())))]
            index[root] = low[root] = next(counter)
            stack.append(root)
            on_stack.add(root)
            while work:
                v, it = work[-1]
                advanced = False
                for child, *_ in it:
                    if child not in index:
                        index[child] = low[child] = next(counter)
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(self.edges.get(child, ()))))
                        advanced = True
                        break
                    if child in on_stack:
                        low[v] = min(low[v], index[child])
                if not advanced:
                    work.pop()
                    if low[v] == index[v]:
                        cid = next(ncomp)
                        while True:
                            w = stack.pop()
                            on_stack.discard(w)
                            comp[w] = cid
                            if w == v:
                                break
                    if work:
                        u, _ = work[-1]
                        low[u] = min(low[u], low[v])

        for cfg in self.sys.configs:
            if cfg not in index:
                strongconnect(cfg)

        core_comps = set()
        for cfg, lst in self.edges.items():
            for child, prod, i, children, why in lst:
                if why is not None and comp[cfg] == comp[child]:
                    core_comps.add(comp[cfg])
        self.comp = comp
        self.core_comps = core_comps
        self.unb = set()
        changed = True
        while changed:
            changed = False
            for cfg, lst in self.edges.items():
                if cfg in self.unb:
                    continue
                if comp[cfg] in core_comps or \
                        any(child in self.unb for child, *_ in lst):
                    self.unb.add(cfg)
                    changed = True

    def _values(self):
        self.value = {}
        changed = True
        while changed:
            changed = False
            for cfg, exps in self.sys.expansions.items():
                if cfg in self.unb:
                    continue
                best = self.value.get(cfg)
                for prod, children in exps:
                    total = self.w0[(cfg, id(prod))]
                    ok = True
                    for child in children.values():
                        if child not in self.value:
                            ok = False
                            break
                        total += self.value[child]
                    if ok and (best is None or total > best):
                        best = total
                if best is not None and best != self.value.get(cfg):
                    self.value[cfg] = best
                    changed = True

    def pump_pieces(self, target):
        """Outer context, loop context and base tree pumping target's
        output: the loop closes a shape-preserving cycle through an edge
        that emits or carries a positive side subtree."""
        # path from target to the first configuration inside a core component
        core = {c for c in self.unb if self.comp[c] in self.core_comps}
        prev = {target: None}
        queue = [target]
        entry = None
        while queue:
            cur = queue.pop(0)
            if cur in core:
                entry = cur
                break
            for child, prod, i, children, why in self.edges.get(cur, ()):
                if child not in prev and child in self.unb:
                    prev[child] = (cur, prod, i, children, why)
                    queue.append(child)
        assert entry is not None, "no core component reachable from target"
        path = []
        cur = entry
        while prev[cur] is not None:
            parent, prod, i, children, why = prev[cur]
            path.append((parent, prod, i, children, why))
            cur = parent
        path.reverse()
        outer = Tree(HOLE)
        for cfg, prod, i, children, why in path:
            outer = fill_holes(outer, [self._piece(prod, children, i, None)])
        loop_edges = self._cycle_through_positive(entry)
        loop = Tree(HOLE)
        for cfg, prod, i, children, why in loop_edges:
            use_side = why if isinstance(why, tuple) else None
            loop = fill_holes(loop, [self._piece(prod, children, i, use_side)])
        return outer, loop, self.shapes.rep[entry.key]

    def _cycle_through_positive(self, entry):
        cid = self.comp[entry]

        def inside(c):
            return self.comp.get(c) == cid

        # locate a positive edge inside the component and close a cycle
        # through it starting and ending at entry
        for src, lst in self.edges.items():
            if not inside(src):
                continue
            for child, prod, i, children, why in lst:
                if why is not None and inside(child):
                    to_src = self._path_inside(entry, src, cid)
                    back = self._path_inside(child, entry, cid)
                    edge = (src, prod, i, children, why)
                    return to_src + [edge] + back
        raise AssertionError("no positive edge in core component")

    def _path_inside(self, src, dst, cid):
        if src == dst:
            return []
        prev = {src: None}
        queue = [src]
        while queue:
            cur = queue.pop(0)
            for edge in self.edges.get(cur, ()):
                child = edge[0]
                if self.comp.get(child) != cid or child in prev:
                    continue
                prev[child] = (cur, (cur,) + edge[1:])
                if child == dst:
                    steps = []
                    while prev[child] is not None:
                        parent, e = prev[child]
                        steps.append(e)
                        child = parent
                    steps.reverse()
                    return steps
                queue.append(child)
        raise AssertionError("disconnected component")

    def _piece(self, prod, children, hole, use_side):
        subs = []
        for i, key in enumerate(prod.child_keys, start=1):
            if i == hole:
                subs.append(Tree(HOLE))
            elif use_side is not None and i == use_side[1]:
                subs.append(self.pos[use_side[2]])
            else:
                subs.append(self.shapes.rep[key])
        return Tree(prod.sigma, subs)


@dataclass
class PumpWitness:
    """Replayable evidence of unbounded variation: outer[loop^n[base]] for
    n = 0, 1, 2 all stay inside Omega, and the normal forms from attr at
    the root strictly grow."""
    attr: str
    outer: Tree
    loop: Tree
    base: Tree
    lengths: tuple

    def tree(self, n):
        t = self.base
        for _ in range(n):
            t = fill_holes(self.loop, [t])
        return fill_holes(self.outer, [t])


@dataclass
class VariationVerdict:
    psi: frozenset
    bounded: bool
    kappa_psi: int = None
    witness: PumpWitness = None


def _check_psi(att, psi):
    pairs = []
    for b, a in psi:
        if not att.is_inh(b):
            raise UnknownAttribute("not an inherited attribute: %r" % (b,))
        if not att.is_syn(a):
            raise UnknownAttribute("not a synthesized attribute: %r" % (a,))
        pairs.append((b, a))
    return frozenset(pairs)


def _variation_core(att, growth, psi):
    shapes = growth.shapes
    entries = {a for _, a in psi}
    allok = tuple(sorted((b, HALT_OK) for b in att.inh))
    targets = [cfg for cfg in growth.sys.configs
               if cfg.chi == allok and cfg.entry in entries
               and _isd_of_tau(shapes.tau[cfg.key]) >= psi]
    unb = [cfg for cfg in targets if cfg in growth.unb]
    if unb:
        target = unb[0]
        outer, loop, base = growth.pump_pieces(target)
        w = PumpWitness(target.entry, outer, loop, base, ())
        lengths = []
        for n in range(3):
            t = w.tree(n)
            assert _isd_of_tau(shapes.tau[shapes.key_of(t)]) >= psi
            lengths.append(_bare_nf_size(att, shapes, t, target.entry))
        w.lengths = tuple(lengths)
        assert lengths[0] < lengths[1] < lengths[2], lengths
        return VariationVerdict(psi, False, witness=w)
    if not targets:
        return VariationVerdict(psi, True, kappa_psi=0)
    best = max(growth.value[cfg] for cfg in targets)
    return VariationVerdict(psi, True, kappa_psi=best + 1)


def _bare_nf_size(att, shapes, t, entry):
    """Size of the normal form from entry at the root of bare t, without
    running the derivation: emitted length plus one for the tip."""
    prods = {}

    def length(sub):
        key_children = [length(c) for c in sub.children]
        keys = tuple(k for k, _ in key_children)
        taus = [shapes.tau[k] for k in keys]
        tau = {}
        lens = {}
        for a in att.syn:
            res = local_run(att, sub.label, taus, None, (a, 0))
            if res.kind in ("up", "ground"):
                tau[a] = ("up", res.attr) if res.kind == "up" else ("ground",)
                total = res.emit
                for i, a2 in res.visits:
                    total += key_children[i - 1][1][a2]
                lens[a] = total
        return _tau_key(tau), lens

    _, lens = length(t)
    return lens[entry] + 1


def variation(a, psi):
    """Boundedness of the output chunks attributable to one visiting pair
    set, with the exact height cap when bounded and a pump witness when
    not."""
    _require_walkable(a)
    psi = _check_psi(a, psi)
    shapes = Shapes(a)
    growth = _Growth(a, shapes)
    return _variation_core(a, growth, psi)


# ---------------------------------------------------------------------------
# visiting pair sets, kappa, single path

def visiting_pair_sets(a):
    """The family of visiting pair sets realized at some node of some input
    in the domain."""
    _require_walkable(a)
    shapes = Shapes(a)
    sys = TopDown(a, shapes, _root_configs(a, shapes))
    family = {sys.psi[cfg] for cfg in sys.configs}
    if sys.has_unvisited:
        family.add(frozenset())
    return family


def kappa(a):
    """Largest height cap among bounded-variation visiting pair sets."""
    _require_walkable(a)
    shapes = Shapes(a)
    sys = TopDown(a, shapes, _root_configs(a, shapes))
    growth = _Growth(a, shapes)
    family = {sys.psi[cfg] for cfg in sys.configs}
    if sys.has_unvisited:
        family.add(frozenset())
    best = 0
    for psi in family:
        verdict = _variation_core(a, growth, psi)
        if verdict.bounded:
            best = max(best, verdict.kappa_psi)
    return best


@dataclass
class SinglePathVerdict:
    yes: bool
    witness: tuple = None   # (tree, address, address)


def single_path(a):
    """Whether, on every input, the nodes with unbounded variation all lie
    on one root-to-leaf path."""
    _require_walkable(a)
    shapes = Shapes(a)
    sys = TopDown(a, shapes, _root_configs(a, shapes))
    growth = _Growth(a, shapes)
    verdicts = {}

    def psi_unbounded(cfg):
        psi = sys.psi[cfg]
        if psi not in verdicts:
            verdicts[psi] = _variation_core(a, growth, psi)
        return not verdicts[psi].bounded

    flagged = {}   # config -> None (own psi unbounded) or (prod, i, child)
    for cfg in sys.configs:
        if psi_unbounded(cfg):
            flagged[cfg] = None
    changed = True
    while changed:
        changed = False
        for cfg, exps in sys.expansions.items():
            if cfg in flagged:
                continue
            for prod, children in exps:
                hit = next((i for i in sorted(children)
                            if children[i] in flagged), None)
                if hit is not None:
                    flagged[cfg] = (prod, hit, children[hit])
                    changed = True
                    break

    for cfg in sys.configs:
        for prod, children in sys.expansions[cfg]:
            bad = [i for i in sorted(children) if children[i] in flagged]
            if len(bad) >= 2:
                s, v1, v2 = _reconstruct(shapes, sys, flagged, cfg, prod,
                                         children, bad[0], bad[1])
                return SinglePathVerdict(False, (s, v1, v2))
    return SinglePathVerdict(True)


def _reconstruct(shapes, sys, flagged, cfg, prod, children, i1, i2):
    """Concrete tree for a failed single-path check: follow discovery
    parents up to a root and flag pointers down to unbounded nodes."""

    def down(config):
        """Subtree realizing config with the address of a node whose own
        visiting pair set is unbounded."""
        ptr = flagged[config]
        if ptr is None:
            return shapes.rep[config.key], ()
        p, i, child = ptr
        sub, addr = down(child)
        subs = []
        for j, key in enumerate(p.child_keys, start=1):
            subs.append(sub if j == i else shapes.rep[key])
        return Tree(p.sigma, subs), (i,) + addr

    sub1, a1 = down(children[i1])
    sub2, a2 = down(children[i2])
    subs = []
    for j, key in enumerate(prod.child_keys, start=1):
        if j == i1:
            subs.append(sub1)
        elif j == i2:
            subs.append(sub2)
        else:
            subs.append(shapes.rep[key])
    t = Tree(prod.sigma, subs)
    v1 = (i1,) + a1
    v2 = (i2,) + a2
    while cfg in sys.parent:
        parent_cfg, p, i = sys.parent[cfg]
        subs = []
        for j, key in enumerate(p.child_keys, start=1):
            subs.append(t if j == i else shapes.rep[key])
        t = Tree(p.sigma, subs)
        v1 = (i,) + v1
        v2 = (i,) + v2
        cfg = parent_cfg
    return t, v1, v2
