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

Both summaries are read off node walks, and the node walk is the one
the crossing summaries of semantics.Crossings run: Crossings.walk, over
children given by their tail maps as ends.  A walk at a node runs until
it leaves the node for its parent; up to there it does not depend on
chi, so it is split into chi-free segments (local_run), and a walk under
a given chi chains them through chi's answers (stitch).  The segments
from each synthesized attribute at the node are the ones that build the
node's tail map, so each production keeps them from the shape build
(Prod.runs).  A walk that stops at a child, which is how a child's chi
is found, reads that child as "enter" ends, never its tail map: its
segments, and the chi they give the child, are memoized without it (by
symbol, child, the other children's shapes and start or chi) and shared
by every shape of the child.  The output length of a pump witness's
walk is read off the crossing summary of its tree.

The growth system and the circularity test explore only what a verdict
reads.  The variation of a visiting pair set psi reads the bare-walk
configurations (any exit ends the walk) that enter a node by one of
psi's synthesized attributes on a shape realizing psi: its targets.  The
growth system is rooted at the targets of the family's sets, not at
every shape and synthesized attribute.  That is exact: whether a
configuration can emit, whether its output is unbounded and its largest
output are fixpoints over the configurations below it, the same in any
system that holds it.
Circularity tries the products of the inclusion-maximal realizable
is-dependencies first, since a cycle under smaller ones is a cycle under
larger ones too, and tries all products only at a symbol with a cycle,
so that its witness is the first in product order.

Circularity, the single path verdict, kappa and the variation verdict of
each visiting pair set are computed once per spec and cached on it
(AttSpec.circularity and AttSpec.walk_analysis): the pipeline asks for
circularity in several stages, and single_path, kappa and variations come
from one pass over the same shapes and configurations.  Only these
small results are cached.  The tip-edge map of the is-dependency pass,
and the shapes with their memos and the configuration systems, die with
their pass as soon as it returns, since no reference cycle holds them;
kept on the spec they would stay alive through associate and
build_two_way, which raises the traced peak of one look-around fixture
decision from 13 to 21 MB.
"""

import itertools
from dataclasses import dataclass, field

from .errors import NotApplicable
from .model import ROOT, check_monadic, occ_pattern_info
from .semantics import Crossings, _bottom_up
from .trees import (HOLE, Tree, breadth_first, explore_bottom_up,
                    fill_holes, path_to, settle_representatives)

HALT_OK = "halt_ok"
HALT_DEAD = "halt_dead"


# ---------------------------------------------------------------------------
# node walks, read off Crossings.walk

# a walk's end -> the kind of its segment, any other end being "dead";
# and a segment's kind -> the end it gives its shape as a child, "dead"
# giving "stuck"
_KINDS = {"up": "up", "leaf": "ground", "enter": "enter"}
_ENDS = {"up": "up", "ground": "leaf"}


def local_run(crossings, sigma, below, start):
    """The chi-free segment of the walk at a sigma-node from start, an
    (attr, pos) as rule_table gives it, over children with the ends
    below (see Crossings): (kind, attr, emit, visits), kind "up" (attr
    the inherited attribute it leaves by), "ground" (the run finished),
    "enter" (attr the attribute entering the child it stops at) or
    "dead" (stuck or cycling).  emit counts the labels of the node's own
    rules, and visits are the children's pieces in order, as (child,
    attr); neither is read when the segment is dead."""
    pieces, end, name = crossings.walk(sigma, below, start)
    kind = _KINDS.get(end, "dead")
    return (kind, name if kind in ("up", "enter") else None,
            sum(len(x) for i, x in pieces if i is None),
            tuple((i + 1, crossings.syn[x]) for i, x in pieces
                  if i is not None))


def stitch(segment, chi, start):
    """The walk at a node from start under context answer chi, as a
    (kind, attr, emit, visits) tuple, chained from chi-free segments:
    segment(start) is local_run's segment from start, and each exit
    re-enters the node at (chi's answer, 0), or ends the walk "halt_ok"
    or "dead".  A walk whose segments share an occurrence repeats the
    exits of the first one from there on, so it re-enters some attribute
    twice; that re-entry is dead, as a revisit is."""
    kind, attr, emit, visits = segment(start)
    entered = set()
    while kind == "up":
        ans = chi.get(attr, HALT_DEAD)
        if ans == HALT_DEAD or ans in entered:
            return "dead", None, emit, visits
        if ans == HALT_OK:
            return "halt_ok", None, emit, visits
        entered.add(ans)
        kind, attr, more, seen = segment((ans, 0))
        emit += more
        visits += seen
    return kind, attr, emit, visits


# ---------------------------------------------------------------------------
# is-dependencies (works for nondeterministic and non-monadic specs too)

def _tip_edges(att):
    """symbol -> {(attr, pos): the occurrences in the right-hand sides
    of all its rules}, so nondeterministic and non-monadic specs too."""
    edges = {}
    for sym, rules in att.rules.items():
        row = edges.setdefault(sym, {})
        for rule in rules:
            tips = row.setdefault((rule.attr, rule.pos), [])
            for _, sub in rule.rhs.addresses():
                tip = occ_pattern_info(sub.label)
                if tip is not None:
                    tips.append(tip)
    return edges


def _theta_step(att, edges, child_thetas):
    """Per synthesized attribute, the inherited attributes reachable at the
    node's own root when started there, with the node's rules as the
    _tip_edges of its symbol and children summarized by their theta maps
    (synthesized -> set of inherited)."""
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
                stack.extend((b, pos) for b in child_thetas[pos - 1].get(
                    attr, ()))
            else:
                stack.extend(edges.get(cur, ()))
        result[a] = frozenset(reached)
    return result


def _theta_key(theta):
    return tuple(sorted((a, tuple(sorted(bs))) for a, bs in theta.items() if bs))


def all_isds(a, edges=None):
    """Every is-dependency realized by some input tree, as a set of
    frozensets of (inherited, synthesized) pairs; edges is _tip_edges(a)."""
    edges = edges or _tip_edges(a)
    thetas = {}

    def step(sym, combo):
        theta = _theta_step(a, edges.get(sym, {}),
                            [thetas[c] for c in combo])
        key = _theta_key(theta)
        thetas.setdefault(key, theta)
        return key

    explore_bottom_up(a.input, step)
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
    is-dependencies lets the walk revisit an attribute occurrence, as
    (flag, CircularityWitness or None).  Computed once per spec."""
    return a.circularity


def _circularity(a):
    """A graph under some child is-dependencies has every edge it has
    under subsets of them, so a symbol has a cycle under some combination
    of realizable is-dependencies exactly when it has one under some
    combination of inclusion-maximal ones (Knuth's circularity test).
    Only a symbol with such a cycle is searched over all combinations,
    for the first witness in product order."""
    edges = _tip_edges(a)
    isds = sorted(all_isds(a, edges), key=lambda s: sorted(s))
    maximal = [s for s in isds if not any(s < t for t in isds)]
    symbols = [(sym, k) for sym, k in a.input.items()] + [(ROOT, 1)]
    for sym, k in symbols:
        rule_edges = edges.get(sym, {})
        if _first_cycle(rule_edges, maximal, k) is not None:
            combo, cycle = _first_cycle(rule_edges, isds, k)
            return True, CircularityWitness(sym, combo, cycle)
    return False, None


def _first_cycle(rule_edges, isds, k):
    """(combo, cycle) for the first combination of k child is-dependencies
    from isds, in product order, under which a rank-k node's rules with
    the edges rule_edges close a cycle; None if none does."""
    rule_nodes = set(rule_edges).union(*rule_edges.values())
    for combo in itertools.product(isds, repeat=k):
        edges_k = {src: list(tips) for src, tips in rule_edges.items()}
        nodes = set(rule_nodes)
        for j in range(1, k + 1):
            for b, syn in combo[j - 1]:
                edges_k.setdefault((syn, j), []).append((b, j))
                nodes.add((syn, j))
                nodes.add((b, j))
        cycle = _cycle_in(edges_k, sorted(nodes))
        if cycle is not None:
            return combo, cycle
    return None


# ---------------------------------------------------------------------------
# deterministic layer: shapes (tail maps with representatives)

def _require_walkable(att):
    if not check_monadic(att):
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
    """One way to build a shape: sigma applied to child shapes.  runs maps
    each synthesized attribute a to the chi-free segment from (a, 0)."""
    sigma: str
    child_keys: tuple
    out_key: tuple
    runs: dict


class Shapes:
    """All reachable tail maps, with smallest representative trees and the
    productions connecting them, and the memo of boundary segments."""

    def __init__(self, att):
        self.att = att
        self.crossings = Crossings(att)
        self.tau = {}        # key -> tail map dict
        self.ends = {}       # key -> the tail map as a child's ends
        self.rep = {}        # key -> representative Tree
        self.prods = []
        self.by_out = {}     # key -> [Prod]
        self._bounded = {}   # (sigma, i, other child keys) -> {start: segment}
        self._chis = {}      # (sigma, i, other child keys, chi) -> child's chi
        self._chi_values = {}   # child's chi -> the one copy kept
        self._entering = tuple(("enter", a, False) for a in att.syn)
        self._build()

    def _runs(self, sym, child_keys):
        below = [self.ends[k] for k in child_keys]
        return {a: local_run(self.crossings, sym, below, (a, 0))
                for a in self.att.syn}

    def _build(self):
        def step(sym, combo):
            runs = self._runs(sym, combo)
            tau = _tau_of(runs)
            key = _tau_key(tau)
            prod = Prod(sym, combo, key, runs)
            self.prods.append(prod)
            self.by_out.setdefault(key, []).append(prod)
            if key not in self.tau:
                self.tau[key] = tau
                self.ends[key] = tuple(
                    (_ENDS.get(kind, "stuck"), attr, True)
                    for kind, attr, _, _ in runs.values())
                self.rep[key] = Tree(sym, [self.rep[c] for c in combo])
            return key

        explore_bottom_up(self.att.input, step)
        settle_representatives(
            [(p.sigma, p.child_keys, p.out_key) for p in self.prods], self.rep)

    def plug(self, prod, subs):
        """prod's symbol over the representatives of its child shapes,
        child i replaced by subs[i] where subs has it."""
        return Tree(prod.sigma, [subs.get(i, self.rep[key]) for i, key
                                 in enumerate(prod.child_keys, start=1)])

    def key_of(self, s):
        child_keys = tuple(self.key_of(c) for c in s.children)
        return _tau_key(_tau_of(self._runs(s.label, child_keys)))

    def bounded(self, sigma, child_keys, i):
        """The chi-free segments at a sigma-node that stop at child i, as a
        function of their start.  They never read child i's shape, so
        they are memoized without it and shared by every shape of that
        child."""
        others = child_keys[:i - 1] + child_keys[i:]
        memo = self._bounded.setdefault((sigma, i, others), {})

        def segment(start):
            seg = memo.get(start)
            if seg is None:
                below = [self.ends[k] for k in others]
                below.insert(i - 1, self._entering)
                seg = memo[start] = local_run(self.crossings, sigma, below,
                                              start)
            return seg
        return segment


def _tau_of(runs):
    """Tail map of a production from its segments."""
    tau = {}
    for a, (kind, attr, _, _) in runs.items():
        if kind == "up":
            tau[a] = ("up", attr)
        elif kind == "ground":
            tau[a] = ("ground",)
    return tau


# ---------------------------------------------------------------------------
# node configurations

@dataclass(frozen=True)
class Config:
    key: tuple        # subtree shape
    entry: str        # first synthesized attribute entering the node
    chi: tuple        # sorted (inherited attr, answer) pairs
    # configurations key every table of the analysis: hash the nested
    # tuples once, not on every lookup
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.key, self.entry, self.chi)))

    def __hash__(self):
        return self._hash

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
    """Valid configurations reachable from a given set of roots, in the
    order breadth_first finds them, with the production-indexed child
    configurations.  parent is the breadth_first map, with edges (prod,
    child index)."""

    def __init__(self, att, shapes, roots):
        self.att = att
        self.shapes = shapes
        self.psi = {}         # config -> frozenset of visiting pairs
        self.expansions = {}  # config -> [(prod, {child index: config})]
        self.emit = {}        # (config, id(prod)) -> the node's own output
        self.has_unvisited = False
        self._interned = {}   # config -> the one equal instance in use

        def successors(cfg):
            self.expansions[cfg] = self._expand(cfg)
            return [((prod, i), child)
                    for prod, children in self.expansions[cfg]
                    for i, child in children.items() if self._valid(child)]
        self.parent = breadth_first([cfg for cfg in roots if self._valid(cfg)],
                                    successors)
        self.configs = list(self.parent)

    def _valid(self, cfg):
        """Whether cfg's chain completes; keeps its visiting pairs."""
        if cfg not in self.psi:
            got = _chain(self.shapes.tau[cfg.key], cfg.entry, cfg.chi_map())
            if got is None:
                return False
            self.psi[cfg] = got[1]
        return True

    def _expand(self, cfg):
        out = []
        chi = cfg.chi_map()
        for prod in self.shapes.by_out.get(cfg.key, []):
            kind, _, emit, visits = stitch(
                lambda start: prod.runs[start[0]], chi, (cfg.entry, 0))
            if kind not in ("ground", "halt_ok"):
                continue
            self.emit[(cfg, id(prod))] = emit
            first_entry = {}
            for i, a in visits:
                first_entry.setdefault(i, a)
            if len(first_entry) < len(prod.child_keys):
                self.has_unvisited = True
            children = {}
            for i, a in first_entry.items():
                child = Config(prod.child_keys[i - 1], a, _child_chi(
                    self.shapes, prod.sigma, prod.child_keys, i, cfg.chi))
                children[i] = self._interned.setdefault(child, child)
            out.append((prod, children))
        return out


def _child_chi(shapes, sigma, child_keys, i, chi):
    """The context answer of child i of a sigma-node whose own context
    answer is chi, both as sorted (inherited attr, answer) pairs; memoized
    on shapes without child i's shape, which it never reads."""
    key = (sigma, i, child_keys[:i - 1] + child_keys[i:], chi)
    if key not in shapes._chis:
        segment = shapes.bounded(sigma, child_keys, i)
        chi_map = dict(chi)
        answers = []
        for b in shapes.att.inh:
            kind, attr, _, _ = stitch(segment, chi_map, (b, i))
            if kind == "enter":
                answers.append((b, attr))
            elif kind in ("ground", "halt_ok"):
                answers.append((b, HALT_OK))
            else:
                answers.append((b, HALT_DEAD))
        got = tuple(sorted(answers))
        shapes._chis[key] = shapes._chi_values.setdefault(got, got)
    return shapes._chis[key]


def _root_configs(att, shapes):
    """Valid whole-input configurations: entry is the initial attribute and
    chi reflects the root rules.  The root rules never read the shape
    below them, so every shape gets the same chi."""
    chi = _child_chi(shapes, ROOT, (None,), 1, ())
    return [Config(key, att.init, chi) for key in sorted(shapes.tau)]


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


def _wants(psi, isd, cfg):
    """Whether the variation of psi reads the bare-walk configuration cfg,
    whose shape realizes the is-dependency isd: the walk enters the node
    by one of psi's synthesized attributes, and the shape realizes psi."""
    return any(cfg.entry == a for _, a in psi) and isd >= psi


def _targets(att, shapes, family):
    """The bare-walk configurations that some visiting pair set of family
    reads, in _allok_configs order."""
    isds = {key: _isd_of_tau(tau) for key, tau in shapes.tau.items()}
    return [cfg for cfg in _allok_configs(att, shapes)
            if any(_wants(psi, isds[cfg.key], cfg) for psi in family)]


# ---------------------------------------------------------------------------
# variation: growth analysis over the bare-walk configuration system

def _components(roots, successors):
    """Strongly connected components of the graph reachable from roots,
    successors(v) listing the successors of v (Tarjan, without
    recursion): node -> component number, equal for two nodes exactly
    when each reaches the other."""
    index = {}
    low = {}
    comp = {}
    counter = itertools.count()
    ncomp = itertools.count()
    stack = []
    on_stack = set()
    for root in roots:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = next(counter)
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
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
    return comp


class _Growth:
    """Per configuration of the bare-walk system: can the emitted output be
    positive, and is it unbounded over all trees of the configuration's
    shape? Carries witness material for pump construction.

    The system is rooted at the targets of the visiting pair sets of
    family only, not at every bare-walk configuration.  That is exact:
    pos, unb and value of a configuration are fixpoints over the
    expansions below it, so they depend only on the configurations
    reachable from it, and every target is a root."""

    def __init__(self, att, shapes, family):
        self.att = att
        self.shapes = shapes
        self.targets = _targets(att, shapes, family)
        self.sys = TopDown(att, shapes, self.targets)
        self._positives()
        self._edges()
        self._unbounded()
        self._values()

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
                    if self.sys.emit[(cfg, id(prod))] > 0:
                        tree = self.shapes.plug(prod, {})
                    else:
                        for i, child in children.items():
                            if child in self.pos:
                                tree = self.shapes.plug(prod, {i: self.pos[child]})
                                break
                    if tree is not None:
                        self.pos[cfg] = tree
                        changed = True
                        break

    def _edges(self):
        self.edges = {}   # cfg -> [(child cfg, prod, hole index, positivity)]
        for cfg, exps in self.sys.expansions.items():
            lst = []
            for prod, children in exps:
                for i, child in children.items():
                    why = None
                    if self.sys.emit[(cfg, id(prod))] > 0:
                        why = "emits"
                    else:
                        for j, other in children.items():
                            if j != i and other in self.pos:
                                why = ("side", j, other)
                                break
                    lst.append((child, prod, i, children, why))
            self.edges[cfg] = lst

    def _unbounded(self):
        comp = _components(self.sys.configs, lambda cfg: [
            child for child, *_ in self.edges.get(cfg, ())])
        core_comps = set()
        for cfg, lst in self.edges.items():
            for child, prod, i, children, why in lst:
                if why is not None and comp[cfg] == comp[child]:
                    core_comps.add(comp[cfg])
        self.comp = comp
        self.core_comps = core_comps
        back = {}
        for cfg, lst in self.edges.items():
            for edge in lst:
                back.setdefault(edge[0], []).append((edge, cfg))
        self.unb = set(breadth_first(
            [cfg for cfg in self.edges if comp[cfg] in core_comps],
            lambda cfg: back.get(cfg, ())))

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
                    total = self.sys.emit[(cfg, id(prod))]
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
        prev = self._search(target, self.unb.__contains__)
        entry = next(c for c in prev if self.comp[c] in self.core_comps)
        outer = Tree(HOLE)
        for cfg, prod, i, children, why in path_to(prev, entry):
            piece = self.shapes.plug(prod, {i: Tree(HOLE)})
            outer = fill_holes(outer, [piece])
        loop_edges = self._cycle_through_positive(entry)
        loop = Tree(HOLE)
        for cfg, prod, i, children, why in loop_edges:
            subs = {i: Tree(HOLE)}
            if isinstance(why, tuple):
                subs[why[1]] = self.pos[why[2]]
            loop = fill_holes(loop, [self.shapes.plug(prod, subs)])
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
                    to_src = path_to(self._search(entry, inside), src)
                    back = path_to(self._search(child, inside), entry)
                    edge = (src, prod, i, children, why)
                    return to_src + [edge] + back
        raise AssertionError("no positive edge in core component")

    def _search(self, src, keep):
        """The breadth_first map from src along the edges into the
        configurations keep accepts, each edge (config, prod, hole index,
        children, why)."""
        return breadth_first([src], lambda cur: [
            ((cur,) + edge[1:], edge[0]) for edge in self.edges.get(cur, ())
            if keep(edge[0])])


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


def _variation_core(growth, psi):
    shapes = growth.shapes
    targets = [cfg for cfg in growth.targets
               if _wants(psi, _isd_of_tau(shapes.tau[cfg.key]), cfg)]
    unb = [cfg for cfg in targets if cfg in growth.unb]
    if unb:
        target = unb[0]
        outer, loop, base = growth.pump_pieces(target)
        w = PumpWitness(target.entry, outer, loop, base, ())
        lengths = []
        for n in range(3):
            t = w.tree(n)
            assert _isd_of_tau(shapes.tau[shapes.key_of(t)]) >= psi
            lengths.append(_bare_nf_size(shapes, t, target.entry))
        w.lengths = tuple(lengths)
        assert lengths[0] < lengths[1] < lengths[2], lengths
        return VariationVerdict(psi, False, witness=w)
    if not targets:
        return VariationVerdict(psi, True, kappa_psi=0)
    best = max(growth.value[cfg] for cfg in targets)
    return VariationVerdict(psi, True, kappa_psi=best + 1)


def _bare_nf_size(shapes, t, entry):
    """Size of the normal form from entry at the root of bare t, without
    running the derivation: the chunk of entry's walk in the crossing
    summary of t, plus one for the tip."""
    crossings = shapes.crossings
    _, chunks = _bottom_up(
        t, {}, lambda sub, below: crossings.summary(sub.label, below))
    return len(chunks[crossings.index[entry]]) + 1


# ---------------------------------------------------------------------------
# visiting pair sets, kappa, single path

def _family(sys):
    family = {sys.psi[cfg] for cfg in sys.configs}
    if sys.has_unvisited:
        family.add(frozenset())
    return family


def kappa(a):
    """Largest height cap among bounded-variation visiting pair sets.
    Computed once per spec, together with single_path."""
    _require_walkable(a)
    return a.walk_analysis[1]


def variations(a):
    """The VariationVerdict of every visiting pair set, keyed by the set.
    Computed once per spec, together with single_path."""
    _require_walkable(a)
    return a.walk_analysis[2]


@dataclass
class SinglePathVerdict:
    yes: bool
    witness: tuple = None   # (tree, address, address)


def single_path(a):
    """Whether, on every input, the nodes with unbounded variation all lie
    on one root-to-leaf path.  Computed once per spec, together with
    kappa."""
    _require_walkable(a)
    return a.walk_analysis[0]


def _single_path_and_kappa(a):
    """Decide the variation of every visiting pair set of a walkable att
    over one set of shapes and configurations, and return the single path
    verdict, kappa and the verdict per visiting pair set."""
    shapes = Shapes(a)
    sys = TopDown(a, shapes, _root_configs(a, shapes))
    family = _family(sys)
    growth = _Growth(a, shapes, family)
    verdicts = {psi: _variation_core(growth, psi) for psi in family}
    cap = max((v.kappa_psi for v in verdicts.values() if v.bounded),
              default=0)

    # config -> None (own psi unbounded) or (prod, i, child)
    flagged = {cfg: None for cfg in sys.configs
               if not verdicts[sys.psi[cfg]].bounded}
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
                return SinglePathVerdict(False, (s, v1, v2)), cap, verdicts
    return SinglePathVerdict(True), cap, verdicts


def _down(shapes, flagged, config):
    """Subtree realizing config with the address of a node whose own
    visiting pair set is unbounded, following flag pointers down."""
    ptr = flagged[config]
    if ptr is None:
        return shapes.rep[config.key], ()
    p, i, child = ptr
    sub, addr = _down(shapes, flagged, child)
    return shapes.plug(p, {i: sub}), (i,) + addr


def _reconstruct(shapes, sys, flagged, cfg, prod, children, i1, i2):
    """Concrete tree for a failed single-path check: follow discovery
    parents up to a root and flag pointers down to unbounded nodes."""
    sub1, a1 = _down(shapes, flagged, children[i1])
    sub2, a2 = _down(shapes, flagged, children[i2])
    t = shapes.plug(prod, {i1: sub1, i2: sub2})
    v1 = (i1,) + a1
    v2 = (i2,) + a2
    for p, i in reversed(path_to(sys.parent, cfg)):
        t = shapes.plug(p, {i: t})
        v1 = (i,) + v1
        v2 = (i,) + v2
    return t, v1, v2
