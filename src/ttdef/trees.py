"""Ranked alphabets, immutable trees, Dewey addresses, prefix trees with holes.

Node addresses are tuples of 1-based child indices; the empty tuple is the
root and renders as "eps", other addresses render dotted ("2.1").
"""

import itertools

from .errors import ArityMismatch, NoSuchNode, SpecSyntaxError, UnknownSymbol

# Hole symbol of prefix trees (rank 0). Kept inside the symbol charset so
# prefix trees serialize like ordinary trees.
HOLE = "_"


class RankedAlphabet:
    """Ordered map from symbol name to rank. Insertion order is the canonical
    symbol order used by enumeration and rendering."""

    def __init__(self, pairs):
        self._ranks = {}
        for name, rank in pairs.items() if isinstance(pairs, dict) else pairs:
            if name in self._ranks and self._ranks[name] != rank:
                raise ArityMismatch("symbol %r declared with ranks %d and %d"
                                    % (name, self._ranks[name], rank))
            if name == "#":
                raise UnknownSymbol("'#' is reserved for the implicit root marker")
            if rank < 0:
                raise ArityMismatch("negative rank for %r" % name)
            self._ranks.setdefault(name, rank)

    def rank(self, name):
        try:
            return self._ranks[name]
        except KeyError:
            raise UnknownSymbol("unknown symbol %r" % name) from None

    def __contains__(self, name):
        return name in self._ranks

    def __iter__(self):
        return iter(self._ranks)

    def __len__(self):
        return len(self._ranks)

    def items(self):
        return self._ranks.items()

    def symbols(self, rank=None):
        if rank is None:
            return tuple(self._ranks)
        return tuple(n for n, k in self._ranks.items() if k == rank)

    def __eq__(self, other):
        return isinstance(other, RankedAlphabet) and self._ranks == other._ranks

    def __repr__(self):
        return "RankedAlphabet(%r)" % (self._ranks,)


def explore_bottom_up(alphabet, step):
    """States reachable bottom-up, in the order they were found.

    step(symbol, child_states) is called once for each symbol of the
    ranked alphabet and each tuple of known states of its rank, and
    returns the state reached, or None for no state.  Rounds run until
    one finds nothing new; a round visits, symbol by symbol and in
    itertools.product order, the tuples over the states known when it
    began that contain a state found in the round before (the first
    round visits the nullary symbols).  Callers name their states in
    this order, so it is part of every artifact built on it."""
    found = []
    known = set()

    def visit(sym, combo):
        state = step(sym, combo)
        if state is not None and state not in known:
            known.add(state)
            found.append(state)

    for sym, k in alphabet.items():
        if k == 0:
            visit(sym, ())
    start = 0
    while start < len(found):
        pool = list(found)
        for sym, k in alphabet.items():
            if k == 0:
                continue
            # pool[start:] was found in the round before; a head without
            # one of those states needs one in the last place
            for head in itertools.product(range(len(pool)), repeat=k - 1):
                lo = 0 if head and max(head) >= start else start
                states = tuple(pool[i] for i in head)
                for last in pool[lo:]:
                    visit(sym, states + (last,))
        start = len(pool)
    return found


def breadth_first(roots, successors):
    """Nodes reachable from the roots, breadth first: a dict in the order
    found, mapping each root to None and every other node to (node,
    edge), the first edge found into it.  successors(node) gives (edge,
    next node) pairs; it is called once per node, in the order found, so
    callers may record what it sees.  Callers name states and pick
    witness paths in this order, so it is part of every artifact built
    on it."""
    parent = dict.fromkeys(roots)
    queue = list(parent)
    for node in queue:
        for edge, nxt in successors(node):
            if nxt not in parent:
                parent[nxt] = (node, edge)
                queue.append(nxt)
    return parent


def path_to(parent, node):
    """The edges from a root of a breadth_first map to node, in order."""
    path = []
    while parent[node] is not None:
        node, edge = parent[node]
        path.append(edge)
    return path[::-1]


def settle_representatives(productions, reps):
    """Make reps[state] the canonical_key-smallest tree among those the
    productions build from the children's representatives, repeating
    until nothing changes.  productions is a list of (symbol, child
    states, state)."""
    changed = True
    while changed:
        changed = False
        for sym, combo, state in productions:
            cand = Tree(sym, [reps[c] for c in combo])
            if canonical_key(cand) < canonical_key(reps[state]):
                reps[state] = cand
                changed = True


class Tree:
    """Immutable ranked tree. size/height are precomputed; hash is cached.

    height(single node) = 1, the convention used everywhere in this package
    ("depth <= d" always means height <= d).
    """

    __slots__ = ("label", "children", "size", "height", "_hash")

    def __init__(self, label, children=()):
        self.label = label
        self.children = tuple(children)
        size = 1
        height = 1
        for c in self.children:
            size += c.size
            if c.height + 1 > height:
                height = c.height + 1
        self.size = size
        self.height = height
        self._hash = hash((label,) + tuple(c._hash for c in self.children))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        if self._hash != other._hash or self.size != other.size:
            return False
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if x.label != y.label or len(x.children) != len(y.children):
                return False
            stack.extend(zip(x.children, y.children))
        return True

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def render(self):
        # Iterative so deep monadic chains do not hit the recursion limit.
        out = []
        stack = [("t", self)]
        while stack:
            kind, item = stack.pop()
            if kind == "s":
                out.append(item)
                continue
            out.append(item.label)
            kids = item.children
            if kids:
                out.append("(")
                stack.append(("s", ")"))
                for i in range(len(kids) - 1, -1, -1):
                    stack.append(("t", kids[i]))
                    if i > 0:
                        stack.append(("s", ","))
        return "".join(out)

    def __repr__(self):
        return "Tree<%s>" % self.render()

    def subtree_at(self, addr):
        t = self
        for depth, i in enumerate(addr):
            if not 1 <= i <= len(t.children):
                raise NoSuchNode("no node %s in %s" % (format_address(addr[:depth + 1]), self.render()))
            t = t.children[i - 1]
        return t

    def replace_at(self, addr, repl):
        path = [self]
        t = self
        for depth, i in enumerate(addr):
            if not 1 <= i <= len(t.children):
                raise NoSuchNode("no node %s in %s" % (format_address(addr[:depth + 1]), self.render()))
            t = t.children[i - 1]
            path.append(t)
        result = repl
        for node, i in zip(reversed(path[:-1]), reversed(addr)):
            result = Tree(node.label, node.children[:i - 1] + (result,) + node.children[i:])
        return result

    def addresses(self):
        """Preorder (address, subtree) pairs."""
        stack = [((), self)]
        while stack:
            addr, t = stack.pop()
            yield addr, t
            for i in range(len(t.children), 0, -1):
                stack.append((addr + (i,), t.children[i - 1]))

    def leaves(self):
        for addr, t in self.addresses():
            if not t.children:
                yield addr, t


def leaf(label):
    return Tree(label)


def format_address(addr):
    return "eps" if not addr else ".".join(str(i) for i in addr)


_PUNCT = {"(": "lpar", ")": "rpar", ":": "colon", ";": "semi", "=": "eq", ",": "comma"}


def tokenize(text, base=0):
    """Shared lexer for tree terms and spec lines.

    Symbol names may embed balanced angle-bracket groups, so generated names
    like f_<r1,r2> or lit<g(e)> lex as single tokens.
    """
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        off = base + i
        if c == "-" and text[i:i + 2] == "->":
            toks.append(("arrow", "->", off))
            i += 2
            continue
        if c in _PUNCT:
            toks.append((_PUNCT[c], c, off))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], off))
            i = j
            continue
        if c.isalpha() or c in "_#<":
            if c == "<":
                depth = 1
                j = i + 1
                while j < n and depth:
                    if text[j] == "<":
                        depth += 1
                    elif text[j] == ">":
                        depth -= 1
                    j += 1
                if depth:
                    raise SpecSyntaxError("unbalanced '<' in name", off)
            else:
                j = i + 1
            while j < n:
                d = text[j]
                if d.isalnum() or d in "_@":
                    j += 1
                    continue
                if d == "<":
                    depth = 1
                    j += 1
                    while j < n and depth:
                        if text[j] == "<":
                            depth += 1
                        elif text[j] == ">":
                            depth -= 1
                        j += 1
                    if depth:
                        raise SpecSyntaxError("unbalanced '<' in name", off)
                    continue
                break
            toks.append(("name", text[i:j], off))
            i = j
            continue
        raise SpecSyntaxError("unexpected character %r" % c, off)
    return toks


def parse_tree(text, alphabet=None, allow_hole=False, base=0):
    toks = tokenize(text, base)
    t, pos = _parse_term(toks, 0, text, alphabet, allow_hole)
    if pos != len(toks):
        raise SpecSyntaxError("trailing input after tree", toks[pos][2])
    return t


def parse_tree_tokens(toks, pos, alphabet=None, allow_hole=False):
    """Parse one tree term from a token list; returns (tree, next position)."""
    return _parse_term(toks, pos, None, alphabet, allow_hole)


def _mk(label, children, off, alphabet, allow_hole):
    if alphabet is not None:
        if label == HOLE and allow_hole:
            if children:
                raise ArityMismatch("hole symbol takes no children", off)
        elif label not in alphabet:
            raise UnknownSymbol("unknown symbol %r" % label, off)
        elif alphabet.rank(label) != len(children):
            raise ArityMismatch("symbol %r has rank %d, got %d children"
                                % (label, alphabet.rank(label), len(children)), off)
    return Tree(label, children)


def _parse_term(toks, pos, text, alphabet, allow_hole):
    # Iterative so deep monadic terms parse without hitting the recursion
    # limit. The stack holds open nodes waiting for further children.
    stack = []
    while True:
        if pos >= len(toks):
            raise SpecSyntaxError("expected a tree term, found end of input",
                                  toks[-1][2] + 1 if toks else 0)
        kind, label, off = toks[pos]
        if kind != "name":
            raise SpecSyntaxError("expected a symbol name, found %r" % label, off)
        pos += 1
        if pos < len(toks) and toks[pos][0] == "lpar":
            pos += 1
            if pos < len(toks) and toks[pos][0] == "rpar":
                pos += 1  # accept explicit "e()" for rank 0
                t = _mk(label, (), off, alphabet, allow_hole)
            else:
                stack.append((label, off, []))
                continue
        else:
            t = _mk(label, (), off, alphabet, allow_hole)
        while True:
            if not stack:
                return t, pos
            stack[-1][2].append(t)
            if pos >= len(toks):
                raise SpecSyntaxError("unterminated subtree list", stack[-1][1])
            if toks[pos][0] == "comma":
                pos += 1
                break
            if toks[pos][0] == "rpar":
                pos += 1
                label2, off2, kids = stack.pop()
                t = _mk(label2, kids, off2, alphabet, allow_hole)
                continue
            raise SpecSyntaxError("expected ',' or ')'", toks[pos][2])


def hole_addresses(p):
    return [addr for addr, sub in p.addresses() if sub.label == HOLE and not sub.children]


def fill_holes(p, fillers):
    """Replace hole leaves in preorder by the given trees."""
    holes = hole_addresses(p)
    if len(holes) != len(fillers):
        raise NoSuchNode("expected %d fillers, got %d" % (len(holes), len(fillers)))
    t = p
    for addr, filler in zip(holes, fillers):
        t = t.replace_at(addr, filler)
    return t


def canonical_key(t):
    """Canonical order on trees: size first, then serialized text."""
    return (t.size, t.render())


def trees_up_to_height(alphabet, h):
    """All trees over the alphabet of height <= h, in canonical order.
    Each tree's text is kept as the tree is built from its children, so
    the sort by canonical_key's (size, text) renders no tree."""
    text = {Tree(s): s for s in alphabet.symbols(rank=0)}
    for _ in range(1, h):
        prev = list(text)
        new = False
        for sym, k in alphabet.items():
            if k == 0:
                continue
            for kids in itertools.product(prev, repeat=k):
                t = Tree(sym, kids)
                if t.height <= h and t not in text:
                    text[t] = "%s(%s)" % (sym, ",".join(text[c] for c in kids))
                    new = True
        if not new:
            break
    return sorted(text, key=lambda t: (t.size, text[t]))
