"""Transducer declarations, the textual spec format, and static validation.

One line-oriented format covers every machine kind, keyed by a header line
(att / dt / relabeling / pair). A file may hold several declarations; pair
lines reference earlier declarations in the same text by name. parse_all
returns all of them, fully validated, and raises a subclass of TtdefError
with a byte offset on every malformed input; render_spec inverts it on
every validated declaration, which comes last in the rendered text.

Attribute occurrences inside rule right-hand sides and sentential forms are
stored as ordinary tree leaves whose label carries the position, e.g.
"a(pi 1)", "b(pi)" in rules and "a(1.2)", "b(eps)" in forms. Symbol names
never end in ')', so a label ending in ')' is always an occurrence or a
call q(xi); no inner part (pi, pi i, xi, eps, 1.2) holds a '(', so such a
label splits into name and inner part at its last '('.
"""

import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (AlphabetMismatch, ArityMismatch,
                     DuplicateLhsInDeterministic, RootMarkerSynRule,
                     SpecSyntaxError, TtdefError, UnknownAttribute,
                     UnknownSymbol)
from .trees import RankedAlphabet, Tree, parse_tree_tokens, tokenize, \
    format_address

ROOT = "#"


# ---------------------------------------------------------------------------
# occurrence labels and generated-name mangling

def is_occurrence(label):
    return label.endswith(")")


def _split_parens(label):
    """Split "name(inner)" at its last '(', else None."""
    i = label.rfind("(")
    if i <= 0 or not label.endswith(")"):
        return None
    return label[:i], label[i + 1:-1]


def occ_pattern(attr, pos):
    """Rule-side occurrence label: pos 0 is the node itself, i>=1 child i."""
    return "%s(pi)" % attr if pos == 0 else "%s(pi %d)" % (attr, pos)


def occ_pattern_info(label):
    parts = _split_parens(label)
    if parts is None:
        return None
    attr, inner = parts
    if inner == "pi":
        return attr, 0
    m = re.fullmatch(r"pi ([0-9]+)", inner)
    if m:
        return attr, int(m.group(1))
    return None


def occ_node(attr, addr):
    """Form-side occurrence label at an absolute node address."""
    return "%s(%s)" % (attr, format_address(addr))


def occ_node_info(label):
    parts = _split_parens(label)
    if parts is None:
        return None
    attr, inner = parts
    if inner == "eps":
        return attr, ()
    if re.fullmatch(r"[0-9]+(\.[0-9]+)*", inner):
        return attr, tuple(int(p) for p in inner.split("."))
    return None


def call_label(state, i):
    """Top-down transducer state call on the i-th input subtree."""
    return "%s(x%d)" % (state, i)


def call_info(label):
    parts = _split_parens(label)
    if parts is None:
        return None
    state, inner = parts
    m = re.fullmatch(r"x([0-9]+)", inner)
    return (state, int(m.group(1))) if m else None


def mangle_parts(sym, parts):
    """Annotated symbol name, e.g. f with states r1,r2 -> f_<r1,r2>."""
    return "%s_<%s>" % (sym, ",".join(parts))


def mangle_child(sym, i):
    """Monadic-encoding symbol name for "symbol, continue in child i"."""
    return "%s@%d" % (sym, i)


def split_mangled_child(name):
    m = re.fullmatch(r"(.*)@([0-9]+)", name)
    return (m.group(1), int(m.group(2))) if m else None


def mangle_literal(t):
    """Attribute name standing for a fixed ground output tree."""
    return "lit<%s>" % t.render()


def fresh_name(base, taken):
    """The first of base, base2, base3, ... not in taken; it is added to
    taken."""
    name, n = base, 1
    while name in taken:
        n += 1
        name = "%s%d" % (base, n)
    taken.add(name)
    return name


def rhs_chain(rhs, tip_info=occ_pattern_info):
    """Monadic rule right-hand side as (emitted labels, tip, leaf), or None
    when some node of it has several children.

    tip is what tip_info reads off the last leaf, (attr, pos) for an
    occurrence in a rule or (attr, address) for one in a form, else None
    with the rank-0 output label in leaf."""
    labels = []
    t = rhs
    while t.children:
        if len(t.children) != 1:
            return None
        labels.append(t.label)
        t = t.children[0]
    tip = tip_info(t.label)
    if tip is None:
        return tuple(labels), None, t.label
    return tuple(labels), tip, None


# ---------------------------------------------------------------------------
# declarations

@dataclass(frozen=True)
class AttRule:
    """One att rule. pos 0 encodes a(pi) with attr synthesized; pos i>=1
    encodes b(pi i) with attr inherited. rhs holds occurrence leaves."""
    attr: str
    pos: int
    rhs: Tree

    def lhs_text(self):
        return occ_pattern(self.attr, self.pos)

    def render(self, symbol):
        return "rule %s: %s -> %s" % (symbol, self.lhs_text(), self.rhs.render())


@dataclass
class AttSpec:
    name: str
    input: RankedAlphabet
    output: RankedAlphabet
    syn: tuple
    inh: tuple
    init: str
    rules: dict  # symbol in input or "#" -> tuple of AttRule

    def rank(self, symbol):
        return 1 if symbol == ROOT else self.input.rank(symbol)

    def rules_at(self, symbol):
        return self.rules.get(symbol, ())

    def is_syn(self, attr):
        return attr in self._syn_set

    def is_inh(self, attr):
        return attr in self._inh_set

    @property
    def attributes(self):
        return self.syn + self.inh

    # The rules never change after construction, so the properties derived
    # from them below are computed once per spec.

    @cached_property
    def deterministic(self):
        """No two different rules share a left-hand side; a rule repeated
        verbatim counts once."""
        first = {}
        for sym, rules in self.rules.items():
            for r in rules:
                got = first.setdefault((sym, r.attr, r.pos), r)
                if got is not r and got != r:
                    return False
        return True

    @cached_property
    def max_rhs_size(self):
        sizes = [r.rhs.size for rules in self.rules.values() for r in rules]
        return max(sizes) if sizes else 0

    @cached_property
    def rule_table(self):
        """(symbol, attr, pos) -> the rhs_chain of each rule with that
        left-hand side, in rule order, a rule repeated verbatim once per
        copy; a right-hand side that is not a chain, which monadic output
        rules out, is left out.  Each distinct right-hand side is parsed
        once and each distinct list of chains is one tuple.  Rules often
        share one right-hand side object, so each object is looked up by
        value once: by_id keeps its chain under its id, which stays valid
        while self.rules holds the object, and shared keeps each list
        under the ids of the list one shorter and the chain added."""
        table, chains, by_id, shared = {}, {}, {}, {}
        for sym, rules in self.rules.items():
            for r in rules:
                key = id(r.rhs)
                if key not in by_id:
                    if r.rhs not in chains:
                        chains[r.rhs] = rhs_chain(r.rhs)
                    by_id[key] = chains[r.rhs]
                chain = by_id[key]
                if chain is None:
                    continue
                lhs = sym, r.attr, r.pos
                have = table.get(lhs, ())
                grown = id(have), id(chain)
                if grown not in shared:
                    shared[grown] = have + (chain,)
                table[lhs] = shared[grown]
        return table

    # a noncircular spec that walks its rule table keeps the shapes its
    # circularity was read off (_walk_shapes) until its walk analysis
    # takes them, so one Shapes serves both

    @cached_property
    def circularity(self):
        """What analysis.is_circular answers: (flag, witness or None),
        read off the shapes of the spec when it walks its rule table."""
        from . import analysis   # analysis imports this module
        return analysis._circularity(self)

    @cached_property
    def walk_analysis(self):
        """(SinglePathVerdict, kappa, {visiting pair set: VariationVerdict})
        from one pass of the walk analysis, for analysis.single_path,
        analysis.kappa and analysis.variations, which check first that the
        spec is walkable; the pass runs on the shapes the spec's
        circularity was read off."""
        from . import analysis
        return analysis._single_path_and_kappa(self)

    @cached_property
    def walks_on_table(self):
        """True when every run is one walk that rule_table describes:
        monadic output, so every right-hand side is a chain, and
        deterministic rules, so the chains of a left-hand side are all
        one, the first."""
        return check_monadic(self) and self.deterministic

    def __post_init__(self):
        self._syn_set = frozenset(self.syn)
        self._inh_set = frozenset(self.inh)


def check_monadic(a):
    """Whether every output symbol of the att has rank <= 1."""
    return all(k <= 1 for _, k in a.output.items())


@dataclass(frozen=True)
class RelabelingRule:
    symbol: str
    child_states: tuple
    state: str
    out_symbol: str

    def render(self):
        lhs = self.symbol
        if self.child_states:
            lhs += "(%s)" % ",".join(self.child_states)
        return "rule %s -> %s:%s" % (lhs, self.state, self.out_symbol)


@dataclass
class RelabelingSpec:
    """Deterministic bottom-up relabeling; with input == output and every
    rule keeping its symbol it doubles as a bottom-up automaton."""
    name: str
    input: RankedAlphabet
    output: RankedAlphabet
    final: tuple
    rules: tuple  # of RelabelingRule

    def __post_init__(self):
        index = {}
        for r in self.rules:
            key = (r.symbol, r.child_states)
            if key in index:
                raise DuplicateLhsInDeterministic(
                    "two relabeling rules for %s(%s)" % (r.symbol, ",".join(r.child_states)))
            index[key] = r
        self._index = index

    def rule_for(self, symbol, child_states):
        return self._index.get((symbol, tuple(child_states)))

    @cached_property
    def states(self):
        out = []
        seen = set()
        for r in self.rules:
            for p in r.child_states + (r.state,):
                if p not in seen:
                    seen.add(p)
                    out.append(p)
        for p in self.final:
            if p not in seen:
                seen.add(p)
                out.append(p)
        return tuple(out)


@dataclass(frozen=True)
class TdttRule:
    state: str
    symbol: str
    rhs: Tree  # over the output alphabet with state-call leaves q(xi)

    def render(self, input_alphabet):
        k = input_alphabet.rank(self.symbol)
        inner = self.symbol
        if k:
            inner += "(%s)" % ",".join("x%d" % i for i in range(1, k + 1))
        return "rule %s %s: %s(%s) -> %s" % (
            self.state, self.symbol, self.state, inner, self.rhs.render())


@dataclass
class TdttSpec:
    """Top-down tree transducer. Possibly nondeterministic in memory (the
    back-conversion produces such machines); rendering keeps duplicates and
    the deterministic property reports whether two different rules share a
    left-hand side."""
    name: str
    input: RankedAlphabet
    output: RankedAlphabet
    init: str
    rules: tuple  # of TdttRule

    # As for AttSpec, the properties below are computed once per spec.

    @cached_property
    def states(self):
        out = [self.init]
        seen = {self.init}
        for r in self.rules:
            pool = [r.state]
            pool.extend(info[0] for _, leaf in r.rhs.leaves()
                        if (info := call_info(leaf.label)))
            for q in pool:
                if q not in seen:
                    seen.add(q)
                    out.append(q)
        return tuple(out)

    @cached_property
    def deterministic(self):
        """No two different rules share a left-hand side; a rule repeated
        verbatim counts once."""
        return all(len(rhss) == 1 for rhss in self.rule_table.values())

    @cached_property
    def rule_table(self):
        """(state, symbol) -> the right-hand sides of the rules with that
        left-hand side, in the order of the spec with a rule repeated
        verbatim kept once, each in preorder: (label, rank) for an output
        node, (None, (state, child)) for a call.  Chains, relabelings and
        branching or copying right-hand sides all take this one form, so
        a top-down run walks it whatever their shape."""
        table = {}
        for r in self.rules:
            nodes = []
            for _, node in r.rhs.addresses():
                call = None if node.children else call_info(node.label)
                nodes.append((node.label, len(node.children)) if call is None
                             else (None, call))
            rhss = table.setdefault((r.state, r.symbol), ())
            if tuple(nodes) not in rhss:
                table[r.state, r.symbol] = rhss + (tuple(nodes),)
        return table

    @property
    def relabeling(self):
        for r in self.rules:
            k = self.input.rank(r.symbol)
            rhs = r.rhs
            if is_occurrence(rhs.label) or rhs.label not in self.output \
                    or self.output.rank(rhs.label) != k:
                return False
            for i, c in enumerate(rhs.children, start=1):
                info = call_info(c.label)
                if info is None or info[1] != i or c.children:
                    return False
        return True


PAIR_KINDS = ("attR", "attU", "dtR", "lookaround")


@dataclass
class PairedSpec:
    """Two-stage machine: a relabeling stage feeding a consumer stage.

    kinds: attR = (bottom-up relabeling, att); dtR = (bottom-up relabeling,
    top-down transducer); lookaround = (bottom-up relabeling, top-down
    relabeling); attU = (lookaround pair, att).
    """
    kind: str
    name: str
    first: object
    second: object

    @property
    def input_alphabet(self):
        return input_alphabet(self.first)

    @property
    def output_alphabet(self):
        return self.second.output


def input_alphabet(d):
    """The input alphabet of a spec or of a pair of specs."""
    return d.input_alphabet if isinstance(d, PairedSpec) else d.input


def _check_pair(kind, name, first, second):
    shapes = {
        "attR": (RelabelingSpec, AttSpec),
        "dtR": (RelabelingSpec, TdttSpec),
        "lookaround": (RelabelingSpec, TdttSpec),
        "attU": (PairedSpec, AttSpec),
    }
    t1, t2 = shapes[kind]
    if not isinstance(first, t1) or not isinstance(second, t2):
        raise SpecSyntaxError("pair %s %s: stages have the wrong kinds" % (kind, name))
    if kind == "attU" and first.kind != "lookaround":
        raise SpecSyntaxError("pair attU %s: first stage must be a lookaround pair" % name)
    if kind == "lookaround" and not second.relabeling:
        raise SpecSyntaxError("pair lookaround %s: second stage must be a top-down relabeling" % name)
    handoff = first.output_alphabet if isinstance(first, PairedSpec) else first.output
    if handoff != second.input:
        raise AlphabetMismatch(
            "pair %s %s: stage output alphabet differs from consumer input alphabet"
            % (kind, name))


# ---------------------------------------------------------------------------
# parsing

def _line_tokens(text):
    off = 0
    for ln in text.split("\n"):
        yield tokenize(ln, off)
        off += len(ln) + 1


_BODY_KEYS = ("input", "output", "syn", "inh", "init", "final", "rule")


def parse_all(text):
    """Parse every declaration in the text, in order, fully validated."""
    decls = []
    by_name = {}
    block = None

    def register(spec, off):
        if spec.name in by_name:
            raise SpecSyntaxError("duplicate declaration name %r" % spec.name, off)
        by_name[spec.name] = spec
        decls.append(spec)

    def flush():
        nonlocal block
        if block is None:
            return
        kind, name, off, body = block
        block = None
        builder = {"att": _build_att, "dt": _build_dt,
                   "relabeling": _build_relabeling}[kind]
        register(builder(name, off, body), off)

    for toks in _line_tokens(text):
        if not toks:
            continue
        kind, value, off = toks[0]
        if kind == "name" and value in ("att", "dt", "relabeling"):
            flush()
            if len(toks) != 2 or toks[1][0] != "name":
                raise SpecSyntaxError("header must be '%s NAME'" % value, off)
            block = (value, toks[1][1], off, [])
        elif kind == "name" and value == "pair":
            flush()
            register(_build_pair(toks, by_name), off)
        elif kind == "name" and value in _BODY_KEYS:
            if block is None:
                raise SpecSyntaxError("%r line before any declaration header" % value, off)
            block[3].append(toks)
        else:
            raise SpecSyntaxError("unexpected line starting with %r" % value, off)
    flush()
    if not decls:
        raise SpecSyntaxError("no declarations found", 0)
    return decls


def _expect(toks, pos, kind, what):
    if pos >= len(toks) or toks[pos][0] != kind:
        off = toks[pos][2] if pos < len(toks) else toks[-1][2] + 1
        raise SpecSyntaxError("expected %s" % what, off)
    return toks[pos][1], pos + 1


def _parse_alphabet(toks, off):
    pairs = []
    pos = 1
    while pos < len(toks):
        name, pos = _expect(toks, pos, "name", "a symbol name")
        _, pos = _expect(toks, pos, "colon", "':' after the symbol name")
        rank, pos = _expect(toks, pos, "int", "a rank")
        pairs.append((name, int(rank)))
    if not pairs:
        raise SpecSyntaxError("empty alphabet line", off)
    try:
        return RankedAlphabet(pairs)
    except TtdefError as err:
        if err.offset is None:
            err.offset = off
        raise


def _parse_names(toks):
    out = []
    for kind, value, off in toks[1:]:
        if kind != "name":
            raise SpecSyntaxError("expected a name", off)
        if value not in out:
            out.append(value)
    return tuple(out)


class _Body:
    def __init__(self, name, off, body, allowed):
        self.single = {}
        self.rules = []
        for toks in body:
            key, off2 = toks[0][1], toks[0][2]
            if key not in allowed:
                raise SpecSyntaxError("%r line does not belong in this declaration" % key, off2)
            if key == "rule":
                self.rules.append(toks)
            elif key in self.single:
                raise SpecSyntaxError("duplicate %r line" % key, off2)
            else:
                self.single[key] = toks
        self.name = name
        self.off = off

    def require(self, key):
        if key not in self.single:
            raise SpecSyntaxError("declaration %r is missing its %r line" % (self.name, key), self.off)
        return self.single[key]


def _validate_att_rhs(spec_name, rhs, syn, inh, output, k, off):
    for _, node in rhs.addresses():
        label = node.label
        if is_occurrence(label):
            info = occ_pattern_info(label)
            if info is None:
                raise SpecSyntaxError("malformed occurrence %r" % label, off)
            attr, pos = info
            if attr in syn:
                if pos == 0:
                    raise UnknownAttribute(
                        "synthesized occurrence %r needs a child position" % attr, off)
                if pos > k:
                    raise ArityMismatch(
                        "occurrence %r points past the %d children" % (label, k), off)
            elif attr in inh:
                if pos != 0:
                    raise UnknownAttribute(
                        "inherited occurrence %r may only point at the node itself" % attr, off)
            else:
                raise UnknownAttribute("undeclared attribute %r" % attr, off)
        else:
            if label not in output:
                raise UnknownSymbol("unknown output symbol %r" % label, off)
            if output.rank(label) != len(node.children):
                raise ArityMismatch(
                    "output symbol %r has rank %d, got %d children"
                    % (label, output.rank(label), len(node.children)), off)


# names of top-down variables, reserved wherever a dt may have to name them
_XVAR = re.compile(r"x([0-9]+)\Z")


def _build_att(name, off, body):
    b = _Body(name, off, body, ("input", "output", "syn", "inh", "init", "rule"))
    alpha_in = _parse_alphabet(b.require("input"), off)
    alpha_out = _parse_alphabet(b.require("output"), off)
    syn = _parse_names(b.require("syn"))
    inh = _parse_names(b.single["inh"]) if "inh" in b.single else ()
    init_toks = b.require("init")
    if len(init_toks) != 2 or init_toks[1][0] != "name":
        raise SpecSyntaxError("'init' takes exactly one attribute name", init_toks[0][2])
    init = init_toks[1][1]

    for s in alpha_out:
        if s == "pi" or _XVAR.fullmatch(s):
            raise SpecSyntaxError("output symbol name %r is reserved" % s, off)
    for attr in syn + inh:
        if attr in alpha_out:
            raise SpecSyntaxError(
                "attribute %r collides with an output symbol name" % attr, off)
    both = set(syn) & set(inh)
    if both:
        raise UnknownAttribute(
            "attribute %r declared both synthesized and inherited" % sorted(both)[0], off)
    if init not in syn:
        raise UnknownAttribute("initial attribute %r is not synthesized" % init, off)

    syn_set, inh_set = set(syn), set(inh)
    rules = {}
    for toks in b.rules:
        line_off = toks[0][2]
        sym, pos = _expect(toks, 1, "name", "a symbol after 'rule'")
        _, pos = _expect(toks, pos, "colon", "':' after the rule symbol")
        if sym != ROOT and sym not in alpha_in:
            raise UnknownSymbol("unknown input symbol %r" % sym, line_off)
        k = 1 if sym == ROOT else alpha_in.rank(sym)
        attr, pos = _expect(toks, pos, "name", "an attribute on the left")
        _, pos = _expect(toks, pos, "lpar", "'(' in the left-hand side")
        piv, pos = _expect(toks, pos, "name", "'pi'")
        if piv != "pi":
            raise SpecSyntaxError("left-hand sides are written over 'pi'", line_off)
        lhs_pos = 0
        if pos < len(toks) and toks[pos][0] == "int":
            lhs_pos = int(toks[pos][1])
            pos += 1
        _, pos = _expect(toks, pos, "rpar", "')' in the left-hand side")
        _, pos = _expect(toks, pos, "arrow", "'->'")
        rhs, pos = parse_tree_tokens(toks, pos, occurrence=occ_pattern)
        if pos != len(toks):
            raise SpecSyntaxError("trailing input after the rule", toks[pos][2])

        if attr in syn_set:
            if sym == ROOT:
                raise RootMarkerSynRule(
                    "synthesized attribute %r on the left of a root-marker rule" % attr,
                    line_off)
            if lhs_pos != 0:
                raise UnknownAttribute(
                    "synthesized attribute %r takes no child position on the left" % attr,
                    line_off)
        elif attr in inh_set:
            if lhs_pos == 0:
                raise UnknownAttribute(
                    "inherited attribute %r needs a child position on the left" % attr,
                    line_off)
            if lhs_pos > k:
                raise ArityMismatch(
                    "left-hand side %s points past the %d children"
                    % (occ_pattern(attr, lhs_pos), k), line_off)
        else:
            raise UnknownAttribute("undeclared attribute %r" % attr, line_off)
        _validate_att_rhs(name, rhs, syn_set, inh_set, alpha_out, k, line_off)
        # a rule repeated verbatim is kept once, in the order found
        rules.setdefault(sym, {}).setdefault(AttRule(attr, lhs_pos, rhs))
    return AttSpec(name=name, input=alpha_in, output=alpha_out, syn=syn,
                   inh=inh, init=init,
                   rules={s: tuple(rs) for s, rs in rules.items()})


def _to_calls(t):
    if len(t.children) == 1 and not t.children[0].children \
            and _XVAR.fullmatch(t.children[0].label):
        return Tree(call_label(t.label, int(t.children[0].label[1:])))
    return Tree(t.label, [_to_calls(c) for c in t.children])


def _build_dt(name, off, body):
    b = _Body(name, off, body, ("input", "output", "init", "rule"))
    alpha_in = _parse_alphabet(b.require("input"), off)
    alpha_out = _parse_alphabet(b.require("output"), off)
    init_toks = b.require("init")
    if len(init_toks) != 2 or init_toks[1][0] != "name":
        raise SpecSyntaxError("'init' takes exactly one state name", init_toks[0][2])
    init = init_toks[1][1]
    for alpha in (alpha_in, alpha_out):
        for s in alpha:
            if _XVAR.fullmatch(s):
                raise SpecSyntaxError("symbol name %r is reserved" % s, off)

    rules = {}
    for toks in b.rules:
        line_off = toks[0][2]
        state, pos = _expect(toks, 1, "name", "a state after 'rule'")
        sym, pos = _expect(toks, pos, "name", "a symbol after the state")
        _, pos = _expect(toks, pos, "colon", "':'")
        if sym not in alpha_in:
            raise UnknownSymbol("unknown input symbol %r" % sym, line_off)
        k = alpha_in.rank(sym)
        lhs, pos = parse_tree_tokens(toks, pos)
        expected = Tree(state, [Tree(sym, [Tree("x%d" % i) for i in range(1, k + 1)])])
        if lhs != expected:
            raise SpecSyntaxError(
                "left-hand side must read %s" % expected.render(), line_off)
        _, pos = _expect(toks, pos, "arrow", "'->'")
        raw, pos = parse_tree_tokens(toks, pos)
        if pos != len(toks):
            raise SpecSyntaxError("trailing input after the rule", toks[pos][2])
        rhs = _to_calls(raw)
        for _, node in rhs.addresses():
            info = call_info(node.label)
            if info is not None:
                if not 1 <= info[1] <= k:
                    raise ArityMismatch(
                        "call %r points past the %d children" % (node.label, k), line_off)
            elif is_occurrence(node.label):
                raise SpecSyntaxError("malformed call %r" % node.label, line_off)
            else:
                if node.label not in alpha_out:
                    raise UnknownSymbol("unknown output symbol %r" % node.label, line_off)
                if alpha_out.rank(node.label) != len(node.children):
                    raise ArityMismatch(
                        "output symbol %r has rank %d, got %d children"
                        % (node.label, alpha_out.rank(node.label), len(node.children)),
                        line_off)
        # a rule repeated verbatim is kept once, in the order found
        rules.setdefault(TdttRule(state, sym, rhs))
    return TdttSpec(name=name, input=alpha_in, output=alpha_out, init=init,
                    rules=tuple(rules))


def _build_relabeling(name, off, body):
    b = _Body(name, off, body, ("input", "output", "final", "rule"))
    alpha_in = _parse_alphabet(b.require("input"), off)
    alpha_out = _parse_alphabet(b.require("output"), off)
    final = _parse_names(b.single["final"]) if "final" in b.single else ()

    rules = {}
    for toks in b.rules:
        line_off = toks[0][2]
        lhs, pos = parse_tree_tokens(toks, 1)
        _, pos = _expect(toks, pos, "arrow", "'->'")
        state, pos = _expect(toks, pos, "name", "a result state")
        _, pos = _expect(toks, pos, "colon", "':' before the output symbol")
        out_sym, pos = _expect(toks, pos, "name", "an output symbol")
        if pos != len(toks):
            raise SpecSyntaxError("trailing input after the rule", toks[pos][2])
        if lhs.label not in alpha_in:
            raise UnknownSymbol("unknown input symbol %r" % lhs.label, line_off)
        if any(c.children for c in lhs.children):
            raise SpecSyntaxError("left-hand side child states must be leaves", line_off)
        if alpha_in.rank(lhs.label) != len(lhs.children):
            raise ArityMismatch(
                "symbol %r has rank %d, got %d states"
                % (lhs.label, alpha_in.rank(lhs.label), len(lhs.children)), line_off)
        if out_sym not in alpha_out:
            raise UnknownSymbol("unknown output symbol %r" % out_sym, line_off)
        if alpha_out.rank(out_sym) != alpha_in.rank(lhs.label):
            raise ArityMismatch(
                "relabeling must preserve rank: %r vs %r" % (lhs.label, out_sym), line_off)
        rule = RelabelingRule(lhs.label, tuple(c.label for c in lhs.children),
                              state, out_sym)
        # a rule repeated verbatim is kept once, in the order found
        got = rules.setdefault((rule.symbol, rule.child_states), rule)
        if got is not rule and got != rule:
            raise DuplicateLhsInDeterministic(
                "two relabeling rules for %s(%s)"
                % (rule.symbol, ",".join(rule.child_states)), line_off)
    return RelabelingSpec(name=name, input=alpha_in, output=alpha_out,
                          final=final, rules=tuple(rules.values()))


def _build_pair(toks, by_name):
    if (len(toks) != 7 or toks[1][0] != "name" or toks[2][0] != "name"
            or toks[3][0] != "eq" or toks[4][0] != "name"
            or toks[5][0] != "semi" or toks[6][0] != "name"):
        raise SpecSyntaxError("pair line must read 'pair KIND NAME = FIRST ; SECOND'",
                              toks[0][2])
    kind, name = toks[1][1], toks[2][1]
    if kind not in PAIR_KINDS:
        raise SpecSyntaxError("unknown pair kind %r (expected one of %s)"
                              % (kind, ", ".join(PAIR_KINDS)), toks[1][2])
    stages = []
    for tok in (toks[4], toks[6]):
        if tok[1] not in by_name:
            raise SpecSyntaxError("pair references undeclared %r" % tok[1], tok[2])
        stages.append(by_name[tok[1]])
    first, second = stages
    try:
        _check_pair(kind, name, first, second)
    except TtdefError as err:
        if err.offset is None:
            err.offset = toks[0][2]
        raise
    return PairedSpec(kind=kind, name=name, first=first, second=second)


# ---------------------------------------------------------------------------
# rendering

def _alphabet_line(key, alphabet):
    return "%s %s" % (key, " ".join("%s:%d" % (s, k) for s, k in alphabet.items()))


def _render_decl(spec):
    lines = []
    if isinstance(spec, AttSpec):
        lines.append("att %s" % spec.name)
        lines.append(_alphabet_line("input", spec.input))
        lines.append(_alphabet_line("output", spec.output))
        lines.append("syn %s" % " ".join(spec.syn))
        if spec.inh:
            lines.append("inh %s" % " ".join(spec.inh))
        lines.append("init %s" % spec.init)
        # rules share right-hand side objects: each distinct (attr, pos,
        # right-hand side object) is rendered once
        texts = {}
        for sym, rules in spec.rules.items():
            for r in rules:
                key = r.attr, r.pos, id(r.rhs)
                if key not in texts:
                    texts[key] = "%s -> %s" % (r.lhs_text(), r.rhs.render())
                lines.append("rule %s: %s" % (sym, texts[key]))
    elif isinstance(spec, TdttSpec):
        lines.append("dt %s" % spec.name)
        lines.append(_alphabet_line("input", spec.input))
        lines.append(_alphabet_line("output", spec.output))
        lines.append("init %s" % spec.init)
        for r in spec.rules:
            lines.append(r.render(spec.input))
    elif isinstance(spec, RelabelingSpec):
        lines.append("relabeling %s" % spec.name)
        lines.append(_alphabet_line("input", spec.input))
        lines.append(_alphabet_line("output", spec.output))
        if spec.final:
            lines.append("final %s" % " ".join(spec.final))
        for r in spec.rules:
            lines.append(r.render())
    else:
        raise SpecSyntaxError("cannot render %r" % type(spec).__name__)
    return "\n".join(lines)


def render_spec(spec):
    """Serialize a declaration (for pairs: its stages first, then the pair
    line) such that parse_all(render_spec(x))[-1] == x."""
    chunks = []
    _render_into(spec, {}, chunks)
    return "\n\n".join(chunks) + "\n"


def _render_into(s, seen, chunks):
    """Append the chunks of s and of the stages it pairs that seen, a map
    from name to declaration, does not hold yet."""
    if s.name in seen:
        if seen[s.name] != s:
            raise SpecSyntaxError(
                "two distinct declarations share the name %r" % s.name)
        return
    seen[s.name] = s
    if isinstance(s, PairedSpec):
        _render_into(s.first, seen, chunks)
        _render_into(s.second, seen, chunks)
        chunks.append("pair %s %s = %s ; %s"
                      % (s.kind, s.name, s.first.name, s.second.name))
    else:
        chunks.append(_render_decl(s))
