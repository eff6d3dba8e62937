"""Shared example machines used across the test suite.

A1: swaps processing order of the two subtrees of every f-node and emits one
    g per f-node on the spine it walks; output g^n(e).
A2: walks the leftmost path; each level emits g if the rightmost leaf of the
    corresponding right sibling subtree is e, else f; leaf symbol copied.
N1: A1 with a second (nondeterministic) rule at e.
C0: circular but produces no output along the cycle.
P0: circular and grows output along the cycle (empty domain).
CI: circular only through an inherited occurrence that no walk from the
    initial attribute reaches.
REV: monadic att emitting the reverse of its input word.
X0_TEXT: an att whose output symbol x0 is named like a dt variable.
W107, T2, T2B, D65: definable atts the decision gets wrong today (tests
    pin them as strict xfails): W107 reads its inherited attribute
    nowhere and T2, T2B and D65 have none, so each is a top-down
    transducer.
"""

from ttdef.model import (PairedSpec, RelabelingRule, RelabelingSpec, TdttRule,
                         TdttSpec, call_label, parse_all)
from ttdef.trees import Tree


def parse_spec(text):
    """The last declaration of the text; pairs see earlier declarations
    by name."""
    return parse_all(text)[-1]


def is_automaton(b):
    """True when the relabeling b relabels nothing: input and output
    alphabets agree and every rule keeps its symbol, so b is a bottom-up
    tree automaton."""
    return (b.input == b.output
            and all(r.out_symbol == r.symbol for r in b.rules))


A1_TEXT = """\
att A1
input f:2 e:0
output g:1 e:0
syn a
inh b
init a
rule f: a(pi) -> a(pi 1)
rule f: b(pi 1) -> a(pi 2)
rule f: b(pi 2) -> b(pi)
rule e: a(pi) -> g(b(pi))
rule #: b(pi 1) -> e
"""

A2_TEXT = """\
att A2
input f:2 e:0 d:0
output f:1 g:1 e:0 d:0
syn a a_e a_d
inh b_e b_d lit<e> lit<d>
init a
rule f: a_d(pi) -> f(a(pi 1))
rule f: b_d(pi 1) -> a_d(pi 1)
rule f: b_d(pi 2) -> b_d(pi)
rule f: a_e(pi) -> g(a(pi 1))
rule f: b_e(pi 1) -> a_e(pi 1)
rule f: b_e(pi 2) -> b_e(pi)
rule f: a(pi) -> a(pi 2)
rule f: lit<e>(pi 1) -> lit<e>(pi)
rule f: lit<d>(pi 1) -> lit<d>(pi)
rule #: b_e(pi 1) -> a_e(pi 1)
rule #: b_d(pi 1) -> a_d(pi 1)
rule #: lit<e>(pi 1) -> e
rule #: lit<d>(pi 1) -> d
rule e: a(pi) -> b_e(pi)
rule e: a_e(pi) -> lit<e>(pi)
rule d: a(pi) -> b_d(pi)
rule d: a_d(pi) -> lit<d>(pi)
"""

N1_TEXT = A1_TEXT + "rule e: a(pi) -> e\n"

C0_TEXT = """\
att C0
input e:0
output e:0
syn a
inh b
init a
rule e: a(pi) -> b(pi)
rule #: b(pi 1) -> a(pi 1)
"""

P0_TEXT = """\
att P0
input e:0
output g:1 e:0
syn a
inh b
init a
rule e: a(pi) -> g(b(pi))
rule #: b(pi 1) -> a(pi 1)
"""

# the only cycle, (b,1) -> (s,1) at f over e, starts at b, which no
# walk from a(pi) reaches
CI_TEXT = """\
att CI
input f:1 e:0
output c:0
syn a s
inh b
init a
rule f: a(pi) -> c
rule f: b(pi 1) -> s(pi 1)
rule e: a(pi) -> c
rule e: s(pi) -> b(pi)
"""

REV_TEXT = """\
att REV
input g:1 h:1 e:0
output g:1 h:1 e:0
syn a
inh b
init a
rule g: a(pi) -> a(pi 1)
rule g: b(pi 1) -> g(b(pi))
rule h: a(pi) -> a(pi 1)
rule h: b(pi 1) -> h(b(pi))
rule e: a(pi) -> b(pi)
rule #: b(pi 1) -> e
"""

X0_TEXT = """\
att X
input g:1 e:0
output x0:1 e:0
syn a
init a
rule g: a(pi) -> x0(a(pi 1))
rule e: a(pi) -> e
"""

# probe draw 107: b0 is defined but no rule reads it
W107_TEXT = """\
att W107
input f:2 g:1 e:0
output h:1 k:1 c:0
syn a0 a1
inh b0
init a1
rule f: a0(pi) -> h(k(c))
rule f: a1(pi) -> h(k(a0(pi 1)))
rule f: b0(pi 1) -> a0(pi 1)
rule f: b0(pi 2) -> h(k(c))
rule g: a0(pi) -> h(k(a1(pi 1)))
rule e: a0(pi) -> c
"""

T2_TEXT = """\
att T2
input f:2 g:1 e:0
output h:1 k:1 c:0
syn a0 a1
init a1
rule f: a0(pi) -> a1(pi 1)
rule f: a1(pi) -> c
rule g: a0(pi) -> h(a1(pi 1))
rule g: a1(pi) -> a0(pi 1)
rule e: a0(pi) -> h(c)
rule e: a1(pi) -> c
"""

T2B_TEXT = """\
att T2B
input f:2 g:1 e:0
output h:1 k:1 c:0
syn a0 a1
init a1
rule f: a0(pi) -> h(k(a1(pi 2)))
rule f: a1(pi) -> h(k(a0(pi 1)))
rule g: a0(pi) -> a0(pi 1)
rule g: a1(pi) -> c
rule e: a0(pi) -> h(k(c))
rule e: a1(pi) -> h(k(c))
"""

# probe draw 65
D65_TEXT = """\
att D65
input f:2 g:1 e:0
output h:1 k:1 c:0
syn a0 a1
init a0
rule f: a0(pi) -> h(k(a0(pi 2)))
rule f: a1(pi) -> h(a0(pi 2))
rule g: a0(pi) -> h(c)
rule e: a0(pi) -> h(k(c))
"""


def a1():
    return parse_spec(A1_TEXT)


def a2():
    return parse_spec(A2_TEXT)


def n1():
    return parse_spec(N1_TEXT)


def c0():
    return parse_spec(C0_TEXT)


def p0():
    return parse_spec(P0_TEXT)


def ci():
    return parse_spec(CI_TEXT)


def rev():
    return parse_spec(REV_TEXT)


def identity_relabeling(alpha, name="ident_la"):
    rules = tuple(RelabelingRule(sym, ("p",) * k, "p", sym)
                  for sym, k in alpha.items())
    return RelabelingSpec(name=name, input=alpha, output=alpha,
                          final=("p",), rules=rules)


def identity_dtR(alpha, name="ident", kind="dtR"):
    """Total identity pair: trivial look-ahead, copying top-down pass."""
    rules = tuple(TdttRule("q", sym,
                           Tree(sym, [Tree(call_label("q", i + 1))
                                      for i in range(k)]))
                  for sym, k in alpha.items())
    top = TdttSpec(name=name + "_td", input=alpha, output=alpha, init="q",
                   rules=rules)
    return PairedSpec(kind, name, identity_relabeling(alpha, name + "_la"), top)


def identity_lookaround(alpha, name="ident_u"):
    return identity_dtR(alpha, name=name, kind="lookaround")


def mirror_dtR(alpha, name="mirror"):
    """Swaps the children of every node (its own inverse)."""
    rules = tuple(TdttRule("q", sym,
                           Tree(sym, [Tree(call_label("q", k - i))
                                      for i in range(k)]))
                  for sym, k in alpha.items())
    top = TdttSpec(name=name + "_td", input=alpha, output=alpha, init="q",
                   rules=rules)
    return PairedSpec("dtR", name, identity_relabeling(alpha, name + "_la"), top)


def leftmost_e_lookaround():
    """Identity on trees over {f,e,d} whose leftmost leaf is e; else reject.

    The look-ahead carries the leftmost leaf symbol up; only the e-carrying
    state is final.  The top-down stage copies.
    """
    alpha = a2().input
    rrules = (RelabelingRule("e", (), "pe", "e"),
              RelabelingRule("d", (), "pd", "d"))
    rrules += tuple(RelabelingRule("f", (l, r), l, "f")
                    for l in ("pe", "pd") for r in ("pe", "pd"))
    rel = RelabelingSpec(name="lme_la", input=alpha, output=alpha,
                         final=("pe",), rules=rrules)
    trules = tuple(TdttRule("q", sym,
                            Tree(sym, [Tree(call_label("q", i + 1))
                                       for i in range(k)]))
                   for sym, k in alpha.items())
    top = TdttSpec(name="lme_td", input=alpha, output=alpha, init="q",
                   rules=trules)
    return PairedSpec("lookaround", "lme", rel, top)
