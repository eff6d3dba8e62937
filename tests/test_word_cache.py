"""The oracle's words, read over suffix summaries, against the walk
from scratch they replace, and its check on suffix classes against the
word-by-word loop it replaces.

_SuffixSummaries.word summarizes how each proper suffix of a word
crosses its first letter and reads the word's output at its first
letter and the root marker over the summary of the rest; _eval_word
walks every word on its own and stays the reference.  verify walks
joint suffix classes; the per-word loop it replaced is kept here as
reference_verify.  The fold's onward prefixes, merged a prefix-tree
level at a time, are checked against the per-word loop they replaced,
kept here, and the oracle's quarter sample against the fixed sample
length it replaced.
"""

import functools
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ttdef import word_transducers
from ttdef.analysis import is_circular, single_path
from ttdef.constructions import (associate, normalize_domain_into_range,
                                 normalize_ground_rhs)
from ttdef.errors import NotApplicable
from ttdef.model import (ROOT, AttRule, AttSpec, PairedSpec, RelabelingRule,
                         RelabelingSpec, TdttRule, occ_pattern, render_spec)
from ttdef.one_way import (_dom_within, _lcp, _not_word_shaped,
                           _onward_prefixes, _word_steps,
                           restrict_to_language, synthesize, verify)
from ttdef.semantics import LSI_VIOLATIONS
from ttdef.trees import RankedAlphabet, Tree
from ttdef.word_transducers import (Definable, DefinabilityBudget,
                                    NotDefinable, TwoWayWord, Unknown,
                                    _eval_word, _fold_lengths,
                                    _SuffixSummaries, accepted_counts,
                                    accepted_words, build_two_way,
                                    one_way_definability)

import fixtures
from fixtures import parse_spec
from test_walk_table import atts

LETTERS = RankedAlphabet({"g": 1, "h": 1, "e": 0, "d": 0})
OUT = RankedAlphabet({"u": 1, "v": 1, "c": 0})
STATES = ("p0", "p1", "p2")
SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"


def read_words(tw, length):
    """({word: output labels, None where undefined} over every accepted
    word up to the length, read one by one over suffix summaries; the
    _SuffixSummaries that read them)."""
    summaries = _SuffixSummaries(tw.att)
    return ({w: summaries.word(w)
             for w, _ in accepted_words(tw.correspondence, length)},
            summaries)


def caches_agree(tw, length):
    """The words read over summaries give what the walk from scratch
    gives, and both routes record the same linear-size-increase
    violations.  Returns the number of summaries built and of reads
    compiled."""
    mark = len(LSI_VIOLATIONS)
    try:
        got, summaries = read_words(tw, length)
        got_lsi = LSI_VIOLATIONS[mark:]
        del LSI_VIOLATIONS[mark:]
        want = {w: _eval_word(tw, w)
                for w, _ in accepted_words(tw.correspondence, length)}
        assert got == want
        assert list(got) == list(want)
        assert LSI_VIOLATIONS[mark:] == got_lsi
    finally:
        del LSI_VIOLATIONS[mark:]
    return summaries.built, len(summaries.reads)


# ---------------------------------------------------------------------------
# random word machines

@st.composite
def rhs_at(draw, tips, quiet):
    t = Tree(draw(st.sampled_from(tips)))
    if not quiet:
        for label in draw(st.sampled_from([(), ("u",), ("v", "u")])):
            t = Tree(label, [t])
    return t


@st.composite
def automata(draw):
    """Word automata over LETTERS with missing moves and, often,
    non-final states."""
    moves = []
    for sym, k in LETTERS.items():
        for child in ([()] if k == 0 else [(p,) for p in STATES]):
            if draw(st.integers(0, 7)):
                moves.append(RelabelingRule(sym, child,
                                            draw(st.sampled_from(STATES)), sym))
    final = tuple(draw(st.lists(st.sampled_from(STATES), min_size=1,
                                unique=True)))
    return RelabelingSpec("W_corr", LETTERS, LETTERS, final, tuple(moves))


@st.composite
def word_machines(draw):
    """Deterministic word atts with a correspondence automaton whose
    non-final states leave suffixes the cache never asks for.

    Rules go missing at random, so walks stick; cycles through the root
    marker and between letters come up often, silent in quiet machines,
    which emit only their output leaf.  A wide machine also reads
    synthesized occurrences at the node itself or past its one child,
    and inherited ones at child 2, and has synthesized rules at the root
    marker, which validation refuses: its walks visit more occurrences
    per node than it has attributes."""
    syn = tuple("a%d" % i for i in range(draw(st.integers(1, 3))))
    inh = tuple("b%d" % i for i in range(draw(st.integers(0, 3))))
    wide = draw(st.booleans())
    quiet = draw(st.booleans())
    spots = (0, 1, 2) if wide else None
    tips = ["c"]
    tips += [occ_pattern(a, j) for a in syn for j in spots or (1,)]
    tips += [occ_pattern(b, j) for b in inh for j in spots or (0,)]
    rules = {}
    for sym, k in list(LETTERS.items()) + [(ROOT, 1)]:
        lhs = [(b, j) for b in inh for j in ((1, 2) if wide else range(1, k + 1))]
        if sym != ROOT or wide:
            lhs = [(a, 0) for a in syn] + lhs
        rules[sym] = tuple(AttRule(attr, pos, draw(rhs_at(tips, quiet)))
                           for attr, pos in lhs if draw(st.integers(0, 7)))
    att = AttSpec(name="W", input=LETTERS, output=OUT, syn=syn, inh=inh,
                  init=draw(st.sampled_from(syn)), rules=rules)
    return TwoWayWord("W", att, draw(automata()))


@settings(max_examples=200, deadline=None)
@given(word_machines(), st.integers(1, 5))
def test_summaries_match_the_walk_on_random_machines(tw, length):
    assert tw.att.walks_on_table
    caches_agree(tw, length)


@pytest.fixture(scope="module")
def a2_walk():
    return build_two_way(associate(fixtures.a2()))


def test_a_word_is_read_over_the_summary_of_its_rest(a2_walk):
    """A word is read over the summary of the rest of it, so the words
    up to length 2 summarize only the last letters of those of length
    2, and the words of length 1 summarize nothing."""
    tw = a2_walk
    words = [w for w, _ in accepted_words(tw.correspondence, 2)]
    built, _ = caches_agree(tw, 2)
    assert built == len({w[1:] for w in words if len(w) == 2}) == 2
    assert caches_agree(tw, 1)[0] == 0


def test_a_wide_machine_outgrows_the_size_bound_on_both_routes():
    """On the word e this machine applies five rules, one more than its
    attributes times its nodes (the root marker and e); the word is
    read at e over no summary.  Its output of size 6 breaks the linear
    bound 2 * 2 * 1, on both routes alike, and verify records it once,
    on the one pair it checks.  The fold keeps the whole output on the
    one rule at e, so the oracle finds the one-rule machine."""
    def chain(tip):
        return Tree("u", [Tree(tip)])
    a = AttSpec(name="WIDE", input=RankedAlphabet({"e": 0}), output=OUT,
                syn=("a",), inh=("b",), init="a", rules={
                    "e": (AttRule("a", 0, chain(occ_pattern("b", 1))),
                          AttRule("b", 1, chain(occ_pattern("b", 2))),
                          AttRule("b", 2, chain(occ_pattern("b", 0)))),
                    ROOT: (AttRule("b", 1, chain(occ_pattern("b", 2))),
                           AttRule("b", 2, chain("c")))})
    corr = RelabelingSpec("e_only", a.input, a.input, ("ok",),
                          (RelabelingRule("e", (), "ok", "e"),))
    tw = TwoWayWord("wide_w", a, corr)
    assert caches_agree(tw, 1) == (0, 1)
    assert _eval_word(tw, ("e",)) == ("u",) * 5 + ("c",)
    violation = {"att": "WIDE", "input": "e", "output_size": 6, "bound": 4}
    mark = len(LSI_VIOLATIONS)
    try:
        read_words(tw, 1)
        assert LSI_VIOLATIONS[mark:] == [violation]
        del LSI_VIOLATIONS[mark:]
        got = one_way_definability(tw, DefinabilityBudget(verify_length=1))
        assert isinstance(got, Definable)
        assert got.report["pairs"] == 1
        assert LSI_VIOLATIONS[mark:] == [violation] * 2
    finally:
        del LSI_VIOLATIONS[mark:]


def test_the_root_marker_has_no_synthesized_occurrence():
    """b climbs to the root marker and asks for a there; the marker has
    no node of its own for it, so both routes stick, rule or no rule."""
    a = AttSpec(name="OFF", input=RankedAlphabet({"g": 1, "e": 0}),
                output=OUT, syn=("a",), inh=("b",), init="a", rules={
                    "g": (AttRule("a", 0, Tree(occ_pattern("a", 1))),
                          AttRule("b", 1, Tree(occ_pattern("b", 0)))),
                    "e": (AttRule("a", 0, Tree(occ_pattern("b", 0))),),
                    ROOT: (AttRule("b", 1, Tree("u", [Tree(occ_pattern("a", 0))])),
                           AttRule("a", 0, Tree("c")))})
    corr = RelabelingSpec("all", a.input, a.input, ("ok",), (
        RelabelingRule("e", (), "ok", "e"),
        RelabelingRule("g", ("ok",), "ok", "g")))
    tw = TwoWayWord("off_w", a, corr)
    assert caches_agree(tw, 3) == (2, 2)
    assert read_words(tw, 3)[0] == {
        ("e",): None, ("g", "e"): None, ("g", "g", "e"): None}


def test_non_final_suffixes_are_summarized_on_demand():
    """Only words of odd length are accepted, so every other suffix is
    one the cache never lists."""
    idw = parse_spec(IDW_TEXT)
    moves = (RelabelingRule("e", (), "odd", "e"),
             RelabelingRule("g", ("odd",), "even", "g"),
             RelabelingRule("g", ("even",), "odd", "g"))
    corr = RelabelingSpec("parity", idw.input, idw.input, ("odd",), moves)
    tw = TwoWayWord("odd_w", idw, corr)
    assert caches_agree(tw, 7) == (6, 2)
    got = one_way_definability(tw, DefinabilityBudget(verify_length=7))
    assert isinstance(got, Definable)
    assert (got.report["words"], got.report["summaries"]) == (4, 6)


def test_a_long_run_of_unaccepted_suffixes():
    """Only g^1500 e is accepted, so it is read over 1500 summaries of
    suffixes nobody asked for."""
    idw = parse_spec(IDW_TEXT)
    n = 1500
    moves = [RelabelingRule("e", (), "c0", "e")]
    moves += [RelabelingRule("g", ("c%d" % k,), "c%d" % (k + 1), "g")
              for k in range(n)]
    corr = RelabelingSpec("far", idw.input, idw.input, ("c%d" % n,),
                          tuple(moves))
    tw = TwoWayWord("far_w", idw, corr)
    word = ("g",) * n + ("e",)
    assert caches_agree(tw, n + 1) == (n, 1)
    assert read_words(tw, n + 1)[0] == {word: word}


def test_machines_off_the_table_take_the_reference_route():
    """Two rules for a at e, both ending in output e.  The oracle has no
    summaries for such a machine and refuses it; a certificate replays
    on the walk from scratch, which runs it."""
    nd = parse_spec(IDW_TEXT.replace("syn a\n", "syn a\ninh b\n") + """\
rule e: a(pi) -> b(pi)
rule g: b(pi 1) -> b(pi)
rule #: b(pi 1) -> e
""")
    corr = RelabelingSpec("all", nd.input, nd.input, ("ok",), (
        RelabelingRule("e", (), "ok", "e"),
        RelabelingRule("g", ("ok",), "ok", "g")))
    tw = TwoWayWord("nd_w", nd, corr)
    assert not tw.att.walks_on_table
    with pytest.raises(NotApplicable):
        one_way_definability(tw)
    assert _eval_word(tw, ("g", "g", "e")) == ("g", "g", "e")


IDW_TEXT = """\
att IDW
input g:1 e:0
output g:1 e:0
syn a
init a
rule g: a(pi) -> g(a(pi 1))
rule e: a(pi) -> e
"""


# ---------------------------------------------------------------------------
# the benchmark's machines at its word lengths

@functools.cache
def bench_two_way(name):
    spec = parse_spec((SPECS / ("%s.att" % name)).read_text())
    if isinstance(spec, PairedSpec):
        spec = normalize_domain_into_range(spec.first, spec.second).second
    return build_two_way(associate(normalize_ground_rhs(spec)))


@pytest.mark.parametrize("name, length", [
    ("a2", 5), ("lme", 2), ("rev", 10), ("copy", 10), ("half", 10),
    ("idw", 10)])
def test_summaries_match_the_walk_on_the_bench_machines(name, length):
    """One summary per distinct proper suffix of an accepted word."""
    tw = bench_two_way(name)
    suffixes = {w[k:] for w, _ in accepted_words(tw.correspondence, length)
                for k in range(1, len(w))}
    built, _ = caches_agree(tw, length)
    assert built == len(suffixes) == {"a2": 1170, "lme": 2, "rev": 511,
                                      "copy": 9, "half": 9, "idw": 9}[name]


# ---------------------------------------------------------------------------
# work counts and the horizon

def test_the_a2_oracle_walks_no_cache_word_from_scratch(a2_walk,
                                                       monkeypatch):
    calls = []

    def counted(fn):
        def run(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return run
    for name in ("evaluate", "enumerate_outputs"):
        monkeypatch.setattr(word_transducers, name,
                            counted(getattr(word_transducers, name)))
    got = one_way_definability(a2_walk, DefinabilityBudget(verify_length=5))
    assert isinstance(got, Definable) and got.verified_length == 5
    assert calls == []
    assert (got.report["words"], got.report["summaries"],
            got.report["plans"], got.report["classes"],
            got.report["pairs"]) == (9362, 146, 174, 60, 482)


@pytest.fixture
def yielded(monkeypatch):
    """Every word accepted_words yields to the oracle, in order."""
    seen = []
    real = word_transducers.accepted_words

    def counted(aut, max_length):
        for w, state in real(aut, max_length):
            seen.append(w)
            yield w, state
    monkeypatch.setattr(word_transducers, "accepted_words", counted)
    return seen


def test_the_a2_oracle_builds_no_word_past_its_sample(a2_walk, yielded):
    """A2's words up to length 4 are read one by one, and the candidate
    folded from them is checked on the 9 362 words up to length 5 as
    482 (letter, class) pairs: accepted_words, which builds a length
    only once the one before it is taken, builds no word of length 5."""
    got = one_way_definability(a2_walk, DefinabilityBudget(verify_length=5))
    assert isinstance(got, Definable) and got.verified_length == 5
    assert len(yielded) <= 1170
    assert max(map(len, yielded)) == 4
    assert got.report["pairs"] <= 500


@pytest.fixture
def folds(monkeypatch):
    """(longest word, number of words) of every sample the oracle folds,
    in the order it folds them."""
    seen = []
    real = word_transducers.synthesize

    def counted(sample, *args):
        seen.append((max(map(len, sample), default=0), len(sample)))
        return real(sample, *args)
    monkeypatch.setattr(word_transducers, "synthesize", counted)
    return seen


def test_the_a2_oracle_folds_a_quarter_of_its_cache(a2_walk, folds):
    """A2's words up to length 4 are 1 170 of the 9 362 cached, and the
    candidate folded from them matches all 9 362: one fold, over 1 313
    prefix-tree nodes where the whole cache has 10 529."""
    got = one_way_definability(a2_walk, DefinabilityBudget(verify_length=5))
    assert isinstance(got, Definable) and got.verified_length == 5
    assert folds == [(4, 1170)]
    assert (got.report["words"], got.report["folded_length"],
            got.report["folded_words"]) == (9362, 4, 1170)


def test_a_failing_quarter_sample_falls_back_to_the_whole_cache(
        folds, yielded, monkeypatch):
    """REV's 255 words up to length 8 are the quarter sample; its
    candidate fails, and so does the fold of all 1 023 words, which
    reads the rest of them: each word is read once."""
    read = []
    real = _SuffixSummaries.word

    def counted(self, w):
        read.append(w)
        return real(self, w)
    monkeypatch.setattr(_SuffixSummaries, "word", counted)
    got = one_way_definability(bench_two_way("rev"),
                               DefinabilityBudget(verify_length=10))
    assert isinstance(got, NotDefinable)
    assert folds == [(8, 255), (10, 1023)]
    assert read == yielded and len(set(read)) == len(read) == 1023


def test_a_yes_after_a_failed_sample_keeps_its_failure(folds):
    """HALF's quarter sample, its 2 words up to length 2, folds into a
    candidate that fails on g g e; the fold of all 10 words verifies,
    and the report keeps what failed."""
    got = one_way_definability(bench_two_way("half"),
                               DefinabilityBudget(verify_length=10))
    assert isinstance(got, Definable) and got.verified_length == 10
    assert folds == [(2, 2), (10, 10)]
    g = "g_<r0>@1"
    assert got.report["synthesis"] == [{
        "reason": "candidate disagrees with the machine",
        "word": [g, g, "e"], "machine": ["g", "e"], "candidate": ["e"],
        "folded_length": 2, "folded_words": 2}]


def test_a_short_word_budget_is_unknown(a2_walk):
    """200 words reach length 3; the candidate the fold finds there
    matches the cache, but 5 was asked for."""
    got = one_way_definability(
        a2_walk, DefinabilityBudget(verify_length=5, max_words=200))
    assert isinstance(got, Unknown)
    assert got.report["cache_length"] == 3
    assert got.report["reason"] == \
        "word budget reached length 3 of the requested 5"


def test_a_pump_refutation_at_a_short_length_stands():
    """Reversal looks one-way on the words up to length 4, and is
    refuted by a pump certificate from the words up to length 7."""
    tw = build_two_way(associate(fixtures.rev()))
    short = one_way_definability(tw, DefinabilityBudget(max_words=20))
    assert isinstance(short, Unknown)
    assert short.report["reason"] == \
        "word budget reached length 4 of the requested 10"
    got = one_way_definability(tw, DefinabilityBudget(max_words=130))
    assert isinstance(got, NotDefinable)


# ---------------------------------------------------------------------------
# accepted_words against the loop it replaced

def reference_accepted_words(aut, max_length):
    up = {}
    for r in aut.rules:
        if len(r.child_states) == 1:
            up[(r.symbol, r.child_states[0])] = r.state
    letters = sorted({c for c, _ in up})
    level = sorted(((r.symbol,), r.state)
                   for r in aut.rules if not r.child_states)
    length = 1
    while length <= max_length and level:
        for w, state in level:
            if state in aut.final:
                yield w, state
        nxt = []
        for c in letters:
            for w, state in level:
                state2 = up.get((c, state))
                if state2 is not None:
                    nxt.append(((c,) + w, state2))
        nxt.sort()
        level = nxt
        length += 1


@pytest.mark.parametrize("name, length", [("a2", 5), ("lme", 2),
                                          ("rev", 10)])
def test_accepted_words_keeps_its_order(name, length):
    aut = bench_two_way(name).correspondence
    assert list(accepted_words(aut, length)) == \
        list(reference_accepted_words(aut, length))


@settings(max_examples=100, deadline=None)
@given(automata(), st.integers(0, 6))
def test_accepted_words_keeps_its_order_on_random_automata(aut, length):
    assert list(accepted_words(aut, length)) == \
        list(reference_accepted_words(aut, length))


# ---------------------------------------------------------------------------
# the fold's onward prefixes against the loop they replaced

def reference_onward_prefixes(sample):
    """Every proper prefix of a sampled word, sorted and then sorted by
    length, as the fold once took them, and the onward output prefixes
    of the defined words, word by word and prefix by prefix; the empty
    prefix, before a one-way machine's first rule, gets no output."""
    prefixes = {w[:j] for w in sample for j in range(len(w))}
    lcp = {}
    clamp = {}
    for w, o in sample.items():
        if o is None:
            continue
        for j in range(len(w)):
            p = w[:j]
            lcp[p] = o if p not in lcp else _lcp(lcp[p], o)
            clamp[p] = min(clamp.get(p, len(o) - 1), len(o) - 1)
    return (sorted(sorted(prefixes), key=len),
            {p: v[:clamp[p]] if p else () for p, v in lcp.items()})


@pytest.mark.parametrize("name, length", [
    ("a2", 5), ("lme", 2), ("rev", 10), ("copy", 10), ("half", 10),
    ("idw", 10)])
def test_onward_prefixes_keep_their_values(name, length):
    """On the whole word cache, rejected words included."""
    cache, _ = read_words(bench_two_way(name), length)
    assert _onward_prefixes(cache) == reference_onward_prefixes(cache)


# outputs of no letter or one make the clamp bind below the shared prefix;
# a rejected word (None) adds prefixes without output
samples = st.dictionaries(
    st.lists(st.sampled_from("gh"), max_size=4).map(tuple).flatmap(
        lambda w: st.sampled_from("ed").map(lambda leaf: w + (leaf,))),
    st.none() | st.lists(st.sampled_from("uv"), max_size=3).map(tuple),
    max_size=12)


@settings(max_examples=200, deadline=None)
@given(samples)
@example({("g", "e"): ("u",), ("g", "d"): ("u",), ("h", "e"): ()})
@example({("e",): ("u",), ("g", "e"): ("u",), ("g", "g", "d"): ("u", "v")})
@example({("h", "g", "e"): None, ("h", "e"): ("u",), ("g", "d"): None})
def test_onward_prefixes_keep_their_values_on_random_samples(sample):
    assert _onward_prefixes(sample) == reference_onward_prefixes(sample)


# ---------------------------------------------------------------------------
# the quarter sample against the sample rule it replaced

def reference_fold_lengths(levels, cache_length):
    """The fold lengths of the fixed sample rule: words up to length 8,
    then the whole cache."""
    return sorted({min(8, cache_length), cache_length})


def outcome(verdict):
    """What a verdict says: the rendered transducer, the certificate or
    the reason."""
    if isinstance(verdict, Definable):
        return ("definable", render_spec(verdict.transducer),
                verdict.verified_length)
    if isinstance(verdict, NotDefinable):
        return "not definable", verdict.certificate
    return "unknown", verdict.report["reason"]


def same_verdict_as_fixed_sample(tw, budget):
    got = one_way_definability(tw, budget)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(word_transducers, "_fold_lengths", reference_fold_lengths)
        want = one_way_definability(tw, budget)
    assert outcome(got) == outcome(want)


@pytest.mark.parametrize("name, length", [
    ("a2", 5), ("lme", 2), ("rev", 10), ("copy", 10), ("half", 10),
    ("idw", 10)])
def test_the_quarter_sample_decides_like_the_fixed_one(name, length):
    same_verdict_as_fixed_sample(bench_two_way(name),
                                 DefinabilityBudget(verify_length=length))


def two_way_of(a):
    """The two-way machine decide_dtR builds for a, or None where the
    decision stops before build_two_way."""
    try:
        if is_circular(a)[0]:
            return None
        grounded = normalize_ground_rhs(a)
        if not single_path(grounded).yes:
            return None
        return build_two_way(associate(grounded))
    except NotApplicable:
        return None


@settings(max_examples=200, deadline=None)
@given(atts(), st.integers(3, 6))
def test_the_quarter_sample_decides_like_the_fixed_one_on_random_atts(
        a, length):
    tw = two_way_of(a)
    assume(tw is not None)
    same_verdict_as_fixed_sample(tw, DefinabilityBudget(verify_length=length))


# ---------------------------------------------------------------------------
# verify on suffix classes against the per-word loop it replaced

def _run_one_way(steps, init, word):
    q = init
    out = []
    for letter in word:
        got = steps.get((q, letter))
        if got is None:
            return None
        chunk, q = got
        out.extend(chunk)
    return tuple(out) if q is None else None


def reference_verify(cand, cache, words, aut):
    """None when the candidate matches the cached machine behavior on
    every accepted word and never accepts outside the correspondence
    language; otherwise a failure report.  words are the cache's words
    in the order to try them, sorted by the caller, which sorts once
    however many candidates it checks; the report names the first word
    that fails."""
    why = _not_word_shaped(cand)
    if why is not None:
        return {"reason": why}
    steps = _word_steps(cand)
    stray = _dom_within(cand, aut, steps)
    if stray is not None:
        return {"reason": "candidate accepts a word outside the "
                          "correspondence language", "word": list(stray)}
    for w in words:
        want = cache[w]
        got = _run_one_way(steps, cand.init, w)
        if got != want:
            return {"reason": "candidate disagrees with the machine",
                    "word": list(w),
                    "machine": None if want is None else list(want),
                    "candidate": None if got is None else list(got)}
    return None


def perturbed(cand, rng):
    """The candidate with one rule's output chunk one letter shorter, or
    one letter longer when it has none to drop."""
    if not cand.rules:
        return cand
    rules = list(cand.rules)
    k = rng.randrange(len(rules))
    r = rules[k]
    unary = sorted(sym for sym, rank in cand.output.items() if rank == 1)
    if r.rhs.children:
        rhs = r.rhs.children[0]
    elif unary:
        rhs = Tree(rng.choice(unary), [r.rhs])
    else:
        return cand
    rules[k] = TdttRule(r.state, r.symbol, rhs)
    return replace(cand, rules=tuple(rules))


def verify_agrees(tw, length, seed):
    """The class walk and the per-word loop give the same result on the
    candidates folded from the oracle's quarter sample and from all the
    words, and on one seeded perturbation of each.  Returns the number
    of candidates compared."""
    aut = tw.correspondence
    cache, summaries = read_words(tw, length)
    words = sorted(cache)
    rng = random.Random(seed)
    compared = 0
    for n in _fold_lengths(accepted_counts(aut, length), length):
        sample = {w: o for w, o in cache.items() if len(w) <= n}
        # a bound no fold reaches, so that REV folds too
        cand, _ = synthesize(sample, aut.input, tw.att.output, "C",
                             len(sample) * length)
        cand = restrict_to_language(cand, aut)
        for c in (cand, perturbed(cand, rng)):
            assert verify(c, summaries, aut, length, Counter()) == \
                reference_verify(c, cache, words, aut)
            compared += 1
    return compared


@pytest.mark.parametrize("name, length", [
    ("a2", 3), ("a2", 5), ("lme", 2), ("rev", 6), ("copy", 10),
    ("half", 10), ("idw", 10)])
def test_verify_matches_the_word_loop_on_the_bench_machines(name, length):
    assert verify_agrees(bench_two_way(name), length, 0) >= 2


@settings(max_examples=200, deadline=None)
@given(word_machines(), st.integers(1, 6), st.integers(0, 2 ** 16))
def test_verify_matches_the_word_loop_on_random_machines(tw, length, seed):
    verify_agrees(tw, length, seed)
