"""Spans around the calls that cross ttdef's layer boundaries.

The benchmark's traced run patches module-level names for the length of
one op: `pipeline.associate`, `word_transducers.evaluate` and so on.  A
name is patched in the namespace of the module that calls it, so the same
function can be charged to different callers: `evaluate` called from
`word_transducers` is the oracle's walk, `enumerate_outputs` called from
`functionality` is the equivalence check's walk.  Nothing in `src/` is
edited.

Spans are folded into per-name totals as they close, so memory stays flat
however many calls an op makes.  Spans nest on one thread; a span's self
time is its duration minus the durations of its direct children.
"""

import importlib
import time
from contextlib import contextmanager

from workloads import rule_count


class Tracer:
    """Per-name call counts, inclusive seconds and self seconds, plus
    named counters and sizes filled in by result hooks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []      # open spans: [name, start, seconds in children]
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counts = {}
        self.state = {}      # hook bookkeeping; shortest_cache and horizon
                             # are minima over the run

    def open(self, name):
        self.stack.append([name, self.clock(), 0.0])

    def close(self):
        name, start, in_children = self.stack.pop()
        took = self.clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_time[name] = self.self_time.get(name, 0.0) + took - in_children
        # a span nested in one of the same name is already inside its total
        if all(frame[0] != name for frame in self.stack):
            self.total[name] = self.total.get(name, 0.0) + took
        if self.stack:
            self.stack[-1][2] += took

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def inside(self, name):
        return any(frame[0] == name for frame in self.stack)

    def end_decision(self):
        """Fold the sizes a decision leaves behind into the counts."""
        self.add("constructions.dtr_states", self.state.pop("dtr_states", 0))
        self.state.pop("equiv_tree", None)


def _walked(tracer, args, result):
    """Count oracle walks that ran out of steps."""
    if type(result).__name__ == "BudgetExhausted":
        tracer.add("word_transducers.exhausted_words")
    elif isinstance(result, tuple) and not result[0] and not result[1]:
        tracer.add("word_transducers.exhausted_words")


def _equiv_walked(tracer, args, result):
    """bounded_equivalence walks both machines on each tree in turn, so a
    new tree object marks the next tree compared."""
    if args[1] is not tracer.state.get("equiv_tree"):
        tracer.state["equiv_tree"] = args[1]
        tracer.add("functionality.equiv_trees")


def _associated(tracer, args, h):
    tracer.add("constructions.assoc_symbols", len(h.att.input))
    tracer.add("constructions.assoc_rules", rule_count(h.att))
    tracer.add("constructions.la_states", len(h.relabeling.states))


def _two_way(tracer, args, tw):
    tracer.add("word_transducers.two_way_letters", len(tw.att.input))
    tracer.add("word_transducers.two_way_rules", rule_count(tw.att))


def _candidate(tracer, args, dtr):
    # uniformize, then compose when there is look-around: the last one wins
    tracer.state["dtr_states"] = len(dtr.second.states)


def _oracle(tracer, args, verdict):
    st = tracer.state
    words, length = st.pop("cache_words", 0), st.pop("cache_length", 0)
    tracer.add("word_transducers.cache_words", words)
    # lengths do not add up over a batch: keep the shortest one reached
    st["shortest_cache"] = min(st.get("shortest_cache", length), length)
    st["horizon"] = min(st.get("horizon", 1.0), length / args[1].verify_length)
    if type(verdict).__name__ == "Definable":
        tracer.add("word_transducers.fold_states",
                   len(verdict.transducer.states))


# (module, attribute, span name, result hook).  Each entry is a name the
# module calls across a layer boundary, patched where it is looked up.
WRAPS = (
    ("pipeline", "is_circular", "analysis.is_circular", None),
    ("pipeline", "single_path", "analysis.single_path", None),
    ("pipeline", "is_functional", "functionality.is_functional", None),
    ("pipeline", "normalize_domain_into_range",
     "constructions.normalize_domain_into_range", None),
    ("pipeline", "normalize_ground_rhs", "constructions.normalize_ground_rhs",
     None),
    ("pipeline", "associate", "constructions.associate", _associated),
    ("pipeline", "build_two_way", "word_transducers.build_two_way", _two_way),
    ("pipeline", "one_way_definability", "word_transducers.oracle", _oracle),
    ("pipeline", "back_convert", "word_transducers.back_convert", None),
    ("pipeline", "uniformize", "constructions.uniformize", _candidate),
    ("pipeline", "compose_dtR", "constructions.compose", _candidate),
    ("pipeline", "bounded_equivalence", "functionality.equiv", None),
    ("pipeline", "parse_all", "model.parse", None),
    ("pipeline", "render_spec", "model.render", None),
    ("word_transducers", "evaluate", "semantics.oracle_walk", _walked),
    ("word_transducers", "enumerate_outputs", "semantics.oracle_walk", _walked),
    ("functionality", "enumerate_outputs", "semantics.equiv_walk",
     _equiv_walked),
    ("constructions", "nf", "semantics.nf", None),
    ("analysis", "local_run", "analysis.local_run", None),
)


def _wrapped(tracer, fn, span, hook):
    def traced(*args, **kwargs):
        tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if hook is not None:
            hook(tracer, args, result)
        return result
    return traced


def _counted_words(tracer, fn):
    """accepted_words feeds the oracle's word cache; count what it yields
    inside an oracle span, the cache size whatever the walk engine does."""
    def counted(aut, max_length):
        for w, state in fn(aut, max_length):
            if tracer.inside("word_transducers.oracle"):
                st = tracer.state
                st["cache_words"] = st.get("cache_words", 0) + 1
                st["cache_length"] = max(st.get("cache_length", 0), len(w))
            yield w, state
    return counted


class MissingTarget(Exception):
    """A name the traced run patches is gone from ttdef.  Its metrics
    would read 0, which looks like a gain, so the run stops instead."""


@contextmanager
def installed(tracer):
    """Patch every target for the duration of the block.  A target the
    program no longer has raises MissingTarget, with every name patched
    so far restored."""
    saved = []

    def patch(mod_name, attr, make):
        module = importlib.import_module("ttdef." + mod_name)
        fn = getattr(module, attr, None)
        if fn is None:
            raise MissingTarget("ttdef.%s has no %s to trace; update WRAPS "
                                "in bench/spans.py" % (mod_name, attr))
        saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    try:
        for mod_name, attr, span, hook in WRAPS:
            patch(mod_name, attr, lambda fn: _wrapped(tracer, fn, span, hook))
        patch("word_transducers", "accepted_words",
              lambda fn: _counted_words(tracer, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
