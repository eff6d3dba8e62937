"""Tests of the benchmark's own code.  Run with

    python3 -m pytest -q bench/test_bench.py
"""

import json
import random
import re
import sys

import pytest

import run
import spans
import workloads as wl
from workloads import Decision

sys.path.insert(0, str(run.ROOT / "src"))


def test_every_machine_has_a_known_answer_and_a_spec():
    from ttdef.model import parse_all
    for w in wl.WORKLOADS.values():
        for m in w.machines:
            assert m in wl.KNOWN
            assert parse_all(wl.spec_text(m))
    assert {m for w in wl.WORKLOADS.values() for m in w.machines} == set(wl.KNOWN)


@pytest.mark.parametrize("d, outcome, excused", [
    (Decision("A2", "yes", None, 1.0), "right", False),
    (Decision("REV", "no", "not-definable", 1.0), "right", False),
    (Decision("A1", "no", "single-path-fails", 1.0), "right", False),
    (Decision("A1", "no", "not-definable", 1.0), "wrong", False),
    (Decision("N1", "refused", "functional", 1.0), "right", False),
    (Decision("C0", "refused", "functional", 1.0), "wrong", False),
    (Decision("LME", "unknown", "bounded_equivalence", 1.0), "undecided", False),
    (Decision("COPY", "yes", None, 1.0), "wrong", True),
    (Decision("COPY", "no", "not-definable", 1.0), "right", False),
    (Decision("HALF", "error", "KeyError: 'x'", 1.0), "wrong", False),
    (Decision("HALF", "yes", None, 1.0, problems=["dtR disagrees"]),
     "wrong", False),
    (Decision("COPY", "yes", None, 1.0, repeats=False), "wrong", False),
])
def test_known_answer_table(d, outcome, excused):
    assert d.outcome() == outcome
    assert d.known_defect() == excused


def test_signature_ignores_times_but_not_artifacts():
    a = Decision("A2", "yes", None, 1.0, stages=(("x", "ok", "dtr-1.att", 0.5),))
    b = Decision("A2", "yes", None, 2.0, stages=(("x", "ok", "dtr-1.att", 0.7),))
    c = Decision("A2", "yes", None, 1.0, stages=(("x", "ok", "dtr-2.att", 0.5),))
    assert a.signature() == b.signature() != c.signature()


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children():
    t = spans.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 10]))
    t.open("a")
    t.open("b")
    t.close()          # b: 1..4
    t.open("c")
    t.close()          # c: 5..6
    t.close()          # a: 0..10
    assert t.total == {"a": 10, "b": 3, "c": 1}
    assert t.self_time == {"a": 6, "b": 3, "c": 1}
    assert t.calls == {"a": 1, "b": 1, "c": 1}


def test_nested_same_name_counts_its_total_once():
    t = spans.Tracer(clock=FakeClock([0, 2, 5, 6, 7, 9]))
    t.open("a")
    t.open("a")
    t.open("b")
    t.close()          # b: 5..6
    t.close()          # inner a: 2..7, self 4
    t.close()          # outer a: 0..9, self 4
    assert t.total == {"a": 9, "b": 1}
    assert t.self_time == {"a": 8, "b": 1}
    assert t.calls == {"a": 2, "b": 1}


def test_wrapped_names_are_restored():
    import ttdef.pipeline as pipeline
    before = pipeline.associate
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert pipeline.associate is not before
    assert pipeline.associate is before


def test_a_missing_target_stops_the_traced_run(monkeypatch):
    import ttdef.pipeline as pipeline
    before = pipeline.associate
    monkeypatch.setattr(spans, "WRAPS", spans.WRAPS + (
        ("pipeline", "no_such_stage", "pipeline.none", None),))
    with pytest.raises(spans.MissingTarget, match="no_such_stage"):
        with spans.installed(spans.Tracer()):
            pass
    assert pipeline.associate is before


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_names_are_plain():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for section in ("end_to_end", "per_layer")
             for m in bench[section]] + list(run.LAYER)
    for name in names:
        assert NAME.match(name), name


def test_every_declared_metric_is_reported():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    stages = [m["name"][len("pipeline."):-2] for m in bench["per_layer"]
              if re.match(r"pipeline\..*_s$", m["name"])]
    d = Decision("A2", "yes", None, 1.0,
                 stages=tuple((s, "ok", None, 0.1) for s in stages))
    layer = run.per_layer([[d]], [[d]], spans.Tracer())
    assert {m["name"] for m in bench["per_layer"]} <= set(layer)
    e2e = run.end_to_end(wl.WORKLOADS["oracle-a2"], [[d]], [0.1])
    assert {m["name"] for m in bench["end_to_end"]} <= set(e2e)


def test_seeded_batch_order_is_reproducible():
    batch = wl.WORKLOADS["word-batch"]

    def passes(seed):
        rng = random.Random("order-%d" % seed)
        return [wl.batch_order(batch, rng) for _ in range(5)]

    assert passes(7) == passes(7)
    assert passes(7) != passes(8)
    assert sorted(passes(7)[0]) == sorted(batch.machines)
    fixed = wl.WORKLOADS["oracle-a2"]
    assert wl.batch_order(fixed, random.Random(1)) == ["A2"]
