"""End-to-end decision pipeline: is this attributed translation computable
by a deterministic top-down transducer with regular look-ahead?

decide_dtR runs the whole chain on one att (or att with look-around) and
returns a DecisionReport whose answer is Yes with a constructed dtR spec,
No with a replayable witness, or Unknown with the stage and budget that
gave up.  Every intermediate object is written to an artifact directory
under a content-hashed filename, so identical runs leave identical files
and a Yes answer can be re-checked from the artifact alone.
"""

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .analysis import is_circular, single_path
from .constructions import (associate, compose_dtR, normalize_domain_into_range,
                            normalize_ground_rhs, uniformize)
from .errors import NotApplicable, SpecSyntaxError, TtdefError
from .functionality import (FunctionalityBudget, NotFunctional,
                            ProductiveCycle, Unfinished, bounded_equivalence,
                            Equal, is_functional)
from .model import AttSpec, PairedSpec, check_monadic, parse_all, render_spec
from .semantics import StepBudget
from .trees import format_address
from .word_transducers import (Definable, DefinabilityBudget, NotDefinable,
                               build_two_way, back_convert,
                               certificate_to_json, one_way_definability)

SCHEMA = 1

DEFAULT_OUTDIR = "ttdef-artifacts"


# ---------------------------------------------------------------------------
# budgets

_CONFIG_KEYS = ("equivalence_depth", "verify_word_length", "synth_state_bound",
                "max_steps")


@dataclass(frozen=True)
class BudgetConfig:
    """Desk-scale budgets for one pipeline run.

    equivalence_depth bounds the input trees used for the final
    certification and for functionality probes; verify_word_length and
    synth_state_bound parametrize the one-way definability oracle;
    max_steps caps the steps of the functionality searches
    (is_functional) and of bounded_equivalence, and is the step budget
    `ttdef eval` takes by default.  The oracle's word walks do not read
    it: they run under DefinabilityBudget.max_steps.
    """
    equivalence_depth: int = 4
    verify_word_length: int = 10
    synth_state_bound: int = 16
    max_steps: int = 1000000

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise SpecSyntaxError(
                    "config %s must be a positive integer, got %r"
                    % (f.name, v))

    @classmethod
    def coerce(cls, cfg):
        if cfg is None:
            return cls()
        if isinstance(cfg, cls):
            return cfg
        if isinstance(cfg, dict):
            bad = sorted(set(cfg) - set(_CONFIG_KEYS))
            if bad:
                raise SpecSyntaxError("unknown config key %r" % bad[0])
            return cls(**cfg)
        raise SpecSyntaxError("not a budget config: %r" % (cfg,))


def parse_config(text):
    """Read budgets from "key = value" lines.

    Blank lines and # comments are ignored; unknown keys and non-integer
    values are rejected rather than silently dropped, so a typo in a
    config file cannot quietly fall back to defaults.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecSyntaxError(
                "config line %d: expected key = value, got %r" % (lineno, raw))
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise SpecSyntaxError(
                "config line %d: unknown key %r" % (lineno, key))
        try:
            values[key] = int(val)
        except ValueError:
            raise SpecSyntaxError(
                "config line %d: %s needs an integer, got %r"
                % (lineno, key, val))
    return BudgetConfig(**values)


# ---------------------------------------------------------------------------
# report structure

@dataclass
class Stage:
    name: str
    verdict: str
    artifact: str = None
    seconds: float = 0.0


@dataclass(frozen=True)
class Yes:
    spec_path: str


@dataclass(frozen=True)
class No:
    reason: str            # "single-path-fails" or "not-definable"
    witness_path: str


@dataclass(frozen=True)
class Unknown:
    stage: str
    reason: str
    budget: dict


@dataclass
class DecisionReport:
    name: str
    answer: object
    stages: tuple
    config: BudgetConfig


def _answer_to_json(answer):
    if isinstance(answer, Yes):
        return {"kind": "yes", "spec": answer.spec_path}
    if isinstance(answer, No):
        return {"kind": "no", "reason": answer.reason,
                "witness": answer.witness_path}
    return {"kind": "unknown", "stage": answer.stage, "reason": answer.reason,
            "budget": dict(answer.budget)}


def _report_core(report, path):
    answer = report.answer
    if isinstance(answer, Yes):
        answer = Yes(spec_path=path(answer.spec_path))
    elif isinstance(answer, No):
        answer = No(reason=answer.reason,
                    witness_path=path(answer.witness_path))
    return {
        "schema": SCHEMA,
        "name": report.name,
        "answer": _answer_to_json(answer),
        "stages": [{"name": s.name, "verdict": s.verdict,
                    "artifact": s.artifact and path(s.artifact)}
                   for s in report.stages],
        "config": asdict(report.config),
    }


def report_to_json(report):
    """JSON form of a report.  The hash field covers everything except the
    timings and the artifact directory: artifact names are content hashes,
    so the same decision written anywhere hashes the same."""
    hashed = _report_core(report, lambda p: Path(p).name)
    canonical = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    core = _report_core(report, str)
    core["hash"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    core["timings"] = {s.name: round(s.seconds, 6) for s in report.stages}
    return core


# ---------------------------------------------------------------------------
# artifacts

class ArtifactSink:
    """Writes artifacts under one directory, named by content hash so the
    same content always lands at the same path."""

    def __init__(self, outdir):
        self.outdir = Path(outdir if outdir is not None else DEFAULT_OUTDIR)

    def _write(self, kind, text, ext):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        self.outdir.mkdir(parents=True, exist_ok=True)
        path = self.outdir / ("%s-%s.%s" % (kind, digest, ext))
        path.write_text(text)
        return str(path)

    def write_spec(self, kind, text):
        if not text.endswith("\n"):
            text += "\n"
        return self._write(kind, text, "att")

    def write_json(self, kind, obj):
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        return self._write(kind, text, "json")


@contextmanager
def _staged(stages, name):
    """Record one stage with wall time; a domain error inside the block is
    re-raised with the stage name prefixed so failures say where."""
    entry = Stage(name=name, verdict="")
    t0 = time.perf_counter()
    try:
        yield entry
    except TtdefError as e:
        entry.seconds = time.perf_counter() - t0
        entry.verdict = "error: %s" % e
        stages.append(entry)
        raise type(e)("stage %r: %s" % (name, e)) from None
    entry.seconds = time.perf_counter() - t0
    stages.append(entry)


# ---------------------------------------------------------------------------
# the pipeline

def decide_dtR(a, cfg=None, outdir=None):
    """Decide whether the translation of `a` is computable by a
    deterministic top-down transducer with regular look-ahead.

    `a` is an att or an att with look-around (pair kind attU).  Returns a
    DecisionReport; raises with stage attribution when `a` is outside the
    decidable fragment handled here (nonmonadic output, circularity, or a
    nondeterministic att that is not even a function at desk depth).

    Yes answers name a spec artifact that was parsed back from disk and
    re-certified against `a` before being reported; No answers name a
    replayable witness artifact.
    """
    cfg = BudgetConfig.coerce(cfg)
    sink = ArtifactSink(outdir)
    stages = []

    def report(answer):
        return DecisionReport(name=a.name, answer=answer,
                              stages=tuple(stages), config=cfg)

    with _staged(stages, "validate") as st:
        if isinstance(a, AttSpec):
            att = a
            look = None
        elif isinstance(a, PairedSpec) and a.kind == "attU":
            att = a.second
            look = a.first
        else:
            raise NotApplicable(
                "decide_dtR expects an att or an att with look-around, "
                "not %r" % (a.kind if isinstance(a, PairedSpec) else a,))
        st.verdict = ("att with look-around" if look is not None else "att")

    with _staged(stages, "check_monadic") as st:
        if not check_monadic(att):
            raise NotApplicable(
                "output of %r is not monadic; the word-transducer route "
                "needs word output" % att.name)
        st.verdict = "monadic output"

    with _staged(stages, "is_circular") as st:
        flag, _ = is_circular(att)
        if flag:
            raise NotApplicable(
                "%r is circular; some attribute depends on itself" % att.name)
        st.verdict = "noncircular"

    if not att.deterministic:
        with _staged(stages, "functional") as st:
            fv = is_functional(a, FunctionalityBudget(
                depth=cfg.equivalence_depth, max_steps=cfg.max_steps))
            if isinstance(fv, NotFunctional):
                raise NotApplicable(
                    "%r maps %s to two different outputs; no deterministic "
                    "transducer computes it" % (a.name, fv.input.render()))
            if isinstance(fv, ProductiveCycle):
                raise NotApplicable(
                    "%r grows output forever on %s; no transducer "
                    "computes it" % (a.name, fv.input.render()))
            st.verdict = "functional up to depth %d" % fv.depth
        with _staged(stages, "determinize") as st:
            st.verdict = "not attempted"
        return report(Unknown(
            stage="determinize",
            reason="determinization of a functional nondeterministic att "
                   "is not implemented here",
            budget=asdict(cfg)))

    if look is not None:
        with _staged(stages, "normalize_domain_into_range") as st:
            fused = normalize_domain_into_range(look, att)
            att = fused.second
            look = fused.first
            st.artifact = sink.write_spec("ranged", render_spec(fused))
            st.verdict = ("domain check folded into %r over %d annotated "
                          "symbols" % (att.name, len(att.input.items())))

    with _staged(stages, "normalize_ground_rhs") as st:
        grounded = normalize_ground_rhs(att)
        if grounded is att:
            st.verdict = "no ground right-hand sides"
        else:
            st.verdict = "rerouted ground right-hand sides through the root"
            st.artifact = sink.write_spec("grounded", render_spec(grounded))
        att = grounded

    answer = None
    with _staged(stages, "single_path") as st:
        sp = single_path(att)
        if not sp.yes:
            tree, u, v = sp.witness
            path = sink.write_json("single-path-witness", {
                "schema": SCHEMA,
                "kind": "single-path-witness",
                "att": att.name,
                "input": tree.render(),
                "addresses": [list(u), list(v)],
            })
            st.verdict = ("no: unbounded variation at %s and %s off one path"
                          % (format_address(u), format_address(v)))
            st.artifact = path
            answer = No(reason="single-path-fails", witness_path=path)
        else:
            st.verdict = "yes"
    if answer is not None:
        return report(answer)

    with _staged(stages, "associate") as st:
        h = associate(att)
        st.artifact = sink.write_spec("associated", render_spec(h.pair))
        st.verdict = ("word-shaped att behind a relabeling, kappa = %d"
                      % h.kappa)

    with _staged(stages, "build_two_way") as st:
        tw = build_two_way(h)
        st.artifact = sink.write_spec(
            "two-way", render_spec(tw.att) + "\n" + render_spec(tw.correspondence))
        st.verdict = "two-way word machine %r" % tw.name
    # uniformize reads only the relabeling: the reduced att goes now, not
    # after the oracle and bounded_equivalence
    relabeling = h.relabeling
    del h

    with _staged(stages, "one_way_definability") as st:
        oracle_budget = DefinabilityBudget(
            verify_length=cfg.verify_word_length,
            state_bound=cfg.synth_state_bound)
        ov = one_way_definability(tw, oracle_budget)
        if isinstance(ov, NotDefinable):
            path = sink.write_json("pump-certificate", {
                "schema": SCHEMA,
                "kind": "pump-certificate",
                "two_way": tw.name,
                "certificate": certificate_to_json(ov.certificate),
            })
            st.verdict = "not definable, pump certificate written"
            st.artifact = path
            answer = No(reason="not-definable", witness_path=path)
        elif not isinstance(ov, Definable):
            reason = ov.report.get("reason", "oracle gave up")
            st.verdict = "unknown: %s" % reason
            answer = Unknown(stage="one_way_definability", reason=reason,
                             budget=dict(ov.report.get(
                                 "budget", asdict(oracle_budget))))
        else:
            st.verdict = ("definable; matched every accepted word up to "
                          "length %d" % ov.verified_length)
    if answer is not None:
        return report(answer)

    with _staged(stages, "back_convert") as st:
        trees = back_convert(ov.transducer)
        st.verdict = "tree-level transducer %r" % trees.name

    with _staged(stages, "uniformize") as st:
        candidate = PairedSpec("dtR", a.name + "_dtr", relabeling, trees)
        candidate = uniformize(candidate)
        final = candidate
        spec_path = None
        if look is None:
            spec_path = sink.write_spec("dtr", render_spec(final))
            st.artifact = spec_path
        st.verdict = "deterministic candidate %r" % candidate.name

    if look is not None:
        with _staged(stages, "compose") as st:
            final = compose_dtR(look, candidate)
            spec_path = sink.write_spec("dtr", render_spec(final))
            st.artifact = spec_path
            st.verdict = "look-around composed in: %r" % final.name

    with _staged(stages, "bounded_equivalence") as st:
        decls = parse_all(Path(spec_path).read_text())
        reloaded = next(d for d in decls
                        if getattr(d, "name", None) == final.name)
        steps = StepBudget(max_steps=cfg.max_steps)
        eq = bounded_equivalence(a, reloaded, cfg.equivalence_depth, steps)
        if isinstance(eq, Unfinished):
            st.verdict = "step budget ran out on %s" % eq.input.render()
            answer = Unknown(
                stage="bounded_equivalence",
                reason="the step budget ran out on %s (max_steps = %d, "
                       "max_enumeration = %d)"
                       % (eq.input.render(), steps.max_steps,
                          steps.max_enumeration),
                budget=asdict(cfg))
        elif not isinstance(eq, Equal):
            st.verdict = ("candidate disagrees with the att on %s"
                          % eq.input.render())
            answer = Unknown(
                stage="bounded_equivalence",
                reason="constructed transducer differs on %s"
                       % eq.input.render(),
                budget=asdict(cfg))
        else:
            st.verdict = ("reloaded candidate equal on all inputs up to "
                          "depth %d" % eq.depth)
    if answer is not None:
        return report(answer)
    return report(Yes(spec_path=spec_path))
