"""What the decision benchmark runs, and the answers it must get.

Every input is a spec file under bench/specs.  The files were rendered
once with `render_spec` from tests/fixtures.py and from the COPY, HALF and
IDW texts in tests/test_word_transducers.py; they are kept here so that a
change to the tests cannot change what is measured.

ttdef is imported inside the functions below, not at module level: the
benchmark re-imports ttdef several times to time its set-up, and the
checks must use the modules of the last import.
"""

import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

SPEC_DIR = Path(__file__).resolve().parent / "specs"

# The oracle's word budget.  decide_dtR cannot set it, so every workload
# runs under the DefinabilityBudget default; the run prints the live value.
ORACLE_MAX_WORDS = 150000


@dataclass(frozen=True)
class Expect:
    """Known answer: kind "yes", "no" or "refused"; detail is the No
    reason or the stage that refuses."""
    kind: str
    detail: str = None


KNOWN = {
    "A2": Expect("yes"),
    "LME": Expect("yes"),
    "HALF": Expect("yes"),
    "IDW": Expect("yes"),
    "REV": Expect("no", "not-definable"),
    "COPY": Expect("no", "not-definable"),
    "A1": Expect("no", "single-path-fails"),
    "N1": Expect("refused", "functional"),
    "C0": Expect("refused", "is_circular"),
}

# Wrong answers ttdef gives today, as (machine, answer kind).  They count
# as failed decisions like any other; only a failure not listed here makes
# a run incorrect.  COPY answers Yes at the default budgets because a
# chain of per-length states passes verification up to length 10.
KNOWN_DEFECTS = {("COPY", "yes")}


@dataclass(frozen=True)
class Workload:
    name: str
    machines: tuple      # keys of KNOWN; spec file specs/<key lower>.att
    config: dict         # BudgetConfig for decide_dtR


# README.md says why each workload is here.
WORKLOADS = {w.name: w for w in (
    Workload("oracle-a2", ("A2",),
             {"equivalence_depth": 4, "verify_word_length": 5}),
    Workload("lookaround-lme", ("LME",),
             {"equivalence_depth": 4, "verify_word_length": 2}),
    Workload("word-batch", ("REV", "COPY", "HALF", "IDW", "A1", "N1", "C0"),
             {"equivalence_depth": 4, "verify_word_length": 10}),
)}


def spec_text(machine):
    return (SPEC_DIR / ("%s.att" % machine.lower())).read_text()


def batch_order(workload, rng):
    """Machine order of one pass, drawn from rng.  A one-machine workload
    draws nothing, so its runs do not depend on the seed."""
    order = list(workload.machines)
    rng.shuffle(order)
    return order


@dataclass
class Decision:
    """One decide_dtR call: its answer, its stages and what the
    benchmark's re-checks found wrong with it."""
    machine: str
    kind: str                # yes, no, unknown, refused or error
    detail: str              # No reason, Unknown stage, refusing stage, error
    seconds: float
    stages: tuple = ()       # (name, verdict, artifact basename, seconds)
    message: str = None      # a refusal's message
    problems: list = field(default_factory=list)
    repeats: bool = True     # same signature as the run's first decision
    verified_length: int = None
    dtr_rules: int = None
    artifact_bytes: int = 0

    def signature(self):
        """What must repeat from op to op.  Artifact basenames, not the
        report hash: the hash covers full artifact paths, so the same
        decision written to two directories hashes differently."""
        return (self.kind, self.detail, self.message,
                tuple(s[:3] for s in self.stages))

    def outcome(self):
        """"right", "wrong" or "undecided" against the known answer."""
        want = KNOWN[self.machine]
        if self.problems or not self.repeats or self.kind == "error":
            return "wrong"
        if self.kind == "unknown":
            return "undecided"
        if self.kind != want.kind:
            return "wrong"
        if want.detail is not None and self.detail != want.detail:
            return "wrong"
        return "right"

    def known_defect(self):
        return self.repeats and (self.machine, self.kind) in KNOWN_DEFECTS


_VERIFIED = re.compile(r"up to length (\d+)")
_STAGE = re.compile(r"^stage '([^']+)'")


def decide(machine, spec, config, outdir):
    """Run decide_dtR once, timed; returns (Decision, report or None)."""
    from ttdef.errors import NotApplicable
    from ttdef.pipeline import No, Unknown, Yes, decide_dtR
    t0 = time.perf_counter()
    try:
        report = decide_dtR(spec, config, outdir)
    except NotApplicable as err:
        took = time.perf_counter() - t0
        stage = _STAGE.match(str(err))
        return Decision(machine, "refused",
                        stage.group(1) if stage else None, took,
                        message=str(err)), None
    except Exception as err:  # an unexpected error is a failed decision
        took = time.perf_counter() - t0
        return Decision(machine, "error",
                        "%s: %s" % (type(err).__name__, err), took), None
    took = time.perf_counter() - t0
    answer = report.answer
    if isinstance(answer, Yes):
        kind, detail = "yes", None
    elif isinstance(answer, No):
        kind, detail = "no", answer.reason
    elif isinstance(answer, Unknown):
        kind, detail = "unknown", answer.stage
    else:
        kind, detail = "error", "answer %r" % (answer,)
    d = Decision(machine, kind, detail, took, stages=tuple(
        (s.name, s.verdict, s.artifact and Path(s.artifact).name, s.seconds)
        for s in report.stages))
    for s in report.stages:
        if s.name == "one_way_definability":
            m = _VERIFIED.search(s.verdict)
            if m:
                d.verified_length = int(m.group(1))
    d.artifact_bytes = sum(p.stat().st_size for p in Path(outdir).iterdir())
    return d, report


def input_alphabet(spec):
    return spec.input_alphabet if hasattr(spec, "first") else spec.input


def rule_count(spec):
    """Rules of an att (a dict per symbol), a relabeling or top-down
    machine (a tuple), or both halves of a pair."""
    if hasattr(spec, "first"):
        return rule_count(spec.first) + rule_count(spec.second)
    rules = spec.rules
    if isinstance(rules, dict):
        return sum(len(v) for v in rules.values())
    return len(rules)


def random_tree(rng, alphabet, height):
    from ttdef.trees import Tree
    leaves = sorted(alphabet.symbols(rank=0))
    inner = sorted((s, k) for s, k in alphabet.items() if k > 0)
    if height <= 1 or not inner or rng.random() < 0.3:
        return Tree(rng.choice(leaves))
    sym, k = rng.choice(inner)
    return Tree(sym, [random_tree(rng, alphabet, height - 1) for _ in range(k)])


PROBES = 4               # seeded probe trees per Yes
PROBE_EXTRA_HEIGHT = 3   # probes reach past the certified depth


def recheck(d, report, spec, config, rng):
    """Re-check a decision's artifacts from disk, outside decide_dtR, and
    fill in d.dtr_rules.  Problems are appended to d.problems."""
    from ttdef.errors import TtdefError
    from ttdef.model import AttSpec, RelabelingSpec, parse_all
    from ttdef.pipeline import No, Yes
    from ttdef.semantics import evaluate
    from ttdef.trees import parse_tree
    from ttdef.word_transducers import (TwoWayWord, certificate_from_json,
                                        replay_certificate)

    paths = {s.name: Path(s.artifact) for s in report.stages if s.artifact}
    answer = report.answer
    # an Unknown at bounded_equivalence still leaves its rejected dtR
    dtr = [p for p in paths.values() if p.name.startswith("dtr-")]
    if isinstance(answer, Yes):
        dtr.append(Path(answer.spec_path))
    if dtr:
        final = parse_all(dtr[-1].read_text())[-1]
        d.dtr_rules = rule_count(final)
    if isinstance(answer, Yes):
        height = config["equivalence_depth"] + PROBE_EXTRA_HEIGHT
        for _ in range(PROBES):
            s = random_tree(rng, input_alphabet(spec), height)
            if evaluate(spec, s) != evaluate(final, s):
                d.problems.append("dtR disagrees with the source on %s"
                                  % s.render())
                break
    elif isinstance(answer, No) and answer.reason == "not-definable":
        data = json.loads(Path(answer.witness_path).read_text())
        decls = parse_all(paths["build_two_way"].read_text())
        att = next(x for x in decls if isinstance(x, AttSpec))
        corr = [x for x in decls if isinstance(x, RelabelingSpec)][-1]
        cert = certificate_from_json(data["certificate"])
        if not replay_certificate(TwoWayWord(data["two_way"], att, corr), cert):
            d.problems.append("pump certificate does not replay")
    elif isinstance(answer, No):
        data = json.loads(Path(answer.witness_path).read_text())
        try:
            tree = parse_tree(data["input"], input_alphabet(spec))
            for addr in data["addresses"]:
                tree.subtree_at(tuple(addr))
        except TtdefError as err:
            d.problems.append("single-path witness: %s" % err)
