"""Command line front end.

Exit codes follow one rule everywhere: 0 when the question was decided or
the construction succeeded, 2 when a budget ran out first (Unknown), 1 for
errors including unusable input.  All subcommands take --json for
machine-readable output on stdout; errors go to stderr as text.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import reduce
from pathlib import Path

from .analysis import is_circular, kappa, single_path, variations
from .constructions import associate, compose_dtR, normalize_ground_rhs
from .errors import SpecSyntaxError, TtdefError
from .functionality import (FunctionalityBudget, FunctionalUpTo, NotFunctional,
                            is_functional)
from .model import AttSpec, PairedSpec, RelabelingSpec, TdttSpec, check_monadic, \
    input_alphabet, parse_all, render_spec
from .pipeline import (ArtifactSink, BudgetConfig, DEFAULT_OUTDIR, No, Unknown,
                       Yes, decide_dtR, parse_config, report_to_json)
from .semantics import StepBudget, enumerate_outputs
from .trees import format_address, parse_tree
from .word_transducers import (Definable, DefinabilityBudget, NotDefinable,
                               build_two_way, certificate_from_json,
                               certificate_to_json, one_way_definability,
                               replay_certificate)

SCHEMA = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage, which would collide with the exit
    code for Unknown; raise instead and let main turn it into 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# shared helpers

def _load_decls(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise SpecSyntaxError("cannot read %s: %s" % (path, e))
    return parse_all(text)


def _subject(decls, name):
    """The declaration a command acts on: the named one, else the last in
    the file (paired specs render their stages first, so the pair comes
    last)."""
    if name is not None:
        for d in decls:
            if getattr(d, "name", None) == name:
                return d
        raise SpecSyntaxError("no declaration named %r" % name)
    if not decls:
        raise SpecSyntaxError("no declarations in file")
    return decls[-1]


def _plain_att(d, command):
    if isinstance(d, AttSpec):
        return d
    raise SpecSyntaxError(
        "%s needs a plain att, not %s" % (command, _kind_of(d)))


def _kind_of(d):
    if isinstance(d, AttSpec):
        return "att"
    if isinstance(d, RelabelingSpec):
        return "relabeling"
    if isinstance(d, TdttSpec):
        return "tdtt"
    if isinstance(d, PairedSpec):
        return "pair:%s" % d.kind
    return type(d).__name__


def _resolve_config(args):
    path = getattr(args, "config", None) or os.environ.get("TTDEF_CONFIG")
    if path:
        try:
            cfg = parse_config(Path(path).read_text())
        except OSError as e:
            raise SpecSyntaxError("cannot read config %s: %s" % (path, e))
    else:
        cfg = BudgetConfig()
    over = {}
    if getattr(args, "depth", None) is not None:
        over["equivalence_depth"] = args.depth
    if getattr(args, "verify_length", None) is not None:
        over["verify_word_length"] = args.verify_length
    if getattr(args, "state_bound", None) is not None:
        over["synth_state_bound"] = args.state_bound
    if getattr(args, "max_steps", None) is not None:
        over["max_steps"] = args.max_steps
    return replace(cfg, **over) if over else cfg


def _emit(args, obj, text):
    if args.json:
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args):
    decls = _load_decls(args.file)
    rows = [{"kind": _kind_of(d), "name": d.name} for d in decls]
    _emit(args, {"schema": SCHEMA, "declarations": rows},
          "\n".join("%s %s: ok" % (r["kind"], r["name"]) for r in rows))
    return 0


def _cmd_eval(args):
    over = {} if args.max_steps is None else {"max_steps": args.max_steps}
    budget = StepBudget(max_steps=BudgetConfig(**over).max_steps)
    d = _subject(_load_decls(args.file), args.spec)
    s = parse_tree(args.tree, alphabet=input_alphabet(d))
    outputs, exhaustive = enumerate_outputs(d, s, budget)
    rendered = sorted(t.render() for t in outputs)
    if not exhaustive:
        _emit(args, {"schema": SCHEMA, "outputs": rendered, "exhaustive": False},
              "budget exhausted; outputs so far: %s" % (rendered or "none"))
        return 2
    text = ("no output" if not rendered
            else rendered[0] if len(rendered) == 1
            else "\n".join(rendered))
    _emit(args, {"schema": SCHEMA, "outputs": rendered, "exhaustive": True},
          text)
    return 0


def _fmt_psi(psi):
    return "{%s}" % ", ".join("(%s,%s)" % p for p in sorted(psi))


def _cmd_analyze(args):
    a = _plain_att(_subject(_load_decls(args.file), args.spec), "analyze")
    monadic = check_monadic(a)
    circular, _ = is_circular(a)
    obj = {"schema": SCHEMA, "att": a.name, "monadic": monadic,
           "circular": circular}
    lines = ["att %s" % a.name,
             "  monadic: %s" % ("yes" if monadic else "no"),
             "  circular: %s" % ("yes" if circular else "no")]
    if not circular and a.deterministic:
        sp = single_path(a)
        obj["single_path"] = sp.yes
        if sp.yes:
            lines.append("  single path: yes")
        else:
            tree, u, v = sp.witness
            obj["single_path_witness"] = {
                "input": tree.render(),
                "addresses": [list(u), list(v)]}
            lines.append("  single path: no (%s at %s and %s)"
                         % (tree.render(), format_address(u),
                            format_address(v)))
        rows = []
        verdicts = variations(a)
        for psi in sorted(verdicts, key=sorted):
            verdict = verdicts[psi]
            rows.append({"pairs": [list(p) for p in sorted(psi)],
                         "bounded": verdict.bounded,
                         "kappa": verdict.kappa_psi if verdict.bounded else None})
            lines.append("  variation %s: %s" % (
                _fmt_psi(psi),
                "bounded, kappa %d" % verdict.kappa_psi if verdict.bounded
                else "unbounded"))
        obj["visiting_pair_sets"] = rows
        k = kappa(a)
        obj["kappa"] = k
        lines.append("  kappa: %d" % k)
    else:
        lines.append("  (walk analyses need a deterministic noncircular att)")
    _emit(args, obj, "\n".join(lines))
    return 0


def _cmd_associate(args):
    a = _plain_att(_subject(_load_decls(args.file), args.spec), "associate")
    h = associate(normalize_ground_rhs(a))
    path = ArtifactSink(args.out).write_spec("associated", render_spec(h.pair))
    _emit(args, {"schema": SCHEMA, "pair": h.pair.name, "kappa": h.kappa,
                 "spec": path},
          "%s (kappa %d) written to %s" % (h.pair.name, h.kappa, path))
    return 0


def _to_two_way(a):
    h = associate(normalize_ground_rhs(a))
    return build_two_way(h)


def _cmd_to_two_way(args):
    a = _plain_att(_subject(_load_decls(args.file), args.spec), "to-two-way")
    tw = _to_two_way(a)
    text = render_spec(tw.att) + "\n" + render_spec(tw.correspondence)
    path = ArtifactSink(args.out).write_spec("two-way", text)
    _emit(args, {"schema": SCHEMA, "two_way": tw.name, "spec": path},
          "%s written to %s" % (tw.name, path))
    return 0


def _cmd_definable(args):
    a = _plain_att(_subject(_load_decls(args.file), args.spec), "definable")
    sp = single_path(normalize_ground_rhs(a))
    if not sp.yes:
        raise SpecSyntaxError(
            "%r has two unbounded-variation nodes off one path; the word "
            "route does not apply" % a.name)
    tw = _to_two_way(a)
    if args.replay:
        try:
            obj = json.loads(Path(args.replay).read_text())
        except (OSError, ValueError) as e:
            raise SpecSyntaxError("cannot read %s: %s" % (args.replay, e))
        if isinstance(obj, dict) and "certificate" in obj:
            obj = obj["certificate"]
        cert = certificate_from_json(obj)
        ok = replay_certificate(tw, cert)
        _emit(args, {"schema": SCHEMA, "replayed": ok},
              "certificate %s" % ("replays" if ok else "does NOT replay"))
        return 0 if ok else 1
    cfg = _resolve_config(args)
    extra = {}
    if args.budget_words is not None:
        extra["max_words"] = args.budget_words
    budget = DefinabilityBudget(verify_length=cfg.verify_word_length,
                                state_bound=cfg.synth_state_bound, **extra)
    v = one_way_definability(tw, budget)
    if isinstance(v, Definable):
        _emit(args, {"schema": SCHEMA, "verdict": "definable",
                     "verified_length": v.verified_length},
              "definable; matched every accepted word up to length %d"
              % v.verified_length)
        return 0
    if isinstance(v, NotDefinable):
        path = ArtifactSink(args.out).write_json("pump-certificate", {
            "schema": SCHEMA, "kind": "pump-certificate", "two_way": tw.name,
            "certificate": certificate_to_json(v.certificate)})
        _emit(args, {"schema": SCHEMA, "verdict": "not-definable",
                     "certificate": path},
              "not definable; pump certificate written to %s" % path)
        return 0
    reason = v.report.get("reason", "oracle gave up")
    _emit(args, {"schema": SCHEMA, "verdict": "unknown", "reason": reason},
          "unknown: %s" % reason)
    return 2


def _run_pipeline(args):
    decls = _load_decls(args.file)
    a = _subject(decls, args.spec)
    cfg = _resolve_config(args)
    return a, decide_dtR(a, cfg, outdir=args.out)


def _answer_line(answer):
    if isinstance(answer, Yes):
        return "yes: dtR spec at %s" % answer.spec_path
    if isinstance(answer, No):
        return "no (%s): witness at %s" % (answer.reason, answer.witness_path)
    return "unknown at stage %s: %s" % (answer.stage, answer.reason)


def _cmd_decide(args):
    _, report = _run_pipeline(args)
    _emit(args, report_to_json(report), _answer_line(report.answer))
    return 2 if isinstance(report.answer, Unknown) else 0


def _cmd_synthesize(args):
    _, report = _run_pipeline(args)
    _emit(args, report_to_json(report), _answer_line(report.answer))
    if isinstance(report.answer, Yes):
        return 0
    return 2 if isinstance(report.answer, Unknown) else 1


def _cmd_functional(args):
    a = _subject(_load_decls(args.file), args.spec)
    cfg = _resolve_config(args)
    v = is_functional(a, FunctionalityBudget(depth=cfg.equivalence_depth,
                                             max_steps=cfg.max_steps))
    if isinstance(v, FunctionalUpTo):
        _emit(args, {"schema": SCHEMA, "verdict": "functional",
                     "depth": v.depth},
              "functional on all inputs up to depth %d" % v.depth)
    elif isinstance(v, NotFunctional):
        _emit(args, {"schema": SCHEMA, "verdict": "not-functional",
                     "input": v.input.render(),
                     "outputs": [v.out1.render(), v.out2.render()]},
              "not a function: %s maps to %s and %s"
              % (v.input.render(), v.out1.render(), v.out2.render()))
    else:
        _emit(args, {"schema": SCHEMA, "verdict": "productive-cycle",
                     "input": v.input.render(),
                     "trace": [t.render() for t in v.trace]},
              "output grows forever on %s" % v.input.render())
    return 0


def _cmd_compose(args):
    decls = []
    for path in args.files:
        decls.extend(_load_decls(path))
    pairs = [d for d in decls if isinstance(d, PairedSpec)
             and d.kind in ("dtR", "lookaround")]
    if len(pairs) < 2:
        raise SpecSyntaxError(
            "compose needs at least two dtR or lookaround pairs, found %d"
            % len(pairs))
    composed = reduce(compose_dtR, pairs)
    path = ArtifactSink(args.out).write_spec("composed", render_spec(composed))
    _emit(args, {"schema": SCHEMA, "composed": composed.name, "spec": path},
          "%s written to %s" % (composed.name, path))
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser():
    parser = _Parser(prog="ttdef",
                     description="attributed tree transducers with monadic "
                                 "output: evaluation, analysis, and the "
                                 "dtR decision pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def add(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        return p

    def spec_arg(p):
        p.add_argument("file", help="spec file")
        p.add_argument("--spec", metavar="NAME",
                       help="declaration to use (default: last in file)")

    budget_flags = {
        "--depth": "override equivalence_depth",
        "--verify-length": "override verify_word_length",
        "--state-bound": "override synth_state_bound",
        "--max-steps": "override max_steps, the step cap of the "
                       "functionality searches and of bounded_equivalence "
                       "(ttdef eval's default)",
    }

    def budget_args(p, flags=tuple(budget_flags), out=True):
        """--config and the budget flags the command reads; a config file
        may set every key."""
        p.add_argument("--config", metavar="FILE",
                       help="budget config, key = value lines "
                            "(default: $TTDEF_CONFIG if set)")
        for flag in flags:
            p.add_argument(flag, type=int, metavar="N",
                           help=budget_flags[flag])
        if out:
            p.add_argument("--out", metavar="DIR", default=DEFAULT_OUTDIR,
                           help="artifact directory (default %(default)s)")

    p = add("validate", _cmd_validate, "parse a spec file and report declarations")
    p.add_argument("file", help="spec file")

    p = add("eval", _cmd_eval, "run a spec on one input tree")
    spec_arg(p)
    p.add_argument("tree", help="input tree, e.g. 'f(e,e)'")
    p.add_argument("--max-steps", type=int, metavar="N",
                   help="derivation step budget (default: BudgetConfig's "
                        "max_steps, %d)" % BudgetConfig.max_steps)

    p = add("analyze", _cmd_analyze,
            "circularity, visiting pair sets, variation, single path")
    spec_arg(p)

    p = add("associate", _cmd_associate,
            "build the word-shaped att behind a relabeling")
    spec_arg(p)
    p.add_argument("--out", metavar="DIR", default=DEFAULT_OUTDIR,
                   help="artifact directory (default %(default)s)")

    p = add("to-two-way", _cmd_to_two_way,
            "build the two-way word machine and its correspondence automaton")
    spec_arg(p)
    p.add_argument("--out", metavar="DIR", default=DEFAULT_OUTDIR,
                   help="artifact directory (default %(default)s)")

    p = add("definable", _cmd_definable,
            "one-way definability of the two-way word machine")
    spec_arg(p)
    budget_args(p, ("--verify-length", "--state-bound"))
    p.add_argument("--budget-words", type=int, metavar="N",
                   help="cap on cached words (0 gives Unknown)")
    p.add_argument("--replay", metavar="CERT",
                   help="replay a pump certificate instead of deciding")

    p = add("decide", _cmd_decide,
            "decide dtR realizability end to end")
    spec_arg(p)
    budget_args(p)

    p = add("synthesize", _cmd_synthesize,
            "like decide, but exit 1 unless a dtR spec was built")
    spec_arg(p)
    budget_args(p)

    p = add("functional", _cmd_functional,
            "does a nondeterministic att still compute a function")
    spec_arg(p)
    budget_args(p, ("--depth", "--max-steps"), out=False)

    p = add("compose", _cmd_compose,
            "compose staged transducers left to right")
    p.add_argument("files", nargs="+", help="spec files holding the pairs")
    p.add_argument("--out", metavar="DIR", default=DEFAULT_OUTDIR,
                   help="artifact directory (default %(default)s)")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print("ttdef: error: %s" % e, file=sys.stderr)
        return 1
    except SystemExit as e:   # --help
        return e.code or 0
    try:
        return args.run(args)
    except TtdefError as e:
        print("ttdef: error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
