"""Decision benchmark for ttdef: time to a verdict on specs with known answers.

Run from the root of the repository:

    python3 bench/run.py --workload oracle-a2 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 35 --trace 0

A run imports ttdef from ./src and parses the workload's specs (the
set-up, timed again every two seconds), then calls pipeline.decide_dtR in a closed
loop: one caller, no threads, the next op as soon as the last one ends,
until --seconds have passed.  An op is one decide_dtR call, or one pass
over the batch for word-batch.  Every verdict is checked against the
known-answer table in workloads.py and its artifacts are re-checked from
disk, outside the timed region.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced ops (spans.py) and reports the per-layer
metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it, "detail {...}", holds every
metric of the run.  --workload all runs each workload in its own process
and prints one row per workload.
"""

import argparse
import collections
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Seconds of run time per timed set-up.  The machine's speed changes from
# second to second, so set-ups are spread over the run, not taken in a row.
SETUP_EVERY_S = 2.0


class SetupError(Exception):
    pass


def ttdef_modules():
    return {m: mod for m, mod in sys.modules.items()
            if m == "ttdef" or m.startswith("ttdef.")}


def set_up(workload):
    """Import ttdef afresh and parse the workload's spec files; returns
    (seconds, {machine: spec})."""
    for name in ttdef_modules():
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    try:
        model = importlib.import_module("ttdef.model")
        importlib.import_module("ttdef.pipeline")
    except ImportError as err:
        raise SetupError("cannot import ttdef from %s: %s" % (ROOT / "src", err))
    specs = {m: model.parse_all(wl.spec_text(m))[-1]
             for m in workload.machines}
    took = time.perf_counter() - t0
    where = Path(sys.modules["ttdef"].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SetupError("imported ttdef from %s, not from %s"
                         % (where, ROOT / "src"))
    return took, specs


def time_set_up(workload):
    """Seconds of one more set-up.  The ops go on with the modules they
    were using, so their caches and patches stay as they were."""
    live = ttdef_modules()
    try:
        return set_up(workload)[0]
    finally:
        for name in ttdef_modules():
            del sys.modules[name]
        sys.modules.update(live)


def run_op(workload, specs, order_rng, probe_rng, outroot, first,
           tracer=None):
    """One op: every machine of the workload once, each decision checked.
    `first` maps each machine to the signature of its first decision in
    the run; a decision that differs is marked."""
    op = []
    gc.collect()
    for machine in wl.batch_order(workload, order_rng):
        outdir = tempfile.mkdtemp(dir=outroot)
        if tracer is None:
            d, report = wl.decide(machine, specs[machine], workload.config,
                                  outdir)
        else:
            with spans.installed(tracer):
                d, report = wl.decide(machine, specs[machine],
                                      workload.config, outdir)
            tracer.end_decision()
        if report is not None:
            try:
                wl.recheck(d, report, specs[machine], workload.config,
                           probe_rng)
            except Exception as err:  # a re-check that breaks is a failure
                d.problems.append("re-check raised %s: %s"
                                  % (type(err).__name__, err))
        shutil.rmtree(outdir)
        d.repeats = first.setdefault(machine, d.signature()) == d.signature()
        op.append(d)
    return op


def run_ops(seconds, do_op, tracer=None, between=None):
    """Closed loop of ops until `seconds` have passed; returns the
    untraced and the traced ops.  With a tracer, ops alternate between
    untraced and traced, so both see the same drift in machine speed.
    between(elapsed seconds) runs after each op, inside the measured time."""
    plain, traced = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while (not plain or (tracer is not None and not traced)
           or time.perf_counter() < deadline):
        if between is not None and plain:
            between(time.perf_counter() - start)
        use = tracer if tracer is not None and len(traced) < len(plain) else None
        op = do_op(use)
        (plain if use is None else traced).append(op)
        print("op %d%s  %.4f s  %s" % (
            len(plain) + len(traced), "" if use is None else " traced",
            sum(d.seconds for d in op),
            " ".join("%s=%s%s" % (d.machine, d.kind,
                                  "(wrong)" if d.outcome() == "wrong" else "")
                     for d in op)), flush=True)
    return plain, traced


def op_seconds(ops):
    return [sum(d.seconds for d in op) for op in ops]


def p90(values):
    """90th percentile, or None unless at least ten samples lie above it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(workload, ops, setups):
    decisions = [d for op in ops for d in op]
    outcomes = [d.outcome() for d in decisions]
    n = len(decisions)
    verified = [d.verified_length for d in decisions if d.verified_length]
    times = op_seconds(ops)
    return {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90(times),
        "ops": len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "wrong_share": outcomes.count("wrong") / n,
        "undecided_share": outcomes.count("undecided") / n,
        "not_wrong_share": 1 - outcomes.count("wrong") / n,
        "verified_word_length": min(verified) if verified else 0,
        "requested_word_length": workload.config["verify_word_length"],
        "dtr_rules": statistics.median(
            sum(d.dtr_rules or 0 for d in op) for op in ops),
    }


# per-layer metric -> (Tracer table, span or counter name); per-op means
LAYER = {
    "semantics.oracle_words": ("calls", "semantics.oracle_walk"),
    "semantics.oracle_walk_s": ("total", "semantics.oracle_walk"),
    "semantics.equiv_calls": ("calls", "semantics.equiv_walk"),
    "semantics.equiv_walk_s": ("total", "semantics.equiv_walk"),
    "semantics.nf_calls": ("calls", "semantics.nf"),
    "semantics.nf_s": ("total", "semantics.nf"),
    "analysis.local_run_calls": ("calls", "analysis.local_run"),
    "analysis.local_run_s": ("total", "analysis.local_run"),
    "analysis.single_path_s": ("total", "analysis.single_path"),
    "constructions.associate_s": ("total", "constructions.associate"),
    "constructions.uniformize_s": ("total", "constructions.uniformize"),
    "constructions.compose_s": ("total", "constructions.compose"),
    "constructions.assoc_symbols": ("counts", "constructions.assoc_symbols"),
    "constructions.assoc_rules": ("counts", "constructions.assoc_rules"),
    "constructions.la_states": ("counts", "constructions.la_states"),
    "constructions.dtr_states": ("counts", "constructions.dtr_states"),
    "word_transducers.oracle_s": ("total", "word_transducers.oracle"),
    "word_transducers.oracle_self_s": ("self_time", "word_transducers.oracle"),
    "word_transducers.cache_words": ("counts", "word_transducers.cache_words"),
    "word_transducers.exhausted_words":
        ("counts", "word_transducers.exhausted_words"),
    "word_transducers.fold_states": ("counts", "word_transducers.fold_states"),
    "word_transducers.two_way_letters":
        ("counts", "word_transducers.two_way_letters"),
    "word_transducers.two_way_rules":
        ("counts", "word_transducers.two_way_rules"),
    "functionality.equiv_s": ("total", "functionality.equiv"),
    "functionality.equiv_trees": ("counts", "functionality.equiv_trees"),
    "functionality.equiv_self_s": ("self_time", "functionality.equiv"),
    "model.parse_s": ("total", "model.parse"),
    "model.render_s": ("total", "model.render"),
}


def per_layer(plain, traced, tracer):
    """Per-op means of the per-layer metrics.  Stage seconds come from the
    untraced ops, which the pipeline times itself; everything else from
    the traced ops."""
    n = len(traced)
    out = {}
    for name, (table, key) in LAYER.items():
        out[name] = getattr(tracer, table).get(key, 0) / n
    walks = tracer.calls.get("semantics.oracle_walk", 0)
    out["semantics.oracle_us_per_word"] = (
        1e6 * tracer.total.get("semantics.oracle_walk", 0.0) / walks
        if walks else 0.0)
    out["word_transducers.cache_length"] = tracer.state.get("shortest_cache", 0)
    out["word_transducers.horizon_ratio"] = tracer.state.get("horizon", 0.0)
    stage_s = {}
    for op in plain:
        for d in op:
            for name, _, _, seconds in d.stages:
                stage_s[name] = stage_s.get(name, 0.0) + seconds
    for name, seconds in stage_s.items():
        out["pipeline.%s_s" % name] = seconds / len(plain)
    out["pipeline.stage_coverage"] = (sum(stage_s.values())
                                      / sum(op_seconds(plain)))
    out["pipeline.artifact_bytes"] = statistics.mean(
        sum(d.artifact_bytes for d in op) for op in plain)
    out["trace_overhead"] = (statistics.median(op_seconds(traced))
                             / statistics.median(op_seconds(plain)))
    return out


def declared():
    """Metric names and units BENCHMARK.json declares, by section."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_one(args):
    workload = wl.WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    try:
        took, specs = set_up(workload)
    except SetupError as err:
        print("bench: %s" % err, file=sys.stderr)
        return 2
    from ttdef.word_transducers import DefinabilityBudget
    caps = dict(workload.config,
                max_words=DefinabilityBudget().max_words)
    print("workload %s  seed %d  seconds %d  trace %d  caps %s" % (
        workload.name, args.seed, args.seconds, args.trace,
        " ".join("%s=%s" % kv for kv in sorted(caps.items()))), flush=True)
    if caps["max_words"] != wl.ORACLE_MAX_WORDS:
        print("note: the oracle's max_words is %d, not the %d this benchmark "
              "was defined under" % (caps["max_words"], wl.ORACLE_MAX_WORDS))
    order_rng = random.Random("order-%d" % args.seed)
    probe_rng = random.Random("probe-%d" % args.seed)
    OUT.mkdir(exist_ok=True)
    outroot = tempfile.mkdtemp(dir=OUT)
    first = {}

    def do_op(tracer):
        return run_op(workload, specs, order_rng, probe_rng, outroot, first,
                      tracer)

    setups = [took]

    def set_ups(elapsed):
        while len(setups) < 1 + elapsed / SETUP_EVERY_S:
            setups.append(time_set_up(workload))

    try:
        if args.trace:
            tracer = spans.Tracer()
            plain, traced = run_ops(args.seconds, do_op, tracer)
            ops = plain + traced
            metrics = per_layer(plain, traced, tracer)
        else:
            ops, _ = run_ops(args.seconds, do_op, between=set_ups)
            metrics = end_to_end(workload, ops, setups)
    except spans.MissingTarget as err:
        print("bench: %s" % err, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(outroot, ignore_errors=True)
    decisions = [d for op in ops for d in op]
    failed = [d for d in decisions if d.outcome() == "wrong"]
    wrong = collections.Counter(
        "%s answered %s%s%s" % (
            d.machine, d.kind, " (%s)" % d.detail if d.detail else "",
            "".join("; " + p for p in d.problems)
            + ("" if d.repeats else "; differs from its first decision"))
        for d in failed)
    for line, times in sorted(wrong.items()):
        print("wrong: %s (%d of %d decisions)" % (line, times, len(decisions)))
    print("detail " + json.dumps(metrics, sort_keys=True))
    units = declared()[1 if args.trace else 0]
    print(json.dumps({
        "correct": all(d.known_defect() for d in failed),
        "attempted": len(decisions),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def print_table(rows):
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(n) for c, n in zip(r, widths)).rstrip())


def run_all(args):
    """Each workload in its own process (so peak RSS is its own), one row
    per workload."""
    details, wrong = {}, {}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        got = [l[len("detail "):] for l in lines if l.startswith("detail ")]
        if proc.returncode or not got:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode or 1
        details[name] = json.loads(got[-1])
        wrong[name] = [l for l in lines if l.startswith("wrong: ")]
    if args.trace:
        rows = [["metric"] + list(details)]
        for m in sorted(set().union(*details.values())):
            rows.append([m] + ["%.6g" % details[w][m] if m in details[w]
                               else "-" for w in details])
        print_table(rows)
        return 0
    cols = (("setup_s", "s"), ("op_s_p50", "s"), ("op_s_p90", "s"),
            ("peak_rss_mb", "MB"), ("wrong_share", "share"),
            ("undecided_share", "share"), ("verified_word_length", "letters"),
            ("dtr_rules", "count"))
    rows = [["workload"] + ["%s [%s]" % c for c in cols]]
    for w, det in details.items():
        rows.append([w])
        for m, _ in cols:
            v = det[m]
            if m == "op_s_p90" and v is None:
                rows[-1].append("n/a (%d ops)" % det["ops"])
            elif m == "verified_word_length":
                rows[-1].append("%d of %d" % (v, det["requested_word_length"]))
            else:
                rows[-1].append("%.4g" % v)
    print_table(rows)
    for w, lines in wrong.items():
        for line in lines:
            print("%s: %s" % (w, line))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(wl.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
