"""Fast self-check of the benchmark: about a minute on two cores.

    python3 perfbench/selfcheck.py

Runs a miniature of each workload kind, a ``--train 2 --test 1`` campaign and
a small offline-distinct, once untraced and once traced.  It confirms that
every metric ``BENCHMARK.json`` names is emitted and that no op fails, then
shows that each gate fires: on a corrupted bundle file, a golden hash
mismatch, a non-zero exit, a corrupted ``sessions.csv``, a score vector
that breaks the mass invariant, a traced name the program no longer has, and
a layer call that the trace does not cover.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from fractions import Fraction

import offline_inputs
import run

TINY_CAMPAIGN = run.Workload("campaign-google", engine="google_like",
                             train=2, test=1)
SMALL_OFFLINE = run.Workload("offline-distinct", sizes=offline_inputs.SMALL)
SEED = 7

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def check_runs(workload: run.Workload, specs: dict) -> None:
    for trace in (False, True):
        record = run.measure(workload, SEED, 0.1, trace)
        kind = "per_layer" if trace else "end_to_end"
        result = run.report(record, specs)
        names = {spec["name"] for spec in specs[kind]}
        label = f"{workload.name} (trace {int(trace)})"
        expect(set(result["metrics"]) == names,
               f"{label}: emits exactly the {kind} metrics")
        expect(result["correct"] and result["failed"] == 0,
               f"{label}: correct, no op failed")


def check_campaign_gates(work) -> None:
    bench = run.Run(TINY_CAMPAIGN, SEED, work)
    bench.set_up()
    first = bench.op()
    expect(not first["problems"], "tiny campaign op passes its gate")
    good = first["hashes"]

    out = work / "corrupt"
    out.mkdir()
    bundle_run = run.spawn([sys.executable, "-m", "pri.cli"]
                           + bench.campaign_args(out), bench.env, bench.log)
    expect(bundle_run.returncode == 0, "tiny campaign rerun exits 0")
    with open(out / "heatmap.csv", "ab") as fh:
        fh.write(b"0")
    problems = run.hash_problems(run.file_hashes(out, run.BUNDLE_FILES), good, None)
    expect(problems == ["heatmap.csv differs from the first op"],
           "a corrupted bundle file fails the op")
    (out / "lag.csv").unlink()
    problems = run.hash_problems(run.file_hashes(out, run.BUNDLE_FILES), good, None)
    expect("lag.csv missing" in problems, "a missing bundle file fails the op")

    golden = dict(good, **{"summary.md": "0" * 64})
    problems = run.hash_problems(good, None, golden)
    expect(problems == ["summary.md differs from the golden"],
           "a golden hash mismatch fails the op")

    broken = run.Run(replace(TINY_CAMPAIGN, engine="no_such_engine"), SEED, work)
    broken.env = bench.env
    record = broken.op()
    expect(bool(record["problems"]) and record["exit_codes"] != [0],
           "a non-zero exit fails the op")


def check_offline_gates(work) -> None:
    bench = run.Run(SMALL_OFFLINE, SEED, work)
    bench.set_up()
    first = bench.op()
    expect(not first["problems"], "small offline op passes its gate")
    bad = dict(first["hashes"], **{"sessions.csv": "0" * 64})
    problems = run.hash_problems(bad, first["hashes"], None)
    expect(problems == ["sessions.csv differs from the first op"],
           "a changed sessions.csv fails the op")


def check_invariant() -> None:
    sys.path.insert(0, str(run.SRC))
    import traced
    from pri.corpus import CategorySet, LabeledAdvert
    from pri.estimator import score, train

    categories = CategorySet(("prostate",), "other")
    model = train([LabeledAdvert("prostate", "prostate cancer risk"),
                   LabeledAdvert("other", "holiday cancer deals")], categories)
    page = ["cancer risk here", "holiday offers"]
    log = traced.ScoreLog(traced.Tracer("selfcheck"))
    vector = score(model, page)
    log.record(page, vector)
    expect(log.invariant_failures(model) == 0, "exact scores keep the mass invariant")
    vector.scores["other"] += Fraction(1, 10**9)
    expect(log.invariant_failures(model) == 1, "a perturbed score breaks it")


def traced_in_process(layer_calls, work, name: str) -> tuple[int, dict]:
    """traced.main on a tiny campaign in this interpreter, with ``layer_calls``
    in place of the real table; its exit code and its trace."""
    import traced

    saved = traced.LAYER_CALLS
    spans = work / f"{name}.spans.json"
    args = ["campaign", "--engine", "google_like", "--seed", str(SEED),
            "--train", "1", "--test", "1", "--out", str(work / name)]
    traced.LAYER_CALLS = layer_calls
    traced.T_MAIN = traced.now()
    try:
        status = traced.main([str(spans), name, *args])
    finally:
        traced.LAYER_CALLS = saved
    return status, json.loads(spans.read_text(encoding="utf-8"))


def check_trace_coverage(work) -> None:
    import traced

    gone = ("pri.runner", "no_such_function", "runner.nothing")
    status, trace = traced_in_process(traced.LAYER_CALLS + (gone,), work, "missing")
    expect(status != 0 and trace["missing"] == ["pri.runner.no_such_function"],
           "a traced name the program lacks fails the traced op")

    def problems(layer_calls, name: str) -> list[str]:
        status, trace = traced_in_process(layer_calls, work, name)
        child = run.Child(status, 0.0, 0.0, trace["t_main"])
        traced_run = {"children": [(child, trace)], "hashes": {}, "sizes": {}}
        values, checks, _ = run.layer_metrics(traced_run)
        return run.trace_problems(traced_run, checks, values, {})

    expect(not problems(traced.LAYER_CALLS, "covered"),
           "the full table covers a tiny campaign")
    uncovered = tuple(c for c in traced.LAYER_CALLS if c[0] != "pri.runner")
    expect(any("outside every layer call" in p for p in problems(uncovered, "uncovered")),
           "a layer call the trace does not cover fails the traced op")


def main() -> int:
    specs = run.load_metric_specs()
    check_runs(TINY_CAMPAIGN, specs)
    check_runs(SMALL_OFFLINE, specs)
    work = run.WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        check_campaign_gates(work)
        check_offline_gates(work)
        check_invariant()
        check_trace_coverage(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
