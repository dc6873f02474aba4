"""End-to-end and per-layer benchmark for the ``pri`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every op is a fresh interpreter
(``python3 -m pri.cli ...`` on ``src/``), so process-global caches start cold
as they do for a user.  Load is a closed loop with one client: one op at a
time, the next op starts when the previous one has exited, and a new op
starts only while it should end within ``--seconds`` (at least one op always
runs).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics (``op_s``, ``peak_rss_mb``, ``setup_s``).  With
``--trace 1`` the op's commands first run once under ``traced.py``, which
records a span around each layer call, and the last line holds the per-layer
metrics taken from those spans; the
untraced ops that fill the rest of the run give the tracing overhead and the
bundle the trace must reproduce.  ``perfbench/README.md`` lists every
workload and metric.  Per-run details (each op's samples, every span, the
environment) go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import offline_inputs
from traced import GLUE_SPANS, now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

BUNDLE_FILES = ("model.txt", "baselines.txt", "train.capture", "test.capture",
                "sessions.csv", "confusion.csv", "heatmap.csv", "lag.csv",
                "summary.md")
OFFLINE_FILES = ("model.txt", "sessions.csv")
SETUP_REPEATS = 3
OP_TIMEOUT_S = 150.0
# Share of a traced op (start-up excluded) that may run directly in the
# traced.GLUE_SPANS, outside every layer call they make.
MAX_UNATTRIBUTED = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str | None = None          # campaign workloads: the preset
    train: int = 3                     # campaign sessions per topic
    test: int = 10
    sizes: offline_inputs.Sizes = offline_inputs.FULL   # offline workload

    @property
    def is_campaign(self) -> bool:
        return self.engine is not None

    @property
    def reference_sized(self) -> bool:
        return (self.train, self.test) == (3, 10)


WORKLOADS = {
    w.name: w for w in (
        Workload("campaign-google", engine="google_like"),
        Workload("campaign-bing", engine="bing_like"),
        Workload("offline-distinct"),
    )
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    returncode: int
    wall_s: float
    max_rss_mb: float
    spawned_at: float


def child_env(pycache: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path) -> Child:
    """Run one child to completion; its wall time, exit code and peak RSS."""
    with open(log, "ab") as out:
        start = now()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = now()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, end - start, usage.ru_maxrss / 1024.0, start)


def file_hashes(directory: Path, names: tuple[str, ...]) -> dict[str, str | None]:
    return {name: (hashlib.sha256((directory / name).read_bytes()).hexdigest()
                   if (directory / name).is_file() else None)
            for name in names}


def hash_problems(hashes: dict, reference: dict | None, golden: dict | None) -> list[str]:
    """Why an op's output files fail the gate; empty when they pass."""
    problems = [f"{name} missing" for name, digest in hashes.items() if digest is None]
    for label, expected in (("first op", reference), ("golden", golden)):
        if expected is not None:
            problems += [f"{name} differs from the {label}"
                         for name in expected if hashes.get(name) != expected[name]]
    return problems


# ---------------------------------------------------------------------------
# set-up and ops
# ---------------------------------------------------------------------------

class Run:
    """One benchmark run of one workload: its work directory and its ops."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.log = work / "children.log"
        self.env: dict[str, str] = {}
        self.inputs: dict[str, Path] = {}
        self.ops: list[dict] = []
        self.reference: dict | None = None
        golden_applies = (workload.is_campaign and workload.reference_sized
                          and seed == GOLDEN["seed"])
        self.golden = GOLDEN.get(workload.name) if golden_applies else None

    def set_up(self) -> list[float]:
        """Byte-compile the package into a fresh cache, import it in a cold
        interpreter, and generate the workload's inputs; several times, each
        from scratch, keeping the last.  Returns the duration of each."""
        durations = []
        for _ in range(SETUP_REPEATS):
            directory = self.work / "setup"
            shutil.rmtree(directory, ignore_errors=True)
            start = now()
            env = child_env(directory / "pycache")
            for argv in ([sys.executable, "-m", "compileall", "-q", str(SRC / "pri")],
                         [sys.executable, "-c", "import pri.cli"]):
                child = spawn(argv, env, self.log)
                if child.returncode != 0:
                    raise SystemExit(f"set-up failed: {' '.join(argv[1:])} "
                                     f"exited {child.returncode}; see {self.log}")
            if not self.workload.is_campaign:
                self.inputs = offline_inputs.write_inputs(
                    self.seed, directory / "inputs", self.workload.sizes)
            durations.append(now() - start)
        self.env = env
        return durations

    def op(self) -> dict:
        index = len(self.ops)
        out = self.work / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        py = [sys.executable, "-m", "pri.cli"]
        if self.workload.is_campaign:
            children = [spawn(py + self.campaign_args(out), self.env, self.log)]
            names = BUNDLE_FILES
        else:
            children = []
            for argv in self.offline_args(out):
                children.append(spawn(py + argv, self.env, self.log))
                if children[-1].returncode != 0:
                    break
            names = OFFLINE_FILES
        record = {
            "op_s": sum(c.wall_s for c in children),
            "peak_rss_mb": max(c.max_rss_mb for c in children),
            "exit_codes": [c.returncode for c in children],
            "hashes": file_hashes(out, names),
        }
        shutil.rmtree(out, ignore_errors=True)
        if self.reference is None and not any(record["exit_codes"]):
            self.reference = record["hashes"]
        problems = [f"exit code {c}" for c in record["exit_codes"] if c]
        problems += hash_problems(record["hashes"], self.reference, self.golden)
        record["problems"] = problems
        self.ops.append(record)
        return record

    def campaign_args(self, out: Path) -> list[str]:
        args = ["campaign", "--engine", self.workload.engine,
                "--seed", str(self.seed), "--out", str(out)]
        if not self.workload.reference_sized:
            args += ["--train", str(self.workload.train),
                     "--test", str(self.workload.test)]
        return args

    def offline_args(self, out: Path) -> list[list[str]]:
        model = str(out / "model.txt")
        return [
            ["train", "--corpus", str(self.inputs["corpus"]), "--out", model],
            ["detect", "--model", model,
             "--calibrate", str(self.inputs["calibrate"]),
             "--capture", str(self.inputs["test"]),
             "--out", str(out / "sessions.csv")],
        ]

    # -- the traced run ----------------------------------------------------

    def traced_op(self) -> dict:
        """Run the op's commands through traced.py; spans, counters, checks,
        and the sizes of the files the op read or wrote."""
        out = self.work / "traced"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        script = [sys.executable, str(HERE / "traced.py")]
        if self.workload.is_campaign:
            stages = [("campaign", self.campaign_args(out))]
            names = BUNDLE_FILES
            captures = [out / "train.capture", out / "test.capture"]
            reports = [out / name for name in BUNDLE_FILES]
        else:
            train, detect = self.offline_args(out)
            stages = [("train", train), ("detect", detect)]
            names = OFFLINE_FILES
            captures = [self.inputs["calibrate"], self.inputs["test"]]
            reports = [out / "sessions.csv"]
        children = []
        for stage, argv in stages:
            spans = out / f"{stage}.spans.json"
            child = spawn(script + [str(spans), f"{self.workload.name}:{stage}"]
                          + argv, self.env, self.log)
            trace = (json.loads(spans.read_text(encoding="utf-8"))
                     if spans.is_file() else None)
            children.append((child, trace))
            if child.returncode != 0:
                break
        hashes = file_hashes(out, names)
        sizes = {"corpus.capture_bytes": total_size(captures),
                 "reports.bundle_bytes": total_size(reports)}
        shutil.rmtree(out, ignore_errors=True)
        return {"children": children, "hashes": hashes, "sizes": sizes}


def total_size(paths: list[Path]) -> int:
    return sum(path.stat().st_size for path in paths if path.is_file())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def load_metric_specs() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def layer_metrics(traced: dict) -> tuple[dict[str, float], dict, list]:
    """Per-layer values from the traced children's spans and counters.

    ``<module>.<stage>_s`` sums the durations of the spans of that name;
    ``<module>.self_s`` sums the self time (duration minus the time covered
    by child spans) of every span of the module.  The root span's self time
    is traced.py's own glue, reported as ``bench.self_s``.  Because spans
    nest, interpreter start-up plus every self time equals the traced op's
    wall time by construction.
    """
    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    glue = 0.0
    counts: dict[str, int] = defaultdict(int)
    probe: dict[str, float] = defaultdict(float)
    checks: dict[str, int] = defaultdict(int)
    spans = []
    startup = traced_total = 0.0
    for child, trace in traced["children"]:
        root = trace["spans"][0]
        startup += trace["t_main"] - child.spawned_at
        traced_total += root[2] - child.spawned_at
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent in trace["spans"]:
            if parent is not None:
                covered[parent] += end - start
        for index, (name, start, end, parent) in enumerate(trace["spans"]):
            module = "bench" if parent is None else name.split(".")[0]
            inclusive[name] += end - start
            self_time[module] += end - start - covered[index]
            if name in GLUE_SPANS:
                glue += end - start - covered[index]
            spans.append({"op": trace["op_id"], "name": name, "start": start,
                          "end": end, "parent": parent})
        for key, value in trace["counts"].items():
            counts[key] += value
        for key, value in trace["probe"].items():
            probe[key] += value
        for key, value in trace["checks"].items():
            checks[key] += value

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    values = {
        "python.startup_s": startup,
        "trace.traced_op_s": traced_total,
        "trace.spans": len(spans),
        **{f"{stage}_s": inclusive.get(stage, 0.0) for stage in (
            "python.import", "scripts.generate", "simulator.new_engine",
            "runner.run_session", "estimator.train", "estimator.score",
            "estimator.model_write", "estimator.model_parse",
            "detector.calibrate", "detector.classify", "detector.aggregate",
            "corpus.capture_write", "corpus.capture_parse",
            "reports.write_bundle", "reports.render")},
        **{f"{module}.self_s": self_time.get(module, 0.0) for module in (
            "cli", "scripts", "simulator", "runner", "estimator",
            "detector", "corpus", "reports", "bench")},
        **{key: counts.get(key, 0) for key in (
            "scripts.scripts", "simulator.engines", "runner.interactions",
            "runner.adverts_served", "estimator.train_adverts",
            "estimator.dictionary_terms", "estimator.pages_scored",
            "estimator.adverts_scored", "estimator.distinct_texts_scored",
            "detector.calibrate_pages", "detector.probes_classified")},
        **traced["sizes"],
        **probe,
    }
    values["simulator.ms_per_engine"] = per(
        values["simulator.new_engine_s"], values["simulator.engines"], 1e3)
    values["estimator.ms_per_page"] = per(
        values["estimator.score_s"], values["estimator.pages_scored"], 1e3)
    values["porter.stem_us_per_token"] = per(
        values["porter.stem_s"], values["porter.tokens"], 1e6)
    values["estimator.distinct_ratio"] = per(
        values["estimator.distinct_texts_scored"], values["estimator.adverts_scored"])
    values["trace.unattributed_share"] = per(glue, traced_total - startup)
    return values, dict(checks), spans


def trace_problems(traced: dict, checks: dict, values: dict,
                   untraced_hashes: dict | None) -> list[str]:
    problems = hash_problems(traced["hashes"], untraced_hashes, None)
    if untraced_hashes is None:
        problems.append("no untraced op to compare the traced output with")
    if checks.get("score_invariant_failures"):
        problems.append(f"{checks['score_invariant_failures']} scored pages "
                        "break sum(scores) == in-dictionary term mass")
    if not checks.get("pages_checked"):
        problems.append("no scored page was checked")
    if checks.get("model_round_trip_failures"):
        problems.append("parse_model(write_model(m)) lost statistics")
    if not checks.get("models_round_tripped"):
        problems.append("no written model was parsed back")
    if values["trace.unattributed_share"] > MAX_UNATTRIBUTED:
        problems.append(
            f"{values['trace.unattributed_share']:.0%} of the traced op ran "
            "outside every layer call; the program calls a layer through a "
            "name that traced.LAYER_CALLS does not list")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


# ---------------------------------------------------------------------------
# environment and main
# ---------------------------------------------------------------------------

def environment() -> dict:
    git_sha = "unknown"
    try:
        # --show-toplevel guards against a checkout nested in another repo.
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up, ops for ``seconds``, gates; the result record."""
    work = WORK / f"run-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment()
        run = Run(workload, seed, work)
        setup = run.set_up()
        start = now()
        traced = run.traced_op() if trace else None
        # Start another op only if it should end within the run, so a run
        # lasts about ``seconds`` however long one op takes.
        laps = []
        while True:
            lap = now()
            run.op()
            laps.append(now() - lap)
            if now() - start + statistics.median(laps) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    op_times = [op["op_s"] for op in run.ops]
    failed = sum(1 for op in run.ops if op["problems"])
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env, "setup_s_samples": setup,
        "ops": run.ops,
    }
    if traced is None:
        metrics = {
            "op_s": statistics.median(op_times),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in run.ops),
            "setup_s": statistics.median(setup),
        }
    else:
        exits = [child.returncode for child, _ in traced["children"]]
        if any(exits) or any(t is None for _, t in traced["children"]):
            metrics, checks, spans = {}, {}, []
            problems = [f"traced run did not finish: exit codes {exits}"]
            problems += [f"traced name missing from the program: {name}"
                         for _, t in traced["children"] if t
                         for name in t["missing"]]
        else:
            metrics, checks, spans = layer_metrics(traced)
            problems = trace_problems(traced, checks, metrics, run.reference)
            metrics["trace.untraced_op_s"] = statistics.median(op_times)
            metrics["trace.overhead_s"] = (metrics["trace.traced_op_s"]
                                           - metrics["trace.untraced_op_s"])
        record.update(trace_checks=checks, trace_problems=problems, spans=spans)
        failed += 1 if problems else 0
    record["metrics"] = metrics
    record["attempted"] = len(run.ops) + (1 if trace else 0)
    record["failed"] = failed
    return record


def report(record: dict, specs: dict[str, list[dict]]) -> dict:
    """Print the run in readable form and return the result line's object."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    times = [op["op_s"] for op in record["ops"]]
    q1, q2, q3 = quartiles(times)
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"ops {len(times)}  op_s median {q2:.4f}  quartiles {q1:.4f}..{q3:.4f}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for index, op in enumerate(record["ops"]):
        status = "; ".join(op["problems"]) or "ok"
        print(f"  op {index}: {op['op_s']:.4f} s  {op['peak_rss_mb']:.1f} MB  {status}")
    for problem in record.get("trace_problems", []):
        print(f"  traced run: {problem}")
    metrics = {}
    for spec in specs[kind]:
        name = spec["name"]
        if name not in record["metrics"]:
            continue
        metrics[name] = {"value": record["metrics"][name], "unit": spec["unit"]}
        print(f"  {name:34s} {record['metrics'][name]:>16.6f} {spec['unit']}")
    missing = [s["name"] for s in specs[kind] if s["name"] not in metrics]
    correct = record["failed"] == 0 and not missing
    if missing:
        print("  missing metrics: " + ", ".join(missing))
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def save(record: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{record['workload']}-seed{record['seed']}"
                      f"-trace{int(record['trace'])}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1, default=str) + "\n",
                    encoding="utf-8")
    return path


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pri" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'pri'}; run from a pri "
              "checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    specs = load_metric_specs()
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    result = report(record, specs)
    print(f"details: {save(record).relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
