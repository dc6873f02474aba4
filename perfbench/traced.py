"""Run one ``pri`` command under tracing, recording a span per layer call.

    traced.py SPANS OP_ID CLI_ARG...

Runs ``pri.cli.main(CLI_ARG...)``, the program itself, in a fresh
interpreter, so process-global caches start cold exactly as in the untraced
op.  Before the call, every name in ``LAYER_CALLS`` is swapped, in the module
that calls through it, for a wrapper that records a span: a name
``<module>.<stage>``, a start, an end and its parent's index.  A name the
program no longer has fails the traced op instead of quietly reporting 0:
update ``LAYER_CALLS`` when the program's call graph changes.

Spans and counters stay in memory and are written to SPANS once the op is
over.  The checks that need the program's objects (the score invariant, the
model round trip) and the isolated text-filter measurement run after the
op's root span closes, so they never count as op time.  The exit code is the
command's, or 1 when a traced name is missing.
"""

from __future__ import annotations

import time

CLOCK = time.CLOCK_MONOTONIC


def now() -> float:
    """System-wide monotonic seconds, comparable with the parent's clock."""
    return time.clock_gettime(CLOCK)


T_MAIN = now()

import importlib  # noqa: E402  (the clock is read before any other import)
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import ExitStack, contextmanager  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

# (module, name the module calls through, span name).  The same function is
# listed once per module that calls it, because each module holds its own
# binding.  Together they cover `cmd_campaign` -> `run_campaign` ->
# `write_bundle`, `cmd_train`, and `cmd_detect` -> `evaluate_capture`.
LAYER_CALLS = (
    ("pri.cli", "run_campaign", "runner.campaign"),
    ("pri.cli", "write_bundle", "reports.write_bundle"),
    ("pri.cli", "parse_corpus", "corpus.corpus_parse"),
    ("pri.cli", "train", "estimator.train"),
    ("pri.cli", "save_model", "estimator.model_write"),
    ("pri.cli", "parse_model", "estimator.model_parse"),
    ("pri.cli", "parse_capture", "corpus.capture_parse"),
    ("pri.cli", "calibrate", "detector.calibrate"),
    ("pri.cli", "evaluate_capture", "reports.evaluate"),
    ("pri.cli", "render_detections", "reports.render"),
    ("pri.runner", "generate_script", "scripts.generate"),
    ("pri.runner", "new_engine", "simulator.new_engine"),
    ("pri.runner", "run_session", "runner.run_session"),
    ("pri.runner", "training_corpus", "runner.training_corpus"),
    ("pri.runner", "train", "estimator.train"),
    ("pri.runner", "calibrate", "detector.calibrate"),
    ("pri.runner", "score_probes", "runner.score_probes"),
    ("pri.runner", "score", "estimator.score"),
    ("pri.runner", "classify_probe", "detector.classify"),
    ("pri.runner", "detect_session", "detector.aggregate"),
    ("pri.runner", "detection_rates", "detector.aggregate"),
    ("pri.runner", "confusion_matrix", "detector.aggregate"),
    ("pri.runner", "lag_statistics", "detector.aggregate"),
    ("pri.detector", "score", "estimator.score"),
    ("pri.reports", "save_model", "estimator.model_write"),
    ("pri.reports", "save_baselines", "detector.baselines_write"),
    ("pri.reports", "save_capture", "corpus.capture_write"),
    ("pri.reports", "render_detections", "reports.render"),
    ("pri.reports", "score_probes", "runner.score_probes"),
    ("pri.reports", "classify_probe", "detector.classify"),
    ("pri.reports", "detect_session", "detector.aggregate"),
    ("pri.reports", "detection_rates", "detector.aggregate"),
    ("pri.reports", "confusion_matrix", "detector.aggregate"),
    ("pri.reports", "lag_statistics", "detector.aggregate"),
)

# Program spans whose own code only sequences layer calls.  Time spent in
# them directly is program time that no layer in the table accounts for.
GLUE_SPANS = ("cli.main", "runner.campaign", "reports.evaluate")


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, start: float | None = None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now() if start is None else start, None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            if self.spans[index][2] is None:
                self.spans[index][2] = now()

    def end_op(self) -> None:
        """Close the root span now: what follows is checking, not op time."""
        self.spans[0][2] = now()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(self.spans[index][0] == name for index in self._stack)

    @contextmanager
    def patched(self, module, attribute: str, name: str, observe=None):
        """Trace the calls a module makes through one of its names.

        ``observe(args, result)`` runs after each call, outside its span.
        """
        original = getattr(module, attribute)

        def call(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attribute, call)
        try:
            yield
        finally:
            setattr(module, attribute, original)

    def dump(self, path: str, extra: dict) -> None:
        payload = {"op_id": self.op_id, "t_main": T_MAIN,
                   "spans": self.spans, "counts": dict(self.counts), **extra}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


class ScoreLog:
    """Every scored page: its adverts and score vector, for later checks."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.pages: list[tuple[tuple[str, ...], dict]] = []

    def record(self, adverts, vector) -> None:
        texts = tuple(a if isinstance(a, str) else a.text for a in adverts)
        self.pages.append((texts, vector.scores))
        self.tracer.counts["estimator.pages_scored"] += 1
        self.tracer.counts["estimator.adverts_scored"] += len(texts)
        if self.tracer.inside("detector.calibrate"):
            self.tracer.counts["detector.calibrate_pages"] += 1

    def distinct_texts(self) -> int:
        return len({text for texts, _ in self.pages for text in texts})

    def invariant_failures(self, model) -> int:
        """Pages whose category scores do not sum to the page's in-dictionary
        term mass: sum over adverts of (in-dictionary terms / all terms)."""
        bad = 0
        for texts, scores in self.pages:
            mass = Fraction(0)
            for text in texts:
                terms = model.term_filter.terms(text)
                if terms:
                    hits = sum(1 for t in terms if t in model.dictionary)
                    mass += Fraction(hits, len(terms))
            if sum(scores.values(), Fraction(0)) != mass:
                bad += 1
        return bad


class Observer:
    """What the traced command produced, kept for the checks after the op.

    Each method observes the calls of one span name; it only stores
    references and counts, so it adds little to the op.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.log = ScoreLog(tracer)
        self.scoring_model = None
        self.written_models: list[tuple[object, Path]] = []
        self.sessions: list = []
        self.traces: list = []
        self.texts: set[str] = set()

    def hooks(self) -> dict:
        counts = self.tracer.counts

        def count(key: str):
            def observe(args, result) -> None:
                counts[key] += 1
            return observe

        return {
            "scripts.generate": count("scripts.scripts"),
            "simulator.new_engine": count("simulator.engines"),
            "detector.classify": count("detector.probes_classified"),
            "runner.run_session": lambda args, trace: self.sessions.append(trace),
            "corpus.capture_parse": lambda args, traces: self.traces.extend(traces),
            "corpus.corpus_parse": self.corpus_parsed,
            "estimator.train": self.trained,
            "estimator.model_write": self.model_written,
            "estimator.score": self.scored,
        }

    def corpus_parsed(self, args, corpus) -> None:
        self.texts.update(advert.text for advert in corpus)

    def trained(self, args, model) -> None:
        self.tracer.counts["estimator.train_adverts"] += len(args[0])
        self.tracer.counts["estimator.dictionary_terms"] += len(model.dictionary)

    def model_written(self, args, result) -> None:
        self.written_models.append((args[0], Path(args[1])))

    def scored(self, args, vector) -> None:
        self.scoring_model = args[0]
        self.log.record(args[1], vector)

    def page_texts(self) -> set[str]:
        """Queries and advert texts of every session the op saw, plus corpus
        texts: the op's distinct texts."""
        return self.texts | {
            text for trace in self.sessions + self.traces
            for it in trace.interactions
            for text in (it.query, *(ad.text for ad in it.page.adverts))}

    def checks(self) -> dict:
        """The post-op checks; also the counters that need the op's results."""
        counts = self.tracer.counts
        counts["estimator.distinct_texts_scored"] = self.log.distinct_texts()
        for trace in self.sessions:
            counts["runner.interactions"] += len(trace.interactions)
            counts["runner.adverts_served"] += sum(
                len(it.page.adverts) for it in trace.interactions)
        return {
            "pages_checked": len(self.log.pages),
            "score_invariant_failures": (
                self.log.invariant_failures(self.scoring_model)
                if self.log.pages else 0),
            "models_round_tripped": len(self.written_models),
            "model_round_trip_failures": sum(
                round_trip_failures(model, path)
                for model, path in self.written_models),
        }


def round_trip_failures(model, path: Path) -> int:
    """Statistics that ``parse_model`` does not give back from a written model."""
    from pri.estimator import parse_model

    again = parse_model(path.read_text(encoding="utf-8").splitlines())
    problems = [
        again.categories != model.categories,
        again.dictionary.terms != model.dictionary.terms,
        again.empty_categories != model.empty_categories,
        again.stats.total != model.stats.total,
        again.stats.per_category != model.stats.per_category,
    ]
    return sum(problems)


def filter_probe(texts: set[str]) -> dict:
    """A fresh TermFilter over the op's distinct texts, and Porter alone
    over every token that filter stems."""
    from pri.porter import stem
    from pri.textproc import TermFilter, default_stopwords, tokenize

    ordered = sorted(texts)
    flt = TermFilter()
    start = now()
    for text in ordered:
        flt.terms(text)
    terms_s = now() - start
    stopwords = default_stopwords()
    tokens = [t for text in ordered for t in tokenize(text) if t not in stopwords]
    start = now()
    for token in tokens:
        stem(token)
    stem_s = now() - start
    return {"textproc.terms_s": terms_s,
            "textproc.distinct_texts": len(ordered),
            "porter.tokens": len(tokens),
            "porter.stem_s": stem_s}


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spans_path, op_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(op_id)
    observer = Observer(tracer)
    hooks = observer.hooks()
    status = None
    with tracer.span("op", start=T_MAIN):
        with tracer.span("python.import"):
            import pri.cli
        modules = {name: importlib.import_module(name)
                   for name in {module for module, _, _ in LAYER_CALLS}}
        missing = [f"{module}.{attribute}" for module, attribute, _ in LAYER_CALLS
                   if not hasattr(modules[module], attribute)]
        if not missing:
            with ExitStack() as stack:
                for module, attribute, name in LAYER_CALLS:
                    stack.enter_context(tracer.patched(
                        modules[module], attribute, name, hooks.get(name)))
                with tracer.span("cli.main"):
                    status = pri.cli.main(cli_args)
                sys.stdout.flush()
        tracer.end_op()
    extra = {"status": status, "missing": missing}
    if status == 0:
        extra["probe"] = filter_probe(observer.page_texts())
        extra["checks"] = observer.checks()
    tracer.dump(spans_path, extra)
    if missing:
        print("traced names the program no longer has: " + ", ".join(missing),
              file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
