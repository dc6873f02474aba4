"""Turn evaluations and campaign results into files and readable tables.

Everything here is formatting: ``pri.runner.evaluate_capture`` computes the
numbers once, and this module only decides how they appear on disk.  All
output is deterministic -- fixed ordering, floats via repr(), no timestamps
-- so rerunning a campaign with the same seed produces byte-identical
artifacts.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from io import StringIO
from pathlib import Path

from .corpus import save_capture
from .detector import ConfusionRow, LagStatistics, save_baselines
from .estimator import save_model
from .runner import CampaignResult, Evaluation

# Not called here.  perfbench/traced.py lists these names on this module in
# LAYER_CALLS, and a traced run fails when a listed name is missing.
from .detector import (  # noqa: F401
    classify_probe,
    confusion_matrix,
    detect_session,
    detection_rates,
    lag_statistics,
)
from .runner import score_probes  # noqa: F401

BUNDLE_FILES = (
    "model.txt",
    "baselines.txt",
    "train.capture",
    "test.capture",
    "sessions.csv",
    "confusion.csv",
    "heatmap.csv",
    "lag.csv",
    "summary.md",
)

CONFUSION_COLUMNS = ConfusionRow._fields


# ---------------------------------------------------------------------------
# the topic-by-topic score matrix
# ---------------------------------------------------------------------------

def topic_score_matrix(result: CampaignResult) -> dict[str, dict[str, float]]:
    """Mean probe score of each category, grouped by true session topic.

    Rows are the sensitive topics a test session was about; columns are the
    sensitive categories the model scored.  The diagonal dominating its row
    is the model working; which off-diagonal cells stay warm shows which
    topic pairs share advertising vocabulary.
    """
    evaluation = result.evaluation
    topics = result.config.categories.sensitive
    # Per cell, unreduced numerators summed as ints over each page lcm L
    # (a campaign's probe pages share few values of L), then over the lcm M
    # of those: the exact mean is one integer over D_c * M * count, and int
    # true division rounds it correctly.
    sums: dict[str, dict[str, Counter]] = {
        t: {c: Counter() for c in topics} for t in topics
    }
    counts: dict[str, int] = {t: 0 for t in topics}
    for session in evaluation.sessions:
        truth = session.truth
        if truth not in sums:
            continue
        row = sums[truth]
        for vector in session.scores:
            counts[truth] += 1
            numerators = vector.numerators
            for category in topics:
                row[category][vector.common] += numerators[category]
    denominators = result.model.share_denominators
    matrix: dict[str, dict[str, float]] = {}
    for topic in topics:
        matrix[topic] = {}
        for category, by_common in sums[topic].items():
            common = math.lcm(*by_common)
            total = sum(n * (common // page) for page, n in by_common.items())
            matrix[topic][category] = total / (
                denominators[category] * common * counts[topic])
    return matrix


# ---------------------------------------------------------------------------
# rows shared by the report and the bundle
# ---------------------------------------------------------------------------

def percent(value: float) -> str:
    return f"{100.0 * value:.1f}%"


def _lag_rows(lag: LagStatistics) -> list[tuple[str, object, str]]:
    """(statistic, key, value): both distributions, then the E[X] mean."""
    rows: list[tuple[str, object, str]] = [
        ("run_length", k, repr(p)) for k, p in lag.run_length_dist.items()
    ]
    rows += [("first_error", k, repr(p)) for k, p in lag.first_error_dist.items()]
    rows.append(("expected_run", "",
                 "" if lag.expected_run is None else repr(lag.expected_run)))
    return rows


def _lag_lines(lag: LagStatistics, arrow: str, sep: str) -> list[tuple[str, str]]:
    """(label, value) lines of the lag section; none when no probe erred."""
    if lag.expected_run is None:
        return []

    def distribution(dist: dict[int, float]) -> str:
        return sep.join(f"{k}{arrow}{percent(p)}" for k, p in dist.items())

    return [
        ("expected run length E[X]", f"{lag.expected_run:.2f}"),
        ("run length distribution", distribution(lag.run_length_dist)),
        ("first-error distribution", distribution(lag.first_error_dist)),
    ]


def _session_counts(evaluation: Evaluation) -> tuple[int, int]:
    """(sensitive sessions, catch-all sessions)."""
    n_catchall = sum(1 for s in evaluation.sessions
                     if s.truth == evaluation.catchall)
    return len(evaluation.sessions) - n_catchall, n_catchall


def csv_text(header: tuple, rows) -> str:
    """The header, then each of the iterable ``rows``, as CSV with ``"\\n"``
    line ends: the one dialect of every CSV file ``pri`` writes."""
    out = StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# ---------------------------------------------------------------------------
# report rendering (the `report` and `detect` commands)
# ---------------------------------------------------------------------------

_TEXT_WIDTHS = (11, 11, 11, 12)


def render_text(evaluation: Evaluation) -> str:
    """Aligned, human-readable detection report."""
    n_sensitive, n_catchall = _session_counts(evaluation)
    lines = [
        "Detection summary",
        "-----------------",
        f"sessions scored:          {n_sensitive + n_catchall}"
        f" ({n_sensitive} sensitive, {n_catchall} catch-all)",
        f"sensitive detection rate: {percent(evaluation.sensitive_rate)}",
        f"false positive rate:      {percent(evaluation.false_positive_rate)}",
        "",
        "Per-topic session rates",
        "-----------------------",
    ]
    rows = evaluation.confusion
    width = max(map(len, rows), default=5)
    lines.append(f"{'topic':<{width}}" + "".join(
        f"  {column.replace('_', ' '):>{w}}"
        for column, w in zip(CONFUSION_COLUMNS, _TEXT_WIDTHS)))
    for topic, values in rows.items():
        lines.append(f"{topic:<{width}}" + "".join(
            f"  {percent(v):>{w}}" for v, w in zip(values, _TEXT_WIDTHS)))
    lines += ["", "Misclassification lag", "---------------------"]
    lines += ([f"{label + ':':<25} {value}"
               for label, value in _lag_lines(evaluation.lag, ": ", "  ")]
              or ["no misclassified probes: run statistics empty"])
    return "\n".join(lines) + "\n"


def render_csv(evaluation: Evaluation) -> str:
    """The same report as render_text, as one long-format CSV."""
    n_sensitive, n_catchall = _session_counts(evaluation)
    rows = [
        ("summary", "sessions", "sensitive", n_sensitive),
        ("summary", "sessions", "catchall", n_catchall),
        ("summary", "rate", "sensitive_detection",
         repr(evaluation.sensitive_rate)),
        ("summary", "rate", "false_positive",
         repr(evaluation.false_positive_rate)),
    ]
    rows += [("confusion", topic, column, repr(value))
             for topic, values in evaluation.confusion.items()
             for column, value in zip(CONFUSION_COLUMNS, values)]
    rows += [("lag",) + row for row in _lag_rows(evaluation.lag)]
    return csv_text(("table", "row", "column", "value"), rows)


def render_detections(evaluation: Evaluation) -> str:
    """Per-session verdict CSV: what was flagged and as which topics."""
    return csv_text(("session", "topic", "sensitive", "detected_topics"),
                    [(session.session_id, session.truth,
                      int(session.verdict.sensitive),
                      ";".join(sorted(session.verdict.topics)))
                     for session in evaluation.sessions])


# ---------------------------------------------------------------------------
# campaign bundle
# ---------------------------------------------------------------------------

def _summary_markdown(result: CampaignResult) -> str:
    config = result.config
    engine = config.engine
    evaluation = result.evaluation
    lines = [
        "# Campaign report",
        "",
        "## Setup",
        "",
        f"- master seed: {result.master_seed}",
        f"- topics: {len(config.categories.sensitive)} sensitive"
        f" + catch-all `{config.catchall}`",
        f"- sessions per topic: {config.train_sessions_per_topic} training,"
        f" {config.test_sessions_per_topic} test",
        f"- probe query: `{config.probe}`",
        f"- user clicks: {'on' if config.clicks_enabled else 'off'}",
        f"- engine: adaptation_lag={engine.adaptation_lag},"
        f" click_boost={engine.click_boost}, ads_per_page={engine.ads_per_page},"
        f" pool_diversity={engine.pool_diversity}",
        f"- detector: sigma_multiplier={config.detector.sigma_multiplier},"
        f" session_probe_count={config.detector.session_probe_count}",
        "",
        "## Headline rates",
        "",
        f"- sensitive-session detection rate: {percent(evaluation.sensitive_rate)}",
        f"- catch-all false positive rate: {percent(evaluation.false_positive_rate)}",
        "",
        "## Per-topic session rates",
        "",
        "| topic | " + " | ".join(c.replace("_", " ") for c in CONFUSION_COLUMNS)
        + " |",
        "|" + " --- |" * (1 + len(CONFUSION_COLUMNS)),
    ]
    for topic, values in evaluation.confusion.items():
        lines.append("| " + " | ".join([topic, *map(percent, values)]) + " |")
    lines += ["", "## Misclassification lag", ""]
    lines += ([f"- {label}: {value}"
               for label, value in _lag_lines(evaluation.lag, " -> ", ", ")]
              or ["No probe was ever misclassified; run statistics are empty."])
    lines += [
        "",
        "## Files",
        "",
        "See `confusion.csv`, `heatmap.csv`, `lag.csv`, and `sessions.csv` for",
        "machine-readable values; `model.txt` and `baselines.txt` replay the",
        "detector on the bundled `train.capture`/`test.capture` exactly.",
    ]
    return "\n".join(lines) + "\n"


def _heatmap_csv(result: CampaignResult) -> str:
    topics = result.config.categories.sensitive
    matrix = topic_score_matrix(result)
    return csv_text(("session_topic",) + tuple(topics),
                    [(topic,) + tuple(repr(matrix[topic][c]) for c in topics)
                     for topic in topics])


def write_bundle(result: CampaignResult, out_dir: str | Path) -> tuple[Path, ...]:
    """Write every campaign artifact under out_dir and return the paths."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    evaluation = result.evaluation
    save_model(result.model, directory / "model.txt")
    save_baselines(result.baseline, directory / "baselines.txt")
    save_capture(result.training_traces, directory / "train.capture")
    save_capture(result.test_traces, directory / "test.capture")
    tables = {
        "sessions.csv": render_detections(evaluation),
        "confusion.csv": csv_text(
            ("topic",) + CONFUSION_COLUMNS,
            [(topic, *map(repr, values))
             for topic, values in evaluation.confusion.items()]),
        "heatmap.csv": _heatmap_csv(result),
        "lag.csv": csv_text(("statistic", "key", "value"),
                            _lag_rows(evaluation.lag)),
        "summary.md": _summary_markdown(result),
    }
    for name, text in tables.items():
        (directory / name).write_text(text, encoding="utf-8", newline="\n")
    return tuple(directory / name for name in BUNDLE_FILES)


def read_bundle_bytes(out_dir: str | Path) -> dict[str, bytes]:
    """Content of every bundle file, keyed by name (for byte comparisons)."""
    directory = Path(out_dir)
    return {name: (directory / name).read_bytes() for name in BUNDLE_FILES}
