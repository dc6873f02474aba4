"""Probe-query selection: candidate term ranking and ambiguity screening.

A good probe is frequent in served pages (so responses are informative) yet
ambiguous enough not to narrow results sharply.  Candidates are ranked by
aggregate term frequency over collected pages; candidate probes are then
screened by the ratio N(topic, probe) / N(topic) of engine result counts, and
by a hygiene rule: a probe must not contain any term from the keyword list of
a topic it will be used against.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import bundled_lines
from .corpus import ResultPage
from .errors import ValidationError
from .textproc import filter_terms, term_set

DEFAULT_PROBES = ("symptoms and causes", "help and advice")
DEFAULT_MIN_RATIO = 0.01


class AmbiguityEntry(NamedTuple):
    topic: str
    probe: str
    n_topic: int
    n_topic_probe: int

    @property
    def ratio(self) -> float:
        """N(topic, probe) / N(topic); ``parse_ambiguity_csv`` has checked
        that the first is nonnegative and the second positive."""
        return self.n_topic_probe / self.n_topic


def _page_texts(page: ResultPage) -> Iterable[str]:
    for title, snippet in page.links:
        yield title
        yield snippet
    for advert in page.adverts:
        yield advert.text


def extract_candidates(
    pages: Sequence[ResultPage],
    top_k: int = 10,
) -> list[tuple[str, int]]:
    """(term, frequency) of the top stems by aggregate frequency over link
    and advert text, most frequent first, ties by term."""
    if not pages:
        raise ValidationError("cannot extract probe candidates from zero pages")
    if top_k <= 0:
        raise ValidationError("top_k must be positive")
    counts = Counter(term for page in pages for text in _page_texts(page)
                     for term in filter_terms(text))
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]


def revealing_topics(
    probe: str, keywords: Mapping[str, Sequence[str]], topics: Iterable[str]
) -> list[str]:
    """The topics, sorted, whose keyword phrases share a filtered term with
    the probe: a probe that reveals a topic moves an engine toward it.

    A topic missing from ``keywords`` has no phrases and is never revealed.
    """
    probe_terms = frozenset(filter_terms(probe))
    return sorted(t for t in topics
                  if probe_terms & term_set(keywords.get(t, ())))


def select_probe(
    probes: Sequence[str],
    report: Mapping[tuple[str, str], AmbiguityEntry],
    topics: Sequence[str],
    min_ratio: float = DEFAULT_MIN_RATIO,
    keywords: Mapping[str, Sequence[str]] | None = None,
) -> str:
    """First probe usable for every topic in the group.

    Usable means the ambiguity ratio meets `min_ratio` for each topic and the
    probe shares no filtered term with any group topic's keyword phrases.
    """
    if not math.isfinite(min_ratio):
        raise ValidationError(f"min_ratio must be finite, not {min_ratio!r}")
    failures: list[str] = []
    for probe in probes:
        revealing = revealing_topics(probe, keywords or {}, topics)
        if revealing:
            failures.append(
                f"{probe!r} shares keyword terms with {', '.join(revealing)}"
            )
            continue
        ratios: dict[str, float] = {}
        for topic in topics:
            if (topic, probe) not in report:
                raise ValidationError(
                    f"no ambiguity counts for ({topic!r}, {probe!r})")
            ratios[topic] = report[topic, probe].ratio
        low = sorted(t for t, r in ratios.items() if r < min_ratio)
        if low:
            worst = ", ".join(f"{t}={ratios[t]:.4f}" for t in low)
            failures.append(f"{probe!r} too narrowing for {worst}")
            continue
        return probe
    raise ValidationError(
        "no probe passes the policy for this topic group: " + "; ".join(failures)
    )


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------


def parse_ambiguity_csv(
    lines: Iterable[str],
) -> dict[tuple[str, str], AmbiguityEntry]:
    """Survey counts by (topic, probe); a repeated pair keeps its first row.

    Every row is checked as it is read, used or not: its counts are
    integers, the topic count positive and the probe count nonnegative.  An
    error names the line it is on.
    """
    reader = csv.DictReader(lines)
    report: dict[tuple[str, str], AmbiguityEntry] = {}
    try:
        fieldnames = reader.fieldnames
        required = {"topic", "probe", "n_topic", "n_topic_probe"}
        if fieldnames is None or not required.issubset(fieldnames):
            raise ValidationError("ambiguity CSV needs columns topic, probe, "
                                  "n_topic, n_topic_probe")
        for row in reader:
            where = f"ambiguity CSV line {reader.line_num}"
            try:
                entry = AmbiguityEntry(row["topic"], row["probe"],
                                       int(row["n_topic"]),
                                       int(row["n_topic_probe"]))
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{where}: result counts must be integers, not "
                    f"{row['n_topic']!r} and {row['n_topic_probe']!r}") from None
            if entry.n_topic <= 0:
                raise ValidationError(
                    f"{where}: topic result count must be positive")
            if entry.n_topic_probe < 0:
                raise ValidationError(
                    f"{where}: probe result count cannot be negative")
            report.setdefault((entry.topic, entry.probe), entry)
    except csv.Error as exc:
        # DictReader.line_num moves only once a row parses; its reader's
        # counts the line that failed.
        raise ValidationError(
            f"ambiguity CSV line {reader.reader.line_num}: {exc}") from exc
    if not report:
        raise ValidationError("ambiguity CSV has no data rows")
    return report


def default_ambiguity_report() -> dict[tuple[str, str], AmbiguityEntry]:
    return parse_ambiguity_csv(bundled_lines("probe_ambiguity.csv"))
