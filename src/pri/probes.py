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
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .config import bundled_lines
from .corpus import ResultPage
from .errors import ValidationError
from .textproc import filter_terms, term_set

DEFAULT_PROBES = ("symptoms and causes", "help and advice")
DEFAULT_MIN_RATIO = 0.01


class ProbeCandidate:
    def __init__(self, term: str, tf: int) -> None:
        if not term:
            raise ValidationError("probe candidate needs a term")
        if tf <= 0:
            raise ValidationError("probe candidate frequency must be positive")
        self.term = term
        self.tf = tf

    def __eq__(self, other: object) -> bool:
        return type(other) is ProbeCandidate and vars(other) == vars(self)


class AmbiguityEntry(NamedTuple):
    topic: str
    probe: str
    n_topic: int
    n_topic_probe: int

    @property
    def ratio(self) -> float:
        return ambiguity_ratio(self.n_topic, self.n_topic_probe)


class AmbiguityReport(NamedTuple):
    entries: tuple[AmbiguityEntry, ...]

    def lookup(self, topic: str, probe: str) -> AmbiguityEntry:
        for entry in self.entries:
            if entry.topic == topic and entry.probe == probe:
                return entry
        raise ValidationError(f"no ambiguity counts for ({topic!r}, {probe!r})")


def _page_texts(page: ResultPage) -> Iterable[str]:
    for title, snippet in page.links:
        yield title
        yield snippet
    for advert in page.adverts:
        yield advert.text


def extract_candidates(
    pages: Sequence[ResultPage],
    top_k: int = 10,
) -> list[ProbeCandidate]:
    """Rank stems by aggregate frequency over link and advert text."""
    if not pages:
        raise ValidationError("cannot extract probe candidates from zero pages")
    if top_k <= 0:
        raise ValidationError("top_k must be positive")
    counts = Counter(term for page in pages for text in _page_texts(page)
                     for term in filter_terms(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [ProbeCandidate(term=term, tf=tf) for term, tf in ranked[:top_k]]


def ambiguity_ratio(n_topic: int, n_topic_probe: int) -> float:
    if n_topic <= 0:
        raise ValidationError("topic result count must be positive")
    if n_topic_probe < 0:
        raise ValidationError("probe result count cannot be negative")
    return n_topic_probe / n_topic


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
    report: AmbiguityReport,
    topics: Sequence[str],
    min_ratio: float = DEFAULT_MIN_RATIO,
    keywords: Mapping[str, Sequence[str]] | None = None,
) -> str:
    """First probe usable for every topic in the group.

    Usable means the ambiguity ratio meets `min_ratio` for each topic and the
    probe shares no filtered term with any group topic's keyword phrases.
    """
    if not probes:
        raise ValidationError("no candidate probes supplied")
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
        ratios = {t: report.lookup(t, probe).ratio for t in topics}
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


def write_candidates_csv(candidates: Sequence[ProbeCandidate], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["rank", "term", "tf"])
    for rank, candidate in enumerate(candidates, start=1):
        writer.writerow([rank, candidate.term, candidate.tf])


def parse_ambiguity_csv(lines: Iterable[str]) -> AmbiguityReport:
    reader = csv.DictReader(lines)
    try:
        fieldnames = reader.fieldnames
        rows = list(reader)
    except csv.Error as exc:
        # DictReader.line_num moves only once a row parses; its reader's
        # counts the line that failed.
        raise ValidationError(
            f"ambiguity CSV line {reader.reader.line_num}: {exc}") from exc
    required = {"topic", "probe", "n_topic", "n_topic_probe"}
    if fieldnames is None or not required.issubset(fieldnames):
        raise ValidationError(
            "ambiguity CSV needs columns topic, probe, n_topic, n_topic_probe"
        )
    entries = []
    for row in rows:
        try:
            entries.append(
                AmbiguityEntry(
                    topic=row["topic"],
                    probe=row["probe"],
                    n_topic=int(row["n_topic"]),
                    n_topic_probe=int(row["n_topic_probe"]),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad ambiguity row {row!r}: {exc}") from exc
    if not entries:
        raise ValidationError("ambiguity CSV has no data rows")
    return AmbiguityReport(entries=tuple(entries))


def default_ambiguity_report() -> AmbiguityReport:
    return parse_ambiguity_csv(bundled_lines("probe_ambiguity.csv"))
