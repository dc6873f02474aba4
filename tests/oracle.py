"""Independent reference implementations used only by the test suite.

These are deliberately naive, literal translations of the scoring definition:
a double loop over dictionary terms and adverts in exact rational arithmetic.
The slot apportionment, the topic-score matrix and the capture writer are
kept in their plain forms, one dict per intermediate, one Fraction addition
per score and one ``json.dumps`` per record, as the references for the
package's faster versions.  The engine's belief is replayed from the whole
log of registered updates at every step, with no pending queue.  They share
no code with the package under test.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import IO, Callable, Iterable, Mapping, Sequence

TermLists = Sequence[tuple[str, Sequence[str]]]  # (label, filtered terms)


def frequency(term: str, terms: Sequence[str], dictionary: set[str]) -> Fraction:
    """Occurrences of a dictionary term over full sequence length; else 0."""
    if term not in dictionary or not terms:
        return Fraction(0)
    return Fraction(sum(1 for t in terms if t == term), len(terms))


def reference_score(
    training: TermLists,
    page: Sequence[Sequence[str]],
    category: str,
) -> Fraction:
    """Literal term-by-term evaluation of the category score for one page."""
    dictionary = {t for _, terms in training for t in terms}
    total = Fraction(0)
    for w in sorted(dictionary):
        numerator = sum(
            (frequency(w, terms, dictionary) for label, terms in training
             if label == category),
            Fraction(0),
        )
        denominator = sum(
            (frequency(w, terms, dictionary) for _, terms in training),
            Fraction(0),
        )
        page_mass = sum(
            (frequency(w, advert, dictionary) for advert in page), Fraction(0)
        )
        if denominator:
            total += (numerator / denominator) * page_mass
    return total


def reference_score_texts(
    corpus: Sequence[tuple[str, str]],
    page_texts: Sequence[str],
    category: str,
    filter_fn: Callable[[str], list[str]],
) -> Fraction:
    training = [(label, filter_fn(text)) for label, text in corpus]
    page = [filter_fn(text) for text in page_texts]
    return reference_score(training, page, category)


def reference_apportion_slots(
    weights: Mapping[str, float], order: Sequence[str], slots: int
) -> dict[str, int]:
    """Largest-remainder apportionment with one dict per intermediate."""
    total = sum(weights[label] for label in order)
    quotas = {label: slots * weights[label] / total for label in order}
    counts = {label: int(quotas[label]) for label in order}
    leftover = slots - sum(counts.values())
    by_remainder = sorted(order, key=lambda l: quotas[l] - counts[l], reverse=True)
    for label in by_remainder[:leftover]:
        counts[label] += 1
    return counts


def reference_topic_score_matrix(result) -> dict[str, dict[str, float]]:
    """Mean probe score per (true topic, category), adding every Fraction."""
    evaluation = result.evaluation
    topics = result.config.categories.sensitive
    sums: dict[str, Counter] = {t: Counter() for t in topics}
    counts: dict[str, int] = {t: 0 for t in topics}
    for sid, vectors in evaluation.probe_scores.items():
        truth = evaluation.truths[sid]
        if truth not in sums:
            continue
        for vector in vectors:
            counts[truth] += 1
            for category in topics:
                sums[truth][category] += vector.scores[category]
    return {
        topic: {
            category: float(Fraction(sums[topic][category]) / counts[topic])
            for category in topics
        }
        for topic in topics
    }


def reference_write_capture(traces: Iterable, out: IO[str]) -> None:
    """The capture byte form: one sorted-key compact ``json.dumps`` per record."""
    out.write("#pri-capture v1\n")
    for trace in sorted(traces, key=lambda t: t.session_id):
        for interaction in trace.interactions:
            record = {
                "session_id": trace.session_id,
                "topic": trace.topic_label,
                "step": interaction.step,
                "query": interaction.query,
                "is_probe": interaction.is_probe,
                "links": [[t, s] for t, s in interaction.page.links],
                "adverts": [ad.text for ad in interaction.page.adverts],
                "clicked": list(interaction.clicked),
            }
            out.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            out.write("\n")


class ReferenceBelief:
    """Engine weights replayed from the log of every registered update.

    An update registered at interaction ``j`` (a query matching a category,
    or a click on one of its slots) is in the belief from step ``j + lag``
    on.  Updates apply in registration order: a query adds 1.0, a click
    multiplies by the boost.
    """

    def __init__(self, initial: Mapping[str, float], lag: int,
                 click_boost: float) -> None:
        self.initial = dict(initial)
        self.lag = lag
        self.click_boost = click_boost
        self.step = 0
        self.log: list[tuple[int, str, bool]] = []

    def query(self, labels: Iterable[str]) -> None:
        self.step += 1
        self.log.extend((self.step, label, False) for label in labels)

    def click(self, label: str) -> None:
        self.log.append((self.step, label, True))

    def belief(self) -> dict[str, float]:
        weights = dict(self.initial)
        for registered, label, is_click in self.log:
            if registered + self.lag <= self.step:
                if is_click:
                    weights[label] *= self.click_boost
                else:
                    weights[label] += 1.0
        return weights
