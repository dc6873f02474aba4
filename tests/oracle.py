"""Independent reference implementations used only by the test suite.

These are deliberately naive, literal translations of the scoring definition:
a double loop over dictionary terms and adverts in exact rational arithmetic.
The slot apportionment, the topic-score matrix and the capture writer are
kept in their plain forms, one dict per intermediate, one Fraction addition
per score and one ``json.dumps`` per record, as the references for the
package's faster versions.  The engine's belief is replayed from the whole
log of registered updates at every step, with no pending queue.
``ReferenceEngine`` and ``reference_session`` serve and click whole sessions
in the engine's plain form: a fresh apportionment for every page, and one
registration and one pass over a pending list per matched label and per
click.  The
session rates, confusion rows and lag tables are recounted from plain
``(truth, probe verdicts)`` lists, the lag runs by splitting a string.  The
Porter stemmer, ``reference_stem``, re-derives each character's consonant or
vowel class on demand, recursing back through runs of y, and keeps its own
rule tables.  They share no code with the package under test, and import nothing
from it (``tests/test_imports.py`` checks this).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
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
    for session in evaluation.sessions:
        truth = session.truth
        if truth not in sums:
            continue
        for vector in session.scores:
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


PlainSession = tuple[str, Sequence[tuple[bool, Sequence[str]]]]


def reference_aggregates(
    sessions: Sequence[PlainSession], catchall: str, probe_count: int
) -> dict[tuple[str, str, str], object]:
    """Session counts, rates, confusion rows and lag tables, keyed
    ``(table, row, column)`` as in the long-format CSV report.

    ``sessions`` holds ``(truth, [(flag, detected_topics), ...])`` for each
    session, probes in order.  A session is sensitive when one of its first
    ``probe_count`` probes is flagged, and is detected as every topic those
    probes name.  A probe errs when it is flagged in a catch-all session, or
    not flagged as its own topic in a sensitive one; the lag tables come from
    the runs of a string that marks each erring probe ``x``.  Each rate is
    the same int or float quotient the package computes, so values compare
    exactly.
    """
    table: dict[tuple[str, str, str], object] = {}
    judged = [(truth, any(flag for flag, _ in probes[:probe_count]),
               {t for _, topics in probes[:probe_count] for t in topics})
              for truth, probes in sessions]
    sensitive = [hit for truth, hit, _ in judged if truth != catchall]
    neutral = [hit for truth, hit, _ in judged if truth == catchall]
    table["summary", "sessions", "sensitive"] = len(sensitive)
    table["summary", "sessions", "catchall"] = len(neutral)
    table["summary", "rate", "sensitive_detection"] = (
        sensitive.count(True) / len(sensitive) if sensitive else 0.0)
    table["summary", "rate", "false_positive"] = (
        neutral.count(True) / len(neutral) if neutral else 0.0)
    for topic in sorted({truth for truth, _, _ in judged} - {catchall}):
        own = [topic in found for truth, _, found in judged if truth == topic]
        rest = [topic in found for truth, _, found in judged if truth != topic]
        true_detect = own.count(True) / len(own)
        false_detect = rest.count(True) / len(rest) if rest else 0.0
        for column, value in (("true_detect", true_detect),
                              ("false_other", 1.0 - true_detect),
                              ("true_other", 1.0 - false_detect),
                              ("false_detect", false_detect)):
            table["confusion", topic, column] = value
    runs: list[int] = []
    firsts: list[int] = []
    for truth, probes in sessions:
        marks = "".join(
            ("x" if flag else ".") if truth == catchall
            else ("." if flag and truth in topics else "x")
            for flag, topics in probes)
        runs += [len(run) for run in marks.split(".") if run]
        if "x" in marks:
            firsts.append(marks.index("x") + 1)
    for name, values in (("run_length", runs), ("first_error", firsts)):
        for k in sorted(set(values)):
            table["lag", name, str(k)] = values.count(k) / len(values)
    table["lag", "expected_run", ""] = (
        math.fsum(runs) / len(runs) if runs else None)
    return table


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


class ReferenceOverflow(Exception):
    """A click boost overflowed the reference engine's weights."""


class ReferenceEngine:
    """The advert engine in its plain form, one update at a time.

    Each query is served from the applied weights, apportioned afresh for
    every page and filled with one ``rng.choice`` per slot.  The query's
    labels are then registered one by one, and so is every click; each
    registration appends ``(due step, label, is_click)`` to a pending list
    and applies every entry now due, in registration order.  Organic links
    are hashed per rank from the full ``f"{query}\x1f{rank}"``.
    """

    def __init__(
        self,
        prior: Mapping[str, float],
        slices: Mapping[str, Sequence[str]],
        order: Sequence[str],
        ads_per_page: int,
        lag: int,
        click_boost: float,
        seed: int,
        matches: Callable[[str], Iterable[str]],
        link_words: Sequence[str],
    ) -> None:
        self.weights = dict(prior)
        self.slices = slices
        self.order = order
        self.ads_per_page = ads_per_page
        self.lag = lag
        self.click_boost = click_boost
        self.rng = random.Random(seed)
        self.matches = matches
        self.link_words = link_words
        self.pending: list[tuple[int, str, bool]] = []
        self.step = 0
        self.served: list[str] = []

    def links(self, query: str) -> tuple[tuple[str, str], ...]:
        links = []
        for rank in range(5):
            digest = hashlib.sha256(f"{query}\x1f{rank}".encode("utf-8")).digest()
            words = [self.link_words[byte % len(self.link_words)]
                     for byte in digest[:8]]
            links.append((" ".join(words[:3]), " ".join(words[3:])))
        return tuple(links)

    def submit_query(self, query: str) -> tuple[tuple[tuple[str, str], ...], list[str]]:
        """(links, advert texts by slot) of the page served for ``query``."""
        self.step += 1
        counts = reference_apportion_slots(self.weights, self.order,
                                           self.ads_per_page)
        self.served = [label for label in self.order
                       for _ in range(counts[label])]
        adverts = [self.rng.choice(self.slices[label]) for label in self.served]
        self._apply_due()
        for label in self.matches(query):
            self._register(label, False)
        return self.links(query), adverts

    def register_click(self, slot: int) -> None:
        self._register(self.served[slot], True)

    def _register(self, label: str, is_click: bool) -> None:
        self.pending.append((self.step + self.lag, label, is_click))
        self._apply_due()

    def _apply_due(self) -> None:
        while self.pending and self.pending[0][0] <= self.step:
            _, label, is_click = self.pending.pop(0)
            if is_click:
                self.weights[label] *= self.click_boost
                if not math.isfinite(sum(self.weights.values()) * self.ads_per_page):
                    raise ReferenceOverflow(
                        f"click_boost = {self.click_boost!r} makes the "
                        f"{label!r} weight overflow")
            else:
                self.weights[label] += 1.0


def reference_click(terms: Sequence[str], topic_terms: Iterable[str]) -> bool:
    """Click when topic terms are more than a tenth of an advert's terms."""
    topic_terms = set(topic_terms)
    hits = sum(1 for term in terms if term in topic_terms)
    return bool(terms) and hits / len(terms) > 0.1


def reference_session(
    engine: ReferenceEngine,
    entries: Sequence[tuple[str, bool]],
    clicks: Callable[[str], bool] | None,
) -> list[tuple[tuple, tuple[str, ...], tuple[int, ...], list[dict[str, float]]]]:
    """Drive ``(query, is_probe)`` entries one interaction at a time.

    Per step: the page's links, its advert texts, the clicked slots, and
    the weights after the query and after the page's clicks, if any.
    Probe pages, and every page when ``clicks`` is None, are never clicked.
    """
    steps = []
    for query, is_probe in entries:
        links, adverts = engine.submit_query(query)
        beliefs = [dict(engine.weights)]
        clicked = []
        if not is_probe and clicks is not None:
            for slot, text in enumerate(adverts):
                if clicks(text):
                    engine.register_click(slot)
                    clicked.append(slot)
        if clicked:
            beliefs.append(dict(engine.weights))
        steps.append((links, tuple(adverts), tuple(clicked), beliefs))
    return steps


# ---------------------------------------------------------------------------
# Porter stemmer: every character's class re-derived on demand
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return True if i == 0 else not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel->consonant transitions ([C](VC)^m[V] form)."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        if _is_consonant(stem, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    """consonant-vowel-consonant ending where the final letter is not w, x or y."""
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


_Rule = tuple[str, str, int]


def _by_final_letter(rules: tuple[_Rule, ...]) -> dict[str, tuple[_Rule, ...]]:
    """Index a rule table by the last letter of its suffixes, longest first.

    Only rules ending in a word's last letter can match it, and sorting is
    stable, so scanning one bucket finds the same rule as scanning the whole
    table longest first.
    """
    index: dict[str, list[_Rule]] = {}
    for rule in sorted(rules, key=lambda r: -len(r[0])):
        index.setdefault(rule[0][-1], []).append(rule)
    return {letter: tuple(bucket) for letter, bucket in index.items()}


def _apply_rules(word: str, rules: dict[str, tuple[_Rule, ...]]) -> str:
    """Replace the longest matching suffix if its stem clears the measure bar.

    Rules are (suffix, replacement, minimum measure) triples, indexed by
    ``_by_final_letter``.  Once a suffix matches, shorter rules are not
    considered even when the measure condition fails -- longest-match decides
    which rule owns the word.
    """
    for suffix, replacement, min_m in rules.get(word[-1:], ()):
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if _measure(stem) >= min_m:
                return stem + replacement
            return word
    return word


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _measure(word[:-3]) > 0 else word
    if word.endswith("ed") and _has_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    # Tidy up after removing -ed / -ing.
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = _by_final_letter((
    ("ational", "ate", 1),
    ("tional", "tion", 1),
    ("enci", "ence", 1),
    ("anci", "ance", 1),
    ("izer", "ize", 1),
    ("bli", "ble", 1),
    ("alli", "al", 1),
    ("entli", "ent", 1),
    ("eli", "e", 1),
    ("ousli", "ous", 1),
    ("ization", "ize", 1),
    ("ation", "ate", 1),
    ("ator", "ate", 1),
    ("alism", "al", 1),
    ("iveness", "ive", 1),
    ("fulness", "ful", 1),
    ("ousness", "ous", 1),
    ("aliti", "al", 1),
    ("iviti", "ive", 1),
    ("biliti", "ble", 1),
    ("logi", "log", 1),
))

_STEP3_RULES = _by_final_letter((
    ("icate", "ic", 1),
    ("ative", "", 1),
    ("alize", "al", 1),
    ("iciti", "ic", 1),
    ("ical", "ic", 1),
    ("ful", "", 1),
    ("ness", "", 1),
))

_STEP4_RULES = _by_final_letter((
    ("al", "", 2),
    ("ance", "", 2),
    ("ence", "", 2),
    ("er", "", 2),
    ("ic", "", 2),
    ("able", "", 2),
    ("ible", "", 2),
    ("ant", "", 2),
    ("ement", "", 2),
    ("ment", "", 1),  # relaxed: see module docstring
    ("ent", "", 2),
    ("ou", "", 2),
    ("ism", "", 2),
    ("ate", "", 2),
    ("iti", "", 2),
    ("ous", "", 2),
    ("ive", "", 2),
    ("ize", "", 2),
))


def _step4(word: str) -> str:
    # "ion" only counts as a suffix after s or t, so it sits outside the
    # generic rule table (no table suffix can match an "ion" word anyway).
    if word.endswith("ion"):
        if word[-4:-3] in ("s", "t") and _measure(word[:-3]) > 1:
            return word[:-3]
        return word
    return _apply_rules(word, _STEP4_RULES)


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def reference_stem(word: str) -> str:
    """Stem a single lowercase token, one character class at a time.

    Tokens of length one or two are returned unchanged, as are tokens that
    contain digits (model numbers, amounts and the like are left alone).
    """
    if len(word) <= 2 or any(ch.isdigit() for ch in word):
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rules(word, _STEP2_RULES)
    word = _apply_rules(word, _STEP3_RULES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
