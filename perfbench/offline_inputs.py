"""Seeded inputs for the ``offline-distinct`` workload, written with the stdlib.

Three files: a labeled training corpus, a calibration capture and a test
capture, in the formats of ``docs/FORMATS.md``.  No advert text appears twice
anywhere in the three files, so every text misses any per-text memo the
program keeps.  Words are pseudo-English roots with common suffixes, which
sends every token through several Porter rules.  Each category draws mostly
from its own roots, so the trained model separates the categories and the
detector has real work to do.

The generator imports nothing from the program: the inputs depend only on
the seed and the sizes below, never on the code under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

CATCHALL = "other"
TOPICS = tuple(f"topic{i:02d}" for i in range(10))
LABELS = TOPICS + (CATCHALL,)


class Sizes(NamedTuple):
    corpus_adverts: int
    calibration_sessions_per_label: int
    test_sessions_per_label: int


# The workload: about 2,400 training adverts and 1,000 scored probe pages.
FULL = Sizes(2400, 4, 12)
# The self-check's miniature of the same shape.
SMALL = Sizes(110, 2, 1)

CALIBRATION_PROBES = 5
TEST_PROBES = 6
ADVERTS_PER_PAGE = 4
LINKS_PER_PAGE = 5
PROBE_QUERY = "symptoms and causes"

ROOTS_PER_LABEL = 40
SHARED_ROOTS = 30
_ONSETS = ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t",
           "v", "tr", "pl", "gr", "st", "br", "cl")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_SUFFIXES = ("", "", "s", "es", "ing", "ed", "er", "ers", "ation", "ational",
             "ness", "ful", "ive", "ize", "ization", "ment", "ments", "ly",
             "ity", "ities", "able", "ous", "al", "ence", "ism", "ist")
_FILLER = ("the", "and", "for", "with", "from", "your", "our", "now", "at",
           "to", "of", "in")
_LINK_WORDS = ("guide", "overview", "article", "resource", "portal", "journal",
               "archive", "library", "reference", "summary", "digest",
               "manual", "tutorial", "lesson", "index", "catalog", "forum")


class _Vocabulary:
    """Per-label and shared pseudo-word roots, all distinct."""

    def __init__(self, rng: random.Random) -> None:
        seen: set[str] = set()

        def roots(count: int) -> tuple[str, ...]:
            out = []
            while len(out) < count:
                root = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                               for _ in range(rng.randint(2, 3)))
                root += rng.choice(_ONSETS)
                if root not in seen:
                    seen.add(root)
                    out.append(root)
            return tuple(out)

        self.own = {label: roots(ROOTS_PER_LABEL) for label in LABELS}
        self.shared = roots(SHARED_ROOTS)


class _AdvertSource:
    """Advert texts for one label at a time, never repeating a text."""

    def __init__(self, rng: random.Random, vocab: _Vocabulary) -> None:
        self._rng = rng
        self._vocab = vocab
        self._used: set[str] = set()

    def advert(self, label: str) -> str:
        rng = self._rng
        while True:
            words = []
            for _ in range(rng.randint(6, 11)):
                pick = rng.random()
                if pick < 0.12:
                    words.append(rng.choice(_FILLER))
                    continue
                pool = self._vocab.shared if pick < 0.32 else self._vocab.own[label]
                words.append(rng.choice(pool) + rng.choice(_SUFFIXES))
            words[0] = words[0].capitalize()
            text = " ".join(words)
            if text not in self._used:
                self._used.add(text)
                return text


def _links(rng: random.Random) -> list[list[str]]:
    return [[" ".join(rng.choice(_LINK_WORDS) for _ in range(3)),
             " ".join(rng.choice(_LINK_WORDS) for _ in range(5))]
            for _ in range(LINKS_PER_PAGE)]


def _page_adverts(rng: random.Random, source: _AdvertSource, label: str) -> list[str]:
    """Mostly the session's own label, sometimes a catch-all slot."""
    return [source.advert(label if rng.random() < 0.75 else CATCHALL)
            for _ in range(ADVERTS_PER_PAGE)]


def _capture_lines(rng: random.Random, vocab: _Vocabulary,
                   source: _AdvertSource, role: str,
                   sessions_per_label: int, probes: int) -> list[str]:
    """Sessions that alternate probe and user-query pages, opening and
    closing on a probe, in the canonical capture record order."""
    records = []
    for label in LABELS:
        for index in range(sessions_per_label):
            session_id = f"{role}-{label}-{index:02d}"
            step = 0
            for probe_index in range(probes):
                if probe_index:
                    step += 1
                    words = rng.sample(vocab.own[label], 2)
                    records.append((session_id, step, {
                        "query": " ".join(words), "is_probe": False,
                        "adverts": _page_adverts(rng, source, label)}))
                step += 1
                records.append((session_id, step, {
                    "query": PROBE_QUERY, "is_probe": True,
                    "adverts": _page_adverts(rng, source, label)}))
    lines = ["#pri-capture v1"]
    for session_id, step, fields in sorted(records, key=lambda r: (r[0], r[1])):
        record = {"session_id": session_id, "topic": session_id.split("-")[1],
                  "step": step, "links": _links(rng), "clicked": [], **fields}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


def write_inputs(seed: int, directory: Path, sizes: Sizes = FULL) -> dict[str, Path]:
    """Write corpus.txt, calibrate.capture and test.capture; return paths."""
    rng = random.Random(f"offline-distinct:{seed}")
    vocab = _Vocabulary(rng)
    source = _AdvertSource(rng, vocab)
    corpus = []
    for i in range(sizes.corpus_adverts):
        label = LABELS[i % len(LABELS)]
        corpus.append(f"{label}\t{source.advert(label)}")
    files = {
        "corpus": ("corpus.txt", corpus),
        "calibrate": ("calibrate.capture",
                      _capture_lines(rng, vocab, source, "cal",
                                     sizes.calibration_sessions_per_label,
                                     CALIBRATION_PROBES)),
        "test": ("test.capture",
                 _capture_lines(rng, vocab, source, "test",
                                sizes.test_sessions_per_label, TEST_PROBES)),
    }
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, (name, lines) in files.items():
        path = directory / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[key] = path
    return paths
