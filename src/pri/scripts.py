"""Session script generation, the script file format, and click emulation.

A script is the unit of a user session: an ordered list of query entries,
user queries and injected probes.  User queries are keyword groups drawn
with replacement from a category's phrase list and dressed with a connective
so they read like search queries.

``uniform_below`` is the package's one draw rule: the only code that turns a
seed into random numbers.  A generated script and an engine's advert slots
both draw through it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .config import bundled_lines
from .corpus import parse_corpus
from .errors import ValidationError
from .textproc import filter_terms, term_set

# Connective templates used to dress keyword groups up as plausible queries.
# Kept free of terms from every bundled topic vocabulary so the dressing never
# changes which topics a query matches.  Each is empty or single-spaced words,
# so a query is a plain join of its connective and its phrases.
CONNECTIVES = ("", "how to", "what is", "find", "best", "near me", "why do",
               "top", "get", "about")

MIN_QUERIES = 25
MAX_QUERIES = 40
MIN_PROBE_GAP = 1
MAX_PROBE_GAP = 5
# A generated script of q queries holds p probes with at most MAX_PROBE_GAP
# user queries between neighbours, so q <= p + (p - 1) * MAX_PROBE_GAP: even
# the shortest script holds this many probes.
MIN_PROBES = math.ceil((MIN_QUERIES + MAX_PROBE_GAP) / (MAX_PROBE_GAP + 1))

# An advert is clicked when more than this share of its filtered terms are
# terms of the session topic's keyword phrases.
CLICK_SHARE = 0.1


class CategoryKeywords:
    def __init__(self, label: str, phrases: tuple[str, ...]) -> None:
        if not phrases or any(not p.strip() for p in phrases):
            raise ValidationError(
                f"category {label!r} needs nonempty keyword phrases"
            )
        self.label = label
        self.phrases = phrases
        # Advert text -> click_decision's answer, kept by run_session:
        # sessions meet a few hundred distinct adverts thousands of times,
        # so each is decided once.
        self.click_memo: dict[str, bool] = {}

    @cached_property
    def term_set(self) -> frozenset[str]:
        return term_set(self.phrases)

    @cached_property
    def query_phrases(self) -> tuple[str, ...]:
        """The phrases with single spaces between words, as queries hold them."""
        return tuple(" ".join(phrase.split()) for phrase in self.phrases)


class ScriptEntry(NamedTuple):
    text: str
    is_probe: bool


class QueryScript(NamedTuple):
    topic: str
    entries: tuple[ScriptEntry, ...]
    # The words of a script file's "! keywords:" line; generated scripts
    # have none, as a campaign clicks by its topic's CategoryKeywords.
    keywords: tuple[str, ...] = ()

    @property
    def probe_gaps(self) -> tuple[int, ...]:
        """User-query run lengths between consecutive probes."""
        gaps = []
        run = 0
        seen_probe = False
        for entry in self.entries:
            if entry.is_probe:
                if seen_probe:
                    gaps.append(run)
                run = 0
                seen_probe = True
            else:
                run += 1
        return tuple(gaps)


def load_default_keywords() -> dict[str, list[str]]:
    """Bundled keyword phrase lists, keyed by sensitive category label; the
    file's ``label<TAB>phrase`` lines follow the corpus line grammar."""
    keywords: dict[str, list[str]] = {}
    for label, phrase in parse_corpus(bundled_lines("category_keywords.tsv")):
        keywords.setdefault(label, []).append(phrase)
    return keywords


def load_trending_queries() -> list[str]:
    """Bundled non-sensitive query pool for the catch-all category."""
    return [
        line.strip()
        for line in bundled_lines("trending_queries.txt")
        if line.strip() and not line.lstrip().startswith("#")
    ]


def uniform_below(seed: int) -> Callable[[int], int]:
    """``below(n)``, a uniform int in ``[0, n)``, drawn from
    ``random.Random(seed)``.

    ``below(n)`` reads the generator exactly as ``choice(range(n))`` does
    through ``_randbelow`` on Python 3.10-3.13: ``r = getrandbits(k)`` with
    ``k = n.bit_length()``, again while ``r >= n``.  So ``randint(a, b)`` is
    ``a + below(b - a + 1)`` and ``choice(s)`` is ``s[below(len(s))]``, draw
    for draw, without their argument checks.
    """
    import random

    getrandbits = random.Random(seed).getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def generate_script(
    keywords: CategoryKeywords, probe: str, seed: int
) -> QueryScript:
    """Probe-led script: [probe, gap of 1-5 user queries]... ending on a probe,
    drawn through ``uniform_below(seed)``."""
    below = uniform_below(seed)
    # Aim below the ceiling so a final full gap cannot overshoot it.
    highest = MAX_QUERIES - MAX_PROBE_GAP - 1
    target = MIN_QUERIES + below(highest - MIN_QUERIES + 1)

    phrases = keywords.query_phrases
    n_phrases, n_connectives = len(phrases), len(CONNECTIVES)
    gaps = MAX_PROBE_GAP - MIN_PROBE_GAP + 1
    probe_entry = ScriptEntry(probe, True)
    queries: list[ScriptEntry] = [probe_entry]
    while len(queries) < target:
        gap_room = target - len(queries) - 1
        gap = MIN_PROBE_GAP + below(gaps)
        if gap >= gap_room:
            gap = gap_room  # close the script on this probe
        elif gap_room - gap == 1:
            # Never leave room for exactly one more query: the closing probe
            # would then follow this one with no user queries between.
            gap = gap - 1 if gap > 1 else gap_room
        for _ in range(gap):
            group = [phrases[below(n_phrases)] for _ in range(1 + below(2))]
            connective = CONNECTIVES[below(n_connectives)]
            if connective:
                group.insert(0, connective)
            queries.append(ScriptEntry(" ".join(group), False))
        queries.append(probe_entry)

    return QueryScript(topic=keywords.label, entries=tuple(queries))


def click_decision(item_text: str, keywords: CategoryKeywords) -> bool:
    """Click iff keyword terms make up more than CLICK_SHARE of the item text.

    A text with no terms is never clicked.
    """
    terms = filter_terms(item_text)
    hits = sum(1 for t in terms if t in keywords.term_set)
    return bool(terms) and hits / len(terms) > CLICK_SHARE


# ---------------------------------------------------------------------------
# script files (directives "! keywords:", "! probe:", "! topic:", "! wait N";
# every other nonempty line is a query, probes recognized by their text).
# The simulated engine has no clock, so a wait is checked and then dropped.
# ---------------------------------------------------------------------------


def parse_script(lines: Iterable[str]) -> QueryScript:
    """Each of "! keywords:", "! probe:" and "! topic:" may appear once, and
    every query line equal to the probe text is a probe, wherever the
    directive stands."""
    # "keywords", "probe" and "topic" -> the text after the colon
    named: dict[str, str] = {}
    queries: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("!"):
            directive = line[1:].strip()
            name, colon, value = directive.partition(":")
            if colon and name in ("keywords", "probe", "topic"):
                if name in named:
                    raise ValidationError(
                        f"script line {lineno}: second '! {name}:' line")
                named[name] = value
            elif directive.startswith("wait"):
                value = directive[len("wait"):].strip()
                try:
                    seconds = int(value)
                except ValueError:
                    seconds = 0
                if seconds <= 0:
                    raise ValidationError(
                        f"script line {lineno}: bad wait duration {value!r}"
                    )
            else:
                raise ValidationError(
                    f"script line {lineno}: unknown directive {line!r}"
                )
            continue
        queries.append(line)
    probe = named.get("probe", "").strip()
    if not probe:
        raise ValidationError("script file declares no probe")
    if not queries:
        raise ValidationError("script file has no query entries")
    return QueryScript(
        topic=named.get("topic", "").strip(),
        entries=tuple(ScriptEntry(query, query == probe) for query in queries),
        keywords=tuple(named.get("keywords", "").split()))


def keyword_catalog(
    keywords: Mapping[str, Sequence[str]], catchall: str
) -> dict[str, CategoryKeywords]:
    """CategoryKeywords for every topic, plus the catch-all's phrase pool
    drawn from the bundled trending queries."""
    catalog = {
        label: CategoryKeywords(label=label, phrases=tuple(phrases))
        for label, phrases in keywords.items()
    }
    catalog[catchall] = CategoryKeywords(
        label=catchall, phrases=tuple(load_trending_queries()))
    return catalog
