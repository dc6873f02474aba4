"""Turning raw query and advert text into comparable term sequences.

The pipeline is: lowercase, split on runs of [a-z0-9], drop stopwords,
stem, then drop stopwords once more.  The second pass matters because a
stem can land on a stopword that its surface form missed ("ies" -> "i").
Category labels are never passed through here -- only displayed text is.
The package's only process-wide state is the two singletons
``default_stopwords()`` and ``default_filter()``, whose token table holds
one entry per distinct token.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable

from .config import bundled_lines
from .porter import stem

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens in order of appearance."""
    return _TOKEN_RE.findall(text.lower())


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    return frozenset(word for line in bundled_lines("stopwords.txt")
                     for word in line.split())


class TermFilter:
    """Maps free text to its sequence of stemmed content terms.

    Each distinct token is stemmed once; a filter's state grows with the
    distinct tokens it has seen, never with the texts.
    """

    def __init__(self) -> None:
        self.stopwords = default_stopwords()
        # token -> its stemmed term, or None when either stopword pass drops it.
        self._tokens: dict[str, str | None] = {}

    def terms(self, text: str) -> list[str]:
        tokens = self._tokens
        out = []
        for token in tokenize(text):
            # term()'s table lookup, inlined: this runs for every token.
            term = tokens[token] if token in tokens else self.term(token)
            if term is not None:
                out.append(term)
        return out

    def term(self, token: str) -> str | None:
        """The stemmed term of one token, or None when it is filtered out."""
        tokens = self._tokens
        if token not in tokens:
            stemmed = None if token in self.stopwords else stem(token)
            tokens[token] = None if stemmed in self.stopwords else stemmed
        return tokens[token]


@lru_cache(maxsize=1)
def default_filter() -> TermFilter:
    return TermFilter()


def filter_terms(text: str) -> list[str]:
    """Apply the bundled default filter to one piece of text."""
    return default_filter().terms(text)


def term_set(texts: Iterable[str]) -> frozenset[str]:
    """Every filtered term of a list of phrases or adverts."""
    flt = default_filter()
    return frozenset(t for text in texts for t in flt.terms(text))
