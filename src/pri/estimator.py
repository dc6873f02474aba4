"""Training and scoring of the category term-frequency model.

Training accumulates, for every dictionary term, its summed per-advert
frequency overall and per category, in exact rational arithmetic.  Scoring a
page computes, per category, the sum over dictionary terms of

    (category share of the term) x (term mass on the page's adverts)

where a term's frequency inside an advert is its count over the advert's full
filtered length, and terms outside the dictionary contribute nothing.

Every value is exact, but the loops run on Python ints.  Training sums each
(term, category) cell as an integer over the lcm of the advert lengths and
builds one ``Fraction`` per cell.  A model stores each category's shares as
integer numerators over one common denominator ``D_c``, the lcm of that
category's share denominators, and scoring sums a page's adverts over ``L``,
the lcm of their filtered lengths, so a page's score for category ``c`` is
``m / (D_c * L)`` for an integer ``m``.  Scoring keeps ``m`` unreduced and
builds no ``Fraction``: CPython's int true division is correctly rounded, so
``m / (D_c * L)`` is the float of the exact score, and the ``Fraction`` view
equals the term-by-term sums.

A ``PriModel`` stores the repeated answers of scoring: the contribution of
each advert text seen twice, and in ``page_scores`` the vector of each page
whose texts all have one, keyed by the page's sorted contributions.
Reworded adverts with the same terms therefore share one vector, and
``evaluate_capture`` classifies each distinct vector once.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .corpus import (
    Advert,
    CategorySet,
    Dictionary,
    LabeledAdvert,
    headed_lines,
)
from .errors import ValidationError
from .textproc import TermFilter, default_filter, filter_terms

MODEL_HEADER = "#pri-model v1"

# Shared by every zero cell of the statistics tables (a Fraction is immutable).
_ZERO = Fraction(0)

# (category, integer numerator) pairs with numerator != 0; the denominator
# is implied by where the mass is stored.
CategoryMass = tuple[tuple[str, int], ...]


class TermStats(NamedTuple):
    """Aggregated training frequencies: totals and their per-category split."""

    total: dict[str, Fraction]
    per_category: dict[str, dict[str, Fraction]]


class PriModel:
    """Trained statistics plus the values scoring derives from them once.

    ``share_denominators`` maps each category ``c`` to ``D_c``, the lcm of
    the denominators of its shares weight / total.  ``shares`` maps each
    dictionary term to its nonzero category shares as integer numerators
    over ``D_c``.  An advert text's contribution is its filtered length
    ``n`` with, per category, the integer ``sum(count * share)``; its
    category mass is that integer over ``D_c * n``.  Scoring stores a
    text's contribution from the text's second sighting on; a text seen
    only once leaves a single entry in a set of seen texts.  ``page_scores``
    keeps a page's vector, keyed by its sorted nonzero contributions, once
    every text of the page has a stored contribution (see ``score``).
    """

    def __init__(
        self,
        categories: CategorySet,
        dictionary: Dictionary,
        stats: TermStats,
        empty_categories: tuple[str, ...] = (),
    ) -> None:
        self.categories = categories
        self.dictionary = dictionary
        self.stats = stats
        self.empty_categories = empty_categories
        ratios = {
            term: [
                (category, weight / total)
                for category, weight in stats.per_category[term].items()
                if weight
            ]
            for term, total in stats.total.items()
        }
        denominators = dict.fromkeys(categories.all_labels, 1)
        for pairs in ratios.values():
            for category, share in pairs:
                denominators[category] = math.lcm(
                    denominators[category], share.denominator)
        self.share_denominators = denominators
        self.shares: dict[str, CategoryMass] = {
            term: tuple(
                (category,
                 share.numerator * (denominators[category] // share.denominator))
                for category, share in pairs
            )
            for term, pairs in ratios.items()
        }
        self._seen: set[str] = set()
        self._contributions: dict[str, tuple[int, CategoryMass]] = {}
        # Sorted nonzero contributions of a scored page -> its ScoreVector.
        self.page_scores: dict[tuple[tuple[int, CategoryMass], ...],
                               ScoreVector] = {}

    @property
    def term_filter(self) -> TermFilter:
        """The process-wide filter every model reads advert text with."""
        return default_filter()

    @property
    def cached_texts(self) -> int:
        """How many advert texts have a stored contribution."""
        return len(self._contributions)

    def contribution(self, text: str) -> tuple[int, CategoryMass]:
        """Filtered length of one advert text and its integer category mass,
        computed afresh; ``score`` looks a stored one up first."""
        terms = filter_terms(text)
        shares = self.shares
        mass: dict[str, int] = {}
        # Each occurrence adds its shares, so a category's sum is
        # count * share and categories open in first-occurrence order.
        for term in terms:
            for category, share in shares.get(term, ()):
                mass[category] = mass.get(category, 0) + share
        entry = (len(terms), tuple(mass.items()))
        if text in self._seen:
            self._seen.discard(text)
            self._contributions[text] = entry
        else:
            self._seen.add(text)
        return entry


class ScoreVector:
    """A page's score for each category ``c``, kept unreduced as
    ``numerators[c] / (denominators[c] * common)``.

    ``numerators`` holds every category in label order, ``common`` is the
    page's ``L`` and ``denominators`` the model's shared
    ``share_denominators``.  Vectors compare by their exact scores.
    """

    def __init__(self, numerators: dict[str, int], common: int,
                 denominators: Mapping[str, int]) -> None:
        self.numerators = numerators
        self.common = common
        self.denominators = denominators

    def value(self, category: str) -> float:
        """The score of one category as a float, correctly rounded."""
        return self.numerators[category] / (
            self.denominators[category] * self.common)

    @cached_property
    def scores(self) -> dict[str, Fraction]:
        """The exact scores, in lowest terms, built on first access."""
        common = self.common
        return {category: Fraction(n, self.denominators[category] * common)
                for category, n in self.numerators.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreVector):
            return NotImplemented
        return self.scores == other.scores


def train(
    corpus: list[LabeledAdvert],
    categories: CategorySet,
) -> PriModel:
    if not corpus:
        raise ValidationError("cannot train on an empty corpus")
    for advert in corpus:
        if advert.label not in categories:
            raise ValidationError(f"corpus label {advert.label!r} not in categories")

    labels = categories.all_labels
    # Each copy of an identical (label, text) pair adds the same frequencies.
    pairs = [(advert.label, filter_terms(advert.text), copies)
             for advert, copies in Counter(corpus).items()]
    # Every cell is summed as an integer over the lcm of the advert lengths.
    common = math.lcm(*(len(terms) for _, terms, _ in pairs if terms))
    # Cells open in first-occurrence order, which gives the dictionary ids.
    cells: dict[str, dict[str, int]] = {}
    for label, terms, copies in pairs:
        scale = copies * (common // len(terms)) if terms else 0
        # Each occurrence adds its scale: a term's cell gets count * scale.
        for term in terms:
            cell = cells.get(term)
            if cell is None:
                cell = cells[term] = {}
            cell[label] = cell.get(label, 0) + scale
    if not cells:
        raise ValidationError("corpus contains no content terms after filtering")
    dictionary = Dictionary({term: i for i, term in enumerate(cells)})

    total: dict[str, Fraction] = {}
    per_category: dict[str, dict[str, Fraction]] = {}
    for term, cell in cells.items():
        total[term] = Fraction(sum(cell.values()), common)
        row = dict.fromkeys(labels, _ZERO)
        for label, value in cell.items():
            row[label] = Fraction(value, common)
        per_category[term] = row

    seen_labels = {advert.label for advert in corpus}
    empty = tuple(c for c in labels if c not in seen_labels)
    return PriModel(
        categories=categories,
        dictionary=dictionary,
        stats=TermStats(total=total, per_category=per_category),
        empty_categories=empty,
    )


def score(model: PriModel, adverts: Sequence[str | Advert]) -> ScoreVector:
    """Score one page of adverts against every category.

    A page's vector is a function of the multiset of its adverts' nonzero
    contributions, as sums and lcms do not depend on order.  Once each of a
    page's texts has a stored contribution, the model keeps the page's
    vector under that multiset and returns it for every page that repeats
    it; a page holding a text seen for the first or second time is looked
    up but not stored, so pages of texts seen once leave nothing behind.
    """
    stored = model._contributions
    keep = True
    entries = []
    for advert in adverts:
        text = advert.text if isinstance(advert, Advert) else advert
        entry = stored.get(text)
        if entry is None:
            keep = False
            entry = model.contribution(text)
        if entry[1]:
            entries.append(entry)
    entries.sort()
    key = tuple(entries)
    vector = model.page_scores.get(key)
    if vector is not None:
        return vector
    sums = dict.fromkeys(model.categories.all_labels, 0)
    # Each advert's mass is over D_c * n; bring them all over D_c * L.
    common = math.lcm(*(length for length, _ in entries))
    for length, mass in entries:
        scale = common // length
        for category, value in mass:
            sums[category] += value * scale
    vector = ScoreVector(sums, common, model.share_denominators)
    if keep:
        model.page_scores[key] = vector
    return vector


# ---------------------------------------------------------------------------
# model file round trip
# ---------------------------------------------------------------------------


def _format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _parse_fraction(text: str, lineno: int) -> Fraction:
    num, sep, den = text.partition("/")
    if not sep:
        raise ValidationError(f"model line {lineno}: bad rational {text!r}")
    try:
        return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"model line {lineno}: bad rational {text!r}") from exc


def write_model(model: PriModel, out: IO[str]) -> None:
    out.write(MODEL_HEADER + "\n")
    out.write("categories\t" + ",".join(model.categories.sensitive) + "\n")
    out.write("catchall\t" + model.categories.catchall + "\n")
    if model.empty_categories:
        out.write("empty\t" + ",".join(model.empty_categories) + "\n")
    terms = model.dictionary.terms
    for term_id, term in enumerate(terms):
        out.write(f"dict\t{term_id}\t{term}\n")
    for term_id, term in enumerate(terms):
        parts = [
            f"{category}={_format_fraction(weight)}"
            for category, weight in sorted(model.stats.per_category[term].items())
            if weight
        ]
        out.write(
            f"stat\t{term_id}\t{_format_fraction(model.stats.total[term])}\t"
            + ",".join(parts)
            + "\n"
        )


def save_model(model: PriModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_model(model, fh)


def _parse_id(text: str, lineno: int) -> int:
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise ValidationError(f"model line {lineno}: bad term id {text!r}")


def parse_model(lines: Iterable[str]) -> PriModel:
    # "categories", "catchall" and "empty" -> the rest of its one line
    heads: dict[str, str] = {}
    mapping: dict[str, int] = {}
    id_to_term: dict[int, str] = {}
    totals: dict[str, Fraction] = {}
    per_category: dict[str, dict[str, Fraction]] = {}

    for lineno, line in headed_lines(lines, MODEL_HEADER, "model"):
        kind, _, rest = line.partition("\t")
        if kind in ("categories", "catchall", "empty"):
            if kind in heads:
                raise ValidationError(f"model line {lineno}: second {kind} line")
            heads[kind] = rest
        elif kind == "dict":
            id_text, _, term = rest.partition("\t")
            term_id = _parse_id(id_text, lineno)
            if term_id in id_to_term:
                raise ValidationError(
                    f"model line {lineno}: duplicate term id {term_id}")
            if term in mapping:
                raise ValidationError(f"model line {lineno}: duplicate term {term!r}")
            id_to_term[term_id] = term
            mapping[term] = term_id
        elif kind == "stat":
            fields = rest.split("\t")
            if len(fields) != 3:
                raise ValidationError(f"model line {lineno}: malformed stat line")
            term = id_to_term.get(_parse_id(fields[0], lineno))
            if term is None:
                raise ValidationError(f"model line {lineno}: unknown term id")
            if term in totals:
                raise ValidationError(
                    f"model line {lineno}: duplicate stat for {term!r}")
            total = _parse_fraction(fields[1], lineno)
            if total <= 0:
                raise ValidationError(f"model line {lineno}: total must be positive")
            buckets: dict[str, Fraction] = {}
            for part in fields[2].split(","):
                if not part:
                    continue
                category, _, value = part.partition("=")
                if category in buckets:
                    raise ValidationError(
                        f"model line {lineno}: duplicate category {category!r}")
                weight = _parse_fraction(value, lineno)
                if weight < 0:
                    raise ValidationError(f"model line {lineno}: negative weight")
                buckets[category] = weight
            totals[term] = total
            per_category[term] = buckets
        else:
            raise ValidationError(f"model line {lineno}: unknown record {kind!r}")

    if "categories" not in heads:
        raise ValidationError("model file lacks a categories line")
    categories = CategorySet(
        sensitive=tuple(c for c in heads["categories"].split(",") if c),
        catchall=heads.get("catchall", "other"))
    empty = tuple(c for c in heads.get("empty", "").split(",") if c)
    undeclared = sorted(set(empty) - set(categories.all_labels))
    if undeclared:
        raise ValidationError(
            f"model empty line names undeclared categories {undeclared}")
    if sorted(id_to_term) != list(range(len(id_to_term))):
        raise ValidationError("model dict ids are not dense from 0")
    if set(totals) != set(mapping):
        raise ValidationError("model stats do not cover the dictionary")
    labels = categories.all_labels
    for term, total in totals.items():
        undeclared = sorted(set(per_category[term]) - set(labels))
        if undeclared:
            raise ValidationError(
                f"model stats for {term!r} name undeclared categories {undeclared}")
        if sum(per_category[term].values(), _ZERO) != total:
            raise ValidationError(f"model stats for {term!r} do not sum to total")
        per_category[term] = {c: per_category[term].get(c, _ZERO) for c in labels}

    return PriModel(
        categories=categories,
        dictionary=Dictionary(mapping),
        stats=TermStats(total=totals, per_category=per_category),
        empty_categories=empty,
    )
