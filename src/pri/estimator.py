"""Training and scoring of the category term-frequency model.

Training accumulates, for every dictionary term, its summed per-advert
frequency overall and per category, in exact rational arithmetic.  Scoring a
page computes, per category, the sum over dictionary terms of

    (category share of the term) x (term mass on the page's adverts)

where a term's frequency inside an advert is its count over the advert's full
filtered length, and terms outside the dictionary contribute nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Sequence

from .corpus import Advert, CategorySet, Dictionary, LabeledAdvert, build_dictionary
from .errors import ValidationError
from .textproc import TermFilter, default_filter

MODEL_HEADER = "#pri-model v1"

# Shared by every zero cell of the statistics tables (a Fraction is immutable).
_ZERO = Fraction(0)

# (category, value) pairs with value != 0.
CategoryMass = tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class TermStats:
    """Aggregated training frequencies: totals and their per-category split."""

    total: dict[str, Fraction]
    per_category: dict[str, dict[str, Fraction]]


@dataclass(frozen=True)
class PriModel:
    """Trained statistics plus the values scoring derives from them once.

    ``shares`` maps each dictionary term to its nonzero category shares,
    weight / total.  Scoring stores an advert text's contribution vector
    from the text's second sighting on; a text seen only once leaves a
    single entry in a set of seen texts, never a stored vector.
    """

    categories: CategorySet
    dictionary: Dictionary
    stats: TermStats
    term_filter: TermFilter = field(compare=False)
    empty_categories: tuple[str, ...] = ()
    shares: dict[str, CategoryMass] = field(init=False, repr=False, compare=False)
    _seen: set[str] = field(
        default_factory=set, init=False, repr=False, compare=False)
    _contributions: dict[str, CategoryMass] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shares = {
            term: tuple(
                (category, weight / total)
                for category, weight in self.stats.per_category[term].items()
                if weight
            )
            for term, total in self.stats.total.items()
        }
        object.__setattr__(self, "shares", shares)

    @property
    def cached_texts(self) -> int:
        """How many advert texts have a stored contribution vector."""
        return len(self._contributions)

    def contribution(self, text: str) -> CategoryMass:
        """Category mass one advert text adds to the score of its page."""
        vector = self._contributions.get(text)
        if vector is not None:
            return vector
        terms = self.term_filter.terms(text)
        mass: dict[str, Fraction] = {}
        for term, count in Counter(terms).items():
            for category, share in self.shares.get(term, ()):
                mass[category] = mass.get(category, 0) + count * share
        # sum(share * count / length) == sum(share * count) / length, exactly.
        vector = tuple((category, m / len(terms)) for category, m in mass.items())
        if text in self._seen:
            self._seen.discard(text)
            self._contributions[text] = vector
        else:
            self._seen.add(text)
        return vector


@dataclass(frozen=True)
class ScoreVector:
    step: int
    scores: dict[str, Fraction]


def train(
    corpus: list[LabeledAdvert],
    categories: CategorySet,
    term_filter: TermFilter | None = None,
) -> PriModel:
    if not corpus:
        raise ValidationError("cannot train on an empty corpus")
    flt = term_filter or default_filter()
    for advert in corpus:
        if advert.label not in categories:
            raise ValidationError(f"corpus label {advert.label!r} not in categories")

    dictionary = build_dictionary(corpus, flt)
    labels = categories.all_labels
    total: dict[str, Fraction] = {t: _ZERO for t in dictionary}
    per_category: dict[str, dict[str, Fraction]] = {
        t: dict.fromkeys(labels, _ZERO) for t in dictionary
    }

    # Each copy of an identical (label, text) pair adds the same frequencies.
    for advert, copies in Counter(corpus).items():
        terms = flt.terms(advert.text)
        for term, count in Counter(terms).items():
            freq = Fraction(count * copies, len(terms))
            total[term] += freq
            per_category[term][advert.label] += freq

    seen_labels = {advert.label for advert in corpus}
    empty = tuple(c for c in labels if c not in seen_labels)
    return PriModel(
        categories=categories,
        dictionary=dictionary,
        stats=TermStats(total=total, per_category=per_category),
        term_filter=flt,
        empty_categories=empty,
    )


def score(
    model: PriModel,
    adverts: Sequence[str | Advert],
    step: int = 0,
) -> ScoreVector:
    """Score one page of adverts against every category."""
    scores = dict.fromkeys(model.categories.all_labels, _ZERO)
    for advert in adverts:
        text = advert.text if isinstance(advert, Advert) else advert
        for category, value in model.contribution(text):
            scores[category] += value
    return ScoreVector(step=step, scores=scores)


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
    if not (text.isascii() and text.isdigit()):
        raise ValidationError(f"model line {lineno}: bad term id {text!r}")
    return int(text)


def parse_model(lines: Iterable[str], term_filter: TermFilter | None = None) -> PriModel:
    it = iter(lines)
    try:
        header = next(it).rstrip("\n")
    except StopIteration:
        raise ValidationError("empty model file") from None
    if header != MODEL_HEADER:
        raise ValidationError(f"unsupported model header {header!r}")

    sensitive: tuple[str, ...] | None = None
    catchall = "other"
    empty: tuple[str, ...] = ()
    mapping: dict[str, int] = {}
    id_to_term: dict[int, str] = {}
    totals: dict[str, Fraction] = {}
    per_category: dict[str, dict[str, Fraction]] = {}

    for lineno, raw in enumerate(it, start=2):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        kind, _, rest = line.partition("\t")
        if kind == "categories":
            sensitive = tuple(c for c in rest.split(",") if c)
        elif kind == "catchall":
            catchall = rest
        elif kind == "empty":
            empty = tuple(c for c in rest.split(",") if c)
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

    if sensitive is None:
        raise ValidationError("model file lacks a categories line")
    categories = CategorySet(sensitive=sensitive, catchall=catchall)
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
        term_filter=term_filter or default_filter(),
        empty_categories=empty,
    )


def load_model(path: str | Path, term_filter: TermFilter | None = None) -> PriModel:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read model {path}: {exc}") from exc
    return parse_model(lines, term_filter)
