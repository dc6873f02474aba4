"""Golden statistics, worked-page scores, and oracle/property checks."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pri.corpus import Advert, CategorySet, Dictionary, LabeledAdvert
from pri.errors import ValidationError
from pri.config import read_lines
from pri.estimator import (
    PriModel,
    TermRow,
    TermStats,
    parse_model,
    save_model,
    score,
    train,
    write_model,
)
from pri.textproc import TermFilter, filter_terms

from conftest import GOLDEN_DICTIONARY, GOLDEN_PAGE_ADVERT
from oracle import frequency, reference_model, reference_score_texts


@pytest.fixture(scope="module")
def golden_model(golden_corpus, golden_categories, golden_filter):
    return train(golden_corpus, golden_categories)


class TestGoldenTraining:
    def test_dictionary_has_thirteen_terms(self, golden_model):
        assert set(golden_model.dictionary) == GOLDEN_DICTIONARY
        assert len(golden_model.dictionary) == 13

    def test_topic_exclusive_terms(self, golden_model):
        stats = golden_model.stats
        for term in ("prostat", "cancer"):
            assert stats.total[term] == F(5, 12)
            assert stats.per_category[term]["prostate"] == F(5, 12)
            assert stats.per_category[term]["other"] == 0

    def test_first_advert_singletons(self, golden_model):
        stats = golden_model.stats
        for term in ("possibl", "learn", "here"):
            assert stats.total[term] == F(1, 6)
            assert stats.per_category[term]["prostate"] == F(1, 6)

    def test_terms_shared_across_categories(self, golden_model):
        stats = golden_model.stats
        for term in ("treat", "suffer"):
            assert stats.total[term] == F(5, 12)
            assert stats.per_category[term]["prostate"] == F(1, 4)
            assert stats.per_category[term]["other"] == F(1, 6)
        assert stats.total["risk"] == F(5, 12)
        assert stats.per_category["risk"]["prostate"] == F(1, 6)
        assert stats.per_category["risk"]["other"] == F(1, 4)

    def test_catchall_exclusive_terms(self, golden_model):
        stats = golden_model.stats
        assert stats.total["diabet"] == F(5, 12)
        assert stats.total["discov"] == F(5, 12)
        assert stats.per_category["diabet"]["prostate"] == 0
        for term in ("revers", "natur"):
            assert stats.total[term] == F(1, 6)

    def test_single_occurrence_in_four_term_advert(self, golden_model):
        # One occurrence over a 4-term advert is 1/4 -- asserted from the
        # training data itself, not from any externally quoted figure.
        assert golden_model.stats.total["lifetim"] == F(1, 4)
        assert golden_model.stats.per_category["lifetim"]["other"] == F(1, 4)

    def test_per_category_values_partition_totals(self, golden_model):
        stats = golden_model.stats
        for term, total in stats.total.items():
            assert sum(stats.per_category[term].values()) == total


class TestGoldenScoring:
    def test_worked_page_topic_score(self, golden_model):
        vector = score(golden_model, [GOLDEN_PAGE_ADVERT])
        assert vector.scores["prostate"] == F(8, 25)

    def test_worked_page_catchall_score(self, golden_model):
        vector = score(golden_model, [GOLDEN_PAGE_ADVERT])
        assert vector.scores["other"] == F(2, 25)

    def test_worked_page_matches_oracle(self, golden_corpus, golden_model):
        pairs = [(ad.label, ad.text) for ad in golden_corpus]
        flt = TermFilter()
        for category in ("prostate", "other"):
            expected = reference_score_texts(
                pairs, [GOLDEN_PAGE_ADVERT], category, flt.terms
            )
            assert score(golden_model, [GOLDEN_PAGE_ADVERT]).scores[category] == expected

    def test_out_of_dictionary_page_scores_zero(self, golden_model):
        vector = score(golden_model, ["unrelated gardening equipment sale"])
        assert all(v == 0 for v in vector.scores.values())

    def test_empty_page_scores_zero(self, golden_model):
        vector = score(golden_model, [])
        assert set(vector.scores) == {"prostate", "other"}
        assert all(v == 0 for v in vector.scores.values())


class TestTrainingEdges:
    def test_single_advert_half_frequencies(self):
        categories = CategorySet(sensitive=(), catchall="other")
        model = train([LabeledAdvert("other", "help advice")], categories)
        assert model.stats.total["help"] == F(1, 2)
        assert model.stats.per_category["help"]["other"] == F(1, 2)

    def test_empty_corpus_rejected(self, golden_categories):
        with pytest.raises(ValidationError, match="empty corpus"):
            train([], golden_categories)

    def test_all_stopword_corpus_rejected(self, golden_categories):
        with pytest.raises(ValidationError, match="no content terms"):
            train([LabeledAdvert("other", "the of and")], golden_categories)

    def test_category_without_adverts_is_flagged(self, golden_categories):
        model = train([LabeledAdvert("other", "holiday deals")], golden_categories)
        assert model.empty_categories == ("prostate",)
        assert score(model, ["holiday deals"]).scores["prostate"] == 0

    def test_duplicate_text_accumulates(self):
        categories = CategorySet(sensitive=(), catchall="other")
        model = train(
            [LabeledAdvert("other", "holiday deals"),
             LabeledAdvert("other", "holiday deals")],
            categories,
        )
        assert model.stats.total["holidai"] == F(1, 2) + F(1, 2)


# ---------------------------------------------------------------------------
# randomized equivalence against the reference double loop
# ---------------------------------------------------------------------------

_WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo "
    "lima mike november oscar papa quebec romeo sierra tango uniform victor "
    "whiskey xray yankee zulu"
).split()

_LABELS = ("sports", "travel", "music", "other")


def _random_corpus(rng: random.Random) -> list[tuple[str, str]]:
    n_adverts = rng.randint(1, 12)
    corpus = []
    for _ in range(n_adverts):
        words = rng.choices(_WORDS, k=rng.randint(1, 8))
        corpus.append((rng.choice(_LABELS), " ".join(words)))
    return corpus


def test_random_corpora_match_reference_oracle():
    rng = random.Random(20140423)
    categories = CategorySet(sensitive=_LABELS[:-1], catchall="other")
    flt = TermFilter()
    for _ in range(60):
        corpus = _random_corpus(rng)
        model = train([LabeledAdvert(l, t) for l, t in corpus], categories)
        page = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 6)))
                for _ in range(rng.randint(0, 5))]
        vector = score(model, page)
        for label in _LABELS:
            expected = reference_score_texts(corpus, page, label, flt.terms)
            assert vector.scores[label] == expected


def test_repeated_corpus_pairs_match_reference_oracle():
    # Training adds each distinct (label, text) pair once, scaled by its
    # copies; the oracle walks every copy.
    rng = random.Random(20140424)
    categories = CategorySet(sensitive=_LABELS[:-1], catchall="other")
    flt = TermFilter()
    for _ in range(40):
        corpus = [pair for pair in _random_corpus(rng)
                  for _ in range(rng.randint(1, 3))]
        rng.shuffle(corpus)
        model = train([LabeledAdvert(l, t) for l, t in corpus], categories)
        page = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 6)))
                for _ in range(rng.randint(1, 5))]
        vector = score(model, page)
        for label in _LABELS:
            expected = reference_score_texts(corpus, page, label, flt.terms)
            assert vector.scores[label] == expected


def test_cached_and_first_seen_texts_match_reference_oracle():
    rng = random.Random(20140425)
    categories = CategorySet(sensitive=_LABELS[:-1], catchall="other")
    flt = TermFilter()
    for _ in range(30):
        corpus = _random_corpus(rng)
        model = train([LabeledAdvert(l, t) for l, t in corpus], categories)
        page = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 6)))
                for _ in range(rng.randint(1, 5))]
        first = score(model, page)
        # The same texts on another page: the per-text memo answers them.
        again = page + page[:1]
        second = score(model, again)
        assert model.cached_texts == len(set(page))
        fresh = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 6)))
                 for _ in range(rng.randint(1, 3))]
        for texts, vector in ((page, first), (again, second),
                              (page[:2] + fresh, score(model, page[:2] + fresh))):
            for label in _LABELS:
                expected = reference_score_texts(corpus, texts, label, flt.terms)
                assert vector.scores[label] == expected


def test_pages_with_one_multiset_of_contributions_share_one_vector():
    rng = random.Random(7)
    categories = CategorySet(sensitive=_LABELS[:-1], catchall="other")
    flt = TermFilter()
    corpus = _random_corpus(rng)
    model = train([LabeledAdvert(l, t) for l, t in corpus], categories)
    page = ["alpha bravo", "charlie", "alpha bravo", "delta echo foxtrot"]
    # First and second sightings of its texts: the page is not stored.
    assert score(model, page) == score(model, page)
    assert model.page_scores == {}
    stored = score(model, [Advert(text) for text in reversed(page)])
    assert len(model.page_scores) == 1
    assert score(model, page) is stored
    # Texts with the same terms contribute the same, whatever their wording.
    assert score(model, ["Alpha, bravo!"] + page[1:]) is stored
    assert score(model, page[:3]) is not stored
    for label in _LABELS:
        assert stored.scores[label] == reference_score_texts(
            corpus, page, label, flt.terms)


def test_texts_scored_once_leave_the_cache_empty(golden_corpus, golden_categories):
    model = train(golden_corpus, golden_categories)
    texts = [f"prostate treatment {word}" for word in _WORDS]
    for text in texts:
        score(model, [text])
    assert model.cached_texts == 0
    score(model, texts[:3])
    assert model.cached_texts == 3
    assert model.page_scores == {}


def _assert_matches_oracle(model, corpus, page, flt):
    vector = score(model, page)
    assert list(vector.scores) == list(model.categories.all_labels)
    for label in model.categories.all_labels:
        expected = reference_score_texts(corpus, page, label, flt.terms)
        assert vector.scores[label] == expected
    return vector


def test_integer_kernels_match_reference_oracle():
    # Pages mix filtered lengths 1 to 12, an advert with no terms, one with
    # no dictionary terms, and texts already cached with first-seen ones;
    # "music" never occurs in training, so it is an empty category.
    rng = random.Random(20140426)
    categories = CategorySet(sensitive=_LABELS[:-1], catchall="other")
    flt = TermFilter()
    for _ in range(25):
        corpus = [(rng.choice(("sports", "travel", "other")), text)
                  for _, text in _random_corpus(rng)]
        model = train([LabeledAdvert(l, t) for l, t in corpus], categories)
        assert "music" in model.empty_categories
        lengths = list(range(1, 13))
        rng.shuffle(lengths)
        page = [" ".join(rng.choices(_WORDS, k=n)) for n in lengths[:6]]
        page += ["the of and", "gardening equipment sale"]
        assert sorted(len(flt.terms(t)) for t in page) == sorted(
            [0, 3] + lengths[:6])
        first = _assert_matches_oracle(model, corpus, page, flt)
        assert first.scores["music"] == 0
        assert _assert_matches_oracle(model, corpus, page, flt) == first
        fresh = [" ".join(rng.choices(_WORDS, k=n)) for n in lengths[6:]]
        mixed = page[:4] + fresh + page[4:]
        _assert_matches_oracle(model, corpus, mixed, flt)


def test_training_on_duplicated_pairs_survives_the_model_file():
    rng = random.Random(20140427)
    categories = CategorySet(sensitive=_LABELS[:-1], catchall="other")
    flt = TermFilter()
    for _ in range(20):
        corpus = [pair for pair in _random_corpus(rng)
                  for _ in range(rng.randint(1, 4))]
        rng.shuffle(corpus)
        model = train([LabeledAdvert(l, t) for l, t in corpus], categories)
        training = [(label, flt.terms(text)) for label, text in corpus]
        dictionary = set(model.dictionary)
        for term in model.dictionary:
            for label in _LABELS:
                assert model.stats.per_category[term][label] == sum(
                    (frequency(term, terms, dictionary)
                     for l, terms in training if l == label), F(0))
        buffer = StringIO()
        write_model(model, buffer)
        again = parse_model(buffer.getvalue().splitlines())
        assert again.stats == model.stats
        assert again.share_denominators == model.share_denominators
        assert again.shares == model.shares
        page = [" ".join(rng.choices(_WORDS, k=rng.randint(1, 12)))
                for _ in range(rng.randint(1, 5))]
        assert _assert_matches_oracle(again, corpus, page, flt) == score(model, page)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

advert_strategy = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=8)
corpus_strategy = st.lists(
    st.tuples(st.sampled_from(_LABELS), advert_strategy), min_size=1, max_size=10
)
page_strategy = st.lists(advert_strategy, min_size=0, max_size=5)


def _make_model(corpus):
    categories = CategorySet(sensitive=_LABELS[:-1], catchall="other")
    adverts = [LabeledAdvert(label, " ".join(words)) for label, words in corpus]
    return train(adverts, categories)


@given(corpus=corpus_strategy, page=page_strategy)
@settings(max_examples=80, deadline=None)
def test_scores_sum_to_page_dictionary_mass(corpus, page):
    model = _make_model(corpus)
    page_texts = [" ".join(words) for words in page]
    vector = score(model, page_texts)
    flt = TermFilter()
    expected_mass = F(0)
    for text in page_texts:
        terms = flt.terms(text)
        in_dict = [t for t in terms if t in model.dictionary]
        if terms:
            expected_mass += F(len(in_dict), len(terms))
    assert sum(vector.scores.values()) == expected_mass


@given(corpus=corpus_strategy, page=page_strategy)
@settings(max_examples=60, deadline=None)
def test_scores_bounded_by_page_size(corpus, page):
    model = _make_model(corpus)
    vector = score(model, [" ".join(words) for words in page])
    for value in vector.scores.values():
        assert 0 <= value <= len(page)


@given(corpus=corpus_strategy, page=page_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_adding_supporting_advert_never_lowers_score(corpus, page, data):
    model = _make_model(corpus)
    label = data.draw(st.sampled_from(_LABELS))
    supporting = [
        term for term, by_cat in model.stats.per_category.items()
        if by_cat.get(label, 0) > 0
    ]
    if not supporting:
        return
    extra_terms = data.draw(
        st.lists(st.sampled_from(sorted(supporting)), min_size=1, max_size=6)
    )
    page_texts = [" ".join(words) for words in page]
    before = score(model, page_texts).scores[label]
    after = score(model, page_texts + [" ".join(extra_terms)]).scores[label]
    assert after >= before


@given(corpus=corpus_strategy, page=page_strategy)
@settings(max_examples=60, deadline=None)
def test_float_value_is_the_exact_score_rounded(corpus, page):
    vector = score(_make_model(corpus), [" ".join(words) for words in page])
    for category in _LABELS:
        assert vector.value(category) == float(vector.scores[category])


# Weights over denominators of 170-185 digits: the share denominators D_c of
# a 2,400-advert corpus of distinct texts have about 180.
_HUGE = st.integers(10**170, 10**185)


@st.composite
def _huge_model(draw) -> PriModel:
    categories = CategorySet(sensitive=_LABELS[:-1], catchall="other")
    terms = sorted({filter_terms(word)[0] for word in _WORDS[:8]})
    rows = {}
    for term in terms:
        denominators = draw(st.lists(_HUGE, min_size=len(_LABELS),
                                     max_size=len(_LABELS), unique=True))
        common = math.lcm(*denominators)
        weights = tuple(draw(st.integers(1, 10**185)) * (common // denominator)
                        for denominator in denominators)
        rows[term] = TermRow(common, sum(weights), weights)
    return PriModel(
        categories=categories,
        dictionary=Dictionary({term: i for i, term in enumerate(terms)}),
        rows=rows,
    )


@given(model=_huge_model(), page=page_strategy)
@settings(max_examples=60, deadline=None)
def test_float_value_is_exact_with_huge_denominators(model, page):
    assert max(model.share_denominators.values()) >= 10**170
    vector = score(model, [" ".join(words) for words in page])
    for category in _LABELS:
        assert vector.value(category) == float(vector.scores[category])


# Stopwords among the words: some adverts filter to no terms at all.
_training_corpus = st.lists(
    st.tuples(st.sampled_from(_LABELS),
              st.lists(st.sampled_from(_WORDS[:12] + ["the", "and"]),
                       min_size=1, max_size=8),
              st.integers(1, 3)),
    min_size=1, max_size=12)


@given(corpus=_training_corpus)
@settings(max_examples=80, deadline=None)
def test_integer_model_matches_the_fraction_reference(corpus):
    pairs = [(label, " ".join(words)) for label, words, copies in corpus
             for _ in range(copies)]
    expected = reference_model(pairs, _LABELS[:-1], "other", TermFilter().terms)
    adverts = [LabeledAdvert(label, text) for label, text in pairs]
    categories = CategorySet(sensitive=_LABELS[:-1], catchall="other")
    if not expected["total"]:
        with pytest.raises(ValidationError, match="no content terms"):
            train(adverts, categories)
        return
    model = train(adverts, categories)
    buffer = StringIO()
    write_model(model, buffer)
    assert buffer.getvalue() == expected["text"]
    again = parse_model(buffer.getvalue().splitlines())
    for got in (model, again):
        assert got.stats == TermStats(expected["total"],
                                      expected["per_category"])
        assert got.share_denominators == expected["share_denominators"]
        assert got.shares == expected["shares"]
        rewritten = StringIO()
        write_model(got, rewritten)
        assert rewritten.getvalue() == expected["text"]


def test_training_and_saving_derive_no_shares(golden_corpus, golden_categories,
                                              tmp_path):
    # Only scoring reads the shares; `pri train` never pays for them.
    model = train(golden_corpus, golden_categories)
    save_model(model, tmp_path / "model.txt")
    derived = {"shares", "share_denominators", "stats"}
    assert not derived & set(vars(model))
    score(model, [GOLDEN_PAGE_ADVERT])
    assert {"shares", "share_denominators"} <= set(vars(model))


def test_the_fraction_view_is_built_once(golden_model):
    # A loop over terms that reads model.stats builds the view once.
    assert golden_model.stats is golden_model.stats


def test_equal_scores_compare_equal_over_different_lcms(golden_model):
    # "here" over one term and "here here" over two: the same scores, kept
    # unreduced over different page lcms.
    one = score(golden_model, ["here"])
    doubled = score(golden_model, ["here here"])
    assert (one.common, doubled.common) == (1, 2)
    assert one.numerators != doubled.numerators
    assert one == doubled
    assert one != score(golden_model, ["diabetes"])


def test_scoring_is_deterministic(golden_model):
    a = score(golden_model, [GOLDEN_PAGE_ADVERT, "diabetes care"])
    b = score(golden_model, [GOLDEN_PAGE_ADVERT, "diabetes care"])
    assert a == b


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------


def test_model_round_trip(golden_model, tmp_path):
    buffer = StringIO()
    write_model(golden_model, buffer)
    text = buffer.getvalue()
    assert text.startswith("#pri-model v1\n")

    reloaded = parse_model(text.splitlines())
    assert reloaded.categories == golden_model.categories
    assert list(reloaded.dictionary) == list(golden_model.dictionary)
    assert reloaded.stats == golden_model.stats

    path = tmp_path / "model.txt"
    path.write_text(text, encoding="utf-8")
    assert parse_model(read_lines(path)).stats == golden_model.stats


def test_model_round_trip_is_canonical(golden_model):
    first = StringIO()
    write_model(golden_model, first)
    second = StringIO()
    write_model(parse_model(first.getvalue().splitlines()), second)
    assert first.getvalue() == second.getvalue()


def test_model_rejects_bad_header():
    with pytest.raises(ValidationError):
        parse_model(["#pri-model v9", "dict\t0\thelp"])


def _one_term_model(stat: str) -> PriModel:
    return parse_model(["#pri-model v1", "categories\ta", "catchall\tother",
                        "dict\t0\tfoo", f"stat\t0\t{stat}"])


# A model rational reads as Fraction(int(p), int(q)) does: int()'s grammar
# on each side, and a negative denominator moves the sign to the numerator.
@pytest.mark.parametrize("stat, total, a", [
    ("1/2\ta=-1/-2", F(1, 2), F(1, 2)),
    ("3/ 4\ta=3/4", F(3, 4), F(3, 4)),
    ("-6/-8\ta=+3/4", F(3, 4), F(3, 4)),
    ("1_0/4\ta=5/2", F(5, 2), F(5, 2)),
    ("1/1\ta= 1/ 2,other=-1/-2 ", F(1), F(1, 2)),
    ("2/4\ta=0/-7,other=1/2", F(1, 2), F(0)),
])
def test_model_rationals_read_as_int_pairs(stat, total, a):
    model = _one_term_model(stat)
    assert model.stats.total["foo"] == total
    assert model.stats.per_category["foo"]["a"] == a


@pytest.mark.parametrize("stat, message", [
    ("1/-2\ta=1/2", "model line 5: total must be positive"),
    ("0/5\ta=1/2", "model line 5: total must be positive"),
    ("3/0\ta=1/1", "model line 5: bad rational '3/0'"),
    ("3\ta=1/1", "model line 5: bad rational '3'"),
    ("1/2/3\ta=1/1", "model line 5: bad rational '1/2/3'"),
    ("1/x\ta=1/0", "model line 5: bad rational '1/x'"),
    ("1/1\ta=1/0", "model line 5: bad rational '1/0'"),
    ("1/1\ta=1/-2,other=3/2", "model line 5: negative weight"),
    ("1/1\ta=1/0,a=1/1", "model line 5: bad rational '1/0'"),
    ("1/1\ta=-1/2,a=1/0", "model line 5: negative weight"),
    ("1/1\ta=1/2,a=-1/2", "model line 5: duplicate category 'a'"),
    ("1/1\ta=1/3", "model stats for 'foo' do not sum to total"),
    ("1/1\ta=1/3,zzz=2/3",
     "model stats for 'foo' name undeclared categories ['zzz']"),
    ("1/1\ta=1/" + "1" * 5000, "model line 5: bad rational"),
])
def test_model_rational_errors(stat, message):
    with pytest.raises(ValidationError) as info:
        _one_term_model(stat)
    assert str(info.value).startswith(message)


def test_dictionary_ids_follow_first_occurrence(golden_corpus,
                                                golden_categories):
    dictionary = train(golden_corpus, golden_categories).dictionary
    assert dictionary.terms[:3] == ("prostat", "cancer", "possibl")
    assert dictionary.terms.index("prostat") == 0
    assert dictionary.terms[2] == "possibl"
    # Repeated adverts are trained once per distinct pair; ids still follow
    # each term's first advert in corpus order.
    corpus = [golden_corpus[3], golden_corpus[1], golden_corpus[3],
              *golden_corpus]
    expected = dict.fromkeys(t for ad in corpus for t in filter_terms(ad.text))
    assert train(corpus, golden_categories).dictionary.terms == tuple(expected)
