"""Tokenizer, stopword, and stemmer behaviour, frozen where it matters."""

from __future__ import annotations

import random
from itertools import islice, permutations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import reference_stem
from pri.porter import stem
from pri.textproc import TermFilter, default_stopwords, filter_terms, tokenize


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("Prostate Cancer, possibly?") == [
            "prostate", "cancer", "possibly",
        ]

    def test_hyphens_split(self):
        assert tokenize("help-and-advice") == ["help", "and", "advice"]

    def test_digits_kept(self):
        assert tokenize("24hr payday loans 100%") == ["24hr", "payday", "loans", "100"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("?!...") == []


class TestFilter:
    def test_worked_example(self):
        assert filter_terms("Prostate Cancer, possibly?") == [
            "prostat", "cancer", "possibl",
        ]

    def test_stopwords_dropped_keeps_order(self):
        assert filter_terms("Prostate cancer: possibly at risk? Learn here!") == [
            "prostat", "cancer", "possibl", "risk", "learn", "here",
        ]

    def test_repeated_terms_preserved(self):
        assert filter_terms("risk risk risk") == ["risk", "risk", "risk"]

    def test_all_stopwords_filters_to_nothing(self):
        assert filter_terms("is it on and off") == []

    def test_post_stem_stopword_pass(self):
        # "ies" alone stems to "i", which is a stopword and must not leak.
        assert filter_terms("ies") == []

    def test_token_memo_matches_a_fresh_filter(self):
        # Each of "ies", "thes", "hes" and "shes" stems to a stopword; the
        # token memo must keep them dropped in every later text.
        stopwords = default_stopwords()
        texts = ["ies ponies thes", "hes ies risk", "ponies ies shes risk",
                 "ies ponies thes"]
        warm = TermFilter()
        for _ in range(2):
            for text in texts:
                expected = [stem(t) for t in tokenize(text)
                            if t not in stopwords and stem(t) not in stopwords]
                assert warm.terms(text) == expected == TermFilter().terms(text)
        assert warm.terms("ies ponies thes") == ["poni"]

    def test_state_grows_with_tokens_not_texts(self):
        # 2,000 distinct texts over 20 words: a filter remembers each word's
        # term, never a text.
        words = ("alpha bravo charlie delta echo foxtrot golf hotel india "
                 "juliet kilo lima mike november oscar papa quebec romeo "
                 "sierra tango").split()
        texts = [" ".join(triple)
                 for triple in islice(permutations(words, 3), 2000)]
        assert len(set(texts)) == 2000
        flt = TermFilter()
        for text in texts:
            flt.terms(text)
        shared = default_stopwords()
        sizes = {name: len(value) for name, value in vars(flt).items()
                 if value is not shared}
        assert sizes and all(size <= len(words) for size in sizes.values()), sizes


def _domain_words() -> list[str]:
    """Every word the bundled data files and generators can emit into pages.

    Probe wording is deliberately absent: probes are fixed strings filtered
    exactly once on the query path, and "causes" re-stems (caus -> cau)
    like any word whose stem ends in a bare -s.
    """
    from pri.scripts import CONNECTIVES, load_default_keywords, load_trending_queries
    from pri.simulator import LINK_WORDS, build_ad_pools

    keywords = load_default_keywords()
    texts: list[str] = [p for phrases in keywords.values() for p in phrases]
    texts += load_trending_queries()
    texts += list(CONNECTIVES)
    texts += list(LINK_WORDS)
    for pool in build_ad_pools(keywords, "other").values():
        texts += [ad.text for ad in pool]
    words = sorted({w for text in texts for w in tokenize(text)})
    assert len(words) > 200
    return words


def test_filter_is_idempotent_over_bundled_vocabulary():
    # Exhaustive, not sampled: every word any bundled data source can produce.
    for word in _domain_words():
        once = filter_terms(word)
        assert filter_terms(" ".join(once)) == once, word


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_filter_is_idempotent_on_domain_word_lists(data):
    words = data.draw(
        st.lists(st.sampled_from(_domain_words()), min_size=0, max_size=12)
    )
    once = filter_terms(" ".join(words))
    assert filter_terms(" ".join(once)) == once


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=60))
@settings(max_examples=120, deadline=None)
def test_filtered_output_shape(text):
    stopwords = default_stopwords()
    for term in filter_terms(text):
        assert term
        assert term not in stopwords
        assert term == term.lower()
        assert term.isalnum()


class TestStemmer:
    def test_short_tokens_untouched(self):
        for word in ("uk", "cv", "tv", "a", "i", "go"):
            assert stem(word) == word

    def test_numeric_tokens_untouched(self):
        assert stem("24hr") == "24hr"
        assert stem("100") == "100"

    def test_plurals(self):
        assert stem("caresses") == "caress"
        assert stem("ponies") == "poni"
        assert stem("ties") == "ti"
        assert stem("cats") == "cat"
        assert stem("sufferers") == "suffer"
        assert stem("symptoms") == "symptom"

    def test_past_and_progressive(self):
        assert stem("agreed") == "agre"
        assert stem("plastered") == "plaster"
        assert stem("motoring") == "motor"
        assert stem("hopping") == "hop"
        assert stem("falling") == "fall"
        assert stem("filing") == "file"
        assert stem("treated") == "treat"
        assert stem("eating") == "eat"
        assert stem("gambling") == "gambl"
        assert stem("counselling") == "counsel"
        assert stem("disabled") == "disabl"

    def test_y_to_i(self):
        assert stem("happy") == "happi"
        assert stem("sky") == "sky"
        assert stem("payday") == "paydai"
        assert stem("therapy") == "therapi"

    def test_compound_suffixes(self):
        assert stem("relational") == "relat"
        assert stem("conditional") == "condit"
        assert stem("rational") == "ration"
        assert stem("urination") == "urin"
        assert stem("separation") == "separ"
        assert stem("accessibility") == "access"
        assert stem("insolvency") == "insolv"
        assert stem("dependency") == "depend"
        assert stem("possibly") == "possibl"
        assert stem("naturally") == "natur"

    def test_bare_ment_strips_at_measure_one(self):
        # Deliberately stronger than the textbook rule (see pri.porter).
        assert stem("treatment") == "treat"
        assert stem("recruitment") == "recruit"
        assert stem("employment") == "employ"
        assert stem("government") == "govern"

    def test_ement_and_short_stems_keep_classic_rule(self):
        assert stem("element") == "element"
        assert stem("basement") == "basement"
        assert stem("moment") == "moment"

    def test_final_e_handling(self):
        assert stem("probate") == "probat"
        assert stem("rate") == "rate"
        assert stem("cease") == "ceas"
        assert stem("here") == "here"
        assert stem("lifetime") == "lifetim"
        assert stem("choose") == "choos"
        assert stem("advice") == "advic"
        assert stem("lose") == "lose"

    def test_double_l(self):
        assert stem("controlling") == "control"
        assert stem("uncontrollable") == "uncontrol"

    def test_topic_vocabulary_stems(self):
        assert stem("prostate") == "prostat"
        assert stem("diabetes") == "diabet"
        assert stem("insolvent") == "insolv"
        assert stem("bankruptcy") == "bankruptci"
        assert stem("causes") == "caus"
        assert stem("patient") == "patient"
        assert stem("patients") == "patient"
        assert stem("safer") == "safer"
        assert stem("discover") == "discov"
        assert stem("reversal") == "revers"


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=15))
@settings(max_examples=200, deadline=None)
def test_stem_total_and_shrinking(word):
    result = stem(word)
    assert result == stem(word)
    assert 0 < len(result) <= len(word)
    assert result.isalpha()


# ---------------------------------------------------------------------------
# differential checks against the per-character reference stemmer
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parent.parent / "src" / "pri" / "data"

# Every suffix of the reference's step-2, -3 and -4 rule tables.
RULE_SUFFIXES = sorted({
    suffix
    for table in (oracle._STEP2_RULES, oracle._STEP3_RULES, oracle._STEP4_RULES)
    for bucket in table.values()
    for suffix, _, _ in bucket
})
# Endings the other steps test for, and y runs.
OTHER_ENDINGS = ("sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl",
                 "iz", "y", "e", "ll", "ion", "sion", "tion", "yy", "yyy",
                 "ey", "eyed", "")
INFLECTIONS = ("", "s", "ed", "ing")
ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def stem_mismatches(words) -> list[tuple[str, str, str]]:
    """(word, stem, reference stem) of each word the two stemmers split on."""
    return [(word, stem(word), reference_stem(word)) for word in words
            if stem(word) != reference_stem(word)]


def generated_words(count: int, seed: int) -> list[str]:
    """``count`` root + ending (+ inflection) words, then the short, y-run,
    -ed / -ing and digit tokens every run must include."""
    rng = random.Random(seed)
    # Vowels and y weighted up, so that stems of every measure come out.
    letters = ALPHABET + "aeiouy" * 3
    endings = RULE_SUFFIXES + list(OTHER_ENDINGS)
    words = []
    for _ in range(count):
        root = "".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        words.append(root + rng.choice(endings) + rng.choice(INFLECTIONS))
    words += ["syyy", "eyed", "yyy", "ayy", "sky", "y", "ye", "yes"]
    # Step 1b's tidy-up on every final letter: doubled, after CVC, after VC.
    words += [f"{root}{letter}{inflection}" for letter in ALPHABET
              for root in (f"bu{letter}", "ha", "a", "bea")
              for inflection in ("ed", "ing")]
    words += [a + b for a in ALPHABET for b in ["", *ALPHABET]]
    words += ["100", "24hr"] + [f"re{digit}{suffix}" for digit in "0123456789"
                                for suffix in RULE_SUFFIXES]
    return words


def test_stem_matches_reference_on_every_bundled_token():
    paths = [path for path in sorted(DATA.rglob("*")) if path.is_file()]
    words = sorted({word for path in paths
                    for word in tokenize(path.read_text(encoding="utf-8"))})
    assert len(paths) >= 6 and len(words) > 400
    assert stem_mismatches(words) == []


def test_stem_matches_reference_on_generated_words():
    words = generated_words(100_000, seed=2026)
    for suffix in RULE_SUFFIXES:
        assert any(word.endswith(suffix) for word in words), suffix
    assert {"syyy", "eyed", "a", "ab", "re0ational"} <= set(words)
    assert stem_mismatches(words) == []


@given(st.one_of(
    st.text(alphabet=ALPHABET + "0123456789", max_size=20),
    st.builds(
        lambda root, ending, inflection: root + ending + inflection,
        st.text(alphabet=ALPHABET + "y" * 5, max_size=8),
        st.sampled_from(RULE_SUFFIXES + list(OTHER_ENDINGS)),
        st.sampled_from(INFLECTIONS),
    ),
))
@settings(max_examples=400, deadline=None)
def test_stem_matches_reference_on_any_token(word):
    assert stem(word) == reference_stem(word)
