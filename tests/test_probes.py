"""Candidate ranking, ambiguity ratios, and probe selection policy."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pri.corpus import Advert, ResultPage
from pri.errors import ValidationError
from pri.probes import (
    DEFAULT_PROBES,
    AmbiguityEntry,
    default_ambiguity_report,
    extract_candidates,
    parse_ambiguity_csv,
    revealing_topics,
    select_probe,
)
from pri.textproc import filter_terms


def _page(*advert_texts, links=()):
    return ResultPage(
        links=tuple(links),
        adverts=tuple(Advert(t) for t in advert_texts),
    )


# Result counts as published: (topic, N, N(c,p1), N(c,p2)) with
# p1 = "symptoms and causes", p2 = "help and advice".  The expected percentage
# columns are frozen alongside.
AMBIGUITY_ROWS = [
    ("anorexia", 28_500_000, 834_000, 1_780_000, 3, 6),
    ("bankrupt", 86_900_000, 434_000, 48_600_000, 0, 56),
    ("diabetes", 267_000_000, 66_500_000, 114_000_000, 25, 43),
    ("disabled", 506_000_000, 26_000_000, 159_000_000, 5, 31),
    ("divorce", 185_000_000, 11_100_000, 79_700_000, 6, 43),
    ("gambling", 103_000_000, 526_000, 30_600_000, 1, 30),
    ("gay", 782_000_000, 9_530_000, 119_000_000, 1, 15),
    ("location", 1_930_000_000, 72_200_000, 373_000_000, 4, 19),
    ("payday", 70_300_000, 45_900_000, 6_570_000, 65, 9),
    ("prostate", 83_300_000, 14_700_000, 12_500_000, 18, 15),
    ("unemployed", 54_800_000, 619_000, 48_100_000, 1, 88),
]


class TestCandidateRanking:
    def test_planted_frequencies_rank_exactly(self):
        # Brute-force oracle: counts planted 5:3:1 for help/advice/symptom.
        pages = [
            _page("help help advice symptom", "help advice"),
            _page("help help advice"),
        ]
        oracle = Counter()
        for page in pages:
            for advert in page.adverts:
                oracle.update(filter_terms(advert.text))
        assert oracle == {"help": 5, "advic": 3, "symptom": 1}
        assert extract_candidates(pages) == [
            ("help", 5), ("advic", 3), ("symptom", 1),
        ]

    def test_dominant_term_ranks_first(self):
        pages = [_page("help with help and more help", "advice on symptoms")]
        assert extract_candidates(pages)[0] == ("help", 3)

    def test_single_repeated_advert(self):
        assert extract_candidates([_page("advice advice")]) == [("advic", 2)]

    def test_links_count_toward_frequency(self):
        pages = [
            _page("advice", links=[("symptom checker", "symptom signs symptom")])
        ]
        assert extract_candidates(pages)[0] == ("symptom", 3)

    def test_tie_breaks_lexicographic(self):
        assert extract_candidates([_page("zebra apple zebra apple")]) == [
            ("appl", 2), ("zebra", 2)]

    def test_top_k_truncates(self):
        pages = [_page("alpha beta gamma delta epsilon")]
        assert len(extract_candidates(pages, top_k=3)) == 3

    def test_empty_pages_rejected(self):
        with pytest.raises(ValidationError):
            extract_candidates([])

    @given(st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_ranking_invariant_to_page_order(self, rng):
        pages = [
            _page("help advice"),
            _page("symptom symptom checker"),
            _page("advice advice advice"),
        ]
        baseline = extract_candidates(pages)
        shuffled = list(pages)
        rng.shuffle(shuffled)
        assert extract_candidates(shuffled) == baseline


def ambiguity_ratio(n_topic, n_topic_probe):
    return AmbiguityEntry("topic", "probe", n_topic, n_topic_probe).ratio


class TestAmbiguityRatio:
    def test_anorexia_row(self):
        ratio = ambiguity_ratio(28_500_000, 834_000)
        assert ratio == pytest.approx(0.02926, abs=1e-5)
        assert round(100 * ratio) == 3

    def test_bankrupt_row_rounds_to_zero(self):
        ratio = ambiguity_ratio(86_900_000, 434_000)
        assert ratio == pytest.approx(0.004994, abs=1e-6)
        assert round(100 * ratio) == 0

    def test_equal_counts(self):
        assert ambiguity_ratio(7, 7) == 1.0

    @pytest.mark.parametrize("counts, message", [
        ("0,5", "topic result count must be positive"),
        ("10,-1", "probe result count cannot be negative"),
        ("x,5", "result counts must be integers, not 'x' and '5'"),
        ("10", "result counts must be integers, not '10' and None"),
    ])
    def test_bad_counts_rejected_when_read(self, counts, message):
        # A bad row is rejected, naming its line, although no selection
        # looks its pair up.
        text = ("topic,probe,n_topic,n_topic_probe\n"
                "payday,help and advice,100,50\n"
                f"zzz,unused probe,{counts}\n")
        with pytest.raises(ValidationError,
                           match=f"^ambiguity CSV line 3: {message}$"):
            parse_ambiguity_csv(text.splitlines())

    def test_all_published_percentages_reproduce(self):
        report = default_ambiguity_report()
        p1, p2 = DEFAULT_PROBES
        for topic, n, np1, np2, pct1, pct2 in AMBIGUITY_ROWS:
            entry1 = report[topic, p1]
            entry2 = report[topic, p2]
            assert (entry1.n_topic, entry1.n_topic_probe) == (n, np1)
            assert (entry2.n_topic, entry2.n_topic_probe) == (n, np2)
            assert round(100 * entry1.ratio) == pct1
            assert round(100 * entry2.ratio) == pct2

    @given(
        st.integers(1, 10**9),
        st.integers(0, 10**9),
        st.integers(2, 1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, n, np_, k):
        assert ambiguity_ratio(n * k, np_ * k) == pytest.approx(
            ambiguity_ratio(n, np_)
        )


class TestSelection:
    MEDICAL = ("anorexia", "diabetes", "prostate")
    NON_MEDICAL = ("bankrupt", "disabled", "divorce", "gay", "location",
                   "payday", "unemployed")

    def test_medical_group_takes_first_probe(self):
        report = default_ambiguity_report()
        chosen = select_probe(DEFAULT_PROBES, report, self.MEDICAL)
        assert chosen == "symptoms and causes"

    def test_bankrupt_group_falls_through_to_second(self):
        # "symptoms and causes" rounds to 0% for bankrupt, below the 1% floor,
        # so the 56% "help and advice" probe is selected instead.
        report = default_ambiguity_report()
        chosen = select_probe(DEFAULT_PROBES, report, ("bankrupt",))
        assert chosen == "help and advice"

    def test_single_failing_candidate_errors_with_ratios(self):
        report = {("bankrupt", "symptoms and causes"): AmbiguityEntry(
            "bankrupt", "symptoms and causes", 86_900_000, 434_000)}
        with pytest.raises(ValidationError, match="0.0050"):
            select_probe(("symptoms and causes",), report, ("bankrupt",))

    def test_a_pair_without_counts_is_named(self):
        with pytest.raises(ValidationError, match=(
                r"no ambiguity counts for \('zzz', 'symptoms and causes'\)")):
            select_probe(DEFAULT_PROBES, default_ambiguity_report(),
                         ("prostate", "zzz"))

    def test_keyword_collision_screens_probe(self, default_keywords):
        # "help and advice" appears inside the gambling keyword list, so the
        # hygiene rule must reject it for that topic even though its ratio
        # is comfortably high.
        report = default_ambiguity_report()
        with pytest.raises(ValidationError, match="gambling"):
            select_probe(
                ("help and advice",), report, ("gambling",),
                keywords=default_keywords,
            )

    def test_selected_probe_never_contains_group_keywords(self, default_keywords):
        report = default_ambiguity_report()
        chosen = select_probe(
            DEFAULT_PROBES, report, self.MEDICAL, keywords=default_keywords
        )
        chosen_terms = set(filter_terms(chosen))
        for topic in self.MEDICAL:
            topic_terms = {
                t for phrase in default_keywords[topic]
                for t in filter_terms(phrase)
            }
            assert not chosen_terms & topic_terms

    def test_revealing_topics_over_every_bundled_topic(self, default_keywords):
        topics = sorted(default_keywords)
        assert revealing_topics("symptoms and causes", default_keywords,
                                topics) == []
        assert revealing_topics("help and advice", default_keywords,
                                topics) == ["gambling", "payday"]
        # A topic without phrases has no terms to reveal.
        assert revealing_topics("payday loans", {}, ["payday"]) == []

    def test_empty_probe_list_rejected(self):
        with pytest.raises(ValidationError):
            select_probe((), default_ambiguity_report(), ("payday",))


class TestCsvRoundTrips:
    def test_ambiguity_csv_parses_to_report(self):
        text = ("topic,probe,n_topic,n_topic_probe,ratio\n"
                "anorexia,symptoms and causes,28500000,834000,0.029263\n"
                "payday,help and advice,70300000,6570000,0.093457\n")
        assert parse_ambiguity_csv(text.splitlines()) == {
            ("anorexia", "symptoms and causes"): AmbiguityEntry(
                "anorexia", "symptoms and causes", 28_500_000, 834_000),
            ("payday", "help and advice"): AmbiguityEntry(
                "payday", "help and advice", 70_300_000, 6_570_000),
        }

    def test_a_repeated_pair_keeps_its_first_row(self):
        # The first row passes the 1% floor and the repeat would not.
        text = ("topic,probe,n_topic,n_topic_probe\n"
                "payday,help and advice,100,50\n"
                "payday,help and advice,100,0\n")
        report = parse_ambiguity_csv(text.splitlines())
        assert report == {("payday", "help and advice"): AmbiguityEntry(
            "payday", "help and advice", 100, 50)}
        assert select_probe(("help and advice",), report,
                            ("payday",)) == "help and advice"

    def test_missing_columns_rejected(self):
        with pytest.raises(ValidationError):
            parse_ambiguity_csv(["topic,probe", "payday,x"])

    def test_counts_file_covers_all_topics_and_probes(self):
        report = default_ambiguity_report()
        probes = tuple(dict.fromkeys(probe for _, probe in report))
        assert probes == DEFAULT_PROBES
        assert len(report) == 22
