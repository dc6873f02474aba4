"""Script generation invariants, the script file format, click emulation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pri.errors import ValidationError
from pri.scripts import (
    CLICK_SHARE,
    CONNECTIVES,
    MIN_PROBES,
    CategoryKeywords,
    QueryScript,
    ScriptEntry,
    click_decision,
    generate_script,
    keyword_catalog,
    load_default_keywords,
    load_trending_queries,
    parse_script,
)
from pri.simulator import build_ad_pools
from pri.textproc import filter_terms

# A session script in the published example's shape: keyword and probe
# directives, waits between queries, the probe text appearing as a bare line.
# The waits are checked and dropped: the simulated engine has no clock.
EXAMPLE_SCRIPT = """\
! keywords: london england uk
! probe: help and advice
help and advice
! wait 7
weather forecast for  london
! wait 5
find hotels in london city
! wait 3
help and advice
! wait 7
cheap hotels in london
! wait 10
hotels in regents park cheap
! wait 7
marriott courtyard regents park
! wait 4
help and advice
! wait 7
things to do london next week
! wait 5
regents park hotels
! wait 7
get cheap london show tickets
! wait 7
shows on london now
! wait 5
tickets  london shows
! wait 7
help and advice
"""

LOCATION = CategoryKeywords("location", ("london", "england", "uk"))


class TestParseExample:
    def test_entry_counts(self):
        script = parse_script(EXAMPLE_SCRIPT.splitlines())
        assert script.keywords == ("london", "england", "uk")
        assert len(script.entries) == 14
        probes = [e.text for e in script.entries if e.is_probe]
        assert probes == ["help and advice"] * 4

    def test_probe_positions_and_gaps(self):
        script = parse_script(EXAMPLE_SCRIPT.splitlines())
        positions = [i + 1 for i, e in enumerate(script.entries) if e.is_probe]
        assert positions == [1, 4, 8, 14]
        assert script.probe_gaps == (2, 3, 5)

    def test_waits_add_no_entry(self):
        script = parse_script(["! probe: x", "x", "! wait 5", "y", "! wait 1"])
        assert script.entries == (ScriptEntry("x", True), ScriptEntry("y", False))

    def test_literal_file_parses_to_expected_script(self):
        text = ("! keywords: london uk\n! probe: help and advice\n"
                "! topic: location\nhelp and advice\n! wait 3\n"
                "cheap hotels in london\n\nhelp and advice\n")
        assert parse_script(text.splitlines()) == QueryScript(
            topic="location",
            entries=(ScriptEntry("help and advice", True),
                     ScriptEntry("cheap hotels in london", False),
                     ScriptEntry("help and advice", True)),
            keywords=("london", "uk"),
        )

    def test_missing_probe_directive_rejected(self):
        with pytest.raises(ValidationError, match="probe"):
            parse_script(["london hotels"])

    def test_bad_wait_rejected(self):
        # A wait is checked although it is not stored: a positive whole number.
        for value in ("soon", "0", "-3", "", "2.5"):
            with pytest.raises(ValidationError, match="line 3: bad wait duration"):
                parse_script(["! probe: x", "x", f"! wait {value}"])

    def test_a_probe_line_above_its_directive_is_a_probe(self):
        script = parse_script(["symptoms and causes", "prostate cancer",
                               "! probe: symptoms and causes",
                               "symptoms and causes"])
        assert script.entries == (ScriptEntry("symptoms and causes", True),
                                  ScriptEntry("prostate cancer", False),
                                  ScriptEntry("symptoms and causes", True))

    @pytest.mark.parametrize("directive", [
        "! probe: help and advice", "! topic: payday", "! keywords: loans"])
    def test_a_second_naming_directive_is_rejected(self, directive):
        name = directive[2:].partition(":")[0]
        lines = ["! probe: x", "! topic: a", "! keywords: k", "x", directive]
        with pytest.raises(ValidationError,
                           match=f"line 5: second '! {name}:' line"):
            parse_script(lines)

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValidationError, match="directive"):
            parse_script(["! probe: x", "! frobnicate: y"])


class TestGeneration:
    def test_same_seed_same_script(self):
        a = generate_script(LOCATION, "help and advice", 1)
        b = generate_script(LOCATION, "help and advice", 1)
        assert a == b

    def test_opens_and_closes_with_probe(self):
        script = generate_script(LOCATION, "help and advice", 1)
        assert script.entries[0].is_probe
        assert script.entries[-1].is_probe

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_invariants_for_any_seed(self, seed):
        script = generate_script(LOCATION, "help and advice", seed)
        assert 25 <= len(script.entries) <= 40
        assert sum(e.is_probe for e in script.entries) >= MIN_PROBES
        for gap in script.probe_gaps:
            assert 1 <= gap <= 5
        # The entries are exactly the queries: the probe and user queries.
        for entry in script.entries:
            assert entry.is_probe == (entry.text == "help and advice")

    def test_min_probes_is_reached(self):
        # MIN_PROBES is a bound derived from the size constants; seed 1362
        # (the only one in 0-2999) draws a script that holds exactly that many.
        assert MIN_PROBES == 5
        script = generate_script(LOCATION, "help and advice", 1362)
        assert sum(e.is_probe for e in script.entries) == MIN_PROBES

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_user_queries_draw_from_keyword_phrases(self, seed):
        script = generate_script(LOCATION, "help and advice", seed)
        keyword_words = {w for p in LOCATION.phrases for w in p.split()}
        connective_words = {w for c in CONNECTIVES for w in c.split()}
        for entry in script.entries:
            if entry.is_probe:
                continue
            words = set(entry.text.split())
            assert words <= keyword_words | connective_words
            assert words & keyword_words

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_catchall_queries_avoid_sensitive_terms(self, seed):
        sensitive_terms = {
            term
            for phrases in load_default_keywords().values()
            for phrase in phrases
            for term in filter_terms(phrase)
        }
        catchall = keyword_catalog(load_default_keywords(), "other")["other"]
        script = generate_script(catchall, "symptoms and causes", seed)
        for entry in script.entries:
            if entry.is_probe:
                continue
            assert not set(filter_terms(entry.text)) & sensitive_terms, entry.text


class TestBundledData:
    def test_eleven_sensitive_categories(self):
        keywords = load_default_keywords()
        assert sorted(keywords) == [
            "anorexia", "bankrupt", "diabetes", "disabled", "divorce",
            "gambling", "gay", "location", "payday", "prostate", "unemployed",
        ]
        for phrases in keywords.values():
            assert phrases

    def test_location_keywords_match_example_directive(self):
        assert load_default_keywords()["location"] == ["london", "england", "uk"]

    def test_fifty_trending_queries(self):
        assert len(load_trending_queries()) == 50

    def test_trending_pool_disjoint_from_sensitive_terms(self):
        sensitive_terms = {
            term
            for phrases in load_default_keywords().values()
            for phrase in phrases
            for term in filter_terms(phrase)
        }
        for query in load_trending_queries():
            assert not set(filter_terms(query)) & sensitive_terms, query

    def test_connectives_disjoint_from_all_topic_vocabularies(self):
        catalog = keyword_catalog(load_default_keywords(), "other")
        connective_terms = {
            t for c in CONNECTIVES for t in filter_terms(c)
        }
        for label, keywords in catalog.items():
            assert not connective_terms & keywords.term_set, label

    def test_catalog_includes_catchall(self):
        catalog = keyword_catalog(load_default_keywords(), "other")
        assert "other" in catalog
        assert len(catalog) == 12
        assert len(catalog["other"].phrases) == 50


class TestClickDecision:
    KEYWORDS = CategoryKeywords("payday", ("payday", "cheap", "unsecured debt"))

    def test_two_hits_in_ten_terms_clicks(self):
        # 10 content terms, 2 keyword hits: TF = 0.2 > 0.1.
        text = ("payday cheap holiday cinema guitar museum puppy laptop "
                "garden festival")
        assert len(filter_terms(text)) == 10
        assert click_decision(text, self.KEYWORDS)

    def test_one_hit_in_ten_terms_does_not_click(self):
        text = ("payday trail holiday cinema guitar museum puppy laptop "
                "garden festival")
        assert not click_decision(text, self.KEYWORDS)

    def test_zero_hits_never_clicks(self):
        assert not click_decision("holiday cinema museum", self.KEYWORDS)

    def test_empty_text_never_clicked(self):
        assert not click_decision("", self.KEYWORDS)
        assert not click_decision("the of and", self.KEYWORDS)

    def test_matching_respects_stemming(self):
        # "debts" stems to the keyword stem of "unsecured debt".
        assert click_decision("debts debts debts", self.KEYWORDS)

    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_hits_for_fixed_length(self, hits_a, hits_b):
        filler = ["holiday", "cinema", "museum", "guitar", "puppy", "laptop",
                  "garden", "festival"]
        def item(hits):
            words = ["payday"] * hits + filler[: 8 - hits]
            return " ".join(words)
        a = click_decision(item(min(hits_a, hits_b)), self.KEYWORDS)
        b = click_decision(item(max(hits_a, hits_b)), self.KEYWORDS)
        if a:
            assert b

    def test_matches_the_direct_rule_on_every_pool_advert(self):
        # Every advert the engine can serve, against every topic's keywords.
        def direct(text, keywords):
            terms = filter_terms(text)
            if not terms:
                return False
            hits = sum(1 for t in terms if t in keywords.term_set)
            return hits / len(terms) > CLICK_SHARE

        catalog = keyword_catalog(load_default_keywords(), "other")
        pools = build_ad_pools(load_default_keywords(), "other")
        pairs = [(ad.text, keywords)
                 for pool in pools.values() for ad in pool
                 for keywords in catalog.values()]
        expected = [direct(text, keywords) for text, keywords in pairs]
        assert any(expected) and not all(expected)
        assert [click_decision(t, p) for t, p in pairs] == expected
