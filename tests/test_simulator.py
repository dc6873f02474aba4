"""Engine behaviour: belief updates, lag, page composition, pools, links."""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pri.corpus import CategorySet
from pri.errors import UsageError, ValidationError
from pri.scripts import click_decision, generate_script, keyword_catalog
from pri.simulator import (
    AD_TAIL,
    ENGINE_PRESETS,
    LINK_WORDS,
    LINKS_PER_PAGE,
    SHARED_FINANCE_ADS,
    EngineConfig,
    EngineTables,
    apportion_slots,
    build_ad_pools,
    diversity_slice,
    expected_distinct,
    links_for_query,
    load_engine_config,
    new_engine,
    parse_prior_knowledge,
)
from pri.textproc import filter_terms, term_set

from oracle import (
    ReferenceBelief,
    ReferenceEngine,
    ReferenceOverflow,
    reference_apportion_slots,
)


@pytest.fixture(scope="module")
def pools(default_keywords):
    return build_ad_pools(default_keywords, "other")


@pytest.fixture(scope="module")
def pool_texts(pools):
    return {label: tuple(ad.text for ad in pool) for label, pool in pools.items()}


@pytest.fixture(scope="module")
def categories(default_keywords):
    return CategorySet(tuple(sorted(default_keywords)), "other")


def engine_for(config, pools, categories, seed):
    return new_engine(EngineTables(config, pools, categories), seed)


def google_config(**overrides) -> EngineConfig:
    base = dict(adaptation_lag=0, click_boost=2.0, ads_per_page=4,
                pool_diversity=3.3, prior_knowledge="other:100")
    base.update(overrides)
    return EngineConfig(**base)


def composition(page, pools) -> Counter:
    """Count page adverts by the pool(s) their text belongs to."""
    out: Counter = Counter()
    for ad in page.adverts:
        labels = sorted(l for l, pool in pools.items() if ad in pool)
        out["+".join(labels)] += 1
    return out


class TestEngineConfig:
    def test_defaults_are_valid(self):
        EngineConfig()

    @pytest.mark.parametrize("field,value", [
        ("adaptation_lag", -1),
        ("click_boost", 0.0),
        ("ads_per_page", 0),
        ("pool_diversity", 0.0),
        ("prior_knowledge", "other"),
        ("prior_knowledge", "other:abc"),
        ("prior_knowledge", "other:-3"),
    ])
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValidationError):
            google_config(**{field: value})

    def test_prior_parsing(self):
        assert parse_prior_knowledge("") == {}
        assert parse_prior_knowledge("other:100") == {"other": 100.0}
        assert parse_prior_knowledge(" other:100 , payday:2.5 ") == {
            "other": 100.0, "payday": 2.5,
        }

    @staticmethod
    def engine_file(tmp_path, text):
        path = tmp_path / "engine.cfg"
        path.write_text(text, encoding="utf-8")
        return path

    def test_file_values_are_converted_by_type(self, tmp_path):
        config = load_engine_config(self.engine_file(tmp_path, (
            "adaptation_lag = 3\nclick_boost = 2.0\nads_per_page = 3\n"
            "pool_diversity = 1.7\nprior_knowledge = other:100\n")))
        assert config == EngineConfig(3, 2.0, 3, 1.7, "other:100")
        assert type(config.adaptation_lag) is int
        assert type(config.pool_diversity) is float

    def test_file_rejects_unknown_keys(self, tmp_path):
        path = self.engine_file(tmp_path, "lag = 3\n")
        with pytest.raises(ValidationError,
                           match=re.escape(
                               f"{path}: unknown engine setting 'lag'")):
            load_engine_config(path)

    def test_file_rejects_bad_types(self, tmp_path):
        path = self.engine_file(tmp_path, "adaptation_lag = 2.5\n")
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: bad value for adaptation_lag: '2.5'")):
            load_engine_config(path)


class TestEnginePresets:
    def test_google_like(self):
        config = load_engine_config("google_like")
        assert config == EngineConfig(0, 2.0, 4, 3.3, "other:100")

    def test_bing_like(self):
        config = load_engine_config("bing_like")
        assert config == EngineConfig(3, 2.0, 3, 1.7, "other:100")

    def test_seed_is_not_a_setting(self, tmp_path):
        # Every engine takes its seed as an argument: a run's --seed, or
        # the session's derived engine seed.
        custom = tmp_path / "seeded.cfg"
        custom.write_text("seed = 99\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="unknown engine setting 'seed'"):
            load_engine_config(custom)

    def test_unknown_name_is_usage_error(self):
        with pytest.raises(UsageError, match="no-such-engine"):
            load_engine_config("no-such-engine")

    def test_file_with_include_overrides(self, tmp_path):
        (tmp_path / "base.cfg").write_text(
            "adaptation_lag = 1\nads_per_page = 4\n", encoding="utf-8"
        )
        custom = tmp_path / "custom.cfg"
        custom.write_text("include base.cfg\nads_per_page = 2\n", encoding="utf-8")
        config = load_engine_config(custom)
        assert config.adaptation_lag == 1
        assert config.ads_per_page == 2


class TestDiversity:
    def test_closed_form_matches_enumeration(self):
        # Exact oracle: enumerate every draw sequence for small pools.
        for pool_size, draws in itertools.product(range(1, 5), range(1, 5)):
            total = Fraction(0)
            for seq in itertools.product(range(pool_size), repeat=draws):
                total += len(set(seq))
            exact = total / pool_size**draws
            assert abs(expected_distinct(pool_size, draws) - exact) < 1e-12

    def test_slice_for_broad_rotation(self):
        # Four draws from eight adverts average ~3.31 distinct.
        assert diversity_slice(8, 4, 3.3) == 8

    def test_slice_for_narrow_rotation(self):
        # Three draws from two adverts average 1.75 distinct.
        assert diversity_slice(8, 3, 1.7) == 2

    def test_ties_prefer_smaller_slices(self):
        # With a single draw every slice size yields exactly one distinct ad.
        assert diversity_slice(8, 1, 1.0) == 1

    @given(st.integers(1, 8), st.integers(1, 6), st.floats(0.5, 8.0))
    @settings(max_examples=80, deadline=None)
    def test_slice_always_in_pool(self, pool_size, draws, target):
        assert 1 <= diversity_slice(pool_size, draws, target) <= pool_size


class TestApportionment:
    def test_counts_sum_to_slots(self):
        weights = {"a": 0.3, "b": 1.1, "c": 0.02}
        counts = apportion_slots(weights, ("a", "b", "c"), 5)
        assert sum(counts.values()) == 5

    def test_dominant_weight_takes_every_slot(self):
        weights = {"other": 100 / 111} | {f"s{i}": 1 / 111 for i in range(11)}
        counts = apportion_slots(weights, tuple(weights), 4)
        assert counts["other"] == 4

    def test_remainder_tie_follows_category_order(self):
        weights = {"a": 1.0, "b": 1.0}
        assert apportion_slots(weights, ("a", "b"), 1) == {"a": 1, "b": 0}
        assert apportion_slots(weights, ("b", "a"), 1) == {"b": 1, "a": 0}

    def test_zero_total_rejected(self):
        with pytest.raises(ValidationError):
            apportion_slots({"a": 0.0}, ("a",), 3)

    @given(
        st.lists(st.floats(0.001, 50.0), min_size=1, max_size=8),
        st.integers(1, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_sums_and_floors(self, raw, slots):
        order = tuple(f"c{i}" for i in range(len(raw)))
        weights = dict(zip(order, raw))
        counts = apportion_slots(weights, order, slots)
        assert sum(counts.values()) == slots
        total = sum(raw)
        for label, weight in weights.items():
            assert counts[label] >= int(slots * weight / total)

    @given(
        st.lists(
            st.floats(0.001, 50.0) | st.sampled_from((0.5, 1.0, 2.0, 3.0, 1 / 12)),
            min_size=1, max_size=8,
        ),
        st.integers(1, 8),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_including_remainder_ties(self, raw, slots, rng):
        # Repeated weights give exactly equal remainders; the shuffled order
        # decides who wins those ties.
        labels = [f"c{i}" for i in range(len(raw))]
        weights = dict(zip(labels, raw))
        rng.shuffle(labels)
        order = tuple(labels)
        counts = apportion_slots(weights, order, slots)
        assert counts == reference_apportion_slots(weights, order, slots)
        assert list(counts) == list(order)


class TestAdPools:
    def test_every_category_has_eight_adverts(self, pools, default_keywords):
        assert set(pools) == set(default_keywords) | {"other"}
        for pool in pools.values():
            assert len(pool) == 8

    def test_sensitive_adverts_carry_the_tail(self, pool_texts):
        for label, pool in pool_texts.items():
            if label == "other":
                continue
            for ad in pool:
                if ad not in SHARED_FINANCE_ADS:
                    assert ad.endswith(AD_TAIL), (label, ad)

    def test_related_finance_pools_share_generic_copy(self, pool_texts):
        assert pool_texts["payday"][5:] == SHARED_FINANCE_ADS
        assert pool_texts["bankrupt"][5:] == SHARED_FINANCE_ADS

    def test_catchall_pool_is_one_term_multiset(self, pool_texts):
        reference = Counter(filter_terms(pool_texts["other"][0]))
        for ad in pool_texts["other"]:
            assert Counter(filter_terms(ad)) == reference
        # Eight distinct surface strings nonetheless.
        assert len(set(pool_texts["other"])) == 8

    def test_own_adverts_share_a_term_multiset_per_category(self, pool_texts):
        for label, pool in pool_texts.items():
            own = [ad for ad in pool if ad not in SHARED_FINANCE_ADS]
            reference = Counter(filter_terms(own[0]))
            for ad in own:
                assert Counter(filter_terms(ad)) == reference, label



class TestLinks:
    def test_shape(self):
        links = links_for_query("prostate cancer")
        assert len(links) == LINKS_PER_PAGE
        for title, snippet in links:
            assert len(title.split()) == 3
            assert len(snippet.split()) == 5
            assert set(title.split()) | set(snippet.split()) <= set(LINK_WORDS)

    def test_rank_stable_per_query(self):
        assert links_for_query("payday loans") == links_for_query("payday loans")

    def test_queries_get_distinct_links(self):
        assert links_for_query("payday loans") != links_for_query("divorce")


class TestEngineServing:
    def test_uniform_belief_without_prior(self, pools, categories):
        engine = engine_for(google_config(prior_knowledge=""), pools,
                            categories, 7)
        belief = engine.belief()
        assert abs(sum(belief.values()) - 1.0) < 1e-12
        for weight in belief.values():
            assert abs(weight - 1 / 12) < 1e-12

    def test_prior_concentrates_belief(self, pools, categories):
        engine = engine_for(google_config(), pools, categories, 7)
        belief = engine.belief()
        assert abs(belief["other"] - 100 / 111) < 1e-12
        assert abs(belief["prostate"] - 1 / 111) < 1e-12
        assert abs(sum(belief.values()) - 1.0) < 1e-12

    def test_prior_naming_unknown_category_rejected(self, pools, categories):
        config = google_config(prior_knowledge="shoes:5")
        with pytest.raises(ValidationError, match="shoes"):
            EngineTables(config, pools, categories)

    def test_prior_whose_sum_overflows_rejected(self, pools, categories):
        config = google_config(prior_knowledge="payday:1e308,other:1e308")
        with pytest.raises(ValidationError, match="prior_knowledge"):
            EngineTables(config, pools, categories)
        # Weights near the limit whose sum stays finite still normalise.
        tables = EngineTables(google_config(prior_knowledge="other:1e308"),
                              pools, categories)
        assert tables.prior["other"] == 1.0

    def test_cold_page_is_pure_catchall(self, pools, categories):
        engine = engine_for(google_config(), pools, categories, 7)
        page = engine.submit_query("symptoms and causes")
        assert composition(page, pools) == {"other": 4}

    def test_one_query_yields_two_topic_slots(self, pools, categories):
        engine = engine_for(google_config(), pools, categories, 7)
        engine.submit_query("prostate cancer")
        page = engine.submit_query("symptoms and causes")
        assert composition(page, pools) == {"prostate": 2, "other": 2}

    def test_query_increment_is_exactly_one(self, pools, categories):
        engine = engine_for(google_config(), pools, categories, 7)
        engine.submit_query("prostate cancer")
        engine.submit_query("prostate cancer")
        assert abs(engine.belief()["prostate"] - (1 / 111 + 2.0)) < 1e-12

    def test_click_doubles_weight(self, pools, categories):
        engine = engine_for(google_config(), pools, categories, 7)
        engine.submit_query("prostate cancer")
        page = engine.submit_query("symptoms and causes")
        before = engine.belief()["prostate"]
        clicked = [
            slot for slot, ad in enumerate(page.adverts)
            if ad in pools["prostate"]
        ]
        engine.register_clicks(clicked[:1])
        assert abs(engine.belief()["prostate"] - 2 * before) < 1e-12

    def test_clicks_saturate_the_page(self, pools, categories):
        engine = engine_for(google_config(), pools, categories, 7)
        engine.submit_query("prostate cancer")
        page = engine.submit_query("symptoms and causes")
        for step in ({"prostate": 3, "other": 1}, {"prostate": 4}):
            engine.register_clicks([slot for slot, ad in enumerate(page.adverts)
                                    if ad in pools["prostate"]])
            page = engine.submit_query("symptoms and causes")
            assert composition(page, pools) == step

    def test_probe_text_never_updates_belief(self, pools, categories):
        engine = engine_for(google_config(), pools, categories, 7)
        before = engine.belief()
        for _ in range(6):
            engine.submit_query("symptoms and causes")
        assert engine.belief() == before

    def test_empty_query_is_inert(self, pools, categories):
        engine = engine_for(google_config(), pools, categories, 7)
        before = engine.belief()
        engine.submit_query("the of and")
        assert engine.belief() == before

    def test_shared_wording_updates_both_finance_categories(
        self, pools, categories
    ):
        engine = engine_for(google_config(), pools, categories, 7)
        engine.submit_query("payday advice")
        belief = engine.belief()
        assert belief["payday"] > 1.0
        # "advice" also sits in the gambling support vocabulary.
        assert belief["gambling"] > 1.0
        assert abs(belief["prostate"] - 1 / 111) < 1e-12

    @pytest.mark.parametrize("lag", [0, 1, 2, 3])
    def test_adaptation_lag_delays_first_topic_advert(
        self, pools, categories, lag
    ):
        engine = engine_for(google_config(adaptation_lag=lag), pools,
                            categories, 7)
        first_mixed = None
        for page_number in range(1, 10):
            page = engine.submit_query("divorce separation")
            if composition(page, pools) != {"other": 4}:
                first_mixed = page_number
                break
        assert first_mixed == lag + 2

    def test_click_update_obeys_the_same_lag(self, pools, categories):
        engine = engine_for(google_config(adaptation_lag=1), pools,
                            categories, 7)
        compositions = []
        page = engine.submit_query("divorce separation")
        for _ in range(6):
            engine.register_clicks([slot for slot, ad in enumerate(page.adverts)
                                    if ad in pools["divorce"]])
            page = engine.submit_query("divorce separation")
            compositions.append(composition(page, pools)["divorce"])
        # Pages: cold, cold (lag), 2 slots, then clicks compound two pages on.
        assert compositions[0] == 0
        assert compositions[1] == 2
        assert compositions[-1] == 4

    def test_same_seed_reproduces_the_session(self, pools, categories):
        def run():
            engine = engine_for(google_config(), pools, categories, 42)
            pages = []
            for query in ("symptoms and causes", "payday cheap",
                          "payday advice", "symptoms and causes"):
                page = engine.submit_query(query)
                engine.register_clicks([slot for slot, ad in enumerate(page.adverts)
                                        if ad in pools["payday"]])
                pages.append((tuple(ad.text for ad in page.adverts), page.links))
            return pages

        assert run() == run()

    def test_links_stay_fixed_while_adverts_adapt(self, pools, categories):
        engine = engine_for(google_config(), pools, categories, 7)
        cold = engine.submit_query("bankrupt insolvency")
        for _ in range(5):
            engine.submit_query("bankrupt insolvency")
        warm = engine.submit_query("bankrupt insolvency")
        assert cold.links == warm.links
        assert composition(cold, pools) != composition(warm, pools)

    @staticmethod
    def payday_adverts(config, pools) -> list[str]:
        """Texts served in payday slots while payday queries raise its weight."""
        engine = engine_for(config, pools, CategorySet(("payday",), "other"), 7)
        served = []
        for _ in range(40):
            page = engine.submit_query("cheap payday advice")
            served += [ad.text for ad in page.adverts
                       if ad not in pools["other"]]
        return served

    def test_narrow_slice_excludes_shared_copy(self, pools, pool_texts):
        config = EngineConfig(3, 2.0, 3, 1.7, "other:100")
        served = self.payday_adverts(config, pools)
        assert served
        assert set(served) <= set(pool_texts["payday"][:2])
        assert not set(served) & set(SHARED_FINANCE_ADS)

    def test_broad_slice_keeps_whole_pool(self, pools, pool_texts):
        served = self.payday_adverts(google_config(), pools)
        assert set(served) == set(pool_texts["payday"])

    def test_query_matches_follow_each_engines_slices(self, pools, categories):
        # Only the shared loan copy carries these terms: broad slices hold
        # it, narrow ones do not.  The broad engine answers first, so a match
        # remembered without the engine's vocabulary would leak into the
        # narrow one.
        narrow = EngineConfig(0, 2.0, 3, 1.7, "other:100")
        raised = {}
        for name, config in (("broad", google_config()), ("narrow", narrow)):
            engine = engine_for(config, pools, categories, 7)
            before = engine.belief()
            engine.submit_query("lenders approved in minutes")
            after = engine.belief()
            raised[name] = {label for label in before if after[label] > before[label]}
        assert raised == {"broad": {"payday", "bankrupt"}, "narrow": set()}

    def test_a_sum_that_overflows_only_across_the_slots_is_an_error(
            self, pools, categories):
        # The clicked catch-all weight, 100/111 * 1e308, and the weights'
        # sum stay finite, but apportioning four slots multiplies by 4.
        engine = engine_for(google_config(click_boost=1e308), pools,
                            categories, 7)
        page = engine.submit_query("symptoms and causes")
        assert composition(page, pools) == {"other": 4}
        with pytest.raises(ValidationError, match=(
                r"click_boost = 1e\+308 makes the 'other' weight overflow")):
            engine.register_clicks([0])
        total = sum(engine.belief().values())
        assert math.isfinite(total) and not math.isfinite(4 * total)


class TestEngineTables:
    def test_engines_share_the_tables_slices_and_answers(self, pools, categories):
        # Narrow slices: two of each pool's eight adverts.
        tables = EngineTables(EngineConfig(0, 2.0, 3, 1.7, ""), pools,
                              categories)
        first, second = new_engine(tables, 1), new_engine(tables, 2)
        for query in ("payday advice", "symptoms and causes", "payday advice"):
            pages = [engine.submit_query(query) for engine in (first, second)]
            links, labels = tables.answer(query)
            assert pages[0].links is pages[1].links is links
            for engine, page in zip((first, second), pages):
                for label, advert in zip(engine._last_served, page.adverts,
                                         strict=True):
                    assert any(advert is ad for ad in tables.slices[label])
        # Each engine changes its own copy of the prior, never the tables'.
        assert "payday" in labels
        assert first.belief() == second.belief() != tables.prior
        assert new_engine(tables, 3).belief() == tables.prior == {
            label: 1 / 12 for label in categories.all_labels}


class TestSlotLabelMemo:
    @pytest.mark.parametrize("preset", ENGINE_PRESETS)
    def test_slot_labels_follow_the_belief_at_every_step(
            self, preset, pools, categories, default_keywords):
        # A page's slots are apportioned again only after the weights
        # change; at every step they must equal a fresh apportionment of the
        # belief the page is served from.
        catalog = keyword_catalog(default_keywords, "other")
        config = load_engine_config(preset)
        order = categories.all_labels
        steps = changes = 0
        for seed, topic in enumerate(("gambling", "payday", "location", "other")):
            engine = engine_for(config, pools, categories, seed)
            script = generate_script(catalog[topic], "symptoms and causes",
                                     random.Random(seed))
            previous = None
            for entry in script.entries:
                counts = reference_apportion_slots(
                    engine.belief(), order, config.ads_per_page)
                expected = tuple(label for label in order
                                 for _ in range(counts[label]))
                page = engine.submit_query(entry.text)
                assert engine._last_served == expected
                steps += 1
                changes += expected != previous
                previous = expected
                if not entry.is_probe:
                    engine.register_clicks([
                        slot for slot, advert in enumerate(page.adverts)
                        if click_decision(advert.text, catalog[topic])])
        # The sessions exercise both a kept and a recomputed apportionment.
        assert 4 < changes < steps


def engine_actions(slots: int):
    """Up to 30 actions: ("query", an index into TestOneUpdatePath.queries)
    or ("click", slots of a page with `slots` adverts)."""
    return st.lists(st.one_of(
        st.tuples(st.just("query"), st.integers(0, 12)),
        st.tuples(st.just("click"),
                  st.lists(st.integers(0, slots - 1), min_size=1, max_size=4)),
    ), max_size=30)


class TestOneUpdatePath:
    """Queries and clicks, at every lag, go through one pending queue."""

    # Index 0-10 a topic's first phrase, then the probe, then a query that
    # matches payday and gambling at once.
    @staticmethod
    def queries(default_keywords) -> list[str]:
        return ([default_keywords[topic][0] for topic in sorted(default_keywords)]
                + ["symptoms and causes", "payday advice"])

    @given(
        lag=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        actions=engine_actions(4),
    )
    @settings(max_examples=150, deadline=None)
    def test_belief_matches_the_replayed_log(
            self, pools, categories, default_keywords, lag, seed, actions):
        config = google_config(adaptation_lag=lag)
        assert diversity_slice(8, config.ads_per_page,
                               config.pool_diversity) == 8
        queries = self.queries(default_keywords)
        order = categories.all_labels
        engine = engine_for(config, pools, categories, seed)
        reference = ReferenceBelief(engine.belief(), lag, config.click_boost)
        slots = None
        for action, value in actions:
            if action == "query":
                counts = reference_apportion_slots(
                    reference.belief(), order, config.ads_per_page)
                slots = [label for label in order
                         for _ in range(counts[label])]
                page = engine.submit_query(queries[value])
                for label, advert in zip(slots, page.adverts, strict=True):
                    assert advert in pools[label]
                # Broad slices: a query matches every pool sharing a term.
                terms = set(filter_terms(queries[value]))
                reference.query(
                    label for label in order
                    if any(terms & set(filter_terms(ad.text))
                           for ad in pools[label]))
            elif slots is None:
                continue
            else:
                engine.register_clicks(value)
                for slot in value:
                    reference.click(slots[slot])
            assert engine.belief() == reference.belief()


def outcome(call, error_type):
    """(the call's result, None), or (None, its error's message)."""
    try:
        return call(), None
    except error_type as exc:
        return None, str(exc)


class TestEngineMatchesTheReferenceEngine:
    """Pages, beliefs and overflow errors of an `AdEngine` match the oracle's
    engine, which registers and applies one update at a time, for pages of
    one to four adverts and click boosts up to ones that overflow the
    weights within a few clicks."""

    @given(
        lag=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        boost=st.one_of(st.sampled_from([2.0, 1e60, 2e154, 1e200]),
                        st.floats(0.5, 1e250)),
        page_and_actions=st.integers(1, 4).flatmap(
            lambda slots: st.tuples(st.just(slots), engine_actions(slots))),
    )
    @settings(max_examples=150, deadline=None)
    def test_pages_beliefs_and_overflows_match(
            self, pools, categories, default_keywords, lag, seed, boost,
            page_and_actions):
        slots, actions = page_and_actions
        config = google_config(adaptation_lag=lag, click_boost=boost,
                               ads_per_page=slots)
        tables = EngineTables(config, pools, categories)
        order = categories.all_labels
        slices = {label: tuple(ad.text for ad in ads)
                  for label, ads in tables.slices.items()}
        vocab = {label: term_set(texts) for label, texts in slices.items()}

        def matches(query):
            terms = set(filter_terms(query))
            return [label for label in order if terms & vocab[label]]

        engine = new_engine(tables, seed)
        reference = ReferenceEngine(tables.prior, slices, order,
                                    config.ads_per_page, lag, boost, seed,
                                    matches, LINK_WORDS)
        queries = TestOneUpdatePath.queries(default_keywords)
        served = False
        for action, value in actions:
            if action == "query":
                page, error = outcome(
                    lambda: engine.submit_query(queries[value]), ValidationError)
                expected, expected_error = outcome(
                    lambda: reference.submit_query(queries[value]),
                    ReferenceOverflow)
                assert error == expected_error
                if error:
                    break
                assert page.links == expected[0]
                assert [ad.text for ad in page.adverts] == expected[1]
                served = True
            elif served:
                _, error = outcome(
                    lambda: engine.register_clicks(value), ValidationError)
                _, expected_error = outcome(
                    lambda: [reference.register_click(slot) for slot in value],
                    ReferenceOverflow)
                assert error == expected_error
                if error:
                    break
            assert engine.belief() == reference.weights
