"""Session driving, seed fan-out, and campaign plumbing."""

from __future__ import annotations

import gc
import random
import weakref
from io import StringIO

import pytest

from pri.corpus import CategorySet, parse_capture, write_capture
from pri.detector import calibrate, classify_probe
from pri.errors import ValidationError
from pri.estimator import score, train
from pri import runner
from pri.runner import (
    CampaignConfig,
    derive_seed,
    run_campaign,
    run_session,
    score_probes,
    training_corpus,
)
from pri.scripts import (
    QueryScript,
    ScriptEntry,
    generate_script,
    keyword_catalog,
    parse_script,
)
from pri.simulator import (
    LINK_WORDS,
    AdEngine,
    EngineTables,
    build_ad_pools,
    links_for_query,
    load_engine_config,
    new_engine,
)
from pri.textproc import filter_terms
from test_scripts import EXAMPLE_SCRIPT, LOCATION

from conftest import MINI_KEYWORDS
from oracle import (
    ReferenceEngine,
    ReferenceOverflow,
    reference_click,
    reference_session,
)


def location_engine(default_keywords, seed=3):
    pools = build_ad_pools(default_keywords, "other")
    categories = CategorySet(tuple(sorted(default_keywords)), "other")
    return new_engine(
        EngineTables(load_engine_config("google_like"), pools, categories), seed)


def example_script():
    # The literal leaves the optional "! topic:" directive out, so pin the
    # topic here the way a capture-side caller would.
    return parse_script(EXAMPLE_SCRIPT.splitlines())._replace(topic="location")


class TestSeedFanOut:
    def test_stable_across_processes(self):
        # Hash-derived, so these values never drift with interpreter state.
        assert derive_seed(0, "x") == derive_seed(0, "x")
        assert derive_seed(2026, "train-payday-00:engine") == \
            derive_seed(2026, "train-payday-00:engine")

    def test_channels_are_independent(self):
        seeds = {
            derive_seed(1, "a:engine"), derive_seed(1, "a:script"),
            derive_seed(2, "a:engine"), derive_seed(1, "b:engine"),
        }
        assert len(seeds) == 4

    def test_64_bit_range(self):
        assert 0 <= derive_seed(5, "anything") < 2**64


class TestRunSession:
    def test_example_script_trace_shape(self, default_keywords):
        script = example_script()
        engine = location_engine(default_keywords)
        trace = run_session(engine, script, LOCATION, "manual-location-00")
        assert trace.session_id == "manual-location-00"
        assert trace.topic_label == "location"
        # The file's waits leave no entries, so no interactions either.
        assert len(trace.interactions) == 14
        assert [it.step for it in trace.interactions] == list(range(1, 15))
        assert [it.step for it in trace.probes] == [1, 4, 8, 14]
        for probe in trace.probes:
            assert probe.clicked == ()
            assert probe.query == "help and advice"

    def test_every_generated_entry_is_one_interaction(self, default_keywords):
        script = generate_script(LOCATION, "help and advice", random.Random(4))
        trace = run_session(location_engine(default_keywords), script,
                            LOCATION, "s")
        assert [(it.query, it.is_probe) for it in trace.interactions] == [
            (entry.text, entry.is_probe) for entry in script.entries]

    def test_user_clicks_follow_the_policy(self, default_keywords):
        script = example_script()
        engine = location_engine(default_keywords)
        trace = run_session(engine, script, LOCATION, "s")
        clicked_totals = sum(len(it.clicked) for it in trace.interactions)
        assert clicked_totals > 0
        for it in trace.interactions:
            for position in it.clicked:
                text = it.page.adverts[position].text
                assert {"london", "england", "uk"} & set(text.lower().split())

    def test_no_policy_means_no_clicks(self, default_keywords):
        script = example_script()
        trace = run_session(location_engine(default_keywords), script, None, "s")
        assert all(it.clicked == () for it in trace.interactions)

    def test_probe_free_script_is_fine(self, default_keywords):
        script = QueryScript(
            topic="location",
            entries=(
                ScriptEntry("london hotels", False),
                ScriptEntry("england trains", False),
            ),
        )
        trace = run_session(location_engine(default_keywords), script,
                            None, "probe-free")
        assert len(trace.interactions) == 2
        assert trace.probes == ()


class RecordingEngine(AdEngine):
    """An AdEngine that counts its pages and keeps its weights after every
    call."""

    def __init__(self, tables: EngineTables, seed: int) -> None:
        super().__init__(tables, seed)
        self.pages = 0
        self.beliefs: list[dict[str, float]] = []

    def submit_query(self, query):
        self.pages += 1
        page = super().submit_query(query)
        self.beliefs.append(self.belief())
        return page

    def register_clicks(self, positions):
        super().register_clicks(positions)
        self.beliefs.append(self.belief())


class TestSessionsMatchTheReferenceEngine:
    """`run_session` on an `AdEngine` serves, clicks and believes exactly
    what the oracle's one-update-at-a-time engine and loop do."""

    SEEDS = range(24)

    @staticmethod
    def pair(default_keywords, config, seed, clicks_on):
        """(engine, reference, script, clicking keywords, click rule) for one
        session; the topic cycles over every label with the seed."""
        categories = CategorySet(tuple(sorted(default_keywords)), "other")
        tables = EngineTables(config, build_ad_pools(default_keywords, "other"),
                              categories)
        order = categories.all_labels
        slices = {label: tuple(ad.text for ad in ads)
                  for label, ads in tables.slices.items()}
        vocab = {label: {t for text in texts for t in filter_terms(text)}
                 for label, texts in slices.items()}

        def matches(query):
            terms = set(filter_terms(query))
            return [label for label in order if terms & vocab[label]]

        reference = ReferenceEngine(
            tables.prior, slices, order, config.ads_per_page,
            config.adaptation_lag, config.click_boost, seed, matches, LINK_WORDS)
        catalog = keyword_catalog(default_keywords, "other")
        topic = catalog[order[seed % len(order)]]
        script = generate_script(topic, "symptoms and causes",
                                 random.Random(seed))
        topic_terms = {t for phrase in topic.phrases for t in filter_terms(phrase)}

        def click(text):
            return reference_click(filter_terms(text), topic_terms)

        return (RecordingEngine(tables, seed), reference, script,
                topic if clicks_on else None, click if clicks_on else None)

    @pytest.mark.parametrize("clicks_on", [True, False], ids=["clicks", "no-clicks"])
    @pytest.mark.parametrize("lag", [0, 1, 2, 3])
    @pytest.mark.parametrize("preset", ["google_like", "bing_like"])
    def test_pages_clicks_and_beliefs_match(
            self, default_keywords, preset, lag, clicks_on):
        config = load_engine_config(preset).replace(adaptation_lag=lag)
        clicked_pages = 0
        for seed in self.SEEDS:
            engine, reference, script, keywords, click = self.pair(
                default_keywords, config, seed, clicks_on)
            trace = run_session(engine, script, keywords, f"s{seed}")
            expected = reference_session(
                reference, [(e.text, e.is_probe) for e in script.entries], click)
            beliefs = iter(engine.beliefs)
            for interaction, (links, adverts, clicked, after) in zip(
                    trace.interactions, expected, strict=True):
                assert interaction.page.links == links
                assert tuple(ad.text for ad in interaction.page.adverts) == adverts
                assert interaction.clicked == clicked
                assert [next(beliefs) for _ in after] == after
                clicked_pages += bool(clicked)
            assert next(beliefs, None) is None
        assert (clicked_pages > len(self.SEEDS)) == clicks_on

    @pytest.mark.parametrize("lag", [0, 1, 2, 3])
    @pytest.mark.parametrize("preset", ["google_like", "bing_like"])
    def test_click_boost_overflow_raises_at_the_same_page(
            self, default_keywords, preset, lag):
        config = load_engine_config(preset).replace(adaptation_lag=lag,
                                                    click_boost=1e200)
        # Seed 1 is a bankrupt session, whose adverts get clicked.
        engine, reference, script, keywords, click = self.pair(
            default_keywords, config, 1, True)
        with pytest.raises(ValidationError) as raised:
            run_session(engine, script, keywords, "s")
        with pytest.raises(ReferenceOverflow) as expected:
            reference_session(
                reference, [(e.text, e.is_probe) for e in script.entries], click)
        assert str(raised.value) == str(expected.value)
        assert "'bankrupt' weight overflow" in str(raised.value)
        assert engine.pages == reference.step < len(script.entries)


class TestTrainingCorpus:
    def test_labels_follow_the_session_topic(self, default_keywords):
        script = example_script()
        trace = run_session(location_engine(default_keywords), script, None, "s")
        corpus = training_corpus([trace])
        assert corpus
        assert {advert.label for advert in corpus} == {"location"}
        assert len(corpus) == sum(len(it.page.adverts) for it in trace.interactions)


class TestCampaignConfig:
    def test_defaults_describe_twelve_topics(self):
        config = CampaignConfig()
        assert len(config.categories.all_labels) == 12
        assert config.categories.catchall == "other"
        assert config.probe == "symptoms and causes"

    @pytest.mark.parametrize("overrides", [
        {"keywords": {}},
        {"train_sessions_per_topic": 0},
        {"test_sessions_per_topic": 0},
        {"probe": "   "},
    ])
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(ValidationError):
            CampaignConfig(**overrides)


class TestCampaignTables:
    """A campaign builds one EngineTables, and nothing keeps it after."""

    @staticmethod
    def mini_campaign_recording(monkeypatch, keep):
        """Run the seed-11 mini campaign; keep(tables) for every engine."""
        kept = []

        def recording(tables, seed):
            kept.append(keep(tables))
            return new_engine(tables, seed)

        monkeypatch.setattr(runner, "new_engine", recording)
        config = CampaignConfig(keywords=MINI_KEYWORDS,
                                train_sessions_per_topic=2,
                                test_sessions_per_topic=2)
        return run_campaign(config, master_seed=11), kept

    def test_stored_answers_match_a_direct_recomputation(self, monkeypatch):
        result, kept = self.mini_campaign_recording(monkeypatch, lambda t: t)
        traces = result.training_traces + result.test_traces
        tables = kept[0]
        assert len(kept) == len(traces) and all(t is tables for t in kept)
        queries = {interaction.query
                   for trace in traces for interaction in trace.interactions}
        assert set(tables._answers) == queries
        for query in sorted(queries):
            terms = set(filter_terms(query))
            expected = tuple(
                label for label, ads in tables.slices.items()
                if terms & {t for ad in ads for t in filter_terms(ad.text)})
            assert tables.answer(query) == (links_for_query(query), expected)

    def test_no_tables_outlive_the_campaign(self, monkeypatch):
        _, refs = self.mini_campaign_recording(monkeypatch, weakref.ref)
        gc.collect()
        assert refs and [ref for ref in refs if ref() is not None] == []


class TestCampaign:
    def test_session_id_conventions(self, mini_campaign):
        train_ids = {t.session_id for t in mini_campaign.training_traces}
        test_ids = {t.session_id for t in mini_campaign.test_traces}
        assert not train_ids & test_ids
        assert train_ids == {
            f"train-{topic}-{i:02d}"
            for topic in ("prostate", "divorce", "other") for i in range(2)
        }
        assert all(sid.startswith("test-") for sid in test_ids)

    def test_every_test_session_is_judged(self, mini_campaign):
        ids = {t.session_id for t in mini_campaign.test_traces}
        sessions = mini_campaign.evaluation.sessions
        assert {s.session_id for s in sessions} == ids
        assert len(sessions) == len(ids)
        for session in sessions:
            assert len(session.probe_verdicts) == len(session.scores)
            assert len(session.probe_verdicts) >= 5

    def test_mini_campaign_detects_cleanly(self, mini_campaign):
        evaluation = mini_campaign.evaluation
        assert evaluation.sensitive_rate == 1.0
        assert evaluation.false_positive_rate == 0.0
        for topic in ("prostate", "divorce"):
            assert evaluation.confusion[topic].true_detect == 1.0

    def test_catchall_baseline_is_exact(self, mini_campaign):
        # Catch-all pages all carry one term multiset, so the calibrated
        # spread collapses to a point.
        assert mini_campaign.baseline.per_topic["other"].sigma == 0.0

    def test_same_seed_reproduces_everything(self):
        config = CampaignConfig(keywords=MINI_KEYWORDS,
                                train_sessions_per_topic=2,
                                test_sessions_per_topic=2)
        a = run_campaign(config, master_seed=11)
        b = run_campaign(config, master_seed=11)

        def dump(result):
            out = StringIO()
            write_capture(result.training_traces + result.test_traces, out)
            return out.getvalue()

        assert dump(a) == dump(b)
        assert a.evaluation.sessions == b.evaluation.sessions
        assert a.evaluation.sensitive_rate == b.evaluation.sensitive_rate

    def test_different_seeds_differ(self):
        config = CampaignConfig(keywords=MINI_KEYWORDS,
                                train_sessions_per_topic=2,
                                test_sessions_per_topic=2)
        a = run_campaign(config, master_seed=11)
        b = run_campaign(config, master_seed=12)
        queries_a = [it.query for t in a.test_traces for it in t.interactions]
        queries_b = [it.query for t in b.test_traces for it in t.interactions]
        assert queries_a != queries_b

    def test_verdicts_recomputable_from_serialized_capture(self, mini_campaign):
        # The whole detection side reads nothing but the capture content:
        # round-trip the traces, retrain, and the verdicts come out equal.
        out = StringIO()
        write_capture(mini_campaign.training_traces, out)
        training = parse_capture(out.getvalue().splitlines())
        out = StringIO()
        write_capture(mini_campaign.test_traces, out)
        testing = parse_capture(out.getvalue().splitlines())

        config = mini_campaign.config
        model = train(training_corpus(training), config.categories)
        baseline = calibrate(model, training)
        expected = {s.session_id: s.probe_verdicts
                    for s in mini_campaign.evaluation.sessions}
        for trace in testing:
            verdicts = tuple(
                classify_probe(vector, baseline, config.detector)
                for vector in score_probes(model, trace)
            )
            assert verdicts == expected[trace.session_id]

    def test_score_probes_aligns_with_probe_steps(self, mini_campaign):
        trace = mini_campaign.test_traces[0]
        vectors = score_probes(mini_campaign.model, trace)
        redone = [score(mini_campaign.model, p.page.adverts) for p in trace.probes]
        assert vectors == tuple(redone)
