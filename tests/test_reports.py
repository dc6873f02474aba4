"""Report bundle writing and table rendering."""

from __future__ import annotations

import csv
from io import StringIO
from pathlib import Path

import pytest

from pri.corpus import parse_capture
from pri.detector import (
    ProbeVerdict,
    SessionResult,
    SessionVerdict,
    classify_probe,
    confusion_matrix,
    detection_rates,
    lag_statistics,
    parse_baselines,
)
from pri.estimator import parse_model
from pri.reports import (
    BUNDLE_FILES,
    read_bundle_bytes,
    render_csv,
    render_detections,
    render_text,
    topic_score_matrix,
    write_bundle,
)
from pri.runner import (
    CampaignConfig,
    Evaluation,
    evaluate_capture,
    run_campaign,
    score_probes,
)

from pri.simulator import load_engine_config

from conftest import MINI_KEYWORDS
from oracle import reference_aggregates, reference_topic_score_matrix

# The mini campaign's tables as first written, before the renderers shared
# any code; any change to a renderer's bytes shows up here.
PINNED = Path(__file__).parent / "data" / "mini_campaign_seed11"


@pytest.fixture(scope="module")
def bundle_dir(mini_campaign, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    write_bundle(mini_campaign, out)
    return out


class TestBundle:
    def test_every_artifact_is_written(self, bundle_dir):
        assert sorted(p.name for p in bundle_dir.iterdir()) == sorted(BUNDLE_FILES)

    def test_artifacts_parse_back(self, mini_campaign, bundle_dir):
        model = parse_model((bundle_dir / "model.txt").read_text().splitlines())
        assert model.stats.total == mini_campaign.model.stats.total
        baseline = parse_baselines(
            (bundle_dir / "baselines.txt").read_text().splitlines())
        assert set(baseline.per_topic) == set(mini_campaign.baseline.per_topic)
        # Captures are canonicalized by session id on write.
        by_id = lambda t: t.session_id
        train = parse_capture(
            (bundle_dir / "train.capture").read_text().splitlines())
        test = parse_capture(
            (bundle_dir / "test.capture").read_text().splitlines())
        assert train == sorted(mini_campaign.training_traces, key=by_id)
        assert test == sorted(mini_campaign.test_traces, key=by_id)

    def test_same_seed_bundle_is_byte_identical(self, bundle_dir, tmp_path):
        config = CampaignConfig(keywords=MINI_KEYWORDS,
                                train_sessions_per_topic=2,
                                test_sessions_per_topic=2)
        write_bundle(run_campaign(config, master_seed=11), tmp_path)
        assert read_bundle_bytes(tmp_path) == read_bundle_bytes(bundle_dir)

    def test_confusion_csv_shape(self, bundle_dir):
        rows = list(csv.reader(
            (bundle_dir / "confusion.csv").read_text().splitlines()))
        assert rows[0] == ["topic", "true_detect", "false_other",
                           "true_other", "false_detect"]
        assert [r[0] for r in rows[1:]] == ["divorce", "prostate"]
        for row in rows[1:]:
            values = [float(v) for v in row[1:]]
            assert values[0] + values[1] == pytest.approx(1.0)
            assert values[2] + values[3] == pytest.approx(1.0)

    def test_heatmap_csv_is_square(self, mini_campaign, bundle_dir):
        rows = list(csv.reader(
            (bundle_dir / "heatmap.csv").read_text().splitlines()))
        topics = list(mini_campaign.config.categories.sensitive)
        assert rows[0] == ["session_topic"] + topics
        assert [r[0] for r in rows[1:]] == topics
        matrix = topic_score_matrix(mini_campaign)
        for row in rows[1:]:
            for topic, cell in zip(topics, row[1:]):
                assert float(cell) == matrix[row[0]][topic]

    def test_summary_is_markdown(self, bundle_dir):
        text = (bundle_dir / "summary.md").read_text()
        assert text.startswith("# Campaign report\n")
        for heading in ("## Setup", "## Headline rates",
                        "## Per-topic session rates", "## Misclassification lag"):
            assert heading in text
        assert "master seed: 11" in text

    def test_lag_csv_covers_both_distributions(self, mini_campaign, bundle_dir):
        rows = list(csv.reader(
            (bundle_dir / "lag.csv").read_text().splitlines()))
        stats = {r[0] for r in rows[1:]}
        assert stats == {"run_length", "first_error", "expected_run"}
        expected = [r for r in rows if r[0] == "expected_run"]
        assert float(expected[0][2]) == mini_campaign.evaluation.lag.expected_run


class TestEvaluation:
    def test_matches_campaign_verdicts(self, mini_campaign):
        evaluation = evaluate_capture(
            mini_campaign.model,
            mini_campaign.baseline,
            mini_campaign.test_traces,
            mini_campaign.config.detector,
        )
        assert evaluation == mini_campaign.evaluation

    def test_topic_matrix_diagonal_dominates(self, mini_campaign):
        matrix = topic_score_matrix(mini_campaign)
        for topic, row in matrix.items():
            others = [v for c, v in row.items() if c != topic]
            assert row[topic] > max(others)


class TestFastPaths:
    """The heatmap's integer sums and the per-campaign memos change no byte."""

    def test_topic_matrix_matches_reference(self, mini_campaign):
        assert (topic_score_matrix(mini_campaign)
                == reference_topic_score_matrix(mini_campaign))

    def test_topic_matrix_matches_reference_without_clicks(self):
        config = CampaignConfig(keywords=MINI_KEYWORDS,
                                train_sessions_per_topic=2,
                                test_sessions_per_topic=2,
                                clicks_enabled=False)
        result = run_campaign(config, master_seed=11)
        assert topic_score_matrix(result) == reference_topic_score_matrix(result)

    def test_caches_carry_nothing_between_campaigns(self, bundle_dir, tmp_path):
        def bundle(engine: str, seed: int, name: str) -> dict[str, bytes]:
            config = CampaignConfig(keywords=MINI_KEYWORDS,
                                    train_sessions_per_topic=2,
                                    test_sessions_per_topic=2,
                                    engine=load_engine_config(engine))
            write_bundle(run_campaign(config, master_seed=seed), tmp_path / name)
            return read_bundle_bytes(tmp_path / name)

        cold = bundle("google_like", 11, "cold")
        bundle("bing_like", 29, "bing")
        warm = bundle("google_like", 11, "warm")
        assert cold == warm == read_bundle_bytes(bundle_dir)


def _plain_sessions(result):
    """Each test session's truth and (flag, detected topics) per probe."""
    detector = result.config.detector
    return [(trace.topic_label,
             [(verdict.sensitive_flag, verdict.detected_topics)
              for verdict in (classify_probe(vector, result.baseline, detector)
                              for vector in score_probes(result.model, trace))])
            for trace in result.test_traces]


def _report_values(evaluation):
    """The long-format CSV report as (table, row, column) -> parsed value."""
    rows = list(csv.reader(StringIO(render_csv(evaluation))))[1:]
    return {(table, row, column): (int(value) if row == "sessions"
                                   else float(value) if value else None)
            for table, row, column, value in rows}


class TestReferenceAggregates:
    """Rates, confusion rows and lag tables equal a plain recount."""

    def _check(self, result):
        values = _report_values(result.evaluation)
        assert values == reference_aggregates(
            _plain_sessions(result), result.config.catchall,
            result.config.detector.session_probe_count)
        return values

    def test_mini_campaign(self, mini_campaign):
        self._check(mini_campaign)

    def test_bing_like_campaign(self):
        config = CampaignConfig(keywords=MINI_KEYWORDS,
                                train_sessions_per_topic=2,
                                test_sessions_per_topic=3,
                                engine=load_engine_config("bing_like"))
        values = self._check(run_campaign(config, master_seed=11))
        assert any(key[:2] == ("lag", "run_length") for key in values)


class TestRendering:
    def test_text_report_mentions_the_rates(self, mini_campaign):
        text = render_text(mini_campaign.evaluation)
        assert "sensitive detection rate: 100.0%" in text
        assert "false positive rate:      0.0%" in text
        assert "divorce" in text and "prostate" in text

    def test_csv_report_is_long_format(self, mini_campaign):
        rows = list(csv.reader(StringIO(
            render_csv(mini_campaign.evaluation))))
        assert rows[0] == ["table", "row", "column", "value"]
        tables = {r[0] for r in rows[1:]}
        assert tables == {"summary", "confusion", "lag"}
        rate = [r for r in rows
                if r[:3] == ["summary", "rate", "sensitive_detection"]]
        assert float(rate[0][3]) == mini_campaign.evaluation.sensitive_rate

    def test_detections_csv_lists_every_session(self, mini_campaign):
        rows = list(csv.reader(StringIO(
            render_detections(mini_campaign.evaluation))))
        assert rows[0] == ["session", "topic", "sensitive", "detected_topics"]
        ids = [r[0] for r in rows[1:]]
        assert ids == [t.session_id for t in mini_campaign.test_traces]
        for row, session in zip(rows[1:], mini_campaign.evaluation.sessions):
            assert row[2] == str(int(session.verdict.sensitive))


class TestEmptyLag:
    """No misclassified probe: both renderers say so instead of a table."""

    @pytest.fixture
    def evaluation(self):
        sessions = (
            SessionResult("s1", "prostate", (),
                          (ProbeVerdict(True, ("prostate",)),),
                          SessionVerdict(True, frozenset({"prostate"}))),
            SessionResult("s2", "other", (), (ProbeVerdict(False, ()),),
                          SessionVerdict(False)))
        return Evaluation(
            "other", sessions, *detection_rates(sessions, "other"),
            confusion_matrix(sessions, ["prostate"]),
            lag_statistics(sessions, "other"))

    def test_text(self, evaluation):
        assert render_text(evaluation).endswith(
            "Misclassification lag\n---------------------\n"
            "no misclassified probes: run statistics empty\n")

    def test_csv(self, evaluation):
        assert render_csv(evaluation).endswith(
            "confusion,prostate,false_detect,0.0\nlag,expected_run,,\n")


class TestPinnedBytes:
    @pytest.mark.parametrize("name", ["sessions.csv", "confusion.csv",
                                      "heatmap.csv", "lag.csv", "summary.md"])
    def test_bundle_table(self, bundle_dir, name):
        assert (bundle_dir / name).read_bytes() == (PINNED / name).read_bytes()

    @pytest.mark.parametrize("render, name", [(render_text, "report.txt"),
                                              (render_csv, "report.csv")])
    def test_report(self, mini_campaign, render, name):
        expected = (PINNED / name).read_text(encoding="utf-8")
        assert render(mini_campaign.evaluation) == expected
