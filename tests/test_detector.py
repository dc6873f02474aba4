"""Interval calibration, probe/session verdicts, confusion and lag stats."""

from __future__ import annotations

import math
import statistics
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pri.corpus import Advert, CategorySet, Interaction, ResultPage, SessionTrace
from pri.detector import (
    DetectorConfig,
    LagStatistics,
    ProbeVerdict,
    SessionResult,
    SessionVerdict,
    TopicBaseline,
    baselines_from_samples,
    calibrate,
    classify_probe,
    confusion_matrix,
    detect_session,
    detection_rates,
    lag_statistics,
    parse_baselines,
    sample_sigma,
    write_baselines,
)
from pri.errors import ValidationError
from pri.estimator import ScoreVector, train

from oracle import reference_aggregates, reference_sample_sigma


def _vector(catchall_value, **topic_values):
    scores = {"other": F(catchall_value)}
    scores.update({k: F(v) for k, v in topic_values.items()})
    common = math.lcm(*(v.denominator for v in scores.values()))
    return ScoreVector({k: int(v * common) for k, v in scores.items()}, common,
                       dict.fromkeys(scores, 1))


def _baseline(**stats):
    samples = {topic: values for topic, values in stats.items()}
    return baselines_from_samples(samples, catchall="other")


class TestCalibration:
    def test_two_point_formula(self):
        baseline = baselines_from_samples(
            {"gambling": [0.2, 0.4], "other": [0.0, 0.0]}, catchall="other"
        )
        stats = baseline.per_topic["gambling"]
        assert stats.mean == pytest.approx(0.3)
        assert stats.sigma == pytest.approx(math.sqrt(0.02))
        assert stats.count == 2

    def test_constant_samples_degenerate_interval(self):
        baseline = _baseline(gambling=[0.5, 0.5, 0.5], other=[0.1, 0.1])
        lo, hi = baseline.interval("gambling", 3.0)
        assert lo == hi == 0.5

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.integers(2, 60))
    @example(1.2515931120826724, 29)  # statistics.fmean misses it by one ulp
    @settings(max_examples=200, deadline=None)
    def test_equal_samples_contain_their_value(self, x, n):
        baseline = _baseline(gambling=[x] * n, other=[0.0, 1.0])
        assert baseline.per_topic["gambling"].mean == x
        assert baseline.per_topic["gambling"].sigma == 0.0
        assert baseline.contains("gambling", x, 3.0)

    def test_sample_sigma_rounds_the_exact_root_once(self):
        # Variance exactly 2 and 0: math.sqrt rounds correctly everywhere.
        assert sample_sigma([1.0, 3.0]) == math.sqrt(2)
        assert sample_sigma([0.5, 0.5, 0.5]) == 0.0

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="statistics.stdev rounds correctly from 3.11 on")
    @given(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_sample_sigma_equals_correctly_rounded_stdev(self, values):
        assert sample_sigma(values) == statistics.stdev(values)

    # Probe-score scale, the float extremes, subnormals, and values of
    # widely different scales in one sample.
    @given(st.lists(st.one_of(st.floats(0.0, 4.0), st.floats(-1e300, 1e300),
                              st.floats(-1e-300, 1e-300)),
                    min_size=2, max_size=12))
    @example([5e-324, 0.0])
    @example([1e300, -1e300, 5e-324])
    @example([0.1, 0.1, 0.1])
    @settings(max_examples=300, deadline=None)
    def test_sample_sigma_equals_the_fraction_formula(self, values):
        assert sample_sigma(values) == reference_sample_sigma(values)

    def test_too_few_samples_names_category(self):
        with pytest.raises(ValidationError, match="gambling"):
            baselines_from_samples({"gambling": [0.5], "other": [0.1, 0.2]},
                                   catchall="other")

    def test_calibrate_uses_probe_steps_of_matching_topic(self, golden_categories,
                                                          golden_corpus):
        model = train(golden_corpus, golden_categories)

        def page(*texts):
            return ResultPage(links=(), adverts=tuple(Advert(t) for t in texts))

        def trace(sid, topic, probe_pages):
            interactions = []
            step = 1
            for texts in probe_pages:
                interactions.append(
                    Interaction(step, "user query", page("prostate cancer"), (), False))
                step += 1
                interactions.append(
                    Interaction(step, "probe", page(*texts), (), True))
                step += 1
            return SessionTrace(sid, topic, tuple(interactions))

        traces = [
            trace("t-prostate-0", "prostate",
                  [("prostate cancer",), ("prostate cancer sufferers treated",)]),
            trace("t-other-0", "other",
                  [("discover lifetime risk of diabetes",), ("diabetes",)]),
        ]
        baseline = calibrate(model, traces)
        assert baseline.per_topic["prostate"].count == 2
        assert baseline.per_topic["other"].count == 2
        # Hand-scored probe pages: {1.0, 0.8} and {0.9, 1.0}.  User-step pages
        # (all "prostate cancer", scoring 1.0) must not enter either mean.
        assert baseline.per_topic["prostate"].mean == pytest.approx(0.9)
        assert baseline.per_topic["other"].mean == pytest.approx(0.95)

    def test_calibrate_missing_category_errors(self, golden_categories,
                                               golden_corpus):
        model = train(golden_corpus, golden_categories)
        with pytest.raises(ValidationError, match="prostate"):
            calibrate(model, [])


class TestProbeClassification:
    def test_flag_above_interval(self):
        baseline = _baseline(other=[0.4, 0.5, 0.6], gambling=[0.2, 0.3, 0.4])
        verdict = classify_probe(_vector("0.9"), baseline, DetectorConfig())
        assert verdict.sensitive_flag

    def test_at_mean_not_flagged(self):
        baseline = _baseline(other=[0.4, 0.5, 0.6], gambling=[0.2, 0.3, 0.4])
        verdict = classify_probe(_vector("0.5"), baseline, DetectorConfig())
        assert not verdict.sensitive_flag
        assert verdict.detected_topics == ()

    def test_boundary_counts_as_inside(self):
        baseline = _baseline(other=[0.4, 0.5, 0.6])
        lo, hi = baseline.interval("other", 3.0)
        for edge in (lo, hi):
            verdict = classify_probe(_vector(repr(edge)), baseline,
                                     DetectorConfig())
            assert not verdict.sensitive_flag

    def test_two_condition_detection(self):
        baseline = _baseline(other=[0.4, 0.5, 0.6], gambling=[0.25, 0.3, 0.35])
        verdict = classify_probe(
            _vector("0.9", gambling="0.3"), baseline, DetectorConfig())
        assert verdict.sensitive_flag
        assert "gambling" in verdict.detected_topics

    def test_no_detection_without_flag(self):
        baseline = _baseline(other=[0.4, 0.5, 0.6], gambling=[0.25, 0.3, 0.35])
        verdict = classify_probe(
            _vector("0.5", gambling="0.3"), baseline, DetectorConfig())
        assert verdict.detected_topics == ()

    def test_verdict_invariant_detected_implies_flag(self):
        baseline = _baseline(other=[0.4, 0.5, 0.6], gambling=[0.25, 0.3, 0.35])
        for value in ("0.1", "0.3", "0.5", "0.7", "0.9"):
            verdict = classify_probe(
                _vector(value, gambling="0.3"), baseline, DetectorConfig())
            assert not verdict.detected_topics or verdict.sensitive_flag

    @given(st.floats(3.0, 10.0), st.floats(0.0, 1.5))
    @settings(max_examples=60, deadline=None)
    def test_enlarging_multiplier_never_creates_flags(self, bigger, value):
        baseline = _baseline(other=[0.4, 0.5, 0.6])
        small = classify_probe(_vector(repr(value)), baseline,
                               DetectorConfig(sigma_multiplier=3.0))
        large = classify_probe(_vector(repr(value)), baseline,
                               DetectorConfig(sigma_multiplier=bigger))
        if large.sensitive_flag:
            assert small.sensitive_flag


class TestSessionRule:
    def _verdicts(self, flags, topics=None):
        return [
            ProbeVerdict(sensitive_flag=f,
                         detected_topics=tuple(topics or ()) if f else ())
            for f in flags
        ]

    def test_any_flag_detects(self):
        verdicts = self._verdicts([False, True, False, False, False])
        assert detect_session(verdicts, DetectorConfig()).sensitive

    def test_all_clear(self):
        verdicts = self._verdicts([False] * 5)
        assert not detect_session(verdicts, DetectorConfig()).sensitive

    def test_topic_set(self):
        verdicts = self._verdicts([True] * 5, topics=["payday"])
        session = detect_session(verdicts, DetectorConfig())
        assert session.topics == frozenset({"payday"})

    def test_excess_probes_ignored(self):
        verdicts = self._verdicts([False] * 5 + [True])
        assert not detect_session(verdicts, DetectorConfig()).sensitive

    def test_incomplete_session_rejected(self):
        with pytest.raises(ValidationError, match="incomplete"):
            detect_session(self._verdicts([True] * 4), DetectorConfig())

    @given(st.lists(st.booleans(), min_size=5, max_size=9), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_or_of_first_five_and_permutation_invariance(self, flags, rng):
        verdicts = self._verdicts(flags)
        session = detect_session(verdicts, DetectorConfig())
        assert session.sensitive == any(flags[:5])
        head = verdicts[:5]
        rng.shuffle(head)
        shuffled = detect_session(head, DetectorConfig())
        assert shuffled.sensitive == session.sensitive


def _session(topic_detected: bool, flag=True, topic="gambling"):
    topics = frozenset({topic}) if topic_detected else frozenset()
    return SessionVerdict(sensitive=flag, topics=topics)


def _judged(truth, verdict=SessionVerdict(False), probes=()):
    """A session record carrying only what the aggregates read."""
    return SessionResult("s", truth, (), tuple(probes), verdict)


def _judged_all(verdicts, truths):
    return [_judged(truth, verdict) for verdict, truth in zip(verdicts, truths)]


class TestConfusion:
    def test_perfect_diagonal(self):
        verdicts = [_session(True, topic="gambling"),
                    _session(True, topic="payday")]
        truths = ["gambling", "payday"]
        matrix = confusion_matrix(_judged_all(verdicts, truths),
                                  ("gambling", "payday"))
        for topic in ("gambling", "payday"):
            row = matrix[topic]
            assert row.true_detect == 1.0
            assert row.false_other == 0.0
            assert row.true_other == 1.0
            assert row.false_detect == 0.0

    def test_misdetection_bookkeeping(self):
        verdicts = [SessionVerdict(True, frozenset({"payday"}))]
        truths = ["gambling"]
        matrix = confusion_matrix(_judged_all(verdicts, truths),
                                  ("gambling", "payday"))
        assert matrix["gambling"].false_other == 1.0
        assert matrix["payday"].false_detect == 1.0

    def test_rows_sum_to_one_exactly(self):
        verdicts = [
            SessionVerdict(True, frozenset({"payday"})),
            SessionVerdict(True),
            SessionVerdict(False),
            SessionVerdict(True, frozenset({"gambling", "payday"})),
        ]
        truths = ["payday", "payday", "gambling", "gambling"]
        matrix = confusion_matrix(_judged_all(verdicts, truths),
                                  ("gambling", "payday"))
        for row in matrix.values():
            assert row.true_detect + row.false_other == 1.0
            assert row.true_other + row.false_detect == 1.0

    def test_session_level_rates(self):
        verdicts = [_session(True), _session(False, flag=False),
                    SessionVerdict(True), SessionVerdict(False)]
        truths = ["gambling", "gambling", "other", "other"]
        sensitive_rate, false_positive = detection_rates(
            _judged_all(verdicts, truths), "other")
        assert sensitive_rate == 0.5
        assert false_positive == 0.5


def _judged_lags(probe_lists, truths):
    return [_judged(truth, probes=probes)
            for probes, truth in zip(probe_lists, truths)]


class TestLagStatistics:
    def _verdict(self, wrong, topic="gambling"):
        # wrong=True models a missed sensitive probe (no flag).
        if wrong:
            return ProbeVerdict(False, ())
        return ProbeVerdict(True, (topic,))

    def test_single_run(self):
        probes = [[self._verdict(True), self._verdict(True),
                   self._verdict(False), self._verdict(False),
                   self._verdict(False)]]
        stats = lag_statistics(_judged_lags(probes, ["gambling"]), "other")
        assert stats.run_length_dist == {2: 1.0}
        assert stats.first_error_dist == {1: 1.0}
        assert stats.expected_run == 2.0

    def test_no_errors(self):
        probes = [[self._verdict(False)] * 5]
        stats = lag_statistics(_judged_lags(probes, ["gambling"]), "other")
        assert stats.run_length_dist == {}
        assert stats.expected_run is None

    def test_catchall_sessions_err_when_flagged(self):
        flagged = ProbeVerdict(True, ())
        clear = ProbeVerdict(False, ())
        stats = lag_statistics(
            _judged_lags([[clear, flagged, clear, clear, clear]], ["other"]),
            "other")
        assert stats.run_length_dist == {1: 1.0}
        assert stats.first_error_dist == {2: 1.0}

    def test_multiple_runs_in_one_session(self):
        v = self._verdict
        probes = [[v(True), v(False), v(True), v(True), v(False)]]
        stats = lag_statistics(_judged_lags(probes, ["gambling"]), "other")
        assert stats.run_length_dist == {1: 0.5, 2: 0.5}
        assert stats.expected_run == 1.5
        assert stats.first_error_dist == {1: 1.0}

    def test_run_at_the_session_end_counts(self):
        probes = [self._verdict(wrong) for wrong in (True, True, False, True)]
        stats = lag_statistics(_judged_lags([probes], ["gambling"]), "other")
        assert stats.run_length_dist == {1: 0.5, 2: 0.5}
        table = reference_aggregates(
            [("gambling", [(p.sensitive_flag, p.detected_topics)
                           for p in probes])], "other", len(probes))
        assert stats.run_length_dist == {
            int(key): value for (name, row, key), value in table.items()
            if (name, row) == ("lag", "run_length")}

    def test_distributions_sum_to_one(self):
        v = self._verdict
        probes = [
            [v(True), v(False), v(False), v(False), v(False)],
            [v(True), v(True), v(False), v(False), v(False)],
            [v(False)] * 5,
        ]
        stats = lag_statistics(
            _judged_lags(probes, ["gambling", "gambling", "gambling"]), "other")
        assert sum(stats.run_length_dist.values()) == pytest.approx(1.0)
        assert sum(stats.first_error_dist.values()) == pytest.approx(1.0)
        assert stats.expected_run == pytest.approx(1.5)
        assert stats.expected_run >= 1.0


class TestBaselinePersistence:
    def test_round_trip(self, tmp_path):
        baseline = _baseline(other=[0.4, 0.5, 0.6], gambling=[0.2, 0.3, 0.4])
        from io import StringIO

        out = StringIO()
        write_baselines(baseline, out)
        text = out.getvalue()
        assert text.startswith("#pri-baselines v1\n")
        reparsed = parse_baselines(text.splitlines())
        assert reparsed == baseline

    def test_bad_header(self):
        with pytest.raises(ValidationError):
            parse_baselines(["#pri-baselines v2"])


class TestConfigValidation:
    def test_bad_multiplier_rejected(self):
        with pytest.raises(ValidationError):
            DetectorConfig(sigma_multiplier=0.0)

    def test_bad_probe_count_rejected(self):
        with pytest.raises(ValidationError):
            DetectorConfig(session_probe_count=0)

    def test_one_probe_per_session_is_accepted(self):
        assert DetectorConfig(session_probe_count=1).session_probe_count == 1
