"""Confidence-interval detection over probe scores, plus campaign metrics.

Calibration collects, per topic, the score that topic's own training sessions
produce at probe steps, and summarizes it as mean and sample standard
deviation.  A probe is "sensitive" when the catch-all score leaves its
interval; a topic is detected when, additionally, that topic's score lies
inside its own interval.  A session is sensitive when any of its first
`session_probe_count` probes is.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .corpus import SessionTrace, headed_lines
from .errors import ValidationError
from .estimator import PriModel, ScoreVector, score

BASELINES_HEADER = "#pri-baselines v1"


DEFAULT_SIGMA_MULTIPLIER = 3.0
DEFAULT_PROBE_COUNT = 5


class DetectorConfig:
    def __init__(self, sigma_multiplier: float = DEFAULT_SIGMA_MULTIPLIER,
                 session_probe_count: int = DEFAULT_PROBE_COUNT) -> None:
        if not (math.isfinite(sigma_multiplier) and sigma_multiplier > 0):
            raise ValidationError("sigma_multiplier must be positive and finite")
        if session_probe_count <= 0:
            raise ValidationError("session_probe_count must be positive")
        self.sigma_multiplier = sigma_multiplier
        self.session_probe_count = session_probe_count


class IntervalStats(NamedTuple):
    mean: float
    sigma: float
    count: int


class TopicBaseline(NamedTuple):
    per_topic: dict[str, IntervalStats]
    catchall: str

    def interval(self, topic: str, multiplier: float) -> tuple[float, float]:
        stats = self.per_topic[topic]
        return (stats.mean - multiplier * stats.sigma,
                stats.mean + multiplier * stats.sigma)

    def contains(self, topic: str, value: float, multiplier: float) -> bool:
        lo, hi = self.interval(topic, multiplier)
        return lo <= value <= hi


class ProbeVerdict(NamedTuple):
    sensitive_flag: bool
    detected_topics: tuple[str, ...]


class SessionVerdict(NamedTuple):
    sensitive: bool
    topics: frozenset[str] = frozenset()


class SessionResult(NamedTuple):
    """One judged session; scores and probe verdicts are in probe order."""

    session_id: str
    truth: str
    scores: tuple[ScoreVector, ...]
    probe_verdicts: tuple[ProbeVerdict, ...]
    verdict: SessionVerdict


class ConfusionRow(NamedTuple):
    true_detect: float
    false_other: float
    true_other: float
    false_detect: float


class LagStatistics(NamedTuple):
    run_length_dist: dict[int, float]
    first_error_dist: dict[int, float]
    expected_run: float | None


def sample_sigma(values: Sequence[float]) -> float:
    """Sample standard deviation of finite floats, correctly rounded.

    The variance is exact, a ``Fraction``, and its square root is rounded
    once, as ``statistics.stdev`` does from Python 3.11 on; earlier versions
    can differ in the last bit, which would change a baselines file.
    """
    exact = [Fraction(v) for v in values]
    mean = sum(exact, Fraction(0)) / len(exact)
    variance = sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)
    n, m = variance.numerator, variance.denominator
    # Scale n/m by 4**-q so its root has 2 * 53 + 3 bits, take that root
    # rounded to odd, and let the final conversion round it to nearest:
    # the two roundings together give the correctly rounded root.
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def baselines_from_samples(
    samples: Mapping[str, Sequence[float]], catchall: str
) -> TopicBaseline:
    """Summarize per-topic score samples; every topic needs >= 2 of them.

    The mean is ``math.fsum(values) / len(values)``, which is what
    ``statistics.fmean`` computes on Python 3.10-3.13.  A topic whose samples
    are all equal takes that value as its mean, which that quotient can miss
    by one ulp; its sigma is 0, so its interval is exactly that point.
    """
    short = sorted(t for t, values in samples.items() if len(values) < 2)
    if short:
        raise ValidationError(
            "not enough probe samples to calibrate: " + ", ".join(short)
        )
    per_topic = {
        topic: IntervalStats(
            mean=(values[0] if len(set(values)) == 1
                  else math.fsum(values) / len(values)),
            sigma=sample_sigma(values),
            count=len(values),
        )
        for topic, values in samples.items()
    }
    return TopicBaseline(per_topic=per_topic, catchall=catchall)


def calibrate(model: PriModel, training_traces: Iterable[SessionTrace]) -> TopicBaseline:
    """Per-topic interval statistics from probe-step scores of own-topic runs."""
    samples: dict[str, list[float]] = {c: [] for c in model.categories.all_labels}
    for trace in training_traces:
        if trace.topic_label not in samples:
            raise ValidationError(
                f"session {trace.session_id}: unknown topic {trace.topic_label!r}"
            )
        for probe in trace.probes:
            vector = score(model, probe.page.adverts)
            samples[trace.topic_label].append(vector.value(trace.topic_label))
    return baselines_from_samples(samples, catchall=model.categories.catchall)


def classify_probe(
    scores: ScoreVector, baseline: TopicBaseline, config: DetectorConfig
) -> ProbeVerdict:
    """Flag a page whose catch-all score leaves its interval, and name the
    topics whose intervals hold their scores; `baseline` covers every label
    of `scores`, as `runner.evaluate_capture` checks."""
    m = config.sigma_multiplier
    flag = not baseline.contains(
        baseline.catchall, scores.value(baseline.catchall), m)
    detected: tuple[str, ...] = ()
    if flag:
        detected = tuple(
            topic
            for topic in scores.numerators
            if topic != baseline.catchall
            and baseline.contains(topic, scores.value(topic), m)
        )
    return ProbeVerdict(sensitive_flag=flag, detected_topics=detected)


def detect_session(
    verdicts: Sequence[ProbeVerdict], config: DetectorConfig
) -> SessionVerdict:
    n = config.session_probe_count
    if len(verdicts) < n:
        raise ValidationError(
            f"incomplete session: {len(verdicts)} probe verdicts, need {n}"
        )
    head = verdicts[:n]
    return SessionVerdict(
        sensitive=any(v.sensitive_flag for v in head),
        topics=frozenset(t for v in head for t in v.detected_topics))


def confusion_matrix(
    sessions: Sequence[SessionResult], topics: Iterable[str]
) -> dict[str, ConfusionRow]:
    rows: dict[str, ConfusionRow] = {}
    for topic in topics:
        own = [topic in s.verdict.topics for s in sessions if s.truth == topic]
        rest = [topic in s.verdict.topics for s in sessions if s.truth != topic]
        true_detect = sum(own) / len(own) if own else 0.0
        false_detect = sum(rest) / len(rest) if rest else 0.0
        rows[topic] = ConfusionRow(
            true_detect=true_detect,
            false_other=1.0 - true_detect,
            true_other=1.0 - false_detect,
            false_detect=false_detect,
        )
    return rows


def detection_rates(
    sessions: Sequence[SessionResult], catchall: str
) -> tuple[float, float]:
    """(sensitive-session detection rate, catchall false-positive rate)."""
    sensitive = [s.verdict.sensitive for s in sessions if s.truth != catchall]
    catchalls = [s.verdict.sensitive for s in sessions if s.truth == catchall]
    rate = sum(sensitive) / len(sensitive) if sensitive else 0.0
    false_positive = sum(catchalls) / len(catchalls) if catchalls else 0.0
    return rate, false_positive


def lag_statistics(
    sessions: Sequence[SessionResult], catchall: str
) -> LagStatistics:
    """Run lengths of consecutive misclassified probes, and first-error index.

    A probe is misclassified when flagged in a catch-all session, or when not
    flagged as its own topic in a sensitive one.
    """
    runs: list[int] = []
    first_errors: list[int] = []
    for session in sessions:
        truth = session.truth
        current = 0
        first: int | None = None
        for i, verdict in enumerate(session.probe_verdicts, start=1):
            if (verdict.sensitive_flag if truth == catchall
                    else not (verdict.sensitive_flag
                              and truth in verdict.detected_topics)):
                current += 1
                if first is None:
                    first = i
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        if first is not None:
            first_errors.append(first)

    def distribution(values: list[int]) -> dict[int, float]:
        counts = Counter(values)
        total = len(values)
        return {k: counts[k] / total for k in sorted(counts)}

    return LagStatistics(
        run_length_dist=distribution(runs),
        first_error_dist=distribution(first_errors),
        expected_run=math.fsum(runs) / len(runs) if runs else None,
    )


# ---------------------------------------------------------------------------
# baselines file
# ---------------------------------------------------------------------------


def write_baselines(baseline: TopicBaseline, out: IO[str]) -> None:
    out.write(BASELINES_HEADER + "\n")
    out.write(f"catchall\t{baseline.catchall}\n")
    for topic in sorted(baseline.per_topic):
        stats = baseline.per_topic[topic]
        out.write(f"{topic}\t{stats.mean!r}\t{stats.sigma!r}\t{stats.count}\n")


def save_baselines(baseline: TopicBaseline, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_baselines(baseline, fh)


def parse_baselines(lines: Iterable[str]) -> TopicBaseline:
    catchall: str | None = None
    per_topic: dict[str, IntervalStats] = {}
    for lineno, line in headed_lines(lines, BASELINES_HEADER, "baselines"):
        fields = line.split("\t")
        if fields[0] == "catchall" and len(fields) == 2:
            if catchall is not None:
                raise ValidationError(
                    f"baselines line {lineno}: second catchall line")
            catchall = fields[1]
            continue
        if len(fields) != 4:
            raise ValidationError(f"baselines line {lineno}: malformed record")
        try:
            stats = IntervalStats(
                mean=float(fields[1]), sigma=float(fields[2]), count=int(fields[3])
            )
        except ValueError as exc:
            raise ValidationError(f"baselines line {lineno}: {exc}") from exc
        if not (math.isfinite(stats.mean) and math.isfinite(stats.sigma)):
            raise ValidationError(
                f"baselines line {lineno}: mean and sigma must be finite")
        if stats.sigma < 0:
            raise ValidationError(f"baselines line {lineno}: negative sigma")
        if stats.count < 2:
            raise ValidationError(
                f"baselines line {lineno}: count must be at least 2")
        if fields[0] in per_topic:
            raise ValidationError(
                f"baselines line {lineno}: duplicate topic {fields[0]!r}")
        per_topic[fields[0]] = stats
    return TopicBaseline(per_topic=per_topic,
                         catchall="other" if catchall is None else catchall)
