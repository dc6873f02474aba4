"""Session and campaign orchestration.

A session walks one generated (or hand-written) query script against a fresh
engine instance: every entry becomes one interaction, and the session topic's
keywords decide which advert slots of user-query pages get clicked.  Probe
responses are never clicked.

A campaign runs per-topic training sessions, fits the term-frequency model on
the adverts those sessions observed, calibrates per-topic intervals, and then
judges a separate set of test sessions.  All randomness fans out from one
master seed through named channels, so a campaign is a pure function of its
configuration and that seed.

``evaluate_capture`` is the one path from traces to verdicts: a campaign
calls it on its test split, and the ``detect`` and ``report`` commands call
it on a capture file.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .corpus import CategorySet, Interaction, LabeledAdvert, SessionTrace
from .detector import (
    ConfusionRow,
    DetectorConfig,
    LagStatistics,
    ProbeVerdict,
    SessionResult,
    TopicBaseline,
    calibrate,
    classify_probe,
    confusion_matrix,
    detect_session,
    detection_rates,
    lag_statistics,
)
from .errors import ValidationError
from .estimator import PriModel, ScoreVector, score, train
from .probes import revealing_topics
from .scripts import (
    MIN_PROBES,
    CategoryKeywords,
    QueryScript,
    click_decision,
    generate_script,
    keyword_catalog,
    load_default_keywords,
)
from .simulator import (
    AdEngine,
    EngineConfig,
    EngineTables,
    build_ad_pools,
    load_engine_config,
    new_engine,
    sha256,
)

DEFAULT_PROBE = "symptoms and causes"
DEFAULT_ENGINE = "google_like"
DEFAULT_TRAIN_SESSIONS = 3
DEFAULT_TEST_SESSIONS = 10


def derive_seed(master_seed: int, channel: str) -> int:
    """Stable 64-bit seed for one named random channel of a run."""
    digest = sha256(f"{master_seed}:{channel}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def run_session(
    engine: AdEngine,
    script: QueryScript,
    keywords: CategoryKeywords | None,
    session_id: str,
) -> SessionTrace:
    """Drive one script against one engine and capture what the user saw.

    With ``keywords`` None the user never clicks.  The script's topic is
    one of the engine's categories.  Each advert text's ``click_decision``
    is kept in ``keywords.click_memo``.
    """
    decided = None if keywords is None else keywords.click_memo
    submit = engine.submit_query
    interactions: list[Interaction] = []
    for step, entry in enumerate(script.entries, start=1):
        page = submit(entry.text)
        clicked: tuple[int, ...] = ()
        if decided is not None and not entry.is_probe:
            clicks = []
            for slot, advert in enumerate(page.adverts):
                click = decided.get(advert.text)
                if click is None:
                    click = decided[advert.text] = click_decision(
                        advert.text, keywords)
                if click:
                    clicks.append(slot)
            if clicks:
                clicked = tuple(clicks)
                engine.register_clicks(clicked)
        interactions.append(
            Interaction(step, entry.text, page, clicked, entry.is_probe))
    return SessionTrace(session_id, script.topic, tuple(interactions))


def training_corpus(traces: Sequence[SessionTrace]) -> list[LabeledAdvert]:
    """Every observed advert, labeled with the topic of its session."""
    corpus: list[LabeledAdvert] = []
    for trace in traces:
        for interaction in trace.interactions:
            for advert in interaction.page.adverts:
                corpus.append(LabeledAdvert(label=trace.topic_label,
                                            text=advert.text))
    return corpus


def score_probes(model: PriModel, trace: SessionTrace) -> tuple[ScoreVector, ...]:
    return tuple(score(model, probe.page.adverts) for probe in trace.probes)


class CampaignConfig:
    """A campaign's settings; a default keyword map, engine or detector is
    the bundled one."""

    def __init__(
        self,
        keywords: dict[str, list[str]] | None = None,
        catchall: str = "other",
        train_sessions_per_topic: int = DEFAULT_TRAIN_SESSIONS,
        test_sessions_per_topic: int = DEFAULT_TEST_SESSIONS,
        engine: EngineConfig | None = None,
        detector: DetectorConfig | None = None,
        probe: str = DEFAULT_PROBE,
        clicks_enabled: bool = True,
    ) -> None:
        self.keywords = load_default_keywords() if keywords is None else keywords
        self.catchall = catchall
        self.train_sessions_per_topic = train_sessions_per_topic
        self.test_sessions_per_topic = test_sessions_per_topic
        self.engine = (load_engine_config(DEFAULT_ENGINE) if engine is None
                       else engine)
        self.detector = DetectorConfig() if detector is None else detector
        self.probe = probe
        self.clicks_enabled = clicks_enabled
        if not self.keywords:
            raise ValidationError("campaign needs at least one sensitive topic")
        if train_sessions_per_topic < 1:
            raise ValidationError("train_sessions_per_topic must be at least 1")
        if test_sessions_per_topic < 1:
            raise ValidationError("test_sessions_per_topic must be at least 1")
        if not probe.strip():
            raise ValidationError("probe text must be nonempty")
        revealing = revealing_topics(probe, self.keywords, self.keywords)
        if revealing:
            raise ValidationError(
                f"probe {probe!r} shares keyword terms with "
                f"{', '.join(revealing)}")
        if self.detector.session_probe_count > MIN_PROBES:
            raise ValidationError(
                f"session_probe_count {self.detector.session_probe_count} "
                f"exceeds {MIN_PROBES}, the fewest probes a generated script "
                "holds")
        self.categories = CategorySet(tuple(sorted(self.keywords)), catchall)


class Evaluation(NamedTuple):
    """One record per judged session and every aggregate derived from them.

    Every field is computed once, by ``evaluate_capture``; the renderers in
    ``pri.reports`` only format these values.
    """

    catchall: str
    sessions: tuple[SessionResult, ...]
    sensitive_rate: float
    false_positive_rate: float
    confusion: dict[str, ConfusionRow]
    lag: LagStatistics


def evaluate_capture(
    model: PriModel,
    baseline: TopicBaseline,
    traces: Iterable[SessionTrace],
    config: DetectorConfig | None = None,
) -> Evaluation:
    """Score and classify every probe in the traces, then aggregate once.

    The model, the baselines and the capture must agree: the baselines name
    the model's catch-all and exactly the model's labels, and every session's
    topic is a model label.  The confusion matrix covers every true topic
    other than the catch-all, sorted.
    """
    catchall = model.categories.catchall
    if baseline.catchall != catchall:
        raise ValidationError(
            f"baselines catch-all {baseline.catchall!r} differs from the "
            f"model's {catchall!r}")
    labels, named = set(model.categories.all_labels), baseline.per_topic.keys()
    if named != labels:
        missing = ", ".join(sorted(labels - named)) or "none"
        extra = ", ".join(sorted(named - labels)) or "none"
        raise ValidationError("baselines topics differ from the model's: "
                              f"missing {missing}; extra {extra}")
    config = config or DetectorConfig()
    sessions: list[SessionResult] = []
    # `score` returns one vector per distinct page, so each is classified
    # once, keyed by identity: `sessions` keeps every vector alive.
    classified: dict[int, ProbeVerdict] = {}

    def classify(vector: ScoreVector) -> ProbeVerdict:
        verdict = classified[id(vector)] = classify_probe(vector, baseline, config)
        return verdict

    for trace in traces:
        if trace.topic_label not in labels:
            raise ValidationError(f"session {trace.session_id}: unknown topic "
                                  f"{trace.topic_label!r}")
        vectors = score_probes(model, trace)
        verdicts = tuple([classified.get(id(vector)) or classify(vector)
                          for vector in vectors])
        try:
            verdict = detect_session(verdicts, config)
        except ValidationError as exc:
            raise ValidationError(f"session {trace.session_id}: {exc}") from exc
        sessions.append(SessionResult(
            trace.session_id, trace.topic_label, vectors, verdicts, verdict))

    topics = sorted({s.truth for s in sessions} - {catchall})
    return Evaluation(catchall, tuple(sessions),
                      *detection_rates(sessions, catchall),
                      confusion_matrix(sessions, topics),
                      lag_statistics(sessions, catchall))


class CampaignResult(NamedTuple):
    config: CampaignConfig
    master_seed: int
    model: PriModel
    baseline: TopicBaseline
    training_traces: tuple[SessionTrace, ...]
    test_traces: tuple[SessionTrace, ...]
    evaluation: Evaluation


def run_campaign(config: CampaignConfig, master_seed: int) -> CampaignResult:
    categories = config.categories
    catalog = keyword_catalog(config.keywords, config.catchall)
    pools = build_ad_pools(config.keywords, config.catchall)
    tables = EngineTables(config.engine, pools, categories)

    def run_block(role: str, count: int) -> tuple[SessionTrace, ...]:
        traces = []
        for topic in categories.all_labels:
            for index in range(count):
                session_id = f"{role}-{topic}-{index:02d}"
                script = generate_script(
                    catalog[topic], config.probe,
                    derive_seed(master_seed, f"{session_id}:script"))
                engine = new_engine(
                    tables, derive_seed(master_seed, f"{session_id}:engine"))
                clicks = catalog[topic] if config.clicks_enabled else None
                traces.append(run_session(engine, script, clicks, session_id))
        return tuple(traces)

    training = run_block("train", config.train_sessions_per_topic)
    testing = run_block("test", config.test_sessions_per_topic)

    model = train(training_corpus(training), categories)
    baseline = calibrate(model, training)
    return CampaignResult(
        config=config,
        master_seed=master_seed,
        model=model,
        baseline=baseline,
        training_traces=training,
        test_traces=testing,
        evaluation=evaluate_capture(model, baseline, testing, config.detector),
    )
