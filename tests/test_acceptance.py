"""Release gate: the eight shipping requirements, one verdict line each.

Each test prints ``[criterion N] <title>: PASS/FAIL`` (visible with -s, or in
the captured output on failure) and `pytest -v` shows one line per criterion.
Expected values here are frozen; they were derived independently before the
implementation produced them.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from statistics import fmean

import pytest

from pri.corpus import CategorySet, LabeledAdvert
from pri.estimator import score, train
from pri.probes import DEFAULT_PROBES, default_ambiguity_report
from pri.reports import read_bundle_bytes, topic_score_matrix, write_bundle
from pri.runner import CampaignConfig, run_campaign
from pri.simulator import load_engine_config
from pri.textproc import TermFilter

from conftest import GOLDEN_CORPUS_TEXT
from oracle import reference_score
from test_probes import AMBIGUITY_ROWS

MASTER_SEED = 2026
CLICK_SEED = 77


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _verdict(number: int, title: str, failures: list[str], detail: str) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {title}: {status} ({detail})")
    assert not failures, f"criterion {number} ({title}): " + "; ".join(failures)


@pytest.fixture(scope="module")
def google():
    """The reference campaign: full topic list, google-like preset."""
    start = time.perf_counter()
    result = run_campaign(CampaignConfig(), MASTER_SEED)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# 1. worked example reproduced exactly
# ---------------------------------------------------------------------------

# Full expected statistics table for the four-advert corpus: stem -> (total,
# per-prostate, per-catchall).  Filtered advert lengths are 6, 4, 6, 4.
GOLDEN_TABLE = {
    "prostat": (F(5, 12), F(5, 12), F(0)),
    "cancer": (F(5, 12), F(5, 12), F(0)),
    "possibl": (F(1, 6), F(1, 6), F(0)),
    "learn": (F(1, 6), F(1, 6), F(0)),
    "here": (F(1, 6), F(1, 6), F(0)),
    "suffer": (F(5, 12), F(1, 4), F(1, 6)),
    "treat": (F(5, 12), F(1, 4), F(1, 6)),
    "risk": (F(5, 12), F(1, 6), F(1, 4)),
    "diabet": (F(5, 12), F(0), F(5, 12)),
    "discov": (F(5, 12), F(0), F(5, 12)),
    "revers": (F(1, 6), F(0), F(1, 6)),
    "natur": (F(1, 6), F(0), F(1, 6)),
    # Recomputed from the corpus itself: one occurrence in a 4-term advert.
    "lifetim": (F(1, 4), F(0), F(1, 4)),
}


def test_criterion_1_worked_example_reproduces_exactly():
    failures: list[str] = []
    start = time.perf_counter()
    categories = CategorySet(("prostate",), "other")
    corpus = [
        LabeledAdvert(*line.split("\t", 1))
        for line in GOLDEN_CORPUS_TEXT.splitlines()
    ]
    model = train(corpus, categories)
    _check(failures, set(model.dictionary) == set(GOLDEN_TABLE),
           "dictionary does not hold exactly the 13 expected stems")
    for stem, (total, own, catchall) in GOLDEN_TABLE.items():
        stats = model.stats
        _check(failures, stats.total.get(stem) == total,
               f"total[{stem}] = {stats.total.get(stem)} != {total}")
        _check(failures, stats.per_category.get(stem, {}).get("prostate", F(0)) == own,
               f"per_category[{stem}][prostate] != {own}")
        _check(failures, stats.per_category.get(stem, {}).get("other", F(0)) == catchall,
               f"per_category[{stem}][other] != {catchall}")
    vector = score(model, ["patient choose safer treatment here"])
    _check(failures, vector.scores["prostate"] == F(8, 25),
           f"page score for prostate is {vector.scores['prostate']}, not 8/25")
    _check(failures, vector.scores["other"] == F(2, 25),
           f"page score for the catch-all is {vector.scores['other']}, not 2/25")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s")
    _verdict(1, "worked example, exact rationals", failures,
             f"13 stems, 8/25 and 2/25 exact, {elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------------------
# 2. optimized scoring equals a brute-force evaluation
# ---------------------------------------------------------------------------

def test_criterion_2_score_matches_brute_force_on_random_corpora():
    failures: list[str] = []
    rng = random.Random(20260823)
    flt = TermFilter()
    vocab = [f"w{i}x" for i in range(40)]
    _check(failures, flt.terms(" ".join(vocab)) == vocab,
           "synthetic vocabulary is not filter-stable")
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        words = vocab[: rng.randint(6, 40)]
        sensitive = tuple(f"cat{j}" for j in range(rng.randint(1, 4)))
        labels = sensitive + ("other",)
        corpus = [
            LabeledAdvert(rng.choice(labels),
                          " ".join(rng.choices(words, k=rng.randint(2, 8))))
            for _ in range(rng.randint(2, 30))
        ]
        page = [" ".join(rng.choices(words + ["zqj"], k=rng.randint(1, 6)))
                for _ in range(rng.randint(0, 4))]
        model = train(corpus, CategorySet(sensitive, "other"))
        vector = score(model, page)
        training = [(ad.label, flt.terms(ad.text)) for ad in corpus]
        page_terms = [flt.terms(text) for text in page]
        for category in labels:
            expected = reference_score(training, page_terms, category)
            diff = abs(float(vector.scores[category]) - float(expected))
            worst = max(worst, diff)
            _check(failures, diff <= 1e-12,
                   f"category {category}: |optimized - brute force| = {diff}")
        if failures:
            break
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 10.0, f"took {elapsed:.2f}s, limit 10s")
    _verdict(2, "brute-force score equivalence", failures,
             f"200 corpora, max deviation {worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. full detection campaign, google-like preset
# ---------------------------------------------------------------------------

def test_criterion_3_detection_campaign_rates(google):
    result, elapsed = google
    failures: list[str] = []
    config = result.config
    _check(failures, len(config.categories.sensitive) == 11,
           "campaign does not cover the 11 bundled sensitive topics")
    _check(failures, config.test_sessions_per_topic >= 10,
           "fewer than 10 test sessions per topic")
    _check(failures, config.detector.session_probe_count == 5,
           "session rule is not 5 probes")
    _check_rates(failures, result.evaluation)
    _check(failures, elapsed < 120.0, f"took {elapsed:.1f}s, limit 120s")
    _verdict(3, "detection campaign rates", failures,
             f"rate {100 * result.evaluation.sensitive_rate:.1f}%, "
             f"fp {100 * result.evaluation.false_positive_rate:.1f}%, "
             f"12 topics x 10 sessions, {elapsed:.1f}s")


def _check_rates(failures: list[str], evaluation) -> None:
    _check(failures, evaluation.sensitive_rate >= 0.95,
           f"sensitive detection rate {evaluation.sensitive_rate:.3f} < 0.95")
    _check(failures, evaluation.false_positive_rate <= 0.05,
           f"false positive rate {evaluation.false_positive_rate:.3f} > 0.05")
    for topic, row in evaluation.confusion.items():
        _check(failures, row.true_detect >= 0.90,
               f"{topic}: true detect {row.true_detect:.3f} < 0.90")
        _check(failures, row.false_other <= 0.10,
               f"{topic}: false other {row.false_other:.3f} > 0.10")


# At these seeds every catch-all training probe scores the same value, so the
# catch-all interval is a single point.  statistics.fmean of those equal
# floats lands one ulp off that point, which would flag every catch-all test
# session; the mean must be the value itself.
@pytest.mark.parametrize("engine, seed", [
    ("google_like", 4), ("google_like", 22), ("bing_like", 8), ("bing_like", 11),
])
def test_criterion_3_rates_hold_when_catchall_scores_are_equal(engine, seed):
    result = run_campaign(
        CampaignConfig(engine=load_engine_config(engine)), seed)
    failures: list[str] = []
    _check_rates(failures, result.evaluation)
    assert result.baseline.per_topic["other"].sigma == 0.0
    assert not failures, f"{engine} seed {seed}: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# 4. shared advert pools show up as topic confusion
# ---------------------------------------------------------------------------

def test_criterion_4_shared_pool_topics_confuse_each_other(google):
    result, _ = google
    failures: list[str] = []
    matrix = topic_score_matrix(result)
    topics = result.config.categories.sensitive

    def pair_mean(a: str, b: str) -> float:
        return (matrix[a][b] + matrix[b][a]) / 2.0

    linked = pair_mean("payday", "bankrupt")
    worst_pair, worst_value = None, 0.0
    for i, a in enumerate(topics):
        for b in topics[i + 1:]:
            if {a, b} == {"payday", "bankrupt"}:
                continue
            value = pair_mean(a, b)
            if value > worst_value:
                worst_pair, worst_value = (a, b), value
            _check(failures, linked > value,
                   f"linked pair {linked:.4f} not above {a}/{b} {value:.4f}")
    _verdict(4, "shared-pool topic confusion", failures,
             f"payday/bankrupt {linked:.3f} vs next pair "
             f"{worst_pair} {worst_value:.3f}")


# ---------------------------------------------------------------------------
# 5. clicking strictly raises every topic's own score
# ---------------------------------------------------------------------------

def _own_topic_means(result) -> dict[str, float]:
    means = {}
    for topic in result.config.categories.all_labels:
        values = [
            float(vector.scores[topic])
            for session in result.evaluation.sessions
            if session.truth == topic
            for vector in session.scores
        ]
        means[topic] = fmean(values)
    return means


def test_criterion_5_clicking_strictly_raises_own_scores():
    failures: list[str] = []
    with_clicks = run_campaign(CampaignConfig(), CLICK_SEED)
    without = run_campaign(CampaignConfig(clicks_enabled=False), CLICK_SEED)
    on, off = _own_topic_means(with_clicks), _own_topic_means(without)
    uplifts = {t: on[t] - off[t] for t in on}
    for topic, uplift in uplifts.items():
        _check(failures, uplift > 0.0,
               f"{topic}: clicked mean {on[topic]:.4f} not above "
               f"unclicked {off[topic]:.4f}")
    _verdict(5, "click effect on own-topic score", failures,
             f"min uplift {min(uplifts.values()):+.4f} "
             f"({min(uplifts, key=uplifts.get)}), all 12 topics strict")


# ---------------------------------------------------------------------------
# 6. misclassification runs track the engine's update delay
# ---------------------------------------------------------------------------

def test_criterion_6_learning_lag_statistics(google):
    result, _ = google
    failures: list[str] = []
    expected_run = result.evaluation.lag.expected_run
    _check(failures, expected_run is not None and 0.9 <= expected_run <= 1.2,
           f"instant-update E[X] {expected_run} outside [0.9, 1.2]")
    first_probe = result.evaluation.lag.first_error_dist.get(1, 0.0)
    _check(failures, first_probe >= 0.9,
           f"Pr(first error at probe 1) = {first_probe:.2f} < 0.9")

    bing = run_campaign(
        CampaignConfig(engine=load_engine_config("bing_like")), MASTER_SEED)
    _check(failures,
           bing.evaluation.lag.expected_run is not None
           and 1.5 <= bing.evaluation.lag.expected_run <= 2.0,
           f"delayed-update E[X] {bing.evaluation.lag.expected_run} outside [1.5, 2.0]")

    base = load_engine_config("google_like")
    ladder = [expected_run]
    for lag in range(1, 5):
        config = CampaignConfig(engine=base.replace(adaptation_lag=lag))
        ladder.append(
            run_campaign(config, MASTER_SEED).evaluation.lag.expected_run)
    for lower, upper in zip(ladder, ladder[1:]):
        _check(failures, upper is not None and upper >= lower - 1e-9,
               f"E[X] ladder not nondecreasing: {ladder}")
    _verdict(6, "learning-lag statistics", failures,
             f"E[X] google {expected_run:.2f}, bing {bing.evaluation.lag.expected_run:.2f}, "
             f"ladder {[round(x, 2) for x in ladder]}")


# ---------------------------------------------------------------------------
# 7. probes stay invisible and the survey ratios reproduce
# ---------------------------------------------------------------------------

def test_criterion_7_probe_hygiene(google):
    result, _ = google
    failures: list[str] = []
    neutral = [s for s in result.evaluation.sessions if s.truth == "other"]
    _check(failures, len(neutral) >= 10,
           "fewer than 10 neutral test sessions")
    flagged = [s.session_id for s in neutral if s.verdict.sensitive]
    _check(failures, not flagged,
           f"neutral sessions flagged sensitive: {flagged}")

    report = default_ambiguity_report()
    p1, p2 = DEFAULT_PROBES
    cells = 0
    for topic, _n, _np1, _np2, pct1, pct2 in AMBIGUITY_ROWS:
        for probe, expected in ((p1, pct1), (p2, pct2)):
            got = round(100 * report[topic, probe].ratio)
            cells += 1
            _check(failures, got == expected,
                   f"{topic}/{probe!r}: rounded ratio {got}% != {expected}%")
    _verdict(7, "probe hygiene", failures,
             f"{len(neutral)} neutral sessions unflagged, "
             f"{cells} survey cells reproduced")


# ---------------------------------------------------------------------------
# 8. reruns are byte-identical; splits never share a session
# ---------------------------------------------------------------------------

def test_criterion_8_determinism_and_split_leakage(google, tmp_path):
    result, _ = google
    failures: list[str] = []
    rerun = run_campaign(CampaignConfig(), MASTER_SEED)
    write_bundle(result, tmp_path / "first")
    write_bundle(rerun, tmp_path / "second")
    first = read_bundle_bytes(tmp_path / "first")
    second = read_bundle_bytes(tmp_path / "second")
    for name in first:
        _check(failures, first[name] == second[name],
               f"rerun changed {name}")
    train_ids = {t.session_id for t in result.training_traces}
    test_ids = {t.session_id for t in result.test_traces}
    _check(failures, len(train_ids) == 12 * 3, "unexpected training-split size")
    _check(failures, len(test_ids) == 12 * 10, "unexpected test-split size")
    _check(failures, not (train_ids & test_ids),
           f"splits share sessions: {sorted(train_ids & test_ids)[:3]}")
    _verdict(8, "determinism and split hygiene", failures,
             f"{len(first)} artifacts byte-identical, "
             f"{len(train_ids)}+{len(test_ids)} disjoint session ids")
