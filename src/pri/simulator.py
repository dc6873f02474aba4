"""Deterministic advert-serving engine used as the adversary under test.

The engine keeps one nonnegative weight per category.  Every submitted query
is answered from the weights as already applied.  Only then do the labels
the query hits join the pending queue, due ``adaptation_lag`` interactions
later, and the queue applies, first in first out, every update now due.  A
page's clicks join the queue in one call, in slot order, and are applied the
same way.  An update caused by interaction ``j`` (a query hitting a
category's vocabulary, or a click on a served advert) therefore first
influences the page served for interaction ``j + adaptation_lag + 1``, for
queries and clicks alike.

Advert slots are apportioned to categories by largest remainder over the
current weights, once per distinct weight state in a campaign, and each slot
is filled from the category's pool slice.  The slice size is chosen so that
the expected number of distinct adverts on a page matches the configured
``pool_diversity``.

A campaign, and ``pri simulate``, builds one ``EngineTables`` from the
engine settings, the advert pools and the categories.  It holds what every
engine reads and none changes: each category's diversity slice and
vocabulary, the prior belief, and, filled as sessions submit them, each
distinct query's organic links and matched categories,
and each distinct weight state's slot labels (the category of each advert
slot).  Every page serves the campaign's frozen ``Advert``s.  An
``AdEngine`` holds only its session's state: its copy of the weights, the
slot labels of its next page, looked up again only after the weights
change, the pending queue, the step, its random generator and the slot
labels of the last page served.  Each interaction does its work once: the
query's labels, and then a page's clicks in one ``register_clicks`` call,
join the pending queue, which is drained once per call.
"""

from __future__ import annotations

import math
import random
from collections import deque
from pathlib import Path
from typing import Mapping, Sequence

from .config import bundled_lines, load_config, parse_config, typed_settings
from .corpus import Advert, CategorySet, ResultPage
from .errors import UsageError, ValidationError
from .textproc import filter_terms, term_set

QUERY_INCREMENT = 1.0
LINKS_PER_PAGE = 5
POOL_SIZE = 8

ENGINE_PRESETS = ("google_like", "bing_like")

# Appended to every generated sensitive advert; none of these words shares a
# stem with any keyword list, trending query, probe, or connective.
AD_TAIL = "official site trusted experts online deals"

# Neutral vocabulary for organic result links.
LINK_WORDS = (
    "guide", "overview", "article", "resource", "portal", "directory",
    "journal", "archive", "library", "reference", "summary", "insight",
    "bulletin", "digest", "handbook", "manual", "tutorial", "lesson",
    "introduction", "glossary", "index", "catalog", "listing", "gazette",
    "chronicle", "observer", "tribune", "herald", "monitor", "network",
    "channel", "station", "forum", "board", "thread", "discussion",
)

# Generic loan copy carried by both short-term-credit pools, so the two
# related categories advertise with overlapping wording.
SHARED_FINANCE_ADS = (
    "Cheap payday loans approved in minutes by trusted online lenders",
    "Payday cash advances cleared fast low rates instant approval",
    "Quick cash payday lending cheap rates for bad credit approved",
)
_SHARED_FINANCE_TOPICS = frozenset({"payday", "bankrupt"})

# Catch-all adverts are rewordings of one fixed bag of words: every page
# composed purely of them carries the same term multiset, whatever the
# sampling order.
_CATCHALL_ADS = (
    "Holiday packages football scores cinema listings official site"
    " trusted experts online deals",
    "Cinema listings and holiday packages with football scores from the"
    " official site: online deals by trusted experts",
    "Football scores, cinema listings and holiday packages - online deals"
    " from trusted experts at the official site",
    "Trusted experts for holiday packages and cinema listings with football"
    " scores; official site online deals",
    "Online deals on holiday packages, football scores and cinema listings"
    " from trusted experts official site",
    "Official site for football scores, holiday packages and cinema"
    " listings: trusted experts, online deals",
    "Holiday packages with cinema listings and football scores - trusted"
    " online experts, official site deals",
    "Cinema listings, football scores, holiday packages and online deals"
    " from the official site trusted experts",
)

# Filler between phrases inside generated adverts; every entry is a stopword
# sequence, so the glue never reaches the filtered term multiset.
_AD_GLUE = ("for", "with", "and", "from", "to", "on", "at", "as")


class EngineConfig:
    def __init__(
        self,
        adaptation_lag: int = 0,
        click_boost: float = 2.0,
        ads_per_page: int = 4,
        pool_diversity: float = 3.3,
        prior_knowledge: str = "",
    ) -> None:
        if adaptation_lag < 0:
            raise ValidationError("adaptation_lag must be >= 0")
        if click_boost <= 0 or not math.isfinite(click_boost):
            raise ValidationError("click_boost must be positive")
        if ads_per_page < 1:
            raise ValidationError("ads_per_page must be at least 1")
        if pool_diversity <= 0 or not math.isfinite(pool_diversity):
            raise ValidationError("pool_diversity must be positive")
        parse_prior_knowledge(prior_knowledge)
        self.adaptation_lag = adaptation_lag
        self.click_boost = click_boost
        self.ads_per_page = ads_per_page
        self.pool_diversity = pool_diversity
        self.prior_knowledge = prior_knowledge

    def __eq__(self, other: object) -> bool:
        return type(other) is EngineConfig and vars(other) == vars(self)

    def replace(self, **changes) -> EngineConfig:
        """A copy with some settings changed, validated like any other."""
        return EngineConfig(**{**vars(self), **changes})


def parse_prior_knowledge(text: str) -> dict[str, float]:
    """Parse ``label:weight,label:weight`` into a weight mapping."""
    weights: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        label, sep, value = part.partition(":")
        label = label.strip()
        if not sep or not label:
            raise ValidationError(
                f"prior knowledge entry {part!r} is not label:weight"
            )
        try:
            weight = float(value)
        except ValueError:
            raise ValidationError(
                f"prior knowledge weight for {label!r} is not a number"
            ) from None
        if weight <= 0 or not math.isfinite(weight):
            raise ValidationError(
                f"prior knowledge weight for {label!r} must be positive"
            )
        weights[label] = weight
    return weights


def expected_distinct(pool_size: int, draws: int) -> float:
    """Expected distinct adverts over uniform draws with replacement."""
    return pool_size * (1.0 - (1.0 - 1.0 / pool_size) ** draws)


def diversity_slice(pool_size: int, draws: int, target: float) -> int:
    """Smallest slice whose expected distinct-advert count best matches target."""
    return min(
        range(1, pool_size + 1),
        key=lambda k: (abs(expected_distinct(k, draws) - target), k),
    )


def apportion_slots(
    weights: Mapping[str, float], order: Sequence[str], slots: int
) -> dict[str, int]:
    """Largest-remainder apportionment; remainder ties keep `order`."""
    values = [weights[label] for label in order]
    total = sum(values)
    if total <= 0:
        raise ValidationError("category weights must sum to a positive value")
    quotas = [slots * value / total for value in values]
    counts = [int(quota) for quota in quotas]
    leftover = slots - sum(counts)
    if leftover > 0:
        remainders = [quota - count for quota, count in zip(quotas, counts)]
        # A stable sort keeps `order` among equal remainders, reversed or not.
        by_remainder = sorted(range(len(order)),
                              key=remainders.__getitem__, reverse=True)
        for i in by_remainder[:leftover]:
            counts[i] += 1
    return dict(zip(order, counts))


# LINK_WORDS[byte % len(LINK_WORDS)] for every byte value.
_BYTE_WORDS = LINK_WORDS * (256 // len(LINK_WORDS) + 1)
_RANK_SUFFIXES = tuple(str(rank).encode("ascii") for rank in range(LINKS_PER_PAGE))
# A page's organic results: (title, snippet) by rank.
Links = tuple[tuple[str, str], ...]


def links_for_query(query: str) -> Links:
    """Organic links for a query: stable, rank-ordered, content-free.

    The words of rank ``r`` come from the first 8 bytes of the sha256
    digest of ``f"{query}\\x1f{r}"``; the shared prefix is hashed once.
    """
    import hashlib  # here, not at top level: only simulated sessions pay it

    prefix = hashlib.sha256(query.encode("utf-8") + b"\x1f")
    words = _BYTE_WORDS
    links = []
    for suffix in _RANK_SUFFIXES:
        digest = prefix.copy()
        digest.update(suffix)
        d = digest.digest()
        links.append((f"{words[d[0]]} {words[d[1]]} {words[d[2]]}",
                      f"{words[d[3]]} {words[d[4]]} {words[d[5]]} "
                      f"{words[d[6]]} {words[d[7]]}"))
    return tuple(links)


def _topic_ads(label: str, phrases: Sequence[str]) -> list[str]:
    """Eight adverts per category, each carrying the full phrase list.

    All rotations share one term multiset, so pages differ only in their
    category composition, never in the wording luck of a single draw.  The
    two short-term-credit categories swap their last three adverts for the
    shared generic loan copy.
    """
    ads = []
    for i in range(POOL_SIZE):
        start = i % len(phrases)
        rotated = list(phrases[start:]) + list(phrases[:start])
        joiner = ", " if i % 2 else f" {_AD_GLUE[i]} "
        ads.append(f"{joiner.join(rotated)} {AD_TAIL}")
    if label in _SHARED_FINANCE_TOPICS:
        ads[POOL_SIZE - len(SHARED_FINANCE_ADS):] = list(SHARED_FINANCE_ADS)
    return ads


def build_ad_pools(
    keywords: Mapping[str, Sequence[str]], catchall: str
) -> dict[str, tuple[Advert, ...]]:
    """Advert pools for every keyword category plus the catch-all bucket.

    Adverts are frozen, so every page an engine serves shares these.  Each
    category has phrases and none is named ``catchall``: the caller's
    ``CategoryKeywords`` and ``CategorySet`` have checked both.
    """
    pools = {
        label: tuple(map(Advert, _topic_ads(label, tuple(phrases))))
        for label, phrases in keywords.items()
    }
    pools[catchall] = tuple(map(Advert, _CATCHALL_ADS))
    return pools


class EngineTables:
    """What every engine of a campaign reads and none changes, derived once:
    each category's slice and vocabulary, the prior belief, and each distinct
    query's organic links and the labels whose vocabulary it hits.

    ``pools`` holds a nonempty pool for every category, as
    ``build_ad_pools`` makes them.
    """

    def __init__(
        self,
        config: EngineConfig,
        pools: Mapping[str, Sequence[Advert]],
        categories: CategorySet,
    ) -> None:
        self.config = config
        self.categories = categories
        self.slices: dict[str, tuple[Advert, ...]] = {}
        for label in categories.all_labels:
            pool = tuple(pools[label])
            size = diversity_slice(len(pool), config.ads_per_page,
                                   config.pool_diversity)
            self.slices[label] = pool[:size]
        self._vocab = tuple((label, term_set(ad.text for ad in ads))
                            for label, ads in self.slices.items())
        prior = parse_prior_knowledge(config.prior_knowledge)
        unknown = sorted(set(prior) - set(categories.all_labels))
        if unknown:
            raise ValidationError(f"prior knowledge names unknown categories: {unknown}")
        raw = {label: prior.get(label, 1.0) for label in categories.all_labels}
        total = sum(raw.values())
        # An infinite sum would normalise every weight to 0.
        if not math.isfinite(total):
            raise ValidationError(
                f"prior_knowledge = {config.prior_knowledge!r} makes the "
                f"weights' sum overflow")
        self.prior = {label: value / total for label, value in raw.items()}
        self._answers: dict[str, tuple[Links, tuple[str, ...]]] = {}
        # Weight values in label order -> the category of each advert slot.
        # Sessions revisit the same weight states, so each is apportioned
        # once per campaign.
        self._slot_labels: dict[tuple[float, ...], tuple[str, ...]] = {}

    def answer(self, query: str) -> tuple[Links, tuple[str, ...]]:
        """The query's organic links and the labels its terms match."""
        entry = self._answers.get(query)
        if entry is None:
            terms = set(filter_terms(query))
            labels = tuple(label for label, words in self._vocab
                           if terms & words)
            entry = self._answers[query] = (links_for_query(query), labels)
        return entry

    def slot_labels(self, weights: dict[str, float]) -> tuple[str, ...]:
        """The category of each advert slot of a page served from `weights`,
        an engine's weights, which keep the labels' order."""
        key = tuple(weights.values())
        labels = self._slot_labels.get(key)
        if labels is None:
            counts = apportion_slots(weights, self.categories.all_labels,
                                     self.config.ads_per_page)
            labels = self._slot_labels[key] = tuple(
                label for label, count in counts.items() for _ in range(count))
        return labels


class AdEngine:
    """Advert server whose belief trails interactions by ``adaptation_lag``;
    it holds one session's state and reads everything else from its tables."""

    def __init__(self, tables: EngineTables, seed: int) -> None:
        self._tables = tables
        self._weights = dict(tables.prior)
        # The category of each advert slot of the next page; None after the
        # weights change.
        self._slot_labels: tuple[str, ...] | None = None
        # (due step, label, is_click) in registration order.  Due steps never
        # decrease along the queue, so draining its front applies updates in
        # registration order, which keeps float results fixed (boosts
        # multiply, queries add).
        self._queue: deque[tuple[int, str, bool]] = deque()
        self._step = 0
        self._rng = random.Random(seed)
        self._last_served: tuple[str, ...] = ()

    def belief(self) -> dict[str, float]:
        """Current applied weights (pending updates excluded)."""
        return dict(self._weights)

    def submit_query(self, query: str) -> ResultPage:
        """Serve a page from the applied weights, then register the labels
        the query matches and apply every update now due."""
        self._step += 1
        tables = self._tables
        links, labels = tables.answer(query)
        slot_labels = self._slot_labels
        if slot_labels is None:
            slot_labels = self._slot_labels = tables.slot_labels(self._weights)
        choice = self._rng.choice
        slices = tables.slices
        page = ResultPage(links, tuple([choice(slices[label])
                                        for label in slot_labels]))
        self._last_served = slot_labels
        if labels:
            due = self._step + tables.config.adaptation_lag
            self._queue.extend([(due, label, False) for label in labels])
        self._apply_due()
        return page

    def register_clicks(self, positions: Sequence[int]) -> None:
        """Record clicks on advert slots of the most recent page, in order.

        Each position must be a slot of that page, as in ``run_session``.
        """
        served = self._last_served
        due = self._step + self._tables.config.adaptation_lag
        self._queue.extend([(due, served[position], True)
                            for position in positions])
        self._apply_due()

    # -- internals --------------------------------------------------------

    def _apply_due(self) -> None:
        queue = self._queue
        step = self._step
        if not queue or queue[0][0] > step:
            return
        weights = self._weights
        config = self._tables.config
        while queue and queue[0][0] <= step:
            _, label, is_click = queue.popleft()
            if is_click:
                weights[label] *= config.click_boost
                # apportion_slots needs ads_per_page * weight / total finite.
                if not math.isfinite(sum(weights.values()) * config.ads_per_page):
                    raise ValidationError(
                        f"click_boost = {config.click_boost!r} makes the "
                        f"{label!r} weight overflow")
            else:
                weights[label] += QUERY_INCREMENT
        self._slot_labels = None


def new_engine(tables: EngineTables, seed: int) -> AdEngine:
    return AdEngine(tables, seed)


# ---------------------------------------------------------------------------
# engine configuration files
# ---------------------------------------------------------------------------

# setting -> the type of its default, which converts the file's text
_CONFIG_KEYS = {key: type(value) for key, value in vars(EngineConfig()).items()}


def load_engine_config(source: str | Path) -> EngineConfig:
    """Resolve a preset name or a configuration file path."""
    name = str(source)
    if name in ENGINE_PRESETS:
        mapping = parse_config(bundled_lines(f"{name}.cfg"), source=name)
    else:
        path = Path(source)
        if not path.exists():
            raise UsageError(
                f"unknown engine {name!r}: not one of "
                f"{', '.join(ENGINE_PRESETS)} and no such file"
            )
        mapping = load_config(path)
    return EngineConfig(**typed_settings(mapping, _CONFIG_KEYS, name,
                                         "engine"))  # type: ignore[arg-type]
