"""Value classes: each validated one rejects a bad value, copies go through
the constructor, and session traces compare by every field."""

from __future__ import annotations

from io import StringIO

import pytest

from pri.corpus import (
    Advert,
    CategorySet,
    Interaction,
    ResultPage,
    SessionTrace,
    parse_capture,
    write_capture,
)
from pri.detector import DetectorConfig
from pri.errors import ValidationError
from pri.probes import ProbeCandidate
from pri.runner import CampaignConfig
from pri.scripts import CategoryKeywords, ScriptEntry
from pri.simulator import EngineConfig

PAGE = ResultPage((("title", "snippet"),), (Advert("ad one"), Advert("ad two")))


def interaction(**changes) -> Interaction:
    fields = dict(step=1, query="q", page=PAGE, clicked=(1,), is_probe=False)
    return Interaction(**{**fields, **changes})


def trace(**changes) -> SessionTrace:
    fields = dict(session_id="s1", topic_label="payday",
                  interactions=(interaction(),))
    return SessionTrace(**{**fields, **changes})


# class name -> a construction with one bad value
BAD_VALUES = {
    "CategorySet": lambda: CategorySet(("other",), "other"),
    "Interaction": lambda: interaction(is_probe=True),
    "SessionTrace": lambda: trace(interactions=(interaction(step=2),
                                                interaction(step=1))),
    "DetectorConfig": lambda: DetectorConfig(sigma_multiplier=float("nan")),
    "ProbeCandidate": lambda: ProbeCandidate("help", 0),
    "CategoryKeywords": lambda: CategoryKeywords("payday", ()),
    "ScriptEntry": lambda: ScriptEntry("  ", False),
    "EngineConfig": lambda: EngineConfig(adaptation_lag=-1),
    "CampaignConfig": lambda: CampaignConfig(train_sessions_per_topic=0),
}


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_a_bad_value_is_rejected(name):
    with pytest.raises(ValidationError):
        BAD_VALUES[name]()


def test_engine_config_copies_are_validated():
    base = EngineConfig(prior_knowledge="other:100")
    assert base.replace(adaptation_lag=3) == EngineConfig(
        3, 2.0, 4, 3.3, "other:100")
    with pytest.raises(ValidationError, match="adaptation_lag"):
        base.replace(adaptation_lag=-1)


def test_a_capture_round_trip_gives_equal_traces():
    out = StringIO()
    write_capture([trace()], out)
    assert parse_capture(out.getvalue().splitlines()) == [trace()]


@pytest.mark.parametrize("changes", [
    {"session_id": "s2"},
    {"topic_label": "other"},
    {"interactions": (interaction(step=2),)},
    {"interactions": (interaction(query="r"),)},
    {"interactions": (interaction(page=ResultPage((), PAGE.adverts)),)},
    {"interactions": (interaction(clicked=(0,)),)},
    {"interactions": (interaction(clicked=(), is_probe=True),)},
], ids=["session_id", "topic_label", "step", "query", "page", "clicked",
        "is_probe"])
def test_traces_differing_in_one_field_are_unequal(changes):
    assert trace(**changes) != trace()
