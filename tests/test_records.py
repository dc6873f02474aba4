"""The classes that check their input, and the records that do not.

``BAD_VALUES`` lists every class of ``src/pri`` whose ``__init__`` raises
``ValidationError``, with one construction each that it rejects; an ``ast``
guard keeps the list complete.  Records that only carry data, such as
``Interaction`` and ``SessionTrace``, are ``NamedTuple``s: what they hold
from a file is checked by the parser that reads the file, and they compare
by every field.
"""

from __future__ import annotations

import ast
from io import StringIO
from pathlib import Path

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
from pri.runner import CampaignConfig
from pri.scripts import CategoryKeywords
from pri.simulator import EngineConfig, EngineTables, build_ad_pools

SRC = Path(__file__).resolve().parent.parent / "src" / "pri"

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
    "DetectorConfig": lambda: DetectorConfig(sigma_multiplier=float("nan")),
    "CategoryKeywords": lambda: CategoryKeywords("payday", ()),
    "EngineConfig": lambda: EngineConfig(adaptation_lag=-1),
    "EngineTables": lambda: EngineTables(
        EngineConfig(prior_knowledge="shoes:5"),
        build_ad_pools({"payday": ["loans"]}, "other"), CategorySet(("payday",))),
    "CampaignConfig": lambda: CampaignConfig(train_sessions_per_topic=0),
}


@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_a_bad_value_is_rejected(name):
    with pytest.raises(ValidationError):
        BAD_VALUES[name]()


def raises_validation_error(node: ast.AST) -> bool:
    """Whether a ``raise ValidationError`` statement lies inside ``node``."""
    for raised in ast.walk(node):
        if isinstance(raised, ast.Raise) and raised.exc is not None:
            exc = raised.exc
            name = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(name, ast.Name) and name.id == "ValidationError":
                return True
    return False


def checking_classes(source: str) -> list[str]:
    """Names of the module's classes whose ``__init__`` raises
    ``ValidationError`` itself."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, ast.FunctionDef)
                    and item.name == "__init__"
                    and raises_validation_error(item)
                    for item in node.body)]


def test_every_checking_class_has_a_bad_value():
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in checking_classes(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(BAD_VALUES)


def test_the_guard_finds_a_class_without_a_row():
    source = (
        "class Checked:\n"
        "    def __init__(self, x):\n"
        "        if x < 0:\n"
        "            raise ValidationError(f'{x} is negative')\n"
        "class Record(NamedTuple):\n"
        "    x: int\n"
        "class Elsewhere:\n"
        "    def __init__(self, x):\n"
        "        raise ValueError(x)\n"
        "    def check(self):\n"
        "        raise ValidationError\n"
    )
    assert checking_classes(source) == ["Checked"]
    assert set(checking_classes(source)) - set(BAD_VALUES) == {"Checked"}


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
