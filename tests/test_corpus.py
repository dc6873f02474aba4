"""Corpus parsing, capture round trips, and the trained dictionary."""

from __future__ import annotations

import json
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pri.cli import main
from pri.corpus import (
    Advert,
    CategorySet,
    Interaction,
    LabeledAdvert,
    ResultPage,
    SessionTrace,
    parse_capture,
    parse_corpus,
    write_capture,
)
from pri.errors import ValidationError
from pri.estimator import train
from pri.textproc import TermFilter

from oracle import reference_write_capture


class TestCategorySet:
    def test_labels_in_declared_order(self):
        cats = CategorySet(sensitive=("payday", "gambling"))
        assert cats.all_labels == ("payday", "gambling", "other")
        assert "payday" in cats and "other" in cats and "zebra" not in cats

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            CategorySet(sensitive=("payday", "payday"))

    def test_catchall_collision_rejected(self):
        with pytest.raises(ValidationError):
            CategorySet(sensitive=("other",), catchall="other")

    @pytest.mark.parametrize(
        "label", ["", "a,b", "a=b", "a\tb", "a\nb", "a\rb", "a\u2028b"])
    def test_label_the_file_formats_cannot_hold_rejected(self, label):
        with pytest.raises(ValidationError, match="category label"):
            CategorySet(sensitive=(label,))
        with pytest.raises(ValidationError, match="category label"):
            CategorySet(sensitive=("payday",), catchall=label)


class TestCorpusParsing:
    def test_golden_corpus_parses(self, golden_corpus):
        assert len(golden_corpus) == 4
        assert golden_corpus[0] == LabeledAdvert(
            "prostate", "Prostate cancer: possibly at risk? Learn here!"
        )

    def test_empty_stream(self, golden_categories):
        assert parse_corpus([], golden_categories) == []

    def test_comments_and_blanks_ignored(self, golden_categories):
        lines = ["# header", "", "prostate\tprostate cancer"]
        assert len(parse_corpus(lines, golden_categories)) == 1

    def test_unknown_label_names_line(self, golden_categories):
        with pytest.raises(ValidationError, match="line 1.*payday2"):
            parse_corpus(["payday2\tquick cash"], golden_categories)

    def test_missing_tab_rejected(self, golden_categories):
        with pytest.raises(ValidationError, match="line 2"):
            parse_corpus(["prostate\tok text", "no tab here"], golden_categories)


class TestDictionary:
    """The dictionary ``train`` builds; its errors are in test_estimator."""

    def test_repeated_term_counted_once(self):
        d = train([LabeledAdvert("other", "help help")],
                  CategorySet(sensitive=())).dictionary
        assert len(d) == 1 and "help" in d

    def test_term_set_is_order_independent(self, golden_corpus,
                                           golden_categories):
        forward = train(golden_corpus, golden_categories).dictionary
        backward = train(list(reversed(golden_corpus)),
                         golden_categories).dictionary
        assert set(forward) == set(backward)


def _page(*advert_texts: str, links=()) -> ResultPage:
    return ResultPage(
        links=tuple(links),
        adverts=tuple(Advert(t) for t in advert_texts),
    )


def _trace(session_id="s1", topic="prostate") -> SessionTrace:
    return SessionTrace(
        session_id=session_id,
        topic_label=topic,
        interactions=(
            Interaction(1, "prostate cancer", _page("ad one", "ad two",
                        links=[("Title A", "snippet a")]), (0,), False),
            Interaction(2, "symptoms and causes", _page("ad three"), (), True),
        ),
    )


class TestCaptureRoundTrip:
    def test_round_trip_is_byte_identical(self):
        traces = [_trace("s1"), _trace("s2", topic="other")]
        first = StringIO()
        write_capture(traces, first)
        reparsed = parse_capture(first.getvalue().splitlines())
        second = StringIO()
        write_capture(reparsed, second)
        assert first.getvalue() == second.getvalue()
        assert [t.session_id for t in reparsed] == ["s1", "s2"]
        assert reparsed[0].topic_label == "prostate"
        assert reparsed[0].interactions[0].clicked == (0,)
        assert reparsed[0].interactions[0].page.links == (("Title A", "snippet a"),)

    def test_writer_sorts_sessions(self):
        out = StringIO()
        write_capture([_trace("s2"), _trace("s1")], out)
        lines = out.getvalue().splitlines()
        assert '"session_id":"s1"' in lines[1]

    def test_header_required(self):
        with pytest.raises(ValidationError, match="header"):
            parse_capture(["{}"])

    def test_probe_with_click_rejected(self):
        record = (
            '{"adverts":["x"],"clicked":[0],"is_probe":true,"links":[],'
            '"query":"q","session_id":"s","step":1,"topic":"other"}'
        )
        with pytest.raises(ValidationError, match="never clicked"):
            parse_capture(["#pri-capture v1", record])

    def test_duplicate_step_rejected(self):
        base = (
            '{{"adverts":[],"clicked":[],"is_probe":false,"links":[],'
            '"query":"q","session_id":"s","step":{step},"topic":"other"}}'
        )
        lines = ["#pri-capture v1", base.format(step=1), base.format(step=1)]
        with pytest.raises(ValidationError, match="duplicate"):
            parse_capture(lines)

    def test_out_of_order_step_names_line(self):
        base = (
            '{{"adverts":[],"clicked":[],"is_probe":false,"links":[],'
            '"query":"q","session_id":"s","step":{step},"topic":"other"}}'
        )
        lines = ["#pri-capture v1", base.format(step=2), base.format(step=1)]
        with pytest.raises(ValidationError, match="line 3"):
            parse_capture(lines)
        lines = ["#pri-capture v1", base.format(step=1), "[1,2]"]
        with pytest.raises(ValidationError, match="line 3: record is not a JSON"):
            parse_capture(lines)

    @pytest.mark.parametrize("field, value", [
        ("links", "5"),
        ("links", '[["title"]]'),
        ("links", '[["title", 1]]'),
        ("adverts", "[3]"),
        ("adverts", '"one advert"'),
        ("clicked", "[true]"),
        ("step", '"2"'),
        ("step", "true"),
        ("is_probe", "0"),
        ("query", "null"),
        ("session_id", "7"),
        ("topic", "[]"),
    ])
    def test_mistyped_field_names_line(self, field, value):
        def record(**changes: str) -> str:
            fields = {"adverts": '["ad"]', "clicked": "[]", "is_probe": "false",
                      "links": '[["title", "snippet"]]', "query": '"q"',
                      "session_id": '"s"', "step": "2", "topic": '"other"',
                      **changes}
            return "{" + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}"

        lines = ["#pri-capture v1", record(step="1"), record(**{field: value})]
        with pytest.raises(ValidationError, match=f"line 3: {field} must be"):
            parse_capture(lines)

    def test_sessions_must_be_sorted(self):
        base = (
            '{{"adverts":[],"clicked":[],"is_probe":false,"links":[],'
            '"query":"q","session_id":"{sid}","step":1,"topic":"other"}}'
        )
        lines = ["#pri-capture v1", base.format(sid="s2"), base.format(sid="s1")]
        with pytest.raises(ValidationError, match="sorted"):
            parse_capture(lines)


class TestTraceInvariants:
    """``parse_capture`` is where a capture from outside becomes traces, so
    it checks that each clicked position indexes the record's adverts (and,
    in ``test_probe_with_click_rejected``, that no probe is clicked)."""

    @pytest.mark.parametrize("clicked, index", [([0, 2], 2), ([-1], -1)],
                             ids=["past-the-adverts", "negative"])
    def test_a_bad_click_exits_2_naming_the_line(
            self, tmp_path, capsys, clicked, index):
        message = f"clicked index {index} out of range"
        out = StringIO()
        write_capture([_trace()], out)
        lines = out.getvalue().splitlines()
        record = json.loads(lines[1])
        assert len(record["adverts"]) == 2
        record["clicked"] = clicked
        lines[1] = json.dumps(record, sort_keys=True)
        with pytest.raises(ValidationError, match=f"capture line 2: {message}"):
            parse_capture(lines)
        capture = tmp_path / "bad.capture"
        capture.write_text("".join(line + "\n" for line in lines),
                           encoding="utf-8")
        assert main(["probe-select", "--capture", str(capture)]) == 2
        assert capsys.readouterr().err == f"error: capture line 2: {message}\n"

    def test_probe_subsequence(self):
        assert [it.step for it in _trace().probes] == [2]


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["prostate", "other"]),
            st.lists(
                st.sampled_from("alpha bravo charlie delta echo".split()),
                min_size=1, max_size=5,
            ),
        ),
        min_size=1, max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_capture_round_trip_random_traces(rows):
    traces = []
    for i, (topic, words) in enumerate(rows):
        page = _page(" ".join(words), links=[("t", " ".join(words))])
        traces.append(
            SessionTrace(
                f"s{i:03d}", topic,
                (Interaction(1, " ".join(words), page, (), False),
                 Interaction(2, "probe text", _page("ad"), (), True)),
            )
        )
    out = StringIO()
    write_capture(traces, out)
    reparsed = parse_capture(out.getvalue().splitlines())
    assert reparsed == traces


# Any code point, surrogates included: quotes, backslashes, control and
# non-BMP characters all have their own escapes.
_ANY_TEXT = st.text(st.characters(), max_size=12)


@st.composite
def _interaction(draw, step: int) -> Interaction:
    adverts = tuple(Advert(t) for t in draw(st.lists(_ANY_TEXT, max_size=5)))
    links = tuple(draw(st.lists(st.tuples(_ANY_TEXT, _ANY_TEXT), max_size=5)))
    is_probe = draw(st.booleans())
    clicked = () if is_probe else tuple(draw(st.sampled_from(
        [(), tuple(range(len(adverts))), tuple(range(0, len(adverts), 2))])))
    return Interaction(step, draw(_ANY_TEXT), ResultPage(links, adverts),
                       clicked, is_probe)


@st.composite
def _traces(draw) -> list[SessionTrace]:
    ids = draw(st.lists(_ANY_TEXT, min_size=1, max_size=4, unique=True))
    traces = []
    for session_id in ids:
        steps = sorted(draw(st.sets(st.integers(0, 10**12), max_size=4)))
        traces.append(SessionTrace(
            session_id, draw(_ANY_TEXT),
            tuple(draw(_interaction(step)) for step in steps)))
    return traces


@given(_traces())
@settings(max_examples=200, deadline=None)
def test_capture_writer_matches_one_json_dumps_per_record(traces):
    fast, reference = StringIO(), StringIO()
    write_capture(traces, fast)
    reference_write_capture(traces, reference)
    assert fast.getvalue() == reference.getvalue()


def test_capture_writer_full_and_empty_clicks_and_escapes():
    page = _page('say "hi"\\ \x00\x1f\x7f caf\u00e9 \U0001f600', "plain",
                 links=[("t\tab", "new\nline"), ("\ud800", "")])
    trace = SessionTrace("s\u2028", "to\"pic", (
        Interaction(1, "q\b\f\r", page, (0, 1), False),
        Interaction(2, "", page, (), True),
        Interaction(3, "x", _page(), (), False),
    ))
    fast, reference = StringIO(), StringIO()
    write_capture([trace], fast)
    reference_write_capture([trace], reference)
    assert fast.getvalue() == reference.getvalue()
    assert fast.getvalue().isascii()


def test_filter_object_reusable_across_modules(golden_filter):
    assert isinstance(golden_filter, TermFilter)
    assert golden_filter.terms("Treatment options") == ["treat", "option"]
