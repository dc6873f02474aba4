"""Domain types and file formats for labeled adverts and session captures.

Two on-disk formats live here:

* corpus files: UTF-8 lines of ``label<TAB>advert text`` (``#`` comments and
  blank lines ignored);
* capture files: a ``#pri-capture v1`` header followed by one canonical JSON
  record per interaction, sorted by (session_id, step).  The writer emits a
  single canonical byte form so round-trip equality is meaningful.

``write_capture`` encodes each distinct advert text once per file and each
distinct links value once per session.  ``parse_capture`` is where a capture
from outside becomes ``SessionTrace`` records, so it alone checks what a
record holds; the records themselves are plain ``NamedTuple``s.
"""

from __future__ import annotations

import json
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import ValidationError

CAPTURE_HEADER = "#pri-capture v1"


class CategorySet:
    """The sensitive categories plus the catch-all bucket for everything else."""

    def __init__(self, sensitive: tuple[str, ...], catchall: str = "other") -> None:
        self.sensitive = sensitive
        self.catchall = catchall
        self.all_labels = sensitive + (catchall,)
        if len(set(self.all_labels)) != len(self.all_labels):
            raise ValidationError("category labels must be unique")
        for label in self.all_labels:
            # The model and baselines files join labels with ',' and '=' in
            # tab-separated lines, which readers split with str.splitlines.
            if label.splitlines() != [label] or any(c in label for c in ",=\t"):
                raise ValidationError(
                    f"category label {label!r} must be nonempty and hold no "
                    "',', '=', tab or line break")

    def __eq__(self, other: object) -> bool:
        return type(other) is CategorySet and vars(other) == vars(self)

    def __contains__(self, label: object) -> bool:
        return label in self.all_labels


class LabeledAdvert(NamedTuple):
    label: str
    text: str


class Advert(NamedTuple):
    text: str


class ResultPage(NamedTuple):
    """One response page: ordered (title, snippet) links plus advert slots.

    An advert's slot is its index in ``adverts``.
    """

    links: tuple[tuple[str, str], ...]
    adverts: tuple[Advert, ...]


class Interaction(NamedTuple):
    step: int
    query: str
    page: ResultPage
    clicked: tuple[int, ...]
    is_probe: bool


class SessionTrace(NamedTuple):
    session_id: str
    topic_label: str
    interactions: tuple[Interaction, ...]

    @property
    def probes(self) -> tuple[Interaction, ...]:
        return tuple(it for it in self.interactions if it.is_probe)


class Dictionary:
    """Dense term<->id bijection over the filtered training vocabulary."""

    def __init__(self, term_to_id: dict[str, int]) -> None:
        self._term_to_id = term_to_id

    @cached_property
    def terms(self) -> tuple[str, ...]:
        """Terms in id order, computed once."""
        return tuple(sorted(self._term_to_id, key=self._term_to_id.__getitem__))

    def __contains__(self, term: object) -> bool:
        return term in self._term_to_id

    def __len__(self) -> int:
        return len(self._term_to_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self.terms)


def parse_corpus(
    lines: Iterable[str], categories: CategorySet | None = None
) -> list[LabeledAdvert]:
    """Parse ``label<TAB>text`` records, rejecting unknown labels by line.

    Without ``categories`` every nonempty label is known.
    """
    out: list[LabeledAdvert] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        label, sep, text = line.partition("\t")
        if not sep:
            raise ValidationError(f"corpus line {lineno}: missing tab separator")
        label = label.strip()
        text = text.strip()
        if not label or (categories is not None and label not in categories):
            raise ValidationError(f"corpus line {lineno}: unknown label {label!r}")
        if not text:
            raise ValidationError(f"corpus line {lineno}: empty advert text")
        out.append(LabeledAdvert(label, text))
    return out


def headed_lines(
    lines: Iterable[str], header: str, kind: str
) -> Iterator[tuple[int, str]]:
    """Check a versioned file's header line, then yield its nonblank lines.

    Each line comes with its 1-based number and without a trailing newline.
    """
    it = iter(lines)
    first = next(it, None)
    if first is None:
        raise ValidationError(f"empty {kind} file")
    first = first.rstrip("\n")
    if first != header:
        raise ValidationError(f"unsupported {kind} header {first!r}")
    for lineno, raw in enumerate(it, start=2):
        line = raw.rstrip("\n")
        if line.strip():
            yield lineno, line


# ---------------------------------------------------------------------------
# capture files
# ---------------------------------------------------------------------------


def write_capture(traces: Iterable[SessionTrace], out: IO[str]) -> None:
    """Write the canonical byte form: header, then records sorted by id/step.

    Each record is the bytes of ``json.dumps(record, sort_keys=True,
    separators=(",", ":"))``, assembled from per-string encodings with the
    keys in sorted order; each session's records go out as one string.
    """
    out.write(CAPTURE_HEADER + "\n")
    encode = encode_basestring_ascii
    # A campaign writes a few dozen distinct advert texts thousands of times.
    encoded: dict[str, str] = {}
    for trace in sorted(traces, key=lambda t: t.session_id):
        # A session repeats its probe, and with it the probe's links.
        session_links: dict[tuple[tuple[str, str], ...], str] = {}
        session_field = f',"session_id":{encode(trace.session_id)},"step":'
        topic_field = f',"topic":{encode(trace.topic_label)}}}\n'
        records = []
        for interaction in trace.interactions:
            page = interaction.page
            for ad in page.adverts:
                if ad.text not in encoded:
                    encoded[ad.text] = encode(ad.text)
            adverts = ",".join([encoded[ad.text] for ad in page.adverts])
            links = session_links.get(page.links)
            if links is None:
                links = session_links[page.links] = ",".join([
                    f"[{encode(title)},{encode(snippet)}]"
                    for title, snippet in page.links])
            clicked = ",".join(map(str, interaction.clicked))
            is_probe = "true" if interaction.is_probe else "false"
            records.append(
                f'{{"adverts":[{adverts}],"clicked":[{clicked}],'
                f'"is_probe":{is_probe},"links":[{links}],'
                f'"query":{encode(interaction.query)}'
                f'{session_field}{interaction.step}{topic_field}')
        out.write("".join(records))


def save_capture(traces: Iterable[SessionTrace], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_capture(traces, fh)


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_link(value: object) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_str, value))


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


# Record key -> (the type docs/FORMATS.md gives it, a check for that type).
_RECORD_TYPES = {
    "session_id": ("a string", _is_str),
    "topic": ("a string", _is_str),
    "step": ("an int", _is_int),
    "query": ("a string", _is_str),
    "is_probe": ("a bool", lambda value: isinstance(value, bool)),
    "links": ("a list of [title, snippet] string pairs", _list_of(_is_link)),
    "adverts": ("a list of strings", _list_of(_is_str)),
    "clicked": ("a list of ints", _list_of(_is_int)),
}


def parse_capture(lines: Iterable[str]) -> list[SessionTrace]:
    traces: list[SessionTrace] = []
    current_id: str | None = None
    current_topic = ""
    pending: list[Interaction] = []
    seen_ids: set[str] = set()

    def flush() -> None:
        if current_id is not None:
            traces.append(SessionTrace(current_id, current_topic, tuple(pending)))

    for lineno, line in headed_lines(lines, CAPTURE_HEADER, "capture"):
        try:
            rec = json.loads(line.strip())
        except ValueError as exc:  # JSONDecodeError, or an int too long
            raise ValidationError(f"capture line {lineno}: bad record: {exc}") from exc
        except RecursionError:
            raise ValidationError(
                f"capture line {lineno}: bad record: nested too deeply"
            ) from None
        if not isinstance(rec, dict):
            raise ValidationError(f"capture line {lineno}: record is not a JSON object")
        for key, (kind, check) in _RECORD_TYPES.items():
            if key in rec and not check(rec[key]):
                raise ValidationError(f"capture line {lineno}: {key} must be {kind}")
        try:
            sid = rec["session_id"]
            interaction = Interaction(
                step=rec["step"],
                query=rec["query"],
                page=ResultPage(
                    links=tuple((t, s) for t, s in rec["links"]),
                    adverts=tuple(Advert(text) for text in rec["adverts"]),
                ),
                clicked=tuple(rec["clicked"]),
                is_probe=rec["is_probe"],
            )
        except KeyError as exc:
            raise ValidationError(f"capture line {lineno}: missing field {exc}") from exc
        if interaction.is_probe and interaction.clicked:
            raise ValidationError(
                f"capture line {lineno}: probe responses are never clicked")
        for idx in interaction.clicked:
            if not 0 <= idx < len(interaction.page.adverts):
                raise ValidationError(
                    f"capture line {lineno}: clicked index {idx} out of range")

        if sid != current_id:
            flush()
            if sid in seen_ids or (current_id is not None and sid < current_id):
                raise ValidationError(
                    f"capture line {lineno}: records not sorted by session_id"
                )
            seen_ids.add(sid)
            current_id = sid
            current_topic = rec.get("topic", "")
            pending = []
        elif rec.get("topic", "") != current_topic:
            raise ValidationError(
                f"capture line {lineno}: conflicting topic for session {sid}"
            )
        if pending:
            if interaction.step == pending[-1].step:
                raise ValidationError(
                    f"capture line {lineno}: duplicate step {interaction.step} "
                    f"in session {sid}"
                )
            if interaction.step < pending[-1].step:
                raise ValidationError(
                    f"capture line {lineno}: out-of-order step {interaction.step} "
                    f"in session {sid}"
                )
        pending.append(interaction)

    flush()
    return traces
