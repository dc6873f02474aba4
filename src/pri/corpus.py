"""Domain types and file formats for labeled adverts and session captures.

Two on-disk formats live here:

* corpus files: UTF-8 lines of ``label<TAB>advert text`` (``#`` comments and
  blank lines ignored);
* capture files: a ``#pri-capture v1`` header followed by one canonical JSON
  record per interaction, sorted by (session_id, step).  The writer emits a
  single canonical byte form so round-trip equality is meaningful.

``write_capture`` encodes each distinct advert once per file, and each
query's ``"links":[...],"query":"..."`` fragment once per file: a record
reuses the fragment when its links are the cached links object or equal to
it, and encodes a fresh one when they differ.  ``parse_capture`` is where a
capture from outside becomes ``SessionTrace`` records, so it alone checks
what a record holds; the records themselves are plain ``NamedTuple``s.
"""

from __future__ import annotations

import json
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .config import write_output
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
    # A campaign writes a few dozen distinct adverts thousands of times.
    encoded: dict[Advert, str] = {}
    # query -> (its links, the encoded '"links":[...],"query":"..."' run).
    # Queries repeat across sessions, their links nearly always with them.
    fragments: dict[str, tuple[tuple[tuple[str, str], ...], str]] = {}
    for trace in sorted(traces, key=lambda t: t.session_id):
        session_field = f',"session_id":{encode(trace.session_id)},"step":'
        topic_field = f',"topic":{encode(trace.topic_label)}}}\n'
        records = []
        for step, query, (links, ads), clicked, is_probe in trace.interactions:
            try:
                adverts = ",".join([encoded[ad] for ad in ads])
            except KeyError:  # an advert the file has not held before
                encoded.update([(ad, encode(ad.text)) for ad in ads])
                adverts = ",".join([encoded[ad] for ad in ads])
            cached = fragments.get(query)
            if cached is not None and (cached[0] is links or cached[0] == links):
                fragment = cached[1]
            else:
                pairs = ",".join([f"[{encode(title)},{encode(snippet)}]"
                                  for title, snippet in links])
                fragment = f'"links":[{pairs}],"query":{encode(query)}'
                fragments[query] = (links, fragment)
            records.append(
                f'{{"adverts":[{adverts}],'
                f'"clicked":[{",".join(map(str, clicked))}],'
                f'"is_probe":{"true" if is_probe else "false"},{fragment}'
                f'{session_field}{step}{topic_field}')
        out.write("".join(records))


def save_capture(traces: Iterable[SessionTrace], path: str | Path) -> None:
    write_output(path, lambda out: write_capture(traces, out))


# Record key -> (the type docs/FORMATS.md gives it, a check for that type).
# JSON gives each value as its exact type, so ``type(...) is`` tests it, and
# a bool is no int.
_RECORD_TYPES = {
    "session_id": ("a string", lambda value: type(value) is str),
    "topic": ("a string", lambda value: type(value) is str),
    "step": ("an int", lambda value: type(value) is int),
    "query": ("a string", lambda value: type(value) is str),
    "is_probe": ("a bool", lambda value: type(value) is bool),
    "links": ("a list of [title, snippet] string pairs",
              lambda value: type(value) is list
              and all([type(link) is list and len(link) == 2
                       and type(link[0]) is str and type(link[1]) is str
                       for link in value])),
    "adverts": ("a list of strings",
                lambda value: type(value) is list
                and all([type(text) is str for text in value])),
    "clicked": ("a list of ints",
                lambda value: type(value) is list
                and all([type(index) is int for index in value])),
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
            step, query = rec["step"], rec["query"]
            links, adverts = rec["links"], rec["adverts"]
            clicked, is_probe = rec["clicked"], rec["is_probe"]
        except KeyError as exc:
            raise ValidationError(f"capture line {lineno}: missing field {exc}") from exc
        interaction = Interaction(
            step=step,
            query=query,
            page=ResultPage(
                links=tuple([(title, snippet) for title, snippet in links]),
                adverts=tuple([Advert(text) for text in adverts]),
            ),
            clicked=tuple(clicked),
            is_probe=is_probe,
        )
        if is_probe and clicked:
            raise ValidationError(
                f"capture line {lineno}: probe responses are never clicked")
        for idx in clicked:
            if not 0 <= idx < len(adverts):
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
