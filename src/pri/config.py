"""Reading input files, and line-oriented ``key = value`` configuration.

``read_lines`` is the one way a user's path becomes lines of text, and
``bundled_lines`` the one way a data file shipped with the package does.

In configuration files, blank lines and ``#`` comments are skipped.  An
``include FILE`` line splices in another file, resolved relative to the
including file; later assignments override earlier ones, so a file can
include a base profile and then adjust individual keys.  ``typed_settings``
is the one way such a file's text values become typed settings.
"""

from __future__ import annotations

from argparse import ArgumentTypeError
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path

from .errors import UsageError, ValidationError

_DATA = Path(__file__).parent / "data"


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file.

    A path that cannot be read is a usage error; bytes that are not UTF-8
    are invalid data, reported with the line they sit on.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; the line it starts or
        # continues is the last line of that prefix plus one character.
        before = data[:exc.start].decode("utf-8")
        lineno = len((before + "x").splitlines())
        raise ValidationError(f"{path} line {lineno}: not UTF-8 text") from None


def bundled_lines(name: str) -> list[str]:
    """The lines of one of the package's own data files.

    They sit in the package directory, so a path finds them with no
    ``importlib.resources`` import.
    """
    return (_DATA / name).read_text("utf-8").splitlines()


def parse_config(
    lines: Iterable[str], *, source: str = "<config>"
) -> dict[str, str]:
    """Parse configuration lines into an ordered key -> value mapping.

    The lines come from no file, so they cannot ``include`` one.
    """
    return _parse(lines, source, None, frozenset())


def load_config(path: str | Path) -> dict[str, str]:
    return _load(Path(path), frozenset())


def typed_settings(mapping: Mapping[str, str],
                   types: Mapping[str, Callable[[str], object]],
                   source: str, kind: str) -> dict[str, object]:
    """Each setting of ``mapping`` converted by its key's type in ``types``.

    A key ``types`` lacks, or a value its type rejects, is invalid data
    naming ``source``, the file the settings came from.
    """
    values: dict[str, object] = {}
    for key, text in mapping.items():
        if key not in types:
            raise ValidationError(f"{source}: unknown {kind} setting {key!r}")
        try:
            values[key] = types[key](text)
        except (ValueError, ArgumentTypeError):
            raise ValidationError(
                f"{source}: bad value for {key}: {text!r}") from None
    return values


def _load(path: Path, seen: frozenset[Path]) -> dict[str, str]:
    resolved = path.resolve()
    if resolved in seen:
        raise ValidationError(f"configuration include cycle at {path}")
    return _parse(read_lines(path), str(path), resolved.parent,
                  seen | {resolved})


def _parse(
    lines: Iterable[str],
    source: str,
    base_dir: Path | None,
    seen: frozenset[Path],
) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("include ") or line == "include":
            target = line[len("include"):].strip()
            if not target:
                raise ValidationError(f"{source}:{lineno}: include needs a file name")
            if base_dir is None:
                raise ValidationError(
                    f"{source}:{lineno}: include is only available when "
                    "reading from a file"
                )
            values.update(_load(base_dir / target, seen))
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValidationError(
                f"{source}:{lineno}: expected key = value, got {line!r}"
            )
        values[key.strip()] = value.strip()
    return values
