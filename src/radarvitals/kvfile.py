"""Line-oriented ``key value`` text format used by configs and scene files.

One entry per line: the first whitespace separates the key from the value,
``#`` starts a comment, blank lines are ignored. Keys are lower-case dotted
identifiers; values keep their literal text until a typed accessor parses
them.
"""

from __future__ import annotations

import os


def parse_kv(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'key value', got {raw!r}")
        key, value = parts
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def format_kv(entries: dict[str, str]) -> str:
    """Serialize entries so that ``parse_kv`` reads back exactly the same.

    Raises ``ValueError`` naming the key of the first entry the format
    cannot carry: a key that is not one whitespace-free token without
    ``#``, or a value that is empty, has leading or trailing whitespace,
    or contains ``#`` or a line break.
    """
    for key, value in entries.items():
        if key.split() != [key] or "#" in key:
            raise ValueError(f"kv key {key!r} must be one token without whitespace or '#'")
        if value.splitlines() != [value] or value != value.strip() or "#" in value:
            raise ValueError(
                f"kv value of {key!r} cannot be stored: {value!r} is empty, has "
                "leading or trailing whitespace, or contains '#' or a line break"
            )
    return "".join(f"{key} {value}\n" for key, value in entries.items())


def read_kv(path: str | os.PathLike) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv(fh.read())


def write_kv(path: str | os.PathLike, entries: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_kv(entries))
