"""The on-disk table formats: CSV with a header row, and JSON lines.

Files are UTF-8 with ``\\n`` line endings. Readers skip blank lines and
report bad input as ``ValueError("<path>: line N: ...")``, where N is the
physical line of the file. Every text input of the program, tables or
not, is decoded by ``open_text``.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

T = TypeVar("T")


@contextmanager
def open_text(path, newline: str | None = None) -> Iterator[TextIO]:
    """``open(path, encoding="utf-8", newline=newline)``, streamed.

    Undecodable bytes met in the ``with`` body raise ``ValueError("<path>:
    line N: not valid UTF-8")`` for the line that holds the first of them.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise ValueError(f"{path}: line {line}: not valid UTF-8") from None
            raise


def read_text(path) -> str:
    """The whole of a UTF-8 text file, decoded by ``open_text``."""
    with open_text(path) as fh:
        return fh.read()


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(
    path, columns: Sequence[str] | None, parse: Callable[..., T]
) -> tuple[list[str], list[T]]:
    """Header and ``parse(*cells)`` of every data row of a CSV table.

    The header must name each column once and every one of ``columns``;
    ``parse`` gets the row's cells for those columns in that order, or all
    of its cells when ``columns`` is None. Every row must have as many
    cells as the header. A ``ValueError`` from ``parse`` names the row's line.
    """
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        repeated = next((c for i, c in enumerate(header) if c in header[:i]), None)
        if repeated is not None:
            raise ValueError(f"{path}: line 1: header names column {repeated!r} twice")
        missing = [c for c in columns or () if c not in header]
        if missing:
            raise ValueError(f"{path}: line 1: header lacks column(s) {', '.join(missing)}")
        at = range(len(header)) if columns is None else [header.index(c) for c in columns]
        # one C call per row; an itemgetter of one index returns a bare cell
        pick = itemgetter(*at) if len(at) > 1 else lambda row: [row[i] for i in at]
        out: list[T] = []
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} cells, found {len(row)}")
                out.append(parse(*pick(row)))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return header, out


def unique(seen: set, key: T, what: str) -> T:
    """``key``, added to ``seen``; ``ValueError`` if it is there already."""
    if key in seen:
        raise ValueError(f"duplicate {what} {key!r}")
    seen.add(key)
    return key


def number(cell: str, kind: type = float):
    """A finite ``float`` (or an ``int``) from one cell; ``ValueError`` otherwise."""
    value = kind(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def write_jsonl(path, objects: Iterable[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(json.dumps(obj, sort_keys=True) + "\n" for obj in objects)


def read_jsonl(path, parse: Callable[[object], T]) -> list[tuple[int, T]]:
    """``(line number, parse(object))`` of every non-blank line of a JSON-lines file.

    Invalid JSON, and a ``ValueError`` from ``parse``, are reported with
    the line.
    """
    out: list[tuple[int, T]] = []
    with open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append((line_no, parse(json.loads(line))))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: invalid JSON ({exc.msg})") from None
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
    return out
