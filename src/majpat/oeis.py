"""Ingesting local OEIS-style reference files and diffing tables against them.

`diff_triangle` reads a table's rows 1, 2, ... in full, each row's span from
`enumeration._triangle`, through `MajTable.entry`, which refuses a cell
outside the table.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .enumeration import MajTable, _triangle
from .errors import InvalidInputError


def read_integer_file(path: str) -> list[int]:
    """One integer per line; blank lines and '#' comments are skipped.

    b-file style lines ("index value") are accepted by taking the last token.
    Malformed lines raise with their line number, a non-UTF-8 file with its path.
    """
    values = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                token = line.split()[-1]
                try:
                    values.append(int(token))
                except ValueError as exc:
                    raise InvalidInputError(f"{path}:{lineno}: not an integer: {line!r}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    return values


class TriangleDiff(NamedTuple):
    matched: int
    mismatch: Optional[tuple[int, int, int, int]]  # (n, m, table value, file value)
    missing_cells: int  # table cells with no file entry left

    @property
    def ok(self) -> bool:
        return self.mismatch is None and self.missing_cells == 0


def rows_holding(entries: int) -> int:
    """The fewest full rows of the triangle (at least one) that hold entries cells."""
    n = cells = 1
    while cells < entries:
        n += 1
        cells += _triangle(n) + 1
    return n


def diff_triangle(table: MajTable, reference: list[int],
                  max_n: int | None = None) -> TriangleDiff:
    """Compare the triangle of rows 1 .. max_n (the table's by default), read
    row by row over full rows, to the flat file, and stop at the first
    mismatch.  Only the cells the file reaches are read, so the table may
    stop short of row max_n once it holds them: the cells past the file's
    end count as unmatched.  A cell outside the table raises."""
    rows = range(1, (table.max_n if max_n is None else max_n) + 1)
    cells = ((n, m) for n in rows for m in range(_triangle(n) + 1))
    matched = 0
    for (n, m), theirs in zip(cells, reference):
        ours = table.entry(n, m)
        if ours != theirs:
            return TriangleDiff(matched, (n, m, ours, theirs), 0)
        matched += 1
    return TriangleDiff(matched, None, sum(_triangle(n) + 1 for n in rows) - matched)
