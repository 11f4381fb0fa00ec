"""Ingesting local OEIS-style reference files and diffing tables against them."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .enumeration import MajTable
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


@dataclass(frozen=True)
class TriangleDiff:
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
        cells += n * (n - 1) // 2 + 1
    return n


def diff_triangle(table: MajTable, reference: list[int],
                  max_n: int | None = None) -> TriangleDiff:
    """Compare the triangle of rows 1 .. max_n (the table's by default), read
    row by row over full rows, to the flat file.  The table may stop short of
    row max_n once it holds every entry of the file: the cells of the rows it
    leaves out count as unmatched."""
    max_n = table.max_n if max_n is None else max_n
    idx = 0
    matched = 0
    for n in range(1, min(table.max_n, max_n) + 1):
        width = n * (n - 1) // 2 + 1
        if width - 1 > table.max_maj:
            raise InvalidInputError(
                f"table only reaches m={table.max_maj}, row n={n} needs m={width - 1}"
            )
        for m in range(width):
            if idx >= len(reference):
                return TriangleDiff(matched, None, _cells_left(max_n, n, m))
            if table.entry(n, m) != reference[idx]:
                return TriangleDiff(matched, (n, m, table.entry(n, m), reference[idx]), 0)
            matched += 1
            idx += 1
    if idx < len(reference) and table.max_n < max_n:
        raise InvalidInputError(f"table stops at row {table.max_n}, before the file's end")
    return TriangleDiff(matched, None, _cells_left(max_n, table.max_n + 1, 0))


def _cells_left(max_n: int, n0: int, m0: int) -> int:
    """The cells of rows n0 .. max_n from cell (n0, m0) on."""
    return sum(n * (n - 1) // 2 + 1 for n in range(n0, max_n + 1)) - m0
