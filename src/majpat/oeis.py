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


def diff_triangle(table: MajTable, reference: list[int]) -> TriangleDiff:
    """Compare the table, read row by row over full rows, to the flat file."""
    idx = 0
    matched = 0
    for n in range(1, table.max_n + 1):
        width = n * (n - 1) // 2 + 1
        if width - 1 > table.max_maj:
            raise InvalidInputError(
                f"table only reaches m={table.max_maj}, row n={n} needs m={width - 1}"
            )
        for m in range(width):
            if idx >= len(reference):
                return TriangleDiff(matched, None, _cells_left(table, n, m))
            if table.entry(n, m) != reference[idx]:
                return TriangleDiff(matched, (n, m, table.entry(n, m), reference[idx]), 0)
            matched += 1
            idx += 1
    return TriangleDiff(matched, None, 0)


def _cells_left(table: MajTable, n0: int, m0: int) -> int:
    total = 0
    for n in range(n0, table.max_n + 1):
        start = m0 if n == n0 else 0
        total += n * (n - 1) // 2 + 1 - start
    return total
