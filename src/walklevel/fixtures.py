"""Bundled fixture matrices and their loaders.

The fixtures directory ships the 10-vertex worked example: an adjacency
matrix A plus two scaled regular orthogonal matrices (prefactors 3 and 9)
that carry it to its two cospectral mates. MANIFEST.json pins sha256
checksums; loaders verify them before parsing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from .errors import InvariantError, ParseError
from .graphs import Graph
from .intmat import IntMatrix
from .ortho import RatRegOrtho

def _read_text(name: str) -> str:
    return resources.files("walklevel").joinpath("fixtures", name).read_text()


def verify_manifest() -> dict[str, str]:
    """Check every fixture against its pinned sha256; return the manifest."""
    manifest = json.loads(_read_text("MANIFEST.json"))
    for name, expect in manifest.items():
        got = hashlib.sha256(_read_text(name).encode()).hexdigest()
        if got != expect:
            raise InvariantError(f"fixture {name} checksum mismatch: {got} != {expect}")
    return manifest


def parse_int_matrix_text(text: str) -> IntMatrix:
    """Parse the shared text format: n (or 'rows cols'), then the rows.

    Lines starting with '#' are comments. Raises ParseError with a line
    number on malformed input.
    """
    return _parse_numbered_lines(enumerate(text.splitlines(), start=1))


def _parse_numbered_lines(lines: Iterable[tuple[int, str]]) -> IntMatrix:
    """parse_int_matrix_text on (line number, line) pairs, so that an error
    names the line number it is given."""
    rows_spec = None
    cols_spec = None
    rows: list[list[int]] = []
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"non-integer token in {raw!r}", line=lineno) from None
        if rows_spec is None:
            if len(values) == 1:
                rows_spec = cols_spec = values[0]
            elif len(values) == 2:
                rows_spec, cols_spec = values
            else:
                raise ParseError("header must be 'n' or 'rows cols'", line=lineno)
            if rows_spec < 0 or cols_spec < 0:
                raise ParseError("matrix dimensions must be nonnegative", line=lineno)
            continue
        if len(values) != cols_spec:
            raise ParseError(
                f"expected {cols_spec} entries, found {len(values)}", line=lineno
            )
        rows.append(values)
    if rows_spec is None:
        raise ParseError("no matrix header found")
    if len(rows) != rows_spec:
        raise ParseError(f"expected {rows_spec} rows, found {len(rows)}")
    return IntMatrix(rows)


def load_matrix(name: str) -> IntMatrix:
    return parse_int_matrix_text(_read_text(name))


@dataclass(frozen=True)
class WorkedExample:
    """The bundled 10-vertex instance with its two known mates."""

    graph: Graph
    q_level3: RatRegOrtho
    q_level9: RatRegOrtho


def load_worked_example() -> WorkedExample:
    verify_manifest()
    a = load_matrix("g10_adjacency.txt")
    g = Graph(a.data)
    q3 = RatRegOrtho(load_matrix("g10_qhat_level3.txt"), 3)
    q9 = RatRegOrtho(load_matrix("g10_qhat_level9.txt"), 9)
    return WorkedExample(g, q3, q9)
