"""File formats: matrix JSON, Matrix Market interchange, measure and
report serialization.

The matrix JSON schema is ``{"rows": n, "cols": m, "entries": [[re, im],
...]}`` with entries row-major. Matrix Market input covers the real
``array`` and ``coordinate`` formats with ``general`` symmetry, enough
to read matrices from external tooling; complex matrices are read from
JSON only. Report JSON is written with sorted keys and a fixed
layout so identical runs produce identical bytes; it is encoded in pieces
of joined encoder chunks, so ``write_json`` streams it and ``dump_json``
holds about twice the text, never one string per encoder token.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import struct
from typing import Any

import numpy as np

from .errors import ParseError
from .linalg import as_matrix
from .spectral import PolarDecomposition

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "load_matrix",
    "measure_to_obj",
    "digest",
    "dump_json",
    "write_json",
    "save_report",
]

_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
_BATCH = 1024  # encoder chunks joined into one piece (about 80 bytes held per chunk)


def matrix_to_obj(m) -> dict:
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel(order="C")],
    }


def matrix_from_obj(obj: Any) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"matrix object must be a JSON object, got {type(obj).__name__}")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"matrix object is missing or has malformed fields: {exc}") from exc
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError(f"expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else 'non-list'}")
    flat = np.empty(rows * cols, dtype=np.complex128)
    for k, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"entry {k} is not an [re, im] pair")
        flat[k] = complex(float(pair[0]), float(pair[1]))
    return as_matrix(flat.reshape(rows, cols))


def _parse_matrix_market(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("missing MatrixMarket header", line=1)
    header = lines[0].split()
    if len(header) < 5:
        raise ParseError("incomplete MatrixMarket header", line=1)
    _, obj, fmt, field, symmetry = header[:5]
    if obj.lower() != "matrix" or field.lower() not in ("real", "integer") or symmetry.lower() != "general":
        raise ParseError(f"unsupported MatrixMarket flavor: {' '.join(header[1:])}", line=1)
    fmt = fmt.lower()
    if fmt not in ("array", "coordinate"):
        raise ParseError(f"unsupported MatrixMarket format {fmt!r}", line=1)

    body = [
        (idx + 1, ln.strip())
        for idx, ln in enumerate(lines)
        if idx > 0 and ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise ParseError("missing size line", line=2)
    size_line_no, size_line = body[0]
    parts = size_line.split()
    try:
        dims = [int(x) for x in parts]
    except ValueError as exc:
        raise ParseError(f"bad size line: {exc}", line=size_line_no) from exc

    if fmt == "array":
        if len(dims) != 2:
            raise ParseError("array size line must be 'rows cols'", line=size_line_no)
        rows, cols = dims
        values = []
        for line_no, ln in body[1:]:
            try:
                values.append(float(ln.split()[0]))
            except ValueError as exc:
                raise ParseError(f"bad value: {exc}", line=line_no) from exc
        if len(values) != rows * cols:
            raise ParseError(f"expected {rows * cols} values, got {len(values)}", line=size_line_no)
        out = np.array(values, dtype=np.float64).reshape((cols, rows)).T  # column-major file order
        return as_matrix(out.astype(np.complex128))

    if len(dims) != 3:
        raise ParseError("coordinate size line must be 'rows cols nnz'", line=size_line_no)
    rows, cols, nnz = dims
    out = np.zeros((rows, cols), dtype=np.complex128)
    if len(body) - 1 != nnz:
        raise ParseError(f"expected {nnz} coordinate lines, got {len(body) - 1}", line=size_line_no)
    for line_no, ln in body[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ParseError("coordinate line must be 'i j value'", line=line_no)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad coordinate line: {exc}", line=line_no) from exc
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ParseError(f"index ({i}, {j}) out of bounds", line=line_no)
        out[i - 1, j - 1] = v
    return as_matrix(out)


def load_matrix(path: str) -> np.ndarray:
    """Read a matrix from JSON or Matrix Market, sniffing the format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("%%MatrixMarket"):
        return _parse_matrix_market(text)
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
        return matrix_from_obj(obj)
    raise ParseError("unrecognized matrix file format", line=1)


def measure_to_obj(p: PolarDecomposition) -> dict:
    """F = U E_T of a polar decomposition, with its U and the atoms of E_T."""
    f = p.measure
    return {
        "dim": f.dim,
        "support": list(f.support),
        "u": matrix_to_obj(p.U),
        "atoms": [
            {"lambda": float(lam), "df": matrix_to_obj(df)} for lam, df in f.atoms
        ],
        "source_atoms": [
            {"lambda": float(lam), "p": matrix_to_obj(e)} for lam, e in p.source.atoms
        ],
    }


def digest(m) -> str:
    """Stable content hash of a matrix (shape and IEEE-754 bytes)."""
    m = as_matrix(m)
    h = hashlib.sha256()
    h.update(struct.pack("<qq", m.shape[0], m.shape[1]))
    h.update(np.ascontiguousarray(m, dtype="<c16").tobytes())
    return h.hexdigest()[:16]


def _pieces(obj: Any):
    """The canonical text of ``obj`` as pieces of ``_BATCH`` joined encoder
    chunks, then the trailing newline."""
    chunks = _ENCODER.iterencode(obj)
    while batch := list(itertools.islice(chunks, _BATCH)):
        yield "".join(batch)
    yield "\n"


def dump_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    Joined from ``_pieces``, so building it holds the pieces and the text,
    about twice its size, rather than one string per encoder token."""
    return "".join(_pieces(obj))


def write_json(obj: Any, fh) -> None:
    """Write ``dump_json(obj)`` to a text file handle as a stream, holding
    one piece at a time."""
    for piece in _pieces(obj):
        fh.write(piece)


def save_report(report_obj: dict, path: str) -> None:
    # written from dump_json's text rather than streamed with write_json:
    # perfbench's tracer reads fileio.report_bytes from what dump_json returns
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(report_obj))
