"""Columnar store with numpy-backed chunks.

The analytic side of FI-MPPDB: append-only column chunks that the vectorized
execution engine (``PScan.execute_batches`` over
:func:`repro.exec.fragments.scan_filter_vectors`) scans with SIMD-style numpy
kernels.  A chunk's scan image is a typed :class:`ColumnVector`: either
decoded once, lazily, from the chunk's codec payload (stores filled by
:meth:`ColumnStore.append_rows`), or handed over as a slice of vectors that
already exist (:meth:`ColumnStore.from_vectors`).

The column store is not MVCC.  Under HTAP, :mod:`repro.htap.store` keeps a
table's merged rows as typed vectors and builds each snapshot's store from
them with :meth:`ColumnStore.from_vectors`; the rows of a table without HTAP
state are read from the MVCC heap and appended.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.common.errors import StorageError
from repro.storage import compression
from repro.storage.table import TableSchema, rows_to_columns
from repro.storage.types import DataType

DEFAULT_CHUNK_ROWS = 4096


@dataclass
class ColumnVector:
    """A decoded column slice: dense data plus a validity (non-NULL) mask."""

    data: np.ndarray
    validity: np.ndarray

    def __len__(self) -> int:
        return len(self.data)

    @classmethod
    def from_values(cls, values: Sequence[object],
                    data_type: DataType) -> "ColumnVector":
        """A read-only vector over coerced Python values.

        NULL becomes ``0`` (``""`` for TEXT) with its validity bit clear;
        the dtype is ``data_type.numpy_dtype``.  This is the one way a
        vector is built from values, so every chunk image, whatever
        produced it, holds the same bits for the same values.
        """
        validity = np.array([v is not None for v in values], dtype=bool)
        null = "" if data_type is DataType.TEXT else 0
        data = np.array([null if v is None else v for v in values],
                        dtype=data_type.numpy_dtype)
        data.flags.writeable = False
        validity.flags.writeable = False
        return cls(data=data, validity=validity)

    def values(self) -> List[object]:
        """The Python values, ``None`` for NULL: ``from_values`` inverted."""
        values = self.data.tolist()
        if self.validity.all():
            return values
        return [v if ok else None
                for v, ok in zip(values, self.validity.tolist())]


@dataclass
class ColumnChunk:
    """One column's values for one horizontal chunk of rows."""

    column: str
    data_type: DataType
    codec: str
    #: The codec's encoding of the values; ``None`` for a ``plain`` chunk
    #: built from a vector, which holds nothing but its image.
    payload: object
    row_count: int
    #: Decode-once image.  Sealed chunks are immutable, so the decoded
    #: vector can be reused across scans; consumers must treat it as
    #: read-only (the arrays are marked non-writeable to enforce that).
    #: Chunks built from vectors carry it from the start.
    _decoded: Optional[ColumnVector] = field(
        default=None, repr=False, compare=False)

    def decode_with_nulls(self) -> ColumnVector:
        if self._decoded is None:
            values = compression.decode(self.codec, self.payload)
            if len(values) != self.row_count:
                raise StorageError(
                    f"chunk {self.column}: decoded {len(values)} rows, "
                    f"expected {self.row_count}")
            self._decoded = ColumnVector.from_values(values, self.data_type)
        return self._decoded


class ColumnStore:
    """Append-only columnar table storage."""

    def __init__(self, schema: TableSchema, chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 compress: bool = True):
        if chunk_rows <= 0:
            raise StorageError("chunk_rows must be positive")
        self.schema = schema
        self.chunk_rows = chunk_rows
        self.compress = compress
        self._sealed: List[Dict[str, ColumnChunk]] = []
        self._open: List[Dict[str, object]] = []
        self._row_count = 0

    # -- ingest ---------------------------------------------------------

    def append_rows(self, rows: Sequence[Dict[str, object]]) -> None:
        for row in rows:
            self._open.append(self.schema.coerce_row(row))
            self._row_count += 1
            if len(self._open) >= self.chunk_rows:
                self._seal()

    def flush(self) -> None:
        """Seal any buffered rows into a (possibly short) chunk."""
        if self._open:
            self._seal()

    def _seal(self) -> None:
        cols = rows_to_columns(self._open, self.schema.column_names)
        sealed: Dict[str, ColumnChunk] = {}
        for col in self.schema.columns:
            values = cols[col.name]
            if self.compress:
                codec, payload = compression.best_codec(values)
            else:
                codec, payload = "plain", list(values)
            sealed[col.name] = ColumnChunk(
                column=col.name,
                data_type=col.data_type,
                codec=codec,
                payload=payload,
                row_count=len(values),
            )
        self._sealed.append(sealed)
        self._open = []

    @classmethod
    def from_vectors(cls, schema: TableSchema,
                     vectors: Dict[str, ColumnVector], compress: bool
                     ) -> "ColumnStore":
        """A sealed store over typed, read-only column vectors.

        Chunked as :meth:`append_rows` would chunk the same rows, but with
        no row coercion and no decode: each chunk's image is a slice (a
        view) of ``vectors``.  ``compress`` still encodes each chunk, for
        the codec choice and footprint a bulk load would report.
        """
        store = cls(schema, compress=compress)
        n = len(vectors[schema.primary_key])
        for start in range(0, n, store.chunk_rows):
            stop = min(start + store.chunk_rows, n)
            sealed: Dict[str, ColumnChunk] = {}
            for col in schema.columns:
                vec = vectors[col.name]
                image = ColumnVector(vec.data[start:stop],
                                     vec.validity[start:stop])
                if compress:
                    codec, payload = compression.best_codec(image.values())
                else:
                    codec, payload = "plain", None
                sealed[col.name] = ColumnChunk(
                    column=col.name,
                    data_type=col.data_type,
                    codec=codec,
                    payload=payload,
                    row_count=stop - start,
                    _decoded=image,
                )
            store._sealed.append(sealed)
        store._row_count = n
        return store

    # -- scan -------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def chunk_count(self) -> int:
        return len(self._sealed) + (1 if self._open else 0)

    def scan_chunks(self, columns: Optional[Sequence[str]] = None
                    ) -> Iterator[Dict[str, ColumnVector]]:
        """Yield decoded chunk dicts restricted to ``columns``."""
        wanted = list(columns) if columns is not None else self.schema.column_names
        for name in wanted:
            self.schema.column(name)  # validates
        for sealed in self._sealed:
            yield {name: sealed[name].decode_with_nulls() for name in wanted}
        if self._open:
            cols = rows_to_columns(self._open, wanted)
            yield {name: ColumnVector.from_values(
                       cols[name], self.schema.column(name).data_type)
                   for name in wanted}

    def scan_rows(self) -> Iterator[Dict[str, object]]:
        """Row-wise view of the whole store (used by tests and row fallback)."""
        names = self.schema.column_names
        for chunk in self.scan_chunks(names):
            length = len(chunk[names[0]]) if names else 0
            for i in range(length):
                row = {}
                for name in names:
                    vec = chunk[name]
                    row[name] = vec.data[i] if vec.validity[i] else None
                yield {k: _unbox(v) for k, v in row.items()}

    def compressed_footprint(self) -> int:
        """Abstract size units of all sealed chunks (for the ablation bench)."""
        total = 0
        for sealed in self._sealed:
            for chunk in sealed.values():
                if chunk.codec == "plain":
                    total += chunk.row_count
                elif chunk.codec == "rle":
                    total += compression.RunLengthCodec.encoded_size(chunk.payload)
                elif chunk.codec == "dict":
                    dictionary, codes = chunk.payload  # type: ignore[misc]
                    total += compression.DictionaryCodec.encoded_size(dictionary, codes)
                elif chunk.codec == "delta":
                    base, deltas = chunk.payload  # type: ignore[misc]
                    total += compression.DeltaCodec.encoded_size(base, deltas)
        return total


def _unbox(value: object) -> object:
    """Convert numpy scalars back to plain Python values."""
    if isinstance(value, np.generic):
        return value.item()
    return value
