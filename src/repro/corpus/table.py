"""Relational table substrate.

A :class:`Table` holds named :class:`Column` objects and :class:`Row`
objects.  Rows are the documents of a relational corpus; the graph builder
creates a metadata node per row and per column (Algorithm 1, lines 3-10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence


@dataclass(frozen=True)
class Column:
    """A table column (attribute)."""

    name: str
    dtype: str = "text"  # "text" or "numeric"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("Column requires a non-empty name")
        if self.dtype not in ("text", "numeric"):
            raise ValueError(f"unsupported column dtype: {self.dtype!r}")


@dataclass(frozen=True)
class Row:
    """A table row (tuple) with an identifier and per-attribute values."""

    row_id: str
    values: Mapping[str, Any]

    def __post_init__(self) -> None:
        if not self.row_id:
            raise ValueError("Row requires a non-empty row_id")

    def value(self, column: str) -> Any:
        return self.values.get(column)

    def non_null_items(self) -> List[tuple]:
        """(column, value) pairs where value is not None/empty."""
        items = []
        for col, val in self.values.items():
            if val is None:
                continue
            if isinstance(val, str) and not val.strip():
                continue
            items.append((col, val))
        return items


class Table:
    """An in-memory relation: a schema (columns) plus rows.

    The class intentionally implements only what the matching pipeline needs:
    schema introspection, row iteration, projections (used to build the
    "no title" IMDb variant), and value access.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        rows: Iterable[Row] = (),
    ):
        if not columns:
            raise ValueError("Table requires at least one column")
        self.name = name
        self._columns: List[Column] = list(columns)
        self._column_index: Dict[str, Column] = {c.name: c for c in self._columns}
        if len(self._column_index) != len(self._columns):
            raise ValueError("duplicate column names in table schema")
        self._rows: List[Row] = []
        self._by_id: Dict[str, Row] = {}
        for row in rows:
            self.add_row(row)

    # ------------------------------------------------------------------
    # Schema
    @property
    def columns(self) -> List[Column]:
        return list(self._columns)

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self._columns]

    def column(self, name: str) -> Column:
        if name not in self._column_index:
            raise KeyError(f"no such column: {name!r}")
        return self._column_index[name]

    # ------------------------------------------------------------------
    # Rows
    def add_row(self, row: Row) -> None:
        if row.row_id in self._by_id:
            raise ValueError(f"duplicate row id: {row.row_id!r}")
        unknown = set(row.values) - set(self._column_index)
        if unknown:
            raise ValueError(f"row {row.row_id!r} has values for unknown columns: {sorted(unknown)}")
        self._by_id[row.row_id] = row
        self._rows.append(row)

    def add_record(self, row_id: str, **values: Any) -> Row:
        """Convenience constructor: build a :class:`Row` and add it."""
        row = Row(row_id=row_id, values=dict(values))
        self.add_row(row)
        return row

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row_id: str) -> bool:
        return row_id in self._by_id

    def __getitem__(self, row_id: str) -> Row:
        return self._by_id[row_id]

    def get(self, row_id: str, default: Optional[Row] = None) -> Optional[Row]:
        return self._by_id.get(row_id, default)

    @property
    def rows(self) -> List[Row]:
        return list(self._rows)

    @property
    def row_ids(self) -> List[str]:
        return [r.row_id for r in self._rows]

    # ------------------------------------------------------------------
    # Relational-algebra style helpers
    def project(self, column_names: Sequence[str], name: Optional[str] = None) -> "Table":
        """Return a new table with only ``column_names`` (order preserved)."""
        missing = [c for c in column_names if c not in self._column_index]
        if missing:
            raise KeyError(f"cannot project on unknown columns: {missing}")
        columns = [self._column_index[c] for c in column_names]
        projected = Table(name or f"{self.name}_proj", columns)
        for row in self._rows:
            projected.add_row(
                Row(
                    row_id=row.row_id,
                    values={c: row.values.get(c) for c in column_names if c in row.values},
                )
            )
        return projected

    def drop_columns(self, column_names: Sequence[str], name: Optional[str] = None) -> "Table":
        """Return a new table without ``column_names`` (e.g. IMDb "NT" variant)."""
        keep = [c.name for c in self._columns if c.name not in set(column_names)]
        return self.project(keep, name=name or f"{self.name}_dropped")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Table(name={self.name!r}, columns={len(self._columns)}, rows={len(self._rows)})"
