"""Tuple serialization for sequence-based baselines.

Baselines such as Word2Vec/Doc2Vec over documents and the Ditto-style
matcher cannot consume relational rows directly; the paper serialises every
tuple into a sentence with the special ``[COL]`` / ``[VAL]`` markers
(Section V-A), e.g.::

    [COL] title [VAL] The Sixth Sense [COL] director [VAL] Shyamalan ...
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.corpus.table import Row

COL_TOKEN = "[COL]"
VAL_TOKEN = "[VAL]"


def serialize_row(
    row: Row,
    columns: Optional[Sequence[str]] = None,
    include_markers: bool = True,
) -> str:
    """Serialize a row into a single string.

    Parameters
    ----------
    row:
        The row to serialize.
    columns:
        Restrict / order the attributes; defaults to the row's own ordering.
    include_markers:
        When True (default) use the ``[COL] name [VAL] value`` convention;
        otherwise concatenate the values only.
    """
    if columns is None:
        items = [(c, v) for c, v in row.values.items()]
    else:
        items = [(c, row.values.get(c)) for c in columns]
    parts: List[str] = []
    for column, value in items:
        if value is None:
            continue
        text = str(value).strip()
        if not text:
            continue
        if include_markers:
            parts.extend([COL_TOKEN, column, VAL_TOKEN, text])
        else:
            parts.append(text)
    return " ".join(parts)
