"""Scalar value conventions: NULL sentinels, date encoding, parsing.

The columnar store (``repro.storage.column``) keeps each attribute in a
NumPy array.  NULLs are represented in-band with per-kind sentinels so that
vectorized kernels never need a separate validity bitmap on the hot path:

===========  =====================  =========================
kind         numpy dtype            NULL sentinel
===========  =====================  =========================
integer      int64                  ``INT_NULL`` (int64 min)
float        float64                ``nan``
date         int64 (proleptic       ``DATE_NULL`` (int64 min)
             Gregorian ordinal)
string       object                 ``None``
boolean      int8 (0/1)             ``-1``
===========  =====================  =========================

Dates are stored as ``datetime.date.toordinal()`` integers, which makes
date comparison, sorting, and grouping plain int64 operations — the same
trick GEMS uses to keep attribute data in flat typed arrays on the cluster.
"""

from __future__ import annotations

import datetime as _dt
import math

import numpy as np

INT_NULL: int = np.iinfo(np.int64).min
DATE_NULL: int = np.iinfo(np.int64).min
BOOL_NULL: int = -1

_EPOCH = _dt.date(1970, 1, 1)

# Accepted textual date layouts for CSV ingest, tried in order.
_DATE_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y")


def parse_date(text: str) -> int:
    """Parse a textual date into its stored ordinal form.

    Accepts ISO ``YYYY-MM-DD`` (primary), ``YYYY/MM/DD`` and ``MM/DD/YYYY``.
    Raises ``ValueError`` for anything else.

    The exact ``YYYY-MM-DD`` shape in ASCII digits goes through
    ``date.fromisoformat``, several times faster than ``strptime``; the
    shape test keeps what it accepts to what ``strptime`` accepts
    (``fromisoformat`` alone also takes ``YYYYMMDD`` and week dates,
    ``strptime`` alone ``2010-1-1`` and non-ASCII digits).
    """
    text = text.strip()
    if (
        len(text) == 10
        and text[4] == text[7] == "-"
        and text.isascii()
        and (text[:4] + text[5:7] + text[8:]).isdigit()
    ):
        try:
            return _dt.date.fromisoformat(text).toordinal()
        except ValueError:
            pass  # e.g. 2010-02-30: every format below rejects it too
    for fmt in _DATE_FORMATS:
        try:
            return _dt.datetime.strptime(text, fmt).date().toordinal()
        except ValueError:
            continue
    raise ValueError(f"invalid date literal: {text!r}")


def format_date(ordinal: int) -> str:
    """Format a stored date ordinal back to ISO ``YYYY-MM-DD``."""
    if ordinal == DATE_NULL:
        return "NULL"
    return _dt.date.fromordinal(int(ordinal)).isoformat()


def date_to_ordinal(d: _dt.date) -> int:
    """Encode a ``datetime.date`` for storage."""
    return d.toordinal()


def ordinal_to_date(ordinal: int) -> _dt.date:
    """Decode a stored date ordinal to a ``datetime.date``."""
    return _dt.date.fromordinal(int(ordinal))


def is_null(value: object) -> bool:
    """True if *value* is the NULL representation of any kind."""
    if value is None:
        return True
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, (int, np.integer)):
        return int(value) == INT_NULL
    return False
