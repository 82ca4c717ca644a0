"""Unit tests for value conventions (NULL sentinels, date encoding), and
the date parser's ISO fast path against the ``strptime`` formats."""

import datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dtypes import (
    DATE_NULL,
    INT_NULL,
    date_to_ordinal,
    format_date,
    is_null,
    ordinal_to_date,
    parse_date,
)


class TestDates:
    def test_parse_iso(self):
        assert parse_date("2016-05-17") == datetime.date(2016, 5, 17).toordinal()

    def test_parse_strips_whitespace(self):
        assert parse_date(" 2016-05-17 ") == parse_date("2016-05-17")

    def test_roundtrip_through_date(self):
        d = datetime.date(1999, 12, 31)
        assert ordinal_to_date(date_to_ordinal(d)) == d

    def test_format(self):
        assert format_date(parse_date("2000-02-29")) == "2000-02-29"

    def test_format_null(self):
        assert format_date(DATE_NULL) == "NULL"

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_date("17-05-2016x")


class TestIsNull:
    def test_none(self):
        assert is_null(None)

    def test_nan(self):
        assert is_null(float("nan"))

    def test_int_sentinel(self):
        assert is_null(INT_NULL)

    def test_regular_values(self):
        assert not is_null(0)
        assert not is_null("")
        assert not is_null(0.0)
        assert not is_null("x")


# ----------------------------------------------------------------------
# the YYYY-MM-DD fast path accepts exactly what strptime accepts
# ----------------------------------------------------------------------

_FORMATS = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y")


def _strptime_date(text: str) -> int:
    """The parse before the fast path: the three formats, in order."""
    text = text.strip()
    for fmt in _FORMATS:
        try:
            return datetime.datetime.strptime(text, fmt).date().toordinal()
        except ValueError:
            continue
    raise ValueError(text)


def _layouts(y: int, m: int, d: int) -> list[str]:
    return [
        f"{y:04d}-{m:02d}-{d:02d}",
        f"{y:04d}/{m:02d}/{d:02d}",
        f"{m:02d}/{d:02d}/{y:04d}",
        f"{y}-{m}-{d}",  # unpadded: strptime's %m/%d take one digit
    ]


date_texts = st.one_of(
    st.dates().flatmap(lambda v: st.sampled_from(_layouts(v.year, v.month, v.day))),
    # out-of-range fields: month 0/13, day 0/30 Feb/32, year 0
    st.tuples(
        st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32)
    ).flatmap(lambda t: st.sampled_from(_layouts(*t))),
    # near-ISO shapes fromisoformat alone would take, and noise
    st.text(alphabet="0123456789-/W T", max_size=12),
)


@settings(max_examples=400, deadline=None)
@given(date_texts)
@example("20100601")  # fromisoformat: basic format
@example("2010-W01-1")  # fromisoformat: ISO week date
@example("2010-1-1")  # strptime: unpadded
@example("٢٠١٠-06-01")  # strptime: non-ASCII digits
@example(" 2010-06-01 ")
@example("2010-02-29")
@example("2000-02-29")
@example("0000-01-01")
def test_parse_date_matches_strptime(text):
    try:
        want = _strptime_date(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_date(text)
        return
    assert parse_date(text) == want
