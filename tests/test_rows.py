"""rows.render is template % row byte for byte, for every field kind and
every float, with no numpy warning; cells of every kind share a block."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factprimes import rows

INT64 = st.integers(-2**63, 2**63 - 1)
FLOAT_TEMPLATES = ["%.12g\n", "x=%.12g;"]
INT_TEMPLATES = ["%d\n", "%7d|", "%13d,", "[%d]", "%.12g\n"]


def percent(template, columns):
    """The text rows.render must give: template % row over the rows, the
    %s cells (numpy bytes) as their text."""
    values = [c.astype("U").tolist() if c.dtype.kind == "S" else c.tolist() for c in columns]
    return "".join(template % row for row in zip(*values))


def rendered(template, columns):
    # any numpy warning fails, whatever the pytest configuration
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return rows.render(template, columns)


def assert_renders(template, *columns):
    columns = [np.asarray(c) for c in columns]
    assert rendered(template, columns) == percent(template, columns)


# the explicit cases: decimal ties at every scale, both neighbours of each
# power of ten from 1e-6 to 1e13, and at the edges of fixed notation and of
# binary64, signed zeros and the values that round up to 1e12 and to 1e-4
TIES = [(k + 0.5) / 10**j for k in (0, 1, 4, 12, 99, 12345, 999999, 123456789012)
        for j in range(0, 17)]
DECADES = [np.nextafter(10.0**j, side) for j in range(-6, 14) for side in (np.inf, -np.inf)]
EDGES = [0.0, -0.0, 999999999999.5, 9.99999999999995e-05, 1e12, 1e-4, 1e-5,
         2.0**-17, 2.0**40, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308]


@pytest.mark.parametrize("values", [TIES, DECADES, EDGES], ids=["ties", "decades", "edges"])
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_explicit_floats(values, sign):
    for template in FLOAT_TEMPLATES:
        assert_renders(template, sign * np.array(values, dtype=np.float64))


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=60))
@example([999999999999.5, 9.99999999999995e-05, -0.0, 0.5, 2.5])
def test_floats_match_percent(values):
    for template in FLOAT_TEMPLATES:
        assert_renders(template, np.array(values, dtype=np.float64))


@settings(max_examples=300)
@given(st.lists(st.one_of(INT64, st.integers(0, 10**12 + 10)), min_size=1, max_size=60))
@example([0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**12 - 1, 10**12, -1])
def test_ints_match_percent(values):
    for template in INT_TEMPLATES:
        assert_renders(template, np.array(values, dtype=np.int64))


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 10**9), st.floats(allow_nan=False),
                          st.sampled_from([b"", b"a", b"true", b"false,true,false"])),
                min_size=1, max_size=40))
def test_mixed_fields_share_a_block(cells):
    # literals of every length beside fields of every kind, and a literal
    # that can fall into the bytes a field leaves free at its ends
    ns, xs, flags = (np.array(c) for c in zip(*cells))
    columns = {"d": ns, "g": xs, "s": flags.astype("S20")}
    for template in ["T2_upper_mean,%d,%.12g,%s\n", "%s%d%.12g", ",[%d,%.12g]",
                     "%d,%d,%.12g,%.12g,%s,%s\n"]:
        kinds = [part[0] if part[0] in "ds" else "g" for part in template.split("%")[1:]]
        assert_renders(template, *(columns[k] for k in kinds))


def test_ints_in_a_float_field():
    # %.12g of an int is %.12g of the nearest float, as % converts it
    assert_renders("%.12g,%.12g\n", np.array([3, 2**53 + 1, -10**15, 123456789012345]),
                   np.array([0.1, 1e300, -2.5, 1.0]))


def test_refuses_what_percent_would_not_take():
    with pytest.raises(ValueError, match="unsupported field"):
        rows.render("%x\n", [np.array([1])])
    with pytest.raises(TypeError, match="2 fields, given 1"):
        rows.render("%d,%d\n", [np.array([1])])


def test_no_rows_no_text():
    assert rendered("%d,%.12g,%s\n", [np.array([], np.int64), np.array([]),
                                      np.array([], "S4")]) == ""
