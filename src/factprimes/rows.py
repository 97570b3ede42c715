"""Per-n rows as text, built in numpy: template % row for a block of rows.

render(template, columns) is "".join(template % row for row in
zip(*columns)) byte for byte, where the template holds literal text and
the fields %d, %Nd, %.12g and %s, and the columns are aligned numpy
arrays: ints for %d and %Nd, ints or floats for %.12g, and fixed-width
bytes (numpy "S", NUL-padded) for %s.  cli imports this module only in
a run that writes rows, so a run that writes none neither compiles it nor
builds its tables.

Layout.  A block of m rows becomes one matrix of 4-byte words, a row of
words per text row, in which NUL marks a byte that is not there:
bytes.translate(None, b"\\0") drops the NULs, so a cell's bytes may sit
anywhere in its field's run of words as long as they keep their order.
The matrix is built transposed, one word of all m cells at a time, so that
each numpy operation runs along the block, and the fields of one spec are
rendered in one pass over all their cells.  The digits come from one take
from a pool of words, a word for each 4-digit group, out of tables of the
10^4 groups in the variants that drop leading zeros, drop trailing zeros
or put a decimal point first; a %s cell is the bytes of its S array.  A
field keeps only the words that are not NUL in every cell of the block.
The cells this does not cover go through % one at a time: ints outside
[0, 10^12); for %.12g 0, -0.0, inf, nan, every value that %.12g writes
in exponent form, and the rare cells of step 3 below.

%.12g, exactly.  For finite x != 0, let a = |x| and X the decimal exponent
of a rounded to 12 significant digits.  %.12g writes fixed notation where
-4 <= X <= 11: the sign, then D = a 10^k rounded half to even, k = 11 - X
(10^11 <= D < 10^12), with the point k digits from its end, trailing
zeros after the point dropped, and a bare point too.  So the text is the
integer part floor(D / 10^k), "0" if there is none, and the fractional
digits, the first k of the P of F = (D mod 10^k) 10^(P-k), where P + 1 is
the multiple of 4 that the largest k in the block needs (P <= 15).  Each
step is exact in binary64:

1. 10^j is exact for 0 <= j <= 22 (5^22 < 2^53).  Cells with 2^-17 <= a <
   2^40 take this path, so k stays in [-1, 17].
2. For a in [2^E, 2^(E+1)), X is floor(E log10 2) or one more.  With k =
   11 - floor(E log10 2), hi = fl(a 10^k) >= 10^12 means X is the larger
   one (10^12 is a binary64 number and rounding is monotone), and k drops
   by one.  Where hi reached 10^12 only by rounding, a 10^k is within half
   an ulp (2^-14) of it, and both exponents round to the same 10^(X+1).
3. Let N = rint(hi) and r = hi - N.  As hi < 2^40, hi and N are multiples
   of u = ulp(hi) <= 2^-13, so r is exact, and |r| <= 1/2 - u where |r| !=
   1/2.  With |a 10^k - hi| <= u/2, a 10^k is then within 1/2 - u/2 of N,
   and D = N.  Cells with |r| = 1/2, which only the part of a 10^k that hi
   dropped decides, cells with N = 10^12, and cells whose k leaves [0, 15]
   go through %.
4. For integers n < 2^53 and j >= 0, floor(fl(n / 10^j)) = floor(n / 10^j):
   a quotient that is not an integer is at least 10^-j from the next one,
   and fl errs by less than 2^-53 n / 10^j < 10^-j.  The products and
   differences of integers below 2^53 that follow are exact, and F is
   (D mod 10^k) 5^(P-k) < 2^k 5^P <= 10^15 times 2^(P-k), exact as well.
"""

from __future__ import annotations

import functools
import re

import numpy as np

# "%d" and "%Nd" (int fields), "%.12g", "%s"; any other "%" is refused
_FIELD = re.compile(r"%(\d*d|\.12g|s)")


def _pool() -> tuple[np.ndarray, dict[str, int]]:
    """The words every field is taken from, and where each table starts.

    Each table holds the groups "0000" .. "9999" as 4 bytes: "full" as
    they are; "lead" without leading zeros (0000 is all NUL), "last"
    likewise but with 0000 a lone "0", "trail" without trailing zeros, and
    "point" and "point_trail", of the groups below 1000 only, as "full"
    and "trail" with their first digit, a 0, made the decimal point (none
    at all for 0000 in "point_trail").  Then "spaces" (0 to 4 spaces),
    "minus" and "nul".
    """
    # built with a row for each digit place, so that numpy runs along the
    # groups, all in uint8 and uint16
    group = np.arange(10_000, dtype=np.uint16)
    place = np.array([[1000], [100], [10], [1]], np.uint16)
    chars = np.arange(48, 58, dtype=np.uint8)
    digits = np.stack(np.meshgrid(*[chars] * 4, indexing="ij")).reshape(4, -1)
    lead = np.where(group < place, 0, digits)
    last = lead.copy()
    last[3, 0] = 48
    trail = np.where(group % (10 * place) == 0, 0, digits)
    point, point_trail = digits[:, :1000].copy(), trail[:, :1000].copy()
    point[0] = point_trail[0, 1:] = 46
    spaces = np.where(np.arange(4)[:, None] < np.arange(5), 32, 0).astype(np.uint8)
    tables = {"full": digits, "lead": lead, "last": last, "trail": trail, "point": point,
              "point_trail": point_trail, "spaces": spaces,
              "minus": np.array([[45], [0], [0], [0]], np.uint8),
              "nul": np.zeros((4, 1), np.uint8)}
    starts = np.cumsum([0] + [t.shape[1] for t in tables.values()]).tolist()
    words = np.empty((starts[-1], 4), np.uint8)
    for table, start in zip(tables.values(), starts):
        words[start:start + table.shape[1]] = table.T
    return words.view(np.uint32).ravel(), dict(zip(tables, starts))


_WORDS, _AT = _pool()

# 10^k for k in [0, 17]
_SCALE = 10.0 ** np.arange(18)
# 11 - floor(E log10 2) by the biased exponent field of a binary64 number,
# where 2^-17 <= a < 2^40, and 99 (through %) for the rest: 0, subnormals,
# inf and nan among them
_E = np.arange(2048) - 1023
_FIRST_K = np.where((_E >= -17) & (_E < 40), 11 - np.floor(_E * np.log10(2)), 99
                    ).astype(np.intp)
# cells of one spec rendered in one pass: fewer passes make fewer numpy
# calls, larger ones hold more memory at once
_PASS_CELLS = 3072
_POW10 = 10.0 ** np.arange(1, 12)


@functools.lru_cache(maxsize=64)
def _parse(template: str) -> tuple[tuple[bytes, ...], tuple[str, ...]]:
    # the literals around the fields, and the fields' specs
    parts = _FIELD.split(template)
    literals, specs = parts[0::2], parts[1::2]
    if any("%" in lit for lit in literals):
        raise ValueError(f"unsupported field in {template!r}")
    return tuple(lit.encode() for lit in literals), tuple(specs)


@functools.lru_cache(maxsize=64)
def _literal(text: bytes, m: int) -> np.ndarray:
    # the words of text, NUL-padded, in each of m cells: a read-only view
    words = np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"), np.uint32)
    return np.broadcast_to(words[:, None], (len(words), m))


def render(template: str, columns) -> str:
    """template % row for each row of the aligned columns, concatenated."""
    literals, specs = _parse(template)
    if len(specs) != len(columns):
        raise TypeError(f"{template!r} has {len(specs)} fields, given {len(columns)} columns")
    m = len(columns[0])
    if not m:
        return ""
    runs = [None] * len(specs)
    same = {}
    for i, spec in enumerate(specs):
        same.setdefault(spec, []).append(i)
    step = max(1, _PASS_CELLS // m)
    for spec, at in ((s, at[j:j + step]) for s, at in same.items()
                     for j in range(0, len(at), step)):
        # fields of one spec in one pass over all their cells; then each
        # field keeps the words that are not NUL in every one of its cells
        words = _CELLS[spec[-1]](np.concatenate([np.asarray(columns[i]) for i in at])
                                 if len(at) > 1 else np.asarray(columns[at[0]]), spec)
        used = np.bitwise_or.reduce(words.reshape(len(words), len(at), m), axis=2)
        for j, i in enumerate(at):
            runs[i] = words[np.flatnonzero(used[:, j]), j * m:(j + 1) * m]
    matrix = []
    for lit, run in zip(literals, [*runs, None]):
        if lit:
            matrix.append(_literal(lit, m))
        if run is not None:
            matrix.append(run)
    # one copy of the block at a time while it becomes text
    text = np.concatenate(matrix).T.tobytes()
    del runs, matrix
    return text.translate(None, b"\0").decode()


def _words(index: list[np.ndarray], spec: str, col: np.ndarray, slow: np.ndarray
           ) -> np.ndarray:
    # the words at index (a row of exact integers for each word), with the
    # cells where slow rendered by % one at a time, in a run that grows to
    # hold the longest of them
    rows = np.empty((len(index), len(col)), np.intp)
    for row, i in zip(rows, index):
        row[...] = i
    words = _WORDS.take(rows, mode="clip")
    cells = np.flatnonzero(slow)
    if not cells.size:
        return words
    texts = [(f"%{spec}" % v).encode() for v in col[cells].tolist()]
    extra = -(-max(map(len, texts)) // 4) - len(words)
    if extra > 0:
        words = np.concatenate([words, np.zeros((extra, len(col)), np.uint32)])
    for i, text in zip(cells.tolist(), texts):
        words[:, i] = np.frombuffer(text.ljust(4 * len(words), b"\0"), np.uint32)
    return words


def _groups(v: np.ndarray, groups: int) -> list[np.ndarray]:
    # the groups of 4 digits of integers 0 <= v < 10^(4 groups), held
    # exactly as floats, most significant first
    index = []
    for _ in range(groups - 1):
        q = np.floor(v / 1e4)
        index.append(v - q * 1e4)
        v = q
    return [v, *index[::-1]]


def _integer(v: np.ndarray) -> list[np.ndarray]:
    # the word indices of integers 0 <= v < 10^12 (exact floats), one row
    # for each group of 4 digits, as few as the largest needs: a group drops
    # its leading zeros unless one before it has a digit other than 0, and
    # the last keeps a lone 0
    top = v.max(initial=0)
    groups = 1 + (top >= 1e4) + (top >= 1e8)
    index = _groups(v, groups)
    for j in range(groups):
        quiet = _AT["last"] if j == groups - 1 else _AT["lead"]
        index[j] = index[j] + (np.where(v >= 1e4 ** (groups - j), _AT["full"], quiet)
                               if j else quiet)
    return index


def _int_cells(col: np.ndarray, spec: str) -> np.ndarray:
    # %d, and %Nd with its spaces in words before the digits
    v = col.astype(np.int64, copy=False)
    slow = v.view(np.uint64) >= 10**12  # v < 0 too
    v = np.where(slow, 0, v).astype(np.float64)
    index = _integer(v)
    width = int(spec[:-1] or 0)
    if width > 1:
        spaces = width - 1 - np.searchsorted(_POW10, v, side="right")
        index[:0] = [(spaces - 4 * j).clip(0, 4) + _AT["spaces"]
                     for j in range((width + 2) // 4)]
    return _words(index, spec, col, slow)


def _float_cells(col: np.ndarray, spec: str) -> np.ndarray:
    # %.12g in fixed notation, by the argument of the module docstring
    x = col.astype(np.float64, copy=False)
    a = np.abs(x)
    k = _FIRST_K[a.view(np.int64) >> 52]
    slow = k > 17
    a[slow], k[slow] = 1.0, 11
    k -= a * _SCALE[k] >= 1e12
    hi = a * _SCALE[k]
    d = np.rint(hi)
    slow[np.abs(hi - d) == 0.5] = True
    if d.max() >= 1e12:
        slow |= d == 1e12
    slow |= k.view(np.uint64) > 15  # k < 0 too
    d[slow], k[slow] = 1.0, 0
    p = _SCALE[k]
    whole = np.floor(d / p)
    fraction = d - whole * p
    negative = x < 0
    index = [np.where(negative, _AT["minus"], _AT["nul"])] if negative.any() else []
    index += _integer(whole)
    if fraction.any():
        # the point and the fractional digits in 4 groups places, the first
        # (a 0) made the point, as many groups as the longest fraction needs;
        # a group drops its trailing zeros unless a later one has a digit
        # other than 0
        groups = -(-(int(k.max()) + 1) // 4)
        digits = _groups(fraction * _SCALE[4 * groups - 1 - k], groups)
        later = digits[-1] != 0
        digits[-1] = digits[-1] + (_AT["trail"] if groups > 1 else _AT["point_trail"])
        for j in range(groups - 2, -1, -1):
            full, trail = ("point", "point_trail") if j == 0 else ("full", "trail")
            nonzero = digits[j] != 0 if j else None
            digits[j] = digits[j] + np.where(later, _AT[full], _AT[trail])
            if j:
                later |= nonzero
        index += digits
    return _words(index, spec, col, slow)


def _byte_cells(col: np.ndarray, spec: str) -> np.ndarray:
    # %s: the bytes of fixed-width, NUL-padded cells, in whole words
    col = np.ascontiguousarray(col.astype(f"S{-(-max(col.dtype.itemsize, 1) // 4) * 4}",
                                          copy=False))
    return col.view(np.uint32).reshape(len(col), -1).T.copy()


_CELLS = {"d": _int_cells, "g": _float_cells, "s": _byte_cells}
