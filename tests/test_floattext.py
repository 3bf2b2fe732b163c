"""The block formatter writes the builtins' bytes: ``format(x, ".16e")`` and ``json.dumps``."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rydgauge._floattext import (
    _csv_cells,
    _decimal,
    _digits,
    _json_cells,
    _shortest,
    _text,
    csv_rows,
    json_rows,
)


def _builtin_csv(block):
    return "".join(",".join(format(v, ".16e") for v in row) + "\n" for row in block.tolist())


def _builtin_json(block):
    return json.dumps(block.tolist())[1:-1]


def _assert_matches(got, expected, separator):
    if got != expected:
        pairs = zip(got.split(separator), expected.split(separator))
        wrong = [(g, e) for g, e in pairs if g != e]
        raise AssertionError(f"{len(wrong)} cells differ, first: {wrong[:5]}")


def _assert_builtin_bytes(block):
    _assert_matches(csv_rows(block).decode(), _builtin_csv(block), ",")
    _assert_matches(json_rows(block).decode(), _builtin_json(block), ", ")


def _random_patterns():
    """1e6 seeded 64-bit patterns and the special values.

    Fifteen in sixteen take a uniform exponent from the block path's range
    [1e-280, 1e280], the rest keep all 64 random bits (NaN payloads,
    subnormals, values only the builtin formats).
    """
    rng = np.random.default_rng(20101)
    n = 1_000_000
    bits = rng.integers(0, 2**64, n, dtype=np.uint64)
    exponent = rng.integers(92, 1954, n).astype(np.uint64) << np.uint64(52)
    inner = rng.random(n) < 15 / 16
    bits = np.where(inner, bits & ~np.uint64(0x7FF << 52) | exponent, bits)
    specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308]
    return np.concatenate([bits.view(np.float64), specials, np.zeros(5)]).reshape(-1, 8)


# sha256 of the builtins' text for ``_random_patterns()``: checking 1e6 values
# against the builtins directly takes about 5 s, the digest one formatting pass.
# A miss (a wrong cell, or another numpy random stream) runs the direct check.
RANDOM_CSV_SHA256 = "a800d013109a83c54396542557f284fbb016370a86c6c07661e3df5cb06f59ad"
RANDOM_JSON_SHA256 = "4eb9dc7ebf9bf8ad2dfc031ac2a5d24ee3a78d9a79befaba6189cbd2a05eee73"


def test_a_million_random_patterns_match_the_builtins():
    block = _random_patterns()
    for rows, builtin, digest, separator in (
        (csv_rows, _builtin_csv, RANDOM_CSV_SHA256, ","),
        (json_rows, _builtin_json, RANDOM_JSON_SHA256, ", "),
    ):
        got = rows(block)
        if hashlib.sha256(got).hexdigest() != digest:
            _assert_matches(got.decode(), builtin(block), separator)  # names the cells that differ


def test_table_digits_match_digit_by_digit_division():
    """The four-digit table words give each 17-digit integer's digits, as division by ten
    does one digit at a time: the bounds, every four-digit group at 0000 and 9999 under
    each leading digit, both sides of 10^8 and random values."""
    values = [0, 10**16, 10**17 - 1]
    for first in range(1, 10):
        for groups in itertools.product((0, 9999), repeat=4):
            values.append(first * 10**16 + sum(g * 10 ** (12 - 4 * i)
                                               for i, g in enumerate(groups)))
    for base in (10**16, 5 * 10**16, 10**17 - 10**10):  # the words split n // 10 at 10^8
        values += [base + edge + step for edge in (10**8, 10**9)
                   for step in (-11, -10, -1, 0, 1, 10)]
    values += np.random.default_rng(20104).integers(10**16, 10**17, 1000).tolist()
    digits = _digits(np.array(values, dtype=np.int64)).view(np.uint8)[:, :17]
    expected = [[48 + v // 10 ** (16 - i) % 10 for i in range(17)] for v in values]
    assert digits.tolist() == expected


def _edges():
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    near_powers = [powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    # x = m / 2^(17 - k) for odd m: 17-digit ties, exact for k >= -6 and inexact below
    ties = []
    for k in range(-30, 16):
        start = int(np.ceil(10.0**k * 2.0 ** (17 - k))) | 1
        ties.append(np.ldexp(np.arange(start, start + 200, 2, dtype=float), k - 17))
    dyadics = [np.arange(1, 2049) / 2.0**j for j in (1, 3, 10, 30, 60)]
    integers = [np.arange(2**53 - 300, 2**53 + 300, dtype=float),
                np.arange(10**17 - 4000, 10**17 + 4000, 8, dtype=float),
                np.arange(10**16 - 300, 10**16 + 300, dtype=float)]
    switches = []
    for point in (1e-4, 1e-5, 1e16, 1e17):
        for _ in range(4):
            switches += [point, np.nextafter(point, np.inf), np.nextafter(point, 0.0)]
            point = np.nextafter(np.nextafter(point, np.inf), np.inf)
    normals = [2.2250738585072014e-308, 1.7976931348623157e308, 5e-324, 0.0, 1e-280, 1e280]
    values = np.concatenate([*near_powers, twos, *ties, *dyadics, *integers, switches, normals])
    return np.concatenate([values, -values])


def test_edge_values_match_the_builtins():
    values = _edges()
    _assert_builtin_bytes(values.reshape(-1, 1))
    _assert_builtin_bytes(values[: values.size // 7 * 7].reshape(-1, 7))


def _shortest_lengths():
    """200 values whose shortest text has d digits, for each d from 1 to 17."""
    rng = np.random.default_rng(20102)
    values = []
    for digits in range(1, 18):
        mantissas = rng.integers(10 ** (digits - 1), 10**digits, 200)
        mantissas += rng.integers(1, 10, 200) - mantissas % 10  # no trailing zero
        exponents = rng.integers(-280, 281 - digits, 200)  # inside the block path's range
        values += [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    return np.array(values)


def _near_powers_of_ten():
    """10^p and eight neighbours on either side: X at its 10^16 and 10^17 bounds, and the
    nines just below a power, whose nearest multiple carries to 10^17."""
    powers = np.array([float(f"1e{p}") for p in range(-307, 309)])
    values = [powers]
    for direction in (0.0, np.inf):
        near = powers
        for _ in range(8):
            near = np.nextafter(near, direction)
            values.append(near)
    values.append([float(f"9.99999999999999{d}e{p}") for p in range(-300, 300) for d in (9, 99)])
    return np.concatenate(values)


def _ends_near_multiples():
    """Doubles with an end of their round-trip interval 5^z s / 2^m units of X from a multiple
    of 10^z (z = 1, 2) for odd s in +-1, +-3: from 2e-15 to 2 units.

    Where the scale 10^n (n = 16 - k) is exact, the midpoint above a = q 2^e is
    X = (2q + 1) 5^n / 2^m with m = 1 - e - n, so (2q + 1) 5^(n - z) = s mod 2^(m + z)
    puts it 5^z s / 2^m above a multiple of 10^z.  The double after a shares that end.
    """
    rng = random.Random(20103)
    values = []
    for k in range(-6, 16):
        n = 16 - k
        for b in range(math.floor(k * math.log2(10)), math.floor((k + 1) * math.log2(10)) + 1):
            e = b - 52  # a in [2^b, 2^(b + 1)), q in [2^52, 2^53)
            m = 1 - e - n
            for z in (1, 2):
                if m < 1 or z > n:
                    continue
                modulus = 2 ** (m + z)
                for s in (1, -1, 3, -3):
                    odd = s * pow(5 ** (n - z), -1, modulus) % modulus
                    period = modulus // 2  # of q
                    first = -(-(2**52 - odd // 2) // period)
                    last = (2**53 - 1 - odd // 2) // period
                    for _ in range(3 if first <= last else 0):
                        q = odd // 2 + rng.randint(first, last) * period
                        if 10**k <= Fraction(q) * Fraction(2) ** e < 10 ** (k + 1):
                            values.append(math.ldexp(q, e))
    values = np.array(values)
    return np.concatenate([values, np.nextafter(values, np.inf)])


def _digit_count(text):
    return len(text.split("e")[0].replace("-", "").replace(".", "").strip("0"))


def test_shortest_digits_match_json_dumps():
    """The two levels of the digit search and the count of a multiple of 100's zeros give
    json.dumps's text: all shortest lengths, powers of ten, carries, interval ends."""
    lengths, powers, ends = _shortest_lengths(), _near_powers_of_ten(), _ends_near_multiples()
    texts = json.dumps(lengths.tolist())[1:-1].split(", ")
    assert sorted({_digit_count(text) for text in texts}) == list(range(1, 18))
    assert json.dumps(9.999999999999999e22) == "1e+23"
    specials = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, np.nan, np.inf]
    for values in (lengths, powers, ends, np.array(specials)):
        values = np.concatenate([values, -values])
        _assert_builtin_bytes(values.reshape(-1, 1))
        _assert_builtin_bytes(values[: values.size // 5 * 5].reshape(-1, 5))
    # 1e23's double has its interval end at 10^17 exactly: the builtin decides it, but
    # 1e-278's double sits below 10^-278, and its one digit carries on the block path
    assert not _json_cells(np.array([9.999999999999999e22]), 1, 1)[1].any()
    assert _decimal(np.array([1e-278]))[1] == -279
    assert [v.tolist() for v in _shortest(np.array([1e-278]))] == [[10**16], [1], [-278], [True]]
    # most constructed values are decided by the block path, not handed to the builtin
    assert _json_cells(lengths, lengths.size, 1)[1].mean() > 0.99
    assert _json_cells(ends, ends.size, 1)[1].mean() > 0.5


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=12))
def test_hypothesis_floats_match_the_builtins(row):
    _assert_builtin_bytes(np.array([row, row[::-1]]))


def test_empty_and_single_blocks():
    assert csv_rows(np.zeros((0, 5))) == b""
    assert json_rows(np.zeros((0, 5))) == b""
    _assert_builtin_bytes(np.array([[0.1]]))
    _assert_builtin_bytes(np.array([[-0.0, 2.5e-7, 1e300, np.nan]]))


def test_zeros_among_builtin_values_match_the_builtins():
    # the map's Bx and Bz columns are all zeros, here beside values only the builtin formats
    others = np.array([5e-324, -5e-324, 2.225073858507201e-308, 1e-280, -1e-280, 1e280, -1e280,
                       np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf),
                       np.nan, np.inf, -np.inf])
    zeros = np.where(np.arange(others.size) % 2, -0.0, 0.0)
    block = np.column_stack([zeros, others, -zeros, zeros])
    for shaped in (block, block.T.copy(), block.reshape(-1, 1)):
        _assert_builtin_bytes(shaped)


def test_zeros_stay_on_the_block_path():
    x = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0])  # two rows of three
    for cells in (_csv_cells, _json_cells):
        assert cells(x, 2, 3)[1].all()

    def slow(value):
        raise AssertionError(f"{value!r} sent to the builtin")

    assert _text(*_csv_cells(x, 2, 3), x, slow, 0, 25) == (
        b"0.0000000000000000e+00,-0.0000000000000000e+00,-0.0000000000000000e+00\n"
        b"0.0000000000000000e+00,0.0000000000000000e+00,-0.0000000000000000e+00\n")
    assert _text(*_json_cells(x, 2, 3), x, slow, 1, 33) == b"[0.0, -0.0, -0.0], [0.0, 0.0, -0.0]"
