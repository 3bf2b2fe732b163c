"""The block formatter writes the builtins' bytes: ``format(x, ".16e")`` and ``json.dumps``."""

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rydgauge._floattext import _csv_cells, _json_cells, _text, csv_rows, json_rows


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

    assert _text(*_csv_cells(x, 2, 3), x, slow, 0, 24) == (
        b"0.0000000000000000e+00,-0.0000000000000000e+00,-0.0000000000000000e+00\n"
        b"0.0000000000000000e+00,0.0000000000000000e+00,-0.0000000000000000e+00\n")
    assert _text(*_json_cells(x, 2, 3), x, slow, 1, 31) == b"[0.0, -0.0, -0.0], [0.0, 0.0, -0.0]"
