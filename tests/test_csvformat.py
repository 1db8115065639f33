"""Column formatter: byte-identical to Python's per-cell % formatting."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from volkovfp import csvformat


def _lines(*columns) -> list[str]:
    text = b"".join(csvformat.csv_lines(columns)).decode()
    assert text.endswith("\n") or not text
    return text.splitlines()


def _edge_doubles() -> np.ndarray:
    """+-0, subnormals, the float extremes, every power of 2 and every
    power of 10 with both neighbours, inf and nan, with both signs."""
    base = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]
    base += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    base += [float(f"1e{k}") for k in range(-323, 309)]
    base = np.array(base)
    with np.errstate(over="ignore"):
        near = [np.nextafter(base, np.inf), np.nextafter(base, -np.inf)]
    edge = np.concatenate([base, *near, [np.inf, np.nan]])
    return np.concatenate([edge, -edge])


def test_floats_match_percent_17g(python_cells):
    """1M random bit patterns, normals scaled over 1e-40..1e40 and the edge
    set, cell for cell what '%.17g' % x gives; non-finite values and values
    outside the exact range go to Python."""
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64).view(np.float64)
    scaled = rng.normal(size=200_000) * 10.0 ** rng.uniform(-40, 40, 200_000)
    for x in (bits, scaled, _edge_doubles()):
        assert _lines(x) == ["%.17g" % v for v in x.tolist()]
    sent = np.array(python_cells)
    assert np.isnan(sent).any() and np.isinf(sent).any()
    assert (np.abs(sent[np.isfinite(sent)]) < 1e-280).any()
    assert (np.abs(sent[np.isfinite(sent)]) > 1e280).any()


def test_rounding_ties_go_to_python(python_cells):
    """k + 1/4 and k + 3/4 with 16 integer digits have 18 significant
    digits ending in 5: exact ties that '%.17g' rounds half to even."""
    k = np.random.default_rng(3).integers(2 ** 50, 2 ** 51, 500).astype(float)
    ties = np.concatenate([k + 0.25, -(k + 0.75)])
    assert _lines(ties) == ["%.17g" % v for v in ties.tolist()]
    assert python_cells == ties.tolist()


def test_integers_match_percent_d(python_cells):
    v = np.array([*range(-1200, 1200), 2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1,
                  10 ** 18, 10 ** 18 - 1, -10 ** 18, *(10 ** k for k in range(19))],
                 dtype=np.int64)
    v = np.concatenate([v, np.random.default_rng(4).integers(-2 ** 63, 2 ** 63 - 1, 100_000)])
    assert _lines(v) == ["%d" % n for n in v.tolist()]
    assert python_cells == v.tolist()  # values beyond 2^53: the column goes to Python
    flags = np.array([True, False, True])
    assert _lines(flags, flags.astype(np.uint8), [1, 2, 3]) == ["1,1,1", "0,0,2", "1,1,3"]


def test_integers_up_to_2_53_take_the_float_path(python_cells):
    """An integer column within [-2^53, 2^53] is written as its doubles,
    whose '%.17g' is its '%d', with no cell sent to Python; one value
    beyond, or -2^63 (whose np.abs is -2^63 itself), sends the column to
    Python's '%d'."""
    exact = np.array([2 ** 53, -2 ** 53, 2 ** 53 - 1, 1 - 2 ** 53, 10 ** 15, -10 ** 15,
                      *range(-300, 300)], dtype=np.int64)
    flags = np.arange(exact.size) % 3 == 0
    small = (np.arange(exact.size) % 256).astype(np.uint8)
    expected = ["%d,%d,%d" % row for row in zip(exact.tolist(), flags.tolist(), small.tolist())]
    assert _lines(exact, flags, small) == expected
    assert python_cells == []
    for beyond in ([2 ** 53 + 1], [-2 ** 53 - 1], [-2 ** 63], [2 ** 63 - 1], [7, -2 ** 63]):
        v = np.array(beyond, dtype=np.int64)
        assert _lines(v) == ["%d" % n for n in beyond]
    assert python_cells == [2 ** 53 + 1, -2 ** 53 - 1, -2 ** 63, 2 ** 63 - 1, 7, -2 ** 63]


def test_a_cell_fills_at_most_its_slot_less_the_separator():
    """Text is written by Python's '%s' as UTF-8; 47 bytes fit a slot,
    48 bytes are refused."""
    fits = "x" + "é" * 23
    assert len(fits.encode()) == 47
    assert _lines([fits, "a"], [1.5, -2.0]) == [f"{fits},1.5", "a,-2"]
    with pytest.raises(ValueError, match="at most 47 bytes, got 48"):
        _lines(["é" * 24])


def test_rows_join_every_column_kind_across_blocks():
    """Rows of mixed columns split over several blocks print as one
    per-row % format of the same values."""
    n = 3 * csvformat.BLOCK_CELLS // 7 + 5
    rng = np.random.default_rng(5)
    texts = [f"case{i % 7}" if i % 5 else "né" for i in range(n)]
    floats = [rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, n) for _ in range(4)]
    ints = np.arange(n) - n // 2
    columns = [texts, floats[0], ints, *floats[1:], ints[::-1].copy()]
    expected = ["%s,%.17g,%d,%.17g,%.17g,%.17g,%d" % row
                for row in zip(*(np.asarray(c).tolist() for c in columns))]
    assert _lines(*columns) == expected


def test_columns_are_checked():
    assert _lines(np.array([]), []) == []
    with pytest.raises(ValueError, match="unequal"):
        _lines([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="1-D"):
        _lines(np.zeros((2, 2)))
    with pytest.raises(TypeError, match="complex"):
        _lines(np.zeros(2, dtype=complex))
    with pytest.raises(TypeError, match="uint64"):
        _lines(np.array([2 ** 64 - 1], dtype=np.uint64))


# Run in a fresh interpreter: this process has built the tables already.
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import volkovfp.cli
from volkovfp import csvformat
print(json.dumps(csvformat._tables.cache_info().currsize))
"""


def test_import_leaves_the_tables_unbuilt():
    src = str(Path(csvformat.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(done.stdout) == 0
