"""Tests for the sort-based dedup primitives and the no-plain-unique rule."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.primitives.unique import (
    dedupe_sorted,
    fold_duplicates,
    sorted_unique,
)

I64 = np.iinfo(np.int64)


def _assert_same_unique(x: np.ndarray) -> None:
    got = sorted_unique(x)
    want = np.unique(x)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestSortedUnique:
    @pytest.mark.parametrize(
        "x",
        [
            np.empty(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.full(50, -3, dtype=np.int64),
            np.arange(100, dtype=np.int64),
            np.arange(100, dtype=np.int64)[::-1].copy(),
            np.array([-5, 3, -5, 0, -1, 3], dtype=np.int64),
            np.array([I64.max, I64.min, I64.max, 0, I64.min + 1, I64.max - 1]),
            np.array([2**31 - 1, -(2**31), 5, 2**31 - 1], dtype=np.int32),
            np.array([255, 0, 17, 255, 0], dtype=np.uint8),
            np.array([[3, 1], [1, 2]], dtype=np.int64),
        ],
        ids=[
            "empty", "one", "all-equal", "sorted", "reversed", "negative",
            "int64-extremes", "int32", "uint8", "2d",
        ],
    )
    def test_edge_cases_match_np_unique(self, x):
        _assert_same_unique(x)

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            st.sampled_from([np.int64, np.int32, np.uint8, np.uint64, np.int16]),
            st.integers(0, 300),
        )
    )
    def test_random_arrays_match_np_unique(self, x):
        _assert_same_unique(x)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(I64.min, I64.min + 3),
                st.integers(-4, 4),
                st.integers(I64.max - 3, I64.max),
            ),
            max_size=200,
        )
    )
    def test_near_int64_limits(self, values):
        _assert_same_unique(np.array(values, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_non_integer_raises_type_error(self, dtype):
        with pytest.raises(TypeError, match="integer"):
            sorted_unique(np.zeros(3, dtype=dtype))


class TestDedupeSorted:
    @settings(max_examples=100, deadline=None)
    @given(arrays(np.int64, st.integers(0, 300), elements=st.integers(-9, 9)))
    def test_owned_key_sorted_in_place_matches_np_unique(self, x):
        key = x.copy()
        key.sort()
        got = dedupe_sorted(key)
        assert got.dtype == key.dtype
        assert np.array_equal(got, np.unique(x))


def _reference_fold(ids, values, combine):
    """The inline fold the dist pack and exchange merge used to carry."""
    uniq, inverse = np.unique(ids, return_inverse=True)
    if combine == "min":
        folded = np.full(uniq.shape[0], np.inf, dtype=values.dtype)
        np.minimum.at(folded, inverse, values)
    else:
        folded = np.zeros(uniq.shape[0], dtype=values.dtype)
        np.add.at(folded, inverse, values)
    return uniq, folded


@st.composite
def _ids_and_values(draw):
    n = draw(st.integers(0, 200))
    ids = draw(arrays(np.int64, n, elements=st.integers(0, 12)))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    finfo = np.finfo(dtype)
    special = [
        0.0, -0.0, np.inf, -np.inf, finfo.smallest_subnormal,
        -finfo.smallest_subnormal, finfo.smallest_normal, finfo.max,
    ]
    elements = st.one_of(
        st.sampled_from([float(v) for v in special]),
        st.floats(-float(finfo.max), float(finfo.max), allow_nan=False,
                  width=finfo.bits),
        st.floats(-float(finfo.smallest_normal), float(finfo.smallest_normal),
                  width=finfo.bits),
    )
    values = draw(arrays(dtype, n, elements=elements))
    return ids, values


class TestFoldDuplicates:
    # inf + -inf and overflowing sums warn; both folds must agree anyway.
    @pytest.mark.filterwarnings("ignore:.*encountered in add:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(_ids_and_values(), st.sampled_from(["min", "sum"]))
    def test_bit_identical_to_inline_fold(self, ids_values, combine):
        ids, values = ids_values
        uniq, folded = fold_duplicates(ids, values, combine)
        ref_uniq, ref_folded = _reference_fold(ids, values, combine)
        assert uniq.tobytes() == ref_uniq.tobytes()
        assert folded.dtype == ref_folded.dtype
        assert folded.tobytes() == ref_folded.tobytes()

    def test_sum_of_negative_zeros_is_positive_zero(self):
        _, folded = fold_duplicates(
            np.array([4, 4]), np.array([-0.0, -0.0]), "sum"
        )
        assert not np.signbit(folded[0])

    def test_min_keeps_negative_zero(self):
        _, folded = fold_duplicates(np.array([4]), np.array([-0.0]), "min")
        assert np.signbit(folded[0])

    def test_unknown_combiner(self):
        with pytest.raises(ValueError, match="unknown combiner"):
            fold_duplicates(np.array([1]), np.array([1.0]), "max")


# -- the no-plain-unique rule ---------------------------------------------

_SORTING_FORMS = {"return_index", "return_inverse", "return_counts"}
_PRIMITIVE = Path("primitives") / "unique.py"


def plain_unique_calls(source: str) -> list[int]:
    """Line numbers of ``np.unique``/``numpy.unique`` calls that take the
    hash path: those passing none of the three sorting keywords."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        sorting = [
            kw for kw in node.keywords
            if kw.arg in _SORTING_FORMS
            and not (isinstance(kw.value, ast.Constant) and not kw.value.value)
        ]
        if not sorting:
            lines.append(node.lineno)
    return lines


class TestNoPlainUnique:
    def test_scanner_flags_plain_calls_only(self):
        source = (
            "import numpy as np\nimport numpy\n"
            "a = np.unique(x)\n"
            "b = numpy.unique(x, axis=0)\n"
            "c = np.unique(x, return_inverse=False)\n"
            "d = np.unique(x, return_index=True)\n"
            "e = np.unique(x, return_inverse=True)\n"
            "f = numpy.unique(x, return_counts=True)\n"
        )
        assert plain_unique_calls(source) == [3, 4, 5]

    def test_src_has_no_plain_unique(self):
        root = Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(root)}:{line}"
            for path in sorted(root.rglob("*.py"))
            if path.relative_to(root) != _PRIMITIVE
            for line in plain_unique_calls(path.read_text())
        ]
        assert not offenders, (
            "plain np.unique hashes on numpy 2; use "
            f"repro.primitives.unique.sorted_unique instead: {offenders}"
        )
