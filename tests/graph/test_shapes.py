"""Unit tests for shape algebra and dtypes."""

import numpy as np
import pytest

from repro.graph.dtypes import DType
from repro.graph.shapes import Shape, ShapeError, as_shape, scalar


class TestShapeBasics:
    def test_fully_defined(self):
        assert Shape([2, 3]).is_fully_defined
        assert not Shape([2, None]).is_fully_defined

    def test_num_elements(self):
        assert Shape([4, 5, 2]).num_elements() == 40
        assert scalar().num_elements() == 1

    def test_num_elements_unknown_raises(self):
        with pytest.raises(ShapeError):
            Shape([None]).num_elements()

    def test_bad_dim_rejected(self):
        with pytest.raises(ShapeError):
            Shape([-1])
        with pytest.raises(ShapeError):
            Shape([2.5])
        with pytest.raises(ShapeError):
            Shape([True])

    def test_immutability(self):
        shape = Shape([1])
        with pytest.raises(AttributeError):
            shape.dims = (2,)

    def test_equality_with_tuples(self):
        assert Shape([1, 2]) == (1, 2)
        assert Shape([1, None]) == (1, None)

    def test_hashable(self):
        assert len({Shape([1]), Shape([1]), Shape([2])}) == 2

    def test_repr(self):
        assert repr(Shape([3, None])) == "(3, ?)"

    def test_as_shape_passthrough(self):
        shape = Shape([1])
        assert as_shape(shape) is shape
        assert as_shape([2, 2]) == Shape([2, 2])


class TestShapeAlgebra:
    def test_merge_fills_unknowns(self):
        merged = Shape([None, 3]).merge(Shape([2, None]))
        assert merged == (2, 3)

    def test_merge_conflict(self):
        with pytest.raises(ShapeError):
            Shape([2]).merge(Shape([3]))

    def test_merge_rank_mismatch(self):
        with pytest.raises(ShapeError):
            Shape([2]).merge(Shape([2, 2]))

    def test_matmul(self):
        assert Shape([4, 8]).matmul(Shape([8, 3])) == (4, 3)

    def test_matmul_unknown_inner(self):
        assert Shape([None, 8]).matmul(Shape([8, 3])) == (None, 3)

    def test_matmul_inner_conflict(self):
        with pytest.raises(ShapeError):
            Shape([4, 8]).matmul(Shape([9, 3]))

    def test_broadcast_scalar(self):
        assert scalar().broadcast(Shape([2, 3])) == (2, 3)

    def test_broadcast_ones(self):
        assert Shape([2, 1]).broadcast(Shape([1, 5])) == (2, 5)

    def test_broadcast_incompatible(self):
        with pytest.raises(ShapeError):
            Shape([2]).broadcast(Shape([3]))


class TestDType:
    def test_sizes(self):
        assert DType.float32.size == 4
        assert DType.float64.size == 8
        assert DType.uint8.size == 1

    def test_numpy_roundtrip(self):
        for member in DType:
            assert DType.from_numpy(member.np) is member

    def test_code_roundtrip(self):
        for member in DType:
            assert DType.from_code(member.code) is member

    def test_unknown_numpy_dtype(self):
        with pytest.raises(TypeError):
            DType.from_numpy(np.dtype("complex64"))

    def test_unknown_code(self):
        with pytest.raises(ValueError):
            DType.from_code(99)
