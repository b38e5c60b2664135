"""Shape algebra with partially-known dimensions.

The analyzer's static shape inference (§3.4) classifies every tensor
as statically shaped (all dimensions known at graph-construction time)
or dynamic.  :class:`Shape` models that: each dimension is an ``int``
or ``None`` (unknown).  Shapes are immutable.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union


DimLike = Optional[int]


class ShapeError(ValueError):
    """Incompatible or invalid shapes."""


class Shape:
    """An immutable tensor shape; dims may be unknown (None)."""

    __slots__ = ("dims", "is_fully_defined", "_count")

    def __init__(self, dims: Iterable[DimLike]) -> None:
        checked: List[DimLike] = []
        count: Optional[int] = 1
        for dim in dims:
            if dim is None:
                checked.append(None)
                count = None
            elif isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0:
                checked.append(dim)
                if count is not None:
                    count *= dim
            else:
                raise ShapeError(f"bad dimension {dim!r}")
        object.__setattr__(self, "dims", tuple(checked))
        #: whether every dimension is known
        object.__setattr__(self, "is_fully_defined", count is not None)
        #: the element count, None while a dimension is unknown
        object.__setattr__(self, "_count", count)

    def __setattr__(self, name, value):
        raise AttributeError("Shape is immutable")

    # -- predicates -----------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.dims)

    def num_elements(self) -> int:
        """Element count; raises if any dimension is unknown."""
        if self._count is None:
            raise ShapeError(f"shape {self} is not fully defined")
        return self._count

    # -- algebra ----------------------------------------------------------------------

    def merge(self, other: "Shape") -> "Shape":
        """Combine two partial shapes; raises on conflict."""
        if self.rank != other.rank:
            raise ShapeError(f"rank mismatch: {self} vs {other}")
        merged: List[DimLike] = []
        for a, b in zip(self.dims, other.dims):
            if a is None:
                merged.append(b)
            elif b is None or a == b:
                merged.append(a)
            else:
                raise ShapeError(f"dimension conflict: {self} vs {other}")
        return Shape(merged)

    def matmul(self, other: "Shape") -> "Shape":
        """Shape of a rank-2 matrix product self @ other."""
        if self.rank != 2 or other.rank != 2:
            raise ShapeError(f"matmul needs rank-2 shapes: {self} @ {other}")
        inner_a, inner_b = self.dims[1], other.dims[0]
        if inner_a is not None and inner_b is not None and inner_a != inner_b:
            raise ShapeError(f"matmul inner dims differ: {self} @ {other}")
        return Shape([self.dims[0], other.dims[1]])

    def broadcast(self, other: "Shape") -> "Shape":
        """Numpy-style broadcast of two shapes."""
        out: List[DimLike] = []
        a_dims = list(self.dims)[::-1]
        b_dims = list(other.dims)[::-1]
        for i in range(max(len(a_dims), len(b_dims))):
            a = a_dims[i] if i < len(a_dims) else 1
            b = b_dims[i] if i < len(b_dims) else 1
            if a == 1:
                out.append(b)
            elif b == 1 or b == a:
                out.append(a)
            elif a is None or b is None:
                out.append(None)
            else:
                raise ShapeError(f"cannot broadcast {self} with {other}")
        return Shape(out[::-1])

    # -- conversions -------------------------------------------------------------------

    def as_tuple(self) -> Tuple[int, ...]:
        if not self.is_fully_defined:
            raise ShapeError(f"shape {self} has unknown dims")
        return tuple(self.dims)  # type: ignore[return-value]

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, index):
        return self.dims[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Shape):
            return self.dims == other.dims
        if isinstance(other, (tuple, list)):
            return self.dims == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:
        inner = ", ".join("?" if d is None else str(d) for d in self.dims)
        return f"({inner})"


ShapeLike = Union[Shape, Sequence[DimLike]]


def as_shape(value: ShapeLike) -> Shape:
    """Coerce a sequence (or Shape) into a Shape."""
    if isinstance(value, Shape):
        return value
    return Shape(value)


def scalar() -> Shape:
    return Shape(())

