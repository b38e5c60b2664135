"""Tensors: metadata plus (optionally materialized) storage.

A tensor is the unit of data flowing along graph edges and of
cross-server transfer.  Its storage is a :class:`~repro.simnet.memory.Buffer`
in some host's simulated address space:

* a *dense* tensor's range was wholly written with real bytes, which
  :attr:`Tensor.array` exposes as a zero-copy numpy view, so
  computation writes directly into the very memory the NIC transfers —
  this is what makes the zero-copy claims testable end to end;
* any other tensor carries only a size: the large benchmark models,
  and every tensor computed from one (nothing writes it, so it holds
  no bytes — see ``Executor.allocate_output``), where content is
  irrelevant but timing is not.

:class:`TensorMeta` is the fixed-size metadata block of §3.3 (number
of dimensions, per-dimension sizes, element type, remote data address)
with a real wire encoding, used by the dynamic-allocation transfer
protocol.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..simnet.memory import Buffer
from .dtypes import DType
from .shapes import Shape, as_shape


class Tensor:
    """A typed, shaped view over a simulated memory buffer."""

    __slots__ = ("dtype", "shape", "buffer", "offset")

    def __init__(self, dtype: DType, shape: Shape, buffer: Optional[Buffer],
                 offset: int = 0) -> None:
        self.dtype = dtype
        self.shape = as_shape(shape)
        self.buffer = buffer
        self.offset = offset
        if buffer is not None:
            if not self.shape.is_fully_defined:
                raise ValueError("materialized tensor needs a concrete shape")
            if offset + self.nbytes > buffer.size:
                raise ValueError(
                    f"tensor of {self.nbytes} bytes at offset {offset} "
                    f"does not fit buffer of {buffer.size}")

    # -- size --------------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self.shape.num_elements() * self.dtype.size

    @property
    def addr(self) -> int:
        if self.buffer is None:
            raise ValueError("tensor has no storage")
        return self.buffer.addr + self.offset

    @property
    def is_materialized(self) -> bool:
        return self.buffer is not None

    @property
    def is_dense(self) -> bool:
        """Whether the tensor's range was wholly written with real bytes."""
        return (self.buffer is not None
                and self.buffer.backing.is_real(self.offset, self.nbytes))

    # -- value access -------------------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """Zero-copy numpy view of the underlying bytes (dense only)."""
        if not self.is_dense:
            raise ValueError("array view requires dense storage")
        raw = self.buffer.backing.view(self.offset, self.nbytes)
        return raw.view(self.dtype.np).reshape(self.shape.as_tuple())

    def copy_from(self, values: np.ndarray) -> None:
        """Write numpy values into the tensor's storage."""
        values = np.asarray(values, dtype=self.dtype.np)
        if values.shape != self.shape.as_tuple():
            raise ValueError(f"shape mismatch: {values.shape} vs {self.shape}")
        if self.buffer is None:
            raise ValueError("tensor has no storage")
        self.buffer.write(values.tobytes(), self.offset)

    def __repr__(self) -> str:
        where = "unmaterialized"
        if self.buffer is not None:
            kind = "dense" if self.is_dense else "virtual"
            where = f"{kind}@{self.buffer.host_name}:{self.addr:#x}"
        return f"Tensor({self.dtype.type_name}, {self.shape}, {where})"


def tensor_nbytes(dtype: DType, shape: Shape) -> int:
    """Size in bytes of a tensor with the given dtype and shape."""
    return shape.num_elements() * dtype.size


#: Metadata layout: dtype code (u8), ndims (u8), remote addr (u64),
#: remote rkey (u32), then ndims u32 dims, then a 1-byte flag slot.
_META_FIXED = struct.Struct("<BBQI")
META_FLAG_SIZE = 1


@dataclass(frozen=True)
class TensorMeta:
    """Fixed-size tensor metadata for the dynamic transfer protocol.

    Because a tensor's *rank* never changes across mini-batches even
    when its dimensions do (paper §3.3), the encoded size is constant
    per transferred tensor, so the receiver can preallocate the slot.
    """

    dtype: DType
    dims: Tuple[int, ...]
    remote_addr: int
    remote_rkey: int

    @property
    def shape(self) -> Shape:
        return Shape(self.dims)

    @property
    def data_nbytes(self) -> int:
        count = 1
        for dim in self.dims:
            count *= dim
        return count * self.dtype.size

    @staticmethod
    def encoded_size(ndims: int) -> int:
        """Wire size for a given rank, excluding the flag byte."""
        return _META_FIXED.size + 4 * ndims

    @staticmethod
    def slot_size(ndims: int) -> int:
        """Receive-slot size: encoding plus the tail flag byte."""
        return TensorMeta.encoded_size(ndims) + META_FLAG_SIZE

    def encode(self) -> bytes:
        head = _META_FIXED.pack(self.dtype.code, len(self.dims),
                                self.remote_addr, self.remote_rkey)
        return head + b"".join(struct.pack("<I", d) for d in self.dims)

    @classmethod
    def decode(cls, raw: bytes) -> "TensorMeta":
        if len(raw) < _META_FIXED.size:
            raise ValueError("metadata shorter than fixed header")
        code, ndims, addr, rkey = _META_FIXED.unpack(raw[:_META_FIXED.size])
        need = cls.encoded_size(ndims)
        if len(raw) < need:
            raise ValueError("metadata truncated")
        dims = struct.unpack(
            f"<{ndims}I", raw[_META_FIXED.size:need]) if ndims else ()
        return cls(dtype=DType.from_code(code), dims=tuple(dims),
                   remote_addr=addr, remote_rkey=rkey)
