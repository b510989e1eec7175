"""Runtime value representation.

Arrays are flat column-major buffers with resolved integer extents —
exactly Fortran's storage model — so passing ``a(10,20)`` to a formal
declared ``x(200)`` (or ``x(10,*)``) works by sequence association, the
behaviour the interprocedural ``Reshape`` analysis reasons about.

Storage is dense.  An array is a float64 ``array('d')`` buffer,
zero-filled to its declared size, and a ``bytearray`` mask with one
byte per element, set once the element is written.  Every view of the
array (sequence association) shares both, and the buffer's serial.  So:

* an unset element reads 0.0 (deterministic);
* a snapshot lists the written offsets only, as Python floats;
* a view may reach past its actual's end, through an assumed-size
  formal or through a formal declared larger than its actual.  A write
  there grows the shared buffer and mask, zero-filled, to cover it (so
  every view sees it); a read there reads 0.0 and grows nothing.

Memory is proportional to the declared size (and to the furthest write),
as it is in Fortran.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Dict, Optional, Sequence, Tuple

#: buffer serials: unlike ``id(buf)``, never reused within a process,
#: so a freed buffer's successor is never mistaken for it
_serials = itertools.count()


class RuntimeError_(Exception):
    """Raised on dynamic errors (bad subscript, unset input, step 0)."""


class ArrayStorage:
    """A flat column-major array with 1-based subscripts per dimension.

    ``extents[k] is None`` marks an assumed-size final dimension (the
    view bounds-checks only the leading dimensions).  ``buf`` holds the
    elements and ``mask`` marks the written ones; views share both, so
    whole-array argument passing aliases storage.  ``serial`` identifies
    the buffer: views share it, and no other buffer ever gets it (a
    subroutine's local array and the next call's local array are
    different buffers even when CPython hands the second one the first
    one's address).
    """

    __slots__ = ("name", "extents", "typ", "buf", "mask", "serial")

    def __init__(
        self,
        name: str,
        extents: Sequence[Optional[int]],
        typ: str = "real",
        shared: Optional[Tuple[array, bytearray, int]] = None,
    ) -> None:
        self.name = name
        self.extents: Tuple[Optional[int], ...] = tuple(extents)
        self.typ = typ
        if shared is None:
            size = 1  # the declared size; 0 when assumed-size
            for e in self.extents:
                size *= max(e or 0, 0)
            self.buf = array("d", bytes(8 * size))
            self.mask = bytearray(size)
            self.serial = next(_serials)
        else:
            self.buf, self.mask, self.serial = shared

    # ------------------------------------------------------------------
    def offset(self, subscripts: Sequence[int]) -> int:
        """Column-major zero-based flat offset of 1-based subscripts."""
        if len(subscripts) != len(self.extents):
            raise RuntimeError_(
                f"array {self.name}: {len(subscripts)} subscripts for "
                f"rank {len(self.extents)}"
            )
        off = 0
        stride = 1
        for k, (s, ext) in enumerate(zip(subscripts, self.extents)):
            if ext is not None and not (1 <= s <= ext):
                raise RuntimeError_(
                    f"array {self.name}: subscript {s} out of bounds "
                    f"1..{ext} in dimension {k + 1}"
                )
            if ext is None and s < 1:
                raise RuntimeError_(
                    f"array {self.name}: subscript {s} < 1 in assumed "
                    f"dimension {k + 1}"
                )
            off += (s - 1) * stride
            if ext is not None:
                stride *= ext
        return off

    def get(self, off: int) -> float:
        """The element at flat offset *off* (0.0 past the buffer)."""
        buf = self.buf
        return buf[off] if off < len(buf) else 0.0

    def put(self, off: int, value: float) -> None:
        """Write the element at flat offset *off*, first growing the
        shared buffer and mask (zero-filled) out to it."""
        extra = off + 1 - len(self.buf)
        if extra > 0:
            self.buf.frombytes(bytes(8 * extra))
            self.mask.extend(bytes(extra))
        self.buf[off] = value
        self.mask[off] = 1

    def load(self, subscripts: Sequence[int]) -> float:
        return self.get(self.offset(subscripts))

    def store(self, subscripts: Sequence[int], value: float) -> int:
        off = self.offset(subscripts)
        self.put(off, value)
        return off

    def view(self, name: str, extents: Sequence[Optional[int]]) -> "ArrayStorage":
        """A reshaped alias sharing this buffer (sequence association)."""
        return ArrayStorage(
            name, extents, self.typ, (self.buf, self.mask, self.serial)
        )

    def snapshot(self) -> Dict[int, float]:
        """``offset -> value`` of the written elements, in offset order."""
        mask = self.mask
        return dict(
            zip(
                itertools.compress(itertools.count(), mask),
                itertools.compress(self.buf, mask),
            )
        )

    def __repr__(self) -> str:
        written = len(self.mask) - self.mask.count(0)
        return (
            f"ArrayStorage({self.name}, extents={self.extents}, "
            f"written={written})"
        )
