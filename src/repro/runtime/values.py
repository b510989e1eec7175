"""Runtime value representation.

Arrays are flat column-major buffers with resolved integer extents —
exactly Fortran's storage model — so passing ``a(10,20)`` to a formal
declared ``x(200)`` (or ``x(10,*)``) works by sequence association, the
behaviour the interprocedural ``Reshape`` analysis reasons about.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

#: buffer serials: unlike ``id(data)``, never reused within a process,
#: so a freed buffer's successor is never mistaken for it
_serials = itertools.count()


class RuntimeError_(Exception):
    """Raised on dynamic errors (bad subscript, unset input, step 0)."""


class ArrayStorage:
    """A flat column-major array with 1-based subscripts per dimension.

    ``extents[k] is None`` marks an assumed-size final dimension (the
    view bounds-checks only the leading dimensions).  Views share the
    underlying buffer — whole-array argument passing aliases storage.
    ``serial`` identifies that buffer: views share it, and no other
    buffer ever gets it (a subroutine's local array and the next call's
    local array are different buffers even when CPython hands the second
    dict the first one's address).
    """

    __slots__ = ("name", "extents", "data", "typ", "serial")

    def __init__(
        self,
        name: str,
        extents: Sequence[Optional[int]],
        typ: str = "real",
        data: Optional[Dict[int, float]] = None,
        serial: Optional[int] = None,
    ) -> None:
        self.name = name
        self.extents: Tuple[Optional[int], ...] = tuple(extents)
        self.typ = typ
        # sparse flat storage: unset elements read as 0 (deterministic)
        self.data: Dict[int, float] = data if data is not None else {}
        self.serial = next(_serials) if serial is None else serial

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

    def load(self, subscripts: Sequence[int]) -> float:
        return self.data.get(self.offset(subscripts), 0.0)

    def store(self, subscripts: Sequence[int], value: float) -> int:
        off = self.offset(subscripts)
        self.data[off] = value
        return off

    def view(self, name: str, extents: Sequence[Optional[int]]) -> "ArrayStorage":
        """A reshaped alias sharing this buffer (sequence association)."""
        return ArrayStorage(name, extents, self.typ, self.data, self.serial)

    def snapshot(self) -> Dict[int, float]:
        return dict(self.data)

    def total_declared(self) -> Optional[int]:
        total = 1
        for e in self.extents:
            if e is None:
                return None
            total *= e
        return total

    def __repr__(self) -> str:
        return f"ArrayStorage({self.name}, extents={self.extents}, nnz={len(self.data)})"
