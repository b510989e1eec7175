"""Compile-once bytecode runtime for the mini-Fortran interpreter.

Walking the AST on every execution re-examines every node —
``isinstance`` dispatch, operator string compares, per-access
``ArrayStorage.offset`` calls.  This module executes
:class:`~repro.runtime.interp.Interpreter` runs by lowering each
:class:`~repro.lang.astnodes.Subroutine` **once** into a compact
instruction form — a flat list of pre-bound closures with

* constant-folded operand slots,
* array slots resolved to per-frame registers (no per-access dict
  lookup of the storage object),
* inlined column-major offset/bounds computation for rank-1/rank-2
  references,
* pre-bound intrinsic and operator handlers (no string dispatch),
* loop trip counts computed once per dynamic loop instance,

and keeps the compiled units for the length of one run (a callee with
several call sites compiles once).  Nothing is cached across runs:
every caller runs a freshly parsed program, and a cross-run table would
only keep finished programs alive.

Arrays are dense (:mod:`repro.runtime.values`): a float64 buffer and a
written-element mask, shared by every view.  A scalar read indexes the
buffer (0.0 past its end); a scalar write sets the element and its mask
byte, growing both when it lands past the end of a shorter actual.

Where a ``DoLoop`` body is straight-line (array assignments only, no
scalar carry) with affine subscripts, the loop additionally compiles a
NumPy-vectorized program that executes the whole iteration space as
array operations (:class:`_VecLoop`).  Each of its array references
indexes a NumPy view of the buffer: a 1-D reference with a nonzero
step by one slice, any other by an int64 offset array.  A read gathers
with one such index; a write scatters with one assignment to the
buffer and one to the mask.  A rectangular perfect nest — a
loop whose whole body is such a loop, with bounds that read neither
loop variable nor any array — compiles into one program over its 2-D
iteration space (:class:`_Nest`).  The vectorized path is attempted
only when every safety precondition verifies at loop entry — integer
affine subscripts, in-bounds at the corners of the space and inside
the buffer, injective write offsets, no cross-name buffer aliasing,
step budget not exceeded — and otherwise falls back to the scalar
instruction loop, which reproduces the reference semantics (including
the exact error at the exact iteration, a read of 0.0 or a growing
write past the buffer).

Contract: every :class:`~repro.runtime.interp.ExecutionResult` —
outputs, step count, final scalars and array snapshots, loop events
including two-version outcomes — and every hook-observable event
sequence is identical to those of the test-only reference tree walker
(``tests/runtime/reference.py``).  ``tests/runtime/test_bytecode_fuzz.py``
and ``tests/integration/test_bytecode_identity.py`` pin this
differentially.

Hook dispatch is *compiled in only when requested*: the engine compiles
one unit variant per ``(access_hook?, loop_hook?)`` configuration, so
an uninstrumented run pays zero per-access hook branches.  A run with a
loop hook keeps the vector programs: when one runs, the loop hook gets
one ``block(token, lo, step, trips, accesses)`` call instead of the
per-iteration ``iter_start`` calls and the per-access hook calls.
*accesses* lists one iteration's accesses in scalar evaluation order
(for each statement its reads left to right, then its write) as
``(kind, storage, offsets)`` with one offset per iteration.  A nest
program makes one call for both levels: its offsets have one row per
outer iteration, and ``block``'s sixth argument (:class:`InnerLoop`)
describes the inner loop's instances.  A run with an access hook but no
loop hook stays scalar.

Known vectorization fallback conditions are documented in
``docs/PERF.md`` ("The bytecode runtime").
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import perf
from repro.lang.astnodes import (
    ASSUMED,
    ArrayRef,
    Assign,
    BinOp,
    Call,
    DoLoop,
    Expr,
    If,
    Intrinsic,
    Num,
    PrintStmt,
    ReadStmt,
    Return,
    Stmt,
    Subroutine,
    UnOp,
    VarRef,
    walk_exprs,
)
from repro.runtime.interp import (
    ExecutionResult,
    LoopEvent,
    _fmt,
    _ReturnSignal,
)
from repro.runtime.values import ArrayStorage, RuntimeError_

try:  # pragma: no cover - exercised implicitly everywhere
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: minimum trip count before the vectorized program is worth the
#: entry-time checks (tiny loops run the scalar instructions)
_VEC_MIN_TRIPS = 8

perf.declare("rt.compile_unit")
perf.declare("rt.vec_loop")
perf.declare("rt.vec_nest")
perf.declare("rt.vec_fallback")


class _State:
    """Mutable per-run execution state shared by all compiled closures."""

    __slots__ = (
        "program",
        "inputs",
        "input_pos",
        "plan",
        "access_hook",
        "loop_hook",
        "max_steps",
        "steps",
        "outputs",
        "loop_events",
        "cond_cache",
        "codes",
        "interp",
    )


class _FrameProxy:
    """Frame-shaped view handed to loop hooks (built lazily, hooked
    variants only).  ``scalars`` is the live scalar dict; ``arrays``
    materializes the name -> storage mapping on demand."""

    __slots__ = ("unit", "scalars", "_ar", "_code")

    def __init__(self, code: "_CompiledUnit", sc: dict, ar: list) -> None:
        self.unit = code.unit
        self.scalars = sc
        self._ar = ar
        self._code = code

    @property
    def arrays(self) -> Dict[str, ArrayStorage]:
        return {
            name: self._ar[slot]
            for slot, name, _typ, _dims in self._code.array_specs
        }


class _CompiledUnit:
    """One unit lowered to instruction form for one hook variant."""

    __slots__ = ("unit", "ops", "array_specs", "narrays", "aslot")

    def __init__(self, unit: Subroutine) -> None:
        self.unit = unit
        self.ops: List[Callable] = []
        #: (slot, name, typ, dim closures) in declaration order
        self.array_specs: List[Tuple[int, str, str, list]] = []
        self.narrays = 0
        self.aslot: Dict[str, int] = {}

    def make_frame_arrays(
        self, st: _State, sc: dict, passed: Optional[list] = None
    ) -> list:
        """Resolve declared extents and build the per-frame array slots
        (the compiled analogue of ``Interpreter._new_frame``)."""
        ar: list = [None] * self.narrays
        for slot, name, typ, dims in self.array_specs:
            extents = [
                None if d is None else int(d(st, sc, ar)) for d in dims
            ]
            actual = passed[slot] if passed is not None else None
            if actual is not None:
                ar[slot] = actual.view(name, extents)
            else:
                ar[slot] = ArrayStorage(name, extents, typ)
        return ar


class _Ctx:
    """Compile-time context for one (unit, hook variant)."""

    __slots__ = (
        "unit",
        "access_hooked",
        "loop_hooked",
        "aslot",
        "int_typed",
        "array_rank",
        "code",
    )

    def __init__(self, unit: Subroutine, variant: Tuple[bool, bool]) -> None:
        self.unit = unit
        self.access_hooked, self.loop_hooked = variant
        self.aslot: Dict[str, int] = {}
        self.array_rank: Dict[str, int] = {}
        self.code: Optional[_CompiledUnit] = None
        # the tree walker coerces on `decl.typ == "integer"` regardless
        # of arrayness, so an integer *array* decl still coerces a
        # same-named scalar assignment/read target
        self.int_typed = {
            name for name, d in unit.decls.items() if d.typ == "integer"
        }
        for name, decl in unit.decls.items():
            if decl.is_array:
                self.aslot[name] = len(self.aslot)
                self.array_rank[name] = decl.rank


def _tick(st: _State) -> None:
    st.steps += 1
    if st.steps > st.max_steps:
        raise RuntimeError_(f"step budget exceeded ({st.max_steps})")


# ----------------------------------------------------------------------
# expression compilation
# ----------------------------------------------------------------------
#: sentinel marking "not a compile-time constant"
_NOCONST = object()


def _const_fn(value):
    return lambda st, sc, ar: value


def _truthy(value) -> bool:
    return bool(value)


def _subscript_ops(ctx: _Ctx, ref: ArrayRef) -> List[Callable]:
    return [_compile_expr(s, ctx)[0] for s in ref.subscripts]


def _offset_fn(ctx: _Ctx, ref: ArrayRef) -> Callable:
    """Compile ``ref`` to a closure returning ``(storage, flat offset)``
    with the tree walker's exact evaluation order and error messages:
    subscripts first, then the storage lookup, then per-dimension
    bounds checks (inlined for ranks 1 and 2)."""
    name = ref.name
    subs = _subscript_ops(ctx, ref)
    slot = ctx.aslot.get(name)

    if slot is None:
        def missing(st, sc, ar, subs=subs, name=name):
            for s in subs:
                int(s(st, sc, ar))
            raise RuntimeError_(f"unknown array {name!r}")
        return missing

    rank = ctx.array_rank[name]
    if len(subs) != rank:
        nsubs = len(subs)

        def badrank(st, sc, ar, subs=subs, slot=slot, name=name):
            for s in subs:
                int(s(st, sc, ar))
            arr = ar[slot]
            if arr is None:
                raise RuntimeError_(f"unknown array {name!r}")
            raise RuntimeError_(
                f"array {arr.name}: {nsubs} subscripts for "
                f"rank {len(arr.extents)}"
            )
        return badrank

    if rank == 1:
        s0 = subs[0]

        def off1(st, sc, ar, s0=s0, slot=slot, name=name):
            i0 = int(s0(st, sc, ar))
            arr = ar[slot]
            if arr is None:
                raise RuntimeError_(f"unknown array {name!r}")
            e0 = arr.extents[0]
            if e0 is not None:
                if not 1 <= i0 <= e0:
                    raise RuntimeError_(
                        f"array {arr.name}: subscript {i0} out of bounds "
                        f"1..{e0} in dimension 1"
                    )
            elif i0 < 1:
                raise RuntimeError_(
                    f"array {arr.name}: subscript {i0} < 1 in assumed "
                    f"dimension 1"
                )
            return arr, i0 - 1
        return off1

    if rank == 2:
        s0, s1 = subs

        def off2(st, sc, ar, s0=s0, s1=s1, slot=slot, name=name):
            i0 = int(s0(st, sc, ar))
            i1 = int(s1(st, sc, ar))
            arr = ar[slot]
            if arr is None:
                raise RuntimeError_(f"unknown array {name!r}")
            e0, e1 = arr.extents
            if e0 is not None:
                if not 1 <= i0 <= e0:
                    raise RuntimeError_(
                        f"array {arr.name}: subscript {i0} out of bounds "
                        f"1..{e0} in dimension 1"
                    )
                stride = e0
            else:
                if i0 < 1:
                    raise RuntimeError_(
                        f"array {arr.name}: subscript {i0} < 1 in assumed "
                        f"dimension 1"
                    )
                stride = 1
            if e1 is not None:
                if not 1 <= i1 <= e1:
                    raise RuntimeError_(
                        f"array {arr.name}: subscript {i1} out of bounds "
                        f"1..{e1} in dimension 2"
                    )
            elif i1 < 1:
                raise RuntimeError_(
                    f"array {arr.name}: subscript {i1} < 1 in assumed "
                    f"dimension 2"
                )
            return arr, (i0 - 1) + (i1 - 1) * stride
        return off2

    def offn(st, sc, ar, subs=subs, slot=slot, name=name):
        vals = [int(s(st, sc, ar)) for s in subs]
        arr = ar[slot]
        if arr is None:
            raise RuntimeError_(f"unknown array {name!r}")
        return arr, arr.offset(vals)
    return offn


def _compile_intrinsic(expr: Intrinsic, ctx: _Ctx):
    fns = [_compile_expr(a, ctx) for a in expr.args]
    arg_fns = [f for f, _c in fns]
    consts = [c for _f, c in fns]
    name = expr.name

    if name == "mod":
        if len(arg_fns) == 2:
            f0, f1 = arg_fns

            def mod(st, sc, ar):
                a = f0(st, sc, ar)
                b = f1(st, sc, ar)
                if b == 0:
                    raise RuntimeError_("mod with zero divisor")
                if isinstance(a, int) and isinstance(b, int):
                    return int(math.fmod(a, b))
                return math.fmod(a, b)
            fn = mod
        else:  # arity error surfaces at evaluation, as in the walker
            def mod_bad(st, sc, ar):
                args = [f(st, sc, ar) for f in arg_fns]
                a, b = args
                raise RuntimeError_("mod with zero divisor")
            fn = mod_bad
    elif name == "min":
        if len(arg_fns) == 2:
            f0, f1 = arg_fns
            fn = lambda st, sc, ar: min(f0(st, sc, ar), f1(st, sc, ar))
        else:
            fn = lambda st, sc, ar: min([f(st, sc, ar) for f in arg_fns])
    elif name == "max":
        if len(arg_fns) == 2:
            f0, f1 = arg_fns
            fn = lambda st, sc, ar: max(f0(st, sc, ar), f1(st, sc, ar))
        else:
            fn = lambda st, sc, ar: max([f(st, sc, ar) for f in arg_fns])
    elif name == "abs":
        def fn(st, sc, ar):
            args = [f(st, sc, ar) for f in arg_fns]
            return abs(args[0])
    else:
        def fn(st, sc, ar):
            for f in arg_fns:
                f(st, sc, ar)
            raise RuntimeError_(f"unknown intrinsic {name!r}")
        return fn, _NOCONST

    if all(c is not _NOCONST for c in consts):
        try:
            folded = fn(None, None, None)
        except Exception:  # fold only total expressions; errors stay runtime
            return fn, _NOCONST
        return _const_fn(folded), folded
    return fn, _NOCONST


def _compile_binop(expr: BinOp, ctx: _Ctx):
    op = expr.op
    lf, lc = _compile_expr(expr.left, ctx)
    rf, rc = _compile_expr(expr.right, ctx)

    if op == "and":
        fn = lambda st, sc, ar: (
            1 if _truthy(lf(st, sc, ar)) and _truthy(rf(st, sc, ar)) else 0
        )
    elif op == "or":
        fn = lambda st, sc, ar: (
            1 if _truthy(lf(st, sc, ar)) or _truthy(rf(st, sc, ar)) else 0
        )
    elif op == "+":
        fn = lambda st, sc, ar: lf(st, sc, ar) + rf(st, sc, ar)
    elif op == "-":
        fn = lambda st, sc, ar: lf(st, sc, ar) - rf(st, sc, ar)
    elif op == "*":
        fn = lambda st, sc, ar: lf(st, sc, ar) * rf(st, sc, ar)
    elif op == "/":
        def fn(st, sc, ar):
            a = lf(st, sc, ar)
            b = rf(st, sc, ar)
            if b == 0:
                raise RuntimeError_("division by zero")
            if isinstance(a, int) and isinstance(b, int):
                return int(a / b)  # Fortran truncation toward zero
            return a / b
    elif op == "**":
        fn = lambda st, sc, ar: lf(st, sc, ar) ** rf(st, sc, ar)
    elif op == "<":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) < rf(st, sc, ar) else 0
    elif op == "<=":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) <= rf(st, sc, ar) else 0
    elif op == ">":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) > rf(st, sc, ar) else 0
    elif op == ">=":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) >= rf(st, sc, ar) else 0
    elif op == "==":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) == rf(st, sc, ar) else 0
    elif op == "!=":
        fn = lambda st, sc, ar: 1 if lf(st, sc, ar) != rf(st, sc, ar) else 0
    else:
        def fn(st, sc, ar):
            lf(st, sc, ar)
            rf(st, sc, ar)
            raise RuntimeError_(f"unknown operator {op!r}")
        return fn, _NOCONST

    if lc is not _NOCONST and rc is not _NOCONST:
        try:
            folded = fn(None, None, None)
        except Exception:  # fold only total expressions; errors stay runtime
            return fn, _NOCONST
        return _const_fn(folded), folded
    return fn, _NOCONST


def _compile_expr(expr: Expr, ctx: _Ctx):
    """Compile to ``(closure, const)`` — *const* is the folded value
    when the whole subtree is a compile-time constant, else _NOCONST."""
    if isinstance(expr, Num):
        v = expr.value
        return _const_fn(v), v
    if isinstance(expr, VarRef):
        name = expr.name
        return (lambda st, sc, ar: sc.get(name, 0)), _NOCONST
    if isinstance(expr, ArrayRef):
        off = _offset_fn(ctx, expr)
        if ctx.access_hooked:
            def readh(st, sc, ar, off=off):
                arr, o = off(st, sc, ar)
                st.access_hook("r", arr, o)
                try:
                    return arr.buf[o]
                except IndexError:  # past a shorter actual's end
                    return 0.0
            return readh, _NOCONST

        def read(st, sc, ar, off=off):
            arr, o = off(st, sc, ar)
            try:
                return arr.buf[o]
            except IndexError:  # past a shorter actual's end
                return 0.0
        return read, _NOCONST
    if isinstance(expr, UnOp):
        f, c = _compile_expr(expr.operand, ctx)
        if expr.op == "-":
            if c is not _NOCONST:
                return _const_fn(-c), -c
            return (lambda st, sc, ar: -f(st, sc, ar)), _NOCONST
        if c is not _NOCONST:
            v = 0 if _truthy(c) else 1
            return _const_fn(v), v
        return (lambda st, sc, ar: 0 if _truthy(f(st, sc, ar)) else 1), _NOCONST
    if isinstance(expr, Intrinsic):
        return _compile_intrinsic(expr, ctx)
    if isinstance(expr, BinOp):
        return _compile_binop(expr, ctx)

    def bad(st, sc, ar):
        raise RuntimeError_(f"cannot evaluate {expr!r}")
    return bad, _NOCONST


# ----------------------------------------------------------------------
# statement compilation
# ----------------------------------------------------------------------
def _compile_body(body: List[Stmt], ctx: _Ctx) -> List[Callable]:
    return [_compile_stmt(s, ctx) for s in body]


def _compile_stmt(stmt: Stmt, ctx: _Ctx) -> Callable:
    if isinstance(stmt, Assign):
        return _compile_assign(stmt, ctx)
    if isinstance(stmt, DoLoop):
        return _compile_do(stmt, ctx)
    if isinstance(stmt, If):
        return _compile_if(stmt, ctx)
    if isinstance(stmt, Call):
        return _compile_call(stmt, ctx)
    if isinstance(stmt, ReadStmt):
        return _compile_read(stmt, ctx)
    if isinstance(stmt, PrintStmt):
        return _compile_print(stmt, ctx)
    if isinstance(stmt, Return):
        def ret(st, sc, ar):
            _tick(st)
            raise _ReturnSignal()
        return ret

    def bad(st, sc, ar):
        _tick(st)
        raise RuntimeError_(f"cannot execute {stmt!r}")
    return bad


def _compile_assign(stmt: Assign, ctx: _Ctx) -> Callable:
    rhs, _c = _compile_expr(stmt.value, ctx)
    if isinstance(stmt.target, VarRef):
        name = stmt.target.name
        if name in ctx.int_typed:
            def assign_i(st, sc, ar):
                _tick(st)
                sc[name] = int(rhs(st, sc, ar))
            return assign_i

        def assign_s(st, sc, ar):
            _tick(st)
            sc[name] = rhs(st, sc, ar)
        return assign_s

    off = _offset_fn(ctx, stmt.target)
    if ctx.access_hooked:
        def assign_ah(st, sc, ar):
            _tick(st)
            v = rhs(st, sc, ar)
            arr, o = off(st, sc, ar)
            v = float(v)
            try:
                arr.buf[o] = v
                arr.mask[o] = 1
            except IndexError:  # past a shorter actual's end: grow it
                arr.put(o, v)
            st.access_hook("w", arr, o)
        return assign_ah

    def assign_a(st, sc, ar):
        _tick(st)
        v = rhs(st, sc, ar)
        arr, o = off(st, sc, ar)
        v = float(v)
        try:
            arr.buf[o] = v
            arr.mask[o] = 1
        except IndexError:  # past a shorter actual's end: grow it
            arr.put(o, v)
    return assign_a


def _compile_if(stmt: If, ctx: _Ctx) -> Callable:
    cond, _c = _compile_expr(stmt.cond, ctx)
    then_ops = _compile_body(stmt.then_body, ctx)
    else_ops = _compile_body(stmt.else_body, ctx)

    def run_if(st, sc, ar):
        _tick(st)
        if cond(st, sc, ar):
            for op in then_ops:
                op(st, sc, ar)
        else:
            for op in else_ops:
                op(st, sc, ar)
    return run_if


def _compile_read(stmt: ReadStmt, ctx: _Ctx) -> Callable:
    items = [(name, name in ctx.int_typed) for name in stmt.names]

    def run_read(st, sc, ar):
        _tick(st)
        for name, coerce in items:
            if st.input_pos >= len(st.inputs):
                raise RuntimeError_(
                    f"read {name}: input exhausted at position "
                    f"{st.input_pos}"
                )
            value = st.inputs[st.input_pos]
            st.input_pos += 1
            sc[name] = int(value) if coerce else value
    return run_read


def _compile_print(stmt: PrintStmt, ctx: _Ctx) -> Callable:
    parts = []
    for a in stmt.args:
        if hasattr(a, "text"):
            parts.append((True, a.text))
        else:
            parts.append((False, _compile_expr(a, ctx)[0]))

    def run_print(st, sc, ar):
        _tick(st)
        out = []
        for is_text, p in parts:
            out.append(p if is_text else _fmt(p(st, sc, ar)))
        st.outputs.append(" ".join(out))
    return run_print


def _compile_call(stmt: Call, ctx: _Ctx) -> Callable:
    """Calls resolve their callee's compiled code on first execution
    (matching the tree walker, which only faults a missing unit when the
    call statement actually runs)."""
    cell: List[Optional[Callable]] = [None]

    def run_call(st, sc, ar):
        _tick(st)
        impl = cell[0]
        if impl is None:
            impl = cell[0] = _build_call(stmt, ctx, st)
        impl(st, sc, ar)
    return run_call


def _build_call(stmt: Call, ctx: _Ctx, st: _State) -> Callable:
    callee = st.program.units[stmt.name]
    code = _unit_code(st, callee)
    binders: List[Callable] = []
    for formal, actual in zip(callee.params, stmt.args):
        formal_decl = callee.decls.get(formal)
        formal_is_array = formal_decl is not None and formal_decl.is_array
        if formal_is_array:
            callee_slot = code.aslot[formal]
            caller_slot = (
                ctx.aslot.get(actual.name)
                if isinstance(actual, VarRef)
                else None
            )
            if caller_slot is None:
                def bad_binder(
                    st, sc, ar, sc2, passed, name=stmt.name, formal=formal
                ):
                    raise RuntimeError_(
                        f"call {name}: formal array {formal!r} needs a "
                        f"whole-array actual"
                    )
                binders.append(bad_binder)
            else:
                def arr_binder(
                    st, sc, ar, sc2, passed, cs=caller_slot, ks=callee_slot
                ):
                    passed[ks] = ar[cs]
                binders.append(arr_binder)
        else:
            argfn, _c = _compile_expr(actual, ctx)

            def sc_binder(st, sc, ar, sc2, passed, formal=formal, fn=argfn):
                sc2[formal] = fn(st, sc, ar)
            binders.append(sc_binder)

    def impl(st, sc, ar):
        sc2: dict = {}
        passed: list = [None] * code.narrays
        for b in binders:
            b(st, sc, ar, sc2, passed)
        ar2 = code.make_frame_arrays(st, sc2, passed)
        try:
            for op in code.ops:
                op(st, sc2, ar2)
        except _ReturnSignal:
            pass
    return impl


# ----------------------------------------------------------------------
# DO loops (scalar instruction loop + optional vectorized program)
# ----------------------------------------------------------------------
def _trip_count(lo: int, hi: int, step: int) -> int:
    if step > 0:
        return (hi - lo) // step + 1 if lo <= hi else 0
    return (lo - hi) // (-step) + 1 if lo >= hi else 0


def _runtime_test(st: _State, ctx: _Ctx, stmt: DoLoop, lp) -> Tuple[Callable, bool]:
    """A two-version loop's compiled run-time test and whether it reads
    an array; compiled once per run."""
    entry = st.cond_cache.get(stmt.nid)
    if entry is None:
        from repro.codegen.twoversion import predicate_to_expr

        cond = predicate_to_expr(lp.runtime_pred)
        entry = st.cond_cache[stmt.nid] = (
            _compile_expr(cond, ctx)[0],
            any(isinstance(e, ArrayRef) for e in walk_exprs(cond)),
        )
    return entry


def _compile_do(stmt: DoLoop, ctx: _Ctx) -> Callable:
    lo_c, _ = _compile_expr(stmt.lo, ctx)
    hi_c, _ = _compile_expr(stmt.hi, ctx)
    step_c = _compile_expr(stmt.step, ctx)[0] if stmt.step is not None else None
    body_ops = _compile_body(stmt.body, ctx)
    var = stmt.var
    label = stmt.label
    nid = stmt.nid
    hooked = ctx.loop_hooked
    # the vector program is compiled when the loop first reaches
    # _VEC_MIN_TRIPS; False marks a body that does not vectorize
    vec_cell: list = [None]
    nest = None
    if _np is None or (ctx.access_hooked and not hooked):
        vec_cell[0] = False
    else:
        nest = _Nest.of(stmt, ctx)
        if nest is not None:
            vec_cell[0] = False  # a loop body is never straight-line

    def run_do(st, sc, ar):
        _tick(st)
        lo = int(lo_c(st, sc, ar))
        hi = int(hi_c(st, sc, ar))
        step = int(step_c(st, sc, ar)) if step_c is not None else 1
        if step == 0:
            raise RuntimeError_(f"loop {label}: zero step")

        ran_parallel: Optional[bool] = None
        plan = st.plan
        if plan is not None:
            lp = plan.plan_for(stmt)
            if lp is not None and lp.mode == "two_version":
                ran_parallel = _truthy(_runtime_test(st, ctx, stmt, lp)[0](st, sc, ar))
            elif lp is not None and lp.mode == "parallel":
                ran_parallel = True

        trips = _trip_count(lo, hi, step)

        token = proxy = None
        if hooked and st.loop_hook is not None:
            st.interp.steps = st.steps
            proxy = _FrameProxy(ctx.code, sc, ar)
            token = st.loop_hook.enter_loop(stmt, proxy, ran_parallel)

        if trips:
            hook = st.loop_hook if hooked else None
            vec = vec_cell[0]
            if vec is None and trips >= _VEC_MIN_TRIPS:
                vec = vec_cell[0] = _try_vectorize(stmt, ctx) or False
            if nest is not None and nest.run(
                st, sc, ar, lo, step, trips, hook, token, proxy
            ):
                pass  # the nest set both loop variables and inner events
            elif (
                vec
                and trips >= _VEC_MIN_TRIPS
                and vec.execute(st, sc, ar, ((lo, step, trips),), hook, token)
            ):
                sc[var] = lo + trips * step
                perf.bump("rt.vec_loop")
            else:
                i = lo
                if hook is not None:
                    for _ in range(trips):
                        sc[var] = i
                        hook.iter_start(token, i)
                        for op in body_ops:
                            op(st, sc, ar)
                        i += step
                else:
                    for _ in range(trips):
                        sc[var] = i
                        for op in body_ops:
                            op(st, sc, ar)
                        i += step
                sc[var] = i
        else:
            sc[var] = lo

        if hooked and st.loop_hook is not None:
            st.interp.steps = st.steps
            st.loop_hook.exit_loop(token)
        st.loop_events.append(LoopEvent(label, nid, trips, ran_parallel))
    return run_do


#: a scalar slot that held no value before a nest program bound it
_UNSET = object()


class InnerLoop(NamedTuple):
    """The inner loop of a nest block, as ``block(..., inner)`` hands it
    to a loop hook: the statement, and the frame and plan outcomes
    (``ran_parallel``, one per outer iteration) its per-instance
    ``enter_loop`` calls would have received; the bounds of every
    instance; and ``work``, the steps one instance's body takes (what a
    hook measures between its ``enter_loop`` and ``exit_loop``)."""

    stmt: DoLoop
    frame: "_FrameProxy"
    lo: int
    step: int
    trips: int
    ran_parallel: List[Optional[bool]]
    work: int


class _Nest:
    """A DO loop whose whole body is one inner DO loop with bounds and
    step that read neither loop variable nor any array: a rectangular
    perfect nest, which runs as one vector program over its 2-D
    iteration space when the inner body vectorizes."""

    __slots__ = ("ctx", "outer", "inner", "bounds", "prog")

    def __init__(self, ctx: _Ctx, outer: DoLoop, inner: DoLoop) -> None:
        self.ctx = ctx
        self.outer = outer
        self.inner = inner
        self.bounds = [
            None if e is None else _compile_expr(e, ctx)[0]
            for e in (inner.lo, inner.hi, inner.step)
        ]
        #: compiled when the nest first reaches _VEC_MIN_TRIPS points;
        #: False marks an inner body that does not vectorize
        self.prog = None

    @staticmethod
    def of(stmt: DoLoop, ctx: _Ctx) -> Optional["_Nest"]:
        if len(stmt.body) != 1 or not isinstance(stmt.body[0], DoLoop):
            return None
        inner = stmt.body[0]
        names = (stmt.var, inner.var)
        if inner.var == stmt.var:
            return None
        for e in (inner.lo, inner.hi, inner.step):
            if e is not None and any(_expr_uses(e, names)):
                return None  # not rectangular, or bounds read memory
        return _Nest(ctx, stmt, inner)

    def run(self, st, sc, ar, lo, step, trips, hook, token, frame) -> bool:
        """Run the nest as one vector program, with the effects of the
        scalar nest: steps, both loop variables, the inner instances'
        loop events and one hook ``block``.  False = run it scalar (the
        outer loop iterates, the inner loop vectorizes per iteration
        where it can), which reproduces any error in order."""
        if self.prog is False:
            return False
        lo_f, hi_f, step_f = self.bounds
        try:
            ilo = int(lo_f(st, sc, ar))
            ihi = int(hi_f(st, sc, ar))
            istep = int(step_f(st, sc, ar)) if step_f is not None else 1
        except Exception:
            return False
        if istep == 0:
            return False
        itrips = _trip_count(ilo, ihi, istep)
        if trips * itrips < _VEC_MIN_TRIPS:
            return False
        prog = self.prog
        if prog is None:
            prog = self.prog = _try_vectorize(self.inner, self.ctx, self.outer) or False
        if not prog:
            return False
        inner = self.inner
        ivar = inner.var
        ifinal = ilo + itrips * istep
        saved = sc.get(ivar, _UNSET)
        outcomes = self._outcomes(st, sc, ar, lo, step, trips, ifinal)
        info = None
        if outcomes is not None and hook is not None:
            info = InnerLoop(
                inner, frame, ilo, istep, itrips, outcomes, itrips * len(inner.body)
            )
        if outcomes is None or not prog.execute(
            st, sc, ar, ((lo, step, trips), (ilo, istep, itrips)), hook, token, info
        ):
            if outcomes is None:
                perf.bump("rt.vec_fallback")
            if saved is _UNSET:
                sc.pop(ivar, None)
            else:
                sc[ivar] = saved
            return False
        sc[self.outer.var] = lo + trips * step
        sc[ivar] = ifinal
        label, nid = inner.label, inner.nid
        st.loop_events.extend(LoopEvent(label, nid, itrips, rp) for rp in outcomes)
        perf.bump("rt.vec_nest")
        perf.bump("rt.vec_loop", trips)
        return True

    def _outcomes(self, st, sc, ar, lo, step, trips, ifinal) -> Optional[list]:
        """Each inner instance's ``ran_parallel``, as its own loop entry
        computes it: a two-version test runs once per outer iteration,
        with both loop variables as the scalar nest leaves them.  None
        when the test reads an array or raises."""
        plan = st.plan
        lp = plan.plan_for(self.inner) if plan is not None else None
        if lp is None or lp.mode not in ("parallel", "two_version"):
            return [None] * trips
        if lp.mode == "parallel":
            return [True] * trips
        test, reads_array = _runtime_test(st, self.ctx, self.inner, lp)
        if reads_array:
            return None
        ovar, ivar = self.outer.var, self.inner.var
        out = []
        try:
            for k in range(trips):
                sc[ovar] = lo + k * step
                if k == 1:
                    sc[ivar] = ifinal  # the first inner instance has run
                out.append(_truthy(test(st, sc, ar)))
        except Exception:
            return None
        return out


# ----------------------------------------------------------------------
# vectorized loop programs
# ----------------------------------------------------------------------
class _VecSite:
    """One distinct (array, subscript tuple) reference in a vector loop."""

    __slots__ = ("name", "slot", "dims", "arr", "idx", "offv", "vals")

    def __init__(self, name: str, slot: int, dims: list) -> None:
        self.name = name
        self.slot = slot
        #: per dimension: (coefficient fn per loop level, base fn)
        self.dims = dims
        # resolved per execution: the storage; its elements in scalar
        # order as an index into the buffer (a slice, or int64 offsets);
        # the int64 offsets handed to a loop hook, shaped like the
        # iteration space; and the buffer as a NumPy array
        self.arr: Optional[ArrayStorage] = None
        self.idx = None
        self.offv = None
        self.vals = None


class _VecRt:
    """Per-execution runtime environment for vector value programs."""

    __slots__ = ("ivs", "inv", "sites")

    def gather(self, idx: int):
        site = self.sites[idx]
        return site.vals[site.idx]


def grid_injective(ds: list, shape: tuple) -> bool:
    """Whether ``sum(d * t)`` over the grid ``0 <= t < shape`` (one or
    two levels, *ds* the offset steps) never repeats a value."""
    if len(ds) == 1:
        return ds[0] != 0
    (d_o, d_i), (n_o, n_i) = ds, shape
    if not d_o or not d_i:
        return (d_o != 0 or n_o == 1) and (d_i != 0 or n_i == 1)
    # d_o * a == -d_i * b has its smallest solution at
    # (a, b) = (d_i / g, -d_o / g)
    g = math.gcd(d_o, d_i)
    return abs(d_i // g) >= n_o or abs(d_o // g) >= n_i


def _place(site: _VecSite, st, sc, ar, space, hooked: bool, written: bool) -> bool:
    """Resolve *site*'s flat offsets over the iteration *space*.  False
    when a subscript is not integral or leaves the bounds at a corner
    of the space (affine subscripts take their extremes there), a
    written site would repeat an element, or the site reaches past the
    buffer (the scalar loop reads 0.0 there, or grows the buffer)."""
    extents = site.arr.extents
    if len(extents) != len(site.dims):
        return False
    base = top = 0  # the first point's flat offset, and the largest
    slopes = [0] * len(space)
    stride = 1
    for ext, (cfns, bfn) in zip(extents, site.dims):
        s = bfn(st, sc, ar)
        if type(s) is not int:
            return False
        down = up = 0  # the subscript's reach from the first point
        for k, cfn in enumerate(cfns):
            c = cfn(st, sc, ar)
            if type(c) is not int:
                return False
            lo, step, trips = space[k]
            s += c * lo
            reach = c * step * (trips - 1)
            if reach < 0:
                down += reach
            else:
                up += reach
            slopes[k] += c * stride
        if s + down < 1 or (ext is not None and s + up > ext):
            return False
        base += (s - 1) * stride
        top += (s + up - 1) * stride
        if ext is not None:
            stride *= ext
    if top >= len(site.arr.buf):
        return False
    ds = [c * step for c, (_lo, step, _t) in zip(slopes, space)]
    shape = tuple(t for _lo, _step, t in space)
    if written and not grid_injective(ds, shape):
        return False
    if len(space) == 1:
        d, trips = ds[0], shape[0]
        if not d:
            site.idx = site.offv = _np.full(trips, base, _np.int64)
            return True
        stop = base + d * trips  # below 0 for a step down to element 0
        site.idx = slice(base, stop if stop >= 0 else None, d)
        if hooked:
            site.offv = _np.arange(base, stop, d, dtype=_np.int64)
        return True
    grid = _np.arange(shape[0], dtype=_np.int64) * ds[0] + base
    for d, trips in zip(ds[1:], shape[1:]):
        grid = _np.add.outer(grid, _np.arange(trips, dtype=_np.int64) * d)
    site.idx = grid.reshape(-1)
    if hooked:
        site.offv = grid
    return True


class _VecLoop:
    """A compiled whole-iteration-space program: one DO loop, or a
    rectangular nest of two (outer level first)."""

    __slots__ = (
        "sites", "stmts", "invariants", "mod_checks", "write_sites",
        "accesses", "uses_iv",
    )

    def __init__(
        self, sites, stmts, invariants, mod_checks, write_sites, accesses,
        uses_iv,
    ):
        self.sites = sites
        self.stmts = stmts  # [(target site index, value fn), ...]
        #: loop-invariant scalar subtrees, pre-evaluated at entry so the
        #: compute/scatter phase cannot raise after a partial write
        self.invariants = invariants
        self.mod_checks = mod_checks  # invariant-slot indices of divisors
        self.write_sites = write_sites  # set of written site objects
        #: one iteration's accesses in scalar order: [(kind, site index)]
        self.accesses = accesses
        self.uses_iv = uses_iv  # the loop levels whose variable a value reads

    # ------------------------------------------------------------------
    def execute(self, st, sc, ar, space, hook, token, inner=None) -> bool:
        """Run the whole iteration space, one ``(lo, step, trips)`` per
        level, and take its steps; False = fall back to the scalar
        instruction loop (which reproduces exact tree-walker behaviour,
        including any error at its exact iteration).  After a run, a
        loop *hook* gets the accesses as one ``block`` call (*inner*
        describes a nest's inner loop)."""
        nsteps = len(self.stmts)
        for _lo, _step, trips in reversed(space):
            nsteps = trips * nsteps + 1
        nsteps -= 1  # the outermost loop has taken its own step
        if st.steps + nsteps > st.max_steps:
            perf.bump("rt.vec_fallback")
            return False
        hooked = hook is not None
        try:
            for site in self.sites:
                arr = ar[site.slot]
                if arr is None:
                    perf.bump("rt.vec_fallback")
                    return False
                site.arr = arr
            inv_vals = [f(st, sc, ar) for f in self.invariants]
            for k in self.mod_checks:
                if inv_vals[k] == 0:
                    perf.bump("rt.vec_fallback")
                    return False
            written = self.write_sites
            for site in self.sites:
                if not _place(site, st, sc, ar, space, hooked, site in written):
                    perf.bump("rt.vec_fallback")
                    return False

            # cross-name buffer aliasing (formals viewing one actual)
            written_bufs = {site.arr.serial: site.name for site in written}
            for site in self.sites:
                wname = written_bufs.get(site.arr.serial)
                if wname is not None and wname != site.name:
                    perf.bump("rt.vec_fallback")
                    return False
        except Exception:
            # any entry-check failure (bad subscript type, invariant
            # raising, overflow) → scalar loop, which reproduces the
            # walker's exact behaviour at the exact iteration
            perf.bump("rt.vec_fallback")
            return False

        shape = tuple(t for _lo, _step, t in space)
        rt = _VecRt()
        rt.ivs = [None] * len(space)
        for k in self.uses_iv:
            lo, step, trips = space[k]
            iv = _np.arange(trips, dtype=_np.int64) * step + lo
            if len(space) > 1:
                axis = [1] * len(space)
                axis[k] = trips
                iv = _np.broadcast_to(iv.reshape(axis), shape).reshape(-1)
            rt.ivs[k] = iv
        rt.inv, rt.sites = inv_vals, self.sites
        for site in self.sites:
            site.vals = _np.frombuffer(site.arr.buf, _np.float64)
        for tgt_idx, value_fn in self.stmts:
            res = value_fn(rt)
            site = self.sites[tgt_idx]
            # one assignment each to the elements (cast to float64) and
            # to their mask bytes
            site.vals[site.idx] = res if isinstance(res, _np.ndarray) else float(res)
            _np.frombuffer(site.arr.mask, _np.uint8)[site.idx] = 1
        st.steps += nsteps
        if hooked:
            sites = self.sites
            lo, step, trips = space[0]
            hook.block(
                token, lo, step, trips,
                [(k, sites[i].arr, sites[i].offv) for k, i in self.accesses],
                inner,
            )
        # drop per-execution references: a NumPy view of a buffer would
        # keep a later scalar write from growing it
        for site in self.sites:
            site.arr = site.idx = site.offv = site.vals = None
        return True


def _expr_uses(e: Expr, loopvars) -> Tuple[bool, bool]:
    """(references one of *loopvars*, references any array)."""
    uses_var = uses_array = False
    for sub in walk_exprs(e):
        if isinstance(sub, VarRef) and sub.name in loopvars:
            uses_var = True
        elif isinstance(sub, ArrayRef):
            uses_array = True
    return uses_var, uses_array


def _kfn(v):
    return lambda st, sc, ar: v


_ZERO = _kfn(0)
_ONE = _kfn(1)


def _neg(f):
    return lambda st, sc, ar: -f(st, sc, ar)


def _add(f, g):
    return lambda st, sc, ar: f(st, sc, ar) + g(st, sc, ar)


def _sub(f, g):
    return lambda st, sc, ar: f(st, sc, ar) - g(st, sc, ar)


def _mul(f, g):
    return lambda st, sc, ar: f(st, sc, ar) * g(st, sc, ar)


def _skey(e: Expr):
    """A structural key of *e*: equal exactly when the subtrees are
    equal, and cheaper to hash and compare than the frozen nodes."""
    t = type(e)
    if t is VarRef:
        return e.name
    if t is Num:
        return e.value
    if t is BinOp:
        return (e.op, _skey(e.left), _skey(e.right))
    return e


def _subs_key(ref: ArrayRef) -> tuple:
    return tuple(_skey(s) for s in ref.subscripts)


def _affine(e: Expr, ctx: _Ctx, level: Dict[str, int]):
    """Decompose *e* as ``sum(c[k] * v[k]) + base`` over the loop
    variables *level* (name -> level) with loop-invariant closures;
    returns ``(coefficient fns, base fn, zero flags)``, one coefficient
    and one "structurally zero" flag per level, or ``None``.  Exactness
    requires integer values at runtime — verified at loop entry before
    the vector program commits."""
    nlev = len(level)
    if isinstance(e, Num):
        return (_ZERO,) * nlev, _kfn(e.value), (True,) * nlev
    if isinstance(e, VarRef):
        k = level.get(e.name)
        if k is not None:
            return (
                tuple(_ONE if j == k else _ZERO for j in range(nlev)),
                _ZERO,
                tuple(j != k for j in range(nlev)),
            )
        return (_ZERO,) * nlev, _compile_expr(e, ctx)[0], (True,) * nlev
    if isinstance(e, UnOp) and e.op == "-":
        sub = _affine(e.operand, ctx, level)
        if sub is None:
            return None
        cs, b, zs = sub
        return tuple(map(_neg, cs)), _neg(b), zs
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        left = _affine(e.left, ctx, level)
        right = _affine(e.right, ctx, level)
        if left is None or right is None:
            return None
        (lcs, lb, lzs), (rcs, rb, rzs) = left, right
        op = _add if e.op == "+" else _sub
        return (
            tuple(
                _ZERO if lz and rz else op(lc, rc)
                for lc, rc, lz, rz in zip(lcs, rcs, lzs, rzs)
            ),
            op(lb, rb),
            tuple(lz and rz for lz, rz in zip(lzs, rzs)),
        )
    if isinstance(e, BinOp) and e.op == "*":
        left = _affine(e.left, ctx, level)
        right = _affine(e.right, ctx, level)
        if left is not None and right is not None:
            if all(right[2]):
                (cs, b, zs), k = left, right[1]
            elif all(left[2]):
                (cs, b, zs), k = right, left[1]
            else:
                return None
            return (
                tuple(_ZERO if z else _mul(c, k) for c, z in zip(cs, zs)),
                _mul(b, k),
                zs,
            )
        return None
    uses_var, uses_array = _expr_uses(e, level)
    if not uses_var and not uses_array:
        return (_ZERO,) * nlev, _compile_expr(e, ctx)[0], (True,) * nlev
    return None


class _VecCompiler:
    """Builds the vector program for one straight-line loop body over
    the iteration space of *loopvars* (outermost first)."""

    def __init__(self, ctx: _Ctx, loopvars: tuple, write_subs: dict) -> None:
        self.ctx = ctx
        self.level = {v: k for k, v in enumerate(loopvars)}
        self.write_subs = write_subs  # name -> subscript key
        self.sites: List[_VecSite] = []
        self.site_keys: Dict[Tuple, int] = {}
        self.invariants: List[Callable] = []
        self.mod_checks: List[int] = []
        #: site indices of the array reads compiled so far, in the
        #: scalar engine's evaluation order (left to right)
        self.reads: List[int] = []
        self.uses_iv: set = set()

    def invariant_slot(self, e: Expr) -> int:
        k = len(self.invariants)
        self.invariants.append(_compile_expr(e, self.ctx)[0])
        return k

    def site_for(self, ref: ArrayRef) -> Optional[int]:
        key = (ref.name, _subs_key(ref))
        idx = self.site_keys.get(key)
        if idx is not None:
            return idx
        slot = self.ctx.aslot.get(ref.name)
        if slot is None or self.ctx.array_rank[ref.name] != len(ref.subscripts):
            return None
        dims = []
        for s in ref.subscripts:
            dec = _affine(s, self.ctx, self.level)
            if dec is None:
                return None
            dims.append((dec[0], dec[1]))
        idx = len(self.sites)
        self.sites.append(_VecSite(ref.name, slot, dims))
        self.site_keys[key] = idx
        return idx

    def value(self, e: Expr) -> Optional[Callable]:
        """Compile *e* to ``fn(rt) -> ndarray | scalar``."""
        uses_var, uses_array = _expr_uses(e, self.level)
        if not uses_var and not uses_array:
            # invariant scalar subtree (every scalar but the loop
            # variables): pre-evaluated once at loop entry (inside the
            # fallback guard, so a raising subtree — division by zero,
            # say — reverts to the scalar loop before anything has been
            # written)
            k = self.invariant_slot(e)
            return lambda rt: rt.inv[k]
        return self._value_node(e)

    def _value_node(self, e: Expr) -> Optional[Callable]:
        if isinstance(e, Num):
            v = e.value
            return lambda rt: v
        if isinstance(e, VarRef):  # a loop variable: value() took the rest
            k = self.level[e.name]
            self.uses_iv.add(k)
            return lambda rt: rt.ivs[k]
        if isinstance(e, ArrayRef):
            if e.name in self.write_subs and (
                _subs_key(e) != self.write_subs[e.name]
            ):
                return None  # read/write offsets may cross iterations
            idx = self.site_for(e)
            if idx is None:
                return None
            self.reads.append(idx)
            return lambda rt: rt.gather(idx)
        if isinstance(e, UnOp) and e.op == "-":
            f = self.value(e.operand)
            if f is None:
                return None
            return lambda rt: -f(rt)
        if isinstance(e, BinOp) and e.op in ("+", "-", "*"):
            lf = self.value(e.left)
            rf = self.value(e.right)
            if lf is None or rf is None:
                return None
            if e.op == "+":
                return lambda rt: lf(rt) + rf(rt)
            if e.op == "-":
                return lambda rt: lf(rt) - rf(rt)
            return lambda rt: lf(rt) * rf(rt)
        if isinstance(e, Intrinsic):
            return self._value_intrinsic(e)
        return None

    def _value_intrinsic(self, e: Intrinsic) -> Optional[Callable]:
        if e.name == "abs" and len(e.args) >= 1:
            fns = [self.value(a) for a in e.args]
            if any(f is None for f in fns):
                return None
            f0 = fns[0]

            def vabs(rt, fns=fns, f0=f0):
                vals = [f(rt) for f in fns]
                return abs(vals[0])
            return vabs
        if e.name in ("min", "max"):
            fns = [self.value(a) for a in e.args]
            if any(f is None for f in fns):
                return None
            pick_second = _np.less if e.name == "min" else _np.greater

            def vminmax(rt, fns=fns, pick=pick_second):
                acc = fns[0](rt)
                for f in fns[1:]:
                    v = f(rt)
                    if isinstance(acc, _np.ndarray) or isinstance(
                        v, _np.ndarray
                    ):
                        acc = _np.where(pick(v, acc), v, acc)
                    else:
                        acc = v if pick(v, acc) else acc
                return acc
            return vminmax
        if e.name == "mod" and len(e.args) == 2:
            dividend = self.value(e.args[0])
            if dividend is None:
                return None
            div_e = e.args[1]
            div_var, div_arr = _expr_uses(div_e, self.level)
            if div_var or div_arr:
                return None  # divisor must be a loop-invariant scalar
            k = self.invariant_slot(div_e)
            self.mod_checks.append(k)  # entry verifies it is nonzero

            def vmod(rt, dividend=dividend, k=k):
                a = dividend(rt)
                b = rt.inv[k]
                if isinstance(a, _np.ndarray):
                    return _np.fmod(a, b)
                if isinstance(a, int) and isinstance(b, int):
                    return int(math.fmod(a, b))
                return math.fmod(a, b)
            return vmod
        return None


def _try_vectorize(
    stmt: DoLoop, ctx: _Ctx, outer: Optional[DoLoop] = None
) -> Optional[_VecLoop]:
    """Compile the loop's whole-iteration-space program — over the 2-D
    space of *outer* and *stmt* when *stmt* is the whole body of
    *outer* — or ``None`` when the body is not a straight-line affine
    candidate."""
    if not stmt.body:
        return None
    assigns: List[Assign] = []
    for s in stmt.body:
        if not isinstance(s, Assign) or not isinstance(s.target, ArrayRef):
            return None  # control flow, calls, or scalar carry
        if outer is not None and not any(
            _expr_uses(sub, (outer.var,))[0] for sub in s.target.subscripts
        ):
            return None  # every outer iteration writes the same elements
        assigns.append(s)

    # all writes (and reads) of one array must share one subscript tuple
    write_subs: Dict[str, tuple] = {}
    for s in assigns:
        key = _subs_key(s.target)
        if write_subs.setdefault(s.target.name, key) != key:
            return None

    loopvars = (stmt.var,) if outer is None else (outer.var, stmt.var)
    comp = _VecCompiler(ctx, loopvars, write_subs)
    stmts = []
    write_sites = set()
    accesses: List[Tuple[str, int]] = []
    for s in assigns:
        tgt_idx = comp.site_for(s.target)
        if tgt_idx is None:
            return None
        value_fn = comp.value(s.value)
        if value_fn is None:
            return None
        stmts.append((tgt_idx, value_fn))
        write_sites.add(comp.sites[tgt_idx])
        accesses += [("r", i) for i in comp.reads]
        accesses.append(("w", tgt_idx))
        comp.reads.clear()
    return _VecLoop(
        comp.sites, stmts, comp.invariants, comp.mod_checks, write_sites,
        accesses, sorted(comp.uses_iv),
    )


# ----------------------------------------------------------------------
# unit compilation and the entry point
# ----------------------------------------------------------------------
def _compile_unit(unit: Subroutine, variant: Tuple[bool, bool]) -> _CompiledUnit:
    perf.bump("rt.compile_unit")
    ctx = _Ctx(unit, variant)
    code = _CompiledUnit(unit)
    ctx.code = code  # loop closures hand it to frame proxies
    code.aslot = ctx.aslot
    code.narrays = len(ctx.aslot)
    for name, decl in unit.decls.items():
        if not decl.is_array:
            continue
        dims = [
            None if d == ASSUMED else _compile_expr(d, ctx)[0]
            for d in decl.dims
        ]
        code.array_specs.append((ctx.aslot[name], name, decl.typ, dims))
    code.ops = _compile_body(unit.body, ctx)
    return code


def _unit_code(st: _State, unit: Subroutine) -> _CompiledUnit:
    """*unit*'s code for this run, compiled on first use."""
    code = st.codes.get(unit.name)
    if code is None:
        variant = (st.access_hook is not None, st.loop_hook is not None)
        code = st.codes[unit.name] = _compile_unit(unit, variant)
    return code


def execute(interp, snapshot: bool = True) -> ExecutionResult:
    """Run *interp*'s program on the bytecode engine.

    Reuses the Interpreter's configuration and result fields, so callers
    and hooks read ``interp.steps`` and ``interp.outputs`` as they run.
    A caller that reads only the steps and its hooks passes *snapshot*
    False: the result's ``main_arrays`` is then empty.
    """
    program = interp.program
    st = _State()
    st.program = program
    st.inputs = interp.inputs
    st.input_pos = interp._input_pos
    st.plan = interp.plan
    st.access_hook = interp.access_hook
    st.loop_hook = interp.loop_hook
    st.max_steps = interp.max_steps
    st.steps = interp.steps
    st.outputs = interp.outputs
    st.loop_events = interp.loop_events
    st.cond_cache = {}
    st.codes = {}
    st.interp = interp

    with perf.phase("rt.exec"):
        code = _unit_code(st, program.main_unit)
        sc: dict = {}
        ar = code.make_frame_arrays(st, sc)
        try:
            try:
                for op in code.ops:
                    op(st, sc, ar)
            except _ReturnSignal:
                pass
        finally:
            interp.steps = st.steps
            interp._input_pos = st.input_pos

    result = ExecutionResult(
        outputs=st.outputs,
        steps=st.steps,
        main_arrays={
            name: ar[slot].snapshot()
            for slot, name, _typ, _dims in code.array_specs
        } if snapshot else {},
        main_scalars=dict(sc),
        loop_events=st.loop_events,
    )
    # a unit's op closures hold its _Ctx, whose ``code`` holds the ops:
    # break each cycle so reference counting frees the run's code
    for unit_code in st.codes.values():
        unit_code.ops = []
    st.codes.clear()
    st.cond_cache.clear()
    return result
