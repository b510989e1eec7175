"""Interprocedural summary translation (the ``Reshape`` operation).

Translating a callee's array summaries to a call site involves:

* binding formal scalar parameters to the actual argument expressions
  (affine actuals substitute exactly; non-affine actuals become fresh
  unconstrained symbols);
* renaming callee-local symbols to fresh names (capture avoidance);
* mapping formal arrays onto actual arrays.

Array mapping implements three strategies, in order:

1. **direct** — same rank and provably equal leading extents (the last
   formal extent may be assumed-size ``*``): rename the array, keep the
   dimension variables;
2. **linearize** — rank change with *constant* extents on both sides:
   exact translation through the column-major linear offset equation,
   eliminating the auxiliary offset variable;
3. **optimistic/default pair** — rank change with *symbolic* extents
   (the linearization equation would be non-linear).  Following the
   paper: when the callee provably covers its whole declared space, the
   caller-side value is "whole actual array" **guarded by the extracted
   size/divisibility predicate** (e.g. ``m == n1*n2`` or
   ``mod(m, n1) == 0``), paired with a conservative default.

Must-summaries default to ∅ (no coverage claimed), may-summaries default
to the whole actual array (any element may be touched).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import perf
from repro.ir.exprtools import to_affine
from repro.ir.symboltable import SymbolTable
from repro.lang.astnodes import ASSUMED, Call, Expr, VarRef
from repro.lang.prettyprint import expr_str
from repro.linalg.constraint import Constraint
from repro.linalg.fourier_motzkin import eliminate_all
from repro.linalg.system import LinearSystem
from repro.predicates.atoms import DivAtom, LinAtom, OpaqueAtom
from repro.predicates.formula import Predicate, TRUE, p_atom
from repro.regions.region import ArrayRegion
from repro.regions.summary import SummarySet
from repro.service.budgets import metered
from repro.symbolic.affine import AffineExpr
from repro.symbolic.terms import FreshNameSource, dim_var

GuardedSummary = Tuple[Predicate, SummarySet]


class CallContext:
    """Everything needed to translate one call site."""

    def __init__(
        self,
        call: Call,
        caller_symtab: SymbolTable,
        callee_symtab: SymbolTable,
        fresh: FreshNameSource,
    ) -> None:
        self.call = call
        self.caller = caller_symtab
        self.callee = callee_symtab
        self.fresh = fresh
        callee_unit = callee_symtab.unit
        self.formal_of: Dict[str, Expr] = dict(
            zip(callee_unit.params, call.args)
        )

    # -- scalars -----------------------------------------------------------
    def scalar_bindings(self) -> Dict[str, AffineExpr]:
        """Substitution for formal scalars and callee locals.

        Formal scalars bind to the affine value of the actual argument
        (or a fresh symbol when non-affine).  Callee locals/symbolics are
        renamed to fresh caller-side symbols.
        """
        bindings: Dict[str, AffineExpr] = {}
        for formal, actual in self.formal_of.items():
            if self.callee.is_array(formal):
                continue
            affine = to_affine(actual)
            if affine is None:
                affine = AffineExpr.var(self.fresh.fresh(formal))
            bindings[formal] = affine
        return bindings

    def local_renames(self, summary_vars) -> Dict[str, AffineExpr]:
        """Fresh symbols for callee names not bound by parameters."""
        out: Dict[str, AffineExpr] = {}
        for v in sorted(summary_vars):
            if v.startswith("__"):
                continue  # dimension or generated variables pass through
            if v in self.formal_of:
                continue
            out[v] = AffineExpr.var(self.fresh.fresh(v))
        return out

    # -- arrays ---------------------------------------------------------
    def actual_array_for(self, formal: str) -> Optional[str]:
        """The caller array a whole-array actual names, else ``None``."""
        actual = self.formal_of.get(formal)
        if isinstance(actual, VarRef) and self.caller.is_array(actual.name):
            return actual.name
        return None


def _const_extents(
    symtab: SymbolTable, array: str
) -> Optional[List[int]]:
    """All extents as ints, or ``None`` (symbolic/assumed present)."""
    out: List[int] = []
    for e in symtab.affine_extents(array):
        if e is None or not e.is_constant() or e.constant.denominator != 1:
            return None
        out.append(int(e.constant))
    return out


def _extents_equal(
    callee: SymbolTable, formal: str, caller: SymbolTable, actual: str
) -> bool:
    """Provably matching layout for a direct rename.

    All formal extents except possibly the last must equal the caller's;
    the final formal extent may be assumed-size.
    """
    fe = callee.extents(formal)
    ae = caller.extents(actual)
    if len(fe) != len(ae):
        return False
    for k, (f, a) in enumerate(zip(fe, ae)):
        last = k == len(fe) - 1
        if f == ASSUMED:
            return last
        if a == ASSUMED:
            return False
        fa, aa = to_affine(f), to_affine(a)
        if fa is None or aa is None or fa != aa:
            if not last:
                return False
            # unequal final extents: direct rename is still layout-safe
            # for reads if the formal is not larger; be conservative and
            # reject, letting linearization handle it
            return False
    return True


def _linear_offset(extents: Sequence[int], dvs: Sequence[str]) -> AffineExpr:
    """Column-major zero-based offset of a point (1-based dims)."""
    total = AffineExpr.ZERO
    stride = 1
    for k, dv in enumerate(dvs):
        total = total + (AffineExpr.var(dv) - 1) * stride
        if k < len(extents):
            stride *= extents[k]
    return total


_RESHAPE = perf.memo_table("region.reshape", cap=16384)


def _translate_region_linear(
    region: ArrayRegion,
    actual: str,
    callee_ext: List[int],
    caller_ext: List[int],
) -> ArrayRegion:
    """Exact rank-changing translation with constant extents (memoized).

    Equates the callee-side and caller-side linear offsets through an
    auxiliary variable and eliminates the callee dimensions.  The
    callee-dimension temporaries use fixed reserved names (``__rs{k}``)
    rather than fresh symbols: they are always eliminated below, so they
    can never leak, and fixed names make the translation a pure function
    of its arguments — cacheable, and independent of call order.
    """
    key = (region, actual, tuple(callee_ext), tuple(caller_ext))
    cached = None if metered() else _RESHAPE.data.get(key)
    if cached is not None:
        _RESHAPE.hits += 1
        return cached
    _RESHAPE.misses += 1
    callee_rank = region.rank
    caller_rank = len(caller_ext)
    # rename callee dims to reserved temporaries (always eliminated)
    tmp = {dim_var(k): f"__rs{k}" for k in range(callee_rank)}
    sys = region.system.rename(tmp)
    callee_dvs = [tmp[dim_var(k)] for k in range(callee_rank)]
    caller_dvs = [dim_var(k) for k in range(caller_rank)]

    offset_callee = _linear_offset(callee_ext, callee_dvs)
    offset_caller = _linear_offset(caller_ext, caller_dvs)
    sys = sys & LinearSystem([Constraint.eq(offset_callee, offset_caller)])
    # bound both coordinate systems by their declared boxes
    box = []
    for dv, ext in zip(callee_dvs, callee_ext):
        box.append(Constraint.ge(AffineExpr.var(dv), AffineExpr.const(1)))
        box.append(Constraint.le(AffineExpr.var(dv), AffineExpr.const(ext)))
    for dv, ext in zip(caller_dvs, caller_ext):
        box.append(Constraint.ge(AffineExpr.var(dv), AffineExpr.const(1)))
        box.append(Constraint.le(AffineExpr.var(dv), AffineExpr.const(ext)))
    sys = sys & LinearSystem(box)
    sys = eliminate_all(sys, callee_dvs)
    result = ArrayRegion(actual, caller_rank, sys)
    _RESHAPE.data[key] = result
    return result


def _whole_caller_array(caller: SymbolTable, actual: str) -> ArrayRegion:
    return ArrayRegion.whole(
        actual, caller.rank(actual), caller.affine_extents(actual)
    )


def _covers_whole_formal(
    regions: Sequence[ArrayRegion], callee: SymbolTable, formal: str
) -> bool:
    """Does the summary provably cover the formal's declared space?

    Assumed-size formals are treated as 'whole' when the final dimension
    is unbounded above in the covering region.
    """
    extents = callee.affine_extents(formal)
    whole = ArrayRegion.whole(formal, callee.rank(formal), extents)
    from repro.regions.subtract import subtract_summary

    residue = subtract_summary([whole], list(regions))
    return all(r.is_empty() for r in residue)


def _size_expr(symtab: SymbolTable, array: str) -> Optional[str]:
    """Source text of the total size, for opaque size predicates."""
    parts = []
    for e in symtab.extents(array):
        if e == ASSUMED:
            return None
        parts.append(f"({expr_str(e)})")
    return "*".join(parts)


def translate_array_summary(
    regions: Sequence[ArrayRegion],
    formal: str,
    ctx: CallContext,
    must: bool,
    bindings=None,
) -> List[Tuple[Predicate, Tuple[ArrayRegion, ...]]]:
    """Translate one formal array's regions to the caller side.

    *regions* are in the **callee** namespace; *bindings* map formal
    scalars (and renamed locals) to caller-side expressions and are
    applied per strategy — in particular, the whole-coverage check of
    the optimistic path runs *before* substitution, against the formal's
    own declared extents.

    Returns guarded alternatives ordered most-precise first; the last
    entry is always the unguarded (TRUE) default.
    """
    bindings = bindings or {}
    covers_whole = _covers_whole_formal(regions, ctx.callee, formal)
    regions = [r.substitute(bindings) for r in regions]
    actual = ctx.actual_array_for(formal)
    if actual is None:
        # array element or expression passed: unsupported aliasing shape
        name = (
            ctx.formal_of[formal].name
            if isinstance(ctx.formal_of[formal], VarRef)
            else None
        )
        if name is not None and ctx.caller.is_scalar(name):
            # scalar passed where array expected: treat as that scalar —
            # model as rank-0 unsupported; conservative fallback below
            pass
        if must:
            return [(TRUE, ())]
        if name is not None and ctx.caller.is_array(name):
            return [(TRUE, (_whole_caller_array(ctx.caller, name),))]
        return [(TRUE, ())]

    callee_rank = ctx.callee.rank(formal)
    caller_rank = ctx.caller.rank(actual)

    # 1. direct rename
    if callee_rank == caller_rank and _extents_equal(
        ctx.callee, formal, ctx.caller, actual
    ):
        return [(TRUE, tuple(r.rename_array(actual) for r in regions))]

    # 2. exact linearization with constant extents
    callee_ext = _const_extents(ctx.callee, formal)
    caller_ext = _const_extents(ctx.caller, actual)
    if callee_ext is not None and caller_ext is not None:
        translated = tuple(
            _translate_region_linear(r, actual, callee_ext, caller_ext)
            for r in regions
        )
        return [(TRUE, translated)]

    # 3. symbolic extents: optimistic whole-array + default
    default: Tuple[Predicate, Tuple[ArrayRegion, ...]]
    if must:
        default = (TRUE, ())
    else:
        default = (TRUE, (_whole_caller_array(ctx.caller, actual),))

    if covers_whole:
        pred = _size_match_predicate(ctx, formal, actual)
        if pred is not None:
            whole = _whole_caller_array(ctx.caller, actual)
            if pred.is_true():
                return [(pred, (whole,))]
            return [(pred, (whole,)), default]
    return [default]


def _size_match_predicate(
    ctx: CallContext, formal: str, actual: str
) -> Optional[Predicate]:
    """The extracted predicate under which callee coverage of its whole
    formal space equals the whole actual array.

    * both total sizes expressible → affine equality or opaque product
      equality (run-time evaluable);
    * assumed-size 1-D formal written up to some bound B → caller-side
      size divisibility/size-equality handled by the caller's analysis;
      here we require declared sizes on both sides.
    """
    callee_size = _size_expr(ctx.callee, formal)
    caller_size = _size_expr(ctx.caller, actual)
    if callee_size is None or caller_size is None:
        return None
    # substitute actual expressions for formal scalar names in the text
    bindings = {
        f: expr_str(a)
        for f, a in ctx.formal_of.items()
        if not ctx.callee.is_array(f)
    }
    text = callee_size
    for f, rep in bindings.items():
        text = _replace_ident(text, f, rep)
    if text == caller_size:
        return TRUE
    # try the affine route: sizes as affine expressions
    callee_aff = _total_affine_size(ctx, formal)
    caller_aff = _caller_affine_size(ctx, actual)
    if callee_aff is not None and caller_aff is not None:
        return p_atom(LinAtom.eq(callee_aff, caller_aff))
    reads = _idents_in(text) | _idents_in(caller_size)
    return p_atom(OpaqueAtom(f"{text} == {caller_size}", tuple(reads)))


def _total_affine_size(ctx: CallContext, formal: str) -> Optional[AffineExpr]:
    total = AffineExpr.const(1)
    bindings = ctx.scalar_bindings()
    for e in ctx.callee.affine_extents(formal):
        if e is None:
            return None
        e = e.substitute(bindings)
        if total.is_constant():
            if e.is_constant():
                total = AffineExpr.const(total.constant * e.constant)
            else:
                total = e * total.constant
        elif e.is_constant():
            total = total * e.constant
        else:
            return None  # symbolic × symbolic: non-linear
    return total


def _caller_affine_size(ctx: CallContext, actual: str) -> Optional[AffineExpr]:
    total = AffineExpr.const(1)
    for e in ctx.caller.affine_extents(actual):
        if e is None:
            return None
        if total.is_constant():
            if e.is_constant():
                total = AffineExpr.const(total.constant * e.constant)
            else:
                total = e * total.constant
        elif e.is_constant():
            total = total * e.constant
        else:
            return None
    return total


def _replace_ident(text: str, ident: str, replacement: str) -> str:
    """Whole-identifier textual replacement."""
    import re

    return re.sub(rf"\b{re.escape(ident)}\b", replacement, text)


def _idents_in(text: str) -> set:
    import re

    return set(re.findall(r"[a-z_][a-z0-9_]*", text))


def translate_summary_set(
    summary: SummarySet,
    ctx: CallContext,
    must: bool,
) -> List[GuardedSummary]:
    """Translate a whole summary set to the caller side.

    Combines per-array alternatives; to keep the alternative count
    linear, at most one array contributes a guarded (non-default)
    value — the first one found — and the rest use their defaults.
    """
    bindings = ctx.scalar_bindings()
    renames = ctx.local_renames(
        {
            v
            for r in summary.all_regions()
            for v in r.parameters()
        }
    )
    bindings.update(renames)

    base: Dict[str, Tuple[ArrayRegion, ...]] = {}
    guarded_extra: Optional[Tuple[Predicate, str, Tuple[ArrayRegion, ...]]] = None

    for formal in summary.arrays():
        if formal not in ctx.formal_of or not ctx.callee.is_array(formal):
            # accesses to callee-local arrays never escape; skip them
            continue
        regions = list(summary.regions(formal))
        alts = translate_array_summary(regions, formal, ctx, must, bindings)
        pred0, regions0 = alts[0]
        if pred0.is_true():
            base[_first_array(regions0, formal)] = regions0
        elif guarded_extra is None:
            guarded_extra = (pred0, formal, regions0)
            # default for this array goes into base
            dpred, dregions = alts[-1]
            if dregions:
                base[_first_array(dregions, formal)] = dregions
        else:
            dpred, dregions = alts[-1]
            if dregions:
                base[_first_array(dregions, formal)] = dregions

    default_set = SummarySet(
        {k: v for k, v in base.items() if v}
    )
    if guarded_extra is None:
        return [(TRUE, default_set)]
    pred, formal, regions0 = guarded_extra
    optimistic: Dict[str, Tuple[ArrayRegion, ...]] = dict(base)
    optimistic[_first_array(regions0, formal)] = regions0
    return [
        (pred, SummarySet({k: v for k, v in optimistic.items() if v})),
        (TRUE, default_set),
    ]


def _first_array(regions: Tuple[ArrayRegion, ...], fallback: str) -> str:
    return regions[0].array if regions else fallback
