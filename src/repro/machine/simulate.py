"""Plan-aware execution-cost simulation.

One interpreter run (with the plan's run-time tests evaluated in place)
records **every** dynamic instance of a plan-parallelizable loop, along
with its parent instance, serial work and iteration count.  Execution
time for any processor count is then computed in closed form:

* a *profitability threshold* models the minimum-granularity check real
  systems apply — instances below it run serially;
* per nest, the outermost profitable instance is chosen (one level of
  parallelism, as SUIF exploits); its descendants run serially inside
  it, and unprofitable ancestors fall through to profitable children;
* chosen instances cost ``work/P`` plus fork/scheduling overheads; every
  evaluated run-time test costs its predicate atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.codegen.plan import ParallelPlan
from repro.lang.astnodes import Program
from repro.machine.costmodel import MachineModel
from repro.runtime.bytecode import execute
from repro.runtime.interp import Interpreter

Number = Union[int, float]


@dataclass
class ParallelInstance:
    """One dynamic execution of a parallelizable (or tested) loop."""

    label: str
    serial_work: float
    iterations: int
    test_atoms: int = 0
    parent: int = -1  # index of the enclosing recorded instance, -1 = root


@dataclass
class MachineResult:
    """Cost-simulation output for one (program, plan, input) triple."""

    serial_steps: float
    instances: List[ParallelInstance] = field(default_factory=list)
    failed_test_atoms: int = 0  # tests evaluated false → serial version

    def chosen(self, model: MachineModel) -> List[int]:
        """Outermost profitable instance per nest (greedy selection)."""
        selected: List[int] = []
        chosen_set: set = set()
        for i, inst in enumerate(self.instances):
            # an instance is blocked if any ancestor was chosen
            p = inst.parent
            blocked = False
            while p != -1:
                if p in chosen_set:
                    blocked = True
                    break
                p = self.instances[p].parent
            if blocked:
                continue
            if inst.serial_work >= model.profit_threshold:
                selected.append(i)
                chosen_set.add(i)
        return selected

    def time(self, processors: int, model: MachineModel) -> float:
        """Execution time on *processors* under *model*."""
        total = self.serial_steps
        for i in self.chosen(model):
            inst = self.instances[i]
            total -= inst.serial_work
            total += model.parallel_time(
                inst.serial_work, inst.iterations, processors
            )
        # every evaluated run-time test costs its atoms, parallel or not
        for inst in self.instances:
            total += model.test_time(inst.test_atoms)
        total += model.test_time(self.failed_test_atoms)
        return total

    def speedup(self, processors: int, model: MachineModel) -> float:
        base = self.serial_steps
        t = self.time(processors, model)
        return base / t if t > 0 else float("inf")


class _CostHook:
    """Loop hook recording parallelizable instances at every depth."""

    def __init__(self, plan: ParallelPlan, interp_ref) -> None:
        self.plan = plan
        self.interp = interp_ref  # assigned after Interpreter creation
        self.stack: List[Optional[dict]] = []
        self.open_parents: List[int] = []  # indices of open recorded insts
        self.instances: List[ParallelInstance] = []
        self.failed_test_atoms = 0

    def enter_loop(self, stmt, frame, ran_parallel):
        lp = self.plan.plan_for(stmt)
        rec: Optional[dict] = None
        if lp is not None and lp.parallelizable:
            atoms = lp.runtime_cost if lp.mode == "two_version" else 0
            if ran_parallel:
                rec = {
                    "label": lp.label,
                    "start": self.interp[0].steps,
                    "iters": 0,
                    "atoms": atoms,
                    "parent": self.open_parents[-1]
                    if self.open_parents
                    else -1,
                    "index": None,
                }
            else:
                # test evaluated false: pay the test, run serial version
                self.failed_test_atoms += atoms
        self.stack.append(rec)
        if rec is not None:
            # reserve the slot now so children link to the right parent
            rec["index"] = len(self.instances)
            self.instances.append(
                ParallelInstance(
                    label=rec["label"],
                    serial_work=0.0,
                    iterations=0,
                    test_atoms=rec["atoms"],
                    parent=rec["parent"],
                )
            )
            self.open_parents.append(rec["index"])
        return len(self.stack) - 1

    def iter_start(self, token, ivalue):
        rec = self.stack[token]
        if rec is not None:
            rec["iters"] += 1

    def block(self, token, lo, step, trips, accesses, inner=None):
        rec = self.stack[token]
        if rec is not None:
            rec["iters"] += trips
        if inner is None:
            return
        # a nest's inner instances, as enter_loop/exit_loop record them
        lp = self.plan.plan_for(inner.stmt)
        if lp is None or not lp.parallelizable:
            return
        atoms = lp.runtime_cost if lp.mode == "two_version" else 0
        parent = self.open_parents[-1] if self.open_parents else -1
        for ran_parallel in inner.ran_parallel:
            if ran_parallel:
                self.instances.append(
                    ParallelInstance(
                        label=lp.label,
                        serial_work=float(inner.work),
                        iterations=inner.trips,
                        test_atoms=atoms,
                        parent=parent,
                    )
                )
            else:
                self.failed_test_atoms += atoms

    def exit_loop(self, token):
        rec = self.stack.pop()
        if rec is None:
            return
        self.open_parents.pop()
        inst = self.instances[rec["index"]]
        inst.serial_work = float(self.interp[0].steps - rec["start"])
        inst.iterations = rec["iters"]


def simulate(
    program: Program,
    plan: ParallelPlan,
    inputs: Sequence[Number] = (),
    max_steps: int = 10_000_000,
) -> MachineResult:
    """Interpret once under *plan*, recording parallel-instance costs."""
    interp_ref: list = [None]
    hook = _CostHook(plan, interp_ref)
    interp = Interpreter(
        program, inputs, plan=plan, loop_hook=hook, max_steps=max_steps
    )
    interp_ref[0] = interp
    result = execute(interp, snapshot=False)
    return MachineResult(
        serial_steps=float(result.steps),
        instances=hook.instances,
        failed_test_atoms=hook.failed_test_atoms,
    )
