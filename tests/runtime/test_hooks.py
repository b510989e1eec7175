"""The interpreter's hook protocol (what ELPD and the cost model build on)."""

from repro.lang.parser import parse_program
from repro.runtime.interp import Interpreter


class RecordingHook:
    def __init__(self):
        self.events = []

    def enter_loop(self, stmt, frame, ran_parallel):
        self.events.append(("enter", stmt.label, ran_parallel))
        return len(self.events) - 1

    def iter_start(self, token, ivalue):
        self.events.append(("iter", token, ivalue))

    def block(self, token, lo, step, trips, accesses, inner=None):
        for t in range(trips):
            self.iter_start(token, lo + t * step)
            if inner is not None:
                itoken = self.enter_loop(inner.stmt, inner.frame, inner.ran_parallel[t])
                for u in range(inner.trips):
                    self.iter_start(itoken, inner.lo + u * inner.step)
                self.exit_loop(itoken)

    def exit_loop(self, token):
        self.events.append(("exit",))


class TestLoopHook:
    def test_enter_iter_exit_ordering(self):
        src = "program t\ndo i = 1, 3\nx = i\nenddo\nend\n"
        hook = RecordingHook()
        Interpreter(parse_program(src), loop_hook=hook).run()
        kinds = [e[0] for e in hook.events]
        assert kinds == ["enter", "iter", "iter", "iter", "exit"]

    def test_iteration_values_passed(self):
        src = "program t\ndo i = 2, 8, 3\nx = i\nenddo\nend\n"
        hook = RecordingHook()
        Interpreter(parse_program(src), loop_hook=hook).run()
        values = [e[2] for e in hook.events if e[0] == "iter"]
        assert values == [2, 5, 8]

    def test_nested_loops_stack(self):
        src = (
            "program t\ndo i = 1, 2\n do j = 1, 2\n  x = j\n enddo\nenddo\nend\n"
        )
        hook = RecordingHook()
        Interpreter(parse_program(src), loop_hook=hook).run()
        labels = [e[1] for e in hook.events if e[0] == "enter"]
        assert labels == ["t:L1", "t:L2", "t:L2"]
        # balanced enters and exits
        assert sum(1 for e in hook.events if e[0] == "enter") == sum(
            1 for e in hook.events if e[0] == "exit"
        )

    def test_zero_trip_loop_enters_and_exits(self):
        src = "program t\ndo i = 5, 1\nx = i\nenddo\nend\n"
        hook = RecordingHook()
        Interpreter(parse_program(src), loop_hook=hook).run()
        kinds = [e[0] for e in hook.events]
        assert kinds == ["enter", "exit"]

    def test_loops_in_subroutines_hooked(self):
        src = (
            "program t\ncall f(2)\nend\n"
            "subroutine f(n)\ndo i = 1, n\nx = i\nenddo\nend\n"
        )
        hook = RecordingHook()
        Interpreter(parse_program(src), loop_hook=hook).run()
        labels = [e[1] for e in hook.events if e[0] == "enter"]
        assert labels == ["f:L1"]


class AccessRecorder:
    def __init__(self):
        self.events = []

    def __call__(self, kind, storage, offset):
        self.events.append((kind, storage.name, offset))


class TestAccessHook:
    def test_reads_and_writes_reported(self):
        src = (
            "program t\nreal a(10)\na(3) = 1.0\nx = a(3)\nend\n"
        )
        rec = AccessRecorder()
        Interpreter(parse_program(src), access_hook=rec).run()
        assert ("w", "a", 2) in rec.events
        assert ("r", "a", 2) in rec.events

    def test_rhs_reads_before_lhs_write(self):
        src = "program t\nreal a(10)\na(1) = 5.0\na(2) = a(1)\nend\n"
        rec = AccessRecorder()
        Interpreter(parse_program(src), access_hook=rec).run()
        read_idx = rec.events.index(("r", "a", 0))
        write_idx = rec.events.index(("w", "a", 1))
        assert read_idx < write_idx

    def test_subscript_expression_reads_hooked(self):
        src = (
            "program t\nreal a(10)\ninteger ix(10)\nix(1) = 4\n"
            "a(ix(1)) = 1.0\nend\n"
        )
        rec = AccessRecorder()
        Interpreter(parse_program(src), access_hook=rec).run()
        assert ("r", "ix", 0) in rec.events
        assert ("w", "a", 3) in rec.events

    def test_view_reports_underlying_offsets(self):
        src = (
            "program t\nreal a(3, 4)\ncall f(a)\nend\n"
            "subroutine f(x)\nreal x(12)\nx(5) = 1.0\nend\n"
        )
        rec = AccessRecorder()
        Interpreter(parse_program(src), access_hook=rec).run()
        assert ("w", "x", 4) in rec.events
