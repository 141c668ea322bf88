"""Unit tests for repro.semantics.interpreter."""

import time
from fractions import Fraction

import pytest

from repro.cfg.builder import build_cfg
from repro.errors import SemanticsError
from repro.lang.parser import parse_program
from repro.semantics.interpreter import ExecutionLimits, Interpreter
from repro.semantics.scheduler import AlternatingScheduler, RandomScheduler, ScriptedScheduler


def run_program(source, arguments, scheduler=None, limits=None):
    cfg = build_cfg(parse_program(source))
    interpreter = Interpreter(cfg, scheduler=scheduler, limits=limits)
    return interpreter.run(arguments)


def test_straight_line_program_returns_value():
    result = run_program("f(x) { y := x*x + 1; return y }", {"x": 3})
    assert result.completed
    assert result.return_value == 10


def test_missing_argument_raises():
    cfg = build_cfg(parse_program("f(x) { return x }"))
    with pytest.raises(SemanticsError):
        Interpreter(cfg).run({})


def test_loop_computes_sum(sum_cfg):
    # Always taking the 'then' branch of the nondeterministic if adds every i.
    interpreter = Interpreter(sum_cfg, scheduler=ScriptedScheduler([0] * 100))
    result = interpreter.run({"n": 5})
    assert result.completed
    assert result.return_value == 15


def test_loop_skipping_all_additions(sum_cfg):
    interpreter = Interpreter(sum_cfg, scheduler=ScriptedScheduler([1] * 100))
    result = interpreter.run({"n": 5})
    assert result.return_value == 0


def test_nondeterminism_bounded_by_full_sum(sum_cfg):
    interpreter = Interpreter(sum_cfg, scheduler=RandomScheduler(seed=7))
    for n in range(0, 8):
        result = interpreter.run({"n": n})
        assert result.completed
        assert 0 <= result.return_value <= n * (n + 1) // 2


def test_fractional_arguments_stay_exact():
    result = run_program("f(x) { y := 0.5*x; return y }", {"x": Fraction(1, 3)})
    assert result.return_value == Fraction(1, 6)


def test_if_branches():
    source = "f(x) { if x >= 0 then y := 1 else y := 0 - 1 fi; return y }"
    assert run_program(source, {"x": 5}).return_value == 1
    assert run_program(source, {"x": -5}).return_value == -1


def test_step_limit_truncates_infinite_loop():
    source = "f(x) { while x >= 0 do x := x + 1 od; return x }"
    result = run_program(source, {"x": 0}, limits=ExecutionLimits(max_steps=50))
    assert result.truncated
    assert not result.completed


def test_deadline_stops_a_run_between_steps():
    source = "f(x) { while x >= 0 do x := x + 1 od; return x }"
    cfg = build_cfg(parse_program(source))
    result = Interpreter(cfg).run({"x": 0}, deadline=time.monotonic())
    assert result.timed_out and result.truncated and not result.completed
    assert result.steps == 1
    assert not Interpreter(cfg, limits=ExecutionLimits(max_steps=50)).run({"x": 0}).timed_out


def test_recursion_returns_correct_value(recursive_sum_source):
    cfg = build_cfg(parse_program(recursive_sum_source))
    interpreter = Interpreter(cfg, scheduler=ScriptedScheduler([0] * 100))
    result = interpreter.run({"n": 6})
    assert result.completed
    assert result.return_value == 21


def test_recursion_depth_limit():
    source = """
    f(n) {
        m := n + 1;
        r := f(m);
        return r
    }
    """
    cfg = build_cfg(parse_program(source))
    interpreter = Interpreter(cfg, limits=ExecutionLimits(max_steps=100000, max_stack_depth=20))
    result = interpreter.run({"n": 0})
    assert result.truncated
    assert result.stuck_reason is not None


def test_mutual_recursion():
    source = """
    even(n) {
        if n <= 0 then
            return 1
        else
            m := n - 1;
            r := odd(m);
            return r
        fi
    }
    odd(n) {
        if n <= 0 then
            return 0
        else
            m := n - 1;
            r := even(m);
            return r
        fi
    }
    """
    cfg = build_cfg(parse_program(source))
    interpreter = Interpreter(cfg)
    assert interpreter.run({"n": 4}).return_value == 1
    assert interpreter.run({"n": 7}).return_value == 0


def test_trace_records_initial_configuration(sum_cfg):
    interpreter = Interpreter(sum_cfg)
    result = interpreter.run({"n": 2})
    first = result.trace.configurations[0]
    assert len(first) == 1
    element = first.top()
    assert element.label == sum_cfg.function("sum").entry
    assert element.value("n") == 2
    assert element.value("n_init") == 2
    assert element.value("s") == 0


def test_run_many(sum_cfg):
    interpreter = Interpreter(sum_cfg)
    results = interpreter.run_many([{"n": 1}, {"n": 2}, {"n": 3}])
    assert len(results) == 3
    assert all(result.completed for result in results)


def test_alternating_scheduler_alternates(sum_cfg):
    interpreter = Interpreter(sum_cfg, scheduler=AlternatingScheduler())
    result = interpreter.run({"n": 4})
    # Alternating then/skip adds i for every other iteration: 1 + 3 = 4.
    assert result.return_value == 4
