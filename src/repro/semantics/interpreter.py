"""Stack-machine interpreter implementing the run semantics of Section 2.2.

The interpreter executes a program from its entry function on a concrete
argument valuation, resolving non-determinism through a
:class:`~repro.semantics.scheduler.NondetScheduler`.  Valuations are exact
(:class:`fractions.Fraction`), so executions of polynomial programs never
accumulate rounding error — important when traces are used to falsify
candidate invariants with strict inequalities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from repro.cfg.graph import FunctionCFG, ProgramCFG
from repro.cfg.labels import LabelKind
from repro.cfg.transition import Transition, TransitionKind
from repro.errors import SemanticsError
from repro.semantics.scheduler import NondetScheduler, RandomScheduler
from repro.semantics.traces import Configuration, StackElement, Trace


@dataclass(frozen=True)
class ExecutionLimits:
    """Caps on a single run, so that non-terminating programs stay analysable."""

    max_steps: int = 10_000
    max_stack_depth: int = 500


@dataclass
class RunResult:
    """Outcome of a single run of the interpreter."""

    trace: Trace
    terminated: bool
    truncated: bool
    return_value: Fraction | None
    steps: int
    stuck_reason: str | None = field(default=None)
    timed_out: bool = False

    @property
    def completed(self) -> bool:
        """Whether the run reached normal termination (empty configuration)."""
        return self.terminated and not self.truncated and self.stuck_reason is None


def _initial_valuation(cfg: FunctionCFG, arguments: Mapping[str, Fraction | int | float]) -> dict[str, Fraction]:
    valuation: dict[str, Fraction] = {name: Fraction(0) for name in cfg.variables}
    for parameter in cfg.parameters:
        if parameter not in arguments:
            raise SemanticsError(
                f"missing argument for parameter {parameter!r} of function {cfg.name!r}"
            )
        value = Fraction(arguments[parameter])
        valuation[parameter] = value
        valuation[cfg.frozen_parameters[parameter]] = value
    return valuation


class Interpreter:
    """Executes runs of a program CFG under a non-determinism scheduler."""

    def __init__(
        self,
        cfg: ProgramCFG,
        scheduler: NondetScheduler | None = None,
        limits: ExecutionLimits | None = None,
    ):
        self._cfg = cfg
        self._scheduler = scheduler if scheduler is not None else RandomScheduler(seed=0)
        self._limits = limits if limits is not None else ExecutionLimits()

    # -- public API ------------------------------------------------------------

    def run(
        self, arguments: Mapping[str, Fraction | int | float], deadline: float | None = None
    ) -> RunResult:
        """Execute one run of the entry function on the given arguments.

        ``deadline`` is a :func:`time.monotonic` instant checked between
        steps: a run still going when it passes stops there, truncated, with
        ``timed_out=True``.
        """
        self._scheduler.reset()
        main_cfg = self._cfg.main
        element = StackElement(
            function=main_cfg.name,
            label=main_cfg.entry,
            valuation=_initial_valuation(main_cfg, arguments),
        )
        configuration = Configuration(stack=(element,))
        trace = Trace()
        trace.append(configuration)

        steps = 0
        return_value: Fraction | None = None
        while configuration and steps < self._limits.max_steps:
            if len(configuration) > self._limits.max_stack_depth:
                return RunResult(
                    trace=trace,
                    terminated=False,
                    truncated=True,
                    return_value=None,
                    steps=steps,
                    stuck_reason="stack depth limit exceeded",
                )
            try:
                configuration, finished_value = self._step(configuration)
            except SemanticsError as error:
                return RunResult(
                    trace=trace,
                    terminated=False,
                    truncated=False,
                    return_value=None,
                    steps=steps,
                    stuck_reason=str(error),
                )
            if finished_value is not None:
                return_value = finished_value
            trace.append(configuration)
            steps += 1
            if deadline is not None and configuration and time.monotonic() >= deadline:
                return RunResult(
                    trace=trace,
                    terminated=False,
                    truncated=True,
                    return_value=None,
                    steps=steps,
                    timed_out=True,
                )

        terminated = not configuration
        truncated = bool(configuration) and steps >= self._limits.max_steps
        return RunResult(
            trace=trace,
            terminated=terminated,
            truncated=truncated,
            return_value=return_value,
            steps=steps,
        )

    def run_many(
        self,
        argument_sets: Sequence[Mapping[str, Fraction | int | float]],
    ) -> list[RunResult]:
        """Execute one run for each argument valuation in ``argument_sets``."""
        return [self.run(arguments) for arguments in argument_sets]

    # -- single-step semantics ---------------------------------------------------

    def _step(self, configuration: Configuration) -> tuple[Configuration, Fraction | None]:
        element = configuration.top()
        function_cfg = self._cfg.function(element.function)
        label = element.label

        if label.kind is LabelKind.END:
            return self._step_endpoint(configuration, element, function_cfg)

        outgoing = function_cfg.outgoing(label)
        if not outgoing:
            raise SemanticsError(f"label {label} has no outgoing transitions")

        if label.kind is LabelKind.ASSIGN:
            transition = outgoing[0]
            updated = transition.apply_update(element.valuation)
            successor = StackElement(element.function, transition.target, updated)
            return configuration.replace_top(successor), None

        if label.kind is LabelKind.BRANCH:
            transition = self._pick_guard(outgoing, element.valuation, label)
            successor = StackElement(element.function, transition.target, dict(element.valuation))
            return configuration.replace_top(successor), None

        if label.kind is LabelKind.NONDET:
            transition = self._scheduler.choose(label, outgoing)
            successor = StackElement(element.function, transition.target, dict(element.valuation))
            return configuration.replace_top(successor), None

        if label.kind is LabelKind.CALL:
            return self._step_call(configuration, element, outgoing[0]), None

        raise SemanticsError(f"unsupported label kind {label.kind!r}")

    def _pick_guard(self, outgoing, valuation, label) -> Transition:
        float_valuation = {name: float(value) for name, value in valuation.items()}
        for transition in outgoing:
            if transition.kind is not TransitionKind.GUARD:
                raise SemanticsError(f"non-guard transition out of branching label {label}")
            assert transition.guard is not None
            if transition.guard.holds(float_valuation):
                return transition
        raise SemanticsError(f"no guard out of label {label} is satisfied")

    def _step_call(
        self, configuration: Configuration, element: StackElement, transition: Transition
    ) -> Configuration:
        if transition.kind is not TransitionKind.CALL or transition.call is None:
            raise SemanticsError(f"expected a call transition out of {element.label}")
        call = transition.call
        callee_cfg = self._cfg.function(call.callee)
        argument_values = {
            parameter: element.value(argument)
            for parameter, argument in zip(callee_cfg.parameters, call.arguments)
        }
        callee_valuation = _initial_valuation(callee_cfg, argument_values)
        callee_element = StackElement(
            function=callee_cfg.name, label=callee_cfg.entry, valuation=callee_valuation
        )
        return configuration.push(callee_element)

    def _step_endpoint(
        self, configuration: Configuration, element: StackElement, function_cfg: FunctionCFG
    ) -> tuple[Configuration, Fraction | None]:
        returned = element.value(function_cfg.return_variable)
        if len(configuration) == 1:
            return Configuration(), returned

        caller = configuration.stack[-2]
        caller_cfg = self._cfg.function(caller.function)
        call_transition = self._call_transition(caller_cfg, caller)
        assert call_transition.call is not None
        updated = dict(caller.valuation)
        updated[call_transition.call.target] = returned
        resumed = StackElement(
            function=caller.function, label=call_transition.target, valuation=updated
        )
        return configuration.pop(2).push(resumed), None

    @staticmethod
    def _call_transition(caller_cfg: FunctionCFG, caller: StackElement) -> Transition:
        outgoing = caller_cfg.outgoing(caller.label)
        if not outgoing or outgoing[0].kind is not TransitionKind.CALL:
            raise SemanticsError(
                f"caller label {caller.label} is not a function-call statement"
            )
        return outgoing[0]
