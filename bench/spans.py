"""In-memory spans and the hooks that record them for a traced unit.

The hooks wrap, from outside the package, the public functions each
sparsecombine module calls in the module below it: ``cli`` -> ``combine`` and
``verify``, ``combine`` -> ``pde`` and ``grid``, and ``pde``'s sine transform.
They are installed by rebinding module globals (and one class attribute) and
removed again afterwards, so nothing inside ``src/`` is timed and an untraced
unit runs the program's own functions. A hook whose target no longer exists is
reported as missing and its metrics are left out; the run goes on.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a root span
    unit: int
    name: str
    start: float
    end: float
    thread: str
    value: object  # layer-specific count or byte total, None if unknown


class Recorder:
    """Collects spans from every thread; parents follow the calling thread's
    open spans, and a span opened on a pool thread with no open span of its own
    hangs under the innermost open span of the thread that runs the units."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._broken: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None, measure=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``measure(args, result)``
        gives the span's value."""
        stack = self._stack()
        opener = stack or self._main
        parent = opener[-1][0] if opener else 0
        sid = next(self._ids)
        stack.append((sid, name))
        t0 = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            stack.pop()
        value = None
        if measure is not None:
            try:
                value = measure(args, result)
            except (AttributeError, TypeError, ValueError, IndexError) as exc:
                if name not in self._broken:
                    self._broken.add(name)
                    print(f"warning: cannot measure {name}: {exc}", file=sys.stderr)
        thread = threading.current_thread().name
        self.spans.append(Span(sid, parent, self.unit, name, t0, t1, thread, value))
        return result

    def inside(self, name: str) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1][1] == name


def _grid_bytes(args, result) -> int:
    grid, newly_solved = result
    return grid.ndview().nbytes if newly_solved else 0


def _transform_bytes(args, result) -> int:
    return args[0].nbytes + result.nbytes


def _solve_nodes(args, result) -> int:
    return result[0].ndview().size


def _plan_terms(args, result) -> int:
    return len(result)


def _check_failed(args, result) -> int:
    return 0 if result.passed else 1


class Hook(NamedTuple):
    module: str
    attr: str  # "Class.method" for a method
    span: str
    measure: Optional[Callable]
    metrics: tuple[str, ...]  # left out of the report when the hook is missing


_PLAN = ("combine.plan_build.calls", "combine.plan_build.s", "combine.plan.terms")
_VERIFY = ("verify.s", "verify.checks", "verify.failed")

HOOKS = (
    Hook("sparsecombine.pde", "sine_transform", "pde.transform", _transform_bytes,
         ("pde.transform.calls", "pde.transform.s", "pde.transform.bytes_computed")),
    Hook("sparsecombine.combine", "solve_poisson", "pde.solve", _solve_nodes,
         ("pde.solve.calls", "pde.solve.nodes", "pde.solve.s", "pde.solve.self_s",
          "combine.workers_seen")),
    Hook("sparsecombine.cli", "builtin_sine_problem", "pde.rhs", None,
         ("pde.rhs.calls", "pde.rhs.s")),
    Hook("sparsecombine.combine", "multilinear_eval", "grid.interp", None,
         ("grid.interp.calls", "grid.interp.s")),
    Hook("sparsecombine.combine", "evaluate_plan", "combine.evaluate", None,
         ("combine.evaluate.calls", "combine.evaluate.s", "combine.evaluate.self_s")),
    Hook("sparsecombine.combine", "GridCache.get_or_solve", "combine.cache", _grid_bytes,
         ("combine.cache.lookups", "combine.cache.misses", "combine.cache.hit_ratio",
          "combine.cache.wait_s", "combine.cache.bytes_computed")),
    Hook("sparsecombine.combine", "ho_plan", "combine.plan_build", _plan_terms, _PLAN),
    Hook("sparsecombine.combine", "standard_plan", "combine.plan_build", _plan_terms, _PLAN),
    Hook("sparsecombine.cli", "ho_plan", "combine.plan_build", _plan_terms, _PLAN),
    Hook("sparsecombine.cli", "standard_plan", "combine.plan_build", _plan_terms, _PLAN),
    Hook("sparsecombine.cli", "hierarchical_surplus_study", "combine.study", None,
         ("combine.study.self_s",)),
    Hook("sparsecombine.cli", "plan_to_dict", "combine.plan_export", None,
         ("combine.plan_export.s",)),
    Hook("sparsecombine.cli", "check_normalization", "verify", _check_failed, _VERIFY),
    Hook("sparsecombine.cli", "check_cancellation_system", "verify", _check_failed, _VERIFY),
    Hook("sparsecombine.cli", "check_lemma_cancel", "verify", _check_failed, _VERIFY),
)


class Hooks:
    """Resolves every hook target once; ``install``/``uninstall`` swap the
    wrappers in and the originals back."""

    def __init__(self, rec: Recorder, hooks: Iterable[Hook] = HOOKS) -> None:
        self.rec = rec
        self.missing: list[str] = []
        self._slots: list[tuple[object, str, object, object]] = []
        fed: set[str] = set()
        all_metrics: set[str] = set()
        for hook in hooks:
            all_metrics.update(hook.metrics)
            owner, name, original = self._resolve(hook)
            if original is None:
                self.missing.append(f"{hook.module}.{hook.attr}")
                print(f"warning: hook {hook.module}.{hook.attr} not found",
                      file=sys.stderr)
                continue
            self._slots.append((owner, name, original, self._wrap(hook, original)))
            fed.update(hook.metrics)
        # A metric fed by several hooks is absent only when all of them are.
        self.absent = all_metrics - fed

    @staticmethod
    def _resolve(hook: Hook):
        try:
            owner = importlib.import_module(hook.module)
        except ImportError:
            return None, None, None
        *path, name = hook.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        return owner, name, original if callable(original) else None

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        rec = self.rec
        if hook.span == "pde.rhs":
            return self._wrap_problem(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if rec.inside(hook.span):  # ho_plan builds its standard plan inside
                return original(*args, **kwargs)
            return rec.call(hook.span, original, args, kwargs, hook.measure)

        return wrapper

    def _wrap_problem(self, factory: Callable) -> Callable:
        # The RHS sampler is the problem's own callable, so it is timed by
        # wrapping it on the problem that cli builds.
        rec = self.rec

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            problem = factory(*args, **kwargs)
            sample = getattr(problem, "rhs_grid", None)
            if sample is None or not dataclasses.is_dataclass(problem):
                return problem
            return dataclasses.replace(
                problem, rhs_grid=lambda level: rec.call("pde.rhs", sample, (level,))
            )

        return wrapper

    def install(self) -> None:
        for owner, name, _, wrapper in self._slots:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._slots:
            setattr(owner, name, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.sid] = (s.end - s.start) - covered
    return out
