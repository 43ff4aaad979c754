"""Layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions and methods of the safe_lsvi
modules with timing wrappers, and rebinds every name another module imported
(``bench`` looks up ``step``, ``policy_eval`` and ``constrained_dp`` in its own
namespace).  ``uninstall`` puts the originals back.  A span's self time is its
duration minus the spans that ran inside it, so the self times of all spans
add up to the time of the outermost ones.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from types import FunctionType

import numpy as np

from safe_lsvi import bench, costs, envs, lsvi, oracle, penalty

MODULES = (envs, lsvi, costs, penalty, oracle, bench)

# Span names that differ from "<module>.<function>".
RENAMES = {
    (lsvi.GramState, "update"): "lsvi.gram_update",
}
# The environment constructors run_experiment calls (through bench.build_env)
# all report as one layer.
ENV_BUILDERS = ("frozen_lake_from_grid", "build_synthetic_linear",
                "build_hard_instance")


class Span:
    """Per-name totals: call durations and self time."""

    def __init__(self):
        self.durations = array("d")
        self.self_s = 0.0

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return float(sum(self.durations))


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, int] = {}  # exact counts, e.g. kernel entries
        self.hooks: dict[str, list] = {}  # name -> [fn(args, kwargs, result)]
        self._stack: list[float] = []  # time covered by children, per open span
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, result_hook=None):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        hooks = self.hooks.setdefault(name, [])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if result_hook is not None:
                    result = result_hook(result)
            finally:
                dur = clock() - t0
                span.durations.append(dur)
                span.self_s += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            for hook in hooks:
                hook(args, kwargs, result)
            return result

        return traced

    def on_return(self, name: str, hook) -> None:
        """Call hook(args, kwargs, result) after each call of span `name`,
        outside the span's own timing."""
        self.hooks.setdefault(name, []).append(hook)

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _counted_kernel(self, kern):
        """Count the calls and entries of a kernel make_kernel returned.  No
        span: the GP lake calls it ~150k times per round, and timing each call
        would inflate the traced time by about a fifth."""
        count = self.count

        @functools.wraps(kern)
        def counted(a, b):
            result = kern(a, b)
            count("costs.kernel.calls", 1)
            count("costs.kernel.entries", np.size(result))
            return result
        return counted

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original function) -> wrapper
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    hook = self._counted_kernel if obj is costs.make_kernel else None
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj, hook)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(short, obj, mod.__file__)
        # Rebind every module-level name, including names imported from a
        # sibling module; bench's view of the env builders is one layer.
        builders = {id(getattr(envs, n)): self.wrap("envs.build", getattr(envs, n))
                    for n in ENV_BUILDERS}
        import safe_lsvi
        for mod in MODULES + (safe_lsvi,):
            for attr, obj in list(vars(mod).items()):
                if mod is bench and id(obj) in builders:
                    self._set(mod, attr, builders[id(obj)])
                elif id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, short: str, cls, source_file: str) -> None:
        for attr, obj in list(vars(cls).items()):
            # Methods written in the module's source; dataclass-generated
            # methods (compiled from "<string>") are left alone.
            if not isinstance(obj, FunctionType) \
                    or obj.__code__.co_filename != source_file:
                continue
            if attr in ("__init__", "__post_init__"):
                name = f"{short}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                name = RENAMES.get((cls, attr), f"{short}.{attr}")
            self._set(cls, attr, self.wrap(name, obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def tail_percentile(calls: int) -> float:
    """The highest of p99.9/p99/p90/p75 with at least ten calls beyond it;
    below forty calls only the median is reported."""
    for pct in (99.9, 99.0, 90.0, 75.0):
        if calls * (1.0 - pct / 100.0) >= 10.0 - 1e-9:
            return pct
    return 50.0


def span_stats(span) -> dict:
    """calls, busy_s, self_s, us_p50, us_tail and the tail's percentile;
    zeros for a span that never ran (None)."""
    if span is None or span.calls == 0:
        return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "us_p50": 0.0,
                "us_tail": 0.0, "tail_pct": 0.0}
    us = np.frombuffer(span.durations, dtype=float) * 1e6
    pct = tail_percentile(span.calls)
    return {"calls": span.calls, "busy_s": span.busy_s, "self_s": span.self_s,
            "us_p50": float(np.percentile(us, 50)),
            "us_tail": float(np.percentile(us, pct)), "tail_pct": pct}
