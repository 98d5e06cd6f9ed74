"""Outside-in tracer: times the public functions of modules without editing them.

While a `Tracer` is active, every public module-level function of each
traced module (a callable defined in that module whose name has no leading
underscore; classes excluded) is replaced by a wrapper that records a span:
function name, layer, start, end, parent span, and whether it raised.  On
exit the original functions are put back.

Because the module attribute itself is replaced, calls through the module
(`protocol.stage3_filter(...)`) and calls inside the module by global name
both pass through the wrapper.

Limitation: a name bound with `from module import name` in another module
keeps pointing at the original function and is never wrapped there, for
example `check_unit_interval` as used by `protocol` and `fock_oracle`.  Its
time is counted in the caller's self time.  Methods, properties and class
constructors are not wrapped either.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    parent: int
    start: float
    end: float = 0.0
    raised: bool = False
    outermost: bool = True  # no enclosing span of the same function


@dataclass
class Summary:
    """Aggregates of one traced operation's spans."""

    root_s: float = 0.0
    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    raised: dict = field(default_factory=dict)
    incl_s: dict = field(default_factory=dict)


def layer_name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def public_functions(module) -> dict:
    """Name -> object of the functions the tracer wraps in `module`."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


class Tracer:
    """Context manager that wraps the public functions of `modules`."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._originals: list[tuple] = []

    def __enter__(self):
        try:
            for module in self.modules:
                layer = layer_name(module)
                for name, fn in public_functions(module).items():
                    self._originals.append((module, name, fn))
                    setattr(module, name, self._wrap(layer, name, fn))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        for module, name, fn in reversed(self._originals):
            setattr(module, name, fn)
        self._originals.clear()

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        full = f"{layer}.{name}"
        active[full] = 0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(full, layer, stack[-1] if stack else -1, clock(), outermost=not active[full])
            stack.append(len(spans))
            spans.append(span)
            active[full] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                active[full] -= 1

        return wrapper

    def take(self) -> Summary:
        """Summarise the spans recorded since the last call and forget them.

        A span's self time is its duration minus the durations of its child
        spans (children of one span never overlap: the program is single
        threaded), so the layer self times add up to the root spans.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        out = Summary()
        for span, child_s in zip(spans, covered):
            duration = span.end - span.start
            if span.parent < 0:
                out.root_s += duration
            out.self_s[span.layer] = out.self_s.get(span.layer, 0.0) + duration - child_s
            out.calls[span.layer] = out.calls.get(span.layer, 0) + 1
            out.raised[span.layer] = out.raised.get(span.layer, 0) + span.raised
            if span.outermost:
                out.incl_s[span.name] = out.incl_s.get(span.name, 0.0) + duration
        spans.clear()
        return out
