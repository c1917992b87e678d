"""Spans around calls into foamlab's modules, installed from outside the program.

`patch_layers` replaces every public function bound in a foamlab module's
namespace (including names one module imports from another) and every
public method of a class a module defines with a wrapper made by a
factory.  Modules call each other through those namespace bindings, so
the wrappers see every cross-module call.  Dataclass defaults such as
`field(default_factory=default_constants)` are called through a reference
the generated __init__ captured, so that reference is wrapped too.

`Tracer` is one such factory.  It records a span (name, start, end,
parent, op id) for a call that enters a layer from a different layer, and
only counts a call made from inside the same layer, so the span list stays
small even when the bounce solver evaluates the gap 10^5 times per op.  A
layer is a module (`cli`, `report`, `montecarlo`, ...).  Self time is a
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import collections
import functools
import gzip
import time
import types
from pathlib import Path
from typing import Callable, Iterable

Factory = Callable[[Callable, str, str], "Callable | None"]


def patch_layers(modules: Iterable[types.ModuleType], factory: Factory) -> list[tuple]:
    """Wrap public foamlab callables; return the patches for `unpatch`.

    factory(fn, layer, name) returns the wrapper, or None to leave fn alone.
    One wrapper is made per function and shared by every namespace that
    binds it.
    """
    wrappers: dict[Callable, Callable | None] = {}
    patches: list[tuple] = []

    def wrapped(fn: Callable, qualname: str) -> Callable | None:
        if fn not in wrappers:
            layer = fn.__module__.rsplit(".", 1)[-1]
            wrappers[fn] = factory(fn, layer, f"{layer}.{qualname}")
        return wrappers[fn]

    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, types.FunctionType) and value.__module__.startswith("foamlab."):
                owners = [(module, attr, value, value.__qualname__)]
            elif isinstance(value, type) and value.__module__ == module.__name__:
                owners = [
                    (value, name, method, method.__qualname__)
                    for name, method in vars(value).items()
                    if not name.startswith("_") and isinstance(method, types.FunctionType)
                ]
                owners += _default_factories(value)
            else:
                continue
            for owner, name, fn, qualname in owners:
                wrapper = wrapped(fn, qualname)
                if wrapper is not None:
                    setattr(owner, name, wrapper)
                    patches.append((owner, name, fn))
    return patches


def _default_factories(cls: type) -> list[tuple]:
    """Closure cells through which a dataclass __init__ calls foamlab default factories.

    CPython's generated __init__ holds each default_factory in a free
    variable, named _dflt_<field> (3.11) or __dataclass_dflt_<field>__
    (3.12 on); a factory held any other way is left unwrapped.
    """
    init = vars(cls).get("__init__")
    if not isinstance(init, types.FunctionType) or not init.__closure__:
        return []
    cells = dict(zip(init.__code__.co_freevars, init.__closure__))
    owners = []
    for field in getattr(cls, "__dataclass_fields__", {}).values():
        fn = field.default_factory
        cell = cells.get(f"_dflt_{field.name}", cells.get(f"__dataclass_dflt_{field.name}__"))
        if isinstance(fn, types.FunctionType) and fn.__module__.startswith("foamlab.") and cell:
            owners.append((cell, "cell_contents", fn, fn.__qualname__))
    return owners


def unpatch(patches: list[tuple]) -> None:
    for owner, name, fn in reversed(patches):
        setattr(owner, name, fn)


class Tracer:
    """In-memory spans and call counts for one traced pass.

    `work` maps a function name to (counter, amount(*args, **kwargs)) for
    counts read from a call's arguments, such as samples per MC call.
    """

    def __init__(self, work: dict[str, tuple[str, Callable]] | None = None) -> None:
        self.work = work or {}
        self.op = -1
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.calls: collections.Counter[str] = collections.Counter()
        self.amounts: collections.Counter[str] = collections.Counter()
        self._stack: list[tuple[int, str]] = []

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        work = self.work.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if work is not None:
                self.amounts[work[0]] += work[1](*args, **kwargs)
            stack = self._stack
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1][0] if stack else -1)
            self.ops.append(self.op)
            self.ends.append(0)
            stack.append((index, layer))
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[index] = clock()
                stack.pop()

        return traced

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Total self time per layer over every recorded span."""
        child_ns = [0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[index] - self.starts[index]
        totals: collections.Counter[str] = collections.Counter()
        for index, name in enumerate(self.names):
            own = self.ends[index] - self.starts[index] - child_ns[index]
            totals[name.split(".", 1)[0]] += own
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def calls_in_layer(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.split(".", 1)[0] == layer)

    def write(self, path: Path) -> None:
        """Write the spans as gzip'd tab-separated lines, one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for index, name in enumerate(self.names):
                handle.write(
                    f"{self.ops[index]}\t{index}\t{self.parents[index]}\t{name}\t"
                    f"{self.starts[index]}\t{self.ends[index]}\n"
                )
