"""Span tracing of ptsl's module layers, installed from outside the package.

Every public function of a ptsl module is replaced, for the duration of a
traced batch, by a wrapper that records a span (name, start, end, parent).
Functions are wrapped where they are bound: in their own module and in every
ptsl module that imports them, so ``ptsl.edge.eig_complex`` and
``ptsl.bloch.eig_complex`` both record ``numerics.eig_complex``.  A span's
layer is the module that defines the function.

Two wrappers also read numbers off the calls: ``integrate_ode`` has its
right-hand-side callable wrapped as the span ``dynamics.rhs`` and reports
its step counts, and ``open_chain_hamiltonian`` reports the size of the
matrix that every right-hand-side call multiplies with.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """Records spans in memory while installed; one instance per traced batch."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.ode_runs: list[tuple[int, int, int]] = []  # (accepted steps, rhs calls, H bytes)
        self._stack: list[int] = []
        self._h_nbytes = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _hook_integrate_ode(self, integrate_ode):
        def hooked(rhs, *args, **kwargs):
            result = integrate_ode(self._wrap("dynamics.rhs", rhs), *args, **kwargs)
            self.ode_runs.append((result.steps, result.rhs_evaluations, self._h_nbytes))
            return result

        return hooked

    def _hook_hamiltonian(self, open_chain_hamiltonian):
        def hooked(*args, **kwargs):
            h = open_chain_hamiltonian(*args, **kwargs)
            self._h_nbytes = h.nbytes
            return h

        return hooked

    def install(self, modules) -> None:
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                origin = fn.__module__ or ""
                if not origin.startswith("ptsl."):
                    continue
                layer = origin.rsplit(".", 1)[1]
                target = fn
                if fn.__name__ == "integrate_ode":
                    target = self._hook_integrate_ode(fn)
                elif fn.__name__ == "open_chain_hamiltonian":
                    target = self._hook_hamiltonian(fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{fn.__name__}", target))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        """Write the spans as JSON lines [name, start_ns, end_ns, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self) -> tuple[Counter, dict, dict]:
        """Calls, inclusive seconds and self seconds per span name.

        A span's self time is its duration minus the durations of its direct
        children.
        """
        calls: Counter = Counter()
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_ns):
            calls[name] += 1
            inclusive[name] += (end - start) * 1e-9
            own[name] += (end - start - children) * 1e-9
        return calls, inclusive, own
