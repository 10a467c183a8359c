"""In-memory tracing of koopmankit from outside the package.

:class:`Tracer` replaces the public functions of each library module with
timing wrappers, wherever the package binds them: the defining module, every
module that imported the name (``koopmankit.control.integrate`` is
``koopmankit.dynamics.integrate``), and the package namespace. It also wraps
four methods of ``Polynomial`` and ``KoocController``. Nothing in the package is edited on disk, and
:meth:`Tracer.uninstall` puts every original back.

Most calls become spans (name, start, end, parent span), kept in memory and
written out when the run ends. Calls made once per point in an integration
loop (``Polynomial.__call__``, ``eval_library``, ``KoocController.feedback``)
take a few microseconds each, so they are only counted and timed, not kept
as spans. Self time is a call's duration minus the time of the traced calls
made inside it, spans and counted calls alike.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

MODULES = ("polynomials", "numerics", "dynamics", "lifting", "identification",
           "spectral", "control")

# (class path, method, counted-only) — the methods worth tracing
METHODS = (
    ("polynomials.Polynomial", "__call__", True),
    ("polynomials.Polynomial", "lie_derivative", True),
    ("polynomials.Polynomial", "compose", True),
    ("control.KoocController", "feedback", True),
)
COUNTED_ONLY = {"lifting.eval_library"}


class Stat:
    __slots__ = ("calls", "failed", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.failed = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Wraps koopmankit's public functions; see the module docstring.

    ``notes`` maps a traced name to a callback ``(tracer, args, result,
    self_s)`` run after each call (``result`` is ``None`` if it raised),
    outside the call's own timing, to record values such as trajectory
    lengths. Its cost still falls inside the caller's span, as overhead.
    """

    def __init__(self, notes=None):
        self.notes = dict(notes or {})
        self.stats = {}
        self.spans = []  # [name, start, end, parent index]
        self.values = {}  # totals that notes add to
        self._stack = []  # frames: [child seconds, span index]
        self._patches = []

    # -- installation --------------------------------------------------------

    def install(self):
        pkg = sys.modules["koopmankit"]
        mods = [sys.modules[f"koopmankit.{m}"] for m in MODULES]
        originals = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    originals[id(obj)] = (obj, self._wrap(obj, name, name in COUNTED_ONLY))
        for mod in [pkg, *mods]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patch(mod, attr, originals[id(obj)][1])
        for path, method, counted in METHODS:
            short, cls_name = path.split(".")
            cls = getattr(sys.modules[f"koopmankit.{short}"], cls_name)
            self._patch(cls, method, self._wrap(getattr(cls, method), f"{path}.{method}", counted))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, func, name, counted_only):
        stats = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans
        note = self.notes.get(name)

        def traced(*args, **kwargs):
            if counted_only:
                index = stack[-1][1] if stack else -1
            else:
                index = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1])
            frame = [0.0, index]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stats.failed += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self_s = end - start - frame[0]
                stats.calls += 1
                stats.total_s += end - start
                stats.self_s += self_s
                if not counted_only:
                    spans[index][1:3] = start, end
                if note is not None:
                    note(self, args, result, self_s)
                if stack:
                    stack[-1][0] += perf_counter() - start
            return result

        traced.__wrapped__ = func
        return traced

    # -- results -------------------------------------------------------------

    def add(self, key, amount=1):
        self.values[key] = self.values.get(key, 0) + amount

    def child_calls(self, parent, child):
        """Number of ``child`` spans opened directly inside a ``parent`` span."""
        spans = self.spans
        return sum(1 for name, _, _, up in spans
                   if name == child and up >= 0 and spans[up][0] == parent)

    def span_records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans]
