"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps, by introspection, every public function and every public
method of a public class in the ``rca.*`` modules, plus the dense
``numpy.linalg`` routines the library calls (the ``lapack`` layer). A module
attribute is replaced wherever it holds the wrapped object, because the
library binds functions by name in several modules (``rca_fit`` lives in
``rca``, ``rca.cca``, ``rca.itrca`` and ``rca.cli``). Nothing is looked up by
a fixed list of names, so a function that the library drops simply stops
appearing in the trace.

Spans are recorded only inside an operation opened with ``Tracer.op``, so the
benchmark's own checks, which also call ``numpy.linalg``, are never counted.
"""

import functools
import importlib
import inspect
import os
import pkgutil
import time
from contextlib import contextmanager

import numpy as np

LAPACK_FUNCS = ("eigh", "eigvalsh", "cholesky", "solve", "inv", "svd", "qr",
                "slogdet")

# Span fields.
NAME, START, END, PARENT, OP, COUNTS = range(6)


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _text_bytes(text):
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


def _cells(a):
    return int(np.asarray(a).size) if a is not None else 0


# Work counted at the I/O boundary: name -> f(bound arguments, result).
# Arguments are bound to the original signature, so a renamed parameter only
# drops the count.
COUNTERS = {
    "io.load_csv": lambda a, r: {"bytes_read": _file_bytes(a.get("path")),
                                 "cells": _cells(r[0] if isinstance(r, tuple) else r)},
    "io.read_manifest": lambda a, r: {"bytes_read": _file_bytes(a.get("path"))},
    "io.atomic_write_text": lambda a, r: {"bytes_written": _text_bytes(a.get("text"))},
    "io.save_csv": lambda a, r: {"cells": _cells(a.get("matrix"))},
}


def package_modules(package):
    """The package and its public submodules, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        if not info.name.startswith("_"):
            mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def public_callables(package):
    """(qualified name, owner, attribute, function) for each public function
    and public-class method defined in the package's submodules; names are
    ``<module>.<function>`` or ``<module>.<Class>.<method>``."""
    found = []
    for mod in package_modules(package)[1:]:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                found.append((f"{short}.{attr}", mod, attr, obj))
            elif inspect.isclass(obj):
                for meth, fn in sorted(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        found.append((f"{short}.{attr}.{meth}", obj, meth, fn))
    return found


class Tracer:
    """Spans are lists [name, start, end, parent index, op id, counts]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op_kinds = []
        self._stack = []
        self._op = None
        self._restore = []

    # ------------------------------------------------------------ recording

    def _enter(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = self.clock()
        return span

    def _exit(self, span):
        span[END] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        try:
            signature = inspect.signature(fn) if counter else None
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    span[COUNTS] = counter(bound, result)
                except (TypeError, IndexError, KeyError):
                    pass
            return result

        return traced

    @contextmanager
    def op(self, kind):
        """One operation: the root span ``bench.op``, tagged with its kind."""
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        span = self._enter("bench.op")
        try:
            yield
        finally:
            self._exit(span)
            self._op = None

    # ------------------------------------------------------------ install

    def install(self, package):
        """Wrap every public callable of ``package`` and the lapack routines.
        Returns the sorted list of wrapped names."""
        wrappers = {}
        names = []
        for name, owner, attr, fn in public_callables(package):
            wrapper = self.wrap(name, fn)
            wrappers[id(fn)] = (fn, wrapper)
            names.append(name)
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
        for mod in package_modules(package):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for attr in LAPACK_FUNCS:
            fn = getattr(np.linalg, attr, None)
            if fn is not None:
                self._set(np.linalg, attr, self.wrap(f"lapack.{attr}", fn))
                names.append(f"lapack.{attr}")
        return sorted(names)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def has_ancestor(self, index, name):
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def dump(self):
        """Spans as JSON-ready dicts."""
        return [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "op": s[OP], "kind": self.op_kinds[s[OP]],
                 **({"counts": s[COUNTS]} if s[COUNTS] else {})}
                for s in self.spans]
