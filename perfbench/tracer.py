"""Boundary tracer for relmach, installed from benchmark code only.

A span is recorded at every call that crosses from one relmach module into
another: the wrappers replace functions at the module attributes their
callers look up (``cli.determinize``, ``io.load_file``, ...), and the
``__post_init__`` of classes whose construction validates input.  A call
made while the innermost open span belongs to the callee's own module is
passed straight through, so calls within one module, recursion included,
record nothing.  Recursive functions are never wrapped in their own module,
so the wrappers add no frame per recursion level.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the run ends; a span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import dis
import importlib
import os
import time
import types

MODULES = ("cli", "io", "relcore", "transducer", "automata", "simulation", "sofic", "diagram")

# Leaf helpers called per symbol or per tuple; a span each would cost more
# than the work.  Their time stays with the caller.
UNTRACED = {
    "relcore.is_unit", "relcore.obj", "relcore.pack_tuple", "relcore.tuple_symbol",
    "relcore.pair_symbol", "relcore.unpair_symbol",
}


def _states_out(args, result):
    return len(result[0].states)


COUNTS = {
    "relcore.Rel": ("relcore.Rel.pairs", lambda args, result: len(args[0].pairs)),
    "automata.determinize": ("automata.determinize.states_out", _states_out),
    "automata.minimize": ("automata.minimize.states_out", _states_out),
    "sofic.determinize_presentation": ("sofic.determinize_presentation.states_out", _states_out),
    "sofic.minimize_presentation": ("sofic.minimize_presentation.states_out", _states_out),
    "io.load_file": ("io.load_file.bytes", lambda args, result: os.path.getsize(args[0])),
    "io.dumps": ("io.dumps.bytes", lambda args, result: len(result.encode("utf-8"))),
}


def _recursive(fn) -> bool:
    """Whether the function's code (or code nested in it) reads its own global name."""
    todo = [fn.__code__]
    while todo:
        code = todo.pop()
        if any(i.opname == "LOAD_GLOBAL" and i.argval == fn.__name__ for i in dis.get_instructions(code)):
            return True
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.open: list[tuple[int, str]] = []  # (span index, module) of open spans
        self.counts: dict[str, int] = {metric: 0 for metric, _ in COUNTS.values()}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module: str, name: str, fn):
        spans, open_, clock = self.spans, self.open, time.perf_counter
        metric, measure = COUNTS.get(name, (None, None))
        counts = self.counts

        def traced(*args, **kwargs):
            if open_ and open_[-1][1] == module:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append([name, clock(), 0.0, open_[-1][0] if open_ else -1])
                open_.append((index, module))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    open_.pop()
                    spans[index][2] = clock()
            if metric:
                counts[metric] += measure(args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {n: importlib.import_module(f"relmach.{n}") for n in MODULES}
        wrapped: dict[int, tuple[str, object]] = {}  # id(function) -> (home module, wrapper)
        for home, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    name = f"{home}.{attr}"
                    if name not in UNTRACED:
                        wrapped[id(value)] = (home, self.wrap(home, name, value))
                elif isinstance(value, type) and value.__module__ == mod.__name__ \
                        and "__post_init__" in vars(value):
                    self._set(value, "__post_init__",
                              self.wrap(home, f"{home}.{attr}", vars(value)["__post_init__"]))
        for where, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType) or id(value) not in wrapped:
                    continue
                home, wrapper = wrapped[id(value)]
                # In its own module a function is replaced only when that adds no
                # frame per recursion level; callers reaching it as ``io.load_file``
                # or through a function-level import see this attribute.
                if where != home or not _recursive(value):
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layers(self) -> tuple[dict[str, float], dict[str, list]]:
        """Self seconds per module, and [self seconds, calls] per wrapped function."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        modules = {n: 0.0 for n in MODULES}
        functions: dict[str, list] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            own = end - start - inner
            modules[name.split(".", 1)[0]] += own
            entry = functions.setdefault(name, [0.0, 0])
            entry[0] += own
            entry[1] += 1
        return modules, functions

    def write(self, path: str) -> None:
        """Append the spans as tab-separated lines: name, start, end, parent."""
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def clear(self) -> None:
        self.spans.clear()
        for metric in self.counts:
            self.counts[metric] = 0
