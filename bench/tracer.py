"""Outside-in tracing of the padiclt package.

The tracer wraps the public functions of every ``padiclt`` module and the
public methods of the classes those modules define, without touching the
package source.  A module that did ``from .padics import scalar_mul`` holds
its own reference to the function, so every module attribute that *is* the
original function object is rebound to the wrapper; methods are patched on
their class.  ``restore`` puts every original object back.

For each traced name the tracer keeps a call count, self time (duration
minus the time covered by traced children) and inclusive time (outermost
activations only, so recursion is not counted twice).  Calls of the names
passed as ``span_names`` are also kept as spans: name, start, end, parent
span and request id.  Spans stay in memory until ``spans_json`` is called;
hot leaf functions are aggregated only, because a pass makes millions of
those calls.
"""

from __future__ import annotations

import inspect
import sys
import time

PACKAGE = "padiclt"


def package_modules() -> list:
    """The imported modules of the package, by name."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def bindings() -> dict:
    """(module, [class,] attribute) -> object, for every module and class
    attribute of the package; compare two of these by identity to check
    that ``Tracer.restore`` put every original back."""
    out = {}
    for module in package_modules():
        name = module.__name__
        for attr, obj in vars(module).items():
            out[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    out[(name, obj.__name__, cattr)] = cobj
    return out


def _targets(module, skip_classes):
    """(owner, attribute, traced name, original) for each public function."""
    short = module.__name__.rpartition(".")[2]
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, f"{short}.{attr}", obj
        elif inspect.isclass(obj) and obj.__name__ not in skip_classes:
            for mattr, mobj in list(vars(obj).items()):
                if not mattr.startswith("_") and (
                        inspect.isfunction(mobj) or isinstance(mobj, staticmethod)):
                    yield obj, mattr, f"{short}.{obj.__name__}.{mattr}", mobj


class Tracer:
    """Wraps the package's public functions; ``install``/``restore`` bracket use.

    skip_classes: names of classes whose methods stay unwrapped; their time
        is charged to the traced caller's self time.
    leaf_names: names that call no traced function; they get a cheaper
        wrapper, and ``leaf_violations`` counts traced calls made inside one.
    span_names: names whose calls are also kept as spans.
    under: pairs (child, ancestor); ``snapshot()["under"][pair]`` is the
        number of child calls made while ancestor was active up the stack.
    observers: name -> callable(args, result), run after each call of name.
    """

    def __init__(self, skip_classes=(), leaf_names=(), span_names=(), under=(),
                 observers=None):
        self.skip_classes = frozenset(skip_classes)
        self.leaf_names = frozenset(leaf_names)
        self.span_names = frozenset(span_names)
        self.under_pairs = tuple(under)
        self.observers = dict(observers or {})
        self.request = None  # id stamped on each span; the caller sets it per cell
        self.spans: list[list] = []  # [name, start, end, parent index, request]
        self._stats: dict[str, list] = {}  # name -> [calls, self_s, incl_s, active]
        self._under: dict[tuple[str, str], list] = {pair: [0] for pair in self.under_pairs}
        self._stack: list[float] = [0.0]  # child time of each open call; [0] is a sentinel
        self._span_stack: list[int] = []
        self._in_leaf = [0]
        self._leaf_violations = [0]
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        targets = [t for module in modules for t in _targets(module, self.skip_classes)]
        for _, _, name, _ in targets:
            self._stats.setdefault(name, [0, 0.0, 0.0, 0])
        wrappers: dict[int, tuple] = {}
        for owner, attr, name, original in targets:
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
                wrappers[id(original)] = (original, wrapped)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        # Rebind every other module attribute bound to a wrapped function,
        # e.g. ``from .padics import scalar_mul`` in domain.py.
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- recording

    def _wrap(self, name: str, fn):
        st = self._stats[name]
        stack, in_leaf, bad = self._stack, self._in_leaf, self._leaf_violations
        clock = time.perf_counter
        under = [(self._stats[anc], self._under[(child, anc)])
                 for child, anc in self.under_pairs if child == name and anc in self._stats]
        observer = self.observers.get(name)

        if name in self.leaf_names:
            # No traced call happens inside a leaf, so it needs no frame of
            # its own: self time is its duration, charged to the caller.
            def traced(*args, **kwargs):
                if in_leaf[0]:
                    bad[0] += 1
                for anc, count in under:
                    if anc[3]:
                        count[0] += 1
                in_leaf[0] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    in_leaf[0] -= 1
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt
                    stack[-1] += dt
        elif not under and observer is None and name not in self.span_names:
            def traced(*args, **kwargs):
                if in_leaf[0]:
                    bad[0] += 1
                st[0] += 1
                st[3] += 1
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    st[3] -= 1
                    st[1] += dt - stack.pop()
                    stack[-1] += dt
                    if not st[3]:
                        st[2] += dt
        else:
            as_span = name in self.span_names

            def traced(*args, **kwargs):
                if in_leaf[0]:
                    bad[0] += 1
                st[0] += 1
                for anc, count in under:
                    if anc[3]:
                        count[0] += 1
                st[3] += 1
                stack.append(0.0)
                if as_span:
                    span = self._open_span(name)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    st[3] -= 1
                    st[1] += dt - stack.pop()
                    stack[-1] += dt
                    if not st[3]:
                        st[2] += dt
                    if as_span:
                        self._close_span(span, t0, t1)
                if observer is not None:
                    observer(args, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _open_span(self, name: str) -> int:
        parent = self._span_stack[-1] if self._span_stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.request])
        self._span_stack.append(len(self.spans) - 1)
        return self._span_stack[-1]

    def _close_span(self, index: int, t0: float, t1: float) -> None:
        self._span_stack.pop()
        self.spans[index][1:3] = (t0, t1)

    # --------------------------------------------------------------- reading

    def names(self) -> list[str]:
        return sorted(self._stats)

    @property
    def leaf_violations(self) -> int:
        return self._leaf_violations[0]

    def snapshot(self) -> dict:
        """Copy of every counter, for differences between two points in time."""
        return {
            "calls": {n: s[0] for n, s in self._stats.items()},
            "self_s": {n: s[1] for n, s in self._stats.items()},
            "incl_s": {n: s[2] for n, s in self._stats.items()},
            "under": {pair: c[0] for pair, c in self._under.items()},
        }

    def spans_json(self) -> dict:
        """Spans in a compact form: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "columns": ["name", "start", "end", "parent", "request"],
                "rows": [[index[n], s, e, p, r] for n, s, e, p, r in self.spans]}
