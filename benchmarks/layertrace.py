"""Outside-in per-layer tracing of the symop package.

The tracer patches the layers' public functions (and a few named private
hot spots) from outside: nothing under src/ knows it is being measured.
Each call becomes a span on an in-memory stack; at exit its duration is
charged to the parent span as child time, and duration minus child time
is the span's self time.  Spans are aggregated on the fly per
(parent name, name) edge, because a single catalog run makes millions of
calls and keeping every span would distort the memory it measures.

Generators are timed across their whole iteration: every resume runs
inside a span, so a consumer that drains `_fill` is not charged for the
enumeration it drives.
"""

import inspect
import time

LAYERS = ("partitions", "coeffs", "symfunc", "operators", "tableaux", "identities")
ROOT = "bench"

# span names for entry points that are not plain public module functions
_EXTRA = {
    ("tableaux", "_fill"): "tableaux.fill",
    ("operators", "_integer_rank"): "operators.rank",
}
_METHODS = {
    ("symfunc", "SymFunc", "__init__"): "symfunc.construct",
    ("symfunc", "SymFunc", "__eq__"): "symfunc.eq",
    ("symfunc", "SymFunc", "homogeneous_component"): "symfunc.homogeneous_component",
    ("operators", "OperatorExpr", "__init__"): "operators.expr",
    ("operators", "OperatorExpr", "apply"): "operators.apply",
    ("operators", "TruncatedMatrix", "__init__"): "operators.TruncatedMatrix",
    ("partitions", "SkewShape", "__init__"): "partitions.SkewShape",
    ("tableaux", "SSYT", "__init__"): "tableaux.SSYT",
    ("tableaux", "ASSYT", "__init__"): "tableaux.ASSYT",
}
# `operators.apply(expr, g)` only forwards to the traced method of the same
# name; wrapping both would count every call twice.
_SKIP = {("operators", "apply")}


class Tracer:
    """Span stack plus per-edge aggregates.

    `edges[name][parent]` is [calls, self_s, items] for spans `name` opened
    while `parent` was the innermost open span.  Each open span is a
    [child_s, name] frame on `stack`; the bottom frame is the benchmark's
    own code.
    """

    def __init__(self):
        self.stack = [[0.0, ROOT]]
        self.edges = {}
        self._patches = []

    def wrap(self, name, fn, count_items=None):
        stack, clock = self.stack, time.perf_counter
        callers = self.edges.setdefault(name, {})

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                stat = callers.get(parent[1])
                if stat is None:
                    stat = callers[parent[1]] = [0, 0.0, 0]
                stat[0] += 1
                stat[1] += dt - frame[0]
                if count_items is not None:
                    stat[2] += count_items(args)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def wrap_gen(self, name, fn):
        """Wrap a generator function so that every resume is a span; calls
        counts generators made and items the values they yield."""
        stack, clock = self.stack, time.perf_counter
        callers = self.edges.setdefault(name, {})

        def stat_for(parent):
            stat = callers.get(parent)
            if stat is None:
                stat = callers[parent] = [0, 0.0, 0]
            return stat

        def drive(gen):
            try:
                while True:
                    parent = stack[-1]
                    frame = [0.0, name]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        parent[0] += dt
                        stat = stat_for(parent[1])
                        stat[1] += dt - frame[0]
                    stat[2] += 1
                    yield item
            finally:
                gen.close()

        def traced(*args, **kwargs):
            stat_for(stack[-1][1])[0] += 1
            return drive(fn(*args, **kwargs))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _patch(self, owner, attr, name, **kw):
        orig = getattr(owner, attr)
        if inspect.isgeneratorfunction(orig):
            new = self.wrap_gen(name, orig)
        else:
            new = self.wrap(name, orig, **kw)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, new)

    def install(self, modules):
        """Patch every layer module in `modules` (layer name -> module)."""
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if (layer, attr) in _SKIP:
                    continue
                if (layer, attr) in _EXTRA:
                    self._patch(mod, attr, _EXTRA[(layer, attr)])
                elif not attr.startswith("_"):
                    self._patch(mod, attr, f"{layer}.{attr}")
        for (layer, cls, attr), name in _METHODS.items():
            if layer not in modules or not hasattr(modules[layer], cls):
                continue
            kw = {}
            if name == "symfunc.construct":
                kw["count_items"] = lambda args: len(args[0].terms)
            self._patch(getattr(modules[layer], cls), attr, name, **kw)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def by_name(self):
        """name -> [calls, self_s, items], summed over callers."""
        return {
            name: [sum(stat[i] for stat in callers.values()) for i in range(3)]
            for name, callers in self.edges.items()
            if callers
        }


def memo_tables(modules):
    """Every functools.cache table in the given modules: name -> function.

    Taken before the tracer patches anything, so the cache objects are the
    originals and their counters are those the program keeps.
    """
    out = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if callable(obj) and hasattr(obj, "cache_info"):
                out[f"{layer}.{attr}"] = obj
    return out


def memo_snapshot(tables, coeffs_mod):
    """Counters of every memo table: name -> (hits, misses, entries)."""
    snap = {}
    for name, fn in tables.items():
        info = fn.cache_info()
        snap[name] = (info.hits, info.misses, info.currsize)
    lr = getattr(coeffs_mod, "_LR_CACHE", None)
    snap["coeffs._LR_CACHE"] = (0, 0, len(lr) if lr is not None else 0)
    return snap
