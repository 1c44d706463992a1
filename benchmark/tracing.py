"""Per-layer tracing for the traced run: spans and counts recorded around
calls into porism's modules, kept in memory and summed per layer.

Each porism module is one layer.  Its public module-level functions are
wrapped in every module that holds them by name, and each call records a
span (name, start, end, parent).  Public methods and constructors of its
classes are wrapped too, but record a span only when called from another
layer, which keeps the span count bounded while still charging, say,
Conic methods called from process to projective.  Time in ``fields`` code
is charged to the layer that called it: field arithmetic is counted per
call (multiplications, inversions, fields built), not spanned, because a
span per field operation would cost more than the operation.

A layer's self time is the time its spans cover minus the time covered by
their child spans.
"""

import gzip
import inspect
import time
from array import array

SPAN_LAYERS = ("cli", "process", "projective", "poly", "ecurve", "char2")
# dunder methods of program classes that stand for real work
WRAPPED_DUNDERS = ("__init__", "__call__", "__divmod__", "__floordiv__",
                   "__mod__", "__mul__", "__add__", "__sub__", "__pow__")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.layers = [None]
        self.calls = []            # per name id, every call (spanned or not)
        self.hits = {}             # name -> calls whose result passed a test
        self.field_counts = {"mul": 0, "inv": 0, "built": 0}

    def _id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    # -- spans -------------------------------------------------------------
    def _wrap(self, fn, name, layer, always, test=None):
        nid = self._id(name)
        calls, stack, layers = self.calls, self.stack, self.layers
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end, clock = self.span_start, self.span_end, self.clock
        hits = self.hits

        def traced(*args, **kwargs):
            calls[nid] += 1
            if not always and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = clock()
                stack.pop()
                layers.pop()
            if test is not None and test(result):
                hits[name] = hits.get(name, 0) + 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def span(self, name):
        """Wrap a callable as a root-level span of its own layer (the
        benchmark's operation)."""
        return lambda fn: self._wrap(fn, name, name, True)

    def install(self, package, tests=None):
        """Patch the program's modules.  ``tests`` maps a span name to a
        predicate on the call's result that is counted in ``hits``."""
        tests = tests or {}
        modules = {name: getattr(package, name) for name in SPAN_LAYERS}
        modules["fields"] = package.fields
        for layer in SPAN_LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(obj, name, layer, True, tests.get(name))
                    for other in modules.values():
                        for oattr, oobj in list(vars(other).items()):
                            if oobj is obj:
                                setattr(other, oattr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, f"{layer}.{attr}", layer)
        self._install_fields(package.fields)

    def _install_class(self, cls, prefix, layer):
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue          # properties, classmethods, staticmethods
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            setattr(cls, attr, self._wrap(fn, f"{prefix}.{attr}", layer, False))

    def _install_fields(self, fields):
        counts = self.field_counts

        def counting(fn, key):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            counted.__name__ = getattr(fn, "__name__", key)
            return counted

        elem = fields.FieldElement
        mul = counting(elem.__mul__, "mul")
        elem.__mul__ = elem.__rmul__ = mul
        elem.inv = counting(elem.inv, "inv")
        for cls in (fields.PrimeField, fields.ExtensionField,
                    fields.RationalField, fields.QuadRationalField):
            cls.__init__ = counting(cls.__init__, "built")

    # -- results -------------------------------------------------------------
    def summary(self):
        """Per span name: spans, inclusive seconds and self seconds; and
        per layer: self seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_name = {}
        per_layer = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            own = dur[i] - child[i]
            rec = per_name.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += own
            layer = name.split(".")[0]
            per_layer[layer] = per_layer.get(layer, 0.0) + own
        return per_name, per_layer

    def calls_of(self, name):
        nid = self.name_ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path):
        """All spans as gzipped TSV: index, parent, name, start and end in
        microseconds from the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{(self.span_start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.span_end[i] - t0) * 1e6:.1f}\n")
