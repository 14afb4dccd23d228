"""Spans around matprophet's module boundaries, for the benchmark's traced run.

The wrappers are installed on the module and class attributes that
matprophet's own callers look up (for example `engine.sample_value_matrix`,
`kernels.mc_max_weight`, `graphic.ex_ante_reduce`), so nothing under `src/`
changes. `Tracer.uninstall` puts every original object back.

A span is one call of one boundary: its name, start, end, parent span and
the operation that contains it. Spans stay in memory until `write_jsonl`.
"""

import functools
import hashlib
import inspect
import json
import math
import os
import sys
from time import perf_counter

LAYERS = ("cli", "io", "reduction", "graphic", "engine", "kernels",
          "matroids", "baselines")


def _arg(fn, name):
    """Accessor for argument `name` of `fn`, given (args, kwargs)."""
    pos = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kwargs: kwargs[name] if name in kwargs else args[pos]


def _outcomes(offsets):
    return math.prod(int(b - a) for a, b in zip(offsets[:-1], offsets[1:]))


def _instance_key(args, kwargs):
    """Digest of every array exact_reduce enumerates over."""
    h = hashlib.sha256()
    for a in list(args) + list(kwargs.values()):
        h.update(a.tobytes() if hasattr(a, "tobytes") else repr(a).encode())
    return h.hexdigest()[:16]


# (span name, owner, attribute, counter suffix, argument, argument -> count)
# The owner is a module name, or "module:Class" for a method. The span name
# is the layer (the module that defines the code) and the function.
BOUNDARIES = (
    ("cli", "cli", "main", None, None, None),
    ("io.load_instance", "io", "load_instance", None, None, None),
    ("io.write_csv", "cli", "_write_csv", "bytes", "path", os.path.getsize),
    ("reduction.ex_ante_reduce", "reduction", "ex_ante_reduce",
     None, None, None),
    ("reduction.prophet_value_exact", "reduction", "prophet_value_exact",
     None, None, None),
    ("reduction.sample_value_matrix", "reduction", "sample_value_matrix",
     "rows", "trials", int),
    ("kernels.exact_reduce", "kernels", "exact_reduce",
     "outcomes", "offsets", _outcomes),
    ("kernels.mc_max_weight", "kernels", "mc_max_weight",
     "rows", "values", len),
    ("kernels.mc_online_graphic", "kernels", "mc_online_graphic",
     "rows", "values", len),
    ("kernels.rule_value_exact", "kernels", "rule_value_exact",
     "patterns", "cons", lambda cons: 2 ** len(cons)),
    ("kernels.connect_probability", "kernels", "connect_probability",
     "patterns", "members", lambda members: 2 ** len(members)),
    ("kernels.expected_cut_objective", "kernels", "expected_cut_objective",
     "cuts", "assign", lambda assign: 2 ** int((assign < 0).sum())),
    ("graphic.consider_matrix", "graphic:GraphicRandomCut", "consider_matrix",
     None, None, None),
    ("graphic.build", "graphic:GraphicRandomCut", "build", None, None, None),
    ("graphic.blocking_probability", "graphic", "blocking_probability",
     None, None, None),
    ("graphic.cut_bound_exact", "graphic", "cut_bound_exact",
     None, None, None),
    ("graphic.derandomize_cut", "graphic", "derandomize_cut",
     None, None, None),
    ("engine.monte_carlo_ratio", "engine", "monte_carlo_ratio",
     None, None, None),
    ("engine.execute_online", "engine", "execute_online", None, None, None),
    ("engine.expected_value_exact", "engine", "expected_value_exact",
     None, None, None),
    ("engine.expected_rule_value", "engine", "expected_rule_value",
     None, None, None),
    ("matroids.max_weight_basis", "matroids:Matroid", "max_weight_basis",
     None, None, None),
    ("matroids.polytope_slack", "matroids:Matroid", "polytope_slack",
     None, None, None),
    ("baselines.make_baseline", "baselines", "make_baseline",
     None, None, None),
)

SUFFIX = {name: suffix for name, _, _, suffix, _, _ in BOUNDARIES
          if suffix and name != "kernels.exact_reduce"}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "matprophet" or name.startswith("matprophet."))]


class Tracer:
    """Records spans while installed; `spans` holds one list per call:
    [id, parent id, operation id, name, start, end, count, key]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, count_of=None, key_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.op, name,
                   perf_counter(), None, None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if count_of is not None:
                rec[6] = count_of(args, kwargs)
            if key_of is not None:
                rec[7] = key_of(args, kwargs)
            return result

        return traced

    def install(self):
        """Wrap every boundary, at every place in the package that holds a
        reference to it (modules import names with `from . import`)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for name, owner, attr, _, arg, fn in BOUNDARIES:
            mod_name, _, cls_name = owner.partition(":")
            holder = sys.modules[f"matprophet.{mod_name}"]
            if cls_name:
                holder = getattr(holder, cls_name)
            original = getattr(holder, attr)
            count_of = key_of = None
            if arg is not None:
                get = _arg(original, arg)
                count_of = (lambda a, k, get=get, fn=fn: fn(get(a, k)))
            if name == "kernels.exact_reduce":
                key_of = _instance_key
            wrapper = self._wrap(name, original, count_of, key_of)
            targets = [(holder, attr)] if cls_name else [
                (m, a) for m in modules for a, v in list(vars(m).items())
                if v is original]
            for target, a in targets:
                setattr(target, a, wrapper)
                self._patched.append((target, a, original))

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def write_jsonl(self, path):
        keys = ("id", "parent", "op", "name", "start", "end", "count", "key")
        with open(path, "w") as fh:
            for rec in self.spans:
                doc = {k: v for k, v in zip(keys, rec) if v is not None}
                fh.write(json.dumps(doc) + "\n")


def self_times(spans):
    """Each span's duration minus the part of it that its child spans
    cover, keyed by span id."""
    children = {}
    for rec in spans:
        if rec[1] is not None:
            children.setdefault(rec[1], []).append((rec[4], rec[5]))
    out = {}
    for rec in spans:
        start, end = rec[4], rec[5]
        covered, reach = 0.0, start
        for a, b in sorted(children.get(rec[0], ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[rec[0]] = (end - start) - covered
    return out


def layer_metrics(spans, ops):
    """Per-operation means of calls, self time, total time and counters for
    every boundary, plus the self time of each layer and the enumeration
    counters of the reduction."""
    selfs = self_times(spans)
    m = {}
    for name, *_ in BOUNDARIES:
        m[f"{name}.calls"] = 0.0
        m[f"{name}.self_s"] = 0.0
        m[f"{name}.total_s"] = 0.0
    for name, suffix in SUFFIX.items():
        m[f"{name}.{suffix}"] = 0.0
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = 0.0
    outcomes, keys = 0, set()
    for rec in spans:
        name = rec[3]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += selfs[rec[0]]
        m[f"{name}.total_s"] += rec[5] - rec[4]
        if name != "cli":
            m[f"{name.split('.')[0]}.self_s"] += selfs[rec[0]]
        if name == "kernels.exact_reduce":
            outcomes += rec[6]
            keys.add((rec[2], rec[7]))
        elif rec[6] is not None:
            m[f"{name}.{SUFFIX[name]}"] += rec[6]
    out = {k: v / ops for k, v in m.items()}
    enum_calls = m["kernels.exact_reduce.calls"]
    enum_s = m["kernels.exact_reduce.total_s"]
    out["reduction.outcomes"] = outcomes / ops
    out["reduction.outcomes_per_s"] = outcomes / enum_s if enum_s else 0.0
    # distinct instances per operation / exact_reduce calls
    out["reduction.enum_reuse"] = len(keys) / enum_calls if enum_calls \
        else 0.0
    return out


def import_times(stderr):
    """Seconds of `python -X importtime` self time per package (numpy,
    scipy, matprophet); a module counts toward the innermost of those
    packages among itself and the modules that imported it."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us = int(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), self_us))
    totals = {"numpy": 0, "scipy": 0, "matprophet": 0}
    stack = []  # (depth, package) of the enclosing imports
    # importtime prints each module after the modules it imported, indented
    # deeper, so walking backwards visits importers first
    for depth, name, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        pkg = root if root in totals else (stack[-1][1] if stack else None)
        stack.append((depth, pkg))
        if pkg is not None:
            totals[pkg] += self_us
    return {pkg: us / 1e6 for pkg, us in totals.items()}
