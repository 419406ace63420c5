"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions listed in TARGETS with
wrappers: every reference to a function in any loaded `ovalbent` module
(or the class attribute, for methods) points at the wrapper until
`uninstall`.  A wrapper either records a span (name, start, end, parent,
phase, command id) or only counts the call, for functions that run too
often to time or whose count is what matters.  Spans stay in memory; `dump` writes them
out at the end.

Layers are the module names.  A span's self time is its duration minus
the durations of its child spans and of the tracer's own bookkeeping for
them (digests and work counts).  Timestamps are integer nanoseconds, so
the subtraction is exact.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from math import comb

SPAN, COUNT = "span", "count"


def _digest(arr) -> bytes:
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def _scan_work(args, kwargs, out) -> int:
    """Triples examined by the lexicographic scan up to its return value."""
    n = args[0].shape[0]
    i, j, k = (int(v) for v in out)
    if i < 0:
        return comb(n, 3)
    before = sum(comb(n - 1 - a, 2) for a in range(i))
    before += sum(n - 1 - b for b in range(i + 1, j))
    return before + (k - j)


def _butterfly_work(args, kwargs, out) -> int:
    size = args[0].shape[0]
    return (size.bit_length() - 1) * size


# (layer, function, mode, stats, work, key)
#   stats: the per-layer metrics emitted for the function
#   work:  f(args, kwargs, result) -> count, for the computed `.work` stat
#   key:   f(args, kwargs) -> hashable input identity, for `.per_<x>` stats
TARGETS = [
    ("cli", "main", SPAN, ("self_s",), None, None),

    ("gf", "field_make", SPAN, ("self_s",), None, None),
    ("gf", "FieldParams.line_trace_basis", SPAN, ("self_s",), None, None),
    ("gf", "FieldParams.unit_class_table", SPAN, ("self_s",), None, None),
    ("gf", "FieldParams.tr_mask_table", SPAN, ("self_s",), None, None),
    ("gf", "BinaryField.__init__", COUNT, ("calls",), None, None),
    ("gf", "BinaryField.dot_mask", COUNT, ("calls",), None, None),

    ("boolfn", "walsh_transform", SPAN, ("calls", "self_s", "points", "per_table"),
     lambda a, kw, out: 1 << a[0].k, lambda a, kw: _digest(a[0].table)),
    ("boolfn", "is_bent", SPAN, ("self_s",), None, None),
    ("boolfn", "dual", SPAN, ("self_s",), None, None),
    ("boolfn", "degree", SPAN, ("self_s",), None, None),
    ("boolfn", "quadratic_rank", SPAN, ("self_s",), None, None),

    *[("niho", fn, SPAN, ("self_s",), None, None) for fn in (
        "g_of_spec", "bent_from_g", "line_oval_from_g", "dual_walsh",
        "dual_product_formula", "dual_budaghyan", "smallest_half_trace")],

    ("geometry", "line_cover_counts", SPAN, ("calls", "self_s", "per_line_set"),
     None, lambda a, kw: tuple(a[0])),
    ("geometry", "line_points", SPAN, ("calls", "self_s"), None, None),
    ("geometry", "verify_oval", SPAN, ("self_s",), None, None),
    ("geometry", "direction_tag", COUNT, ("calls",), None, None),
    *[("geometry", fn, SPAN, ("self_s",), None, None) for fn in (
        "catalog_oval", "verify_no_three_concurrent", "dual_points_to_lines",
        "dual_lines_to_points")],

    *[("spread", fn, SPAN, ("self_s",), None, None) for fn in (
        "luneburg", "kantor_chain", "field_pqf", "Prequasifield.from_evaluator",
        "validate_prequasifield", "is_symplectic", "sqrt_diag_g_table",
        "spreads_perpendicular", "knuth_orbit", "loads_pqf", "dumps_pqf")],
    ("spread", "transpose_pqf", SPAN, ("calls", "self_s", "per_pqf"),
     None, lambda a, kw: _digest(a[0].table)),
    ("spread", "adjoint", SPAN, ("calls", "self_s"), None, None),

    *[("spreadbent", fn, SPAN, ("self_s",), None, None) for fn in (
        "analyze", "bent_bivariate", "dual_walsh", "dual_product", "dual_chi_swap")],
    ("spreadbent", "bent_criterion", SPAN, ("calls", "self_s"), None, None),
    ("spreadbent", "line_oval_bivariate", SPAN, ("calls", "self_s"), None, None),
    ("spreadbent", "normalize_mu", COUNT, ("calls",), None, None),
    ("spreadbent", "star_table", COUNT, ("calls",), None, None),

    ("kernels", "walsh_inplace", SPAN, ("calls", "self_s", "work"), _butterfly_work, None),
    ("kernels", "mobius_inplace", SPAN, ("calls", "self_s", "work"), _butterfly_work, None),
    ("kernels", "niho_table_fill", SPAN, ("calls", "self_s", "work"),
     lambda a, kw, out: a[0].shape[0] * (a[2].shape[0] - 1), None),
    ("kernels", "univariate_product_dual", SPAN, ("calls", "self_s", "work"),
     lambda a, kw, out: a[0].shape[0] * a[6].shape[0], None),
    ("kernels", "line_cover_counts", SPAN, ("calls", "self_s", "work"),
     lambda a, kw, out: a[0].shape[0] << a[1], None),
    ("kernels", "bivariate_table_fill", SPAN, ("calls", "self_s", "work"),
     lambda a, kw, out: a[0].shape[0] ** 2, None),
    ("kernels", "bivariate_product_dual", SPAN, ("calls", "self_s", "work"),
     lambda a, kw, out: a[0].shape[0] ** 2, None),
    ("kernels", "collinear_scan", SPAN, ("calls", "self_s", "work"), _scan_work, None),
    ("kernels", "linear_map_table", SPAN, ("calls", "self_s", "work"),
     lambda a, kw, out: 1 << a[1], None),
]

LAYERS = ("cli", "gf", "boolfn", "niho", "geometry", "spread", "spreadbent", "kernels")

# layers predicted to see no call at all on a workload
BYPASS = {"univariate": ("spread", "spreadbent"),
          "ovals": ("boolfn", "niho", "spread", "spreadbent"),
          "spreads": ("niho", "geometry")}


def metric_name(layer: str, fn: str, stat: str) -> str:
    return f"{layer}.{fn.replace('__init__', 'init')}.{stat}"


def metric_names() -> list[str]:
    """Every per-layer metric, in TARGETS order, then the layer totals."""
    names = [metric_name(layer, fn, stat)
             for layer, fn, _, stats, _, _ in TARGETS for stat in stats]
    return names + [f"{layer}.{stat}" for layer in LAYERS for stat in ("calls", "self_s")]


def unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return "s" if stat == "self_s" else "1" if stat.startswith("per_") else "count"


# span record fields
NAME, START, END, PARENT, PHASE, CMD, EXTRA_NS, WORK, KEY = range(9)


class Tracer:
    """Spans and call counts of the wrapped functions, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()     # (phase, name) -> calls
        self.phase = None                    # None: wrappers pass straight through
        self.cmd = None                      # id of the command being run
        self._stack: list[int] = []
        self._restore: list = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, work, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.phase, tracer.cmd,
                   0, None, None]
            tracer.spans.append(rec)
            stack.append(len(tracer.spans) - 1)
            rec[START] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if work or key:
                t0 = rec[END]
                rec[WORK] = work(args, kwargs, out) if work else None
                rec[KEY] = key(args, kwargs) if key else None
                if stack:   # bookkeeping is not the caller's own work
                    tracer.spans[stack[-1]][EXTRA_NS] += time.perf_counter_ns() - t0
            return out
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.phase is not None:
                tracer.counts[(tracer.phase, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ovalbent" or n.startswith("ovalbent."))]
        for layer, fn, mode, _, work, key in TARGETS:
            name = metric_name(layer, fn, "")[:-1]
            mod = importlib.import_module(f"ovalbent.{layer}")
            owner_name, _, attr = fn.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                orig = raw.__func__ if is_cm else raw
                w = (self._span_wrapper(name, orig, work, key) if mode == SPAN
                     else self._count_wrapper(name, orig))
                setattr(owner, attr, classmethod(w) if is_cm else w)
                self._restore.append((owner, attr, raw))
                continue
            orig = getattr(mod, attr)
            w = (self._span_wrapper(name, orig, work, key) if mode == SPAN
                 else self._count_wrapper(name, orig))
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, w)
                        self._restore.append((m, k, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Self time of every span: duration minus child spans' durations
        and the bookkeeping done for them."""
        out = [s[END] - s[START] - s[EXTRA_NS] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def metrics(self, phases) -> dict[str, float]:
        """Per-layer metrics over the spans and counts of the given phases."""
        self_ns = self.self_ns()
        calls, self_t, work, keys = Counter(), Counter(), Counter(), defaultdict(set)
        layer_calls, layer_self = Counter(), Counter()
        phases = set(phases)
        for i, s in enumerate(self.spans):
            if s[PHASE] not in phases:
                continue
            name = s[NAME]
            calls[name] += 1
            self_t[name] += self_ns[i]
            if s[WORK] is not None:
                work[name] += s[WORK]
            if s[KEY] is not None:
                keys[name].add((s[CMD], s[KEY]))
            layer = name.split(".", 1)[0]
            layer_calls[layer] += 1
            layer_self[layer] += self_ns[i]
        for (phase, name), n in self.counts.items():
            if phase in phases:
                calls[name] += n
                layer_calls[name.split(".", 1)[0]] += n

        out = {}
        for layer, fn, _, stats, _, _ in TARGETS:
            name = metric_name(layer, fn, "")[:-1]
            for stat in stats:
                if stat == "calls":
                    v = calls[name]
                elif stat == "self_s":
                    v = self_t[name] / 1e9
                elif stat in ("work", "points"):
                    v = work[name]
                else:   # per_table, per_line_set, per_pqf: calls per distinct input
                    v = calls[name] / len(keys[name]) if keys[name] else 0.0
                out[metric_name(layer, fn, stat)] = v
        for layer in LAYERS:
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        return out

    def dump(self, path) -> None:
        """Spans as JSON: [name, start_ns, end_ns, parent, phase, command] each."""
        with open(path, "w") as fh:
            json.dump({"spans": [s[:CMD + 1] for s in self.spans],
                       "counts": [[p, n, c] for (p, n), c in self.counts.items()]},
                      fh, separators=(",", ":"))


def median_metrics(tracer: Tracer, base_phase, pass_phases) -> dict[str, float]:
    """Per-layer metrics of the set-up plus one pass, median over passes."""
    per_pass = [tracer.metrics({base_phase, p}) for p in pass_phases]
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
