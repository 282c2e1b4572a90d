"""Span tracing of the library from outside it.

``Tracer.install`` wraps every public function of each ``syncgames`` module
and rebinds the wrapper at every place a ``syncgames`` module (or the
benchmark's workloads module) binds the original, so calls made inside
``cli.main`` and inside conversions get spans too.  Nothing in the library
changes; ``uninstall`` restores every binding.

Each span records its name, parent span, start, end and instance id.  Spans
stay in memory and are written out once, when the run ends.  A layer is the
module that defines the function, except for the JSON codec (the
``to_json_dict`` / ``from_json_dict`` methods, ``matrix_to_json`` /
``matrix_from_json`` and the file read/write helpers), which is its own layer
so that module self times exclude serialisation.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

from syncgames.errors import BudgetError

from metrics import MAX_METRICS, PER_LAYER_UNITS

# Leaf constructors called inside every inner loop: a span each would cost more
# than the work it measures, so their time stays with the caller.
UNWRAPPED = {"as_matrix", "dagger", "identity", "label_to_json", "label_from_json"}
CODEC_DUMP = {"to_json_dict", "matrix_to_json", "_write_json", "write_json"}
CODEC_LOAD = {"from_json_dict", "matrix_from_json", "game_from_json_dict", "_read_json", "read_json"}
SEARCH_GAMES = {"find_deterministic_perfect"}
SEARCH_GRAPHS = {"alpha", "omega", "chi", "max_clique", "max_independent_set"}
GAME_BUILDERS = {"build_synbcs", "build_hom_game", "build_iso_game"}


def _relators(report) -> int:
    return (
        len(report.unitarity)
        + len(report.involutions)
        + len(report.mate_commutators)
        + len(report.j_commutators)
        + len(report.products)
    )


def _count_hook(name: str):
    """Counter update for a function's result, or None when it has no counter."""
    if name == "check_game_algebra_relations":
        def hook(c, args, kwargs, res):
            c["games.pairs_scanned"] += res.n_stored ** 2
            c["games.pairs_losing"] += res.n_losing_checked
    elif name == "norm2":
        def hook(c, args, kwargs, res):
            c["matops.norm2_calls"] += 1
    elif name in GAME_BUILDERS:
        def hook(c, args, kwargs, res):
            c["games.build_calls"] += 1
            c["games.outputs_built"] += len(res.outputs)
    elif name == "verify_rep":
        def hook(c, args, kwargs, res):
            c["solution_group.relators_checked"] += _relators(res)
    elif name in ("correlation_from_tracial", "correlation_from_bipartite"):
        def hook(c, args, kwargs, res):
            c["strategies.correlation_entries"] += len(res.p)
    elif name == "decompose_qs":
        def hook(c, args, kwargs, res):
            c["strategies.decompose_blocks"] += len(res)
    elif name == "hermitian_eig":
        def hook(c, args, kwargs, res):
            c["matops.eig_calls"] += 1
            c["matops.eig_dim_max"] = max(c["matops.eig_dim_max"], len(res.eigenvalues))
    elif name == "orthogonalize_family":
        def hook(c, args, kwargs, res):
            qs, report = res
            c["rounding.elements"] += len(qs)
            if report.budget > 0:
                used = report.max_distance / report.budget
                c["rounding.budget_used"] = max(c["rounding.budget_used"], used)
    elif name == "round_contraction":
        def hook(c, args, kwargs, res):
            c["rounding.elements"] += 1
    elif name == "_write_json":
        def hook(c, args, kwargs, res):
            c["cli.json_bytes"] += os.path.getsize(args[0])
    elif name == "write_json":
        def hook(c, args, kwargs, res):
            c["cli.json_bytes"] += res
    elif name in ("alpha", "omega", "chi"):
        def hook(c, args, kwargs, res):
            c["graphs.vertices"] += args[0].n
            c["graphs.edges"] += len(args[0].edges)
    else:
        return None
    return hook


class Tracer:
    """Records spans around calls into the library; one instance per traced run."""

    def __init__(self):
        self.names: list = []          # span name per name index
        self.layer_of: list = []       # layer per name index
        self.spans: list = []          # (id, parent, name_idx, start, end, instance, budget_error)
        self.counts = defaultdict(lambda: defaultdict(float))  # instance -> counter -> value
        self.instance = -1
        self._stack: list = []         # (span id, name index) of the open spans
        self._next_id = 0
        self._restore: list = []

    # ------------------------------------------------------------ wrapping --

    def _wrap(self, fn, name: str, layer: str):
        name_idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        hook = _count_hook(fn.__name__)
        if fn.__name__ in SEARCH_GRAPHS:
            hook = self._outermost_search_only(hook)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            stack.append((span_id, name_idx))
            budget_error = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BudgetError:
                budget_error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name_idx, start, end, tracer.instance, budget_error))
            if hook is not None:
                hook(tracer.counts[tracer.instance], args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _outermost_search_only(self, hook):
        """Count a graph search's sizes only when no other graph search encloses it
        (alpha calls max_independent_set, which calls max_clique, on one graph)."""
        if hook is None:
            return None

        def outer_hook(c, args, kwargs, res):
            if not any(self.names[name_idx].rsplit(".", 1)[-1] in SEARCH_GRAPHS
                       for _, name_idx in self._stack):
                hook(c, args, kwargs, res)

        return outer_hook

    def install(self, extra_modules=()) -> None:
        """Wrap the library's public functions and codec methods, and rebind the
        wrappers in every syncgames module and in ``extra_modules``."""
        modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("syncgames") and m]
        replacement = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if attr in UNWRAPPED or (attr.startswith("_") and attr not in CODEC_DUMP | CODEC_LOAD):
                        continue
                    layer = "codec" if attr in CODEC_DUMP | CODEC_LOAD else short
                    replacement[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}", layer))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_codec_methods(obj, short)
        for module in extra_modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in ("write_json", "read_json"):
                obj = getattr(module, attr, None)
                if obj is not None:
                    replacement[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}", "codec"))
        for module in modules + list(extra_modules):
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                entry = replacement.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, entry[1])

    def _wrap_codec_methods(self, cls, short: str) -> None:
        for attr in ("to_json_dict", "from_json_dict"):
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, "codec"))
            else:
                wrapped = self._wrap(raw, name, "codec")
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---------------------------------------------------------- aggregation --

    def per_layer(self, instance_times: list) -> dict:
        """Per-instance layer metrics over the traced instances that completed."""
        instances = {k for k, _ in instance_times}
        n = max(len(instances), 1)
        by_id = {s[0]: s for s in self.spans if s[5] in instances}
        child_time = defaultdict(float)
        for sid, parent, _, start, end, _, _ in by_id.values():
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)

        def outermost(span, group) -> bool:
            parent = span[1]
            while parent >= 0:
                ancestor = by_id[parent]
                if self.names[ancestor[2]].rsplit(".", 1)[-1] in group:
                    return False
                parent = ancestor[1]
            return True

        top_level = 0.0
        for span in by_id.values():
            sid, parent, name_idx, start, end, _, budget_error = span
            duration = end - start
            layer = self.layer_of[name_idx]
            func = self.names[name_idx].rsplit(".", 1)[-1]
            totals[f"{layer}.self_s"] += duration - child_time[sid]
            if layer == "gf2":
                totals["gf2.calls"] += 1
            if parent < 0:
                top_level += duration
            if func in CODEC_DUMP and outermost(span, CODEC_DUMP | CODEC_LOAD):
                totals["cli.json_dump_s"] += duration
            elif func in CODEC_LOAD and outermost(span, CODEC_DUMP | CODEC_LOAD):
                totals["cli.json_load_s"] += duration
            if func in SEARCH_GAMES and outermost(span, SEARCH_GAMES):
                totals["games.search_s"] += duration
            if func in SEARCH_GRAPHS and outermost(span, SEARCH_GRAPHS):
                totals["graphs.search_s"] += duration
            if layer == "graphs" and budget_error:
                parent_layer = self.layer_of[by_id[parent][2]] if parent >= 0 else None
                if parent_layer != "graphs":
                    totals["graphs.budget_refusals"] += 1
        maxima = defaultdict(float)
        for k in instances:
            for key, value in self.counts[k].items():
                if key in MAX_METRICS:
                    maxima[key] = max(maxima[key], value)
                else:
                    totals[key] += value
        totals["bench.unattributed_s"] = sum(t for _, t in instance_times) - top_level
        metrics = {}
        for name in PER_LAYER_UNITS:
            if name in MAX_METRICS:
                metrics[name] = maxima[name]
            elif name.startswith("trace."):
                continue
            elif name == "cli.json_mb":
                metrics[name] = totals["cli.json_bytes"] / n / 1e6
            elif name == "games.losing_ratio":
                scanned = totals["games.pairs_scanned"]
                metrics[name] = totals["games.pairs_losing"] / scanned if scanned else 0.0
            else:
                metrics[name] = totals[name] / n
        metrics["trace.spans"] = len(by_id) / n
        return metrics

    def dump(self, path: str) -> None:
        """Write every span, with times in microseconds from the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        text = json.dumps(
            {
                "fields": ["id", "parent", "name", "start_us", "end_us", "instance", "budget_error"],
                "names": self.names,
                "layers": self.layer_of,
                "spans": [
                    [s[0], s[1], s[2], round((s[3] - origin) * 1e6, 1),
                     round((s[4] - origin) * 1e6, 1), s[5], int(s[6])]
                    for s in sorted(self.spans)
                ],
            },
            separators=(",", ":"),
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
