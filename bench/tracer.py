"""Outside-in tracing of homglue: spans around the public functions of each
module, recorded from the benchmark's own code without touching the
program.

install() rebinds every traced function wherever homglue holds a
reference to it: in its defining module, in every homglue module that
imported it by name (`from .graphs import hom_count`), and in module-level
dicts such as serialize.LOADERS. Methods are wrapped on their class.
uninstall() puts every original back.

A span records its name, parent span, job id, inclusive and child time,
and the Graph.has_edge calls made inside it. Self time is inclusive time
minus the time of child spans. Generators are timed only while they are
being advanced, so the time a consumer spends between items is not
charged to them.
"""

import functools
import sys
import time

# Traced functions per layer, as named in the per-layer metrics.
LAYERS = {
    "graphs": ("hom_count", "is_homomorphism", "connected_graphs_up_to", "isomorphisms_pinned"),
    "markov": (
        "validate_markov_tree",
        "validate_tree_decomposition",
        "minimum_covering_subfamily",
        "retraction",
    ),
    "strong": (
        "validate_strong",
        "minimum_subdecomposition",
        "strong_isomorphism",
        "is_strong_isomorphism",
    ),
    "dists": (
        "SparseDistribution",
        "marginal",
        "glue_pair",
        "glue_markov_tree",
        "check_marginal_consistency",
        "entropy",
    ),
    "sidorenko": (
        "brw_distribution",
        "associated_distribution",
        "entropy_bound_report",
        "sidorenko_check",
        "forest_hom_bound_check",
    ),
    "serialize": (
        "graph_from_json",
        "strong_from_json",
        "distribution_from_json",
        "distribution_to_json",
        "bound_report_to_json",
    ),
    "cli": ("main",),
}
GENERATORS = {"graphs.isomorphisms_pinned"}


def _size(result):
    """What a span keeps of its function's result, for the count metrics."""
    if isinstance(result, int):  # hom_count
        return result
    if isinstance(result, list):  # connected_graphs_up_to
        return len(result)
    support = getattr(result, "support_size", None)  # glue_markov_tree, brw
    if support is not None:
        return support()
    return int(result is not None)  # strong_isomorphism: found or not


KEEP_RESULT = {
    "graphs.hom_count",
    "graphs.connected_graphs_up_to",
    "dists.glue_markov_tree",
    "sidorenko.brw_distribution",
    "strong.strong_isomorphism",
}


class Span:
    __slots__ = ("id", "parent", "job", "name", "start", "total", "child", "edges", "value")

    def __init__(self, sid, parent, job, name, start):
        self.id = sid
        self.parent = parent
        self.job = job
        self.name = name
        self.start = start
        self.total = 0  # ns while active
        self.child = 0  # ns of that spent in child spans
        self.edges = 0  # Graph.has_edge calls while active, children included
        self.value = None  # _size of the result, or items yielded

    def as_json(self):
        return {
            "id": self.id,
            "parent": self.parent,
            "job": self.job,
            "name": self.name,
            "start_ns": self.start,
            "total_ns": self.total,
            "self_ns": self.total - self.child,
            "has_edge": self.edges,
            "value": self.value,
        }


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.edge_calls = 0
        self._undo = []

    # -------------------------------------------------- span bookkeeping

    def _new(self, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, self.job, name, time.perf_counter_ns())
        self.spans.append(span)
        return span

    def _enter(self, span):
        self.stack.append(span)
        return time.perf_counter_ns(), self.edge_calls

    def _leave(self, span, mark):
        t0, e0 = mark
        dt = time.perf_counter_ns() - t0
        self.stack.pop()
        span.total += dt
        span.edges += self.edge_calls - e0
        if self.stack:
            self.stack[-1].child += dt

    def _wrap(self, name, fn):
        tracer = self
        keep = name in KEEP_RESULT

        if name in GENERATORS:

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = tracer._new(name)
                span.value = 0
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        mark = tracer._enter(span)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._leave(span, mark)
                        span.value += 1
                        yield item
                finally:
                    inner.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._new(name)
            mark = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(span, mark)
            if keep:
                span.value = _size(result)
            return result

        return traced

    # -------------------------------------------------- patching

    def _rebind(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "homglue" and not modname.startswith("homglue."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((setattr, module, key, value))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((dict.__setitem__, value, k, v))
                            value[k] = wrapper

    def install(self):
        import homglue.cli  # noqa: F401  (every module the CLI reaches)
        from homglue import dists, graphs

        for layer, names in LAYERS.items():
            module = sys.modules["homglue." + layer]
            for fname in names:
                name = "%s.%s" % (layer, fname)
                if fname == "SparseDistribution":
                    init = dists.SparseDistribution.__init__
                    self._undo.append((setattr, dists.SparseDistribution, "__init__", init))
                    dists.SparseDistribution.__init__ = self._wrap(name, init)
                    continue
                original = getattr(module, fname)
                self._rebind(original, self._wrap(name, original))

        has_edge = graphs.Graph.has_edge
        tracer = self

        def counted_has_edge(g, u, v):
            tracer.edge_calls += 1
            return has_edge(g, u, v)

        self._undo.append((setattr, graphs.Graph, "has_edge", has_edge))
        graphs.Graph.has_edge = counted_has_edge

    def uninstall(self):
        while self._undo:
            setter, target, key, value = self._undo.pop()
            setter(target, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ------------------------------------------------------ per-layer metrics

def _ancestor_named(spans, span, name):
    while span.parent is not None:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


def per_layer_metrics(tracer, job_names):
    """The per-layer metric values of one traced pass, by metric name."""
    spans = tracer.spans
    calls, self_ns = {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_ns[s.name] = self_ns.get(s.name, 0) + s.total - s.child
    out = {}
    for layer, names in LAYERS.items():
        for fname in names:
            name = "%s.%s" % (layer, fname)
            out[name + ".calls"] = (calls.get(name, 0), "count")
            out[name + ".self_s"] = (self_ns.get(name, 0) / 1e9, "s")
    out["graphs.Graph.has_edge.calls"] = (tracer.edge_calls, "count")

    def ratio(a, b):
        return a / b if b else 0.0

    def total(name, field):
        return sum(getattr(s, field) for s in spans if s.name == name)

    homs = total("graphs.hom_count", "value")
    out["graphs.homs"] = (homs, "count")
    out["graphs.has_edge_per_hom"] = (ratio(total("graphs.hom_count", "edges"), homs), "ratio")
    out["graphs.graphs_generated"] = (total("graphs.connected_graphs_up_to", "value"), "count")
    atoms = total("dists.glue_markov_tree", "value") + total("sidorenko.brw_distribution", "value")
    out["dists.atoms_out"] = (atoms, "count")

    # host isomorphisms drawn directly by strong_isomorphism, per match
    isos = sum(
        s.value
        for s in spans
        if s.name == "graphs.isomorphisms_pinned"
        and s.parent is not None
        and spans[s.parent].name == "strong.strong_isomorphism"
    )
    matches = total("strong.strong_isomorphism", "value")
    out["strong.host_isos_per_match"] = (ratio(isos, matches), "ratio")

    # known redundant work: distributions built twice per assoc job, and
    # hom counts made twice per entropy report
    assoc_jobs = {i for i, n in enumerate(job_names) if n.startswith("assoc/")}
    builds = sum(
        1
        for s in spans
        if s.name == "sidorenko.associated_distribution"
        and s.job in assoc_jobs
        and (s.parent is None or spans[s.parent].name != "sidorenko.associated_distribution")
    )
    out["sidorenko.assoc_builds_per_assoc_job"] = (ratio(builds, len(assoc_jobs)), "ratio")
    reports = calls.get("sidorenko.entropy_bound_report", 0)
    counted = sum(
        1
        for s in spans
        if s.name == "graphs.hom_count"
        and _ancestor_named(spans, s, "sidorenko.entropy_bound_report")
    )
    out["sidorenko.hom_counts_per_entropy_report"] = (ratio(counted, reports), "ratio")
    return out
