"""Span tracing and per-layer metrics for the traced benchmark run.

A traced round replaces public rooklab functions with wrappers that record
one span per call: name, parent span, task id, start, end and, for a few
functions, a summary of the result.  Each function is replaced in its
defining module and in every rooklab module that re-imports it, so calls
between modules are seen as well.  Private helpers are not wrapped; tracing
inside the library is left to the library.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# What a span keeps of its function's result, where a metric needs it.
OUTCOMES = {
    "modular.annihilation_proved": bool,
    "modular.certified_symmetric_spectrum": lambda pairs: pairs is None,
    "switching.enumerate_switching_sets": len,
    "switching.switching_closure": lambda result: result.count,
}

# Span groups of the wrapped functions.  A group counts a call only when no
# enclosing span belongs to the same group, so nullity -> rank or
# cube_graph -> complete_graph is one call, timed once.
GROUPS = {
    "graphs.build": ("graphs.sr_graph", "graphs.johnson_graph",
                     "graphs.complete_graph", "graphs.complete_bipartite",
                     "graphs.cycle_graph", "graphs.cartesian_product",
                     "graphs.cube_graph", "graphs.Graph.relabeled"),
    "graphs.adjacency": ("graphs.Graph.adjacency_matrix",),
    "modular.charpoly": ("modular.charpoly_mod",),
    "modular.rootmult": ("modular.root_multiplicity",),
    "modular.annihilation": ("modular.annihilation_proved",),
    "modular.certify": ("modular.certified_symmetric_spectrum",),
    "linalg.spectrum": ("linalg.integral_spectrum",),
    "linalg.rank": ("linalg.rank", "linalg.nullity"),
    "linalg.probe": ("linalg.try_integral_spectrum",),
    "linalg.eigvec": ("linalg.verify_eigenvector",),
    "linalg.halved": ("linalg.halved_factorization_check",),
    "invariants.canon": ("invariants.canonical_form",),
    "invariants.aut": ("invariants.automorphism_count",),
    "invariants.iso": ("invariants.is_isomorphic",),
    "invariants.clique": ("invariants.clique_number",
                          "invariants.independence_number"),
    "invariants.maxclique": ("invariants.maximal_cliques",
                             "invariants.classify_clique"),
    "invariants.k114": ("invariants.has_induced_k114",),
    "invariants.diameter": ("invariants.diameter",),
    "invariants.orbits": ("invariants.vertex_orbits",
                          "invariants.coordinate_symmetries"),
    "switching.enum": ("switching.enumerate_switching_sets",),
    "switching.switch": ("switching.gm_switch",),
    "switching.closure": ("switching.switching_closure",),
    "partitions.equitable": ("partitions.check_equitable",),
    "partitions.quotient_spectrum": ("partitions.quotient_spectrum",),
    "eigenvectors.family": ("eigenvectors.f_pi", "eigenvectors.f_pw_family",
                            "eigenvectors.permutations_with_inversions"),
    "eigenvectors.gamma_graph": ("eigenvectors.gamma_graph",),
    "eigenvectors.classify": ("eigenvectors.classify_gamma",),
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}
# The public functions a traced round wraps, by span name
# "<module>.<qualified name>".
TRACED = tuple(GROUP_OF)

# Metrics built from a group's outermost spans: "<group>_calls" counts them
# and "<group>_ms" sums their durations.
_GROUP_METRICS = (
    "graphs.build_calls", "graphs.build_ms", "graphs.adjacency_ms",
    "modular.charpoly_calls", "modular.charpoly_ms",
    "modular.rootmult_calls", "modular.rootmult_ms",
    "modular.annihilation_calls", "modular.annihilation_ms",
    "linalg.spectrum_calls", "linalg.rank_calls", "linalg.rank_ms",
    "linalg.probe_ms", "linalg.eigvec_calls", "linalg.eigvec_ms",
    "linalg.halved_ms",
    "invariants.canon_calls", "invariants.canon_ms",
    "invariants.aut_calls", "invariants.aut_ms",
    "invariants.iso_calls", "invariants.iso_ms",
    "invariants.clique_calls", "invariants.clique_ms",
    "invariants.maxclique_ms", "invariants.k114_ms",
    "invariants.diameter_ms", "invariants.orbits_ms",
    "switching.enum_calls", "switching.enum_ms",
    "switching.switch_calls", "switching.switch_ms",
    "partitions.equitable_calls", "partitions.equitable_ms",
    "partitions.quotient_spectrum_ms",
    "eigenvectors.family_ms",
    "eigenvectors.gamma_graph_calls", "eigenvectors.gamma_graph_ms",
)

# Metrics of a function's self time: its spans' durations minus the time
# covered by their direct child spans.
_SELF_METRICS = {
    "linalg.spectrum_ms": "linalg.integral_spectrum",
    "modular.certify_ms": "modular.certified_symmetric_spectrum",
    "switching.closure_ms": "switching.switching_closure",
    "eigenvectors.classify_ms": "eigenvectors.classify_gamma",
}


class Tracer:
    """Installs span-recording wrappers and restores the originals.

    Spans are tuples (name, parent index, task id, start, end, outcome),
    appended in call order to `spans`; `task` is stamped on every span.
    """

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._patches = []

    def install(self):
        modules = [m for _, m in _rooklab_modules()]
        for name in TRACED:
            module_name, *outer, attr = name.split(".")
            owner = sys.modules[f"rooklab.{module_name}"]
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, OUTCOMES.get(name))
            targets = [(owner, attr)] if outer else [
                (m, key) for m in modules
                for key, value in vars(m).items() if value is original]
            for target, key in targets:
                self._patches.append((target, key, original))
                setattr(target, key, wrapper)

    def restore(self):
        """Put every patched name back; return the names of wrappers still
        reachable from a rooklab module or class afterwards."""
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches = []
        left = []
        for name, module in _rooklab_modules():
            for key, value in vars(module).items():
                owners = [(f"{name}.{key}", value)]
                if isinstance(value, type):
                    owners += [(f"{name}.{key}.{k}", v) for k, v in vars(value).items()]
                left += [where for where, v in owners if getattr(v, "traced", False)]
        return left

    def _wrap(self, name, fn, outcome):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, parent, self.task, start, clock(), None)
                raise
            finally:
                stack.pop()
            spans[sid] = (name, parent, self.task, start, clock(),
                          outcome(result) if outcome else None)
            return result

        traced.traced = True
        return traced


def _rooklab_modules():
    return [(name, m) for name, m in sorted(sys.modules.items())
            if name == "rooklab" or name.startswith("rooklab.")]


def _frac(num, den):
    return num / den if den else 0.0


def round_metrics(spans):
    """Per-layer metrics of one traced round from its spans (all but
    trace.overhead_frac, which needs the untraced rounds)."""
    dur = [s[4] - s[3] for s in spans]
    child_time = [0.0] * len(spans)
    child_names = [set() for _ in spans]
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child_time[s[1]] += dur[i]
            child_names[s[1]].add(s[0])
    calls, busy, self_time = {}, {}, {}
    for i, s in enumerate(spans):
        self_time[s[0]] = self_time.get(s[0], 0.0) + dur[i] - child_time[i]
        group = GROUP_OF[s[0]]
        p = s[1]
        while p >= 0 and GROUP_OF[spans[p][0]] != group:
            p = spans[p][1]
        if p < 0:
            calls[group] = calls.get(group, 0) + 1
            busy[group] = busy.get(group, 0.0) + dur[i]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    out = {}
    for metric in _GROUP_METRICS:
        group, _, kind = metric.rpartition("_")
        out[metric] = (calls.get(group, 0) if kind == "calls"
                       else 1e3 * busy.get(group, 0.0))
    for metric, name in _SELF_METRICS.items():
        out[metric] = 1e3 * self_time.get(name, 0.0)
    annihilation = named("modular.annihilation_proved")
    out["modular.annihilation_fail_frac"] = _frac(
        sum(1 for i in annihilation if spans[i][5] is False), len(annihilation))
    certify = named("modular.certified_symmetric_spectrum")
    out["modular.certify_fallback_frac"] = _frac(
        sum(1 for i in certify if spans[i][5] is True), len(certify))
    spectrum = named("linalg.integral_spectrum")
    out["linalg.bareiss_path_frac"] = _frac(
        sum(1 for i in spectrum if "linalg.nullity" in child_names[i]),
        len(spectrum))
    iso = named("invariants.is_isomorphic")
    out["invariants.iso_prefilter_frac"] = _frac(
        sum(1 for i in iso if "invariants.canonical_form" not in child_names[i]),
        len(iso))
    # A call that raised has no outcome and counts as finding nothing.
    out["switching.sets_found"] = sum(
        spans[i][5] or 0 for i in named("switching.enumerate_switching_sets"))
    classes = sum(spans[i][5] or 0 for i in named("switching.switching_closure"))
    out["switching.closure_classes"] = classes
    under_closure = 0
    for i in named("invariants.canonical_form"):
        p = spans[i][1]
        while p >= 0 and spans[p][0] != "switching.switching_closure":
            p = spans[p][1]
        under_closure += p >= 0
    out["switching.closure_canon_per_class"] = _frac(under_closure, classes)
    return out
