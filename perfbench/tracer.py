"""Spans and counters around the public entry points of each couplednet layer.

The package is not edited: `Tracer.install` replaces each traced function,
in every `couplednet.*` module namespace that binds it, with a wrapper
that records a span (name, start, end, parent, pass) and, where the
function's public return value carries one, a work counter. Spans stay in
memory; `per_pass_metrics` reduces them after the run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "couplednet"


def _last_iteration(result):
    its = result[2].iterations
    return its[-1] if its else 0


def _check_cm_span(rel, *args, **kwargs):
    kind = rel.kind.name.lower()
    return "relations.check_cm_" + ("gradient" if kind == "gradient_of_convex" else kind)


# (module, attribute, span name or f(*args) -> name, (counter, f(result)) or None)
TRACED = (
    ("config", "load_config", "config.load_config", None),
    ("netgraph", "incidence", "netgraph.incidence", None),
    ("plants", "ss_relation", "plants.ss_relation", None),
    ("couplers", "controller_ss_relation", "couplers.controller_ss_relation", None),
    ("relations", "check_cm", _check_cm_span,
     ("relations.cycles_checked", lambda r: r.cycles_checked)),
    ("netopt", "assemble", "netopt.assemble", None),
    ("netopt", "solve_opp", "netopt.solve_opp", ("netopt.solve_opp_iters", _last_iteration)),
    ("netopt", "solve_ofp", "netopt.solve_ofp", ("netopt.solve_ofp_iters", _last_iteration)),
    ("netopt", "recover_certificate", "netopt.recover_certificate", None),
    ("netopt", "duality_gap", "netopt.duality_gap", None),
    ("netopt", "verify_steady_state", "netopt.verify_steady_state", None),
    ("synthesis", "synthesize_linear", "synthesis.synthesize_linear", None),
    ("synthesis", "check_forcible", "synthesis.check_forcible", None),
    ("synthesis", "check_uniqueness_conditions", "synthesis.check_uniqueness", None),
    ("synthesis", "leader_input", "synthesis.leader_input", None),
    ("synthesis", "reconfiguration_offsets", "synthesis.reconfiguration_offsets", None),
    ("simulate", "closed_loop", "simulate.closed_loop", None),
    ("simulate", "integrate", "simulate.integrate", None),
    ("simulate", "export_csv", "simulate.export_csv", None),
    ("simulate", "detect_convergence", "simulate.detect_convergence", None),
    ("simulate", "compare_prediction", "simulate.compare_prediction", None),
)

# The kernel `simulate.integrate` dispatches to on the packed numpy path.
# Only its calls are counted (no span: formation makes ~10^5 of them).
RHS_MODULE, RHS_ATTR, RHS_COUNTER = "_fastpath", "_packed_rhs", "simulate.rhs_calls"


class NullTracer:
    """Stand-in for untraced runs: no wrappers, no spans, no counters."""

    def span(self, name):
        return contextlib.nullcontext()

    def next_pass(self):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, pass index]
        self.counters = [defaultdict(int)]
        self._stack = []
        self._patched = []
        self.rhs_hooked = False

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, len(self.counters) - 1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def next_pass(self):
        self.counters.append(defaultdict(int))

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counters[-1][counter[0]] += counter[1](result)
            return result

        return traced

    def _replace(self, orig, wrapped, modules):
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    self._patched.append((mod, key, orig))

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for modname, attr, name, counter in TRACED:
            orig = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), attr)
            self._replace(orig, self._wrap(orig, name, counter), modules)
        kernel_mod = importlib.import_module(f"{PACKAGE}.{RHS_MODULE}")
        kernel = getattr(kernel_mod, RHS_ATTR, None)
        if kernel is not None:
            counters = self.counters

            def counted(*args):
                counters[-1][RHS_COUNTER] += 1
                return kernel(*args)

            setattr(kernel_mod, RHS_ATTR, counted)
            self._patched.append((kernel_mod, RHS_ATTR, kernel))
            self.rhs_hooked = True

    def uninstall(self):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def per_pass_metrics(self, passes):
        """Median over the first `passes` passes of each span's summed time
        (`<span>_s`), each counter, and `cli.self_s` (CLI command time not
        covered by a traced layer call)."""
        totals = [defaultdict(float) for _ in range(passes)]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, p) in enumerate(self.spans):
            if p >= passes:
                continue
            totals[p][name + "_s"] += end - start
            if name.startswith("cli."):
                totals[p]["cli.self_s"] += end - start - child_time[idx]
        for p in range(passes):
            totals[p].update(self.counters[p])
        keys = set().union(*totals) if totals else set()
        return {k: statistics.median(t.get(k, 0.0) for t in totals) for k in keys}
