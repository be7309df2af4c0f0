"""Layer tracing for the benchmark, installed from outside the program.

``Tracer.install`` replaces corelect's public functions and methods with
timing wrappers, wherever a ``corelect.*`` module namespace or a utility,
family or instance class holds them (a ``from .x import f`` binding is a
second reference that must be patched too).  ``Tracer.uninstall`` puts
every original back, so an untraced op runs the unmodified program.

Two kinds of wrapper:

* coarse calls (``cli.run``, the solvers, the verifiers, the sampling
  entry points, the lb1 search, instance load and dump) record one span
  each: name, op id, start, end and the enclosing span;
* hot calls (``Instance.utility``, every oracle's ``value``, ``score``,
  ``is_feasible``, ``independent``, ``is_q_completable``) are aggregated
  as a call count plus cumulative time per (call, enclosing span), so
  memory stays bounded however many calls an op makes.

Counts the program reports about itself (committees enumerated, subsets
checked, trials, classes) are read from the return values at the span
boundaries.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from corelect.scoring import RULES

_clock = time.perf_counter

UTILITY_KINDS = ("approval", "additive", "coverage", "xos", "lb00")  # reported kinds


def _count_cli(counts, result):
    counts["cli.commands"] += 1


def _count_global(counts, result):
    counts["solvers.global_committees"] += result.iterations


def _count_local(counts, result):
    counts["solvers.local_improving_swaps"] += result.iterations


def _count_core(counts, report):
    counts["verifiers.core_subsets"] += report.stats.get("committees_enumerated", 0)


def _count_restrained(counts, report):
    counts["verifiers.restrained_coalitions"] += report.stats.get("coalitions", 0)
    counts["verifiers.restrained_pairs"] += report.stats.get("wprime_sets", 0)


def _count_ejr(counts, report):
    counts["verifiers.ejr_pairs"] += report.stats.get("wprime_sets", 0)


def _count_axioms(counts, report):
    counts["model.axiom_subsets"] += report.checked


def _count_mc(counts, report):
    counts["sampling.mc_trials"] += report.trials


def _count_lb1(counts, report):
    counts["lb_search.classes"] += report.classes_checked


# (module, function, span name, counter fed from the return value)
SPAN_TARGETS = (
    ("corelect.cli", "run", "cli.run", _count_cli),
    ("corelect.serialize", "load_instance", "serialize.load", None),
    ("corelect.serialize", "dumps_canonical", "serialize.dump", None),
    ("corelect.solvers", "solve_global", "solvers.global", _count_global),
    ("corelect.solvers", "solve_local", "solvers.local", _count_local),
    ("corelect.verifiers", "check_core", "verifiers.core", _count_core),
    ("corelect.verifiers", "check_restrained_core", "verifiers.restrained", _count_restrained),
    ("corelect.verifiers", "check_restrained_ejr", "verifiers.ejr", _count_ejr),
    ("corelect.model", "check_axioms", "model.axioms", _count_axioms),
    ("corelect.model", "self_bounding_constant", "model.self_bounding", None),
    ("corelect.sampling", "exact_sample_expectation", "sampling.exact", None),
    ("corelect.sampling", "verify_sampling_bound", "sampling.bound", None),
    ("corelect.sampling", "mc_lower_tail", "sampling.mc", _count_mc),
    ("corelect.lb_search", "lb1_emptiness_search", "lb_search.search", _count_lb1),
)

# (module, function, hot-counter name); score is keyed by its rule instead
HOT_FUNCTIONS = (
    ("corelect.scoring", "score", None),
    ("corelect.constraints", "is_feasible", "constraints.is_feasible"),
    ("corelect.constraints", "is_q_completable", "constraints.q_completable"),
)

TOP = "-"  # caller name for hot calls made outside any span


def _corelect_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "corelect" or name.startswith("corelect."))
    ]


def _subclasses(cls):
    out = []
    stack = [cls]
    while stack:
        c = stack.pop()
        if c.__module__.startswith("corelect"):
            out.append(c)
        stack.extend(c.__subclasses__())
    return out


def method_targets():
    """(class, method name, hot-counter name) for every traced method."""
    model = importlib.import_module("corelect.model")
    constraints = importlib.import_module("corelect.constraints")
    targets = [(model.Instance, "utility", "model.utility")]
    for cls in _subclasses(model.UtilityFunction):
        if "value" in vars(cls):
            targets.append((cls, "value", "model.value." + cls.kind))
    for cls in _subclasses(constraints.FeasibilityFamily):
        if "independent" in vars(cls):
            targets.append((cls, "independent", "constraints.independent"))
    return targets


def function_targets():
    """(original function, span name or None, hot name or None, counter)."""
    out = []
    for mod, attr, span, counter in SPAN_TARGETS:
        out.append((getattr(importlib.import_module(mod), attr), span, None, counter))
    for mod, attr, hot in HOT_FUNCTIONS:
        out.append((getattr(importlib.import_module(mod), attr), None, hot, None))
    return out


class Tracer:
    """Spans and hot-call aggregates for the ops run while installed."""

    def __init__(self):
        self.spans = []  # [name, op id, start, end, parent index]
        self.open = []  # indices of the open spans, innermost last
        self.callers = [TOP]  # names of the open spans, innermost last
        self.hot = {}  # (hot name, caller) -> [calls, seconds]
        self.counts = Counter()
        self.value_calls = 0  # oracle evaluations, for the cache-hit count
        self.op_id = None
        self._patches = []  # (owner, attribute, original), in patch order

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, counter):
        spans, open_, callers, counts = self.spans, self.open, self.callers, self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, tracer.op_id, 0.0, 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            callers.append(name)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                open_.pop()
                callers.pop()
                spans[idx][2] = t0
                spans[idx][3] = t1
            if counter is not None:
                counter(counts, result)
            return result

        return _mark(wrapper, fn)

    def _hot(self, name, fn):
        """Count and time calls of fn; name None keys ``score`` by its rule."""
        hot, callers = self.hot, self.callers

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name or "scoring.score." + args[0], callers[-1])
                cell = hot.get(key)
                if cell is None:
                    cell = hot[key] = [0, 0.0]
                cell[0] += 1
                cell[1] += _clock() - t0

        return _mark(wrapper, fn)

    def _hot_value(self, name, fn):
        inner = self._hot(name, fn)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.value_calls += 1
            return inner(*args, **kwargs)

        return _mark(wrapper, fn)

    def _hot_utility(self, fn):
        inner = self._hot("model.utility", fn)
        tracer = self

        def wrapper(*args, **kwargs):
            before = tracer.value_calls
            result = inner(*args, **kwargs)
            if tracer.value_calls == before:
                tracer.counts["model.utility_hits"] += 1
            return result

        return _mark(wrapper, fn)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        """Patch every reference to a traced original; idempotent."""
        if self._patches:
            return
        wrappers = {}
        for fn, span, hot, counter in function_targets():
            if span is not None:
                wrappers[id(fn)] = (fn, self._span(span, fn, counter))
            else:
                wrappers[id(fn)] = (fn, self._hot(hot, fn))
        for mod in _corelect_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        for cls, attr, name in method_targets():
            fn = vars(cls)[attr]
            if name == "model.utility":
                wrapper = self._hot_utility(fn)
            elif name.startswith("model.value."):
                wrapper = self._hot_value(name, fn)
            else:
                wrapper = self._hot(name, fn)
            self._patch(cls, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def span_totals(self):
        """name -> (span count, inclusive seconds, self seconds)."""
        child_time = defaultdict(float)
        for name, _op, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        totals = {}
        for idx, (name, _op, t0, t1, _parent) in enumerate(self.spans):
            n, incl, own = totals.get(name, (0, 0.0, 0.0))
            dur = t1 - t0
            totals[name] = (n + 1, incl + dur, own + dur - child_time[idx])
        return totals

    def hot_totals(self, caller=None):
        """hot name -> [calls, seconds], summed over callers or for one."""
        out = defaultdict(lambda: [0, 0.0])
        for (name, who), (calls, secs) in self.hot.items():
            if caller is None or who == caller:
                out[name][0] += calls
                out[name][1] += secs
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit).

        ``*_s`` of a span is its self time (span time minus the spans it
        encloses); ``*_s`` of a hot call is its inclusive busy time.  A
        rate or ratio whose base is zero reads 0.
        """
        spans = self.span_totals()
        hot = self.hot_totals()
        counts = self.counts

        def own(name):
            return spans.get(name, (0, 0.0, 0.0))[2]

        def rate(num, secs):
            return num / secs if secs > 0 else 0.0

        m = {}
        calls, secs = hot["model.utility"]
        m["model.utility_calls"] = (calls, "count")
        m["model.utility_s"] = (secs, "s")
        m["model.cache_hit_ratio"] = (rate(counts["model.utility_hits"], calls), "ratio")
        for kind in UTILITY_KINDS:
            calls, secs = hot["model.value." + kind]
            m[f"model.value_calls.{kind}"] = (calls, "count")
            m[f"model.value_per_s.{kind}"] = (rate(calls, secs), "1/s")
        m["model.axiom_subsets"] = (counts["model.axiom_subsets"], "count")
        m["model.axiom_subsets_per_s"] = (
            rate(counts["model.axiom_subsets"], own("model.axioms")),
            "1/s",
        )
        m["model.self_bounding_s"] = (own("model.self_bounding"), "s")

        for short in ("is_feasible", "independent", "q_completable"):
            calls, secs = hot["constraints." + short]
            m[f"constraints.{short}_calls"] = (calls, "count")
            m[f"constraints.{short}_s"] = (secs, "s")

        score_s = 0.0
        for rule in RULES:
            calls, secs = hot["scoring.score." + rule]
            score_s += secs
            m[f"scoring.score_calls.{rule}"] = (calls, "count")
            m[f"scoring.score_per_s.{rule}"] = (rate(calls, secs), "1/s")
        m["scoring.score_s"] = (score_s, "s")

        committees = counts["solvers.global_committees"]
        m["solvers.global_s"] = (own("solvers.global"), "s")
        m["solvers.global_committees"] = (committees, "count")
        m["solvers.global_committees_per_s"] = (rate(committees, own("solvers.global")), "1/s")
        local_hot = self.hot_totals("solvers.local")
        local_runs = spans.get("solvers.local", (0, 0.0, 0.0))[0]
        # every solve_local scores its start once before trying swaps
        scored = sum(local_hot["scoring.score." + r][0] for r in RULES) - local_runs
        improving = counts["solvers.local_improving_swaps"]
        m["solvers.local_s"] = (own("solvers.local"), "s")
        m["solvers.local_swaps_scored"] = (scored, "count")
        m["solvers.local_swaps_per_s"] = (rate(scored, own("solvers.local")), "1/s")
        m["solvers.local_improving_swaps"] = (improving, "count")
        m["solvers.local_useful_ratio"] = (rate(improving, scored), "ratio")

        m["verifiers.core_s"] = (own("verifiers.core"), "s")
        m["verifiers.core_subsets"] = (counts["verifiers.core_subsets"], "count")
        m["verifiers.core_subsets_per_s"] = (
            rate(counts["verifiers.core_subsets"], own("verifiers.core")),
            "1/s",
        )
        m["verifiers.restrained_s"] = (own("verifiers.restrained"), "s")
        m["verifiers.restrained_coalitions"] = (counts["verifiers.restrained_coalitions"], "count")
        m["verifiers.restrained_pairs"] = (counts["verifiers.restrained_pairs"], "count")
        m["verifiers.restrained_pairs_per_s"] = (
            rate(counts["verifiers.restrained_pairs"], own("verifiers.restrained")),
            "1/s",
        )
        m["verifiers.ejr_s"] = (own("verifiers.ejr"), "s")
        m["verifiers.ejr_pairs"] = (counts["verifiers.ejr_pairs"], "count")

        exact_hot = self.hot_totals("sampling.exact")
        m["sampling.exact_s"] = (own("sampling.exact"), "s")
        m["sampling.exact_subsets"] = (
            sum(exact_hot["model.value." + k][0] for k in UTILITY_KINDS),
            "count",
        )
        m["sampling.bound_s"] = (own("sampling.bound"), "s")
        m["sampling.mc_s"] = (own("sampling.mc"), "s")
        m["sampling.mc_trials"] = (counts["sampling.mc_trials"], "count")
        m["sampling.mc_trials_per_s"] = (rate(counts["sampling.mc_trials"], own("sampling.mc")), "1/s")

        m["lb_search.search_s"] = (own("lb_search.search"), "s")
        m["lb_search.classes"] = (counts["lb_search.classes"], "count")
        m["lb_search.classes_per_s"] = (
            rate(counts["lb_search.classes"], own("lb_search.search")),
            "1/s",
        )

        m["serialize.load_calls"] = (spans.get("serialize.load", (0, 0.0, 0.0))[0], "count")
        m["serialize.load_s"] = (own("serialize.load"), "s")
        m["serialize.dump_s"] = (own("serialize.dump"), "s")
        m["cli.commands"] = (counts["cli.commands"], "count")
        m["cli.self_s"] = (own("cli.run"), "s")
        return m

    def dump(self, path):
        """Write spans, hot aggregates and counts as JSON."""
        payload = {
            "spans": [
                {"name": n, "op": op, "start": t0, "end": t1, "parent": parent}
                for n, op, t0, t1, parent in self.spans
            ],
            "hot": [
                {"call": name, "caller": caller, "calls": calls, "seconds": secs}
                for (name, caller), (calls, secs) in sorted(self.hot.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _mark(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    wrapper.bench_traced = True
    return wrapper
