"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of the fareysums layer
modules with a timing wrapper, at every module attribute that refers to it
(so `franel.rank_fast` is wrapped as well as `farey.rank_fast`, and nested
calls are seen).  Each wrapper records a span; a layer's self time is its
span minus the time covered by the spans it caused.  Counts of work are
taken from arguments and results at the same boundaries.  Nothing under
src/ is changed: uninstalling is dropping the imported modules.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("totient", "farey", "mapping", "index", "franel", "arith", "cli")

# iter_window yields one pair per Farey term; a span per resume would cost
# more than the work it measures, so its time stays in its caller's self time.
NO_SPAN = {"farey.iter_window"}

# Functions that return a FranelResult; the deviation-kernel cost per term
# is their self time over the term_count they report.
SCAN_FUNCTIONS = ("franel.full_franel_sum", "franel.partial_franel_sum_range")


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # including the spans it caused


class Tracer:
    """Span and counter store for one traced phase of a benchmark run."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self._children: list[float] = []  # child time of each open span

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        prefix = package.__name__ + "."
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(prefix + layer)
            if module is None:  # layer not imported by this workload
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(prefix):
                continue
            for name, obj in list(vars(module).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    setattr(module, name, replacement)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        counter = _COUNTERS.get(key)
        signature = inspect.signature(fn)
        children = self._children

        if key in NO_SPAN:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)

            return counted

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    children.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf_counter() - t0
                        stat.total_s += elapsed
                        stat.self_s += elapsed - children.pop()
                        if children:
                            children[-1] += elapsed
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return wrapper

    def snapshot(self) -> dict[str, float]:
        """Flat {metric: value} of every stat and counter recorded so far."""
        out: dict[str, float] = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.s"] = stat.self_s
            out[f"{key}.total_s"] = stat.total_s
        out.update(self.counters)
        return out


def _sieve_entries(tracer: Tracer, args, result) -> None:
    tracer.count("totient.sieve_entries", args["limit"])


def _enumerated_terms(tracer: Tracer, args, result) -> None:
    tracer.count("farey.enumerate_window.terms", len(result.fractions))


def _scanned_terms(tracer: Tracer, args, result) -> None:
    tracer.count("franel.terms", result.term_count)
    # the exact accumulator takes the first exact_budget terms of a scan
    tracer.count("franel.exact_terms", min(result.term_count, args["exact_budget"]))


_COUNTERS = {
    "totient.build_totient_table": _sieve_entries,
    "totient.mobius_upto": _sieve_entries,
    "farey.enumerate_window": _enumerated_terms,
    "franel.full_franel_sum": _scanned_terms,
    "franel.partial_franel_sum_range": _scanned_terms,
}


def derived(values: dict[str, float]) -> dict[str, float]:
    """Ratios computed from summed stats: rank cost per call, kernel cost per term."""
    out = dict(values)
    calls = values.get("farey.rank_fast.calls", 0)
    out["farey.rank_fast.ms_per_call"] = (
        1e3 * values.get("farey.rank_fast.s", 0.0) / calls if calls else 0.0
    )
    terms = values.get("franel.terms", 0)
    scan_s = sum(values.get(f"{key}.s", 0.0) for key in SCAN_FUNCTIONS)
    out["franel.ns_per_term"] = 1e9 * scan_s / terms if terms else 0.0
    return out
