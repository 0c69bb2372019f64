"""Per-layer tracing from outside the package.

The package is never edited: ``Tracer.install`` replaces the public
functions and methods listed in ``SPANS`` with wrappers, in every loaded
``poisson_nlie`` module that holds a reference to them (modules import each
other's functions by name, so patching only the defining module would miss
most calls).

Each traced call is a span.  Its record (id, name, start, end, parent id,
job id) is appended to per-thread arrays that stay in memory until the
benchmark ends; self time is computed as the span's duration minus the part
of it covered by child spans.  Spans opened in a worker thread with an empty
stack take the innermost open span of the main thread as their parent (the
criterion's threaded scan), and their intervals are merged before they are
subtracted, so overlapping workers are not counted twice.  Work counters are
kept per thread and summed at the end, so they are exact under threads.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class.
SPANS = [
    ("ring.mul", "ring", "LaurentPolynomial.__mul__"),
    ("ring.add", "ring", "LaurentPolynomial.__add__"),
    ("ring.derivation_apply", "ring", "DerivationSpec.apply"),
    ("ring.det_ring", "ring", "det_ring"),
    ("ring.exact_divide", "ring", "exact_divide"),
    ("ring.format_polynomial", "ring", "format_polynomial"),
    ("jacobian_bracket.perm_sign", "jacobian_bracket", "perm_sign"),
    ("jacobian_bracket.pi_table", "jacobian_bracket", "pi_table"),
    ("jacobian_bracket.bracket_full", "jacobian_bracket", "bracket"),
    ("jacobian_bracket.bracket_expanded", "jacobian_bracket", "bracket"),
    ("criterion.check_criterion", "criterion", "check_criterion"),
    ("criterion.group_residual_a", "criterion", "group_residual_a"),
    ("criterion.group_residual_b", "criterion", "group_residual_b"),
    ("criterion.signed_pi", "criterion", "signed_pi"),
    ("finite_algebra.verify_axioms", "finite_algebra", "verify_axioms"),
    ("finite_algebra.bracket_basis", "finite_algebra", "StructAlgebra.bracket_basis"),
    ("finite_algebra.bracket_span", "finite_algebra", "bracket_span"),
    ("finite_algebra.series", "finite_algebra", "series"),
    ("finite_algebra.classify", "finite_algebra", "classify"),
    ("finite_algebra.nilradical", "finite_algebra", "nilradical"),
    ("finite_algebra.common_eigenvector", "finite_algebra", "common_eigenvector"),
    ("subspaces.rref", "subspaces", "rref"),
    ("subspaces.char_poly", "subspaces", "char_poly"),
    ("subspaces.rational_roots", "subspaces", "rational_roots"),
    ("constructions.tensor_poisson_n", "constructions", "tensor_poisson_n"),
    ("constructions.leibniz_tensor_functor", "constructions", "leibniz_tensor_functor"),
    ("constructions.skew_defect_quotient", "constructions", "skew_defect_quotient"),
    ("constructions.kernel_of_adjoint", "constructions", "kernel_of_adjoint"),
    ("cli.run", "cli", "run"),
]
SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in SPANS))
_INDEX = {name: i for i, name in enumerate(SPAN_NAMES)}

# Work counters, exact and independent of timing and thread count.
COUNTERS = [
    "ring.poly_init.calls",
    "ring.mul.term_products",
    "criterion.group_residual_a.nonzero",
    "criterion.group_residual_b.nonzero",
    "criterion.fail.groups_evaluated",
    "criterion.fail.groups_total",
    "finite_algebra.bracket_basis.empty",
]
_COUNTER = {name: i for i, name in enumerate(COUNTERS)}

_GROUP_SPANS = (_INDEX["criterion.group_residual_a"], _INDEX["criterion.group_residual_b"])


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class _ThreadState:
    """Everything one thread writes: its span stack, span records,
    per-span aggregates and counters."""

    def __init__(self, is_main: bool):
        size = len(SPAN_NAMES)
        self.is_main = is_main
        self.stack = []
        self.active = [0] * size
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self.total_s = [0.0] * size
        self.counters = [0] * len(COUNTERS)
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_job = array("l")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = -1
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Drop all recorded spans and counters (the patches stay)."""
        self._ids = itertools.count()
        self._local = threading.local()
        self._states = []
        self._main = self._state(is_main=True)

    def _state(self, is_main: bool = False) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(is_main)
            with self._lock:
                self._states.append(state)
            self._local.state = state
        return state

    # -- wrappers --------------------------------------------------------------

    def _span(self, fn, pick, after=None):
        """Wrap ``fn``; ``pick(args, kwargs)`` gives the span index."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            foreign = False
            if stack:
                parent = stack[-1]
            elif not state.is_main and tracer._main.stack:
                parent = tracer._main.stack[-1]
                foreign = True
            else:
                parent = None
            idx = pick(args, kwargs)
            # frame: id, index, child time, intervals of other threads' children
            frame = [next(tracer._ids), idx, 0.0, [] if state.is_main else None]
            stack.append(frame)
            nested = state.active[idx]
            state.active[idx] = nested + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                state.active[idx] = nested
                duration = end - start
                own = duration - frame[2]
                if frame[3]:
                    own -= union_length(frame[3])
                state.calls[idx] += 1
                state.self_s[idx] += own
                if not nested:
                    state.total_s[idx] += duration
                if parent is None:
                    parent_id = -1
                else:
                    parent_id = parent[0]
                    if foreign:
                        parent[3].append((start, end))
                    else:
                        parent[2] += duration
                state.span_id.append(frame[0])
                state.span_name.append(idx)
                state.span_start.append(start)
                state.span_end.append(end)
                state.span_parent.append(parent_id)
                state.span_job.append(tracer.job)
            if after is not None:
                after(state.counters, args, result)
            return result

        return wrapper

    def _count_init(self, fn):
        tracer = self
        slot = _COUNTER["ring.poly_init.calls"]

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer._state().counters[slot] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _check_criterion(self, fn):
        """A span that also counts, for a failing call, the groups it
        evaluated and the groups it would have evaluated without the
        early exit."""
        tracer = self
        inner = self._span(fn, lambda args, kwargs: _INDEX["criterion.check_criterion"])

        def evaluated():
            return sum(s.calls[i] for s in tracer._states for i in _GROUP_SPANS)

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = evaluated()
            report = inner(*args, **kwargs)
            if report.verdict == "fail":
                counters = tracer._state().counters
                counters[_COUNTER["criterion.fail.groups_evaluated"]] += evaluated() - before
                counters[_COUNTER["criterion.fail.groups_total"]] += report.counts["groups_total"]
            return report

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, pkg) -> None:
        """Patch every traced function of the package namespace ``pkg``."""
        modules = {name: getattr(pkg, name) for name in
                   ("ring", "subspaces", "jacobian_bracket", "criterion",
                    "finite_algebra", "constructions", "cli")}
        fixed = {name: (lambda i: (lambda a, k: i))(_INDEX[name]) for name in SPAN_NAMES}

        def bracket_pick(args, kwargs):
            method = kwargs.get("method", args[3] if len(args) > 3 else "expanded")
            return _INDEX["jacobian_bracket.bracket_full" if method == "full"
                          else "jacobian_bracket.bracket_expanded"]

        mul_slot = _COUNTER["ring.mul.term_products"]
        LaurentPolynomial = modules["ring"].LaurentPolynomial

        def mul_after(counters, args, result):
            left, right = args
            counters[mul_slot] += len(left) * (len(right) if isinstance(right, LaurentPolynomial) else 1)

        def nonzero(name):
            slot = _COUNTER[name]

            def after(counters, args, result):
                if not result.is_zero():
                    counters[slot] += 1
            return after

        empty_slot = _COUNTER["finite_algebra.bracket_basis.empty"]

        def empty_after(counters, args, result):
            if not result:
                counters[empty_slot] += 1

        afters = {
            "ring.mul": mul_after,
            "criterion.group_residual_a": nonzero("criterion.group_residual_a.nonzero"),
            "criterion.group_residual_b": nonzero("criterion.group_residual_b.nonzero"),
            "finite_algebra.bracket_basis": empty_after,
        }

        done = set()
        for name, module_name, attr in SPANS:
            if (module_name, attr) in done:
                continue
            done.add((module_name, attr))
            module = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                wrapped = self._span(getattr(cls, method), fixed[name], afters.get(name))
                setattr(cls, method, wrapped)
                if method in ("__mul__", "__add__"):
                    setattr(cls, method.replace("__", "__r", 1), wrapped)
                continue
            original = getattr(module, attr)
            if attr == "check_criterion":
                wrapped = self._check_criterion(original)
            elif attr == "bracket":
                wrapped = self._span(original, bracket_pick)
            else:
                wrapped = self._span(original, fixed[name], afters.get(name))
            for other in modules.values():
                if getattr(other, attr, None) is original:
                    setattr(other, attr, wrapped)
        LaurentPolynomial.__init__ = self._count_init(LaurentPolynomial.__init__)

    # -- results ---------------------------------------------------------------------

    def totals(self):
        """Per-span calls, self and total seconds, and counters, summed over threads."""
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        total_s = [0.0] * len(SPAN_NAMES)
        counters = [0] * len(COUNTERS)
        for state in self._states:
            for i in range(len(SPAN_NAMES)):
                calls[i] += state.calls[i]
                self_s[i] += state.self_s[i]
                total_s[i] += state.total_s[i]
            for i in range(len(COUNTERS)):
                counters[i] += state.counters[i]
        return (dict(zip(SPAN_NAMES, calls)), dict(zip(SPAN_NAMES, self_s)),
                dict(zip(SPAN_NAMES, total_s)), dict(zip(COUNTERS, counters)))
