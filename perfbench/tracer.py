"""Span tracer that wraps the package's public functions from outside.

Nothing in the program is edited. ``Tracer.install`` takes every public
function of each layer module (every non-underscore function defined
there, whatever its ``__all__`` lists), builds one wrapper per function,
and rebinds it in every ``sqtotient`` namespace that holds the original,
so calls between modules (``menon`` calling ``phi.phi_k``, say)
are seen as well as the benchmark's own calls.

``sqtotient.rho`` is the *function* rho, because the package ``__init__``
re-exports it over the submodule attribute; modules are therefore always
reached through ``sys.modules``.

A span is ``[name_id, start, end, parent, op, amount]``: ``parent`` is the
index of the enclosing span in the same list (-1 at the top), ``op`` the
operation id the benchmark set before the call, ``amount`` an optional
work count taken from the arguments or the result (tuples enumerated,
table entries, output bytes). Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("core_arith", "phi", "rho", "averaging", "menon", "verify", "reporting", "cli")
PACKAGE = "sqtotient"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Work counts recorded on a span, keyed by "module.function".
AMOUNTS = {
    "core_arith.build_spf": lambda a, kw, r: _arg(a, kw, 0, "limit") + 1,
    "core_arith.primes_upto": lambda a, kw, r: sum(1 for p in r if p != 2),
    "averaging.phi_k_table": lambda a, kw, r: _arg(a, kw, 1, "x"),
    "rho.sum_of_squares_census": lambda a, kw, r: _arg(a, kw, 1, "n") ** _arg(a, kw, 0, "k"),
    "menon.psi_table": lambda a, kw, r: _arg(a, kw, 1, "n_max"),
    "reporting.render": lambda a, kw, r: len(r.encode()),
}

# Functions that summarize() picks out by name.
SUMMARIZED = {
    "rho.rho",
    "rho.rho_brute",
    "core_arith.factorize",
    "core_arith.primes_upto",
    "averaging.euler_constant",
    "averaging.corollary_constant",
    "menon.psi_table",
}


def public_functions(module):
    """Public functions defined in ``module`` (classes and re-imports excluded).

    Taken from the module's namespace, not its ``__all__``, so trimming the
    exported names does not change what is traced.
    """
    out = {}
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            out[name] = obj
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, qualname, fn):
        """A wrapper around ``fn`` that records one span per call."""
        name_id = len(self.names)
        self.names.append(qualname)
        amount = AMOUNTS.get(qualname)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name_id, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            depth = len(stack)
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if amount is not None:
                    rec[5] = amount(args, kwargs, result)
                return result
            finally:
                # Truncate first: at the recursion limit the clock call below
                # can itself raise, and the stack must still unwind.
                del stack[depth:]
                rec[2] = clock()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def install(self):
        """Wrap every public layer function and rebind it everywhere."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for name, fn in public_functions(module).items():
                originals[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        namespaces = [
            m for key, m in sys.modules.items()
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, value))
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        self.stack.clear()
        return taken

    def dump(self, path, batches):
        """Write spans as JSON lines: pass, name, start, end, parent, op, amount."""
        with open(path, "w", encoding="utf-8") as handle:
            for batch_no, spans in enumerate(batches):
                for name_id, start, end, parent, op, amount in spans:
                    handle.write(
                        json.dumps([batch_no, self.names[name_id], start, end, parent, op, amount])
                        + "\n"
                    )


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children.

    A span cut short by a RecursionError inside the tracer keeps end 0.0;
    it is counted as zero-length.
    """
    durations = [max(0.0, s[2] - s[1]) for s in spans]
    own = list(durations)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            own[s[3]] -= durations[i]
    return [max(0.0, x) for x in own]


def summarize(names, spans, op_labels=None):
    """Aggregate one batch of spans into per-function and per-layer totals.

    Returns a dict with ``self_s`` and ``calls`` per "module.function",
    ``layer_self_s`` per module, ``amount`` per function, and the extra
    counts the per-layer metrics need (census tuples, rho routes, product
    primes, factorize calls under psi_table, verify time per suite).
    """
    own = self_times(spans)
    fn_self = defaultdict(float)
    calls = defaultdict(int)
    amounts = defaultdict(int)
    amount_max = defaultdict(int)
    layer_self = defaultdict(float)
    suite_self = defaultdict(float)
    qual = [names[s[0]] for s in spans]
    for i, s in enumerate(spans):
        q = qual[i]
        fn_self[q] += own[i]
        calls[q] += 1
        layer_self[q.split(".", 1)[0]] += own[i]
        if s[5] is not None:
            amounts[q] += s[5]
            amount_max[q] = max(amount_max[q], s[5])
        if q.startswith("verify.") and op_labels is not None:
            label = op_labels.get(s[4], "")
            if label.startswith("verify "):
                suite_self[label.split()[1]] += own[i]

    oracle = 0
    product_primes = 0
    factorize_under_psi = 0
    for i, s in enumerate(spans):
        q = qual[i]
        parent = s[3]
        if q == "rho.rho_brute" and parent >= 0 and qual[parent] == "rho.rho":
            oracle += 1
        elif q == "core_arith.primes_upto" and parent >= 0 and qual[parent] in (
            "averaging.euler_constant",
            "averaging.corollary_constant",
        ):
            product_primes += s[5] or 0
        elif q == "core_arith.factorize":
            while parent >= 0 and qual[parent] != "menon.psi_table":
                parent = spans[parent][3]
            if parent >= 0:
                factorize_under_psi += 1
    return {
        "self_s": dict(fn_self),
        "calls": dict(calls),
        "amount": dict(amounts),
        "amount_max": dict(amount_max),
        "layer_self_s": dict(layer_self),
        "suite_self_s": dict(suite_self),
        "rho_oracle_calls": oracle,
        "product_primes": product_primes,
        "factorize_under_psi": factorize_under_psi,
        "spans": len(spans),
    }
