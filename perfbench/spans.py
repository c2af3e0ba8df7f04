"""Per-layer spans recorded from outside the library.

`Tracer.install()` replaces each public function listed in LAYERS with a
wrapper, in every `linkbound` module that holds a reference to it, so
calls across module boundaries (for example `signature` calling
`linalg.poly_det`) pass through the wrapper.  Methods are wrapped on their
class.  A wrapper records calls, inclusive time and self time (inclusive
time minus the time of wrapped calls nested inside it) while the tracer is
enabled, and does nothing else while it is disabled.  Spans are kept per
operation and added to the totals only when the operation succeeds.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (span name, module, attribute); "Class.method" names wrap a method.
LAYERS = (
    ("braids.seifert_matrix_from_braid", "linkbound.braids", "seifert_matrix_from_braid"),
    ("braids.seifert_data_from_json", "linkbound.braids", "seifert_data_from_json"),
    ("linalg.poly_det", "linkbound.linalg", "poly_det"),
    ("linalg.poly_rank", "linkbound.linalg", "poly_rank"),
    ("realroots.isolate_real_roots", "linkbound.realroots", "isolate_real_roots"),
    ("realroots.sign_of", "linkbound.realroots", "RealAlgebraic.sign_of"),
    ("realroots.refine", "linkbound.realroots", "RealAlgebraic.refine"),
    ("realroots.refine", "linkbound.realroots", "RealAlgebraic.refine_away_from"),
    ("signature.alexander_from_seifert", "linkbound.signature", "alexander_from_seifert"),
    ("signature.link_nullity", "linkbound.signature", "link_nullity"),
    ("signature.signature_function", "linkbound.signature", "signature_function"),
    ("signature.signature_nullity_at", "linkbound.signature", "signature_nullity_at"),
    ("signature.pointwise_signature_nullity", "linkbound.signature",
     "pointwise_signature_nullity"),
    ("signature.value_at", "linkbound.signature", "SignatureFunction.value_at"),
    ("signature.to_json", "linkbound.signature", "SignatureFunction.to_json"),
    ("factor.fox_milnor_test", "linkbound.factor", "fox_milnor_test"),
    ("factor.factor_integer_polynomial", "linkbound.factor", "factor_integer_polynomial"),
    ("bounds.lt_lower_bound", "linkbound.bounds", "lt_lower_bound"),
    ("bounds.slice_obstruction", "linkbound.bounds", "slice_obstruction"),
    ("bounds.assemble_report", "linkbound.bounds", "assemble_report"),
    ("cli.main", "linkbound.cli", "main"),
)


class Tracer:
    """Calls, inclusive seconds and self seconds per span name, plus the
    outcome counters that need a span's return value."""

    def __init__(self):
        self.enabled = False
        self.ops = 0  # operations committed into the totals
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.fox_milnor_attempts = 0
        self.fox_milnor_decided = 0
        self.breakpoint_counts: dict[int, int] = {}  # id(function) -> breakpoints
        self._op: list = []  # records of the operation in progress
        self._children: list[float] = []  # nested wrapped time, one slot per open span
        self._open: dict[str, int] = {}   # open spans per name, so recursion counts once

    def start(self):
        """Begin an operation: record spans until `stop`."""
        self._op = []
        self.enabled = True

    def stop(self, commit: bool):
        """End the operation; add its spans to the totals if `commit`
        (operations that fail are left out)."""
        self.enabled = False
        if not commit:
            return
        self.ops += 1
        for name, dt, self_dt, outermost, result in self._op:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + self_dt
            if outermost:
                self.total_s[name] = self.total_s.get(name, 0.0) + dt
            if result is None:  # the call raised inside a successful operation
                continue
            if name == "factor.fox_milnor_test":
                self.fox_milnor_attempts += 1
                self.fox_milnor_decided += result.verdict in ("passes", "fails")
            elif name == "signature.signature_function":
                self.breakpoint_counts[id(result)] = len(result.breakpoints)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._children.append(0.0)
            tracer._open[name] = tracer._open.get(name, 0) + 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                child = tracer._children.pop()
                tracer._open[name] -= 1
                if tracer._children:
                    tracer._children[-1] += dt
                tracer._op.append((name, dt, dt - child, tracer._open[name] == 0, result))

        return wrapper

    def install(self):
        """Wrap every span in LAYERS; returns self."""
        modules = [m for key, m in sys.modules.items()
                   if key == "linkbound" or key.startswith("linkbound.")]
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return self

    def snapshot(self) -> dict:
        return {"ops": self.ops, "calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s,
                "fox_milnor_attempts": self.fox_milnor_attempts,
                "fox_milnor_decided": self.fox_milnor_decided,
                "breakpoints": sorted(self.breakpoint_counts.values())}
