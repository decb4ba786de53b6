"""Span tracer for the traced benchmark run.

`install()` wraps every public function of each starlog module and rebinds
the wrapper under every name the function is bound to (so both
`starlog.series.div` and `starlog.members.div` record spans).  A span is
(name, start, end, parent, computed MACs); spans stay in memory until the
caller folds one pass into per-layer metrics with `pass_metrics()`.

Only the traced workload process imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("series", "polylog", "members", "logcoeffs", "bounds", "verify", "search", "cli")
# self time in seconds where every workload calls the code ...
SELF_S = ("series", "polylog", "members", "logcoeffs", "bounds", "series.log_series",
          "series.exp_series", "logcoeffs.log_coefficients", "logcoeffs.sums")
# ... and as a share of the pass where some workload never does
SELF_FRAC = ("verify", "search", "cli", "series.div", "members.extremal_function",
             "verify.verify_member", "verify.check_sharpness", "cli.write_report")


def _tri(n: int) -> int:
    return n * (n + 1) // 2


# Complex multiply-adds implied by the argument orders, as computed from the
# recursions' loop bounds (not measured): N(N+1)/2 for the O(N^2)
# recursions, (N+1)(N+2)/2 for the truncated Cauchy product.
MACS = {
    "series.div": lambda a, b: _tri(min(a.order, b.order)),
    "series.log_series": lambda a: _tri(a.order),
    "series.exp_series": lambda a: _tri(a.order),
    "series.mul": lambda a, b: _tri(min(a.order, b.order) + 1),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        macs = MACS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = macs(*args, **kwargs) if macs else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent, work)
                stack.pop()

        return traced

    def reset(self):
        self.spans.clear()

    def pass_metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset.

        Self time is a span's duration minus the durations of its direct
        children (children of one span never overlap: one thread).  Layers
        and functions that some workload never calls report their self
        time as a share of the pass's `pass_s` seconds (`*.self_frac`), so
        no time metric reads a constant zero.
        """
        names, spans = self.names, self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        macs = 0
        evals = 0
        for i, (nid, start, end, parent, work) in enumerate(spans):
            name = names[nid]
            calls[name] += 1
            self_s[name] += end - start - child[i]
            macs += work
            if name == "members.member_from_seed" and self._has_ancestor(parent, "search.adversarial_search"):
                evals += 1
        for name in list(self_s):
            layer = name.split(".", 1)[0]
            calls[layer] += calls[name]
            self_s[layer] += self_s[name]
        self_s["logcoeffs.sums"] = sum(
            self_s[f"logcoeffs.{f}"] for f in ("sum_sq", "sum_n2", "sum_weighted")
        )

        out: dict[str, float] = {f"{layer}.calls": calls[layer] for layer in LAYERS}
        out.update({f"{name}.self_s": self_s[name] for name in SELF_S})
        out.update({f"{name}.self_frac": self_s[name] / pass_s for name in SELF_FRAC})
        out["series.macs"] = macs
        out["members.member_from_seed.calls"] = calls["members.member_from_seed"]
        out["polylog.li.calls"] = calls["polylog.li"]
        out["search.evals"] = evals
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            nid, _, _, parent, _ = self.spans[idx]
            if self.names[nid] == name:
                return True
            idx = parent
        return False

    def dump(self, path: str):
        """Write the spans recorded since the last reset as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "macs"],
                    "spans": [[self.names[s[0]], *s[1:]] for s in self.spans],
                },
                fh,
            )


def install() -> Tracer:
    """Wrap the public functions of every layer and rebind all their names."""
    tracer = Tracer()
    wrapped: dict[int, tuple] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"starlog.{layer}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for name, mod in list(sys.modules.items()):
        if name != "starlog" and not name.startswith("starlog."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
    return tracer
