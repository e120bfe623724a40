"""Span tracing at the module boundaries of ``boxparse``.

``Tracer.install`` replaces every public function of ``drs``, ``tree``,
``evaluate`` and ``autodiff`` with a wrapper, in every one of those modules
that holds a reference to it (``tree.validate`` is ``drs.validate``), and
wraps the public methods of their classes (``Drs.box``, ``Adam.step``). A
span is named after the module that defines the function, so calls through
any reference land on one name. ``uninstall`` puts the originals back; the
end-to-end run never installs anything.

Self time is a span's duration minus the durations of its child spans,
accumulated as spans close. The first ``keep`` spans are also kept whole
(document, id, parent, name, start, end) and written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

# Work counts read off a span's result: tokens out of linearize, matched
# clauses out of best_alignment, and graph nodes out of every autodiff op.
COUNTS = {
    "tree.linearize": ("tree.tokens", lambda result: len(result.tokens)),
    "evaluate.best_alignment": ("evaluate.matched", lambda result: result[1]),
}
NODES = ("autodiff.graph_nodes",
         lambda result: int(type(result).__name__ == "Tensor" and bool(result._parents)))


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.enabled = True  # off while the benchmark checks outputs
        self.doc = -1
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self._next_id = 0
        self._last_counted = 0
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter, count = COUNTS.get(name) or (NODES if name.startswith("autodiff.")
                                              else (None, None))
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._next_id += 1
            sid = self._next_id
            frame = [sid, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.self_ns[name] += dur - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                if len(self.spans) < self.keep:
                    self.spans.append((self.doc, sid, stack[-1][0] if stack else 0, name,
                                       frame[1], end))
            if counter is not None and id(result) != self._last_counted:
                # dot returns matmul's node, sub returns add's: count it once
                self._last_counted = id(result)
                self.counts[counter] += count(result)
            return result

        return span

    # -- installing --------------------------------------------------------

    def install(self, modules: dict) -> None:
        """``modules`` maps a layer name to its imported module."""
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("boxparse."):
                    owner = obj.__module__.split(".")[-1]
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(f"{owner}.{obj.__name__}", obj)
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        self._undo.append((obj, mname, meth))
                        setattr(obj, mname, self._wrap(f"{layer}.{obj.__name__}.{mname}", meth))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for doc, sid, parent, name, start, end in self.spans:
                f.write(json.dumps({"doc": doc, "id": sid, "parent": parent, "name": name,
                                    "start_ns": start, "end_ns": end}) + "\n")
