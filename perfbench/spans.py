"""Span recorder for the traced run.

``SpanRecorder.install`` replaces the named module functions and class
methods with wrappers that record one span per call: name, start, end,
parent span and operation id. Nothing is wrapped unless a traced run asks
for it, and ``uninstall`` puts the originals back. Self time is a span's
duration minus the durations of its direct children.
"""

import functools
import importlib
import json
import time

#: Spans kept for the JSON-lines dump; totals are exact beyond this.
MAX_KEPT_SPANS = 200_000


class SpanRecorder:
    def __init__(self, targets):
        """``targets``: (span name, module name, attribute path) triples."""
        self.targets = list(targets)
        self.op_id = None
        self.spans = []
        self.dropped = 0
        self.calls = {name: 0 for name, _, _ in self.targets}
        self.self_s = {name: 0.0 for name, _, _ in self.targets}
        self._stack = []  # [span id, child time] per open span
        self._next_id = 0
        self._originals = []

    def install(self):
        for name, module_name, attr in self.targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._originals):
            setattr(owner, leaf, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((span_id, parent, self.op_id, name, start, end))
                else:
                    self.dropped += 1

        return wrapper

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
