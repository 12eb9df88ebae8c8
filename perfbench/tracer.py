"""In-memory span recorder and the wrappers that feed it.

A traced run wraps the public layer functions of ``onevar`` where their
callers bind them (module attributes such as ``onevar.search.sat_set``, and
methods of ``ProductModel`` and ``TranslationContext``).  The package itself
is not edited.  Untraced runs never construct a :class:`Tracer`, so they run
the library exactly as shipped.

Spans live in parallel compact arrays (name id, start ns, end ns, parent
index) and are written once, when the run ends.  A span's self time is its
duration minus the part of that interval its child spans cover; calls are
single-threaded and properly nested, so the cover is the sum of the direct
children's durations.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext


class _NoProbe:
    """Stands in for a :class:`Tracer` in untraced runs: records nothing."""

    def span(self, name: str):
        return nullcontext()

    def add(self, key: str, n: int = 1) -> None:
        pass


NO_PROBE = _NoProbe()


class Tracer:
    """Span and counter recorder for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.seen: set[int] = set()  # formula ids a counter already took
        self.recent_models: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.name_ids)

    @contextmanager
    def span(self, name: str):
        """Span around a call the benchmark makes into a layer."""
        nid = self._id(name)
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def wrap(self, fn, name: str, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs
        outside the span to update counters."""
        nid = self._id(name)
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, stack = self.parents, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (a module function, method or classmethod)
        with a traced version until :meth:`unpatch`."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(original.__func__, name, after))
        else:
            replacement = self.wrap(original, name, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading spans -------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict[str, dict[str, int]]:
        """Per span name: call count, total and self nanoseconds, over the
        spans with indices in ``[lo, hi)``."""
        cover = [0] * (hi - lo)
        for i in range(lo, hi):
            parent = self.parents[i]
            if parent >= lo:
                cover[parent - lo] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, int]] = {}
        for i in range(lo, hi):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(self.names[self.name_ids[i]],
                                 {"calls": 0, "total_ns": 0, "self_ns": 0,
                                  "top_ns": 0})
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - cover[i - lo]
            if self.parents[i] < lo:
                row["top_ns"] += dur
        return out

    def truncate(self, n: int) -> None:
        """Drop every span from index ``n`` on (after it was aggregated)."""
        for arr in (self.name_ids, self.starts, self.ends, self.parents):
            del arr[n:]

    def write(self, path) -> None:
        """One JSON header line, then the four arrays as raw native bytes in
        header order; :func:`read_spans` loads the file back."""
        header = {"names": self.names, "spans": len(self),
                  "arrays": [["name_id", "H"], ["start_ns", "q"],
                             ["end_ns", "q"], ["parent", "i"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.starts, self.ends, self.parents):
                arr.tofile(fh)


def read_spans(path) -> list[tuple[str, int, int, int]]:
    """``(name, start_ns, end_ns, parent_index)`` for every span in a file
    written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            columns.append(arr)
    names = header["names"]
    return [(names[n], s, e, p) for n, s, e, p in zip(*columns)]


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of ``onevar`` at their callers' bindings."""
    import onevar.formulas
    import onevar.kripke
    import onevar.search
    import onevar.surgery
    from onevar.formulas import dag_size
    from onevar.kripke import ProductModel
    from onevar.translation import TranslationContext

    counts = tracer.counts
    recent = tracer.recent_models

    def sat_work(args, result):
        # A model caches satisfaction sets by formula, so only the first
        # call per (model, formula) evaluates the DAG; the last few models
        # are remembered (and kept alive, so their ids stay unique).
        model, f = args[0], args[-1]
        entry = recent.pop(id(model), None) or (model, set())
        recent[id(model)] = entry
        if len(recent) > 4:
            del recent[next(iter(recent))]
        if f.uid not in entry[1]:
            entry[1].add(f.uid)
            counts["kripke.node_worlds"] += dag_size(f) * model.frame.worlds

    def product_worlds(args, result):
        counts["kripke.product_worlds"] += result.worlds

    def search_frame(args, result):
        counts["kripke.product_worlds"] += result.worlds
        counts["search.frames"] += 1

    def search_model(args, result):
        counts["search.models"] += 1

    def gadget_worlds(args, result):
        counts["surgery.gadget_worlds"] += result.worlds - args[0].worlds

    def reduction_nodes(args, result):
        if result.uid not in tracer.seen:
            tracer.seen.add(result.uid)
            counts["translation.reduction_dag_nodes"] += dag_size(result)

    tracer.patch(onevar.formulas, "parse", "formulas.parse")
    tracer.patch(TranslationContext, "reduce", "translation.reduce",
                 reduction_nodes)
    tracer.patch(TranslationContext, "uniform_guard", "translation.guard")
    tracer.patch(onevar.kripke, "product", "kripke.product", product_worlds)
    tracer.patch(ProductModel, "with_valuation", "kripke.model", search_model)
    tracer.patch(ProductModel, "from_coords", "kripke.model")
    tracer.patch(onevar.search, "enumerate_frames", "search.enumerate_frames")
    tracer.patch(onevar.search, "product", "kripke.product", search_frame)
    tracer.patch(onevar.search, "sat_set", "kripke.sat", sat_work)
    tracer.patch(onevar.search, "check_naive", "kripke.naive")
    tracer.patch(onevar.surgery, "attach_gadgets", "surgery.attach_gadgets",
                 gadget_worlds)
    tracer.patch(onevar.surgery, "check", "kripke.sat", sat_work)
    tracer.patch(onevar.surgery, "sat_set", "kripke.sat", sat_work)
