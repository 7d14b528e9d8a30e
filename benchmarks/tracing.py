"""Spans recorded from outside the program, around the calls into each layer.

`Tracer.install` replaces public functions with timing wrappers at the place
their callers look them up (a module global or a class attribute) and
`Tracer.uninstall` puts the originals back, so nothing under src/ changes.
Spans are kept in flat lists while the run lasts, written out once at the
end, and reduced to self time: a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

import numpy as np

ROOT = "trace.root"

# Span names of the aggregator rules; the reduction splits each into calls
# made for the bare method and calls made to build the filter's reference.
AGGREGATOR_KINDS = ("mean", "median", "krum", "gm", "mca", "cclip", "fltrust")
_REFERENCE_PARENT = "filtering.build_reference"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.traces: list[str] = []
        self.stack = [-1]
        self.trace_id = ""
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # ---------------------------------------------------------------- record

    def wrap(self, name: str, fn, post=None):
        """Time every call of fn as span `name`; post(args, result) runs after."""
        names, starts, ends, parents, traces, stack = (
            self.names, self.starts, self.ends, self.parents, self.traces, self.stack
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            traces.append(tracer.trace_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, post=None):
        """Replace owner.attr by a traced version; record it if it is gone."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, post))

    def set_trace(self, owner, attr: str):
        """Make owner.attr(cell, ...) tag later spans with cell.fingerprint."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def tagged(cell, *args, **kwargs):
            tracer.trace_id = cell.fingerprint
            return original(cell, *args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, tagged)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def root(self, fn, *args, **kwargs):
        """Call fn inside the root span; its self time is what no layer claims."""
        return self.wrap(ROOT, fn)(*args, **kwargs)

    # ---------------------------------------------------------------- install

    def install(self):
        """Wrap each layer's public functions where their callers find them."""
        from byzbench import aggregators, data, filtering, flsim, models
        from byzbench.harness import config, sweep

        counters = self.counters

        for fn in ("synth_classification", "stratified_holdout", "take",
                   "carve_clean_shard", "dirichlet_partition", "load_idx"):
            self.patch(data, fn, f"data.{fn}")  # flsim calls them as datamod.<fn>
        for cls in (models.SoftmaxRegression, models.OneHiddenMLP):
            self.patch(cls, "loss_and_gradient", "models.loss_and_gradient")
            self.patch(cls, "accuracy", "models.accuracy")

        def count_krum(args, result):
            m, p = np.shape(args[0])
            counters["krum.pairwise_bytes"] += m * m * p * 8

        for kind in AGGREGATOR_KINDS:  # aggregate() dispatches through these globals
            self.patch(aggregators, f"aggregate_{kind}", f"aggregators.{kind}",
                       count_krum if kind == "krum" else None)
        self.patch(filtering, "aggregate", "filtering.aggregate")
        self.patch(filtering, "select_clients", "filtering.select_clients")

        def count_filter(args, result):
            counters["filter.rounds"] += 1
            counters["filter.empty"] += int(result.empty_intersection)
            counters["filter.kept"] += len(result.selected) / np.shape(args[1])[0]

        self.patch(flsim, "substream", "core.substream")
        self.patch(flsim, "select_byzantine_set", "core.select_byzantine_set")
        self.patch(flsim, "build_model", "models.build_model")
        self.patch(flsim, "byzantine_payloads", "attacks.byzantine_payloads")
        self.patch(flsim, "aggregate", "aggregators.aggregate")
        self.patch(flsim, "build_reference", "filtering.build_reference")
        self.patch(flsim, "filter_and_aggregate", "filtering.filter_and_aggregate", count_filter)
        self.patch(flsim.Simulation, "__init__", "flsim.setup")
        self.patch(flsim.Simulation, "run_round", "flsim.run_round")
        self.patch(flsim.Simulation, "_clean_gradient", "flsim.clean_gradient")

        def count_bytes(key):
            def post(args, result):
                counters[key] += os.path.getsize(args[1])
            return post

        self.patch(config, "parse_config", "harness.config.parse_config")
        self.patch(sweep, "expand_cells", "harness.sweep.expand_cells")
        for fn in ("write_round_csv", "write_summary_json"):
            self.patch(sweep, fn, f"harness.reporting.{fn}",
                       count_bytes(f"harness.reporting.{fn}.bytes"))
        self.patch(sweep, "read_summary_rows", "harness.reporting.read_summary_rows")
        self.set_trace(sweep, "run_cell")

    # ------------------------------------------------------------------ reduce

    def write(self, path: str) -> dict[str, np.ndarray]:
        """Save every span to an .npz file once, and return the arrays."""
        names = sorted(set(self.names))
        name_ids = {n: i for i, n in enumerate(names)}
        traces = sorted(set(self.traces))
        trace_ids = {t: i for i, t in enumerate(traces)}
        spans = {
            "names": np.array(names),
            "name": np.array([name_ids[n] for n in self.names], dtype=np.int32),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
            "parent": np.array(self.parents, dtype=np.int64),
            "trace_ids": np.array(traces),
            "trace": np.array([trace_ids[t] for t in self.traces], dtype=np.int32),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, **spans)
        return spans


def reduce_spans(spans: dict[str, np.ndarray]) -> dict:
    """Calls, self time and durations per span name.

    Aggregator spans are keyed "aggregators.<kind>.ref" when they run under
    filtering.build_reference, and "aggregators.<kind>.bare" otherwise.
    """
    names = spans["names"]
    name = spans["name"]
    parent = spans["parent"]
    duration = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                             minlength=duration.size)
    self_time = duration - child_time

    keys = names[name].astype(object)
    ref_ids = set(np.flatnonzero(names == _REFERENCE_PARENT).tolist())
    for kind in AGGREGATOR_KINDS:
        for i in np.flatnonzero(keys == f"aggregators.{kind}"):
            j = parent[i]
            while j >= 0 and name[j] not in ref_ids:
                j = parent[j]
            keys[i] = f"aggregators.{kind}.{'ref' if j >= 0 else 'bare'}"

    table: dict[str, dict] = {}
    for key in sorted(set(keys)):
        hits = keys == key
        table[key] = {
            "calls": int(hits.sum()),
            "self_s": float(self_time[hits].sum()),
            "durations": duration[hits],
        }
    return table
