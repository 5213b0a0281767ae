"""In-memory span tracing around the public calls into each layer.

Spans are recorded from the benchmark's side only: ``Tracer.install``
replaces module attributes of the library with timing wrappers, including
the names other modules imported directly (``verify.static_fair``,
``maximin.build_payoff_matrix``, ...), and ``uninstall`` puts the originals
back.  Each span holds its name, layer, start, end, parent span and op id;
a layer's self time is its spans' time minus the time of their child spans.
Work counters are taken at the same boundaries, in bookkeeping spans of
their own so that counting is charged to tracing overhead, not to a layer.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

from fairmaxcut import exact, heuristics, instances, maximin, reports, verify

LAYERS = ("instances", "exact", "maximin", "heuristics", "verify", "reports", "cli")


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_pass(counts, fn, args, kwargs, result):
    g = _arg(fn, args, kwargs, "g")
    counts["exact.passes"] += 1
    counts["exact.cuts_scored"] += exact.canonical_cut_count(g.vertex_count)


def _count_matrix(counts, fn, args, kwargs, result):
    _count_pass(counts, fn, args, kwargs, result)
    counts["exact.payoff_entries"] += result.group_count * result.column_count


def _count_maximin(counts, fn, args, kwargs, result):
    matrix = _arg(fn, args, kwargs, "matrix")
    counts["maximin.columns_in"] += matrix.column_count
    counts["maximin.distinct_columns"] += len(set(zip(*matrix.entries)))
    counts["maximin.support_size"] += len(result.support)


def _count_trials(counts, fn, args, kwargs, result):
    counts["heuristics.trials"] += _arg(fn, args, kwargs, "trials")


def _count_samples(counts, fn, args, kwargs, result):
    counts["heuristics.samples"] += _arg(fn, args, kwargs, "samples")


# (owner, attribute, span name, layer, counter)
TARGETS = (
    (instances, "load_instance", "instances.load_instance", "instances", None),
    (exact, "max_value", "exact.max_value", "exact", _count_pass),
    (exact, "max_proportion", "exact.max_proportion", "exact", None),
    (exact, "static_fair", "exact.static_fair", "exact", _count_pass),
    (exact, "build_payoff_matrix", "exact.build_payoff_matrix", "exact", _count_matrix),
    (maximin, "build_payoff_matrix", "exact.build_payoff_matrix", "exact", _count_matrix),
    (maximin, "solve_maximin", "maximin.solve_maximin", "maximin", _count_maximin),
    (maximin, "df_fair", "maximin.df_fair", "maximin", None),
    (verify, "max_value", "exact.max_value", "exact", _count_pass),
    (verify, "max_proportion", "exact.max_proportion", "exact", None),
    (verify, "static_fair", "exact.static_fair", "exact", _count_pass),
    (verify, "df_fair", "maximin.df_fair", "maximin", None),
    (verify, "check_chain", "verify.check_chain", "verify", None),
    (heuristics, "naive_random_stats", "heuristics.naive_random_stats", "heuristics", None),
    (heuristics, "naive_random_sample", "heuristics.naive_random_sample", "heuristics", _count_trials),
    (heuristics, "gw_sdp_solve", "heuristics.gw_sdp_solve", "heuristics", None),
    (heuristics, "sdp_objective", "heuristics.sdp_objective", "heuristics", None),
    (heuristics, "gw_round", "heuristics.gw_round", "heuristics", _count_samples),
    (heuristics, "evaluate_distribution", "heuristics.evaluate_distribution", "heuristics", None),
    (heuristics, "separate_solve", "heuristics.separate_solve", "heuristics", None),
    (heuristics, "local_search_cut", "heuristics.local_search_cut", "heuristics", None),
    (reports.ReportBuilder, "render", "reports.render", "reports", None),
)


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        # [name, layer, start, end, parent index, op id, raised]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: str | None = None
        self._undo: list[tuple] = []

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, perf_counter(), None, parent, self._op, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, raised: bool = False) -> None:
        span = self.spans[index]
        span[3] = perf_counter()
        span[6] = raised
        self._stack.pop()

    def call(self, name, layer, fn, *args, **kwargs):
        index = self._open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(index, raised=True)
            raise
        self._close(index)
        return result

    def run_op(self, op_id: str, fn):
        """Run one op as a root span of the ``cli`` layer."""
        self._op = op_id
        try:
            return self.call("op", "cli", fn)
        finally:
            self._op = None

    def _wrap(self, fn, name, layer, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, layer, fn, *args, **kwargs)
            if counter is not None:
                self.call("trace.count", "trace", counter, self.counts, fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, layer, counter in TARGETS:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, layer, counter))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "start": start - self.t0,
                    "end": end - self.t0, "parent": parent, "op": op, "error": raised,
                }) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer table: self times by layer, inclusive times of the
        heuristic entry points, work counters and rates."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op, raised in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        total_s: defaultdict[str, float] = defaultdict(float)
        errors: defaultdict[str, int] = defaultdict(int)
        for i, (name, layer, start, end, parent, op, raised) in enumerate(self.spans):
            self_s[layer] += end - start - child_time[i]
            total_s[name] += end - start
            errors[layer] += raised

        c = self.counts
        out: dict[str, tuple[float, str]] = {
            "instances.load_s": (self_s["instances"], "s"),
            "exact.self_s": (self_s["exact"], "s"),
            "exact.passes": (c["exact.passes"], "count"),
            "exact.cuts_scored": (c["exact.cuts_scored"], "count"),
            "exact.cuts_per_s": (_rate(c["exact.cuts_scored"], self_s["exact"]), "1/s"),
            "exact.payoff_entries": (c["exact.payoff_entries"], "count"),
            "maximin.self_s": (self_s["maximin"], "s"),
            "maximin.columns_in": (c["maximin.columns_in"], "count"),
            "maximin.distinct_columns": (c["maximin.distinct_columns"], "count"),
            "maximin.support_size": (c["maximin.support_size"], "count"),
            "heuristics.self_s": (self_s["heuristics"], "s"),
        }
        sample_s = total_s["heuristics.naive_random_sample"]
        round_s = total_s["heuristics.gw_round"]
        out.update({
            "heuristics.naive_random_sample_s": (sample_s, "s"),
            "heuristics.trials_per_s": (_rate(c["heuristics.trials"], sample_s), "1/s"),
            "heuristics.gw_sdp_solve_s": (total_s["heuristics.gw_sdp_solve"], "s"),
            "heuristics.gw_round_s": (round_s, "s"),
            "heuristics.samples_per_s": (_rate(c["heuristics.samples"], round_s), "1/s"),
            "heuristics.evaluate_distribution_s": (total_s["heuristics.evaluate_distribution"], "s"),
            "heuristics.separate_solve_s": (total_s["heuristics.separate_solve"], "s"),
            "heuristics.local_search_cut_s": (total_s["heuristics.local_search_cut"], "s"),
            "verify.self_s": (self_s["verify"], "s"),
            "reports.render_s": (self_s["reports"], "s"),
            "cli.self_s": (self_s["cli"], "s"),
        })
        for layer in LAYERS:
            out[f"{layer}.errors"] = (errors[layer], "count")
        out["trace.count_s"] = (self_s["trace"], "s")
        return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
