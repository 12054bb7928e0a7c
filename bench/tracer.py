"""Spans and counts around the package's public entry points, installed from
outside: the package itself carries no instrumentation.

`Tracer.installed()` replaces each traced function with a wrapper in every
module that binds it (the package modules import names with `from .engine
import build_chain`, so patching `engine` alone would miss most callers) and
patches methods on their classes; it puts the originals back on exit.

A span is (id, parent id, name, start ns, end ns, nearest marker ancestor).
Spans are appended to one flat integer array when they end, so a child is
always stored before its parent.  `Permutation` operations are only counted:
at about 2 us a call, a span would mostly time its own wrapper, so their time
stays in the self time of the span that called them.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import permzk
from permzk import conjugacy, element, engine, framework, instances, nonconjugacy, perm, simulator

MODULES = (permzk, perm, engine, framework, conjugacy, nonconjugacy, element, simulator, instances)

ROOT_SPAN = "framework.op"
SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "marker")

# (span name, owner, attribute): module functions are patched wherever they
# are bound, methods on the class that defines them.
SPANNED = (
    ("engine.build_chain", engine, "build_chain"),
    ("engine.group_equal", engine, "group_equal"),
    ("engine.random_generating_tuple", engine, "random_generating_tuple"),
    ("engine.generating_tuples", engine, "generating_tuples"),
    ("engine.enumerate_elements", engine, "enumerate_elements"),
    ("engine.group_profile", engine, "group_profile"),
    ("engine.contains", engine.StabilizerChain, "contains"),
    ("engine.random_element", engine.StabilizerChain, "random_element"),
    ("framework.run_sequential", framework, "run_sequential"),
    ("framework.run_parallel", framework, "run_parallel"),
    ("conjugacy.commit", conjugacy.HonestProver, "commit"),
    ("conjugacy.commit", conjugacy.GuessingProver, "commit"),
    ("conjugacy.respond", conjugacy.HonestProver, "respond"),
    ("conjugacy.respond", conjugacy.GuessingProver, "respond"),
    ("conjugacy.verify", conjugacy, "response_accepted"),
    ("nonconjugacy.draw_challenge", nonconjugacy, "draw_challenge"),
    ("nonconjugacy.matched_sides", nonconjugacy, "matched_sides"),
    ("element.commit", element.HonestElemProver, "commit"),
    ("element.commit", element.GuessingElemProver, "commit"),
    ("element.respond", element.HonestElemProver, "respond"),
    ("element.respond", element.GuessingElemProver, "respond"),
    ("element.verify", element, "response_accepted"),
    ("element.zk_bijection", element, "verify_element_bijection"),
    ("element.zk_compare", element, "compare_element_view_distributions"),
    ("simulator.simulate", simulator, "simulate"),
    ("simulator.real_view", simulator, "real_view"),
    ("simulator.exact_real_law", simulator, "exact_real_law"),
    ("simulator.exact_sim_law", simulator, "exact_sim_law"),
    ("simulator.consistent_views", simulator, "enumerate_consistent_views"),
    ("simulator.bijection", simulator, "verify_view_bijection"),
    ("simulator.compare", simulator, "compare_view_distributions"),
    ("instances.parse", instances, "parse_instance_text"),
)

COUNTED = (
    ("perm.mul_calls", perm.Permutation, "__mul__"),
    ("perm.conjugated_by_calls", perm.Permutation, "conjugated_by"),
    ("perm.inverse_calls", perm.Permutation, "inverse"),
)

# Spans whose descendants are told apart by them: every span stores the
# nearest of these above it.
MARKERS = (
    "engine.random_generating_tuple",
    "engine.group_profile",
    "conjugacy.verify",
    "nonconjugacy.matched_sides",
)


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN] + sorted({name for name, _, _ in SPANNED} | {"simulator.chi2"})
        self.code = {name: i for i, name in enumerate(self.names)}
        self.spans = array("q")
        self.counts = Counter()
        self.samples = defaultdict(list)
        self._ids = itertools.count(1)
        self._stack = [(0, -1)]

    def wrap(self, name: str, fn, on_result=None):
        code = self.code[name]
        marker = code if name in MARKERS else None
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent, above = stack[-1]
            stack.append((sid, above if marker is None else marker))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, parent, code, t0, t1, above))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _observe(self, name: str):
        samples = self.samples
        if name == "engine.random_generating_tuple":
            return lambda gt: samples["tuple_attempts"].append(gt.attempts)
        if name == "simulator.simulate":
            return lambda res: samples["simulate"].append((res.restarts, res.sample_attempts))
        return None

    @contextmanager
    def installed(self):
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for name, owner, attr in SPANNED:
                original = owner.__dict__[attr]
                wrapper = self.wrap(name, original, self._observe(name))
                if isinstance(owner, type):
                    patch(owner, attr, wrapper)
                else:
                    for module in MODULES:
                        if module.__dict__.get(attr) is original:
                            patch(module, attr, wrapper)
            for key, owner, attr in COUNTED:
                patch(owner, attr, self._counted(key, owner.__dict__[attr]))
            stats = sys.modules.get("scipy.stats")
            if stats is not None:
                patch(stats, "chi2_contingency", self.wrap("simulator.chi2", stats.chi2_contingency))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, stem: Path, meta: dict) -> None:
        """Spans as raw native int64 rows of SPAN_FIELDS in end order to
        <stem>.spans; names, counts and samples as JSON to <stem>.json."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            self.spans.tofile(fh)
        head = dict(meta, span_fields=SPAN_FIELDS, names=self.names, counts=self.counts, samples=self.samples)
        stem.with_suffix(".json").write_text(json.dumps(head) + "\n")

    def totals(self) -> dict:
        """Nanosecond sums over all stored spans, by the keys the per-layer
        metrics need: inclusive time and calls per span name, self time per
        layer, and the slices told apart by marker ancestors."""
        names, code = self.names, self.code
        layer = [name.split(".", 1)[0] for name in names]
        incl = [0] * len(names)
        calls = [0] * len(names)
        self_ns = Counter()
        child = defaultdict(int)
        build, contains = code["engine.build_chain"], code["engine.contains"]
        enum, profile = code["engine.enumerate_elements"], code["engine.group_profile"]
        sampling, verify = code["engine.random_generating_tuple"], code["conjugacy.verify"]
        matched = code["nonconjugacy.matched_sides"]
        slices = Counter()
        s = self.spans
        for k in range(0, len(s), 6):
            sid, parent, c, t0, t1, above = s[k : k + 6]
            d = t1 - t0
            incl[c] += d
            calls[c] += 1
            self_ns[layer[c]] += d - child.pop(sid, 0)
            child[parent] += d
            if c == build:
                if above == sampling:
                    slices["build_chain.sampling"] += d
                elif above == verify:
                    slices["build_chain.verify"] += d
            elif c == contains and above == matched:
                slices["u_scan_contains"] += 1
            elif c == enum and above != profile:
                slices["enumerate_elements"] += d
        slices["enumerate_elements"] += incl[profile]
        return {
            "incl": dict(zip(names, incl)),
            "calls": dict(zip(names, calls)),
            "self": dict(self_ns),
            "slices": dict(slices),
        }
