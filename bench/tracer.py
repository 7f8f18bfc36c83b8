"""Outside-in tracer for wittkit: wraps the public callables of each layer
from the benchmark's side, without touching the library's source.

Modules import functions by name (``isometric`` is bound in both
``wittkit.forms`` and ``wittkit.wittgroup``), so a function is replaced
wherever a loaded ``wittkit`` module binds it, and a method is replaced on
its class under every attribute that holds it (``Element.__rmul__`` is
``Element.__mul__``).  ``uninstall`` puts every original back.

Each wrapped call adds to its target's count, inclusive time (outermost
frame only, since ``WittEngine.classes`` recurses) and self time (inclusive
time minus time covered by wrapped children).  Calls of span targets are
also kept in memory as spans (name, start, end, parent span, query id) and
written out by ``write_spans``; the hot leaf targets of ``rings`` only
aggregate, since one query makes hundreds of thousands of those calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    # calls whose nearest wrapped caller is the target's cache method
    under_cache: int = 0
    extra: dict = field(default_factory=dict)
    depth: int = 0


def _add(stat, key, n):
    stat.extra[key] = stat.extra.get(key, 0) + n


def _isometric(tracer, stat, args, result):
    _add(stat, "hits", result is not None)


def _is_metabolic(tracer, stat, args, result):
    _add(stat, "trues", bool(result))


def _presented_group(tracer, stat, args, result):
    _add(stat, "relations", len(args[2]))


def _smith(tracer, stat, args, result):
    a = args[0]
    _add(stat, "cells", len(a) * (len(a[0]) if a else 0))


def _classes(tracer, stat, args, result):
    # the engine hands back the same list object on a cache hit, so a list
    # not seen before in this query is a freshly enumerated class list
    if id(result) not in tracer.seen_lists:
        tracer.seen_lists[id(result)] = result
        _add(stat, "classes_found", len(result))


@dataclass(frozen=True)
class Target:
    name: str
    module: str
    qualname: str
    span: bool = True
    cached_by: str | None = None
    observe: object = None


TARGETS = (
    Target("rings.Element.mul", "wittkit.rings", "Element.__mul__", span=False),
    Target("rings.RingWithInvolution.conj", "wittkit.rings", "RingWithInvolution.conj", span=False),
    Target("linalg.Matrix.rref", "wittkit.linalg", "Matrix.rref"),
    Target("modules.FLModule", "wittkit.modules", "FLModule.__init__"),
    Target("coefficients.DualModule", "wittkit.coefficients", "DualModule.__init__",
           cached_by="wittgroup.WittEngine.dual_of"),
    Target("transfer.TransferCoefficient", "wittkit.transfer", "TransferCoefficient.__init__"),
    Target("transfer.transfer_form", "wittkit.transfer", "transfer_form"),
    Target("forms.HermitianForm.is_nondegenerate", "wittkit.forms", "HermitianForm.is_nondegenerate"),
    Target("forms.HermitianForm.norm_fingerprint", "wittkit.forms", "HermitianForm.norm_fingerprint",
           cached_by="wittgroup.WittEngine.fingerprint"),
    Target("forms.isometric", "wittkit.forms", "isometric", observe=_isometric),
    Target("forms.is_metabolic", "wittkit.forms", "is_metabolic",
           cached_by="wittgroup.WittEngine.metabolic", observe=_is_metabolic),
    Target("wittgroup.WittEngine.classes", "wittkit.wittgroup", "WittEngine.classes", observe=_classes),
    Target("wittgroup.WittEngine.lookup", "wittkit.wittgroup", "WittEngine.lookup"),
    Target("wittgroup.WittEngine.fingerprint", "wittkit.wittgroup", "WittEngine.fingerprint"),
    Target("wittgroup.WittEngine.metabolic", "wittkit.wittgroup", "WittEngine.metabolic"),
    Target("wittgroup.WittEngine.dual_of", "wittkit.wittgroup", "WittEngine.dual_of"),
    Target("intsnf.PresentedGroup", "wittkit.intsnf", "PresentedGroup.__init__", observe=_presented_group),
    Target("intsnf.hom_kernel_cokernel_trivial", "wittkit.intsnf", "hom_kernel_cokernel_trivial"),
    Target("intsnf.lattice_contains", "wittkit.intsnf", "lattice_contains"),
    Target("intsnf.smith_normal_form", "wittkit.intsnf", "smith_normal_form", observe=_smith),
    Target("devissage.verify_devissage", "wittkit.devissage", "verify_devissage"),
    Target("devissage.verify_localcase_factorization", "wittkit.devissage",
           "verify_localcase_factorization"),
)


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.seen_lists = {}
        self._frames = []  # [child time, target name] per active wrapped call
        self._span_stack = []
        self._patches = []
        self._query = None
        self.reset_stats()

    # -- recording ----------------------------------------------------------
    def reset_stats(self, pass_no=0):
        """Zero the stats at the start of a pass; spans are kept."""
        self.stats = {t.name: Stat() for t in TARGETS}
        self._pass_no = pass_no

    def start_query(self, qid):
        """Open the root span of one query; its spans carry the query id
        "<pass>/<qid>".  Returns the token for end_query."""
        self._query = f"{self._pass_no}/{qid}"
        self.seen_lists = {}
        idx = len(self.spans)
        self.spans.append(None)
        self._span_stack.append(idx)
        return idx, time.perf_counter()

    def end_query(self, token):
        idx, start = token
        self._span_stack.pop()
        self.spans[idx] = ("query", start, time.perf_counter(), -1, self._query)
        self.seen_lists = {}

    def _wrap(self, target, fn):
        tracer = self
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans
        clock = time.perf_counter
        name = target.name
        observe = target.observe
        keep_span = target.span
        cached_by = target.cached_by

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat = tracer.stats[name]
            stat.calls += 1
            if cached_by is not None and frames and frames[-1][1] == cached_by:
                stat.under_cache += 1
            if keep_span:
                idx = len(spans)
                spans.append(None)
                parent = span_stack[-1] if span_stack else -1
                span_stack.append(idx)
            frame = [0.0, name]
            frames.append(frame)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                stat.depth -= 1
                dur = end - start
                stat.self_s += dur - frame[0]
                if not stat.depth:
                    stat.total_s += dur
                if frames:
                    frames[-1][0] += dur
                if keep_span:
                    span_stack.pop()
                    spans[idx] = (name, start, end, parent, tracer._query)
            if observe is not None:
                observe(tracer, stat, args, result)
            return result

        return traced

    # -- patching -----------------------------------------------------------
    def install(self):
        """Replace every binding of every target in the loaded wittkit
        modules.  Call after ``import wittkit``."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wittkit" or n.startswith("wittkit."))]
        for target in TARGETS:
            owner = sys.modules[target.module]
            path = target.qualname.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[path[-1]]
            wrapped = self._wrap(target, original)
            for holder in ([owner] if len(path) > 1 else modules):
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapped)

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -- output -------------------------------------------------------------
    def write_spans(self, path):
        """One JSON object per span, in start order; times are seconds on
        the perf_counter clock."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                name, start, end, parent, query = s
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")
