"""Span tracer wrapped around openset_al's public functions from outside.

A traced run replaces each public function at the module attribute its
caller looks up (``openset_al.harness.score_pool``,
``openset_al.model.edl_loss``, ...) with a wrapper that records one span
per call: name, start, end and parent span.  Spans stay in memory; self
time is derived once the run ends.  ``Tracer.restore`` puts every
original object back, so an untraced pass after a traced one runs the
unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Site:
    """One patch site: ``owner.attr`` becomes a wrapper recording spans
    named ``span``.  ``owner`` is a module path, or ``module:Class`` for a
    method.  ``rows_arg`` names the positional argument whose length is
    added to ``<span>.rows`` (``<span>.ids`` for oracle_label)."""

    owner: str
    attr: str
    span: str
    rows_arg: int | None = None
    rows_key: str = "rows"


# Every name is wrapped in each module that looks it up.  The evidential
# scores keep one span name on every call path.  ``forward`` is named by
# its caller: ``model.forward`` serves the discrepancy weights on training
# batches, ``selection.forward`` scores the whole pool (and the test set,
# through ``averaged_probs``), so it is counted with the selection layer.
LIBRARY_SITES = (
    Site("openset_al.datasets", "make_blobs", "datasets.make_blobs"),
    Site("openset_al.datasets:DatasetSplit", "validate", "datasets.DatasetSplit.validate"),
    Site("openset_al.harness", "run_experiment", "harness.run_experiment"),
    Site("openset_al.harness", "oracle_label", "harness.oracle_label", 0, "ids"),
    Site("openset_al.harness", "evaluate_accuracy", "harness.evaluate_accuracy", 1),
    Site("openset_al.harness", "init_model", "model.init_model"),
    Site("openset_al.harness", "train_cycle", "model.train_cycle"),
    Site("openset_al.harness", "score_pool", "selection.score_pool", 1),
    Site("openset_al.harness", "averaged_probs", "selection.averaged_probs", 1),
    Site("openset_al.harness", "coarse_to_fine_select", "selection.coarse_to_fine_select"),
    Site("openset_al.harness", "baseline_select", "selection.baseline_select"),
    Site("openset_al.model", "edl_loss", "model.edl_loss", 1),
    Site("openset_al.model", "cross_entropy_loss", "model.cross_entropy_loss", 1),
    Site("openset_al.model", "close_loss", "model.close_loss", 1),
    Site("openset_al.model", "dis_loss", "model.dis_loss", 1),
    Site("openset_al.model", "sgd_step", "model.sgd_step"),
    Site("openset_al.model", "forward", "model.forward", 1),
    Site("openset_al.model", "data_uncertainty", "evidential.data_uncertainty"),
    Site("openset_al.model", "distribution_uncertainty", "evidential.distribution_uncertainty"),
    Site("openset_al.model", "jsd", "evidential.jsd"),
    Site("openset_al.selection", "forward", "selection.forward", 1),
    Site("openset_al.selection", "data_uncertainty", "evidential.data_uncertainty"),
    Site("openset_al.selection", "distribution_uncertainty", "evidential.distribution_uncertainty"),
    Site("openset_al.selection", "discrepancy_score", "evidential.discrepancy_score"),
    Site("openset_al.selection", "expected_probs", "evidential.expected_probs"),
    Site("openset_al.selection", "gmm_fit", "selection.gmm_fit"),
    Site("openset_al.selection", "coarse_select", "selection.coarse_select"),
    Site("openset_al.selection", "fine_select", "selection.fine_select"),
)

# ``openset-al run`` with one job runs its cells in-process and looks up
# make_blobs and run_experiment in the cli module.
CLI_SITES = (
    Site("openset_al.cli", "cmd_run", "cli.run"),
    Site("openset_al.cli", "cmd_report", "cli.report"),
    Site("openset_al.cli", "make_blobs", "datasets.make_blobs"),
    Site("openset_al.cli", "run_experiment", "harness.run_experiment"),
)
ALL_SITES = LIBRARY_SITES + CLI_SITES


def resolve_owner(owner: str):
    module_path, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_path)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.context: dict = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------
    def install(self, sites, hooks=None) -> None:
        """Wrap every site; ``hooks`` maps a span name to a callable
        ``hook(tracer, args, kwargs, result)`` run after each call."""
        hooks = hooks or {}
        # Import every owner first: a module imported after another one was
        # patched would bind the wrapper as its original.
        owners = [resolve_owner(site.owner) for site in sites]
        for site, owner in zip(sites, owners):
            original = owner.__dict__[site.attr]
            wrapper = self._wrap(original, site, hooks.get(site.span))
            self._originals.append((owner, site.attr, original))
            setattr(owner, site.attr, wrapper)

    def restore(self) -> None:
        """Put back every original object, last patched first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, site: Site, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock
        name, rows_arg = site.span, site.rows_arg
        calls_key, rows_key = f"{name}.calls", f"{name}.{site.rows_key}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = len(spans), stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            counts[calls_key] += 1
            if rows_arg is not None:
                counts[rows_key] += len(args[rows_arg])
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # -- reading --------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        return aggregate_self_times(self.spans)


def _covered(interval: tuple[float, float], children) -> float:
    """Length of the union of child intervals clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in children if e > lo and s < hi)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def aggregate_self_times(spans) -> dict[str, float]:
    """Self time of a span is its duration minus the part of it that its
    child spans cover; summed per span name."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _parent) in enumerate(spans):
        totals[name] += (end - start) - _covered((start, end), children.get(idx, ()))
    return dict(totals)
