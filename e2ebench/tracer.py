"""Per-layer timers for the traced run, kept outside the program.

:class:`LayerTracer` wraps the public entry points of each layer with a
wall-clock timer and a call counter, and restores the originals on
:meth:`LayerTracer.uninstall`. Nothing under ``src/`` is edited; the
untraced run installs nothing, so its end-to-end figures carry no
tracing cost.

Records go to the current phase: ``"setup"`` while inputs and indexes
are built, ``"run"`` while the measured rounds execute, and nowhere
(``None``) in between. Times are inclusive: ``nn.forward_s`` contains
the ``propagation.forward_s`` and ``kernels.*`` time spent inside it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Iterator

from repro.graphs import datasets
from repro.kernels import accounting
from repro.kernels import ops as kernel_ops
from repro.nn.loss import SigmoidCrossEntropy, SoftmaxCrossEntropy
from repro.nn.network import GCN
from repro.nn.optim import Adam
from repro.propagation.feature_prop import PartitionedPropagator
from repro.sampling.dashboard import DashboardFrontierSampler
from repro.serving import cluster
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import GenerationalCache
from repro.serving.index import BruteForceIndex, ClusterIndex
from repro.serving.router import CentroidRouter, HedgePolicy
from repro.serving.upsert import SlabUpsertProducer
from repro.train.evaluation import Evaluator

import checks


class Phase:
    """Timers, counters and samples of one phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.gemm_flops = 0.0
        self.spmm_flops = 0.0


class LayerTracer:
    """Install/uninstall timing wrappers around every layer's entry points.

    ``gcn_dims`` (the feature widths ``f_0 .. f_L`` of the trained GCN)
    turns on the Eq. 1 check: every ``GCN.forward`` call is metered with
    :func:`repro.kernels.accounting.capture` and compared with
    :func:`checks.eq1_forward_flops` of its graph's ``|V|`` and ``|E|``.
    """

    def __init__(self, gcn_dims: list[int] | None = None) -> None:
        self.phases = {"setup": Phase(), "run": Phase()}
        self.current: Phase | None = None
        self.gcn_dims = gcn_dims
        self.eq1_checked = 0
        self.eq1_mismatches = 0
        self._eval_depth = 0
        self._ready: dict[int, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def recording(self, name: str) -> Iterator[None]:
        """Record into phase ``name`` inside the block, metering kernel flops."""
        phase = self.phases[name]
        self.current = phase
        try:
            with accounting.capture() as meter:
                yield
        finally:
            self.current = None
            phase.gemm_flops += meter.gemm_flops
            phase.spmm_flops += meter.spmm_flops

    # -- wrapping ----------------------------------------------------
    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))

    def _timed(self, owner, attr: str, name: str, *, when=None, after=None) -> None:
        """Time calls of ``owner.attr`` under ``name``.

        ``when(args, kwargs)`` filters which calls count; ``after(phase,
        result, args)`` records extra samples from the call's result.
        """
        tracer = self

        def factory(original):
            def wrapper(*args, **kwargs):
                phase = tracer.current
                if phase is None or (when is not None and not when(args, kwargs)):
                    return original(*args, **kwargs)
                t0 = time.perf_counter()
                result = original(*args, **kwargs)
                phase.seconds[name] += time.perf_counter() - t0
                phase.calls[name] += 1
                if after is not None:
                    after(phase, result, args)
                return result

            return wrapper

        self._patch(owner, attr, factory)

    def install(self) -> None:
        """Wrap every traced entry point (idempotent per instance)."""
        if self._saved:
            return
        training = lambda args, kwargs: self._eval_depth == 0  # noqa: E731
        # graphs: the dataset build and the generator/feature steps it calls.
        self._timed(datasets, "make_dataset", "graphs.dataset")
        self._timed(datasets, "dcsbm_graph", "graphs.generate")
        for fn in (
            "svd_compressed_features",
            "gaussian_class_features",
            "multi_label_from_blocks",
            "single_label_from_blocks",
        ):
            self._timed(datasets, fn, "graphs.features")
        self._timed(datasets, "smooth_features", "graphs.smooth")
        # sampling
        self._timed(
            DashboardFrontierSampler,
            "sample",
            "sampling.sample",
            after=lambda ph, sub, args: ph.samples["sampling.vertices"].append(
                sub.num_vertices
            ),
        )
        # propagation
        self._timed(PartitionedPropagator, "forward", "propagation.forward")
        self._timed(PartitionedPropagator, "backward", "propagation.backward")
        # kernels (spmm_adjoint dispatches through ops.spmm)
        self._timed(kernel_ops, "gemm", "kernels.gemm")
        self._timed(kernel_ops, "gemm_accumulate", "kernels.gemm")
        self._timed(kernel_ops, "spmm", "kernels.spmm")
        # nn: training-path calls only; evaluation has its own layer.
        self._wrap_gcn_forward()
        self._timed(GCN, "backward", "nn.backward")
        for loss_cls in (SigmoidCrossEntropy, SoftmaxCrossEntropy):
            self._timed(loss_cls, "forward", "nn.loss", when=training)
            self._timed(loss_cls, "backward", "nn.loss", when=training)
        self._timed(Adam, "step", "nn.optimizer")
        # train
        self._wrap_evaluate()
        # serving.index
        for index_cls in (ClusterIndex, BruteForceIndex):
            self._timed(index_cls, "__init__", "serving.index.build")
            self._timed(
                index_cls,
                "search",
                "serving.index.search",
                after=lambda ph, res, args: ph.samples["serving.index.rows"].append(
                    args[0].last_rows_scanned
                ),
            )
        # serving.cache
        self._timed(GenerationalCache, "get", "serving.cache.lookup")
        self._timed(GenerationalCache, "put", "serving.cache.lookup")
        self._timed(GenerationalCache, "invalidate", "serving.cache.invalidate")
        # serving.batcher
        self._wrap_batcher()
        # serving.router
        self._timed(CentroidRouter, "route", "serving.router.route")
        self._timed(HedgePolicy, "threshold", "serving.router.hedge_threshold")
        # serving.cluster
        self._timed(cluster, "partition_vertices", "serving.cluster.partition")
        self._timed(cluster, "merge_topk", "serving.cluster.merge")
        self._timed(cluster.ShardedIndex, "replace_shard", "serving.cluster.upsert_apply")
        # serving.upsert
        self._timed(SlabUpsertProducer, "pending", "serving.upsert.slab")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.current = None

    # -- wrappers that need more than a timer -------------------------
    def _wrap_gcn_forward(self) -> None:
        tracer = self

        def factory(original):
            def forward(model, features, aggregator, *, train=True):
                phase = tracer.current
                if phase is None:
                    return original(model, features, aggregator, train=train)
                with accounting.capture() as meter:
                    t0 = time.perf_counter()
                    out = original(model, features, aggregator, train=train)
                    elapsed = time.perf_counter() - t0
                if train:
                    phase.seconds["nn.forward"] += elapsed
                    phase.calls["nn.forward"] += 1
                if tracer.gcn_dims is not None:
                    expected = checks.eq1_forward_flops(
                        features.shape[0],
                        aggregator.graph.num_edges_directed,
                        tracer.gcn_dims,
                    )
                    tracer.eq1_checked += 1
                    tracer.eq1_mismatches += meter.total_flops != expected
                return out

            return forward

        self._patch(GCN, "forward", factory)

    def _wrap_evaluate(self) -> None:
        tracer = self

        def factory(original):
            def evaluate(evaluator, model, split="val"):
                phase = tracer.current
                tracer._eval_depth += 1
                t0 = time.perf_counter()
                try:
                    return original(evaluator, model, split)
                finally:
                    tracer._eval_depth -= 1
                    if phase is not None:
                        phase.seconds["train.eval"] += time.perf_counter() - t0
                        phase.calls["train.eval"] += 1

            return evaluate

        self._patch(Evaluator, "evaluate", factory)

    def _wrap_batcher(self) -> None:
        """Queue wait = batch start (the last ``ready_time`` answer the
        server read from this batcher) minus each request's arrival."""
        tracer = self

        def ready_factory(original):
            def ready_time(batcher, busy_until):
                start = original(batcher, busy_until)
                tracer._ready[id(batcher)] = start
                return start

            return ready_time

        def take_factory(original):
            def take(batcher):
                batch = original(batcher)
                phase = tracer.current
                if phase is not None and batch:
                    start = tracer._ready.get(id(batcher), batch[0].arrival)
                    phase.calls["serving.batcher.batches"] += 1
                    phase.samples["serving.batcher.size"].append(len(batch))
                    phase.samples["serving.batcher.wait"].extend(
                        start - r.arrival for r in batch
                    )
                return batch

            return take

        self._patch(MicroBatcher, "ready_time", ready_factory)
        self._patch(MicroBatcher, "take", take_factory)
