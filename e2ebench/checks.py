"""Correctness oracles computed apart from the program under test.

Nothing here calls into ``repro``: every reference is plain numpy, so a
fault in the program cannot also hide in its own check.

* :func:`f1_micro` — pooled-over-classes micro F1 from 0/1 matrices;
* :func:`exact_topk` — float64 brute-force cosine top-k with the query
  itself masked out, plus the similarity of the k-th neighbour (the tie
  line used by :func:`agrees_with_exact`);
* :func:`valid_answers` — each answer row holds ``k`` distinct ids in
  range, none of them the query;
* :func:`recall` — per-request recall@k against the exact top-k;
* :func:`drifted_embeddings` — the slab producer's documented schedule
  (slab ``j`` adds ``scale * N(0, 1)`` to shard ``j % S`` from the
  ``j``-th child of ``SeedSequence(seed)``) replayed epoch by epoch;
* :func:`eq1_forward_flops` — the paper's Eq. 1 operation count of one
  GCN forward pass, times two (one multiply plus one add per MAC).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Query rows per oracle block: bounds the (rows, n) float64 similarity
#: block at 128 x 100k x 8 B = 100 MB.
ORACLE_CHUNK = 128


def f1_micro(labels: np.ndarray, logits: np.ndarray) -> float:
    """Micro F1 of multi-label predictions ``logits > 0`` (p >= 0.5)."""
    pred = logits > 0.0
    truth = labels > 0.5
    tp = float(np.count_nonzero(pred & truth))
    fp = float(np.count_nonzero(pred & ~truth))
    fn = float(np.count_nonzero(~pred & truth))
    denom = 2.0 * tp + fp + fn
    return 2.0 * tp / denom if denom > 0 else 0.0


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit L2 norm in float64."""
    matrix = np.asarray(matrix, dtype=np.float64)
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def exact_topk(
    normed: np.ndarray, qids: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` ids (unordered) and the k-th similarity per query.

    ``normed`` holds unit rows; each query is the row of its own id and
    is excluded from its own answer.
    """
    qids = np.asarray(qids, dtype=np.int64)
    ids = np.empty((qids.size, k), dtype=np.int64)
    kth = np.empty(qids.size, dtype=np.float64)
    for lo in range(0, qids.size, ORACLE_CHUNK):
        q = qids[lo : lo + ORACLE_CHUNK]
        sims = normed[q] @ normed.T
        sims[np.arange(q.size), q] = -np.inf
        top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        ids[lo : lo + q.size] = top
        kth[lo : lo + q.size] = np.take_along_axis(sims, top, axis=1).min(axis=1)
    return ids, kth


def agrees_with_exact(
    normed: np.ndarray,
    qids: np.ndarray,
    answers: np.ndarray,
    *,
    tol: float = 1e-5,
) -> int:
    """Count queries whose answer differs from the exact top-k beyond ties.

    An answer agrees when every returned id scores at least the exact
    k-th similarity minus ``tol`` (float32 serving rounds scores at about
    1e-7, so ids inside that band are ties, not errors).
    """
    qids = np.asarray(qids, dtype=np.int64)
    k = answers.shape[1]
    _, kth = exact_topk(normed, qids, k)
    ok = valid_answers(answers, qids, k, normed.shape[0])
    safe = np.where(ok[:, None], answers, 0)
    sims = np.einsum("qd,qkd->qk", normed[qids], normed[safe])
    below = (sims < kth[:, None] - tol).any(axis=1)
    return int(np.count_nonzero(~ok | below))


def valid_answers(answers: np.ndarray, qids: np.ndarray, k: int, n: int) -> np.ndarray:
    """Boolean per row: ``k`` distinct ids in ``[0, n)``, none the query."""
    answers = np.asarray(answers)
    if answers.ndim != 2 or answers.shape[1] != k:
        return np.zeros(len(qids), dtype=bool)
    in_range = ((answers >= 0) & (answers < n)).all(axis=1)
    ordered = np.sort(answers, axis=1)
    distinct = (np.diff(ordered, axis=1) != 0).all(axis=1)
    not_self = (answers != np.asarray(qids)[:, None]).all(axis=1)
    return in_range & distinct & not_self


def recall(answers: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """Per-row share of the exact top-k ids present in the answer."""
    hits = (answers[:, :, None] == exact[:, None, :]).any(axis=2)
    return hits.sum(axis=1) / exact.shape[1]


def drifted_embeddings(
    embeddings: np.ndarray,
    assignment: np.ndarray,
    *,
    seed: int,
    slabs: int,
    scale: float = 0.01,
) -> Iterator[np.ndarray]:
    """Yield the served matrix after 0, 1, ..., ``slabs`` applied slabs.

    The same array object is updated in place between yields.
    """
    current = np.array(embeddings, dtype=np.float64, copy=True)
    shards = int(assignment.max()) + 1
    members = [np.flatnonzero(assignment == s) for s in range(shards)]
    children = np.random.SeedSequence(seed).spawn(slabs)
    yield current
    for j in range(slabs):
        rows = members[j % shards]
        rng = np.random.default_rng(children[j])
        current[rows] = current[rows] + scale * rng.standard_normal(
            (rows.size, current.shape[1])
        )
        yield current


def eq1_forward_flops(vertices: int, edges: int, dims: list[int]) -> float:
    """2 x Eq. 1 for a GCN whose last layer is a dense head.

    ``dims`` lists the feature widths ``f_0 .. f_L``; every layer but the
    last aggregates over ``edges`` directed edges (``|E| f_l``) and every
    layer applies its weights (``|V| f_l f_{l+1}``).
    """
    ops = 0.0
    for layer in range(len(dims) - 1):
        if layer < len(dims) - 2:
            ops += float(edges) * dims[layer]
        ops += float(vertices) * dims[layer] * dims[layer + 1]
    return 2.0 * ops
