"""Eigenvalue extraction and eigenvalue-stability resampling.

Eigenvalues of symmetric matrices come from LAPACK's symmetric solver
through ``np.linalg.eigvalsh``.  Eigenvectors are never needed and never
computed.  The stability study draws through the resampling study's
chunk layout and takes each block's eigenvalues in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimators import _MATRIX_KINDS
from .resample import PopulationDataset, _MeanSD, _population, _replicate

__all__ = ["symmetric_eigenvalues", "EigenSummary", "eigen_study"]


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of one symmetric matrix, sorted descending."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    if np.abs(m - m.T).max(initial=0.0) > 1e-10:
        raise InputError("matrix is not symmetric within 1e-10")
    return np.linalg.eigvalsh(m)[::-1]


@dataclass(frozen=True)
class EigenSummary:
    """Leading-eigenvalue stability of resampled correlation matrices; ``table``
    holds the k rows of ``eigen_table.csv`` as its columns: each eigenvalue's
    rank from 1, its mean and SD per matrix kind, then its population values."""

    k: int
    sample_size: int
    n_samples: int
    table: dict[str, list[int] | np.ndarray]
    redraw_count: int
    max_trace_error: float


def eigen_study(dataset: PopulationDataset, sample_size: int, n_samples: int,
                k: int = 6, master_seed: int = 0) -> EigenSummary:
    """Mean and SD of the top-k eigenvalues over resampled matrices.

    Sampling and the degenerate-redraw rule match
    :func:`corrlab.resample.run_study`; eigenvalues are extracted per
    replication for both the Pearson-based and the Spearman-based
    matrix.  The worst trace deviation |sum(eigenvalues) - dimension|
    seen across all replications is reported alongside the summaries.
    """
    p = dataset.n_cols
    if not 1 <= k <= p:
        raise InputError(f"k must lie in [1, {p}]")
    levels, pop = _population(dataset, sample_size)
    pop_eig = {kind: symmetric_eigenvalues(matrix)[:k] for kind, matrix in zip(_MATRIX_KINDS, pop)}
    top = _MeanSD((len(_MATRIX_KINDS), k))
    max_trace_err = 0.0
    redraws = 0
    for matrices, failed in _replicate(dataset, sample_size, n_samples, master_seed, levels):
        redraws += failed
        # the matrices are symmetric by construction; eigvalsh ascends
        eig = np.linalg.eigvalsh(matrices)[..., ::-1]
        max_trace_err = max(max_trace_err, float(np.abs(eig.sum(axis=-1) - p).max()))
        top.add(eig[..., :k])
    means, sds = top.mean_sd()
    table = {"eigenvalue": list(range(1, k + 1))}
    for a, kind in enumerate(_MATRIX_KINDS):
        table.update({f"mean_{kind}": means[a], f"sd_{kind}": sds[a]})
    table.update({f"population_{kind}": pop_eig[kind] for kind in _MATRIX_KINDS})
    return EigenSummary(k=k, sample_size=sample_size, n_samples=n_samples, table=table,
                        redraw_count=redraws, max_trace_error=max_trace_err)
