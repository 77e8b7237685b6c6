"""Eigenvalue extraction and eigenvalue-stability resampling.

Eigenvalues of symmetric matrices come from LAPACK's symmetric solver
through ``np.linalg.eigvalsh``.  Eigenvectors are never needed and never
computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimators import correlation_matrix
from .resample import _MATRIX_KINDS, PopulationDataset, _MeanSD, _replicate

__all__ = ["symmetric_eigenvalues", "EigenSummary", "eigen_study"]


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues of one symmetric matrix, sorted descending."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    if np.max(np.abs(m - m.T)) > 1e-10:
        raise InputError("matrix is not symmetric within 1e-10")
    return np.linalg.eigvalsh(m)[::-1]


@dataclass(frozen=True)
class EigenSummary:
    """Leading-eigenvalue stability of resampled correlation matrices."""

    k: int
    sample_size: int
    n_samples: int
    mean_pearson: np.ndarray
    sd_pearson: np.ndarray
    mean_spearman: np.ndarray
    sd_spearman: np.ndarray
    population_pearson: np.ndarray
    population_spearman: np.ndarray
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
    pop_eig = {kind: symmetric_eigenvalues(correlation_matrix(dataset, kind))[:k]
               for kind in _MATRIX_KINDS}
    top = {kind: _MeanSD(k) for kind in _MATRIX_KINDS}
    max_trace_err = 0.0

    def visit(matrices):
        nonlocal max_trace_err
        for kind, mat in zip(_MATRIX_KINDS, matrices):
            # the matrices are symmetric by construction; eigvalsh ascends
            eig = np.linalg.eigvalsh(mat)[::-1]
            max_trace_err = max(max_trace_err, abs(float(eig.sum()) - p))
            top[kind].add(eig[:k])

    redraws = _replicate(dataset, sample_size, n_samples, master_seed, visit)
    columns = {}
    for kind in _MATRIX_KINDS:
        columns[f"mean_{kind}"], columns[f"sd_{kind}"] = top[kind].mean_sd()
        columns[f"population_{kind}"] = pop_eig[kind]
    return EigenSummary(k=k, sample_size=sample_size, n_samples=n_samples,
                        redraw_count=redraws, max_trace_error=max_trace_err, **columns)
