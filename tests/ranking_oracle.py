"""The brute-force ranking oracle for every top-k in the package.

``masked_select`` (:mod:`repro.kernels.numpy_backend`) is the one
mask-and-select: the evaluator, the serving index and
``Recommender.recommend`` all rank through it.  This is the independent
check it is held to — mask each row's exclusions to ``+inf`` in a copy of
the negated scores, then fully stable-sort the row.  It shares no code with
the selection (no ``argpartition``), so tie cohorts are compared as sets:

- the selected negated scores equal the oracle's first ``k``, in order;
- a tie cohort lying wholly inside the top ``k`` is the same set in both;
- the cohort cut by the k-th boundary is a subset of the oracle's cohort;
- a caller that clamps to real candidates returns ``min(k, unmasked)`` ids.
"""

import numpy as np


def oracle_rank(neg_scores, exclusions):
    """``(masked, order)``: the negated block with each row's excluded ids
    at ``+inf``, and every row's full stable ascending argsort."""
    masked = np.array(neg_scores, dtype=np.float64, copy=True)
    for row, excluded in enumerate(exclusions):
        masked[row, np.asarray(excluded, dtype=np.int64)] = np.inf
    return masked, np.argsort(masked, axis=1, kind="stable")


def oracle_topk(neg_scores, exclusions, k):
    """Per-row oracle top-``k`` item ids, best first, masked filler included."""
    return oracle_rank(neg_scores, exclusions)[1][:, :k]


def assert_row_matches_oracle(ids, masked_row, order_row):
    """Compare one row's selected ids against the oracle's sorted row."""
    ids = np.asarray(ids)
    k = ids.size
    assert np.unique(ids).size == k, f"duplicate ids in {ids.tolist()}"
    got = masked_row[ids]
    want = masked_row[order_row[:k]]
    np.testing.assert_array_equal(got, want)
    for value in np.unique(want):
        selected = set(ids[got == value].tolist())
        cohort = set(np.flatnonzero(masked_row == value).tolist())
        if np.count_nonzero(want == value) == len(cohort):
            assert selected == cohort, (value, selected, cohort)
        else:
            assert selected <= cohort, (value, selected, cohort)


def oracle_valid(masked_row, k):
    """How many of a row's top ``k`` are real candidates: ``min(k, unmasked)``."""
    return min(k, int(np.count_nonzero(masked_row < np.inf)))


def assert_matches_oracle(ids, neg_scores, exclusions):
    """Each row of ``ids`` (``(rows, k)``) against :func:`oracle_rank`."""
    masked, order = oracle_rank(neg_scores, exclusions)
    for row in range(masked.shape[0]):
        assert_row_matches_oracle(ids[row], masked[row], order[row])
