"""CART decision trees (classification and regression).

Decision trees are the base learners for the boosting/forest models in
:mod:`repro.ml.ensemble`; gradient-boosted trees are the model family the
survey reports as most consistently accurate for scale-dependent error
prediction ([21]) and HPC error-pattern mining ([22]).

A fitted tree is stored as flat preorder arrays (``feature_``,
``threshold_``, ``left_``, ``right_``, ``value_``; the classifier adds
``proba_``).  Node 0 is the root; ``feature_``/``left_``/``right_`` are
``-1`` and ``threshold_`` is ``0.0`` at leaves, and every node, internal
or not, keeps its value.  ``predict`` descends all rows at once.

Split search.  At each node the candidate thresholds of a feature are
the mid-points between its consecutive unique values, or, when there
are more than 32 of those, the ``linspace(0.02, 0.98, 32)`` quantiles
of the column.  Every (feature, threshold) candidate is scored in one
vectorized pass from cumulative sums of per-sample statistics over the
stably sorted column.  Prefix sums round differently from the masked
per-side sums of :meth:`_split_score`, so the candidates whose prefix
score lies within :func:`_rescore_tolerance` of the minimum are scored
again with :meth:`_split_score`, in (feature, threshold) order, and the
first strict minimum wins.  The tolerance bounds the rounding error of
both computations, so the chosen split is exactly the one a plain loop
over every candidate with :meth:`_split_score` would choose.
"""

from __future__ import annotations

import numpy as np

_MAX_THRESHOLDS = 32
_QUANTILES = np.linspace(0.02, 0.98, _MAX_THRESHOLDS)
#: Safety factor on the ``n * eps`` rounding bound of a length-``n`` sum.
_TOLERANCE_FACTOR = 64.0


def _gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _rescore_tolerance(n, scale, w):
    """Score window around the prefix-sum minimum that is re-scored exactly.

    Both the prefix-sum score and :meth:`_split_score` are sums of at
    most ``n`` non-negative-weighted terms bounded by ``scale``, so each
    is within ``~n * eps * scale`` of the exact value.  Negative weights
    void that bound: every candidate is then re-scored.
    """
    if np.any(w < 0):
        return np.inf
    return _TOLERANCE_FACTOR * (n + 2) * np.finfo(float).eps * scale


def _plain_thresholds(col):
    """Candidate thresholds of one column, straight from the definition."""
    values = np.unique(col)
    if len(values) < 2:
        return np.empty(0)
    mids = (values[:-1] + values[1:]) / 2.0
    if len(mids) > _MAX_THRESHOLDS:
        mids = np.quantile(col, _QUANTILES)
    return np.unique(mids)


def _split_candidates(Xf, sorted_X):
    """Every candidate split of the columns of ``Xf``.

    Returns ``(column, threshold, n_left)`` arrays in (column, threshold)
    order, where ``n_left`` counts the samples at or below the threshold
    (``sorted_X`` holds each column ascending with NaN last, and NaN is
    never at or below a threshold); splits that leave a side empty are
    dropped.
    """
    n = len(sorted_X)
    cols, thresholds, n_left = [], [], []
    for j in range(Xf.shape[1]):
        t = _plain_thresholds(Xf[:, j])
        left = np.searchsorted(sorted_X[:, j], t, side="right")
        keep = (left > 0) & (left < n)
        cols.append(np.full(int(keep.sum()), j))
        thresholds.append(t[keep])
        n_left.append(left[keep])
    return np.concatenate(cols), np.concatenate(thresholds), np.concatenate(n_left)


class _TreeBase:
    def __init__(self, max_depth=8, min_samples_split=2, max_features=None, seed=0):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.max_features = max_features
        self.seed = seed
        self.feature_ = None
        self._rng = None

    def _feature_candidates(self, n_features):
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=self.max_features, replace=False)

    def fit(self, X, y, sample_weight=None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        y = np.asarray(y)
        if len(X) == 0:
            raise ValueError("cannot fit on empty data")
        if sample_weight is None:
            sample_weight = np.ones(len(X))
        else:
            sample_weight = np.asarray(sample_weight, dtype=float)
        self._rng = np.random.default_rng(self.seed)
        self._prepare(y)
        nodes = []
        self._build(X, y, sample_weight, 0, nodes)
        feature, threshold, left, right, values = zip(*nodes)
        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold, dtype=float)
        self.left_ = np.asarray(left, dtype=np.int64)
        self.right_ = np.asarray(right, dtype=np.int64)
        self._store_values(values)
        return self

    def _build(self, X, y, w, depth, nodes):
        """Grow the subtree for ``(X, y, w)``, appending nodes in preorder."""
        idx = len(nodes)
        nodes.append([-1, 0.0, -1, -1, self._node_value(y, w)])
        if depth >= self.max_depth or len(X) < self.min_samples_split or self._pure(y):
            return idx
        best = self._best_split(X, y, w)
        if best is None:
            return idx
        feature, threshold = best
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return idx
        node = nodes[idx]
        node[0], node[1] = feature, threshold
        node[2] = self._build(X[mask], y[mask], w[mask], depth + 1, nodes)
        node[3] = self._build(X[~mask], y[~mask], w[~mask], depth + 1, nodes)
        return idx

    def _best_split(self, X, y, w):
        """First minimum of :meth:`_split_score` in (feature, threshold) order."""
        features = self._feature_candidates(X.shape[1])
        Xf = X if len(features) == X.shape[1] else X[:, features]
        order = np.argsort(Xf, axis=0, kind="stable")
        sorted_X = np.take_along_axis(Xf, order, axis=0)
        cols, thresholds, n_left = _split_candidates(Xf, sorted_X)
        if not len(cols):
            return None
        scores, tol = self._prefix_scores(y, w, order, n_left - 1, cols)
        lowest = scores.min()  # NaN: a node of zero total weight
        if np.isfinite(tol) and not np.isnan(lowest):
            near = np.flatnonzero(scores <= lowest + tol)
            if len(near) == 1:  # the window always holds the exact minimum
                k = near[0]
                return int(features[cols[k]]), float(thresholds[k])
        else:
            near = np.arange(len(scores))
        best_score = np.inf
        best = None
        for k in near:
            feature, threshold = int(features[cols[k]]), float(thresholds[k])
            score = self._split_score(y, w, X[:, feature] <= threshold)
            if score < best_score:
                best_score = score
                best = (feature, threshold)
        return best

    def _apply(self, X):
        """Index of the leaf each row of ``X`` reaches."""
        if self.feature_ is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        node = np.zeros(len(X), dtype=np.int64)
        rows = np.flatnonzero(self.left_[node] >= 0)
        while rows.size:
            at = node[rows]
            go_left = X[rows, self.feature_[at]] <= self.threshold_[at]
            node[rows] = np.where(go_left, self.left_[at], self.right_[at])
            rows = rows[self.left_[node[rows]] >= 0]
        return node

    def predict(self, X):
        return self.value_[self._apply(X)]

    # hooks -----------------------------------------------------------------
    def _prepare(self, y):
        raise NotImplementedError

    def _node_value(self, y, w):
        raise NotImplementedError

    def _store_values(self, values):
        raise NotImplementedError

    def _pure(self, y):
        raise NotImplementedError

    def _split_score(self, y, w, mask):
        raise NotImplementedError

    def _prefix_scores(self, y, w, order, rows, cols):
        """Scores of candidates splitting after sorted row ``rows`` of column
        ``cols`` of ``order``, plus the re-score tolerance."""
        raise NotImplementedError


def _split_sums(stats, order, rows, cols):
    """Left and right sums of each per-sample statistic at each candidate.

    ``stats`` is a sequence of length-``n`` arrays; the candidate
    ``(rows[k], cols[k])`` puts sorted rows ``0..rows[k]`` of column
    ``cols[k]`` of ``order`` on the left.  Both results are
    ``(len(stats), len(rows))``.  The right side is a reverse cumulative
    sum, so a side whose samples all contribute zero sums to exactly
    zero.
    """
    tail = len(order) - 2 - rows
    left, right = [], []
    for stat in stats:
        sorted_stat = np.take(stat, order)
        left.append(np.cumsum(sorted_stat, axis=0)[rows, cols])
        right.append(np.cumsum(sorted_stat[::-1], axis=0)[tail, cols])
    return np.array(left), np.array(right)


class DecisionTreeClassifier(_TreeBase):
    """Gini-impurity CART classifier with optional sample weights."""

    def _prepare(self, y):
        self.classes_ = np.unique(y)
        self._class_index = {c: i for i, c in enumerate(self.classes_)}

    def _weighted_counts(self, y, w):
        counts = np.zeros(len(self.classes_))
        for c, i in self._class_index.items():
            counts[i] = w[y == c].sum()
        return counts

    def _node_value(self, y, w):
        return self._weighted_counts(y, w)

    def _store_values(self, counts):
        counts = np.asarray(counts, dtype=float).reshape(-1, len(self.classes_))
        # First maximum wins ties, as np.argmax does.
        self.value_ = self.classes_[np.argmax(counts, axis=1)]
        totals = counts.sum(axis=1, keepdims=True)
        uniform = np.full_like(counts, 1.0 / counts.shape[1])
        self.proba_ = np.divide(counts, totals, out=uniform, where=totals > 0)

    def _pure(self, y):
        return len(np.unique(y)) == 1

    def _split_score(self, y, w, mask):
        left = self._weighted_counts(y[mask], w[mask])
        right = self._weighted_counts(y[~mask], w[~mask])
        n_l, n_r = left.sum(), right.sum()
        total = n_l + n_r
        return (n_l * _gini(left) + n_r * _gini(right)) / total

    def _prefix_scores(self, y, w, order, rows, cols):
        class_weights = [np.where(y == c, w, 0.0) for c in self.classes_]
        left, right = _split_sums(class_weights, order, rows, cols)

        def impurity(counts):
            # Weighted Gini of one side, n - sum(c^2) / n; zero when empty.
            n_side = counts.sum(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(
                    n_side > 0, n_side - np.sum(counts * counts, axis=0) / n_side, 0.0
                )

        with np.errstate(divide="ignore", invalid="ignore"):
            scores = (impurity(left) + impurity(right)) / np.sum(w)
        return scores, _rescore_tolerance(len(y), 1.0, w)

    def predict_proba(self, X):
        """Weighted empirical class distribution at the reached leaf.

        Columns follow ``classes_``; a leaf whose samples all have zero
        weight reports the uniform distribution.
        """
        return self.proba_[self._apply(X)]


class DecisionTreeRegressor(_TreeBase):
    """Variance-reduction CART regressor with optional sample weights."""

    def _prepare(self, y):
        if not np.issubdtype(np.asarray(y).dtype, np.number):
            raise ValueError("regression targets must be numeric")

    def _node_value(self, y, w):
        total = w.sum()
        if total == 0:
            return float(np.mean(y))
        return float(np.sum(np.asarray(y, dtype=float) * w) / total)

    def _store_values(self, values):
        self.value_ = np.asarray(values, dtype=float)

    def _pure(self, y):
        return float(np.ptp(np.asarray(y, dtype=float))) == 0.0

    def _split_score(self, y, w, mask):
        y = np.asarray(y, dtype=float)

        def wvar(yy, ww):
            total = ww.sum()
            if total == 0:
                return 0.0
            mu = np.sum(yy * ww) / total
            return float(np.sum(ww * (yy - mu) ** 2))

        return wvar(y[mask], w[mask]) + wvar(y[~mask], w[~mask])

    def _prefix_scores(self, y, w, order, rows, cols):
        y = np.asarray(y, dtype=float)
        wy = w * y
        wyy = wy * y
        left, right = _split_sums((w, wy, wyy), order, rows, cols)

        def wvar(sums):
            s0, s1, s2 = sums
            with np.errstate(divide="ignore", invalid="ignore"):
                # Clamped: the exact weighted variance is never negative.
                return np.where(s0 > 0, np.maximum(s2 - s1 * (s1 / s0), 0.0), 0.0)

        scale = float(np.sum(np.abs(wyy)))
        return wvar(left) + wvar(right), _rescore_tolerance(len(y), scale, w)
