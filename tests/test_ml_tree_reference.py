"""CART split search pinned against the plain per-threshold loop.

:class:`repro.ml.tree._TreeBase` scores candidate splits from prefix sums
and re-scores only the near-minimal ones exactly.  The contract is that
the fitted tree is *identical* to the one grown by the plain loop kept
here as the reference: every candidate threshold of every feature is
scored with ``_split_score`` and the first strict minimum in
(feature, threshold) order wins, so ties go to the earlier feature of
``_feature_candidates`` and then to the lower threshold.
"""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


def _reference_best_split(tree, X, y, w):
    best_score = np.inf
    best = None
    for feature in tree._feature_candidates(X.shape[1]):
        col = X[:, feature]
        values = np.unique(col)
        if len(values) < 2:
            continue
        mids = (values[:-1] + values[1:]) / 2.0
        if len(mids) > 32:
            mids = np.quantile(col, np.linspace(0.02, 0.98, 32))
        for threshold in np.unique(mids):
            mask = col <= threshold
            if not mask.any() or mask.all():
                continue
            score = tree._split_score(y, w, mask)
            if score < best_score:
                best_score = score
                best = (int(feature), float(threshold))
    return best


class ReferenceClassifier(DecisionTreeClassifier):
    _best_split = _reference_best_split


class ReferenceRegressor(DecisionTreeRegressor):
    _best_split = _reference_best_split


_ARRAYS = ("feature_", "threshold_", "left_", "right_", "value_")


def _mismatch(fast, ref, X):
    """Name of the first differing tree array or prediction, else None."""
    for attr in _ARRAYS + (("proba_",) if hasattr(ref, "proba_") else ()):
        a, b = getattr(fast, attr), getattr(ref, attr)
        if a.shape != b.shape or not np.array_equal(a, b):
            return attr
    if not np.array_equal(fast.predict(X), ref.predict(X)):
        return "predict"
    return None


def _corpus(kind, seed):
    """Seeded (X, y, w) covering ties, copies, zero weights and offsets."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 90))
    d = int(rng.integers(1, 5))
    if kind == "ties":
        X = rng.integers(0, 3, size=(n, d)).astype(float)
    elif kind == "copy":
        X = rng.normal(size=(n, d))
        # A monotone copy ties every split of column 0 exactly.
        X = np.column_stack([X, np.exp(X[:, 0]), 2.0 * X[:, 0] + 1.0])
    elif kind == "wide":
        # More than 32 distinct values: quantile thresholds.
        X = rng.normal(size=(n + 60, d))
        n = len(X)
    else:  # mixed cardinality
        X = np.column_stack([
            rng.integers(0, 4, size=n), rng.normal(size=n),
            np.round(rng.normal(size=n), 1),
        ]).astype(float)
    w = rng.choice([0.0, 0.5, 1.0, 3.0], size=n)
    if seed % 3 == 0:
        w = np.ones(n)
    labels = rng.integers(0, 3, size=n)
    targets = rng.integers(0, 4, size=n).astype(float)
    if seed % 4 == 0:
        # Large offset: prefix sums cancel badly, exact ties abound.
        targets = targets * 0.1 + 1e6
    elif seed % 4 == 1:
        targets = rng.normal(size=n)
    return X, labels, targets, w


CORPORA = [(kind, seed) for kind in ("ties", "copy", "wide", "mixed")
           for seed in range(10)]


@pytest.mark.parametrize("kind,seed", CORPORA)
def test_trees_match_reference(kind, seed):
    X, labels, targets, w = _corpus(kind, seed)
    max_features = None if seed % 2 else max(1, X.shape[1] - 1)
    depth = 1 + seed % 5
    mismatches = []
    for fast_cls, ref_cls, y in (
        (DecisionTreeClassifier, ReferenceClassifier, labels),
        (DecisionTreeRegressor, ReferenceRegressor, targets),
    ):
        for weights in (None, w):
            params = dict(max_depth=depth, max_features=max_features, seed=seed)
            fast = fast_cls(**params).fit(X, y, sample_weight=weights)
            ref = ref_cls(**params).fit(X, y, sample_weight=weights)
            bad = _mismatch(fast, ref, X)
            if bad:
                mismatches.append((fast_cls.__name__, weights is not None, bad))
    assert mismatches == []


def test_zero_weight_side_matches_reference():
    # A side holding only zero-weight samples scores as empty.
    X = np.arange(12, dtype=float).reshape(-1, 1)
    y = np.array([0, 1] * 6)
    w = np.where(X.ravel() < 4, 0.0, 1.0)
    for fast_cls, ref_cls, yy in (
        (DecisionTreeClassifier, ReferenceClassifier, y),
        (DecisionTreeRegressor, ReferenceRegressor, y.astype(float)),
    ):
        fast = fast_cls(max_depth=3).fit(X, yy, sample_weight=w)
        ref = ref_cls(max_depth=3).fit(X, yy, sample_weight=w)
        assert _mismatch(fast, ref, X) is None


def test_rounded_midpoints_nan_and_signed_zero_match_reference():
    # (1 + eps, 1 + 2 eps) has a mid-point that rounds up onto the upper
    # value, whose rows then go left; NaN always goes right; -0.0 ties 0.0.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(5)
    n = 60
    tight = rng.choice([1.0, 1.0 + eps, 1.0 + 2 * eps, 1.0 + 3 * eps], size=n)
    with_nan = np.where(rng.random(n) < 0.2, np.nan, rng.normal(size=n))
    zeros = rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
    for X in (
        np.column_stack([tight, zeros]),
        np.column_stack([with_nan, tight]),
        np.column_stack([rng.normal(size=n), zeros, with_nan]),
    ):
        for fast_cls, ref_cls, y in (
            (DecisionTreeClassifier, ReferenceClassifier, rng.integers(0, 2, n)),
            (DecisionTreeRegressor, ReferenceRegressor, rng.normal(size=n)),
        ):
            fast = fast_cls(max_depth=4).fit(X, y)
            ref = ref_cls(max_depth=4).fit(X, y)
            assert _mismatch(fast, ref, X) is None


def test_tie_break_is_first_feature_then_lowest_threshold():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([x, x])  # identical columns: every split ties
    y = np.array([0, 0, 1, 1])
    tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
    assert tree.feature_[0] == 0 and tree.threshold_[0] == 1.5
    # Two equally good splits on one column: the lower threshold wins.
    y = np.array([0.0, 1.0, 1.0, 0.0])
    tree = DecisionTreeRegressor(max_depth=1).fit(x.reshape(-1, 1), y)
    assert tree.threshold_[0] == 0.5


@pytest.mark.parametrize("model", [
    GradientBoostingClassifier(n_estimators=5, max_depth=3, seed=1),
    RandomForestClassifier(n_estimators=5, max_depth=4, seed=2),
    AdaBoostClassifier(n_estimators=5, max_depth=2, seed=3),
])
def test_ensembles_grow_reference_trees(model, monkeypatch):
    rng = np.random.default_rng(7)
    X = np.column_stack([rng.integers(0, 5, 120), rng.normal(size=120)])
    y = (X[:, 0] + rng.normal(size=120) > 2).astype(int)
    fast = type(model)(**_params(model)).fit(X, y)
    monkeypatch.setattr(DecisionTreeClassifier, "_best_split", _reference_best_split)
    monkeypatch.setattr(DecisionTreeRegressor, "_best_split", _reference_best_split)
    ref = type(model)(**_params(model)).fit(X, y)
    assert np.array_equal(fast.predict(X), ref.predict(X))
    for a, b in zip(_trees(fast), _trees(ref)):
        assert _mismatch(a, b, X) is None


def _params(model):
    names = ("n_estimators", "max_depth", "seed")
    return {name: getattr(model, name) for name in names}


def _trees(model):
    if isinstance(model, GradientBoostingClassifier):
        return [t for round_trees in model.trees_ for t in round_trees]
    return getattr(model, "trees_", None) or model.estimators_
