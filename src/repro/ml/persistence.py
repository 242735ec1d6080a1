"""Saving and loading fitted models (npz-based, pickle-free).

Deployed reliability monitors (symptom detectors, WarningNets,
characterization models, campaign-steering surrogates) are trained at
design time and shipped to the target; this module persists the
numpy-MLP family and the CART tree ensembles without pickle.
"""

from __future__ import annotations

import json

import numpy as np

from repro.ml.ensemble import GradientBoostingClassifier, RandomForestClassifier
from repro.ml.mlp import MLPClassifier, MLPRegressor
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

_KIND_CLASSIFIER = "classifier"
_KIND_REGRESSOR = "regressor"
_KIND_FOREST = "random_forest_classifier"
_KIND_GBDT = "gradient_boosting_classifier"


def save_mlp(model, path):
    """Serialize a fitted MLP (classifier or regressor) to an ``.npz`` file."""
    if model.weights_ is None:
        raise ValueError("model must be fitted before saving")
    payload = {
        "n_layers": np.array(len(model.weights_)),
        "hidden": np.asarray(model.hidden, dtype=int),
    }
    for i, (W, b) in enumerate(zip(model.weights_, model.biases_)):
        payload[f"W{i}"] = W
        payload[f"b{i}"] = b
    if isinstance(model, MLPClassifier):
        payload["kind"] = np.array(_KIND_CLASSIFIER)
        payload["classes"] = np.asarray(model.classes_)
    elif isinstance(model, MLPRegressor):
        payload["kind"] = np.array(_KIND_REGRESSOR)
        payload["n_outputs"] = np.array(model._n_outputs)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    np.savez(path, **payload)


def load_mlp(path):
    """Load an MLP saved by :func:`save_mlp`; returns a ready-to-predict model."""
    with np.load(path, allow_pickle=False) as data:
        kind = str(data["kind"])
        hidden = tuple(int(h) for h in data["hidden"])
        n_layers = int(data["n_layers"])
        weights = [data[f"W{i}"] for i in range(n_layers)]
        biases = [data[f"b{i}"] for i in range(n_layers)]
        if kind == _KIND_CLASSIFIER:
            model = MLPClassifier(hidden=hidden)
            model.classes_ = data["classes"]
        elif kind == _KIND_REGRESSOR:
            model = MLPRegressor(hidden=hidden)
            model._n_outputs = int(data["n_outputs"])
        else:
            raise ValueError(f"unknown model kind {kind!r}")
    model.weights_ = weights
    model.biases_ = biases
    return model


_TREE_ARRAYS = (
    ("f", "feature_"), ("t", "threshold_"), ("l", "left_"), ("r", "right_"),
    ("v", "value_"),
)


def _tree_payload(payload, prefix, tree):
    """Store one tree's flat preorder arrays (see :mod:`repro.ml.tree`)."""
    for key, attr in _TREE_ARRAYS:
        payload[f"{prefix}{key}"] = getattr(tree, attr)


def _tree_from_payload(data, prefix, tree):
    for key, attr in _TREE_ARRAYS:
        setattr(tree, attr, data[f"{prefix}{key}"])
    return tree


def save_ensemble(model, path):
    """Serialize a fitted tree ensemble to an ``.npz`` file.

    Supports :class:`~repro.ml.ensemble.RandomForestClassifier` and
    :class:`~repro.ml.ensemble.GradientBoostingClassifier` — the model
    families the campaign-steering surrogate uses.  Every tree is saved as
    its flat arrays (forest trees add their leaf class distributions);
    nothing is pickled.  Forest files written before the class
    distributions were saved have no ``t{i}_p`` arrays and must be
    re-saved: :func:`load_ensemble` raises ``KeyError`` on them.
    """
    if isinstance(model, RandomForestClassifier):
        if not model.trees_:
            raise ValueError("model must be fitted before saving")
        payload = {
            "kind": np.array(_KIND_FOREST),
            "classes": np.asarray(model.classes_),
            "n_trees": np.array(len(model.trees_)),
            "params": np.array(json.dumps({
                "n_estimators": model.n_estimators,
                "max_depth": model.max_depth,
                "max_features": model.max_features,
                "seed": model.seed,
            })),
        }
        for i, tree in enumerate(model.trees_):
            _tree_payload(payload, f"t{i}_", tree)
            payload[f"t{i}_classes"] = np.asarray(tree.classes_)
            payload[f"t{i}_p"] = tree.proba_
    elif isinstance(model, GradientBoostingClassifier):
        if not model.trees_:
            raise ValueError("model must be fitted before saving")
        payload = {
            "kind": np.array(_KIND_GBDT),
            "classes": np.asarray(model.classes_),
            "init": np.asarray(model.init_, dtype=float),
            "n_rounds": np.array(len(model.trees_)),
            "params": np.array(json.dumps({
                "n_estimators": model.n_estimators,
                "learning_rate": model.learning_rate,
                "max_depth": model.max_depth,
                "subsample": model.subsample,
                "seed": model.seed,
            })),
        }
        for r, round_trees in enumerate(model.trees_):
            for j, tree in enumerate(round_trees):
                _tree_payload(payload, f"t{r}_{j}_", tree)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    np.savez(path, **payload)


def load_ensemble(path):
    """Load an ensemble saved by :func:`save_ensemble`, ready to predict."""
    with np.load(path, allow_pickle=False) as data:
        kind = str(data["kind"])
        params = json.loads(str(data["params"]))
        if kind == _KIND_FOREST:
            model = RandomForestClassifier(
                n_estimators=params["n_estimators"],
                max_depth=params["max_depth"],
                max_features=params["max_features"],
                seed=params["seed"],
            )
            model.classes_ = data["classes"]
            model.trees_ = []
            for i in range(int(data["n_trees"])):
                tree = DecisionTreeClassifier(max_depth=params["max_depth"])
                tree.classes_ = data[f"t{i}_classes"]
                tree.proba_ = data[f"t{i}_p"]
                model.trees_.append(_tree_from_payload(data, f"t{i}_", tree))
        elif kind == _KIND_GBDT:
            model = GradientBoostingClassifier(
                n_estimators=params["n_estimators"],
                learning_rate=params["learning_rate"],
                max_depth=params["max_depth"],
                subsample=params["subsample"],
                seed=params["seed"],
            )
            model.classes_ = data["classes"]
            model.init_ = data["init"]
            model.trees_ = []
            k = len(model.classes_)
            for r in range(int(data["n_rounds"])):
                model.trees_.append([
                    _tree_from_payload(
                        data, f"t{r}_{j}_",
                        DecisionTreeRegressor(max_depth=params["max_depth"]),
                    )
                    for j in range(k)
                ])
        else:
            raise ValueError(f"unknown model kind {kind!r}")
    return model
