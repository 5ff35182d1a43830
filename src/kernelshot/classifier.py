"""The few-shot prototype classifier, ROC/AUROC evaluation, and the feature
normalisation applied to ingested feature tables.

A model is fitted from k shots of the new class by taking their feature-space
mean as the prototype; a point is assigned the new label whenever

    (phi(x) - prototype, prototype - old_centre) >= theta,

and is otherwise deferred to the legacy classifier.  Inner products with
the prototype and the old-class centre go through the kernel trick, or
through a centre's explicit feature vector when it has one (see
:class:`kernelshot.kernels.FeatureCombination`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .errors import _real_arg
from .kernels import (
    FeatureCombination,
    KernelSpec,
    _probe,
    as_points,
    combo_pair_stats,
    inner_with_combo,
    mean_combination,
)

__all__ = [
    "NEW_LABEL",
    "FewShotModel",
    "fit_few_shot",
    "decision_values",
    "classify",
    "RocCurve",
    "roc_curve",
    "auroc",
    "FeatureTransform",
    "normalize_feature_table",
]

NEW_LABEL = "new"


@dataclass(frozen=True, eq=False)
class FewShotModel:
    """A fitted prototype classifier; immutable after fit."""

    kernel: KernelSpec
    shots: np.ndarray
    prototype: FeatureCombination
    old_centre: FeatureCombination
    dist_sq: float

    @property
    def k(self) -> int:
        return self.shots.shape[0]


def fit_few_shot(spec: KernelSpec, shots, old_centre: FeatureCombination) -> FewShotModel:
    """Fit the prototype classifier from the new-class shots.

    The prototype is the uniform feature-space mean of the shots; dist_sq
    caches the squared feature distance between prototype and old centre.
    """
    pts = as_points(shots).copy()
    pts.setflags(write=False)
    prototype = mean_combination(spec, pts)
    stats = combo_pair_stats(spec, prototype, old_centre)
    return FewShotModel(
        kernel=spec,
        shots=pts,
        prototype=prototype,
        old_centre=old_centre,
        dist_sq=stats.sq_distance,
    )


def decision_values(model: FewShotModel, X) -> np.ndarray:
    """(phi(x) - prototype, prototype - old_centre) for every row x of X.

    Expanded through the kernel trick as
    (phi(x), mu) - (phi(x), c) - ||mu||^2 + (mu, c); the cross inner product
    is recovered from the cached distance.  X may be a CentredProbe on
    model.old_centre, so models fitted against one old centre share its
    column (phi(x), c).
    """
    spec = model.kernel
    mu = model.prototype
    c = model.old_centre
    probe = _probe(spec, c, X)
    cross = (mu.self_inner + c.self_inner - model.dist_sq) / 2.0
    return inner_with_combo(spec, probe.points, mu) - probe.centre_inner - mu.self_inner + cross


def classify(
    model: FewShotModel,
    x,
    theta: float,
    fallback_label: Hashable,
    new_label: Hashable = NEW_LABEL,
) -> Hashable:
    """New label iff the decision value reaches theta (boundary inclusive)."""
    theta = _real_arg("theta", theta)
    return new_label if decision_values(model, np.asarray(x, dtype=float)[None, :])[0] >= theta else fallback_label


@dataclass(frozen=True, eq=False)
class RocCurve:
    """ROC points swept over the decision threshold, from (0, 0) to (1, 1).

    points[i] = (false_positive_rate, true_positive_rate) at thresholds[i];
    thresholds run from +inf down to -inf through every distinct score.
    """

    points: np.ndarray
    thresholds: np.ndarray

    @property
    def fpr(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def tpr(self) -> np.ndarray:
        return self.points[:, 1]


def roc_curve(pos_scores, neg_scores) -> RocCurve:
    """ROC curve of score lists under the boundary-inclusive decision rule.

    TPR(theta) is the fraction of positive scores >= theta, FPR(theta) the
    same for negatives; thresholds are the score values themselves, so the
    step curve is exact.
    """
    pos = _real_arg("pos_scores", pos_scores, array=True).ravel()
    neg = _real_arg("neg_scores", neg_scores, array=True).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score lists must be non-empty")
    values = np.unique(np.concatenate([pos, neg]))[::-1]
    thresholds = np.concatenate([[np.inf], values, [-np.inf]])
    sorted_pos = np.sort(pos)
    sorted_neg = np.sort(neg)
    tpr = 1.0 - np.searchsorted(sorted_pos, thresholds, side="left") / pos.size
    fpr = 1.0 - np.searchsorted(sorted_neg, thresholds, side="left") / neg.size
    return RocCurve(points=np.column_stack([fpr, tpr]), thresholds=thresholds)


def auroc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC curve; ties earn half credit, matching
    the pairwise concordance statistic."""
    return float(np.trapezoid(curve.tpr, curve.fpr))


@dataclass(frozen=True, eq=False)
class FeatureTransform:
    """Translation and scaling fitted on training features, reusable at test time."""

    mean: np.ndarray
    scale: float

    def apply(self, rows) -> np.ndarray:
        arr = as_points(rows)
        if arr.shape[1] != self.mean.size:
            raise ValueError(f"width mismatch: {arr.shape[1]} vs {self.mean.size}")
        return (arr - self.mean) / self.scale


def normalize_feature_table(old_features, new_features):
    """Centre both tables on the old-table mean and scale by the largest norm.

    Returns the two normalised tables and the transform to apply to test
    rows.  After the transform the old-table mean is the origin and the
    maximum row norm over the union of both tables is 1.  A cell that is not
    finite raises ValueError naming its table.
    """
    old = _real_arg("old_features", as_points(old_features), array=True)
    new = _real_arg("new_features", as_points(new_features), array=True)
    if old.shape[1] != new.shape[1]:
        raise ValueError(f"width mismatch: {old.shape[1]} vs {new.shape[1]}")
    mean = old.mean(axis=0)
    old_t = old - mean
    new_t = new - mean
    scale = max(
        float(np.linalg.norm(old_t, axis=1).max()),
        float(np.linalg.norm(new_t, axis=1).max()),
    )
    if scale == 0.0:
        raise ValueError("zero maximum norm: all rows coincide with the old-table mean")
    transform = FeatureTransform(mean=mean, scale=scale)
    return old_t / scale, new_t / scale, transform
