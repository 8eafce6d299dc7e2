"""Classification metrics, hand-rolled so tests can pin exact behavior."""

import numpy as np


def accuracy(y_true, y_pred):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch")
    if y_true.size == 0:
        raise ValueError("empty evaluation set")
    return float((y_true == y_pred).mean())


def macro_f1(y_true, y_pred, labels=None):
    """Unweighted mean of per-class F1.

    labels defaults to the union of observed true and predicted labels.
    Classes with no true and no predicted instances contribute an F1 of 0,
    as do classes where precision and recall are both zero.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("empty evaluation set")
    if labels is None:
        labels = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    scores = []
    for lab in labels:
        tp = int(((y_true == lab) & (y_pred == lab)).sum())
        fp = int(((y_true != lab) & (y_pred == lab)).sum())
        fn = int(((y_true == lab) & (y_pred != lab)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores))
