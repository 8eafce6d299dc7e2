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


def macro_f1(y_true, y_pred):
    """Unweighted mean of per-class F1 over the union of observed true and
    predicted labels. Classes where precision and recall are both zero
    contribute an F1 of 0.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.size == 0:
        raise ValueError("empty evaluation set")
    scores = []
    for lab in sorted(set(y_true.tolist()) | set(y_pred.tolist())):
        tp = int(((y_true == lab) & (y_pred == lab)).sum())
        fp = int(((y_true != lab) & (y_pred == lab)).sum())
        fn = int(((y_true == lab) & (y_pred != lab)).sum())
        denom = 2 * tp + fp + fn
        scores.append(2.0 * tp / denom if denom else 0.0)
    return float(np.mean(scores))
