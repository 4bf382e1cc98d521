"""The minibatch gradient descent loop shared by the selector and the classifier."""

from __future__ import annotations


def sgd_epoch(params, x, y, order, batch_size, learning_rate, step) -> float:
    """One pass over x[order] in batches; returns the mean loss per row.

    step(x[rows], y[rows]) returns (loss, grads), where grads[key] is the
    gradient of params[key]; every parameter is updated in place.
    """
    total = 0.0
    for start in range(0, len(order), batch_size):
        rows = order[start : start + batch_size]
        loss, grads = step(x[rows], y[rows])
        for key, param in params.items():
            param -= learning_rate * grads[key]
        total += loss * len(rows)
    return total / len(order)
