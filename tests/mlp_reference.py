"""The MLP's forward pass and reverse mode with swish on scipy's ``expit``:
a reference for the in-place swish of ``MlpScore``."""

import numpy as np
from scipy.special import expit


def forward_expit(model, x, t):
    """(output, cache) of ``model`` with swish = z * expit(z); the cache
    holds (h, z, sigmoid(z)) per hidden layer, then (h, None, None)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    tcol = np.broadcast_to(np.asarray(t, dtype=float).reshape(-1, 1), (x.shape[0], 1))
    h = np.concatenate([x, tcol], axis=1)
    cache = []
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = h @ W + b
        s = expit(z)
        cache.append((h, z, s))
        h = z * s
    cache.append((h, None, None))
    return h @ model.weights[-1] + model.biases[-1], cache


def backprop_expit(model, cache, grad_out):
    """Flat parameter gradient, laid out like ``model.params``."""
    flat = np.empty_like(model.params)
    grads = model.views(flat)
    grads[-2][...] = cache[-1][0].T @ grad_out
    grads[-1][...] = grad_out.sum(axis=0)
    delta = grad_out @ model.weights[-1].T
    for i in range(len(cache) - 2, -1, -1):
        h, z, s = cache[i]
        delta = delta * (s * (1.0 + z * (1.0 - s)))
        grads[2 * i][...] = h.T @ delta
        grads[2 * i + 1][...] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
    return flat
