"""Reference AdamW update, one whole block at a time.

Written independently of ``emis.training``: per-block moment dicts and
fresh arrays for every intermediate, in the expression order of
Loshchilov & Hutter's decoupled weight decay. The flat, chunked
optimizer must reproduce it bit for bit.
"""

import numpy as np

GAMMA_MIN = 1e-3


class OracleAdamW:
    """Moments keyed by block name; ``gamma`` is clamped and never decayed."""

    def __init__(self, blocks: dict[str, np.ndarray], beta1: float, beta2: float,
                 eps: float, weight_decay: float):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(w, dtype=np.float64) for name, w in blocks.items()}
        self.v = {name: np.zeros_like(w, dtype=np.float64) for name, w in blocks.items()}

    def step(self, blocks: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> dict[str, np.ndarray]:
        self.step_count += 1
        bias1 = 1.0 - self.beta1 ** self.step_count
        bias2 = 1.0 - self.beta2 ** self.step_count
        out = {}
        for name, w in blocks.items():
            g = np.asarray(grads[name], dtype=np.float64)
            w = np.asarray(w, dtype=np.float64)
            m = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            update = lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if name == "gamma":
                out[name] = np.maximum(w - update, GAMMA_MIN)
            else:
                out[name] = w - update - lr * self.weight_decay * w
            self.m[name], self.v[name] = m, v
        return out
