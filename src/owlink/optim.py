"""Adam optimizer with dense and sparse (row-wise) update modes, and the
end-of-epoch policy (:class:`EpochPolicy`).

Both are shared by the embedding trainer (sparse row updates on large
tables) and the transformation trainer (dense updates on small parameter
blocks). Sparse mode is the usual lazy variant: first/second moment rows
are only updated for rows that received a gradient; the bias-correction
step counter is global per optimizer step. One in-place step serves both
modes, so a dense update and a row update over every row give bitwise the
same result. The embedding trainer sums a row's gradient contributions in
batch order (``models._accumulate``) before handing them to
:meth:`Adam.update_rows`.
"""

from __future__ import annotations

import numpy as np

from .config import check_setting


class Adam:
    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        check_setting("learning rate", lr, lr >= 0, ">= 0")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def _state(self, name: str, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        if name not in self._m:
            self._m[name] = np.zeros(shape)
            self._v[name] = np.zeros(shape)
        return self._m[name], self._v[name]

    def begin_step(self) -> None:
        """Advance the shared step counter; call once per optimization step."""
        self.t += 1

    def _step(self, m: np.ndarray, v: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Advance the moments ``m`` and ``v`` in place by ``grad`` and return
        the step to subtract from the parameters,
        ``lr * m_hat / (sqrt(v_hat) + eps)``."""
        m *= self.beta1
        m += (1 - self.beta1) * grad
        g2 = (1 - self.beta2) * grad
        g2 *= grad
        v *= self.beta2
        v += g2
        step = m / (1 - self.beta1 ** self.t)
        step *= self.lr
        denom = v / (1 - self.beta2 ** self.t)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        return step

    def update(self, name: str, param: np.ndarray, grad: np.ndarray) -> None:
        """Dense in-place Adam update of ``param``."""
        m, v = self._state(name, param.shape)
        param -= self._step(m, v, grad)

    def update_rows(
        self, name: str, param: np.ndarray, rows: np.ndarray, grad_rows: np.ndarray
    ) -> None:
        """Sparse in-place update touching only ``rows`` of ``param``.

        ``rows`` must be unique; ``grad_rows`` holds one gradient row per
        entry of ``rows``.
        """
        m, v = self._state(name, param.shape)
        m_r, v_r = m[rows], v[rows]
        step = self._step(m_r, v_r, grad_rows)
        m[rows] = m_r
        v[rows] = v_r
        param[rows] -= step


class EpochPolicy:
    """What both trainers do at the end of an epoch: stop at a non-finite
    loss, run the ``validator`` (model -> score, higher is better) every
    ``valid_every`` epochs (never when 0), keep a copy of the arrays of the
    best-scoring epoch, and log the epoch, its mean loss to ``loss_digits``
    decimals and the score (``score_column``).
    """

    def __init__(self, validator, valid_every: int, score_column: str, loss_digits: int) -> None:
        self.validator = validator
        self.valid_every = valid_every
        self.loss_digits = loss_digits
        self.best_score = -np.inf
        self.best: list[np.ndarray] | None = None
        self.log = [f"epoch\tloss\t{score_column}"]

    def end_epoch(self, epoch: int, loss: float, model, arrays: list[np.ndarray]) -> None:
        """Close ``epoch`` with mean ``loss``. When ``model`` scores best so
        far, its ``arrays`` are copied, in place after the first copy (a new
        table-sized copy each epoch fragments the heap). A non-finite loss
        raises ``FloatingPointError`` naming the epoch, before any validation."""
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite loss {loss} at epoch {epoch}")
        score = ""
        if self.validator is not None and self.valid_every > 0 and epoch % self.valid_every == 0:
            s = float(self.validator(model))
            score = f"{s:.6f}"
            if s > self.best_score:
                self.best_score = s
                if self.best is None:
                    self.best = [np.empty_like(a) for a in arrays]
                for best, now in zip(self.best, arrays):
                    best[...] = now
        self.log.append(f"{epoch}\t{loss:.{self.loss_digits}f}\t{score}")

    def close(self, log_path: str | None, arrays: list[np.ndarray]) -> None:
        """Write the log to ``log_path`` (no file when None) and copy the best
        epoch's values, if any epoch was validated, back into ``arrays``."""
        if log_path is not None:
            with open(log_path, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in self.log))
        for best, now in zip(self.best or (), arrays):
            now[...] = best
