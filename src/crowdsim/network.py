"""Temporal-convolutional velocity predictor, written against plain numpy.

The regressor maps a (window, input_dim) feature window to the next-step
velocity.  It stacks three residual blocks of dilated causal convolutions
(weight-normalised, ReLU, dropout, twice per block, with a 1x1 projection
on the skip path when channel counts change) and reads the last time step
through a fully-connected head.  Forward, backward and the Adam optimiser
are implemented from scratch so gradients are exact and checkable against
finite differences.  Everything runs in float64.

Blocks take and return (B, C, L) views of time-major (L, B, C) buffers.  With
rows flattened to (L*B, C), conv tap u is one GEMM on contiguous row blocks,
out[h*u:] += z[:L-h*u] @ W_u.T, run only for live taps (h*u < L): the others
read only causal zero padding.  `dilated_causal_conv` is the scalar oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

LOSS_EPS = 1e-8


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture knobs of the predictor."""

    input_dim: int
    window: int = 8
    tcn_channels: tuple[int, ...] = (32, 64, 96)
    kernel_size: int = 8
    dilations: tuple[int, ...] = (1, 2, 4)
    dropout_rate: float = 0.2
    output_dim: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "tcn_channels", tuple(int(c) for c in self.tcn_channels))
        object.__setattr__(self, "dilations", tuple(int(h) for h in self.dilations))
        if self.input_dim < 1 or self.window < 1 or self.output_dim < 1:
            raise ValueError("input_dim, window and output_dim must be positive")
        if len(self.tcn_channels) != len(self.dilations):
            raise ValueError("tcn_channels and dilations must have equal length")
        if self.kernel_size < 1:
            raise ValueError("kernel_size must be at least 1")
        if any(h < 1 for h in self.dilations):
            raise ValueError("dilations must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")

    def to_dict(self) -> dict:
        return {"input_dim": self.input_dim, "window": self.window,
                "tcn_channels": list(self.tcn_channels),
                "kernel_size": self.kernel_size, "dilations": list(self.dilations),
                "dropout_rate": self.dropout_rate, "output_dim": self.output_dim}

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        return cls(input_dim=int(d["input_dim"]), window=int(d["window"]),
                   tcn_channels=tuple(d["tcn_channels"]),
                   kernel_size=int(d["kernel_size"]), dilations=tuple(d["dilations"]),
                   dropout_rate=float(d["dropout_rate"]), output_dim=int(d["output_dim"]))


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation knobs (Adam)."""

    learning_rate: float = 1e-4
    iterations: int = 3000
    batch_size: int = 512
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    val_every: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.batch_size < 1 or self.val_every < 1:
            raise ValueError("batch_size and val_every must be positive")

    def to_dict(self) -> dict:
        return {"learning_rate": self.learning_rate, "iterations": self.iterations,
                "batch_size": self.batch_size, "beta1": self.beta1, "beta2": self.beta2,
                "epsilon": self.epsilon, "val_every": self.val_every, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        return cls(**d)


def weight_norm_effective(v: np.ndarray, g) -> np.ndarray:
    """Effective weight g * v / ||v||, norms taken per output channel.

    v has the output channel on axis 0; g is scalar for a single channel
    or a vector of per-channel gains.
    """
    v = np.asarray(v, dtype=float)
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    if g_arr.ndim == 0 or (v.ndim == 1 and g_arr.size == 1):
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("direction tensor has zero norm")
        return float(g_arr.reshape(-1)[0]) * v / norm
    flat = v.reshape(v.shape[0], -1)
    norms = np.linalg.norm(flat, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("direction tensor has zero norm")
    shape = (v.shape[0],) + (1,) * (v.ndim - 1)
    return g_arr.reshape(shape) * v / norms.reshape(shape)


def dilated_causal_conv(z, f, q: int, h: int) -> np.ndarray:
    """Plain dilated causal convolution per the defining sum.

    out[e] = sum_{u=0}^{q-1} f[u] * z[e - h*u], with out-of-range samples
    reading as zero so input and output lengths match.  z may be (L,) for
    scalar channels or (L, C); f is (q,) or (q, C) accordingly.
    """
    z = np.asarray(z, dtype=float)
    f = np.asarray(f, dtype=float)
    if f.shape[0] != q:
        raise ValueError(f"filter length {f.shape[0]} != q={q}")
    if h < 1:
        raise ValueError("dilation must be positive")
    scalar = z.ndim == 1
    z2 = z[:, None] if scalar else z
    f2 = f[:, None] if f.ndim == 1 else f
    L = z2.shape[0]
    out = np.zeros(L)
    for u in range(q):
        shift = h * u
        if shift >= L:
            break
        contrib = (z2[: L - shift] * f2[u][None, :]).sum(axis=1)
        out[shift:] += contrib
    return out


class _WeightNormConv:
    """Dilated causal conv layer with weight-norm parameterisation."""

    def __init__(self, in_ch: int, out_ch: int, q: int, h: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_ch * q)
        self.v = rng.uniform(-bound, bound, size=(out_ch, in_ch, q))
        self.g = np.linalg.norm(self.v.reshape(out_ch, -1), axis=1)
        self.b = np.zeros(out_ch)
        self.q, self.h = q, h
        self.grad_v = np.zeros_like(self.v)
        self.grad_g = np.zeros_like(self.g)
        self.grad_b = np.zeros_like(self.b)
        self._cache: Optional[tuple] = None

    def effective_weight(self) -> np.ndarray:
        return weight_norm_effective(self.v, self.g)

    def _shifted_taps(self, length: int, batch: int) -> list[tuple[int, int]]:
        """(u, rows) per live tap u >= 1 (h*u < L): input rows [:rows] feed
        output rows [-rows:].  Tap 0 maps every row to itself."""
        return [(u, (length - self.h * u) * batch)
                for u in range(1, min(self.q, (length - 1) // self.h + 1))]

    def forward(self, z: np.ndarray) -> np.ndarray:
        """z: (L, B, C_in) -> (L, B, C_out)."""
        length, batch, c_in = z.shape
        z2 = z.reshape(length * batch, c_in)
        w = self.effective_weight().transpose(2, 0, 1).copy()   # (q, C_out, C_in)
        out = z2 @ w[0].T                       # tap 0 reads every row
        for u, rows in self._shifted_taps(length, batch):
            out[-rows:] += z2[:rows] @ w[u].T
        out += self.b
        self._cache = (z2, w, batch)
        return out.reshape(length, batch, -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        z2, w, batch = self._cache
        d2 = dout.reshape(z2.shape[0], -1)
        self.grad_b = d2.sum(axis=0)
        dw = np.zeros_like(self.v)              # dead taps keep a zero gradient
        dw[:, :, 0] = d2.T @ z2
        dz = d2 @ w[0]
        for u, rows in self._shifted_taps(z2.shape[0] // batch, batch):
            dw[:, :, u] = d2[-rows:].T @ z2[:rows]
            dz[:rows] += d2[-rows:] @ w[u]
        # Chain through the weight-norm reparameterisation.
        flat_v = self.v.reshape(self.v.shape[0], -1)
        norms = np.linalg.norm(flat_v, axis=1)
        vhat = flat_v / norms[:, None]
        dw_flat = dw.reshape(dw.shape[0], -1)
        dot = (dw_flat * vhat).sum(axis=1)
        self.grad_g = dot
        self.grad_v = ((self.g / norms)[:, None] * (dw_flat - dot[:, None] * vhat)
                       ).reshape(self.v.shape)
        return dz.reshape(dout.shape[:2] + (-1,))

    def parameters(self):
        return [("v", self.v), ("g", self.g), ("b", self.b)]

    def gradients(self):
        return [("v", self.grad_v), ("g", self.grad_g), ("b", self.grad_b)]


class _Linear:
    """Plain affine map over the channel axis."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_dim)
        self.w = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        self.b = np.zeros(out_dim)
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        self._cache: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        return x @ self.w.T + self.b[None, :]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x = self._cache
        self.grad_w = dout.T @ x
        self.grad_b = dout.sum(axis=0)
        return dout @ self.w

    def parameters(self):
        return [("w", self.w), ("b", self.b)]

    def gradients(self):
        return [("w", self.grad_w), ("b", self.grad_b)]


class _TemporalBlock:
    """Two conv sub-layers (conv -> weight norm -> ReLU -> dropout) + skip."""

    def __init__(self, in_ch: int, out_ch: int, q: int, h: int, dropout: float,
                 rng: np.random.Generator):
        self.conv1 = _WeightNormConv(in_ch, out_ch, q, h, rng)
        self.conv2 = _WeightNormConv(out_ch, out_ch, q, h, rng)
        self.proj = _Linear(in_ch, out_ch, rng) if in_ch != out_ch else None
        self.dropout = dropout
        self._cache: Optional[tuple] = None

    def _drop(self, x: np.ndarray, train: bool, rng: Optional[np.random.Generator]):
        """Dropout on time-major x; the mask is drawn as (B, C, L)."""
        if not train or self.dropout == 0.0:
            return x, None
        keep = 1.0 - self.dropout
        length, b, c = x.shape
        mask = (rng.random((b, c, length)) < keep) / keep
        return x * mask.transpose(2, 0, 1), mask

    def forward(self, z: np.ndarray, train: bool, rng: Optional[np.random.Generator]):
        """z: (B, C_in, L) -> (B, C_out, L); cached arrays are (B, C, L) too."""
        x = np.ascontiguousarray(z.transpose(2, 0, 1))
        a1 = self.conv1.forward(x)
        d1, m1 = self._drop(np.maximum(a1, 0.0), train, rng)
        a2 = self.conv2.forward(d1)
        d2, m2 = self._drop(np.maximum(a2, 0.0), train, rng)
        res = x
        if self.proj is not None:
            # 1x1 conv over channels == linear map applied per time step.
            length, b, c = x.shape
            res = self.proj.forward(x.reshape(-1, c)).reshape(length, b, -1)
        self._cache = (a1.transpose(1, 2, 0), m1, a2.transpose(1, 2, 0), m2, z.shape)
        return (d2 + res).transpose(1, 2, 0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        """dout: (B, C_out, L) -> (B, C_in, L), a view of a time-major buffer."""
        a1, m1, a2, m2, _ = self._cache
        d = dres = dout.transpose(2, 0, 1)
        for conv, a, m in ((self.conv2, a2, m2), (self.conv1, a1, m1)):
            if m is not None:
                d = d * m.transpose(2, 0, 1)
            d = conv.backward(d * (a.transpose(2, 0, 1) > 0.0))
        if self.proj is not None:
            length, b, c = dres.shape
            dres = self.proj.backward(dres.reshape(-1, c)).reshape(length, b, -1)
        return (d + dres).transpose(1, 2, 0)

    def parameters(self):
        out = [("conv1." + n, p) for n, p in self.conv1.parameters()]
        out += [("conv2." + n, p) for n, p in self.conv2.parameters()]
        if self.proj is not None:
            out += [("proj." + n, p) for n, p in self.proj.parameters()]
        return out

    def gradients(self):
        out = [("conv1." + n, g) for n, g in self.conv1.gradients()]
        out += [("conv2." + n, g) for n, g in self.conv2.gradients()]
        if self.proj is not None:
            out += [("proj." + n, g) for n, g in self.proj.gradients()]
        return out


class VelocityPredictor:
    """The full regressor: TCN blocks plus an FC head on the last step."""

    def __init__(self, config: NetworkConfig, rng: Optional[np.random.Generator] = None):
        self.config = config
        rng = np.random.default_rng(0) if rng is None else rng
        self.blocks: list[_TemporalBlock] = []
        in_ch = config.input_dim
        for out_ch, h in zip(config.tcn_channels, config.dilations):
            self.blocks.append(_TemporalBlock(in_ch, out_ch, config.kernel_size, h,
                                              config.dropout_rate, rng))
            in_ch = out_ch
        self.head = _Linear(in_ch, config.output_dim, rng)

    def forward(self, x: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """x: (window, input_dim) or (B, window, input_dim) -> (B, output_dim)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 2
        if single:
            x = x[None, :, :]
        if x.ndim != 3 or x.shape[1] != self.config.window or x.shape[2] != self.config.input_dim:
            raise ValueError(
                f"input must be (batch, {self.config.window}, {self.config.input_dim}), "
                f"got {x.shape}")
        if train and self.config.dropout_rate > 0.0 and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")
        z = x.transpose(0, 2, 1)            # channels first: (B, D, w)
        for block in self.blocks:
            z = block.forward(z, train, rng)
        out = self.head.forward(z[:, :, -1])
        self._last_z_shape = z.shape
        return out[0] if single else out

    def backward(self, dout: np.ndarray) -> None:
        """Accumulate parameter gradients for the latest forward pass."""
        dout = np.asarray(dout, dtype=float)
        if dout.ndim == 1:
            dout = dout[None, :]
        dlast = self.head.backward(dout)
        b, c, length = self._last_z_shape
        dz = np.zeros((b, c, length))
        dz[:, :, -1] = dlast
        for block in reversed(self.blocks):
            dz = block.backward(dz)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, train=False)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, blk in enumerate(self.blocks):
            out += [(f"block{i}.{n}", p) for n, p in blk.parameters()]
        out += [("head." + n, p) for n, p in self.head.parameters()]
        return out

    def gradients(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for i, blk in enumerate(self.blocks):
            out += [(f"block{i}.{n}", g) for n, g in blk.gradients()]
        out += [("head." + n, g) for n, g in self.head.gradients()]
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in self.parameters():
            if name not in state:
                raise ValueError(f"missing parameter {name!r} in state dict")
            src = np.asarray(state[name], dtype=float)
            if src.shape != arr.shape:
                raise ValueError(f"parameter {name!r}: shape {src.shape} != {arr.shape}")
            arr[...] = src


def loss_and_grad(pred: np.ndarray, target: np.ndarray,
                  eps: float = LOSS_EPS) -> tuple[float, np.ndarray]:
    """Sum of smoothed Euclidean error norms and its gradient wrt pred."""
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    target = np.atleast_2d(np.asarray(target, dtype=float))
    diff = pred - target
    per = np.sqrt((diff * diff).sum(axis=1) + eps)
    return float(per.sum()), diff / per[:, None]


def batch_loss(net: VelocityPredictor, x: np.ndarray, y: np.ndarray,
               chunk: int = 2048) -> float:
    """Eval-mode loss of a batch (sum over samples), chunked for memory."""
    total = 0.0
    for lo in range(0, x.shape[0], chunk):
        pred = net.forward(x[lo:lo + chunk], train=False)
        total += loss_and_grad(pred, y[lo:lo + chunk])[0]
    return total


class Adam:
    """Adaptive-moment optimiser over the network's parameter list."""

    def __init__(self, params: list[tuple[str, np.ndarray]], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.epsilon = lr, beta1, beta2, epsilon
        self.m = {name: np.zeros_like(p) for name, p in params}
        self.v = {name: np.zeros_like(p) for name, p in params}
        self.t = 0

    def step(self, grads: list[tuple[str, np.ndarray]]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        gmap = dict(grads)
        for name, p in self.params:
            g = gmap[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.epsilon)


@dataclass
class TrainResult:
    """Best-validation parameters plus the recorded loss history."""

    state: dict[str, np.ndarray]
    history: list[tuple[int, float, float]] = field(default_factory=list)
    best_iteration: int = 0
    best_val_loss: float = np.inf


def train(net: VelocityPredictor, x_train: np.ndarray, y_train: np.ndarray,
          x_val: np.ndarray, y_val: np.ndarray,
          config: TrainingConfig) -> TrainResult:
    """Minibatch Adam training with periodic validation snapshots.

    Loss history rows are (iteration, train_loss, val_loss) with losses
    normalised per sample; the returned state is the parameter set with
    the best recorded validation loss.  Raises RuntimeError on NaN loss.
    """
    if x_train.shape[0] == 0:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(config.seed)
    opt = Adam(net.parameters(), config.learning_rate, config.beta1,
               config.beta2, config.epsilon)
    result = TrainResult(state=net.state_dict())

    def _val_loss() -> float:
        if x_val.shape[0] == 0:
            return np.nan
        return batch_loss(net, x_val, y_val) / x_val.shape[0]

    def _record(iteration: int, train_loss: float) -> None:
        vl = _val_loss()
        result.history.append((iteration, train_loss, vl))
        if np.isfinite(vl) and vl < result.best_val_loss:
            result.best_val_loss = vl
            result.best_iteration = iteration
            result.state = net.state_dict()

    n = x_train.shape[0]
    _record(0, batch_loss(net, x_train[: min(n, config.batch_size)],
                          y_train[: min(n, config.batch_size)]) / min(n, config.batch_size))
    for it in range(1, config.iterations + 1):
        take = min(config.batch_size, n)
        idx = rng.choice(n, size=take, replace=False)
        xb, yb = x_train[idx], y_train[idx]
        pred = net.forward(xb, train=True, rng=rng)
        loss, dpred = loss_and_grad(pred, yb)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at iteration {it} (loss={loss})")
        net.backward(dpred)
        opt.step(net.gradients())
        if it % config.val_every == 0 or it == config.iterations:
            _record(it, loss / take)

    net.load_state_dict(result.state)
    return result
