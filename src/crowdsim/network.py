"""Temporal-convolutional velocity predictor, written against plain numpy.

The regressor maps a (window, input_dim) feature window to the next-step
velocity.  It stacks three residual blocks of dilated causal convolutions
(weight-normalised, ReLU, dropout, twice per block, with a 1x1 projection
on the skip path when channel counts change) and reads the last time step
through a fully-connected head.  Forward, backward and the Adam optimiser
are implemented from scratch so gradients are exact and checkable against
finite differences.  Everything runs in float64.

Blocks take and return (B, C, n) views of time-major (n, B, C) buffers that
hold only the time steps of a step plan (`step_plan`): per block, the input,
conv1-output and block-output steps.  The full plan computes every step of
the window; `forward` runs it by default, and it is the reference.  The head
plan walks back from the head's read of the last step through each conv's
taps t - h*u >= 0 and the skip path, so only the steps the prediction
depends on are computed, forward and backward; `train`, `batch_loss` and
`predict` use it.  Each conv runs one GEMM per live tap over a table of
(u, output rows, input rows), slices where the steps are contiguous and
index arrays where not, taps in increasing u so every output row sums in
the same order under either plan.  Dropout masks are drawn over the whole
(B, C, window) either way, so the rng stream does not depend on the plan.
The scalar reference of each conv, `dilated_causal_conv` (the defining sum),
lives with the tests in `tests/oracles.py`.  Each conv keeps its
weight-normed, re-laid-out weight for as long as v and g keep their bits,
so inference with frozen parameters builds it once.  During training Adam
moves v and g before every forward, so the cache misses each time and holds
one extra (v, g, weight) per conv beside the parameters.

An activation lives from the forward that caches it until the backward that
reads it: each conv's and block's backward releases its cache, and the
predictor keeps the last block output only until its backward.  The head and
the 1x1 projections keep no input; a block gathers its projection's input
again from the block input conv1 holds.  Dropout keeps boolean keep masks,
scaled where they are applied.  Eval-mode forwards cache too, so a block's
activations can be read after any forward.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
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
        return asdict(self)


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
        return asdict(self)


def weight_norm_effective(v: np.ndarray, g) -> np.ndarray:
    """Effective weight g * v / ||v||, norms taken per output channel.

    v has the output channel on axis 0; g is scalar for a single channel
    or a vector of per-channel gains.
    """
    v = np.asarray(v, dtype=float)
    g_arr = np.atleast_1d(np.asarray(g, dtype=float))
    if v.ndim == 1 and g_arr.size == 1:
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


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for C-contiguous a (M, K) and b (K, N), each output row summed
    as in a product of any other number of rows.

    numpy hands a product with one row or one column to gemv or a dot,
    which sum in another order than gemm; doubling that row or column keeps
    it on gemm.  OpenBLAS sums small products with a transposed b in a
    kernel of their own, so b must be C-contiguous.  The step plans rely on
    this: the head plan computes fewer rows than the full plan, bit for bit.
    """
    m, n = a.shape[0], b.shape[1]
    if m > 1 and n > 1:
        return a @ b
    return (np.tile(a, (2 if m == 1 else 1, 1)) @ np.tile(b, (1, 2 if n == 1 else 1)))[:m, :n]


def _selector(steps) -> slice | np.ndarray:
    """Index of sorted, distinct steps: a slice where they are contiguous."""
    steps = list(steps)
    if steps[-1] - steps[0] == len(steps) - 1:
        return slice(steps[0], steps[-1] + 1)
    return np.array(steps, dtype=np.intp)


def _tap_table(out_steps, in_steps, q: int, h: int) -> list[tuple]:
    """(u, output rows, input rows) of each live tap, in increasing u.

    Output step t reads input step t - h*u when that is >= 0; rows are
    positions in the sorted step lists.  Tap 0 covers every output row.
    """
    out_steps = list(out_steps)
    pos = {t: i for i, t in enumerate(in_steps)}
    table = []
    for u in range(q):
        rows = [i for i, t in enumerate(out_steps) if t >= h * u]
        if not rows:
            break
        table.append((u, _selector(rows), _selector([pos[out_steps[i] - h * u] for i in rows])))
    return table


class _BlockSteps:
    """The time steps one block computes, given the output steps needed.

    conv1 computes the steps conv2's taps read; the block reads the steps
    conv1's taps read, which include every output step (the skip path).
    `inputs` lists those window steps; `mid` and `out` select conv1's and
    the block's output steps from a window-long dropout mask; `skip` selects
    the output steps among the inputs.
    """

    def __init__(self, length: int, q: int, h: int, outputs):
        outputs = sorted(outputs)
        mid = sorted({t - h * u for t in outputs for u in range(q) if t >= h * u})
        self.inputs = sorted({t - h * u for t in mid for u in range(q) if t >= h * u})
        self.length = length
        self.conv1 = _tap_table(mid, self.inputs, q, h)
        self.conv2 = _tap_table(outputs, mid, q, h)
        self.mid, self.out = _selector(mid), _selector(outputs)
        self.skip = _selector([self.inputs.index(t) for t in outputs])


def step_plan(config: "NetworkConfig", head_only: bool = False) -> list[_BlockSteps]:
    """Per block, the steps the head's read of the last step depends on
    (head_only), or every step of the window."""
    need = [config.window - 1] if head_only else range(config.window)
    plan = []
    for h in reversed(config.dilations):
        plan.append(_BlockSteps(config.window, config.kernel_size, h, need))
        need = plan[-1].inputs
    return plan[::-1]


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
        self._weight: Optional[tuple] = None     # (v copy, g copy, laid-out weight)

    def effective_weight(self) -> np.ndarray:
        return weight_norm_effective(self.v, self.g)

    def _laid_out_weight(self) -> np.ndarray:
        """The effective weight as (q, C_in, C_out), rebuilt only when v or
        g differ in any bit from the copies it was built from: parameters
        are written in place (Adam, load_state_dict, tests), so the copies,
        not a version count, tell whether it is stale."""
        if self._weight is not None:
            v, g, w = self._weight
            if (np.array_equal(v.view(np.int64), self.v.view(np.int64))
                    and np.array_equal(g.view(np.int64), self.g.view(np.int64))):
                return w
        w = self.effective_weight().transpose(2, 1, 0).copy()
        self._weight = (self.v.copy(), self.g.copy(), w)
        return w

    def forward(self, z: np.ndarray, taps: Optional[list] = None) -> np.ndarray:
        """z: (n_in, B, C_in) -> (n_out, B, C_out) over the steps of a tap
        table; by default every step, n_out = n_in."""
        _, batch, c_in = z.shape
        taps = _tap_table(range(len(z)), range(len(z)), self.q, self.h) if taps is None else taps
        w = self._laid_out_weight()
        (_, _, src), *shifted = taps
        out = _gemm(z[src].reshape(-1, c_in), w[0]).reshape(-1, batch, w.shape[2])
        for u, dst, src in shifted:
            out[dst] += _gemm(z[src].reshape(-1, c_in), w[u]).reshape(-1, batch, w.shape[2])
        out += self.b
        self._cache = (z, w, taps)
        return out

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """Parameter gradients; returns dz unless input_grad is False.  The
        forward's cache is released."""
        z, w, taps = self._cache
        self._cache = None
        _, batch, c_in = z.shape
        c_out = dout.shape[2]
        self.grad_b = dout.reshape(-1, c_out).sum(axis=0)
        dw = np.zeros_like(self.v)              # dead taps keep a zero gradient
        dz = np.zeros(z.shape) if input_grad else None
        for u, dst, src in taps:
            d_u = dout[dst].reshape(-1, c_out)
            dw[:, :, u] = d_u.T @ z[src].reshape(-1, c_in)
            if input_grad:
                dz[src] += (d_u @ w[u].T).reshape(-1, batch, c_in)
        # Chain through the weight-norm reparameterisation.
        flat_v = self.v.reshape(self.v.shape[0], -1)
        norms = np.linalg.norm(flat_v, axis=1)
        vhat = flat_v / norms[:, None]
        dw_flat = dw.reshape(dw.shape[0], -1)
        dot = (dw_flat * vhat).sum(axis=1)
        self.grad_g = dot
        self.grad_v = ((self.g / norms)[:, None] * (dw_flat - dot[:, None] * vhat)
                       ).reshape(self.v.shape)
        return dz

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        return _gemm(x, self.w.T.copy()) + self.b[None, :]

    def backward(self, dout: np.ndarray, x: np.ndarray,
                 input_grad: bool = True) -> Optional[np.ndarray]:
        """Parameter gradients at x, the input of the forward pass, which the
        caller passes back (the layer keeps nothing); returns the input
        gradient unless input_grad is False."""
        self.grad_w = dout.T @ x
        self.grad_b = dout.sum(axis=0)
        return dout @ self.w if input_grad else None

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

    def _drop(self, x: np.ndarray, train: bool, rng: Optional[np.random.Generator],
              length: int, steps):
        """Dropout on time-major x at the given window steps; the boolean
        keep mask is drawn over the whole (B, C, length) window, and scaled
        by 1 / keep where it is applied."""
        if not train or self.dropout == 0.0:
            return x, None
        keep = 1.0 - self.dropout
        _, b, c = x.shape
        mask = rng.random((b, c, length))[:, :, steps] < keep
        return x * (mask / keep).transpose(2, 0, 1), mask

    def forward(self, z: np.ndarray, train: bool, rng: Optional[np.random.Generator],
                steps: Optional[_BlockSteps] = None):
        """z: (B, C_in, n_in) -> (B, C_out, n_out) over the steps of a plan,
        by default every step; cached arrays are (B, C, n) too."""
        if steps is None:
            steps = _BlockSteps(z.shape[2], self.conv1.q, self.conv1.h, range(z.shape[2]))
        x = np.ascontiguousarray(z.transpose(2, 0, 1))
        a1 = self.conv1.forward(x, steps.conv1)
        d1, m1 = self._drop(np.maximum(a1, 0.0), train, rng, steps.length, steps.mid)
        a2 = self.conv2.forward(d1, steps.conv2)
        d2, m2 = self._drop(np.maximum(a2, 0.0), train, rng, steps.length, steps.out)
        res = x[steps.skip]
        if self.proj is not None:
            # 1x1 conv over channels == linear map applied per time step.
            n, b, c = res.shape
            res = self.proj.forward(res.reshape(-1, c)).reshape(n, b, -1)
        self._cache = (a1.transpose(1, 2, 0), m1, a2.transpose(1, 2, 0), m2, steps)
        return (d2 + res).transpose(1, 2, 0)

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        """dout: (B, C_out, n_out) -> (B, C_in, n_in), a view of a time-major buffer.

        With input_grad False only the parameter gradients are computed and
        None is returned (the first block's input needs no gradient).  The
        block's and its convs' caches are released.
        """
        a1, m1, a2, m2, steps = self._cache
        self._cache = None
        d = dres = dout.transpose(2, 0, 1)
        if self.proj is not None:
            # The projection's input is gathered again from the block input,
            # which conv1 holds until its backward.
            n, b, c = dres.shape
            dres = self.proj.backward(dres.reshape(-1, c),
                                      self.conv1._cache[0][steps.skip].reshape(n * b, -1),
                                      input_grad)
            dres = None if dres is None else dres.reshape(n, b, -1)
        keep = 1.0 - self.dropout
        for conv, a, m, grad in ((self.conv2, a2, m2, True), (self.conv1, a1, m1, input_grad)):
            if m is not None:
                d = d * (m / keep).transpose(2, 0, 1)
            d = conv.backward(d * (a.transpose(2, 0, 1) > 0.0), grad)
        if d is None:
            return None
        d[steps.skip] += dres
        return d.transpose(1, 2, 0)

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
        self._z: Optional[np.ndarray] = None     # last block output, until backward
        self._plans = {False: step_plan(config), True: step_plan(config, head_only=True)}

    def forward(self, x: np.ndarray, train: bool = False,
                rng: Optional[np.random.Generator] = None,
                head_only: bool = False) -> np.ndarray:
        """x: (window, input_dim) or (B, window, input_dim) -> (B, output_dim).

        Every block step is computed unless head_only, which computes only
        the steps the head reads; the outputs are bitwise equal either way.
        """
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
        plan = self._plans[head_only]
        z = x[:, _selector(plan[0].inputs), :].transpose(0, 2, 1)   # channels first: (B, D, n)
        for block, steps in zip(self.blocks, plan):
            z = block.forward(z, train, rng, steps)
        out = self.head.forward(z[:, :, -1])
        self._z = z
        return out[0] if single else out

    def backward(self, dout: np.ndarray) -> None:
        """Accumulate parameter gradients for the latest forward pass, over
        the steps it computed.

        Each layer's backward releases the activations its forward cached,
        so a second backward needs a new forward; without one it raises
        RuntimeError.
        """
        if self._z is None:
            raise RuntimeError("backward needs a forward pass first")
        z, self._z = self._z, None
        dout = np.asarray(dout, dtype=float)
        if dout.ndim == 1:
            dout = dout[None, :]
        dz = np.zeros(z.shape)
        dz[:, :, -1] = self.head.backward(dout, z[:, :, -1])
        del z
        for i in reversed(range(len(self.blocks))):
            dz = self.blocks[i].backward(dz, input_grad=i > 0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, train=False, head_only=True)

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


def batch_loss(net: VelocityPredictor, x, y: np.ndarray, chunk: int = 2048) -> float:
    """Eval-mode loss of a batch (sum over samples), chunked for memory.

    x is a (n, window, input_dim) array or anything with its ``shape[0]``
    and slicing, such as `ingest.Windows`, which gathers one chunk at a time.
    """
    total = 0.0
    for lo in range(0, x.shape[0], chunk):
        pred = net.forward(x[lo:lo + chunk], train=False, head_only=True)
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


def train(net: VelocityPredictor, x_train, y_train: np.ndarray, x_val, y_val: np.ndarray,
          config: TrainingConfig) -> TrainResult:
    """Minibatch Adam training with periodic validation snapshots.

    Inputs are (n, window, input_dim) arrays or anything with their
    ``shape[0]`` and indexing by slices and index arrays, such as
    `ingest.Windows`, which gathers each batch from shared feature rows.
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
        pred = net.forward(xb, train=True, rng=rng, head_only=True)
        loss, dpred = loss_and_grad(pred, yb)
        if not np.isfinite(loss):
            raise RuntimeError(f"training diverged at iteration {it} (loss={loss})")
        net.backward(dpred)
        opt.step(net.gradients())
        if it % config.val_every == 0 or it == config.iterations:
            _record(it, loss / take)

    net.load_state_dict(result.state)
    return result
