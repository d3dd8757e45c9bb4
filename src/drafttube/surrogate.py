"""Multi-output MLP surrogate trained from scratch with Adam.

Predicts the scaled (Cp, Cd) pair from scaled control-point offsets. The
hyperparameter search space mirrors the assessed ranges: 1-5 hidden layers,
even widths 2-32, dropout 0-0.8, learning rates {1,2,4,6,8}e-{2,3,4}, six
activations and six initializers; batch size 32 and 512 epochs are fixed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .dataset import MinMaxScaler, kfold

__all__ = [
    "SurrogateError",
    "ACTIVATIONS",
    "INITIALIZERS",
    "MlpConfig",
    "MlpModel",
    "TrainingHistory",
    "MetricsReport",
    "train",
    "metrics",
    "tune",
    "save_model",
    "load_model",
    "TUNED_SCENARIO_I",
    "TUNED_SCENARIO_II",
]

_MAGIC = "DRAFTTUBE-MLP v1"


class SurrogateError(RuntimeError):
    """Raised on invalid configuration or training divergence."""


# ---------------------------------------------------------------------------
# Activations and initializers
# ---------------------------------------------------------------------------

def _elu(z):
    return np.where(z > 0, z, np.expm1(z))


def _elu_grad(z):
    return np.where(z > 0, 1.0, np.exp(z))


def _leaky_relu(z):
    return np.where(z > 0, z, 0.01 * z)


def _leaky_relu_grad(z):
    return np.where(z > 0, 1.0, 0.01)


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_grad(z):
    return (z > 0).astype(float)


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _swish(z):
    return z * _sigmoid(z)


def _swish_grad(z):
    s = _sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


def _tanh_grad(z):
    return 1.0 - np.tanh(z) ** 2


ACTIVATIONS = {
    "elu": (_elu, _elu_grad),
    "leaky_relu": (_leaky_relu, _leaky_relu_grad),
    "relu": (_relu, _relu_grad),
    "softplus": (_softplus, _sigmoid),
    "swish": (_swish, _swish_grad),
    "tanh": (np.tanh, _tanh_grad),
}


# Weight variance of each initializer family, from (fan_in, fan_out).
_VARIANCE = {
    "glorot": lambda fan_in, fan_out: 2.0 / (fan_in + fan_out),
    "he": lambda fan_in, fan_out: 2.0 / fan_in,
    "lecun": lambda fan_in, fan_out: 1.0 / fan_in,
}

INITIALIZERS = tuple(f"{fam}_{dist}" for fam in _VARIANCE
                     for dist in ("normal", "uniform"))


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpConfig:
    hidden_layers: tuple
    dropout: tuple = None
    learning_rate: float = 0.002
    activation: str = "swish"
    initializer: str = "lecun_normal"
    batch_size: int = 32
    epochs: int = 512
    patience: int = 32

    def __post_init__(self):
        hl = tuple(int(v) for v in self.hidden_layers)
        object.__setattr__(self, "hidden_layers", hl)
        if not 1 <= len(hl) <= 5 or any(not 2 <= v <= 32 or v % 2 for v in hl):
            raise SurrogateError("hidden layers: 1-5 layers of even widths 2-32")
        dr = self.dropout if self.dropout is not None else (0.0,) * len(hl)
        dr = tuple(float(v) for v in dr)
        object.__setattr__(self, "dropout", dr)
        if len(dr) != len(hl) or any(not 0.0 <= v <= 0.8 for v in dr):
            raise SurrogateError("dropout rates must be in [0, 0.8], one per layer")
        if self.activation not in ACTIVATIONS:
            raise SurrogateError(f"unknown activation {self.activation!r}")
        if self.initializer not in INITIALIZERS:
            raise SurrogateError(f"unknown initializer {self.initializer!r}")
        if not 1e-4 <= self.learning_rate <= 8e-2:
            raise SurrogateError("learning rate outside the assessed range")


# Tuned topologies reported for the two sampling scenarios.
TUNED_SCENARIO_I = MlpConfig((22, 22, 20, 24, 4), activation="swish")
TUNED_SCENARIO_II = MlpConfig((26, 24, 32, 12, 6), activation="elu")


class MlpModel:
    """Feed-forward regressor with a linear two-unit output layer.

    All weights, then all biases, live in the one vector ``theta``; ``W`` and
    ``b`` are per-layer views into it, in the order ``gradients`` returns.
    """

    def __init__(self, n_inputs: int, config: MlpConfig, seed: int = 0,
                 n_outputs: int = 2):
        self.config = config
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.x_scaler: MinMaxScaler | None = None
        self.y_scaler: MinMaxScaler | None = None
        self.meta: dict = {}
        rng = np.random.Generator(np.random.PCG64(seed))
        sizes = [n_inputs, *config.hidden_layers, n_outputs]
        shapes = list(zip(sizes[:-1], sizes[1:]))
        lengths = [fan_in * fan_out for fan_in, fan_out in shapes] + sizes[1:]
        self.theta = np.zeros(sum(lengths))
        views = np.split(self.theta, np.cumsum(lengths)[:-1])
        self.W = [w.reshape(shape) for w, shape in zip(views, shapes)]
        self.b = views[len(shapes):]
        family, dist = config.initializer.rsplit("_", 1)
        for W in self.W:
            var = _VARIANCE[family](*W.shape)
            if dist == "normal":
                W[...] = rng.normal(0.0, np.sqrt(var), size=W.shape)
            else:
                scale = np.sqrt(3.0 * var)
                W[...] = rng.uniform(-scale, scale, size=W.shape)

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Inference pass (dropout inactive); accepts (n, d) or (d,)."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        A = np.atleast_2d(X)
        if A.shape[1] != self.n_inputs:
            raise SurrogateError(
                f"input width {A.shape[1]} != model input {self.n_inputs}")
        out = self._layers(A)[0]
        return out[0] if single else out

    def predict(self, X_raw: np.ndarray) -> np.ndarray:
        """Predict in original units using the attached scalers."""
        if self.x_scaler is None or self.y_scaler is None:
            raise SurrogateError("model has no attached scaler state")
        return self.y_scaler.invert(self.forward(self.x_scaler.apply(X_raw)))

    def parameters(self):
        """Per-layer views into ``theta``: all weights, then all biases."""
        return self.W + self.b

    def _layers(self, A, rng=None):
        """The layer loop behind both ``forward`` and ``gradients``.

        Returns the output, the last hidden activation and, per hidden layer,
        (input, pre-activation, dropout mask). Inverted dropout runs only when
        ``rng`` is given; elsewhere the mask is None.
        """
        act = ACTIVATIONS[self.config.activation][0]
        cache = []
        for W, b, p in zip(self.W[:-1], self.b[:-1], self.config.dropout):
            Z = A @ W + b
            mask = None
            if rng is not None and p > 0.0:
                mask = (rng.random(Z.shape) >= p) / (1.0 - p)
            cache.append((A, Z, mask))
            A = act(Z) if mask is None else act(Z) * mask
        return A @ self.W[-1] + self.b[-1], A, cache

    def gradients(self, X, Y, rng=None):
        """MSE loss and its gradients w.r.t. all weights and biases."""
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(0))
        dact = ACTIVATIONS[self.config.activation][1]
        out, H, cache = self._layers(X, rng)
        loss = float(np.mean((out - Y) ** 2))
        # d(loss)/d(out); MSE averaged over samples and outputs
        delta = 2.0 * (out - Y) / (len(X) * self.n_outputs)
        gW = [H.T @ delta]
        gb = [delta.sum(axis=0)]
        for (A, Z, mask), W in zip(reversed(cache), reversed(self.W[1:])):
            delta = delta @ W.T
            if mask is not None:
                delta = delta * mask
            delta = delta * dact(Z)
            gW.insert(0, A.T @ delta)
            gb.insert(0, delta.sum(axis=0))
        return loss, gW + gb


@dataclass
class TrainingHistory:
    val_loss: list = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    best_val_loss: float = np.inf


def train(model: MlpModel, X_train, Y_train, X_val, Y_val,
          seed: int = 0) -> TrainingHistory:
    """Adam minibatch training with early stopping on validation MSE.

    Adam uses beta1=0.9, beta2=0.999, eps=1e-8. Stops after ``patience``
    epochs without validation improvement (or at the epoch cap) and restores
    the best weights seen. Raises on divergence.
    """
    cfg = model.config
    X_train = np.asarray(X_train, dtype=float)
    Y_train = np.asarray(Y_train, dtype=float)
    X_val = np.asarray(X_val, dtype=float)
    Y_val = np.asarray(Y_val, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = model.theta
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history = TrainingHistory()
    best = theta.copy()
    bad_epochs = 0
    n = len(X_train)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = model.gradients(X_train[idx], Y_train[idx], rng)
            if not np.isfinite(loss):
                raise SurrogateError(
                    f"training diverged at epoch {epoch} (loss={loss})")
            step += 1
            g = np.concatenate([gi.ravel() for gi in grads])
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * g ** 2
            m_hat = m / (1 - beta1 ** step)
            v_hat = v / (1 - beta2 ** step)
            theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        val_loss = float(np.mean((model.forward(X_val) - Y_val) ** 2))
        history.val_loss.append(val_loss)
        if val_loss < history.best_val_loss:
            history.best_val_loss = val_loss
            history.best_epoch = epoch
            best = theta.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > cfg.patience:
                break
    history.stopped_epoch = epoch
    theta[...] = best
    return history


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    mape: np.ndarray   # percent, per target
    rrmse: np.ndarray  # percent, per target
    r2: np.ndarray     # per target


def _r2(y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Per-target R^2 of 2-D arrays; a constant target column has none."""
    r2 = np.empty(y.shape[1])
    for j, (yj, pj) in enumerate(zip(y.T, y_hat.T)):
        if yj.max() - yj.min() <= 0:
            raise SurrogateError("constant target column; R^2 undefined")
        r2[j] = 1.0 - np.sum((yj - pj) ** 2) / np.sum((yj - yj.mean()) ** 2)
    return r2


def metrics(y: np.ndarray, y_hat: np.ndarray) -> MetricsReport:
    """Per-target MAPE, rRMSE and R^2.

    Rows with a zero observed value are excluded from MAPE (with a warning);
    every target column must be non-constant.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float).T).T
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=float).T).T
    if y.shape != y_hat.shape or len(y) < 2:
        raise SurrogateError("metrics need matching arrays of length >= 2")
    r2 = _r2(y, y_hat)
    mape = np.empty(len(r2))
    rrmse = np.empty(len(r2))
    for j, (yj, pj) in enumerate(zip(y.T, y_hat.T)):
        nz = yj != 0
        if not np.all(nz):
            warnings.warn(f"target {j}: {np.sum(~nz)} zero rows excluded "
                          "from MAPE", stacklevel=2)
        mape[j] = np.mean(np.abs((yj[nz] - pj[nz]) / yj[nz])) * 100.0
        rrmse[j] = (np.sqrt(np.mean((yj - pj) ** 2)) / (yj.max() - yj.min())
                    * 100.0)
    return MetricsReport(mape, rrmse, r2)


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------

_LEARNING_RATES = tuple(x * 10.0 ** -y for y in (2, 3, 4) for x in (1, 2, 4, 6, 8))


def _sample_config(rng: np.random.Generator) -> MlpConfig:
    n_layers = int(rng.integers(1, 6))
    widths = tuple(int(2 * rng.integers(1, 17)) for _ in range(n_layers))
    dropout = tuple(int(rng.integers(0, 9)) / 10 for _ in range(n_layers))
    lr = float(_LEARNING_RATES[rng.integers(len(_LEARNING_RATES))])
    activation = list(ACTIVATIONS)[rng.integers(len(ACTIVATIONS))]
    initializer = INITIALIZERS[rng.integers(len(INITIALIZERS))]
    return MlpConfig(widths, dropout, lr, activation, initializer)


def tune(X_train, Y_train, trials: int = 500, seed: int = 0, k: int = 5,
         epochs: int = 512, patience: int = 32):
    """Seeded random search over the hyperparameter space.

    Each trial is scored by the mean cross-validated R^2 over both targets;
    a divergent trial, or a fold with a constant target column, scores -inf.
    Returns (best_config, best_score, trial_log).
    """
    if trials < 1:
        raise SurrogateError("need at least one trial")
    X_train = np.asarray(X_train, dtype=float)
    Y_train = np.asarray(Y_train, dtype=float)
    rng = np.random.Generator(np.random.PCG64(seed))
    folds = kfold(np.arange(len(X_train)), k=k, seed=seed)
    log = []
    best_cfg, best_score = None, -np.inf
    for trial in range(trials):
        cfg = replace(_sample_config(rng), epochs=epochs, patience=patience)
        scores = []
        try:
            for fi, (tr, va) in enumerate(folds):
                model = MlpModel(X_train.shape[1], cfg, seed=seed * 1000 + trial)
                train(model, X_train[tr], Y_train[tr], X_train[va], Y_train[va],
                      seed=seed * 1000 + trial * 10 + fi)
                scores.append(np.mean(_r2(Y_train[va],
                                          model.forward(X_train[va]))))
            score = float(np.mean(scores))
        except SurrogateError:
            score = -np.inf
        log.append((cfg, score))
        if score > best_score:
            best_cfg, best_score = cfg, score
    return best_cfg, best_score, log


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: MlpModel, path) -> None:
    """Write the model as a magic header line followed by a JSON document.

    ``load_model`` needs both scalers, so a model without them is refused.
    """
    if model.x_scaler is None or model.y_scaler is None:
        raise SurrogateError("model has no attached scaler state")
    doc = {
        "n_inputs": model.n_inputs,
        "n_outputs": model.n_outputs,
        "config": asdict(model.config),
        "weights": [W.tolist() for W in model.W],
        "biases": [b.tolist() for b in model.b],
        "x_scaler": model.x_scaler.to_dict(),
        "y_scaler": model.y_scaler.to_dict(),
        "meta": model.meta,
    }
    with open(path, "w") as fh:
        fh.write(_MAGIC + "\n")
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> MlpModel:
    """Read a ``save_model`` file; malformed content raises SurrogateError."""
    with open(path) as fh:
        try:
            magic = fh.readline().rstrip("\n")
            if magic != _MAGIC:
                raise ValueError(f"bad magic header {magic!r}")
            doc = json.load(fh)
            missing = {f.name for f in fields(MlpConfig)} - set(doc["config"])
            if missing:
                raise KeyError(f"config lacks {sorted(missing)}")
            model = MlpModel(doc["n_inputs"], MlpConfig(**doc["config"]),
                             n_outputs=doc["n_outputs"])
            params = model.parameters()
            stored = [np.array(a, dtype=float)
                      for a in doc["weights"] + doc["biases"]]
            if [a.shape for a in stored] != [p.shape for p in params]:
                raise ValueError("weight and bias shapes do not match the "
                                 "config")
            for p, a in zip(params, stored):
                p[...] = a
            if not np.all(np.isfinite(model.theta)):
                raise ValueError("weights and biases must be finite")
            for key, width in (("x_scaler", model.n_inputs),
                               ("y_scaler", model.n_outputs)):
                if not isinstance(doc[key], dict):
                    raise ValueError(f"{key} must be an object with mins "
                                     "and maxs")
                scaler = MinMaxScaler.from_dict(doc[key])
                if scaler.mins.shape != (width,) \
                        or scaler.maxs.shape != (width,):
                    raise ValueError(f"{key} needs {width} mins and maxs")
                lo, hi = scaler.mins, scaler.maxs
                if not np.all(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)):
                    raise ValueError(f"{key} needs finite mins below "
                                     "its maxs")
                setattr(model, key, scaler)
            model.meta = doc.get("meta", {})
            if not isinstance(model.meta, dict) \
                    or not isinstance(model.meta.get("lineage", {}), dict):
                raise ValueError("meta and meta.lineage must be JSON objects")
        except (KeyError, TypeError, ValueError, SurrogateError) as exc:
            raise SurrogateError(f"{path}: malformed model: "
                                 f"{type(exc).__name__}: {exc}") from None
    return model
