"""Mean-aggregator message passing network with hand-written gradients.

Layer rule: h_v^l = act(W_l . mean over {h_v^(l-1)} union sampled neighbor
representations + b_l). The self vector always joins the mean, there is no
separate self weight. Hidden layers use a rectifier, the last layer feeds a
softmax directly, so its weight matrix is the classifier head.

Each layer's bias lives as the final row of its weight matrix, as if the
aggregated input carried a trailing constant one. Everything that walks the
weight list (SGD, checkpoints, penalty terms) treats bias entries like any
other parameter. Feature rows sit in [0, 1], so without the bias the network
would be positively homogeneous and standardized inputs unreachable.

Forward passes over a batch share one layered computation plan. The plan
records which nodes are needed at each depth and which neighbors were
sampled, and the aggregation at each layer is a sparse row-stochastic matrix.
Gradients are derived by hand from that plan; the tests validate them
against finite differences.
"""

import numpy as np
from scipy import sparse


class ModelError(ValueError):
    pass


class GnnParams:
    """Weight stack plus activation tag.

    weights[l] has shape (in + 1, out); the extra row is the layer's bias.
    """

    __slots__ = ("weights", "activation")

    def __init__(self, weights, activation="relu"):
        if activation not in ("relu", "linear"):
            raise ModelError("unknown activation %r" % activation)
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.activation = activation

    @classmethod
    def init(cls, in_dim, hidden_dim, out_dim, layers=2, activation="relu",
             rng=None):
        """Uniform init in +-sqrt(6 / (fan_in + fan_out)).

        The first layer is adapted to the [0, 1] feature contract: its
        scale gets a sqrt(12) gain correction (a uniform [0, 1] input has
        variance 1/12, where the usual limit assumes unit variance), and
        its bias centers pre-activations for mid-range inputs so units
        start at the kink instead of saturated by the shared 0.5 offset.
        Deeper biases start at zero.
        """
        if layers < 1:
            raise ModelError("need at least one layer")
        if rng is None:
            rng = np.random.default_rng()
        dims = [in_dim] + [hidden_dim] * (layers - 1) + [out_dim]
        weights = []
        for fi, fo in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fi + fo))
            if not weights:
                limit *= np.sqrt(12.0)
            w = np.zeros((fi + 1, fo), dtype=np.float64)
            w[:fi] = rng.uniform(-limit, limit, size=(fi, fo))
            if not weights:
                w[-1] = -0.5 * w[:fi].sum(axis=0)
            weights.append(w)
        return cls(weights, activation)

    @property
    def layer_count(self):
        return len(self.weights)

    @property
    def out_dim(self):
        return self.weights[-1].shape[1]

    def copy(self):
        return GnnParams([w.copy() for w in self.weights], self.activation)

    def expand_classes(self, new_out_dim):
        """Append zero-initialized classifier columns for unseen classes."""
        old = self.weights[-1]
        if new_out_dim < old.shape[1]:
            raise ModelError("class dimension cannot shrink")
        if new_out_dim == old.shape[1]:
            return self.copy()
        grown = np.zeros((old.shape[0], new_out_dim), dtype=np.float64)
        grown[:, :old.shape[1]] = old
        return GnnParams([w.copy() for w in self.weights[:-1]] + [grown],
                         self.activation)


def zero_grads(params):
    return [np.zeros_like(w) for w in params.weights]


class BatchPlan:
    """Frozen sampling plan for repeated passes over one batch.

    Everything parameter-independent is precomputed: the (view id, node)
    keys of each level, per-layer aggregation matrices, the input feature
    block and the output row order. Build once per training step, then run
    any number of forward/backward passes against changing parameters.
    """

    __slots__ = ("keys", "mats", "inputs", "row_of")

    def __init__(self, keys, mats, inputs, row_of):
        self.keys = keys
        self.mats = mats
        self.inputs = inputs
        self.row_of = row_of


def prepare_batch(layer_count, pairs, fanout=None, rng=None):
    """Sample neighborhoods for a batch once and freeze them as a BatchPlan.

    keys[l] lists the distinct (view id, node) keys layer l computes, in
    first-seen order; keys[0] are the feature rows. Row i of mats[l] averages
    key i's members, itself plus its sampled neighbors, over the rows of
    level l - 1. Members are visited by node id, so the output does not
    depend on the order a view reports neighbors in, and each row's columns
    are stored sorted, the order the sparse product sums in.
    """
    if fanout is not None and rng is None:
        raise ModelError("sampled forward needs an rng")
    if not pairs:
        raise ModelError("empty batch")
    views = {id(view): view for view, _node in pairs}
    keyed = [(id(view), node) for view, node in pairs]
    level = {}
    row_of = [level.setdefault(key, len(level)) for key in keyed]
    keys = [None] * (layer_count + 1)
    mats = [None] * (layer_count + 1)
    for l in range(layer_count, 0, -1):
        keys[l] = list(level)
        below = {}
        counts = []
        cols = []
        for vid, u in keys[l]:
            nbrs = views[vid].neighbors(u)
            if fanout is not None and len(nbrs) > fanout:
                nbrs = [nbrs[i] for i in rng.permutation(len(nbrs))[:fanout]]
            members = sorted({u, *nbrs})
            counts.append(len(members))
            cols.extend(below.setdefault((vid, m), len(below))
                        for m in members)
        counts = np.array(counts)
        mats[l] = sparse.csr_matrix(
            (np.repeat(1.0 / counts, counts), cols,
             np.concatenate(([0], np.cumsum(counts)))),
            shape=(len(counts), len(below)))
        mats[l].sort_indices()
        level = below
    keys[0] = list(level)
    inputs = np.array([views[vid].feature_row(u) for vid, u in keys[0]],
                      dtype=np.float64)
    return BatchPlan(keys, mats, inputs, row_of)


def _layers(params, plan):
    """Run the plan's layers over all its rows.

    Returns (H, means, preacts): the top level's representations plus the
    aggregated input and pre-activation of each layer, which the backward
    pass reads. Layers below the network's last apply the activation.
    """
    depth = len(plan.mats) - 1
    means = [None] * (depth + 1)
    preacts = [None] * (depth + 1)
    H = plan.inputs
    for l in range(1, depth + 1):
        agg = plan.mats[l] @ H
        w = params.weights[l - 1]
        Z = agg @ w[:-1] + w[-1]
        means[l] = agg
        preacts[l] = Z
        if l < params.layer_count and params.activation == "relu":
            H = np.maximum(Z, 0.0)
        else:
            H = Z
    return H, means, preacts


def forward_batch(params, pairs, fanout=None, rng=None, upto=None):
    """Representations for a batch of (view, node) pairs.

    fanout=None aggregates full neighborhoods deterministically; with a
    finite fanout, larger neighbor lists are subsampled uniformly without
    replacement using rng. upto=k stops after layer k, on a k-layer plan:
    upto=layer_count - 1 gives the last hidden layer, upto=0 the raw
    feature rows.

    Returns (H, plan) where H[j] is the representation of pairs[j].
    """
    depth = params.layer_count if upto is None else upto
    if not 0 <= depth <= params.layer_count:
        raise ModelError("cannot stop after layer %d of %d"
                         % (depth, params.layer_count))
    plan = prepare_batch(depth, pairs, fanout, rng)
    H, _means, _preacts = _layers(params, plan)
    return H[plan.row_of], plan


def softmax(z):
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def predict_batch(params, pairs):
    """Class probabilities from full neighborhoods."""
    H, _ = forward_batch(params, pairs)
    return softmax(H)


def _batch_loss(params, batch, fanout, rng, with_grad, plan=None):
    pairs = [(view, node) for view, node, _lab in batch]
    labels = np.array([lab for _v, _n, lab in batch], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= params.out_dim:
        raise ModelError("label outside the classifier range")
    if plan is None:
        plan = prepare_batch(params.layer_count, pairs, fanout, rng)
    H, means, preacts = _layers(params, plan)
    H = H[plan.row_of]

    shifted = H - H.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted - lse[:, None]
    losses = -logp[np.arange(len(batch)), labels]
    if not with_grad:
        return losses, None

    L = params.layer_count
    G = np.exp(logp)
    G[np.arange(len(batch)), labels] -= 1.0
    dZ = np.zeros((len(plan.keys[L]), params.out_dim), dtype=np.float64)
    np.add.at(dZ, plan.row_of, G * (1.0 / len(batch)))

    grads = zero_grads(params)
    for l in range(L, 0, -1):
        grads[l - 1][:-1] += means[l].T @ dZ
        grads[l - 1][-1] += dZ.sum(axis=0)
        if l > 1:
            dH = plan.mats[l].T @ (dZ @ params.weights[l - 1][:-1].T)
            if params.activation == "relu":
                dZ = dH * (preacts[l - 1] > 0.0)
            else:
                dZ = dH
    return losses, grads


def loss_and_grad(params, batch, fanout=None, rng=None, plan=None):
    """Per-triple cross entropy over (view, node, label) triples, plus the
    gradient of its mean.

    The gradient is exact for the sampled computation graph the forward pass
    actually used. A BatchPlan prepared for the batch reuses its sampling.
    """
    return _batch_loss(params, batch, fanout, rng, with_grad=True, plan=plan)


def loss_only(params, batch, fanout=None, rng=None, plan=None):
    """Mean cross entropy, without the gradient."""
    return float(_batch_loss(params, batch, fanout, rng, with_grad=False,
                             plan=plan)[0].mean())


def sgd_step(params, grads, lr):
    """One plain gradient step. Rejects non-finite gradients outright."""
    if lr <= 0:
        raise ModelError("learning rate must be positive")
    out = []
    for w, g in zip(params.weights, grads):
        if not np.isfinite(g).all():
            raise ModelError("non-finite gradient entry")
        out.append(w - lr * g)
    return GnnParams(out, params.activation)


CHECKPOINT_VERSION = 1


def save_params(params, path):
    """Lossless weight dump (.npz with a format version marker)."""
    payload = {
        "format_version": np.array(CHECKPOINT_VERSION, dtype=np.int64),
        "activation": np.array(params.activation),
        "layer_count": np.array(params.layer_count, dtype=np.int64),
    }
    for i, w in enumerate(params.weights):
        payload["w%d" % i] = w
    np.savez(path, **payload)


def load_params(path):
    """Inverse of save_params. A malformed file raises a ModelError that
    names it."""
    try:
        with np.load(path) as data:
            version = int(data["format_version"])
            if version != CHECKPOINT_VERSION:
                raise ModelError("unsupported checkpoint version %d" % version)
            count = int(data["layer_count"])
            if count < 1 or "w%d" % count in data.files:
                raise ModelError("layer_count %d does not match the stored "
                                 "weights" % count)
            weights = [data["w%d" % i] for i in range(count)]
            activation = str(data["activation"])
        for i in range(1, count):
            rows, width = weights[i].shape[0], weights[i - 1].shape[1]
            if rows != width + 1:
                raise ModelError("layer %d has %d weight rows, not %d for a "
                                 "width-%d input and a bias"
                                 % (i, rows, width + 1, width))
        return GnnParams(weights, activation)
    except (KeyError, ModelError) as err:
        raise ModelError("%s: %s" % (path, err.args[0])) from None
