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
             *, rng):
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

    Everything parameter-independent is made once, so a training step
    builds a plan per batch and runs any number of passes against changing
    parameters. keys[l] holds the (view index, node) rows layer l computes,
    mats[l] its aggregation matrix and mats_t[l] (l >= 2) the transpose
    the backward pass multiplies, built once since scipy builds a new view
    object on every .T; row_of maps the batch pairs onto the top rows.
    first, layer 1's aggregated input, is made by the first forward pass
    from the views' feature rows, which the plan never keeps.
    """

    __slots__ = ("keys", "mats", "mats_t", "row_of", "views", "first")

    def __init__(self, keys, mats, row_of, views):
        self.keys = keys
        self.mats = mats
        self.mats_t = [None, None] + [m.T for m in mats[2:]]
        self.row_of = row_of
        self.views = views
        self.first = None

    def feature_rows(self):
        """The feature rows of keys[0], gathered by one index per view."""
        vis, nodes = self.keys[0][:, 0], self.keys[0][:, 1]
        order = np.argsort(vis, kind="stable")
        bounds = np.searchsorted(vis[order], np.arange(len(self.views) + 1))
        rows = None
        for view, lo, hi in zip(self.views, bounds[:-1], bounds[1:]):
            at = order[lo:hi]
            block = view.feature_rows(nodes[at])
            if rows is None:
                rows = np.empty((len(nodes), block.shape[1]))
            rows[at] = block
        return rows

    def first_mean(self):
        if self.first is None:
            self.first = self.mats[1] @ self.feature_rows()
            self.first.setflags(write=False)
            self.views = None
        return self.first


# A key code holds the view index above these bits and the node below.
_NODE_BITS = 32
_NODE_MASK = (1 << _NODE_BITS) - 1


def _first_seen(codes):
    """The distinct codes in first-seen order, and each code's index among
    them."""
    distinct, first, inverse = np.unique(codes, return_index=True,
                                         return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse.ravel()]


def prepare_batch(layer_count, pairs, fanout=None, rng=None):
    """Sample neighborhoods for a batch once and freeze them as a BatchPlan.

    keys[l] lists the distinct (view index, node) keys layer l computes, in
    first-seen order; keys[0] are the feature rows. Row i of mats[l]
    averages key i's members, itself plus its sampled neighbors, over the
    rows of level l - 1. Members are visited by node id, so the output does
    not depend on the order a view reports neighbors in, and each row's
    columns are stored sorted, the order the sparse product sums in.
    """
    if fanout is not None and rng is None:
        raise ModelError("sampled forward needs an rng")
    if not pairs:
        raise ModelError("empty batch")
    views = list({id(view): view for view, _node in pairs}.values())
    index = {id(view): i for i, view in enumerate(views)}
    codes, row_of = _first_seen(np.array(
        [index[id(view)] << _NODE_BITS | node for view, node in pairs],
        dtype=np.int64))
    keys = [None] * (layer_count + 1)
    mats = [None] * (layer_count + 1)
    for l in range(layer_count, 0, -1):
        keys[l] = codes
        counts = []
        members = []
        for code in codes.tolist():
            u = code & _NODE_MASK
            nbrs = views[code >> _NODE_BITS].neighbors(u)
            if fanout is not None and len(nbrs) > fanout:
                nbrs = [nbrs[i] for i in rng.permutation(len(nbrs))[:fanout]]
            group = sorted({u, *nbrs})
            counts.append(len(group))
            members.extend(group)
        counts = np.array(counts)
        codes, cols = _first_seen(
            np.repeat(codes & ~_NODE_MASK, counts)
            | np.array(members, dtype=np.int64))
        mats[l] = sparse.csr_matrix(
            (np.repeat(1.0 / counts, counts), cols,
             np.concatenate(([0], np.cumsum(counts)))),
            shape=(len(counts), len(codes)))
        mats[l].sort_indices()
    keys[0] = codes
    keys = [np.stack([c >> _NODE_BITS, c & _NODE_MASK], axis=1) for c in keys]
    return BatchPlan(keys, mats, row_of, views)


def _layers(params, plan):
    """Run the plan's layers over all its rows.

    Returns (H, means, preacts): the top level's representations plus the
    aggregated input and pre-activation of each layer, which the backward
    pass reads. Layers below the network's last apply the activation. A
    plan of depth 0 gives its feature rows.
    """
    depth = len(plan.mats) - 1
    means = [None] * (depth + 1)
    preacts = [None] * (depth + 1)
    H = plan.feature_rows() if depth == 0 else None
    for l in range(1, depth + 1):
        agg = plan.first_mean() if l == 1 else plan.mats[l] @ H
        w = params.weights[l - 1]
        Z = agg @ w[:-1] + w[-1]
        means[l] = agg
        preacts[l] = Z
        if l < params.layer_count and params.activation == "relu":
            H = np.maximum(Z, 0.0)
        else:
            H = Z
    return H, means, preacts


def _backprop(params, plan, preacts, dZ):
    """Walk the layers from the output down, starting from dZ, the
    gradient at the top layer's pre-activation with one row per top-level
    key. Yields (l, dZ) for l = L, ..., 1, where dZ holds the gradient at
    layer l's pre-activation, one row per key of level l.
    """
    for l in range(params.layer_count, 0, -1):
        yield l, dZ
        if l > 1:
            dH = plan.mats_t[l] @ (dZ @ params.weights[l - 1][:-1].T)
            if params.activation == "relu":
                dZ = dH * (preacts[l - 1] > 0.0)
            else:
                dZ = dH


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


def _labels(batch, out_dim):
    labels = np.array([lab for _v, _n, lab in batch], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= out_dim:
        raise ModelError("label outside the classifier range")
    return labels


def _output_grad(H, labels):
    """Cross entropy of each row of logits H at its label, and its gradient
    with respect to H."""
    shifted = H - H.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted - lse[:, None]
    rows = np.arange(len(labels))
    losses = -logp[rows, labels]
    G = np.exp(logp)
    G[rows, labels] -= 1.0
    return losses, G


def loss_and_grad(params, batch, fanout=None, rng=None, plan=None):
    """Per-triple cross entropy over (view, node, label) triples, plus the
    gradient of its mean.

    The gradient is exact for the sampled computation graph the forward pass
    actually used. A BatchPlan prepared for the batch reuses its sampling.
    """
    labels = _labels(batch, params.out_dim)
    if plan is None:
        plan = prepare_batch(params.layer_count,
                             [(view, node) for view, node, _lab in batch],
                             fanout, rng)
    H, means, preacts = _layers(params, plan)
    losses, G = _output_grad(H[plan.row_of], labels)
    G *= 1.0 / len(batch)
    dZ = np.zeros((len(plan.keys[-1]), params.out_dim), dtype=np.float64)
    np.add.at(dZ, plan.row_of, G)
    grads = zero_grads(params)
    for l, dZ in _backprop(params, plan, preacts, dZ):
        grads[l - 1][:-1] += means[l].T @ dZ
        grads[l - 1][-1] += dZ.sum(axis=0)
    return losses, grads


def squared_view_grads(params, batch):
    """Sum over (view, node, label) triples, one per view, of the squared
    gradient of each triple's own cross entropy, per weight entry.

    One full-neighborhood plan covers the batch, and one forward and one
    backward pass over it give each layer's aggregated inputs means[l] and
    pre-activation gradients dZ. With one triple per view, triple i's rows
    form one contiguous run of every level, so its gradient of layer l is
    means[l][run]^T dZ[run], and dZ[run] summed for the bias (Goodfellow,
    arXiv 1510.01799; BackPACK, arXiv 1912.10985). The squares are added in
    batch order. Triples that share a view would share rows, so they are
    refused.
    """
    if len({id(view) for view, _node, _lab in batch}) < len(batch):
        raise ModelError("two triples share a view")
    plan = prepare_batch(params.layer_count,
                         [(view, node) for view, node, _lab in batch])
    H, means, preacts = _layers(params, plan)
    # one view per triple: the top level's rows are the triples, in order
    _, G = _output_grad(H, _labels(batch, params.out_dim))
    sums = zero_grads(params)
    starts = np.arange(len(batch) + 1)
    for l, dZ in _backprop(params, plan, preacts, G):
        bounds = np.searchsorted(plan.keys[l][:, 0], starts).tolist()
        acc = sums[l - 1]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            g = means[l][lo:hi].T @ dZ[lo:hi]
            acc[:-1] += g * g
            b = dZ[lo:hi].sum(axis=0)
            acc[-1] += b * b
    return sums


def sgd_step(params, grads, lr):
    """One plain gradient step. Rejects non-finite gradients outright."""
    if not lr > 0:
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
