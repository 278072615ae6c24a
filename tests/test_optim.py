import numpy as np
import pytest

from lcapa.gnn import (GnnParams, init_params, policy_spec, proj_spec,
                       zeros_like_params)
from lcapa.heads import GnnModel
from lcapa.optim import Adam
from lcapa.training import TrainHyper, load_checkpoint, save_checkpoint


class PerArrayAdam:
    """Adam as one update per parameter array: the oracle for the flat pass."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = zeros_like_params(params)
        self._v = zeros_like_params(params)

    def step(self, grads):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for (_, p), (_, g), (_, m), (_, v) in zip(
                self.params.iter_arrays(), grads.iter_arrays(),
                self._m.iter_arrays(), self._v.iter_arrays(), strict=True):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


SPECS = {"policy": policy_spec(hidden=8, layers=3),
         # the proj tree's last layer has no edge arrays
         "proj": proj_spec(hidden=8, layers=3)}


def random_grads(params, rng, low=-1.0, high=1.0):
    grads = zeros_like_params(params)
    for _, arr in grads.iter_arrays():
        arr[...] = rng.uniform(low, high, arr.shape)
    return grads


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_flat_pass_matches_the_per_array_oracle(kind):
    params = init_params(SPECS[kind], 1)
    reference = params.copy()
    opt = Adam(params, lr=1e-2, beta1=0.8, beta2=0.99)
    oracle = PerArrayAdam(reference, lr=1e-2, beta1=0.8, beta2=0.99)
    hyper = TrainHyper(learning_rate=1e-2, lr_decay=0.5, lr_decay_every=4)
    rng = np.random.default_rng(2)
    for step in range(30):
        # the learning rate changes between steps, as train_policy sets it
        opt.lr = oracle.lr = hyper.lr_at(step // 3)
        grads = random_grads(params, rng)
        opt.step(grads)
        oracle.step(grads)
        for (name, a), (_, b) in zip(params.iter_arrays(),
                                     reference.iter_arrays(), strict=True):
            assert np.array_equal(a, b), f"step {step}: {name}"
    assert opt.lr != hyper.learning_rate and opt.t == 30


def test_first_step_moves_every_entry_by_lr():
    params = init_params(SPECS["proj"], 3)
    before = params.copy()
    rng = np.random.default_rng(4)
    # |g| >= 1e5 puts eps / |g| below 1e-12; the sign is random
    grads = random_grads(params, rng, 1e5, 1e6)
    for _, arr in grads.iter_arrays():
        arr *= rng.choice([-1.0, 1.0], arr.shape)
    Adam(params, lr=0.01).step(grads)
    for (name, p), (_, p0), (_, g) in zip(params.iter_arrays(),
                                          before.iter_arrays(),
                                          grads.iter_arrays(), strict=True):
        np.testing.assert_allclose(p0 - p, 0.01 * np.sign(g), rtol=1e-12,
                                   atol=0.0, err_msg=name)


def _assert_step_rejected(params, grads, match):
    before = params.copy()
    opt = Adam(params)
    with pytest.raises(ValueError, match=match):
        opt.step(grads)
    assert opt.t == 0
    for (name, a), (_, b) in zip(params.iter_arrays(), before.iter_arrays(),
                                 strict=True):
        assert np.array_equal(a, b), name


def test_truncated_gradient_tree_rejected():
    params = init_params(SPECS["policy"], 5)
    grads = random_grads(params, np.random.default_rng(5))
    layers = list(grads.layers)
    arrays = [(arr, arr.copy()) for _, arr in grads.iter_arrays()]
    truncated = GnnParams(layers=grads.layers[:-1])
    # the constructor packs copies: grads keeps its layers, arrays and values
    assert all(a is b for a, b in zip(grads.layers, layers, strict=True))
    for (arr, saved), (_, now) in zip(arrays, grads.iter_arrays(), strict=True):
        assert now is arr and now.tobytes() == saved.tobytes()
    assert grads.packed()
    assert not any(np.shares_memory(a, grads.flat)
                   for _, a in truncated.iter_arrays())
    _assert_step_rejected(params, truncated, r"no array layer1\.w_self")


def test_rebound_gradient_array_rejected():
    # a rebound array is no longer part of the buffer the step reads
    params = init_params(SPECS["policy"], 6)
    grads = zeros_like_params(params)
    grads.layers[1].w_ein = np.ones(grads.layers[1].w_ein.shape)
    _assert_step_rejected(params, grads, "outside its flat buffer")
    params.layers[0].b_v = np.zeros(params.layers[0].b_v.shape)
    with pytest.raises(ValueError, match="outside its flat buffer"):
        Adam(params)


def test_gradient_shape_mismatch_rejected():
    params = init_params(SPECS["policy"], 6)
    grads = zeros_like_params(params)
    grads.layers[1].w_ein = np.zeros(grads.layers[1].w_ein.shape[::-1])
    _assert_step_rejected(params, grads, r"layer1\.w_ein")


def test_step_on_restored_checkpoint_equals_original(tmp_path):
    spec = policy_spec(hidden=8, layers=3)
    model = GnnModel(spec=spec, params=init_params(spec, 7),
                     norms={"pos_scale": 30.0, "out_scale": 1.0})
    path = str(tmp_path / "policy.json")
    save_checkpoint(model, path)
    restored = load_checkpoint(path).params
    opts = [Adam(p, lr=1e-2) for p in (model.params, restored)]
    rng = np.random.default_rng(8)
    for step in range(5):
        grads = random_grads(model.params, rng)
        for opt in opts:
            opt.step(grads)
        assert model.params.flat.tobytes() == restored.flat.tobytes(), step
