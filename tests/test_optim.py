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


def test_tree_arrays_cannot_be_rebound():
    # rebinding flat used to detach it from the arrays the kernels read, so
    # Adam moved the new buffer while training read the old one
    params = init_params(policy_spec(4, 3), 0)
    before = params.flat.copy()
    with pytest.raises(AttributeError):
        params.flat = params.flat.copy()
    grads = zeros_like_params(params)
    with pytest.raises(AttributeError):
        grads.layers[1].w_ein = np.ones(grads.layers[1].w_ein.shape)
    with pytest.raises(TypeError):
        grads.layers[0] = params.layers[0]
    grads.flat[...] = 1.0
    Adam(params, lr=0.01).step(grads)
    # the step reaches every array the kernels read
    for (name, a), (_, b) in zip(params.iter_arrays(),
                                 GnnParams(before, params.layout).iter_arrays(),
                                 strict=True):
        np.testing.assert_allclose(b - a, 0.01, rtol=1e-7, err_msg=name)


def _assert_tree_of_spec_rejected(spec):
    params = init_params(SPECS["policy"], 5)
    opt = Adam(params)
    opt.step(random_grads(params, np.random.default_rng(5)))
    before, m, v = params.flat.copy(), opt._m.copy(), opt._v.copy()
    grads = random_grads(init_params(spec, 0), np.random.default_rng(6))
    with pytest.raises(ValueError, match="laid out for another network"):
        opt.step(grads)
    assert opt.t == 1
    for now, saved in ((params.flat, before), (opt._m, m), (opt._v, v)):
        assert now.tobytes() == saved.tobytes()


def test_truncated_gradient_tree_rejected():
    # one layer fewer than the parameters
    _assert_tree_of_spec_rejected(policy_spec(hidden=8, layers=2))


def test_gradient_shape_mismatch_rejected():
    # the same depth, with other shapes
    _assert_tree_of_spec_rejected(SPECS["proj"])


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
