import json
from pathlib import Path

import numpy as np
import pytest

import lcapa.training as training
from lcapa.gnn import (init_params, policy_spec, proj_spec, value_spec,
                       zeros_like_params)
from lcapa.heads import GnnModel, policy_forward, proj_forward, value_forward
from lcapa.objective import (project_weights, sinr_vector,
                             sum_se)
from lcapa.quadrature import (GRAM_CHUNK_ENTRIES, integral_couplings,
                              integral_power)
from lcapa.training import (
    CheckpointError,
    ScenePool,
    TrainHyper,
    analytic_chain_loss_and_grads,
    exact_policy_se,
    gen_supervised_dataset,
    load_checkpoint,
    normalized_mse,
    save_checkpoint,
    surrogate_chain_loss_and_grads,
    train_policy,
    train_supervised,
)
from conftest import traced_peak_bytes
from oracles import (earlier_format_record, finite_diff_check,
                     full_cache_surrogate_maps, pair_analytic_chain,
                     pair_supervised_grad, pair_surrogate_chain,
                     per_scene_pool_and_datasets, reload_from_earlier_format)

FIXTURES = Path(__file__).parent / "fixtures"

# The array keys of one checkpoint layer, in the order they are written.
CHECKPOINT_LAYER_KEYS = ["w_self", "w_other", "w_ein", "w_eout", "b_v",
                         "u_edge", "u_src", "u_dst", "b_e"]


def tiny_value_model():
    spec = value_spec(hidden=4, layers=3)
    return GnnModel(spec=spec, params=init_params(spec, 3),
                    norms={"pos_scale": 30.0, "a_scale": 2e-4,
                           "out_scale": 100.0})


class TestCheckpoint:
    def test_round_trip_keeps_every_array(self, tmp_path):
        model = tiny_value_model()
        path = str(tmp_path / "value.json")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec
        assert loaded.norms == model.norms
        saved = list(model.params.iter_arrays())
        restored = list(loaded.params.iter_arrays())
        assert [name for name, _ in restored] == [name for name, _ in saved]
        for (name, a), (_, b) in zip(saved, restored):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_round_trip_is_byte_equal(self, tmp_path):
        # the block layout of the flat buffer does not leak into the file:
        # names, shapes and values round-trip, and the loaded tree has the
        # same flat buffer and writes the same bytes
        model = tiny_value_model()
        first, second = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        save_checkpoint(model, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
        assert loaded.params.layout == model.params.layout
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()

    def test_streamed_bytes_equal_one_json_dump(self, tmp_path):
        model = tiny_value_model()
        model.norms["a_scale"] = np.float64(2e-4)      # a float subclass
        report = training.TrainReport(loss_curve=[0.5, 0.25], eval_curve=[1.5],
                                      best_epoch=0, final_metrics={"se": 3.25},
                                      wall_clock_seconds=0.125,
                                      seeds={"init": 3}, skipped_batches=1)
        lineage = {"data": 100, "init": 3}
        path = tmp_path / "value.json"
        save_checkpoint(model, str(path), report=report, seed_lineage=lineage)
        layers = []
        for lp in model.params.layers:
            entry = {}
            for name in CHECKPOINT_LAYER_KEYS:
                arr = getattr(lp, name)
                entry[name] = None if arr is None else {
                    "shape": list(arr.shape), "data": arr.ravel().tolist()}
            layers.append(entry)
        rec = {"record": "gnn_checkpoint",
               "format_version": training.CHECKPOINT_VERSION,
               "spec": model.spec.to_dict(), "norms": model.norms,
               "seed_lineage": lineage, "layers": layers,
               "report": json.loads(report.to_json())}
        want = tmp_path / "want.json"
        with open(want, "w") as fh:
            json.dump(rec, fh)
        assert path.read_bytes() == want.read_bytes()
        save_checkpoint(model, str(path))
        del rec["report"]
        rec["seed_lineage"] = {}
        assert path.read_bytes() == json.dumps(rec).encode()

    def test_unencodable_report_writes_nothing(self, tmp_path):
        report = training.TrainReport(final_metrics={"bad": object()})
        path = tmp_path / "value.json"
        with pytest.raises(TypeError):
            save_checkpoint(tiny_value_model(), str(path), report=report)
        assert not path.exists()

    def test_layer_keys_keep_their_format(self, tmp_path):
        path = str(tmp_path / "value.json")
        save_checkpoint(tiny_value_model(), path)
        with open(path) as fh:
            rec = json.load(fh)
        for entry in rec["layers"]:
            assert list(entry) == CHECKPOINT_LAYER_KEYS

    def test_missing_array_rejected(self, tmp_path):
        path = str(tmp_path / "value.json")
        save_checkpoint(tiny_value_model(), path)
        with open(path) as fh:
            rec = json.load(fh)
        del rec["layers"][1]["u_dst"]
        with open(path, "w") as fh:
            json.dump(rec, fh)
        with pytest.raises(CheckpointError, match="missing array u_dst in layer 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt", [
        lambda rec: rec.pop("layers"),
        lambda rec: rec.pop("spec"),
        lambda rec: rec["layers"][0]["w_self"].pop("shape"),
        lambda rec: rec["layers"][0]["w_self"]["data"].pop(),
        lambda rec: rec["layers"][0]["w_self"]["data"].__setitem__(0, "x"),
        lambda rec: rec["spec"].__setitem__("kind", "bogus"),
        lambda rec: rec["layers"][1]["b_v"]["data"].__setitem__(0, float("nan")),
        lambda rec: rec["layers"][1]["b_v"]["data"].__setitem__(0, float("inf")),
        lambda rec: rec["layers"][0]["w_self"].__setitem__(
            "shape", rec["layers"][0]["w_self"]["shape"][::-1]),
        lambda rec: rec["layers"][0].__setitem__("w_extra",
                                                 rec["layers"][0]["b_v"]),
    ], ids=["no-layers", "no-spec", "no-shape", "short-data", "string-entry",
            "unknown-kind", "nan-parameter", "inf-parameter", "transposed-shape",
            "unexpected-array"])
    def test_corrupt_record_raises_checkpoint_error(self, corrupt, tmp_path):
        path = str(tmp_path / "value.json")
        save_checkpoint(tiny_value_model(), path)
        with open(path) as fh:
            rec = json.load(fh)
        corrupt(rec)
        with open(path, "w") as fh:
            json.dump(rec, fh)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("corrupt,message", [
        (lambda norms: norms.pop("a_scale"), "missing norm a_scale"),
        (lambda norms: norms.clear(), "missing norm pos_scale"),
        (lambda norms: norms.__setitem__("out_scale", float("nan")), "out_scale"),
        (lambda norms: norms.__setitem__("out_scale", float("inf")), "out_scale"),
        (lambda norms: norms.__setitem__("a_scale", 0.0), "a_scale"),
        (lambda norms: norms.__setitem__("pos_scale", -30.0), "pos_scale"),
        (lambda norms: norms.__setitem__("pos_scale", "30"), "pos_scale"),
        (lambda norms: norms.__setitem__("a_scale", True), "a_scale"),
    ], ids=["missing", "empty", "nan", "inf", "zero", "negative", "string",
            "bool"])
    def test_bad_norm_raises_checkpoint_error(self, corrupt, message, tmp_path):
        # a NaN out_scale used to load and make every output NaN
        path = str(tmp_path / "value.json")
        save_checkpoint(tiny_value_model(), path)
        with open(path) as fh:
            rec = json.load(fh)
        corrupt(rec["norms"])
        with open(path, "w") as fh:
            json.dump(rec, fh)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_policy_needs_no_a_scale(self, tmp_path):
        spec = policy_spec(hidden=4, layers=3)
        model = GnnModel(spec=spec, params=init_params(spec, 0),
                         norms={"pos_scale": 30.0, "out_scale": 1e-4})
        path = str(tmp_path / "policy.json")
        save_checkpoint(model, path)
        assert load_checkpoint(path).norms == model.norms
        del model.norms["out_scale"]
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="missing norm out_scale"):
            load_checkpoint(path)

    def test_top_level_list_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "value.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="not a checkpoint file"):
            load_checkpoint(str(path))

    def test_earlier_format_loads_every_array_byte_identically(self, tmp_path):
        model = tiny_value_model()
        path = tmp_path / "value.json"
        path.write_text(json.dumps(earlier_format_record(model)))
        loaded = load_checkpoint(str(path))
        assert loaded.spec == model.spec and loaded.norms == model.norms
        assert loaded.params.layout == model.params.layout
        for (name, a), (_, b) in zip(model.params.iter_arrays(),
                                     loaded.params.iter_arrays(), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_written_checkpoint_loads_byte_identically(self):
        # a checkpoint save_checkpoint wrote of init_params(spec, 11), checked in
        loaded = load_checkpoint(str(FIXTURES / "proj_checkpoint_h3_l3_seed11.json"))
        spec = proj_spec(hidden=3, layers=3)
        assert loaded.spec == spec
        assert loaded.params.flat.tobytes() == init_params(spec, 11).flat.tobytes()

    @pytest.mark.parametrize("name,message", [
        ("policy_checkpoint_input4_h8_l3.json", "input widths"),
        ("policy_checkpoint_hidden8_edge4_l3.json", "hidden widths differ")])
    def test_spec_outside_the_kind_rejected(self, name, message):
        # written by save_checkpoint when a spec took its widths as inputs;
        # the first used to load and fail only at its first forward pass
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(str(FIXTURES / name))

    def test_non_integer_width_rejected(self, tmp_path):
        # a width of 4.0 used to load, and the first forward pass raised
        # TypeError
        path = tmp_path / "value.json"
        save_checkpoint(tiny_value_model(), str(path))
        rec = json.loads(path.read_text())
        rec["spec"]["vertex_widths"][1] = 4.0
        path.write_text(json.dumps(rec))
        with pytest.raises(CheckpointError, match="widths must be integers"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("key,value", [("edge_aggregation", True),
                                           ("hidden_slope", 0.5)])
    def test_earlier_format_with_another_setting_rejected(self, key, value,
                                                          tmp_path):
        rec = earlier_format_record(tiny_value_model())
        rec["spec"][key] = value
        path = tmp_path / "value.json"
        path.write_text(json.dumps(rec))
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(str(path))


@pytest.mark.parametrize("field,value", [
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("learning_rate", 0.0), ("batch_size", 0), ("epochs", -1), ("epochs", 0),
    ("lr_decay_every", 0), ("num_train", 0), ("lr_decay", float("nan")),
])
def test_train_hyper_rejects_bad_values(field, value):
    # each would otherwise fail late: lr_decay_every=0 divides by zero in
    # lr_at, batch_size=0 in range(), and a NaN rate trains to NaN
    with pytest.raises(ValueError, match=field.replace("_", "[_ ]")):
        TrainHyper(**{field: value})


def test_an_epoch_that_skips_every_batch_records_nan():
    # epoch 0 takes its three batches; epochs 1 and 2 skip all of theirs,
    # and used to record a loss of 0
    model = tiny_value_model()
    taken = []

    def batch_loss(idx):
        if len(taken) == 3:
            raise training.DegenerateBatchError("no power")
        taken.append(idx)
        return 0.25, zeros_like_params(model.params)

    report = training.TrainReport()
    training._train_epochs(model, TrainHyper(learning_rate=1e-3, batch_size=2,
                                             epochs=3),
                           0, 0, 6, batch_loss, lambda: 1.0, False, report)
    assert report.skipped_batches == 6
    assert report.loss_curve[0] == 0.25
    assert len(report.loss_curve) == 3 and np.isnan(report.loss_curve[1:]).all()


def tiny_policy(pool: ScenePool, seed: int) -> GnnModel:
    """A policy emitting weights at the pool's natural projected scale."""
    k = pool.coupling_grams.shape[1]
    c_diag = np.mean([np.trace(c).real / k for c in pool.coupling_grams])
    a_nat = float(np.sqrt(1.0 / (k * c_diag)))
    spec = policy_spec(hidden=8, layers=3)
    return GnnModel(spec=spec, params=init_params(spec, seed),
                    norms={"pos_scale": 30.0, "a_scale": a_nat, "out_scale": a_nat})


def per_scene_exact_se(policy, pool, power_budget, user_apertures, noise_vars):
    """exact_policy_se one scene at a time through the objective functions."""
    a_raw, _ = policy_forward(policy, pool.positions)
    out = []
    for a, c in zip(a_raw, pool.coupling_grams):
        powers = integral_power(a, c)
        if powers.sum() <= 0.0:
            out.append(0.0)
            continue
        weights = project_weights(a, powers, power_budget)
        gamma = sinr_vector(integral_couplings(weights, c), user_apertures,
                            noise_vars)
        out.append(sum_se(gamma).sum_se)
    return np.array(out)


class TestScenesAndGrams:
    def test_pool_and_datasets_share_scenes_and_grams(self):
        pool = ScenePool.generate(7, 3, 3, 16, 1e6)
        for mode in ("proj", "value"):
            ds = gen_supervised_dataset(7, 3, 3, 16, mode)
            assert len(ds) == 3
            assert ds.positions.tobytes() == pool.positions.tobytes()
        # the targets are the powers or couplings under the pool's own Grams
        ds = gen_supervised_dataset(7, 3, 3, 16, "proj")
        for w, p, c in zip(ds.weights, ds.targets, pool.coupling_grams):
            assert np.array_equal(p, integral_power(w, c))
        ds = gen_supervised_dataset(7, 3, 3, 16, "value")
        assert ds.targets.shape == (3, 3, 3)
        for w, g, c in zip(ds.weights, ds.targets, pool.coupling_grams):
            assert np.array_equal(g, integral_couplings(w, c))
            assert np.isclose(integral_power(w, c).sum(), 1.0, rtol=1e-12)


class TestStackedPoolsMatchPerSceneOracle:
    """Pools and datasets are built with stacked calls, a chunk of scenes at a
    time; every array equals the scene-by-scene oracle bit for bit."""

    @pytest.mark.parametrize("m", [16, 256, 1024])
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_pool_and_datasets_bit_identical(self, k, m):
        # one scene, and one below and one above a chunk; sample i depends
        # only on (seed, i), so each count's oracle is a prefix of the largest
        chunk = max(1, GRAM_CHUNK_ENTRIES // (k * m))
        seed = 1000 * k + m
        ref = per_scene_pool_and_datasets(seed, chunk + 1, k, m)
        for n in sorted({1, chunk - 1, chunk + 1} - {0}):
            pool = ScenePool.generate(seed, n, k, m, 1e6)
            assert np.array_equal(pool.positions, ref["positions"][:n])
            assert np.array_equal(pool.coupling_grams, ref["grams"][:n])
            for mode in ("proj", "value"):
                ds = gen_supervised_dataset(seed, n, k, m, mode)
                weights, targets = ref[mode]
                assert np.array_equal(ds.positions, ref["positions"][:n])
                assert np.array_equal(ds.weights, weights[:n])
                assert np.array_equal(ds.targets, targets[:n])
                assert ds.targets.dtype == targets.dtype


class TestExactPolicySe:
    def test_matches_per_scene_reference_with_a_zero_power_scene(self):
        pool = ScenePool.generate(11, 4, 3, 64, 1e6)
        policy = tiny_policy(pool, 4)
        grams = pool.coupling_grams.copy()
        grams[2] = 0.0
        pool = ScenePool(scenes=pool.scenes, positions=pool.positions,
                         coupling_grams=grams)
        scene = pool.scenes[0]
        args = (pool, scene.power_budget, scene.user_apertures(),
                scene.noise_vars())
        se = exact_policy_se(policy, *args)
        ref = per_scene_exact_se(policy, *args)
        assert se[2] == 0.0 and ref[2] == 0.0
        assert np.all(se[[0, 1, 3]] > 0.0)
        assert np.allclose(se, ref, rtol=1e-12, atol=0.0)


def _assert_same_nonzero_grads(grads, ref_grads):
    assert any(np.any(a != 0.0) for _, a in grads.iter_arrays())
    for (name, a), (_, b) in zip(grads.iter_arrays(), ref_grads.iter_arrays(),
                                 strict=True):
        assert np.array_equal(a, b), name


class TestAnalyticChain:
    def test_gradients_equal_the_pair_form_oracle(self):
        pool = ScenePool.generate(3, 4, 3, 64, 1e6)
        policy = tiny_policy(pool, 5)
        scene = pool.scenes[0]
        args = (policy, pool.positions, pool.coupling_grams,
                scene.user_apertures(), scene.noise_vars(), scene.power_budget)
        loss, grads = analytic_chain_loss_and_grads(*args)
        ref_loss, ref_grads = pair_analytic_chain(*args)
        assert loss == ref_loss
        _assert_same_nonzero_grads(grads, ref_grads)

    def test_finite_difference(self):
        pool = ScenePool.generate(3, 2, 3, 64, 1e6)
        policy = tiny_policy(pool, 5)
        scene = pool.scenes[0]
        args = (pool.positions, pool.coupling_grams, scene.user_apertures(),
                scene.noise_vars(), scene.power_budget)
        _, grads = analytic_chain_loss_and_grads(policy, *args)
        worst = finite_diff_check(
            lambda: analytic_chain_loss_and_grads(policy, *args)[0],
            policy.params, grads, probes=120, seed=6)
        assert worst <= 1e-5, f"max relative gradient error {worst:.2e}"


class TestSurrogateChain:
    # reloaded: the two DNNs as read back from the earlier checkpoint format
    @pytest.mark.parametrize("reloaded", [False, True])
    def test_gradients_equal_the_full_backward_oracle(self, reloaded):
        pool = ScenePool.generate(3, 4, 3, 64, 1e6)
        policy = tiny_policy(pool, 5)
        norms = {"pos_scale": 30.0, "a_scale": policy.norm("a_scale"),
                 "out_scale": 1.0}
        models = []
        for spec, seed in ((proj_spec(hidden=8, layers=3), 1),
                           (value_spec(hidden=8, layers=3), 2)):
            params = init_params(spec, seed)
            if reloaded:
                params = reload_from_earlier_format(spec, params)
            models.append(GnnModel(spec=spec, params=params, norms=norms))
        proj, value = models
        scene = pool.scenes[0]
        args = (policy, proj, value, pool.positions, scene.user_apertures(),
                scene.noise_vars(), scene.power_budget)
        # the oracle composes the chain from (re, im) pairs, with full
        # (wrt="both") passes through the surrogates
        loss, grads = surrogate_chain_loss_and_grads(*args)
        ref_loss, ref_grads = pair_surrogate_chain(*args)
        assert loss == ref_loss
        _assert_same_nonzero_grads(grads, ref_grads)

    def test_finite_difference(self):
        pool = ScenePool.generate(3, 2, 3, 64, 1e6)
        policy = tiny_policy(pool, 5)
        models = []
        for spec, seed, out_scale in ((proj_spec(hidden=8, layers=3), 1, 1.0),
                                      (value_spec(hidden=8, layers=3), 2, 100.0)):
            models.append(GnnModel(spec=spec, params=init_params(spec, seed),
                                   norms={"pos_scale": 30.0, "a_scale": 2e-4,
                                          "out_scale": out_scale}))
        proj, value = models
        scene = pool.scenes[0]
        args = (proj, value, pool.positions, scene.user_apertures(),
                scene.noise_vars(), scene.power_budget)
        _, grads = surrogate_chain_loss_and_grads(policy, *args)
        worst = finite_diff_check(
            lambda: surrogate_chain_loss_and_grads(policy, *args)[0],
            policy.params, grads, probes=120, seed=7)
        assert worst <= 1e-5, f"max relative gradient error {worst:.2e}"

    def test_a_step_holds_only_the_surrogates_signs(self):
        # N=64, K=4, H=32, L=4: the surrogates' caches outweigh the policy's
        pool = ScenePool.generate(3, 64, 4, 16, 1e6)
        a_nat = tiny_policy(pool, 5).norm("a_scale")
        policy, proj, value = (
            GnnModel(spec=spec, params=init_params(spec, seed),
                     norms={"pos_scale": 30.0, "a_scale": a_nat,
                            "out_scale": out_scale})
            for spec, seed, out_scale in ((policy_spec(32, 4), 5, a_nat),
                                          (proj_spec(32, 4), 1, 1.0),
                                          (value_spec(32, 4), 2, 100.0)))
        scene = pool.scenes[0]
        tail = (scene.user_apertures(), scene.noise_vars(), scene.power_budget)

        def step():
            return surrogate_chain_loss_and_grads(policy, proj, value,
                                                  pool.positions, *tail)

        def full_cache_step():
            return training._chain_loss_and_grads(
                policy, pool.positions,
                *full_cache_surrogate_maps(proj, value, pool.positions), *tail)

        loss, grads = step()
        ref_loss, ref_grads = full_cache_step()
        assert loss == ref_loss
        _assert_same_nonzero_grads(grads, ref_grads)
        peak, ref_peak = traced_peak_bytes(step), traced_peak_bytes(full_cache_step)
        assert peak <= 0.7 * ref_peak, (
            f"traced peak {peak} B, {peak / ref_peak:.3f} of the full caches' {ref_peak} B")


class TestTrainSupervised:
    """train_supervised end to end at a tiny config: K=3, H=8, L=2, 30 samples."""

    HEADS = {"proj": (proj_spec, proj_forward), "value": (value_spec, value_forward)}
    SAMPLES = 30
    VALIDATION = 3      # round(training.VALIDATION_FRACTION * SAMPLES)

    def train(self, mode):
        dataset = gen_supervised_dataset(5, self.SAMPLES, 3, 16, mode)
        hyper = TrainHyper(learning_rate=0.2, batch_size=4, epochs=20,
                           num_nodes=16, num_train=self.SAMPLES)
        spec = self.HEADS[mode][0](hidden=8, layers=2)
        model, report = train_supervised(spec, dataset, hyper, seed=3)
        return dataset, model, report

    @pytest.mark.parametrize("mode", ["proj", "value"])
    def test_batch_gradients_equal_the_pair_form_oracle(self, mode, monkeypatch):
        dataset = gen_supervised_dataset(5, self.SAMPLES, 3, 16, mode)
        hyper = TrainHyper(learning_rate=0.2, batch_size=4, epochs=2,
                           num_nodes=16, num_train=self.SAMPLES)
        steps = []
        step = training.Adam.step

        def spy(opt, grads):
            steps.append((opt.params.copy(), grads.copy()))
            step(opt, grads)

        monkeypatch.setattr(training.Adam, "step", spy)
        spec = self.HEADS[mode][0](hidden=8, layers=2)
        model, _ = train_supervised(spec, dataset, hyper, seed=3)
        # train_supervised shuffles with the stream SeedSequence([seed, 7 + epoch])
        n_train = self.SAMPLES - self.VALIDATION
        orders = [np.random.default_rng(np.random.SeedSequence([3, 7 + epoch]))
                  .permutation(n_train) for epoch in range(hyper.epochs)]
        batches = [order[lo:lo + hyper.batch_size] for order in orders
                   for lo in range(0, n_train, hyper.batch_size)]
        assert len(steps) == len(batches) == 14
        for (params, grads), idx in zip(steps, batches):
            net = GnnModel(spec=spec, params=params, norms=model.norms)
            _, ref = pair_supervised_grad(net, dataset.positions[idx],
                                          dataset.weights[idx],
                                          dataset.targets[idx])
            _assert_same_nonzero_grads(grads, ref)

    @pytest.mark.parametrize("mode", ["proj", "value"])
    def test_returns_the_best_validation_snapshot(self, mode):
        dataset, model, report = self.train(mode)
        _, again, again_report = self.train(mode)
        for (name, a), (_, b) in zip(model.params.iter_arrays(),
                                     again.params.iter_arrays(), strict=True):
            assert a.tobytes() == b.tobytes(), name
        first, second = json.loads(report.to_json()), json.loads(again_report.to_json())
        del first["wall_clock_seconds"], second["wall_clock_seconds"]
        assert first == second

        assert report.best_epoch == int(np.argmin(report.eval_curve))
        # this config peaks before its last epoch, so the final parameters
        # are not the ones to return
        assert report.best_epoch < len(report.eval_curve) - 1
        held_out = slice(-self.VALIDATION, None)
        pred, _ = self.HEADS[mode][1](model, dataset.positions[held_out],
                                      dataset.weights[held_out])
        nmse = normalized_mse(pred, dataset.targets[held_out])
        assert nmse == report.final_metrics["validation_nmse"] == min(report.eval_curve)

    @pytest.mark.parametrize("mode", ["proj", "value"])
    def test_norms_are_per_sample_rms(self, mode):
        # the mean over samples of each sample's mean square, bit for bit:
        # the checkpointed norms of every trained surrogate depend on it
        dataset, model, _ = self.train(mode)

        def rms(arrays):
            return float(np.sqrt(np.mean([np.mean(np.abs(a) ** 2)
                                          for a in arrays])))

        assert model.norms == {"pos_scale": 30.0,
                               "a_scale": rms(dataset.weights),
                               "out_scale": rms(dataset.targets)}

    def test_no_held_out_samples_keeps_the_last_parameters(self, monkeypatch):
        # round(0.1 n) holds out nothing for n <= 5 (round(0.5) is 0)
        samples = 4
        dataset = gen_supervised_dataset(5, samples, 3, 16, "proj")
        hyper = TrainHyper(learning_rate=0.2, batch_size=2, epochs=3,
                           num_nodes=16, num_train=samples)
        steps = []
        step = training.Adam.step

        def spy(opt, grads):
            step(opt, grads)
            steps.append(opt.params.copy())

        monkeypatch.setattr(training.Adam, "step", spy)
        model, report = train_supervised(proj_spec(hidden=8, layers=2), dataset,
                                         hyper, seed=3)
        assert len(steps) == 3 * samples // 2
        assert report.final_metrics["validation_nmse"] is None
        assert report.best_epoch == -1
        assert all(np.isnan(v) for v in report.eval_curve)
        for (name, a), (_, b) in zip(model.params.iter_arrays(),
                                     steps[-1].iter_arrays(), strict=True):
            assert a.tobytes() == b.tobytes(), name


class TestTrainPolicy:
    """train_policy end to end at a tiny config: K=3, H=8, L=3, 8-scene pools."""

    EPOCHS = 3
    BATCH = 4

    @pytest.fixture(scope="class")
    def pools(self):
        return (ScenePool.generate(21, 8, 3, 64, 1e6),
                ScenePool.generate(22, 8, 3, 64, 1e6))

    def train(self, pools, mode, proj=None, value=None):
        pool, eval_pool = pools
        hyper = TrainHyper(learning_rate=0.1, batch_size=self.BATCH,
                           epochs=self.EPOCHS, num_nodes=64, num_train=8)
        return train_policy(policy_spec(hidden=8, layers=3), proj, value, pool,
                            eval_pool, hyper, 0, mode)

    @staticmethod
    def surrogates():
        norms = {"pos_scale": 30.0, "a_scale": 1e-3, "out_scale": 1.0}
        return tuple(GnnModel(spec=spec, params=init_params(spec, seed),
                              norms=norms)
                     for spec, seed in ((proj_spec(hidden=8, layers=3), 1),
                                        (value_spec(hidden=8, layers=3), 2)))

    def test_analytic_returns_the_best_epoch_snapshot(self, pools, monkeypatch):
        snapshots = []
        evaluate = training.exact_policy_se

        def spy(policy, *args):
            snapshots.append(policy.params.copy())
            return evaluate(policy, *args)

        # train_policy evaluates once per epoch, after that epoch's steps
        monkeypatch.setattr(training, "exact_policy_se", spy)
        policy, report = self.train(pools, "analytic")
        assert len(snapshots) == len(report.eval_curve) == self.EPOCHS
        assert report.skipped_batches == 0
        assert report.best_epoch == int(np.argmax(report.eval_curve))
        # this config peaks before its last epoch, so the final parameters
        # are not the ones to return
        assert report.best_epoch < self.EPOCHS - 1
        best = snapshots[report.best_epoch]
        for (name, a), (_, b) in zip(policy.params.iter_arrays(),
                                     best.iter_arrays(), strict=True):
            assert a.tobytes() == b.tobytes(), name
        assert report.final_metrics["held_out_exact_se"] == max(report.eval_curve)

    def test_no_finite_score_keeps_the_last_parameters(self, pools, monkeypatch):
        snapshots = []

        def nan_se(policy, pool, *args):
            snapshots.append(policy.params.copy())
            return np.full(len(pool.scenes), np.nan)

        monkeypatch.setattr(training, "exact_policy_se", nan_se)
        policy, report = self.train(pools, "analytic")
        assert len(snapshots) == self.EPOCHS
        assert report.final_metrics["held_out_exact_se"] is None
        assert report.best_epoch == -1
        for (name, a), (_, b) in zip(policy.params.iter_arrays(),
                                     snapshots[-1].iter_arrays(), strict=True):
            assert a.tobytes() == b.tobytes(), name
        # the last epoch moved the parameters, so these are not the initial ones
        assert any(not np.array_equal(a, b) for (_, a), (_, b) in zip(
            snapshots[0].iter_arrays(), snapshots[-1].iter_arrays()))

    def test_zero_policy_skips_every_batch(self, pools, monkeypatch):
        monkeypatch.setattr(
            training, "init_params",
            lambda spec, seed: zeros_like_params(init_params(spec, seed)))
        policy, report = self.train(pools, "analytic")
        batches = -(-len(pools[0].scenes) // self.BATCH)
        assert report.skipped_batches == self.EPOCHS * batches
        assert report.eval_curve == [0.0] * self.EPOCHS
        assert len(report.loss_curve) == self.EPOCHS
        assert all(np.isnan(loss) for loss in report.loss_curve)
        assert all(np.all(a == 0.0) for _, a in policy.params.iter_arrays())

    def test_zero_surrogate_powers_skip_every_batch(self, pools):
        # the degenerate-batch check of the one chain, reached through
        # ProjNet: softplus(-1e4 + ...) is exactly 0 on every user
        proj, value = self.surrogates()
        proj.params.layers[-1].b_v[...] = -1e4
        pool = pools[0]
        scene = pool.scenes[0]
        with pytest.raises(training.DegenerateBatchError):
            surrogate_chain_loss_and_grads(
                tiny_policy(pool, 0), proj, value, pool.positions,
                scene.user_apertures(), scene.noise_vars(), scene.power_budget)
        policy, report = self.train(pools, "surrogate", proj, value)
        batches = -(-len(pool.scenes) // self.BATCH)
        assert report.skipped_batches == self.EPOCHS * batches
        # an epoch that took no batch has no loss, not a perfect one
        assert len(report.loss_curve) == self.EPOCHS
        assert all(np.isnan(loss) for loss in report.loss_curve)
        # no step was taken
        for (name, a), (_, b) in zip(
                policy.params.iter_arrays(),
                init_params(policy_spec(hidden=8, layers=3), 0).iter_arrays(),
                strict=True):
            assert np.array_equal(a, b), name

    def test_surrogate_mode_leaves_the_surrogates_untouched(self, pools):
        proj, value = self.surrogates()
        frozen = [a.copy() for m in (proj, value) for _, a in m.params.iter_arrays()]
        policy, report = self.train(pools, "surrogate", proj, value)
        after = [a for m in (proj, value) for _, a in m.params.iter_arrays()]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(frozen, after, strict=True))
        assert len(report.eval_curve) == self.EPOCHS
        assert report.best_epoch == int(np.argmax(report.eval_curve))
        assert np.isfinite(report.final_metrics["proj_nmse_on_policy_outputs"])
        assert np.isfinite(report.final_metrics["value_nmse_on_policy_outputs"])
