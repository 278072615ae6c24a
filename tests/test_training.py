import json

import pytest

from lcapa.gnn import init_params, value_spec
from lcapa.heads import GnnModel
from lcapa.training import CheckpointError, load_checkpoint, save_checkpoint

# The array keys of one checkpoint layer, in the order they are written.
CHECKPOINT_LAYER_KEYS = ["w_self", "w_other", "w_ein", "w_eout", "b_v",
                         "u_edge", "u_src", "u_dst", "b_e", "u_agg"]


def tiny_aggregating_model():
    spec = value_spec(hidden=4, layers=3, edge_aggregation=True)
    return GnnModel(spec=spec, params=init_params(spec, 3),
                    norms={"pos_scale": 30.0, "a_scale": 2e-4,
                           "out_scale": 100.0})


class TestCheckpoint:
    def test_round_trip_keeps_every_array(self, tmp_path):
        model = tiny_aggregating_model()
        path = str(tmp_path / "value.json")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec
        assert loaded.norms == model.norms
        saved = list(model.params.iter_arrays())
        restored = list(loaded.params.iter_arrays())
        assert [name for name, _ in restored] == [name for name, _ in saved]
        assert any(name.endswith(".u_agg") for name, _ in restored)
        for (name, a), (_, b) in zip(saved, restored):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_layer_keys_keep_their_format(self, tmp_path):
        path = str(tmp_path / "value.json")
        save_checkpoint(tiny_aggregating_model(), path)
        with open(path) as fh:
            rec = json.load(fh)
        for entry in rec["layers"]:
            assert list(entry) == CHECKPOINT_LAYER_KEYS

    def test_missing_array_rejected(self, tmp_path):
        path = str(tmp_path / "value.json")
        save_checkpoint(tiny_aggregating_model(), path)
        with open(path) as fh:
            rec = json.load(fh)
        del rec["layers"][1]["u_agg"]
        with open(path, "w") as fh:
            json.dump(rec, fh)
        with pytest.raises(CheckpointError, match="missing array u_agg in layer 1"):
            load_checkpoint(path)
