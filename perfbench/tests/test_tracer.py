"""The tracer sees every call through every namespace and nests spans correctly."""

import sys
from collections import Counter

import pytest

import lcapa
from lcapa import gnn, optim, quadrature, training, wmmse
from perfbench.tracer import Tracer
from perfbench.workloads import M_EVAL, M_TRAIN, BaselineK16


@pytest.fixture(scope="module")
def one_scene():
    wl = BaselineK16(pool=1, scored=1)
    wl.setup(11)
    return wl.scenes[0]


def _traced_and_profiled(fn):
    """Run ``fn`` under the tracer and count original-function calls independently."""
    tracer = Tracer()
    tracer.install()
    codes = {f.__code__: name for name, f in tracer.originals.items()}
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    return tracer, seen


def test_one_baseline_scene_records_every_wrapped_call(one_scene):
    tracer, seen = _traced_and_profiled(
        lambda: wmmse.baseline_se(one_scene, M_TRAIN, M_EVAL))
    calls = {n: r["calls"] for n, r in tracer.layer_table().items() if r["calls"]}
    assert calls == dict(seen)
    # gram_pair and channel_response are reached through the wmmse and
    # quadrature namespaces, not through lcapa.quadrature.gram_pair.
    assert calls == {
        "wmmse.baseline_se": 1, "wmmse.wmmse_precoding": 1, "wmmse.lift_precoder": 1,
        "quadrature.build_grid": 2, "quadrature.channel_matrix": 2,
        "scene.channel_response": 2 * 16, "quadrature.gram_pair": 2,
        "quadrature.integral_power": 1, "quadrature.integral_couplings": 1,
        "objective.project_weights": 1, "objective.sinr_vector": 1, "objective.sum_se": 1}


def test_class_bound_functions_are_traced():
    def work():
        training.ScenePool.generate(1, 2, 3, 16, 1e6)
        params = gnn.init_params(gnn.policy_spec(4, 3), 0)
        optim.Adam(params).step(gnn.zeros_like_params(params))

    tracer, seen = _traced_and_profiled(work)
    table = tracer.layer_table()
    for name in ("training.ScenePool.generate", "optim.Adam.step"):
        assert table[name]["calls"] == seen[name] == 1


def test_nesting_and_self_time(one_scene):
    tracer, _ = _traced_and_profiled(
        lambda: wmmse.baseline_se(one_scene, M_TRAIN, M_EVAL))
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    top = [s for s in spans if s[1] == -1]
    assert [s[2] for s in top] == ["wmmse.baseline_se"]
    for sid, parent, name, start, end in spans:
        if name == "scene.channel_response":
            assert by_id[parent][2] == "quadrature.channel_matrix"
        if parent >= 0:
            p = by_id[parent]
            assert p[3] <= start <= end <= p[4]
    self_s = tracer.self_times()
    for sid, _, _, start, end in spans:
        children = sum(e - s for _, p, _, s, e in spans if p == sid)
        assert self_s[sid] == pytest.approx((end - start) - children, abs=1e-12)
        assert self_s[sid] >= -1e-9
    # Self times partition the top-level span.
    assert sum(self_s) == pytest.approx(top[0][4] - top[0][3], rel=1e-9)


def test_uninstall_restores_every_binding():
    before = (lcapa.gram_pair, wmmse.gram_pair, training.gram_pair,
              training.ScenePool.__dict__["generate"], optim.Adam.__dict__["step"])
    tracer = Tracer()
    tracer.install()
    assert wmmse.gram_pair is not before[1] and lcapa.gram_pair is wmmse.gram_pair
    tracer.uninstall()
    after = (lcapa.gram_pair, wmmse.gram_pair, training.gram_pair,
             training.ScenePool.__dict__["generate"], optim.Adam.__dict__["step"])
    assert all(a is b for a, b in zip(before, after))
    assert quadrature.gram_pair is before[0]
