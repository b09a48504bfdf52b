"""Model zoo tests."""

import numpy as np
import pytest

from repro.nn import models
from repro.nn.layers import Linear, Sequential
from repro.nn.models import MODEL_ZOO, Model, build_cnn_model, build_model
from repro.nn.optim import SGD


def test_zoo_has_paper_models():
    # Table-1 models plus the §5 short-IS examples.
    assert {"resnet18", "resnet50", "alexnet", "vgg16",
            "mobilenetv2", "inceptionv3"} == set(MODEL_ZOO)


def test_short_is_models_overlap_in_stage2():
    """§5: MobileNetV2 and Inception-v3 have IS shorter than Stage 2."""
    for name in ["mobilenetv2", "inceptionv3"]:
        spec = MODEL_ZOO[name]
        assert spec.is_ms < spec.stage2_ms


def test_new_models_buildable():
    for name in ["mobilenetv2", "inceptionv3"]:
        m = build_model(name, 16, 4, rng=0)
        logits, emb = m.forward(np.zeros((2, 16)))
        assert logits.shape == (2, 4)
        assert emb.shape == (2, MODEL_ZOO[name].embedding_dim)


def test_zoo_embedding_order_matches_paper():
    """AlexNet/VGG16 have the largest embedding dims (paper §5)."""
    z = MODEL_ZOO
    assert z["alexnet"].embedding_dim > z["resnet50"].embedding_dim
    assert z["vgg16"].embedding_dim > z["resnet18"].embedding_dim


def test_zoo_table1_is_costs():
    """Table 1: AlexNet/VGG16 IS cost exceeds their Stage2 (needs extended
    overlap); ResNet IS fits inside Stage2."""
    z = MODEL_ZOO
    assert z["alexnet"].is_ms > z["alexnet"].stage2_ms
    assert z["vgg16"].is_ms > z["vgg16"].stage2_ms
    assert z["resnet18"].is_ms < z["resnet18"].stage2_ms
    assert z["resnet50"].is_ms < z["resnet50"].stage2_ms


def test_build_model_unknown_name():
    with pytest.raises(KeyError):
        build_model("resnet101", 8, 2)


def test_forward_returns_logits_and_embeddings():
    m = build_model("resnet18", input_dim=16, num_classes=5, rng=0)
    x = np.random.default_rng(1).normal(size=(7, 16))
    logits, emb = m.forward(x)
    assert logits.shape == (7, 5)
    assert emb.shape == (7, m.spec.embedding_dim)


def test_embedding_dim_property():
    m = build_model("alexnet", 8, 3, rng=0)
    assert m.embedding_dim == MODEL_ZOO["alexnet"].embedding_dim


def test_train_batch_returns_per_sample_losses():
    m = build_model("resnet18", 8, 3, rng=0)
    x = np.random.default_rng(2).normal(size=(6, 8))
    y = np.array([0, 1, 2, 0, 1, 2])
    losses, emb = m.train_batch(x, y)
    assert losses.shape == (6,)
    assert np.all(losses > 0)


def test_train_batch_sample_weights_zero_blocks_update():
    m = build_model("resnet18", 8, 3, rng=0)
    x = np.random.default_rng(3).normal(size=(4, 8))
    y = np.array([0, 1, 2, 0])
    before = [p.copy() for p, _ in m.params()]
    m.zero_grad()
    m.train_batch(x, y, sample_weights=np.zeros(4))
    for (_, g) in m.params():
        np.testing.assert_allclose(g, 0.0, atol=1e-15)
    for (p, _), b in zip(m.params(), before):
        np.testing.assert_array_equal(p, b)


def test_train_batch_weight_mismatch():
    m = build_model("resnet18", 8, 3, rng=0)
    with pytest.raises(ValueError):
        m.train_batch(np.zeros((4, 8)), np.zeros(4, dtype=int), np.ones(5))


def test_model_learns_separable_data():
    rng = np.random.default_rng(4)
    n = 200
    y = rng.integers(0, 2, n)
    x = rng.normal(size=(n, 8)) + 4.0 * y[:, None]
    m = build_model("resnet18", 8, 2, rng=0)
    opt = SGD(m.params(), lr=0.05, momentum=0.9)
    for _ in range(30):
        m.zero_grad()
        m.train_batch(x, y)
        opt.step()
    acc, loss = m.evaluate(x, y)
    assert acc > 0.95


def test_evaluate_batched_consistency(monkeypatch):
    m = build_model("resnet18", 8, 3, rng=0)
    x = np.random.default_rng(5).normal(size=(50, 8))
    y = np.random.default_rng(6).integers(0, 3, 50)
    monkeypatch.setattr(models, "EVAL_BATCH_SIZE", 7)
    a1 = m.evaluate(x, y)
    monkeypatch.setattr(models, "EVAL_BATCH_SIZE", 50)
    a2 = m.evaluate(x, y)
    assert a1[0] == a2[0]
    assert a1[1] == pytest.approx(a2[1])


def test_num_parameters_positive():
    m = build_model("vgg16", 8, 3, rng=0)
    assert m.num_parameters() > 1000


def test_state_dict_roundtrip():
    m1 = build_model("resnet18", 8, 3, rng=0)
    m2 = build_model("resnet18", 8, 3, rng=9)
    m2.load_state_dict(m1.state_dict())
    x = np.random.default_rng(7).normal(size=(4, 8))
    np.testing.assert_allclose(
        m1.forward(x, training=False)[0], m2.forward(x, training=False)[0]
    )


def test_cnn_model_shapes():
    m = build_cnn_model((1, 12, 12), num_classes=4, rng=0)
    x = np.random.default_rng(8).normal(size=(3, 1, 12, 12))
    logits, emb = m.forward(x)
    assert logits.shape == (3, 4)
    assert emb.shape[0] == 3


def test_cnn_too_many_blocks():
    with pytest.raises(ValueError):
        build_cnn_model((1, 4, 4), 2, channels=(4, 8, 16), rng=0)


def test_custom_head_embedding_dim_error():
    feats = Sequential(Linear(4, 4, rng=0))

    class WeirdHead:
        def forward(self, x, training=True):
            return x

        def params(self):
            return []

        def state_dict(self):
            return {}

    m = Model(feats, WeirdHead())
    with pytest.raises(AttributeError):
        _ = m.embedding_dim
