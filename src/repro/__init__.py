"""SpiderCache reproduction.

A from-scratch Python implementation of *SpiderCache: Semantic-Aware
Caching Strategy for DNN Training* (ICPP '25) and every substrate its
evaluation depends on: a NumPy DNN training stack, an HNSW ANN index with
Product Quantization, a remote-storage simulator, classic cache policies,
and the SHADE / iCache / CoorDL comparator systems.

Every package is a namespace: import a name from the module that
defines it. Quickstart::

    from repro.core.policy import SpiderCachePolicy
    from repro.data.registry import make_dataset
    from repro.data.synthetic import train_test_split
    from repro.nn.models import build_model
    from repro.train.trainer import Trainer, TrainerConfig

    data = make_dataset("cifar10-like", rng=0)
    train, test = train_test_split(data, rng=1)
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    policy = SpiderCachePolicy(cache_fraction=0.2, rng=3)
    result = Trainer(model, train, test, policy,
                     TrainerConfig(epochs=20)).run()
    print(result.summary())
"""
