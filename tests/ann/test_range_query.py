"""Range queries: the contract both neighbour-search backends meet.

``neighbors_within_batch`` returns, per query, the stored points with
``dist <= radius`` in ascending distance (ties in slot order for the exact
backend, id order for HNSW), at most ``max_neighbors`` of them, minus one
excluded id.

* Exact backend: the answer is *defined* by float64 direct-difference
  distances — ``sqrt(sum((q - v)^2))``, filter, stable sort, cap, kept here
  as the oracle — and the filter-and-refine scan must equal it to the byte,
  whatever the index went through first, at any coordinate scale, on the
  knife edge of the radius and of the cap, and whatever way its float32
  screen happened to round.
* HNSW backend: the radius-aware beam reduces to the plain beam at
  ``radius=inf``, agrees between the single and the batched entry point,
  and keeps recall against the exact backend through update churn and a
  batched build; the selection kernel it inserts with equals a scalar
  Algorithm 4, and its array edits (link, back-link, prune, detach) and
  lockstep greedy descent equal a list-and-set reference. Its beam
  expands up to ``_EXPAND`` members per query per hop, and a pass's
  temporaries stay within a few MiB.
"""

import math
import tracemalloc
from collections import defaultdict
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ann.brute as brute_module
import repro.ann.hnsw as hnsw_module
from repro.ann.brute import BruteForceIndex, _screen_operand
from repro.ann.hnsw import HNSWIndex

DIM = 3


# ----------------------------------------------------------------------
# Exact backend: byte-identical to the reference formula
# ----------------------------------------------------------------------
def reference_range_query(ids, data, queries, radius, exclude, max_neighbors):
    """The contract, one query at a time and all in float64."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    results = []
    for qi, query in enumerate(queries):
        with np.errstate(over="ignore", invalid="ignore"):
            diff = query - data
            dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        keep = dists <= radius
        if exclude is not None and exclude[qi] >= 0:
            keep &= ids != int(exclude[qi])
        rid = ids[keep]
        rd = dists[keep]
        order = np.argsort(rd, kind="stable")[:max_neighbors]
        results.append((rid[order], rd[order]))
    return results


def perturb_screen(index, rng):
    """Move every entry of the float32 screen operand by up to one ulp —
    what another BLAS, or another rounding of the operand, would do."""
    n = len(index)
    live = index._aug[:, :n]
    toward = rng.choice(np.array([-np.inf, 0.0, np.inf], dtype=np.float32), live.shape)
    with np.errstate(over="ignore"):
        index._aug[:, :n] = np.where(toward == 0, live, np.nextafter(live, toward))


class SlotModel:
    """What the index should hold: ids and vectors in slot order."""

    def __init__(self):
        self.ids = []
        self.vectors = []

    def put(self, item_id, vector):
        if item_id in self.ids:
            self.vectors[self.ids.index(item_id)] = vector
        else:
            self.ids.append(item_id)
            self.vectors.append(vector)

    def remove(self, item_id):
        slot = self.ids.index(item_id)
        self.ids[slot], self.vectors[slot] = self.ids[-1], self.vectors[-1]
        self.ids.pop()
        self.vectors.pop()

    def arrays(self):
        data = np.asarray(self.vectors, dtype=np.float64).reshape(-1, DIM)
        return np.asarray(self.ids, dtype=np.int64), data


# Small integers make duplicate points and exactly tied distances common;
# the floats add the general case (and cancellation near zero).
coordinate = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-4, 4, allow_nan=False, width=32),
)
vector = st.lists(coordinate, min_size=DIM, max_size=DIM)
item_id = st.integers(0, 11)
operation = st.one_of(
    st.tuples(st.just("add"), item_id, vector),
    # In-batch duplicate ids are likely with 12 ids and up to 6 rows.
    st.tuples(
        st.just("add_batch"),
        st.lists(st.tuples(item_id, vector), min_size=1, max_size=6),
    ),
    st.tuples(st.just("remove"), item_id),
    st.tuples(st.just("reload")),
)
range_query = st.fixed_dictionaries({
    "queries": st.lists(vector, min_size=1, max_size=4),
    "stored": st.lists(st.integers(0, 40), max_size=3),  # query *at* a slot
    "radius": st.one_of(
        st.just(0.0), st.floats(0.0, 7.0), st.just(float("inf"))
    ),
    # -1 = no exclusion; 0..11 may or may not be indexed; 99 never is.
    "exclude": st.one_of(st.none(), st.lists(st.sampled_from(
        [-1, 99] + list(range(12))), min_size=7, max_size=7)),
    "max_neighbors": st.sampled_from([1, 2, 500]),
})


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for (gi, gd), (wi, wd) in zip(got, want):
        assert gi.dtype == wi.dtype and gd.dtype == wd.dtype
        assert gi.tobytes() == wi.tobytes()
        assert gd.tobytes() == wd.tobytes()


def check_against_reference(index, model, query):
    ids, data = model.arrays()
    n = len(ids)
    assert index.ids == ids.tolist()
    # The cached squared norms are the ones the reference recomputes.
    assert index._sq[:n].tobytes() == np.einsum(
        "ij,ij->i", index._data[:n], index._data[:n]
    ).tobytes()
    np.testing.assert_array_equal(index._data[:n], data)
    # So is the float32 screen operand: a rebuild from the float64 state.
    screen = _screen_operand(index._data[:n], index._sq[:n])
    np.testing.assert_array_equal(index._aug[:, :n], screen)

    queries = [np.asarray(q) for q in query["queries"]]
    queries += [data[s % n] for s in query["stored"] if n]
    queries = np.asarray(queries, dtype=np.float64)
    exclude = query["exclude"]
    if exclude is not None:
        exclude = np.asarray(exclude[: len(queries)], dtype=np.int64)
    got = index.neighbors_within_batch(
        queries, query["radius"], exclude=exclude,
        max_neighbors=query["max_neighbors"],
    )
    want = reference_range_query(
        ids, data, queries, query["radius"], exclude, query["max_neighbors"]
    )
    assert_same_bytes(got, want)
    # A one-row batch is the one-row case of the same scan.
    one = index.neighbors_within_batch(
        queries[:1], query["radius"],
        exclude=None if exclude is None else exclude[:1],
        max_neighbors=query["max_neighbors"],
    )
    assert_same_bytes(one, reference_range_query(
        ids, data, queries[:1], query["radius"],
        None if exclude is None else exclude[:1], query["max_neighbors"],
    ))
    # The answer does not depend on how the screen rounded.
    perturb_screen(index, np.random.default_rng(n))
    assert_same_bytes(index.neighbors_within_batch(
        queries, query["radius"], exclude=exclude,
        max_neighbors=query["max_neighbors"],
    ), want)
    index._aug[:, :n] = screen


@given(
    steps=st.lists(st.tuples(operation, range_query), min_size=1, max_size=12),
    first_query=range_query,
)
@settings(max_examples=120, deadline=None)
def test_exact_range_query_is_byte_identical_to_reference(steps, first_query):
    # capacity=2: the third distinct id grows every slot array.
    index = BruteForceIndex(DIM, capacity=2)
    model = SlotModel()
    check_against_reference(index, model, first_query)  # empty index
    for op, query in steps:
        if op[0] == "add":
            index.add(op[1], np.asarray(op[2]))
            model.put(op[1], op[2])
        elif op[0] == "add_batch":
            index.add_batch(
                np.asarray([i for i, _ in op[1]]),
                np.asarray([v for _, v in op[1]]),
            )
            for i, v in op[1]:
                model.put(i, v)
        elif op[0] == "remove":
            if op[1] not in model.ids:
                continue
            index.remove(op[1])
            model.remove(op[1])
        else:
            restored = BruteForceIndex(DIM, capacity=1)
            restored.load_state_dict(index.state_dict())
            index = restored
        check_against_reference(index, model, query)


def test_exact_range_query_byte_identical_on_a_wide_batch():
    """Hundreds of queries by hundreds of rows: exact ties, a cap that binds
    and a zero radius, on one screen product."""
    rng = np.random.default_rng(0)
    n, dim = 700, 8
    data = rng.normal(size=(n, dim))
    data[100:120] = data[0]  # duplicates: exact ties, slot order decides
    index = BruteForceIndex(dim, capacity=n)
    index.add_batch(np.arange(n) * 3, data)
    queries = np.concatenate([data[:150], rng.normal(size=(301, dim))])
    exclude = np.concatenate([np.arange(150) * 3, np.full(301, -1)])
    for radius, max_neighbors in [(2.5, 500), (3.5, 20), (0.0, 500)]:
        want = reference_range_query(
            np.arange(n) * 3, data, queries, radius, exclude, max_neighbors
        )
        for _ in range(2):
            assert_same_bytes(
                index.neighbors_within_batch(queries, radius, exclude, max_neighbors),
                want,
            )
            perturb_screen(index, rng)
    assert max(ids.size for ids, _ in want) == 20  # slot 0 and its twenty twins


@pytest.mark.parametrize("scale", [1e-30, 1e-22, 1.0, 1e10, 1e19, 1e25, "mixed"])
def test_exact_range_query_at_any_coordinate_scale(scale):
    """Float32 underflows below ~1e-19 per coordinate and overflows above
    ~1e19: the screen must notice and leave those pairs to float64, without
    a RuntimeWarning escaping."""
    rng = np.random.default_rng(3)
    n, dim = 80, 5
    data = rng.normal(size=(n, dim))
    data[10:14] = data[2]
    if scale == "mixed":
        data *= rng.choice([1e-30, 1.0, 1e19], size=(n, 1))
        radii = [0.0, 1e-30, 2.0, 3e19, np.inf]
    else:
        data *= scale
        radii = [0.0, 1.5 * scale, 2.5 * scale, np.inf]
    queries = np.concatenate([data[:12], data[40:44] * 1.0000001, rng.normal(size=(4, dim))])
    exclude = np.concatenate([np.arange(12), np.full(8, -1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = BruteForceIndex(dim, capacity=4)
        index.add_batch(np.arange(n), data)
        for radius in radii:
            for max_neighbors in (3, 500):
                got = list(
                    index.neighbors_within_batch(queries, radius, exclude, max_neighbors)
                )
                assert_same_bytes(got, reference_range_query(
                    np.arange(n), data, queries, radius, exclude, max_neighbors
                ))


@pytest.mark.parametrize("dim", [3, 16, 128])
def test_exact_range_query_on_the_knife_edge(dim):
    """Points a relative 1e-9 and 1e-5 inside and outside the radius, and
    duplicate points straddling the ``max_neighbors`` cut."""
    rng = np.random.default_rng(dim)
    radius = 3.7
    query = rng.normal(size=dim)
    directions = rng.normal(size=(40, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    factors = np.tile([1 - 1e-5, 1 - 1e-9, 1 + 1e-9, 1 + 1e-5], 10)
    edge = query + radius * factors[:, None] * directions
    inner = query + 0.5 * radius * directions[:6]
    twins = np.repeat(inner[:1] * (1 + 1e-12), 5, axis=0)  # one point, five slots
    data = np.concatenate([edge, inner, twins, np.repeat(inner[:1], 4, axis=0)])
    ids = np.arange(len(data)) + 100
    index = BruteForceIndex(dim, capacity=len(data))
    index.add_batch(ids, data)
    queries = np.stack([query, query + 1e-13, inner[0]])

    want = reference_range_query(ids, data, queries, radius, None, 500)
    # The oracle resolves the edge: the inside points are in, the outside out.
    assert set(ids[:40][factors < 1]) <= set(want[0][0].tolist())
    assert not set(ids[:40][factors > 1]) & set(want[0][0].tolist())
    assert_same_bytes(index.neighbors_within_batch(queries, radius), want)
    # Caps that cut through the ten-fold tie at 0.5 * radius from the query.
    for max_neighbors in (1, 3, 7, 12, 17, 30):
        assert_same_bytes(
            index.neighbors_within_batch(queries, radius, None, max_neighbors),
            reference_range_query(ids, data, queries, radius, None, max_neighbors),
        )
        perturb_screen(index, rng)


def test_reading_a_row_after_a_write_raises():
    """Rows are measured on demand, so a result outlives no write."""
    data = np.random.default_rng(1).normal(size=(6, DIM))
    writes = {
        "add": lambda ix: ix.add(2, data[5]),
        "add_batch": lambda ix: ix.add_batch([9], data[:1]),
        "remove": lambda ix: ix.remove(0),
        "load": lambda ix: ix.load_state_dict(ix.state_dict()),
    }
    for write in writes.values():
        index = BruteForceIndex(DIM)
        index.add_batch(np.arange(6), data)
        result = index.neighbors_within_batch(data[:2], 10.0)
        assert result[0][0].size == 6 and result.ids.size == 12
        write(index)
        with pytest.raises(RuntimeError, match="written to"):
            result[0]
        with pytest.raises(RuntimeError, match="written to"):
            list(result)
        # The CSR arrays were complete at scan time and stay readable.
        assert result.offsets.tolist() == [0, 6, 12]


def test_the_screen_still_screens(monkeypatch):
    """The float64 helper sees a small share of the pairs a scan returns.

    Exactness tests pass just as well if the band grows until every pair
    is re-checked in float64; this one does not."""
    rng = np.random.default_rng(5)
    n, dim, classes, batch = 4000, 64, 10, 64
    labels = rng.integers(classes, size=n)
    centers = rng.normal(0.0, 1.0, (classes, dim))
    spread = rng.uniform(0.4, 1.6, (n, 1))  # uneven density, as embeddings have
    data = centers[labels] + spread * rng.normal(0.0, 1.0, (n, dim))
    index = BruteForceIndex(dim, capacity=n)
    index.add_batch(np.arange(n), data)
    picked = rng.choice(n, size=batch, replace=False)
    queries = data[picked]
    same = labels[picked][:, None] == labels[picked][None, :]
    pair = np.linalg.norm(queries[:, None] - queries[None, :], axis=2)
    radius = 0.85 * np.median(pair[np.triu(same, 1)])

    asked = []
    real = brute_module.paired_l2
    monkeypatch.setattr(
        brute_module, "paired_l2",
        lambda a, b: asked.append(len(b)) or real(a, b),
    )
    for max_neighbors in (500, 40):  # 40: the cap's re-ranking counts too
        asked.clear()
        result = index.neighbors_within_batch(queries, radius, picked, max_neighbors)
        returned = result.ids.size
        assert returned > 20 * batch
        assert sum(asked) <= 0.10 * returned


# ----------------------------------------------------------------------
# HNSW backend: the radius-aware beam and the selection kernel
# ----------------------------------------------------------------------
HDIM = 16


def _clustered(n, rng, centers=6):
    c = rng.normal(0.0, 4.0, (centers, HDIM))
    return c[rng.integers(centers, size=n)] + rng.normal(0.0, 1.0, (n, HDIM))


@pytest.fixture(scope="module")
def pair():
    """An HNSW index (default parameters) and its exact twin."""
    rng = np.random.default_rng(7)
    data = _clustered(600, rng)
    hnsw = HNSWIndex(HDIM, rng=0, capacity=600)
    brute = BruteForceIndex(HDIM, capacity=600)
    hnsw.add_batch(np.arange(600), data)
    brute.add_batch(np.arange(600), data)
    return hnsw, brute, data


@pytest.mark.parametrize("max_neighbors", [10, 80, 500])
def test_infinite_radius_is_the_plain_beam(pair, max_neighbors):
    """``radius=inf`` never evicts for width and never stops early: the
    beam is exactly the k-NN beam's at ``k=max_neighbors``."""
    hnsw, _, data = pair
    queries, exclude = data[:40], np.arange(40)
    plain = hnsw._query(queries, max_neighbors, None, exclude, None)
    ranged = hnsw.neighbors_within_batch(
        queries, np.inf, exclude=exclude, max_neighbors=max_neighbors
    )
    for (ids, dists), (plain_ids, plain_d) in zip(ranged, plain):
        np.testing.assert_array_equal(ids, plain_ids)
        np.testing.assert_array_equal(dists, plain_d)


@pytest.mark.parametrize("radius,max_neighbors", [(3.0, 500), (4.5, 500), (6.0, 25)])
def test_single_and_batched_range_query_agree(pair, radius, max_neighbors):
    hnsw, _, data = pair
    queries = data[100:130]
    exclude = np.where(np.arange(30) % 3 == 0, -1, np.arange(100, 130))
    batched = hnsw.neighbors_within_batch(
        queries, radius, exclude=exclude, max_neighbors=max_neighbors
    )
    for qi, (ids, dists) in enumerate(batched):
        s_ids, s_dists = hnsw.neighbors_within_batch(
            queries[qi : qi + 1], radius, exclude=exclude[qi : qi + 1],
            max_neighbors=max_neighbors,
        )[0]
        np.testing.assert_array_equal(ids, s_ids)
        np.testing.assert_allclose(dists, s_dists, rtol=1e-12, atol=1e-6)


def test_the_beam_expands_several_members_per_hop(pair, monkeypatch):
    """A hop expands up to ``_EXPAND`` members of every query, so a range
    pass takes about ``answer / _EXPAND`` hops, not one per member.

    Hops are counted as calls of the beam's one distance helper, as
    ``test_the_screen_still_screens`` counts the exact scan's."""
    hnsw, _, data = pair
    hops = []
    real = HNSWIndex._hop_dists
    monkeypatch.setattr(
        HNSWIndex, "_hop_dists", lambda self, *a: hops.append(1) or real(self, *a)
    )
    result = hnsw.neighbors_within_batch(data[:30], 6.0, max_neighbors=500)
    biggest = max(ids.size for ids, _ in result)
    assert biggest > 100
    assert len(hops) <= math.ceil(biggest / hnsw_module._EXPAND) + 10


def test_pass_temporaries_stay_bounded():
    """Peak traced allocation of one 64-query, cap-500 range pass and of
    one 64-id update pass on a 3 000-row, 64-dim index: the stamp matrix,
    the beam arrays and the hop's distance blocks stay within a few MiB
    however many members a hop expands."""
    rng = np.random.default_rng(0)
    n, dim = 3000, 64
    centers = rng.normal(0.0, 1.0, (10, dim))
    data = centers[rng.integers(10, size=n)] + rng.normal(0.0, 0.6, (n, dim))
    index = HNSWIndex(dim, rng=0, capacity=n)
    for start in range(0, n, 64):
        index.add_batch(np.arange(start, min(start + 64, n)), data[start : start + 64])
    queries = data[:64]
    radius = np.quantile(np.linalg.norm(queries[:, None] - data[None, :500], axis=2), 0.1)

    tracemalloc.start()
    try:
        result = index.neighbors_within_batch(queries, radius, np.arange(64), 500)
        query_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ids.size > 100 * 64  # a wide pass: ~300 answers a query
    assert query_peak <= 6 << 20

    moved = rng.choice(n, size=64, replace=False)
    tracemalloc.start()
    try:
        index.add_batch(moved, data[moved] + rng.normal(0.0, 0.1, (64, dim)))
        update_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert update_peak <= 8 << 20
    index.validate_invariants()


def test_validate_invariants_catches_a_broken_adjacency_row():
    """The padded matrices are the graph; each way a row can break it is
    caught: a hole before a list's end, a repeated entry, an edge to a
    free row or above its target's level, and edges on a free row."""
    index = HNSWIndex(HDIM, M=4, rng=0)
    index.add_batch(np.arange(60), _clustered(60, np.random.default_rng(3)))
    index.remove(59)
    index.validate_invariants()
    state = index.state_dict()
    row, free = index._row_of[7], index._free[0]
    low = next(r for r in index._row_of.values() if index._levels[r] == 0)
    high = next(r for r in index._row_of.values() if index._levels[r] >= 1)
    assert len(index.graph_neighbors(7)) >= 2 and len(index.graph_neighbors(index._id_of[high], 1)) >= 1
    corruptions = [  # (message, layer, row, slot, value written there)
        ("-1 before a list's end", 0, row, 0, -1),
        ("duplicate out-edge", 0, row, 1, index._adj[0][row, 0]),
        ("edge to dead row", 0, row, 0, free),
        ("edge above target level", 1, high, 0, low),
        ("free or unused row", 0, free, 0, row),
    ]
    for message, layer, at, slot, value in corruptions:
        index.load_state_dict(state)
        index.validate_invariants()
        index._adj[layer][at, slot] = value
        with pytest.raises(AssertionError, match=message):
            index.validate_invariants()


def _range_recall(hnsw, brute, queries, radius, exclude, max_neighbors):
    found = expected = 0
    approx = hnsw.neighbors_within_batch(
        queries, radius, exclude=exclude, max_neighbors=max_neighbors
    )
    exact = brute.neighbors_within_batch(
        queries, radius, exclude=exclude, max_neighbors=max_neighbors
    )
    for (a_ids, a_d), (e_ids, _) in zip(approx, exact):
        assert len(a_ids) <= max_neighbors
        assert np.all(np.diff(a_d) >= 0) and np.all(a_d <= radius)
        found += np.intersect1d(a_ids, e_ids).size
        expected += e_ids.size
    return found / expected, exact


def test_range_recall_against_exact_through_update_churn():
    rng = np.random.default_rng(11)
    data = _clustered(600, rng)
    hnsw = HNSWIndex(HDIM, rng=1, capacity=600)
    brute = BruteForceIndex(HDIM, capacity=600)
    hnsw.add_batch(np.arange(600), data)
    brute.add_batch(np.arange(600), data)
    radius, cap = 5.5, 40
    queries, exclude = data[:64], np.arange(64)

    recall, exact = _range_recall(hnsw, brute, queries, radius, exclude, 500)
    assert recall >= 0.99
    # The cap binds for some query: more than ``cap`` points lie inside
    # the radius, and the nearest ``cap`` of them come back, sorted.
    assert max(ids.size for ids, _ in exact) > cap
    capped, _ = _range_recall(hnsw, brute, queries, radius, exclude, cap)
    assert capped >= 0.99

    # Embedding drift: re-link a third of the points, batch by batch.
    for start in range(0, 200, 50):
        moved = rng.choice(600, size=50, replace=False)
        data[moved] += rng.normal(0.0, 0.4, (50, HDIM))
        hnsw.add_batch(moved, data[moved])
        brute.add_batch(moved, data[moved])
    hnsw.validate_invariants()
    queries = data[:64]
    recall, _ = _range_recall(hnsw, brute, queries, radius, exclude, 500)
    assert recall >= 0.99
    capped, _ = _range_recall(hnsw, brute, queries, radius, exclude, cap)
    assert capped >= 0.99


def test_knn_recall_after_batched_build_and_a_drift_pass():
    """Insertion quality on the path training takes: 64 rows per
    ``add_batch``, then every point re-inserted once with drift, 64 at a
    time in random order. kNN@10 still matches the exact backend."""
    rng = np.random.default_rng(13)
    data = _clustered(600, rng)
    hnsw = HNSWIndex(HDIM, rng=2, capacity=600)
    for start in range(0, 600, 64):
        ids = np.arange(start, min(start + 64, 600))
        hnsw.add_batch(ids, data[ids])
    data += rng.normal(0.0, 0.4, data.shape)
    order = rng.permutation(600)
    for start in range(0, 600, 64):
        ids = order[start : start + 64]
        hnsw.add_batch(ids, data[ids])
    hnsw.validate_invariants()
    brute = BruteForceIndex(HDIM, capacity=600)
    brute.add_batch(np.arange(600), data)
    queries = data[:100] + rng.normal(0.0, 0.3, (100, HDIM))
    got = [hnsw.search(q, 10)[0] for q in queries]
    want = [brute.search(q, 10)[0] for q in queries]
    recall = np.mean([np.intersect1d(g, w).size / 10 for g, w in zip(got, want)])
    assert recall >= 0.99


def select_reference(index, owner, cands, limit):
    """Algorithm 4's simple heuristic for one node, a candidate at a time:
    nearest first by (distance, id), keep one unless a kept one is nearer
    to it than the node is, then fill with the skipped, nearest first."""
    vec = index._vectors

    def sq(a, b):
        return float(np.sum((vec[a] - vec[b]) ** 2))

    kept, skipped = [], []
    for row in sorted(cands, key=lambda r: (sq(owner, r), index._id_of[r])):
        if len(kept) == limit:
            break
        if any(sq(row, k) < sq(owner, row) for k in kept):
            skipped.append(row)
        else:
            kept.append(row)
    return (kept + skipped)[:limit]


def adjacency_lists(matrix, width):
    """A ``-1``-padded adjacency matrix as lists, checking the padding
    only ever follows a row's entries."""
    assert matrix.shape[1] == width
    lists = [[r for r in row if r >= 0] for row in matrix.tolist()]
    for row, got in zip(matrix.tolist(), lists):
        assert row == got + [-1] * (width - len(got))
    return lists


def test_select_many_equals_scalar_algorithm_4(monkeypatch):
    """The one kernel that picks new nodes' neighbours and prunes overfull
    lists is the scalar rule, node for node. Coordinates in -2..2 make
    every distance exact, so ties are exact and fall to the id (not the
    row order here); rows run from empty to wider than ``limit``; a small
    block splits them across block boundaries."""
    rng = np.random.default_rng(0)
    n, dim, width = 80, 4, 12
    index = HNSWIndex(dim, rng=0, capacity=n)
    index.add_batch(rng.permutation(10 * n)[:n], rng.integers(-2, 3, (n, dim)))
    owners = rng.integers(n, size=41)
    lists = [
        rng.choice(np.delete(np.arange(n), o), rng.integers(width + 1), replace=False)
        for o in owners
    ]
    cands = np.full((len(owners), width), -1, dtype=np.int64)
    for g, cand in enumerate(lists):
        cands[g, : len(cand)] = cand
    for limit in (1, 4, 8):
        want = [
            select_reference(index, o, cand.tolist(), limit)
            for o, cand in zip(owners, lists)
        ]
        assert adjacency_lists(index._select_many(owners, cands, limit), limit) == want
        with monkeypatch.context() as patch:  # three nodes per block
            patch.setattr(hnsw_module, "_BLOCK_BYTES", 3 * 8 * width * (dim + width))
            got = index._select_many(owners, cands, limit)
            assert adjacency_lists(got, limit) == want


def beam_reference(index, query, entry, layer, ef, cap, sq_radius):
    """The array beam's rule for one query, a member at a time: expand the
    ``_EXPAND`` nearest unexpanded members (by (distance, id)), measure
    the rows they list that the query has not seen, keep the
    ``max(ef, min(cap, #in-radius))`` nearest, until none is unexpanded."""
    vec, ids = index._vectors, index._id_of

    def sq(row):
        return float(np.sum((vec[row] - query) ** 2))

    def nearest_first(rows):
        return sorted(rows, key=lambda r: (members[r], ids[r]))

    members = {entry: sq(entry)}
    seen, expanded = {entry}, set()
    while True:
        todo = [r for r in nearest_first(members) if r not in expanded]
        if not todo:
            break
        for row in todo[: hnsw_module._EXPAND]:
            expanded.add(row)
            for other in index._adj[layer][row].tolist():
                if other >= 0 and other not in seen:
                    seen.add(other)
                    members[other] = sq(other)
        order = nearest_first(members)
        inside = sum(members[r] <= sq_radius for r in order)
        members = {r: members[r] for r in order[: max(ef, min(cap, inside))]}
    return [(members[r], r) for r in nearest_first(members)]


@pytest.mark.parametrize("layer", [0, 1])
def test_array_beam_equals_scalar_beam(layer):
    """The lockstep array beam is the one-query rule above, query for
    query. Coordinates in -2..2 make every distance exact, so ties are
    exact and fall to the id (not the row order here); widths, caps and
    radii differ per query and between calls, and layer 1 reads the
    upper-layer matrix."""
    rng = np.random.default_rng(1)
    n, dim = 300, 3
    index = HNSWIndex(dim, M=4, ef_construction=16, rng=0, capacity=n)
    ids = rng.permutation(10 * n)[:n]
    for start in range(0, n, 50):
        index.add_batch(ids[start : start + 50], rng.integers(-2, 3, (50, dim)))
    on_layer = [r for r in index._row_of.values() if index._levels[r] >= layer]
    queries = rng.integers(-2, 3, (24, dim)).astype(np.float64)
    qq = np.einsum("ij,ij->i", queries, queries)
    for sq_radius in (-np.inf, 1.0, 4.0, np.inf):
        efs = rng.integers(1, 12, size=len(queries))
        caps = efs + rng.integers(0, 30, size=len(queries))
        entries = []
        for q in queries:
            row = int(rng.choice(on_layer))
            entries.append((row, float(np.sum((index._vectors[row] - q) ** 2))))
        dists, rows, sizes = index._search_layer_batch(
            queries, qq, np.asarray([r for r, _ in entries]),
            np.asarray([d for _, d in entries]), layer, efs, caps, sq_radius,
        )
        for i, q in enumerate(queries):
            want = beam_reference(
                index, q, entries[i][0], layer, efs[i], caps[i], sq_radius
            )
            got = list(zip(dists[i, : sizes[i]].tolist(), rows[i, : sizes[i]].tolist()))
            assert got == want


class ListGraph:
    """The graph as out-lists and reverse-edge sets, edited one edge at a
    time: the rule the index's array edits must reproduce. ``unlink`` is
    one node's detach; ``link`` gives new nodes their chosen lists, links
    each neighbour back in loop order (skipping a new node that chose this
    one too) and prunes every list pushed over its limit with
    :func:`select_reference`."""

    def __init__(self, index):
        self.index = index
        self.out = defaultdict(list)  # (row, layer) -> rows, in list order
        self.into = defaultdict(set)  # (row, layer) -> rows listing it
        self.mutual = self.pruned = 0

    def unlink(self, row):
        for layer in range(len(self.index._adj)):
            for other in self.out.pop((row, layer), []):
                self.into[other, layer].discard(row)
            for other in self.into.pop((row, layer), set()):
                self.out[other, layer].remove(row)

    def link(self, layer, rows, chosen):
        limit = self.index._adj[layer].shape[1]
        for row, sel in zip(rows, chosen):
            self.out[row, layer] = list(sel)
            for other in sel:
                self.into[other, layer].add(row)
        overfull = {}
        for row, sel in zip(rows, chosen):
            back = self.into[row, layer]
            for other in sel:
                if other in back:
                    self.mutual += 1
                    continue
                self.out[other, layer].append(row)
                back.add(other)
                if len(self.out[other, layer]) > limit:
                    overfull[other] = None
        for row in overfull:
            adj = self.out[row, layer]
            kept = select_reference(self.index, row, adj, limit)
            for other in set(adj).difference(kept):
                self.into[other, layer].discard(row)
            self.out[row, layer] = kept
            self.pruned += 1

    def assert_matches(self):
        n = len(self.index._id_of)
        for layer, mat in enumerate(self.index._adj):
            want = np.full(mat.shape, -1, dtype=np.int32)
            for row in range(n):
                adj = self.out.get((row, layer), [])
                want[row, : len(adj)] = adj
            np.testing.assert_array_equal(mat, want, err_msg=f"layer {layer}")


def test_link_and_detach_equal_list_reference(monkeypatch):
    """Every detach and every link pass leaves each layer's matrix equal to
    the list-and-set reference fed the same rows and chosen lists. Integer
    coordinates in -2..2 make every distance exact, so prunes tie and fall
    to the id. The traffic covers lists the back-links overfill, batch
    members that chose each other, updates with prior neighbours,
    ``remove`` and a freed row reused at a lower level."""
    rng = np.random.default_rng(5)
    index = HNSWIndex(3, M=3, ef_construction=8, rng=1, capacity=4)
    ref = ListGraph(index)
    real_link, real_detach = HNSWIndex._link, HNSWIndex._detach

    def link(self, layer, rows, chosen):
        ref.link(layer, rows.tolist(), adjacency_lists(chosen, chosen.shape[1]))
        real_link(self, layer, rows, chosen)
        ref.assert_matches()

    def detach(self, rows):
        for row in rows.tolist():
            ref.unlink(row)
        real_detach(self, rows)
        ref.assert_matches()

    monkeypatch.setattr(HNSWIndex, "_link", link)
    monkeypatch.setattr(HNSWIndex, "_detach", detach)
    updated = reused_lower = 0
    next_id = 0
    for step in range(24):
        live = index.ids
        if step % 3 == 2 and len(live) > 12:
            for item in rng.choice(live, size=6, replace=False).tolist():
                index.remove(item)
            continue
        freed = {row: index._levels[row] for row in index._free}
        moved = rng.choice(live, size=min(len(live), 10), replace=False).tolist()
        updated += sum(len(index.graph_neighbors(item)) > 0 for item in moved)
        fresh = list(range(next_id, next_id + 14))
        next_id += 14
        batch = moved + fresh + moved[:2]  # a repeated id keeps its last row
        index.add_batch(np.asarray(batch), rng.integers(-2, 3, (len(batch), 3)))
        reused_lower += sum(
            index._levels[row] < level
            for row, level in freed.items()
            if index._id_of[row] >= 0
        )
        index.add(next_id, rng.integers(-2, 3, 3))  # a batch of one
        next_id += 1
    index.validate_invariants()
    assert ref.mutual and ref.pruned and updated and reused_lower


def descend_reference(index, query, start, top, stop):
    """The scalar greedy descent: on each layer from ``top`` down to
    ``stop + 1``, move to the nearest listed row (the first listed on
    equal distances) while it is strictly nearer. Returns the ``(row,
    squared distance)`` reached on each of those layers."""

    def sq(row):
        return float(np.sum((index._vectors[row] - query) ** 2))

    current, cur_dist = start, sq(start)
    path = []
    for layer in range(top, stop, -1):
        improved = True
        while improved:
            improved = False
            neigh = [r for r in index._adj[layer][current].tolist() if r >= 0]
            if not neigh:
                continue
            dists = [sq(r) for r in neigh]
            best = int(np.argmin(dists))
            if dists[best] < cur_dist:
                current, cur_dist = neigh[best], dists[best]
                improved = True
        path.append((current, cur_dist))
    return path


def test_lockstep_descent_equals_greedy():
    """The lockstep descent is the scalar greedy rule, query for query:
    stopped at every layer from the top down to 1, and with a different
    stop per query in one call, it reaches the same ``(row, squared
    distance)`` the scalar rule reaches on that layer. Coordinates in
    -2..2 make distances exact, so equal-distance moves are common."""
    rng = np.random.default_rng(2)
    n, dim = 400, 3
    index = HNSWIndex(dim, M=3, ef_construction=12, rng=3, capacity=n)
    ids = rng.permutation(10 * n)[:n]
    for start in range(0, n, 40):
        index.add_batch(ids[start : start + 40], rng.integers(-2, 3, (40, dim)))
    top = index.max_level
    assert top >= 3
    entry = index._row_of[index._entry]
    queries = rng.integers(-3, 4, (60, dim)).astype(np.float64)
    qq = np.einsum("ij,ij->i", queries, queries)
    want = [descend_reference(index, q, entry, top, 0) for q in queries]
    for stop in range(top):
        rows, dists = index._descend(queries, qq, entry, top, np.full(60, stop))
        got = list(zip(rows.tolist(), dists.tolist()))
        assert got == [path[top - 1 - stop] for path in want]
    stops = rng.integers(0, top + 1, size=60)
    rows, dists = index._descend(queries, qq, entry, top, stops)
    for i, stop in enumerate(stops.tolist()):
        reached = want[i][top - 1 - stop] if stop < top else (
            entry, float(np.sum((index._vectors[entry] - queries[i]) ** 2))
        )
        assert (rows[i], dists[i]) == reached
