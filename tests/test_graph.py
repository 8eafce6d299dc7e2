import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgnn.graph import (STREAM_FILES, GraphError, GraphState, SnapshotDelta,
                        freeze_ego, l_hop_set, load_stream, replay,
                        write_stream)

from conftest import make_graph, random_stream
from helpers import deltas_equal


def small_graph():
    feats = np.linspace(0, 1, 12).reshape(4, 3)
    delta = SnapshotDelta(time=0,
                          new_nodes=tuple((v, feats[v], v % 2)
                                          for v in range(4)),
                          edge_adds=((0, 1), (1, 2), (2, 3)))
    return GraphState.empty(3).apply_delta(delta)


def test_empty_delta_keeps_content_and_advances_time():
    g = small_graph()
    g2 = g.apply_delta(SnapshotDelta(time=1))
    assert g2.time == 1
    assert g2.n == g.n
    assert np.array_equal(g2.feature_matrix(), g.feature_matrix())
    for v in range(g.n):
        assert g2.neighbors(v) == g.neighbors(v)
        assert g2.label(v) == g.label(v)


def test_edge_add_and_remove():
    g = small_graph()
    g2 = g.apply_delta(SnapshotDelta(time=1, edge_adds=((0, 3),)))
    assert g2.has_edge(0, 3) and g2.has_edge(3, 0)
    assert g2.degree(0) == 2
    g3 = g2.apply_delta(SnapshotDelta(time=2, edge_removes=((0, 3),)))
    assert not g3.has_edge(0, 3)
    assert g3.degree(0) == 1
    # old snapshots untouched
    assert g2.has_edge(0, 3)
    assert not g.has_edge(0, 3)


def test_next_snapshot_shares_rows_the_delta_leaves_alone(rng):
    _, delta = make_graph(rng, 30, 0.15, 3)
    g = GraphState.empty(3).apply_delta(delta)
    present = sorted((u, v) for u in range(g.n) for v in g.neighbors(u)
                     if u < v)
    absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
              if not g.has_edge(u, v)]
    d = SnapshotDelta(
        time=1, new_nodes=((30, np.full(3, 0.5), 1), (31, np.full(3, 0.5), 0)),
        edge_adds=tuple(absent[::40]) + ((3, 30),),
        edge_removes=tuple(present[::7]),
        attr_changes=((5, np.full(3, 0.25)),))
    g2 = g.apply_delta(d)
    touched = d.changed_nodes()
    assert any(v not in touched for v in range(g.n))
    for v in range(g.n):
        if v not in touched:
            assert g2.neighbors(v) is g.neighbors(v), v
    for v in touched:
        row = g2.neighbors(v)
        assert type(row) is tuple and list(row) == sorted(set(row)), v
        want = set(g.neighbors(v)) if v < g.n else set()
        want |= {b for a, b in d.edge_adds if a == v}
        want |= {a for a, b in d.edge_adds if b == v}
        want -= {b for a, b in d.edge_removes if a == v}
        want -= {a for a, b in d.edge_removes if b == v}
        assert set(row) == want, v


def test_attr_change_replaces_full_row():
    g = small_graph()
    row = np.array([0.9, 0.8, 0.7])
    g2 = g.apply_delta(SnapshotDelta(time=1, attr_changes=((2, row),)))
    assert np.array_equal(g2.feature_row(2), row)
    assert np.array_equal(g.feature_row(2), np.linspace(0, 1, 12).reshape(4, 3)[2])


def test_time_must_advance_by_one():
    g = small_graph()
    with pytest.raises(GraphError):
        g.apply_delta(SnapshotDelta(time=0))
    with pytest.raises(GraphError):
        g.apply_delta(SnapshotDelta(time=2))


def test_new_node_ids_must_be_contiguous():
    g = small_graph()
    feat = np.full(3, 0.5)
    with pytest.raises(GraphError):
        g.apply_delta(SnapshotDelta(time=1, new_nodes=((5, feat, 0),)))
    g2 = g.apply_delta(SnapshotDelta(time=1, new_nodes=((4, feat, 1),)))
    assert g2.n == 5
    assert g2.degree(4) == 0


def test_rejects_malformed_deltas():
    g = small_graph()
    feat = np.full(3, 0.5)
    cases = [
        SnapshotDelta(time=1, edge_adds=((0, 0),)),            # self loop
        SnapshotDelta(time=1, edge_adds=((0, 9),)),            # unknown node
        SnapshotDelta(time=1, edge_adds=((0, 2), (2, 0))),     # dup pair
        SnapshotDelta(time=1, edge_adds=((0, 1),)),            # already present
        SnapshotDelta(time=1, edge_removes=((0, 3),)),         # absent edge
        SnapshotDelta(time=1, edge_adds=((0, 3),), edge_removes=((3, 0),)),
        SnapshotDelta(time=1, attr_changes=((9, feat),)),
        SnapshotDelta(time=1, attr_changes=((1, feat), (1, feat))),
        SnapshotDelta(time=1, attr_changes=((1, np.full(2, 0.5)),)),
        SnapshotDelta(time=1, attr_changes=((1, np.full(3, 1.5)),)),
        SnapshotDelta(time=1, attr_changes=((1, np.full(3, np.nan)),)),
        SnapshotDelta(time=1, new_nodes=((4, np.full(3, -0.2), 0),)),
        SnapshotDelta(time=1, new_nodes=((4, feat, -3),)),
    ]
    for delta in cases:
        with pytest.raises(GraphError):
            g.apply_delta(delta)


def test_symmetry_and_degree_against_dense_oracle(rng):
    deltas = random_stream(rng, steps=5, per_step=8, edge_prob=0.2, dim=4)
    state = replay(deltas, 4)
    n = state.n
    dense = np.zeros((n, n), dtype=bool)
    for d in deltas:
        for u, v in d.edge_adds:
            dense[u, v] = dense[v, u] = True
    for v in range(n):
        nbrs = state.neighbors(v)
        assert list(nbrs) == sorted(set(nbrs))
        assert v not in nbrs
        assert list(nbrs) == list(np.nonzero(dense[v])[0])
        assert state.degree(v) == int(dense[v].sum())
    assert sum(len(state.neighbors(v)) for v in range(n)) == int(dense.sum())


def test_delta_composability(rng):
    _, d0 = make_graph(rng, 6, 0.3, 3)
    feats = rng.random((2, 3))
    d1 = SnapshotDelta(time=1,
                       new_nodes=((6, feats[0], 0), (7, feats[1], None)),
                       edge_adds=((0, 6), (6, 7)))
    d2 = SnapshotDelta(time=2, edge_adds=((1, 7),),
                       attr_changes=((3, np.full(3, 0.25)),))
    stepped = replay([d0, d1, d2], 3)
    merged = SnapshotDelta(time=0,
                           new_nodes=d0.new_nodes + d1.new_nodes,
                           edge_adds=d0.edge_adds + d1.edge_adds + d2.edge_adds,
                           attr_changes=d2.attr_changes)
    combined = GraphState.empty(3).apply_delta(merged)
    assert np.array_equal(stepped.feature_matrix(), combined.feature_matrix())
    for v in range(stepped.n):
        assert stepped.neighbors(v) == combined.neighbors(v)
        assert stepped.label(v) == combined.label(v)


def test_l_hop_set_against_bfs_distance_oracle(rng):
    for trial in range(10):
        _, delta = make_graph(rng, 25, 0.12, 2)
        g = GraphState.empty(2).apply_delta(delta)
        # oracle: BFS distances via repeated dense expansion
        n = g.n
        dense = np.zeros((n, n), dtype=bool)
        for u in range(n):
            for v in g.neighbors(u):
                dense[u, v] = True
        seeds = sorted(rng.choice(n, size=3, replace=False).tolist())
        dist = np.full(n, 10**9)
        for s in seeds:
            dist[s] = 0
        for _ in range(n):
            for u in range(n):
                for v in range(n):
                    if dense[u, v] and dist[u] + 1 < dist[v]:
                        dist[v] = dist[u] + 1
        prev = None
        for depth in range(4):
            got = l_hop_set(g, seeds, depth)
            want = {v for v in range(n) if dist[v] <= depth}
            assert got == want
            if prev is not None:
                assert prev <= got
            prev = got
    assert l_hop_set(g, [], 3) == set()
    assert l_hop_set(g, [0], 0) == {0}


def test_freeze_ego_contents_and_independence(rng):
    _, delta = make_graph(rng, 15, 0.15, 3)
    g = GraphState.empty(3).apply_delta(delta)
    ego = freeze_ego(g, 4, 2)
    assert ego.center == 4
    assert set(ego.nodes) == l_hop_set(g, [4], 2)
    for v in ego.nodes:
        want = [u for u in g.neighbors(v) if u in set(ego.nodes)]
        assert list(ego.neighbors(v)) == want
        assert np.array_equal(ego.feature_row(v), g.feature_row(v))
    # the arrays a memory checkpoint stores
    assert list(ego.nodes) == sorted(ego.nodes)
    assert ego.edges.shape[1] == 2 and (ego.edges[:, 0] < ego.edges[:, 1]).all()
    assert sorted(map(tuple, ego.edges.tolist())) == sorted(
        (v, u) for v in ego.nodes for u in ego.neighbors(v) if v < u)
    assert np.array_equal(ego.features, g.feature_matrix()[list(ego.nodes)])
    assert not ego.features.flags.writeable
    # later stream activity cannot leak into the frozen view
    member = ego.nodes[0]
    g2 = g.apply_delta(SnapshotDelta(
        time=1, attr_changes=((member, np.full(3, 0.123)),)))
    assert not np.array_equal(ego.feature_row(member), g2.feature_row(member))
    assert np.array_equal(ego.feature_row(member), g.feature_row(member))


def test_ego_boundary_keeps_interior_edges(rng):
    # path 0-1-2-3: depth-2 ego of 0 holds nodes {0,1,2}; edge (1,2) stays,
    # edge (2,3) falls outside
    feats = np.full((4, 2), 0.5)
    delta = SnapshotDelta(time=0,
                          new_nodes=tuple((v, feats[v], 0) for v in range(4)),
                          edge_adds=((0, 1), (1, 2), (2, 3)))
    g = GraphState.empty(2).apply_delta(delta)
    ego = freeze_ego(g, 0, 2)
    assert set(ego.nodes) == {0, 1, 2}
    assert list(ego.neighbors(2)) == [1]


def test_stream_round_trip(tmp_path, rng):
    deltas = random_stream(rng, steps=4, per_step=5, edge_prob=0.3, dim=3,
                           label_frac=0.7)
    # quantize features the way the writer will print them
    quantized = []
    for d in deltas:
        nodes = tuple((v, np.round(f, 10), lab) for v, f, lab in d.new_nodes)
        quantized.append(SnapshotDelta(d.time, nodes, d.edge_adds,
                                       d.edge_removes))
    paths = write_stream(quantized, str(tmp_path))
    loaded = load_stream(paths["edges"], paths["features"], paths["labels"],
                         paths["schedule"])
    assert len(loaded) == len(quantized)
    for a, b in zip(quantized, loaded):
        assert deltas_equal(a, b)
    # rewriting reproduces identical bytes
    paths2 = write_stream(loaded, str(tmp_path / "again"))
    for key in ("edges", "features", "labels", "schedule"):
        with open(paths[key]) as f1, open(paths2[key]) as f2:
            assert f1.read() == f2.read()


def test_stream_with_removals_and_empty_steps(tmp_path):
    feats = np.full((3, 2), 0.5)
    deltas = [
        SnapshotDelta(time=0, new_nodes=tuple((v, feats[v], v % 2)
                                              for v in range(3)),
                      edge_adds=((0, 1), (1, 2))),
        SnapshotDelta(time=1),
        SnapshotDelta(time=2, edge_removes=((0, 1),)),
    ]
    paths = write_stream(deltas, str(tmp_path))
    loaded = load_stream(paths["edges"], paths["features"], paths["labels"],
                         paths["schedule"])
    assert len(loaded) == 3
    assert deltas_equal(loaded[1], SnapshotDelta(time=1))
    assert loaded[2].edge_removes == ((0, 1),)
    final = replay(loaded, 2)
    assert not final.has_edge(0, 1)
    assert final.has_edge(1, 2)


def test_loader_rejects_bad_files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    feats = write("features.txt", "0.1 0.2\n0.3 0.4\n")
    labels = write("labels.txt", "0 0 0\n1 1 0\n")

    bad_edge = write("edges_bad.txt", "0 1 zero\n")
    with pytest.raises(GraphError) as err:
        load_stream(bad_edge, feats, labels)
    assert "edges_bad.txt:1" in str(err.value)

    dangle = write("edges_dangle.txt", "0 5 0\n")
    with pytest.raises(GraphError):
        load_stream(dangle, feats, labels)

    ragged = write("features_ragged.txt", "0.1 0.2\n0.3\n")
    with pytest.raises(GraphError):
        load_stream(write("edges_empty.txt", ""), ragged, labels)

    # values outside [0, 1] are refused at their line; a blank line counts
    for bad in ("1.4", "-0.1", "nan"):
        wide = write("features_wide.txt", "0.1 0.2\n\n0.3 %s\n" % bad)
        with pytest.raises(GraphError) as err:
            load_stream(write("edges_empty3.txt", ""), wide, labels)
        assert "features_wide.txt:3: feature values outside [0, 1]" \
            in str(err.value)

    short_labels = write("labels_short.txt", "0 0 0\n")
    with pytest.raises(GraphError):
        load_stream(write("edges_empty2.txt", ""), feats, short_labels)

    # edge referencing a node that arrives later than the edge's step
    labels_late = write("labels_late.txt", "0 0 0\n1 1 1\n")
    early_edge = write("edges_early.txt", "0 1 0\n")
    with pytest.raises(GraphError):
        load_stream(early_edge, feats, labels_late)


@pytest.mark.parametrize("labels, schedule, where", [
    # a field that is not an integer
    ("0 0 0\n1 1 0\n", "0 x\n", "schedule.txt:1"),
    # negative arrival steps
    ("0 0 0\n1 1 0\n", "-1 2\n", "schedule.txt:1"),
    ("0 0 -1\n1 1 -1\n", None, "labels.txt:1"),
    # a label for a node without a feature row
    ("0 0 0\n1 1 0\n7 1 0\n", None, "labels.txt:3"),
    # node ids arriving out of step order
    ("0 0 1\n1 1 0\n", None, "labels.txt:2"),
    ("0 0 0\n1 1 0\n", "1 1\n0 1\n", "schedule.txt:2"),
], ids=["field", "schedule-negative", "labels-negative", "no-feature-row",
        "labels-order", "schedule-order"])
def test_loader_names_the_line_of_a_bad_arrival(tmp_path, labels, schedule,
                                                where):
    texts = {"edges": "", "features": "0.1 0.2\n0.3 0.4\n",
             "labels": labels, "schedule": schedule}
    for name in STREAM_FILES:
        if texts[name] is not None:
            (tmp_path / (name + ".txt")).write_text(texts[name])
    with pytest.raises(GraphError) as err:
        load_stream(*(str(tmp_path / (name + ".txt")) for name in STREAM_FILES))
    assert where in str(err.value)


def test_loader_tolerates_duplicate_edge_lines(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1 0\n1 0 0\n")
    (tmp_path / "features.txt").write_text("0.1 0.2\n0.3 0.4\n")
    (tmp_path / "labels.txt").write_text("0 0 0\n1 1 0\n")
    deltas = load_stream(str(tmp_path / "edges.txt"),
                         str(tmp_path / "features.txt"),
                         str(tmp_path / "labels.txt"))
    assert deltas[0].edge_adds == ((0, 1),)


def test_loader_keeps_an_edge_removed_and_added_again(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1 0\n0 1 1 -\n0 1 2\n0 1 3 -\n")
    (tmp_path / "features.txt").write_text("0.1 0.2\n0.3 0.4\n")
    (tmp_path / "labels.txt").write_text("0 0 0\n1 1 0\n")
    deltas = load_stream(str(tmp_path / "edges.txt"),
                         str(tmp_path / "features.txt"),
                         str(tmp_path / "labels.txt"))
    assert len(deltas) == 4
    assert [d.edge_adds for d in deltas] == [((0, 1),), (), ((0, 1),), ()]
    assert [d.edge_removes for d in deltas] == [(), ((0, 1),), (), ((0, 1),)]
    assert replay(deltas[:3], 2).has_edge(0, 1)
    assert not replay(deltas, 2).has_edge(0, 1)


def test_loader_drops_an_add_of_a_present_edge(tmp_path):
    # listed again at a later step, in any line order, without a removal
    (tmp_path / "edges.txt").write_text("0 1 2\n0 1 0\n1 0 0\n")
    (tmp_path / "features.txt").write_text("0.1 0.2\n0.3 0.4\n")
    (tmp_path / "labels.txt").write_text("0 0 0\n1 1 0\n")
    deltas = load_stream(str(tmp_path / "edges.txt"),
                         str(tmp_path / "features.txt"),
                         str(tmp_path / "labels.txt"))
    assert [d.edge_adds for d in deltas] == [((0, 1),), (), ()]
    assert replay(deltas, 2).has_edge(0, 1)


@st.composite
def edge_histories(draw):
    """Delta sequences whose edges get added, removed and added again."""
    deltas = []
    n = 0
    present = set()
    for t in range(draw(st.integers(1, 6))):
        count = draw(st.integers(0 if t else 1, 3))
        new_nodes = tuple(
            (n + j,
             np.array(draw(st.lists(st.integers(0, 1000), min_size=2,
                                    max_size=2))) / 1000.0,
             draw(st.none() | st.integers(0, 2)))
            for j in range(count))
        n += count
        pairs = set()
        if n >= 2:
            pairs = set(draw(st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda p: p[0] != p[1])
                .map(lambda p: (min(p), max(p))),
                max_size=6)))
        adds = tuple(sorted(pairs - present))
        removes = tuple(sorted(pairs & present))
        present = (present | set(adds)) - set(removes)
        deltas.append(SnapshotDelta(time=t, new_nodes=new_nodes,
                                    edge_adds=adds, edge_removes=removes))
    return deltas


@settings(max_examples=60, deadline=None)
@given(edge_histories())
def test_stream_files_round_trip_any_edge_history(tmp_path_factory, deltas):
    out = str(tmp_path_factory.mktemp("stream"))
    paths = write_stream(deltas, out)
    loaded = load_stream(paths["edges"], paths["features"], paths["labels"],
                         paths["schedule"])
    assert len(loaded) == len(deltas)
    for a, b in zip(deltas, loaded):
        assert deltas_equal(a, b)


def test_schedule_overrides_label_steps(tmp_path):
    (tmp_path / "edges.txt").write_text("")
    (tmp_path / "features.txt").write_text("0.1\n0.2\n0.3\n")
    # label file claims everything arrives at 0; schedule spreads arrivals
    (tmp_path / "labels.txt").write_text("0 0 0\n1 1 0\n2 0 0\n")
    (tmp_path / "schedule.txt").write_text("0 1\n1 2\n")
    deltas = load_stream(str(tmp_path / "edges.txt"),
                         str(tmp_path / "features.txt"),
                         str(tmp_path / "labels.txt"),
                         str(tmp_path / "schedule.txt"))
    assert len(deltas) == 2
    assert [nid for nid, _f, _l in deltas[0].new_nodes] == [0]
    assert [nid for nid, _f, _l in deltas[1].new_nodes] == [1, 2]


def test_unlabeled_nodes_round_trip(tmp_path):
    (tmp_path / "edges.txt").write_text("")
    (tmp_path / "features.txt").write_text("0.5\n0.6\n")
    (tmp_path / "labels.txt").write_text("0 -1 0\n1 2 0\n")
    deltas = load_stream(str(tmp_path / "edges.txt"),
                         str(tmp_path / "features.txt"),
                         str(tmp_path / "labels.txt"))
    g = replay(deltas, 1)
    assert g.label(0) is None
    assert g.label(1) == 2
    assert list(np.flatnonzero(g.labels_array() >= 0)) == [1]
