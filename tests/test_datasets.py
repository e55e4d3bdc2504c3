"""Edge-list IO and synthetic temporal generators."""

import itertools

import numpy as np
import pytest

from netchron.datasets import (
    SynthKind,
    SynthSpec,
    _pair_from_index,
    dataset_stats,
    generate_synthetic,
    load_edge_list,
    write_edge_list,
)
from netchron.errors import (
    BadSpec,
    EmptyInput,
    ParseError,
)


class TestLoadEdgeList:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text(
            "# a comment\n"
            "0\t1\t1990\n"
            "\n"
            "2\t1\t1995\n"
            "0\t3\t?\n"
        )
        net = load_edge_list(f)
        assert net.node_count == 4
        assert net.endpoints.tolist() == [[0, 1], [1, 2], [0, 3]]
        assert np.allclose(net.alpha[:2], [0.0, 1.0])
        assert np.isnan(net.alpha[2])
        assert list(net.labeled_mask) == [True, True, False]

    def test_nan_time_is_unknown(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("0\t1\t1990\n1\t2\tnan\n0\t2\t1995\n")
        net = load_edge_list(f)
        assert list(net.labeled_mask) == [True, False, True]
        assert np.isnan(net.alpha[1])

    def test_duplicate_keeps_first_occurrence(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("0\t1\t1990\n1\t2\t1992\n1\t0\t1999\n")
        net = load_edge_list(f)
        assert net.edge_count == 2
        # Edge (0,1) keeps the 1990 stamp: it normalizes to 0.
        assert net.alpha[0] == 0.0

    def test_reversed_duplicate_keeps_the_first_lines_time(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text(
            "2\t1\t?\n0\t1\t10\n1\t3\t20\n1\t0\t40\n1\t2\t30\n0\t3\t30\n"
        )
        net = load_edge_list(f)
        assert net.node_count == 4
        assert net.endpoints.tolist() == [[1, 2], [0, 1], [1, 3], [0, 3]]
        assert np.array_equal(net.alpha, [np.nan, 0.0, 0.5, 1.0], equal_nan=True)
        assert net.labeled_mask.tolist() == [False, True, True, True]

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("0\t1\n", "expected 3"),
            ("0\t1\t2\t3\n", "expected 3"),
            ("a\t1\t1990\n", "integers"),
            ("0\t1\tsoon\n", "number"),
            ("-1\t1\t1990\n", ">= 0"),
            ("0\t1\tinf\n", "finite"),
            ("0\t1\t-inf\n", "finite"),
            ("0\t2\t1990\n", "node id 2 is not below 2 x 1 edge lines"),
            ("%d\t1\t1990\n" % 10**20, "node id %d " % 10**20),
        ]
        for body, fragment in cases:
            f = tmp_path / "bad.tsv"
            f.write_text("# header\n" + body)
            with pytest.raises(ParseError) as err:
                load_edge_list(f)
            assert ":2:" in str(err.value)
            assert fragment in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "empty.tsv"
        f.write_text("# nothing\n")
        with pytest.raises(EmptyInput):
            load_edge_list(f)

    def test_roundtrip_idempotent(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("5\t1\t2001\n1\t2\t2003\n2\t5\t?\n0\t3\t2002\n")
        first = tmp_path / "first.tsv"
        write_edge_list(load_edge_list(f), first)
        second = tmp_path / "second.tsv"
        write_edge_list(load_edge_list(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestDatasetStats:
    def test_distinguishable_pairs_example(self):
        from netchron.graph import build_network

        net = build_network(4, [(0, 1), (1, 2), (2, 3)], [0.0, 0.0, 1.0])
        stats = dataset_stats(net)
        assert stats["distinguishable_pairs"] == 2
        assert stats["distinct_times"] == 2
        assert stats["edge_count"] == 3
        assert np.isclose(stats["distinguishable_fraction"], 2 / 3)

    def test_tied_plus_distinct_covers_all_known_pairs(self):
        net = generate_synthetic(
            SynthSpec(SynthKind.ER_SHUFFLED, node_count=20, edges_per_node=3, seed=1)
        )
        stats = dataset_stats(net)
        m = stats["edge_count"]
        assert stats["distinguishable_pairs"] == m * (m - 1) // 2

    def test_unknown_times_excluded(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("0\t1\t1990\n1\t2\t?\n0\t2\t1991\n")
        stats = dataset_stats(load_edge_list(f))
        assert stats["distinguishable_pairs"] == 1
        assert stats["distinct_times"] == 2


class TestGenerators:
    def test_pa_tree(self):
        net = generate_synthetic(
            SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 10, 1, seed=0)
        )
        assert net.edge_count == 9
        assert (np.diff(net.alpha) > 0).all()
        assert net.labeled_mask.all()

    def test_pa_edge_count_formula(self):
        net = generate_synthetic(
            SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 200, 2, seed=3)
        )
        assert net.edge_count == 397
        assert net.node_count == 200

    def test_pa_heavy_tail(self):
        for seed in (0, 1, 2):
            net = generate_synthetic(
                SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 200, 2, seed=seed)
            )
            deg = net.degrees
            assert deg.max() > 4 * np.median(deg)

    def test_random_growth(self):
        net = generate_synthetic(SynthSpec(SynthKind.RANDOM_GROWTH, 50, 2, seed=5))
        assert net.edge_count == 1 + 2 * 48
        assert (np.diff(net.alpha) > 0).all()

    def test_er_shuffled(self):
        net = generate_synthetic(SynthSpec(SynthKind.ER_SHUFFLED, 30, 3, seed=7))
        assert net.edge_count == 90
        assert net.node_count == 30
        assert (np.diff(net.alpha) > 0).all()
        assert len(np.unique(net.endpoints, axis=0)) == 90

    def test_deterministic(self):
        for kind in SynthKind:
            a = generate_synthetic(SynthSpec(kind, 40, 2, seed=11))
            b = generate_synthetic(SynthSpec(kind, 40, 2, seed=11))
            assert np.array_equal(a.endpoints, b.endpoints)
            assert np.array_equal(a.alpha, b.alpha)

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            generate_synthetic(SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 2, 2, 0))
        with pytest.raises(BadSpec):
            generate_synthetic(SynthSpec(SynthKind.RANDOM_GROWTH, 5, 0, 0))
        with pytest.raises(BadSpec):
            # 3 * 4 = 12 edges cannot fit on C(4,2) = 6 slots.
            generate_synthetic(SynthSpec(SynthKind.ER_SHUFFLED, 4, 3, 0))

    def test_er_node_pairs_must_fit_int64(self):
        # Specs only: nothing is generated, so nothing is allocated.
        assert SynthSpec(SynthKind.ER_SHUFFLED, 2**32, 1).node_count == 2**32
        for n in (2**32 + 1, 10**13):
            with pytest.raises(BadSpec, match="more node pairs than int64 holds"):
                SynthSpec(SynthKind.ER_SHUFFLED, n, 1)

    def test_kind_given_as_string_builds_the_same_graph(self):
        # "pa" == SynthKind.PREFERENTIAL_ATTACHMENT, but "pa" is not it.
        by_enum = generate_synthetic(
            SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 200, 2, seed=0))
        by_string = generate_synthetic(SynthSpec("pa", 200, 2, seed=0))
        uniform = generate_synthetic(SynthSpec(SynthKind.RANDOM_GROWTH, 200, 2, seed=0))
        assert np.array_equal(by_string.endpoints, by_enum.endpoints)
        assert np.array_equal(by_string.alpha, by_enum.alpha)
        assert not np.array_equal(by_string.endpoints, uniform.endpoints)

    def test_unknown_kind_raises(self):
        with pytest.raises(BadSpec, match="invalid value for kind: 'lattice'"):
            generate_synthetic(SynthSpec("lattice", 20, 2, seed=0))

    @pytest.mark.parametrize("fields", [
        dict(node_count=50.5),
        dict(node_count="fifty"),
        dict(node_count=True),
        dict(edges_per_node=None),
        dict(seed=-1),
        dict(seed=2.5),
    ], ids=lambda f: "%s=%r" % next(iter(f.items())))
    def test_invalid_spec_raises_when_built(self, fields):
        with pytest.raises(BadSpec, match="invalid value for %s" % next(iter(fields))):
            SynthSpec(**{"kind": "pa", "node_count": 50, "edges_per_node": 2, **fields})

    def test_fields_are_coerced_by_their_kinds(self):
        spec = SynthSpec("random", "50", 2.0, seed="7")
        assert (spec.kind, spec.node_count, spec.edges_per_node, spec.seed) == (
            SynthKind.RANDOM_GROWTH, 50, 2, 7)
        assert all(type(v) is int for v in (spec.node_count, spec.edges_per_node,
                                            spec.seed))
        same = generate_synthetic(SynthSpec(SynthKind.RANDOM_GROWTH, 50, 2, seed=7))
        assert np.array_equal(generate_synthetic(spec).endpoints, same.endpoints)

    def test_pair_decoding_matches_combinations(self):
        n = 9
        expect = list(itertools.combinations(range(n), 2))
        got = [_pair_from_index(t, n) for t in range(len(expect))]
        assert got == expect
