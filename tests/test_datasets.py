"""Edge-list IO, synthetic temporal generators, and label splits."""

import itertools
import math

import numpy as np
import pytest

from netchron.datasets import (
    SynthKind,
    SynthSpec,
    _pair_from_index,
    dataset_stats,
    generate_synthetic,
    load_edge_list,
    split_labels,
    write_edge_list,
)
from netchron.errors import (
    BadSpec,
    EmptyInput,
    InsufficientLabels,
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
        assert net.edges == ((0, 1), (1, 2), (0, 3))
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

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        cases = [
            ("0\t1\n", "expected 3"),
            ("0\t1\t2\t3\n", "expected 3"),
            ("a\t1\t1990\n", "integers"),
            ("0\t1\tsoon\n", "number"),
            ("-1\t1\t1990\n", ">= 0"),
            ("0\t1\tinf\n", "finite"),
            ("0\t1\t-inf\n", "finite"),
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
        assert len(set(net.edges)) == 90

    def test_deterministic(self):
        for kind in SynthKind:
            a = generate_synthetic(SynthSpec(kind, 40, 2, seed=11))
            b = generate_synthetic(SynthSpec(kind, 40, 2, seed=11))
            assert a.edges == b.edges
            assert np.array_equal(a.alpha, b.alpha)

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            generate_synthetic(SynthSpec(SynthKind.PREFERENTIAL_ATTACHMENT, 2, 2, 0))
        with pytest.raises(BadSpec):
            generate_synthetic(SynthSpec(SynthKind.RANDOM_GROWTH, 5, 0, 0))
        with pytest.raises(BadSpec):
            # 3 * 4 = 12 edges cannot fit on C(4,2) = 6 slots.
            generate_synthetic(SynthSpec(SynthKind.ER_SHUFFLED, 4, 3, 0))

    def test_pair_decoding_matches_combinations(self):
        n = 9
        expect = list(itertools.combinations(range(n), 2))
        got = [_pair_from_index(t, n) for t in range(len(expect))]
        assert got == expect


class TestSplitLabels:
    def _net413(self):
        return generate_synthetic(SynthSpec(SynthKind.ER_SHUFFLED, 59, 7, seed=2))

    def test_ceil_count(self):
        net = self._net413()
        assert net.edge_count == 413
        out = split_labels(net, 0.3, seed=0)
        assert out.labeled_mask.sum() == 124  # ceil(0.3 * 413)
        # Times are retained for evaluation even where hidden.
        assert not np.isnan(out.alpha).any()

    def test_same_seed_same_mask(self):
        net = self._net413()
        a = split_labels(net, 0.3, seed=9)
        b = split_labels(net, 0.3, seed=9)
        assert np.array_equal(a.labeled_mask, b.labeled_mask)
        c = split_labels(net, 0.3, seed=10)
        assert not np.array_equal(a.labeled_mask, c.labeled_mask)

    def test_fraction_bounds(self):
        net = self._net413()
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                split_labels(net, bad, seed=0)
        out = split_labels(net, 0.99, seed=0)
        assert out.labeled_mask.sum() == math.ceil(0.99 * 413)

    def test_insufficient_known_times(self, tmp_path):
        f = tmp_path / "g.tsv"
        f.write_text("0\t1\t1990\n1\t2\t?\n0\t2\t?\n")
        net = load_edge_list(f)
        with pytest.raises(InsufficientLabels):
            split_labels(net, 0.9, seed=0)

    def test_stratified_balances_deciles(self):
        net = generate_synthetic(SynthSpec(SynthKind.ER_SHUFFLED, 20, 5, seed=4))
        assert net.edge_count == 100
        out = split_labels(net, 0.5, seed=1, stratified=True)
        assert out.labeled_mask.sum() == 50
        order = np.argsort(net.alpha)
        per_decile = [
            out.labeled_mask[order[10 * k:10 * (k + 1)]].sum() for k in range(10)
        ]
        assert per_decile == [5] * 10
