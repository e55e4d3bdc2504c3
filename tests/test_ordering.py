"""Borda aggregation, score orderings, and the pairwise-error theory."""

import numpy as np
import pytest

from netchron.errors import (
    CoverageError,
    DegenerateTruth,
    EmptyInput,
    InconsistentMatrix,
    NumericalError,
    OutOfDomain,
    ParseError,
)
from netchron.graph import build_network
from netchron.ordering import (
    GlobalOrdering,
    OrderingSource,
    borda_aggregate,
    ground_truth_ordering,
    load_ordering,
    monte_carlo_error,
    order_from_scores,
    theoretical_error,
    write_ordering,
)


def pairwise_matrix_from_scores(z):
    """Softmax pairwise precedence probabilities, built densely."""
    z = np.asarray(z, dtype=float)
    d = z[:, None] - z[None, :]
    return 1.0 / (1.0 + np.exp(-d))


class TestBordaAggregate:
    def test_simple_matrix(self):
        p = np.array(
            [
                [0.5, 0.9, 0.8],
                [0.1, 0.5, 0.6],
                [0.2, 0.4, 0.5],
            ]
        )
        out = borda_aggregate(p)
        assert np.allclose(out.borda_scores, [1.7, 0.7, 0.6])
        assert list(out.ranks) == [1, 2, 3]
        assert out.source is OrderingSource.FROM_MATRIX

    def test_ranks_are_a_bijection(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=30)
        out = borda_aggregate(pairwise_matrix_from_scores(z))
        assert sorted(out.ranks) == list(range(1, 31))
        assert np.array_equal(np.sort(out.order), np.arange(30))

    def test_tie_break_by_edge_index(self):
        # Two edges with identical rows tie; lower index wins.
        p = np.full((3, 3), 0.5)
        out = borda_aggregate(p)
        assert list(out.ranks) == [1, 2, 3]
        assert list(out.order) == [0, 1, 2]

    def test_complement_violation_raises(self):
        p = np.array([[0.5, 0.6], [0.6, 0.5]])
        with pytest.raises(InconsistentMatrix):
            borda_aggregate(p)

    def test_diagonal_ignored(self):
        p = np.array([[0.0, 0.9], [0.1, 17.0]])
        out = borda_aggregate(p)
        assert np.allclose(out.borda_scores, [0.9, 0.1])

    def test_rejects_empty_and_nonsquare(self):
        with pytest.raises(EmptyInput):
            borda_aggregate(np.zeros((0, 0)))
        with pytest.raises(EmptyInput):
            borda_aggregate(np.zeros((2, 3)))

    def test_matches_descending_scores_property(self):
        # The aggregate of the softmax matrix of any score vector must
        # reproduce the descending-score order exactly.
        rng = np.random.default_rng(13)
        for _ in range(200):
            m = int(rng.integers(2, 51))
            z = rng.normal(size=m) * rng.uniform(0.1, 10.0)
            if rng.random() < 0.3:
                z[rng.integers(m)] = z[0]  # provoke occasional ties
            out = borda_aggregate(pairwise_matrix_from_scores(z))
            expect = np.lexsort((np.arange(m), -z))
            assert np.array_equal(out.order, expect)


class TestOrderFromScores:
    def test_equals_dense_aggregate(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = int(rng.integers(2, 120))
            z = rng.normal(size=m) * 3.0
            lean = order_from_scores(z)
            dense = borda_aggregate(pairwise_matrix_from_scores(z))
            assert np.array_equal(lean.borda_scores, z)
            assert np.array_equal(lean.order, dense.order)
            assert lean.source is OrderingSource.FROM_SCORES

    def test_extreme_scores_stay_finite(self):
        out = order_from_scores(np.array([1e4, -1e4, 0.0]))
        assert np.isfinite(out.borda_scores).all()
        assert list(out.order) == [0, 2, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(NumericalError):
            order_from_scores([1.0, bad, 0.5])

    def test_keeps_no_reference_to_the_input(self):
        z = np.array([0.5, 2.0, -1.0])
        out = order_from_scores(z)
        z[0] = 9.0
        assert list(out.borda_scores) == [0.5, 2.0, -1.0]


class TestGroundTruth:
    def test_ascending_alpha(self):
        out = ground_truth_ordering([0.3, 0.1, 0.3])
        assert list(out.order) == [1, 0, 2]
        assert list(out.ranks) == [2, 1, 3]
        assert out.source is OrderingSource.GROUND_TRUTH

    def test_rejects_unknown_times(self):
        with pytest.raises(DegenerateTruth):
            ground_truth_ordering([0.1, np.nan])


class TestTheory:
    def test_known_value(self):
        # sqrt(0.9 * 0.1) / (2 * 0.9 - 1) / sqrt(400) = 0.01875
        pt = theoretical_error(0.9, 400)
        assert np.isclose(pt.expected_error, 0.01875, atol=1e-12)

    def test_perfect_accuracy_is_zero(self):
        assert theoretical_error(1.0, 50).expected_error == 0.0

    def test_inverse_sqrt_scaling(self):
        a = theoretical_error(0.8, 100).expected_error
        b = theoretical_error(0.8, 400).expected_error
        assert np.isclose(a / b, 2.0)

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            theoretical_error(0.5, 10)
        with pytest.raises(OutOfDomain):
            theoretical_error(0.9, 1)


class TestMonteCarlo:
    def test_perfect_accuracy_recovers_exactly(self):
        assert monte_carlo_error(1.0, 30, trials=5, seed=0) == 0.0

    def test_two_edge_case_matches_hand_calculation(self):
        # With M=2 the error is 0.5 exactly when the single comparison
        # flips (probability 1 - p), else 0; the mean is (1 - p) / 2.
        got = monte_carlo_error(0.8, 2, trials=4000, seed=1)
        assert abs(got - 0.1) < 0.02

    def test_deterministic(self):
        a = monte_carlo_error(0.7, 40, trials=20, seed=9)
        b = monte_carlo_error(0.7, 40, trials=20, seed=9)
        assert a == b

    def test_domain(self):
        with pytest.raises(OutOfDomain):
            monte_carlo_error(0.4, 10, 5)
        with pytest.raises(OutOfDomain):
            monte_carlo_error(0.9, 10, 0)


def chain_net(m_edges):
    edges = [(k, k + 1) for k in range(m_edges)]
    return build_network(m_edges + 1, edges, times=list(range(m_edges)))


class TestOrderingIO:
    def test_roundtrip_exact(self, tmp_path):
        net = chain_net(9)
        rng = np.random.default_rng(3)
        ordering = order_from_scores(rng.normal(size=9))
        path = tmp_path / "ordering.csv"
        write_ordering(ordering, net, path)
        loaded = load_ordering(path, net)
        assert np.array_equal(loaded.ranks, ordering.ranks)
        assert np.array_equal(loaded.order, ordering.order)
        assert np.array_equal(loaded.borda_scores, ordering.borda_scores)
        assert loaded.source is OrderingSource.FROM_SCORES

    def test_rewrite_is_byte_identical(self, tmp_path):
        net = chain_net(6)
        ordering = ground_truth_ordering(net.alpha)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_ordering(ordering, net, a)
        write_ordering(ordering, net, b)
        assert a.read_bytes() == b.read_bytes()

    def test_write_rejects_wrong_edge_count(self, tmp_path):
        net = chain_net(5)
        ordering = order_from_scores(np.arange(4.0))
        with pytest.raises(CoverageError):
            write_ordering(ordering, net, tmp_path / "o.csv")

    def test_load_rejects_foreign_graph(self, tmp_path):
        net = chain_net(5)
        path = tmp_path / "o.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, path)
        other = build_network(
            6, [(0, 2), (1, 3), (2, 4), (3, 5), (0, 5)], times=range(5)
        )
        with pytest.raises(CoverageError):
            load_ordering(path, other)

    def test_load_rejects_duplicate_edge_index(self, tmp_path):
        net = chain_net(3)
        path = tmp_path / "o.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CoverageError):
            load_ordering(path, net)

    def test_load_rejects_unparseable_score(self, tmp_path):
        net = chain_net(3)
        path = tmp_path / "o.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, path)
        text = path.read_text().replace("-0.5", "junk")
        path.write_text(text)
        with pytest.raises(ParseError):
            load_ordering(path, net)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_load_rejects_non_finite_score(self, tmp_path, bad):
        # The last-ranked edge: a NaN there would still match the ranks.
        net = chain_net(3)
        path = tmp_path / "o.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, path)
        rows = path.read_text().splitlines()
        last = rows[-1].split(",")
        last[3] = bad
        rows[-1] = ",".join(last)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="not finite"):
            load_ordering(path, net)

    def test_load_rejects_inconsistent_rank_column(self, tmp_path):
        net = chain_net(4)
        path = tmp_path / "o.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, path)
        lines = path.read_text().splitlines()
        first = lines[1].split(",")
        second = lines[2].split(",")
        first[4], second[4] = second[4], first[4]
        lines[1] = ",".join(first)
        lines[2] = ",".join(second)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_ordering(path, net)

    def test_load_rejects_bad_header(self, tmp_path):
        net = chain_net(3)
        path = tmp_path / "o.csv"
        write_ordering(ground_truth_ordering(net.alpha), net, path)
        lines = path.read_text().splitlines()
        lines[0] = "a,b,c,d,e"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_ordering(path, net)
