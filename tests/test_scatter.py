import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gslda_cascade import scatter, stumps
from gslda_cascade.scatter import (
    REJECTED,
    DegenerateClassError,
    GreedySelector,
    ScatterConfig,
)

from oracles import (
    ResponseTable,
    UnpackedScatter,
    augment,
    candidate_scores,
    direct_between_vector,
    direct_sb,
    direct_within,
    exhaustive_best_subset,
    forward_select,
    from_scratch_greedy,
    packed,
    random_rm,
    subset_eigenvalue,
)


def samples(rows, labels):
    """ResponseTable from one row of stump outputs per sample."""
    return ResponseTable(np.asarray(rows).T, np.asarray(labels))


def between(rm, w=None):
    return GreedySelector(*rm.packed, ScatterConfig(), w).b


def within(rm, cfg, i, j, w=None):
    return float(GreedySelector(*rm.packed, cfg, w).cross([i])[0, j])


def augmented(rm, cfg, order, w=None):
    """Selector grown by rank-one augmentation with the features in order."""
    sel = GreedySelector(*rm.packed, cfg, w)
    for i in order:
        augment(sel, int(i))
    return sel


def eliminated(sel, rm, cfg, w=None):
    """Selector after the backward pass, started from sel's subset."""
    out = GreedySelector(*rm.packed, cfg, w, selected=sel.selected)
    out.eliminate()
    return out


class TestBetweenClassVector:
    def test_identical_class_means_give_zero(self):
        rm = samples([[1, -1], [-1, 1], [1, -1], [-1, 1]], [1, 1, -1, -1])
        assert np.allclose(between(rm), 0.0)

    def test_single_feature_balanced_hand_value(self):
        # +1 for every positive, -1 for every negative, N_p = N_n = N/2:
        # b = sqrt((N/2)(N/2)/N) * 2 = sqrt(N).
        n = 8
        rm = samples(
            np.concatenate([np.ones((4, 1)), -np.ones((4, 1))]).astype(int),
            [1] * 4 + [-1] * 4,
        )
        assert between(rm) == pytest.approx([np.sqrt(n)], abs=1e-12)

    def test_rank_one_factorization_matches_direct_sb(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rm = random_rm(rng, 30, 6, skew=0.3)
            b = between(rm)
            assert np.max(np.abs(np.outer(b, b) - direct_sb(rm))) < 1e-10

    def test_weighted_means(self):
        rng = np.random.default_rng(1)
        rm = random_rm(rng, 25, 4)
        w = rng.random(25)
        w /= w.sum()
        assert np.allclose(between(rm, w), direct_between_vector(rm, w), atol=1e-12)

    def test_degenerate_class_rejected(self):
        with pytest.raises(DegenerateClassError, match="degenerate class distribution"):
            GreedySelector(*samples(np.ones((3, 2), dtype=int), [1, 1, 1]).packed, ScatterConfig())

    @pytest.mark.parametrize("w", [0.5, [1.0], np.full(7, 1 / 7), np.full((6, 1), 1 / 6)])
    def test_weights_need_one_entry_per_sample(self, w):
        rm = random_rm(np.random.default_rng(2), 6, 3)
        with pytest.raises(ValueError, match="one entry per sample"):
            between(rm, w)

    def test_all_weight_on_one_class_rejected(self):
        rm = samples(np.ones((4, 2), dtype=int), [1, 1, -1, -1])
        w = np.array([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(DegenerateClassError):
            between(rm, w)


class TestWithinClassEntry:
    def test_constant_column_diagonal_is_ridge(self):
        rm = samples(np.ones((6, 1), dtype=int), [1, 1, 1, -1, -1, -1])
        cfg = ScatterConfig(gamma=1.0, ridge=1e-6)
        assert within(rm, cfg, 0, 0) == pytest.approx(1e-6, abs=1e-18)

    def test_hand_expansion_gamma_2(self):
        # pos rows (1,1), (-1,-1): class means (0,0); neg rows (1,-1), (-1,-1):
        # class means (0,-1).  gamma=2, ridge=0:
        #   S00 = (1+1) + 2*(1+1) = 6,  S11 = (1+1) + 2*0 = 2,
        #   S01 = (1*1 + 1*1) + 2*0 = 2.
        rm = samples([[1, 1], [-1, -1], [1, -1], [-1, -1]], [1, 1, -1, -1])
        cfg = ScatterConfig(gamma=2.0, ridge=0.0)
        assert within(rm, cfg, 0, 0) == pytest.approx(6.0, abs=1e-12)
        assert within(rm, cfg, 1, 1) == pytest.approx(2.0, abs=1e-12)
        assert within(rm, cfg, 0, 1) == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.booleans())
    def test_symmetry_exact(self, seed, weighted):
        rng = np.random.default_rng(seed)
        rm = random_rm(rng, 12, 5)
        cfg = ScatterConfig(gamma=1.7, ridge=1e-6)
        w = None
        if weighted:
            w = rng.random(12)
            w /= w.sum()
        for i in range(5):
            for j in range(5):
                assert within(rm, cfg, i, j) == within(rm, cfg, j, i)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        rm = random_rm(rng, 20, 5)
        w = rng.random(20)
        w /= w.sum()
        cfg = ScatterConfig(gamma=2.5, ridge=1e-3)
        direct = direct_within(rm, cfg, w)
        got = np.array(
            [[within(rm, cfg, i, j, w) for j in range(5)] for i in range(5)]
        )
        assert np.max(np.abs(got - direct)) < 1e-10

    def test_uniform_weights_reduce_to_pooled_scatter(self):
        rng = np.random.default_rng(4)
        rm = random_rm(rng, 18, 4)
        cfg = ScatterConfig(gamma=1.0, ridge=0.0)
        uniform = np.full(18, 1.0 / 18)
        for i in range(4):
            for j in range(4):
                plain = within(rm, cfg, i, j)
                weighted = within(rm, cfg, i, j, uniform)
                assert weighted == pytest.approx(plain, abs=1e-12)


class TestRankOneAugment:
    def test_base_case_scalar_inverse(self):
        rng = np.random.default_rng(5)
        rm = random_rm(rng, 16, 3)
        cfg = ScatterConfig()
        sel = augmented(rm, cfg, [1])
        s11 = within(rm, cfg, 1, 1)
        assert sel.selected == [1]
        assert sel.inv == pytest.approx(np.array([[1.0 / s11]]), rel=1e-12)

    def test_sequence_matches_direct_inversion(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            rm = random_rm(rng, 40, 12)
            cfg = ScatterConfig(ridge=1e-6)
            order = rng.permutation(12)[:6]
            sel = augmented(rm, cfg, order)
            direct = np.linalg.inv(direct_within(rm, cfg)[np.ix_(sel.selected, sel.selected)])
            assert np.max(np.abs(sel.inv - direct)) < 1e-8

    def test_eigenvalue_identity_maintained(self):
        rng = np.random.default_rng(9)
        rm = random_rm(rng, 30, 8)
        sel = GreedySelector(*rm.packed, ScatterConfig())
        for i in (4, 1, 6):
            augment(sel, i)
            b_r = sel.b[sel.selected]
            quad = float(b_r @ sel.inv @ b_r)
            assert sel.eig == pytest.approx(quad, rel=1e-10)


class TestCandidateEigenvalue:
    def test_identity_within_scatter_gives_b_norm(self):
        # Zero within-class variance plus ridge 1 makes S_w the identity.
        pos_row = np.array([1, 1, -1, 1], dtype=np.int8)
        neg_row = np.array([-1, 1, 1, -1], dtype=np.int8)
        responses = np.vstack([np.tile(pos_row, (5, 1)), np.tile(neg_row, (5, 1))])
        rm = samples(responses, [1] * 5 + [-1] * 5)
        cfg = ScatterConfig(ridge=1.0)
        b = between(rm)
        lam = candidate_scores(augmented(rm, cfg, [0]))[3]
        assert lam == pytest.approx(b[0] ** 2 + b[3] ** 2, rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_monotone_in_subset_growth(self, seed):
        rng = np.random.default_rng(seed)
        rm = random_rm(rng, 24, 7)
        cfg = ScatterConfig()
        sel = augmented(rm, cfg, [rng.integers(7)])
        scores = candidate_scores(sel)
        for i in range(7):
            if i in sel.selected:
                continue
            lam = scores[i]
            if lam != REJECTED:
                assert lam >= sel.eig - 1e-9
                assert lam == pytest.approx(subset_eigenvalue(rm, cfg, sel.selected + [i]), rel=1e-8)

    def test_matches_dense_generalized_eigenvalue(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            rm = random_rm(rng, 40, 6)
            cfg = ScatterConfig(ridge=1e-6)
            lam = candidate_scores(augmented(rm, cfg, (2, 5)))[0]
            subset = [2, 5, 0]
            sw = direct_within(rm, cfg)[np.ix_(subset, subset)]
            b = direct_between_vector(rm)[subset]
            dense = scipy.linalg.eigh(np.outer(b, b), sw, eigvals_only=True)[-1]
            assert lam == pytest.approx(dense, rel=1e-8, abs=1e-8)

    def test_singular_candidate_returns_sentinel(self):
        rng = np.random.default_rng(12)
        base = rng.choice(np.array([-1, 1], dtype=np.int8), size=(20, 1))
        rm = samples(np.hstack([base, base]), np.where(rng.random(20) < 0.5, 1, -1))
        cfg = ScatterConfig(ridge=0.0)
        assert candidate_scores(augmented(rm, cfg, [0]))[1] == REJECTED


class TestForwardSelect:
    def test_first_pick_is_exhaustive_single_feature_argmax(self):
        # Continuous sample weights keep candidate scores generic; with raw
        # counts, +/-1 columns that share count signatures tie exactly and the
        # two computation paths may rank the tied pair differently by an ulp.
        rng = np.random.default_rng(13)
        for _ in range(20):
            rm = random_rm(rng, 30, 9)
            w = rng.random(30)
            w /= w.sum()
            cfg = ScatterConfig()
            sw_diag = np.diag(direct_within(rm, cfg, w))
            b = direct_between_vector(rm, w)
            expect = int(np.argmax(b**2 / sw_diag))
            assert forward_select(rm, cfg, 1, w).selected == [expect]

    def test_trajectory_matches_from_scratch_greedy(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            rm = random_rm(rng, 40, 10)
            w = rng.random(40)
            w /= w.sum()
            cfg = ScatterConfig()
            assert forward_select(rm, cfg, 3, w).selected == from_scratch_greedy(rm, cfg, 3, w)

    def test_weighted_trajectory_matches_from_scratch_greedy(self):
        rng = np.random.default_rng(15)
        rm = random_rm(rng, 40, 8)
        w = rng.random(40)
        w /= w.sum()
        cfg = ScatterConfig()
        assert forward_select(rm, cfg, 3, w).selected == from_scratch_greedy(rm, cfg, 3, w)

    def test_duplicate_best_columns_take_lower_index(self):
        rng = np.random.default_rng(16)
        labels = np.array([1] * 10 + [-1] * 10)
        good = np.where(labels > 0, 1, -1).astype(np.int8)
        noise = rng.choice(np.array([-1, 1], dtype=np.int8), size=20)
        rm = ResponseTable(np.vstack([noise, good, good]), labels)
        assert forward_select(rm, ScatterConfig(), 1).selected == [1]

    def test_no_separating_feature(self):
        rm = samples(np.ones((6, 2), dtype=np.int8), [1, 1, 1, -1, -1, -1])
        with pytest.raises(ValueError, match="no separating feature"):
            forward_select(rm, ScatterConfig(ridge=0.0), 1)

    def test_eigenvalue_monotone_along_selection(self):
        rng = np.random.default_rng(17)
        rm = random_rm(rng, 50, 12)
        sel = GreedySelector(*rm.packed, ScatterConfig())
        prev = 0.0
        while sel.step() is not None:
            lam = sel.eig
            assert lam >= prev - 1e-9
            prev = lam

    def test_cardinality_capped(self):
        rng = np.random.default_rng(18)
        rm = random_rm(rng, 30, 10)
        assert len(forward_select(rm, ScatterConfig(), 4).selected) == 4

    def test_greedy_bounded_by_exhaustive(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            rm = random_rm(rng, 30, 8)
            cfg = ScatterConfig()
            lam = forward_select(rm, cfg, 3).eig
            assert lam <= exhaustive_best_subset(rm, cfg, 3) + 1e-9

    def test_inverse_consistency_after_long_run(self):
        rng = np.random.default_rng(20)
        rm = random_rm(rng, 80, 40)
        sel = forward_select(rm, ScatterConfig(), 40)
        sw = direct_within(rm, ScatterConfig())[np.ix_(sel.selected, sel.selected)]
        assert np.max(np.abs(sel.inv @ sw - np.eye(len(sel.selected)))) < 1e-8


class TestFromSubset:
    def test_empty_subset_is_fresh_selector(self):
        rng = np.random.default_rng(28)
        rm = random_rm(rng, 20, 5)
        cfg = ScatterConfig()
        sel = GreedySelector(*rm.packed, cfg, selected=[])
        assert sel.selected == []
        assert sel.eig == 0.0
        assert np.array_equal(candidate_scores(sel), candidate_scores(GreedySelector(*rm.packed, cfg)))

    def test_matches_direct_inversion(self):
        rng = np.random.default_rng(29)
        for weighted in (False, True):
            rm = random_rm(rng, 40, 10)
            w = None
            if weighted:
                w = rng.random(40)
                w /= w.sum()
            cfg = ScatterConfig(ridge=1e-6)
            subset = [7, 2, 4]
            sel = GreedySelector(*rm.packed, cfg, w, selected=subset)
            sw = direct_within(rm, cfg, w)[np.ix_(subset, subset)]
            assert sel.selected == subset
            assert np.max(np.abs(sel.inv @ sw - np.eye(3))) < 1e-8
            assert sel.eig == pytest.approx(subset_eigenvalue(rm, cfg, subset, w), rel=1e-8)

    def test_continues_like_augmented_selector(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            rm = random_rm(rng, 40, 10)
            w = rng.random(40)
            w /= w.sum()
            cfg = ScatterConfig()
            grown = GreedySelector(*rm.packed, cfg, w)
            for _ in range(3):
                grown.step()
            restarted = GreedySelector(*rm.packed, cfg, w, selected=grown.selected)
            assert np.allclose(candidate_scores(restarted), candidate_scores(grown), rtol=1e-8)
            assert restarted.step() == grown.step()


class TestBackwardEliminate:
    def test_all_essential_unchanged(self):
        # Three orthogonal-ish informative features: removing any one loses a
        # large eigenvalue share (verified by the oracle below).
        rng = np.random.default_rng(21)
        rm = random_rm(rng, 60, 6)
        cfg = ScatterConfig()
        sel = forward_select(rm, cfg, 3)
        lam_full = sel.eig
        drops = []
        for j in range(len(sel.selected)):
            rest = [f for idx, f in enumerate(sel.selected) if idx != j]
            drops.append(lam_full - subset_eigenvalue(rm, cfg, rest))
        if min(drops) < scatter._ELIM_FRACTION * lam_full:
            pytest.skip("instance not in the all-essential regime")
        out = eliminated(sel, rm, cfg)
        assert out.selected == sel.selected

    def test_duplicate_selected_feature_removed(self):
        rng = np.random.default_rng(22)
        labels = np.where(rng.random(40) < 0.4, 1, -1)
        labels[:2] = [1, -1]
        a = rng.choice(np.array([-1, 1], dtype=np.int8), size=40)
        b = np.where(labels > 0, 1, -1).astype(np.int8)
        rm = ResponseTable(np.vstack([a, b, b]), labels)
        cfg = ScatterConfig(ridge=1e-6)
        sel = augmented(rm, cfg, (1, 2, 0))
        before, lam = list(sel.selected), sel.eig
        sel.eliminate()
        assert len(sel.selected) < len(before)
        assert sel.eig == pytest.approx(lam, abs=1e-8 * (1 + lam))
        sw = direct_within(rm, cfg)[np.ix_(sel.selected, sel.selected)]
        assert np.max(np.abs(sel.inv @ sw - np.eye(len(sel.selected)))) < 1e-8

    def test_oracle_agreement_on_random_instances(self, monkeypatch):
        # The removal rule is checked against direct recomputation: a feature
        # may go only while the smallest eigenvalue drop stays below the
        # configured fraction.
        monkeypatch.setattr(scatter, "_ELIM_FRACTION", 0.25)
        rng = np.random.default_rng(23)
        for _ in range(10):
            rm = random_rm(rng, 50, 10)
            cfg = ScatterConfig()
            picked = forward_select(rm, cfg, 4)
            out = eliminated(picked, rm, cfg)
            # replay the rule with the oracle
            sel = list(picked.selected)
            lam = subset_eigenvalue(rm, cfg, sel)
            while len(sel) >= 2:
                drops = [lam - subset_eigenvalue(rm, cfg, sel[:j] + sel[j + 1 :]) for j in range(len(sel))]
                j = int(np.argmin(drops))
                if drops[j] >= 0.25 * lam:
                    break
                del sel[j]
                lam = subset_eigenvalue(rm, cfg, sel)
            assert out.selected == sel

    def test_single_feature_state_unchanged(self):
        rng = np.random.default_rng(24)
        rm = random_rm(rng, 20, 3)
        sel = augmented(rm, ScatterConfig(), [0])
        assert sel.eliminate() == []
        assert sel.selected == [0]


class TestLdaWeights:
    def test_single_feature_unit(self):
        rng = np.random.default_rng(25)
        rm = random_rm(rng, 20, 3)
        w = forward_select(rm, ScatterConfig(), 1).direction()
        assert w.shape == (1,)
        assert abs(abs(w[0]) - 1.0) < 1e-12

    def test_beats_random_directions(self):
        rng = np.random.default_rng(26)
        rm = random_rm(rng, 60, 8)
        cfg = ScatterConfig()
        sel = forward_select(rm, cfg, 4)
        w = sel.direction()
        sw = direct_within(rm, cfg)[np.ix_(sel.selected, sel.selected)]
        b = direct_between_vector(rm)[sel.selected]

        def quotient(v):
            return float((v @ b) ** 2 / (v @ sw @ v))

        q_star = quotient(w)
        for _ in range(100):
            v = rng.normal(size=len(sel.selected))
            v /= np.linalg.norm(v)
            assert q_star >= quotient(v) - 1e-9

    def test_scale_invariance_of_direction(self):
        rng = np.random.default_rng(27)
        rm = random_rm(rng, 30, 5)
        sel = forward_select(rm, ScatterConfig(), 3)
        w = sel.direction()
        sel.b = 3.7 * sel.b
        assert np.allclose(w, sel.direction(), atol=1e-12)

    def test_zero_between_direction_rejected(self):
        # Identical class means: b is zero on every feature.
        rm = samples([[1, -1], [-1, 1], [1, -1], [-1, 1]], [1, 1, -1, -1])
        sel = augmented(rm, ScatterConfig(), [0])
        with pytest.raises(ValueError, match="zero between-class direction"):
            sel.direction()


# Round 9 of train_node(values, labels, NodeGoal(), "bgslda1", fixed_rounds=10)
# on the whole 24x24 pool (PoolParams(24)) of `synth --size 24 --n-pos 300
# --n-neg 600 --reservoir 6 --scenes 0 --seed 0`: the 8 chosen stumps' outputs
# and those of the candidate that scoring admitted, over the 900 samples, with
# the round's weights.  The sample columns take 9 distinct values, each with
# its own label and weight; ROUND_9_RUNS spells them out in sample order,
# which the weighted sums depend on.
ROUND_9_COLUMNS = [  # (the 9 rows' outputs, label, weight)
    ("+++++++++", 1, 6.847626612613988e-06),
    ("+++++++-+", 1, 0.2499999999999999),
    ("+++++-+++", 1, 0.0655797200690232),
    ("---------", -1, 3.423813306306994e-06),
    ("---+-----", -1, 0.008200032868605284),
    ("--+-----+", -1, 0.008203456681912701),
    ("----+----", -1, 0.016396641923913047),
    ("-+----+--", -1, 0.1666480572194109),
    ("+-----+-+", -1, 0.08335879040720191),
]
ROUND_9_RUNS = [
    (0, 14), (1, 1), (0, 14), (2, 1), (0, 6), (1, 1), (0, 101), (2, 1), (0, 161), (3, 8), (4, 1),
    (3, 16), (4, 1), (3, 94), (5, 1), (3, 66), (6, 1), (3, 28), (5, 1), (3, 21), (6, 1), (3, 49),
    (6, 1), (3, 34), (7, 1), (3, 29), (8, 1), (3, 67), (4, 1), (3, 2), (4, 1), (3, 91), (6, 1),
    (3, 83),
]


def round_9_state():
    """(rows, labels, weights) of the captured round: 9 int8 rows over 900
    samples, in C order like the table the selector once read in place
    (einsum's sums follow the layout)."""
    ids, counts = zip(*ROUND_9_RUNS)
    cols = np.repeat(ids, counts)
    outputs, labels, weights = zip(*ROUND_9_COLUMNS)
    signs = np.array([[1 if ch == "+" else -1 for ch in s] for s in outputs], dtype=np.int8)
    return np.ascontiguousarray(signs[cols].T), np.array(labels)[cols], np.array(weights)[cols]


def ridge_limited_table(rng, n_pos=100, n_neg=200, m=20, n_patterns=4):
    """A weighted +/-1 table on which some rows together separate the classes.

    On each class every row is one of a few shared patterns, or a constant,
    times a sign, so rows that share their patterns differ by a vector that
    is constant within each class.  The restricted scatter of such rows rests
    on the ridge, and the weights span eight decades as boosting's do."""

    def half(n):
        patterns = np.vstack([rng.choice(np.array([-1, 1], dtype=np.int8), size=(n_patterns, n)),
                              np.ones((1, n), dtype=np.int8)])
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, 1))
        return patterns[rng.integers(0, n_patterns + 1, size=m)] * signs

    labels = np.r_[np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)]
    w = np.exp(rng.uniform(np.log(1e-8), 0.0, size=len(labels)))
    return ResponseTable(np.hstack([half(n_pos), half(n_neg)]), labels), w / w.sum()


class TestRidgeLimitedSelection:
    def test_round_9_candidate_is_picked_as_scored(self):
        # Its complement is rounding noise: +4.05e-7 as the whole table's
        # products give it against a diagonal of 261.5, -2.27e-6 from the
        # candidate's own column.  Scoring and augmenting read the former.
        rows, labels, w = round_9_state()
        sel = GreedySelector(packed(rows), labels, ScatterConfig(), w, selected=range(8))
        assert candidate_scores(sel)[8] != REJECTED
        assert sel.step() == 8
        assert sel.selected == list(range(9))
        again = GreedySelector(packed(rows), labels, ScatterConfig(), w, selected=range(8))
        augment(again, 8)
        assert np.array_equal(again.inv, sel.inv)

    def test_round_9_scores_do_not_depend_on_the_layout(self):
        # np.einsum sums in another order over a Fortran-ordered int8 table:
        # read in place, it scored candidate 8 at -inf; the C-ordered table
        # scores it 1.144e9.  The selector unpacks C-ordered blocks of its
        # packed table, whatever the layout handed to it, and scores as the
        # C-ordered int8 table did.
        rows, labels, w = round_9_state()
        bits = packed(rows)
        c_order = GreedySelector(bits, labels, ScatterConfig(), w, selected=range(8))
        fortran = GreedySelector(np.asfortranarray(bits), labels, ScatterConfig(), w, selected=range(8))
        assert fortran.bits.flags.c_contiguous
        assert candidate_scores(fortran).tobytes() == candidate_scores(c_order).tobytes()
        assert candidate_scores(fortran)[8] != REJECTED
        ref = UnpackedScatter(ResponseTable(rows, labels), ScatterConfig(), w)
        cross = ref.cross(range(8))
        assert ref.scores(cross, list(range(8)), c_order.inv, c_order.eig).tobytes() == candidate_scores(c_order).tobytes()
        assert GreedySelector(bits, labels, ScatterConfig(), w).bits is bits  # C order is held, not copied

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_step_stops_or_augments_on_separable_tables(self, seed):
        rm, w = ridge_limited_table(np.random.default_rng(seed))
        sel = GreedySelector(*rm.packed, ScatterConfig(), w)
        while True:
            before = list(sel.selected)
            j = sel.step()
            if j is None:
                break
            assert sel.selected == before + [j]


def edge_table(rng, n, m):
    """A random +/-1 table of m rows on n samples with both classes present,
    holding an all +1 row, an all -1 row and duplicate rows among them."""
    rm = random_rm(rng, n, m)
    rows = rm.responses.copy()
    rows[rng.integers(m)] = 1
    rows[rng.integers(m)] = -1
    dup = rng.integers(m, size=2)
    rows[dup[1]] = rows[dup[0]]
    return ResponseTable(rows, rm.labels)


class TestPackedSelector:
    """The selector reads packed outputs a block of rows at a time: its
    means, diagonal, S_w rows and scores must be those of the whole
    unpacked int8 table (oracles.UnpackedScatter) bit for bit, with unit
    weights (popcounts) and boosting weights (unpacked blocks), for any N
    and across blocks."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 7, 8, 9, 63, 64, 65, 100, 128, 131, 200]),
           st.integers(4, 40), st.booleans(), st.integers(1, 9))
    def test_matches_the_unpacked_table(self, seed, n, m, weighted, block_rows):
        rng = np.random.default_rng(seed)
        rm = edge_table(rng, n, m)
        w = None
        if weighted:
            w = rng.random(n) * 10.0 ** rng.uniform(-8, 0, size=n)
            w /= w.sum()
        cfg = ScatterConfig(gamma=float(rng.choice([1.0, 1.7])), ridge=1e-6)
        ref = UnpackedScatter(rm, cfg, w)
        start = sorted(rng.choice(m, size=int(rng.integers(0, 3)), replace=False).tolist())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stumps, "_BLOCK_BYTES", n * block_rows)
            sel = GreedySelector(*rm.packed, cfg, w, selected=start)
            for name in ("mu_p", "mu_n", "b", "diag"):
                assert getattr(sel, name).tobytes() == getattr(ref, name).tobytes(), name
            if start:
                assert sel._rows.tobytes() == ref.cross(start).tobytes()
            rows = rng.integers(0, m, size=3)
            assert sel.cross(rows).tobytes() == ref.cross(rows).tobytes()
            for _ in range(3):
                want = ref.scores(sel._rows, sel.selected, sel.inv, sel.eig)
                assert candidate_scores(sel).tobytes() == want.tobytes()
                if sel.step() is None:
                    break
                assert sel._rows[-1].tobytes() == ref.cross([sel.selected[-1]])[0].tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
    def test_weights_must_be_finite_and_nonnegative(self, bad):
        # NaN weights once gave NaN scores and a selector that picked
        # nothing; a negative weight, a negative class mass.
        rm = random_rm(np.random.default_rng(31), 12, 4)
        w = np.full(12, 1 / 12)
        w[3] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            GreedySelector(*rm.packed, ScatterConfig(), w)
