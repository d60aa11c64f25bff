import dataclasses
import json
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gslda_cascade import cascade, cli, detect, features, scatter, stumps
from gslda_cascade.boosting import BoostingConfig, init_weights, prune_stumps
from gslda_cascade.cascade import (
    METHODS,
    BootstrapExhaustedError,
    CascadeModel,
    NodeClassifier,
    NodeGoal,
    TrainingPool,
    _threshold_for_scores,
    bootstrap_negatives,
    evaluate_windows,
    lattice_corners,
    train_cascade,
    train_node,
)
from gslda_cascade.features import FeatureExtractor, PatchSums, PoolParams, build_integral, build_pool
from gslda_cascade.model_io import load_manifest, load_model
from gslda_cascade.pgm import read_pgm, write_pgm
from gslda_cascade.scatter import GreedySelector, ScatterConfig
from gslda_cascade.stumps import DecisionStump, StumpTrainer
from gslda_cascade.synth import ToyDatasetSpec, axis_stump_pool, generate_toy
from oracles import bootstrap_negatives as scalar_bootstrap_negatives
from oracles import (
    ResponseTable,
    bgslda_pick,
    bgslda_table,
    decide_window,
    eval_haar,
    forward_select,
    integral_image,
    node_margin,
    pool_features,
    pyramid_windows,
    random_rm,
    table_of,
    weighted_error,
)
from pinned_nodes import PINNED


def sums_of(values):
    """Continuous values as an int32 table of sums: 2**16 times them, rounded."""
    return np.round(values * 2**16).astype(np.int32)


def separable_values(rng, n_pos=30, n_neg=50, extra=4):
    labels = np.array([1] * n_pos + [-1] * n_neg)
    noise = sums_of(rng.normal(size=(extra, n_pos + n_neg)))
    return np.vstack([labels.astype(np.int32), noise]), labels


def mini_corpus(rng, n_pos=50, n_neg=120, size=8):
    """Light patches with a dark center block vs pure noise."""
    pos = rng.integers(140, 200, size=(n_pos, size, size))
    pos[:, 2:6, 2:6] = rng.integers(0, 50, size=(n_pos, 4, 4))
    neg = rng.integers(0, 256, size=(n_neg, size, size))
    reservoir = [rng.integers(0, 256, size=(32, 32)) for _ in range(8)]
    return pos, neg, reservoir


class TestNodeDecide:
    def test_boundary_convention_accepts(self):
        node = NodeClassifier([DecisionStump(0, 0.0, 1)], [0.0], 0.0, "adaboost")
        assert node_margin(node, np.array([1])) >= 0

    def test_single_stump_passthrough(self):
        node = NodeClassifier([DecisionStump(0, 0.0, 1)], [1.0], 0.0, "adaboost")
        assert node_margin(node, np.array([1])) >= 0
        assert node_margin(node, np.array([-1])) < 0

    def test_hand_margin(self):
        node = NodeClassifier(
            [DecisionStump(0, 0.0, 1), DecisionStump(1, 0.0, 1)],
            [0.6, 0.8],
            -0.5,
            "adaboost",
        )
        assert node_margin(node, np.array([1, -1])) == pytest.approx(-0.7)
        assert node_margin(node, np.array([1, -1])) < 0

    def test_length_mismatch_rejected(self):
        node = NodeClassifier([DecisionStump(0, 0.0, 1)], [1.0], 0.0, "adaboost")
        with pytest.raises(ValueError):
            node_margin(node, np.array([1, -1]))


class TestTuneNodeThreshold:
    """The d_min rule node retuning applies to the validation positives' scores."""

    def _threshold(self, t, responses, d_min):
        node = NodeClassifier([DecisionStump(i, 0.0, 1) for i in range(t)], np.ones(t), 0.0, "adaboost")
        return _threshold_for_scores(node_margin(node, responses), d_min)

    def test_dmin_one_accepts_every_positive(self):
        rng = np.random.default_rng(0)
        responses = np.where(rng.random((3, 40)) < 0.5, 1, -1)
        theta = self._threshold(3, responses, 1.0)
        scores = responses.sum(axis=0)
        assert theta == pytest.approx(-float(scores.min()))
        assert np.all(scores + theta >= 0)

    def test_quantile_count(self):
        rng = np.random.default_rng(1)
        responses = np.where(rng.random((9, 200)) < 0.5, 1, -1)
        theta = self._threshold(9, responses, 0.995)
        passed = np.sum(responses.sum(axis=0) + theta >= 0)
        assert passed >= 199

    def test_monotone_in_dmin(self):
        rng = np.random.default_rng(2)
        responses = np.where(rng.random((5, 60)) < 0.5, 1, -1)
        thetas = [self._threshold(5, responses, d) for d in (0.5, 0.8, 0.95, 1.0)]
        assert thetas == sorted(thetas)


class TestTrainNode:
    @pytest.mark.parametrize("method", METHODS)
    def test_separable_pool_single_stump(self, method):
        rng = np.random.default_rng(3)
        values, labels = separable_values(rng)
        goal = NodeGoal(d_min=0.99, f_max=0.3)
        node, _ = train_node(values, labels, goal, method)
        assert len(node.stumps) == 1
        assert node.stumps[0].feature_id == 0
        assert node.false_positive_rate == 0.0
        assert node.detection_rate == 1.0
        assert node.goal_met

    def test_gslda_selection_equals_forward_select(self):
        rng = np.random.default_rng(4)
        n = 90
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        values = sums_of(rng.normal(size=(12, n)) + 0.35 * labels * rng.normal(size=(12, 1)))
        rounds = 5
        node, _ = train_node(
            values, labels, NodeGoal(d_min=0.99, f_max=0.5), "gslda", fixed_rounds=rounds
        )
        table = StumpTrainer(values, labels).train_all(init_weights(labels))
        ref = forward_select(ResponseTable(table.responses(range(len(table))), labels), ScatterConfig(), rounds)
        assert [s.feature_id for s in node.stumps] == ref.selected

    def test_fixed_rounds_contract(self):
        # At most fixed_rounds stumps, none repeated.  A boosted node ends
        # early at a stump of weighted error 0, one that separates its
        # training set: the reweight leaves it the least error, and every
        # later round would pick it again.  Feature 0 separates here.
        rng = np.random.default_rng(5)
        values, labels = separable_values(rng)
        for method in METHODS:
            node, _ = train_node(values, labels, NodeGoal(), method, fixed_rounds=4)
            fids = [s.feature_id for s in node.stumps]
            assert len(fids) <= 4 and len(set(fids)) == len(fids), method
            if method in ("adaboost", "asymboost"):
                last = node.stumps[-1]
                assert len(fids) < 4 and np.array_equal(last.responses(values[last.feature_id], 1), labels)
            else:
                assert len(fids) == 4, method

    def test_bgslda_never_reuses_a_feature(self):
        rng = np.random.default_rng(6)
        n = 80
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        values = sums_of(rng.normal(size=(10, n)) + 0.3 * labels * rng.normal(size=(10, 1)))
        node, _ = train_node(values, labels, NodeGoal(), "bgslda1", fixed_rounds=6)
        fids = [s.feature_id for s in node.stumps]
        assert len(set(fids)) == len(fids)

    def test_goal_not_met_flagged(self):
        rng = np.random.default_rng(7)
        n = 60
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        values = sums_of(rng.normal(size=(3, n)))  # uninformative features
        goal = NodeGoal(d_min=0.99, f_max=0.01, max_stumps=3)
        node, _ = train_node(values, labels, goal, "adaboost")
        assert not node.goal_met
        assert len(node.stumps) == 3
        assert node.false_positive_rate > goal.f_max

    def test_validation_mask_holds_out_positives(self):
        rng = np.random.default_rng(8)
        values, labels = separable_values(rng, n_pos=40, n_neg=40)
        mask = np.zeros(80, dtype=bool)
        mask[:10] = True  # first ten positives held out
        node, _ = train_node(values[:, ~mask], labels[~mask], NodeGoal(d_min=0.9, f_max=0.4), "gslda",
                             validation=values[:, mask])
        assert node.detection_rate >= 0.9

    def test_dual_pass_keeps_the_met_node_when_elimination_breaks_the_goal(self, monkeypatch):
        rng = np.random.default_rng(0)
        n = 80
        labels = np.where(rng.random(n) < 0.4, 1, -1)
        values = sums_of(rng.normal(size=(20, n)) + 0.3 * labels * rng.normal(size=(20, 1)))
        goal = NodeGoal(d_min=0.99, f_max=0.3)
        original, removed = GreedySelector.eliminate, []

        def eliminate(sel):
            removed.append(original(sel))
            return removed[-1]

        monkeypatch.setattr(GreedySelector, "eliminate", eliminate)
        monkeypatch.setattr(scatter, "_ELIM_FRACTION", 0.5)
        (forward, forward_accepted), (dual, dual_accepted) = [
            train_node(values, labels, goal, "gslda", scatter_cfg=ScatterConfig(dual_pass=dual_pass))
            for dual_pass in (False, True)
        ]
        assert removed == [removed[0]] and removed[0]  # one backward pass dropped stumps; the goal check undid it
        assert np.array_equal(dual_accepted, forward_accepted)  # the decisions the kept node was built with
        assert forward.goal_met and dual.goal_met
        assert [s.feature_id for s in dual.stumps] == [s.feature_id for s in forward.stumps]
        assert np.array_equal(dual.coefficients, forward.coefficients)
        assert (dual.node_threshold, dual.false_positive_rate) == (forward.node_threshold, forward.false_positive_rate)

    def test_a_chosen_row_keeps_no_table_alive(self):
        # The fit keeps the outputs table.stump(j) returns as they are, so
        # they must be an array of their own: a view into an array of several
        # rows (a block of outputs, or the table) would hold that whole array.
        values, labels = separable_values(np.random.default_rng(10))
        fit = cascade._NodeFit(np.ones(len(values)), labels, None, NodeGoal(), "adaboost")
        table = StumpTrainer(values, labels).train_all(init_weights(labels))
        stump, row = table.stump(2)
        fit.add(stump, row)
        assert fit.train_rows[-1] is row and (row.base is None or row.base.size == row.size)
        trained = weakref.ref(table)
        del table
        assert trained() is None

    def test_unknown_method_rejected(self):
        rng = np.random.default_rng(9)
        values, labels = separable_values(rng)
        with pytest.raises(ValueError):
            train_node(values, labels, NodeGoal(), "floatboost")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.02, 0.1]), st.sampled_from(["random", "eps", "2eps"]))
def test_bgslda_pick_matches_oracle(seed, eps, chosen_from):
    # Continuous weights keep the candidates' scores apart, as in
    # TestForwardSelect, so that no ulp-level tie decides the pick.  Choosing
    # every survivor of a prune sends the pick to its fallbacks.
    rng = np.random.default_rng(seed)
    n, m = 40, 12
    rm = random_rm(rng, n, m)
    w = rng.random(n)
    w /= w.sum()
    table = table_of(rm.responses, [weighted_error(r, rm.labels, w) for r in rm.responses], rm.labels)
    cfg = BoostingConfig(prune_epsilon=eps)
    if chosen_from == "random":
        chosen = rng.permutation(m)[: rng.integers(0, 4)].tolist()
    else:
        slack = eps if chosen_from == "eps" else 2 * eps
        chosen = prune_stumps(table, w, BoostingConfig(prune_epsilon=slack))[0].tolist()
    rows = [rng.choice(np.array([-1, 1], dtype=np.int8), size=n) for _ in chosen]
    fit = SimpleNamespace(chosen=[DecisionStump(j, 0.0, 1) for j in chosen], train_rows=rows, labels=rm.labels)
    picked, sel = cascade._bgslda_pick(fit, table, w, ScatterConfig(), cfg)
    assert picked == bgslda_pick(rm, w, table.errors, chosen, rows, ScatterConfig(), eps)
    # The selector reads its table where it was built once: the chosen rows,
    # then the unchosen survivors' outputs, C-ordered, as the whole table has them.
    allowed, expected = bgslda_table(table, w, cfg, chosen, rows)
    if allowed:
        assert sel.responses.flags.c_contiguous and sel.responses.tobytes() == expected.tobytes()
    else:
        assert picked is None and sel is None


def _node_peak(values, labels, method, rounds):
    """tracemalloc's peak, above its entry, while train_node grows one node."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        train_node(values, labels, NodeGoal(), method, fixed_rounds=rounds)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def _trainer_bytes(values, labels):
    """The arrays a StumpTrainer holds beside the table: its order and tie bits."""
    trainer = StumpTrainer(values, labels)
    return trainer.order.nbytes + trainer._ties.nbytes


@pytest.mark.parametrize("method", ["gslda", "bgslda1"])
def test_selection_memory_stays_near_adaboost(method):
    # Selection reads one int8 stump table in place: the node's peak stays
    # within the trainer's arrays, that table and two block budgets for the
    # temporaries, none of which a change of the boosted rounds moves.  Every
    # row survives bgslda1's prune here.  A float64 copy of the 3,000 x 800
    # table alone (18 MiB), or a second int8 table held across a retrain,
    # would break the bound.
    rng = np.random.default_rng(0)
    labels = np.where(rng.random(800) < 0.5, 1, -1)
    values = sums_of(rng.normal(size=(3000, 800)))
    bound = _trainer_bytes(values, labels) + values.size + 2 * stumps._BLOCK_BYTES
    assert _node_peak(values, labels, method, 4) <= bound


@pytest.mark.parametrize("method", ["adaboost", "bgslda1"])
def test_boosted_rounds_build_no_stump_table(method):
    # A boosted round reads the outputs of the stump it picks, or of the few
    # that survive the prune (12 to 14 of 3,000 here), never an (M, N) table:
    # the peak stays within the trainer's arrays, train_all's temporaries
    # (under 3 block budgets, TestMemoryBound) and one budget more.  One int8
    # table of the 3,000 x 2,000 stumps (6 MB) would break it.
    rng = np.random.default_rng(1)
    labels = np.where(rng.random(2000) < 0.5, 1, -1)
    values = sums_of(rng.normal(size=(3000, 2000)))
    values[:16] += sums_of(labels * rng.uniform(1, 2, size=(16, 1)))  # a few strong features
    bound = _trainer_bytes(values, labels) + 4 * stumps._BLOCK_BYTES
    assert _node_peak(values, labels, method, 3) <= bound


def _pin_case(case):
    """(values, labels, goal, validation, fixed_rounds, area) of a pinned case."""
    if case == "toy-fixed4":
        points, labels = generate_toy(ToyDatasetSpec(n_pos=40, n_neg=400, seed=0))
        return axis_stump_pool(points)[0], labels, NodeGoal(d_min=0.99, f_max=0.5), None, 4, None
    rng = np.random.default_rng(15)  # goal-driven; the dual pass drops three of ten stumps
    n = 120
    labels = np.where(rng.random(n) < 0.4, 1, -1)
    values = sums_of(rng.normal(size=(16, n)) + 0.4 * labels * rng.normal(size=(16, 1)))
    mask = (labels > 0) & (rng.random(n) < 0.25)  # positives held out for validation
    goal = NodeGoal(d_min=0.95, f_max=0.2, max_stumps=12)
    return values[:, ~mask], labels[~mask], goal, values[:, mask], None, np.full(16, 2**16)


@pytest.mark.parametrize("case,variant", list(PINNED))
def test_node_layer_is_pinned(case, variant):
    values, labels, goal, validation, rounds, area = _pin_case(case)
    node, accepted = train_node(values, labels, goal, variant.split("-")[0],
                                scatter_cfg=ScatterConfig(dual_pass=variant.endswith("-dual")),
                                validation=validation, fixed_rounds=rounds, area=area)
    # accepted is the node's own decision on every training column, with or
    # without held-out positives and after the dual pass drops stumps.
    area = np.ones(len(values)) if area is None else area
    margins = node_margin(node, [s.responses(values[s.feature_id], area[s.feature_id]) for s in node.stumps])
    assert accepted.dtype == bool and np.array_equal(accepted, margins >= 0)
    assert node.false_positive_rate == np.mean(accepted[labels < 0])
    stumps_, coefficients, threshold, d, f, goal_met = PINNED[case, variant]
    assert [(s.feature_id, s.threshold, s.polarity) for s in node.stumps] == stumps_
    assert node.coefficients.tolist() == pytest.approx(coefficients, rel=1e-12)
    assert node.node_threshold == pytest.approx(threshold, rel=1e-12)
    assert node.detection_rate == pytest.approx(d, rel=1e-12)
    assert node.false_positive_rate == pytest.approx(f, rel=1e-12)
    assert node.goal_met == goal_met


class TestCascade:
    def make_pool(self, rng):
        pos, neg, reservoir = mini_corpus(rng)
        return TrainingPool(pos, neg, reservoir, validation_split=0.2)

    def test_bookkeeping_products_and_goals(self):
        rng = np.random.default_rng(10)
        pool = self.make_pool(rng)
        feats = build_pool(PoolParams(8, stride=2, min_size=2))
        goal = NodeGoal(d_min=0.95, f_max=0.6, max_stumps=25)
        model = train_cascade(pool, goal, f_target=0.2, method="gslda",
                              feature_pool=feats, seed=7)
        assert len(model.nodes) >= 1
        d_run, f_run = 1.0, 1.0
        for (d, f), (dc, fc) in zip([(n.detection_rate, n.false_positive_rate) for n in model.nodes],
                                    model.cumulative):
            d_run *= d
            f_run *= f
            assert abs(dc - d_run) < 1e-12
            assert abs(fc - f_run) < 1e-12
        for node in model.nodes:
            assert node.detection_rate >= goal.d_min or not node.goal_met
            assert node.false_positive_rate <= goal.f_max or not node.goal_met

    def test_pool_on_another_window_raises(self):
        # Such a model would be saved, and then refused on load.
        rng = np.random.default_rng(16)
        pos, neg, reservoir = mini_corpus(rng, n_pos=20, n_neg=40, size=16)
        with pytest.raises(ValueError, match="base_window"):
            train_cascade(TrainingPool(pos, neg, reservoir), NodeGoal(), f_target=0.5, method="adaboost",
                          feature_pool=build_pool(PoolParams(8)))

    def test_f_target_one_trains_nothing(self):
        rng = np.random.default_rng(11)
        pool = self.make_pool(rng)
        feats = build_pool(PoolParams(8, stride=2, min_size=2))
        model = train_cascade(pool, NodeGoal(), f_target=1.0, method="adaboost",
                              feature_pool=feats, seed=0)
        assert model.nodes == []

    def train_to_bootstrap(self, reservoir):
        """gslda on noise patches whose positives have a darker center: the
        first node meets f_max = 0.5 at f = 1/3, so its false positives are
        kept and the reservoir is scanned for more."""
        rng = np.random.default_rng(10)
        pos = rng.integers(0, 256, size=(50, 8, 8))
        pos[:, 2:6, 2:6] = rng.integers(0, 160, size=(50, 4, 4))
        neg = rng.integers(0, 256, size=(120, 8, 8))
        return train_cascade(TrainingPool(pos, neg, reservoir), NodeGoal(f_max=0.5), f_target=0.001,
                             method="gslda", feature_pool=build_pool(PoolParams(8, stride=2, min_size=2)))

    def test_empty_reservoir_stops_as_bootstrap_exhausted(self):
        model = self.train_to_bootstrap([])
        assert len(model.nodes) == 1 and 0 < model.nodes[0].false_positive_rate <= 0.5
        assert model.stage_log[-1] == {"stop_reason": "bootstrap_exhausted"}

    def test_other_bootstrap_errors_propagate(self, monkeypatch):
        # Only an exhausted reservoir ends training quietly; a fault in the
        # bootstrap scan is not logged as one.
        def broken(*args, **kwargs):
            raise ValueError("broken scan")

        monkeypatch.setattr(cascade, "evaluate_windows", broken)
        with pytest.raises(ValueError, match="broken scan"):
            self.train_to_bootstrap([np.zeros((32, 32), dtype=np.uint8)])

    def test_product_arithmetic_three_halving_stages(self):
        # Stage rates measured at exactly 0.5 must multiply to 0.125.
        rates = [0.5, 0.5, 0.5]
        f = 1.0
        for r in rates:
            f *= r
        assert f == pytest.approx(0.125, abs=1e-15)

    def test_methods_interchangeable_at_detection_time(self):
        rng = np.random.default_rng(12)
        pos, neg, _ = mini_corpus(rng, n_pos=30, n_neg=60)
        feats = build_pool(PoolParams(8, stride=2, min_size=2))
        goal = NodeGoal(d_min=0.9, f_max=0.7, max_stumps=8)
        patch = pos[0]
        for method in METHODS:
            pool = TrainingPool(pos, neg, [], validation_split=0.0)
            model = train_cascade(pool, goal, f_target=0.5, method=method,
                                  feature_pool=feats, seed=1)
            if model.nodes:
                accepted, _, _, _ = decide_window(model, integral_image(patch))
                assert isinstance(accepted, bool)
                kept, _, _ = evaluate_windows(model, build_integral(patch), range(1), range(1), len(model.nodes))
                assert accepted == (kept.size == 1)


@pytest.mark.parametrize("method", ["gslda", "bgslda1", "adaboost"])
def test_stage_tables_reach_the_sort_as_integer_sums(monkeypatch, tmp_path, method):
    # The stump sort's fast path needs integer sums in contiguous rows; a
    # float upcast on the way would only make training slower, which no byte
    # test sees.  Nor would a table of a stage's sums, or a second
    # extraction of its rows.  Each stage reaches train_node as the PatchSums
    # view of its patches, and every trainer gets the view: GSLDA's extracts
    # each block of rows once inside its one train_all, keeping no order;
    # the stored-order trainer of the other methods extracts each block once
    # for its sort, and its train_all reads nothing of the view.  Every
    # round extracts its chosen stump's row once, for the stump and its
    # outputs together, and the held-out view's row once.  Beyond them only
    # BGSLDA's prune reads rows, its candidates'.  No method extracts a
    # whole table.
    seen, handed, extracted, blocks, stump_reads, held = [], [], [], [], [], []
    reads = {}  # per view: its reads, ("block", rows) or ("rows", rows)
    trained = {}  # per view: the reads of each train_all call
    row_reads = {}  # per view: (source, row indices) of each read of listed rows
    chosen = {}  # per view: the rows of its stump(j) calls
    source, picking = [], []  # the StumpTable method reading, innermost last; set in BGSLDA's pick

    class Spy(StumpTrainer):
        def __init__(self, values, labels, area=None, keep_order=True):
            seen.append((values, area))
            assert keep_order == (method != "gslda")
            super().__init__(values, labels, area, keep_order)

        def train_all(self, *args):
            before = len(reads.get(id(self.values), []))
            table = super().train_all(*args)
            trained.setdefault(id(self.values), []).append(reads.get(id(self.values), [])[before:])
            return table

    def spy_node(values, *args, **kwargs):
        handed.append(values)
        held.append(kwargs["validation"])
        return train_node(values, *args, **kwargs)

    def spy_pick(*args):
        picking.append(True)
        try:
            return bgslda_pick(*args)
        finally:
            picking.pop()

    def spy_responses(table, *args, **kwargs):
        source.append("pick" if picking else "round")
        try:
            return responses(table, *args, **kwargs)
        finally:
            source.pop()

    def spy_extract(self, patches):
        extracted.append(extract(self, patches))
        return extracted[-1]

    def spy_read(self, key):
        out = view_rows(self, key)
        if not isinstance(key, (int, np.integer)):  # an integer key reads through view[[key]]
            kind = "block" if isinstance(key, slice) else "rows"
            reads.setdefault(id(self), []).append((kind, len(out)))
            if kind == "rows":
                row_reads.setdefault(id(self), []).append((source[-1] if source else None, np.asarray(key).tolist()))
        return out

    def spy_stump(table, j):
        before = len(reads.get(id(table.sums), []))
        source.append("stump")
        try:
            got = stump(table, j)
        finally:
            source.pop()
        stump_reads.append(reads.get(id(table.sums), [])[before:])
        chosen.setdefault(id(table.sums), []).append(j)
        return got

    extract, view_rows, sorted_block = FeatureExtractor.extract, PatchSums.__getitem__, stumps._sorted_block
    stump, responses, bgslda_pick = stumps.StumpTable.stump, stumps.StumpTable.responses, cascade._bgslda_pick

    def spy_sort(block, *args):
        blocks.append((block.dtype.kind, block.flags.c_contiguous))
        return sorted_block(block, *args)

    monkeypatch.setattr(stumps, "StumpTrainer", Spy)
    monkeypatch.setattr(stumps.StumpTable, "stump", spy_stump)
    monkeypatch.setattr(stumps.StumpTable, "responses", spy_responses)
    monkeypatch.setattr(cascade, "_bgslda_pick", spy_pick)
    monkeypatch.setattr(cascade, "train_node", spy_node)
    monkeypatch.setattr(FeatureExtractor, "extract", spy_extract)
    monkeypatch.setattr(PatchSums, "__getitem__", spy_read)
    monkeypatch.setattr(stumps, "_sorted_block", spy_sort)
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(corpus), "--n-pos", "100", "--n-neg", "200",
                     "--reservoir", "2", "--scenes", "1", "--seed", "0"]) == 0
    model = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(corpus / "manifest.json"), "--out", str(model), "--method", method,
                     "--subsample", "16", "--max-stumps", "20", "--f-target", "0.001"]) == 0
    stages = sum("stage" in json.loads(line) for line in open(f"{model}.log.jsonl"))
    assert len(seen) == len(handed) == stages >= 2  # bootstrapped stages too
    assert extracted == []
    assert blocks and all(block == ("i", True) for block in blocks)
    assert stump_reads and all(r == [("rows", 1)] for r in stump_reads)
    area = FeatureExtractor(load_model(str(model)).feature_pool).area
    for (values, stage_area), view in zip(seen, handed):
        assert isinstance(view, PatchSums) and view.dtype.kind == "i"
        assert values is view
        # Every row extracted once in blocks, by the sort or the one pass;
        # each round then builds only the rows it reads.
        assert sum(n for kind, n in reads[id(view)] if kind == "block") == len(area)
        calls = trained[id(view)]
        if method == "gslda":  # the one pass
            assert [sum(n for _, n in r) for r in calls] == [len(area)]
        else:
            assert calls and all(r == [] for r in calls)
        assert np.array_equal(stage_area, area)
        # The chosen rows, each read once by its stump(j); beyond them only
        # BGSLDA's prune reads rows.
        got = row_reads.get(id(view), [])
        assert [rows for src, rows in got if src == "stump"] == [[j] for j in chosen[id(view)]]
        assert {src for src, _ in got} <= ({"stump", "pick"} if method == "bgslda1" else {"stump"})
    # The held-out positives' view: each chosen stump's row, once.
    assert len({id(v) for v in held}) == 1
    assert row_reads[id(held[0])] == [(None, [j]) for view in handed for j in chosen[id(view)]]


def test_each_stage_table_is_held_once(monkeypatch, tmp_path):
    # When a node starts, train_cascade holds the stage's patches, the
    # integral tables of their view and of the held-out positives' view, and
    # no table of sums: the stage's M x N sums are extracted inside the node.
    # The held bytes beside the two views' tables, over the int32 table of the
    # stage, read 0.06 and 0.14 here: the stage's patches and the pool's
    # decoded boxes and areas, which do not grow with the stage's width.  A
    # table of the stage's sums beside its view, even as int8 (0.25), breaks
    # the bound.
    held = []

    def traced_cascade(*args, **kwargs):
        tracemalloc.start()
        try:
            return train_cascade(*args, **kwargs)
        finally:
            tracemalloc.stop()

    def spy_node(values, *args, validation=None, **kwargs):
        extra = tracemalloc.get_traced_memory()[0] - values.tables.nbytes - validation.tables.nbytes
        held.append(extra / (values.shape[0] * values.shape[1] * 4))
        return train_node(values, *args, validation=validation, **kwargs)

    monkeypatch.setattr(cli, "train_cascade", traced_cascade)
    monkeypatch.setattr(cascade, "train_node", spy_node)
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(corpus), "--n-pos", "100", "--n-neg", "400",
                     "--reservoir", "2", "--scenes", "1", "--seed", "0"]) == 0
    model = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(corpus / "manifest.json"), "--out", str(model), "--method", "adaboost",
                     "--subsample", "16", "--max-stumps", "20", "--f-target", "0.001"]) == 0
    assert len(held) >= 2  # a bootstrapped stage too
    assert max(held) < 0.2, held


def test_training_peak_stays_near_the_stage_table():
    # The whole 16 x 16 pool (32,384 features) on 480 training samples, whose
    # int32 stage table would take 62 MB.  GSLDA builds none: its trainer
    # reads the stage's view one block of rows at a time, extracting, sorting,
    # training and writing the int8 outputs of each block once, and keeps no
    # sort order.  The node holds the int8 outputs (1/4 of the table's bytes),
    # the views' integral tables and one block's temporaries: about 0.35 x
    # the table.  The stage table itself (1.38 x with it), or a second int8
    # table, breaks the bound.
    rng = np.random.default_rng(0)
    pos, neg, _ = mini_corpus(rng, n_pos=100, n_neg=400, size=16)
    pool = TrainingPool(pos.astype(np.uint8), neg.astype(np.uint8), [], validation_split=0.2)
    feats = build_pool(PoolParams(16))
    assert len(feats) == 32_384
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        model = train_cascade(pool, NodeGoal(f_max=0.5), 0.5, "gslda", feats)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert len(model.nodes) == 1 and model.stage_log[-1] == {"stop_reason": "f_target_met"}
    table = len(feats) * (80 + 400) * 4  # int32 sums of 80 training positives and 400 negatives
    assert peak <= 0.45 * table, peak / table


@pytest.mark.parametrize("method", ["adaboost", "bgslda1"])
def test_retraining_node_peak_stays_below_the_stage_table(method):
    # The whole 16 x 16 pool on the same 480 training samples and 20 held-out
    # positives, as views.  A method that retrains builds no stage table
    # either: its trainer extracts each block of rows once, for the sort, and
    # holds the uint16 order (1/2 of the int32 table's bytes) and the packed
    # tie bits (1/32); each round reads the sums of the rows it builds and of
    # the chosen stump's row alone.  With the views' integral tables and one
    # block's temporaries the node peaks at about 0.60 x the table; holding
    # the table (1.60 x) breaks the bound.  Four negatives are copies of
    # training positives, so that no stump separates the set and the node
    # runs all three rounds.
    rng = np.random.default_rng(0)
    pos, neg, _ = mini_corpus(rng, n_pos=100, n_neg=400, size=16)
    neg[:4] = pos[:4]
    extractor = FeatureExtractor(build_pool(PoolParams(16)))
    labels = np.array([1] * 80 + [-1] * 400)
    view = extractor.sums(np.concatenate([pos[:80], neg]).astype(np.uint8))
    validation = extractor.sums(pos[80:].astype(np.uint8))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        node, _ = train_node(view, labels, NodeGoal(), method, validation=validation, fixed_rounds=3,
                             area=extractor.area)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert len(node.stumps) == 3
    table = len(extractor.area) * 480 * 4
    assert peak <= 0.7 * table, peak / table


def test_stage_hand_off_never_holds_two_stage_tables(monkeypatch):
    # Between two nodes train_cascade keeps the positive patches and the
    # negative ones the node accepted, mines the reservoir for fresh false
    # positives and hands the next stage over as the view of its patches.
    # A hand-off holds patches and integral tables, never sums: about 0.05 x
    # the stage's int32 table here, where copying the kept columns of the
    # old table into the next one held 1.68 x.  The positives are noise with
    # a darker center, so that each node accepts about half the negatives,
    # and the reservoir refills every stage to the first's width.
    rng = np.random.default_rng(0)
    pos = rng.integers(0, 256, size=(100, 16, 16), dtype=np.uint8)
    pos[:, 4:12, 4:12] = pos[:, 4:12, 4:12] // 4 * 3
    neg = rng.integers(0, 256, size=(400, 16, 16), dtype=np.uint8)
    reservoir = [rng.integers(0, 256, size=(96, 96), dtype=np.uint8) for _ in range(6)]
    pool = TrainingPool(pos, neg, reservoir, validation_split=0.2)
    feats = build_pool(PoolParams(16, subsample=2))
    shapes, peaks = [], []

    def spy_node(values, *args, **kwargs):
        if shapes:  # the peak since the last node returned: the hand-off's
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        shapes.append(values.shape)
        result = train_node(values, *args, **kwargs)
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(cascade, "train_node", spy_node)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        train_cascade(pool, NodeGoal(f_max=0.6, max_stumps=4), 0.2, "gslda", feats)
    finally:
        tracemalloc.stop()
    assert shapes == [(len(feats), 80 + 400)] * 3
    table = len(feats) * (80 + 400) * 4
    assert max(peaks) <= 0.25 * table, [p / table for p in peaks]


class TestPatchView:
    """train_cascade hands each stage to train_node as the PatchSums view of
    its patches, and every method trains from the view: GSLDA's one pass
    extracts each block of rows once, and the stored-order trainer extracts
    each block once for its sort, then per round the rows the round builds
    and the chosen stump's row.  Every node and cascade must equal the same
    training on the extracted tables bit for bit, on 8-bit patches (int32
    sums) and wide-pixel ones (int64 sums), with a ragged last block and
    without held-out positives."""

    @staticmethod
    def corpus(rng, pixels, n_pos, n_neg, size=8):
        """Noise patches, the first n_pos with a center block a third as bright."""
        high = 256 if pixels == "8-bit" else 2**22  # 2**22 puts the sums past int32
        patches = rng.integers(0, high, size=(n_pos + n_neg, size, size))
        patches[:n_pos, 2:6, 2:6] //= 3
        return patches.astype(np.uint8) if pixels == "8-bit" else patches

    @staticmethod
    def ragged_blocks(mp, m, n, block_rows, extract_rows):
        """The trainer's blocks of block_rows rows (of N + 1 complex entries),
        or one more when that divides m, and extraction's of extract_rows
        int64 rows (twice as many int32 ones), so that most reads of the
        trainer's blocks end in a ragged extraction block."""
        block_rows += m % block_rows == 0 and m > 1
        mp.setattr(stumps, "_BLOCK_BYTES", 16 * (n + 1) * block_rows)
        mp.setattr(features, "_BLOCK_BYTES", 8 * n * extract_rows)

    @staticmethod
    def assert_same_nodes(got, expected):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert [(s.feature_id, s.threshold.hex(), s.polarity) for s in a.stumps] == \
                [(s.feature_id, s.threshold.hex(), s.polarity) for s in b.stumps]
            assert a.coefficients.tobytes() == b.coefficients.tobytes()
            assert a.node_threshold.hex() == b.node_threshold.hex()
            assert (a.detection_rate, a.false_positive_rate, a.goal_met) == \
                (b.detection_rate, b.false_positive_rate, b.goal_met)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["8-bit", "wide"]), st.sampled_from(METHODS), st.integers(1, 7),
           st.integers(1, 3), st.booleans(), st.booleans())
    def test_node_equals_the_extracted_table(self, seed, pixels, method, block_rows, extract_rows, held_out,
                                             dual_pass):
        rng = np.random.default_rng(seed)
        pool = build_pool(PoolParams(8, stride=2, min_size=2, subsample=int(rng.integers(1, 4))))
        extractor = FeatureExtractor(pool)
        patches = self.corpus(rng, pixels, 30, 50)
        held = self.corpus(rng, pixels, 12, 0)
        labels = np.array([1] * 30 + [-1] * 50)
        goal = NodeGoal(d_min=0.9, f_max=0.3, max_stumps=6)
        cfg = ScatterConfig(dual_pass=dual_pass)
        with pytest.MonkeyPatch.context() as mp:
            self.ragged_blocks(mp, len(pool), len(labels), block_rows, extract_rows)
            view = extractor.sums(patches)
            assert view.dtype == (np.int32 if pixels == "8-bit" else np.int64)
            got, accepted = train_node(view, labels, goal, method, cfg, validation=extractor.sums(held)
                                       if held_out else None, area=extractor.area)
            expected, want = train_node(extractor.extract(patches), labels, goal, method, cfg,
                                        validation=extractor.extract(held) if held_out else None,
                                        area=extractor.area)
        self.assert_same_nodes([got], [expected])
        assert accepted.tobytes() == want.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(["8-bit", "wide"]), st.sampled_from(METHODS), st.integers(1, 7),
           st.integers(1, 3), st.sampled_from([0.0, 0.2]))
    def test_cascade_equals_the_extracted_tables(self, seed, pixels, method, block_rows, extract_rows, split):
        rng = np.random.default_rng(seed)
        pool = build_pool(PoolParams(8, stride=2, min_size=2))
        # 8 of the 80 negatives look like positives, so that no stage meets f_target alone.
        patches = self.corpus(rng, pixels, 48, 80)
        reservoir = list(self.corpus(rng, pixels, 0, 6, size=32))
        goal = NodeGoal(d_min=0.8, f_max=0.7, max_stumps=6)
        models = []
        with pytest.MonkeyPatch.context() as mp:
            self.ragged_blocks(mp, len(pool), 40 - int(split * 40) + 80, block_rows, extract_rows)
            for _ in range(2):  # the views, then the tables extracted from them
                training = TrainingPool(patches[:40], patches[40:], reservoir, validation_split=split)
                models.append(train_cascade(training, goal, 0.01, method, pool, seed=seed))
                mp.setattr(FeatureExtractor, "sums", lambda self, p: np.asarray(PatchSums(self, p)))
        got, expected = models
        assert len(got.nodes) >= 2
        self.assert_same_nodes(got.nodes, expected.nodes)
        strip = [{k: v for k, v in record.items() if k != "wall_time_s"} for record in got.stage_log]
        assert strip == [{k: v for k, v in r.items() if k != "wall_time_s"} for r in expected.stage_log]


def test_stage_one_f_is_the_scan_acceptance(tmp_path):
    # Training decides its validation and negative rows by DecisionStump.passes
    # on the integer sums, as the scan does: the logged stage-1 f must be the
    # share of the initial negatives that evaluate_windows accepts at scale 1,
    # and the logged d the share of the held-out positives (train_cascade's
    # draw with the default seed 0 and validation split 0.2).
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(corpus), "--n-pos", "100", "--n-neg", "200",
                     "--reservoir", "2", "--scenes", "0", "--seed", "0"]) == 0
    manifest = load_manifest(str(corpus / "manifest.json"))
    negatives = [build_integral(read_pgm(manifest.path(rel))) for rel in manifest.negatives]
    held_out = np.sort(np.random.default_rng(0).permutation(len(manifest.positives))[: int(0.2 * 100)])
    positives = [build_integral(read_pgm(manifest.path(manifest.positives[i]))) for i in held_out]
    for method in ("gslda", "bgslda1", "adaboost"):
        out = tmp_path / f"{method}.json"
        assert cli.main(["train", "--data", str(corpus / "manifest.json"), "--out", str(out), "--method", method,
                         "--subsample", "16", "--max-stumps", "20", "--f-target", "0.001"]) == 0
        model = load_model(str(out))
        stage = json.loads((tmp_path / f"{method}.json.log.jsonl").read_text().splitlines()[0])
        accepted = [sum(evaluate_windows(model, table, range(1), range(1), 1)[0].size for table in tables)
                    for tables in (positives, negatives)]
        assert 0 < stage["f"] < 1 and len(positives) == 20
        assert stage["d"] == accepted[0] / len(positives)
        assert stage["f"] == accepted[1] / len(negatives)
    # The d above is 1.0: the first node gives the held-out positives few
    # distinct scores, and a validation row decided otherwise moves none of
    # them across the d_min quantile.  So the held-out patches are rewritten
    # to put the gslda model's first stump's sum at its bound (passing), one
    # below it, or a tenth of the bound beyond either, 6, 4, 4 and 6 of them,
    # and gslda trains again on the same training patches with --dmin 0.05:
    # the threshold is then minus the highest validation score, and d the
    # share of held-out positives on the stump's better side, 10 of 20.  An
    # area off by one or by 1% in the validation rows moves the 4 at or
    # below the bound across it and changes the logged d, not the scan's.
    model = load_model(str(tmp_path / "gslda.json"))
    first, pool = model.nodes[0].stumps[0], model.feature_pool
    extractor = FeatureExtractor(pool)
    area = int(extractor.area[first.feature_id])
    bound = stumps._sum_bound(first.threshold, area, np.int32)
    assert abs(bound) >= 200 and area >= 20  # 1% and one pixel of area move the bound by 2 or more
    beyond = abs(bound) // 10
    wgt, x0, y0, x1, y1 = pool_features(pool)[first.feature_id].rects()[0]
    assert wgt == 1  # a pixel of this sub-rectangle adds to the sum as it is
    targets = [bound + beyond] * 6 + [bound] * 4 + [bound - 1] * 4 + [bound - 1 - beyond] * 6
    for i, target in zip(held_out.tolist(), targets):
        patch = read_pgm(manifest.path(manifest.positives[i])).astype(np.int64)
        need = target - int(extractor.extract(patch[None])[first.feature_id, 0])
        block = patch[y0:y1, x0:x1].ravel()
        for k in range(block.size):
            moved = min(max(block[k] + need, 0), 255) - block[k]
            block[k] += moved
            need -= moved
        patch[y0:y1, x0:x1] = block.reshape(y1 - y0, x1 - x0)
        assert extractor.extract(patch[None])[first.feature_id, 0] == target
        write_pgm(manifest.path(manifest.positives[i]), patch)
    out = tmp_path / "held-out-at-the-bound.json"
    assert cli.main(["train", "--data", str(corpus / "manifest.json"), "--out", str(out), "--method", "gslda",
                     "--subsample", "16", "--max-stumps", "20", "--f-target", "0.001", "--dmin", "0.05"]) == 0
    model = load_model(str(out))
    stage = json.loads((tmp_path / "held-out-at-the-bound.json.log.jsonl").read_text().splitlines()[0])
    assert model.nodes[0].stumps == [first] and model.nodes[0].coefficients[0] != 0
    positives = [build_integral(read_pgm(manifest.path(manifest.positives[i]))) for i in held_out]
    accepted = sum(evaluate_windows(model, table, range(1), range(1), 1)[0].size for table in positives)
    assert stage["d"] == accepted / len(positives) == 0.5


class TestBootstrap:
    def make_model(self, feats, nodes=None):
        return CascadeModel(nodes=nodes or [], feature_pool=feats, f_target=0.1)

    def test_empty_model_returns_first_windows(self):
        rng = np.random.default_rng(13)
        reservoir = [rng.integers(0, 256, size=(20, 20)) for _ in range(3)]
        feats = build_pool(PoolParams(8, stride=2, min_size=2))
        model = self.make_model(feats)
        out = bootstrap_negatives(model, reservoir, count=10, seed=42)
        assert out.shape == (10, 8, 8)
        again = bootstrap_negatives(model, reservoir, count=10, seed=42)
        assert np.array_equal(out, again)

    def test_rejecting_model_exhausts(self):
        rng = np.random.default_rng(14)
        reservoir = [rng.integers(0, 256, size=(20, 20))]
        feats = build_pool(PoolParams(8, stride=2, min_size=2))
        reject_all = NodeClassifier([DecisionStump(0, 0.0, 1)], [1.0], -1e18, "adaboost")
        model = self.make_model(feats, [reject_all])
        with pytest.raises(BootstrapExhaustedError, match="bootstrap exhausted"):
            bootstrap_negatives(model, reservoir, count=40, seed=0)

    def test_returned_windows_pass_the_cascade(self):
        rng = np.random.default_rng(15)
        reservoir = [rng.integers(0, 256, size=(24, 24)) for _ in range(4)]
        feats = build_pool(PoolParams(8, stride=2, min_size=2))
        # a permissive single-node model accepting roughly half the windows
        stump = DecisionStump(3, 0.0, 1)
        node = NodeClassifier([stump], [1.0], 0.0, "adaboost")
        model = self.make_model(feats, [node])
        try:
            out = bootstrap_negatives(model, reservoir, count=12, seed=3)
        except BootstrapExhaustedError:
            pytest.skip("model rejected nearly everything on this seed")
        for patch in out:
            accepted, _, _, _ = decide_window(model, integral_image(patch))
            assert accepted

    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize("count", [1, 7, 40, 500])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_equals_scalar_visit_order(self, seed, count, stride):
        rng = np.random.default_rng(16 + seed)
        reservoir = [rng.integers(0, 256, size=shape) for shape in ((20, 24), (7, 30), (16, 16))]
        feats = build_pool(PoolParams(8, stride=2, min_size=2))
        nodes = [
            NodeClassifier([DecisionStump(3, 0.0, 1), DecisionStump(11, -4.0, -1)], [0.7, 0.4], 0.2, "gslda"),
            NodeClassifier([DecisionStump(5, 2.0, 1)], [1.0], 0.5, "adaboost"),
        ]
        for depth in range(len(nodes) + 1):
            model = self.make_model(feats, nodes[:depth])
            try:
                expected = scalar_bootstrap_negatives(model, reservoir, count, seed=seed, stride=stride)
            except BootstrapExhaustedError:
                with pytest.raises(BootstrapExhaustedError):
                    bootstrap_negatives(model, reservoir, count, seed=seed, stride=stride)
                continue
            got = bootstrap_negatives(model, reservoir, count, seed=seed, stride=stride)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


def _hand_node(draw, features, size=st.integers(1, 10), ids=None):
    """1 to 10 stumps (size), so that a node can pass the 8 stumps of one
    uint8 pass code, on features drawn by ids (any of the pool's by
    default).  Thresholds lie on a quarter grid, at exact quotients k / area
    of the feature's base-scale area or at +/-inf; coefficients may be
    +/-0.0."""
    area = FeatureExtractor(features).area
    t = draw(size)
    stumps_ = []
    for _ in range(t):
        j = draw(st.integers(0, len(features) - 1) if ids is None else ids)
        a = int(area[j])
        threshold = draw(st.one_of(st.integers(-40, 40).map(lambda k: k / 4),
                                   st.integers(-16 * a, 16 * a).map(lambda k: k / a),
                                   st.sampled_from([-np.inf, np.inf])))
        stumps_.append(DecisionStump(j, threshold, draw(st.sampled_from([-1, 1]))))
    coefficient = st.one_of(st.floats(-1, 1, allow_nan=False), st.sampled_from([0.0, -0.0]))
    coefficients = [draw(coefficient) for _ in range(t)]
    return NodeClassifier(stumps_, coefficients, draw(st.floats(-1, 1, allow_nan=False)), "gslda")


def _assert_scan_matches_oracle(model, image, factor, step, reached):
    """evaluate_windows on build_integral(image) against oracles.decide_window
    on the oracle's own integral table, window by window at every scale; and
    the pyramid scan, its windows scanned and its Haar evaluations against
    evaluate_windows, scale by scale."""
    nodes = model.nodes
    # prefixes[d] ends at node d-1: its scalar score is node d-1's margin.
    prefixes = [dataclasses.replace(model, nodes=nodes[:d]) for d in range(len(nodes) + 1)]
    h, w = image.shape
    table, ii = build_integral(image), integral_image(image)
    by_scale = {}
    for x, y, _, scale in pyramid_windows(h, w, model.base_window, factor, step):
        by_scale.setdefault(scale, []).append((x, y))
    scanned = []  # per scale: the pyramid's columns as evaluate_windows gives them
    windows_total = evals_total = 0  # summed over the scales' lattices and evaluations
    for scale, windows in by_scale.items():
        # Each scale's windows are one lattice, x varying fastest.
        side, shift = (max(1, int(np.floor(v * scale + 0.5))) for v in (model.base_window, step))
        xs, ys = range(0, w - side + 1, shift), range(0, h - side + 1, shift)
        assert windows == [(x, y) for y in ys for x in xs]
        kept, scores, evals = evaluate_windows(model, table, xs, ys, reached, scale)
        windows_total += len(xs) * len(ys)
        evals_total += evals
        scanned.append((*lattice_corners(xs, ys, kept), np.full(kept.size, side), scores))
        oracle = [decide_window(model, ii, x, y, scale) for x, y in windows]
        stages = np.array([n_passed for _, n_passed, _, _ in oracle], dtype=int)
        assert kept.tolist() == np.flatnonzero(stages >= reached).tolist()
        assert scores.shape == (len(nodes) + 1, kept.size)
        for col, i in enumerate(kept.tolist()):
            accepted, n_passed, score, _ = oracle[i]
            assert scores[0, col] == 0.0
            # A window reaches node d-1 iff it passed d-1 nodes: NaN
            # exactly past its rejecting node.
            assert np.isnan(scores[1:, col]).tolist() == [n_passed < d - 1 for d in range(1, len(nodes) + 1)]
            for d in range(1, min(n_passed + 1, len(nodes)) + 1):
                margin = decide_window(prefixes[d], ii, *windows[i], scale)[2]
                assert scores[d, col].tobytes() == np.float64(margin).tobytes()
            if nodes:  # the last margin the scalar cascade evaluated
                assert scores[min(n_passed + 1, len(nodes)), col].tobytes() == np.float64(score).tobytes()
            assert accepted == (scores[-1, col] >= 0)
        assert evals == sum(n_evals for *_, n_evals in oracle)
    pyramid, pyramid_scanned, pyramid_evals = detect._scan_pyramid(model, image, factor, step, reached)
    assert (pyramid_scanned, pyramid_evals) == (windows_total, evals_total)
    if scanned:
        for got, expected in zip(pyramid, (np.concatenate(column, axis=-1) for column in zip(*scanned))):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    else:
        assert [column.size for column in pyramid] == [0] * 4


class TestEvaluateWindows:
    FEATURES = build_pool(PoolParams(8, stride=2, min_size=2))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_decide_window(self, data):
        draw = data.draw
        nodes = [_hand_node(draw, self.FEATURES) for _ in range(draw(st.integers(0, 3)))]
        reached = draw(st.integers(0, len(nodes)))
        model = CascadeModel(nodes=nodes, feature_pool=self.FEATURES, f_target=0.1)
        h, w = draw(st.integers(8, 20)), draw(st.integers(8, 20))
        image = np.random.default_rng(draw(st.integers(0, 2**16))).integers(0, 256, size=(h, w))
        factor = draw(st.sampled_from([1.1, 1.2, 1.25, 1.5]))
        step = draw(st.sampled_from([1.0, 2.0]))
        _assert_scan_matches_oracle(model, image, factor, step, reached)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pyramid_matches_scalar_oracle(self, data):
        # The scan's paths against the scalar cascade: a first node of one
        # stump (its pass bit decides), two (a pass-code table) or more than
        # 8 (late votes over the whole lattice); stumps at +/-inf; int32 and
        # int64 tables; step 1 (1-D slices) and 2 (2-D views) at the first
        # scales; and footprints that reach the window's bottom-right corner,
        # which the last window of a scale reads at the table's last entry,
        # the final entry of a 1-D slice.
        draw = data.draw
        corner = np.flatnonzero((self.FEATURES.box[:, 2:] == 8).all(axis=1)).tolist()
        ids = st.one_of(st.sampled_from(corner), st.integers(0, len(self.FEATURES) - 1))
        first = _hand_node(draw, self.FEATURES, size=st.sampled_from([1, 2, 9, 10]), ids=ids)
        nodes = [first] + [_hand_node(draw, self.FEATURES, ids=ids) for _ in range(draw(st.integers(0, 2)))]
        reached = draw(st.integers(0, len(nodes)))
        model = CascadeModel(nodes=nodes, feature_pool=self.FEATURES, f_target=0.1)
        h, w = draw(st.integers(8, 16)), draw(st.integers(8, 16))
        dtype = draw(st.sampled_from([np.int32, np.int64]))
        pixels = 256 if dtype == np.int32 else 2**24  # 8 x 8 pixels near 2**24 pass 2**31 / 16
        image = np.random.default_rng(draw(st.integers(0, 2**16))).integers(pixels // 2, pixels, size=(h, w))
        assert build_integral(image).dtype == dtype
        factor = draw(st.sampled_from([1.1, 1.2, 1.25, 1.5]))
        step = draw(st.sampled_from([1.0, 2.0]))
        _assert_scan_matches_oracle(model, image, factor, step, reached)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("total, dtype", [(2**27 - 1, np.int32), (2**27, np.int64), (2**30, np.int64)])
    def test_int32_and_int64_tables_match_the_oracle(self, total, dtype, sign):
        # The largest |table entry| of a one-signed image is its |total|, and
        # 16 * 2**27 = 2**31.  2**30 is the total of an 8 x 8 image of 2**24.
        rng = np.random.default_rng(total % 7)
        image = np.full((16, 20), total // 320) + rng.integers(-1, 2, size=(16, 20)) * (total // 1280)
        image[0, 0] += total - image.sum()
        image *= sign
        assert build_integral(image).dtype == dtype
        ii = integral_image(image)
        features = pool_features(self.FEATURES)
        nodes = []
        for t, size in enumerate([1, 3, 9]):
            # Thresholds at the values of some windows: exact ties with their sums.
            js = rng.integers(0, len(features), size=size).tolist()
            stumps_ = [DecisionStump(j, eval_haar(features[j], ii, *rng.integers(0, 3, size=2).tolist()),
                                     int(rng.choice([-1, 1]))) for j in js]
            nodes.append(NodeClassifier(stumps_, rng.uniform(-1, 1, size=size), 0.1 * t, "gslda"))
        model = CascadeModel(nodes=nodes, feature_pool=self.FEATURES, f_target=0.1)
        for reached in range(len(nodes) + 1):
            _assert_scan_matches_oracle(model, image, 1.2, 1.0, reached)

    @pytest.mark.parametrize("reached", [-1, 2])
    def test_reached_outside_the_cascade_raises(self, reached):
        node = NodeClassifier([DecisionStump(0, 0.0, 1)], [1.0], 0.0, "gslda")
        model = CascadeModel(nodes=[node], feature_pool=self.FEATURES, f_target=0.1)
        with pytest.raises(ValueError, match="reached"):
            evaluate_windows(model, build_integral(np.zeros((8, 8), dtype=np.uint8)), range(1), range(1), reached)
