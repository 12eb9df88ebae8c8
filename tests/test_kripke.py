"""Frames, products, the truth relation, bounded reachability, JSON formats."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from onevar.formulas import FormulaStore, box_upto
from onevar.kripke import (CoordinateCodec, Frame1, FrameList, LaneLayout,
                           ModelFormatError, ProductModel, ShiftPlan,
                           bounded_reach, check, check_naive, ladder,
                           product, reflexive_closure, repunit, restrict,
                           sat_mask, sat_set, symmetric_closure,
                           transitive_closure)
from onevar.search import BLOCK_BITS, FactorClass, enumerate_frames
from tests.test_formulas import random_formula


def label_names(frame, worlds):
    inverse = {w: name for name, w in frame.labels.items()}
    return sorted(inverse[w] for w in worlds)


def relation(plan, modality):
    """Sorted edge list of relation ``modality`` (1-based), read off the
    plan's offsets."""
    return sorted((w, w + d) for d, sources in plan.steps[modality - 1]
                  for w in range(plan.worlds) if sources >> w & 1)


def tiled(plan, copies):
    """``copies`` disjoint copies of a plan, copy ``c`` on worlds ``c*n ..
    c*n + n - 1``: each source mask repeated at the start of every copy."""
    n = plan.worlds
    ones = int(("0" * (n - 1) + "1") * copies, 2)
    return ShiftPlan(plan.arity, n * copies,
                     tuple(tuple((d, sources * ones) for d, sources in row)
                           for row in plan.steps))


def definition(factors, modality):
    """Sorted edge list of relation ``modality`` (1-based) of the product,
    by the definition: coordinate ``i`` moves along factor ``i``, the others
    stay."""
    i = modality - 1
    codec = CoordinateCodec(f.worlds for f in factors)
    return sorted(
        (codec.index(c), codec.index(c[:i] + (y,) + c[i + 1:]))
        for c in itertools.product(*(range(f.worlds) for f in factors))
        for y in factors[i].succ[c[i]])


class TestFrame1:
    def test_edges_validated(self):
        with pytest.raises(ValueError):
            Frame1(2, [(0, 2)])

    def test_equality_ignores_labels(self):
        a = Frame1(2, [(0, 1)], {"root": 0})
        b = Frame1(2, [(0, 1)])
        assert a == b and hash(a) == hash(b)

    def test_reflexive_flag(self):
        assert Frame1(2, [(0, 0), (1, 1)]).is_reflexive
        assert not Frame1(2, [(0, 0), (0, 1)]).is_reflexive


class TestClosures:
    def test_reflexive_closure_empty(self):
        assert reflexive_closure([], 2) == ((0, 0), (1, 1))

    def test_reflexive_closure_idempotent(self):
        r = reflexive_closure([(0, 1)], 2)
        assert reflexive_closure(r, 2) == r == ((0, 0), (0, 1), (1, 1))

    def test_transitive_closure(self):
        assert transitive_closure([(0, 1), (1, 2)], 3) == \
            ((0, 1), (0, 2), (1, 2))

    def test_symmetric_closure(self):
        assert symmetric_closure([(0, 1)], 2) == ((0, 1), (1, 0))


class TestLadder:
    def test_smallest_ladder(self):
        frame = ladder(1)
        assert frame.worlds == 4
        loops = {(w, w) for w in range(4)}
        chain = {(0, 1), (1, 2), (2, 3)}  # v0->w0, w0->v1, v1->w1
        assert set(frame.edges) == loops | chain
        assert frame.labels == {"v0": 0, "w0": 1, "v1": 2, "w1": 3}

    def test_point_and_edge_counts(self):
        for k in range(1, 6):
            frame = ladder(k)
            assert frame.worlds == 2 * (k + 1)
            assert len(frame.edges) == 2 * (k + 1) + (2 * k + 1)

    def test_only_terminal_is_last_w(self):
        # brute-force scan of the built relation
        for k in range(1, 6):
            frame = ladder(k)
            terminals = [w for w in range(frame.worlds)
                         if all(y == w for y in frame.succ[w])]
            assert terminals == [frame.labels[f"w{k}"]]

    def test_path_visits_points_in_order(self):
        frame = ladder(3)
        order = ["v0", "w0", "v1", "w1", "v2", "w2", "v3", "w3"]
        walk = [frame.labels["v0"]]
        while True:
            nxt = [y for y in frame.succ[walk[-1]] if y != walk[-1]]
            if not nxt:
                break
            walk.append(nxt[0])
        assert walk == [frame.labels[name] for name in order]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ladder(0)


class TestProduct:
    def test_single_points(self):
        one = Frame1(1, [(0, 0)])
        frame = product([one, one])
        assert frame.worlds == 1
        assert relation(frame, 1) == [(0, 0)] == relation(frame, 2)

    def test_edge_counts(self):
        # count by the definition on the materialized product
        f1 = Frame1(2, [(0, 0), (0, 1), (1, 1)])
        f2 = Frame1(3, [(0, 1), (1, 2), (2, 0)])
        frame = product([f1, f2])
        assert frame.worlds == 6
        assert len(relation(frame, 1)) == len(f1.edges) * 3
        assert len(relation(frame, 2)) == 2 * len(f2.edges)

    def test_grid_adjacency(self):
        # product of a reflexive 2-chain with itself: relation 1 moves only
        # the left coordinate
        chain = Frame1(2, [(0, 0), (1, 1), (0, 1)])
        frame = product([chain, chain])
        index = CoordinateCodec([2, 2]).index
        for (a, b), (c, d) in [((0, 0), (1, 0)), ((0, 1), (1, 1))]:
            assert (index((a, b)), index((c, d))) in relation(frame, 1)
        assert (index((0, 0)), index((0, 1))) not in relation(frame, 1)

    def test_coherence_random(self):
        # every relation-i edge changes exactly coordinate i, and its i-th
        # projection is a factor edge
        rng = random.Random(5)
        for _ in range(25):
            factors = []
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(1, 3)
                cells = [(a, b) for a in range(n) for b in range(n)]
                edges = [c for c in cells if rng.random() < 0.5]
                factors.append(Frame1(n, edges))
            frame = product(factors)
            codec = CoordinateCodec(f.worlds for f in factors)
            for i in range(1, len(factors) + 1):
                for a, b in relation(frame, i):
                    ca, cb = codec.coords(a), codec.coords(b)
                    for pos in range(len(factors)):
                        if pos == i - 1:
                            assert (ca[pos], cb[pos]) in set(
                                factors[pos].edges)
                        else:
                            assert ca[pos] == cb[pos]

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            product([])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_plan_is_the_product_definition(self, data):
        # product() builds the plan from the factors' edges; regrouping the
        # defined relation by offset, world by world, must give the same
        # steps, in increasing offset order
        factors = []
        for _ in range(data.draw(st.integers(1, 3))):
            n = data.draw(st.integers(1, 4))
            cells = [(a, b) for a in range(n) for b in range(n)]
            factors.append(Frame1(n, data.draw(
                st.lists(st.sampled_from(cells), unique=True))))
        plan = product(factors)
        assert plan.arity == len(factors)
        assert plan.worlds == CoordinateCodec(
            f.worlds for f in factors).worlds
        for i, row in enumerate(plan.steps, start=1):
            sources = {}
            for a, b in definition(factors, i):
                sources[b - a] = sources.get(b - a, 0) | 1 << a
            assert list(row) == sorted(sources.items())


class TestRepunit:
    def test_matches_the_division_formula(self):
        for step in range(1, 71):
            for count in range(71):
                assert repunit(step, count) == \
                    ((1 << step * count) - 1) // ((1 << step) - 1)


class TestLaneLayout:
    @staticmethod
    def runs(frames, valuations):
        """The runs of lanes the search checks as blocks: whole frames while
        a frame's valuations fit in a block, else block-sized slices of one
        frame."""
        block = 1 << BLOCK_BITS
        if valuations > block:
            return [(k * valuations + v, min(block, valuations - v))
                    for k in range(frames) for v in range(0, valuations, block)]
        per = block // valuations
        return [(k * valuations, min(per, frames - k) * valuations)
                for k in range(0, frames, per)]

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_block_plan_is_the_lanes_of_its_frames(self, data):
        # a block's plan is the OR of its frames' plans, each tiled over the
        # frame's lanes in the block and shifted to the first of them;
        # frames run in itertools.product order of the lists
        lists = [enumerate_frames(data.draw(st.sampled_from(list(FactorClass))),
                                  data.draw(st.integers(1, 3)))
                 for _ in range(data.draw(st.integers(1, 2)))]
        valuations = data.draw(st.sampled_from([1, 2, 8, 512, 5000]))
        layout = LaneLayout([FrameList(lst) for lst in lists], valuations)
        frames = 1
        for lst in lists:
            frames *= len(lst)
        assert layout.frames == frames
        runs = self.runs(frames, valuations)
        # the first run, the last (often short) and one more
        picks = {0, len(runs) - 1,
                 data.draw(st.integers(0, len(runs) - 1))}
        n = layout.codec.worlds
        for first, count in (runs[i] for i in sorted(picks)):
            expected = [{} for _ in lists]
            products = itertools.islice(itertools.product(*lists),
                                        first // valuations, None)
            lane = first
            while lane < first + count:
                k, v = divmod(lane, valuations)
                width = min(valuations - v, first + count - lane)
                factors = next(products)
                assert layout.factors(k) == factors
                plan = tiled(product(factors), width)
                for row, sources in zip(plan.steps, expected):
                    for d, mask in row:
                        sources[d] = (sources.get(d, 0)
                                      | mask << (lane - first) * n)
                lane += width
            plan = layout.plan(first, count)
            assert plan.worlds == count * n
            assert plan.steps == tuple(tuple(sorted(sources.items()))
                                       for sources in expected)

    def test_runs_across_frames_must_cover_them(self):
        chain = Frame1(2, [(0, 0), (1, 1), (0, 1)])
        layout = LaneLayout([FrameList([chain, chain])], 4)
        for first, count in ((2, 4), (0, 6), (0, 0), (4, 8)):
            with pytest.raises(ValueError):
                layout.plan(first, count)


class TestCoordinateCodec:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3))
    def test_coords_and_index_invert_each_other(self, sizes):
        # decoding one world agrees with the enumeration the product is
        # built from, and encoding the decoded tuple gives the world back
        codec = CoordinateCodec(sizes)
        tuples = list(itertools.product(*(range(s) for s in sizes)))
        assert len(tuples) == codec.worlds
        for w in range(codec.worlds):
            assert codec.coords(w) == tuples[w]
            assert codec.index(codec.coords(w)) == w

    def test_coords_rejects_missing_worlds(self):
        codec = CoordinateCodec([2, 3])
        for w in (-1, 6):
            with pytest.raises(ValueError):
                codec.coords(w)


class TestRestrict:
    def test_identity(self):
        frame = ladder(2)
        assert restrict(frame, range(frame.worlds)) == frame

    def test_preserves_reflexivity(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 5)
            extra = [(a, b) for a in range(n) for b in range(n)
                     if rng.random() < 0.4]
            frame = Frame1(n, reflexive_closure(extra, n))
            keep = [w for w in range(n) if rng.random() < 0.7] or [0]
            assert restrict(frame, keep).is_reflexive

    def test_ladder_prefix(self):
        frame = restrict(ladder(2), [0, 1])  # v0 and w0
        assert set(frame.edges) == {(0, 0), (1, 1), (0, 1)}
        assert frame.labels == {"v0": 0, "w0": 1}

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            restrict(ladder(1), [])


class TestTruth:
    def test_box_on_single_reflexive_world(self, store):
        one = Frame1(1, [(0, 0)])
        model = ProductModel([one], {0: [0]}, 0)
        assert sat_set(model, store.box(1, store.var(0))) == {0}

    def test_box_on_active_ladder(self, store):
        # p on w1..wk: the only world forced to see p everywhere is wk
        for k in range(1, 5):
            frame = ladder(k)
            marked = [frame.labels[f"w{i}"] for i in range(1, k + 1)]
            model = ProductModel([frame], {0: marked}, 0)
            sat = sat_set(model, store.box(1, store.var(0)))
            assert label_names(frame, sat) == [f"w{k}"]

    def test_tautology_everywhere(self, store):
        frame = ladder(2)
        model = ProductModel([frame], {0: [1, 3]}, 0)
        f = store.or_(store.var(0), store.not_(store.var(0)))
        assert sat_set(model, f) == frozenset(range(frame.worlds))

    def test_bottom_nowhere(self, store):
        model = ProductModel([Frame1(1, [(0, 0)])], {}, 0)
        assert not check(model, model.point, store.bottom())

    def test_check_is_membership(self, store):
        frame = Frame1(2, [(0, 1)])
        model = ProductModel([frame], {0: [1]}, 0)
        assert not check(model, 0, store.var(0))
        assert check(model, 1, store.var(0))

    def test_unknown_world_rejected(self, store):
        model = ProductModel([Frame1(1, [(0, 0)])], {}, 0)
        with pytest.raises(ValueError):
            check(model, 3, store.bottom())

    def test_modality_out_of_range(self, store):
        model = ProductModel([Frame1(1, [(0, 0)])], {}, 0)
        from onevar.formulas import ModalityError
        with pytest.raises(ModalityError):
            sat_set(model, store.box(2, store.bottom()))

    def test_unvalued_variables_are_false(self, store):
        model = ProductModel([Frame1(1, [(0, 0)])], {}, 0)
        assert sat_set(model, store.var(7)) == frozenset()

    def test_frame_of_other_factors_rejected(self):
        # a passed frame must be the product of the model's factors, or
        # worlds would be decoded through the wrong codec
        chain = Frame1(2, [(0, 0), (1, 1), (0, 1)])
        with pytest.raises(ValueError):
            ProductModel([chain, chain], {}, 0, product([chain]))
        with pytest.raises(ValueError):
            ProductModel([chain], {}, 0,
                         product([chain, Frame1(1, [(0, 0)])]))

    def test_masks_entry_point_rejects_stray_bits(self):
        # three worlds: masks 0..7 are valuations, anything else is not
        chain = Frame1(3, [(0, 1), (1, 2)])
        model = ProductModel.from_masks([chain], {1: 0b101, 2: 0}, 0)
        assert model.valuation == {1: frozenset({0, 2}), 2: frozenset()}
        assert model.to_json() == ProductModel(
            [chain], {1: [2, 0], 2: []}, 0).to_json()
        for bad in (-1, 1 << 3, 0b1001):
            with pytest.raises(ValueError):
                ProductModel.from_masks([chain], {1: bad}, 0)


class TestDifferential:
    def test_sat_set_agrees_with_naive(self):
        # 200 random (model, formula) pairs against the no-cache evaluator
        store = FormulaStore()
        rng = random.Random(123)
        for _ in range(200):
            arity = rng.randint(1, 2)
            factors = []
            for _ in range(arity):
                n = rng.randint(1, 3)
                cells = [(a, b) for a in range(n) for b in range(n)]
                factors.append(Frame1(n, [c for c in cells
                                          if rng.random() < 0.5]))
            frame = product(factors)
            valuation = {v: [w for w in range(frame.worlds)
                             if rng.random() < 0.4]
                         for v in range(0, 4)}
            model = ProductModel(factors, valuation, 0, frame)
            f = random_formula(store, rng, arity=arity)
            sat = sat_set(model, f)
            for w in range(frame.worlds):
                assert (w in sat) == check_naive(model, w, f)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_sat_mask_agrees_with_naive(self, data):
        # the search's entry point: world masks in, no model; the model
        # built from the same masks is how a witness reaches check_naive.
        # Three factors give a middle factor, whose stride is neither 1 nor
        # the largest.
        arity = data.draw(st.integers(1, 3))
        factors = []
        for _ in range(arity):
            n = data.draw(st.integers(1, 3))
            cells = [(a, b) for a in range(n) for b in range(n)]
            edges = data.draw(st.lists(st.sampled_from(cells), unique=True))
            factors.append(Frame1(n, edges))
        frame = product(factors)
        masks = {v: data.draw(st.integers(0, (1 << frame.worlds) - 1))
                 for v in range(1, 4)}
        store = FormulaStore()
        f = random_formula(store, random.Random(data.draw(st.integers())),
                           arity=arity)
        mask = sat_mask(frame, masks, f, {})
        model = ProductModel(
            factors, {v: [w for w in range(frame.worlds) if m >> w & 1]
                      for v, m in masks.items()}, 0, frame)
        for w in range(frame.worlds):
            assert bool(mask >> w & 1) == check_naive(model, w, f)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_block_lanes_agree_with_single_valuations(self, data):
        # V valuations side by side on a tiled plan, as the search checks
        # them: lane v is sat_mask on valuation v alone and check_naive at
        # every world.
        arity = data.draw(st.integers(1, 3))
        factors = []
        for _ in range(arity):
            n = data.draw(st.integers(1, 3))
            cells = [(a, b) for a in range(n) for b in range(n)]
            edges = data.draw(st.lists(st.sampled_from(cells), unique=True))
            factors.append(Frame1(n, edges))
        frame = product(factors)
        n = frame.worlds
        valuations = data.draw(st.lists(
            st.fixed_dictionaries({v: st.integers(0, (1 << n) - 1)
                                   for v in range(1, 4)}),
            min_size=1, max_size=8))
        store = FormulaStore()
        f = random_formula(store, random.Random(data.draw(st.integers())),
                           arity=arity)
        block = {v: sum(val[v] << lane * n
                        for lane, val in enumerate(valuations))
                 for v in range(1, 4)}
        plan = LaneLayout([FrameList([factor]) for factor in factors],
                          len(valuations)).plan(0, len(valuations))
        assert plan.steps == tiled(frame, len(valuations)).steps
        lanes = sat_mask(plan, block, f, {})
        assert lanes >> n * len(valuations) == 0
        for lane, val in enumerate(valuations):
            mask = sat_mask(frame, val, f, {})
            assert lanes >> lane * n & (1 << n) - 1 == mask
            model = ProductModel(
                factors, {v: [w for w in range(n) if m >> w & 1]
                          for v, m in val.items()}, 0, frame)
            for w in range(n):
                assert bool(mask >> w & 1) == check_naive(model, w, f)

    def test_shift_plan_lists_every_edge_once(self):
        # the plan is the product relation regrouped by offset: reading the
        # edges back off it gives each defined edge exactly once; the
        # backward edges 2 -> 0 and 1 -> 0 give negative offsets
        chain = Frame1(3, [(0, 1), (1, 2), (2, 0), (1, 1)])
        swap = Frame1(2, [(0, 1), (1, 0)])
        factors = [chain, swap, chain]
        plan = product(factors)
        for i, row in enumerate(plan.steps, start=1):
            edges = definition(factors, i)
            assert relation(plan, i) == edges
            assert [d for d, _ in row] == sorted({b - a for a, b in edges})
            assert any(d < 0 for d, _ in row)


class TestBoundedReach:
    def test_zero_steps(self):
        chain = Frame1(3, [(0, 1), (1, 2)])
        frame = product([chain])
        assert bounded_reach(frame, 0, 0, [1]) == {0}

    def test_monotone_and_saturating(self):
        chain = Frame1(3, reflexive_closure([(0, 1), (1, 2)], 3))
        frame = product([chain, chain])
        previous = None
        for k in range(6):
            reach = bounded_reach(frame, 0, k, [1, 2])
            if previous is not None:
                assert previous <= reach
            previous = reach
        assert previous == frozenset(range(9))

    def test_dims_subset(self):
        chain = Frame1(2, [(0, 0), (1, 1), (0, 1)])
        frame = product([chain, chain])
        # moving only along dimension 2 never changes the first coordinate
        coords = CoordinateCodec([2, 2]).coords
        for w in bounded_reach(frame, 0, 3, [2]):
            assert coords(w)[0] == coords(0)[0]

    def test_correspondence_with_box_upto(self, store):
        # box_upto(k, f) at x iff f holds everywhere within k steps; the
        # box_upto side by the naive evaluator, which reads the factors, and
        # the reach side on the plan, on 50 random models
        rng = random.Random(77)
        for _ in range(50):
            n_factors = rng.randint(1, 2)
            factors = []
            for _ in range(n_factors):
                size = rng.randint(1, 3)
                cells = [(a, b) for a in range(size) for b in range(size)]
                factors.append(Frame1(size, [c for c in cells
                                             if rng.random() < 0.5]))
            frame = product(factors)
            model = ProductModel(
                factors,
                {1: [w for w in range(frame.worlds) if rng.random() < 0.5]},
                0, frame)
            f = store.var(1)
            k = rng.randint(0, 3)
            for dims in (range(1, n_factors + 1), range(2, n_factors + 1)):
                lifted = box_upto(store, dims, k, f)
                for x in range(frame.worlds):
                    reached = bounded_reach(frame, x, k, dims)
                    expected = all(check_naive(model, y, f) for y in reached)
                    assert check_naive(model, x, lifted) == expected

    def test_bad_dims_rejected(self):
        frame = product([Frame1(1, [(0, 0)])])
        with pytest.raises(ValueError):
            bounded_reach(frame, 0, 1, [2])


class TestJson:
    def test_frame_round_trip(self):
        frame = ladder(2)
        doc = json.loads(json.dumps(frame.to_json()))
        back = Frame1.from_json(doc)
        assert back == frame and back.labels == frame.labels

    def test_model_round_trip(self):
        chain = Frame1(2, [(0, 0), (1, 1), (0, 1)])
        model = ProductModel.from_coords(
            [chain, Frame1(1, [(0, 0)])],
            {1: [(0, 0)], 2: [(1, 0)]},
            (0, 0))
        doc = json.loads(json.dumps(model.to_json()))
        back = ProductModel.from_json(doc)
        assert back.valuation == model.valuation
        assert back.point == model.point
        assert [f.edges for f in back.factors] == \
            [f.edges for f in model.factors]

    def test_reserved_variable_key(self):
        model = ProductModel.from_coords([Frame1(1, [(0, 0)])],
                                         {0: [(0,)]}, (0,))
        assert "p" in model.to_json()["valuation"]

    def test_malformed_rejected(self):
        with pytest.raises(ModelFormatError):
            Frame1.from_json({"edges": [[0, 1]]})
        with pytest.raises(ModelFormatError):
            ProductModel.from_json({"factors": [], "point": []})
        with pytest.raises(ModelFormatError):
            ProductModel.from_json({
                "factors": [{"worlds": 1, "edges": [[0, 0]]}],
                "valuation": {"q1": [[0]]},
                "point": [0]})
