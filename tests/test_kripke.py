"""Frames, products, the truth relation, bounded reachability, JSON formats."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import onevar.kripke
from onevar.formulas import (AND, BOT, BOX, IMP, OR, VAR, FormulaStore,
                             ModalityError, box_upto, postorder)
from onevar.kripke import (CoordinateCodec, Frame1, FrameList, LaneLayout,
                           ModelFormatError, ProductModel, ShiftPlan, _runs,
                           bit_indices, bounded_reach_mask, check,
                           check_naive, product, repunit, restrict, sat_mask,
                           sat_set)
from onevar.search import (BLOCK_BITS, FactorClass, SearchBudget,
                           _lane_blocks, _sampled_blocks, enumerate_frames)
from tests.test_formulas import random_formula


def label_names(frame, worlds):
    inverse = {w: name for name, w in frame.labels.items()}
    return sorted(inverse[w] for w in worlds)


def relation(plan, modality):
    """Sorted edge list of relation ``modality`` (1-based), read off the
    plan's offset rows and fans; an edge listed twice appears twice."""
    rows = [(w, w + d) for d, sources in plan.steps[modality - 1]
            for w in bit_indices(sources)]
    fans = [(w, y) for w, targets in plan.fans[modality - 1]
            for y in bit_indices(targets)]
    return sorted(rows + fans)


def denoted(plan):
    """The relations a plan denotes, per modality a dict from each offset
    ``d`` to the mask of the worlds ``w`` with an edge ``w -> w + d``,
    whether the plan lists the edge in an offset row or in a fan.  This is
    the plan's relation independent of the split between rows and fans;
    an edge listed twice fails."""
    out = []
    for row, fans in zip(plan.steps, plan.fans):
        sources = {}
        for d, mask in row:
            assert not sources.get(d, 0) & mask
            sources[d] = sources.get(d, 0) | mask
        for w, targets in fans:
            for y in bit_indices(targets):
                assert not sources.get(y - w, 0) >> w & 1
                sources[y - w] = sources.get(y - w, 0) | 1 << w
        out.append(sources)
    return out


def tiled(plan, copies):
    """``copies`` disjoint copies of a plan, copy ``c`` on worlds ``c*n ..
    c*n + n - 1``: each source mask repeated at the start of every copy,
    and each fan repeated in every copy."""
    n = plan.worlds
    ones = int(("0" * (n - 1) + "1") * copies, 2)
    sizes = plan.codec.sizes
    return ShiftPlan(CoordinateCodec((sizes[0] * copies, *sizes[1:])), None,
                     tuple(tuple((d, sources * ones) for d, sources in row)
                           for row in plan.steps),
                     tuple(tuple((w + c * n, targets << c * n)
                                 for c in range(copies)
                                 for w, targets in fans)
                           for fans in plan.fans))


def reflexive_closure(edges, worlds):
    """The relation plus the identity on ``0..worlds-1``; idempotent."""
    return Frame1(worlds, [*edges, *((w, w) for w in range(worlds))]).edges


def ladder(k):
    """The reflexive chain ``v0 -> w0 -> v1 -> ... -> vk -> wk``, one
    ladder copy that ``attach_gadgets`` hangs below a base world.

    ``2*(k+1)`` points; point ``v_i`` is world ``2*i`` and ``w_i`` is world
    ``2*i + 1``, with matching labels.  Every point carries a self-loop; the
    only world without a non-loop outgoing edge is ``w_k``.
    """
    if k < 1:
        raise ValueError("ladder size must be >= 1")
    worlds = 2 * (k + 1)
    chain = [(2 * i, 2 * i + 1) for i in range(k + 1)]  # v_i -> w_i
    chain += [(2 * i + 1, 2 * i + 2) for i in range(k)]  # w_i -> v_{i+1}
    labels = {f"v{i}": 2 * i for i in range(k + 1)}
    labels.update({f"w{i}": 2 * i + 1 for i in range(k + 1)})
    return Frame1(worlds, reflexive_closure(chain, worlds), labels)


def naive_reference(model, world, f):
    """Plain recursion with no memo, the reference for ``check_naive``: it
    re-evaluates a shared subformula once per path to it, so it is
    exponential on deep shared DAGs, and it must agree with ``check_naive``
    at every world, a :class:`ModalityError` included."""
    if not 0 <= world < model.codec.worlds:
        raise ValueError(f"unknown world {world}")
    kind = f.kind
    if kind == BOT:
        return False
    if kind == VAR:
        return model.masks.get(f.idx, 0) >> world & 1 == 1
    if kind == AND:
        return (naive_reference(model, world, f.children[0])
                and naive_reference(model, world, f.children[1]))
    if kind == OR:
        return (naive_reference(model, world, f.children[0])
                or naive_reference(model, world, f.children[1]))
    if kind == IMP:
        return ((not naive_reference(model, world, f.children[0]))
                or naive_reference(model, world, f.children[1]))
    if f.idx > len(model.factors):
        raise ModalityError(
            f"box index {f.idx} exceeds frame arity {len(model.factors)}")
    factor = model.factors[f.idx - 1]
    stride = model.codec.strides[f.idx - 1]
    c = world // stride % factor.worlds
    return all(naive_reference(model, world + (y - c) * stride, f.children[0])
               for y in factor.succ[c])


def outcome(evaluate, model, world, f):
    """The truth of ``f`` at ``world`` by ``evaluate``, or
    :class:`ModalityError` if it raised that."""
    try:
        return evaluate(model, world, f)
    except ModalityError:
        return ModalityError


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


def reach_by_search(factors, start, k, dims):
    """Worlds within ``k`` steps of ``start`` along the modalities ``dims``,
    by a breadth-first search over the defined edges of the product: the
    reference for bounded reach, independent of the plan."""
    succ = {}
    for i in dims:
        for a, b in definition(factors, i):
            succ.setdefault(a, []).append(b)
    seen, frontier = {start}, [start]
    for _ in range(k):
        frontier = [b for a in frontier for b in succ.get(a, ())
                    if b not in seen]
        seen.update(frontier)
    return sorted(seen)


# ---------------------------------------------------------------------------
# Edge-list references: product() and restrict() as they were written when a
# frame stored its sorted edge list, one Python step per edge.  The mask code
# must give equal plans and equal frames.
# ---------------------------------------------------------------------------

def edge_product(factors):
    """The product plan built edge by edge: factor ``i``'s edge ``x -> y``
    is offset ``(y - x) * strides[i]``, and the worlds whose coordinate
    ``i`` is ``x``, a column of runs, are ORed into its sources."""
    codec = CoordinateCodec(f.worlds for f in factors)
    steps = []
    for factor, stride in zip(factors, codec.strides):
        period = factor.worlds * stride
        column = ((1 << stride) - 1) * repunit(period, codec.worlds // period)
        sources = {}
        for x, y in factor.edges:
            d = (y - x) * stride
            sources[d] = sources.get(d, 0) | column << x * stride
        steps.append(tuple(sorted(sources.items())))
    return ShiftPlan(codec, tuple(factors), tuple(steps),
                     ((),) * len(factors))


def edge_restrict(frame, keep):
    """The subframe on ``keep`` by a scan over every edge."""
    kept = sorted(set(keep))
    remap = {old: new for new, old in enumerate(kept)}
    edges = [(remap[a], remap[b]) for a, b in frame.edges
             if a in remap and b in remap]
    labels = {name: remap[w] for name, w in frame.labels.items()
              if w in remap}
    return Frame1(len(kept), edges, labels)


@st.composite
def frames(draw, max_worlds=4):
    """A frame of 1..``max_worlds`` worlds with any edges, or now and then
    one of 60..140 worlds with a few edges, with or without a self-loop at
    every world: sparse source masks over many worlds, which product()
    widens one run at a time."""
    if draw(st.integers(0, 4)):
        n = draw(st.integers(1, max_worlds))
        cells = [(a, b) for a in range(n) for b in range(n)]
        return Frame1(n, draw(st.lists(st.sampled_from(cells))))
    n = draw(st.integers(60, 140))
    world = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(world, world), max_size=8))
    if draw(st.booleans()):
        edges += [(w, w) for w in range(n)]
    return Frame1(n, edges)


class TestFrame1:
    def test_edges_validated(self):
        with pytest.raises(ValueError):
            Frame1(2, [(0, 2)])

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_one_relation_is_one_frame(self, data):
        # permuted, duplicated or differently labelled edge lists of one
        # relation give equal frames with equal hashes; the masks give the
        # same frame back
        n = data.draw(st.integers(1, 4))
        cells = [(a, b) for a in range(n) for b in range(n)]
        edges = data.draw(st.lists(st.sampled_from(cells), unique=True))
        frame = Frame1(n, edges)
        again = data.draw(st.permutations(
            edges + data.draw(st.lists(st.sampled_from(edges or cells),
                                       max_size=4 if edges else 0))))
        other = Frame1(n, again, {"root": data.draw(st.integers(0, n - 1))})
        assert other == frame and hash(other) == hash(frame)
        assert other.edges == frame.edges == tuple(sorted(edges))
        assert frame.succ == tuple(tuple(sorted(b for a, b in edges if a == x))
                                   for x in range(n))
        masks = Frame1.from_offsets(n, dict(frame.offsets), other.labels)
        assert masks == frame and masks.labels == other.labels

    def test_edge_error_names_the_lowest_outside_edge(self):
        # the lowest out-of-range pair in sorted order, whatever the input
        # order, as when the edges were sorted before they were checked
        bad = [(3, 0), (0, 1), (1, -1), (2, 5), (-1, 2), (1, 3)]
        lowest = r"^edge \(-1, 2\) outside worlds 0\.\.2$"
        for edges in (bad, bad[::-1]):
            with pytest.raises(ValueError, match=lowest):
                Frame1(3, edges)
        with pytest.raises(ValueError, match=r"^edge \(0, 5\) "):
            Frame1(3, [(2, 3), (1, 1), (0, 5)])

    def test_masks_entry_point(self):
        # from_offsets takes the masks by offset, drops empty ones, and
        # rejects a negative mask and every edge with a source or target
        # outside the worlds
        frame = Frame1(3, [(0, 0), (0, 2), (2, 0), (1, 2)])
        assert Frame1.from_offsets(
            3, {0: 0b001, 2: 0b001, -2: 0b100, 1: 0b010, 5: 0}, None) == frame
        for offsets in ({0: -1}, {0: 1 << 3}, {1: 1 << 2}, {-1: 1}, {3: 1},
                        {-3: 1 << 2}, {2: 0b010}, {10**30: 1},
                        {-10**30: 1}):
            with pytest.raises(ValueError):
                Frame1.from_offsets(3, offsets, None)
        with pytest.raises(ValueError):
            Frame1.from_offsets(1, {0: 1}, {"far": 1})
        with pytest.raises(ValueError):
            Frame1.from_offsets(0, {}, None)

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

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_small_factors_build_no_fans(self, data):
        # the search's and the reduction sweep's factors have at most 4
        # worlds, so at most 7 offset rows, and product() must not spend
        # time on fans for them; the star below would fan under the
        # halving rule alone (7 rows, 2 worlds to fan)
        star = Frame1(4, [(0, 0), (0, 1), (0, 2), (0, 3),
                          (3, 0), (3, 1), (3, 2)])
        factors = []
        for _ in range(data.draw(st.integers(1, 3))):
            n = data.draw(st.integers(1, 4))
            cells = [(a, b) for a in range(n) for b in range(n)]
            factors.append(star if data.draw(st.booleans()) else Frame1(
                n, data.draw(st.lists(st.sampled_from(cells), unique=True))))
        assert product(factors).fans == ((),) * len(factors)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_widened_masks_match_the_edge_build(self, data):
        # up to three factors, with irreflexive points, negative offsets and
        # now and then a factor of 60..140 worlds
        factors = [data.draw(frames())
                   for _ in range(data.draw(st.integers(1, 3)))]
        assert denoted(product(factors)) == denoted(edge_product(factors))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_plan_is_the_product_definition(self, data):
        # product() builds the plan from the factors' edges; the edges read
        # off its offset rows and fans must be the defined relation, each
        # once, with the rows in increasing offset order and the fans in
        # increasing world order
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
        for i, (row, fans) in enumerate(zip(plan.steps, plan.fans),
                                        start=1):
            assert relation(plan, i) == definition(factors, i)
            offsets = [d for d, _ in row]
            assert offsets == sorted(set(offsets))
            worlds = [w for w, _ in fans]
            assert worlds == sorted(set(worlds))


class TestRuns:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_each_bit_becomes_a_run(self, data):
        # sparse runs take one shift per run, dense ones the digit or byte
        # spread, and a step of 1 is the identity; each must widen bit j
        # to bits j*step .. j*step + step - 1, and drop bits from count up
        count = data.draw(st.integers(1, 400))
        step = data.draw(st.sampled_from([1, 2, 3, 7, 8, 16, 24]))
        bits = data.draw(st.one_of(
            st.integers(0, (1 << count + 8) - 1),
            st.lists(st.tuples(st.integers(0, count + 8),
                               st.integers(1, 70)), max_size=5).map(
                lambda runs: sum(((1 << n) - 1) << at for at, n in runs))))
        expected = 0
        for j in range(count):
            if bits >> j & 1:
                expected |= ((1 << step) - 1) << j * step
        assert _runs(bits, step, count) == expected


class TestRepunit:
    def test_matches_the_division_formula(self):
        for step in range(1, 71):
            for count in range(71):
                assert repunit(step, count) == \
                    ((1 << step * count) - 1) // ((1 << step) - 1)


def lane_masks(mask, lanes, n):
    """The ``n`` bits of each of ``lanes`` lanes of ``mask``, lane 0 first;
    fails on a bit above the last lane."""
    digits = format(mask, f"0{lanes * n}b")
    assert len(digits) == lanes * n
    return [int(digits[len(digits) - (lane + 1) * n:
                       len(digits) - lane * n], 2)
            for lane in range(lanes)]


class TestLaneLayout:
    @staticmethod
    def sweep(data):
        """The frame lists, layout, valuation count ``V``, valuation blocks
        and lane blocks of a drawn sweep, the lane blocks as the search
        makes them."""
        lists = [enumerate_frames(data.draw(st.sampled_from(list(FactorClass))),
                                  data.draw(st.integers(1, 3)))
                 for _ in range(data.draw(st.integers(1, 2)))]
        valuations = data.draw(st.sampled_from([1, 2, 8, 512, 5000]))
        layout = LaneLayout([FrameList(lst) for lst in lists])
        by_valuation = _sampled_blocks(layout.codec.worlds, [1, 2],
                                       SearchBudget(max_valuations=valuations))
        return (lists, layout, valuations, by_valuation,
                list(_lane_blocks(layout.frames, by_valuation,
                                  layout.codec.worlds)))

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_blocks_cover_the_lanes_once_in_order(self, data):
        # lane k*V + v holds valuation v of frame k; the blocks run through
        # lanes 0 .. F*V - 1 once, in order, each at most 2**BLOCK_BITS
        # lanes of whole frames or of a slice of one frame, and a block's
        # masks hold each of its lanes' valuation
        lists, layout, valuations, by_valuation, sweep = self.sweep(data)
        n = layout.codec.worlds
        frames = 1
        for lst in lists:
            frames *= len(lst)
        assert layout.frames == frames
        single = [lane for lanes, masks in by_valuation
                  for lane in zip(*(lane_masks(masks[var], lanes, n)
                                    for var in (1, 2)))]
        assert len(single) == valuations
        lane = 0
        for frame, count, width, first, _ in sweep:
            assert first == lane
            assert 0 <= first - frame * valuations
            assert first - frame * valuations + width <= valuations
            assert count == 1 or width == valuations
            assert frame + count <= frames
            assert count * width <= 1 << BLOCK_BITS
            lane += count * width
        assert lane == frames * valuations
        picks = {0, len(sweep) - 1, data.draw(st.integers(0, len(sweep) - 1))}
        for frame, count, width, first, masks in (sweep[i] for i in picks):
            got = zip(*(lane_masks(masks[var], count * width, n)
                        for var in (1, 2)))
            for lane, lane_valuation in enumerate(got, start=first):
                assert lane_valuation == single[lane % valuations]

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_block_plan_is_the_lanes_of_its_frames(self, data):
        # a block's plan denotes the union of its frames' relations, each
        # tiled over the frame's lanes in the block and shifted to the
        # first of them; frames run in itertools.product order of the lists
        lists, layout, _, _, sweep = self.sweep(data)
        # the first block, the last (often short) and one more
        picks = {0, len(sweep) - 1, data.draw(st.integers(0, len(sweep) - 1))}
        n = layout.codec.worlds
        for frame, count, width, _, _ in (sweep[i] for i in sorted(picks)):
            rows = [[] for _ in lists]
            fans = [[] for _ in lists]
            products = itertools.islice(itertools.product(*lists),
                                        frame, frame + count)
            for k, factors in enumerate(products, start=frame):
                assert layout.factors(k) == factors
                plan = tiled(product(factors), width)
                at = (k - frame) * width * n
                for row, out in zip(plan.steps, rows):
                    out += [(d, mask << at) for d, mask in row]
                for fan, out in zip(plan.fans, fans):
                    out += [(w + at, targets << at) for w, targets in fan]
            plan = layout.plan(frame, count, width)
            assert plan.worlds == count * width * n
            assert plan.factors is None
            sizes = layout.codec.sizes
            lanes = CoordinateCodec((sizes[0] * count * width, *sizes[1:]))
            assert plan.codec.sizes == lanes.sizes
            assert denoted(plan) == denoted(ShiftPlan(lanes, None, rows,
                                                      fans))

    @pytest.mark.parametrize("cls", list(FactorClass))
    def test_frame_list_rows_give_back_each_frames_offsets(self, cls):
        for size in (1, 2, 3):
            frames = enumerate_frames(cls, size)
            rows = FrameList(frames).rows
            for j, frame in enumerate(frames):
                assert tuple(sorted(row for row, members in rows.items()
                                    if members >> j & 1)) == frame.offsets

    def test_blocks_outside_the_sweep_rejected(self):
        chain = Frame1(2, [(0, 0), (1, 1), (0, 1)])
        layout = LaneLayout([FrameList([chain, chain])])
        assert layout.plan(1, 1, 4).worlds == 8
        for frame, frames, width in ((-1, 1, 1), (0, 0, 1), (0, 1, 0),
                                     (1, 2, 1), (2, 1, 1), (0, 3, 4)):
            with pytest.raises(ValueError):
                layout.plan(frame, frames, width)


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

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_widen_is_the_worlds_with_a_coordinate_in_the_mask(self, data):
        # bit w of widen(i, mask) is set iff coordinate i of world w is a
        # bit of mask; the second call reads the cached repunit
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        codec = CoordinateCodec(sizes)
        i = data.draw(st.integers(0, len(sizes) - 1))
        for mask in data.draw(st.lists(
                st.integers(0, (1 << sizes[i]) - 1), min_size=2, max_size=2)):
            widened = codec.widen(i, mask)
            assert widened >> codec.worlds == 0
            for w in range(codec.worlds):
                assert widened >> w & 1 == mask >> codec.coords(w)[i] & 1

    def test_coords_rejects_missing_worlds(self):
        codec = CoordinateCodec([2, 3])
        for w in (-1, 6):
            with pytest.raises(ValueError):
                codec.coords(w)


class TestModelNumbering:
    # a model numbers its worlds by its plan's codec, the one codec that
    # product() builds for the factors
    T2 = Frame1(2, [(0, 0), (1, 1), (0, 1)])
    K3 = Frame1(3, [(0, 1), (1, 2)])

    def codecs_built(self, monkeypatch, build):
        """The result of ``build()`` and the codecs built meanwhile."""
        built = []

        class Counting(CoordinateCodec):
            def __init__(self, sizes):
                built.append(tuple(sizes))
                super().__init__(built[-1])

        monkeypatch.setattr(onevar.kripke, "CoordinateCodec", Counting)
        return build(), len(built)

    def test_plan_of_other_factors_rejected(self):
        # the same world count and arity, but factor 1 of the plan is the
        # 3-world frame: read through it, [1]p1 would hold at world 0,
        # while the factors say it fails
        for make in (ProductModel.from_masks, ProductModel):
            with pytest.raises(ValueError, match="not the product"):
                make([self.T2, self.K3], {1: 0b000111}, 0,
                     product([self.K3, self.T2]))

    def test_plan_of_equal_sized_other_factors_rejected(self):
        # the factors' sizes in their order, but not their relations: read
        # through product([C2, T2]), [2]p1 fails at world 0 of T2 x C2 with
        # p1 at world 1, where check_naive, reading the factors, holds it.
        # A lane plan is the product of no factors, even of one frame each.
        c2 = Frame1(2, [(0, 1)])
        lane = LaneLayout([FrameList([self.T2]), FrameList([c2])]).plan(
            0, 1, 1)
        for plan in (product([c2, self.T2]), lane):
            for make in (ProductModel.from_masks, ProductModel):
                with pytest.raises(ValueError, match="not the product"):
                    make([self.T2, c2], {1: 0b10}, 0, plan)

    def test_one_codec_per_model(self, monkeypatch):
        factors = [self.T2, self.K3]
        model, built = self.codecs_built(
            monkeypatch, lambda: ProductModel.from_masks(factors, {1: 5}, 0))
        assert built == 1
        doc = model.to_json()
        back, built = self.codecs_built(
            monkeypatch, lambda: ProductModel.from_json(doc))
        assert built == 1
        assert back.masks == model.masks

    def test_model_reads_its_plans_codec(self):
        factors = [self.T2, self.K3]
        plan = product(factors)
        models = [ProductModel(factors, {1: [0]}, 1),
                  ProductModel(factors, {1: [0]}, 1, plan),
                  ProductModel.from_masks(factors, {1: 1}, 1),
                  ProductModel.from_coords(factors, {1: [(0, 0)]}, (0, 1))]
        models.append(ProductModel.from_json(models[0].to_json()))
        for model in models:
            assert model.codec is model.frame.codec
            assert model.codec.sizes == (2, 3)
        assert models[1].frame is plan


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

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_kept_rows_match_the_edge_scan(self, data):
        frame = data.draw(frames())
        frame = Frame1(frame.worlds, frame.edges,
                       {f"w{w}": w for w in range(0, frame.worlds, 3)})
        world = st.integers(0, frame.worlds - 1)
        keep = data.draw(st.lists(world, min_size=1))
        got, want = restrict(frame, keep), edge_restrict(frame, keep)
        assert got == want and got.edges == want.edges
        assert got.labels == want.labels


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
        assert model.masks == {1: 0b101, 2: 0}
        assert model.to_json() == ProductModel(
            [chain], {1: [2, 0], 2: []}, 0).to_json()
        for bad in (-1, 1 << 3, 0b1001):
            with pytest.raises(ValueError):
                ProductModel.from_masks([chain], {1: bad}, 0)

    def test_sat_mask_rejects_stray_bits(self, store):
        # sat_mask complements by XOR with the mask of all worlds, so a
        # variable mask outside the worlds must be refused, not evaluated;
        # a variable the formula does not read is not checked
        plan = product([Frame1(3, [(0, 1), (1, 2)])])
        f = store.imp(store.var(1), store.box(1, store.var(2)))
        assert sat_mask(plan, {1: 0b101, 2: 0b111, 3: -1}, f, {}) == 0b111
        for bad in (-1, 1 << 3, 0b1001, -(1 << 3)):
            for masks in ({1: bad}, {1: 0, 2: bad}):
                with pytest.raises(ValueError, match="outside worlds"):
                    sat_mask(plan, masks, f, {})


class TestDifferential:
    def test_sat_set_agrees_with_naive(self):
        # 200 random (model, formula) pairs against the naive evaluator
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
        plan = LaneLayout([FrameList([factor]) for factor in factors]).plan(
            0, 1, len(valuations))
        assert denoted(plan) == denoted(tiled(frame, len(valuations)))
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

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_memoized_naive_agrees_with_plain_recursion(self, data):
        # the memo must not change any answer: at every world check_naive,
        # the plain recursion and the sat_mask bit agree.  Formulas may use
        # one box index above the arity; both evaluators then raise
        # ModalityError at the same worlds, as their short-circuit order is
        # the same.  Bigger formulas than elsewhere, so subformulas are
        # shared and the memo is hit.
        arity = data.draw(st.integers(1, 3))
        factors = []
        for _ in range(arity):
            n = data.draw(st.integers(1, 3))
            cells = [(a, b) for a in range(n) for b in range(n)]
            edges = data.draw(st.lists(st.sampled_from(cells), unique=True))
            factors.append(Frame1(n, edges))
        n = CoordinateCodec(factor.worlds for factor in factors).worlds
        model = ProductModel.from_masks(
            factors, {v: data.draw(st.integers(0, (1 << n) - 1))
                      for v in range(1, 4)}, 0)
        store = FormulaStore()
        f = random_formula(store, random.Random(data.draw(st.integers())),
                           arity=arity + data.draw(st.integers(0, 1)),
                           depth=4, size=24)
        if any(g.kind == BOX and g.idx > arity for g in postorder(f)):
            with pytest.raises(ModalityError):
                sat_mask(model.frame, model.masks, f, {})
            mask = None
        else:
            mask = sat_mask(model.frame, model.masks, f, {})
        for w in range(n):
            got = outcome(check_naive, model, w, f)
            assert got == outcome(naive_reference, model, w, f)
            if mask is not None:
                assert got == bool(mask >> w & 1)

    @staticmethod
    def lanes_agree_with_naive(plan, lanes, f):
        """``sat_mask`` over ``plan`` agrees with ``check_naive`` at every
        world of every lane, and every node mask it caches lies inside the
        plan's worlds.  ``lanes`` lists, per lane of ``n`` worlds in order,
        the lane's factors and its valuation masks; the masks passed to
        ``sat_mask`` put lane ``l`` at bits ``l*n ..``."""
        n = plan.worlds // len(lanes)
        block = {var: sum(masks[var] << lane * n
                          for lane, (_, masks) in enumerate(lanes))
                 for var in lanes[0][1]}
        cache = {}
        got = sat_mask(plan, block, f, cache)
        assert all(0 <= mask < 1 << plan.worlds for mask in cache.values())
        for lane, (factors, masks) in enumerate(lanes):
            model = ProductModel.from_masks(factors, masks, 0)
            for w in range(n):
                assert (got >> lane * n + w & 1 == 1) == \
                    check_naive(model, w, f)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_reflexive_rows_agree_with_naive(self, data):
        # a reflexive factor's loops are an offset-0 row of all worlds,
        # which the box step takes with one OR and no AND: in product()
        # plans and in lane plans of several reflexive frames
        arity = data.draw(st.integers(1, 3))
        lists = []
        for _ in range(arity):
            n = data.draw(st.integers(1, 3))
            cells = [(a, b) for a in range(n) for b in range(n) if a != b]
            lists.append(FrameList(
                Frame1(n, [(w, w) for w in range(n)]
                       + data.draw(st.lists(st.sampled_from(cells))
                                   if cells else st.just([])))
                for _ in range(data.draw(st.integers(1, 2)))))
        layout = LaneLayout(lists)
        n = layout.codec.worlds
        width = data.draw(st.integers(1, 4))
        valuations = [{v: data.draw(st.integers(0, (1 << n) - 1))
                       for v in range(1, 4)} for _ in range(width)]
        f = random_formula(FormulaStore(),
                           random.Random(data.draw(st.integers())),
                           arity=arity, depth=4, size=16)
        factors = layout.factors(0)
        plan = product(factors)
        full = (1 << plan.worlds) - 1
        assert all((0, full) in row for row in plan.steps)
        self.lanes_agree_with_naive(plan, [(factors, valuations[0])], f)
        plan = layout.plan(0, layout.frames, width)
        full = (1 << plan.worlds) - 1
        assert all((0, full) in row for row in plan.steps)
        self.lanes_agree_with_naive(
            plan, [(layout.factors(k), valuation)
                   for k in range(layout.frames) for valuation in valuations],
            f)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_fanned_factor_agrees_with_naive(self, data):
        # a factor with at least FAN_MIN_ROWS offset rows, most of them a
        # single entry edge from world 0, as a gadget factor has: product()
        # fans world 0 and keeps the other rows, with or without loops
        m = data.draw(st.integers(onevar.kripke.FAN_MIN_ROWS + 1, 24))
        world = st.integers(0, m - 1)
        edges = [(0, x) for x in range(1, m)]
        edges += data.draw(st.lists(st.tuples(world, world), max_size=6))
        if data.draw(st.booleans()):
            edges += [(w, w) for w in range(m)]
        gadget = Frame1(m, edges)
        assert len(gadget.offsets) >= onevar.kripke.FAN_MIN_ROWS
        other = Frame1(2, data.draw(st.lists(st.sampled_from(
            [(0, 0), (0, 1), (1, 0), (1, 1)]), unique=True)))
        factors = [gadget, other] if data.draw(st.booleans()) \
            else [other, gadget]
        plan = product(factors)
        assert any(plan.fans)
        masks = {v: data.draw(st.integers(0, (1 << plan.worlds) - 1))
                 for v in range(1, 4)}
        f = random_formula(FormulaStore(),
                           random.Random(data.draw(st.integers())),
                           arity=2, depth=4, size=16)
        self.lanes_agree_with_naive(plan, [(factors, masks)], f)

    def test_box_above_arity_raises_in_both_evaluators(self, store):
        chain = Frame1(2, [(0, 0), (1, 1), (0, 1)])
        model = ProductModel([chain, chain], {1: [0, 3]}, 0)
        f = store.or_(store.var(1), store.box(3, store.var(1)))
        for evaluate in (check_naive, naive_reference):
            # world 0 satisfies p1, so the box is never reached there
            assert evaluate(model, 0, f)
            with pytest.raises(ModalityError):
                evaluate(model, 1, f)

    def test_shared_dag_costs_its_nodes_not_its_tree(self):
        # 60 levels of f = [1]f & [2]f: 183 nodes, but an expanded tree of
        # about 4.6e18, which plain recursion cannot walk; check_naive
        # visits each (node, world) pair once
        store = FormulaStore()
        f = store.var(1)
        for _ in range(60):
            f = store.and_(store.box(1, f), store.box(2, f))
        assert f.tree_size > 4 * 10**18
        complete = Frame1(2, [(a, b) for a in range(2) for b in range(2)])
        model = ProductModel([complete, complete], {1: range(4)}, 0)
        mask = sat_mask(model.frame, model.masks, f, {})
        assert mask == 0b1111
        for w in range(4):
            assert check_naive(model, w, f) == bool(mask >> w & 1)

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
        assert bit_indices(bounded_reach_mask(frame, 0, 0)) == [0]

    def test_monotone_and_saturating(self):
        chain = Frame1(3, reflexive_closure([(0, 1), (1, 2)], 3))
        frame = product([chain, chain])
        previous = None
        for k in range(6):
            reach = set(bit_indices(bounded_reach_mask(frame, 0, k)))
            if previous is not None:
                assert previous <= reach
            previous = reach
        assert previous == set(range(9))

    def test_correspondence_with_box_upto(self, store):
        # box_upto(k, f) at x iff f holds everywhere within k steps along
        # its modalities, all of them or those that keep the first
        # coordinate; the box_upto side by the naive evaluator and the reach
        # side by a search, both of which read the factors, on 50 random
        # models.  The plan's reach over every modality is the search's too
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
            every = range(1, n_factors + 1)
            for x in range(frame.worlds):
                assert bit_indices(bounded_reach_mask(frame, x, k)) == \
                    reach_by_search(factors, x, k, every)
            for dims in (every, range(2, n_factors + 1)):
                lifted = box_upto(store, dims, k, f)
                for x in range(frame.worlds):
                    reached = reach_by_search(factors, x, k, dims)
                    expected = all(check_naive(model, y, f) for y in reached)
                    assert check_naive(model, x, lifted) == expected


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
        assert back.masks == model.masks
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
