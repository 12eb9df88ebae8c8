"""Countermodel surgeries: gadget attachment, transfer, extraction, scans."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

import onevar.surgery
from onevar.formulas import FormulaStore, parse, postorder
from onevar.search import random_formula
from onevar.kripke import (CoordinateCodec, Frame1, ProductModel,
                           bit_indices, bounded_reach_mask, check,
                           check_naive, product, restrict, sat_set)
from onevar.surgery import (ExtractionFailed, ExtractionResult,
                            PreconditionFailed, SurgeryReport,
                            TransferFailed, attach_gadgets, build_extraction,
                            build_transfer, check_kept_points_marked,
                            check_marker_agreement, check_marker_exactness,
                            check_subformula_preservation, copy_start,
                            extract_countermodel, lift_valuation,
                            transfer_countermodel)
from onevar.translation import (DEFAULT_VARIANT, K_MODE_DEFAULT_VARIANT,
                                VARIANT_GRID, TranslationContext,
                                VariantConfig)
from tests.test_kripke import (definition, denoted, edge_product,
                               edge_restrict, ladder, reach_by_search,
                               relation)

REFLEXIVE_POINT = Frame1(1, [(0, 0)])
REFLEXIVE_CHAIN = Frame1(2, [(0, 0), (1, 1), (0, 1)])


@dataclass(frozen=True)
class GadgetPoint:
    """Position of one ladder point in an extended first factor."""

    ladder: int   # which ladder copy (1 .. m+1)
    base: int     # the first-factor base world the copy hangs below
    role: str     # "v" or "w"
    rung: int     # position along the ladder (0 .. ladder)

    @property
    def label(self) -> str:
        """Output name of the point, e.g. ``v0.k1.x0``."""
        return f"{self.role}{self.rung}.k{self.ladder}.x{self.base}"


def gadget_layout(base_worlds, m):
    """World index of every ladder point :func:`attach_gadgets` adds to a
    first factor of ``base_worlds`` worlds with variable limit ``m``, by
    :func:`copy_start`."""
    out = {}
    for k in range(1, m + 2):
        for x in range(base_worlds):
            world = copy_start(base_worlds, k, x)
            for i in range(k + 1):
                out[world + 2 * i] = GadgetPoint(ladder=k, base=x, role="v",
                                                 rung=i)
                out[world + 2 * i + 1] = GadgetPoint(ladder=k, base=x,
                                                     role="w", rung=i)
    return out


def make_ctx(store, text, variant=DEFAULT_VARIANT):
    f = parse(text, 2, store)
    return f, TranslationContext.for_formula(store, f, 2, variant)


class TestAttachGadgets:
    def test_world_count(self):
        # one base world, limit 1: ladders of length 1 and 2 hang below it
        ext = attach_gadgets(REFLEXIVE_POINT, 1)
        assert ext.worlds == 1 + 4 + 6

    def test_restriction_recovers_base(self):
        base = Frame1(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)])
        ext = attach_gadgets(base, 2)
        assert restrict(ext, range(base.worlds)) == base

    def test_roots_one_step_from_base(self):
        base = REFLEXIVE_CHAIN
        m = 2
        ext = attach_gadgets(base, m)
        gadgets = gadget_layout(base.worlds, m)
        for x in range(base.worlds):
            succ = set(ext.succ[x])
            for k in range(1, m + 2):
                roots = [w for w, gp in gadgets.items()
                         if gp.base == x and gp.ladder == k
                         and gp.role == "v" and gp.rung == 0]
                assert len(roots) == 1 and roots[0] in succ

    def test_copies_isomorphic_to_ladder(self):
        ext = attach_gadgets(REFLEXIVE_POINT, 1)
        gadgets = gadget_layout(REFLEXIVE_POINT.worlds, 1)
        for k in (1, 2):
            copy = sorted(w for w, gp in gadgets.items() if gp.ladder == k)
            sub = restrict(ext, copy)
            # drop the gadget labels to compare the bare frames
            assert Frame1(sub.worlds, sub.edges) == \
                Frame1(ladder(k).worlds, ladder(k).edges)

    def test_reflexive(self):
        assert attach_gadgets(REFLEXIVE_CHAIN, 1).is_reflexive

    def test_irreflexive_base_rejected_outside_k_mode(self):
        bad = Frame1(2, [(0, 1)])
        with pytest.raises(PreconditionFailed):
            attach_gadgets(bad, 1)
        ext = attach_gadgets(bad, 1, k_mode=True)
        assert not ext.is_reflexive

    def test_k_mode_ladders_are_chains(self):
        ext = attach_gadgets(Frame1(1, []), 0, k_mode=True)
        gadgets = gadget_layout(1, 0)
        for w in gadgets:
            assert (w, w) not in set(ext.edges)

    def test_labels_follow_layout(self):
        # labels are output only, but they must name the laid-out points
        base = Frame1(2, [(0, 0), (1, 1), (0, 1)], {"root": 0})
        ext = attach_gadgets(base, 2)
        layout = gadget_layout(base.worlds, 2)
        assert ext.worlds == base.worlds + len(layout)
        assert ext.labels == {"root": 0,
                              **{gp.label: w for w, gp in layout.items()}}
        assert layout[base.worlds].label == "v0.k1.x0"


def edge_list_gadgets(f1, m, k_mode):
    """:func:`attach_gadgets` as it was written on edge lists: every copy's
    entry edge, chain edges and loops listed one by one, and two labels
    per rung."""
    base = f1.worlds
    edges = list(f1.edges)
    labels = dict(f1.labels)
    for k in range(1, m + 2):
        for x in range(base):
            start = copy_start(base, k, x)
            end = start + 2 * (k + 1)
            edges.append((x, start))
            edges.extend((w, w + 1) for w in range(start, end - 1))
            if not k_mode:
                edges.extend((w, w) for w in range(start, end))
            for i in range(k + 1):
                labels[f"v{i}.k{k}.x{x}"] = start + 2 * i
                labels[f"w{i}.k{k}.x{x}"] = start + 2 * i + 1
    return Frame1(copy_start(base, m + 2, 0), edges, labels)


class TestGadgetsMatchEdgeLists:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_closed_form_in_products_and_restrictions(self, data):
        # bases of 1-4 worlds with any edges (irreflexive points and
        # negative offsets in K-mode), m = 0..6; the extended factor and its
        # labels equal the edge-list build's, and so do its products, with
        # the gadget factor first, in the middle and last, and its
        # restrictions
        k_mode = data.draw(st.booleans())
        n = data.draw(st.integers(1, 4))
        cells = [(a, b) for a in range(n) for b in range(n)]
        edges = data.draw(st.lists(st.sampled_from(cells), unique=True))
        if not k_mode:
            edges += [(w, w) for w in range(n)]
        base = Frame1(n, edges, {"root": 0} if data.draw(st.booleans())
                      else None)
        m = data.draw(st.integers(0, 6))
        ext = attach_gadgets(base, m, k_mode=k_mode)
        want = edge_list_gadgets(base, m, k_mode)
        assert ext == want and hash(ext) == hash(want)
        assert ext.edges == want.edges and ext.labels == want.labels

        others = []
        for _ in range(2):
            size = data.draw(st.integers(1, 3))
            pairs = [(a, b) for a in range(size) for b in range(size)]
            others.append(Frame1(size, data.draw(st.lists(
                st.sampled_from(pairs), unique=True))))
        for at in range(3):
            factors = others[:at] + [ext] + others[at:]
            assert denoted(product(factors)) == denoted(edge_product(
                others[:at] + [want] + others[at:]))

        world = st.integers(0, ext.worlds - 1)
        keep = data.draw(st.lists(world, min_size=1, max_size=40))
        got, cut = restrict(ext, keep), edge_restrict(want, keep)
        assert got == cut and got.labels == cut.labels


class TestFannedGadgetProducts:
    def test_big_gadget_factors_are_fanned(self):
        # m = 16 over a complete 4-world base: 75 offset rows, 68 of them
        # one entry edge each; fanning the 4 base worlds leaves the
        # self-loops and the chains, 2 rows, and costs one fan per product
        # world over a base world, 16 with a 4-world other factor, in
        # either position
        complete = Frame1(4, [(a, b) for a in range(4) for b in range(4)])
        ext = attach_gadgets(complete, 16)
        assert len(ext.offsets) == 75
        for at in (0, 1):
            factors = [complete]
            factors.insert(at, ext)
            plan = product(factors)
            assert (len(plan.steps[at]), len(plan.fans[at])) == (2, 16)
            assert plan.fans[1 - at] == ()
            worlds = [w for w, _ in plan.fans[at]]
            assert worlds == sorted(set(worlds))
            for i in (1, 2):
                assert relation(plan, i) == definition(factors, i)

    @pytest.mark.parametrize("complete, base, columns, fans_from", [
        (False, 3, 3, 6), (False, 3, 4, 8), (False, 4, 3, 6), (False, 4, 4, 8),
        (True, 3, 3, 5), (True, 3, 4, 7), (True, 4, 3, 5), (True, 4, 4, 7)])
    def test_surgery_scale_gadget_plans(self, complete, base, columns,
                                        fans_from):
        # the products the surgery-scale benchmark transfers into: m =
        # 1..16, a 3- or 4-world first factor with self-loops only or
        # complete, and 3 or 4 columns.  Below m = fans_from the gadget
        # factor keeps all its offset rows; from it on, fanning the base
        # worlds at least halves its operations, so its rows are the
        # self-loops and the chains, and its fans are exactly the product
        # worlds over base worlds.  The thresholds are those of the ranked
        # prefix rule that the sole-source rule replaced
        def frame(n):
            return Frame1(n, [(a, b) for a in range(n) for b in range(n)
                              if complete or a == b])

        for m in range(1, 17):
            ext = attach_gadgets(frame(base), m)
            plan = product((ext, frame(columns)))
            assert plan.fans[1] == ()
            fanned = [w for w, _ in plan.fans[0]]
            if m < fans_from:
                assert plan.steps[0] == tuple(
                    (d * columns, plan.codec.widen(0, sources))
                    for d, sources in ext.offsets)
                assert fanned == []
            else:
                assert [d for d, _ in plan.steps[0]] == [0, columns]
                assert fanned == list(range(base * columns))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_sat_and_reach_agree_with_the_oracles(self, data):
        # gadget factors at m = 0..16, whose products are fanned from
        # about m = 5 on, first, in the middle or last, in K-mode too:
        # sat_mask against check_naive at every world, and
        # bounded_reach_mask against a search over the defined edges of
        # every modality from the worlds over base points, the sources of
        # the fans
        k_mode = data.draw(st.booleans())
        n = data.draw(st.integers(1, 2))
        cells = [(a, b) for a in range(n) for b in range(n)]
        edges = data.draw(st.lists(st.sampled_from(cells), unique=True))
        if not k_mode:
            edges += [(w, w) for w in range(n)]
        ext = attach_gadgets(Frame1(n, edges), data.draw(st.integers(0, 16)),
                             k_mode=k_mode)
        others = []
        for _ in range(data.draw(st.integers(0, 2))):
            size = data.draw(st.integers(1, 2))
            pairs = [(a, b) for a in range(size) for b in range(size)]
            others.append(Frame1(size, data.draw(st.lists(
                st.sampled_from(pairs), unique=True))))
        at = data.draw(st.integers(0, len(others)))
        factors = others[:at] + [ext] + others[at:]
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        worlds = CoordinateCodec(f.worlds for f in factors).worlds
        model = ProductModel.from_masks(
            factors, {v: rng.getrandbits(worlds) for v in (1, 2)}, 0)
        store = FormulaStore()
        f = store.box(at + 1, random_formula(store, rng, len(factors), 2, 2))
        mask = model.sat(f)
        for w in range(worlds):
            assert bool(mask >> w & 1) == check_naive(model, w, f)

        stride = model.codec.strides[at]
        k = data.draw(st.integers(0, 4))
        every = range(1, len(factors) + 1)
        for x in range(n):
            start = x * stride + rng.randrange(stride)
            assert bit_indices(bounded_reach_mask(model.frame, start, k)) == \
                reach_by_search(factors, start, k, every)


def lifted_coords(base, m, variant):
    """Coordinates of the worlds :func:`lift_valuation` marks, decoded by the
    codec of the extended product."""
    ext = attach_gadgets(base.factors[0], m)
    codec = CoordinateCodec([ext.worlds, *(f.worlds for f in base.factors[1:])])
    return {codec.coords(w)
            for w in bit_indices(lift_valuation(base, m, variant))}


class TestLiftValuation:
    def base_model(self):
        return ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (1, 0))

    def test_base_points_never_marked(self):
        base = self.base_model()
        marked = lifted_coords(base, 1, DEFAULT_VARIANT)
        for coords in marked:
            assert coords[0] >= base.factors[0].worlds

    def test_inactive_copy_unmarked(self):
        # p1 false at (1, 0): no point of the ladder-1 copy over base world 1
        # carries the variable
        base = self.base_model()
        gadgets = gadget_layout(base.factors[0].worlds, 1)
        marked = lifted_coords(base, 1, DEFAULT_VARIANT)
        for coords in marked:
            gp = gadgets[coords[0]]
            if gp.ladder == 1:
                assert gp.base == 0  # only over the world where p1 holds

    def test_top_ladder_marked_over_every_column(self):
        base = ProductModel.from_coords(
            [REFLEXIVE_POINT, REFLEXIVE_CHAIN], {}, (0, 0))
        gadgets = gadget_layout(base.factors[0].worlds, 0)
        marked = lifted_coords(base, 0, DEFAULT_VARIANT)
        w_points = [w for w, gp in gadgets.items()
                    if gp.ladder == 1 and gp.role == "w"]
        for w in w_points:
            for col in (0, 1):
                assert (w, col) in marked

    def test_first_rung_follows_variant(self):
        base = self.base_model()
        gadgets = gadget_layout(base.factors[0].worlds, 1)
        with_rung = lifted_coords(base, 1, DEFAULT_VARIANT)
        without = lifted_coords(
            base, 1,
            VariantConfig(mark_first_rung=False, shield=False))
        rung0 = {c for c in with_rung if gadgets[c[0]].rung == 0}
        assert rung0 and all(gadgets[c[0]].rung >= 1 for c in without)


class TestTransfer:
    def test_simplest_instance(self, store):
        # source variable refuted on the one-point product
        f, ctx = make_ctx(store, "p1")
        base = ProductModel.from_coords([REFLEXIVE_POINT, REFLEXIVE_POINT],
                                        {}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        assert result.checks == {"refutes-reduction": True,
                                 "guard-at-point": True}
        assert not check(result.model, result.point, ctx.reduce(f))

    def test_boxed_instance(self, store):
        f, ctx = make_ctx(store, "[1]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        assert not check(result.model, result.point, ctx.reduce(f))

    def test_verification_by_naive_evaluator(self, store):
        f, ctx = make_ctx(store, "p1 -> [1]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        assert not check_naive(result.model, result.point, ctx.reduce(f))
        assert check_naive(result.model, result.point, ctx.uniform_guard())

    def test_subformula_preservation_exhaustive(self, store):
        for text, val in [("p1 -> [1]p1", {1: [(0, 0)]}),
                          ("[2]p1 -> p1", {1: [(1, 0)]}),
                          ("p1 & p2 -> [1](p1 & p2)",
                           {1: [(0, 0)], 2: [(0, 0)]})]:
            f, ctx = make_ctx(store, text)
            base = ProductModel.from_coords(
                [REFLEXIVE_CHAIN, REFLEXIVE_POINT], val, (0, 0))
            if check(base, base.point, f):
                continue
            result = transfer_countermodel(base, f, ctx)
            report = check_subformula_preservation(base, result, f, ctx)
            assert report.passed

    def test_base_worlds_keep_their_index(self, store):
        # only the first factor grows, and its original worlds come first,
        # so every base world is the same point of the transferred model;
        # three columns make a wrong stride visible
        f, ctx = make_ctx(store, "p1 -> [2]p1 | [1]p2")
        column = Frame1(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, column],
            {1: [(0, 0), (0, 1), (1, 2)], 2: [(1, 1), (0, 2)]}, (0, 1))
        result = transfer_countermodel(base, f, ctx)
        assert result.point == base.point
        assert result.base_points == frozenset(range(base.frame.worlds))
        for bw in range(base.frame.worlds):
            assert result.model.coords_of(bw) == base.coords_of(bw)
        assert check_marker_agreement(result, base, ctx).passed
        assert check_subformula_preservation(base, result, f, ctx).passed

    def test_non_countermodel_rejected(self, store):
        f, ctx = make_ctx(store, "p1")
        base = ProductModel.from_coords([REFLEXIVE_POINT, REFLEXIVE_POINT],
                                        {1: [(0, 0)]}, (0, 0))
        with pytest.raises(PreconditionFailed):
            transfer_countermodel(base, f, ctx)

    def test_miscalibrated_variant_fails_loudly(self, store):
        plain = VariantConfig(composite=False)
        f, ctx = make_ctx(store, "p1", plain)
        base = ProductModel.from_coords([REFLEXIVE_POINT, REFLEXIVE_POINT],
                                        {}, (0, 0))
        with pytest.raises(TransferFailed):
            transfer_countermodel(base, f, ctx)

    def test_k_mode_transfer(self, store):
        f, ctx = make_ctx(store, "[1]p1 -> p1", K_MODE_DEFAULT_VARIANT)
        irreflexive = Frame1(2, [(0, 1)])
        point = Frame1(1, [])
        base = ProductModel.from_coords([irreflexive, point],
                                        {1: [(1, 0)]}, (0, 0))
        assert not check(base, base.point, f)
        result = transfer_countermodel(base, f, ctx, k_mode=True)
        assert result.checks["refutes-reduction"]

    def test_unimodal_round_trip(self, store):
        # arity 1: the rest-dimension modalities are degenerate but the
        # surgeries still close the loop
        f = parse("p1 -> [1]p1", 1, store)
        ctx = TranslationContext.for_formula(store, f, 1, DEFAULT_VARIANT)
        base = ProductModel.from_coords([REFLEXIVE_CHAIN], {1: [(0,)]}, (0,))
        assert not check(base, base.point, f)
        result = transfer_countermodel(base, f, ctx)
        assert check_marker_exactness(result, ctx).passed
        extraction = extract_countermodel(result.model, f, ctx)
        assert extraction.checks["refutes-source"]


class TestMarkerScans:
    def transferred(self, store, text, val, variant=DEFAULT_VARIANT):
        f, ctx = make_ctx(store, text, variant)
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], val, (0, 0))
        assert not check(base, base.point, f)
        return base, f, ctx

    def test_agreement_on_empty_valuation(self, store):
        base, f, ctx = self.transferred(store, "p1", {})
        result = transfer_countermodel(base, f, ctx)
        report = check_marker_agreement(result, base, ctx)
        assert report.passed
        for bw in range(base.frame.worlds):
            coords = base.coords_of(bw)
            assert not check(result.model, result.model.codec.index(coords),
                             ctx.var_marker(1))

    def test_agreement_on_calibrated_instance(self, store):
        base, f, ctx = self.transferred(store, "p1 -> [1]p1", {1: [(0, 0)]})
        result = transfer_countermodel(base, f, ctx)
        assert check_marker_agreement(result, base, ctx).passed

    def test_agreement_fails_on_wrong_variant(self, store):
        # keeping the first rung unmarked starves the marker at base points
        wrong = VariantConfig(mark_first_rung=False)
        base, f, ctx = self.transferred(store, "p1 -> [1]p1", {1: [(0, 0)]},
                                        wrong)
        result = build_transfer(base, f, ctx)
        report = check_marker_agreement(result, base, ctx)
        assert not report.passed
        coords, k, got, want = report.violations[0]
        assert k == 1 and got is False and want is True

    def test_exactness_on_calibrated_instance(self, store):
        base, f, ctx = self.transferred(store, "p1 -> [1]p1", {1: [(0, 0)]})
        result = transfer_countermodel(base, f, ctx)
        report = check_marker_exactness(result, ctx)
        assert report.passed
        assert sat_set(result.model, ctx.base_marker()) == result.base_points

    def test_exactness_classifies_leaks(self, store):
        # without the shield conjunct the marker leaks at gadget roots
        unshielded = VariantConfig(shield=False)
        base, f, ctx = self.transferred(store, "p1", {}, unshielded)
        result = build_transfer(base, f, ctx)
        report = check_marker_exactness(result, ctx)
        assert not report.passed
        kinds = {v[0] for v in report.violations}
        assert kinds == {"extra"}
        labels = {v[2] for v in report.violations}
        assert all(label.startswith("v0.k2.") for label in labels)

    def test_leak_labels_name_the_first_coordinate(self, store):
        # three columns: the label of a leak comes from its first
        # coordinate, not from its world index
        f, ctx = make_ctx(store, "p1", VariantConfig(shield=False))
        column = Frame1(3, [(0, 0), (1, 1), (2, 2), (0, 1)])
        base = ProductModel.from_coords([REFLEXIVE_CHAIN, column], {},
                                        (0, 0))
        report = check_marker_exactness(build_transfer(base, f, ctx), ctx)
        gadgets = gadget_layout(REFLEXIVE_CHAIN.worlds, ctx.var_limit)
        extras = [v for v in report.violations if v[0] == "extra"]
        assert {coords[1] for _, coords, _ in extras} == {0, 1, 2}
        for _, coords, label in extras:
            assert label == gadgets[coords[0]].label


class TestExtraction:
    def test_round_trip(self, store):
        for text, val in [("p1", {}),
                          ("p1 -> [1]p1", {1: [(0, 0)]}),
                          ("p1 -> [1][2]p1", {1: [(0, 0)]})]:
            f, ctx = make_ctx(store, text)
            base = ProductModel.from_coords(
                [REFLEXIVE_CHAIN, REFLEXIVE_POINT], val, (0, 0))
            result = transfer_countermodel(base, f, ctx)
            extraction = extract_countermodel(result.model, f, ctx)
            assert extraction.checks["refutes-source"]
            assert not check(extraction.model, extraction.point, f)

    def test_point_first_coordinate_survives(self, store):
        f, ctx = make_ctx(store, "p1 -> [1]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        extraction = extract_countermodel(result.model, f, ctx)
        u1 = result.model.coords_of(result.point)[0]
        assert u1 in extraction.kept_first_factor

    def test_lost_point_raises(self, store, monkeypatch):
        # the invariant is checked by a raise, not an assert, so it also
        # holds under ``python -O``
        f, ctx = make_ctx(store, "p1 -> [1]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        monkeypatch.setattr(onevar.surgery, "bounded_reach_mask",
                            lambda *args: 0)
        with pytest.raises(ExtractionFailed):
            extract_countermodel(result.model, f, ctx)

    def test_guard_precondition_checked(self, store):
        f, ctx = make_ctx(store, "p1")
        # an arbitrary model without ladder structure cannot satisfy the guard
        flat = ProductModel.from_coords([REFLEXIVE_POINT, REFLEXIVE_POINT],
                                        {}, (0, 0))
        with pytest.raises(PreconditionFailed):
            extract_countermodel(flat, f, ctx)

    def test_restricted_factor_stays_reflexive(self, store):
        f, ctx = make_ctx(store, "p1 -> [1]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        extraction = extract_countermodel(result.model, f, ctx)
        assert extraction.model.factors[0].is_reflexive

    def test_variable_valuation_read_off_markers(self, store):
        f, ctx = make_ctx(store, "p1 -> [1]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        extraction = extract_countermodel(result.model, f, ctx)
        marker_sat = sat_set(result.model, ctx.var_marker(1))
        for w in bit_indices(extraction.model.masks.get(1, 0)):
            coords = extraction.model.coords_of(w)
            original = (extraction.kept_first_factor[coords[0]], *coords[1:])
            assert result.model.codec.index(original) in marker_sat


class TestKeptPointsScan:
    def test_passes_on_round_trip(self, store):
        f, ctx = make_ctx(store, "p1 -> [1][2]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        extraction = extract_countermodel(result.model, f, ctx)
        report = check_kept_points_marked(result.model, extraction, ctx)
        assert report.passed and report.checked > 0

    def test_vacuous_when_nothing_kept_in_reach(self, store):
        # depth 0: reach is the point itself, which is always kept and marked
        f, ctx = make_ctx(store, "p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        extraction = extract_countermodel(result.model, f, ctx)
        report = check_kept_points_marked(result.model, extraction, ctx)
        assert report.passed and report.checked == 1

    def test_scan_reads_the_extractions_reach(self, store, monkeypatch):
        f, ctx = make_ctx(store, "p1 -> [1][2]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        calls = []

        def counted(*args):
            calls.append(args)
            return bounded_reach_mask(*args)

        monkeypatch.setattr(onevar.surgery, "bounded_reach_mask", counted)
        extraction = extract_countermodel(result.model, f, ctx)
        report = check_kept_points_marked(result.model, extraction, ctx)
        assert len(calls) == 1
        assert extraction.reach == bounded_reach_mask(*calls[0])
        assert report == reference_kept_points(result.model, extraction, ctx)


class TestGuardAblation:
    # A transfer output with the reserved variable erased on the gadgets of
    # one column: the base marker still holds at the point, but no longer
    # at its neighbour in that column, so only the uniformity guard stands
    # between the mutant and an extraction that does not verify.
    S5_PAIR = Frame1(2, [(0, 0), (0, 1), (1, 0), (1, 1)])

    def mutant(self, store):
        f, ctx = make_ctx(store, "~[2]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_POINT, self.S5_PAIR], {1: [(0, 0), (0, 1)]}, (0, 0))
        model = transfer_countermodel(base, f, ctx).model
        codec = model.codec
        # every first coordinate but the one base world, 0
        gadgets = codec.widen(0, (1 << codec.sizes[0]) - 2)
        erased = model.masks[0] & ~(gadgets & codec.widen(1, 0b10))
        assert erased != model.masks[0]
        return f, ctx, ProductModel.from_masks(
            model.factors, {0: erased}, model.point, model.frame)

    def test_shipped_guard_rejects_the_mutant(self, store):
        f, ctx, mutant = self.mutant(store)
        assert check(mutant, mutant.point, ctx.base_marker())
        assert check(mutant, mutant.point, ctx.reduce(f))
        with pytest.raises(PreconditionFailed):
            build_extraction(mutant, f, ctx)

    def test_marker_alone_lets_the_mutant_through(self, store, monkeypatch):
        f, ctx, mutant = self.mutant(store)
        monkeypatch.setattr(TranslationContext, "uniform_guard",
                            TranslationContext.base_marker)
        assert not check(mutant, mutant.point, ctx.reduce(f))
        assert not check_naive(mutant, mutant.point, ctx.reduce(f))
        extraction = build_extraction(mutant, f, ctx)
        assert extraction.checks["refutes-source"] is False


class TestGadgetSelectivity:
    def test_no_cross_ladder_probe_hits(self, store):
        # On a transferred model, a probe of one index never fires on the
        # w0 level of a different ladder copy.
        f, ctx = make_ctx(store, "p1 & p2 -> [1](p1 & p2)")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT],
            {1: [(0, 0)], 2: [(0, 0)]}, (0, 0))
        result = transfer_countermodel(base, f, ctx)
        gadgets = gadget_layout(REFLEXIVE_CHAIN.worlds, ctx.var_limit)
        p = store.var(0)
        for k in range(1, ctx.var_limit + 2):
            hits = sat_set(result.model,
                           store.and_(p, ctx.ladder_probe(k)))
            for w in hits:
                first = result.model.coords_of(w)[0]
                gp = gadgets.get(first)
                if gp is not None and gp.rung == 0 and gp.role == "w":
                    assert gp.ladder == k


# ---------------------------------------------------------------------------
# Per-world references: the valuation lift, the carving and the four scans
# as they were written before the surgeries kept valuations as world masks.
# The mask code must give equal masks and equal reports, in the same order.
# ---------------------------------------------------------------------------

def world_sets(model):
    """The model's valuation as world-index sets, read off its masks."""
    return {var: frozenset(bit_indices(mask))
            for var, mask in model.masks.items()}


def reference_lift(base, m, variant):
    gadgets = gadget_layout(base.factors[0].worlds, m)
    valuation = world_sets(base)
    lowest_rung = 0 if variant.mark_first_rung else 1
    columns = base.codec.strides[0]
    marked = set()
    for world, gp in gadgets.items():
        if gp.role != "w" or gp.rung < lowest_rung:
            continue
        if gp.ladder == m + 1:
            marked.update(range(world * columns, (world + 1) * columns))
        else:
            for bw in valuation.get(gp.ladder, frozenset()):
                first, column = divmod(bw, columns)
                if first == gp.base:
                    marked.add(world * columns + column)
    return marked


def reference_carving(counter, kept, ctx):
    """Each marker's worlds projected world by world onto the kept rows."""
    columns = counter.codec.strides[0]
    remap = {old: new for new, old in enumerate(kept)}
    valuation = {}
    for k in range(1, ctx.var_limit + 1):
        valuation[k] = frozenset(
            remap[w // columns] * columns + w % columns
            for w in sat_set(counter, ctx.var_marker(k))
            if w // columns in remap)
    return valuation


def reference_agreement(result, base, ctx):
    valuation = world_sets(base)
    violations = []
    checked = 0
    model = result.model
    for bw in range(base.codec.worlds):
        for k in range(1, ctx.var_limit + 1):
            got = check(model, bw, ctx.var_marker(k))
            want = bw in valuation.get(k, frozenset())
            checked += 1
            if got != want:
                violations.append((base.coords_of(bw), k, got, want))
    return SurgeryReport("marker-agreement", checked, tuple(violations))


def reference_exactness(result, ctx):
    model = result.model
    sat = sat_set(model, ctx.base_marker())
    missing = sorted(result.base_points - sat)
    extras = sorted(sat - result.base_points)
    violations = [("missing", model.coords_of(w)) for w in missing]
    if extras:
        columns = model.codec.strides[0]
        gadgets = gadget_layout(len(result.base_points) // columns,
                                ctx.var_limit)
        for w in extras:
            gp = gadgets.get(w // columns)
            violations.append(("extra", model.coords_of(w),
                               gp.label if gp else "base?"))
    return SurgeryReport("marker-exactness",
                         model.codec.worlds, tuple(violations))


def reference_kept_points(counter, extraction, ctx):
    kept = set(extraction.kept_first_factor)
    reach = bit_indices(bounded_reach_mask(counter.frame, counter.point,
                                           ctx.depth))
    marked = sat_set(counter, ctx.base_marker())
    columns = counter.codec.strides[0]
    violations = []
    checked = 0
    for w in sorted(reach):
        if w // columns not in kept:
            continue
        checked += 1
        if w not in marked:
            violations.append((counter.coords_of(w),))
    return SurgeryReport("kept-points-marked", checked, tuple(violations))


def reference_preservation(base, result, f, ctx):
    model = result.model
    violations = []
    checked = 0
    for sub in postorder(f):
        lowered = ctx.lower(sub)
        for bw in range(base.codec.worlds):
            checked += 1
            if check(base, bw, sub) != check(model, bw, lowered):
                violations.append((base.coords_of(bw), sub.uid))
    return SurgeryReport("subformula-preservation", checked,
                         tuple(violations))


def mask_of(worlds):
    mask = 0
    for w in worlds:
        mask |= 1 << w
    return mask


@st.composite
def surgery_cases(draw, k_mode):
    """A base model over two factors of 1-3 worlds (the first reflexive
    unless ``k_mode``), ``m`` in 0..3 with a valuation of ``p1..pm``, and
    the seed of a formula over those variables."""
    factors = []
    for i in range(2):
        size = draw(st.integers(1, 3))
        pairs = [(a, b) for a in range(size) for b in range(size)]
        edges = [e for e in pairs if draw(st.booleans())]
        if i == 0 and not k_mode:
            edges += [(w, w) for w in range(size)]
        factors.append(Frame1(size, edges))
    worlds = factors[0].worlds * factors[1].worlds
    m = draw(st.integers(0, 3))
    masks = {k: draw(st.integers(0, (1 << worlds) - 1))
             for k in range(1, m + 1)}
    point = draw(st.integers(0, worlds - 1))
    return factors, m, masks, point, draw(st.integers(0, 2 ** 16))


class TestMaskSurgeriesMatchPerWorld:
    @pytest.mark.parametrize("k_mode", [False, True], ids=["T", "K"])
    @pytest.mark.parametrize("variant", VARIANT_GRID,
                             ids=[v.name for v in VARIANT_GRID])
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_lift_carve_and_scans(self, variant, k_mode, data):
        factors, m, masks, point, seed = data.draw(surgery_cases(k_mode))
        store = FormulaStore()
        f = random_formula(store, random.Random(seed), 2, m, 2, 8)
        base = ProductModel.from_masks(factors, masks, point)
        if check(base, point, f):  # the transfer needs a refuting point
            f = store.imp(f, store.bottom())
        ctx = TranslationContext(store, 2, m, f.depth, variant)

        assert lift_valuation(base, m, variant) == \
            mask_of(reference_lift(base, m, variant))
        result = build_transfer(base, f, ctx, k_mode=k_mode)
        assert check_marker_agreement(result, base, ctx) == \
            reference_agreement(result, base, ctx)
        assert check_marker_exactness(result, ctx) == \
            reference_exactness(result, ctx)
        assert check_subformula_preservation(base, result, f, ctx) == \
            reference_preservation(base, result, f, ctx)

        # any rows of the transferred model, to reach unmarked points
        rows = result.model.factors[0].worlds
        kept = tuple(x for x in range(rows) if data.draw(st.booleans()))
        reach = bounded_reach_mask(result.model.frame, result.model.point,
                                   ctx.depth)
        drawn = ExtractionResult(kept, result.model, result.point, {}, reach)
        assert check_kept_points_marked(result.model, drawn, ctx) == \
            reference_kept_points(result.model, drawn, ctx)
        try:
            extraction = build_extraction(result.model, f, ctx)
        except PreconditionFailed:
            return  # a miscalibrated variant can break the guard
        assert world_sets(extraction.model) == reference_carving(
            result.model, extraction.kept_first_factor, ctx)
        assert check_kept_points_marked(result.model, extraction, ctx) == \
            reference_kept_points(result.model, extraction, ctx)

    def test_miscalibrated_variants_report_violations(self, store):
        # the differential cases above compare non-empty reports too
        f, ctx = make_ctx(store, "p1 -> [1]p1")
        base = ProductModel.from_coords(
            [REFLEXIVE_CHAIN, REFLEXIVE_POINT], {1: [(0, 0)]}, (0, 0))
        found = set()
        for variant in VARIANT_GRID:
            ctx = TranslationContext(store, 2, 1, f.depth, variant)
            result = build_transfer(base, f, ctx)
            for new, ref in [
                    (check_marker_agreement(result, base, ctx),
                     reference_agreement(result, base, ctx)),
                    (check_marker_exactness(result, ctx),
                     reference_exactness(result, ctx)),
                    (check_subformula_preservation(base, result, f, ctx),
                     reference_preservation(base, result, f, ctx))]:
                assert new == ref
                if new.violations:
                    found.add(new.name)
        assert found == {"marker-agreement", "marker-exactness",
                         "subformula-preservation"}


class TestCopyStart:
    def test_closed_form_counts_the_copies_before(self):
        # copies laid out one after another: lengths outermost, then base
        # worlds, 2*(k+1) worlds each
        for base_worlds in (1, 2, 5):
            for m in range(4):
                world = base_worlds
                for k in range(1, m + 2):
                    for x in range(base_worlds):
                        assert copy_start(base_worlds, k, x) == world
                        world += 2 * (k + 1)
                assert copy_start(base_worlds, m + 2, 0) == world
                assert attach_gadgets(Frame1(base_worlds, []), m,
                                      k_mode=True).worlds == world
