"""The variable-eliminating translation: probes, markers, guard, lowering."""

import random

import pytest

from onevar.formulas import (FormulaStore, ModalityError, composite_dia,
                             dag_size, parse, render)
from onevar.kripke import ProductModel, sat_set
from onevar.translation import (DEFAULT_VARIANT, K_MODE_DEFAULT_VARIANT,
                                MAX_ARITY, MAX_VARIABLE_INDEX, VARIANT_GRID,
                                ReservedVariableError, TranslationContext,
                                VariantConfig, variant_by_name)
from tests.test_formulas import random_formula
from tests.test_kripke import label_names, ladder


def plain_variant(**kw):
    return VariantConfig(composite=False, mark_first_rung=False,
                         shield=False, **kw)


def ctx_for(store, text, variant=DEFAULT_VARIANT, arity=2):
    return TranslationContext.for_formula(store, parse(text, arity, store),
                                          arity, variant)


class TestVariants:
    def test_grid_has_all_eight(self):
        assert len(VARIANT_GRID) == 8
        assert len({v.name for v in VARIANT_GRID}) == 8

    def test_default_in_grid(self):
        assert DEFAULT_VARIANT in VARIANT_GRID
        assert K_MODE_DEFAULT_VARIANT in VARIANT_GRID

    def test_lookup_by_name(self):
        for v in VARIANT_GRID:
            assert variant_by_name(v.name) == v
        with pytest.raises(ValueError):
            variant_by_name("nope")


class TestLadderProbe:
    def test_unfolds_composite_diamond(self, store):
        ctx = TranslationContext(store, 2, 1, 0)
        p = store.var(0)
        want = composite_dia(store, store.box(1, p))
        assert ctx.ladder_probe(1) is want
        assert ctx.ladder_probe(3) is composite_dia(
            store, composite_dia(store, want))

    def test_depth_is_two_k_plus_one(self, store):
        # recompute the depth by the independent recursion on the built node
        ctx = TranslationContext(store, 2, 6, 0)
        from tests.test_formulas import naive_depth
        for k in range(1, 7):
            probe = ctx.ladder_probe(k)
            assert probe.depth == naive_depth(probe) == 2 * k + 1

    def test_sat_on_active_ladder(self, store):
        # first-factor evaluation on the gadget with p on w1..wk: the probe
        # lands exactly on {w0, v1}
        for k in range(1, 5):
            frame = ladder(k)
            marked = [frame.labels[f"w{i}"] for i in range(1, k + 1)]
            model = ProductModel([frame], {0: marked}, 0)
            ctx = TranslationContext(store, 1, k, 0)
            sat = sat_set(model, ctx.ladder_probe(k))
            assert label_names(frame, sat) == ["v1", "w0"]

    def test_zero_rejected(self, store):
        ctx = TranslationContext(store, 2, 1, 0)
        with pytest.raises(ValueError):
            ctx.ladder_probe(0)

    def test_uses_only_reserved_variable(self, store):
        ctx = TranslationContext(store, 2, 2, 0)
        assert ctx.ladder_probe(3).var_set == {0}


class TestVarMarker:
    def test_plain_shape(self, store):
        ctx = TranslationContext(store, 2, 1, 0, plain_variant())
        p = store.var(0)
        want = store.and_(store.not_(p),
                          store.dia(1, store.and_(p, ctx.ladder_probe(1))))
        assert ctx.var_marker(1) is want

    def test_composite_shape(self, store):
        ctx = TranslationContext(store, 2, 1, 0)
        p = store.var(0)
        body = store.and_(p, ctx.ladder_probe(1))
        want = store.and_(store.not_(p), composite_dia(store, body))
        assert ctx.var_marker(1) is want

    def test_single_variable(self, store):
        ctx = TranslationContext(store, 2, 3, 1)
        for k in range(1, 5):
            assert ctx.var_marker(k).var_set == {0}

    def test_range_checked(self, store):
        ctx = TranslationContext(store, 2, 2, 0)
        with pytest.raises(ValueError):
            ctx.var_marker(0)
        with pytest.raises(ValueError):
            ctx.var_marker(4)


class TestBaseMarker:
    def test_is_top_marker_without_guards(self, store):
        variant = VariantConfig(composite=True, mark_first_rung=True,
                                shield=False)
        ctx = TranslationContext(store, 2, 2, 0, variant)
        assert ctx.base_marker() is ctx.var_marker(3)

    def test_shield_conjunct(self, store):
        ctx = TranslationContext(store, 2, 0, 0)
        p = store.var(0)
        want = store.and_(ctx.var_marker(1), store.box(1, store.not_(p)))
        assert ctx.base_marker() is want

    def test_plain_depth(self, store):
        # depth recomputation: plain marker of index m+1 nests 2(m+1)+2 boxes
        from tests.test_formulas import naive_depth
        for m in range(3):
            ctx = TranslationContext(store, 2, m, 0, plain_variant())
            marker = ctx.base_marker()
            assert marker.depth == naive_depth(marker) == 2 * (m + 1) + 2

    def test_shared_across_lowered_boxes(self, store):
        ctx = ctx_for(store, "[1]p1 & [2]p2")
        lowered = ctx.lower(parse("[1]p1 & [2]p2", 2, store))
        marker = ctx.base_marker()
        # images of the two source boxes
        for image in (lowered.children[0], lowered.children[1]):
            assert image.kind == "box"
            body = image.children[0]
            assert body.kind == "imp" and body.children[0] is marker


class TestLower:
    def test_bottom_fixed(self, store):
        ctx = TranslationContext(store, 2, 0, 0)
        assert ctx.lower(store.bottom()) is store.bottom()

    def test_homomorphic_on_booleans(self, store):
        ctx = ctx_for(store, "p1 & p2")
        f = parse("p1 & p2", 2, store)
        assert ctx.lower(f) is store.and_(ctx.var_marker(1),
                                          ctx.var_marker(2))

    def test_box_clause(self, store):
        ctx = ctx_for(store, "[2]p1")
        f = parse("[2]p1", 2, store)
        want = store.box(2, store.imp(ctx.base_marker(), ctx.var_marker(1)))
        assert ctx.lower(f) is want

    def test_reserved_variable_rejected(self, store):
        ctx = TranslationContext(store, 2, 1, 0)
        with pytest.raises(ReservedVariableError):
            ctx.lower(store.var(0))

    def test_modality_beyond_arity_rejected(self, store):
        ctx = TranslationContext(store, 2, 1, 1)
        with pytest.raises(ModalityError):
            ctx.lower(store.box(3, store.var(1)))

    def test_box_images_marker_guarded(self, store):
        # walk the source structure alongside its image: each source box
        # maps to a box whose body implies from the shared base marker
        def walk(src, image, ctx):
            if src.kind == "box":
                assert image.kind == "box" and image.idx == src.idx
                body = image.children[0]
                assert body.kind == "imp"
                assert body.children[0] is ctx.base_marker()
                walk(src.children[0], body.children[1], ctx)
            elif src.kind in ("and", "or", "imp"):
                assert image.kind == src.kind
                walk(src.children[0], image.children[0], ctx)
                walk(src.children[1], image.children[1], ctx)

        rng = random.Random(4242)
        for _ in range(60):
            f = random_formula(store, rng, arity=2, max_var=3, depth=3)
            ctx = TranslationContext.for_formula(store, f, 2)
            walk(f, ctx.lower(f), ctx)


class TestGuard:
    def test_depth_zero_shape(self, store):
        ctx = TranslationContext(store, 2, 0, 0)
        b = ctx.base_marker()
        want = store.conj([b, store.imp(b, b), store.imp(b, b)])
        assert ctx.uniform_guard() is want

    def test_single_variable(self, store):
        for d in range(4):
            ctx = TranslationContext(store, 2, 1, d)
            assert ctx.uniform_guard().var_set == {0}

    def test_tree_size_exponential(self, store):
        # measured on built formulas: the expanded guard dominates (n+1)^d
        for d in range(1, 6):
            ctx = TranslationContext(store, 2, 1, d)
            tree = ctx.uniform_guard().tree_size
            assert tree >= 3 ** d


class TestReduce:
    def test_bottom(self, store):
        ctx = TranslationContext(store, 2, 0, 0)
        f = ctx.reduce(store.bottom())
        assert f is store.imp(ctx.uniform_guard(), store.bottom())

    def test_single_source_variable(self, store):
        ctx = ctx_for(store, "p1")
        f = parse("p1", 2, store)
        assert ctx.reduce(f) is store.imp(ctx.uniform_guard(),
                                          ctx.var_marker(1))

    def test_single_variable_output_corpus(self, store):
        rng = random.Random(31337)
        for _ in range(200):
            f = random_formula(store, rng, arity=2, max_var=3, depth=3)
            ctx = TranslationContext.for_formula(store, f, 2)
            assert ctx.reduce(f).var_set <= {0}

    def test_deterministic_across_stores(self):
        text = "p1 & [1](p2 -> [2]p1)"
        outputs = []
        for _ in range(2):
            store = FormulaStore()
            f = parse(text, 2, store)
            ctx = TranslationContext.for_formula(store, f, 2)
            outputs.append(render(ctx.reduce(f)))
        assert outputs[0] == outputs[1]

    def test_same_store_same_node(self, store):
        f = parse("p1 -> [1]p1", 2, store)
        a = TranslationContext.for_formula(store, f, 2).reduce(f)
        b = TranslationContext.for_formula(store, f, 2).reduce(f)
        assert a is b

    def test_depth_additivity(self, store):
        # lowering a boxed formula stacks the marker depth below the source
        # depth; without boxes only the upper bound holds
        rng = random.Random(2025)
        for _ in range(80):
            f = random_formula(store, rng, arity=2, max_var=2, depth=3)
            ctx = TranslationContext.for_formula(store, f, 2)
            lowered = ctx.lower(f)
            marker_depth = ctx.base_marker().depth
            if f.depth >= 1:
                assert lowered.depth == f.depth + marker_depth
            else:
                assert lowered.depth <= f.depth + marker_depth

    def test_var_limit_is_max_index(self, store):
        # gaps in the variable indexing keep their identity
        ctx = ctx_for(store, "p3")
        assert ctx.var_limit == 3
        f = parse("p3", 2, store)
        assert ctx.reduce(f) is store.imp(ctx.uniform_guard(),
                                          ctx.var_marker(3))

    def test_variable_index_is_capped(self, store):
        # the reduction is linear in the largest index, so an index above
        # the cap is refused before anything is built
        ctx = TranslationContext(store, 2, MAX_VARIABLE_INDEX, 0)
        assert ctx.var_limit == MAX_VARIABLE_INDEX
        for index in (MAX_VARIABLE_INDEX + 1, 10**21):
            with pytest.raises(ValueError, match=str(MAX_VARIABLE_INDEX)):
                ctx_for(store, f"p{index}")

    def test_arity_is_capped(self, store):
        # the guard boxes over every modality, so an arity above the cap is
        # refused before anything is built
        assert TranslationContext(store, MAX_ARITY, 1, 0).arity == MAX_ARITY
        for arity in (MAX_ARITY + 1, 10**21):
            with pytest.raises(ValueError, match=str(MAX_ARITY)):
                TranslationContext(store, arity, 1, 0)

    def test_dag_growth_bounded(self, store):
        # measured fit: the reduction adds a dag cost linear in arity*depth
        # plus a marker-table cost, quadratic in the variable limit is a
        # generous ceiling
        rng = random.Random(606)
        for _ in range(100):
            f = random_formula(store, rng, arity=2, max_var=3, depth=3)
            ctx = TranslationContext.for_formula(store, f, 2)
            grown = dag_size(ctx.reduce(f)) - dag_size(f)
            n, d, m = ctx.arity, ctx.depth, ctx.var_limit
            assert grown <= 16 * n * d + 12 * (m + 1) ** 2 + 60
