"""Formula core: interning, parsing, printing, metrics, defined modalities."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from onevar import search
from onevar.formulas import (FormulaStore, ModalityError, ParseError,
                             box_upto, composite_dia, dag_listing, dag_size,
                             dia_upto, parse, postorder, render)
from onevar.search import CALIBRATION_CORPUS
from onevar.translation import VARIANT_GRID, TranslationContext

# ---------------------------------------------------------------------------
# independent oracles: plain recursions that never touch the cached metrics
# ---------------------------------------------------------------------------


def naive_depth(f):
    if f.kind == "box":
        return 1 + naive_depth(f.children[0])
    if f.children:
        return max(naive_depth(c) for c in f.children)
    return 0


def naive_tree_size(f):
    return 1 + sum(naive_tree_size(c) for c in f.children)


def naive_vars(f):
    if f.kind == "var":
        return {f.idx}
    out = set()
    for c in f.children:
        out |= naive_vars(c)
    return out


def naive_dag_size(f):
    seen = set()

    def walk(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for c in node.children:
            walk(c)

    walk(f)
    return len(seen)


def struct_eq(a, b):
    if a.kind != b.kind or a.idx != b.idx or len(a.children) != len(b.children):
        return False
    return all(struct_eq(x, y) for x, y in zip(a.children, b.children))


def random_formula(store, rng, arity=2, max_var=3, depth=3, size=10):
    if size <= 1:
        return store.var(rng.randint(1, max_var)) if rng.random() < 0.8 \
            else store.bottom()
    kind = rng.choice(["and", "or", "imp", "box", "dia", "var", "bot"])
    if kind == "var":
        return store.var(rng.randint(1, max_var))
    if kind == "bot":
        return store.bottom()
    if kind in ("box", "dia"):
        if depth == 0:
            return store.var(rng.randint(1, max_var))
        body = random_formula(store, rng, arity, max_var, depth - 1, size - 1)
        i = rng.randint(1, arity)
        return store.box(i, body) if kind == "box" else store.dia(i, body)
    left = random_formula(store, rng, arity, max_var, depth, size // 2)
    right = random_formula(store, rng, arity, max_var, depth, size // 2)
    return getattr(store, {"and": "and_", "or": "or_", "imp": "imp"}[kind])(
        left, right)


def constructor_corpus(store):
    """Seeded random DAGs at arities 2 and 3, then the reduction and the
    uniform guard of every calibration formula under every variant, all
    built in ``store``; the roots, in build order."""
    roots = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for arity in (2, 3):
            roots += [search.random_formula(store, rng, arity, 3, 3)
                      for _ in range(40)]
    for variant in VARIANT_GRID:
        for text in CALIBRATION_CORPUS:
            f = parse(text, 2, store)
            ctx = TranslationContext.for_formula(store, f, 2, variant)
            roots += [ctx.reduce(f), ctx.uniform_guard()]
    return roots


# the store size and creation-order digest of constructor_corpus()
CONSTRUCTOR_CORPUS_NODES = 1123
CONSTRUCTOR_CORPUS_DIGEST = (
    "3dc799b8839b140f65a9c05fe2f3ed8b867745e7823a8d026d011b408fe1611f")


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------


class TestParse:
    def test_grammar_basics(self, store):
        f = parse("p1 -> [1]p1", 2, store)
        assert f is store.imp(store.var(1), store.box(1, store.var(1)))

    def test_negation_is_sugar(self, store):
        assert parse("~p", 1, store) is store.imp(store.var(0), store.bottom())

    def test_diamond_is_sugar(self, store):
        assert parse("<2>F", 2, store) is store.dia(2, store.bottom())

    def test_precedence(self, store):
        f = parse("p1 & p2 | p1 -> p2", 2, store)
        expected = store.imp(
            store.or_(store.and_(store.var(1), store.var(2)), store.var(1)),
            store.var(2))
        assert f is expected

    def test_imp_right_associative(self, store):
        f = parse("p1 -> p2 -> F", 2, store)
        assert f is store.imp(store.var(1),
                              store.imp(store.var(2), store.bottom()))

    def test_unary_binds_tightest(self, store):
        f = parse("~p1 & [1]p2", 2, store)
        assert f is store.and_(store.not_(store.var(1)),
                               store.box(1, store.var(2)))

    def test_syntax_error_carries_position(self, store):
        with pytest.raises(ParseError) as err:
            parse("p1 -> ", 2, store)
        assert err.value.position == 6

    def test_modality_out_of_range(self, store):
        with pytest.raises(ModalityError):
            parse("[3]p1", 2, store)
        with pytest.raises(ModalityError):
            parse("<2>p1", 1, store)

    def test_p0_rejected(self, store):
        with pytest.raises(ParseError):
            parse("p0", 2, store)

    def test_trailing_input_rejected(self, store):
        with pytest.raises(ParseError):
            parse("p1 p2", 2, store)

    def test_arity_must_be_positive(self, store):
        with pytest.raises(ValueError):
            parse("p1", 0, store)


class TestRender:
    def test_box(self, store):
        assert render(store.box(1, store.var(1))) == "[1]p1"

    def test_imp_chain_minimal_parens(self, store):
        f = store.imp(store.var(1), store.imp(store.var(2), store.bottom()))
        assert render(f) == "p1 -> p2 -> F"

    def test_reserved_variable_prints_bare(self, store):
        assert render(store.and_(store.var(0), store.var(0))) == "p & p"

    def test_left_nested_imp_parenthesized(self, store):
        f = store.imp(store.imp(store.var(1), store.var(2)), store.bottom())
        assert render(f) == "(p1 -> p2) -> F"

    def test_right_nested_and_parenthesized(self, store):
        f = store.and_(store.var(1), store.and_(store.var(2), store.var(1)))
        assert render(f) == "p1 & (p2 & p1)"

    def test_round_trip_random_corpus(self, store):
        rng = random.Random(20240817)
        for _ in range(1000):
            f = random_formula(store, rng)
            assert parse(render(f), 2, store) is f


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------


class TestInterning:
    def test_same_build_same_node(self, store):
        a = store.imp(store.var(1), store.box(2, store.bottom()))
        b = store.imp(store.var(1), store.box(2, store.bottom()))
        assert a is b

    def test_foreign_nodes_rejected(self, store):
        own = store.var(1)
        other = FormulaStore()
        same_uid = other.var(1)  # uid 0, as ``own``
        past_end = other.box(1, other.box(2, other.var(2)))
        assert same_uid.uid == own.uid and past_end.uid >= len(store)
        builders = (
            lambda x: store.and_(own, x), lambda x: store.and_(x, own),
            lambda x: store.or_(own, x), lambda x: store.or_(x, own),
            lambda x: store.imp(own, x), lambda x: store.imp(x, own),
            lambda x: store.box(1, x),
            # derived connectives, through the constructors above
            store.not_, lambda x: store.dia(2, x),
            lambda x: store.conj([own, x]), lambda x: store.conj([x, own]),
        )
        for build in builders:
            for foreign in (same_uid, past_end):
                with pytest.raises(ValueError, match="different store"):
                    build(foreign)

    @settings(max_examples=200, derandomize=True)
    @given(seed_a=st.integers(0, 10**6), seed_b=st.integers(0, 10**6))
    def test_structural_equality_is_identity(self, seed_a, seed_b):
        store = FormulaStore()
        a = random_formula(store, random.Random(seed_a))
        b = random_formula(store, random.Random(seed_b))
        assert (a is b) == struct_eq(a, b)

    def test_cached_metrics_match_recomputation(self, store):
        rng = random.Random(99)
        for _ in range(300):
            f = random_formula(store, rng)
            assert f.depth == naive_depth(f)
            assert f.tree_size == naive_tree_size(f)
            assert f.var_set == frozenset(naive_vars(f))
            assert dag_size(f) == naive_dag_size(f)

    def test_constructor_metrics_on_reductions(self):
        store = FormulaStore()
        roots = constructor_corpus(store)
        # metrics recomputed node by node from the children's, never read
        # from a child: ``want`` maps uid -> (depth, tree_size, var_set)
        want: dict[int, tuple] = {}
        for root in roots:
            for node in postorder(root):
                if node.uid in want:
                    continue
                kids = [want[c.uid] for c in node.children]
                depth = max((k[0] for k in kids), default=0)
                if node.kind == "box":
                    depth += 1
                var_set = (frozenset((node.idx,)) if node.kind == "var" else
                           frozenset().union(*(k[2] for k in kids)))
                want[node.uid] = (depth, 1 + sum(k[1] for k in kids), var_set)
                assert (node.depth, node.tree_size, node.var_set) == \
                    want[node.uid], render(node)
        # the table as built, in creation order: a change in sharing or in
        # the order of creation moves these pins
        nodes = sorted({node.uid: node for root in roots
                        for node in postorder(root)}.values(),
                       key=lambda node: node.uid)
        listing = "\n".join(
            f"{n.uid} {n.kind} {n.idx} {[c.uid for c in n.children]}"
            for n in nodes)
        assert len(store) == CONSTRUCTOR_CORPUS_NODES
        assert hashlib.sha256(listing.encode()).hexdigest() == \
            CONSTRUCTOR_CORPUS_DIGEST


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_depth_basics(self, store):
        assert store.var(1).depth == 0
        assert store.box(1, store.box(2, store.var(1))).depth == 2

    def test_variables(self, store):
        assert store.bottom().var_set == frozenset()
        assert store.and_(store.var(1), store.var(3)).var_set == {1, 3}

    def test_sizes_leaf_and_sharing(self, store):
        leaf = store.var(1)
        assert (leaf.tree_size, dag_size(leaf)) == (1, 1)
        shared = store.and_(leaf, leaf)
        assert (shared.tree_size, dag_size(shared)) == (3, 2)

    def test_subformulas_unique(self, store):
        f = store.and_(store.var(1), store.and_(store.var(1), store.var(2)))
        nodes = postorder(f)
        assert len(set(nodes)) == len(nodes) == dag_size(f) == 4


# ---------------------------------------------------------------------------
# defined modalities
# ---------------------------------------------------------------------------


class UnreadModalities:
    """Modality indices that must not be read: level 0 needs none of them,
    and a guard at a large arity would list them all."""

    def __iter__(self):
        raise AssertionError("level 0 read its modalities")


class TestDefinedModalities:
    def test_level_zero_is_identity(self, store):
        psi = store.var(1)
        assert box_upto(store, (1, 2), 0, psi) is psi
        assert dia_upto(store, (1, 2), 0, psi) is psi
        assert box_upto(store, (2,), 0, psi) is psi
        assert box_upto(store, UnreadModalities(), 0, psi) is psi
        assert dia_upto(store, UnreadModalities(), 0, psi) is psi

    def test_rest_level_one(self, store):
        psi = store.var(1)
        assert box_upto(store, range(2, 3), 1, psi) is \
            store.and_(psi, store.box(2, psi))

    def test_rest_is_identity_for_unimodal(self, store):
        psi = store.var(1)
        assert box_upto(store, range(2, 2), 3, psi) is psi
        assert dia_upto(store, range(2, 2), 3, psi) is psi

    def test_composite_dia_shape(self, store):
        p = store.var(0)
        got = composite_dia(store, p)
        want = store.dia(1, store.and_(store.not_(p),
                                       store.dia(1, store.and_(p, p))))
        assert got is want

    def test_level_one_unfolds(self, store):
        psi = store.var(1)
        got = box_upto(store, (2, 1), 1, psi)
        want = store.conj([psi, store.box(1, psi), store.box(2, psi)])
        assert got is want

    def test_depth_adds_level(self, store):
        for psi in (store.var(1), store.box(1, store.var(2))):
            for k in range(7):
                assert box_upto(store, (1, 2), k, psi).depth == k + psi.depth

    def test_size_growth(self, store):
        # recurrence on explicitly built formulas, n = 2, leaf body
        psi = store.var(0)
        prev_tree = None
        for k in range(7):
            f = box_upto(store, (1, 2), k, psi)
            tree = f.tree_size
            assert dag_size(f) <= dag_size(psi) + 3 * k + k
            assert tree >= 3 ** k
            if prev_tree is not None:
                assert tree == 3 * prev_tree + 4
            prev_tree = tree

    def test_negative_level_rejected(self, store):
        with pytest.raises(ValueError):
            box_upto(store, (1, 2), -1, store.var(1))


class TestDeepInput:
    def test_walks_are_iterative(self, store):
        # a chain far deeper than the recursion limit
        f = store.var(1)
        for _ in range(5000):
            f = store.box(1, f)
        assert dag_size(f) == 5001
        assert render(f) == "[1]" * 5000 + "p1"
        assert dag_listing(f)[-1] == {"id": 5000, "kind": "box",
                                      "modality": 1, "children": [4999]}
