"""Frame enumeration, countermodel search, calibration, differential suite."""

import dataclasses
import hashlib
import itertools
import json
import tracemalloc
from types import SimpleNamespace

import pytest

import onevar.search
from onevar.formulas import parse
from onevar.kripke import Frame1, check_naive, product
from onevar.search import (BLOCK_BITS, CALIBRATION_CORPUS, VALID_CORPUS_TT,
                           FactorClass, NoPassingVariant, SearchBudget,
                           _search, _size_vectors, calibrate_variants,
                           differential_suite, enumerate_frames,
                           find_all_countermodels, is_member, random_formula,
                           search_countermodel)
from onevar.surgery import ExtractionFailed
from onevar.translation import (DEFAULT_VARIANT, K_MODE_DEFAULT_VARIANT,
                                VARIANT_GRID, TranslationContext,
                                VariantConfig)

TT = (FactorClass.T, FactorClass.T)
TS5 = (FactorClass.T, FactorClass.S5)
KK = (FactorClass.K, FactorClass.K)

# Formulas refutable over T x T products at factor sizes <= 3 (hence also
# over K x K: a reflexive countermodel is a K countermodel).  All use
# arity 2, variable indices <= 2 and modal depth <= 2.
REFUTABLE_CORPUS: tuple[str, ...] = (
    "F",
    "p1",
    "p2",
    "~p1",
    "p1 & p2",
    "p1 | p2",
    "p1 -> p2",
    "[1]p1",
    "[2]p1",
    "[1]F",
    "[2]F",
    "<1>p1",
    "<2>p2",
    "p1 -> [1]p1",
    "p1 -> [2]p1",
    "p2 -> [1]p2",
    "p2 -> [2]p2",
    "<1>p1 -> p1",
    "<2>p1 -> p1",
    "<1>p1 -> [1]p1",
    "<2>p1 -> [2]p1",
    "[1]p1 -> [2]p1",
    "[2]p1 -> [1]p1",
    "[1]p1 -> [1][1]p1",
    "[2]p1 -> [2][2]p1",
    "p1 -> [1][2]p1",
    "p1 -> [2][1]p1",
    "p1 -> [1][1]p1",
    "p1 & p2 -> [1](p1 & p2)",
    "p1 & p2 -> [2]p2",
    "[1](p1 | p2) -> [1]p1 | [1]p2",
    "<1>p1 & <1>p2 -> <1>(p1 & p2)",
    "<1><1>p1 -> <1>p1",
    "[1](p1 -> p2) -> [1]p2",
)


def brute_count(size, predicate):
    """Independent oracle: filter every relation on ``size`` worlds."""
    cells = [(a, b) for a in range(size) for b in range(size)]
    count = 0
    for mask in range(1 << len(cells)):
        edges = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        if predicate(Frame1(size, edges)):
            count += 1
    return count


def edge_classes(frame):
    """The classes ``frame`` belongs to, by their definitions on the edge
    set: the reference :func:`is_member` is differenced against."""
    edges = set(frame.edges)
    reflexive = all((w, w) in edges for w in range(frame.worlds))
    transitive = all((a, c) in edges
                     for a, b in edges for b2, c in edges if b == b2)
    symmetric = all((b, a) in edges for a, b in edges)
    return {FactorClass.K: True,
            FactorClass.T: reflexive,
            FactorClass.S4: reflexive and transitive,
            FactorClass.S5: reflexive and transitive and symmetric}


class TestEnumeration:
    def test_membership_matches_the_edge_definition(self):
        # every T-frame of 1-4 worlds and every K-frame of 1-3 worlds
        frames = [frame for cls, sizes in ((FactorClass.T, (1, 2, 3, 4)),
                                           (FactorClass.K, (1, 2, 3)))
                  for size in sizes for frame in enumerate_frames(cls, size)]
        for frame in frames:
            want = edge_classes(frame)
            for cls in FactorClass:
                assert is_member(frame, cls) == want[cls], (frame.edges, cls)

    def test_hand_counts(self):
        assert len(enumerate_frames(FactorClass.T, 1)) == 1
        assert len(enumerate_frames(FactorClass.K, 1)) == 2
        assert len(enumerate_frames(FactorClass.T, 2)) == 4

    def test_counts_against_brute_filter(self):
        for size in (1, 2, 3):
            for cls in FactorClass:
                expected = brute_count(size, lambda fr: is_member(fr, cls))
                assert len(enumerate_frames(cls, size)) == expected

    def test_known_class_sizes(self):
        # equivalence relations and preorders on 3 and on 4 points
        assert len(enumerate_frames(FactorClass.S5, 3)) == 5
        assert len(enumerate_frames(FactorClass.S4, 3)) == 29
        assert len(enumerate_frames(FactorClass.S5, 4)) == 15
        assert len(enumerate_frames(FactorClass.S4, 4)) == 355

    def test_every_emitted_frame_is_a_member(self):
        for size in (1, 2, 3):
            for cls in FactorClass:
                for frame in enumerate_frames(cls, size):
                    assert is_member(frame, cls)

    # first 16 hex digits of the sha256 of each enumeration's edge lists,
    # taken when S4 and S5 were built by closing T-frames
    PINNED = {
        FactorClass.K: ("abc6f461bcbb020a", "0b61cd0b92f53225",
                        "361e36471fba3d76"),
        FactorClass.T: ("8a0c85582ad13c47", "7f6df0cde0ce7804",
                        "5de276d6dab7c914", "eb336b582ff57916"),
        FactorClass.S4: ("8a0c85582ad13c47", "57a968d113aaf565",
                         "59c244ce5601ae29", "a254bf67689dd11e"),
        FactorClass.S5: ("8a0c85582ad13c47", "5fd22a0f38e4acc7",
                         "faf7fc3e3d0189f4", "4fcdff786d7e3f36"),
    }

    @pytest.mark.parametrize("cls", list(FactorClass), ids=lambda c: c.value)
    def test_pinned_enumeration(self, cls):
        for size, digest in enumerate(self.PINNED[cls], 1):
            edges = [[list(e) for e in f.edges]
                     for f in enumerate_frames(cls, size)]
            got = hashlib.sha256(json.dumps(edges).encode()).hexdigest()
            assert got[:16] == digest, (cls, size)

    def test_deterministic_order(self):
        a = enumerate_frames(FactorClass.S4, 3)
        b = enumerate_frames(FactorClass.S4, 3)
        assert [f.edges for f in a] == [f.edges for f in b]

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_frames(FactorClass.T, 0)


class TestSearch:
    def test_reflexivity_axiom_has_no_countermodel(self, store):
        f = parse("[1]p1 -> p1", 2, store)
        out = search_countermodel(f, TT, SearchBudget(max_worlds_per_factor=2))
        assert out.status == "none-within-bounds"

    def test_converse_found_on_two_point_factor(self, store):
        f = parse("p1 -> [1]p1", 2, store)
        out = search_countermodel(f, TT, SearchBudget(max_worlds_per_factor=2))
        assert out.found
        assert out.model.factors[0].worlds == 2
        assert out.model.factors[0].is_reflexive

    def test_left_commutation_valid(self, store):
        f = parse("[1][2]p1 -> [2][1]p1", 2, store)
        out = search_countermodel(f, TT, SearchBudget(max_worlds_per_factor=2))
        assert out.status == "none-within-bounds"

    def test_found_models_verified_naively(self, store):
        f = parse("p1 -> [2]p1", 2, store)
        out = search_countermodel(f, TT, SearchBudget())
        assert out.found
        assert not check_naive(out.model, out.model.point, f)

    def test_determinism_and_monotonicity(self, store):
        f = parse("p1 -> [1]p1", 2, store)
        small = search_countermodel(f, TT, SearchBudget(max_worlds_per_factor=2))
        large = search_countermodel(f, TT, SearchBudget(max_worlds_per_factor=3))
        assert small.found and large.found
        # deterministic ordering: the larger budget finds the same model
        assert small.model.to_json() == large.model.to_json()

    def test_budget_exhaustion_reported_distinctly(self, store):
        f = parse("[1]p1 -> p1", 2, store)
        out = search_countermodel(
            f, TT, SearchBudget(max_worlds_per_factor=3, time_limit=0.0))
        assert out.status == "budget-exhausted"

    def test_zero_budget_rejected(self):
        # a budget is checked when it is made, not by the search it bounds
        with pytest.raises(ValueError, match="at least one world"):
            SearchBudget(max_worlds_per_factor=0)
        with pytest.raises(ValueError, match="at least one world"):
            SearchBudget(per_factor_max=(2, 0))

    def test_zero_sampled_valuations_rejected(self):
        # whether the search would sample (3 variables at 3x3 is 27 bits,
        # above the exhaustive cutoff) or not (one variable), a budget of no
        # valuations is refused before any formula is read
        with pytest.raises(ValueError, match="at least one valuation"):
            SearchBudget(max_valuations=0)

    @pytest.mark.parametrize("limit", [float("nan"), -1.0])
    def test_bad_time_limit_rejected(self, limit):
        # NaN would switch the limit off and a negative one would end every
        # search at once; 0 and None stay valid
        with pytest.raises(ValueError, match="time limit"):
            SearchBudget(time_limit=limit)
        SearchBudget(time_limit=0.0)
        SearchBudget(time_limit=None)

    def test_limits_per_factor(self):
        assert SearchBudget(max_worlds_per_factor=2).limits(3) == (2, 2, 2)
        budget = SearchBudget(per_factor_max=(4, 1))
        assert budget.limits(2) == (4, 1)
        with pytest.raises(ValueError, match="arity mismatch"):
            budget.limits(3)

    @pytest.mark.parametrize("limits", [(3, 3), (4, 1), (2, 2, 2), (1, 3, 2)])
    def test_size_vectors_by_total_then_lexicographic(self, limits):
        vectors = itertools.product(*(range(1, lim + 1) for lim in limits))
        assert list(_size_vectors(limits)) == \
            sorted(vectors, key=lambda v: (sum(v), v))

    def test_time_limit_cuts_before_listing_size_vectors(self, store):
        # twelve factors of up to 3 worlds have 3**12 = 531,441 size
        # vectors; listing and sorting them all before the first deadline
        # check took over 100 MB of traced memory
        classes = (FactorClass.T,) * 12
        f = parse("p1", len(classes), store)
        tracemalloc.start()
        try:
            out = search_countermodel(f, classes,
                                      SearchBudget(time_limit=0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status == "budget-exhausted"
        assert peak < 4 * 2**20

    def test_exhaustive_mode_refuses_sampling(self, store):
        f = parse("p1 & p2", 2, store)
        oversized = SearchBudget(per_factor_max=(5, 4), exhaustive=True)
        with pytest.raises(ValueError):
            search_countermodel(f, TT, oversized)
        # within the cutoff the flag changes nothing
        small = SearchBudget(max_worlds_per_factor=2, exhaustive=True)
        assert search_countermodel(f, TT, small).found

    def test_whole_refutable_corpus_found(self, store):
        budget = SearchBudget(max_worlds_per_factor=3)
        for text in REFUTABLE_CORPUS:
            f = parse(text, 2, store)
            out = search_countermodel(f, TT, budget)
            assert out.found, text

    def test_whole_valid_corpus_certified(self, store):
        budget = SearchBudget(max_worlds_per_factor=2, exhaustive=True)
        for text in VALID_CORPUS_TT:
            f = parse(text, 2, store)
            out = search_countermodel(f, TT, budget)
            assert out.status == "none-within-bounds", text

    def test_time_limit_holds_inside_one_frame(self, store, monkeypatch):
        # one 1x1 frame, 2**16 valuations: the deadline must cut the sweep.
        # The sweep takes a few milliseconds, too short for a wall-clock
        # deadline to cut reliably, so a clock that moves one second per
        # reading stands in: it passes the deadline after the first block.
        ticks = itertools.count()
        monkeypatch.setattr("onevar.search.time",
                            SimpleNamespace(monotonic=lambda: next(ticks)))
        conj = " & ".join(f"p{i}" for i in range(1, 17))
        f = parse(f"{conj} -> p1", 2, store)
        out = search_countermodel(
            f, TT, SearchBudget(per_factor_max=(1, 1), time_limit=1.5))
        assert out.status == "budget-exhausted"
        assert out.stats == {"models-checked": 2 ** BLOCK_BITS,
                             "frames-checked": 1}

    def test_none_within_bounds_builds_no_model(self, store, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a model was built without a refutation")
        monkeypatch.setattr("onevar.search.ProductModel", refuse)
        f = parse("[1]p1 -> p1", 2, store)
        out = search_countermodel(f, TT, SearchBudget(max_worlds_per_factor=2))
        assert out.status == "none-within-bounds"

    def test_witness_lists_variables_false_everywhere(self, store):
        f = parse("p1 | p2", 2, store)
        out = search_countermodel(f, TT, SearchBudget(per_factor_max=(1, 1)))
        assert out.model.to_json()["valuation"] == {"p1": [], "p2": []}

    def test_sampled_witness_pinned(self, store):
        # 1024 exhaustive valuations on the 1x1 frame, then 512 sampled
        # valuations per 20-bit 1x2 frame; the values are those of the
        # frozenset-valuation search this one replaced
        conj = " & ".join(f"p{i}" for i in range(2, 11))
        f = parse(f"(p1 -> [2]p1) | ({conj} & F)", 2, store)
        out = search_countermodel(
            f, TT, SearchBudget(per_factor_max=(1, 2), seed=3))
        assert out.stats == {"models-checked": 1546, "frames-checked": 3}
        reflexive = {"worlds": 1, "edges": [[0, 0]]}
        assert out.model.to_json() == {
            "factors": [reflexive,
                        {"worlds": 2, "edges": [[0, 0], [0, 1], [1, 1]]}],
            "valuation": {"p1": [[0, 0]], "p2": [[0, 1]], "p3": [[0, 0]],
                          "p4": [[0, 1]], "p5": [[0, 1]], "p6": [[0, 0]],
                          "p7": [[0, 1]], "p8": [],
                          "p9": [[0, 0], [0, 1]], "p10": [[0, 0]]},
            "point": [0, 0],
        }

    def test_first_find_in_second_block(self, store):
        # only the all-true valuation (the last of 2**13) refutes, so the
        # witness is the last lane of the second block of 2**12
        conj = " & ".join(f"p{i}" for i in range(1, 14))
        f = parse(f"{conj} -> F", 2, store)
        out = search_countermodel(f, TT, SearchBudget(per_factor_max=(1, 1)))
        assert out.status == "found"
        assert out.stats == {"models-checked": 8192, "frames-checked": 1}
        assert out.model.to_json()["valuation"] == {
            f"p{i}": [[0, 0]] for i in range(1, 14)}

    def test_find_all_order_pinned(self, store):
        # every frame up to 2x2 with 2**(2n) valuations each; the list (in
        # order) is the one the one-valuation-at-a-time sweep produced
        f = parse("p1 & p2 -> [1](p1 & p2)", 2, store)
        found, status = find_all_countermodels(
            f, TT, SearchBudget(per_factor_max=(2, 2)))
        assert status == "none-within-bounds"
        assert len(found) == 1332
        doc = json.dumps([m.to_json() for m in found]).encode()
        assert hashlib.sha256(doc).hexdigest().startswith("97c49d516463b599")

    def test_sampled_find_all_across_blocks_pinned(self, store):
        # 5000 sampled valuations per 1x2 frame: a block of 4096 and a
        # short one of 904, whose plan must be tiled afresh; the values
        # are those of the one-valuation-at-a-time sweep
        f = parse(" | ".join(f"p{i}" for i in range(1, 12)), 2, store)
        found, status = find_all_countermodels(
            f, TT, SearchBudget(per_factor_max=(1, 2), max_valuations=5000))
        assert status == "budget-exhausted"
        assert len(found) == 17
        doc = json.dumps([m.to_json() for m in found]).encode()
        assert hashlib.sha256(doc).hexdigest().startswith("3276bcde7ae5e74d")

    def test_find_all_order_across_frame_blocks_pinned(self, store):
        # up to 4096 // V whole frames share a block, S4 and S5 frame counts
        # are not powers of two, and blocks end short; the lists (in order)
        # are those of the frame-by-frame sweep
        S4, S5, K = FactorClass.S4, FactorClass.S5, FactorClass.K
        for text, classes, count, digest in (
                ("p1 -> [1][2]p1", (S4, FactorClass.T), 6240,
                 "a87212a4972c7749"),
                ("<1>p1 -> [1]p1", (S5, K), 3496, "965f87d1977f0447")):
            found, status = find_all_countermodels(
                parse(text, 2, store), classes,
                SearchBudget(per_factor_max=(3, 2)))
            assert status == "none-within-bounds"
            assert len(found) == count, text
            doc = json.dumps([m.to_json() for m in found]).encode()
            assert hashlib.sha256(doc).hexdigest().startswith(digest), text

    def test_reduction_witness_counters_pinned(self, store):
        # the first countermodel of reduce(F) over T x T within (4, 1): both
        # counters are read off the witness's lane, as the frame-by-frame
        # sweep counted them
        f = parse("F", 2, store)
        ctx = TranslationContext.for_formula(store, f, 2, DEFAULT_VARIANT)
        out = search_countermodel(
            ctx.reduce(f), TT, SearchBudget(per_factor_max=(4, 1),
                                            exhaustive=True))
        assert out.found
        assert out.stats == {"models-checked": 1773, "frames-checked": 147}

    def test_one_plan_per_witness(self, store, monkeypatch):
        # the search builds one product() plan per witness, of the
        # witness's own factors, and the model holds it; the models, in
        # order, and both counters are pinned
        calls = []

        def counted(factors):
            calls.append(tuple(factors))
            return product(factors)

        monkeypatch.setattr(onevar.search, "product", counted)
        source = parse("F", 2, store)
        reduced = TranslationContext.for_formula(
            store, source, 2, DEFAULT_VARIANT).reduce(source)
        for f, limits, count, digest, stats in (
                (parse("p1 & p2 -> [1](p1 & p2)", 2, store), (2, 2), 1332,
                 "97c49d516463b599",
                 {"models-checked": 4228, "frames-checked": 25}),
                (reduced, (4, 1), 384, "1c77d2a084a9b5c3",
                 {"models-checked": 66066, "frames-checked": 4165})):
            budget = SearchBudget(per_factor_max=limits)
            calls.clear()
            found, status = find_all_countermodels(f, TT, budget)
            assert status == "none-within-bounds"
            assert len(found) == len(calls) == count
            doc = json.dumps([m.to_json() for m in found]).encode()
            assert hashlib.sha256(doc).hexdigest().startswith(digest)
            assert calls == [m.factors for m in found]
            assert len({id(m.frame) for m in found}) == count
            assert _search(f, TT, budget, lambda model: False) == (
                "none-within-bounds", stats)

    def test_find_all_collects_every_model(self, store):
        f = parse("p1", 2, store)
        found, status = find_all_countermodels(
            f, TT, SearchBudget(max_worlds_per_factor=1))
        # one T frame per factor, two valuations of one variable over one
        # world; only the empty one refutes p1 at the point
        assert status == "none-within-bounds"
        assert len(found) == 1

    def test_too_deep_to_recheck_rejected(self, store):
        # the bitmask pass is iterative but the naive re-check recurses, so
        # a witness of a 3,000-deep chain cannot be verified and is refused
        f = store.var(1)
        for _ in range(3000):
            f = store.and_(f, store.var(1))
        with pytest.raises(ValueError, match="nested too deeply for the "
                                             "naive re-check"):
            search_countermodel(f, TT, SearchBudget(per_factor_max=(1, 1)))


class TestRandomFormula:
    def test_deterministic_and_bounded(self, store):
        import random as _random
        a = [random_formula(store, _random.Random(9), 2, 3, 3)
             for _ in range(20)]
        b = [random_formula(store, _random.Random(9), 2, 3, 3)
             for _ in range(20)]
        assert a == b
        for f in a:
            assert f.depth <= 3
            assert all(1 <= v <= 3 for v in f.var_set)


class TestCalibration:
    def test_default_variant_selected(self):
        budget = SearchBudget(max_worlds_per_factor=3, seed=7)
        report = calibrate_variants(VARIANT_GRID, CALIBRATION_CORPUS,
                                    [TT, TS5], budget)
        assert report.selected == DEFAULT_VARIANT.name
        assert report.ties == (DEFAULT_VARIANT.name,)
        assert all(p == t for p, t in report.rows[report.selected].values())

    def test_wrong_variants_fail_with_witnesses(self):
        budget = SearchBudget(max_worlds_per_factor=2, seed=7)
        report = calibrate_variants(VARIANT_GRID, ("p1", "p1 -> [1]p1"),
                                    [TT], budget)
        for variant in VARIANT_GRID:
            if variant.name == DEFAULT_VARIANT.name:
                continue
            row = report.rows[variant.name]
            assert not all(p == t for p, t in row.values())
            assert variant.name in report.witnesses

    def test_agreement_failure_witnessed_on_positive_instance(self):
        # an instance whose countermodel forces a true source variable;
        # keeping the first rung unmarked starves the marker, so the lone
        # grid entry fails and the error carries the verdict table
        budget = SearchBudget(max_worlds_per_factor=2, seed=7)
        with pytest.raises(NoPassingVariant) as err:
            calibrate_variants([VariantConfig(mark_first_rung=False)],
                               ("p1 -> [1]p1",), [TT], budget)
        report = err.value.report
        name = VariantConfig(mark_first_rung=False).name
        assert name in report.witnesses
        row = report.rows[name]
        assert row["marker-agreement"][0] < row["marker-agreement"][1]

    def test_report_json_deterministic(self):
        budget = SearchBudget(max_worlds_per_factor=2, seed=13)
        docs = []
        for _ in range(2):
            report = calibrate_variants(VARIANT_GRID, ("p1", "p1 -> [1]p1"),
                                        [TT], budget)
            docs.append(json.dumps(report.to_json(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_k_mode_ties_surfaced(self):
        budget = SearchBudget(max_worlds_per_factor=2, seed=7)
        report = calibrate_variants(VARIANT_GRID,
                                    CALIBRATION_CORPUS + ("[1]p1 -> p1",),
                                    [KK], budget, k_mode=True)
        assert report.selected == K_MODE_DEFAULT_VARIANT.name
        assert set(report.ties) == {"composite+rung0",
                                    "composite+rung0+shield"}


class TestDifferentialSuite:
    def test_both_directions_on_bottom(self):
        report = differential_suite(
            ("F",), TT,
            SearchBudget(max_worlds_per_factor=1),
            4, DEFAULT_VARIANT)
        row = report.rows[0]
        assert row.source_search == "found"
        assert row.transfer == "verified"
        assert row.round_trip == "verified"
        assert row.reduction_search == "found"
        assert row.extraction == "verified"
        assert report.passed

    def test_valid_formula_vacuous(self):
        report = differential_suite(
            ("[1]p1 -> p1",), TT,
            SearchBudget(max_worlds_per_factor=2),
            2, DEFAULT_VARIANT)
        row = report.rows[0]
        assert row.source_search == "none-within-bounds"
        assert row.transfer == "vacuous"
        assert report.passed

    def test_transfer_exercised_end_to_end(self):
        report = differential_suite(
            ("p1 -> [2]p1",), TT,
            SearchBudget(max_worlds_per_factor=2),
            2, DEFAULT_VARIANT)
        row = report.rows[0]
        assert row.source_search == "found"
        assert row.transfer == "verified"
        assert row.round_trip == "verified"
        assert report.passed

    def test_shipped_corpus_passes(self):
        # both directions at 100% over the default corpus; the reduction
        # direction sweeps a 4-world first factor, so this is the slowest
        # test in the module
        from onevar.cli import DEFAULT_SUITE_CORPUS
        report = differential_suite(
            DEFAULT_SUITE_CORPUS, TT,
            SearchBudget(max_worlds_per_factor=2),
            4, DEFAULT_VARIANT)
        assert report.passed
        exercised = [r for r in report.rows if r.transfer == "verified"]
        assert len(exercised) >= 5
        extracted = [r for r in report.rows if r.extraction == "verified"]
        assert len(extracted) >= 2

    def test_reduction_budget_widens_the_first_factor_alone(self,
                                                            monkeypatch):
        # the reduction is searched with the source budget bounded to
        # reduction_worlds first-factor worlds and one world elsewhere
        budgets = []
        search = onevar.search.search_countermodel
        monkeypatch.setattr(onevar.search, "search_countermodel",
                            lambda f, classes, budget:
                            budgets.append(budget) or search(f, classes,
                                                             budget))
        budget = SearchBudget(max_worlds_per_factor=1, max_valuations=7,
                              seed=5)
        differential_suite(("F",), TT + (FactorClass.T,), budget, 2,
                           DEFAULT_VARIANT)
        assert budgets == [budget, dataclasses.replace(
            budget, per_factor_max=(2, 1, 1))]

    def test_unverified_transfer_fails_the_suite(self):
        # the plain reading's transfer does not refute the reduction of F
        report = differential_suite(("F",), TT,
                                    SearchBudget(max_worlds_per_factor=2), 3,
                                    VariantConfig(False, False, False))
        row = report.rows[0]
        assert row.source_search == "found"
        assert row.transfer == "failed"
        assert row.round_trip == "vacuous"
        assert report.passed is False

    def test_unverified_extraction_fails_the_suite(self, monkeypatch):
        def refuse(*args):
            raise ExtractionFailed("refused")
        monkeypatch.setattr(onevar.search, "extract_countermodel", refuse)
        report = differential_suite(("F",), TT,
                                    SearchBudget(max_worlds_per_factor=1), 4,
                                    DEFAULT_VARIANT)
        row = report.rows[0]
        assert row.transfer == "verified"
        assert row.round_trip == "failed"
        assert row.reduction_search == "found"
        assert row.extraction == "failed"
        assert report.passed is False

    def test_k_mode_takes_a_k_first_factor(self):
        report = differential_suite(("F",), KK,
                                    SearchBudget(max_worlds_per_factor=1), 2,
                                    K_MODE_DEFAULT_VARIANT, k_mode=True)
        assert report.passed


class TestReflexiveFirstFactor:
    # outside K-mode the gadgets need a reflexive first factor, so both
    # drivers reject a class tuple that starts with K before any search
    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("searched")
        monkeypatch.setattr(onevar.search, "search_countermodel", search)

    def test_suite(self):
        with pytest.raises(ValueError, match="must be reflexive"):
            differential_suite(("F",), KK, SearchBudget(), 4,
                               DEFAULT_VARIANT)

    def test_calibration(self):
        with pytest.raises(ValueError, match="must be reflexive"):
            calibrate_variants(VARIANT_GRID, ("F",),
                               [TT, (FactorClass.K, FactorClass.T)],
                               SearchBudget())
