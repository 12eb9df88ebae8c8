"""Acceptance suite: one test per criterion, one PASS line per criterion.

The criteria pin their budgets here: searches labeled exhaustive fully
enumerate frames in canonical order and valuations whenever the assignment
space is at most 2**18; the validity sanity checks use factor sizes up to 2,
the countermodel corpus factor sizes up to 3, and the direct
reduction-countermodel sweep a 4-world first factor against a 1-world second
factor.
"""

import json
import random
import time
from pathlib import Path

from onevar.formulas import FormulaStore, dag_size, parse
from onevar.kripke import check_naive
from onevar.search import (CALIBRATION_CORPUS, REDUCTION_SEARCH_CORPUS,
                           FactorClass, SearchBudget, calibrate_variants,
                           find_all_countermodels, random_formula,
                           search_countermodel)
from onevar.surgery import (check_kept_points_marked, check_marker_agreement,
                            check_marker_exactness, extract_countermodel,
                            transfer_countermodel)
from onevar.translation import (DEFAULT_VARIANT, K_MODE_DEFAULT_VARIANT,
                                VARIANT_GRID, TranslationContext)
from tests.test_search import REFUTABLE_CORPUS

FIXTURES = Path(__file__).parent / "fixtures"
TT = (FactorClass.T, FactorClass.T)
TS5 = (FactorClass.T, FactorClass.S5)
KK = (FactorClass.K, FactorClass.K)


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def transfer_corpus(store, classes, budget, variant, k_mode):
    """Search a countermodel for every refutable corpus formula and pair it
    with its translation context."""
    out = []
    for text in REFUTABLE_CORPUS:
        f = parse(text, 2, store)
        outcome = search_countermodel(f, classes, budget)
        assert outcome.found, f"expected a countermodel for {text!r}"
        ctx = TranslationContext.for_formula(store, f, 2, variant)
        out.append((text, f, ctx, outcome.model))
    return out


class TestAcceptance:
    def test_1_single_variable_contract(self):
        started = time.perf_counter()
        store = FormulaStore()
        rng = random.Random(20240501)
        failures = 0
        for _ in range(500):
            f = random_formula(store, rng, arity=2, max_var=3, max_depth=3)
            ctx = TranslationContext.for_formula(store, f, 2)
            if not ctx.reduce(f).var_set <= {0}:
                failures += 1
        elapsed = time.perf_counter() - started
        ok = failures == 0 and elapsed < 10.0
        report_line(1, ok, f"500 reductions single-variable, "
                           f"{failures} failures, {elapsed:.2f}s (< 10s)")
        assert failures == 0
        assert elapsed < 10.0

    def test_2_size_growth(self):
        started = time.perf_counter()
        store = FormulaStore()
        trees, dags = [], []
        for d in range(1, 6):
            ctx = TranslationContext(store, 2, 1, d)
            guard = ctx.uniform_guard()
            trees.append(guard.tree_size)
            dags.append(dag_size(guard))
        ratios = [trees[i + 1] / trees[i] for i in range(4)]
        increments = [dags[i + 1] - dags[i] for i in range(4)]
        elapsed = time.perf_counter() - started
        ok = (all(r >= 3 for r in ratios)
              and all(inc <= 16 for inc in increments)
              and elapsed < 5.0)
        report_line(2, ok,
                    f"guard tree ratios {['%.2f' % r for r in ratios]} all "
                    f">= 3; dag increments {increments} all <= 16; "
                    f"{elapsed:.2f}s (< 5s)")
        assert all(r >= 3 for r in ratios)
        assert all(inc <= 16 for inc in increments)
        # the shared representation grows by the same amount each step
        assert len(set(increments)) == 1
        assert elapsed < 5.0

    def test_3_calibration(self):
        started = time.perf_counter()
        store = FormulaStore()
        budget = SearchBudget(max_worlds_per_factor=3, seed=7)
        report = calibrate_variants(VARIANT_GRID, CALIBRATION_CORPUS,
                                    [TT, TS5], budget, store)
        elapsed = time.perf_counter() - started
        fixture = json.loads(
            (FIXTURES / "calibration_report.json").read_text())
        matches_fixture = report.to_json() == fixture
        passed = [p == t for p, t in report.rows[report.selected].values()]
        ok = (report.selected == DEFAULT_VARIANT.name and all(passed)
              and matches_fixture and elapsed < 600.0)
        report_line(3, ok,
                    f"selected {report.selected} at 100% on all five check "
                    f"families; report matches the committed fixture; "
                    f"{elapsed:.2f}s (< 600s)")
        assert report.selected == DEFAULT_VARIANT.name
        assert all(passed)
        assert matches_fixture
        assert elapsed < 600.0

    def test_4_transfer_soundness(self):
        started = time.perf_counter()
        store = FormulaStore()
        budget = SearchBudget(max_worlds_per_factor=3)
        corpus = transfer_corpus(store, TT, budget, DEFAULT_VARIANT,
                                 k_mode=False)
        assert len(corpus) >= 30
        verified = 0
        for text, f, ctx, base in corpus:
            result = transfer_countermodel(base, f, ctx)
            # independent re-verification with the naive evaluator
            assert not check_naive(result.model, result.point, ctx.reduce(f))
            assert check_naive(result.model, result.point,
                               ctx.uniform_guard())
            verified += 1
        elapsed = time.perf_counter() - started
        ok = verified == len(corpus) and elapsed < 600.0
        report_line(4, ok,
                    f"{verified}/{len(corpus)} transfers verified by the "
                    f"naive evaluator; {elapsed:.2f}s (< 600s)")
        assert verified == len(corpus)
        assert elapsed < 600.0

    def test_5_extraction_soundness(self):
        started = time.perf_counter()
        store = FormulaStore()
        extracted = 0
        attempts = 0
        # direct sweep: every reduction countermodel within bounds (the
        # refuting point satisfies the guard by the shape of the reduction)
        sweep_budget = SearchBudget(per_factor_max=(4, 1),
                                    max_worlds_per_factor=4)
        for text in REDUCTION_SEARCH_CORPUS:
            f = parse(text, 2, store)
            ctx = TranslationContext.for_formula(store, f, 2)
            found, status = find_all_countermodels(ctx.reduce(f), TT,
                                                   sweep_budget)
            assert status == "none-within-bounds"  # sweep completed
            assert found, f"expected reduction countermodels for {text!r}"
            for model in found:
                attempts += 1
                extraction = extract_countermodel(model, f, ctx)
                assert extraction.checks["refutes-source"]
                extracted += 1
        # round trips from the transfer corpus
        budget = SearchBudget(max_worlds_per_factor=3)
        for text, f, ctx, base in transfer_corpus(store, TT, budget,
                                                  DEFAULT_VARIANT, False):
            result = transfer_countermodel(base, f, ctx)
            attempts += 1
            extraction = extract_countermodel(result.model, f, ctx)
            assert extraction.checks["refutes-source"]
            extracted += 1
        elapsed = time.perf_counter() - started
        ok = extracted == attempts and elapsed < 600.0
        report_line(5, ok,
                    f"{extracted}/{attempts} extractions verified "
                    f"(direct sweeps plus round trips); {elapsed:.2f}s "
                    f"(< 600s)")
        assert extracted == attempts
        assert elapsed < 600.0

    def test_6_subclaim_suites(self):
        started = time.perf_counter()
        store = FormulaStore()
        budget = SearchBudget(max_worlds_per_factor=3)
        agreement_violations = 0
        kept_violations = 0
        instances = 0
        for classes in (TT, TS5):
            for text in CALIBRATION_CORPUS:
                f = parse(text, 2, store)
                outcome = search_countermodel(f, classes, budget)
                if not outcome.found:
                    continue
                instances += 1
                ctx = TranslationContext.for_formula(store, f, 2)
                result = transfer_countermodel(outcome.model, f, ctx)
                agreement_violations += len(
                    check_marker_agreement(result, outcome.model,
                                           ctx).violations)
                extraction = extract_countermodel(result.model, f, ctx)
                kept_violations += len(
                    check_kept_points_marked(result.model, extraction,
                                             ctx).violations)
        elapsed = time.perf_counter() - started
        ok = (instances > 0 and agreement_violations == 0
              and kept_violations == 0)
        report_line(6, ok,
                    f"{instances} calibrated instances: marker agreement and "
                    f"kept-point marking scans clean; {elapsed:.2f}s")
        assert instances > 0
        assert agreement_violations == 0
        assert kept_violations == 0

    def test_7_known_validity_sanity(self):
        started = time.perf_counter()
        store = FormulaStore()
        budget = SearchBudget(max_worlds_per_factor=2)
        outcomes = {}
        for text in ("[1]p1 -> p1", "[1][2]p1 -> [2][1]p1", "p1 -> [1]p1"):
            f = parse(text, 2, store)
            outcomes[text] = search_countermodel(f, TT, budget)
        expected = {"[1]p1 -> p1": False,
                    "[1][2]p1 -> [2][1]p1": False,
                    "p1 -> [1]p1": True}
        got = {text: outcome.found for text, outcome in outcomes.items()}
        certified = all(outcomes[t].status == "none-within-bounds"
                        for t, found in expected.items() if not found)
        elapsed = time.perf_counter() - started
        ok = got == expected and certified
        report_line(7, ok,
                    f"exact verdicts {got} at exhaustive factor sizes <= 2; "
                    f"{elapsed:.2f}s")
        assert got == expected
        assert certified

    def test_8_k_mode_regression(self):
        started = time.perf_counter()
        store = FormulaStore()
        budget = SearchBudget(max_worlds_per_factor=3, seed=7)
        corpus = CALIBRATION_CORPUS + ("[1]p1 -> p1",)

        # criterion 3 analogue: calibration over K x K
        report = calibrate_variants(VARIANT_GRID, corpus, [KK], budget,
                                    store, k_mode=True)
        fixture = json.loads(
            (FIXTURES / "calibration_report_kmode.json").read_text())
        calibration_ok = (report.selected == K_MODE_DEFAULT_VARIANT.name
                          and all(p == t for p, t
                                  in report.rows[report.selected].values())
                          and report.to_json() == fixture)

        # criteria 4 and 5 analogues: transfer with naive re-verification,
        # extraction on direct sweeps and round trips
        variant = K_MODE_DEFAULT_VARIANT
        transfers = 0
        extractions = 0
        attempts = 0
        for text, f, ctx, base in transfer_corpus(store, KK, budget, variant,
                                                  k_mode=True):
            result = transfer_countermodel(base, f, ctx, k_mode=True)
            assert not check_naive(result.model, result.point, ctx.reduce(f))
            transfers += 1
            attempts += 1
            extraction = extract_countermodel(result.model, f, ctx)
            assert extraction.checks["refutes-source"]
            extractions += 1
        sweep_budget = SearchBudget(per_factor_max=(3, 1),
                                    max_worlds_per_factor=3)
        for text in REDUCTION_SEARCH_CORPUS:
            f = parse(text, 2, store)
            ctx = TranslationContext.for_formula(store, f, 2, variant)
            found, status = find_all_countermodels(ctx.reduce(f), KK,
                                                   sweep_budget)
            assert status == "none-within-bounds"
            assert found
            for model in found:
                attempts += 1
                extraction = extract_countermodel(model, f, ctx)
                assert extraction.checks["refutes-source"]
                extractions += 1

        # criterion 6 analogue: sub-claim scans on the calibrated instances
        agreement_violations = 0
        kept_violations = 0
        for text in corpus:
            f = parse(text, 2, store)
            outcome = search_countermodel(f, KK, budget)
            if not outcome.found:
                continue
            ctx = TranslationContext.for_formula(store, f, 2, variant)
            result = transfer_countermodel(outcome.model, f, ctx, k_mode=True)
            agreement_violations += len(
                check_marker_agreement(result, outcome.model, ctx).violations)
            exactness = check_marker_exactness(result, ctx)
            agreement_violations += len(exactness.violations)
            extraction = extract_countermodel(result.model, f, ctx)
            kept_violations += len(
                check_kept_points_marked(result.model, extraction,
                                         ctx).violations)

        elapsed = time.perf_counter() - started
        ok = (calibration_ok and transfers >= 30
              and extractions == attempts
              and agreement_violations == 0 and kept_violations == 0
              and elapsed < 600.0)
        report_line(8, ok,
                    f"K-mode: calibration selected {report.selected}; "
                    f"{transfers} transfers and {extractions}/{attempts} "
                    f"extractions verified; scans clean; {elapsed:.2f}s "
                    f"(< 600s)")
        assert calibration_ok
        assert transfers >= 30
        assert extractions == attempts
        assert agreement_violations == 0
        assert kept_violations == 0
        assert elapsed < 600.0
