"""The three benchmark workloads.

Each workload is built in two steps.  The constructor generates the inputs
from the seed as plain data (formula texts, model documents) and digests
them.  :meth:`prepare` then hands those inputs to ``onevar``: it parses the
formulas and builds the reductions.  Both steps count as set-up.  A pass
calls :meth:`run` on every item in order, timing only that call, and
:meth:`verify` afterwards, untimed.  ``run`` returns the library's raw
outputs; ``verify`` gates on verdicts and returns a failure description or
``None``.

``probe`` is a :class:`tracer.Tracer` in traced runs and
:data:`tracer.NO_PROBE` in untraced ones; workloads open spans on it around
each call into a layer.
"""

from __future__ import annotations

import hashlib
import json
import random

import onevar.formulas as formulas
import onevar.search as search
import onevar.surgery as surgery
from onevar.kripke import Frame1, ProductModel, check_naive, sat_set
from onevar.translation import TranslationContext

T = search.FactorClass.T
CLASSES = (T, T)


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    # Every run makes at least this many passes.  The tail percentile is
    # chosen from the item samples these passes guarantee, so it does not
    # change with the speed of the code or the machine.
    MIN_PASSES: int

    def __init__(self, seed: int):
        self.inputs = self.generate(random.Random(seed))
        self.digest = digest({"workload": self.name, "inputs": self.inputs})
        self.items: list = []

    def generate(self, rng: random.Random) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, item, probe):
        raise NotImplementedError

    def verify(self, item, output) -> str | None:
        raise NotImplementedError


class Certify(Workload):
    """Exhaustive none-within-bounds certificates over T x T.

    The full <=3 x <=3 bound costs about 10 s per formula, so each formula is
    certified under the per-factor bounds below, which reach 3-world factors
    on both sides and keep one pass near a second.
    """

    name = "certify"
    MIN_PASSES = 7
    BOUNDS = ((1, 3), (3, 1), (2, 2), (2, 3), (3, 2))

    def generate(self, rng):
        items = [[text, list(bound)] for text in search.VALID_CORPUS_TT
                 for bound in self.BOUNDS]
        rng.shuffle(items)
        return items

    def prepare(self):
        store = formulas.FormulaStore()
        self.items = [
            (text, formulas.parse(text, 2, store),
             search.SearchBudget(per_factor_max=tuple(bound),
                                 exhaustive=True))
            for text, bound in self.inputs]
        self.store = store

    def run(self, item, probe):
        _, f, budget = item
        with probe.span("search.search"):
            return search.search_countermodel(f, CLASSES, budget)

    def verify(self, item, outcome):
        if outcome.status != search.NONE_WITHIN_BOUNDS:
            return f"{item[0]!r}: search ended {outcome.status!r}"
        return None


class ReductionSweep(Workload):
    """Every countermodel of a reduction within a <=4-world T first factor
    and a 1-world second factor, each extracted back to the source."""

    name = "reduction-sweep"
    MIN_PASSES = 3
    REFUTABLE = search.REDUCTION_SEARCH_CORPUS
    IRREFUTABLE = ("p1", "p1 -> [1]p1", "[1]p1 -> p1", "p1 | ~p1")
    BUDGET = search.SearchBudget(per_factor_max=(4, 1), exhaustive=True)

    def generate(self, rng):
        items = [[text, True] for text in self.REFUTABLE]
        items += [[text, False] for text in self.IRREFUTABLE]
        rng.shuffle(items)
        return items

    def prepare(self):
        store = formulas.FormulaStore()
        self.items = []
        for text, refutable in self.inputs:
            f = formulas.parse(text, 2, store)
            ctx = TranslationContext.for_formula(store, f, 2)
            self.items.append((text, f, ctx, ctx.reduce(f), refutable))
        self.store = store

    def run(self, item, probe):
        _, f, ctx, reduced, _ = item
        with probe.span("search.search"):
            found, status = search.find_all_countermodels(reduced, CLASSES,
                                                          self.BUDGET)
        probe.add("search.found", len(found))
        extracted = []
        for model in found:
            probe.add("surgery.attempted")
            with probe.span("surgery.extract"):
                extracted.append(surgery.extract_countermodel(model, f, ctx))
            probe.add("surgery.verified")
        return status, extracted

    def verify(self, item, output):
        text, f, _, _, refutable = item
        status, extracted = output
        if status != search.NONE_WITHIN_BOUNDS:
            return f"{text!r}: sweep ended {status!r}"
        if refutable != bool(extracted):
            return (f"{text!r}: {len(extracted)} countermodels, expected "
                    f"{'some' if refutable else 'none'}")
        for result in extracted:
            if check_naive(result.model, result.point, f):
                return f"{text!r}: an extracted model satisfies the source"
        return None


class SurgeryScale(Workload):
    """Seeded source countermodels pushed through transfer, the four scans
    and extraction, with the variable bound m stepping from 1 to 16.

    The factor sizes cycle through every pair of 3 and 4 worlds for each m,
    and every formula has modal depth 2, so the gadget world counts (about
    m^2 * |W1| * |W2|) and the guard are the same for every seed; the seed
    draws the edges, the valuation and the formula.
    """

    name = "surgery-scale"
    MIN_PASSES = 4
    MAX_VARS = 16
    SIZES = ((3, 3), (3, 4), (4, 3), (4, 4))
    FORMULA_DEPTH = 2
    FORMULA_SIZE = 12

    def generate(self, rng):
        scratch = formulas.FormulaStore()
        return [self._instance(rng, scratch, m, s1, s2)
                for m in range(1, self.MAX_VARS + 1) for s1, s2 in self.SIZES]

    def _instance(self, rng, scratch, m, s1, s2):
        """A formula with largest variable ``pm`` and modal depth
        ``FORMULA_DEPTH``, and a model of it with a refuting point, as
        formula text and model JSON."""
        while True:
            f = search.random_formula(scratch, rng, 2, m, self.FORMULA_DEPTH,
                                      self.FORMULA_SIZE)
            if (max(f.var_set, default=0) != m
                    or f.depth != self.FORMULA_DEPTH):
                continue
            factors = [self._t_frame(rng, s1), self._t_frame(rng, s2)]
            worlds = s1 * s2
            valuation = {k: [w for w in range(worlds) if rng.getrandbits(1)]
                         for k in range(1, m + 1)}
            model = ProductModel(factors, valuation, 0)
            refuting = set(range(worlds)) - sat_set(model, f)
            if refuting:
                model = ProductModel(factors, valuation, min(refuting),
                                     model.frame)
                return {"formula": formulas.render(f),
                        "model": model.to_json()}

    @staticmethod
    def _t_frame(rng, size):
        edges = [(a, b) for a in range(size) for b in range(size)
                 if a == b or rng.getrandbits(1)]
        return Frame1(size, edges)

    def prepare(self):
        store = formulas.FormulaStore()
        self.items = []
        for doc in self.inputs:
            f = formulas.parse(doc["formula"], 2, store)
            ctx = TranslationContext.for_formula(store, f, 2)
            ctx.reduce(f)
            self.items.append((doc, f, ctx))
        self.store = store

    def run(self, item, probe):
        doc, f, ctx = item
        # a fresh source model per pass, so no pass reuses another's caches
        base = ProductModel.from_json(doc["model"])
        probe.add("surgery.attempted")
        with probe.span("surgery.transfer"):
            transferred = surgery.transfer_countermodel(base, f, ctx)
        probe.add("surgery.verified")
        with probe.span("surgery.scan"):
            scans = [surgery.check_marker_agreement(transferred, base, ctx),
                     surgery.check_marker_exactness(transferred, ctx),
                     surgery.check_subformula_preservation(base, transferred,
                                                           f, ctx)]
        probe.add("surgery.attempted")
        with probe.span("surgery.extract"):
            extracted = surgery.extract_countermodel(transferred.model, f,
                                                     ctx)
        probe.add("surgery.verified")
        with probe.span("surgery.scan"):
            scans.append(surgery.check_kept_points_marked(transferred.model,
                                                          extracted, ctx))
        return base, transferred, scans, extracted

    def verify(self, item, output):
        doc, f, _ = item
        base, transferred, scans, extracted = output
        text = doc["formula"]
        if transferred.model.coords_of(transferred.point) != \
                base.coords_of(base.point):
            return f"{text!r}: transfer moved the refuting point"
        for scan in scans:
            if not scan.passed:
                return (f"{text!r}: scan {scan.name} found "
                        f"{len(scan.violations)} violations")
        if check_naive(extracted.model, extracted.point, f):
            return f"{text!r}: the extracted model satisfies the source"
        return None


WORKLOADS = {w.name: w for w in (Certify, ReductionSweep, SurgeryScale)}
