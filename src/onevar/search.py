"""Desk-scale brute force: frame enumeration, countermodel search,
variant calibration and the differential suite.

Everything here is deterministic given a seed.  Frames are enumerated in
canonical adjacency order without isomorphism rejection (duplicates are
affordable at these sizes), valuations exhaustively while the assignment
space is at most ``2**EXHAUSTIVE_VALUATION_BITS`` and by seeded sampling
beyond that.  Every frame of a size is checked under the same
valuations, so the (frame, valuation) pairs of a size are lanes laid out
frame-major (:class:`~onevar.kripke.LaneLayout`), and one bitmask pass over
a block's shift plan checks up to ``2**BLOCK_BITS`` lanes: whole frames
while a frame's valuations fit in a block, slices of one frame beyond
that.  Every countermodel the search returns
has been re-checked with the independent naive evaluator, so a result is
never an artifact of the bitmask checker.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from onevar.formulas import Formula, FormulaStore, parse, variables
# sat_set is unused here; perfbench/tracer.py patches onevar.search.sat_set
from onevar.kripke import (Frame1, FrameList, LaneLayout, ProductModel,
                           check_naive, product, reflexive_closure, repunit,
                           sat_mask, sat_set, symmetric_closure,
                           transitive_closure)
from onevar.surgery import (ExtractionFailed, PreconditionFailed,
                            TransferFailed, build_extraction, build_transfer,
                            check_kept_points_marked, check_marker_agreement,
                            check_marker_exactness, extract_countermodel,
                            transfer_countermodel)
from onevar.translation import (DEFAULT_VARIANT, K_MODE_DEFAULT_VARIANT,
                                VARIANT_GRID, TranslationContext,
                                VariantConfig)

EXHAUSTIVE_VALUATION_BITS = 18
BLOCK_BITS = 12  # a block holds at most 2**BLOCK_BITS (frame, valuation) lanes


class FactorClass(str, enum.Enum):
    """Frame classes the factor logics are sampled from."""

    K = "K"
    T = "T"
    S4 = "S4"
    S5 = "S5"

    @classmethod
    def from_name(cls, name: str) -> "FactorClass":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown frame class {name!r}; "
                             f"known: K, T, S4, S5") from None


def is_member(frame: Frame1, cls: FactorClass) -> bool:
    """Decidable class membership on finite frames."""
    if cls is FactorClass.K:
        return True
    edges = set(frame.edges)
    reflexive = frame.is_reflexive
    if cls is FactorClass.T:
        return reflexive
    transitive = all((a, c) in edges
                     for a, b in edges for b2, c in edges if b == b2)
    if cls is FactorClass.S4:
        return reflexive and transitive
    symmetric = all((b, a) in edges for a, b in edges)
    return reflexive and transitive and symmetric


def _k_frames(size: int) -> list[Frame1]:
    cells = [(a, b) for a in range(size) for b in range(size)]
    frames = []
    for mask in range(1 << len(cells)):
        edges = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        frames.append(Frame1(size, edges))
    return frames


def _t_frames(size: int) -> list[Frame1]:
    cells = [(a, b) for a in range(size) for b in range(size) if a != b]
    loops = [(w, w) for w in range(size)]
    frames = []
    for mask in range(1 << len(cells)):
        edges = loops + [cells[i] for i in range(len(cells)) if mask >> i & 1]
        frames.append(Frame1(size, edges))
    return frames


def _closure_family(size: int, close: Callable) -> list[Frame1]:
    # Closing every T-frame reaches every fixed point of the closure at this
    # size, so the deduplicated image is the whole class.
    seen = {}
    for frame in _t_frames(size):
        closed = Frame1(size, close(frame.edges, size))
        seen[closed.edges] = closed
    return [seen[e] for e in sorted(seen)]


@functools.cache
def enumerate_frames(cls: FactorClass, size: int) -> tuple[Frame1, ...]:
    """All frames of the class with exactly ``size`` worlds, in a
    deterministic order.

    Cached: every search over the same class and size reuses one tuple of
    (immutable) frames.
    """
    if size < 1:
        raise ValueError("frame size must be >= 1")
    if cls is FactorClass.K:
        return tuple(_k_frames(size))
    if cls is FactorClass.T:
        return tuple(_t_frames(size))
    if cls is FactorClass.S4:
        return tuple(_closure_family(
            size, lambda e, w: transitive_closure(reflexive_closure(e, w), w)))
    return tuple(_closure_family(
        size, lambda e, w: transitive_closure(
            symmetric_closure(reflexive_closure(e, w), w), w)))


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the countermodel search.

    ``per_factor_max`` overrides ``max_worlds_per_factor`` per position when
    set (the reduction direction wants a roomier first factor and trivial
    other factors).  Valuations are exhausted while the assignment space
    fits in :data:`EXHAUSTIVE_VALUATION_BITS` bits; beyond that,
    ``max_valuations`` seeded samples are drawn, unless ``exhaustive`` is
    set, in which case sampling is refused and the search raises instead of
    silently weakening a none-within-bounds certificate.  ``time_limit``
    (seconds) is checked before each block of up to ``2**BLOCK_BITS``
    (frame, valuation) lanes.
    """

    max_worlds_per_factor: int = 3
    per_factor_max: tuple[int, ...] | None = None
    max_valuations: int = 512
    exhaustive: bool = False
    time_limit: float | None = None
    seed: int = 0

    def factor_limit(self, position: int, arity: int) -> int:
        if self.per_factor_max is not None:
            if len(self.per_factor_max) != arity:
                raise ValueError("per_factor_max arity mismatch")
            return self.per_factor_max[position]
        return self.max_worlds_per_factor


FOUND = "found"
NONE_WITHIN_BOUNDS = "none-within-bounds"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass
class SearchOutcome:
    """Search verdict: a verified model, or which kind of nothing."""

    status: str
    model: ProductModel | None
    stats: dict

    @property
    def found(self) -> bool:
        return self.status == FOUND


def _size_vectors(arity: int, limits: list[int]) -> list[tuple[int, ...]]:
    vectors = itertools.product(*(range(1, lim + 1) for lim in limits))
    return sorted(vectors, key=lambda v: (sum(v), v))


def _exhaustive_blocks(n_worlds: int, var_list: list[int]
                       ) -> list[tuple[int, dict[int, int]]]:
    """Every valuation of ``var_list`` over ``n_worlds`` worlds, as blocks
    ``(lanes, {var: block mask})``.

    Assignment ``a`` gives variable ``var_list[i]`` the worlds of bits
    ``i*n .. i*n + n - 1`` of ``a``; lane ``v`` of block ``b`` (bits
    ``v*n .. v*n + n - 1`` of each block mask) holds assignment
    ``b * lanes + v``, so the blocks run through the assignments in
    increasing order.
    """
    bits = n_worlds * len(var_list)
    width = min(bits, BLOCK_BITS)
    lanes = 1 << width
    # column[j]: one bit at the start of each lane whose assignment has bit
    # j set; bits below ``width`` vary across lanes, the others across blocks
    low = [(repunit(n_worlds, 1 << j) << (n_worlds << j))
           * repunit(n_worlds << (j + 1), lanes >> (j + 1))
           for j in range(width)]
    ones = repunit(n_worlds, lanes)
    blocks = []
    for b in range(1 << (bits - width)):
        column = low + [ones if b >> j & 1 else 0
                        for j in range(bits - width)]
        masks = {}
        for i, var in enumerate(var_list):
            mask = 0
            for w in range(n_worlds):
                mask |= column[i * n_worlds + w] << w
            masks[var] = mask
        blocks.append((lanes, masks))
    return blocks


def _sampled_blocks(n_worlds: int, var_list: list[int], budget: SearchBudget
                    ) -> list[tuple[int, dict[int, int]]]:
    """``budget.max_valuations`` seeded valuations in blocks, laid out as in
    :func:`_exhaustive_blocks`; each valuation draws one world mask per
    variable, in ``var_list`` order.  Every frame is checked under these."""
    rng = random.Random(budget.seed)
    blocks = []
    left = budget.max_valuations
    while left:
        lanes = min(left, 1 << BLOCK_BITS)
        masks = dict.fromkeys(var_list, 0)
        for lane in range(lanes):
            for var in var_list:
                masks[var] |= rng.getrandbits(n_worlds) << lane * n_worlds
        blocks.append((lanes, masks))
        left -= lanes
    return blocks


@functools.cache
def _frame_list(cls: FactorClass, size: int) -> FrameList:
    return FrameList(enumerate_frames(cls, size))


def _lane_blocks(frames: int, valuations: list[tuple[int, dict[int, int]]],
                 n_worlds: int) -> Iterator[tuple[int, int, dict[int, int]]]:
    """The blocks of a sweep over ``frames`` frames, each checked under the
    valuation blocks ``valuations``, as ``(first lane, lanes, {var: block
    mask})`` in lane order (see :class:`LaneLayout`).

    While a frame's valuations fit in one block, a block holds as many
    whole frames as fit, each with a copy of the valuation masks; otherwise
    each valuation block of each frame is a block.
    """
    if len(valuations) > 1:
        first = 0
        for _ in range(frames):
            for lanes, masks in valuations:
                yield first, lanes, masks
                first += lanes
        return
    [(lanes, masks)] = valuations
    per_block = (1 << BLOCK_BITS) // lanes
    copies = repunit(lanes * n_worlds, per_block)
    tiled = {var: mask * copies for var, mask in masks.items()}
    for frame in range(0, frames, per_block):
        count = min(per_block, frames - frame) * lanes
        if count < per_block * lanes:
            tiled = {var: mask & (1 << count * n_worlds) - 1
                     for var, mask in tiled.items()}
        yield frame * lanes, count, tiled


class CheckerDisagreement(RuntimeError):
    """The bitmask checker refuted a formula the naive evaluator holds true."""


def _search(f: Formula, classes: Sequence[FactorClass], budget: SearchBudget,
            on_found: Callable[[ProductModel], bool]) -> tuple[str, dict]:
    """Core enumeration; calls ``on_found`` with each verified countermodel.

    ``on_found`` returns True to stop the search.  Returns the final status
    (ignoring finds; the caller tracks those) and statistics, both counters
    read off the lane index.  (frame, valuation) lanes are evaluated a
    block at a time; a model is built only for a refutation.  Refutations
    are taken lowest lane (frame, then valuation) first and, per lane, at
    the lowest refuting world, as a one-model-at-a-time sweep meets them.
    """
    arity = len(classes)
    limits = [budget.factor_limit(i, arity) for i in range(arity)]
    if any(lim < 1 for lim in limits):
        raise ValueError("world budget must allow at least one world per factor")
    var_list = sorted(variables(f))
    worst_bits = len(var_list)
    for lim in limits:
        worst_bits *= lim
    if budget.exhaustive and worst_bits > EXHAUSTIVE_VALUATION_BITS:
        raise ValueError(
            f"exhaustive valuation enumeration would need {worst_bits} bits "
            f"at the largest admitted product, above the "
            f"{EXHAUSTIVE_VALUATION_BITS}-bit cutoff; shrink the world "
            f"budget or drop the exhaustive requirement")
    deadline = (time.monotonic() + budget.time_limit
                if budget.time_limit is not None else None)
    stats = {"models-checked": 0, "frames-checked": 0}
    complete = True
    for sizes in _size_vectors(arity, limits):
        n = math.prod(sizes)
        lane_bits = (1 << n) - 1
        if n * len(var_list) <= EXHAUSTIVE_VALUATION_BITS:
            valuations = _exhaustive_blocks(n, var_list)
        else:
            complete = False
            valuations = _sampled_blocks(n, var_list, budget)
        per_frame = sum(lanes for lanes, _ in valuations)
        layout = LaneLayout([_frame_list(cls, s)
                             for cls, s in zip(classes, sizes)], per_frame)
        models, frames = stats["models-checked"], stats["frames-checked"]
        for first, lanes, masks in _lane_blocks(layout.frames, valuations, n):
            if deadline is not None and time.monotonic() > deadline:
                stats["models-checked"] = models + first
                # the frames begun, the last perhaps in part
                stats["frames-checked"] = frames + -(-first // per_frame)
                return BUDGET_EXHAUSTED, stats
            plan = layout.plan(first, lanes)
            refuting = ((1 << plan.worlds) - 1) & ~sat_mask(plan, masks, f, {})
            while refuting:
                lane, point = divmod(
                    (refuting & -refuting).bit_length() - 1, n)
                start = lane * n
                frame = (first + lane) // per_frame
                stats["models-checked"] = models + first + lane + 1
                stats["frames-checked"] = frames + frame + 1
                factors = layout.factors(frame)
                witness = ProductModel.from_masks(
                    factors,
                    {var: mask >> start & lane_bits
                     for var, mask in masks.items()},
                    point, product(factors))
                # a returned countermodel is never unverified
                if check_naive(witness, point, f):
                    raise CheckerDisagreement(
                        "bitmask checker and naive evaluator disagree")
                if on_found(witness):
                    return FOUND, stats
                refuting &= -1 << start + n  # skip the rest of this lane
        stats["models-checked"] = models + layout.frames * per_frame
        stats["frames-checked"] = frames + layout.frames
    return (NONE_WITHIN_BOUNDS if complete else BUDGET_EXHAUSTED), stats


def search_countermodel(f: Formula, classes: Sequence[FactorClass],
                        budget: SearchBudget) -> SearchOutcome:
    """First countermodel of ``f`` over products of the given classes, in
    deterministic enumeration order, or a certificate that none exists
    within fully exhausted bounds."""
    box: list[ProductModel] = []

    def stop(model: ProductModel) -> bool:
        box.append(model)
        return True

    status, stats = _search(f, classes, budget, stop)
    if box:
        return SearchOutcome(FOUND, box[0], stats)
    return SearchOutcome(status, None, stats)


def find_all_countermodels(f: Formula, classes: Sequence[FactorClass],
                           budget: SearchBudget,
                           limit: int | None = None
                           ) -> tuple[list[ProductModel], str]:
    """All countermodels within bounds (one refuting point per model), and
    the completion status of the sweep."""
    found: list[ProductModel] = []

    def collect(model: ProductModel) -> bool:
        found.append(model)
        return limit is not None and len(found) >= limit

    status, _ = _search(f, classes, budget, collect)
    if status == FOUND:  # stopped early by the limit
        status = BUDGET_EXHAUSTED
    return found, status


# ---------------------------------------------------------------------------
# Random formulas
# ---------------------------------------------------------------------------

def random_formula(store: FormulaStore, rng: random.Random, arity: int,
                   max_var: int, max_depth: int, size: int = 12) -> Formula:
    """Seeded random formula over ``p1..p{max_var}`` with modal depth at most
    ``max_depth``."""
    def build(depth_budget: int, size_budget: int) -> Formula:
        leafish = size_budget <= 1
        choices = ["var", "var", "bot"] if max_var >= 1 else ["bot"]
        if not leafish:
            choices += ["and", "or", "imp", "imp"]
            if depth_budget > 0:
                choices += ["box", "box", "dia"]
        kind = rng.choice(choices)
        if kind == "var":
            return store.var(rng.randint(1, max_var))
        if kind == "bot":
            return store.bottom()
        if kind in ("box", "dia"):
            i = rng.randint(1, arity)
            body = build(depth_budget - 1, size_budget - 1)
            return store.box(i, body) if kind == "box" else store.dia(i, body)
        half = max(1, (size_budget - 1) // 2)
        left = build(depth_budget, half)
        right = build(depth_budget, half)
        if kind == "and":
            return store.and_(left, right)
        if kind == "or":
            return store.or_(left, right)
        return store.imp(left, right)

    return build(max_depth, size)


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

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

# Valid over T x T products; the search must certify "none within bounds".
VALID_CORPUS_TT: tuple[str, ...] = (
    "[1]p1 -> p1",
    "[2]p1 -> p1",
    "[1][2]p1 -> [2][1]p1",
    "p1 -> <1>p1",
    "p1 | ~p1",
    "F -> p1",
)

# Calibration slice: instances that force true source variables somewhere,
# so a wrong marker reading cannot pass the agreement scan vacuously.
CALIBRATION_CORPUS: tuple[str, ...] = (
    "F",
    "p1",
    "p1 -> p2",
    "p1 -> [1]p1",
    "p1 -> [2]p1",
    "p2 -> [1]p2",
    "<1>p1 -> [1]p1",
    "[1]p1 -> [2]p1",
    "p1 & p2 -> [2]p2",
    "p1 & p2 -> [1](p1 & p2)",
    "p1 -> [1][2]p1",
    "p2 -> [2][2]p2",
)

# Source formulas whose reductions are refutable at small first factors
# (variable-free sources keep the base marker short).
REDUCTION_SEARCH_CORPUS: tuple[str, ...] = ("F", "[1]F")


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

CHECK_FAMILIES = ("transfer", "marker-agreement", "marker-exactness",
                  "extraction", "round-trip")


@dataclass
class CalibrationReport:
    """Per-variant verdict table over the calibration corpus."""

    rows: dict            # variant name -> {family: [passed, total]}
    witnesses: dict       # variant name -> first failure description
    selected: str | None
    ties: tuple[str, ...]
    instances: tuple      # (formula text, class names, found) triples
    seed: int
    k_mode: bool

    def passed_all(self, variant_name: str) -> bool:
        row = self.rows[variant_name]
        return all(p == t for p, t in row.values())

    def to_json(self) -> dict:
        return {
            "rows": {name: {fam: list(pt) for fam, pt in sorted(row.items())}
                     for name, row in sorted(self.rows.items())},
            "witnesses": dict(sorted(self.witnesses.items())),
            "selected": self.selected,
            "ties": list(self.ties),
            "instances": [list(i) for i in self.instances],
            "seed": self.seed,
            "k_mode": self.k_mode,
        }


class NoPassingVariant(RuntimeError):
    """No variant in the grid passed every check family."""

    def __init__(self, report: CalibrationReport):
        super().__init__("no variant passed all calibration checks")
        self.report = report


def calibrate_variants(grid: Sequence[VariantConfig],
                       corpus: Sequence[str],
                       class_pairs: Sequence[Sequence[FactorClass]],
                       budget: SearchBudget,
                       store: FormulaStore,
                       k_mode: bool = False) -> CalibrationReport:
    """Run transfer, the two marker scans, extraction and the round trip for
    every variant over every corpus instance; select the first variant that
    passes everything.

    Base countermodels are searched once per instance (they do not depend on
    the variant).  Ties are surfaced, not broken.
    """
    instances = []
    bases: list[tuple[Formula, ProductModel]] = []
    for text in corpus:
        f = parse(text, 2, store)
        for classes in class_pairs:
            outcome = search_countermodel(f, classes, budget)
            names = ",".join(c.value for c in classes)
            instances.append((text, names, outcome.found))
            if outcome.found:
                bases.append((f, outcome.model))

    rows: dict[str, dict[str, list[int]]] = {}
    witnesses: dict[str, str] = {}
    for variant in grid:
        row = {fam: [0, 0] for fam in CHECK_FAMILIES}
        rows[variant.name] = row

        def record(family: str, ok: bool, detail: str) -> None:
            row[family][1] += 1
            if ok:
                row[family][0] += 1
            elif variant.name not in witnesses:
                witnesses[variant.name] = f"{family}: {detail}"

        for f, base in bases:
            ctx = TranslationContext.for_formula(store, f, 2, variant)
            result = build_transfer(base, f, ctx, k_mode=k_mode)
            record("transfer", all(result.checks.values()),
                   str(result.checks))

            agreement = check_marker_agreement(result, base, ctx)
            record("marker-agreement", agreement.passed,
                   f"{len(agreement.violations)} violations, first "
                   f"{agreement.violations[0] if agreement.violations else ''}")
            exactness = check_marker_exactness(result, ctx)
            record("marker-exactness", exactness.passed,
                   f"{len(exactness.violations)} violations, first "
                   f"{exactness.violations[0] if exactness.violations else ''}")

            try:
                extraction = build_extraction(result.model, f, ctx)
            except PreconditionFailed as exc:
                record("extraction", False, str(exc))
                record("round-trip", False, str(exc))
                continue
            record("extraction", extraction.checks["refutes-source"],
                   str(extraction.checks))
            kept_scan = check_kept_points_marked(result.model, extraction,
                                                 ctx)
            round_trip = (kept_scan.passed
                          and extraction.checks.get("refutes-source", False))
            record("round-trip", round_trip,
                   f"kept-points scan: {len(kept_scan.violations)} violations")

    passing = [v.name for v in grid
               if rows[v.name] and all(p == t and t > 0
                                       for p, t in rows[v.name].values())]
    report = CalibrationReport(
        rows=rows,
        witnesses=witnesses,
        selected=passing[0] if passing else None,
        ties=tuple(passing),
        instances=tuple(instances),
        seed=budget.seed,
        k_mode=k_mode,
    )
    if not passing:
        raise NoPassingVariant(report)
    return report


# ---------------------------------------------------------------------------
# Differential suite
# ---------------------------------------------------------------------------

@dataclass
class SuiteRow:
    formula: str
    source_search: str       # found / none-within-bounds / budget-exhausted
    transfer: str            # verified / failed / vacuous
    round_trip: str          # verified / failed / vacuous
    reduction_search: str
    extraction: str          # verified / failed / vacuous

    def ok(self) -> bool:
        return "failed" not in (self.transfer, self.round_trip,
                                self.extraction)

    def to_json(self) -> dict:
        return {"formula": self.formula,
                "source_search": self.source_search,
                "transfer": self.transfer,
                "round_trip": self.round_trip,
                "reduction_search": self.reduction_search,
                "extraction": self.extraction}


@dataclass
class SuiteReport:
    rows: tuple
    k_mode: bool
    seed: int

    @property
    def passed(self) -> bool:
        return all(row.ok() for row in self.rows)

    def to_json(self) -> dict:
        return {"passed": self.passed, "k_mode": self.k_mode,
                "seed": self.seed,
                "rows": [r.to_json() for r in self.rows]}


def differential_suite(corpus: Sequence[str],
                       classes: Sequence[FactorClass],
                       budget: SearchBudget,
                       reduction_budget: SearchBudget,
                       store: FormulaStore,
                       variant: VariantConfig | None = None,
                       k_mode: bool = False) -> SuiteReport:
    """Both directions of the reduction's validity equivalence, per formula.

    Direction one: a searched countermodel of the source formula must
    transfer to a verified countermodel of the reduction, and feeding that
    back through extraction must recover a countermodel of the source.
    Direction two: a searched countermodel of the reduction (its refuting
    point satisfies the guard by construction) must extract to a verified
    countermodel of the source.  Searches that find nothing leave the
    direction vacuous; a produced-but-unverifiable witness fails the suite.
    """
    if variant is None:
        variant = K_MODE_DEFAULT_VARIANT if k_mode else DEFAULT_VARIANT
    rows = []
    for text in corpus:
        f = parse(text, len(classes), store)
        ctx = TranslationContext.for_formula(store, f, len(classes), variant)
        outcome = search_countermodel(f, classes, budget)
        transfer_status = "vacuous"
        round_trip_status = "vacuous"
        if outcome.found:
            try:
                result = transfer_countermodel(outcome.model, f, ctx,
                                               k_mode=k_mode)
                transfer_status = "verified"
            except (TransferFailed, PreconditionFailed):
                transfer_status = "failed"
                result = None
            if result is not None:
                try:
                    extract_countermodel(result.model, f, ctx)
                    round_trip_status = "verified"
                except (ExtractionFailed, PreconditionFailed):
                    round_trip_status = "failed"

        red_outcome = search_countermodel(ctx.reduce(f), classes,
                                          reduction_budget)
        extraction_status = "vacuous"
        if red_outcome.found:
            try:
                extract_countermodel(red_outcome.model, f, ctx)
                extraction_status = "verified"
            except (ExtractionFailed, PreconditionFailed):
                extraction_status = "failed"

        rows.append(SuiteRow(
            formula=text,
            source_search=outcome.status,
            transfer=transfer_status,
            round_trip=round_trip_status,
            reduction_search=red_outcome.status,
            extraction=extraction_status,
        ))
    return SuiteReport(tuple(rows), k_mode, budget.seed)
