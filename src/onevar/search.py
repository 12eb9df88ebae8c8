"""Desk-scale brute force: frame enumeration, countermodel search,
variant calibration and the differential suite.

Everything here is deterministic given a seed.  :func:`is_member` is the
one definition of each frame class.  Frames are enumerated in canonical
adjacency order without isomorphism rejection (duplicates are affordable
at these sizes): K- and T-frames as the subsets of their free edges, S4-
and S5-frames as the T-frames :func:`is_member` admits.  Valuations are
enumerated exhaustively while the assignment space is at most
``2**EXHAUSTIVE_VALUATION_BITS`` and by seeded sampling beyond
that.  Every frame of a size is checked under the same
valuations, so the (frame, valuation) pairs of a size are lanes laid out
frame-major (:class:`~onevar.kripke.LaneLayout`), and one bitmask pass over
a block's shift plan checks up to ``2**BLOCK_BITS`` lanes.  The search
names each block's frames: whole frames while a frame's valuations fit in
a block, one frame beyond that.  Every countermodel the search returns
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

from onevar.formulas import Formula, FormulaStore, parse
# sat_set is unused here; perfbench/tracer.py patches onevar.search.sat_set
from onevar.kripke import (Frame1, FrameList, LaneLayout, ProductModel,
                           check_naive, product, repunit, sat_mask, sat_set)
from onevar.surgery import (ExtractionFailed, PreconditionFailed,
                            TransferFailed, build_extraction, build_transfer,
                            check_kept_points_marked, check_marker_agreement,
                            check_marker_exactness, extract_countermodel,
                            transfer_countermodel)
from onevar.translation import TranslationContext, VariantConfig

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
    """Decidable class membership, read off the frame's offset masks."""
    if cls is FactorClass.K:
        return True
    if cls is FactorClass.T or not frame.is_reflexive:
        return frame.is_reflexive
    sources = dict(frame.offsets)
    # every a with a -> a + d1 -> a + d1 + d2 has a -> a + d1 + d2
    transitive = all(s1 & (s2 >> d1 if d1 >= 0 else s2 << -d1)
                     & ~sources.get(d1 + d2, 0) == 0
                     for d1, s1 in frame.offsets for d2, s2 in frame.offsets)
    if cls is FactorClass.S4 or not transitive:
        return transitive
    # every x -> x + d has x + d -> x: the sources of -d are those of d, moved
    return all(sources.get(-d, 0) == (s << d if d >= 0 else s >> -d)
               for d, s in frame.offsets)


def _subset_frames(size: int, reflexive: bool) -> Iterator[Frame1]:
    """Every frame on ``size`` worlds, or every reflexive one: the loops are
    fixed if ``reflexive``, and the other cells run through their subsets
    in mask order."""
    loops = [(w, w) for w in range(size)] if reflexive else []
    cells = [(a, b) for a in range(size) for b in range(size)
             if not (reflexive and a == b)]
    for mask in range(1 << len(cells)):
        yield Frame1(size, loops + [cells[i] for i in range(len(cells))
                                    if mask >> i & 1])


@functools.cache
def enumerate_frames(cls: FactorClass, size: int) -> tuple[Frame1, ...]:
    """All frames of the class with exactly ``size`` worlds, in a
    deterministic order.

    K- and T-frames come in subset order; S4- and S5-frames are the T-frames
    :func:`is_member` admits, sorted by their edges.  Cached: every search
    over the same class and size reuses one tuple of (immutable) frames.
    """
    if size < 1:
        raise ValueError("frame size must be >= 1")
    if cls in (FactorClass.K, FactorClass.T):
        return tuple(_subset_frames(size, cls is FactorClass.T))
    members = [frame for frame in enumerate_frames(FactorClass.T, size)
               if is_member(frame, cls)]
    return tuple(sorted(members, key=lambda frame: frame.edges))


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
    (frame, valuation) lanes; size vectors are generated lazily, but a
    size's frames are enumerated before its first block, so the limit does
    not bound that enumeration.  The fields are checked when the budget is
    made, whatever formula it will bound.
    """

    max_worlds_per_factor: int = 3
    per_factor_max: tuple[int, ...] | None = None
    max_valuations: int = 512
    exhaustive: bool = False
    time_limit: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.per_factor_max or [self.max_worlds_per_factor]) < 1:
            raise ValueError(
                "world budget must allow at least one world per factor")
        if self.max_valuations < 1:
            raise ValueError("a frame needs at least one valuation")
        if self.time_limit is not None and not self.time_limit >= 0:
            # NaN fails every comparison and would switch the limit off
            raise ValueError("time limit must be None or at least 0 seconds")

    def limits(self, arity: int) -> tuple[int, ...]:
        """The world bound of each of ``arity`` factors."""
        if self.per_factor_max is None:
            return (self.max_worlds_per_factor,) * arity
        if len(self.per_factor_max) != arity:
            raise ValueError("per_factor_max arity mismatch")
        return self.per_factor_max


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


def _size_vectors(limits: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every vector of factor sizes within ``limits``, by total and then
    lexicographically; each total filters ``itertools.product`` anew, so
    nothing is listed or sorted."""
    for total in range(len(limits), sum(limits) + 1):
        for sizes in itertools.product(*(range(1, lim + 1)
                                         for lim in limits)):
            if sum(sizes) == total:
                yield sizes


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
                 n_worlds: int) -> Iterator[tuple[int, int, int, int, dict]]:
    """The blocks of a sweep over ``frames`` frames, each checked under the
    valuation blocks ``valuations``, in lane order (see :class:`LaneLayout`).

    A block is ``(frame, frames, width, first lane, {var: block mask})``:
    ``frames`` frames from ``frame`` on, each over the ``width`` lanes of
    one valuation block.  As many whole frames as fit share a block, each
    with a copy of the valuation masks; when a frame's valuations fill a
    block or more, that is one frame, and the masks pass through unchanged.
    """
    per_block = max(1, (1 << BLOCK_BITS)
                    // sum(lanes for lanes, _ in valuations))
    tiled = [(lanes, {var: mask * repunit(lanes * n_worlds, per_block)
                      for var, mask in masks.items()})
             for lanes, masks in valuations]
    first = 0
    for frame in range(0, frames, per_block):
        count = min(per_block, frames - frame)
        for lanes, masks in tiled:
            if count < per_block:  # the last block is short
                masks = {var: mask & (1 << count * lanes * n_worlds) - 1
                         for var, mask in masks.items()}
            yield frame, count, lanes, first, masks
            first += count * lanes


class CheckerDisagreement(RuntimeError):
    """The bitmask checker refuted a formula the naive evaluator holds true."""


def _search(f: Formula, classes: Sequence[FactorClass], budget: SearchBudget,
            on_found: Callable[[ProductModel], bool]) -> tuple[str, dict]:
    """Core enumeration; calls ``on_found`` with each verified countermodel.

    ``on_found`` returns True to stop the search.  Returns the final status,
    :data:`FOUND` when ``on_found`` stopped the search, and statistics, both
    counters read off the lane index.  (frame, valuation) lanes are
    evaluated a block at a time; a model is built only for a refutation,
    with a :func:`product` plan of its own.  Refutations
    are taken lowest lane (frame, then valuation) first and, per lane, at
    the lowest refuting world, as a one-model-at-a-time sweep meets them.
    """
    limits = budget.limits(len(classes))
    var_list = sorted(f.var_set)
    worst_bits = len(var_list) * math.prod(limits)
    if budget.exhaustive and worst_bits > EXHAUSTIVE_VALUATION_BITS:
        raise ValueError(
            f"exhaustive valuation enumeration would need {worst_bits} bits "
            f"at the largest admitted product, above the "
            f"{EXHAUSTIVE_VALUATION_BITS}-bit cutoff; shrink the world "
            f"budget or drop the exhaustive requirement")
    deadline = (time.monotonic() + budget.time_limit
                if budget.time_limit is not None else None)
    stats = {"models-checked": 0, "frames-checked": 0}

    def checked(lanes: int) -> None:
        # this size's first ``lanes`` lanes, and the frames they begin
        stats["models-checked"] = models + lanes
        stats["frames-checked"] = frames + -(-lanes // per_frame)

    complete = True
    for sizes in _size_vectors(limits):
        n = math.prod(sizes)
        lane_bits = (1 << n) - 1
        if n * len(var_list) <= EXHAUSTIVE_VALUATION_BITS:
            valuations = _exhaustive_blocks(n, var_list)
        else:
            complete = False
            valuations = _sampled_blocks(n, var_list, budget)
        per_frame = sum(lanes for lanes, _ in valuations)
        layout = LaneLayout([_frame_list(cls, s)
                             for cls, s in zip(classes, sizes)])
        models, frames = stats["models-checked"], stats["frames-checked"]
        for frame, count, width, first, masks in _lane_blocks(
                layout.frames, valuations, n):
            if deadline is not None and time.monotonic() > deadline:
                checked(first)
                return BUDGET_EXHAUSTED, stats
            plan = layout.plan(frame, count, width)
            refuting = ((1 << plan.worlds) - 1) & ~sat_mask(plan, masks, f, {})
            while refuting:
                lane, point = divmod(
                    (refuting & -refuting).bit_length() - 1, n)
                start = lane * n
                checked(first + lane + 1)
                frame_plan = product(layout.factors(frame + lane // width))
                witness = ProductModel.from_masks(
                    frame_plan.factors,
                    {var: mask >> start & lane_bits
                     for var, mask in masks.items()},
                    point, frame_plan)
                # a returned countermodel is never unverified
                try:
                    holds = check_naive(witness, point, f)
                except RecursionError:
                    raise ValueError(
                        "formula nested too deeply for the naive re-check "
                        "of a countermodel") from None
                if holds:
                    raise CheckerDisagreement(
                        "bitmask checker and naive evaluator disagree")
                if on_found(witness):
                    return FOUND, stats
                refuting &= -1 << start + n  # skip the rest of this lane
        checked(layout.frames * per_frame)
    return (NONE_WITHIN_BOUNDS if complete else BUDGET_EXHAUSTED), stats


def search_countermodel(f: Formula, classes: Sequence[FactorClass],
                        budget: SearchBudget) -> SearchOutcome:
    """First countermodel of ``f`` over products of the given classes, in
    deterministic enumeration order, or a certificate that none exists
    within fully exhausted bounds."""
    found: list[ProductModel] = []
    status, stats = _search(f, classes, budget,
                            lambda model: found.append(model) or True)
    return SearchOutcome(status, found[0] if found else None, stats)


def find_all_countermodels(f: Formula, classes: Sequence[FactorClass],
                           budget: SearchBudget
                           ) -> tuple[list[ProductModel], str]:
    """All countermodels within bounds (one refuting point per model), and
    the completion status of the sweep."""
    found: list[ProductModel] = []
    status, _ = _search(f, classes, budget,
                        lambda model: found.append(model) or False)
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

    Each formula is read, and its contexts are built, at the arity of each
    class tuple in turn.  Base countermodels are searched once per instance
    (they do not depend on the variant).  Ties are surfaced, not broken.
    """
    instances = []
    bases: list[tuple[Formula, ProductModel]] = []
    for text in corpus:
        for classes in class_pairs:
            f = parse(text, len(classes), store)
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
            ctx = TranslationContext.for_formula(store, f, len(base.factors),
                                                 variant)
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
                       variant: VariantConfig,
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
