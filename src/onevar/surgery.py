"""Model surgeries converting countermodels across the reduction.

Two directions:

* :func:`transfer_countermodel` takes a product model refuting a source
  formula and grows its first factor with marker ladders, producing a model
  that refutes the reduced (single-variable) formula at the same point.
* :func:`extract_countermodel` takes a product model refuting the reduced
  formula and carves out the first-factor worlds marked by the base marker
  within bounded reach, producing a model refuting the source formula.

Both surgeries model-check their own output and raise instead of returning an
unverified result.  A result's ``verified`` (every entry of ``checks``
holds) is the one verdict rule: the surgeries raise on it, and calibration
and the suite read it, never a check by name.  The ``check_*`` scanners
verify the intermediate claims the constructions rely on (marker/variable
agreement at base points, marker exactness, marking of all kept reachable
points) and return violation reports instead of raising, so a miscalibrated
variant shows up as data.

Both surgeries change only the first factor, so they work on world masks
row by row: under the row-major numbering of
:class:`~onevar.kripke.CoordinateCodec`, with ``C = model.codec.strides[0]``
columns (a column is the index of the remaining coordinates), row ``x`` of a
mask is its bits ``x*C .. x*C + C - 1``, the worlds with first coordinate
``x``, and the column numbering is the same on both sides of a surgery.
Transfer lifts each variable's rows onto ladder rungs, extraction carves the
kept rows back out, and the scans compare masks over the base rows, which
come first: a base world keeps its index in the transferred model.  World
lists and coordinate tuples appear only in reports and JSON output.
"""

from __future__ import annotations

from dataclasses import dataclass

from onevar.formulas import Formula, postorder
# sat_set is unused here; perfbench/tracer.py patches it by name
from onevar.kripke import (Frame1, ProductModel, bit_indices,
                           bounded_reach_mask, check, repunit, restrict,
                           sat_set)
from onevar.translation import TranslationContext


class PreconditionFailed(ValueError):
    """The input model does not satisfy the surgery's entry conditions."""


class TransferFailed(RuntimeError):
    """The transferred model failed its own verification model check."""


class ExtractionFailed(RuntimeError):
    """The extracted model failed its own verification model check."""


def copy_start(base_worlds: int, k: int, x: int) -> int:
    """First world of the ladder-``k`` copy below base world ``x`` in a first
    factor of ``base_worlds`` worlds extended by :func:`attach_gadgets`.

    Gadget worlds follow the base worlds: one copy of each ladder length
    ``k = 1 .. m+1`` per base world, lengths outermost, each copy laid out as
    ``v0, w0, v1, w1, .., vk, wk`` (``2*(k+1)`` worlds).  The copies of the
    lengths below ``k`` fill ``base_worlds * (k-1) * (k+2)`` worlds, so the
    one gadget layout is this closed form; ``copy_start(W, m + 2, 0)`` is
    the world count of the extended factor.
    """
    return base_worlds * (1 + (k - 1) * (k + 2)) + 2 * (k + 1) * x


def attach_gadgets(f1: Frame1, m: int, k_mode: bool = False) -> Frame1:
    """Extend a first factor with ladder copies of lengths ``1 .. m+1`` below
    every world.

    The original worlds keep their indices; the copy of length ``k`` below
    ``x`` is a chain from ``copy_start(f1.worlds, k, x)`` on (irreflexive in
    K-mode), entered by a single edge from ``x`` to its ``v0``.  Outside
    K-mode the input must be reflexive and the result is closed under
    reflexivity, so the extended frame stays a T-frame and restricting it to
    the original worlds gives back exactly ``f1``.  The gadget points carry
    labels such as ``v0.k1.x0`` (rung ``v0`` of the ladder-1 copy below base
    world 0), for output only and built on their first read; code reads
    positions from :func:`copy_start`.

    The relation is written in closed form, per offset (see
    :meth:`Frame1.from_offsets`): the base frame's offsets, a self-loop at
    every world, one chain mask per ladder length and one entry bit per
    copy.
    """
    if m < 0:
        raise ValueError("variable limit must be >= 0")
    if not k_mode and not f1.is_reflexive:
        raise PreconditionFailed(
            "the first factor must be reflexive (use k_mode for K frames)")
    base = f1.worlds
    worlds = copy_start(base, m + 2, 0)
    sources = dict(f1.offsets)
    if not k_mode:
        sources[0] = (1 << worlds) - 1
    for k in range(1, m + 2):
        size = 2 * (k + 1)
        first = copy_start(base, k, 0)
        # v_i -> w_i -> v_{i+1}: every point of a copy but the last to the
        # next one
        chain = ((1 << size - 1) - 1) * repunit(size, base) << first
        sources[1] = sources.get(1, 0) | chain
        for x in range(base):  # the entry edge x -> v0
            entry = first + size * x - x
            sources[entry] = sources.get(entry, 0) | 1 << x

    def labels() -> dict[str, int]:
        names = dict(f1.labels)
        below = [f".x{x}" for x in range(base)]
        for k in range(1, m + 2):
            first = copy_start(base, k, 0)
            # the copies of length k in world order: v0, w0, .., vk, wk
            # below each base world in turn
            rungs = [f"{role}{i}.k{k}" for i in range(k + 1) for role in "vw"]
            names.update(zip([rung + x for x in below for rung in rungs],
                             range(first, copy_start(base, k + 1, 0))))
        return names

    return Frame1.from_offsets(worlds, sources, labels)


def lift_valuation(base: ProductModel, m: int, variant) -> int:
    """Worlds of the extended product where the reserved variable holds, as
    a mask.

    The ``m+1`` ladder's w-points carry the variable over every column; the
    w-points of ladder ``k <= m`` over base world ``z1`` carry it in column
    ``(z2, ..., zn)`` exactly when the base point ``(z1, z2, ..., zn)``
    satisfies variable ``k``.  Whether rung 0 is included is the variant's
    choice.  Base points never carry the variable.  The extended product
    numbers its columns as ``base`` does, so gadget world ``g`` in column
    ``c`` is world ``g * columns + c``: the marked columns of copy ``(k,
    x)`` are row ``x`` of variable ``k``'s mask, repeated on every marked
    w-rung by one product with a repunit spaced two rows apart.
    """
    lowest_rung = 0 if variant.mark_first_rung else 1
    worlds = base.factors[0].worlds
    columns = base.codec.strides[0]
    full_row = (1 << columns) - 1
    marked = 0
    for k in range(1, m + 2):
        rungs = repunit(2 * columns, k + 1 - lowest_rung)
        mask = base.masks.get(k, 0)
        for x in range(worlds):
            row = full_row if k == m + 1 else mask >> x * columns & full_row
            if row:
                first = copy_start(worlds, k, x) + 2 * lowest_rung + 1
                marked |= row * rungs << first * columns
    return marked


@dataclass
class TransferResult:
    """Output of :func:`build_transfer`, verified if every check holds."""

    model: ProductModel
    base_points: frozenset[int]   # image of the original worlds, ext indexing
    point: int                    # image of the refuting point
    checks: dict

    @property
    def verified(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "point": list(self.model.coords_of(self.point)),
            "base_points": sorted(list(self.model.coords_of(w))
                                  for w in self.base_points),
            "checks": dict(sorted(self.checks.items())),
        }


def build_transfer(base: ProductModel, f: Formula,
                   ctx: TranslationContext,
                   k_mode: bool = False) -> TransferResult:
    """Construct the extended model without enforcing verification.

    The ``checks`` dict records whether the result refutes the reduction and
    satisfies the guard at its point; calibration scans miscalibrated
    variants through this entry point.  Use :func:`transfer_countermodel`
    for the verified contract.
    """
    if check(base, base.point, f):
        raise PreconditionFailed("the input model does not refute the formula "
                                 "at its point")
    if len(base.factors) != ctx.arity:
        raise PreconditionFailed("model arity differs from context arity")
    m = ctx.var_limit
    ext_f1 = attach_gadgets(base.factors[0], m, k_mode=k_mode)
    marked = lift_valuation(base, m, ctx.variant)
    factors = [ext_f1, *base.factors[1:]]
    model = ProductModel.from_masks(factors, {0: marked}, base.point)
    # the original first-factor worlds come first, so every base world keeps
    # its index
    base_points = frozenset(range(base.codec.worlds))

    refuted = not check(model, model.point, ctx.reduce(f))
    guarded = check(model, model.point, ctx.uniform_guard())
    checks = {"refutes-reduction": refuted, "guard-at-point": guarded}
    return TransferResult(model, base_points, model.point, checks)


def transfer_countermodel(base: ProductModel, f: Formula,
                          ctx: TranslationContext,
                          k_mode: bool = False) -> TransferResult:
    """Grow a countermodel of ``f`` into a verified countermodel of
    ``ctx.reduce(f)`` at the same point; never returns unverified output."""
    result = build_transfer(base, f, ctx, k_mode=k_mode)
    if not result.verified:
        raise TransferFailed(
            f"transfer verification failed for variant "
            f"{ctx.variant.name!r}: {result.checks}")
    return result


@dataclass
class SurgeryReport:
    """Outcome of one exhaustive scan; empty ``violations`` means pass."""

    name: str
    checked: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"name": self.name, "checked": self.checked,
                "passed": self.passed,
                "violations": [list(v) for v in self.violations]}


def check_marker_agreement(result: TransferResult, base: ProductModel,
                           ctx: TranslationContext) -> SurgeryReport:
    """At every original point, each variable marker must agree with the
    variable it stands for."""
    model = result.model
    points = base.codec.worlds
    low = (1 << points) - 1  # the base worlds, the same in both models
    got = {k: model.sat(ctx.var_marker(k)) & low
           for k in range(1, ctx.var_limit + 1)}
    want = {k: base.masks.get(k, 0) & low for k in got}
    differ = 0
    for k in got:
        differ |= got[k] ^ want[k]
    violations = [(base.coords_of(bw), k, bool(got[k] >> bw & 1),
                   bool(want[k] >> bw & 1))
                  for bw in bit_indices(differ) for k in got
                  if (got[k] ^ want[k]) >> bw & 1]
    return SurgeryReport("marker-agreement", points * ctx.var_limit,
                         tuple(violations))


def check_marker_exactness(result: TransferResult,
                           ctx: TranslationContext) -> SurgeryReport:
    """The base marker must hold at exactly the original points.

    An extra point is named by the gadget label of its first coordinate, so
    a leak names the ladder point responsible.
    """
    model = result.model
    sat = model.sat(ctx.base_marker())
    base = (1 << len(result.base_points)) - 1  # base worlds come first
    violations = [("missing", model.coords_of(w))
                  for w in bit_indices(base & ~sat)]
    extras = bit_indices(sat & ~base)
    if extras:
        columns = model.codec.strides[0]
        names = {w: name for name, w in model.factors[0].labels.items()}
        violations += [("extra", model.coords_of(w), names[w // columns])
                       for w in extras]
    return SurgeryReport("marker-exactness",
                         model.codec.worlds, tuple(violations))


@dataclass
class ExtractionResult:
    """Output of :func:`build_extraction`, verified if every check holds."""

    kept_first_factor: tuple[int, ...]  # original first-factor world ids
    model: ProductModel
    point: int
    checks: dict
    reach: int  # worlds of the input within ctx.depth steps of its point

    @property
    def verified(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "kept_first_factor": list(self.kept_first_factor),
            "model": self.model.to_json(),
            "point": list(self.model.coords_of(self.point)),
            "checks": dict(sorted(self.checks.items())),
        }


def build_extraction(counter: ProductModel, f: Formula,
                     ctx: TranslationContext) -> ExtractionResult:
    """Construct the carved model without enforcing verification.

    Keeps the first-factor worlds that appear as first coordinate of some
    marked point within ``depth`` steps of the refuting point, restricts the
    first factor to them, and reads each variable's valuation off its marker.
    Preconditions (guard at the point, reduction refuted) still raise; only
    the final verification becomes a ``checks`` flag.
    """
    if len(counter.factors) != ctx.arity:
        raise PreconditionFailed("model arity differs from context arity")
    if not check(counter, counter.point, ctx.uniform_guard()):
        raise PreconditionFailed(
            "the refuting point does not satisfy the uniformity guard")
    if check(counter, counter.point, ctx.lower(f)):
        raise PreconditionFailed(
            "the model does not refute the reduced formula at its point")

    reach = bounded_reach_mask(counter.frame, counter.point, ctx.depth)
    marked = counter.sat(ctx.base_marker())
    columns = counter.codec.strides[0]
    kept = sorted({w // columns for w in bit_indices(reach & marked)})
    # the guard makes the refuting point marked, and it is reachable in 0
    # steps, so its first coordinate is kept
    first, column = divmod(counter.point, columns)
    if first not in kept:
        raise ExtractionFailed(
            "the refuting point lost its first coordinate in extraction")

    new_f1 = restrict(counter.factors[0], kept)
    factors = [new_f1, *counter.factors[1:]]

    # kept row x becomes row i of the carved model; its columns stay
    full_row = (1 << columns) - 1
    valuation: dict[int, int] = {}
    for k in range(1, ctx.var_limit + 1):
        sat = counter.sat(ctx.var_marker(k))
        carved = 0
        for i, x in enumerate(kept):
            carved |= (sat >> x * columns & full_row) << i * columns
        valuation[k] = carved

    point = kept.index(first) * columns + column
    model = ProductModel.from_masks(factors, valuation, point)

    refuted = not check(model, model.point, f)
    checks = {"guard-at-point": True, "refutes-source": refuted}
    return ExtractionResult(tuple(kept), model, model.point, checks, reach)


def extract_countermodel(counter: ProductModel, f: Formula,
                         ctx: TranslationContext) -> ExtractionResult:
    """Carve a verified countermodel of ``f`` out of a countermodel of
    ``ctx.reduce(f)``; never returns unverified output."""
    result = build_extraction(counter, f, ctx)
    if not result.verified:
        raise ExtractionFailed(
            f"extraction verification failed for variant "
            f"{ctx.variant.name!r}: the carved model does not refute the "
            f"source formula")
    return result


def check_kept_points_marked(counter: ProductModel,
                             extraction: ExtractionResult,
                             ctx: TranslationContext) -> SurgeryReport:
    """Every kept point within reach of the refuting point must satisfy the
    base marker in the source model (the reach the extraction kept)."""
    marked = counter.sat(ctx.base_marker())
    kept = sum(1 << x for x in extraction.kept_first_factor)
    in_scope = extraction.reach & counter.codec.widen(0, kept)
    violations = [(counter.coords_of(w),)
                  for w in bit_indices(in_scope & ~marked)]
    return SurgeryReport("kept-points-marked", in_scope.bit_count(),
                         tuple(violations))


def check_subformula_preservation(base: ProductModel,
                                  result: TransferResult, f: Formula,
                                  ctx: TranslationContext) -> SurgeryReport:
    """Exhaustive check that lowering preserves truth pointwise: for every
    subformula of ``f`` and every original point, the source model satisfies
    the subformula iff the extended model satisfies its lowering."""
    model = result.model
    points = base.codec.worlds
    low = (1 << points) - 1  # the base worlds, the same in both models
    violations = []
    subs = postorder(f)
    for sub in subs:
        differ = (base.sat(sub) ^ model.sat(ctx.lower(sub))) & low
        violations.extend((base.coords_of(bw), sub.uid)
                          for bw in bit_indices(differ))
    return SurgeryReport("subformula-preservation", points * len(subs),
                         tuple(violations))
