"""Model surgeries converting countermodels across the reduction.

Two directions:

* :func:`transfer_countermodel` takes a product model refuting a source
  formula and grows its first factor with marker ladders, producing a model
  that refutes the reduced (single-variable) formula at the same point.
* :func:`extract_countermodel` takes a product model refuting the reduced
  formula and carves out the first-factor worlds marked by the base marker
  within bounded reach, producing a model refuting the source formula.

Both surgeries model-check their own output and raise instead of returning an
unverified result.  The ``check_*`` scanners verify the intermediate claims
the constructions rely on (marker/variable agreement at base points, marker
exactness, marking of all kept reachable points) and return violation
reports instead of raising, so a miscalibrated variant shows up as data.

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

from onevar.formulas import Formula, subformulas
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


def gadget_layout(base_worlds: int, m: int) -> dict[int, GadgetPoint]:
    """World index of every ladder point :func:`attach_gadgets` adds to a
    first factor of ``base_worlds`` worlds with variable limit ``m``, by
    :func:`copy_start`; for reports and tests.
    """
    out: dict[int, GadgetPoint] = {}
    for k in range(1, m + 2):
        for x in range(base_worlds):
            world = copy_start(base_worlds, k, x)
            for i in range(k + 1):
                out[world + 2 * i] = GadgetPoint(ladder=k, base=x, role="v",
                                                 rung=i)
                out[world + 2 * i + 1] = GadgetPoint(ladder=k, base=x,
                                                     role="w", rung=i)
    return out


def attach_gadgets(f1: Frame1, m: int, k_mode: bool = False) -> Frame1:
    """Extend a first factor with ladder copies of lengths ``1 .. m+1`` below
    every world.

    The original worlds keep their indices; each copy is isomorphic to
    ``ladder(k)`` (an irreflexive chain in K-mode) and is entered by a single
    edge from its base world to the copy's ``v0``.  Outside K-mode the input
    must be reflexive and the result is closed under reflexivity, so the
    extended frame stays a T-frame and restricting it to the original worlds
    gives back exactly ``f1``.  The gadget points carry their
    :attr:`GadgetPoint.label` as frame labels, for output only; code reads
    positions from :func:`copy_start`.
    """
    if m < 0:
        raise ValueError("variable limit must be >= 0")
    if not k_mode and not f1.is_reflexive:
        raise PreconditionFailed(
            "the first factor must be reflexive (use k_mode for K frames)")
    base = f1.worlds
    edges: list[tuple[int, int]] = list(f1.edges)
    labels = dict(f1.labels)
    for k in range(1, m + 2):
        for x in range(base):
            start = copy_start(base, k, x)
            end = start + 2 * (k + 1)
            edges.append((x, start))                 # entry edge to v0
            # v_i -> w_i -> v_{i+1}: each point to the next one
            edges.extend((w, w + 1) for w in range(start, end - 1))
            if not k_mode:
                edges.extend((w, w) for w in range(start, end))
            for i in range(k + 1):
                labels[f"v{i}.k{k}.x{x}"] = start + 2 * i
                labels[f"w{i}.k{k}.x{x}"] = start + 2 * i + 1
    return Frame1(copy_start(base, m + 2, 0), edges, labels)


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
    """Verified output of :func:`transfer_countermodel`."""

    model: ProductModel
    base_points: frozenset[int]   # image of the original worlds, ext indexing
    point: int                    # image of the refuting point
    checks: dict

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
    if not all(result.checks.values()):
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

    Extra points are classified by their gadget position so a leak names the
    ladder point responsible.
    """
    model = result.model
    sat = model.sat(ctx.base_marker())
    base = 0
    for w in result.base_points:
        base |= 1 << w
    violations = [("missing", model.coords_of(w))
                  for w in bit_indices(base & ~sat)]
    extras = bit_indices(sat & ~base)
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


@dataclass
class ExtractionResult:
    """Verified output of :func:`extract_countermodel`."""

    kept_first_factor: tuple[int, ...]  # original first-factor world ids
    model: ProductModel
    point: int
    checks: dict

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

    reach = bounded_reach_mask(counter.frame, counter.point, ctx.depth,
                               range(1, ctx.arity + 1))
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
    return ExtractionResult(tuple(kept), model, model.point, checks)


def extract_countermodel(counter: ProductModel, f: Formula,
                         ctx: TranslationContext) -> ExtractionResult:
    """Carve a verified countermodel of ``f`` out of a countermodel of
    ``ctx.reduce(f)``; never returns unverified output."""
    result = build_extraction(counter, f, ctx)
    if not result.checks["refutes-source"]:
        raise ExtractionFailed(
            f"extraction verification failed for variant "
            f"{ctx.variant.name!r}: the carved model does not refute the "
            f"source formula")
    return result


def check_kept_points_marked(counter: ProductModel,
                             extraction: ExtractionResult,
                             ctx: TranslationContext) -> SurgeryReport:
    """Every kept point within reach of the refuting point must satisfy the
    base marker in the source model."""
    reach = bounded_reach_mask(counter.frame, counter.point, ctx.depth,
                               range(1, ctx.arity + 1))
    marked = counter.sat(ctx.base_marker())
    columns = counter.codec.strides[0]
    rows = 0  # one bit at the first world of each kept row
    for x in extraction.kept_first_factor:
        rows |= 1 << x * columns
    in_scope = reach & rows * ((1 << columns) - 1)
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
    subs = list(subformulas(f))
    for sub in subs:
        differ = (base.sat(sub) ^ model.sat(ctx.lower(sub))) & low
        violations.extend((base.coords_of(bw), sub.uid)
                          for bw in bit_indices(differ))
    return SurgeryReport("subformula-preservation", points * len(subs),
                         tuple(violations))
