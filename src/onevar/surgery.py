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

Both surgeries change only the first factor, so they work in world indices:
under the row-major numbering of :class:`~onevar.kripke.CoordinateCodec`,
``divmod(w, model.codec.strides[0])`` splits a world into its first
coordinate and its column (the index of the remaining coordinates), and the
column numbering is the same on both sides of a surgery.  In particular a
base world keeps its index in the transferred model.  Coordinate tuples
appear only in reports and JSON output.
"""

from __future__ import annotations

from dataclasses import dataclass

from onevar.formulas import Formula, subformulas
from onevar.kripke import (Frame1, ProductModel, bounded_reach, check,
                           reflexive_closure, restrict, sat_set)
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


def gadget_layout(base_worlds: int, m: int) -> dict[int, GadgetPoint]:
    """World index of every ladder point :func:`attach_gadgets` adds to a
    first factor of ``base_worlds`` worlds with variable limit ``m``.

    Gadget worlds follow the base worlds: one copy of each ladder length
    ``k = 1 .. m+1`` per base world, lengths outermost, each copy laid out as
    ``v0, w0, v1, w1, .., vk, wk``.
    """
    out: dict[int, GadgetPoint] = {}
    world = base_worlds
    for k in range(1, m + 2):
        for x in range(base_worlds):
            for i in range(k + 1):
                out[world] = GadgetPoint(ladder=k, base=x, role="v", rung=i)
                out[world + 1] = GadgetPoint(ladder=k, base=x, role="w",
                                             rung=i)
                world += 2
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
    positions from :func:`gadget_layout`.
    """
    if m < 0:
        raise ValueError("variable limit must be >= 0")
    if not k_mode and not f1.is_reflexive:
        raise PreconditionFailed(
            "the first factor must be reflexive (use k_mode for K frames)")
    layout = gadget_layout(f1.worlds, m)
    edges: list[tuple[int, int]] = list(f1.edges)
    labels = dict(f1.labels)
    for w, gp in layout.items():
        labels[gp.label] = w
        if gp.role == "v":
            edges.append((w, w + 1))             # v_i -> w_i
            if gp.rung == 0:
                edges.append((gp.base, w))       # entry edge to v0
        elif gp.rung < gp.ladder:
            edges.append((w, w + 1))             # w_i -> v_{i+1}
    worlds = f1.worlds + len(layout)
    if not k_mode:
        edges = list(reflexive_closure(edges, worlds))
    return Frame1(worlds, edges, labels)


def lift_valuation(base: ProductModel, m: int, variant) -> set[int]:
    """Worlds of the extended product where the reserved variable holds.

    The ``m+1`` ladder's w-points carry the variable over every column; the
    w-points of ladder ``k <= m`` over base world ``z1`` carry it in column
    ``(z2, ..., zn)`` exactly when the base point ``(z1, z2, ..., zn)``
    satisfies variable ``k``.  Whether rung 0 is included is the variant's
    choice.  Base points never carry the variable.  The extended product
    numbers its columns as ``base`` does, so gadget world ``g`` in column
    ``c`` is world ``g * columns + c``.
    """
    gadgets = gadget_layout(base.factors[0].worlds, m)
    lowest_rung = 0 if variant.mark_first_rung else 1
    columns = base.codec.strides[0]

    marked: set[int] = set()
    for world, gp in gadgets.items():
        if gp.role != "w" or gp.rung < lowest_rung:
            continue
        if gp.ladder == m + 1:
            marked.update(range(world * columns, (world + 1) * columns))
        else:
            for bw in base.valuation.get(gp.ladder, frozenset()):
                first, column = divmod(bw, columns)
                if first == gp.base:
                    marked.add(world * columns + column)
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
    model = ProductModel(factors, {0: marked}, base.point)
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
    violations = []
    checked = 0
    model = result.model
    for bw in range(base.codec.worlds):
        for k in range(1, ctx.var_limit + 1):
            got = check(model, bw, ctx.var_marker(k))
            want = bw in base.valuation.get(k, frozenset())
            checked += 1
            if got != want:
                violations.append((base.coords_of(bw), k, got, want))
    return SurgeryReport("marker-agreement", checked, tuple(violations))


def check_marker_exactness(result: TransferResult,
                           ctx: TranslationContext) -> SurgeryReport:
    """The base marker must hold at exactly the original points.

    Extra points are classified by their gadget position so a leak names the
    ladder point responsible.
    """
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

    reach = bounded_reach(counter.frame, counter.point, ctx.depth,
                          range(1, ctx.arity + 1))
    marked = sat_set(counter, ctx.base_marker())
    columns = counter.codec.strides[0]
    kept = sorted({w // columns for w in reach & marked})
    # the guard makes the refuting point marked, and it is reachable in 0
    # steps, so its first coordinate is kept
    if counter.point // columns not in kept:
        raise ExtractionFailed(
            "the refuting point lost its first coordinate in extraction")

    remap = {old: new for new, old in enumerate(kept)}
    new_f1 = restrict(counter.factors[0], kept)
    factors = [new_f1, *counter.factors[1:]]

    def project(w: int) -> int | None:
        """``w`` in the carved model (same column, renumbered first
        coordinate), or None if its first coordinate was dropped."""
        first, column = divmod(w, columns)
        new = remap.get(first)
        return None if new is None else new * columns + column

    valuation: dict[int, list[int]] = {}
    for k in range(1, ctx.var_limit + 1):
        projected = map(project, sat_set(counter, ctx.var_marker(k)))
        valuation[k] = [w for w in projected if w is not None]

    model = ProductModel(factors, valuation, project(counter.point))

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
    kept = set(extraction.kept_first_factor)
    reach = bounded_reach(counter.frame, counter.point, ctx.depth,
                          range(1, ctx.arity + 1))
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


def check_subformula_preservation(base: ProductModel,
                                  result: TransferResult, f: Formula,
                                  ctx: TranslationContext) -> SurgeryReport:
    """Exhaustive check that lowering preserves truth pointwise: for every
    subformula of ``f`` and every original point, the source model satisfies
    the subformula iff the extended model satisfies its lowering."""
    model = result.model
    violations = []
    checked = 0
    for sub in subformulas(f):
        lowered = ctx.lower(sub)
        for bw in range(base.codec.worlds):
            checked += 1
            if check(base, bw, sub) != check(model, bw, lowered):
                violations.append((base.coords_of(bw), sub.uid))
    return SurgeryReport("subformula-preservation", checked, tuple(violations))
