"""The variable-eliminating translation into one-variable formulas.

A source formula over variables ``p1 .. pm`` and boxes ``[1] .. [n]`` is
lowered to a formula of the single reserved variable ``p``:

* ``ladder_probe(k)`` walks ``k`` rungs down a marker ladder via the
  composite diamond and demands ``[1]p`` at the end, so it is true exactly at
  the mouth of a ladder of length ``k`` whose rungs carry ``p``;
* ``var_marker(k)`` lifts that to a simulated base point: "I do not carry
  ``p``, but the ladder hanging below me measures ``k``";
* ``base_marker()`` is the marker for the always-present extra ladder
  (index ``m+1``), plus the shield conjunct ``[1]~p`` if the variant has
  it; it is meant to hold at exactly the simulated base points;
* ``lower(f)`` maps every variable ``pk`` to ``var_marker(k)`` and
  relativizes every box body to the base marker;
* ``reduce(f)`` prefixes the uniformity guard: ``uniform_guard() -> lower(f)``.

Several readings of the marker formulas are coherent a priori; a
:class:`VariantConfig` names one reading by three flags, and the
calibration suite in ``onevar.search`` picks the default empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

from onevar.formulas import (AND, BOT, BOX, OR, VAR, Formula, FormulaStore,
                             ModalityError, box_upto, composite_dia, dia_upto,
                             postorder)


class ReservedVariableError(ValueError):
    """The source formula uses the reserved variable (index 0)."""


@dataclass(frozen=True)
class VariantConfig:
    """One reading of the marker formulas and the gadget valuation.

    composite
        whether the outer diamond of ``var_marker``/``base_marker`` is the
        composite two-step diamond or a plain ``<1>``.
    mark_first_rung
        whether the ``w0`` point of an active ladder carries ``p`` (the
        surgery module consumes this when it lifts a valuation).
    shield
        whether the base marker has the conjunct ``[1]~p``, which separates
        genuine base points from ladder mouths whose first step already
        sees ``p``.
    """

    composite: bool = True
    mark_first_rung: bool = True
    shield: bool = True

    @property
    def name(self) -> str:
        parts = ["composite" if self.composite else "plain"]
        if self.mark_first_rung:
            parts.append("rung0")
        if self.shield:
            parts.append("shield")
        return "+".join(parts)


# Default selected by the calibration suite (see the committed report under
# tests/fixtures/); the K-mode default is calibrated separately because
# irreflexive gadgets do not need the shield conjunct.
DEFAULT_VARIANT = VariantConfig()
K_MODE_DEFAULT_VARIANT = VariantConfig(shield=False)

VARIANT_GRID: tuple[VariantConfig, ...] = tuple(
    VariantConfig(composite, rung0, shield)
    for composite in (False, True)
    for rung0 in (False, True)
    for shield in (False, True)
)


def variant_by_name(name: str) -> VariantConfig:
    for v in VARIANT_GRID:
        if v.name == name:
            return v
    known = ", ".join(v.name for v in VARIANT_GRID)
    raise ValueError(f"unknown variant {name!r}; known: {known}")


# The reduction has about 8 DAG nodes per unit of the largest variable index,
# so the index is capped before any of it is built
MAX_VARIABLE_INDEX = 4096
# The guard boxes over every modality at each level, so its DAG grows with
# the arity times the depth; the arity is capped the same way
MAX_ARITY = 4096


class TranslationContext:
    """Frozen parameters of one reduction: arity, variable budget, depth, variant.

    ``var_limit`` is the largest variable index of the source formula (so the
    extra marker has index ``var_limit + 1``), and ``depth`` is the source
    formula's modal depth, fixed before lowering because the guard's bounded
    modalities depend on it.  All emitted formulas use only variable index 0.
    A ``var_limit`` above :data:`MAX_VARIABLE_INDEX` and an ``arity`` above
    :data:`MAX_ARITY` raise ``ValueError``.
    """

    def __init__(self, store: FormulaStore, arity: int, var_limit: int,
                 depth: int, variant: VariantConfig = DEFAULT_VARIANT):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if arity > MAX_ARITY:
            raise ValueError(f"arity {arity} is above the cap of {MAX_ARITY}")
        if var_limit < 0:
            raise ValueError("variable limit must be >= 0")
        if var_limit > MAX_VARIABLE_INDEX:
            raise ValueError(f"variable index {var_limit} is above the cap "
                             f"of {MAX_VARIABLE_INDEX}")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.store = store
        self.arity = arity
        self.var_limit = var_limit
        self.depth = depth
        self.variant = variant
        self._probes: dict[int, Formula] = {}
        self._markers: dict[int, Formula] = {}
        self._base_marker: Formula | None = None
        self._guard: Formula | None = None
        self._lowered: dict[int, Formula] = {}

    @classmethod
    def for_formula(cls, store: FormulaStore, f: Formula, arity: int,
                    variant: VariantConfig = DEFAULT_VARIANT
                    ) -> "TranslationContext":
        """Context sized for ``f``: var_limit is the largest variable index
        occurring in ``f`` (not the count of distinct variables), depth its
        modal depth."""
        return cls(store, arity, max(f.var_set, default=0), f.depth, variant)

    def ladder_probe(self, k: int) -> Formula:
        """k-fold composite diamond applied to ``[1]p``: true at the mouth of
        an active length-k ladder."""
        if k < 1:
            raise ValueError("probe depth must be >= 1")
        hit = self._probes.get(k)
        if hit is None:
            store = self.store
            hit = store.box(1, store.var(0))
            for _ in range(k):
                hit = composite_dia(store, hit)
            self._probes[k] = hit
        return hit

    def var_marker(self, k: int) -> Formula:
        """Single-variable stand-in for variable ``pk`` at simulated base points."""
        if not 1 <= k <= self.var_limit + 1:
            raise ValueError(
                f"marker index {k} outside 1..{self.var_limit + 1}")
        hit = self._markers.get(k)
        if hit is None:
            store = self.store
            p = store.var(0)
            body = store.and_(p, self.ladder_probe(k))
            if self.variant.composite:
                dia = composite_dia(store, body)
            else:
                dia = store.dia(1, body)
            hit = store.and_(store.not_(p), dia)
            self._markers[k] = hit
        return hit

    def base_marker(self) -> Formula:
        """Marker meant to hold at exactly the simulated base points."""
        if self._base_marker is None:
            store = self.store
            marker = self.var_marker(self.var_limit + 1)
            if self.variant.shield:
                marker = store.and_(marker,
                                    store.box(1, store.not_(store.var(0))))
            self._base_marker = marker
        return self._base_marker

    def lower(self, f: Formula) -> Formula:
        """Variable-eliminating homomorphism.

        Variables map to their markers, boxes relativize their body to the
        base marker, booleans and falsum pass through.  Rejects occurrences
        of the reserved variable and boxes beyond the context arity.
        """
        memo = self._lowered
        hit = memo.get(f.uid)
        if hit is not None:
            return hit
        store = self.store
        for node in postorder(f):
            if node.uid in memo:
                continue
            kind = node.kind
            if kind == BOT:
                out = node
            elif kind == VAR:
                if node.idx == 0:
                    raise ReservedVariableError(
                        "the reserved variable p cannot occur in a source "
                        "formula")
                if node.idx > self.var_limit:
                    raise ValueError(
                        f"variable p{node.idx} exceeds the context limit "
                        f"{self.var_limit}")
                out = self.var_marker(node.idx)
            elif kind == BOX:
                if node.idx > self.arity:
                    raise ModalityError(
                        f"box index {node.idx} exceeds the context arity "
                        f"{self.arity}")
                body = store.imp(self.base_marker(),
                                 memo[node.children[0].uid])
                out = store.box(node.idx, body)
            else:
                left, right = (memo[c.uid] for c in node.children)
                if kind == AND:
                    out = store.and_(left, right)
                elif kind == OR:
                    out = store.or_(left, right)
                else:  # IMP
                    out = store.imp(left, right)
            memo[node.uid] = out
        return memo[f.uid]

    def uniform_guard(self) -> Formula:
        """Conjunction forcing the base marker to behave uniformly within the
        context depth: the marker propagates to, and back from, every point
        reachable without moving the first coordinate."""
        if self._guard is None:
            store = self.store
            every, rest = range(1, self.arity + 1), range(2, self.arity + 1)
            d = self.depth
            b = self.base_marker()
            forward = box_upto(store, every, d,
                               store.imp(b, box_upto(store, rest, d, b)))
            backward = box_upto(store, every, d,
                                store.imp(dia_upto(store, rest, d, b), b))
            self._guard = store.conj([b, forward, backward])
        return self._guard

    def reduce(self, f: Formula) -> Formula:
        """The full reduction ``uniform_guard() -> lower(f)``; single-variable
        and deterministic given the variant."""
        return self.store.imp(self.uniform_guard(), self.lower(f))
