"""Finite Kripke frames, products, valuations and model checking.

Worlds are 0-based integers.  A :class:`Frame1` is a unimodal frame.  Product
worlds are numbered row-major by :class:`CoordinateCodec`, the one place that
maps world indices to factor coordinates and back; a :class:`ProductModel`
holds the codec of its factors.  A product frame is its :class:`ShiftPlan`,
which :func:`product` builds straight from the factors' edges.  Frames,
models and satisfaction sets are immutable after construction.

The model checker :func:`sat_mask` labels the shared formula DAG bottom-up
using bitmask world sets; it needs only a :class:`ShiftPlan` and one world
mask per variable.  The plan groups each relation's edges ``w -> y`` by
their offset ``d = y - w``, so the box step costs a few big-integer shifts
per distinct offset instead of a loop over the worlds.  Offsets survive
disjoint copies of a frame, so one pass over the plan of many copies
evaluates one valuation per copy at once (bit-sliced valuations, as in
Biham's bitsliced DES, FSE 1997), and the copies need not share a frame:
:class:`LaneLayout` lays out the products of one frame per
:class:`FrameList`, each under the same valuations, as lanes, and builds
the plan of any block of lanes from each edge's frame mask and its sources
in one product.  :func:`check_naive` is
an independent oracle: a direct recursive evaluator with no sharing and no
caching that reads the factors, not the plan, kept deliberately separate so
the two can be differenced against each other.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, Sequence

from onevar.formulas import (AND, BOT, BOX, IMP, OR, VAR, Formula,
                             ModalityError, postorder)


class ModelFormatError(ValueError):
    """Malformed JSON frame or model description."""


def _normalize_edges(edges: Iterable[tuple[int, int]],
                     worlds: int) -> tuple[tuple[int, int], ...]:
    out = sorted({(a, b) for a, b in edges})
    # sorted by source, so the sources' range is at the two ends
    targets = [b for _, b in out]
    if out and not (0 <= out[0][0] and out[-1][0] < worlds
                    and 0 <= min(targets) and max(targets) < worlds):
        a, b = next((a, b) for a, b in out
                    if not (0 <= a < worlds and 0 <= b < worlds))
        raise ValueError(f"edge ({a}, {b}) outside worlds 0..{worlds - 1}")
    return tuple(out)


class Frame1:
    """Finite unimodal frame: ``worlds`` points and a sorted edge set.

    Equality and hashing consider ``(worlds, edges)`` only; ``labels`` are
    annotations (gadget point names) and do not affect identity.
    """

    __slots__ = ("worlds", "edges", "succ", "labels")

    def __init__(self, worlds: int, edges: Iterable[tuple[int, int]],
                 labels: Mapping[str, int] | None = None):
        if worlds < 1:
            raise ValueError("a frame needs at least one world")
        self.worlds = worlds
        self.edges = _normalize_edges(edges, worlds)
        succ: list[list[int]] = [[] for _ in range(worlds)]
        for a, b in self.edges:
            succ[a].append(b)
        self.succ = tuple(tuple(s) for s in succ)
        self.labels = dict(labels) if labels else {}
        points = self.labels.values()
        if points and not (0 <= min(points) and max(points) < worlds):
            name, w = next((name, w) for name, w in self.labels.items()
                           if not 0 <= w < worlds)
            raise ValueError(f"label {name!r} points at missing world {w}")

    @property
    def is_reflexive(self) -> bool:
        edge_set = set(self.edges)
        return all((w, w) in edge_set for w in range(self.worlds))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame1):
            return NotImplemented
        return self.worlds == other.worlds and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.worlds, self.edges))

    def __repr__(self) -> str:
        return f"Frame1(worlds={self.worlds}, edges={len(self.edges)})"

    def to_json(self) -> dict:
        doc: dict = {"worlds": self.worlds,
                     "edges": [list(e) for e in self.edges]}
        if self.labels:
            doc["labels"] = dict(sorted(self.labels.items()))
        return doc

    @classmethod
    def from_json(cls, doc: Mapping) -> "Frame1":
        try:
            worlds = _json_int(doc["worlds"])
            edges = [(_json_int(a), _json_int(b)) for a, b in doc["edges"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"bad frame description: {exc}") from exc
        labels = doc.get("labels")
        if labels is not None and not (
                isinstance(labels, Mapping)
                and all(type(w) is int for w in labels.values())):
            raise ModelFormatError("frame labels must map names to worlds")
        try:
            return cls(worlds, edges, labels)
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(str(exc)) from exc


def _json_int(value) -> int:
    """A JSON number that must be an integer: floats, strings and bools
    (``true`` loads as a bool, which Python counts as an int) are rejected
    rather than truncated or parsed."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def reflexive_closure(edges: Iterable[tuple[int, int]],
                      worlds: int) -> tuple[tuple[int, int], ...]:
    """The relation plus the identity on ``0..worlds-1``; idempotent."""
    out = set(edges)
    out.update((w, w) for w in range(worlds))
    return _normalize_edges(out, worlds)


def symmetric_closure(edges: Iterable[tuple[int, int]],
                      worlds: int) -> tuple[tuple[int, int], ...]:
    out = set(edges)
    out.update((b, a) for a, b in edges)
    return _normalize_edges(out, worlds)


def transitive_closure(edges: Iterable[tuple[int, int]],
                       worlds: int) -> tuple[tuple[int, int], ...]:
    reach = [set() for _ in range(worlds)]
    for a, b in edges:
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in range(worlds):
            extra = set()
            for b in reach[a]:
                extra |= reach[b] - reach[a]
            if extra:
                reach[a] |= extra
                changed = True
    return _normalize_edges(((a, b) for a in range(worlds) for b in reach[a]),
                            worlds)


def ladder(k: int) -> Frame1:
    """The reflexive chain gadget with rungs ``v0 -> w0 -> v1 -> ... -> vk -> wk``.

    ``2*(k+1)`` points; point ``v_i`` is world ``2*i`` and ``w_i`` is world
    ``2*i + 1``, with matching labels.  Every point carries a self-loop; the
    only world without a non-loop outgoing edge is ``w_k``.
    """
    if k < 1:
        raise ValueError("ladder size must be >= 1")
    worlds = 2 * (k + 1)
    chain = [(2 * i, 2 * i + 1) for i in range(k + 1)]          # v_i -> w_i
    chain += [(2 * i + 1, 2 * i + 2) for i in range(k)]         # w_i -> v_{i+1}
    labels = {f"v{i}": 2 * i for i in range(k + 1)}
    labels.update({f"w{i}": 2 * i + 1 for i in range(k + 1)})
    return Frame1(worlds, reflexive_closure(chain, worlds), labels)


def repunit(step: int, count: int) -> int:
    """``count`` one bits spaced ``step`` bits apart, the lowest at bit 0.

    Built by doubling, in time linear in ``step * count``: dividing
    ``2**(step*count) - 1`` by ``2**step - 1`` is a schoolbook division
    once ``step`` spans several machine words.
    """
    ones = have = 0
    for bit in bin(count)[2:]:  # highest bit first
        ones |= ones << have * step
        have *= 2
        if bit == "1":
            ones = ones << step | 1
            have += 1
    return ones


# ASCII "0"/"1" to bytes 0/1, for the byte-level spread below
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _runs(bits: int, step: int, count: int) -> int:
    """Bit ``j`` of ``bits`` widened to bits ``j*step .. j*step + step - 1``,
    for ``j < count``.

    Linear in ``step * count``: when ``step`` is a whole number of bytes, a
    strided byte copy moves bit ``j`` to bit ``j * step``; otherwise
    ``step - 1`` zero digits go between the binary digits.  One subtraction
    then fills each run.
    """
    digits = format(bits & (1 << count) - 1, f"0{count}b")
    if step % 8:
        starts = int(("0" * (step - 1)).join(digits), 2)
    else:
        spread = bytearray(count * step // 8)
        spread[::step // 8] = digits[::-1].encode().translate(_BIT_BYTES)
        starts = int.from_bytes(spread, "little")
    return (starts << step) - starts


class ShiftPlan:
    """A frame's relations as edge offsets, the form :func:`sat_mask` reads
    and the one product-frame type (:func:`product` and
    :meth:`LaneLayout.plan` build it).

    ``steps[i]`` lists, for modality ``i + 1``, one ``(d, sources)`` pair per
    offset ``d`` in increasing order: ``sources`` is the mask of the worlds
    ``w`` with an edge ``w -> w + d``.  The rows are stored as given, so
    callers pass tuples.
    """

    __slots__ = ("arity", "worlds", "steps")

    def __init__(self, arity: int, worlds: int,
                 steps: tuple[tuple[tuple[int, int], ...], ...]):
        self.arity = arity
        self.worlds = worlds
        self.steps = steps


class CoordinateCodec:
    """Row-major mixed-radix numbering of product worlds.

    World ``w`` of a product over factors of ``sizes`` worlds is the ``w``-th
    coordinate tuple in lexicographic order: the last coordinate varies
    fastest, and moving coordinate ``i`` by one moves the world index by
    ``strides[i]``.  Enumeration order (and with it first-found
    countermodels) rests on this numbering.
    """

    __slots__ = ("sizes", "strides", "worlds")

    def __init__(self, sizes: Iterable[int]):
        self.sizes = tuple(sizes)
        strides = []
        worlds = 1
        for size in reversed(self.sizes):
            strides.append(worlds)
            worlds *= size
        self.strides = tuple(reversed(strides))
        self.worlds = worlds

    def index(self, coords: Sequence[int]) -> int:
        """World index of a coordinate tuple; rejects tuples outside the
        product."""
        coords = tuple(coords)
        if len(coords) != len(self.sizes):
            raise ValueError("coordinate arity mismatch")
        idx = 0
        for c, size in zip(coords, self.sizes):
            if not 0 <= c < size:
                raise ValueError(f"coordinate {coords} outside factors")
            idx = idx * size + c
        return idx

    def coords(self, world: int) -> tuple[int, ...]:
        """Coordinate tuple of a world index; rejects worlds outside the
        product."""
        if not 0 <= world < self.worlds:
            raise ValueError(f"world {world} outside the product")
        return tuple(world // stride % size
                     for stride, size in zip(self.strides, self.sizes))


def _zero_columns(codec: CoordinateCodec) -> Iterator[tuple[int, int]]:
    """Per factor ``i`` of the product numbered by ``codec``: ``strides[i]``
    and the mask of the worlds whose coordinate ``i`` is 0, runs of
    ``strides[i]`` worlds repeated every ``size_i * strides[i]`` worlds.
    Shifted by ``x * strides[i]``, it is the worlds whose coordinate ``i``
    is ``x``, the sources of factor ``i``'s edges from ``x``."""
    for size, stride in zip(codec.sizes, codec.strides):
        period = size * stride
        yield stride, ((1 << stride) - 1) * repunit(period,
                                                    codec.worlds // period)


def product(factors: Sequence[Frame1]) -> ShiftPlan:
    """Product frame as its :class:`ShiftPlan`: relation ``i`` moves exactly
    coordinate ``i`` along the i-th factor's relation.

    Factor ``i``'s edge ``x -> y`` is offset ``(y - x) * strides[i]``, and
    its sources are the worlds whose coordinate ``i`` is ``x``.  So the
    cost is one big-integer shift per factor world and one OR per factor
    edge, whatever the number of product worlds.
    """
    if not factors:
        raise ValueError("a product needs at least one factor")
    codec = CoordinateCodec(f.worlds for f in factors)
    steps = []
    for factor, (stride, column) in zip(factors, _zero_columns(codec)):
        sources: dict[int, int] = {}
        for x, targets in enumerate(factor.succ):
            part = column << x * stride
            for y in targets:
                d = (y - x) * stride
                sources[d] = sources.get(d, 0) | part
        steps.append(tuple(sorted(sources.items())))
    return ShiftPlan(len(factors), codec.worlds, tuple(steps))


class FrameList:
    """Frames of one size in a fixed order, and for each edge the frames
    that have it: bit ``j`` of ``edges[(x, y)]`` is set when ``frames[j]``
    has the edge ``x -> y``."""

    __slots__ = ("frames", "worlds", "edges")

    def __init__(self, frames: Iterable[Frame1]):
        self.frames = tuple(frames)
        if not self.frames:
            raise ValueError("a frame list needs at least one frame")
        self.worlds = self.frames[0].worlds
        edges: dict[tuple[int, int], int] = {}
        for j, frame in enumerate(self.frames):
            if frame.worlds != self.worlds:
                raise ValueError("the frames of a list share one size")
            for edge in frame.edges:
                edges[edge] = edges.get(edge, 0) | 1 << j
        self.edges = edges


class LaneLayout:
    """The lanes of a sweep over the products of one frame from each list,
    each product checked under the same ``valuations`` valuations.

    Frame ``k`` is the ``k``-th product in :func:`itertools.product` order
    of the lists (the last list varies fastest), and lane ``k*V + v`` holds
    valuation ``v`` of frame ``k``: frame-major, then valuation, with ``n``
    world bits per lane.  :meth:`plan` builds the :class:`ShiftPlan` of a
    run of lanes, which :func:`sat_mask` checks in one pass (frames as
    lanes, as valuations are lanes of one frame: bit-sliced, after Biham's
    bitsliced DES, FSE 1997).
    """

    __slots__ = ("lists", "valuations", "codec", "frames", "_members",
                 "_starts")

    def __init__(self, lists: Sequence[FrameList], valuations: int):
        if not lists:
            raise ValueError("a product needs at least one factor")
        if valuations < 1:
            raise ValueError("a frame needs at least one valuation")
        self.lists = tuple(lists)
        self.valuations = valuations
        self.codec = CoordinateCodec(lst.worlds for lst in self.lists)
        self.frames = 1
        for lst in self.lists:
            self.frames *= len(lst.frames)
        # _members[i][edge]: bit k set when factor i of frame k has the edge.
        # List i's frame j is factor i of runs of ``below`` consecutive
        # frames, one run every ``len(list) * below`` frames.
        self._members = []
        below = 1
        for lst in reversed(self.lists):
            period = len(lst.frames) * below
            repeat = repunit(period, self.frames // period)
            members = {}
            for edge, mask in lst.edges.items():
                members[edge] = _runs(mask, below, len(lst.frames)) * repeat
            self._members.append(members)
            below = period
        self._members.reverse()
        # lane starts by (frames of the run with an edge, lanes in the run)
        self._starts: dict[tuple[int, int], int] = {}

    def factors(self, frame: int) -> tuple[Frame1, ...]:
        """The factors of frame ``frame``."""
        out = []
        for lst in reversed(self.lists):
            frame, j = divmod(frame, len(lst.frames))
            out.append(lst.frames[j])
        return tuple(reversed(out))

    def plan(self, first: int, count: int) -> ShiftPlan:
        """The plan of lanes ``first .. first + count - 1``, lane ``first +
        l`` on worlds ``l*n .. l*n + n - 1``.

        The run lies inside one frame or covers whole frames.  Each edge's
        frames in the run are widened to their runs of lanes, and one
        division by ``2**n - 1`` leaves one bit at the first world of each
        lane.  An edge's sources are then its sources in one product, as
        :func:`product` finds them, times those lane starts, so the cost is
        linear in the run's bits per edge.  Runs of frames recur from block
        to block, so their lane starts are kept.
        """
        frame, lane = divmod(first, self.valuations)
        if lane + count <= self.valuations:
            width, frames = count, 1
        elif lane == 0 and count % self.valuations == 0:
            width, frames = self.valuations, count // self.valuations
        else:
            raise ValueError("a run of lanes lies inside one frame or "
                             "covers whole frames")
        if count < 1 or first < 0 or frame + frames > self.frames:
            raise ValueError(f"no run of lanes {first}..{first + count - 1} "
                             f"in the sweep")
        n = self.codec.worlds
        bits = width * n  # the bits of one frame's lanes in the run
        low = (1 << frames) - 1

        def lane_starts(members: int) -> int:
            key = (members >> frame & low, count)
            starts = self._starts.get(key)
            if starts is None:
                starts = _runs(key[0], bits, frames) // ((1 << n) - 1)
                self._starts[key] = starts
            return starts

        steps = []
        for by_edge, (stride, column) in zip(self._members,
                                             _zero_columns(self.codec)):
            sources: dict[int, int] = {}
            for (x, y), members in by_edge.items():
                starts = lane_starts(members)
                if starts:
                    d = (y - x) * stride
                    part = (column << x * stride) * starts
                    sources[d] = sources.get(d, 0) | part
            steps.append(tuple(sorted(sources.items())))
        return ShiftPlan(len(self.lists), n * count, tuple(steps))


def restrict(frame: Frame1, keep: Iterable[int]) -> Frame1:
    """Subframe on ``keep``: the relation intersected with ``keep`` squared.

    Worlds are renumbered in increasing order of their old indices; labels
    follow the renumbering.
    """
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("cannot restrict to an empty world set")
    if any(not 0 <= w < frame.worlds for w in kept):
        raise ValueError("keep set mentions missing worlds")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [(remap[a], remap[b]) for a, b in frame.edges
             if a in remap and b in remap]
    labels = {name: remap[w] for name, w in frame.labels.items()
              if w in remap}
    return Frame1(len(kept), edges, labels)


class ProductModel:
    """A product frame with a valuation and a distinguished point.

    ``masks`` maps variable indices to world masks (bit ``w`` for world
    ``w``), the model's one valuation representation; variables without an
    entry are false everywhere.  ``codec`` numbers the worlds by their
    factor coordinates, and ``frame`` is the product's :class:`ShiftPlan`
    (built here unless a caller passes the one it already has for the same
    factors).  The constructor takes world-index sets and converts each
    once; :meth:`from_masks` takes the masks.  The satisfaction cache is
    per-model and keyed by interned formula ids, so repeated checks over the
    shared DAG cost one pass.
    """

    __slots__ = ("factors", "codec", "frame", "masks", "point", "_sat_cache")

    def __init__(self, factors: Sequence[Frame1],
                 valuation: Mapping[int, Iterable[int]],
                 point: int,
                 frame: ShiftPlan | None = None):
        self.factors = tuple(factors)
        self.codec = CoordinateCodec(f.worlds for f in self.factors)
        self.masks = {int(var): _world_mask(var, ws, self.codec.worlds)
                      for var, ws in valuation.items()}
        self._place(point, frame)

    @classmethod
    def from_masks(cls, factors: Sequence[Frame1], masks: Mapping[int, int],
                   point: int, frame: ShiftPlan | None = None
                   ) -> "ProductModel":
        """Build a model from one world mask per variable; rejects a
        negative mask and a bit at or above the world count."""
        model = cls.__new__(cls)
        model.factors = tuple(factors)
        model.codec = CoordinateCodec(f.worlds for f in model.factors)
        for var, mask in masks.items():
            if mask < 0 or mask >> model.codec.worlds:
                raise ValueError(f"mask of variable {var} has bits outside "
                                 f"worlds 0..{model.codec.worlds - 1}")
        model.masks = {int(var): mask for var, mask in masks.items()}
        model._place(point, frame)
        return model

    def _place(self, point: int, frame: ShiftPlan | None) -> None:
        if frame is None:
            frame = product(self.factors)
        elif (frame.worlds != self.codec.worlds
              or frame.arity != len(self.factors)):
            raise ValueError("the frame is not the product of the factors")
        self.frame = frame
        if not 0 <= point < self.frame.worlds:
            raise ValueError(f"point {point} outside worlds")
        self.point = point
        self._sat_cache: dict[int, int] = {}

    @property
    def valuation(self) -> dict[int, frozenset[int]]:
        """The valuation as world-index sets, derived from ``masks`` on each
        read."""
        return {var: _worlds(mask) for var, mask in self.masks.items()}

    def sat(self, f: Formula) -> int:
        """Worlds where ``f`` holds, as a mask, through the model's cache."""
        return sat_mask(self.frame, self.masks, f, self._sat_cache)

    # -- coordinate helpers -------------------------------------------------

    def index_of(self, coords: Sequence[int]) -> int:
        return self.codec.index(coords)

    def coords_of(self, world: int) -> tuple[int, ...]:
        return self.codec.coords(world)

    @classmethod
    def from_coords(cls, factors: Sequence[Frame1],
                    valuation: Mapping[int, Iterable[Sequence[int]]],
                    point: Sequence[int]) -> "ProductModel":
        """Build a model giving the valuation and point by coordinate tuples."""
        codec = CoordinateCodec(f.worlds for f in factors)
        val = {var: [codec.index(c) for c in coords_list]
               for var, coords_list in valuation.items()}
        return cls(factors, val, codec.index(point))

    # unused by the package; perfbench/tracer.py patches it by name
    def with_valuation(self, valuation: Mapping[int, Iterable[int]]
                       ) -> "ProductModel":
        """Same frame and point, new valuation (shares the built frame)."""
        return ProductModel(self.factors, valuation, self.point, self.frame)

    def __repr__(self) -> str:
        shape = "x".join(str(f.worlds) for f in self.factors)
        return f"ProductModel({shape}, point={self.point})"

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        val: dict[str, list] = {}
        for var in sorted(self.masks):
            name = "p" if var == 0 else f"p{var}"
            # row-major numbering: increasing worlds, sorted coordinates
            val[name] = [list(self.coords_of(w))
                         for w in bit_indices(self.masks[var])]
        return {
            "factors": [f.to_json() for f in self.factors],
            "valuation": val,
            "point": list(self.coords_of(self.point)),
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "ProductModel":
        try:
            factors = [Frame1.from_json(fdoc) for fdoc in doc["factors"]]
            raw_val = doc.get("valuation", {})
            point = _coords(doc["point"])
        except (KeyError, TypeError) as exc:
            raise ModelFormatError(f"bad model description: {exc}") from exc
        if not isinstance(raw_val, Mapping):
            raise ModelFormatError("bad model description: the valuation "
                                   "must map variable names to coordinates")
        valuation: dict[int, list] = {}
        for name, coords_list in raw_val.items():
            # only the names to_json writes, so no two keys alias one variable
            match = _VARIABLE_NAME.fullmatch(name)
            if match is None:
                raise ModelFormatError(f"bad variable name {name!r}")
            var = int(match[1] or 0)
            if not isinstance(coords_list, (list, tuple)):
                raise ModelFormatError(
                    f"valuation of {name!r} must be a list of coordinates")
            valuation[var] = [_coords(coords) for coords in coords_list]
        try:
            return cls.from_coords(factors, valuation, point)
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc


# "p" is variable 0 and "p<n>" variable n >= 1, in decimal without leading
# zeros
_VARIABLE_NAME = re.compile(r"p([1-9][0-9]*)?", re.ASCII)


def _coords(value) -> tuple[int, ...]:
    """A JSON coordinate list as a tuple of ints."""
    if not isinstance(value, (list, tuple)):
        raise ModelFormatError(f"coordinates must be a list, got {value!r}")
    try:
        return tuple(_json_int(c) for c in value)
    except ValueError as exc:
        raise ModelFormatError(f"bad coordinates {value!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

def sat_mask(plan: ShiftPlan, var_masks: Mapping[int, int],
             f: Formula, cache: dict[int, int]) -> int:
    """Worlds of ``plan`` where ``f`` holds, as a bitmask (bit ``w`` for
    world ``w``).

    ``plan`` may hold lanes (:meth:`LaneLayout.plan`): over ``L`` lanes of
    ``n`` worlds, bits ``l*n .. l*n + n - 1`` of every mask hold lane ``l``,
    so one call evaluates ``L`` (frame, valuation) pairs.
    ``var_masks`` maps variable indices to world masks; variables without an
    entry are false everywhere.  ``cache`` maps formula uids to masks already
    computed under the same plan and masks, and is filled in; pass ``{}``
    for a one-off evaluation.

    The box step reads the plan: with ``outside`` the worlds where the body
    fails, ``[i]body`` fails at ``w`` exactly when some offset ``d`` of
    relation ``i`` has ``w`` among its sources and ``w + d`` outside, so
    ``[i]body = full & ~OR_d(shift(outside, d) & sources_d)``: one shift and
    one AND per offset, whatever the number of worlds.
    """
    hit = cache.get(f.uid)
    if hit is not None:
        return hit
    full = (1 << plan.worlds) - 1
    for node in postorder(f):
        if node.uid in cache:
            continue
        kind = node.kind
        if kind == BOT:
            mask = 0
        elif kind == VAR:
            mask = var_masks.get(node.idx, 0)
        elif kind == AND:
            mask = cache[node.children[0].uid] & cache[node.children[1].uid]
        elif kind == OR:
            mask = cache[node.children[0].uid] | cache[node.children[1].uid]
        elif kind == IMP:
            mask = (~cache[node.children[0].uid] | cache[node.children[1].uid]) & full
        else:  # BOX
            if node.idx > plan.arity:
                raise ModalityError(
                    f"box index {node.idx} exceeds frame arity {plan.arity}")
            outside = full & ~cache[node.children[0].uid]
            failing = 0
            for d, sources in plan.steps[node.idx - 1]:
                failing |= (outside >> d if d >= 0 else outside << -d) & sources
            mask = full & ~failing
        cache[node.uid] = mask
    return cache[f.uid]


def bit_indices(mask: int) -> list[int]:
    """The set bits of a non-negative ``mask``, lowest first."""
    # bin(mask)[:1:-1] lists the bits lowest first; str.find skips the
    # zeros, so the Python work is one step per set bit
    digits = bin(mask)[:1:-1]
    out = []
    w = digits.find("1")
    while w >= 0:
        out.append(w)
        w = digits.find("1", w + 1)
    return out


def _worlds(mask: int) -> frozenset[int]:
    """The set bits of ``mask``."""
    return frozenset(bit_indices(mask))


def _world_mask(var: int, worlds: Iterable[int], count: int) -> int:
    """The mask of ``worlds``, a valuation of ``var`` over worlds
    ``0..count-1``, in one linear pass: the binary digits are set in a
    buffer, highest world first, and parsed once."""
    digits = bytearray(b"0") * count
    for w in worlds:
        if not 0 <= w < count:
            raise ValueError(f"valuation of variable {var} mentions "
                             f"missing world {w}")
        digits[~w] = 49  # ord("1"); digits[-1] is bit 0
    return int(digits, 2)


def sat_set(model: ProductModel, f: Formula) -> frozenset[int]:
    """Worlds of the model where ``f`` holds."""
    return _worlds(model.sat(f))


def check(model: ProductModel, world: int, f: Formula) -> bool:
    """Truth of ``f`` at one world."""
    if not 0 <= world < model.frame.worlds:
        raise ValueError(f"unknown world {world}")
    return bool(model.sat(f) >> world & 1)


def check_naive(model: ProductModel, world: int, f: Formula) -> bool:
    """Independent reference evaluator: plain recursion, no sharing, no cache.

    Deliberately structured differently from :func:`sat_mask` (per-world
    recursion instead of bottom-up labeling) so the two implementations can
    serve as oracles for each other.  It reads the product definition off
    the factors, not the model's plan: box ``i`` at ``world`` visits the
    worlds that change coordinate ``i`` from ``c`` to each ``y`` with
    ``c -> y`` in factor ``i``.
    """
    if not 0 <= world < model.codec.worlds:
        raise ValueError(f"unknown world {world}")
    kind = f.kind
    if kind == BOT:
        return False
    if kind == VAR:
        return model.masks.get(f.idx, 0) >> world & 1 == 1
    if kind == AND:
        return (check_naive(model, world, f.children[0])
                and check_naive(model, world, f.children[1]))
    if kind == OR:
        return (check_naive(model, world, f.children[0])
                or check_naive(model, world, f.children[1]))
    if kind == IMP:
        return ((not check_naive(model, world, f.children[0]))
                or check_naive(model, world, f.children[1]))
    if f.idx > len(model.factors):
        raise ModalityError(
            f"box index {f.idx} exceeds frame arity {len(model.factors)}")
    factor = model.factors[f.idx - 1]
    stride = model.codec.strides[f.idx - 1]
    c = world // stride % factor.worlds
    return all(check_naive(model, world + (y - c) * stride, f.children[0])
               for y in factor.succ[c])


def bounded_reach_mask(plan: ShiftPlan, start: int, k: int,
                       dims: Iterable[int]) -> int:
    """Worlds reachable from ``start`` in at most ``k`` steps along ``dims``,
    as a mask.

    ``dims`` is a set of 1-based modality indices; ``dims = 1..n`` gives full
    bounded reachability, ``dims = 2..n`` the first-coordinate-preserving
    variant.  Each step moves the whole frontier mask along every offset of
    the chosen relations at once.
    """
    dims = sorted(set(dims))
    for d in dims:
        if not 1 <= d <= plan.arity:
            raise ValueError(f"dimension {d} outside 1..{plan.arity}")
    if not 0 <= start < plan.worlds:
        raise ValueError(f"unknown world {start}")
    steps = [step for d in dims for step in plan.steps[d - 1]]
    seen = frontier = 1 << start
    for _ in range(k):
        moved = 0
        for d, sources in steps:
            out = frontier & sources
            moved |= out << d if d >= 0 else out >> -d
        frontier = moved & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen


def bounded_reach(plan: ShiftPlan, start: int, k: int,
                  dims: Iterable[int]) -> frozenset[int]:
    """:func:`bounded_reach_mask` as a set of worlds."""
    return _worlds(bounded_reach_mask(plan, start, k, dims))
