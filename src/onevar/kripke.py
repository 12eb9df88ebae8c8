"""Finite Kripke frames, products, valuations and model checking.

Worlds are 0-based integers.  A :class:`Frame1` is a unimodal frame, stored
as its own one-factor plan: one source mask per edge offset.  Product worlds
are numbered row-major by :class:`CoordinateCodec`, the one place that maps
world indices to factor coordinates and back.  Relation ``i`` of a product
moves only coordinate ``i``, so a product frame, its :class:`ShiftPlan`, is
the factors' offset rows, each widened by :meth:`CoordinateCodec.widen` to
the worlds whose coordinate ``i`` is a row source; the plan carries that
codec, a :class:`ProductModel`'s one numbering.  Frames, models and
satisfaction sets are immutable after construction.

The model checker :func:`sat_mask` labels the shared formula DAG bottom-up
using bitmask world sets; it needs only a :class:`ShiftPlan` and one world
mask per variable.  The plan groups each relation's edges ``w -> y`` by
their offset ``d = y - w``, so the box step costs a few big-integer shifts
per distinct offset instead of a loop over the worlds.  Where a factor has
many offsets with one source each, as a gadget factor has, the plan lists
the edges of those sources as fans instead, one successor mask per source
world, and a fan costs one AND.  Offsets survive disjoint copies of a
frame, so one pass over the plan of many copies evaluates one valuation per
copy at once (bit-sliced valuations, as in Biham's bitsliced DES, FSE
1997), and the copies need not share a frame: :class:`LaneLayout` lays out
the products of one frame per :class:`FrameList` as lanes, and builds the
plan of a block of frames, each over the same lanes, from the same widened
rows, each placed at the lanes of the frames that have it.
:func:`check_naive` is an independent oracle: a top-down recursive
evaluator, memoized within one call in one table per world keyed by the
node, that reads the factors, not the plan, kept deliberately separate so
the two can be differenced against each other.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Mapping, Sequence

from onevar.formulas import (AND, BOT, IMP, OR, VAR, Formula, ModalityError,
                             postorder)


class ModelFormatError(ValueError):
    """Malformed JSON frame or model description."""


# a frame's labels, or a function that returns them
Labels = Mapping[str, int] | Callable[[], Mapping[str, int]]


class Frame1:
    """Finite unimodal frame, stored as its own one-factor shift plan.

    ``offsets`` lists one ``(d, sources)`` pair per offset ``d`` in
    increasing order: ``sources`` is the mask of the worlds ``x`` with an
    edge ``x -> x + d``, never 0.  This is the row format of
    :attr:`ShiftPlan.steps`, and :func:`product` widens it by each factor's
    stride.  ``edges`` (the sorted edge pairs) is derived from it on each
    read, and ``succ`` (each world's successors) on the first.  The
    constructor takes edges, :meth:`from_offsets` the masks.

    Equality and hashing consider ``(worlds, offsets)``, that is the
    relation, only; ``labels`` are annotations (gadget point names) and do
    not affect identity.  Labels may be given as a function that returns
    them, which is called on the first read of ``labels``: a surgery's
    frames name thousands of gadget points, and only JSON output and leak
    reports read the names.
    """

    __slots__ = ("worlds", "offsets", "_labels", "_succ")

    def __init__(self, worlds: int, edges: Iterable[tuple[int, int]],
                 labels: Labels | None = None):
        if worlds < 1:
            raise ValueError("a frame needs at least one world")
        sources: dict[int, int] = {}
        outside = []
        for a, b in edges:
            if 0 <= a < worlds and 0 <= b < worlds:
                sources[b - a] = sources.get(b - a, 0) | 1 << a
            else:
                outside.append((a, b))
        if outside:
            a, b = min(outside)
            raise ValueError(f"edge ({a}, {b}) outside worlds 0..{worlds - 1}")
        self.worlds = worlds
        self.offsets = tuple(sorted(sources.items()))
        self._succ = None
        self._labels = labels if callable(labels) else \
            _checked_labels(labels or {}, worlds)

    @classmethod
    def from_offsets(cls, worlds: int, offsets: Mapping[int, int],
                     labels: Labels | None) -> "Frame1":
        """The frame with an edge ``x -> x + d`` for each bit ``x`` of
        ``offsets[d]``; zero masks are dropped.  Rejects a negative mask and
        an edge whose source or target lies outside the worlds, in a few
        big-integer operations per offset."""
        frame = cls(worlds, (), labels)
        for d, sources in offsets.items():
            # the sources x with x and x + d in 0..worlds-1 are the bits
            # from ``low`` up to ``high``
            low = min(max(-d, 0), worlds)
            high = max(min(worlds - d, worlds), 0)
            if sources < 0 or sources >> high or sources & (1 << low) - 1:
                raise ValueError(f"offset {d} has an edge outside worlds "
                                 f"0..{worlds - 1}")
        frame.offsets = tuple(sorted((d, s) for d, s in offsets.items() if s))
        return frame

    @property
    def labels(self) -> dict[str, int]:
        """Names of labelled worlds; a function given for them is called
        on the first read, and its result checked and kept."""
        if callable(self._labels):
            self._labels = _checked_labels(self._labels(), self.worlds)
        return self._labels

    @property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        """Each world's successors in increasing order; derived on the
        first read and kept, as :func:`check_naive` reads them on every
        call and a search's witness frames recur."""
        if self._succ is None:
            succ: list[list[int]] = [[] for _ in range(self.worlds)]
            for d, sources in self.offsets:  # increasing d: lists sorted
                for x in bit_indices(sources):
                    succ[x].append(x + d)
            self._succ = tuple(map(tuple, succ))
        return self._succ

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as pairs, in sorted order."""
        return tuple(sorted([(x, x + d) for d, sources in self.offsets
                             for x in bit_indices(sources)]))

    @property
    def is_reflexive(self) -> bool:
        return (0, (1 << self.worlds) - 1) in self.offsets

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame1):
            return NotImplemented
        return self.worlds == other.worlds and self.offsets == other.offsets

    def __hash__(self) -> int:
        return hash((self.worlds, self.offsets))

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


def _checked_labels(labels: Mapping[str, int], worlds: int
                    ) -> dict[str, int]:
    """``labels`` as a dict; rejects a label of a world outside
    ``0..worlds-1``."""
    labels = dict(labels)
    points = labels.values()
    if points and not (0 <= min(points) and max(points) < worlds):
        name, w = next((name, w) for name, w in labels.items()
                       if not 0 <= w < worlds)
        raise ValueError(f"label {name!r} points at missing world {w}")
    return labels


def _json_int(value) -> int:
    """A JSON number that must be an integer: floats, strings and bools
    (``true`` loads as a bool, which Python counts as an int) are rejected
    rather than truncated or parsed."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


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

    A step of 1 is the identity.  When the runs of consecutive ones are
    few, at most 8 plus one per 32 bits (a frame's full self-loop mask, a
    single source, or any row of a small factor), each run is widened by
    one shift.  Otherwise the cost is linear in ``step * count``: when
    ``step`` is a whole number of bytes, a strided byte copy moves bit
    ``j`` to bit ``j * step``; otherwise ``step - 1`` zero digits go
    between the binary digits.  One subtraction then fills each run.
    """
    bits &= (1 << count) - 1
    if step == 1:
        return bits
    if (bits & ~(bits << 1)).bit_count() * 32 <= count + 256:  # per run
        out = at = 0
        while bits:
            skip = (bits & -bits).bit_length() - 1  # zeros below the run
            bits >>= skip
            length = (bits ^ (bits + 1)).bit_length() - 1
            out |= ((1 << length * step) - 1) << (at + skip) * step
            bits >>= length
            at += skip + length
        return out
    digits = format(bits, f"0{count}b")
    if step % 8:
        starts = int(("0" * (step - 1)).join(digits), 2)
    else:
        spread = bytearray(count * step // 8)
        spread[::step // 8] = digits[::-1].encode().translate(_BIT_BYTES)
        starts = int.from_bytes(spread, "little")
    return (starts << step) - starts


class ShiftPlan:
    """A frame's relations as edge offsets and fans, the form :func:`sat_mask`
    reads and the one product-frame type (:func:`product` and
    :meth:`LaneLayout.plan` build it).

    ``steps[i]`` lists, for modality ``i + 1``, one ``(d, sources)`` pair per
    offset ``d`` in increasing order: ``sources`` is the mask of the worlds
    ``w`` with an edge ``w -> w + d``.  ``fans[i]`` lists, in increasing
    order of ``w``, one ``(w, targets)`` pair per fanned world ``w``:
    ``targets`` is the mask of all successors of ``w``, and no row has
    ``w`` among its sources.  The relation is the union of both forms, each
    edge in one of them.  The rows are stored as given, so callers pass
    tuples.  ``codec`` numbers the worlds; ``arity`` and ``worlds`` are its
    coordinate and world counts.  ``factors`` are a :func:`product` plan's
    factors, and ``None`` in a lane plan.
    """

    __slots__ = ("codec", "factors", "arity", "worlds", "steps", "fans")

    def __init__(self, codec: CoordinateCodec,
                 factors: tuple[Frame1, ...] | None,
                 steps: tuple[tuple[tuple[int, int], ...], ...],
                 fans: tuple[tuple[tuple[int, int], ...], ...]):
        self.codec = codec
        self.factors = factors
        self.arity = len(codec.sizes)
        self.worlds = codec.worlds
        self.steps = steps
        self.fans = fans


class CoordinateCodec:
    """Row-major mixed-radix numbering of product worlds.

    World ``w`` of a product over factors of ``sizes`` worlds is the ``w``-th
    coordinate tuple in lexicographic order: the last coordinate varies
    fastest, and moving coordinate ``i`` by one moves the world index by
    ``strides[i]``.  Enumeration order (and with it first-found
    countermodels) rests on this numbering.  :class:`LaneLayout` numbers the
    frames of a sweep the same way, over the lengths of its frame lists.
    """

    __slots__ = ("sizes", "strides", "worlds", "_repeats")

    def __init__(self, sizes: Iterable[int]):
        self.sizes = tuple(sizes)
        strides = []
        worlds = 1
        for size in reversed(self.sizes):
            strides.append(worlds)
            worlds *= size
        self.strides = tuple(reversed(strides))
        self.worlds = worlds
        # per coordinate, the repunit that :meth:`widen` repeats a block by
        self._repeats: list[int | None] = [None] * len(self.sizes)

    def widen(self, i: int, mask: int) -> int:
        """The indices whose coordinate ``i`` is a bit of ``mask``, as a mask.

        Bit ``x`` becomes a run of ``strides[i]`` indices (see
        :func:`_runs`), and the block of ``sizes[i] * strides[i]`` indices
        repeats by one product with a repunit, kept per coordinate.  When
        coordinate ``i`` has all the worlds, every other coordinate has one
        value, so the mask, cut to the worlds, is its own widening.
        """
        if self.sizes[i] == self.worlds:
            return mask & (1 << self.worlds) - 1
        repeat = self._repeats[i]
        if repeat is None:
            period = self.sizes[i] * self.strides[i]
            repeat = self._repeats[i] = repunit(period, self.worlds // period)
        return _runs(mask, self.strides[i], self.sizes[i]) * repeat

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


# factors with fewer offset rows are never fanned (see :func:`product`)
FAN_MIN_ROWS = 16


def _split_fans(offsets: tuple[tuple[int, int], ...], stride: int,
                copies: int) -> tuple[tuple[tuple[int, int], ...],
                                      dict[int, int]]:
    """The offset rows of a factor whose worlds appear in ``copies``
    product worlds each, split by the rule of :func:`product`: the rows the
    product keeps, without the fanned worlds' sources, and for each fanned
    world ``x`` the mask of bits ``y * stride`` for its successors ``y``.
    """
    if len(offsets) < FAN_MIN_ROWS:
        return offsets, {}
    fanned = 0
    for _, sources in offsets:
        if sources & sources - 1 == 0:  # one source
            fanned |= sources
    kept = sum(1 for _, sources in offsets if sources & ~fanned)
    if 2 * (kept + fanned.bit_count() * copies) > len(offsets):
        return offsets, {}
    rows, targets = [], {}
    for d, sources in offsets:
        hit = sources & fanned  # fanned has at most len(offsets) // 2 bits
        while hit:
            x = (hit & -hit).bit_length() - 1
            targets[x] = targets.get(x, 0) | 1 << (x + d) * stride
            hit &= hit - 1
        if sources & ~fanned:
            rows.append((d, sources & ~fanned))
    return tuple(rows), targets


def product(factors: Sequence[Frame1]) -> ShiftPlan:
    """Product frame as its :class:`ShiftPlan`: relation ``i`` moves exactly
    coordinate ``i`` along the i-th factor's relation.

    Each factor is its own one-factor plan, and the product widens each of
    its rows: the factor's offset ``d`` is offset ``d * strides[i]``, and
    its sources are the worlds whose coordinate ``i`` is a source of the
    factor (:meth:`CoordinateCodec.widen`).

    A factor with many sparse offset rows, such as a gadget factor whose
    copies each have an entry edge of their own offset, is partly fanned:
    each product world ``w`` whose coordinate ``i`` is a fanned world ``x``
    gets a fan of all its successors (the factor's successors of ``x``
    spread by the stride and shifted to ``w``'s column), and the rows keep
    the other sources.  The rule: the fanned worlds are those that are the
    only source of some offset row.  A kept row costs one shift per box
    step, and a fanned factor world one AND per product world with that
    coordinate; the split is used only when it at least halves the
    factor's operations, and only for a factor of at least
    :data:`FAN_MIN_ROWS` offset rows, so that small factors do not pay for
    the scan: a frame of ``n`` worlds has at most ``2n - 1`` offsets, so
    factors of 8 worlds or fewer never fan.
    """
    factors = tuple(factors)
    if not factors:
        raise ValueError("a product needs at least one factor")
    codec = CoordinateCodec(f.worlds for f in factors)
    steps, fans = [], []
    for i, (factor, stride) in enumerate(zip(factors, codec.strides)):
        rows, targets = _split_fans(factor.offsets, stride,
                                    codec.worlds // factor.worlds)
        steps.append(tuple((d * stride, codec.widen(i, sources))
                           for d, sources in rows))
        fans.append(tuple(
            (w, ys << w - x * stride)
            for high in range(0, codec.worlds, factor.worlds * stride)
            for x, ys in sorted(targets.items())
            for w in range(high + x * stride, high + (x + 1) * stride))
            if targets else ())
    return ShiftPlan(codec, factors, tuple(steps), tuple(fans))


class FrameList:
    """Frames of one size in a fixed order, and the frames that have each
    offset row: bit ``j`` of ``rows[(d, sources)]`` is set when ``(d,
    sources)`` is one of ``frames[j].offsets``.  Frames of one size share a
    few rows, which are kept in increasing order."""

    __slots__ = ("frames", "worlds", "rows")

    def __init__(self, frames: Iterable[Frame1]):
        self.frames = tuple(frames)
        if not self.frames:
            raise ValueError("a frame list needs at least one frame")
        self.worlds = self.frames[0].worlds
        # each row's frames as binary digits; the last digit is frame 0
        rows: dict[tuple[int, int], bytearray] = {}
        for j, frame in enumerate(self.frames):
            if frame.worlds != self.worlds:
                raise ValueError("the frames of a list share one size")
            for row in frame.offsets:
                digits = rows.get(row)
                if digits is None:
                    digits = rows[row] = bytearray(b"0") * len(self.frames)
                digits[~j] = 49  # ord("1")
        self.rows = {row: int(digits, 2)
                     for row, digits in sorted(rows.items())}


class LaneLayout:
    """The lanes of a sweep over the products of one frame from each list.

    Frames are numbered by a :class:`CoordinateCodec` over the list
    lengths: frame ``k`` takes frame ``coords(k)[i]`` of list ``i``, which
    is :func:`itertools.product` order of the lists.  A lane is one
    valuation of one frame's product, on ``n`` world bits numbered by
    ``codec``.  :meth:`plan` builds the :class:`ShiftPlan` of a block of
    lanes named by its frames, which :func:`sat_mask` checks in one pass
    (frames as lanes, as valuations are lanes of one frame: bit-sliced,
    after Biham's bitsliced DES, FSE 1997).
    """

    __slots__ = ("lists", "codec", "_frame_codec", "frames", "_rows",
                 "_starts")

    def __init__(self, lists: Sequence[FrameList]):
        if not lists:
            raise ValueError("a product needs at least one factor")
        self.lists = tuple(lists)
        self.codec = CoordinateCodec(lst.worlds for lst in self.lists)
        self._frame_codec = CoordinateCodec(len(lst.frames)
                                            for lst in self.lists)
        self.frames = self._frame_codec.worlds
        # _rows[i]: per offset of list i in one product, in increasing
        # order, its rows: each row's sources in one product, and the mask
        # of the frames k whose factor i has the row
        self._rows = []
        for i, (lst, stride) in enumerate(zip(self.lists, self.codec.strides)):
            rows: dict[int, list[tuple[int, int]]] = {}
            for (d, sources), frames in lst.rows.items():
                rows.setdefault(d * stride, []).append(
                    (self.codec.widen(i, sources),
                     self._frame_codec.widen(i, frames)))
            self._rows.append(tuple(rows.items()))
        # lane starts by (the block's frames with a row, frames, width)
        self._starts: dict[tuple[int, int, int], int] = {}

    def factors(self, frame: int) -> tuple[Frame1, ...]:
        """The factors of frame ``frame``."""
        return tuple(lst.frames[j] for lst, j in
                     zip(self.lists, self._frame_codec.coords(frame)))

    def plan(self, frame: int, frames: int, width: int) -> ShiftPlan:
        """The plan of ``frames`` frames from frame ``frame`` on, each over
        ``width`` lanes: lane ``l`` is a lane of frame ``frame + l //
        width``, on worlds ``l*n .. l*n + n - 1``.

        Each row's frames in the block are widened to their runs of lanes,
        and one division by ``2**n - 1`` leaves one bit at the first world
        of each lane.  The row as :func:`product` widens it, times those
        lane starts, places it at each of its lanes, so the cost is linear
        in the block's bits per row.  Blocks recur, so their lane starts
        are kept.  A lane plan has no fans and no factors; its codec stacks
        the lanes along coordinate 0, lane ``l`` at ``l*sizes[0] ..``.
        """
        if (frame < 0 or frames < 1 or width < 1
                or frame + frames > self.frames):
            raise ValueError(f"no block of {frames} frames from frame "
                             f"{frame}, {width} lanes each, in the sweep")
        n = self.codec.worlds
        bits = width * n  # the bits of one frame's lanes in the block
        low = (1 << frames) - 1

        steps = []
        for by_offset in self._rows:
            step = []
            for d, rows in by_offset:
                sources = 0
                for widened, members in rows:
                    key = (members >> frame & low, frames, width)
                    starts = self._starts.get(key)
                    if starts is None:
                        starts = _runs(key[0], bits, frames) // ((1 << n) - 1)
                        self._starts[key] = starts
                    sources |= widened * starts
                if sources:
                    step.append((d, sources))
            steps.append(tuple(step))
        sizes = self.codec.sizes
        lanes = CoordinateCodec((sizes[0] * frames * width, *sizes[1:]))
        return ShiftPlan(lanes, None, tuple(steps), ((),) * len(self.lists))


def restrict(frame: Frame1, keep: Iterable[int]) -> Frame1:
    """Subframe on ``keep``: the relation intersected with ``keep`` squared.

    Worlds are renumbered in increasing order of their old indices; labels
    follow the renumbering, which is applied to them on their first read.
    Only the kept sources with a kept target are read off each offset's
    mask.
    """
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("cannot restrict to an empty world set")
    if any(not 0 <= w < frame.worlds for w in kept):
        raise ValueError("keep set mentions missing worlds")
    remap = {old: new for new, old in enumerate(kept)}
    rows = sum(1 << w for w in kept)
    edges = [(remap[x], remap[x + d]) for d, sources in frame.offsets
             for x in bit_indices(sources & rows
                                  & (rows >> d if d >= 0 else rows << -d))]

    def labels() -> dict[str, int]:
        return {name: remap[w] for name, w in frame.labels.items()
                if w in remap}

    return Frame1(len(kept), edges, labels)


class ProductModel:
    """A product frame with a valuation and a distinguished point.

    ``masks`` maps variable indices to world masks (bit ``w`` for world
    ``w``), the model's one valuation representation; variables without an
    entry are false everywhere.  ``frame`` is the product's
    :class:`ShiftPlan`, built here unless a caller passes the one it already
    has for the same factors, and ``codec`` is the plan's codec, the one
    numbering of the worlds by their factor coordinates; a passed plan must
    be :func:`product` of equal factors, in their order.  The constructor
    takes world-index sets and converts each once; :meth:`from_masks` takes
    the masks.  The satisfaction cache is per-model and keyed by interned
    formula ids, so repeated checks over the shared DAG cost one pass.
    """

    __slots__ = ("factors", "codec", "frame", "masks", "point", "_sat_cache")

    def __init__(self, factors: Sequence[Frame1],
                 valuation: Mapping[int, Iterable[int]],
                 point: int,
                 frame: ShiftPlan | None = None):
        self._place(factors, point, frame)
        self.masks = {int(var): _world_mask(var, ws, self.codec.worlds)
                      for var, ws in valuation.items()}

    @classmethod
    def from_masks(cls, factors: Sequence[Frame1], masks: Mapping[int, int],
                   point: int, frame: ShiftPlan | None = None
                   ) -> "ProductModel":
        """Build a model from one world mask per variable; rejects a
        negative mask and a bit at or above the world count."""
        model = cls.__new__(cls)
        model._place(factors, point, frame)
        for var, mask in masks.items():
            if mask < 0 or mask >> model.codec.worlds:
                raise ValueError(f"mask of variable {var} has bits outside "
                                 f"worlds 0..{model.codec.worlds - 1}")
        model.masks = {int(var): mask for var, mask in masks.items()}
        return model

    def _place(self, factors: Sequence[Frame1], point: int,
               frame: ShiftPlan | None) -> None:
        self.factors = tuple(factors)
        if frame is None:
            frame = product(self.factors)
        elif frame.factors != self.factors:
            raise ValueError("the frame is not the product of the factors")
        self.frame = frame
        self.codec = frame.codec
        if not 0 <= point < frame.worlds:
            raise ValueError(f"point {point} outside worlds")
        self.point = point
        self._sat_cache: dict[int, int] = {}

    def sat(self, f: Formula) -> int:
        """Worlds where ``f`` holds, as a mask, through the model's cache."""
        return sat_mask(self.frame, self.masks, f, self._sat_cache)

    # -- coordinate helpers -------------------------------------------------

    def coords_of(self, world: int) -> tuple[int, ...]:
        return self.codec.coords(world)

    @classmethod
    def from_coords(cls, factors: Sequence[Frame1],
                    valuation: Mapping[int, Iterable[Sequence[int]]],
                    point: Sequence[int]) -> "ProductModel":
        """Build a model giving the valuation and point by coordinate tuples."""
        frame = product(factors)
        val = {var: [frame.codec.index(c) for c in coords_list]
               for var, coords_list in valuation.items()}
        return cls(factors, val, frame.codec.index(point), frame)

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
    entry are false everywhere, and a mask with a bit at or above
    ``plan.worlds`` (or a negative one) raises :class:`ValueError`, checked
    once per variable.  So every mask a node gets lies inside ``full``, the
    mask of all worlds, and ``full ^ mask`` is its complement.  ``cache``
    maps formula uids to masks already computed under the same plan and
    masks, and is filled in; pass ``{}`` for a one-off evaluation.

    The box step reads the plan: with ``outside`` the worlds where the body
    fails, ``[i]body`` fails at ``w`` exactly when some offset ``d`` of
    relation ``i`` has ``w`` among its sources and ``w + d`` outside, so
    ``[i]body = full ^ OR_d(shift(outside, d) & sources_d)``: one shift and
    one AND per offset, whatever the number of worlds.  An offset-0 row
    whose sources are all worlds, as a reflexive factor has, costs one OR.
    A fan ``(w, targets)`` of relation ``i`` fails ``w`` when ``outside &
    targets`` is not empty: one AND per fan.
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
            if mask >> plan.worlds:  # also true of a negative mask
                raise ValueError(f"mask of variable {node.idx} has bits "
                                 f"outside worlds 0..{plan.worlds - 1}")
        elif kind == AND:
            mask = cache[node.children[0].uid] & cache[node.children[1].uid]
        elif kind == OR:
            mask = cache[node.children[0].uid] | cache[node.children[1].uid]
        elif kind == IMP:
            mask = full ^ cache[node.children[0].uid] | cache[node.children[1].uid]
        else:  # BOX
            if node.idx > plan.arity:
                raise ModalityError(
                    f"box index {node.idx} exceeds frame arity {plan.arity}")
            outside = full ^ cache[node.children[0].uid]
            failing = 0
            for d, sources in plan.steps[node.idx - 1]:
                if d > 0:
                    failing |= outside >> d & sources
                elif d < 0:
                    failing |= outside << -d & sources
                elif sources == full:  # a reflexive relation's loops
                    failing |= outside
                else:
                    failing |= outside & sources
            for w, targets in plan.fans[node.idx - 1]:
                if outside & targets:
                    failing |= 1 << w
            mask = full ^ failing
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
    return frozenset(bit_indices(model.sat(f)))


def check(model: ProductModel, world: int, f: Formula) -> bool:
    """Truth of ``f`` at one world."""
    if not 0 <= world < model.frame.worlds:
        raise ValueError(f"unknown world {world}")
    return bool(model.sat(f) >> world & 1)


def check_naive(model: ProductModel, world: int, f: Formula) -> bool:
    """Independent reference evaluator: top-down recursion per world.

    Deliberately structured differently from :func:`sat_mask` (recursion
    from ``world`` down instead of bottom-up labeling) so the two can serve
    as oracles for each other.  It reads the product definition off the
    factors, not the model's plan: box ``i`` at ``w`` visits the worlds that
    change coordinate ``i`` from ``c`` to each ``y`` with ``c -> y`` in
    factor ``i``, in increasing order of ``y``, and stops at the first
    where the body fails.  A memo local to the call, one table per world
    keyed by the :class:`Formula` object itself, holds only values this
    recursion computed, so a shared DAG costs at most its nodes times the
    worlds, not its expanded tree, and nothing of ``sat_mask`` leaks in.
    """
    if not 0 <= world < model.codec.worlds:
        raise ValueError(f"unknown world {world}")
    masks, strides = model.masks, model.codec.strides
    factors = [(factor.worlds, factor.succ) for factor in model.factors]
    memo: list[dict[Formula, bool]] = [{} for _ in range(model.codec.worlds)]

    def ev(w: int, g: Formula) -> bool:
        known = memo[w]
        value = known.get(g)
        if value is not None:
            return value
        kind = g.kind
        if kind == BOT:
            value = False
        elif kind == VAR:
            value = masks.get(g.idx, 0) >> w & 1 == 1
        elif kind == AND:
            value = ev(w, g.children[0]) and ev(w, g.children[1])
        elif kind == OR:
            value = ev(w, g.children[0]) or ev(w, g.children[1])
        elif kind == IMP:
            value = (not ev(w, g.children[0])) or ev(w, g.children[1])
        else:  # BOX
            if g.idx > len(factors):
                raise ModalityError(
                    f"box index {g.idx} exceeds frame arity {len(factors)}")
            worlds, succ = factors[g.idx - 1]
            stride = strides[g.idx - 1]
            c = w // stride % worlds
            body = g.children[0]
            value = True
            for y in succ[c]:
                if not ev(w + (y - c) * stride, body):
                    value = False
                    break
        known[g] = value
        return value

    return ev(world, f)


def bounded_reach_mask(plan: ShiftPlan, start: int, k: int) -> int:
    """Worlds reachable from ``start`` in at most ``k`` steps along any
    modality of ``plan``, as a mask.

    Each step moves the whole frontier mask along every offset row of every
    relation at once, and adds the targets of each fan whose world is in the
    frontier.
    """
    if not 0 <= start < plan.worlds:
        raise ValueError(f"unknown world {start}")
    steps = [step for row in plan.steps for step in row]
    fans = [fan for row in plan.fans for fan in row]
    seen = frontier = 1 << start
    for _ in range(k):
        moved = 0
        for d, sources in steps:
            out = frontier & sources
            moved |= out << d if d >= 0 else out >> -d
        for w, targets in fans:
            if frontier >> w & 1:
                moved |= targets
        frontier = moved & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen
