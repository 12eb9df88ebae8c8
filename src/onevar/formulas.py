"""Hash-consed n-modal propositional formulas.

Formulas are built over the falsum ``F``, variables, the connectives
``&``, ``|``, ``->`` and the box operators ``[1]`` .. ``[n]``.  Negation and
diamonds are derived: ``~f`` abbreviates ``f -> F`` and ``<i>f`` abbreviates
``~[i]~f``.  Variable index 0 is the reserved variable and prints as ``p``;
index k >= 1 prints as ``pK``.

Every formula lives in a :class:`FormulaStore` that interns nodes, so two
structurally equal terms built in the same store are the same object.  A node
is keyed by its kind, its index and its children's uids, and its metrics,
the attributes ``depth`` (modal depth), ``var_set`` (variable indices) and
``tree_size``, are computed once at interning time from its children's,
never by walking the subtree.  The expanded tree can be exponentially larger
than the interned DAG; ``tree_size`` is a number, never a materialized tree,
and :func:`dag_size` counts the interned nodes.
"""

from __future__ import annotations

from typing import Collection, Sequence

BOT = "bot"
VAR = "var"
AND = "and"
OR = "or"
IMP = "imp"
BOX = "box"

_BOT_KEY = (BOT,)  # the interning key of falsum


class ParseError(ValueError):
    """Syntax error in the external formula syntax, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ModalityError(ValueError):
    """A box index lies outside the ambient arity ``1..n``."""


class Formula:
    """One interned formula node.  Create only through a :class:`FormulaStore`.

    Equality and hashing are by identity: within one store, structural
    equality coincides with ``is``.
    """

    __slots__ = ("kind", "idx", "children", "uid", "depth", "tree_size",
                 "var_set", "_postorder")

    kind: str
    idx: int          # variable index for VAR, modality for BOX, 0 otherwise
    children: tuple
    uid: int          # serial number within the owning store
    depth: int        # modal depth
    tree_size: int    # node count of the fully expanded tree
    var_set: frozenset  # exact set of variable indices occurring

    def __repr__(self) -> str:
        if self.tree_size <= 40:
            return f"<{render(self)}>"
        return f"<formula uid={self.uid} tree={self.tree_size}>"


class FormulaStore:
    """Append-only interning table for formulas.

    Each constructor keys its node by arity: ``(BOT,)`` for falsum,
    ``(VAR, i)`` for variable ``i``, ``(BOX, i, body.uid)`` for ``[i]body`` and
    ``(kind, left.uid, right.uid)`` for ``&``, ``|`` and ``->``.  A new node
    takes its metrics from its children: depth is the larger child depth (one
    more than the body's under a box), ``tree_size`` is one plus the
    children's, a box shares its body's ``var_set`` and a binary node shares
    a child's when that set holds the other child's.  Uids count nodes in
    creation order.

    A store is a unit of confinement: formulas from different stores must not
    be mixed, and the constructors reject foreign children with
    ``ValueError``.  Nodes are immutable once interned.
    """

    def __init__(self) -> None:
        self._table: dict[tuple, Formula] = {}
        self._nodes: list[Formula] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def _add(self, key: tuple, kind: str, idx: int, children: tuple,
             depth: int, tree_size: int, var_set: frozenset) -> Formula:
        node = Formula.__new__(Formula)
        node.kind = kind
        node.idx = idx
        node.children = children
        node.uid = len(self._nodes)
        node.depth = depth
        node.tree_size = tree_size
        node.var_set = var_set
        node._postorder = None  # computed lazily by postorder()
        self._table[key] = node
        self._nodes.append(node)
        return node

    def bottom(self) -> Formula:
        node = self._table.get(_BOT_KEY)
        if node is None:
            node = self._add(_BOT_KEY, BOT, 0, (), 0, 1, frozenset())
        return node

    def var(self, index: int) -> Formula:
        if index < 0:
            raise ValueError(f"variable index must be >= 0, got {index}")
        key = (VAR, index)
        node = self._table.get(key)
        if node is None:
            node = self._add(key, VAR, index, (), 0, 1, frozenset((index,)))
        return node

    def _binary(self, kind: str, left: Formula, right: Formula) -> Formula:
        nodes = self._nodes
        count = len(nodes)
        lu = left.uid
        ru = right.uid
        if not (0 <= lu < count and nodes[lu] is left
                and 0 <= ru < count and nodes[ru] is right):
            raise ValueError("formula belongs to a different store")
        key = (kind, lu, ru)
        node = self._table.get(key)
        if node is None:
            lvars = left.var_set
            rvars = right.var_set
            if lvars is rvars or rvars <= lvars:
                var_set = lvars
            elif lvars <= rvars:
                var_set = rvars
            else:
                var_set = lvars | rvars
            ld = left.depth
            rd = right.depth
            node = self._add(key, kind, 0, (left, right),
                             ld if ld >= rd else rd,
                             1 + left.tree_size + right.tree_size, var_set)
        return node

    def and_(self, left: Formula, right: Formula) -> Formula:
        return self._binary(AND, left, right)

    def or_(self, left: Formula, right: Formula) -> Formula:
        return self._binary(OR, left, right)

    def imp(self, left: Formula, right: Formula) -> Formula:
        return self._binary(IMP, left, right)

    def box(self, modality: int, body: Formula) -> Formula:
        if modality < 1:
            raise ModalityError(f"box index must be >= 1, got {modality}")
        nodes = self._nodes
        uid = body.uid
        if not (0 <= uid < len(nodes) and nodes[uid] is body):
            raise ValueError("formula belongs to a different store")
        key = (BOX, modality, uid)
        node = self._table.get(key)
        if node is None:
            node = self._add(key, BOX, modality, (body,), 1 + body.depth,
                             1 + body.tree_size, body.var_set)
        return node

    # Derived connectives: builder sugar, not distinct node kinds.

    def not_(self, f: Formula) -> Formula:
        return self.imp(f, self.bottom())

    def dia(self, modality: int, body: Formula) -> Formula:
        return self.not_(self.box(modality, self.not_(body)))

    def conj(self, items: Sequence[Formula]) -> Formula:
        """Left-associated conjunction of one or more formulas."""
        if not items:
            raise ValueError("conj() needs at least one conjunct")
        acc = items[0]
        for f in items[1:]:
            acc = self.and_(acc, f)
        return acc


def postorder(f: Formula) -> tuple[Formula, ...]:
    """Every distinct node reachable from ``f``, children before parents.

    Children are visited left to right and each node appears once, at its
    first visit, so the order is the one a recursive depth-first walk would
    produce; ``f`` itself comes last.  The walk is iterative (deep formulas
    do not hit the recursion limit) and its result is cached on ``f``.
    """
    order = f._postorder
    if order is None:
        out: list[Formula] = []
        seen = {f.uid}
        stack = [(f, iter(f.children))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                if child.uid not in seen:
                    seen.add(child.uid)
                    stack.append((child, iter(child.children)))
                    break
            else:
                stack.pop()
                out.append(node)
        order = f._postorder = tuple(out)
    return order


def dag_size(f: Formula) -> int:
    """Number of distinct interned nodes reachable from ``f``."""
    return len(postorder(f))


# ---------------------------------------------------------------------------
# Defined modalities
# ---------------------------------------------------------------------------

def composite_dia(store: FormulaStore, f: Formula) -> Formula:
    """Two-step first-modality diamond alternating the reserved variable.

    ``composite_dia(f) = <1>(~p & <1>(p & f))``.  The polarity alternation is
    what lets the formula count steps even in reflexive frames, where a plain
    diamond chain collapses onto self-loops.
    """
    p = store.var(0)
    inner = store.dia(1, store.and_(p, f))
    return store.dia(1, store.and_(store.not_(p), inner))


def box_upto(store: FormulaStore, dims: Collection[int], k: int,
             f: Formula) -> Formula:
    """``f`` holds everywhere within ``k`` steps along the modalities ``dims``.

    ``dims`` is a set of 1-based modality indices: ``1..n`` quantifies over
    every modality, the steps :func:`onevar.kripke.bounded_reach_mask`
    takes, and ``2..n`` over those that keep the first coordinate.  Level 0 is
    ``f`` itself; each level conjoins the previous one with its image under
    every box in ``dims``, in increasing index order.  The interned form
    shares all levels, so the DAG grows linearly in ``len(dims) * k`` while
    the expanded tree grows like ``(len(dims)+1)^k``.  With ``k == 0`` or no
    dims the result is ``f``.
    """
    if k < 0:
        raise ValueError("level must be >= 0")
    if k == 0:
        return f
    boxes = sorted(set(dims))
    g = f
    for _ in range(k):
        g = store.conj([g] + [store.box(i, g) for i in boxes])
    return g


def dia_upto(store: FormulaStore, dims: Collection[int], k: int,
             f: Formula) -> Formula:
    """Dual of :func:`box_upto`: ``f`` holds somewhere within ``k`` steps
    along ``dims``."""
    if k == 0 or not dims:
        return f
    return store.not_(box_upto(store, dims, k, store.not_(f)))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOK_END = "end"


# the tokens of one character, by character
_SINGLE = {"|": "or", "&": "and", "~": "not", "(": "lparen", ")": "rparen",
           "F": "bot"}


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Return ``(kind, value, position)`` triples.

    Kinds: arrow, or, and, not, box, dia, bot, var, lparen, rparen, end.
    """
    out: list[tuple[str, int, int]] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch in _SINGLE:
            out.append((_SINGLE[ch], 0, i))
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "-":
            if text.startswith("->", i):
                out.append(("arrow", 0, i))
                i += 2
                continue
            raise ParseError("expected '->'", i)
        if ch in "[<":
            close = "]" if ch == "[" else ">"
            j = i + 1
            while j < size and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected a modality index", i + 1)
            if j >= size or text[j] != close:
                raise ParseError(f"expected '{close}'", j)
            out.append(("box" if ch == "[" else "dia", int(text[i + 1:j]), i))
            i = j + 1
            continue
        if ch == "p":
            j = i + 1
            while j < size and text[j].isdigit():
                j += 1
            if j == i + 1:
                out.append(("var", 0, i))
            else:
                index = int(text[i + 1:j])
                if index == 0:
                    raise ParseError("variable indices start at 1; "
                                     "the reserved variable is written 'p'", i)
                out.append(("var", index, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append((_TOK_END, 0, size))
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, int, int]], arity: int,
                 store: FormulaStore):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.store = store

    def peek(self) -> tuple[str, int, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "arrow":
            self.advance()
            return self.store.imp(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        acc = self.conjunction()
        while self.peek()[0] == "or":
            self.advance()
            acc = self.store.or_(acc, self.conjunction())
        return acc

    def conjunction(self) -> Formula:
        acc = self.unary()
        while self.peek()[0] == "and":
            self.advance()
            acc = self.store.and_(acc, self.unary())
        return acc

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "not":
            self.advance()
            return self.store.not_(self.unary())
        if kind in ("box", "dia"):
            self.advance()
            if not 1 <= value <= self.arity:
                raise ModalityError(
                    f"modality index {value} out of range 1..{self.arity} "
                    f"(at position {pos})")
            body = self.unary()
            if kind == "box":
                return self.store.box(value, body)
            return self.store.dia(value, body)
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.advance()
        if kind == "bot":
            return self.store.bottom()
        if kind == "var":
            return self.store.var(value)
        if kind == "lparen":
            inner = self.formula()
            kind, _, pos = self.advance()
            if kind != "rparen":
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError("expected a formula", pos)


def parse(text: str, arity: int, store: FormulaStore) -> Formula:
    """Parse the external syntax into an interned formula.

    Grammar (tightest first): ``~``/``[i]``/``<i>``, then ``&``, then ``|``,
    then right-associative ``->``.  Box and diamond indices must lie in
    ``1..arity``.
    """
    if arity < 1:
        raise ValueError("arity must be >= 1")
    parser = _Parser(_tokenize(text), arity, store)
    try:
        result = parser.formula()
    except RecursionError:
        position = parser.tokens[min(parser.pos, len(parser.tokens) - 1)][2]
        raise ParseError("formula nested too deeply", position) from None
    kind, _, pos = parser.peek()
    if kind != _TOK_END:
        raise ParseError("trailing input", pos)
    return result


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_PREC = {IMP: 1, OR: 2, AND: 3, BOX: 4, BOT: 5, VAR: 5}


def render(f: Formula) -> str:
    """Minimal-parenthesis external syntax; ``parse(render(f))`` re-interns ``f``.

    Derived connectives are not reconstructed: a formula built with ``~`` or
    ``<i>`` prints in its expanded ``-> F`` form, which parses back to the
    same node.
    """
    memo: dict[int, str] = {}
    for node in postorder(f):
        kind = node.kind
        if kind == BOT:
            text = "F"
        elif kind == VAR:
            text = "p" if node.idx == 0 else f"p{node.idx}"
        elif kind == BOX:
            body = node.children[0]
            inner = memo[body.uid]
            if _PREC[body.kind] < _PREC[BOX]:
                inner = f"({inner})"
            text = f"[{node.idx}]{inner}"
        else:
            prec = _PREC[kind]
            left, right = node.children
            ltext = memo[left.uid]
            rtext = memo[right.uid]
            if kind == IMP:
                # right-associative: parenthesize the left child at equal level
                if _PREC[left.kind] <= prec:
                    ltext = f"({ltext})"
            else:
                # left-associative: parenthesize the right child at equal level
                if _PREC[left.kind] < prec:
                    ltext = f"({ltext})"
                if _PREC[right.kind] <= prec:
                    rtext = f"({rtext})"
            op = {AND: "&", OR: "|", IMP: "->"}[kind]
            text = f"{ltext} {op} {rtext}"
        memo[node.uid] = text
    return memo[f.uid]


def dag_listing(f: Formula) -> list[dict]:
    """Shared (DAG) listing of ``f``: one entry per distinct node.

    Entries are topologically ordered (children first) with store-independent
    local ids, so the listing is stable across stores for structurally equal
    formulas.  The last entry is the root.
    """
    order = postorder(f)
    local = {node.uid: i for i, node in enumerate(order)}
    out = []
    for i, node in enumerate(order):
        entry: dict = {"id": i, "kind": node.kind}
        if node.kind == VAR:
            entry["index"] = node.idx
        elif node.kind == BOX:
            entry["modality"] = node.idx
        if node.children:
            entry["children"] = [local[c.uid] for c in node.children]
        out.append(entry)
    return out
