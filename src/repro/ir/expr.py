"""Expression tree IR shared by Helium's analyses and the mini-Halide DSL.

The backward analysis (paper section 4.7) produces *concrete trees* whose
leaves are absolute memory addresses; buffer inference (4.8) turns them into
*abstract trees* whose leaves are buffer accesses with integer indices; the
linear-system solve (4.10) turns those into *symbolic trees* whose leaves are
buffer accesses indexed by affine expressions over loop variables.  All three
levels are represented with the node classes in this module — only the leaf
kinds differ — which lets the canonicalization, clustering and code generation
passes share one vocabulary.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .types import DType, INT32, UINT8, UINT32


class Op:
    """Operator name constants for :class:`BinOp` / :class:`UnOp` nodes."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    SHR = ">>"          # logical shift right
    SAR = ">>a"         # arithmetic shift right
    SHL = "<<"
    AND = "&"
    OR = "|"
    XOR = "^"
    MIN = "min"
    MAX = "max"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="
    NEG = "neg"
    NOT = "~"
    ABS = "abs"

    COMMUTATIVE = frozenset({ADD, MUL, AND, OR, XOR, MIN, MAX, EQ, NE})
    COMPARISONS = frozenset({LT, LE, GT, GE, EQ, NE})


class Expr:
    """Base class for all expression nodes.

    Nodes are immutable; ``children`` exposes sub-expressions for generic
    traversal and ``with_children`` rebuilds a node with new children, which
    is what the rewriting passes use.
    """

    __slots__ = ("_hash", "_key")

    dtype: DType

    # -- structure ------------------------------------------------------

    @property
    def children(self) -> tuple["Expr", ...]:
        return ()

    def with_children(self, children: Sequence["Expr"]) -> "Expr":
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def key(self) -> tuple:
        """A structural identity key (used for __eq__ / __hash__)."""
        raise NotImplementedError

    def cached_key(self) -> tuple:
        """``key()`` computed once per node.

        Structural keys are rebuilt recursively on every ``key()`` call, which
        makes repeated equality checks (clustering, CSE value numbering, the
        kernel cache) quadratic; caching the tuple on the immutable node keeps
        them linear.
        """
        cached = getattr(self, "_key", None)
        if cached is None:
            cached = self.key()
            object.__setattr__(self, "_key", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expr) and self.cached_key() == other.cached_key()

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash(self.cached_key())
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self})"

    # -- serialization --------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle only the structural slots, never the memo slots.

        ``_key`` is pure redundancy, and ``_hash`` is poison across
        processes: tuple hashes involve string hashes, which are randomized
        per interpreter run, so a persisted ``_hash`` would break dict/set
        lookups after deserialization.  Dropping both also makes the bytes
        of two structurally identical trees identical, which the artifact
        store's determinism guarantees rely on.
        """
        state = {}
        for cls in type(self).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if slot in ("_hash", "_key") or slot in state:
                    continue
                try:
                    state[slot] = getattr(self, slot)
                except AttributeError:
                    pass
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # -- traversal helpers ----------------------------------------------

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and every descendant, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def transform(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """Rebuild the tree bottom-up, applying ``fn`` to every node."""
        new_children = [child.transform(fn) for child in self.children]
        node = self
        if new_children != list(self.children):
            node = self.with_children(new_children)
        return fn(node)

    def contains(self, predicate: Callable[["Expr"], bool]) -> bool:
        return any(predicate(node) for node in self.walk())

    def leaves(self) -> list["Expr"]:
        return [node for node in self.walk() if not node.children]


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


class Const(Expr):
    """A literal constant."""

    __slots__ = ("value", "dtype", "_hash", "_key")

    def __init__(self, value: int | float, dtype: DType = INT32):
        object.__setattr__(self, "value", dtype.wrap(value))
        object.__setattr__(self, "dtype", dtype)

    def key(self) -> tuple:
        return ("const", self.value, self.dtype)

    def __str__(self) -> str:
        return str(self.value)


class Param(Expr):
    """A run-time constant (scalar function parameter) observed in the trace.

    During backward analysis any register or memory location that is never
    written inside the filter function and does not belong to a buffer is
    treated as a parameter (paper section 4.8); the concrete value observed in
    the trace is retained so generated code can be validated.
    """

    __slots__ = ("name", "value", "dtype", "_hash", "_key")

    def __init__(self, name: str, value: int | float = 0, dtype: DType = INT32):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "dtype", dtype)

    def key(self) -> tuple:
        return ("param", self.name, self.dtype)

    def __str__(self) -> str:
        return self.name


class Var(Expr):
    """A symbolic loop variable (``x_0``, ``x_1``, ...) of a symbolic tree."""

    __slots__ = ("name", "dtype", "_hash", "_key")

    def __init__(self, name: str, dtype: DType = INT32):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "dtype", dtype)

    def key(self) -> tuple:
        return ("var", self.name)

    def __str__(self) -> str:
        return self.name


class MemLoad(Expr):
    """A concrete-tree leaf: a load from an absolute memory address."""

    __slots__ = ("address", "dtype", "_hash", "_key")

    def __init__(self, address: int, dtype: DType = UINT8):
        object.__setattr__(self, "address", address)
        object.__setattr__(self, "dtype", dtype)

    def key(self) -> tuple:
        return ("memload", self.address, self.dtype)

    def __str__(self) -> str:
        return f"[{self.address:#x}]:{self.dtype}"


class BufferAccess(Expr):
    """An access to a named buffer at the given indices.

    ``indices`` are expressions: integer :class:`Const` nodes in abstract
    trees, affine expressions over :class:`Var` nodes in symbolic trees, and
    arbitrary expressions (e.g. values loaded from another buffer) for
    indirect accesses such as lookup tables.
    """

    __slots__ = ("buffer", "indices", "dtype", "_hash", "_key")

    def __init__(self, buffer: str, indices: Sequence[Expr], dtype: DType = UINT8):
        object.__setattr__(self, "buffer", buffer)
        object.__setattr__(self, "indices", tuple(indices))
        object.__setattr__(self, "dtype", dtype)

    @property
    def children(self) -> tuple[Expr, ...]:
        return self.indices

    def with_children(self, children: Sequence[Expr]) -> "BufferAccess":
        return BufferAccess(self.buffer, tuple(children), self.dtype)

    def key(self) -> tuple:
        return ("bufaccess", self.buffer, tuple(c.cached_key() for c in self.indices), self.dtype)

    def __str__(self) -> str:
        idx = ", ".join(str(i) for i in self.indices)
        return f"{self.buffer}({idx})"


# ---------------------------------------------------------------------------
# Interior nodes
# ---------------------------------------------------------------------------


class BinOp(Expr):
    """A binary arithmetic / logical / comparison operation."""

    __slots__ = ("op", "a", "b", "dtype", "_hash", "_key")

    def __init__(self, op: str, a: Expr, b: Expr, dtype: DType | None = None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dtype", dtype if dtype is not None else a.dtype)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.a, self.b)

    def with_children(self, children: Sequence[Expr]) -> "BinOp":
        a, b = children
        return BinOp(self.op, a, b, self.dtype)

    def key(self) -> tuple:
        return ("binop", self.op, self.a.cached_key(), self.b.cached_key(), self.dtype)

    def __str__(self) -> str:
        if self.op in (Op.MIN, Op.MAX):
            return f"{self.op}({self.a}, {self.b})"
        return f"({self.a} {self.op} {self.b})"


class UnOp(Expr):
    """A unary operation (negation, bitwise not, abs)."""

    __slots__ = ("op", "a", "dtype", "_hash", "_key")

    def __init__(self, op: str, a: Expr, dtype: DType | None = None):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "dtype", dtype if dtype is not None else a.dtype)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.a,)

    def with_children(self, children: Sequence[Expr]) -> "UnOp":
        (a,) = children
        return UnOp(self.op, a, self.dtype)

    def key(self) -> tuple:
        return ("unop", self.op, self.a.cached_key(), self.dtype)

    def __str__(self) -> str:
        return f"{self.op}({self.a})"


class Cast(Expr):
    """An explicit conversion, including the paper's downcast ("DC") nodes."""

    __slots__ = ("a", "dtype", "_hash", "_key")

    def __init__(self, dtype: DType, a: Expr):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "dtype", dtype)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.a,)

    def with_children(self, children: Sequence[Expr]) -> "Cast":
        (a,) = children
        return Cast(self.dtype, a)

    def key(self) -> tuple:
        return ("cast", self.dtype, self.a.cached_key())

    def __str__(self) -> str:
        return f"cast<{self.dtype}>({self.a})"


class Select(Expr):
    """A conditional expression: ``cond ? if_true : if_false``."""

    __slots__ = ("cond", "if_true", "if_false", "dtype", "_hash", "_key")

    def __init__(self, cond: Expr, if_true: Expr, if_false: Expr):
        object.__setattr__(self, "cond", cond)
        object.__setattr__(self, "if_true", if_true)
        object.__setattr__(self, "if_false", if_false)
        object.__setattr__(self, "dtype", if_true.dtype)

    @property
    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.if_true, self.if_false)

    def with_children(self, children: Sequence[Expr]) -> "Select":
        cond, if_true, if_false = children
        return Select(cond, if_true, if_false)

    def key(self) -> tuple:
        return ("select", self.cond.cached_key(), self.if_true.cached_key(), self.if_false.cached_key())

    def __str__(self) -> str:
        return f"select({self.cond}, {self.if_true}, {self.if_false})"


class Call(Expr):
    """A call to a known external library function (``sqrt``, ``floor``...)."""

    __slots__ = ("func", "args", "dtype", "_hash", "_key")

    def __init__(self, func: str, args: Sequence[Expr], dtype: DType):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "dtype", dtype)

    @property
    def children(self) -> tuple[Expr, ...]:
        return self.args

    def with_children(self, children: Sequence[Expr]) -> "Call":
        return Call(self.func, tuple(children), self.dtype)

    def key(self) -> tuple:
        return ("call", self.func, tuple(a.cached_key() for a in self.args), self.dtype)

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def const(value: int | float, dtype: DType = INT32) -> Const:
    return Const(value, dtype)


def add(a: Expr, b: Expr, dtype: DType | None = None) -> BinOp:
    return BinOp(Op.ADD, a, b, dtype)


def sub(a: Expr, b: Expr, dtype: DType | None = None) -> BinOp:
    return BinOp(Op.SUB, a, b, dtype)


def mul(a: Expr, b: Expr, dtype: DType | None = None) -> BinOp:
    return BinOp(Op.MUL, a, b, dtype)


def shr(a: Expr, b: Expr, dtype: DType | None = None) -> BinOp:
    return BinOp(Op.SHR, a, b, dtype)


def structural_signature(expr: Expr, ignore_leaf_values: bool = True) -> tuple:
    """A hashable signature of a tree's structure.

    Used by tree clustering (paper section 4.8): two trees belong to the same
    cluster when they are identical *modulo constants and memory addresses in
    the leaves*.  With ``ignore_leaf_values`` the signature keeps operator
    labels, leaf kinds, leaf dtypes and buffer names, but drops constant
    values, addresses and concrete indices.
    """
    if isinstance(expr, Const):
        return ("const", expr.dtype.name) if ignore_leaf_values else ("const", expr.value, expr.dtype.name)
    if isinstance(expr, MemLoad):
        return ("memload", expr.dtype.name) if ignore_leaf_values else ("memload", expr.address, expr.dtype.name)
    if isinstance(expr, Param):
        return ("param", expr.name, expr.dtype.name)
    if isinstance(expr, Var):
        return ("var", expr.name)
    if isinstance(expr, BufferAccess):
        idx_sig = tuple(structural_signature(i, ignore_leaf_values) for i in expr.indices)
        # Direct accesses (constant indices) cluster by buffer only; indirect
        # accesses keep the index structure so LUT trees do not merge with
        # direct-access trees.
        if all(isinstance(i, Const) for i in expr.indices):
            return ("bufaccess", expr.buffer, len(expr.indices), expr.dtype.name)
        return ("bufaccess", expr.buffer, idx_sig, expr.dtype.name)
    if isinstance(expr, BinOp):
        return ("binop", expr.op,
                structural_signature(expr.a, ignore_leaf_values),
                structural_signature(expr.b, ignore_leaf_values))
    if isinstance(expr, UnOp):
        return ("unop", expr.op, structural_signature(expr.a, ignore_leaf_values))
    if isinstance(expr, Cast):
        return ("cast", expr.dtype.name, structural_signature(expr.a, ignore_leaf_values))
    if isinstance(expr, Select):
        return ("select",) + tuple(structural_signature(c, ignore_leaf_values) for c in expr.children)
    if isinstance(expr, Call):
        return ("call", expr.func) + tuple(structural_signature(a, ignore_leaf_values) for a in expr.args)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def substitute(expr: Expr, mapping: dict[Expr, Expr]) -> Expr:
    """Replace every occurrence of the mapping's keys (structural equality)."""

    def rewrite(node: Expr) -> Expr:
        return mapping.get(node, node)

    return expr.transform(rewrite)


def collect(expr: Expr, node_type: type) -> list[Expr]:
    """All nodes of the given class, pre-order."""
    return [node for node in expr.walk() if isinstance(node, node_type)]


def iter_buffer_accesses(expr: Expr) -> Iterable[BufferAccess]:
    for node in expr.walk():
        if isinstance(node, BufferAccess):
            yield node
