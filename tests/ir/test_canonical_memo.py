"""The memoized canonicalization equals the plain algorithm, node sharing included.

``reference_simplify``/``ReferenceCanonicalizer`` below are the uncached
algorithm as it stood before node counts, Param values, operand sort keys and
canonical marks were memoized: every pass re-walks the whole tree, sort keys
fall back to ``str(expr.key())`` and node counts to a walk.  The cached
implementation must return the same trees and share exactly the same nodes,
because pickled artifacts encode that sharing.  Comparing the pickle bytes of
all results of a call sequence at once checks both.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.ir import (
    BinOp, BufferAccess, Call, Cast, Const, Expr, FirstPassMemo, MemLoad, Op,
    Param, Select, UnOp, Var, FLOAT64, INT32, UINT8, UINT16, UINT32,
    canonicalize, clear_canonicalize_cache, simplify,
)
from repro.ir.simplify import _fold_binop, _key_text

# ---------------------------------------------------------------------------
# Reference: the uncached algorithm
# ---------------------------------------------------------------------------


def _ref_order_key(expr: Expr) -> tuple:
    if isinstance(expr, Const):
        return (0, str(expr.value))
    if isinstance(expr, Param):
        return (1, expr.name)
    if isinstance(expr, Var):
        return (2, expr.name)
    if isinstance(expr, MemLoad):
        return (3, f"{expr.address:016x}")
    if isinstance(expr, BufferAccess):
        return (4, expr.buffer, tuple(_ref_order_key(i) for i in expr.indices))
    return (5, str(expr.key()))


def _ref_count(expr: Expr) -> int:
    return sum(1 for _ in expr.walk())


def _ref_as_terms(expr: Expr):
    if expr.dtype.is_float:
        return None
    terms: OrderedDict = OrderedDict()
    constant = 0

    def accumulate(node: Expr, sign: int) -> None:
        nonlocal constant
        if isinstance(node, Const):
            constant += sign * node.value
            return
        if isinstance(node, BinOp) and node.op == Op.ADD and not node.dtype.is_float:
            accumulate(node.a, sign)
            accumulate(node.b, sign)
            return
        if isinstance(node, BinOp) and node.op == Op.SUB and not node.dtype.is_float:
            accumulate(node.a, sign)
            accumulate(node.b, -sign)
            return
        if isinstance(node, UnOp) and node.op == Op.NEG:
            accumulate(node.a, -sign)
            return
        if isinstance(node, BinOp) and node.op == Op.MUL and not node.dtype.is_float:
            if isinstance(node.a, Const):
                accumulate_term(node.b, sign * node.a.value)
                return
            if isinstance(node.b, Const):
                accumulate_term(node.a, sign * node.b.value)
                return
        accumulate_term(node, sign)

    def accumulate_term(node: Expr, coefficient) -> None:
        if node in terms:
            terms[node] += coefficient
        else:
            terms[node] = coefficient

    accumulate(expr, 1)
    return terms, constant


def _ref_from_terms(terms, constant, dtype) -> Expr:
    ordered = sorted(((term, coeff) for term, coeff in terms.items() if coeff != 0),
                     key=lambda item: _ref_order_key(item[0]))
    result = None
    negative_parts = []
    for term, coeff in ordered:
        if coeff == 1:
            piece = term
        elif coeff == -1:
            negative_parts.append(term)
            continue
        elif coeff > 0:
            piece = BinOp(Op.MUL, Const(coeff, dtype), term, dtype)
        else:
            negative_parts.append(BinOp(Op.MUL, Const(-coeff, dtype), term, dtype))
            continue
        result = piece if result is None else BinOp(Op.ADD, result, piece, dtype)
    if constant:
        piece = Const(constant, dtype)
        result = piece if result is None else BinOp(Op.ADD, result, piece, dtype)
    if result is None:
        result = Const(constant, dtype)
    for piece in negative_parts:
        result = BinOp(Op.SUB, result, piece, dtype)
    return result


def _ref_simplify_node(expr: Expr) -> Expr:
    if isinstance(expr, BinOp):
        a, b = expr.a, expr.b
        if isinstance(a, Const) and isinstance(b, Const):
            if expr.op in (Op.DIV, Op.MOD) and not expr.dtype.is_float \
                    and int(b.value) == 0:
                return expr
            return _fold_binop(expr.op, a, b, expr.dtype)
        if expr.op == Op.ADD:
            if isinstance(a, Const) and a.value == 0:
                return b
            if isinstance(b, Const) and b.value == 0:
                return a
        if expr.op == Op.SUB and isinstance(b, Const) and b.value == 0:
            return a
        if expr.op == Op.SUB and a == b and not expr.dtype.is_float:
            return Const(0, expr.dtype)
        if expr.op == Op.MUL:
            if isinstance(a, Const):
                if a.value == 1:
                    return b
                if a.value == 0 and not expr.dtype.is_float:
                    return Const(0, expr.dtype)
            if isinstance(b, Const):
                if b.value == 1:
                    return a
                if b.value == 0 and not expr.dtype.is_float:
                    return Const(0, expr.dtype)
        if expr.op in (Op.SHR, Op.SAR, Op.SHL) and isinstance(b, Const) and b.value == 0:
            return a
        if expr.op in (Op.OR, Op.XOR) and isinstance(b, Const) and b.value == 0:
            return a
        if expr.op == Op.AND and isinstance(b, Const):
            mask = int(b.value)
            if expr.dtype.is_integer and mask == (1 << expr.dtype.bits) - 1:
                return a
        if expr.op in Op.COMMUTATIVE and _ref_order_key(b) < _ref_order_key(a):
            return BinOp(expr.op, b, a, expr.dtype)
    elif isinstance(expr, UnOp):
        if isinstance(expr.a, Const):
            if expr.op == Op.NEG:
                return Const(-expr.a.value, expr.dtype)
            if expr.op == Op.NOT:
                return Const(~int(expr.a.value), expr.dtype)
            if expr.op == Op.ABS:
                return Const(abs(expr.a.value), expr.dtype)
    elif isinstance(expr, Cast):
        inner = expr.a
        if isinstance(inner, Const):
            return Const(expr.dtype.wrap(inner.value), expr.dtype)
        if isinstance(inner, Cast) and inner.dtype == expr.dtype:
            return Cast(expr.dtype, inner.a)
        if inner.dtype == expr.dtype:
            return inner
    elif isinstance(expr, Select):
        if isinstance(expr.cond, Const):
            return expr.if_true if expr.cond.value else expr.if_false
    return expr


def _ref_transform(node: Expr, fn) -> Expr:
    new_children = [_ref_transform(child, fn) for child in node.children]
    if new_children != list(node.children):
        node = node.with_children(new_children)
    return fn(node)


def reference_simplify(expr: Expr) -> Expr:
    def rewrite(node: Expr) -> Expr:
        node = _ref_simplify_node(node)
        if isinstance(node, BinOp) and node.op in (Op.ADD, Op.SUB) and not node.dtype.is_float:
            decomposed = _ref_as_terms(node)
            if decomposed is not None:
                terms, constant = decomposed
                rebuilt = _ref_from_terms(terms, constant, node.dtype)
                if _ref_count(rebuilt) <= _ref_count(node):
                    return rebuilt
        return node

    previous = None
    current = expr
    for _ in range(8):
        if previous is not None and current == previous:
            break
        previous = current
        current = _ref_transform(current, rewrite)
    return current


class ReferenceCanonicalizer:
    """The process-wide canonicalize memo, as a private instance."""

    def __init__(self) -> None:
        self.cache: dict = {}
        self.hits = self.misses = 0

    @staticmethod
    def key(expr: Expr) -> tuple:
        return (expr, tuple(n.value for n in expr.walk() if isinstance(n, Param)))

    def __call__(self, expr: Expr) -> Expr:
        key = self.key(expr)
        cached = self.cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = reference_simplify(expr)
        self.cache[key] = result
        self.cache.setdefault(self.key(result), result)
        return result


# ---------------------------------------------------------------------------
# Random integer trees
# ---------------------------------------------------------------------------

_DTYPES = st.sampled_from([INT32, UINT32, UINT8])

_leaves = st.one_of(
    st.builds(Const, st.integers(-9, 9), _DTYPES),
    # Same-name Params of different dtypes and values: order-key ties and
    # memo keys that differ only in Param values.
    st.builds(Param, st.sampled_from(["p", "q"]), st.integers(-3, 3),
              st.sampled_from([INT32, UINT8])),
    # Same-address loads of different widths: order-key ties.
    st.builds(MemLoad, st.sampled_from([0x100, 0x104]), st.sampled_from([UINT8, UINT16, UINT32])),
    st.builds(Var, st.sampled_from(["x", "y"])),
)

_BINOPS = [Op.ADD, Op.ADD, Op.SUB, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR,
           Op.MIN, Op.MAX, Op.LT, Op.EQ]


def _extend(children):
    return st.one_of(
        st.builds(lambda op, a, b, dt: BinOp(op, a, b, dt),
                  st.sampled_from(_BINOPS), children, children, _DTYPES),
        # Shift counts are non-negative constants, as x86 masks them.
        st.builds(lambda op, a, n: BinOp(op, a, Const(n)),
                  st.sampled_from([Op.SHL, Op.SHR]), children, st.integers(0, 4)),
        st.builds(lambda a: UnOp(Op.NEG, a), children),
        st.builds(lambda dt, a: Cast(dt, a), st.sampled_from([UINT8, INT32, UINT16]), children),
        st.builds(Select, children, children, children),
        # A shared subtree: one node object used twice.
        st.builds(lambda op, a: BinOp(op, a, a), st.sampled_from([Op.ADD, Op.SUB, Op.MUL]),
                  children),
        # An already-canonical (marked) subtree embedded in a raw tree.
        children.map(canonicalize),
    )


int_trees = st.recursive(_leaves, _extend, max_leaves=24)


def _all_nodes(expr: Expr) -> set[int]:
    return {id(node) for node in expr.walk()}


def _assert_same_nodes(new: Expr, ref: Expr, inputs: set[int]) -> None:
    """Position by position: the same input node, or new nodes on both sides."""
    for a, b in zip(new.walk(), ref.walk()):
        if id(a) in inputs or id(b) in inputs:
            assert a is b, (a, b)


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------


@given(expr=int_trees)
@settings(max_examples=300, deadline=None)
def test_simplify_equals_reference(expr):
    inputs = _all_nodes(expr)
    ref = reference_simplify(expr)
    new = simplify(expr)
    assert new == ref
    assert pickle.dumps(new, 4) == pickle.dumps(ref, 4)
    _assert_same_nodes(new, ref, inputs)
    # Twice more: now with the marks the first call left on shared nodes.
    again = simplify(expr)
    assert pickle.dumps(again, 4) == pickle.dumps(ref, 4)
    _assert_same_nodes(again, ref, inputs)
    assert pickle.dumps(simplify(new), 4) == pickle.dumps(reference_simplify(new), 4)


@given(exprs=st.lists(int_trees, min_size=1, max_size=12))
@settings(max_examples=120, deadline=None)
def test_canonicalize_sequence_equals_reference(exprs):
    # Feed some results back in, as clustering and codegen do.
    reference = ReferenceCanonicalizer()
    ref_results = []
    for expr in exprs:
        ref_results.append(reference(expr))
        ref_results.append(reference(ref_results[-1]))
    clear_canonicalize_cache()
    new_results = []
    for expr in exprs:
        new_results.append(canonicalize(expr))
        new_results.append(canonicalize(new_results[-1]))
    assert pickle.dumps(new_results, 4) == pickle.dumps(ref_results, 4)
    for i, (a, b) in enumerate(zip(new_results, ref_results)):
        for c, d in zip(new_results[i + 1:], ref_results[i + 1:]):
            assert (a is c) == (b is d)


_steps = st.lists(
    st.tuples(st.sampled_from([Op.ADD, Op.ADD, Op.SUB]),
              st.sampled_from(["const", "shifted", "param", "load", "pair"]),
              st.integers(1, 9), st.booleans()),
    min_size=1, max_size=40)


@given(steps=_steps, limit=st.sampled_from([1, 2, 64]))
@settings(max_examples=120, deadline=None)
def test_first_pass_memo_over_growing_chains(steps, limit):
    """A loop bumping a pointer register, with an ``lea`` through it each step."""
    p = Param("p", 7)
    shifted = BinOp(Op.SHL, Param("q", 3), Const(3), UINT32)
    # Kept whole under the product and flattened beside it.
    pair = BinOp(Op.ADD, Param("a", 1, UINT32), Param("b", 2, UINT32), UINT32)
    pieces = {"const": lambda v: Const(8 * v, INT32), "shifted": lambda v: shifted,
              "param": lambda v: Param("r", v, UINT32),
              "load": lambda v: MemLoad(0x200 + v, UINT32),
              "pair": lambda v: BinOp(Op.ADD, BinOp(Op.MUL, pair, Param("s", v, UINT32),
                                                    UINT32), pair, UINT32)}
    chain: Expr = BinOp(Op.ADD, p, Const(0), UINT32)
    inputs = []
    for op, piece, value, with_index in steps:
        chain = BinOp(op, chain, pieces[piece](value), UINT32)
        expr = BinOp(Op.ADD, chain, Const(value, INT32), UINT32)
        if with_index:
            expr = BinOp(Op.ADD, expr, BinOp(Op.MUL, p, Const(4), UINT32), UINT32)
        inputs.append(expr)
    reference = ReferenceCanonicalizer()
    ref_results = [reference(expr) for expr in inputs]
    clear_canonicalize_cache()
    memo = FirstPassMemo()
    memo.limit = limit
    new_results = [canonicalize(expr, memo) for expr in inputs]
    assert pickle.dumps(new_results, 4) == pickle.dumps(ref_results, 4)
    known = set().union(*(_all_nodes(expr) for expr in inputs))
    for new, ref in zip(new_results, ref_results):
        _assert_same_nodes(new, ref, known)
    if len(steps) > 2 and limit > 2:
        assert memo.hits > 0


# ---------------------------------------------------------------------------
# Memo slots and key texts
# ---------------------------------------------------------------------------


def _structural_copy(node: Expr, made: dict) -> Expr:
    """A new tree built through the constructors, keeping the sharing."""
    if id(node) in made:
        return made[id(node)]
    if isinstance(node, Const):
        copy = Const(node.value, node.dtype)
    elif isinstance(node, Param):
        copy = Param(node.name, node.value, node.dtype)
    elif isinstance(node, Var):
        copy = Var(node.name, node.dtype)
    elif isinstance(node, MemLoad):
        copy = MemLoad(node.address, node.dtype)
    else:
        copy = node.with_children([_structural_copy(child, made) for child in node.children])
    made[id(node)] = copy
    return copy


@given(expr=int_trees)
@settings(max_examples=100, deadline=None)
def test_filled_memo_slots_do_not_reach_the_pickle(expr):
    result = canonicalize(expr)
    for node in list(result.walk()) + list(expr.walk()):
        hash(node)
        node.node_count()
        node.param_values()
    assert result.is_canonical()
    for tree in (result, expr):
        data = pickle.dumps(tree, 4)
        assert data == pickle.dumps(_structural_copy(tree, {}), 4)
        loaded = pickle.loads(data)
        for slot in Expr.__slots__:
            assert not hasattr(loaded, slot), slot
        assert loaded == tree and not loaded.is_canonical()


_texts_leaves = st.one_of(
    _leaves,
    st.builds(Const, st.floats(allow_nan=False, allow_infinity=False), st.just(FLOAT64)),
    st.builds(lambda name, dt: Param(name, 0.5, dt), st.sampled_from(["c", "o'k"]),
              st.sampled_from([FLOAT64, INT32])),
)


def _texts_extend(children):
    return st.one_of(
        st.builds(lambda op, a, b, dt: BinOp(op, a, b, dt),
                  st.sampled_from(_BINOPS), children, children, _DTYPES),
        st.builds(lambda a: UnOp(Op.NEG, a), children),
        st.builds(lambda dt, a: Cast(dt, a), st.sampled_from([UINT8, FLOAT64]), children),
        st.builds(Select, children, children, children),
        st.builds(lambda name, idx, dt: BufferAccess(name, idx, dt),
                  st.sampled_from(["input_1", "lut"]), st.lists(children, max_size=3),
                  _DTYPES),
        st.builds(lambda args: Call("sqrt", args, FLOAT64), st.lists(children, max_size=2)),
    )


@given(expr=st.recursive(_texts_leaves, _texts_extend, max_leaves=16))
@settings(max_examples=200, deadline=None)
def test_key_text_is_the_key_repr(expr):
    texts: dict = {}
    for node in expr.walk():
        assert _key_text(node, texts) == str(node.key())


def test_dtype_repr_is_the_dataclass_repr():
    assert repr(UINT8) == "DType(kind=<TypeKind.UINT: 'uint'>, bits=8)"
    assert repr(FLOAT64) == "DType(kind=<TypeKind.FLOAT: 'float'>, bits=64)"
    assert str(Const(3, INT32).key()) == (
        "('const', 3, DType(kind=<TypeKind.INT: 'int'>, bits=32))")


def test_simplify_marks_its_result_and_skips_it_later():
    load = MemLoad(0x40, UINT8)
    raw = Cast(UINT8, BinOp(Op.MUL, BinOp(Op.ADD, load, Const(2)), Const(3)))
    result = simplify(raw)
    assert result.is_canonical()
    assert simplify(result) is result
    # A sum is rebuilt as a new but equal tree, as the plain algorithm does.
    total = simplify(BinOp(Op.ADD, BinOp(Op.ADD, load, Const(1)), Param("p", 2)))
    assert total.is_canonical()
    again = simplify(total)
    assert again == total and again is not total and again.is_canonical()


def test_clear_canonicalize_cache_drops_the_memo():
    from repro.ir import canonicalize_stats
    from repro.ir.types import _REPRS

    expr = BinOp(Op.ADD, MemLoad(0x10), Const(1))
    clear_canonicalize_cache()
    canonicalize(expr)
    canonicalize(expr)
    assert canonicalize_stats == {"hits": 1, "misses": 1}
    repr(UINT8)
    clear_canonicalize_cache()
    assert canonicalize_stats == {"hits": 0, "misses": 0} and not _REPRS
    canonicalize(expr)
    assert canonicalize_stats["misses"] == 1


def test_first_pass_memo_keeps_nodes_reached_through_a_reused_node():
    # ``pair`` is kept whole inside ``pair * r`` and flattened into its
    # terms next to it, so ``a`` and ``b`` reach the result both below a
    # reused node and directly: a hit must not copy them.
    a, b = Param("a", 1, UINT32), Param("b", 2, UINT32)
    pair = BinOp(Op.ADD, a, b, UINT32)
    chain = BinOp(Op.ADD, BinOp(Op.MUL, pair, Param("r", 3, UINT32), UINT32), pair, UINT32)
    inputs = [BinOp(Op.ADD, chain, Const(disp), UINT32) for disp in (4, 8, 12)]
    reference = ReferenceCanonicalizer()
    ref_results = [reference(expr) for expr in inputs]
    clear_canonicalize_cache()
    memo = FirstPassMemo()
    new_results = [canonicalize(expr, memo) for expr in inputs]
    assert memo.hits == 2
    assert pickle.dumps(new_results, 4) == pickle.dumps(ref_results, 4)
    known = set().union(*(_all_nodes(expr) for expr in inputs))
    for new, ref in zip(new_results, ref_results):
        _assert_same_nodes(new, ref, known)
