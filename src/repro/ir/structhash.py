"""Structural hashing and common-subexpression utilities.

The compiled-kernel backend (``repro.halide.compile``) and the tree caches
need two things the raw node classes do not provide directly:

* a *stable identity* for whole trees that is cheap to recompute — provided by
  :func:`structural_hash`, built on the per-node cached structural keys; and
* a *value numbering* of a tree's unique subtrees in bottom-up topological
  order — provided by :func:`number_subtrees` — which is what turns a tree
  into a CSE'd sequence of assignments: every structurally identical subtree
  receives the same number, so emitting one assignment per number evaluates
  each distinct subexpression exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .expr import Expr


def structural_hash(expr: Expr) -> int:
    """A stable hash of the full tree (leaf values included)."""
    return hash(expr.cached_key())


@dataclass
class Numbering:
    """Value numbering of the unique subtrees of one or more roots.

    ``order`` lists each distinct subtree once, children before parents, so it
    can be walked front-to-back to emit straight-line code.  ``uses`` counts
    how many parent edges reference each number (roots get one extra use),
    which code generators use to decide when a temporary is dead and its
    storage can be reused in place.
    """

    order: list[Expr] = field(default_factory=list)
    ids: dict[Expr, int] = field(default_factory=dict)
    uses: dict[int, int] = field(default_factory=dict)


def number_subtrees(roots: Sequence[Expr],
                    skip_children: Callable[[Expr], bool] | None = None) -> Numbering:
    """Assign value numbers to the unique subtrees of ``roots``.

    ``skip_children`` lets the caller treat some nodes as opaque leaves — the
    kernel compiler uses it to keep the compile-time-constant index
    expressions of window accesses out of the emitted code.  Traversal is
    iterative so pathological (deeply right-leaning) trees cannot overflow
    the Python stack.
    """
    numbering = Numbering()
    ids = numbering.ids
    uses = numbering.uses
    for root in roots:
        stack: list[tuple[Expr, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            existing = ids.get(node)
            if existing is not None and not expanded:
                continue
            if expanded:
                if node in ids:
                    continue
                vid = len(numbering.order)
                ids[node] = vid
                numbering.order.append(node)
                uses[vid] = 0
                if skip_children is None or not skip_children(node):
                    for child in node.children:
                        uses[ids[child]] += 1
            else:
                stack.append((node, True))
                if skip_children is None or not skip_children(node):
                    for child in node.children:
                        stack.append((child, False))
        uses[ids[root]] += 1
    return numbering


def unique_subtrees(expr: Expr) -> list[Expr]:
    """The distinct subtrees of ``expr``, children before parents."""
    return number_subtrees([expr]).order


def shared_subtrees(expr: Expr, min_uses: int = 2,
                    min_nodes: int = 2) -> list[Expr]:
    """Subtrees referenced from more than one place (the CSE candidates)."""
    numbering = number_subtrees([expr])
    return [node for node in numbering.order
            if numbering.uses[numbering.ids[node]] >= min_uses
            and node.node_count() >= min_nodes]
