"""Golden digests of the canonical forms of every registry scenario.

Canonicalization decides how concrete trees cluster and therefore what gets
lifted, so its output must not drift when its implementation changes.  Each
registered scenario is cold-lifted at its registered seed (empty canonicalize
memo, no store) and summarized as text: every concrete tree's ``str(expr)``,
root dtype, node counts (canonical and raw) and predicates, every symbolic
cluster, and the generated Halide sources.  The sha256 of each part is
compared with ``tests/golden/canonical_forms.json``.  Text, unlike pickled
artifact bytes, does not depend on the Python version.

To refresh after an intentional change of the canonical forms::

    PYTHONPATH=src python - <<'EOF'
    import json, sys
    sys.path.insert(0, "tests/core")
    from test_canonical_forms_golden import GOLDEN, scenario_digests
    GOLDEN.write_text(json.dumps(scenario_digests(), indent=1, sort_keys=True) + "\\n")
    EOF
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.registry import scenarios
from repro.core.session import LiftSession
from repro.ir import clear_canonicalize_cache

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "canonical_forms.json"


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _tree_line(tree) -> str:
    predicates = "; ".join(f"{p.site}:{p.taken}:{p.condition}" for p in tree.predicates)
    return (f"{tree.buffer} {tree.root_address} {tree.root_width} "
            f"{tree.expr.dtype.name} {tree.expr.node_count()} {tree.raw_node_count} "
            f"{tree.expr} | {predicates} | {tree.root_index_expr}")


def _cluster_line(cluster) -> str:
    predicates = "; ".join(str(p) for p in cluster.predicates)
    return (f"{cluster.buffer} {cluster.dims} {cluster.support} {cluster.is_reduction} "
            f"{cluster.reduction_source} {cluster.expr.dtype.name} {cluster.expr} | "
            f"{predicates} | {cluster.root_index_expr}")


def lift_digest(scenario) -> dict:
    """Text digest of one cold lift of ``scenario`` at its registered seed."""
    clear_canonicalize_cache()
    session = LiftSession(scenario.make_app(), scenario.filter_name,
                          seed=scenario.seed, use_store=False)
    result = session.run()
    clusters = [_cluster_line(cluster) for kernel in result.kernels
                for cluster in kernel.clusters]
    sources = [f"{name}\n{source}" for name, source in sorted(result.halide_sources.items())]
    return {
        "trees": len(result.concrete_trees),
        "clusters": len(clusters),
        "trees_sha256": _sha([_tree_line(tree) for tree in result.concrete_trees]),
        "clusters_sha256": _sha(clusters),
        "codegen_sha256": _sha(sources),
    }


def scenario_digests() -> dict:
    return {f"{s.app_name}/{s.filter_name}": lift_digest(s) for s in scenarios()}


@pytest.mark.slow
@pytest.mark.parametrize("scenario", scenarios(), ids=lambda s: f"{s.app_name}/{s.filter_name}")
def test_canonical_forms_match_golden(scenario):
    golden = json.loads(GOLDEN.read_text())
    name = f"{scenario.app_name}/{scenario.filter_name}"
    assert name in golden, f"{name} has no golden digest; refresh (see module docstring)"
    assert lift_digest(scenario) == golden[name], (
        f"canonical forms of {name} drifted; if intentional, refresh "
        "tests/golden/canonical_forms.json (see module docstring) and say why")


def test_golden_covers_every_scenario():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(f"{s.app_name}/{s.filter_name}" for s in scenarios())
