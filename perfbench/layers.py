"""The traced functions, and the end-to-end metric each should move.

Each entry is (span name, module, attribute, end-to-end metric, workload).
The traced run reports ``<span name>.calls`` and ``<span name>.self_s`` per
operation for every entry. The last two columns record the prediction made
before any optimisation: which end-to-end metric a change to that function
should move, and on which workload. Other workloads are predicted flat.
euclid-small and line-tree are not gated by ``BENCHMARK.json``; run them
by name to check a prediction made for them.
The traced run also reports ``cli.interpreter_s`` and ``cli.import_s``
(fresh interpreters, predicted to move ``latency_p50_s`` on cli) and
``trace.overhead_ratio``.
"""

LAYERS = [
    ("poset.poset_from_points", "monolip.poset", "poset_from_points", "latency_p50_s", "planar-scalar"),
    ("poset.validate", "monolip.poset", "validate", "latency_p50_s", "planar-scalar"),
    ("poset.check_radiality", "monolip.poset", "check_radiality", "latency_p50_s", "planar-scalar"),
    ("poset.chain_instance", "monolip.poset", "chain_instance", "latency_p50_s", "planar-scalar"),
    ("cones.contains", "monolip.cones", "contains", "latency_p50_s", "planar-scalar"),
    ("extension.scalar_extend", "monolip.extension", "scalar_extend", "latency_tail_s", "planar-scalar"),
    ("extension.lp_feasible_at_K", "monolip.extension", "lp_feasible_at_K", "latency_tail_s", "planar-scalar"),
    ("extension.min_lipschitz_lp", "monolip.extension", "min_lipschitz_lp", "latency_tail_s", "planar-scalar"),
    ("obstruction.e2_lower_bound", "monolip.obstruction", "e2_lower_bound", "problems_per_s", "planar-scalar"),
    ("obstruction.certify_obstruction", "monolip.obstruction", "certify_obstruction", "problems_per_s", "planar-scalar"),
    ("extension.ExtensionProblem", "monolip.extension", "ExtensionProblem.__init__", "problems_per_s", "line-tree"),
    ("extension.line_extend", "monolip.extension", "line_extend", "problems_per_s", "line-tree"),
    ("extension.verify_extension", "monolip.extension", "verify_extension", "problems_per_s", "line-tree"),
    ("cones.project_cone", "monolip.cones", "project_cone", "problems_per_s", "line-tree"),
    ("cones.norm_value", "monolip.cones", "norm_value", "problems_per_s", "line-tree"),
    ("extension.feasibility_at_K", "monolip.extension", "feasibility_at_K", "problems_per_s", "euclid-small"),
    ("cones.monotone_direction", "monolip.cones", "monotone_direction", "problems_per_s", "euclid-small"),
    ("trees.RTree.distance", "monolip.trees", "RTree.distance", "latency_p50_s", "line-tree"),
    ("trees.RTree.order_path", "monolip.trees", "RTree.order_path", "latency_p50_s", "line-tree"),
    ("trees.RTree.order_busemann", "monolip.trees", "RTree.order_busemann", "latency_p50_s", "line-tree"),
    ("trees.RTree.point_on_geodesic", "monolip.trees", "RTree.point_on_geodesic", "latency_p50_s", "line-tree"),
    ("spaces.busemann_limit", "monolip.spaces", "busemann_limit", "latency_p50_s", "cli"),
    ("files.load_poset", "monolip.files", "load_poset", "latency_p50_s", "cli"),
    ("files.load_problem", "monolip.files", "load_problem", "latency_p50_s", "cli"),
    ("files.load_tree", "monolip.files", "load_tree", "latency_p50_s", "cli"),
    ("cli.dispatch", "monolip.cli", "dispatch", "latency_p50_s", "cli"),
]

