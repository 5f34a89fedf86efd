"""JSON instance files.

Schemas (all indices 0-based):

* poset:   {"labels": [str], "dist": [[num]], "order": [[i, j]]}
* cone:    {"dim": int, "generators"?: [[num]], "halfspaces"?: [[num]],
            "norm": "l1"|"l2"|"linf"}
* tree:    {"vertices": [id], "edges": [[u, v, length]], "root": id,
            "end": id}
* problem: {"poset": path | inline poset, "subset": [int],
            "target": {"kind": "scalar"} |
                      {"kind": "cone", "cone": path | inline cone},
            "f": [[num]]}

Relative paths inside a problem file resolve against its directory.

Each loader records the SHA-256 of every file it reads in the optional
``digests`` dict, under the path it opened.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from . import cones, poset as poset_mod
from .errors import SchemaError, StructureError


def _load_json(path, digests=None):
    """Parse the file at ``path``, read once; digest its bytes into ``digests``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    if digests is not None:
        digests[path] = hashlib.sha256(data).hexdigest()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON", context=str(exc))


def _require(doc, key, kind, where):
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object", context=where)
    if key not in doc:
        raise SchemaError(f"missing field {key!r}", context=where)
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(
            f"field {key!r} must be {getattr(kind, '__name__', kind)}", context=where
        )
    return value


def poset_from_dict(doc, where="poset"):
    labels = _require(doc, "labels", list, where)
    dist = _require(doc, "dist", list, where)
    order = _require(doc, "order", list, where)
    try:
        d = np.asarray(dist, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError("dist must be a numeric matrix", context=str(exc))
    try:
        poset = poset_mod.FiniteMetricPoset(
            labels=tuple(str(x) for x in labels), dist=d, order=order
        )
    except StructureError as exc:
        raise SchemaError(str(exc), context=where)
    # the constructor has rejected non-finite distances, so d - d.T is defined
    bad = np.argwhere(np.abs(d - d.T) > 1e-12)
    if bad.size:
        i, j = bad[0]
        raise SchemaError(
            f"dist is not symmetric at entry ({i}, {j})", context=where
        )
    return poset


def poset_to_dict(poset):
    return {
        "labels": list(poset.labels),
        "dist": poset.dist.tolist(),
        "order": np.argwhere(poset.order_matrix).tolist(),
    }


def load_poset(path, digests=None):
    return poset_from_dict(_load_json(path, digests), where=path)


def cone_from_dict(doc, where="cone"):
    dim = _require(doc, "dim", int, where)
    norm = doc.get("norm", "l2")
    generators = doc.get("generators")
    halfspaces = doc.get("halfspaces")
    try:
        return cones.ConeOrder(
            dim=dim,
            generators=np.asarray(generators, dtype=float) if generators is not None else None,
            halfspaces=np.asarray(halfspaces, dtype=float) if halfspaces is not None else None,
            norm=norm,
        )
    except (StructureError, ValueError) as exc:
        raise SchemaError(str(exc), context=where)


def cone_to_dict(cone):
    doc = {"dim": cone.dim, "norm": cone.norm}
    if cone.generators is not None:
        doc["generators"] = cone.generators.tolist()
    if cone.halfspaces is not None:
        doc["halfspaces"] = cone.halfspaces.tolist()
    return doc


def load_cone(path, digests=None):
    return cone_from_dict(_load_json(path, digests), where=path)


def _is_id(v):
    """A vertex id of a tree file: a JSON string or integer."""
    return isinstance(v, (str, int)) and not isinstance(v, bool)


def tree_from_dict(doc, where="tree"):
    from . import trees

    vertices = _require(doc, "vertices", list, where)
    edges = _require(doc, "edges", list, where)
    root = _require(doc, "root", None, where)
    end = _require(doc, "end", None, where)
    for v in [*vertices, root, end]:
        if not _is_id(v):
            raise SchemaError(f"vertex ids must be strings or integers, got {v!r}", where)
    parsed = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 3:
            raise SchemaError(f"edges must be [u, v, length] triples, got {e!r}", where)
        u, v, length = e
        if not (_is_id(u) and _is_id(v)):
            raise SchemaError(f"edge ends must be vertex ids, got {e!r}", where)
        if isinstance(length, bool) or not isinstance(length, (int, float)):
            raise SchemaError(f"edge lengths must be numbers, got {e!r}", where)
        parsed.append((u, v, length))
    try:
        return trees.RTree(vertices=vertices, edges=parsed, root=root, end=end)
    except StructureError as exc:
        raise SchemaError(str(exc), context=where)


def tree_to_dict(tree):
    return {
        "vertices": list(tree.vertices),
        "edges": [[u, v, length] for u, v, length in tree.edges],
        "root": tree.root,
        "end": tree.end,
    }


def load_tree(path, digests=None):
    return tree_from_dict(_load_json(path, digests), where=path)


def problem_from_dict(doc, base_dir=".", where="problem", tol=None, digests=None):
    from . import extension

    raw_poset = _require(doc, "poset", None, where)
    if isinstance(raw_poset, str):
        domain = load_poset(os.path.join(base_dir, raw_poset), digests)
    elif isinstance(raw_poset, dict):
        domain = poset_from_dict(raw_poset, where=f"{where}.poset")
    else:
        raise SchemaError("poset must be a path or inline object", context=where)
    subset = _require(doc, "subset", list, where)
    for s in subset:
        if type(s) is not int:
            raise SchemaError(f"subset entries must be integers, got {s!r}", context=where)
    target_doc = _require(doc, "target", dict, where)
    kind = _require(target_doc, "kind", str, f"{where}.target")
    if kind == "scalar":
        target = cones.scalar_cone(norm=target_doc.get("norm", "l2"))
    elif kind == "cone":
        raw_cone = _require(target_doc, "cone", None, f"{where}.target")
        if isinstance(raw_cone, str):
            target = load_cone(os.path.join(base_dir, raw_cone), digests)
        elif isinstance(raw_cone, dict):
            target = cone_from_dict(raw_cone, where=f"{where}.target.cone")
        else:
            raise SchemaError("target.cone must be a path or inline object", where)
    else:
        raise SchemaError(f"unknown target kind {kind!r}", context=where)
    raw_f = _require(doc, "f", list, where)
    try:
        f = np.asarray(raw_f, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError("f must be a numeric matrix", context=str(exc))
    if f.ndim == 1:
        f = f[:, None]
    try:
        kwargs = {} if tol is None else {"tol": tol}
        return extension.ExtensionProblem(
            domain=domain, subset=tuple(subset), target=target, f=f, **kwargs
        )
    except StructureError as exc:
        raise SchemaError(str(exc), context=where)


def load_problem(path, tol=None, digests=None):
    return problem_from_dict(
        _load_json(path, digests), base_dir=os.path.dirname(path), where=path,
        tol=tol, digests=digests,
    )


def dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
