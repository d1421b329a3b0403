"""Structural rules for src/revoca: one atomic file write, one revocation-slot
derivation, one ahibe record codec, and no module-level name that nothing in
the program uses.

"Uses" means a load of the name, bare or as an attribute, anywhere in
src/revoca or perfbench/ outside the name's own definition. Tests do not
count: a helper only tests call is dead code with a test attached.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "revoca"
PROGRAM = sorted(SRC.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# public names kept although nothing in the program loads them
KEPT = {
    ("revoca", "__version__"),  # package metadata
    ("revoca.service", "ROUTES"),  # the published endpoint grammar
    ("revoca.pairing.fields", "Fq2"),  # the three aliases document the tuple shapes
    ("revoca.pairing.fields", "Fq6"),
    ("revoca.pairing.fields", "Fq12"),
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _module(path):
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _calls(name, owner=None):
    """Call sites of `name` in src/: bare or as any attribute, or only as
    `owner.name` when an owner is given."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                match = func.attr == name and (owner is None or getattr(func.value, "id", None) == owner)
            else:
                match = owner is None and getattr(func, "id", None) == name
            if match:
                sites.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return sites


def _loads(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_one_atomic_file_write():
    sites = _calls("replace", owner="os")
    assert len(sites) == 1, sites


def test_one_slot_index_derivation():
    sites = _calls("index_from_ciphertext")
    assert len(sites) == 1, sites


def test_one_ahibe_record_codec():
    # ahibe objects cross the wire only through ahibe.to_record/from_record
    suffixes = ("_to_bytes", "_from_bytes", "_to_record", "_from_record")
    per_type = [
        name
        for name, node in _definitions(_tree(SRC / "ahibe" / "__init__.py"))
        if isinstance(node, ast.FunctionDef) and name.endswith(suffixes)
    ]
    assert per_type == []
    sites = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "ahibe"
        and node.func.attr.endswith(suffixes)
    ]
    assert sites == []


def test_every_module_level_name_is_used():
    trees = {path: _tree(path) for path in PROGRAM}
    loads = collections.Counter(name for tree in trees.values() for name in _loads(tree))
    unused = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for name, node in _definitions(tree):
            outside = loads[name] - collections.Counter(_loads(node))[name]
            if outside == 0 and (_module(path), name) not in KEPT:
                unused.append(f"{_module(path)}.{name}")
    assert unused == []

