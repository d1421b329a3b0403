"""Structural rules for src/revoca: one atomic file write, one revocation-slot
derivation, one ahibe record codec, one snapshot codec, linear rollover
builds, one Miller loop behind the pairing API, day-key points decoded with
the subgroup check, a key check without encapsulation or AEAD, fixed-base
tables built only from checked public params and delegation points, every
functools cache bounded, no `global` statement, a publication store that
holds only its root, and no module-level name that nothing in the program
uses.

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
    # pathlib's whole-file writes would bypass it
    assert _calls("write_bytes") + _calls("write_text") == []


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


def _enclosing_calls(path, names):
    """`Class.function` or `function` of every call to one of `names` in a
    module (one level of class nesting)."""
    found = []
    for node in _tree(path).body:
        scopes = [node] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            scopes = [f for f in node.body if isinstance(f, ast.FunctionDef)]
        for scope in scopes:
            qualified = f"{node.name}.{scope.name}" if scope is not node else scope.name
            for call in ast.walk(scope):
                if isinstance(call, ast.Call) and (getattr(call.func, "id", None) in names or getattr(call.func, "attr", None) in names):
                    found.append(qualified)
    return found


def test_one_snapshot_codec():
    # canonical JSON carries only the small objects inside a revocation
    # table (documents, associated data); no snapshot record goes through it
    sites = _enclosing_calls(SRC / "tables.py", {"canonical_encode", "canonical_decode"})
    assert sorted(set(sites)) == [
        "RevocationDocument.from_bytes",
        "RevocationDocument.to_bytes",
        "revocation_associated_data",
    ]


def test_rollover_builds_without_insert():
    # RevocationTableSnapshot.insert copies the whole body; a rollover builds
    # its table in one pass instead
    sites = _enclosing_calls(SRC / "actors" / "issuer.py", {"insert"})
    assert "_rebuild_revocation" not in sites
    assert "issuer_revoke" in sites  # a same-day revoke still appends with insert


def _functions(path):
    """(name, node) of every top-level function of a module."""
    return [(node.name, node) for node in _tree(path).body if isinstance(node, ast.FunctionDef)]


def test_miller_loop_and_final_exponentiation_only_behind_the_pairing_api():
    # callers go through pairing_product, whose module-global lookups
    # are also where the benchmark's per-layer spans hook in
    sites = _calls("miller_loop_product") + _calls("final_exponentiation")
    assert sites and all(site.startswith("src/revoca/pairing/pairing.py:") for site in sites), sites


def test_unchecked_g2_decode_only_in_delegate():
    # day-key points arrive in presentations; only the holder's own stored key skips the check
    sites = [
        f"{_module(path)}.{name}"
        for path in sorted(SRC.rglob("*.py"))
        for name, func in _functions(path)
        for call in ast.walk(func)
        if isinstance(call, ast.Call)
        for kw in call.keywords
        if kw.arg == "check_subgroup" and not (isinstance(kw.value, ast.Constant) and kw.value.value is True)
    ]
    assert sites and set(sites) == {"revoca.ahibe.pairing_scheme.delegate"}, sites


def test_key_probe_runs_no_encapsulation_or_aead():
    probes = [func for path in sorted((SRC / "ahibe").glob("*.py")) for name, func in _functions(path) if name == "probe_key"]
    assert len(probes) == 3  # the package entry point and one per scheme
    for func in probes:
        called = {getattr(c.func, "id", None) or getattr(c.func, "attr", None) for c in ast.walk(func) if isinstance(c, ast.Call)}
        assert not {n for n in called if n and "encap" in n and "decap" not in n}
        assert not called & {"seal", "open_sealed"}


def test_fixed_base_tables_only_from_checked_public_params():
    # a comb reduces its scalar mod R, which is sound only for a base in G1,
    # G2 (or GT): _decode_public builds the G1 and GT tables after the
    # subgroup and GT checks, _delegation_combs the G2 ones after the psi
    # check, and _g2_gen_comb the table of the generator
    def sites(names):
        return {
            f"{_module(path)}.{qualified}"
            for path in sorted(SRC.rglob("*.py"))
            for qualified in _enclosing_calls(path, names)
        }

    assert sites({"g1_comb", "gt_comb"}) == {"revoca.ahibe.pairing_scheme._decode_public"}
    assert sites({"g2_comb"}) == {
        "revoca.ahibe.pairing_scheme._delegation_combs",
        "revoca.ahibe.pairing_scheme._g2_gen_comb",
    }
    (builder,) = [f for name, f in _functions(SRC / "ahibe" / "pairing_scheme.py") if name == "_delegation_combs"]
    decodes = [c for c in ast.walk(builder) if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "g2_from_bytes"]
    assert decodes and all(len(c.args) == 1 and not c.keywords for c in decodes)  # the subgroup check stays on
    constructed = _calls("Comb")
    assert constructed and all(
        site.startswith(("src/revoca/pairing/curves.py:", "src/revoca/pairing/pairing.py:")) for site in constructed
    ), constructed


def test_public_tables_cache_is_bounded():
    # about 1.3 MiB of tables per params: they must not pile up across params
    (func,) = [f for name, f in _functions(SRC / "ahibe" / "pairing_scheme.py") if name == "_decode_public"]
    bounds = [
        kw.value.value
        for dec in func.decorator_list
        if isinstance(dec, ast.Call) and getattr(dec.func, "attr", None) == "lru_cache"
        for kw in dec.keywords
        if kw.arg == "maxsize" and isinstance(kw.value, ast.Constant)
    ]
    assert len(bounds) == 1 and isinstance(bounds[0], int) and 0 < bounds[0] <= 8, bounds


def test_every_functools_cache_is_bounded():
    # a functools cache lives as long as the process: each one states a
    # positive bound, as a literal or a module-level int constant
    found, unbounded = 0, []
    for path in sorted(SRC.rglob("*.py")):
        tree = _tree(path)
        constants = {
            name: node.value.value
            for name, node in _definitions(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        }
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute) and node.attr == "lru_cache"
                or isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", None) == "functools"
                or isinstance(node, ast.Name) and node.id == "lru_cache"
            ):
                continue
            found += 1
            call = calls.get(id(node))
            bounds = [
                constants.get(kw.value.id) if isinstance(kw.value, ast.Name) else getattr(kw.value, "value", None)
                for kw in (call.keywords if call else [])
                if kw.arg == "maxsize"
            ]
            if not (len(bounds) == 1 and type(bounds[0]) is int and bounds[0] > 0):
                unbounded.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found and unbounded == [], unbounded


def test_publication_store_holds_only_its_root():
    # served segments are memoised per check-file version in revoca.service,
    # never in store state that publish and prune would have to invalidate
    (cls,) = [node for node in _tree(SRC / "service.py").body if isinstance(node, ast.ClassDef) and node.name == "PublicationStore"]
    assigned = {
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"
    }
    assert assigned == {"root"}, assigned


def test_no_global_statements():
    # process-wide state lives in a bounded functools cache, not in a module
    # variable that functions rebind
    sites = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Global)
    ]
    assert sites == [], sites


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

