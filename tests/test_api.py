"""The public API is the names in ``vouchsafe.__all__``, and the public
fields and methods of the pipeline's container classes: adding, removing or
renaming one is a deliberate edit of these lists, recorded in the README."""

import ast
import dataclasses
from pathlib import Path

import vouchsafe

SRC = Path(vouchsafe.__file__).resolve().parent

PUBLIC_NAMES = [
    "Bundle",
    "BundleDiagnostic",
    "CapabilityGraph",
    "Claims",
    "CleanSet",
    "Decision",
    "DecodeError",
    "Identity",
    "IdentityError",
    "IssueError",
    "KeyPair",
    "PathReport",
    "PublicKey",
    "RejectReason",
    "RejectedToken",
    "Request",
    "Scope",
    "Token",
    "TokenError",
    "TokenKind",
    "TokenSet",
    "TrustConfigError",
    "TrustedPrincipal",
    "UNCONSTRAINED",
    "ValidityReport",
    "Verdict",
    "Witness",
    "build_graph",
    "decode",
    "derive_identity",
    "enumerate_paths",
    "evaluate",
    "filter_valid",
    "generate_keypair",
    "issue_attest",
    "issue_burn",
    "issue_revoke",
    "issue_vouch",
    "load_bundle",
    "load_keypair",
    "load_trust_config",
    "parse_identity",
    "parse_scope",
    "path_scope",
    "resolve",
    "save_seed",
    "temporal_filter",
    "validate_binding",
    "verify",
]

PUBLIC_MEMBERS = {
    "Bundle": ["diagnostics", "tokens"],
    "CapabilityGraph": ["diagnostics", "dump", "edges", "nodes", "reverse_edges", "scopes"],
    "CleanSet": ["burned_identities", "graph", "revoked_statements", "tokens"],
    "TokenSet": ["duplicate_statement_ids"],
}


def test_public_names_are_pinned():
    assert sorted(vouchsafe.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in vouchsafe.__all__:
        assert getattr(vouchsafe, name) is not None, name


def test_container_members_are_pinned():
    for name, members in PUBLIC_MEMBERS.items():
        cls = getattr(vouchsafe, name)
        fields = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
        assert sorted({m for m in [*fields, *dir(cls)] if not m.startswith("_")}) == members, name


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _loaded(tree: ast.AST) -> set[str]:
    """The names a tree reads, as bare names or as attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree: ast.AST) -> set[str]:
    """The names a tree's import statements bind, ``__future__`` aside."""
    return {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }


def _defined(tree: ast.Module):
    """The module-level functions, classes and constants a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_no_dead_names_in_src():
    """Every name a module imports is used there (``__init__``'s re-exports
    aside), and every module-level function, class and constant is read or
    imported somewhere in the package besides its own definition."""
    modules = _modules()
    for name, tree in modules.items():
        unused = sorted(_imported(tree) - _loaded(tree))
        assert name == "__init__" or not unused, f"{name}.py imports {unused} without using them"
    referenced = set().union(*(_loaded(tree) | _imported(tree) for tree in modules.values()))
    dead = sorted(
        f"{name}.{defined}"
        for name, tree in modules.items()
        for defined in _defined(tree)
        if defined not in referenced and defined not in ("__all__", "__version__")
    )
    assert not dead, f"defined but never referenced: {dead}"


# The package's modules, each above the ones before it.
LAYERS = ["identity", "tokens", "graph", "resolution", "evaluation", "bundles", "cli"]


def _package_imports(tree: ast.Module):
    """The package modules a tree imports, anywhere but ``if TYPE_CHECKING:``."""
    typing_only = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for n in ast.walk(node)
    }
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "vouchsafe":
                    continue
                module = module.partition(".")[2]
            yield from [module.split(".")[0]] if module else (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "vouchsafe":
                    yield module.split(".")[0] or "__init__"


def test_modules_import_only_lower_layers():
    """Each module imports only modules before it in ``LAYERS``, and only
    ``bundles`` keeps a module-level weak map: it alone decides which Tokens
    are shared."""
    modules = _modules()
    assert sorted(modules) == sorted(["__init__", *LAYERS])
    for i, name in enumerate(LAYERS):
        higher = sorted(set(_package_imports(modules[name])) - set(LAYERS[:i]))
        assert not higher, f"{name}.py imports {higher}, which are not below it in {LAYERS}"
    weak_maps = {
        name
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and node.value is not None
        and "WeakValueDictionary" in ast.unparse(node.value)
    }
    assert weak_maps == {"bundles"}
