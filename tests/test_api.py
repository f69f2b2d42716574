"""The public API is the names in ``vouchsafe.__all__``, and the public
fields and methods of the pipeline's container classes: adding, removing or
renaming one is a deliberate edit of these lists, recorded in the README."""

import dataclasses

import vouchsafe

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
