"""Self-verifying identities, signed capability tokens, and deterministic
offline trust evaluation.

The pipeline, end to end::

    keypairs -> identities -> tokens -> bundle -> valid set -> clean set
             -> capability graph -> accept/reject decision

Every stage is a pure function of its inputs; no network, clock, or registry
is ever consulted.
"""

from .bundles import (
    Bundle,
    BundleDiagnostic,
    TrustConfigError,
    load_bundle,
    load_trust_config,
    temporal_filter,
)
from .evaluation import (
    Decision,
    PathReport,
    RejectReason,
    Request,
    TrustedPrincipal,
    Verdict,
    Witness,
    enumerate_paths,
    evaluate,
    path_scope,
)
from .graph import UNCONSTRAINED, CapabilityGraph, Scope, build_graph, parse_scope
from .identity import (
    Identity,
    IdentityError,
    KeyPair,
    PublicKey,
    derive_identity,
    generate_keypair,
    load_keypair,
    parse_identity,
    save_seed,
    validate_binding,
)
from .resolution import (
    CleanSet,
    RejectedToken,
    TokenSet,
    filter_valid,
    resolve,
    revokes_matches,
)
from .tokens import (
    Claims,
    DecodeError,
    IssueError,
    Token,
    TokenError,
    TokenKind,
    ValidityReport,
    decode,
    issue_attest,
    issue_burn,
    issue_revoke,
    issue_vouch,
    verify,
)

__version__ = "0.1.0"

__all__ = [
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
    "revokes_matches",
    "save_seed",
    "temporal_filter",
    "validate_binding",
    "verify",
]
