"""The protocol roles: issuer, holder wallet, verifier. The key authority's
two operations are `ahibe.setup` and `ahibe.extract`."""

from .credentials import (  # noqa: F401
    NONCE_LEN,
    Presentation,
    TemporalAuthorization,
    TrustStore,
    VerifiableCredential,
    pop_payload,
    sign_credential,
)
from .issuer import (  # noqa: F401
    CredentialRecord,
    IssuerState,
    RegisteredDocument,
    RegistryError,
    issuer_check_table,
    issuer_export_day,
    issuer_init,
    issuer_issue,
    issuer_publish,
    issuer_revoke,
    issuer_rollover,
    issuer_state_from_bytes,
    issuer_state_to_bytes,
    load_issuer_state,
    save_issuer_state,
)
from .holder import (  # noqa: F401
    Wallet,
    WalletRecord,
    WalletRejection,
    holder_audit,
    holder_present,
    holder_store,
)
from .verifier import (  # noqa: F401
    BadProofOfPossession,
    BadSignature,
    CheckDigestNotFound,
    DeferredFutureDay,
    KeyProbeFailed,
    SnapshotUnavailable,
    StatusResult,
    VerificationError,
    verifier_check,
)
