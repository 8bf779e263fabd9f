"""Named substreams derived from a single root seed, and the one hash pt4al uses.

Every source of randomness in a run (data generation, weight init,
shuffling, sampling) gets its own child seed so that reruns are
reproducible and substreams never collide.
"""
from __future__ import annotations


def sha256(data: bytes):
    """The SHA-256 hash object of `data`: seeds and manifest digests both come from here."""
    # Imported here, not at module level: `cli.main` can keep OpenSSL out of its process only
    # if nothing that `import pt4al` loads has imported hashlib yet (README, "The CLI loads
    # no OpenSSL"). The digest is the same whichever library computes it.
    import hashlib
    return hashlib.sha256(data)


def derive_seed(root: int, *names: object) -> int:
    """Stable 63-bit child seed for the substream identified by `names`."""
    key = ":".join([str(int(root)), *(str(n) for n in names)])
    return int.from_bytes(sha256(key.encode("utf-8")).digest()[:8], "big") >> 1
