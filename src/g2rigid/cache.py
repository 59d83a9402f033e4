"""Content-addressed JSON result cache with atomic writes.

Records are keyed by the SHA-256 of their canonical-JSON request payload,
and each record stores that payload beside its result; a record is served
only for the payload it was written under, so a record from an older
payload version, a truncated one or a bare result counts as a miss.  This
catches corruption and stale formats, not a deliberate edit.  Writes go
through a temporary file in the same directory followed by an atomic
rename, so concurrent runs on one cache directory are safe (identical
content, last writer wins).  SHA-256 comes from the interpreter's own
``_sha2`` (3.12+) or ``_sha256`` module where there is one, as in
``random``: ``hashlib`` would load OpenSSL's libcrypto into every process
to hash a payload of about 100 bytes.
"""

from __future__ import annotations

import json
import os

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

CACHE_ENV_VAR = "G2RIGID_CACHE_DIR"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_key(payload) -> str:
    return sha256(bytes(canonical_json(payload), "utf-8")).hexdigest()


def resolve_cache_dir(flag_value=None) -> str:
    """Cache directory: explicit flag, else environment, else user cache."""
    if flag_value:
        return flag_value
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "g2rigid")


class ResultCache:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.keys_used = []

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    def get(self, payload):
        """The stored result, or None when there is no record, it cannot
        be parsed (a truncated write, say) or it was not written under
        this payload; a miss is recomputed and the record overwritten."""
        path = self._path(content_key(payload))
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as fh:
            try:
                record = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError):
                return None
        stored = record.get("payload") if isinstance(record, dict) else None
        if canonical_json(stored) == canonical_json(payload) and \
                "result" in record:
            return record["result"]
        return None

    def put(self, payload, result) -> str:
        import tempfile
        key = content_key(payload)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"payload": payload, "result": result}, fh,
                          sort_keys=True)
            os.replace(tmp, self._path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return key

    def fetch(self, payload):
        """Cached result for the payload, or None on a miss; the key and
        the hit or miss are recorded."""
        self.keys_used.append(content_key(payload))
        result = self.get(payload)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def fetch_or_compute(self, payload, compute):
        """Cached result for the payload, computing and storing on a miss."""
        result = self.fetch(payload)
        if result is None:
            result = compute()
            self.put(payload, result)
        return result
