"""Content-addressed JSON result cache with atomic writes.

Records are keyed by the SHA-256 of their canonical-JSON request payload;
writes go through a temporary file in the same directory followed by an
atomic rename, so concurrent runs on one cache directory are safe
(identical content, last writer wins).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

CACHE_ENV_VAR = "G2RIGID_CACHE_DIR"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_key(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


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
        """The stored record, or None when there is none or it cannot be
        decoded (a truncated write, say); a miss is recomputed and the
        record overwritten."""
        key = content_key(payload)
        path = self._path(key)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    return json.load(fh)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    return None
        return None

    def put(self, payload, record) -> str:
        key = content_key(payload)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return key

    def fetch_or_compute(self, payload, compute):
        """Cached record for the payload, computing and storing on a miss."""
        key = content_key(payload)
        self.keys_used.append(key)
        record = self.get(payload)
        if record is not None:
            self.hits += 1
            return record
        self.misses += 1
        record = compute()
        self.put(payload, record)
        return record
