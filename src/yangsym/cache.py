"""Content-addressed cache of computed values.

Entries are keyed by a hash of the canonical parameter JSON plus the value
format version, so changing any parameter (or the format) yields a fresh
key.  Corrupt entries are evicted and recomputed; each eviction is reported
as one JSON line on stderr, {"cache": "evict", "key": "<12 hex>"}, in the
form `compute` uses for hits and misses.  Each write goes to its own
temporary file in the cache directory, <key12>.<random hex>.tmp created
exclusively, and is renamed into place, so processes writing the same key
at once leave one whole entry.  `canonical_dumps` lives here, not in
`serialize`, so that a cache hit loads no engine layer.
"""

import json
import os
import sys

# Bump whenever a computed value or its encoding changes, so that entries
# written by older code are not served; a test pins the bytes of one value
# next to this number.
FORMAT_VERSION = 1

CACHE_ENV_VAR = "YANGSYM_CACHE_DIR"


def canonical_dumps(obj):
    """Deterministic JSON text (sorted keys, fixed separators), so two runs
    of the same computation produce byte-identical output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cache_key(obj_name, params):
    # imported here: hashlib loads OpenSSL, which verify and list-suites never use
    import hashlib

    payload = canonical_dumps({
        "object": obj_name,
        "params": params,
        "version": FORMAT_VERSION,
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def resolve_cache_dir(flag_value=None):
    """Cache directory from the flag, else the environment, else None."""
    if flag_value:
        return flag_value
    return os.environ.get(CACHE_ENV_VAR) or None


def cache_get(cache_dir, key):
    """Stored canonical bytes for the key, or None."""
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    try:
        entry = json.loads(raw)
        if not isinstance(entry, dict) or entry.get("key") != key or "value" not in entry:
            raise ValueError("malformed entry")
    except (ValueError, UnicodeDecodeError):
        print(json.dumps({"cache": "evict", "key": key[:12]}), file=sys.stderr)
        try:
            os.remove(path)
        except OSError:
            pass
        return None
    return canonical_dumps(entry["value"]).encode("utf-8")


def cache_put(cache_dir, key, obj_name, params, value_jsonable):
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    entry = {
        "key": key,
        "object": obj_name,
        "params": params,
        "version": FORMAT_VERSION,
        "value": value_jsonable,
    }
    tmp = os.path.join(cache_dir, f"{key[:12]}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(entry))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return canonical_dumps(value_jsonable).encode("utf-8")
