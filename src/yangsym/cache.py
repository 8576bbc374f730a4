"""Content-addressed cache of computed values.

Entries are keyed by a hash of the canonical parameter JSON plus a code
version tag, so changing any parameter (or the code version) yields a fresh
key.  Corrupt entries are evicted with a warning and recomputed.
"""

import hashlib
import json
import os
import sys

from .serialize import canonical_dumps

CODE_VERSION = "0.1.0"

CACHE_ENV_VAR = "YANGSYM_CACHE_DIR"


def cache_key(obj_name, params):
    payload = canonical_dumps({
        "object": obj_name,
        "params": params,
        "version": CODE_VERSION,
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
        print(f"warning: evicting corrupt cache entry {key}", file=sys.stderr)
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
        "version": CODE_VERSION,
        "value": value_jsonable,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(entry))
    os.replace(tmp, path)
    return canonical_dumps(value_jsonable).encode("utf-8")
