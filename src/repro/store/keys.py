"""Deterministic fingerprints: how the store addresses its content.

An experiment's identity is everything that determines its result under
the deterministic two-execution protocol:

* the **campaign identity** — pristine-module content hash, engine,
  site category, step limit, mask policy, campaign seed, and the campaign
  config fingerprint (the schedule's ``Random(seed)`` stream is a pure
  function of these);
* the **schedule position** — sequence index plus the drawn ``(input
  params, site k, bit)`` triple.

``--jobs`` and the checkpoint path are deliberately *excluded*: both are
proven bit-identical to their baselines (see DESIGN.md), so a serial
store, with long goldens taped, resumes a ``--jobs 8`` run, which replays
in full, and vice versa.
"""

from __future__ import annotations

import hashlib
import json


def stable_json(obj) -> str:
    """Canonical JSON for hashing (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def digest(obj) -> str:
    return hashlib.sha256(stable_json(obj).encode()).hexdigest()


def module_fingerprint(module) -> str:
    """Content hash of a module's printed IR, memoized per version."""
    cached = getattr(module, "_store_fingerprint", None)
    if cached is not None and cached[0] == module.version:
        return cached[1]
    from ..ir.printer import print_module

    fingerprint = hashlib.sha256(print_module(module).encode()).hexdigest()
    module._store_fingerprint = (module.version, fingerprint)
    return fingerprint


def campaign_identity(injector, seed: int, config: dict) -> dict:
    """The campaign-scope fields of the experiment key, as a plain dict."""
    return {**injector.engine_identity(), "seed": seed, "config": config}


def experiment_key(campaign_key: str, seq: int, k: int, bit: int, params) -> str:
    """Content address of one experiment within a campaign's schedule."""
    return digest(
        {"campaign": campaign_key, "seq": seq, "k": k, "bit": bit, "params": params}
    )


def cell_key(fields: dict) -> str:
    """Content address of one non-campaign result cell (table1, fig10...)."""
    return digest(fields)
