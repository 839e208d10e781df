"""Bit-exact (de)serialization of :class:`ExperimentResult` records.

JSON cannot carry every IEEE-754 value faithfully (NaN payloads, and the
standard forbids NaN/Infinity outright), yet the resume invariant demands
*byte-identical* injection records.  Floats therefore travel as their
binary64 bit pattern — ``{"f64": "<16 hex digits>"}`` — and everything
else as plain JSON.  ``decode_result(encode_result(r))`` reproduces the
record the engine would have produced live, field for field and bit for
bit.
"""

from __future__ import annotations

import struct

import numpy as np

from ..core.outcomes import ExperimentResult, Outcome
from ..core.runtime import InjectionRecord


def encode_value(value):
    """One injected value (original/corrupted) as JSON-safe data."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return {"f64": struct.pack("<d", value).hex()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return {"f64": struct.pack("<d", float(value)).hex()}
    raise TypeError(f"cannot journal injected value of type {type(value).__name__}")


def decode_value(value):
    if isinstance(value, dict) and "f64" in value:
        return struct.unpack("<d", bytes.fromhex(value["f64"]))[0]
    return value


def encode_rows(rows: list[dict]) -> list[dict]:
    """Result-cell rows (table1/fig10/bitpos/ablations) as JSON-safe data.

    Floats travel as bit patterns like injected values do — a cell row may
    legitimately hold NaN (e.g. a vector fraction over zero sites), which
    the journal's strict JSON would reject, and rebuilt reports must equal
    live ones bit for bit anyway.
    """
    return _map_tree(rows, _encode_tree_value)


def decode_rows(rows: list[dict]) -> list[dict]:
    return _decode_tree(rows)


def _map_tree(obj, fn):
    if isinstance(obj, dict):
        return {k: _map_tree(v, fn) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_map_tree(v, fn) for v in obj]
    return fn(obj)


def _decode_tree(obj):
    if isinstance(obj, dict):
        # The float wrapper is itself a dict — unwrap it before recursing.
        if set(obj) == {"f64"}:
            return decode_value(obj)
        return {k: _decode_tree(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode_tree(v) for v in obj]
    return obj


def _encode_tree_value(value):
    if value is None or isinstance(value, str):
        return value
    return encode_value(value)


def encode_injection(record: InjectionRecord | None) -> dict | None:
    if record is None:
        return None
    return {
        "site_id": record.site_id,
        "dynamic_index": record.dynamic_index,
        "bit": record.bit,
        "type_name": record.type_name,
        "original": encode_value(record.original),
        "corrupted": encode_value(record.corrupted),
    }


def decode_injection(data: dict | None) -> InjectionRecord | None:
    if data is None:
        return None
    return InjectionRecord(
        site_id=data["site_id"],
        dynamic_index=data["dynamic_index"],
        bit=data["bit"],
        type_name=data["type_name"],
        original=decode_value(data["original"]),
        corrupted=decode_value(data["corrupted"]),
    )


def encode_result(result: ExperimentResult) -> dict:
    return {
        "outcome": result.outcome.value,
        "detected": result.detected,
        "crash_kind": result.crash_kind,
        "injection": encode_injection(result.injection),
        "dynamic_sites": result.dynamic_sites,
        "target_index": result.target_index,
        "site_categories": sorted(result.site_categories),
        "golden_dynamic_instructions": result.golden_dynamic_instructions,
        "faulty_dynamic_instructions": result.faulty_dynamic_instructions,
        "notes": {},  # always empty: records never show the execution path
    }


def decode_result(data: dict) -> ExperimentResult:
    return ExperimentResult(
        outcome=Outcome(data["outcome"]),
        detected=data["detected"],
        crash_kind=data["crash_kind"],
        injection=decode_injection(data["injection"]),
        dynamic_sites=data["dynamic_sites"],
        target_index=data["target_index"],
        site_categories=frozenset(data["site_categories"]),
        golden_dynamic_instructions=data["golden_dynamic_instructions"],
        faulty_dynamic_instructions=data["faulty_dynamic_instructions"],
    )
