#!/usr/bin/env python3
"""Validate observability artifacts written by the sweep drivers.

Usage:
    validate_trace.py --trace FILE      # chrome trace-event file
    validate_trace.py --manifest FILE   # tlc-run-manifest-v1 file
    validate_trace.py --sim-trace FILE  # binary "TLCT" simulation trace

Checks structure only, with the stdlib: the trace must be a
{"traceEvents": [...]} document of well-formed M/X events (in
isolate mode the supervisor emits one process_name track per worker
attempt next to the usual thread_name records), the manifest must
carry every schema key plus embedded metrics/phases objects (and a
well-formed "supervisor" timeline object when the run was isolated),
and a simulation trace must decode end to end — for the version-3
compressed format that means re-running the varint/zigzag delta
decode and matching the CRC-32 footer computed over the DECODED
records in canonical 5-byte form, exactly as src/trace/io.cc does.
Exit status 0 on success, 1 with a message on stderr otherwise.
tools/check.sh runs all three checks on smoke artifacts.
"""

import json
import struct
import sys
import zlib

MANIFEST_KEYS = (
    "schema", "tool", "command", "workload", "trace_refs", "seed",
    "threads", "hardware_concurrency", "points_priced", "failures",
    "wall_seconds", "metrics", "phases",
)

SUPERVISOR_KEYS = (
    "shards_resolved", "worker_launches", "retries", "crashes",
    "timeouts", "exits", "protocol_errors", "bisections",
    "quarantined", "backoff_waits", "backoff_seconds",
    "metric_frames", "phase_frames", "event_frames", "flight_frames",
    "shards",
)

ATTEMPT_KEYS = (
    "worker", "outcome", "detail", "start_seconds",
    "duration_seconds", "results", "backoff_seconds",
    "flight_reason", "flight_point", "flight_phase",
)

TRACE_MAGIC = b"TLCT"
TRACE_V_RAW = 1
TRACE_V_COMPRESSED = 2
TRACE_V_COMPRESSED_CRC = 3


def fail(msg):
    print(f"validate_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def check_trace(path):
    doc = load(path)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not an array")
    slices = 0
    process_tracks = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict) or "ph" not in ev:
            fail(f"{path}: event {i} has no phase")
        if ev["ph"] == "M":
            if ev.get("name") not in ("thread_name", "process_name"):
                fail(f"{path}: event {i}: unexpected metadata event")
            if ev["name"] == "process_name":
                process_tracks += 1
                if "pid" not in ev:
                    fail(f"{path}: event {i}: process_name without pid")
        elif ev["ph"] == "X":
            slices += 1
            for key in ("pid", "tid", "ts", "dur", "name"):
                if key not in ev:
                    fail(f"{path}: event {i} lacks '{key}'")
            if ev["ts"] < 0 or ev["dur"] < 0:
                fail(f"{path}: event {i} has negative time")
        else:
            fail(f"{path}: event {i}: unexpected phase '{ev['ph']}'")
    print(f"{path}: ok ({slices} slices, {len(events) - slices} "
          f"metadata events, {process_tracks} process tracks)")


def check_supervisor(path, sup):
    """The "supervisor" object isolated runs embed in the manifest."""
    if not isinstance(sup, dict):
        fail(f"{path}: 'supervisor' is not an object")
    for key in SUPERVISOR_KEYS:
        if key not in sup:
            fail(f"{path}: supervisor lacks '{key}'")
    shards = sup["shards"]
    if not isinstance(shards, list):
        fail(f"{path}: supervisor 'shards' is not an array")
    attempts = 0
    for i, shard in enumerate(shards):
        for key in ("first_index", "count", "resolution", "attempts"):
            if key not in shard:
                fail(f"{path}: supervisor shard {i} lacks '{key}'")
        if shard["resolution"] not in ("ok", "bisected", "quarantined"):
            fail(f"{path}: supervisor shard {i}: resolution "
                 f"{shard['resolution']!r}")
        for j, at in enumerate(shard["attempts"]):
            attempts += 1
            for key in ATTEMPT_KEYS:
                if key not in at:
                    fail(f"{path}: supervisor shard {i} attempt {j} "
                         f"lacks '{key}'")
            if at["duration_seconds"] < 0 or at["start_seconds"] < 0:
                fail(f"{path}: supervisor shard {i} attempt {j} has "
                     "negative time")
    if attempts < sup["shards_resolved"]:
        fail(f"{path}: supervisor records {attempts} attempts for "
             f"{sup['shards_resolved']} resolved shards")
    return len(shards), attempts


def check_manifest(path):
    doc = load(path)
    if not isinstance(doc, dict):
        fail(f"{path}: not a JSON object")
    if doc.get("schema") != "tlc-run-manifest-v1":
        fail(f"{path}: schema is {doc.get('schema')!r}, expected "
             "'tlc-run-manifest-v1'")
    for key in MANIFEST_KEYS:
        if key not in doc:
            fail(f"{path}: missing key '{key}'")
    for key in ("metrics", "phases"):
        if not isinstance(doc[key], dict):
            fail(f"{path}: '{key}' is not an object")
    if doc["points_priced"] < 0 or doc["wall_seconds"] < 0:
        fail(f"{path}: negative counters")
    supervised = ""
    if "supervisor" in doc:
        shards, attempts = check_supervisor(path, doc["supervisor"])
        supervised = f", {shards} shards / {attempts} attempts"
    print(f"{path}: ok ({doc['points_priced']} points, "
          f"{len(doc['metrics'])} metrics, "
          f"{len(doc['phases'])} phases{supervised})")


def read_varint(data, pos):
    """LSB-first 7-bit varint, as decoded in src/trace/io.cc."""
    value = 0
    shift = 0
    for nbytes in range(1, 11):
        if pos >= len(data):
            fail("sim trace ends inside a varint")
        b = data[pos]
        pos += 1
        if shift == 63 and b & 0x7E:
            fail(f"varint overflows 64 bits at byte {nbytes}")
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7
    fail("varint continues past 10 bytes")


def unzigzag(v):
    return (v >> 1) ^ -(v & 1)


def check_sim_trace(path):
    """Decode a binary simulation trace end to end.

    Version 1 is raw 5-byte records; versions 2/3 are per-type
    delta + zigzag varints, and version 3 closes with a CRC-32
    footer over the decoded records in canonical 5-byte form.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        fail(f"{path}: {e}")
    if len(data) < 16:
        fail(f"{path}: shorter than the 16-byte header")
    if data[:4] != TRACE_MAGIC:
        fail(f"{path}: magic {data[:4]!r} is not {TRACE_MAGIC!r}")
    version, = struct.unpack_from("<I", data, 4)
    count, = struct.unpack_from("<Q", data, 8)
    pos = 16

    if version == TRACE_V_RAW:
        need = pos + 5 * count
        if len(data) != need:
            fail(f"{path}: {len(data)} bytes where {count} raw records "
                 f"need exactly {need}")
        for i in range(count):
            ty = data[pos + 4]
            if ty > 2:
                fail(f"{path}: record {i} has reference type {ty}")
            pos += 5
        print(f"{path}: ok (v1, {count} records)")
        return

    if version not in (TRACE_V_COMPRESSED, TRACE_V_COMPRESSED_CRC):
        fail(f"{path}: unsupported trace version {version}")
    has_footer = version == TRACE_V_COMPRESSED_CRC
    last = [0, 0, 0]
    crc = 0
    for i in range(count):
        word, pos = read_varint(data, pos)
        ty = word & 3
        if ty > 2:
            fail(f"{path}: record {i} has reference type {ty}")
        addr = (last[ty] + unzigzag(word >> 2)) & 0xFFFFFFFF
        last[ty] = addr
        if has_footer:
            crc = zlib.crc32(struct.pack("<IB", addr, ty), crc)
    if has_footer:
        if pos + 4 > len(data):
            fail(f"{path}: stream ends inside the CRC footer")
        want, = struct.unpack_from("<I", data, pos)
        if want != crc:
            fail(f"{path}: CRC footer 0x{want:08x} does not match "
                 f"0x{crc:08x} over the {count} decoded records")
        pos += 4
    if pos != len(data):
        fail(f"{path}: {len(data) - pos} trailing bytes after the "
             "last record")
    print(f"{path}: ok (v{version}, {count} records"
          f"{', CRC footer verified' if has_footer else ''})")


def main(argv):
    modes = ("--trace", "--manifest", "--sim-trace")
    if len(argv) != 3 or argv[1] not in modes:
        fail("usage: validate_trace.py "
             "--trace|--manifest|--sim-trace FILE")
    if argv[1] == "--trace":
        check_trace(argv[2])
    elif argv[1] == "--manifest":
        check_manifest(argv[2])
    else:
        check_sim_trace(argv[2])


if __name__ == "__main__":
    main(sys.argv)
