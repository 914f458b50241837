#!/usr/bin/env python3
"""Validate a ps-serve telemetry spool directory from outside the binary.

Re-implements the seal and the telemetry block grammar (src/obs/
registry.h, a util/wire.h field walk) in stdlib Python, so CI can assert —
with no C++ in the loop — that the documents a daemon published are:

  * well-sealed: the trailing `checksum <hex64>` line is the FNV-1a digest
    of every body byte (util/seal.h);
  * well-formed: one `telemetry` block holding the four stamps, then the
    `counters`, `gauges` and `histograms` lists, one row per metric with a
    printable whitespace-free name, doubles as IEEE-754 hex bit patterns;
  * monotonic: seq strictly increases across documents, the monotonic
    stamp never goes backward, and no counter ever decreases — the
    registry's snapshot-consistency promise observed end to end.

Usage:
  tools/check_telemetry.py SPOOL_DIR [--min-docs N] \
      [--require-counter NAME[=MIN] ...]

--require-counter asserts the *final* document carries the named counter
(optionally with value >= MIN) — how CI pins down that a chaos leg
actually exercised a path (e.g. serve.quarantine.docs=3) instead of
passing vacuously.

SPOOL_DIR may be the telemetry directory itself or a spool root containing
telemetry/. Exit code 1 on any violation, 2 on usage errors.
"""

import argparse
import os
import struct
import sys

FNV_OFFSET = 0xcbf29ce484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1


def fnv1a(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    return h


def open_document(text: bytes) -> str:
    """Verifies and strips the trailing checksum line; returns the body."""
    lines = text.split(b"\n")
    if len(lines) < 2 or lines[-1] != b"" or not lines[-2].startswith(b"checksum "):
        raise ValueError(f"unsealed or truncated (no checksum line)")
    seal_line = lines[-2]
    body = text[: len(text) - len(seal_line) - 1]
    want = seal_line.split()[1].decode()
    got = format(fnv1a(body), "016x")
    if want != got:
        raise ValueError(f"checksum mismatch (want {want}, got {got})")
    return body.decode()


def f64(token: str) -> float:
    """A double's IEEE-754 bit pattern as 16 lowercase hex digits."""
    if len(token) != 16 or token.strip("0123456789abcdef"):
        raise ValueError(f"malformed hex64 {token!r}")
    return struct.unpack("<d", struct.pack("<Q", int(token, 16)))[0]


def parse_telemetry(body: str) -> dict:
    """Reads the fields in the exact order the C++ walk writes them."""
    lines = iter(body.splitlines())

    def field(key):
        line = next(lines, None)
        if line is None:
            raise ValueError(f"truncated before {key!r}")
        got, _, rest = line.partition(" ")
        if got != key:
            raise ValueError(f"expected {key!r}, found {line[:40]!r}")
        return rest

    def rows(list_key, row_key, width):
        metrics = {}
        for _ in range(int(field(list_key))):
            tokens = field(row_key).split(" ")
            if len(tokens) != width:
                raise ValueError(f"{row_key} row wants {width} tokens")
            if not all("!" <= c <= "~" for c in tokens[0]):
                raise ValueError(f"invalid metric name {tokens[0]!r}")
            metrics[tokens[0]] = tokens[1:]
        return metrics

    kind, _, version = field("begin").partition(" v")
    if kind != "telemetry" or not version.isdigit():
        raise ValueError(f"missing 'begin telemetry v<N>' header")
    doc = {key: int(field(key))
           for key in ("seq", "wall_ns", "mono_ns", "sim_time_ms")}
    doc["counters"] = {metric: int(value) for metric, (value,)
                       in rows("counters", "counter", 2).items()}
    doc["gauges"] = {metric: f64(value) for metric, (value,)
                     in rows("gauges", "gauge", 2).items()}
    doc["hists"] = {metric: [int(count)] + [f64(t) for t in stats]
                    for metric, (count, *stats)
                    in rows("histograms", "hist", 8).items()}
    if field("end") != "telemetry" or any(line.strip() for line in lines):
        raise ValueError(f"content after the telemetry block")
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir", help="telemetry directory (or spool root)")
    parser.add_argument("--min-docs", type=int, default=1,
                        help="fail unless at least this many documents exist")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME[=MIN]",
                        help="fail unless the final document carries this "
                             "counter (>= MIN when given); repeatable")
    args = parser.parse_args()

    requirements = []
    for spec in args.require_counter:
        name, _, floor = spec.partition("=")
        try:
            requirements.append((name, int(floor) if floor else 0))
        except ValueError:
            print(f"FAIL: bad --require-counter spec {spec!r}")
            return 2

    tel_dir = args.dir
    nested = os.path.join(tel_dir, "telemetry")
    if os.path.isdir(nested):
        tel_dir = nested
    if not os.path.isdir(tel_dir):
        print(f"FAIL: {tel_dir} is not a directory")
        return 2

    names = sorted(n for n in os.listdir(tel_dir) if n.endswith(".tel"))
    if len(names) < args.min_docs:
        print(f"FAIL: {len(names)} telemetry document(s) in {tel_dir}, "
              f"wanted >= {args.min_docs}")
        return 1

    violations = 0
    prev = None
    for name in names:
        with open(os.path.join(tel_dir, name), "rb") as f:
            raw = f.read()
        try:
            doc = parse_telemetry(open_document(raw))
        except ValueError as error:
            print(f"FAIL: {name}: {error}")
            violations += 1
            continue
        if prev is not None:
            if doc["seq"] <= prev["seq"]:
                print(f"FAIL: {name}: seq {doc['seq']} <= previous {prev['seq']}")
                violations += 1
            if doc["mono_ns"] < prev["mono_ns"]:
                print(f"FAIL: {name}: monotonic stamp went backward")
                violations += 1
            for cname, value in doc["counters"].items():
                before = prev["counters"].get(cname)
                if before is not None and value < before:
                    print(f"FAIL: {name}: counter {cname} decreased "
                          f"({before} -> {value})")
                    violations += 1
        prev = doc

    for name, floor in requirements:
        if prev is None or name not in prev["counters"]:
            print(f"FAIL: final document is missing required counter {name}")
            violations += 1
        elif prev["counters"][name] < floor:
            print(f"FAIL: counter {name} = {prev['counters'][name]} "
                  f"< required minimum {floor}")
            violations += 1

    if violations:
        print(f"\nFAIL: {violations} telemetry violation(s) across {len(names)} document(s)")
        return 1
    print(f"telemetry check: {len(names)} sealed document(s), stamps and "
          f"counters monotonic")
    return 0


if __name__ == "__main__":
    sys.exit(main())
