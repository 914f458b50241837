#!/usr/bin/env python3
"""Shipping-surface gate: every library function must be linked by a
shipping binary, or be an allowlisted test seam.

    tools/check_dead_code.py BUILD_DIR

Configures and builds the project (tests, benches, examples) into
BUILD_DIR/project and perfbench/ (psbench, perfbench_serve) into
BUILD_DIR/perfbench, both at -O0 -ffunction-sections -fdata-sections and
linked with -Wl,--gc-sections, NDEBUG kept as in a Release build. -O0 is
what makes the measurement sound: at -O2 GCC inlines same-file callers even
under -fno-inline-functions, so a function whose only caller was inlined
into it looks unlinked. psbench is required: some library entry points
(core::make_daily_cap_windows) are linked by no other non-test target.

The library's functions are the strong (`T`) `_ZN2ps`/`_ZNK2ps` symbols
of libps.a; a binary links a function when its `nm --defined-only` lists
it. Names are compared demangled, with GCC's `.cold`/`.part.N`/
`.constprop.N`/`.isra.N` clone suffixes stripped, so constructor and
destructor variants (C1/C2, D0/D1/D2) count as one function. Shipping
binaries are every executable except the `*_test` ones.

Fails (exit 1) when:
  * a library function is linked by no binary at all;
  * a function linked only by `*_test` binaries is not in the allowlist
    (tools/dead_code_allowlist.txt);
  * an allowlist entry is stale: a shipping binary links it, or the
    library no longer defines it.

Blind spot: header-inline code (inline functions, templates, in-class
member definitions) is emitted weak into each user's object, never as a
strong library symbol, so this gate does not see it.

Allowlist lines are `<demangled signature> | (<reason>) <why>`, where the
reason is one of:
  (a) an audit seam that checks a library structure against a reference;
  (b) a reference that a named test compares against;
  (c) a record entry point the pinned-bytes and hostile-input tests drive.
"""

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALLOWLIST = os.path.join(HERE, "dead_code_allowlist.txt")
FLAGS = "-O0 -DNDEBUG -ffunction-sections -fdata-sections"
LIB_PREFIXES = ("_ZN2ps", "_ZNK2ps")
CLONE_SUFFIX = re.compile(r"(\.(cold|part|constprop|isra)(\.\d+)?)+$")
ENTRY = re.compile(r"^(.*\S) \| \(([abc])\) \S")


def run(cmd):
    subprocess.run(cmd, check=True, stdout=sys.stderr)


def build(source, build_dir, targets):
    run(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         f"-DCMAKE_CXX_FLAGS_RELEASE={FLAGS}",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"])
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", build_dir, "-j", jobs] +
        sum((["--target", t] for t in targets), []))


def nm_symbols(path, strong_only):
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    symbols = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) != 3 or (strong_only and fields[1] != "T"):
            continue
        name = CLONE_SUFFIX.sub("", fields[2])
        if name.startswith(LIB_PREFIXES):
            symbols.add(name)
    return symbols


def demangle(mangled):
    ordered = sorted(mangled)
    out = subprocess.run(["c++filt"], input="\n".join(ordered), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(ordered, out))


def executables(directory):
    found = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not (os.path.isfile(path) and os.access(path, os.X_OK)):
            continue
        with open(path, "rb") as f:
            if f.read(4) == b"\x7fELF":
                found[name] = path
    return found


def read_allowlist():
    entries, errors = {}, []
    with open(ALLOWLIST, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            match = ENTRY.match(line)
            if not match:
                errors.append(f"allowlist line {lineno}: want "
                              f"'<signature> | (a|b|c) <reason>': {line}")
            elif match.group(1) in entries:
                errors.append(f"allowlist line {lineno}: duplicate {match.group(1)}")
            else:
                entries[match.group(1)] = lineno
    return entries, errors


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: tools/check_dead_code.py BUILD_DIR")
    out = os.path.abspath(sys.argv[1])
    project = os.path.join(out, "project")
    perfbench = os.path.join(out, "perfbench")
    build(ROOT, project, ["all"])
    build(os.path.join(ROOT, "perfbench"), perfbench,
          ["psbench", "perfbench_serve"])

    library = nm_symbols(os.path.join(project, "libps.a"), strong_only=True)
    binaries = executables(project)
    for name in ("psbench", "perfbench_serve"):
        binaries[name] = os.path.join(perfbench, name)
    shipping, tests = set(), set()
    for name, path in binaries.items():
        (tests if name.endswith("_test") else shipping).update(
            nm_symbols(path, strong_only=False) & library)

    # Compared by demangled name: a function ships when any of its variants
    # (say, the D1 of a D0) does.
    names = demangle(library)
    defined = set(names.values())
    shipped = {names[s] for s in shipping}
    tested = {names[s] for s in tests}
    test_only = tested - shipped
    dead = sorted(defined - shipped - tested)

    allowed, errors = read_allowlist()
    errors += [f"linked by no target: {n}" for n in dead]
    errors += [f"linked only by tests and not allowlisted: {n}"
               for n in sorted(test_only - set(allowed))]
    for entry, lineno in sorted(allowed.items(), key=lambda kv: kv[1]):
        if entry not in defined:
            errors.append(f"stale allowlist line {lineno}: libps.a does not "
                          f"define {entry}")
        elif entry in shipped:
            errors.append(f"stale allowlist line {lineno}: a shipping binary "
                          f"links {entry}")

    print(f"libps.a: {len(defined)} functions; {len(shipped)} linked by a "
          f"shipping binary, {len(test_only)} only by tests "
          f"({len(allowed)} allowlisted), {len(dead)} by none")
    for error in errors:
        print("check_dead_code:", error)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
