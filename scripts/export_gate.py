#!/usr/bin/env python3
"""Export gate: every value a library interface exports needs a
production caller or an allowlist entry that says why it stays.

Usage: python3 scripts/export_gate.py [--list]   (from anywhere)

The scan takes each `val NAME` in lib/**/*.mli, and each module in lib
that has no .mli, and looks for the name in every .ml under lib, bin,
bench, perfbench and examples, except the value's own module.  A name
found nowhere there has no production caller: tests do not count.

scripts/export_allowlist.txt holds one `Module.value reason` per line
(`Module reason` for a module without an interface); blank lines and
lines starting with `#` are skipped.  The gate fails on an exported
value with no production caller and no entry, and on a stale entry: one
whose value is no longer exported or now has a production caller.
`--list` prints every value without a production caller and exits 0.

The match is by name only, so it undercounts: a value is taken as
called when any production file mentions the same identifier, whether
or not it refers to that module's value (a common name like `create`
or `length` is always "called").  Comments and string literals are
skipped.
"""

import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
PRODUCTION = ["lib", "bin", "bench", "perfbench", "examples"]
ALLOWLIST = os.path.join(ROOT, "scripts", "export_allowlist.txt")


def sources(dirs, ext):
    out = []
    for d in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [n for n in dirnames if not n.startswith("_build")]
            out.extend(
                os.path.join(dirpath, f) for f in filenames if f.endswith(ext)
            )
    return sorted(out)


def code_only(text):
    """The text with OCaml comments and string/char literals blanked."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            # strings are lexed inside comments too
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
        elif c == "'" and i + 2 < n and (text[i + 1] == "\\" or text[i + 2] == "'"):
            # a char literal; a lone quote is a type variable or a prime
            j = text.index("'", i + 3) if text[i + 1] == "\\" else i + 2
            i = j + 1
        else:
            if not depth:
                out.append(c)
            i += 1
    return "".join(out)


def module_name(path):
    base = os.path.basename(path)
    return base[: base.rindex(".")].capitalize()


def exported():
    """(module, value, own .ml path) for every export, values first."""
    for mli in sources(["lib"], ".mli"):
        mod = module_name(mli)
        for m in re.finditer(
            r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", code_only(open(mli).read()), re.M
        ):
            yield mod, m.group(1), mli[:-1]
    for ml in sources(["lib"], ".ml"):
        if not os.path.exists(ml + "i"):
            yield module_name(ml), None, ml


def unused(prod):
    """Exports with no production caller, as `Module.value` / `Module`."""
    out = []
    for mod, value, own in exported():
        name = value if value else mod
        word = re.compile(r"(?<![A-Za-z0-9_'])" + re.escape(name) + r"(?![A-Za-z0-9_'])")
        if not any(word.search(text) for path, text in prod.items() if path != own):
            out.append(f"{mod}.{value}" if value else mod)
    return out


def main():
    prod = {p: code_only(open(p).read()) for p in sources(PRODUCTION, ".ml")}
    found = unused(prod)
    if "--list" in sys.argv[1:]:
        print("\n".join(found))
        return 0
    allowed = {}
    for line in open(ALLOWLIST):
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, reason = line.partition(" ")
            if not reason.strip():
                print(f"export_gate: allowlist entry {key} gives no reason")
                return 1
            allowed[key] = reason
    exports = {f"{m}.{v}" if v else m for m, v, _ in exported()}
    unlisted = [k for k in found if k not in allowed]
    stale = sorted(k for k in allowed if k not in found)
    for k in unlisted:
        print(f"export_gate: {k} is exported, has no production caller and "
              "no allowlist entry: delete it, drop it from its .mli, or "
              "list it with a reason")
    for k in stale:
        why = "now has a production caller" if k in exports else "is no longer exported"
        print(f"export_gate: stale allowlist entry {k}: it {why}")
    if unlisted or stale:
        return 1
    print(f"export_gate: {len(exports)} exports, {len(found)} without a "
          "production caller, all allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
