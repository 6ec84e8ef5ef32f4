#!/usr/bin/env python3
"""Export gate: every value a library interface exports needs a
production caller or an allowlist entry that says why it stays.

Usage: python3 scripts/export_gate.py [--list]   (from anywhere)

Exports.  Each `val NAME` in lib/**/*.mli is the export `Module.NAME`;
a `val` inside a nested `module X : sig ... end` is `Module.X.NAME`,
and one in a functor's result signature `Module.F.NAME`.  A `val`
inside a `module type` or a functor parameter's signature is not an
export.  A module in lib with no .mli is exported whole, as `Module`.

Production uses.  Every .ml under lib, bin, bench, perfbench and
examples is indexed once, with comments and string literals blanked;
tests do not count, nor does the value's own .ml.  In a file, a use of
`M.v` is:
  - the path `M.v` or `Lib.M.v` (`Lib` the library's dune name);
  - `X.v` after `module X = [Lib.]M` (or `let module`, or a functor
    application `module X = [Lib.]M.F (...)`, which makes `X.v` a use
    of `M.F.v`); aliases an interface declares (`module Mthd =
    Bytecode.Mthd` in layout.mli) resolve the same way;
  - a bare `v` anywhere in a file that opens `M` (`open`, `let open`,
    `M.( ... )`, `M.[ ... ]`, `M.{ ... }`, `include`).
Nested modules resolve by full path (`Config.Cache.v`).  A path after
a dot, `r.M.f`, is a record field, not a use.  A module exported whole
is used by any path through it.  The index is textual: a bare name in a
file that opens `M` counts even where a local binding shadows it, and a
type `M.t` counts as a use of a value `M.t`.

scripts/export_allowlist.txt holds one `Module.value reason` per line
(`Module reason` for a module without an interface); blank lines and
lines starting with `#` are skipped.  The gate fails on an exported
value with no production use and no entry, and on a stale entry: one
whose value is no longer exported or now has a production use.
`--list` prints every export without a production use and exits 0.
"""

import os
import re
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
PRODUCTION = ["lib", "bin", "bench", "perfbench", "examples"]
ALLOWLIST = os.path.join(ROOT, "scripts", "export_allowlist.txt")

UID = r"[A-Z][A-Za-z0-9_']*"
LID = r"[a-z_][A-Za-z0-9_']*"
PATH = rf"{UID}(?:\s*\.\s*{UID})*"
NOT_AFTER = r"(?<![A-Za-z0-9_'.])"
ALIAS = re.compile(rf"\bmodule\s+({UID})\s*=\s*({PATH})")
OPEN = re.compile(
    rf"\b(?:open!?|include)\s+({PATH})|{NOT_AFTER}({PATH})\s*\.\s*[(\[{{]"
)
VALUE_REF = re.compile(rf"{NOT_AFTER}({PATH})\s*\.\s*({LID})")
MODULE_REF = re.compile(rf"{NOT_AFTER}({PATH})\s*\.")
BARE = re.compile(rf"(?<![A-Za-z0-9_'.~?]){LID}")
MLI_TOKEN = re.compile(
    rf"\bmodule\s+type\s+{UID}|\bmodule\s+({UID})(?:\s*=\s*({PATH}))?"
    rf"|\b(sig|struct|object|begin|end)\b|\bval\s+({LID})|([()])"
)


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


def split(path):
    return tuple(re.split(r"\s*\.\s*", path))


def libraries():
    """Dune library name (capitalized, its wrapper module) per lib dir."""
    libs = {}
    for dune in sources(["lib"], "dune"):
        m = re.search(r"\(library\b.*?\(name\s+([A-Za-z0-9_]+)\)", open(dune).read(), re.S)
        if m:
            libs[os.path.dirname(dune)] = m.group(1).capitalize()
    return libs


def interface(mli):
    """(exports, aliases) of one .mli: the exported value paths below its
    module, and its `module X = Path` declarations as (X,) -> path."""
    exports, aliases = [], {}
    stack, pending, parens = [], None, 0  # stack: path of named sigs, or None
    for m in MLI_TOKEN.finditer(code_only(open(mli).read())):
        named, alias_to, word, val, paren = m.group(1, 2, 3, 4, 5)
        if paren:
            parens += 1 if paren == "(" else -1
        elif m.group(0).startswith("module") and not named:
            pending = None  # module type: its vals are not exports
        elif named:
            inside = None not in stack
            if alias_to and inside:
                aliases[tuple(stack) + (named,)] = split(alias_to)
            pending = (named, parens) if inside and not alias_to else None
        elif word == "sig":
            # a sig inside a functor's parentheses is a parameter's
            if pending and pending[1] == parens:
                stack.append(pending[0])
                pending = None
            else:
                stack.append(None)
        elif word == "end":
            if stack:
                stack.pop()
        elif word:
            stack.append(None)
        elif val:
            pending = None
            if None not in stack:
                exports.append(tuple(stack) + (val,))
    return exports, aliases


class Project:
    def __init__(self):
        self.libs = set(libraries().values())
        self.exports = []  # (path tuple, own .ml, whole module?)
        self.aliases = {}  # interface aliases, full path -> target
        self.modules = set()  # every known module path
        for ml in sources(["lib"], ".ml"):
            mod = module_name(ml)
            self.modules.add((mod,))
            if not os.path.exists(ml + "i"):
                self.exports.append(((mod,), ml, True))
                continue
            values, aliases = interface(ml + "i")
            for path in values:
                self.exports.append(((mod,) + path, ml, False))
                self.modules.update((mod,) + path[:k] for k in range(1, len(path)))
            for path, target in aliases.items():
                self.aliases[(mod,) + path] = target
                self.modules.add((mod,) + path)

    def resolve(self, parts, local, opens):
        """The module path `parts` names in a file, or None."""
        for _ in range(8):
            if parts and parts[0] in local:
                parts = local[parts[0]] + parts[1:]
                continue
            if parts and parts[0] in self.libs:
                parts = parts[1:]
            if not parts:
                return None
            if (parts[0],) not in self.modules:
                base = next((o for o in opens if o + parts[:1] in self.modules), None)
                if base is None:
                    return None
                parts = base + parts
            for k in range(len(parts), 1, -1):
                if parts[:k] in self.aliases:
                    parts = self.aliases[parts[:k]] + parts[k:]
                    break
            else:
                return parts
        return None

    def index(self, text):
        """(value paths used, modules used, modules opened, bare names)."""
        aliases = [(m.group(1), split(m.group(2))) for m in ALIAS.finditer(text)]
        local = {name: target for name, target in aliases if target != (name,)}
        opens = set()
        for m in OPEN.finditer(text):
            path = self.resolve(split(m.group(1) or m.group(2)), local, ())
            if path:
                opens.add(path)
        values, modules = set(), set()
        for m in VALUE_REF.finditer(text):
            path = self.resolve(split(m.group(1)), local, opens)
            if path:
                values.add(path + (m.group(2),))
        targets = [split(m.group(1)) for m in MODULE_REF.finditer(text)]
        for parts in targets + [target for _, target in aliases]:
            path = self.resolve(parts, local, opens)
            if path:
                modules.add(path[0])
        modules.update(path[0] for path in opens)
        bare = set(BARE.findall(text)) if opens else set()
        return values, modules, opens, bare


def unused(project):
    """Exports with no production use, as `Module.value` / `Module`."""
    files = {
        p: project.index(code_only(open(p).read())) for p in sources(PRODUCTION, ".ml")
    }

    def uses(path, whole, index):
        values, modules, opens, bare = index
        if whole:
            return path[0] in modules
        return path in values or (path[:-1] in opens and path[-1] in bare)

    out = []
    for path, own, whole in project.exports:
        if not any(uses(path, whole, ix) for p, ix in files.items() if p != own):
            out.append(".".join(path))
    return out


def main():
    project = Project()
    found = unused(project)
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
    exports = {".".join(path) for path, _, _ in project.exports}
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
