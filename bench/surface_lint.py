#!/usr/bin/env python3
"""List the exports of lib/ that nothing outside their own module calls.

From the root of a checkout:

    python3 bench/surface_lint.py

Every top-level `val` of every lib/**/*.mli is an export.  The script reads
the .ml files under lib, bin, bench, perfbench, examples and test, and
credits an export with a caller for each reference to it from a file that
is not its own module's.  A reference is a qualified name (`Machine.run`,
`Epic_sim.Machine.run`) or a bare name in a file that opens the module
(`open M`, `let open M in`, `M.( ... )`).  Module names resolve through the
file's own library, the libraries it opens, `module X = M` aliases and
`include M`.  Scoping is per file, not per expression, so a name can be
credited with a caller it does not have; never the reverse.

An export whose only callers are in test/ (or that has none) is uncalled.
Each one must be listed in bench/surface_allowlist.txt, in a paragraph that
starts with the `#` lines giving its reason: the test seams the tests drive
on purpose.  The script exits 1 if an uncalled export is not listed (it
prints the export and its test callers), or if a listed one has gained a
caller or no longer exists.
"""

import os
import re
import sys

CALLER_DIRS = ["lib", "bin", "bench", "perfbench", "examples"]
TEST_DIRS = ["test"]
ALLOWLIST = os.path.join("bench", "surface_allowlist.txt")

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def tokens(src):
    """The identifiers, dotted paths and punctuation of an OCaml source, with
    comments, strings and character literals skipped.  A dotted path comes
    out as one token, e.g. `Epic_sim.Machine.run`."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if src.startswith("(*", i):
                    depth, i = depth + 1, i + 2
                elif src.startswith("*)", i):
                    depth, i = depth - 1, i + 2
                elif src[i] == '"':
                    i = skip_string(src, i)
                else:
                    i += 1
        elif c == '"':
            i = skip_string(src, i)
        elif c == "{" and re.match(r"\{[a-z_]*\|", src[i:]):
            tag = re.match(r"\{([a-z_]*)\|", src[i:]).group(1)
            end = src.find("|" + tag + "}", i)
            i = n if end < 0 else end + len(tag) + 2
        elif c == "'":
            m = re.match(r"'(\\[\\'\"ntbr ]|\\[0-9]{3}|\\x[0-9a-fA-F]{2}|[^\\'])'", src[i:])
            i += len(m.group(0)) if m else 1
        elif c.isalpha() or c == "_":
            m = IDENT.match(src, i)
            path, i = m.group(0), m.end()
            # Continue a path through `.Ident` while its last part is a
            # module name (capitalised).
            while path.split(".")[-1][0].isupper() and i < n and src[i] == ".":
                m = IDENT.match(src, i + 1)
                if not m:
                    break
                path, i = path + "." + m.group(0), m.end()
            out.append(path)
        elif c.isdigit():
            m = re.match(r"[0-9][0-9a-zA-Z_.]*", src[i:])
            i += len(m.group(0))
        elif c.isspace():
            i += 1
        else:
            out.append(c)
            i += 1
    return out


def skip_string(src, i):
    i += 1
    while i < len(src) and src[i] != '"':
        i += 2 if src[i] == "\\" else 1
    return i + 1


def library_of(directory):
    """The library a directory's dune file defines, or None."""
    try:
        with open(os.path.join(directory, "dune")) as f:
            m = re.search(r"\(library\s+\(name\s+([a-z_0-9]+)\)", f.read())
    except OSError:
        return None
    return m.group(1).capitalize() if m else None


def source_files(dirs, ext):
    for top in dirs:
        for root, subdirs, files in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs if not d.startswith(("_", ".")))
            for name in sorted(files):
                if name.endswith(ext):
                    yield os.path.join(root, name)


def module_name(path):
    return os.path.basename(path).rsplit(".", 1)[0].capitalize()


class Project:
    def __init__(self):
        self.libs = {}  # library -> set of module names
        self.exports = {}  # (library, module) -> set of value names
        for mli in source_files(["lib"], ".mli"):
            lib = library_of(os.path.dirname(mli))
            if lib is not None:
                vals = re.findall(r"^val\s+([a-z_][A-Za-z0-9_']*)\s*:", read(mli), re.M)
                self.exports[(lib, module_name(mli))] = set(vals)
        for ml in source_files(["lib"], ".ml"):
            lib = library_of(os.path.dirname(ml))
            if lib is not None:
                self.libs.setdefault(lib, set()).add(module_name(ml))
        # `include M` at the top level of a library module: its callers'
        # references to the includer are references to M.
        self.includes = {}
        for ml in source_files(["lib"], ".ml"):
            lib = library_of(os.path.dirname(ml))
            scope = Scope(self, lib, tokens(read(ml)))
            for target in scope.included:
                self.includes.setdefault((lib, module_name(ml)), set()).add(target)

    def expand(self, module):
        """A module and, transitively, every module it includes."""
        seen, todo = set(), [module]
        while todo:
            m = todo.pop()
            if m not in seen:
                seen.add(m)
                todo.extend(self.includes.get(m, ()))
        return seen


class Scope:
    """The module names one file can see, and the modules it opens."""

    def __init__(self, project, lib, toks):
        self.project = project
        self.aliases = {}
        self.libs_open = [lib] if lib else []
        self.modules_open = set()
        self.included = set()
        self.toks = toks
        for k, t in enumerate(toks):
            nxt = toks[k + 1] if k + 1 < len(toks) else ""
            if t == "module" and k + 3 < len(toks) and toks[k + 2] == "=":
                target = toks[k + 3]
                if target[:1].isupper() and toks[k + 4 : k + 5] != ["("]:
                    self.aliases[toks[k + 1]] = target
            elif t in ("open", "include") or (t == "!" and toks[k - 1] == "open"):
                if nxt == "!":
                    continue
                if nxt[:1].isupper():
                    self.open(nxt, include=(t == "include"))
        # Local opens `M.( ... )` read as a path followed by `.` `(`, which
        # the tokenizer leaves as the punctuation `.` after the path.
        for k, t in enumerate(toks[:-2]):
            if t[:1].isupper() and toks[k + 1] == "." and toks[k + 2] in ("(", "{", "["):
                self.open(t)

    def open(self, path, include=False):
        for target in self.resolve(path):
            if isinstance(target, str):
                self.libs_open.append(target)
            else:
                self.modules_open.add(target)
                if include:
                    self.included.add(target)

    def resolve(self, path, depth=0):
        """The libraries (str) and (library, module) pairs a module path
        can name; empty if it names none of the project's."""
        parts = path.split(".")
        head, rest = parts[0], parts[1:]
        if head in self.aliases and depth < 8:
            return self.resolve(".".join([self.aliases[head]] + rest), depth + 1)
        libs = self.project.libs
        if head in libs:
            if not rest:
                return [head]
            return [(head, rest[0])] if rest[0] in libs[head] and len(rest) == 1 else []
        if rest:
            return []
        return [(lib, head) for lib in self.libs_open if head in libs.get(lib, ())]


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def references(project, path):
    """Every (library, module, value) the file at path may refer to."""
    lib = library_of(os.path.dirname(path))
    scope = Scope(project, lib, tokens(read(path)))
    refs = set()
    for t in scope.toks:
        if "." in t:
            module, value = t.rsplit(".", 1)
            if value[:1].isupper():
                continue
            for target in scope.resolve(module):
                if not isinstance(target, str):
                    refs.update((m, value) for m in project.expand(target))
        elif t[:1].islower() or t[:1] == "_":
            for target in scope.modules_open:
                refs.update((m, t) for m in project.expand(target))
    own = (lib, module_name(path)) if lib else None
    return {r for r in refs if r[0] != own}


def callers(project):
    """export -> (caller files outside test/, test files), for every export."""
    table = {(m, v): (set(), set()) for m, vals in project.exports.items() for v in vals}
    for side, dirs in ((0, CALLER_DIRS), (1, TEST_DIRS)):
        for ml in source_files(dirs, ".ml"):
            for ref in references(project, ml):
                if ref in table:
                    table[ref][side].add(ml)
    return table


def name(export):
    (lib, module), value = export
    return "%s.%s.%s" % (lib, module, value)


def read_allowlist(path):
    """The allowlist's entries.  Each group of entries is a paragraph that
    starts with the `#` lines giving its reason."""
    entries, has_reason = set(), False
    for lineno, line in enumerate(read(path).splitlines(), 1):
        line = line.strip()
        if not line:
            has_reason = False
        elif line.startswith("#"):
            has_reason = True
        else:
            if not has_reason:
                sys.exit("%s:%d: entry %s has no reason above it" % (path, lineno, line))
            entries.add(line)
    return entries


def main():
    project = Project()
    table = callers(project)
    uncalled = {name(e): sorted(t) for e, (c, t) in table.items() if not c}
    allowed = read_allowlist(ALLOWLIST)
    new = sorted(n for n in uncalled if n not in allowed)
    exists = {name(e) for e in table}
    stale = sorted(n for n in allowed if n not in uncalled)
    for n in new:
        print("uncalled export, not in %s: %s (test callers: %s)" % (ALLOWLIST, n, " ".join(uncalled[n]) or "none"))
    for n in stale:
        why = "has a caller now" if n in exists else "no longer exists"
        print("stale entry in %s: %s (%s)" % (ALLOWLIST, n, why))
    print("%d exports, %d without a caller outside their module and test/, %d allowlisted" % (len(table), len(uncalled), len(allowed)))
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
