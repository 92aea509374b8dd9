#!/usr/bin/env python3
"""Doc-comment lint for public C++ headers.

Walks the given files/directories (headers: *.hpp) and requires a
Doxygen-style `///` comment on every public declaration that carries
API meaning:

  * type definitions (class / struct / enum) at namespace scope or in a
    public/protected class section — forward declarations are exempt;
  * using-aliases in those scopes;
  * function declarations in those scopes.

Exempt by design (self-describing or structural): constructors,
destructors, operators, `= default` / `= delete` declarations, friend
declarations, data members, enumerators, namespace-scope constants,
and anything in a private section. A declaration also counts as
documented if its own line carries a trailing `///<` comment.

The check is a line-based heuristic tuned to this repository's style
(Core Guidelines formatting, clang-format discipline); it is wired
into CTest as `doc_comments` so an undocumented public symbol in any
linted src/ directory fails the suite. Exit status: 0 clean, 1 with one
`file:line: symbol` diagnostic per missing doc.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

DOC_RE = re.compile(r"^\s*///(?!<)")
TRAILING_DOC_RE = re.compile(r"///<")
TEMPLATE_RE = re.compile(r"^\s*template\s*<")
# Statement text that is only template headers / attributes so far — the
# real declaration is still to come on a later line.
PREFIX_ONLY_RE = re.compile(r"^\s*(?:template\s*<[^<>]*>\s*|\[\[[^\]]*\]\]\s*)*$")
ATTR_RE = re.compile(r"^\s*\[\[[^\]]*\]\]\s*$")
ACCESS_RE = re.compile(r"^\s*(public|protected|private)\s*:")
TYPE_RE = re.compile(
    r"^\s*(?:template\s*<[^<>]*>\s*)?"
    r"(class|struct|enum\s+class|enum\s+struct|enum)\s+"
    r"(?:\[\[[^\]]*\]\]\s*)?"
    r"(?P<name>[A-Za-z_][\w:]*)"
)
USING_RE = re.compile(r"^\s*using\s+(?P<name>[A-Za-z_]\w*)\s*=")
FUNC_RE = re.compile(r"(?P<name>~?[A-Za-z_][\w:]*)\s*\(")
NOT_FUNCS = {
    "if", "for", "while", "switch", "return", "sizeof", "static_assert",
    "catch", "alignof", "decltype", "noexcept", "assert", "defined",
    "requires",
    # Fundamental-type tokens: `void (*fp)(...)` is a function-pointer
    # data member, not a function named `void`.
    "void", "bool", "char", "int", "unsigned", "signed", "long", "short",
    "float", "double", "auto",
}


def strip_block_comments(text: str) -> str:
    """Blank out /* ... */ contents, preserving line structure."""
    out: list[str] = []
    i = 0
    while i < len(text):
        start = text.find("/*", i)
        if start < 0:
            out.append(text[i:])
            break
        out.append(text[i:start])
        end = text.find("*/", start + 2)
        if end < 0:
            break
        out.append("".join(c if c == "\n" else " " for c in text[start:end + 2]))
        i = end + 2
    return "".join(out)


def strip_strings(line: str) -> str:
    """Blank out string/char literal contents so braces in them are inert."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|' + r"'(?:[^'\\]|\\.)*'", '""', line)


class Scope:
    def __init__(self, kind: str, access: str = "public", visible: bool = True) -> None:
        self.kind = kind      # namespace | class | enum | block
        self.access = access  # meaningful for kind == class
        # False when the scope itself sits in a private section (a
        # nested helper struct's members are not public API even though
        # the struct defaults its own members to public).
        self.visible = visible


def classify_scope(stmt: str) -> Scope:
    if re.search(r"\bnamespace\b", stmt):
        return Scope("namespace")
    m = TYPE_RE.match(stmt.strip())
    if m:
        kw = m.group(1)
        if kw.startswith("enum"):
            return Scope("enum")
        return Scope("class", "private" if kw == "class" else "public")
    return Scope("block")


def has_doc_above(lines: list[str], idx: int, name: str | None = None) -> bool:
    """True if, skipping template/attribute lines, line idx-1 is a ///.

    When `name` is given, declarations of the same name directly above
    are skipped too, so one doc comment covers a const/non-const or
    overload group.
    """
    j = idx - 1
    while j >= 0:
        if TEMPLATE_RE.match(lines[j]) or ATTR_RE.match(lines[j]):
            j -= 1
            continue
        if name is not None:
            m = FUNC_RE.search(lines[j])
            if m and m.group("name") == name and not DOC_RE.match(lines[j]):
                j -= 1
                continue
        break
    return j >= 0 and bool(DOC_RE.match(lines[j]))


def check_file(path: Path) -> list[str]:
    raw = strip_block_comments(path.read_text())
    lines = raw.splitlines()
    problems: list[str] = []

    # File scope behaves like a namespace (matters for the std::hash
    # specializations that sit outside the project namespace).
    stack: list[Scope] = [Scope("namespace")]
    stmt = ""          # statement text accumulated since the last boundary
    stmt_line = -1     # line where the current statement started
    # Pending type definition: (line, name) — resolved as a real
    # definition (needs doc) at `{`, or as a forward declaration
    # (exempt) at `;`.
    pending_type: tuple[int, str] | None = None

    def in_documented_scope() -> bool:
        top = stack[-1]
        if not top.visible:
            return False
        if top.kind == "namespace":
            return True
        return top.kind == "class" and top.access in ("public", "protected")

    def flag(line_idx: int, name: str, group: bool = False) -> None:
        if has_doc_above(lines, line_idx, name if group else None):
            return
        if TRAILING_DOC_RE.search(lines[line_idx]):
            return
        problems.append(f"{path}:{line_idx + 1}: missing /// doc for '{name}'")

    def begin_statement(code: str, line_idx: int) -> None:
        nonlocal pending_type
        if not in_documented_scope():
            return
        s = code.strip()
        if not s or s.startswith("#") or s.startswith("//"):
            return
        if ACCESS_RE.match(s) or s.startswith("friend "):
            return
        m = TYPE_RE.match(s)
        if m:
            pending_type = (line_idx, m.group("name"))
            return
        m = USING_RE.match(s)
        if m:
            flag(line_idx, m.group("name"))
            return
        if "= default" in s or "= delete" in s:
            return
        m = FUNC_RE.search(s)
        if m:
            name = m.group("name")
            bare = name.lstrip("~").split("::")[-1].split("<")[0]
            if bare in NOT_FUNCS or name.startswith("~"):
                return
            if "operator" in s.split("(")[0]:
                return
            enclosing = stack[-1]
            if enclosing.kind == "class" and bare == getattr(enclosing, "name", None):
                return  # constructor
            # Constructor detection without tracking names: the callee
            # token is also the first token of the declaration (no
            # return type), e.g. "Table(std::vector<std::string> headers)" or
            # "explicit Rng(std::uint64_t seed)".
            first = s.replace("explicit", "").replace("constexpr", "").strip()
            if first.startswith(name + "("):
                return
            flag(line_idx, name, group=True)

    for line_idx, raw_line in enumerate(lines):
        line = strip_strings(raw_line)
        # Drop trailing // comments (but keep the code before them).
        cut = line.find("//")
        code = line[:cut] if cut >= 0 else line

        pos = 0
        while pos < len(code):
            boundary = None
            for k, ch in enumerate(code[pos:], start=pos):
                if ch in "{};":
                    boundary = (k, ch)
                    break
            if boundary is None:
                fragment = code[pos:]
                if PREFIX_ONLY_RE.match(stmt) and fragment.strip():
                    begin_statement(fragment, line_idx)
                    stmt_line = line_idx
                stmt += fragment
                break

            k, ch = boundary
            fragment = code[pos:k]
            if PREFIX_ONLY_RE.match(stmt) and fragment.strip():
                begin_statement(fragment, line_idx)
                stmt_line = line_idx
            stmt += fragment

            if ch == "{":
                if pending_type is not None and in_documented_scope():
                    flag(*pending_type)
                pending_type = None
                child = classify_scope(stmt)
                child.visible = in_documented_scope()
                stack.append(child)
            elif ch == "}":
                if len(stack) > 1:
                    stack.pop()
            else:  # ';'
                pending_type = None  # forward declaration: exempt
            # Access labels inside the statement (handled via ACCESS_RE on
            # fragments) — also catch "public:" fused with code flow.
            acc = ACCESS_RE.match(stmt.strip())
            if acc and stack[-1].kind == "class":
                stack[-1].access = acc.group(1)
            stmt = ""
            stmt_line = -1
            pos = k + 1

        # A line that is only an access label never hits a boundary char
        # other than ':' — handle it directly.
        acc = ACCESS_RE.match(line)
        if acc and stack[-1].kind == "class":
            stack[-1].access = acc.group(1)
            stmt = ""

    return problems


def collect(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.hpp")))
        else:
            files.append(path)
    return files


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: check_doc_comments.py <header-or-dir>...", file=sys.stderr)
        return 2
    problems: list[str] = []
    files = collect(argv[1:])
    for f in files:
        problems.extend(check_file(f))
    for p in problems:
        print(p)
    if problems:
        print(f"check_doc_comments: {len(problems)} undocumented public "
              f"declaration(s) across {len(files)} header(s)", file=sys.stderr)
        return 1
    print(f"check_doc_comments: {len(files)} header(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
