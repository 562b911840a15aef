"""Parses docs/LOCK_ORDER.md into the declared lock hierarchy.

The doc is the single source of truth: the analyzer has no built-in
knowledge of the repo's locks. Four machine-readable markdown tables
are consumed (section headings are matched case-insensitively):

  ## Hierarchy            Domain | Level | May block | Self | Lock patterns | ...
  ## Callback entry contexts   Registrar | Held on entry | ...
  ## Blocking operations  Pattern | ...
  ## Layering             Module | Level | ...

`Lock patterns` cells hold one or more backtick-quoted regexes matched
against `<repo-relative-file>:<lock-expr>` (whitespace stripped from
the expr). When several domains match a site, the longest matching
pattern wins — file-qualified patterns therefore beat generic
fallbacks like `` `io_mu_` `` without depending on table order.

Rule of the hierarchy: acquiring domain B while holding domain A is
legal iff level(B) < level(A). Same-domain nesting is illegal unless
the domain's `Self` column says `pair` (only via a dedicated ordered
pair-locker, e.g. ShardPairLock) or `instance` (distinct instances
nested in a fixed parent/child direction).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

BACKTICK_RE = re.compile(r"`([^`]+)`")


class HierarchyError(Exception):
    """Malformed LOCK_ORDER.md (exit code 3 at the CLI)."""


@dataclass
class Domain:
    name: str
    level: int
    may_block: bool
    self_rule: str              # "no" | "pair" | "instance"
    patterns: list[re.Pattern] = field(default_factory=list)
    rationale: str = ""


@dataclass
class Hierarchy:
    domains: dict[str, Domain] = field(default_factory=dict)
    # registrar base name -> domains held when the registered callback runs
    callback_entry: dict[str, list[str]] = field(default_factory=dict)
    # (pattern over callee text, reason)
    blocking: list[tuple[re.Pattern, str]] = field(default_factory=list)
    # module name -> layer level (lower = more fundamental)
    modules: dict[str, int] = field(default_factory=dict)

    def resolve(self, file: str, lock_expr: str) -> Domain | None:
        """Maps an acquisition site to its declared domain."""
        expr = re.sub(r"\s+", "", lock_expr)
        site = f"{file}:{expr}"
        best: Domain | None = None
        best_len = -1
        for dom in self.domains.values():
            for pat in dom.patterns:
                if pat.search(site) and len(pat.pattern) > best_len:
                    best, best_len = dom, len(pat.pattern)
        return best

    def blocking_reason(self, callee: str) -> str | None:
        for pat, why in self.blocking:
            if pat.search(callee):
                return why
        return None


def _split_row(line: str) -> list[str]:
    cells = line.strip().strip("|").split("|")
    return [c.strip() for c in cells]


def _iter_tables(text: str):
    """Yields (section_title, header_cells, rows) for each markdown table."""
    section = ""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("#"):
            section = line.lstrip("#").strip().lower()
        elif line.lstrip().startswith("|") and i + 1 < len(lines) \
                and re.match(r"^\s*\|[\s:|-]+\|?\s*$", lines[i + 1]):
            header = [h.lower() for h in _split_row(line)]
            rows = []
            i += 2
            while i < len(lines) and lines[i].lstrip().startswith("|"):
                rows.append(_split_row(lines[i]))
                i += 1
            yield section, header, rows
            continue
        i += 1


def _col(header: list[str], prefix: str) -> int:
    for idx, name in enumerate(header):
        if name.startswith(prefix):
            return idx
    raise HierarchyError(f"hierarchy table missing column '{prefix}'")


def load(path: Path) -> Hierarchy:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise HierarchyError(f"cannot read {path}: {e}") from e

    h = Hierarchy()
    for section, header, rows in _iter_tables(text):
        if section.startswith("hierarchy"):
            c_dom = _col(header, "domain")
            c_lvl = _col(header, "level")
            c_blk = _col(header, "may block")
            c_self = _col(header, "self")
            c_pat = _col(header, "lock pattern")
            for row in rows:
                if len(row) <= max(c_dom, c_lvl, c_blk, c_self, c_pat):
                    raise HierarchyError(f"short hierarchy row: {row}")
                name = row[c_dom].strip("`")
                try:
                    level = int(row[c_lvl])
                except ValueError as e:
                    raise HierarchyError(
                        f"bad level for domain {name}: {row[c_lvl]}") from e
                self_rule = row[c_self].lower() or "no"
                if self_rule not in ("no", "pair", "instance"):
                    raise HierarchyError(
                        f"bad Self rule for {name}: {self_rule}")
                pats = []
                for p in BACKTICK_RE.findall(row[c_pat]):
                    try:
                        pats.append(re.compile(p))
                    except re.error as e:
                        raise HierarchyError(
                            f"bad pattern for {name}: {p}: {e}") from e
                if name in h.domains:
                    raise HierarchyError(f"duplicate domain {name}")
                h.domains[name] = Domain(
                    name=name, level=level,
                    may_block=row[c_blk].lower().startswith("y"),
                    self_rule=self_rule, patterns=pats,
                    rationale=row[-1])
        elif section.startswith("callback"):
            c_reg = _col(header, "registrar")
            c_held = _col(header, "held")
            for row in rows:
                reg = BACKTICK_RE.findall(row[c_reg])
                held = [d.strip("`") for d in BACKTICK_RE.findall(row[c_held])]
                for r in reg:
                    h.callback_entry[r] = held
        elif section.startswith("blocking"):
            c_pat = _col(header, "pattern")
            for row in rows:
                why = row[-1]
                for p in BACKTICK_RE.findall(row[c_pat]):
                    try:
                        h.blocking.append((re.compile(p), why))
                    except re.error as e:
                        raise HierarchyError(f"bad blocking pattern {p}: {e}") \
                            from e
        elif section.startswith("layering"):
            c_mod = _col(header, "module")
            c_lvl = _col(header, "level")
            for row in rows:
                name = row[c_mod].strip("`")
                try:
                    h.modules[name] = int(row[c_lvl])
                except ValueError as e:
                    raise HierarchyError(
                        f"bad layer level for {name}: {row[c_lvl]}") from e

    if not h.domains:
        raise HierarchyError(f"{path}: no '## Hierarchy' table found")
    # Validate the callback entry domains exist.
    for reg, held in h.callback_entry.items():
        for d in held:
            if d not in h.domains:
                raise HierarchyError(
                    f"callback '{reg}' names unknown domain '{d}'")
    return h
