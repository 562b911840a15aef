"""drx_verify — whole-program lock-order / error-discipline / layering /
DRX-invariant analyzer for the drx tree.

Usage:
    python3 scripts/drx_verify [--root DIR] [--src-root SUBDIR]
                               [--hierarchy docs/LOCK_ORDER.md]
                               [--json OUT.json] [--text OUT.txt]
                               [--strict] [-q]

Exit codes:
    0  no unsuppressed findings
    1  findings (or, with --strict, suppressions lacking justification)
    2  usage error
    3  malformed input (unreadable source, hierarchy doc)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from hierarchy import HierarchyError, load as load_hierarchy
from passes import build_program, run_all
from report import (apply_suppressions, exit_code, render_json, render_text,
                    scan_suppressions)
from source_frontend import SourceFrontend

EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="drx_verify", add_help=True)
    p.add_argument("--root", type=Path, default=Path.cwd(),
                   help="repository root (default: cwd)")
    p.add_argument("--src-root", default="src",
                   help="subtree to analyze, relative to --root")
    p.add_argument("--hierarchy", type=Path, default=None,
                   help="lock hierarchy doc (default: ROOT/docs/LOCK_ORDER.md)")
    p.add_argument("--json", type=Path, default=None,
                   help="write findings as JSON to this path")
    p.add_argument("--text", type=Path, default=None,
                   help="write the text report to this path")
    p.add_argument("--strict", action="store_true",
                   help="suppressions must carry a written justification")
    p.add_argument("-q", "--quiet", action="store_true")
    try:
        return p.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        raise SystemExit(EXIT_USAGE if e.code not in (0, None) else 0)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    hierarchy_path = args.hierarchy or (root / "docs" / "LOCK_ORDER.md")
    src_root = root / args.src_root
    if not src_root.is_dir():
        print(f"drx_verify: no such subtree: {src_root}", file=sys.stderr)
        return EXIT_USAGE

    try:
        hier = load_hierarchy(hierarchy_path)
    except HierarchyError as e:
        print(f"drx_verify: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        facts = SourceFrontend(root).parse_tree(args.src_root)
    except (OSError, UnicodeDecodeError) as e:
        print(f"drx_verify: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT

    sup = scan_suppressions(root, facts.files())
    prog = build_program(facts, hier)
    findings = run_all(prog, sup.module_overrides, set(sup.by_site))
    apply_suppressions(findings, sup)

    text = render_text(findings, args.strict)
    if not args.quiet:
        print(text)
    if args.text is not None:
        args.text.parent.mkdir(parents=True, exist_ok=True)
        args.text.write_text(text + "\n", encoding="utf-8")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(render_json(findings), encoding="utf-8")

    return exit_code(findings, args.strict)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
