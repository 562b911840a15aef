#!/usr/bin/env python3
"""ctest gate: drx_verify must flag every seeded corpus defect — and
nothing else.

The corpus under tests/verify/corpus/ is real, compiling C++ (built as
an OBJECT library by tests/CMakeLists.txt); each file seeds a known
defect class. This script pins the analyzer's recall (every seeded
defect found, with exact per-file counts), its precision (zero
findings beyond the seeded ones) and its suppressions (each justified
instance suppressed, with its reason), so a frontend, pass or rule
regression fails tier-1 immediately.

Usage: check_corpus.py [--root REPO_ROOT]
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

# (rule, file) -> exact expected finding count. Keep in sync with the
# "Expected findings" header comments in the corpus files.
EXPECTED = {
    ("lock-order", "tests/verify/corpus/lock_order_inversion.cpp"): 2,
    ("blocking-under-lock",
     "tests/verify/corpus/flush_under_shard_lock.cpp"): 2,
    ("error-discipline", "tests/verify/corpus/dropped_status.cpp"): 3,
    ("layering", "tests/verify/corpus/layering_violation.cpp"): 1,
    ("blocking-under-lock",
     "tests/verify/corpus/shard_lock_discipline.cpp"): 1,
    ("lock-order", "tests/verify/corpus/shard_lock_discipline.cpp"): 1,
    ("blocking-under-lock", "tests/verify/corpus/buffer_alloc.cpp"): 1,
    ("raw-sync-primitive", "tests/verify/corpus/sync_primitives.cpp"): 1,
    ("unannotated-mutex-member",
     "tests/verify/corpus/sync_primitives.cpp"): 1,
    ("hot-path-obs-guard", "tests/verify/corpus/call_rules.cpp"): 1,
    ("axial-mutation", "tests/verify/corpus/call_rules.cpp"): 1,
    ("pool-submit-opctx", "tests/verify/corpus/call_rules.cpp"): 2,
    ("element-granular-copy", "tests/verify/corpus/copy_plan.cpp"): 1,
}

# (rule, file) -> exact count of justified suppressions in the corpus.
EXPECTED_SUPPRESSED = {
    ("blocking-under-lock", "tests/verify/corpus/buffer_alloc.cpp"): 1,
    ("raw-sync-primitive", "tests/verify/corpus/sync_primitives.cpp"): 1,
    ("unannotated-mutex-member",
     "tests/verify/corpus/sync_primitives.cpp"): 1,
    ("hot-path-obs-guard", "tests/verify/corpus/call_rules.cpp"): 1,
    ("axial-mutation", "tests/verify/corpus/call_rules.cpp"): 1,
    ("pool-submit-opctx", "tests/verify/corpus/call_rules.cpp"): 1,
    ("element-granular-copy", "tests/verify/corpus/copy_plan.cpp"): 1,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[2])
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "findings.json"
        proc = subprocess.run(
            [sys.executable, str(args.root / "scripts" / "drx_verify"),
             "--root", str(args.root),
             "--src-root", "tests/verify/corpus",
             "--json", str(out), "-q"],
            capture_output=True, text=True)
        if proc.returncode != 1:
            print(f"FAIL: expected exit 1 (findings present), got "
                  f"{proc.returncode}\nstdout: {proc.stdout}\n"
                  f"stderr: {proc.stderr}")
            return 1
        payload = json.loads(out.read_text(encoding="utf-8"))

    got: dict = {}
    got_suppressed: dict = {}
    failed = False
    for f in payload["findings"]:
        key = (f["rule"], f["file"])
        if f["suppressed"]:
            got_suppressed[key] = got_suppressed.get(key, 0) + 1
            if not f["suppress_reason"]:
                failed = True
                print(f"FAIL: suppression without a reason: {f}")
        else:
            got[key] = got.get(key, 0) + 1

    for label, expected, have_map in (("", EXPECTED, got),
                                      ("suppressed ", EXPECTED_SUPPRESSED,
                                       got_suppressed)):
        for key, want in sorted(expected.items()):
            have = have_map.pop(key, 0)
            status = "ok" if have == want else "FAIL"
            if have != want:
                failed = True
            print(f"{status}: {key[1]} [{key[0]}] {label}expected {want}, "
                  f"got {have}")
        for key, have in sorted(have_map.items()):
            failed = True
            print(f"FAIL: unexpected {label}finding(s): {key[1]} "
                  f"[{key[0]}] x{have}")

    if failed:
        return 1
    print(f"corpus gate: all {sum(EXPECTED.values())} seeded defects "
          f"flagged, {sum(EXPECTED_SUPPRESSED.values())} justified sites "
          f"suppressed, no extras")
    return 0


if __name__ == "__main__":
    sys.exit(main())
