#!/usr/bin/env python3
"""Memory-order and seqlock lint for the heartbeat tree.

Clang's -Wthread-safety proves the MUTEX discipline; nothing in the
toolchain checks the LOCK-FREE discipline. This script enforces the
memory-order rules docs/ARCHITECTURE.md ("The concurrency contract")
states, over src/, tests/, bench/, and examples/:

  R1  Every std::atomic operation names its memory order explicitly.
      Default seq_cst is almost always an accident here: either the site
      needs release/acquire (then say so) or relaxed suffices (then say
      so and pay nothing). An implicit order communicates "unexamined".

  R2  Every memory_order_relaxed operation carries a justification tag:
      a comment containing "relaxed:" on the same line or within the
      three lines above. Relaxed is the sharpest tool in the box; the
      tag records WHY the ordering does not matter at that site.

  R3  Seqlock commit words (members named `commit`) follow the protocol:
      R3a  every commit store is memory_order_release;
      R3b  an invalidating `commit.store(0, ...)` is followed within
           three lines by atomic_thread_fence(memory_order_release) —
           a release store orders only what PRECEDES it, so without the
           fence the payload writes may land before the invalidation;
      R3c  a relaxed commit re-check load is preceded within six lines
           by atomic_thread_fence(memory_order_acquire), which upgrades
           the preceding payload copy into the seqlock's happens-before.

Escape hatch: a line containing NOLINT-ATOMICS is skipped (use sparingly,
with a reason on the same line). Run with --self-test to check the rules
against embedded known-good/known-bad snippets.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ATOMIC_OPS = (
    "load",
    "store",
    "exchange",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
)

# `x.load(` / `x->fetch_add(` — deliberately loose on the receiver: the
# tree has no non-atomic classes with these method names, and a false
# positive is one NOLINT-ATOMICS away from silence.
OP_RE = re.compile(r"[.\->]\s*(" + "|".join(ATOMIC_OPS) + r")\s*\(")
ORDER_RE = re.compile(r"memory_order_(relaxed|acquire|release|acq_rel|seq_cst|consume)")
COMMIT_RE = re.compile(r"\bcommit\s*\.\s*(load|store)\s*\(")
RELEASE_FENCE_RE = re.compile(
    r"atomic_thread_fence\s*\(\s*std::memory_order_release\s*\)"
)
ACQUIRE_FENCE_RE = re.compile(
    r"atomic_thread_fence\s*\(\s*std::memory_order_acquire\s*\)"
)
RELAXED_TAG_RE = re.compile(r"//.*relaxed:")
NOLINT = "NOLINT-ATOMICS"

# Ops on these receivers are never std::atomic in this tree.
FALSE_POSITIVE_RECEIVERS = re.compile(
    r"(this->|\bfile\b|\bin\b|\bout\b)\s*[.\->]\s*(load|store)\s*\($"
)


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_line_comment(line: str) -> str:
    """Drop // comments (good enough: the tree has no /* */ code comments
    on atomic-op lines)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def call_argument_text(lines: list[str], start_line: int, start_col: int) -> str:
    """Text of one paren-balanced call starting at the '(' at
    (start_line, start_col), possibly spanning lines."""
    depth = 0
    out: list[str] = []
    for li in range(start_line, min(start_line + 12, len(lines))):
        segment = strip_line_comment(lines[li])
        begin = start_col if li == start_line else 0
        for ci in range(begin, len(segment)):
            ch = segment[ci]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(out)
            if depth > 0 and not (depth == 1 and ch == "("):
                out.append(ch)
        out.append("\n")
    return "".join(out)  # unbalanced: caller treats as-is


def check_text(path: str, text: str) -> list[Finding]:
    findings: list[Finding] = []
    lines = text.splitlines()
    for i, raw in enumerate(lines):
        if NOLINT in raw:
            continue
        code = strip_line_comment(raw)
        for m in OP_RE.finditer(code):
            open_paren = code.index("(", m.start())
            receiver = code[: m.start() + 1]
            if FALSE_POSITIVE_RECEIVERS.search(receiver + code[m.start():m.end()]):
                continue
            args = call_argument_text(lines, i, open_paren)
            op = m.group(1)
            lineno = i + 1

            # A zero-argument store()/exchange() is an accessor (e.g.
            # Channel::store()), never std::atomic — those always take a
            # value argument.
            if op in ("store", "exchange") and not args.strip():
                continue

            # R1: explicit memory order.
            if not ORDER_RE.search(args):
                findings.append(
                    Finding(
                        path,
                        lineno,
                        "R1",
                        f"atomic {op}() without an explicit memory order "
                        "(default seq_cst reads as 'unexamined' — name the "
                        "order this site actually needs)",
                    )
                )
                continue

            # R2: relaxed needs a justification tag nearby.
            if "memory_order_relaxed" in args:
                window = lines[max(0, i - 3) : i + 1]
                # Multi-line call: the tag may sit on the order's own line.
                window += lines[i + 1 : i + 3]
                if not any(RELAXED_TAG_RE.search(w) for w in window):
                    findings.append(
                        Finding(
                            path,
                            lineno,
                            "R2",
                            f"relaxed {op}() without a 'relaxed: <why>' "
                            "justification comment within 3 lines",
                        )
                    )

            # R3: seqlock commit-word protocol.
            cm = COMMIT_RE.search(code)
            if cm is None:
                continue
            if op == "store":
                if "memory_order_release" not in args:
                    findings.append(
                        Finding(
                            path,
                            lineno,
                            "R3a",
                            "seqlock commit store must be "
                            "memory_order_release (both the invalidate and "
                            "the publish)",
                        )
                    )
                first_arg = args.split(",")[0].strip()
                if first_arg == "0":
                    after = lines[i + 1 : i + 4]
                    if not any(RELEASE_FENCE_RE.search(a) for a in after):
                        findings.append(
                            Finding(
                                path,
                                lineno,
                                "R3b",
                                "seqlock invalidation (commit <- 0) must be "
                                "followed by atomic_thread_fence(release) "
                                "before the payload write",
                            )
                        )
            elif op == "load" and "memory_order_relaxed" in args:
                before = lines[max(0, i - 6) : i]
                if not any(ACQUIRE_FENCE_RE.search(b) for b in before):
                    findings.append(
                        Finding(
                            path,
                            lineno,
                            "R3c",
                            "relaxed seqlock re-check load must be preceded "
                            "by atomic_thread_fence(acquire) after the "
                            "payload copy",
                        )
                    )
    return findings


def check_file(path: pathlib.Path, root: pathlib.Path) -> list[Finding]:
    rel = str(path.relative_to(root) if path.is_relative_to(root) else path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [Finding(rel, 0, "IO", f"unreadable: {err}")]
    return check_text(rel, text)


# --------------------------------------------------------------- self-test

GOOD_SNIPPETS = {
    "explicit orders": """
        count_.fetch_add(1, std::memory_order_acq_rel);
        flag_.store(true, std::memory_order_release);
        return head_.load(std::memory_order_acquire);
    """,
    "tagged relaxed": """
        // relaxed: monotone statistic, read only after join().
        hits_.fetch_add(1, std::memory_order_relaxed);
    """,
    "multi-line call with order": """
        hdr->target_min_bits.store(std::bit_cast<std::uint64_t>(0.0),
                                   std::memory_order_relaxed);  // relaxed: init
    """,
    "full seqlock writer": """
        slot.commit.store(0, std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_release);
        util::tsan_relaxed_copy(slot.rec, stamped);
        slot.commit.store(seq + 1, std::memory_order_release);
    """,
    "full seqlock reader": """
        const std::uint64_t c1 = slot.commit.load(std::memory_order_acquire);
        core::HeartbeatRecord copy;
        util::tsan_relaxed_copy(copy, slot.rec);
        std::atomic_thread_fence(std::memory_order_acquire);
        // relaxed: the fence above supplies the ordering for the re-check.
        if (slot.commit.load(std::memory_order_relaxed) == c1) accept(copy);
    """,
    "nolint escape": """
        legacy_.store(true);  // NOLINT-ATOMICS: third-party API mirror
    """,
    "zero-arg accessor named store": """
        return core::HeartbeatReader(&v.channel->store(), clock_);
    """,
}

BAD_SNIPPETS = {
    "R1": "done_.store(true);",
    "R1 load": "while (!done_.load()) spin();",
    "R2": "hits_.fetch_add(1, std::memory_order_relaxed);",
    "R3a": """
        slot.commit.store(0, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
    """,
    "R3b": """
        slot.commit.store(0, std::memory_order_release);
        slot.rec = stamped;
        slot.commit.store(seq + 1, std::memory_order_release);
    """,
    "R3c": """
        // relaxed: (a tag alone must not satisfy the fence rule)
        if (slot.commit.load(std::memory_order_relaxed) == c1) accept(copy);
    """,
}


def self_test() -> int:
    failures = 0
    for name, snippet in GOOD_SNIPPETS.items():
        findings = check_text(f"<good:{name}>", snippet)
        if findings:
            failures += 1
            print(f"SELF-TEST FAIL: good snippet '{name}' was flagged:")
            for f in findings:
                print(f"  {f}")
    for rule, snippet in BAD_SNIPPETS.items():
        findings = check_text(f"<bad:{rule}>", snippet)
        want = rule.split()[0]
        if not any(f.rule == want for f in findings):
            failures += 1
            print(
                f"SELF-TEST FAIL: bad snippet '{rule}' did not trigger {want} "
                f"(got: {[f.rule for f in findings] or 'nothing'})"
            )
    if failures:
        print(f"self-test: {failures} failure(s)")
        return 1
    print(
        f"self-test: OK ({len(GOOD_SNIPPETS)} good, {len(BAD_SNIPPETS)} bad "
        "snippets)"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src tests bench examples)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the embedded known-good/known-bad snippets and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(__file__).resolve().parent.parent
    roots = (
        [pathlib.Path(p).resolve() for p in args.paths]
        if args.paths
        else [root / d for d in ("src", "tests", "bench", "examples")]
    )
    files: list[pathlib.Path] = []
    for p in roots:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.hpp")))
            files.extend(sorted(p.rglob("*.cpp")))
        elif p.suffix in (".hpp", ".cpp"):
            files.append(p)
        elif not p.exists():
            print(f"error: no such path: {p}", file=sys.stderr)
            return 2

    findings: list[Finding] = []
    for f in files:
        findings.extend(check_file(f, root))
    for finding in findings:
        print(finding)
    if findings:
        print(f"check_atomics: {len(findings)} finding(s) in {len(files)} files")
        return 1
    print(f"check_atomics: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
