#!/usr/bin/env python3
"""Concurrency lint for mecsc (sibling of lint_determinism.py).

Compile-time thread safety rests on two legs: the Clang Thread Safety
Analysis run against the annotated primitives in src/util/sync.h (the `tsa`
CMake preset), and this lint, which keeps the tree inside the subset of C++
that analysis can actually see. The rules:

  naked-primitive   Raw std::mutex / std::condition_variable /
                    std::shared_mutex / std::lock_guard / std::unique_lock /
                    std::scoped_lock / std::shared_lock anywhere but
                    src/util/sync.h. A raw primitive is invisible to the
                    analysis: state it guards is unchecked on every path.
                    Use util::Mutex + util::MutexLock + util::CondVar (or
                    SharedMutex + Reader/WriterMutexLock).
  wait-predicate    A single-argument cv.wait(mutex) that is not the body
                    of a while-loop. Without a loop re-checking the
                    predicate, a spurious or stolen wakeup proceeds on a
                    false condition (lost-wakeup bug). Write
                    `while (!cond) cv.wait(mu);` — the loop is also what
                    lets the analysis see the predicate's guarded reads
                    under the lock.
  manual-lock       Direct .lock()/.unlock()/.try_lock()/.lock_shared()
                    calls outside src/util/sync.h. Manual pairing leaks the
                    lock on every early return and exception path; RAII
                    (MutexLock) cannot.
  double-lock       Constructing a MutexLock (or Reader/WriterMutexLock) on
                    a mutex that an enclosing scope of the same function
                    already holds — self-deadlock on a non-recursive mutex.
                    (Textual heuristic: same spelling of the mutex
                    expression within one brace nest.)

Lock hierarchy (what the annotations in the tree encode; violations show up
as deadlocks under TSan and as review findings here):

  cache -> queue -> stats
    ResultCache::mutex_, BoundedQueue::mutex_, and the server/metrics stats
    locks are LEAF locks: never held while calling into another locking
    component. A future path that must nest them acquires left-to-right in
    the order above.
  SessionSet::mutex_ (src/svc/sessions.h)
    Held across shutdown(2) of each live connection's read side during a
    drain, and across thread creation in spawn(); it takes no other lock.
    Finished sessions are joined after it is released.

Suppressing a finding: append  // concurrency-lint: allow(<rule>)  to the
line, with a comment saying why it is safe. src/util/sync.h is exempt
wholesale from naked-primitive / manual-lock / wait-predicate: it is the
one place allowed to build on the raw primitives.

Usage:
  lint_concurrency.py [PATH...]   (default: src/ tests/ tools/ bench/
                                   examples/ relative to the repo root)
  lint_concurrency.py --self-check

Exit status: 0 = clean, 1 = findings, 2 = usage error / self-check failure.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc", ".cxx"}

SYNC_H = "src/util/sync.h"

DEFAULT_TARGETS = ("src", "tests", "tools", "bench", "examples")

ALLOW_RE = re.compile(r"concurrency-lint:\s*allow\(([\w, -]+)\)")

NAKED_PRIMITIVE_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex"
    r"|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)

# lock()/unlock() return void, so a real mutex call is the whole statement;
# requiring statement position keeps value uses like std::weak_ptr::lock()
# (`if (auto p = weak.lock())`) out of scope. try_lock() returns bool and is
# normally a condition, so it is matched anywhere.
MANUAL_LOCK_RE = re.compile(
    r"^\s*[\w\.\[\]]+(?:\s*->\s*[\w\.\[\]]+)*\s*(?:\.|->)\s*"
    r"(?:lock|unlock|lock_shared|unlock_shared)\s*\(\s*\)\s*;"
    r"|[\w\)\]]\s*(?:\.|->)\s*try_lock(?:_shared)?\s*\(\s*\)"
)

# cv.wait(mu) — exactly one argument (no comma ⇒ no predicate overload).
WAIT_CALL_RE = re.compile(r"(?:\.|->)\s*wait\s*\(\s*([^(),]+?)\s*\)")

# MutexLock lock(expr); / WriterMutexLock / ReaderMutexLock — the RAII
# acquisitions double-lock tracks. Group 1 is the mutex expression.
RAII_ACQUIRE_RE = re.compile(
    r"\b(?:Mutex|ReaderMutex|WriterMutex)Lock\s+\w+\s*[({]\s*([^(){};]+?)\s*[)}]"
)


def strip_code(text: str) -> list[str]:
    """Lines with comments and string/char literals blanked (structure and
    line numbers preserved), so rules match only real code."""
    string_or_char = re.compile(r'"(?:\\.|[^"\\])*"' r"|'(?:\\.|[^'\\])*'")
    text = string_or_char.sub(
        lambda m: '"' + " " * (len(m.group()) - 2) + '"', text
    )
    out: list[str] = []
    in_block = False
    for line in text.split("\n"):
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2 :]
            in_block = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2 :]
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut]
        out.append(line)
    return out


def wait_findings(code_lines: list[str]) -> list[tuple[int, str]]:
    """Single-argument wait() calls with no while-loop in sight."""
    out = []
    for lineno, code in enumerate(code_lines, start=1):
        m = WAIT_CALL_RE.search(code)
        if not m:
            continue
        # The enclosing loop may sit on the same line or just above
        # (`while (...)\n    cv.wait(mu);`). A do { ... } while tail also
        # counts — the wait is re-armed by the loop either way.
        window = code_lines[max(0, lineno - 3) : lineno]
        if any(re.search(r"\b(?:while|for)\s*\(|\bdo\b", w) for w in window):
            continue
        out.append(
            (
                lineno,
                f"wait({m.group(1).strip()}) outside a while-loop: spurious "
                "wakeups proceed on a false predicate; write "
                "`while (!cond) cv.wait(mu);`",
            )
        )
    return out


def double_lock_findings(code_lines: list[str]) -> list[tuple[int, str]]:
    """RAII acquisitions of a mutex an enclosing scope already holds.

    Tracks brace depth across the file; each acquisition is live until its
    scope closes. Depth resets cannot cross function boundaries because a
    function body always closes every brace it opens.
    """
    out = []
    depth = 0
    held: list[tuple[int, str, int]] = []  # (depth, mutex expr, line)
    for lineno, code in enumerate(code_lines, start=1):
        for m in RAII_ACQUIRE_RE.finditer(code):
            expr = re.sub(r"\s+", "", m.group(1))
            for _, held_expr, held_line in held:
                if held_expr == expr:
                    out.append(
                        (
                            lineno,
                            f"'{m.group(1).strip()}' is already locked at "
                            f"line {held_line} in an enclosing scope: "
                            "self-deadlock on a non-recursive mutex",
                        )
                    )
                    break
            else:
                held.append((depth, expr, lineno))
        for ch in code:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                held = [h for h in held if h[0] < depth or depth < 0]
        if depth <= 0:
            depth = max(depth, 0)
            held = []
    return out


def lint_file(path: Path, repo_root: Path) -> list[str]:
    resolved = path.resolve()
    if resolved.is_relative_to(repo_root):
        rel = resolved.relative_to(repo_root).as_posix()
    else:
        rel = resolved.as_posix()
    try:
        raw = path.read_text(encoding="utf-8", errors="replace")
    except OSError as err:
        return [f"{rel}: unreadable: {err}"]
    raw_lines = raw.split("\n")
    code_lines = strip_code(raw)

    collected: list[tuple[int, str, str]] = []  # (lineno, rule, message)
    if rel != SYNC_H:
        for lineno, code in enumerate(code_lines, start=1):
            if NAKED_PRIMITIVE_RE.search(code):
                collected.append(
                    (
                        lineno,
                        "naked-primitive",
                        "raw synchronization primitive: invisible to the "
                        "thread-safety analysis; use util::Mutex / "
                        "util::MutexLock / util::CondVar (src/util/sync.h)",
                    )
                )
            if MANUAL_LOCK_RE.search(code):
                collected.append(
                    (
                        lineno,
                        "manual-lock",
                        "manual lock()/unlock() pairing leaks on early "
                        "returns and exceptions; use RAII util::MutexLock",
                    )
                )
        for lineno, message in wait_findings(code_lines):
            collected.append((lineno, "wait-predicate", message))
    for lineno, message in double_lock_findings(code_lines):
        collected.append((lineno, "double-lock", message))

    findings = []
    for lineno, rule, message in sorted(collected):
        allow = ALLOW_RE.search(raw_lines[lineno - 1])
        if allow and rule in [a.strip() for a in allow.group(1).split(",")]:
            continue
        findings.append(
            f"{rel}:{lineno}: [{rule}] {message}\n"
            f"    {raw_lines[lineno - 1].strip()}"
        )
    return findings


def self_check() -> int:
    """Synthesizes sources exercising every rule, both directions."""
    clean = """
    #include "util/sync.h"
    class Queue {
     public:
      void push(int v) {
        const util::MutexLock lock(mutex_);
        items_.push_back(v);
        cv_.notify_one();
      }
      int pop() {
        const util::MutexLock lock(mutex_);
        while (items_.empty()) cv_.wait(mutex_);
        int v = items_.back();
        items_.pop_back();
        return v;
      }
     private:
      mutable util::Mutex mutex_;
      util::CondVar cv_;
      std::vector<int> items_ MECSC_GUARDED_BY(mutex_);
    };
    """
    cases: list[tuple[str, str, str | None]] = [
        ("clean.cpp", clean, None),
        ("naked.cpp", "static std::mutex g_mu;\n", "naked-primitive"),
        (
            "guard.cpp",
            "void f() { const std::lock_guard<std::mutex> l(m); }\n",
            "naked-primitive",
        ),
        (
            "no_loop_wait.cpp",
            "void f() {\n  const util::MutexLock lock(mu_);\n"
            "  cv_.wait(mu_);\n}\n",
            "wait-predicate",
        ),
        (
            "looped_wait.cpp",
            "void f() {\n  const util::MutexLock lock(mu_);\n"
            "  while (!done_)\n    cv_.wait(mu_);\n}\n",
            None,
        ),
        (
            "manual.cpp",
            "void f() {\n  mu_.lock();\n  ++x_;\n  mu_.unlock();\n}\n",
            "manual-lock",
        ),
        (
            "relock.cpp",
            "void f() {\n  const util::MutexLock a(mu_);\n"
            "  {\n    const util::MutexLock b(mu_);\n  }\n}\n",
            "double-lock",
        ),
        (
            "sibling_scopes.cpp",
            "void f() {\n  { const util::MutexLock a(mu_); }\n"
            "  { const util::MutexLock b(mu_); }\n}\n",
            None,
        ),
        (
            "two_functions.cpp",
            "void f() { const util::MutexLock a(mu_); }\n"
            "void g() { const util::MutexLock b(mu_); }\n",
            None,
        ),
        (
            "allowed.cpp",
            "static std::mutex g_mu;  "
            "// concurrency-lint: allow(naked-primitive)\n",
            None,
        ),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text, expected_rule in cases:
            p = root / name
            p.write_text(text, encoding="utf-8")
            findings = lint_file(p, root)
            rules = {
                re.search(r"\[([\w-]+)\]", f).group(1) for f in findings
            }
            if expected_rule is None and findings:
                failures.append(f"{name}: expected clean, got {sorted(rules)}")
            elif expected_rule is not None and expected_rule not in rules:
                failures.append(
                    f"{name}: expected [{expected_rule}], got {sorted(rules)}"
                )
    if failures:
        for f in failures:
            print(f"lint_concurrency --self-check: FAIL: {f}", file=sys.stderr)
        return 2
    print(f"lint_concurrency --self-check: OK ({len(cases)} cases)")
    return 0


def main(argv: list[str]) -> int:
    if argv[1:] == ["--self-check"]:
        return self_check()
    repo_root = Path(__file__).resolve().parent.parent
    targets = [Path(a) for a in argv[1:]] or [
        repo_root / t for t in DEFAULT_TARGETS
    ]
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(
                p
                for p in sorted(target.rglob("*"))
                if p.suffix in SOURCE_SUFFIXES
            )
        elif target.is_file():
            files.append(target)
        else:
            print(f"lint_concurrency: no such path: {target}", file=sys.stderr)
            return 2

    findings: list[str] = []
    for f in files:
        findings.extend(lint_file(f, repo_root))
    for finding in findings:
        print(finding)
    if findings:
        print(
            f"\nlint_concurrency: {len(findings)} finding(s) in "
            f"{len(files)} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"lint_concurrency: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
