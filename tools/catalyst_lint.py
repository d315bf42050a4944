#!/usr/bin/env python3
"""catalyst-lint: repo-specific static checks for the catalyst sources.

Architecture (multi-pass): every source file is parsed once into a FileModel
(comment/string-stripped code, suppression directives, protocol fences);
per-file passes then run over the models, repo-level passes run over the
whole set, and audit passes run last -- they validate the *directives*
themselves (stale suppressions, malformed fences), which is only possible
after every other pass has reported.

Rules:

  rng-in-hot-path   No rand()/std::mt19937 in src/ outside the allow-listed
                    generators.  Measurement reproducibility depends on the
                    counter-based noise RNG; an ambient PRNG hidden in a hot
                    path silently breaks the pure-function-of-coordinates
                    contract (machine seed, event, repetition, kernel).
  using-namespace-in-header
                    No `using namespace` at namespace scope in headers.
  pragma-once       Every header starts its preprocessor life with
                    `#pragma once`.
  float-equality    No ==/!= against non-zero floating-point literals.
                    Comparisons to exact 0.0 are an accepted sparsity /
                    sentinel idiom in this codebase; anything else must be a
                    tolerance test (see contract::singular_tolerance).
  linalg-shape-contracts
                    Every public src/linalg entry point validates its input
                    shapes through the contract layer (CATALYST_REQUIRE*,
                    CATALYST_ASSUME_FINITE*) or a shared checker before
                    touching data.
  sleep-in-retry    No raw std::this_thread::sleep_for / sleep_until in src/
                    outside the allow-listed faults::Clock implementation.
                    Retry pacing must go through the injectable Clock so
                    tests (FakeClock) never sleep on wall time and backoff
                    policy stays in one place.
  raw-timing        No raw std::chrono::steady_clock/system_clock/
                    high_resolution_clock::now() in src/ outside src/obs/ and
                    src/faults/.  All timestamps must flow through the
                    injectable faults::Clock (obs::Tracer::set_clock) so span
                    timings are deterministic under FakeClock and
                    observability can never perturb results.
  raw-thread-spawn  No raw std::thread (construction or
                    hardware_concurrency) in src/ outside the shared
                    worker-pool helper (src/core/parallel.hpp).  All
                    parallelism must flow through core::parallel_for, and
                    every thread count through core::resolve_threads, so
                    the determinism contract (fixed work partitioning,
                    first-exception propagation, full join before return)
                    and the default worker count hold everywhere at once.
  raw-socket-io     No raw POSIX socket/stream syscalls (socket/bind/listen/
                    accept/connect/read/write/recv/send/poll/pipe) in src/
                    outside src/service/io*.  All byte movement must go
                    through the io:: wrappers, which are the only code that
                    understands EINTR, partial transfers, and non-blocking
                    would-block -- a raw ::read elsewhere reintroduces the
                    exact failure modes the wrappers exist to contain.
                    (The checkpoint lease's ::open/::flock are file locking,
                    not stream I/O, and stay out of scope.)
  clock-in-sampling No std::chrono steady/system/high_resolution clock
                    *types* anywhere in a sampling translation unit (any
                    file whose basename contains "sampling").  Stricter
                    than raw-timing: the sampled-collection path must pace
                    itself exclusively through faults::Clock, so even a
                    cached time_point or a clock-typed member is a design
                    smell -- a wall-clock value that leaks into a sample
                    boundary destroys byte-identical trace replay.
  seed-echo-in-tests
                    Every test in tests/ that owns a general-purpose PRNG
                    must include "seed_util.hpp" and take its seeds from it:
                    sweep_seeds() honors CATALYST_SEED=<n> for single-seed
                    replay and seed_banner() prints the replay line on
                    failure.  A randomized test whose failure cannot be
                    reproduced from its output is a flake report, not a test.

  -- observability (the src/obs metric registry) --

  metric-name-literal
                    No inline metric-name string literal at an
                    obs::count / obs::observe / obs::gauge call site in
                    src/ outside src/obs/.  Every metric name lives once in
                    the registry header (src/obs/names.hpp) as a constexpr
                    string_view, so the exposition surface is enumerable by
                    reading one file and a rename cannot silently fork a
                    counter into two spellings.  The registry itself is
                    checked too: every constant in names.hpp must be a
                    snake.case dotted identifier (a trailing '.' marks a
                    dynamic-suffix prefix like "collect.faults.").

  -- artifacts --

  handwritten-json  No string literal holding an escaped-quote key followed
                    by a colon (`\\"name\\":`) in src/, tools/ or bench/
                    outside src/json/.  Every JSON document is built as a
                    json::Value and written by json::dump (and read back by
                    json::parse), so escaping, number formatting and exact
                    64-bit integers live in one library; a hand-spliced
                    document or a substring scan for a key forks that
                    format.

  unchecked-number-parse
                    No std::sto* (stoi/stol/stoul/stoull/stod/...),
                    std::ato* or bare atoi/atol/atof in src/, tools/ or
                    bench/, and no strtod/strtof/strtol/strtoul/strtoull
                    (with or without std::) in tools/ or bench/.  The sto*
                    family throws bare "stoi"/"stod" messages that name
                    neither the flag nor the value, accepts trailing junk
                    ("3x" reads 3) and the unsigned ones wrap "-1" to
                    2^64 - 1; ato* reports no error at all; strto* skips
                    leading blanks and reads hex, so each caller grows its
                    own number grammar.  Tools and bench programs parse
                    their flags through the one table-driven grammar of
                    tools/flags.hpp (flags::parse, flags::integer_value);
                    elsewhere read the whole text with std::from_chars and
                    name the flag or key in the refusal.  A selftest
                    fixture named bench_*.cpp is linted as a bench/ file.
  -- lock discipline (the src/sync capability layer) --

  raw-sync-primitive
                    No raw std::mutex / std::shared_mutex /
                    std::condition_variable(_any) / std::lock_guard /
                    std::unique_lock / std::scoped_lock / std::shared_lock
                    in src/ outside src/sync/.  Locks must be the annotated
                    sync::Mutex family so Clang thread-safety analysis and
                    the runtime lock-order validator see every acquisition.
  mutex-missing-guarded-by
                    A class/struct with a sync::Mutex member must annotate
                    at least one sibling field with CATALYST_GUARDED_BY.  A
                    member mutex that guards nothing it can name is either
                    dead weight or (worse) guarding state the analysis
                    cannot check.
  manual-lock-unlock
                    No explicit .lock()/.unlock() calls in src/ outside
                    src/sync/.  Critical sections must be RAII
                    (sync::LockGuard / sync::UniqueLock) so early returns
                    and exceptions cannot leak a held lock.
  atomic-ordering-outside-protocol
                    Ordering-bearing atomics (memory_order_acquire/release/
                    acq_rel/seq_cst) outside src/sync/ must sit inside a
                    documented protocol fence:
                        // catalyst-lint: begin-protocol(<name>)
                        ...
                        // catalyst-lint: end-protocol(<name>)
                    Relaxed atomics (counters, enable flags) are fine
                    anywhere; anything stronger encodes an inter-thread
                    protocol that must be written down (see the seqlock
                    invariants on obs::TraceBuffer).
  protocol-fence    Malformed fences: end-protocol without a begin, a fence
                    left open at end of file, mismatched names, or a nested
                    begin.

  -- directive audit --

  unknown-suppression-rule
                    An `allow(...)` directive naming a rule this linter does
                    not define.  Typically a typo, or a rule that was
                    renamed/retired -- either way the suppression does
                    nothing and must not linger.
  stale-suppression
                    An `allow(...)` directive that suppressed nothing this
                    run.  The offending code is gone; the directive must go
                    too, or it will silently license a future violation.

Suppressing: `// catalyst-lint: allow(<rule>[, <rule>...])` on the offending
line or the line directly above it.  Suppressions are audited: they must
name real rules and actually fire.

Exit status: 0 when clean, 1 when any finding is reported (or --max-seconds
is exceeded), 2 on usage error.  Run from anywhere: paths resolve relative
to the repository root (parent of this script's directory).

Options:
  --max-seconds N   Fail (exit 1) if the whole run takes longer than N
                    seconds; CI asserts the full-repo run stays under 5.
  --selftest        Lint the fixture files in tests/lint_selftest/ instead
                    of src/; each fixture declares its expected findings
                    with `// expect: <rule>` lines and the run fails on any
                    mismatch in either direction.
"""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
# Trees the handwritten-json and unchecked-number-parse rules cover besides
# src/.
PROGRAM_TREES = (REPO_ROOT / "tools", REPO_ROOT / "bench")
TESTS = REPO_ROOT / "tests"
SELFTEST_DIR = TESTS / "lint_selftest"

# Files allowed to own a general-purpose PRNG: machine-model construction
# (seeded once, not per measurement), the linalg test-matrix generators, the
# norm estimator's start vector, pointer-chase shuffling, the mixed
# benchmark's signature shuffling, and the modelgen generator/transforms
# (seeded once per spec, never per measurement).  Everything else must use
# the counter-based noise RNG.
RNG_ALLOWED = {
    "src/pmu/tempest.cpp",
    "src/pmu/saphira.cpp",
    "src/pmu/vesuvio.cpp",
    "src/linalg/random.cpp",
    "src/linalg/blas.cpp",
    "src/cachesim/pointer_chase.cpp",
    "src/cat/mixed.cpp",
    "src/modelgen/generator.cpp",
    "src/modelgen/verify.cpp",
}

# Files allowed to compare floating-point values with ==/!= beyond the
# exact-zero idiom (none currently; add sparingly and justify).
FLOAT_EQ_ALLOWED: set[str] = set()

# The ONE place allowed to sleep on wall time: the injectable retry clock.
# Everything else paces retries through faults::Clock.
SLEEP_ALLOWED = {
    "src/faults/clock.cpp",
}

# Directory prefixes allowed to read the raw steady/system clock: the
# injectable clock implementation and the tracing layer built on it.
TIMING_ALLOWED_PREFIXES = (
    "src/obs/",
    "src/faults/",
)

# The ONE place allowed to construct std::thread: the shared worker-pool
# helper.  Everything else parallelizes through core::parallel_for so the
# determinism/exception contract is uniform.
THREAD_SPAWN_ALLOWED = {
    "src/core/parallel.hpp",
}

# The ONE directory allowed to touch raw standard-library synchronization
# primitives: the annotated wrapper layer itself.
SYNC_ALLOWED_PREFIXES = ("src/sync/",)

# The ONE place allowed to issue raw socket/stream syscalls: the EINTR- and
# would-block-aware wrapper layer (src/service/io.hpp / io.cpp).
SOCKET_IO_ALLOWED_PREFIXES = ("src/service/io",)

# The metric-name registry, and the ONE layer allowed to spell metric names
# as string literals (the registry plus the obs implementation itself).
METRIC_NAMES_HEADER = "src/obs/names.hpp"
METRIC_NAME_ALLOWED_PREFIXES = ("src/obs/",)

# The ONE library allowed to spell JSON syntax in string literals.
JSON_ALLOWED_PREFIXES = ("src/json/",)
HANDWRITTEN_JSON_RE = re.compile(r'\\"[A-Za-z_][\w.\-]*\\"\s*:')

# Public src/linalg entry points that must validate shapes before computing.
# Maps source file -> function names whose definitions are checked.
LINALG_PUBLIC_ENTRIES = {
    "src/linalg/blas.cpp": [
        "gemv", "matvec_t", "gemm", "trsv_upper_t",
    ],
    "src/linalg/lstsq.cpp": ["lstsq", "backward_error"],
}

# Evidence that a function body validates its inputs: a contract macro or one
# of the shared checkers that are themselves contract-based.
VALIDATION_RE = re.compile(
    r"CATALYST_(REQUIRE|ASSUME_FINITE|ENSURE|INVARIANT)(_AS)?\s*\("
    r"|check_same_size\s*\("
    r"|check_matrix_vector\s*\("
)

SUPPRESS_RE = re.compile(
    r"//\s*catalyst-lint:\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")
FENCE_RE = re.compile(
    r"//\s*catalyst-lint:\s*(begin|end)-protocol\(([a-z0-9\-]*)\)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z\-]+)")

# Every rule any pass can report; `allow(...)` of anything else is itself a
# finding (unknown-suppression-rule).
KNOWN_RULES = {
    "rng-in-hot-path",
    "using-namespace-in-header",
    "pragma-once",
    "float-equality",
    "linalg-shape-contracts",
    "sleep-in-retry",
    "raw-timing",
    "raw-thread-spawn",
    "raw-socket-io",
    "clock-in-sampling",
    "seed-echo-in-tests",
    "metric-name-literal",
    "handwritten-json",
    "unchecked-number-parse",
    "raw-sync-primitive",
    "mutex-missing-guarded-by",
    "manual-lock-unlock",
    "atomic-ordering-outside-protocol",
    "protocol-fence",
    "unknown-suppression-rule",
    "stale-suppression",
}


class Finding:
    def __init__(self, rule: str, rel: str, line: int, message: str):
        self.rule = rule
        self.rel = rel
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.rel}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks out comments and string/char literals (only comments when
    `keep_strings`), preserving line structure so reported line numbers
    match the file."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                mode = "string" if c == '"' else "char"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif mode in ("string", "char"):
            quote = '"' if mode == "string" else "'"
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(c if keep_strings else " ")
            else:
                out.append(c if keep_strings or c == "\n" else " ")
        i += 1
    return "".join(out)


class Fence:
    """One begin/end-protocol region (1-based inclusive line range)."""

    def __init__(self, name: str, begin: int, end: int):
        self.name = name
        self.begin = begin
        self.end = end

    def covers(self, lineno: int) -> bool:
        return self.begin <= lineno <= self.end


class FileModel:
    """One parsed source file: stripped code, directives, fences.

    `rel` is the repo-relative posix path rules match against; the selftest
    harness maps fixture files to virtual src/ paths through it, so every
    path-based allowlist behaves identically on fixtures.
    """

    def __init__(self, rel: str, raw: str):
        self.rel = rel
        self.raw = raw
        self.raw_lines = raw.splitlines()
        self.code = strip_comments_and_strings(raw)
        self.code_lines = self.code.splitlines()
        self.is_header = rel.endswith(".hpp")
        # allow() directives: raw line number (1-based) -> rules named there.
        self.suppression_sites: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.raw_lines, 1):
            m = SUPPRESS_RE.search(line)
            if m:
                self.suppression_sites[lineno] = {
                    r.strip() for r in m.group(1).split(",")
                }
        self.used_suppressions: set[tuple[int, str]] = set()
        self.fences: list[Fence] = []
        self.fence_findings: list[Finding] = []
        self._parse_fences()

    def _parse_fences(self):
        open_fence: tuple[str, int] | None = None  # (name, begin line)
        for lineno, line in enumerate(self.raw_lines, 1):
            m = FENCE_RE.search(line)
            if not m:
                continue
            kind, name = m.group(1), m.group(2)
            if not name:
                self.fence_findings.append(Finding(
                    "protocol-fence", self.rel, lineno,
                    f"{kind}-protocol() needs a protocol name"))
                continue
            if kind == "begin":
                if open_fence is not None:
                    self.fence_findings.append(Finding(
                        "protocol-fence", self.rel, lineno,
                        f"begin-protocol({name}) nested inside open "
                        f"protocol '{open_fence[0]}' (line {open_fence[1]})"))
                    continue
                open_fence = (name, lineno)
            else:  # end
                if open_fence is None:
                    self.fence_findings.append(Finding(
                        "protocol-fence", self.rel, lineno,
                        f"end-protocol({name}) without a matching begin"))
                    continue
                if open_fence[0] != name:
                    self.fence_findings.append(Finding(
                        "protocol-fence", self.rel, lineno,
                        f"end-protocol({name}) closes "
                        f"begin-protocol({open_fence[0]}) from line "
                        f"{open_fence[1]}"))
                self.fences.append(Fence(open_fence[0], open_fence[1], lineno))
                open_fence = None
        if open_fence is not None:
            self.fence_findings.append(Finding(
                "protocol-fence", self.rel, open_fence[1],
                f"begin-protocol({open_fence[0]}) never closed"))

    def suppressed(self, lineno: int, rule: str) -> bool:
        """True when `rule` is allow()ed on this line or the one above;
        marks the directive used for the stale-suppression audit."""
        for site in (lineno, lineno - 1):
            if rule in self.suppression_sites.get(site, set()):
                self.used_suppressions.add((site, rule))
                return True
        return False

    def in_fence(self, lineno: int) -> bool:
        return any(f.covers(lineno) for f in self.fences)


def report(model: FileModel, findings: list[Finding], rule: str, lineno: int,
           message: str):
    """Emits a finding unless an allow() directive covers it."""
    if model.suppressed(lineno, rule):
        return
    findings.append(Finding(rule, model.rel, lineno, message))


# --- per-file passes -------------------------------------------------------

RNG_RE = re.compile(r"\bstd::mt19937(_64)?\b|(?<![\w.])\brand\s*\(\s*\)")
SLEEP_RE = re.compile(r"\bstd::this_thread::sleep_(for|until)\b"
                      r"|\bthis_thread\s*::\s*sleep_(for|until)\b")
RAW_TIMING_RE = re.compile(
    r"\b(?:std\s*::\s*)?chrono\s*::\s*"
    r"(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(")
# Stricter variant for sampling code: the clock *type* alone is banned, not
# just ::now() -- a cached time_point or clock-typed member smuggles wall
# time into the sample schedule just as effectively as a direct read.
SAMPLING_CLOCK_RE = re.compile(
    r"\b(?:std\s*::\s*)?chrono\s*::\s*"
    r"(?:steady_clock|system_clock|high_resolution_clock)\b")
USING_NS_RE = re.compile(r"^\s*using\s+namespace\b")
THREAD_SPAWN_RE = re.compile(
    r"\bstd\s*::\s*thread\b|\bhardware_concurrency\b")
# ==/!= where either side is a float literal other than 0.0 / 0. / .0
FLOAT_LIT = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]?"
FLOAT_EQ_RE = re.compile(rf"(?:[=!]=\s*({FLOAT_LIT}))|(?:({FLOAT_LIT})\s*[=!]=)")
ZERO_RE = re.compile(r"^(?:0+\.0*|\.0+)(?:[eE][+-]?\d+)?[fFlL]?$")
RAW_SYNC_RE = re.compile(
    r"\bstd\s*::\s*(?:recursive_|timed_|shared_)?mutex\b"
    r"|\bstd\s*::\s*condition_variable(?:_any)?\b"
    r"|\bstd\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b")
MANUAL_LOCK_RE = re.compile(r"\.\s*(?:un)?lock\s*\(")
ATOMIC_ORDER_RE = re.compile(
    r"\bmemory_order(?:_|\s*::\s*)(?:acquire|release|acq_rel|seq_cst)\b")
SYNC_MUTEX_MEMBER_RE = re.compile(r"\bsync\s*::\s*(?:Shared)?Mutex\s+\w+")
# Global-scope POSIX stream syscalls (::read, ::socket, ...) plus a bare
# socket() call.  The `(?<![\w:.])` guard keeps qualified names like
# io::read_some or Session::close out of scope.
RAW_SOCKET_IO_RE = re.compile(
    r"(?<![\w:.])::\s*(?:socket|bind|listen|accept4?|connect|shutdown"
    r"|read|write|recv(?:from|msg)?|send(?:to|msg)?|poll|pipe2?)\s*\("
    r"|(?<![\w:.])socket\s*\(")
CLASS_RE = re.compile(r"\b(class|struct)\s+(?:CATALYST_\w+\(.*?\)\s+)?"
                      r"[A-Za-z_]\w*[^;{()]*\{")
# Metric-emission call whose first argument opens as a string literal.  The
# raw (string-preserving) variant spots the literal; the code (string-blanked)
# variant confirms the call is real code, not a mention inside a comment.
METRIC_CALL_RAW_RE = re.compile(
    r"\bobs\s*::\s*(?:count|observe|gauge)\s*\(\s*\"")
METRIC_CALL_CODE_RE = re.compile(r"\bobs\s*::\s*(?:count|observe|gauge)\s*\(")
# Registry constants: `... string_view kFoo = "bar.baz";`
METRIC_NAME_DEF_RE = re.compile(r'\bstring_view\s+k\w+\s*=\s*"([^"]*)"')
# snake.case dotted identifier; a trailing '.' marks a dynamic-suffix prefix
# (e.g. "collect.faults.").
METRIC_NAME_OK_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)*\.?$")
# std::stoi & co., std::atoi & co., and the bare C ato* calls.
NUMBER_PARSE_RE = re.compile(
    r"\bstd\s*::\s*(?:sto(?:i|l|ll|ul|ull|f|d|ld)|ato(?:i|l|ll|f))\s*\("
    r"|(?<![\w.>])(?:::\s*)?ato(?:i|l|ll|f)\s*\(")
# The C strto* family: refused in tools/ and bench/ only.
STRTO_RE = re.compile(
    r"(?<![\w.>])(?:(?:std\s*)?::\s*)?strto(?:f|d|ld|l|ll|ul|ull)\s*\(")


def pass_rng(model: FileModel, findings: list[Finding]):
    if model.rel in RNG_ALLOWED:
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if RNG_RE.search(line):
            report(model, findings, "rng-in-hot-path", lineno,
                   "general-purpose PRNG outside the allow-listed "
                   "generators; use the counter-based noise RNG or add a "
                   "justified allowlist entry")


def pass_sleep(model: FileModel, findings: list[Finding]):
    if model.rel in SLEEP_ALLOWED:
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if SLEEP_RE.search(line):
            report(model, findings, "sleep-in-retry", lineno,
                   "raw thread sleep outside faults::Clock; pace retries "
                   "via the injectable clock (faults/clock.cpp) so tests "
                   "never sleep on wall time")


def pass_thread_spawn(model: FileModel, findings: list[Finding]):
    if model.rel in THREAD_SPAWN_ALLOWED:
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if THREAD_SPAWN_RE.search(line):
            report(model, findings, "raw-thread-spawn", lineno,
                   "raw std::thread outside core/parallel.hpp; fan work "
                   "out via core::parallel_for so "
                   "the worker-pool determinism + exception contract "
                   "applies")


def pass_raw_timing(model: FileModel, findings: list[Finding]):
    if model.rel.startswith(TIMING_ALLOWED_PREFIXES):
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if RAW_TIMING_RE.search(line):
            report(model, findings, "raw-timing", lineno,
                   "raw std::chrono clock read outside src/obs//src/faults/; "
                   "take timestamps through the injectable faults::Clock "
                   "(obs::Tracer) so timing stays deterministic under "
                   "FakeClock")


def pass_clock_in_sampling(model: FileModel, findings: list[Finding]):
    basename = model.rel.rsplit("/", 1)[-1]
    if "sampling" not in basename:
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if SAMPLING_CLOCK_RE.search(line):
            report(model, findings, "clock-in-sampling", lineno,
                   "wall-clock type in sampling code; the sampled "
                   "collection path must pace itself through faults::Clock "
                   "only, so sample traces stay byte-identical under "
                   "FakeClock replay")


def pass_using_namespace(model: FileModel, findings: list[Finding]):
    if not model.is_header:
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if USING_NS_RE.search(line):
            report(model, findings, "using-namespace-in-header", lineno,
                   "`using namespace` in a header leaks into every includer")


def pass_pragma_once(model: FileModel, findings: list[Finding]):
    if not model.is_header:
        return
    for lineno, line in enumerate(model.code_lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#pragma") and "once" in stripped:
            return
        report(model, findings, "pragma-once", lineno,
               "first preprocessor/code line of a header must be "
               "#pragma once")
        return
    report(model, findings, "pragma-once", 1, "header has no #pragma once")


def pass_float_equality(model: FileModel, findings: list[Finding]):
    if model.rel in FLOAT_EQ_ALLOWED:
        return
    for lineno, line in enumerate(model.code_lines, 1):
        for m in FLOAT_EQ_RE.finditer(line):
            lit = m.group(1) or m.group(2)
            if ZERO_RE.match(lit):
                continue  # exact-zero sparsity/sentinel idiom
            report(model, findings, "float-equality", lineno,
                   f"floating-point ==/!= against {lit}; use a tolerance "
                   "(contract::singular_tolerance or an explicit eps)")


def pass_raw_socket_io(model: FileModel, findings: list[Finding]):
    if model.rel.startswith(SOCKET_IO_ALLOWED_PREFIXES):
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if RAW_SOCKET_IO_RE.search(line):
            report(model, findings, "raw-socket-io", lineno,
                   "raw POSIX socket/stream syscall outside "
                   "src/service/io*; move bytes through the io:: wrappers "
                   "so EINTR, partial transfers, and would-block are "
                   "handled in exactly one place")


def pass_raw_sync_primitive(model: FileModel, findings: list[Finding]):
    if model.rel.startswith(SYNC_ALLOWED_PREFIXES):
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if RAW_SYNC_RE.search(line):
            report(model, findings, "raw-sync-primitive", lineno,
                   "raw standard-library synchronization primitive outside "
                   "src/sync/; use sync::Mutex / sync::LockGuard / "
                   "sync::CondVar so thread-safety analysis and the "
                   "lock-order validator see the acquisition")


def pass_manual_lock_unlock(model: FileModel, findings: list[Finding]):
    if model.rel.startswith(SYNC_ALLOWED_PREFIXES):
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if MANUAL_LOCK_RE.search(line):
            report(model, findings, "manual-lock-unlock", lineno,
                   "explicit .lock()/.unlock() outside src/sync/; hold "
                   "critical sections via RAII (sync::LockGuard / "
                   "sync::UniqueLock) so no path can leak a held lock")


def pass_atomic_ordering(model: FileModel, findings: list[Finding]):
    if model.rel.startswith(SYNC_ALLOWED_PREFIXES):
        return
    for lineno, line in enumerate(model.code_lines, 1):
        if ATOMIC_ORDER_RE.search(line) and not model.in_fence(lineno):
            report(model, findings, "atomic-ordering-outside-protocol",
                   lineno,
                   "ordering-bearing atomic outside a protocol fence; "
                   "document the protocol's invariants and wrap the "
                   "region in // catalyst-lint: begin-protocol(<name>) / "
                   "end-protocol(<name>) (see obs::TraceBuffer)")


def pass_mutex_guarded_by(model: FileModel, findings: list[Finding]):
    if model.rel.startswith(SYNC_ALLOWED_PREFIXES):
        return
    code = model.code
    for m in CLASS_RE.finditer(code):
        open_brace = m.end() - 1
        depth = 1
        i = open_brace + 1
        while i < len(code) and depth:
            if code[i] == "{":
                depth += 1
            elif code[i] == "}":
                depth -= 1
            i += 1
        body = code[open_brace:i]
        member = SYNC_MUTEX_MEMBER_RE.search(body)
        if member and "CATALYST_GUARDED_BY" not in body:
            lineno = code.count("\n", 0, open_brace + member.start()) + 1
            report(model, findings, "mutex-missing-guarded-by", lineno,
                   "sync::Mutex member without any sibling "
                   "CATALYST_GUARDED_BY field; name what the mutex guards "
                   "so the thread-safety analysis can check it")


def pass_metric_name_literal(model: FileModel, findings: list[Finding]):
    if model.rel == METRIC_NAMES_HEADER:
        # The registry is where literals belong -- but they must all be
        # well-formed dotted snake.case so the exposition stays uniform.
        for lineno, line in enumerate(model.raw_lines, 1):
            m = METRIC_NAME_DEF_RE.search(line)
            if m and not METRIC_NAME_OK_RE.match(m.group(1)):
                report(model, findings, "metric-name-literal", lineno,
                       f'registry name "{m.group(1)}" is not a snake.case '
                       "dotted identifier (lowercase segments joined by "
                       "'.'; trailing '.' only for dynamic-suffix prefixes)")
        return
    if model.rel.startswith(METRIC_NAME_ALLOWED_PREFIXES):
        return
    for lineno, raw in enumerate(model.raw_lines, 1):
        if not METRIC_CALL_RAW_RE.search(raw):
            continue
        # Comments are blanked in code_lines, so a match there means the
        # call is real code (only the literal's contents are blanked).
        if not METRIC_CALL_CODE_RE.search(model.code_lines[lineno - 1]):
            continue
        report(model, findings, "metric-name-literal", lineno,
               "inline metric-name literal at an obs:: call site; add the "
               "name to src/obs/names.hpp and reference the constant so "
               "the metric surface stays enumerable from one header")


def pass_handwritten_json(model: FileModel, findings: list[Finding]):
    if model.rel.startswith(JSON_ALLOWED_PREFIXES):
        return
    literals = strip_comments_and_strings(model.raw, keep_strings=True)
    for lineno, line in enumerate(literals.splitlines(), 1):
        if HANDWRITTEN_JSON_RE.search(line):
            report(model, findings, "handwritten-json", lineno,
                   "JSON key spelled in a string literal; build the "
                   "document as a json::Value and write it with json::dump "
                   "(read one with json::parse)")


def pass_unchecked_number_parse(model: FileModel, findings: list[Finding]):
    program = model.rel.startswith(("tools/", "bench/"))
    for lineno, line in enumerate(model.code_lines, 1):
        if NUMBER_PARSE_RE.search(line):
            report(model, findings, "unchecked-number-parse", lineno,
                   "std::sto*/ato* number parse; read the whole text with "
                   "std::from_chars and name the flag or key in the error")
        elif program and STRTO_RE.search(line):
            report(model, findings, "unchecked-number-parse", lineno,
                   "strto* number parse in a tool or bench program; parse "
                   "flags through flags::parse (tools/flags.hpp)")


PER_FILE_PASSES = (
    pass_rng,
    pass_sleep,
    pass_thread_spawn,
    pass_raw_timing,
    pass_raw_socket_io,
    pass_clock_in_sampling,
    pass_metric_name_literal,
    pass_handwritten_json,
    pass_unchecked_number_parse,
    pass_using_namespace,
    pass_pragma_once,
    pass_float_equality,
    pass_raw_sync_primitive,
    pass_manual_lock_unlock,
    pass_atomic_ordering,
    pass_mutex_guarded_by,
)

# The per-file passes that also run over tools/ and bench/.
PROGRAM_TREE_PASSES = (
    pass_handwritten_json,
    pass_unchecked_number_parse,
)


# --- repo-level passes -----------------------------------------------------

def find_function_body(code: str, name: str) -> tuple[int, str] | None:
    """Finds `name(...) ... {body}` at file scope; returns (line, body)."""
    for m in re.finditer(rf"(?<![\w:.])({re.escape(name)})\s*\(", code):
        # Reject declarations inside other words / member calls; crude but
        # adequate for this codebase's formatting.
        open_paren = m.end() - 1
        depth = 1
        i = open_paren + 1
        while i < len(code) and depth:
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
            i += 1
        # Skip whitespace/noexcept/specifiers to find '{' (definition) or ';'.
        j = i
        while j < len(code) and code[j] not in "{;":
            j += 1
        if j >= len(code) or code[j] == ";":
            continue  # declaration or call
        # Extract the brace-balanced body.
        depth = 1
        k = j + 1
        while k < len(code) and depth:
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
            k += 1
        line = code.count("\n", 0, m.start()) + 1
        return line, code[j:k]
    return None


def pass_linalg_shape_contracts(models: dict[str, FileModel],
                                findings: list[Finding]):
    for rel, names in LINALG_PUBLIC_ENTRIES.items():
        model = models.get(rel)
        if model is None:
            findings.append(Finding("linalg-shape-contracts", rel, 1,
                                    "expected source file is missing"))
            continue
        for name in names:
            found = find_function_body(model.code, name)
            if found is None:
                findings.append(Finding(
                    "linalg-shape-contracts", rel, 1,
                    f"public entry `{name}` has no definition here"))
                continue
            line, body = found
            if not VALIDATION_RE.search(body):
                report(model, findings, "linalg-shape-contracts", line,
                       f"public entry `{name}` does not validate its "
                       "inputs through the contract layer")


SEED_UTIL_INCLUDE_RE = re.compile(r'#include\s+"seed_util\.hpp"')


def pass_seed_echo_in_tests(test_models: list[FileModel],
                            findings: list[Finding]):
    for model in test_models:
        if not RNG_RE.search(model.code):
            continue
        if SEED_UTIL_INCLUDE_RE.search(model.raw):
            continue
        for lineno, line in enumerate(model.code_lines, 1):
            if RNG_RE.search(line):
                report(model, findings, "seed-echo-in-tests", lineno,
                       "randomized test without seed_util.hpp; derive "
                       "seeds via sweep_seeds() and lead failures with "
                       "seed_banner() so CATALYST_SEED=<n> replays them")
                break


# --- audit passes (run last: they judge the directives themselves) ---------

def pass_directive_audit(model: FileModel, findings: list[Finding]):
    findings.extend(model.fence_findings)
    for site, rules in sorted(model.suppression_sites.items()):
        for rule in sorted(rules):
            if rule not in KNOWN_RULES:
                findings.append(Finding(
                    "unknown-suppression-rule", model.rel, site,
                    f"allow({rule}) names no rule this linter defines; "
                    "fix the typo or delete the directive"))
            elif (site, rule) not in model.used_suppressions:
                findings.append(Finding(
                    "stale-suppression", model.rel, site,
                    f"allow({rule}) suppressed nothing this run; the "
                    "directive is stale -- delete it"))


# --- drivers ---------------------------------------------------------------

def load_models(root: Path, rel_prefix: str | None = None) -> list[FileModel]:
    models = []
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".cpp", ".hpp") or not path.is_file():
            continue
        if rel_prefix is not None:
            rel = f"{rel_prefix}/{path.relative_to(root).as_posix()}"
        else:
            rel = path.relative_to(REPO_ROOT).as_posix()
        models.append(FileModel(rel, path.read_text()))
    return models


def lint_repo() -> list[Finding]:
    findings: list[Finding] = []
    src_models = load_models(SRC)
    test_models = [FileModel(p.relative_to(REPO_ROOT).as_posix(),
                             p.read_text())
                   for p in sorted(TESTS.glob("*.cpp"))] if TESTS.is_dir() \
        else []
    for model in src_models:
        for p in PER_FILE_PASSES:
            p(model, findings)
    for tree in PROGRAM_TREES:
        for model in load_models(tree):
            for p in PROGRAM_TREE_PASSES:
                p(model, findings)
            pass_directive_audit(model, findings)
    pass_linalg_shape_contracts({m.rel: m for m in src_models}, findings)
    pass_seed_echo_in_tests(test_models, findings)
    for model in src_models + test_models:
        pass_directive_audit(model, findings)
    return findings


def selftest() -> int:
    """Runs the per-file passes over tests/lint_selftest fixtures; each
    fixture's `// expect: <rule>` lines are its expected findings."""
    if not SELFTEST_DIR.is_dir():
        print(f"catalyst-lint: no fixtures at {SELFTEST_DIR}",
              file=sys.stderr)
        return 2
    failures = 0
    n_fixtures = 0
    for path in sorted(SELFTEST_DIR.iterdir()):
        if path.suffix not in (".cpp", ".hpp"):
            continue
        n_fixtures += 1
        raw = path.read_text()
        expected = sorted(EXPECT_RE.findall(raw))
        # Virtual path: allowlists and tree-scoped rules behave exactly as
        # they would on a real (non-allow-listed) source file -- in bench/
        # for a bench_* fixture, in src/ otherwise.
        in_bench = path.name.startswith("bench_")
        tree = "bench" if in_bench else "src"
        model = FileModel(f"{tree}/lint_selftest/{path.name}", raw)
        findings: list[Finding] = []
        for p in PROGRAM_TREE_PASSES if in_bench else PER_FILE_PASSES:
            p(model, findings)
        pass_directive_audit(model, findings)
        got = sorted(f.rule for f in findings)
        if got != expected:
            failures += 1
            print(f"FAIL {path.name}: expected {expected or '[]'}, "
                  f"got {got or '[]'}")
            for f in findings:
                print(f"  {f}")
        else:
            print(f"ok   {path.name}: {expected or '(clean)'}")
    if n_fixtures == 0:
        print("catalyst-lint: selftest found no fixture files",
              file=sys.stderr)
        return 2
    if failures:
        print(f"catalyst-lint selftest: {failures}/{n_fixtures} fixture(s) "
              "failed")
        return 1
    print(f"catalyst-lint selftest: {n_fixtures} fixture(s) ok")
    return 0


def main(argv: list[str]) -> int:
    max_seconds: float | None = None
    run_selftest = False
    args = argv[1:]
    while args:
        arg = args.pop(0)
        if arg in ("-h", "--help"):
            print(__doc__)
            return 0
        if arg == "--selftest":
            run_selftest = True
            continue
        if arg == "--max-seconds":
            if not args:
                print("catalyst-lint: --max-seconds needs a value",
                      file=sys.stderr)
                return 2
            try:
                max_seconds = float(args.pop(0))
            except ValueError:
                print("catalyst-lint: --max-seconds needs a number",
                      file=sys.stderr)
                return 2
            continue
        print(f"catalyst-lint: unknown argument {arg!r}", file=sys.stderr)
        return 2

    started = time.monotonic()
    if run_selftest:
        status = selftest()
    else:
        if not SRC.is_dir():
            print(f"catalyst-lint: source tree not found at {SRC}",
                  file=sys.stderr)
            return 2
        findings = lint_repo()
        for f in findings:
            print(f)
        n_files = sum(1 for p in SRC.rglob("*")
                      if p.suffix in (".cpp", ".hpp") and p.is_file())
        if findings:
            print(f"catalyst-lint: {len(findings)} finding(s) in "
                  f"{n_files} files")
            status = 1
        else:
            print(f"catalyst-lint: clean ({n_files} files checked)")
            status = 0

    elapsed = time.monotonic() - started
    if max_seconds is not None and elapsed > max_seconds:
        print(f"catalyst-lint: run took {elapsed:.2f}s, over the "
              f"--max-seconds {max_seconds:g} budget", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
