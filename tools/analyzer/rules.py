"""Rule catalog for the advtext analyzer.

Every rule has a stable id (the nine legacy tools/lint.py ids are preserved
verbatim), a one-line synopsis (shown by ``--list-rules`` and used in
DESIGN.md's catalog), and either a per-file ``check(ctx)`` or a
project-level ``check_project(contexts)``.

Scopes are expressed on repo-relative paths, so the self-test can replay
them on a virtual fixture tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable

from . import include_graph
from .engine import FileContext, Finding

# ---------------------------------------------------------------------------
# Rule plumbing


@dataclass(frozen=True)
class Rule:
    id: str
    synopsis: str
    checker: Callable
    project_level: bool = False
    #: Semantic rules consume the SemanticModel (symbol index, call graph,
    #: CFGs) that the engine builds once per run, instead of raw contexts.
    semantic: bool = False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return self.checker(ctx)

    def check_project(self, contexts: list[FileContext],
                      model=None) -> Iterable[Finding]:
        if self.semantic:
            return self.checker(model)
        return self.checker(contexts)


FILE_RULES: list[Rule] = []
PROJECT_RULES: list[Rule] = []
RULES: dict[str, Rule] = {}


def _register(rule: Rule) -> None:
    assert rule.id not in RULES, f"duplicate rule id {rule.id}"
    RULES[rule.id] = rule
    (PROJECT_RULES if rule.project_level else FILE_RULES).append(rule)


def file_rule(rule_id: str, synopsis: str):
    def wrap(fn):
        _register(Rule(rule_id, synopsis, fn))
        return fn
    return wrap


def project_rule(rule_id: str, synopsis: str):
    def wrap(fn):
        _register(Rule(rule_id, synopsis, fn, project_level=True))
        return fn
    return wrap


def semantic_rule(rule_id: str, synopsis: str):
    def wrap(fn):
        _register(Rule(rule_id, synopsis, fn, project_level=True,
                       semantic=True))
        return fn
    return wrap


# ---------------------------------------------------------------------------
# Shared scopes (mirrors the legacy lint.py constants)

RAW_RANDOM_ALLOWED = {"src/util/rng.h", "src/util/rng.cpp"}
SYNC_ALLOWED = {"src/util/sync.h", "src/util/sync.cpp"}
NET_ALLOWED = {"src/service/net.h", "src/service/net.cpp"}
# File IO is confined to the fault-injectable wrapper (io_file) so every
# byte that touches disk passes the io.read/io.write chaos sites; net.* is
# also allowed because it unlinks its socket file with std::remove.
IO_ALLOWED = {"src/util/io_file.h", "src/util/io_file.cpp"} | NET_ALLOWED

# ---------------------------------------------------------------------------
# Legacy rules (ids unchanged since PR 1-5)

_RE_PRAGMA_ONCE = re.compile(r"^\s*#\s*pragma\s+once\b", re.MULTILINE)
_RE_USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")
_RE_RAW_RANDOM = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?(?:rand|srand)\s*\(|std\s*::\s*random_device"
)
_RE_COUT = re.compile(r"std\s*::\s*(?:cout|cerr)\b")
_RE_RAW_CLOCK = re.compile(
    r"(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\("
)
_RE_RAW_SIGNAL = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?signal\s*\(|(?<![\w:])sigaction\s*\("
)
_RE_RAW_THREAD = re.compile(
    r"std\s*::\s*(?:jthread|thread|async)\b"
    r"|(?<![\w:])pthread_(?:create|detach)\s*\("
)
_RE_RAW_SOCKET = re.compile(
    r"#\s*include\s+<(?:sys/socket\.h|sys/un\.h|netinet/|arpa/inet\.h"
    r"|poll\.h|sys/poll\.h)"
    r"|\bsockaddr\w*\b"
    r"|\bAF_(?:UNIX|LOCAL|INET6?)\b|\bSOCK_(?:STREAM|DGRAM|SEQPACKET)\b"
    r"|(?<![\w:.])(?:::\s*)?(?:socket|accept4?)\s*\("
)
_RE_RAW_MUTEX = re.compile(
    r"std\s*::\s*(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)


@file_rule("pragma-once",
           "every header starts with #pragma once")
def check_pragma_once(ctx: FileContext):
    if ctx.is_header and not _RE_PRAGMA_ONCE.search(ctx.lexed.code):
        yield Finding(ctx.rel, 1, "pragma-once",
                      "header missing #pragma once")


@file_rule("using-namespace",
           "no `using namespace` at any scope inside headers")
def check_using_namespace(ctx: FileContext):
    if not ctx.is_header:
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_USING_NAMESPACE.search(line):
            yield Finding(ctx.rel, idx, "using-namespace",
                          "`using namespace` in a header leaks into every "
                          "includer")


@file_rule("include-path",
           "quoted includes are repo-root-relative and resolve to a file")
def check_include_path(ctx: FileContext):
    for idx, inc in include_graph.quoted_includes(ctx):
        if inc.startswith(".") or "/.." in inc:
            yield Finding(ctx.rel, idx, "include-path",
                          f'relative include "{inc}"; use a repo-root path '
                          'like "src/util/rng.h"')
        elif not ctx.file_exists(inc):
            yield Finding(ctx.rel, idx, "include-path",
                          f'include "{inc}" is not a repo-root-relative '
                          "path to an existing file")


@file_rule("raw-random",
           "no rand()/srand()/std::random_device outside src/util/rng.*")
def check_raw_random(ctx: FileContext):
    if ctx.rel in RAW_RANDOM_ALLOWED:
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_RAW_RANDOM.search(line):
            yield Finding(ctx.rel, idx, "raw-random",
                          "raw randomness outside src/util/rng.*; take an "
                          "advtext::Rng so runs reproduce from one seed")


@file_rule("cout-in-library",
           "no std::cout/std::cerr in library code (src/)")
def check_cout(ctx: FileContext):
    if not ctx.in_library:
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_COUT.search(line):
            yield Finding(ctx.rel, idx, "cout-in-library",
                          "std::cout/std::cerr in library code; return data "
                          "and let bench/examples do the printing")


@file_rule("raw-clock",
           "no *_clock::now() in src/ outside src/util/")
def check_raw_clock(ctx: FileContext):
    if not ctx.in_library or ctx.in_dir("src/util/"):
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_RAW_CLOCK.search(line):
            yield Finding(ctx.rel, idx, "raw-clock",
                          "raw clock read outside src/util/; route timing "
                          "through Stopwatch or Deadline")


@file_rule("raw-signal",
           "no signal()/sigaction() outside src/util/")
def check_raw_signal(ctx: FileContext):
    if ctx.in_dir("src/util/"):
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_RAW_SIGNAL.search(line):
            yield Finding(ctx.rel, idx, "raw-signal",
                          "raw signal()/sigaction() outside src/util/; "
                          "install handlers through StopToken so shutdown "
                          "stays cooperative")


@file_rule("raw-thread",
           "no std::thread/jthread/async or pthread_create outside "
           "src/util/sync.*")
def check_raw_thread(ctx: FileContext):
    if ctx.rel in SYNC_ALLOWED:
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_RAW_THREAD.search(line):
            yield Finding(ctx.rel, idx, "raw-thread",
                          "raw thread spawn (std::thread/std::async/"
                          "pthread_create) outside src/util/sync.*; spawn "
                          "workers through advtext::ThreadPool so lifetimes "
                          "are joined in one place")


@file_rule("raw-socket",
           "no raw socket primitives (socket()/accept()/sockaddr/AF_*) "
           "outside src/service/net.*")
def check_raw_socket(ctx: FileContext):
    if ctx.rel in NET_ALLOWED:
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_RAW_SOCKET.search(line):
            yield Finding(ctx.rel, idx, "raw-socket",
                          "raw socket primitive outside src/service/net.*; "
                          "speak Connection/ServerSocket frames so framing "
                          "limits, timeouts, and the service.* fault-"
                          "injection sites guard every byte that crosses "
                          "the wire")


@file_rule("raw-mutex",
           "no raw std locking primitives outside src/util/sync.*")
def check_raw_mutex(ctx: FileContext):
    if ctx.rel in SYNC_ALLOWED:
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_RAW_MUTEX.search(line):
            yield Finding(ctx.rel, idx, "raw-mutex",
                          "raw std locking primitive outside src/util/"
                          "sync.*; use advtext::Mutex/MutexLock/CondVar so "
                          "the Clang thread-safety analysis sees the lock")


_RE_RAW_IO = re.compile(
    r"std\s*::\s*(?:[io]?fstream|rename|remove)\b"
    r"|(?<![\w:])(?:std\s*::\s*)?(?:fopen|freopen|fwrite|fread)\s*\("
    r"|(?<![\w:.])::\s*open\s*\("
)


@file_rule("raw-io",
           "no raw file IO (fstream/fopen/rename/remove) in src/ outside "
           "src/util/io_file.* and src/service/net.*")
def check_raw_io(ctx: FileContext):
    if not ctx.in_library or ctx.rel in IO_ALLOWED:
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_RAW_IO.search(line):
            yield Finding(ctx.rel, idx, "raw-io",
                          "raw file IO outside src/util/io_file.* and "
                          "src/service/net.*; go through read_file/"
                          "write_file/AtomicFileWriter so torn-write, "
                          "ENOSPC, and short-read faults from the chaos "
                          "harness cover every disk touch and publication "
                          "stays atomic")


# ---------------------------------------------------------------------------
# Determinism / robustness rule pack (new in the analyzer)

_RE_UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
_RE_RANGE_FOR = re.compile(
    r"\bfor\s*\([^;()]*?:\s*&?\s*"
    r"([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*\)")
_RE_FLOAT_DECL = re.compile(r"\b(?:double|float)\s+([A-Za-z_]\w*)")
_RE_FLOAT_ACCUM = re.compile(r"(?<![\w.])([A-Za-z_]\w*)\s*\+=")
_RE_FMA = re.compile(r"(?<![\w:])(?:std\s*::\s*)?fmaf?\s*\(")
_RE_GETENV = re.compile(r"(?<![\w:])(?:std\s*::\s*)?getenv\s*\(")
_RE_CATCH = re.compile(r"\bcatch\s*\(")
_RE_CATCH_ALL_PARAM = re.compile(
    r"^\s*(?:\.\.\.|(?:const\s+)?std\s*::\s*exception\s*&?\s*\w*)\s*$")
_RE_RETHROW = re.compile(
    r"\bthrow\b|\bcurrent_exception\b|\brethrow_exception\b")
def _matching(text: str, open_idx: int, open_ch: str, close_ch: str) -> int:
    """Index of the bracket matching text[open_idx], or -1."""
    depth = 0
    for k in range(open_idx, len(text)):
        c = text[k]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return k
    return -1


def _line_of(text: str, idx: int) -> int:
    return text.count("\n", 0, idx) + 1


def _unordered_names(ctx: FileContext,
                     contexts_by_rel: dict[str, FileContext]) -> set[str]:
    """Names declared with an unordered container type in this file, plus —
    for a .cpp — in its same-named header (members iterated from the
    implementation file are declared there)."""
    sources = [ctx.lexed.code]
    if ctx.rel.endswith((".cc", ".cpp")):
        stem = ctx.rel.rsplit(".", 1)[0]
        for suffix in (".h", ".hpp"):
            paired = contexts_by_rel.get(stem + suffix)
            if paired is not None:
                sources.append(paired.lexed.code)
    names: set[str] = set()
    for code in sources:
        for m in _RE_UNORDERED_DECL.finditer(code):
            close = _matching(code, m.end() - 1, "<", ">")
            if close == -1:
                continue
            tail = code[close + 1:close + 120]
            dm = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", tail)
            if dm and dm.group(1) not in ("const", "final", "override"):
                names.add(dm.group(1))
    return names


@project_rule("unordered-iteration",
              "no range-for over unordered containers in src/ (hash order "
              "is nondeterministic and must not reach committed output)")
def check_unordered_iteration(contexts: list[FileContext]):
    by_rel = {c.rel: c for c in contexts}
    for ctx in contexts:
        if not ctx.in_library:
            continue
        names = _unordered_names(ctx, by_rel)
        if not names:
            continue
        for idx, line in enumerate(ctx.code_lines, start=1):
            for m in _RE_RANGE_FOR.finditer(line):
                expr = m.group(1)
                last = re.split(r"\.|->", expr)[-1].strip()
                if last in names:
                    yield Finding(
                        ctx.rel, idx, "unordered-iteration",
                        f"range-for over unordered container '{last}': "
                        "hash iteration order is implementation-defined; "
                        "sort the keys (or copy into a sorted vector) "
                        "before anything order-sensitive consumes them")


def _loop_regions(code: str) -> list[tuple[int, int]]:
    """(start, end) index ranges of loop bodies (for/while/do), found on the
    masked code so strings/comments cannot fake a keyword."""
    regions: list[tuple[int, int]] = []
    for m in re.finditer(r"\b(for|while|do)\b", code):
        kw = m.group(1)
        k = m.end()
        if kw in ("for", "while"):
            while k < len(code) and code[k].isspace():
                k += 1
            if k >= len(code) or code[k] != "(":
                continue
            close = _matching(code, k, "(", ")")
            if close == -1:
                continue
            k = close + 1
        while k < len(code) and code[k].isspace():
            k += 1
        if k < len(code) and code[k] == "{":
            end = _matching(code, k, "{", "}")
            regions.append((k, len(code) if end == -1 else end))
        else:
            semi = code.find(";", k)
            regions.append((k, len(code) if semi == -1 else semi))
    return regions


@file_rule("float-accum",
           "no floating +=/fma reductions in loops outside the blessed "
           "helpers in src/tensor/ and src/util/")
def check_float_accum(ctx: FileContext):
    if not ctx.in_library or ctx.in_dir("src/tensor/", "src/util/"):
        return
    code = ctx.lexed.code
    regions = _loop_regions(code)
    if not regions:
        return
    float_names = set(_RE_FLOAT_DECL.findall(code))

    def in_loop(idx: int) -> bool:
        return any(start <= idx < end for start, end in regions)

    for m in _RE_FLOAT_ACCUM.finditer(code):
        if m.group(1) in float_names and in_loop(m.start()):
            yield Finding(
                ctx.rel, _line_of(code, m.start()), "float-accum",
                f"floating-point accumulation '{m.group(1)} +=' in a loop; "
                "reduction order determines the bits — route it through a "
                "blessed deterministic helper in src/tensor/ or src/util/, "
                "or suppress with the reason the order is fixed")
    for m in _RE_FMA.finditer(code):
        if in_loop(m.start()):
            yield Finding(
                ctx.rel, _line_of(code, m.start()), "float-accum",
                "fma reduction in a loop outside src/tensor/ / src/util/; "
                "keep fused reductions in the blessed helpers so the "
                "rounding schedule stays in one place")


@file_rule("catch-all",
           "no catch (...) / catch (std::exception&) that absorbs without "
           "rethrow in src/")
def check_catch_all(ctx: FileContext):
    if not ctx.in_library:
        return
    code = ctx.lexed.code
    for m in _RE_CATCH.finditer(code):
        open_paren = code.index("(", m.start())
        close_paren = _matching(code, open_paren, "(", ")")
        if close_paren == -1:
            continue
        param = code[open_paren + 1:close_paren]
        if not _RE_CATCH_ALL_PARAM.match(param.strip()):
            continue
        k = close_paren + 1
        while k < len(code) and code[k].isspace():
            k += 1
        if k >= len(code) or code[k] != "{":
            continue
        end = _matching(code, k, "{", "}")
        body = code[k:end if end != -1 else len(code)]
        if _RE_RETHROW.search(body):
            continue
        yield Finding(
            ctx.rel, _line_of(code, m.start()), "catch-all",
            f"catch ({param.strip() or '...'}) absorbs every exception "
            "without rethrowing: contract violations and injected faults "
            "vanish silently; catch the narrowest type the site can "
            "actually handle, or rethrow/stash what it cannot")


@file_rule("env-access",
           "no getenv outside src/util/ and bench/")
def check_env_access(ctx: FileContext):
    if ctx.in_dir("src/util/", "bench/"):
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_GETENV.search(line):
            yield Finding(
                ctx.rel, idx, "env-access",
                "getenv outside src/util/ and bench/: ambient environment "
                "reads make runs irreproducible from their flags; plumb "
                "configuration through explicit config structs")


_RE_SHARED_TEMP = re.compile(
    r"temp_directory_path\s*\(|(?<![\w])testing\s*::\s*TempDir\s*\(")
#: The one test header that names the temp directory: it hands out
#: per-process paths that are removed when the test ends.
TEMP_PATH_ALLOWED = {"tests/state_dir.h"}


@file_rule("shared-temp-path",
           "tests name the temp directory only through tests/state_dir.h")
def check_shared_temp_path(ctx: FileContext):
    if not ctx.in_dir("tests/") or ctx.rel in TEMP_PATH_ALLOWED:
        return
    for idx, line in enumerate(ctx.code_lines, start=1):
        if _RE_SHARED_TEMP.search(line):
            yield Finding(
                ctx.rel, idx, "shared-temp-path",
                "a path under the shared temp directory: two processes "
                "running one test binary at once (two build trees, or a "
                "sanitizer tree beside the normal one) delete or overwrite "
                "each other's files; take a per-process ScopedTempFile or "
                "ScopedStateDir from tests/state_dir.h")


# ---------------------------------------------------------------------------
# Semantic (interprocedural) rules — symbol index + call graph + CFG.
# The checkers live in dataflow.py; registration here keeps the catalog in
# one place. `uncharged-forward` keeps its PR 6 rule id: v2 subsumes the
# old lexical check (same invariant, now proven across call boundaries).

from . import dataflow  # noqa: E402  (needs Rule plumbing above)


@semantic_rule("uncharged-forward",
               "every call chain from an attack/eval/service entry point "
               "to a classifier forward/predict/eval_* call charges the "
               "QueryBudget somewhere on the chain")
def check_uncharged_forward(model):
    return dataflow.check_uncharged_forward(model)


@semantic_rule("unpolled-loop",
               "loops doing heavy work (model queries, IO, sleeps — "
               "directly or via callees) on hot paths poll Deadline/"
               "StopToken/QueryBudget/Heartbeat in the body")
def check_unpolled_loop(model):
    return dataflow.check_unpolled_loop(model)


@semantic_rule("lock-order",
               "the global Mutex acquisition-order graph (lock scopes x "
               "call graph) is acyclic")
def check_lock_order(model):
    return dataflow.check_lock_order(model)


@semantic_rule("severity-drop",
               "catch sites in severity-carrying functions fold absorbed "
               "failures via worse_of/kError/Outcome or rethrow, "
               "directly or through a callee")
def check_severity_drop(model):
    return dataflow.check_severity_drop(model)


# ---------------------------------------------------------------------------
# Project-level graph rules

@project_rule("include-layering",
              "includes respect the layer DAG util -> tensor -> "
              "text/nn/optim/data -> core -> eval -> service -> "
              "tests/bench/examples (src/ never includes the harness)")
def check_layering(contexts: list[FileContext]):
    return include_graph.check_layering(contexts)


@project_rule("include-cycle",
              "the file-level include graph of the analyzed tree is "
              "acyclic")
def check_cycles(contexts: list[FileContext]):
    return include_graph.check_cycles(contexts)


# ---------------------------------------------------------------------------
# Suppression-integrity rules. These are *emitted by the engine* during
# suppression parsing, not by a checker — registered here so they appear in
# the catalog, are accepted rule ids, and self-test fixtures can reference
# them.

def _no_op(_ctx):
    return ()


_register(Rule("allow-missing-reason",
               "every ADVTEXT_ALLOW suppression carries a reviewable "
               "reason", _no_op))
_register(Rule("allow-unknown-rule",
               "ADVTEXT_ALLOW annotations are well-formed and name a "
               "known rule", _no_op))
