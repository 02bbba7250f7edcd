"""Interprocedural dataflow rules over the symbol index / call graph / CFG.

The :class:`SemanticModel` is built once per analysis run (symbol index,
then call graph, then per-function CFGs) and handed to the four semantic
rules:

``uncharged-forward`` (v2)
    Every call chain from an attack/eval/service *entry point* to a
    classifier forward-family call (``forward``/``predict``/
    ``predict_proba``/``class_probability``/``eval_swap``/``eval_tokens``/
    ``try_eval_tokens`` and their batched variants) must pass through at
    least one function that charges the ``QueryBudget`` (``charge(``/
    ``charge_up_to(``, or the admission primitive ``try_charge(``) or
    binds an ``AttackControl`` to the evaluator shell (``bind_control(``
    — the shell then admits every evaluated row itself).
    Domination is at *function granularity*: a function that charges
    anywhere discharges the sinks it dominates — a deliberate
    approximation (branch-level domination would need real dataflow).
    Findings carry the uncharged chain as a witness.

``unpolled-loop``
    A loop on a hot path (src/core, src/eval, src/nn, src/service) whose
    body performs *heavy* work — a forward-family call, file IO, a sleep,
    or a call that transitively reaches one — must poll for cancellation
    inside the body: ``Deadline::expired``, ``StopToken::stop_requested``,
    budget exhaustion, ``Heartbeat::beat``, or a condvar wait (which
    yields by construction). Polling through a callee counts (the callee
    transitively polls).

``lock-order``
    Builds the global Mutex acquisition-order graph: an edge A -> B means
    B is acquired (directly or via a call chain) while A is held.
    Mutex identity is the class-qualified member (``AttackDaemon::mu_``)
    resolved from the lock expression and light local type inference;
    unresolvable owners collapse to ``?::member`` (consistent, so cycles
    are still comparable). ``try_lock`` never forms an edge (non-blocking
    acquisitions cannot deadlock). Any cycle in the graph is reported
    once, anchored at its lexicographically smallest mutex.

``severity-drop``
    A catch clause that *absorbs* an exception (no throw/rethrow/stash)
    inside a function that traffics in severities (``TerminationReason``,
    ``Outcome``, ``Failure``, ``worst_job``) — or whose handler records an
    error counter — must fold the failure into the severity lattice:
    ``worse_of(...)``, ``kError``, ``Outcome::error``, a ``Failure{...}``,
    or a call to a helper that transitively does. Otherwise an injected
    fault degrades into a log line and vanishes from the run's verdict.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from .callgraph import CallGraph, CallSite
from .cfg import FunctionCFG, build_cfg
from .engine import FileContext, Finding
from .symbols import Function, SymbolIndex

# -- token vocabularies ------------------------------------------------------

FORWARD_FAMILY = ("forward", "predict", "predict_proba",
                  "class_probability", "eval_swap", "eval_tokens",
                  "try_eval_tokens", "eval_swap_batch", "eval_tokens_batch",
                  "predict_proba_batch")
_RE_FORWARD_SITE = re.compile(
    r"(?:\.|->)\s*(?:%s)\s*\(" % "|".join(FORWARD_FAMILY))
#: try_charge is AttackControl's admission primitive: a forward runs only
#: once it returned true. bind_control counts as a charge site too: once an
#: AttackControl is bound to the SwapEvaluator shell, the shell itself
#: admits every evaluated row through try_charge, so the binding function
#: discharges the queries it dominates. A name that merely ends in
#: "charge" (retry_charge) does not.
_RE_CHARGE = re.compile(
    r"\b(?:try_)?charge(?:_up_to)?\s*\(|\bbind_control\s*\(")

_RE_HEAVY_DIRECT = re.compile(
    r"(?:\.|->)\s*(?:%s)\s*\(" % "|".join(FORWARD_FAMILY)
    + r"|\b(?:read_file|write_file|atomic_write_file|rename_file"
    + r"|remove_file|sleep_ms|save_artifact|load_artifact)\s*\("
    + r"|\b(?:read_frame|write_frame|accept_connection)\s*\(")
_RE_POLL = re.compile(
    r"\b(?:expired|stop_requested|budget_exhausted|exhausted|beat"
    r"|should_stop|stop\b.{0,12}requested|wait_for_ms|wait)\s*\("
    r"|\bout_of_time\b|\bout_of_budget\b")

_RE_SEVERITY_CTX = re.compile(
    r"\bTerminationReason\b|\bworse_of\b|\bOutcome\s*<|\bFailure\b"
    r"|\bworst_job\b|\.termination\b")
_RE_SEV_FOLD = re.compile(
    r"\bworse_of\s*\(|\bkError\b|\bkStopped\b|::\s*error\s*\("
    r"|\bFailure\s*\{|\bthrow\b|\brethrow_exception\b|\bcurrent_exception\b")
_RE_ERR_COUNTER = re.compile(r"\w*errored\b")

#: The locking primitives themselves are not subject to lock-order edges.
_SYNC_FILES = ("src/util/sync.h", "src/util/sync.cpp")

#: Hot paths for the unpolled-loop rule: attack orchestration, evaluation,
#: the service, and the training/serving side of src/nn. Model *internals*
#: (gru/lstm/cnn cell loops, defense wrappers) are excluded: one
#: forward-family call is the atomic unit the deadline/stop machinery acts
#: *between* — polling inside a single query's token loop is the wrong
#: granularity (documented soundness caveat in DESIGN.md §5.1).
_HOT_PREFIXES = ("src/core/", "src/eval/", "src/service/",
                 "src/nn/supervisor", "src/nn/trainer")

#: Functions implementing a single model query (or its gradient): their
#: internal loops are one unit of heavy work, not a sequence of them.
_QUERY_IMPL_NAMES = set(FORWARD_FAMILY) | {"input_gradient", "rebase"}


# -- semantic model ----------------------------------------------------------


class SemanticModel:
    """Symbol index + call graph + CFGs for one analysis run."""

    def __init__(self, contexts: list[FileContext]):
        self.contexts = contexts
        self.code_of = {c.rel: c.lexed.code for c in contexts}
        self.timings: dict[str, float] = {}

        t0 = time.monotonic()
        self.index = SymbolIndex.build(contexts)
        t1 = time.monotonic()
        self.graph = CallGraph.build(self.index, self.code_of)
        t2 = time.monotonic()
        self.cfgs: dict[int, FunctionCFG] = {
            id(fn): build_cfg(self.code_of[fn.file], fn)
            for fn in self.index.functions}
        t3 = time.monotonic()
        self.timings["symbol-index"] = t1 - t0
        self.timings["call-graph"] = t2 - t1
        self.timings["cfg"] = t3 - t2

    def cfg(self, fn: Function) -> FunctionCFG:
        return self.cfgs[id(fn)]

    def inner_body(self, fn: Function) -> str:
        return fn.body

    def site_abs(self, fn: Function, site: CallSite) -> tuple[str, int]:
        return fn.file, site.line


# -- rule 1: uncharged-forward v2 -------------------------------------------


def _is_entry(fn: Function) -> bool:
    if not fn.file.startswith(("src/core/", "src/eval/", "src/service/")):
        return False
    if "AttackControl" in fn.head:
        return True
    if fn.name in ("evaluate_attack", "adversarial_training_experiment"):
        return True
    if fn.file.startswith("src/service/") and fn.name in (
            "run_job", "worker_loop", "serve", "handle_connection",
            "recover"):
        return True
    return False


def _charges(fn: Function) -> bool:
    return bool(_RE_CHARGE.search(fn.body))


def check_uncharged_forward(model: SemanticModel) -> list[Finding]:
    findings: list[Finding] = []
    reported: set[tuple[str, int]] = set()
    entries = [fn for fn in model.index.functions if _is_entry(fn)]
    # BFS over (function, charged) states; parents reconstruct witnesses.
    from collections import deque
    queue: "deque[tuple[int, bool]]" = deque()
    parent: dict[tuple[int, bool], tuple[int, bool] | None] = {}
    fn_of: dict[int, Function] = {id(f): f for f in model.index.functions}
    for e in entries:
        state = (id(e), _charges(e))
        if state not in parent:
            parent[state] = None
            queue.append(state)
    while queue:
        fid, charged = queue.popleft()
        fn = fn_of[fid]
        if not charged:
            for site, _targets in model.graph.callees(fn):
                if site.name not in FORWARD_FAMILY:
                    continue
                loc = (fn.file, site.line)
                if loc in reported:
                    continue
                reported.add(loc)
                chain = _witness_chain(parent, (fid, charged), fn_of)
                chain.append(f"{fn.file}:{site.line} {site.name}() "
                             "[uncharged]")
                findings.append(Finding(
                    fn.file, site.line, "uncharged-forward",
                    f"classifier query '{site.name}()' is reachable from "
                    f"entry point '{chain[0].split()[-1]}' with no "
                    "QueryBudget charge anywhere on the call chain; admit "
                    "the forward (AttackControl::try_charge / "
                    "QueryBudget::charge_up_to) on the chain or the "
                    "paper's query accounting goes silently dishonest",
                    witness=tuple(chain)))
        for site, targets in model.graph.callees(fn):
            if site.name in FORWARD_FAMILY:
                continue  # the sink is the boundary; don't traverse past it
            for t in targets:
                nstate = (id(t), charged or _charges(t))
                if nstate not in parent:
                    parent[nstate] = (fid, charged)
                    queue.append(nstate)
    return findings


def _witness_chain(parent, state, fn_of) -> list[str]:
    chain = []
    cur = state
    while cur is not None:
        fn = fn_of[cur[0]]
        chain.append(f"{fn.file}:{fn.line} {fn.name}")
        cur = parent.get(cur)
    chain.reverse()
    return chain


# -- rule 2: unpolled-loop ---------------------------------------------------


def check_unpolled_loop(model: SemanticModel) -> list[Finding]:
    findings: list[Finding] = []
    heavy_reach = model.graph.functions_reaching(
        lambda f: bool(_RE_HEAVY_DIRECT.search(f.body)))
    poll_reach = model.graph.functions_reaching(
        lambda f: bool(_RE_POLL.search(f.body)))
    for fn in model.index.functions:
        if not fn.file.startswith(_HOT_PREFIXES):
            continue
        if fn.name in _QUERY_IMPL_NAMES:
            continue
        code = model.code_of[fn.file]
        cfg = model.cfg(fn)
        sites = model.graph.callees(fn)
        for loop in cfg.loops:
            span = code[loop.body_start:loop.body_end + 1]
            in_span = [(s, ts) for s, ts in sites
                       if loop.body_start <= s.idx <= loop.body_end]
            heavy = bool(_RE_HEAVY_DIRECT.search(span)) or any(
                any(id(t) in heavy_reach for t in ts) for _s, ts in in_span)
            if not heavy:
                continue
            polls = bool(_RE_POLL.search(span)) or any(
                any(id(t) in poll_reach for t in ts) for _s, ts in in_span)
            if polls:
                continue
            heavy_what = next(
                (s.name for s, ts in in_span
                 if any(id(t) in heavy_reach for t in ts)), None)
            m = _RE_HEAVY_DIRECT.search(span)
            if m and heavy_what is None:
                heavy_what = span[m.start():m.end()].strip(".->( ")
            findings.append(Finding(
                fn.file, loop.line, "unpolled-loop",
                f"loop in '{fn.name}' does heavy work "
                f"('{heavy_what}') but never polls "
                "Deadline/StopToken/QueryBudget/Heartbeat inside the "
                "body; a deadline or shutdown request cannot interrupt "
                "it, so the watchdog is the only thing that can — poll "
                "control.deadline.expired(), stop_requested(), "
                "budget_exhausted(), or heart->beat() in the loop",
                witness=(f"{fn.file}:{loop.line} loop in {fn.name}",)))
    return findings


# -- rule 3: lock-order ------------------------------------------------------


def _mutex_identity(model: SemanticModel, fn: Function, expr: str) -> str:
    """Normalizes a lock expression to ``Class::member`` where possible."""
    expr = expr.replace("this->", "")
    parts = re.split(r"\.|->", expr)
    member = parts[-1]
    if len(parts) == 1:
        # Bare member or local. A local Mutex is identified per-function.
        if re.search(r"\bMutex\s+%s\b" % re.escape(member), fn.body):
            return f"{fn.qualified}::{member}"
        return f"{fn.cls}::{member}" if fn.cls else f"?::{member}"
    owner = parts[-2]
    search_space = fn.head + fn.body
    for pat in (r"\b([A-Za-z_]\w*)\s*[*&]\s*(?:const\s*)?%s\b",
                r"(?:shared_ptr|unique_ptr|weak_ptr)\s*<\s*"
                r"([A-Za-z_]\w*)\s*>[^;({]{0,40}?\b%s\b",
                r"\b%s\s*=\s*std::make_shared<\s*([A-Za-z_]\w*)\s*>"):
        m = re.search(pat % re.escape(owner), search_space)
        if m:
            t = m.group(1)
            if t not in ("const", "auto"):
                return f"{t}::{member}"
    m = re.search(r"\b([A-Z]\w*)\s+%s\s*[;({=]" % re.escape(owner),
                  search_space)
    if m:
        return f"{m.group(1)}::{member}"
    return f"?::{member}"


def _locks_closure(model: SemanticModel) -> dict[int, set[str]]:
    """fn-id -> set of mutex identities acquired by fn or its callees."""
    direct: dict[int, set[str]] = {}
    for fn in model.index.functions:
        if fn.file in _SYNC_FILES:
            direct[id(fn)] = set()
            continue
        direct[id(fn)] = {
            _mutex_identity(model, fn, sc.mutex_expr)
            for sc in model.cfg(fn).locks}
    closure = {k: set(v) for k, v in direct.items()}
    changed = True
    while changed:
        changed = False
        for fn in model.index.functions:
            acc = closure[id(fn)]
            before = len(acc)
            for _site, targets in model.graph.callees(fn):
                for t in targets:
                    acc |= closure.get(id(t), set())
            if len(acc) != before:
                changed = True
    return closure


def check_lock_order(model: SemanticModel) -> list[Finding]:
    closure = _locks_closure(model)
    # edge: held -> acquired, with one witness (file, line, description)
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}
    for fn in model.index.functions:
        if fn.file in _SYNC_FILES:
            continue
        cfg = model.cfg(fn)
        sites = model.graph.callees(fn)
        for held in cfg.locks:
            a = _mutex_identity(model, fn, held.mutex_expr)
            for other in cfg.locks:
                if other.idx <= held.idx or other.idx > held.end:
                    continue
                b = _mutex_identity(model, fn, other.mutex_expr)
                if b != a:
                    edges.setdefault((a, b), (
                        fn.file, other.line,
                        f"{fn.name} acquires {b} while holding {a}"))
            for site, targets in sites:
                if not (held.idx <= site.idx <= held.end):
                    continue
                for t in targets:
                    for b in closure.get(id(t), ()):
                        if b != a:
                            edges.setdefault((a, b), (
                                fn.file, site.line,
                                f"{fn.name} -> {site.name}() acquires {b} "
                                f"while holding {a}"))

    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())

    findings: list[Finding] = []
    seen: set[tuple[str, ...]] = set()
    color: dict[str, int] = {}

    def dfs(node: str, path: list[str]) -> None:
        color[node] = 1
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if color.get(nxt, 0) == 1:
                cyc = tuple(path[path.index(nxt):])
                pivot = cyc.index(min(cyc))
                canon = cyc[pivot:] + cyc[:pivot]
                if canon in seen:
                    continue
                seen.add(canon)
                witness = []
                ring = list(canon) + [canon[0]]
                for x, y in zip(ring, ring[1:]):
                    f, ln, desc = edges[(x, y)]
                    witness.append(f"{f}:{ln} {desc}")
                f0, ln0, _ = edges[(canon[0], ring[1])]
                findings.append(Finding(
                    f0, ln0, "lock-order",
                    "mutex acquisition-order cycle "
                    + " -> ".join(ring)
                    + "; two threads taking these locks in opposing order "
                    "deadlock — impose one global order (or drop to a "
                    "try_lock with a fallback)",
                    witness=tuple(witness)))
            elif color.get(nxt, 0) == 0:
                dfs(nxt, path)
        path.pop()
        color[node] = 2

    for node in sorted(graph):
        if color.get(node, 0) == 0:
            dfs(node, [])
    return findings


# -- rule 4: severity-drop ---------------------------------------------------


def check_severity_drop(model: SemanticModel) -> list[Finding]:
    findings: list[Finding] = []
    fold_reach = model.graph.functions_reaching(
        lambda f: bool(_RE_SEV_FOLD.search(f.body)))
    for fn in model.index.functions:
        if not fn.file.startswith("src/"):
            continue
        cfg = model.cfg(fn)
        if not cfg.catches:
            continue
        sites = model.graph.callees(fn)
        for catch in cfg.catches:
            code = model.code_of[fn.file]
            body = code[catch.body_start:catch.body_end + 1]
            if _RE_SEV_FOLD.search(body):
                continue  # folds, throws, or stashes — fine
            outside = (fn.body[:catch.body_start - fn.body_start]
                       + fn.body[catch.body_end - fn.body_start:])
            severity_fn = bool(_RE_SEVERITY_CTX.search(outside))
            err_counter = bool(_RE_ERR_COUNTER.search(body))
            if not (severity_fn or err_counter):
                continue
            in_body = [(s, ts) for s, ts in sites
                       if catch.body_start <= s.idx <= catch.body_end]
            if any(any(id(t) in fold_reach for t in ts)
                   for _s, ts in in_body):
                continue  # a called helper folds/rethrows transitively
            findings.append(Finding(
                fn.file, catch.line, "severity-drop",
                f"catch ({catch.param or '...'}) in '{fn.name}' absorbs a "
                "failure without folding it into the severity lattice: "
                "record worse_of(..., TerminationReason::kError) (or "
                "return Outcome/Failure, or rethrow) so the failure "
                "survives into the run's verdict instead of degrading "
                "into a log line",
                witness=(f"{fn.file}:{catch.line} catch in {fn.name}",)))
    return findings
