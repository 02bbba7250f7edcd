"""Always-on self-test: fixture corpus + lexer regression cases.

Every fixture under ``testdata/`` is a self-describing C++ file:

    // fixture-path: src/core/example.cpp     (virtual repo-relative path)
    // fixture-group: cycle                   (optional: analyze together)
    // expect: rule-id@LINE                   (one per expected finding)
    // expect-suppressed: rule-id@LINE        (finding silenced by an ALLOW)
    // expect-clean                           (no findings at all)

Fixtures in the same group are analyzed as one virtual project (include
cycles and layering need multiple files); ungrouped fixtures are analyzed
alone. The harness fails if a declared finding does not fire, if anything
undeclared fires, or if a declared suppression is not in effect — so every
rule is proven to both fire and stay quiet on every run of the analyzer
(the PR 5 lint self-test pattern, promoted to a corpus).

The lexer regression cases pin the raw-string/escape bugs the legacy
``strip_comments`` scanner had: content inside ``R"(...)"`` must neither
desync the scanner nor fake violations, and escapes must not eat newlines.
"""

from __future__ import annotations

import re
from pathlib import Path

from .engine import AnalysisResult, Project
from .lexer import lex
from .rules import RULES

TESTDATA = Path(__file__).resolve().parent / "testdata"
REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: Fixtures analyzed together to produce the golden ``--json`` payload:
#: a semantic finding with a multi-hop call-chain witness, a loop finding
#: with a single-hop witness, a file-rule finding with no witness, and a
#: reasoned suppression — every field of the JSON schema is exercised in
#: one byte-pinned document.
GOLDEN_FIXTURES = ("uncharged_forward_firing.cpp",
                   "unpolled_loop_firing.cpp",
                   "shared_temp_path_firing.cpp",
                   "allow_with_reason.cpp")
GOLDEN_PATH = TESTDATA / "golden_findings.json"

#: Regression pin for one interprocedural witness: the exact chain the
#: analyzer must report for the helper-wrapped uncharged forward fixture.
#: If resolution or BFS order changes this, the change is load-bearing for
#: everyone reading witnesses out of CI artifacts — update it consciously.
GOLDEN_WITNESS = (
    "src/core/fixture_forward_firing.cpp:10 fixture_entry",
    "src/core/fixture_forward_firing.cpp:6 fixture_query_helper",
    "src/core/fixture_forward_firing.cpp:7 predict() [uncharged]",
)

_RE_DIRECTIVE = re.compile(
    r"//\s*(fixture-path|fixture-group|expect-suppressed|expect-clean|"
    r"expect)\s*:?\s*(.*?)\s*$")


class Fixture:
    def __init__(self, path: Path):
        self.path = path
        self.text = path.read_text(encoding="utf-8")
        self.virtual_path: str | None = None
        self.group: str | None = None
        self.expect: set[tuple[str, int]] = set()
        self.expect_suppressed: set[tuple[str, int]] = set()
        self.expect_clean = False
        for line in self.text.splitlines():
            m = _RE_DIRECTIVE.match(line.strip())
            if not m:
                continue
            kind, value = m.group(1), m.group(2)
            if kind == "fixture-path":
                self.virtual_path = value
            elif kind == "fixture-group":
                self.group = value
            elif kind == "expect-clean":
                self.expect_clean = True
            elif kind in ("expect", "expect-suppressed"):
                rule_id, _, line_no = value.partition("@")
                target = (rule_id.strip(), int(line_no))
                if kind == "expect":
                    self.expect.add(target)
                else:
                    self.expect_suppressed.add(target)


def _check_group(name: str, fixtures: list[Fixture]) -> list[str]:
    failures: list[str] = []
    files = {f.virtual_path: f.text for f in fixtures}
    project = Project(
        files, file_exists=lambda rel: (REPO_ROOT / rel).is_file())
    result = project.analyze()

    got = {(f.file, f.rule, f.line) for f in result.findings}
    got_suppressed = {(f.file, f.rule, f.line)
                      for f, _ in result.suppressed}
    want = set()
    want_suppressed = set()
    for f in fixtures:
        for rule_id, line in f.expect:
            want.add((f.virtual_path, rule_id, line))
        for rule_id, line in f.expect_suppressed:
            want_suppressed.add((f.virtual_path, rule_id, line))

    for missing in sorted(want - got):
        failures.append(
            f"self-test[{name}]: expected finding did not fire: "
            f"{missing[0]}:{missing[2]} [{missing[1]}]")
    for extra in sorted(got - want):
        failures.append(
            f"self-test[{name}]: unexpected finding: "
            f"{extra[0]}:{extra[2]} [{extra[1]}]")
    for missing in sorted(want_suppressed - got_suppressed):
        failures.append(
            f"self-test[{name}]: expected suppression not in effect: "
            f"{missing[0]}:{missing[2]} [{missing[1]}]")
    return failures


def _lexer_regressions() -> list[str]:
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(f"self-test[lexer]: {what}")

    # Raw string with an embedded quote and // must not desync the scanner:
    # the std::thread after it is real code and must survive masking.
    src = 'const char* s = R"(quote " and // slash)";\nstd::thread t;\n'
    code = lex(src).code
    expect("std::thread" in code,
           'code after R"(...")" was masked (scanner desync)')
    expect("slash" not in code, "raw-string contents leaked into code")

    # Violation *text* inside a raw string must stay masked.
    src = 'const char* s = R"(std::mutex m;)";\n'
    expect("std::mutex" not in lex(src).code,
           "raw-string contents treated as code")

    # Custom delimiter + encoding prefix.
    src = 'auto s = u8R"xy(a )" b)xy"; std::mutex m;\n'
    expect("std::mutex" in lex(src).code,
           "delimited raw string swallowed following code")

    # A // inside an ordinary string is not a comment.
    src = 'const char* u = "http://x"; std::mutex m;\n'
    expect("std::mutex" in lex(src).code,
           "// inside a string literal started a phantom comment")

    # Multi-char escapes and a quote escape in a char literal.
    src = "char c = '\\x41'; char q = '\\''; std::mutex m;\n"
    expect("std::mutex" in lex(src).code,
           "escape handling desynced on char literals")

    # Line structure is preserved exactly (findings map to raw lines).
    src = 'int a;\nR"(multi\nline\nraw)";\nint b; // trailing\n/* block\n' \
          'comment */ int c;\n'
    expect(lex(src).code.count("\n") == src.count("\n"),
           "masking changed the newline count")

    # Backslash as the last character must not eat the final newline.
    src = 'int a;\n"unterminated \\'
    expect(lex(src).code.count("\n") == src.count("\n"),
           "trailing backslash dropped a newline")

    # Comments are captured for suppression parsing.
    src = "int a; // ADVTEXT_ALLOW(raw-mutex): reason here\n"
    comments = lex(src).comments
    expect(any("ADVTEXT_ALLOW" in text for _, text in comments),
           "trailing comment not captured")
    return failures


def _golden_result() -> AnalysisResult:
    files: dict[str, str] = {}
    for name in GOLDEN_FIXTURES:
        fixture = Fixture(TESTDATA / name)
        files[fixture.virtual_path] = fixture.text
    project = Project(
        files, file_exists=lambda rel: (REPO_ROOT / rel).is_file())
    return project.analyze()


def regenerate_golden() -> Path:
    """Rewrites the golden JSON from the current analyzer output (the
    ``--regen-golden`` flag). The diff of the regenerated file *is* the
    review artifact for an intentional schema change."""
    GOLDEN_PATH.write_text(_golden_result().render_json(), encoding="utf-8")
    return GOLDEN_PATH


def _golden_regressions() -> list[str]:
    """Byte-pins the ``--json`` schema: stable rule ids, file/line/rule/
    message/witness fields, sorted keys. Trend tooling and CI artifact
    consumers parse this payload, so drift must be a conscious decision."""
    failures: list[str] = []
    result = _golden_result()

    witness = next((f.witness for f in result.findings
                    if f.rule == "uncharged-forward"), None)
    if witness != GOLDEN_WITNESS:
        failures.append(
            "self-test[golden]: pinned call-chain witness drifted:\n"
            f"  want: {list(GOLDEN_WITNESS)}\n"
            f"  got:  {list(witness) if witness else witness}")

    if not GOLDEN_PATH.is_file():
        failures.append(
            "self-test[golden]: testdata/golden_findings.json is missing; "
            "regenerate with `python3 -m tools.analyzer --regen-golden`")
        return failures
    expected = GOLDEN_PATH.read_text(encoding="utf-8")
    got = result.render_json()
    if got != expected:
        want_lines = expected.splitlines()
        got_lines = got.splitlines()
        first = next((i for i, (a, b) in enumerate(
            zip(want_lines, got_lines)) if a != b),
            min(len(want_lines), len(got_lines)))
        failures.append(
            "self-test[golden]: --json payload drifted from "
            f"testdata/golden_findings.json (first diff at line "
            f"{first + 1}); if the schema change is intentional, "
            "regenerate with `python3 -m tools.analyzer --regen-golden` "
            "and review the diff")
    return failures


def run_self_test(verbose: bool = False) -> list[str]:
    failures = _lexer_regressions()
    failures.extend(_golden_regressions())

    fixtures = []
    for path in sorted(TESTDATA.rglob("*")):
        if path.suffix not in (".h", ".hpp", ".cc", ".cpp"):
            continue
        fixture = Fixture(path)
        if fixture.virtual_path is None:
            failures.append(
                f"self-test: {path.name} has no fixture-path directive")
            continue
        if not (fixture.expect or fixture.expect_suppressed
                or fixture.expect_clean):
            failures.append(
                f"self-test: {path.name} declares no expectations")
            continue
        fixtures.append(fixture)

    groups: dict[str, list[Fixture]] = {}
    for f in fixtures:
        groups.setdefault(f.group or f.path.stem, []).append(f)
    for name, members in sorted(groups.items()):
        group_failures = _check_group(name, members)
        failures.extend(group_failures)
        if verbose and not group_failures:
            print(f"self-test[{name}]: ok "
                  f"({', '.join(m.path.name for m in members)})")

    # Corpus completeness: every registered rule must be proven to fire by
    # at least one fixture, so adding a rule without fixtures fails here.
    proven = {rule_id for f in fixtures
              for rule_id, _ in (f.expect | f.expect_suppressed)}
    for rule_id in RULES:
        if rule_id not in proven:
            failures.append(
                f"self-test: rule '{rule_id}' has no firing fixture in "
                "testdata/ — every rule must be proven to fire")
    return failures
