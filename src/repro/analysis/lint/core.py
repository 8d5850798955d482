"""Finding model, rule registry, suppression comments and the lint runner.

A :class:`Rule` inspects one parsed file (:class:`FileContext`) and yields
:class:`Finding` records.  The runner (:func:`lint_paths`) walks the target
paths deterministically (sorted recursive order), parses each ``*.py`` once,
runs every selected rule, filters inline suppressions
(``# repro-lint: disable=RULE``) and returns a :class:`LintResult`.

Findings carry a content-based :meth:`~Finding.fingerprint` — a hash of the
rule id, the *module identity* (dotted import path when the file lives in a
package, file name otherwise), the enclosing scope and the stripped source
line — deliberately excluding the line number, so committed baselines
survive unrelated edits that shift code up or down.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class Finding:
    """One contract violation at a specific source location.

    Attributes
    ----------
    rule:
        Registered rule id, e.g. ``"unsorted-iteration"``.
    path:
        File path as resolved by the runner (display only; the fingerprint
        uses ``module`` so baselines are working-directory independent).
    module:
        Dotted import path when the file belongs to a package reachable
        through ``__init__.py`` chains (``"repro.campaign.store"``), else
        ``None``.
    line, column:
        1-based line and 0-based column of the offending node.
    scope:
        Dotted enclosing definition, e.g. ``"CampaignStore._segment_files"``, or
        ``"<module>"`` at top level.
    code:
        The stripped source line (identity anchor for the fingerprint).
    message:
        Human explanation of the violation.
    """

    rule: str
    path: str
    module: str | None
    line: int
    column: int
    scope: str
    code: str
    message: str

    def fingerprint(self) -> str:
        """Stable identity for baseline matching (line-number independent)."""
        anchor = self.module if self.module else Path(self.path).name
        payload = "\x00".join((self.rule, anchor, self.scope, self.code))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation (includes the fingerprint)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "column": self.column,
            "scope": self.scope,
            "code": self.code,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


@dataclass(frozen=True)
class LintConfig:
    """Tunable rule scoping.

    Attributes
    ----------
    wall_clock_allowlist:
        Dotted module prefixes where wall-clock reads (``time.time()``,
        ``datetime.now()``) are legitimate: telemetry stamps and store
        metadata.  A prefix matches the module itself and any submodule.
    durable_write_allowlist:
        Modules allowed to open files in append mode — the fsync'd append
        helpers every other durable write must route through.
    """

    wall_clock_allowlist: tuple[str, ...] = (
        "repro.telemetry",
        "repro.campaign.watch",
        "repro.campaign.store",
    )
    durable_write_allowlist: tuple[str, ...] = (
        "repro.campaign.store",
        "repro.telemetry.progress",
    )

    def module_allowed(self, module: str | None, allowlist: Sequence[str]) -> bool:
        """Whether ``module`` falls under any allowlisted prefix."""
        if module is None:
            return False
        return any(
            module == prefix or module.startswith(prefix + ".") for prefix in allowlist
        )


class FileContext:
    """One parsed source file plus the derived maps rules share.

    Everything expensive (parent links, scope names, import aliases) is
    computed lazily and cached, so a file pays only for what the selected
    rules actually use.
    """

    def __init__(
        self,
        path: Path,
        source: str,
        tree: ast.Module,
        config: LintConfig,
        module_name: str | None = None,
    ) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        self.module_name = module_name if module_name else _module_name_for(path)
        self._parents: dict[int, ast.AST] | None = None
        self._scopes: dict[int, str] | None = None
        self._aliases: dict[str, str] | None = None

    # ------------------------------------------------------------------
    @property
    def parents(self) -> dict[int, ast.AST]:
        """Map ``id(node) -> parent node`` over the whole tree."""
        if self._parents is None:
            parents: dict[int, ast.AST] = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    parents[id(child)] = parent
            self._parents = parents
        return self._parents

    @property
    def scopes(self) -> dict[int, str]:
        """Map ``id(node) -> dotted enclosing definition name``."""
        if self._scopes is None:
            scopes: dict[int, str] = {}

            def visit(node: ast.AST, stack: tuple[str, ...]) -> None:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    stack = stack + (node.name,)
                scopes[id(node)] = ".".join(stack) if stack else "<module>"
                for child in ast.iter_child_nodes(node):
                    visit(child, stack)

            visit(self.tree, ())
            self._scopes = scopes
        return self._scopes

    @property
    def aliases(self) -> dict[str, str]:
        """Imported-name bindings: local name -> dotted origin.

        ``import numpy as np`` yields ``{"np": "numpy"}``; ``from datetime
        import datetime`` yields ``{"datetime": "datetime.datetime"}``;
        ``import numpy.random`` binds the top package (``numpy``).
        """
        if self._aliases is None:
            aliases: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for item in node.names:
                        if item.asname:
                            aliases[item.asname] = item.name
                        else:
                            top = item.name.split(".")[0]
                            aliases[top] = top
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                    for item in node.names:
                        if item.name == "*":
                            continue
                        aliases[item.asname or item.name] = f"{node.module}.{item.name}"
            self._aliases = aliases
        return self._aliases

    # ------------------------------------------------------------------
    def resolve_chain(self, node: ast.AST) -> tuple[str, ...] | None:
        """Canonical dotted chain of a Name/Attribute expression.

        Resolves the leading name through the file's import aliases:
        ``np.random.normal`` -> ``("numpy", "random", "normal")``.  Returns
        ``None`` for expressions that are not plain attribute chains.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        origin = self.aliases.get(parts[0])
        if origin is not None:
            parts[0:1] = origin.split(".")
        return tuple(parts)

    def enclosing_function(self, node: ast.AST) -> str | None:
        """Name of the nearest enclosing function definition, if any."""
        current: ast.AST | None = self.parents.get(id(node))
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current.name
            current = self.parents.get(id(current))
        return None

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        code = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        return Finding(
            rule=rule,
            path=str(self.path),
            module=self.module_name,
            line=line,
            column=column,
            scope=self.scopes.get(id(node), "<module>"),
            code=code,
            message=message,
        )


def _module_name_for(path: Path) -> str | None:
    """Dotted import path of ``path`` by walking up ``__init__.py`` chains."""
    try:
        resolved = path.resolve()
    except OSError:  # pragma: no cover - unresolvable paths
        return None
    if resolved.suffix != ".py":
        return None
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    current = resolved.parent
    in_package = False
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        in_package = True
        current = current.parent
    if not in_package:
        return None
    return ".".join(parts) if parts else None


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
class Rule:
    """A contract rule: metadata plus a per-file check.

    Subclasses set ``id``/``summary``/``rationale`` and implement
    :meth:`check`.  Rules must be deterministic pure functions of the file
    context (plus, for hybrid rules, the imported module they cross-check).
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError
        yield  # makes every override a generator-compatible signature


#: All registered rules by id, in registration order.
REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule instance to :data:`REGISTRY`."""
    instance = rule_cls()
    if not instance.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if instance.id in REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id!r}")
    REGISTRY[instance.id] = instance
    return rule_cls


# ----------------------------------------------------------------------
# Inline suppression comments
# ----------------------------------------------------------------------
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_*,\- ]+)")


def suppressions_for(source: str) -> dict[int, frozenset[str]]:
    """Parse ``# repro-lint: disable=a,b`` comments: line -> suppressed ids.

    A suppression applies to findings on its own line, and — when the
    comment stands alone on a line — to the line directly below it, so
    long statements can carry the directive above them.
    """
    table: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        table[lineno] = table.get(lineno, frozenset()) | ids
        if line.lstrip().startswith("#"):  # comment-only line covers the next one
            table[lineno + 1] = table.get(lineno + 1, frozenset()) | ids
    return table


def is_suppressed(finding: Finding, table: Mapping[int, frozenset[str]]) -> bool:
    """Whether ``finding`` is silenced by an inline directive."""
    ids = table.get(finding.line)
    if not ids:
        return False
    return finding.rule in ids or "all" in ids or "*" in ids


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    files_checked: int = 0
    errors: list[str] = field(default_factory=list)
    rules: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        """0 clean, 1 findings remain, 2 the run itself failed."""
        if self.errors:
            return 2
        return 1 if self.findings else 0


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield ``*.py`` files under ``paths`` in deterministic sorted order."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" not in candidate.parts:
                    yield candidate
        else:
            yield path


def select_rules(rule_ids: Sequence[str] | None = None) -> list[Rule]:
    """Resolve ``rule_ids`` against the registry (all rules when ``None``)."""
    if not rule_ids:
        return list(REGISTRY.values())
    unknown = sorted(set(rule_ids) - set(REGISTRY))
    if unknown:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown rule id(s) {unknown}; known rules: {known}")
    return [REGISTRY[rule_id] for rule_id in dict.fromkeys(rule_ids)]


def lint_paths(
    paths: Sequence[str | Path],
    rule_ids: Sequence[str] | None = None,
    config: LintConfig | None = None,
    on_file: Callable[[Path], None] | None = None,
) -> LintResult:
    """Run the selected rules over every Python file under ``paths``."""
    config = config or LintConfig()
    rules = select_rules(rule_ids)
    result = LintResult(rules=tuple(rule.id for rule in rules))
    for path in iter_python_files(paths):
        if on_file is not None:
            on_file(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            result.errors.append(f"{path}: unreadable: {error}")
            continue
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            result.errors.append(f"{path}:{error.lineno}: syntax error: {error.msg}")
            continue
        result.files_checked += 1
        ctx = FileContext(path, source, tree, config)
        table = suppressions_for(source)
        for rule in rules:
            for finding in rule.check(ctx):
                if is_suppressed(finding, table):
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
    return result


__all__ = [
    "Finding",
    "FileContext",
    "LintConfig",
    "LintResult",
    "REGISTRY",
    "Rule",
    "register",
    "iter_python_files",
    "is_suppressed",
    "lint_paths",
    "select_rules",
    "suppressions_for",
]
